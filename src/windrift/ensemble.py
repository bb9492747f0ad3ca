"""Walker ensembles on the torus and the winding-number rate estimators.

Walkers are non-interacting vortices/antivortices performing free Langevin
motion. The real-valued winding accumulators integrate pre-wrap
displacements,

    d(alpha_x) = sum_w charge_w * dy_w / l_y
    d(alpha_y) = sum_w charge_w * dx_w / l_x

so a single vortex carried once around the short loop shifts alpha_x by
exactly +1. The topological transition rate Gamma is then extracted three
independent ways: the slope of <[alpha(t)-alpha(0)]^2> (MSD), the
integrated autocorrelation of alpha-dot (Green-Kubo), and the closed-form
T*(N_v+N_a)/(eta*l^2). A replica's windings and increments are each one
(2, .) array whose rows are x and y, from the engines to the estimators.

Two engines give the same law. run_replica propagates every walker,
chunk by chunk, with the exact one-step propagator, and can record
velocities and positions; one helper thread draws the next chunk's
normals while the current chunk propagates, and the chunks reuse fixed
buffers. A chunk holds STEP_BYTES (13 doubles) per walker and step, and
its length is the most steps that fit in CHUNK_BYTES (4 MiB), at least
one: beyond the arrays it returns, run_replica holds at most CHUNK_BYTES
whatever the walker count, unless one step of all walkers exceeds it.
Among those arrays are the per-step v_y^2 sums (8 bytes per recorded
step); the per-step walker counts are one value broadcast read-only.
run_winding draws, over the whole series at once, only the
charge-weighted displacement sums D = sum q dx per axis: the walkers do
not interact and q^2 = 1, so D of n walkers at temperature T is exactly
one walker's at temperature nT, whose increments are a stationary
ARMA(1,1) process (langevin.increment_law). The winding series cost 2
draws per step whatever the walker count, and one loop over blocks of
steps filters them (_arma_filter): each block is scaled, summed by one
cumsum and scaled back, carrying one value per row into the next, so
beyond the normals it holds O(block) memory and no O(steps) temporary.

Reproducibility: all noise comes from Philox streams keyed by
(master_seed, stream_id); draws happen in a fixed (step, walker, axis,
role) order for run_replica and in (axis, step) order for run_winding
(rng.py gives each engine's full layout). run_winding draws nothing
itself: it spends one flat array of normals that collective_normals
draws, so a caller can draw the next replica while this one propagates.
prefetched owns that overlap, one item ahead on one helper thread,
which it binds to another CPU than its caller's so that the two overlap;
run_replica's helper is the only thread that draws once the initial
state is drawn, one chunk at a time in chunk order, so the stream is
consumed as by one thread. Replicas are the unit of parallelism and are
never split, so results are bit-identical for any worker count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .langevin import (OUPropagator, ThermalEnv, _as_rows, _check_fit_start,
                       _check_positive_finite, _check_samples,
                       _green_kubo_rates, _msd_rates, increment_law)
from .rng import substream


@dataclass(frozen=True)
class TorusGeometry:
    """Torus circumferences, l_x >= l_y > 0."""

    l_x: float
    l_y: float

    def __post_init__(self):
        if not (self.l_x >= self.l_y > 0.0):
            raise ValueError(f"require l_x >= l_y > 0, got "
                             f"({self.l_x}, {self.l_y})")


class RateEstimate(NamedTuple):
    """An estimator's rate: the mean over rows clipped at 0, the standard
    error over rows, and the unclipped rate of each row (replica)."""

    gamma_rate: float
    stderr: float
    per_row: np.ndarray


@dataclass
class SimulationState:
    """Walker arrays plus winding accumulators.

    Positions are stored wrapped into [0, l_x) x [0, l_y); the alpha
    accumulators integrate pre-wrap displacements.
    """

    pos: np.ndarray           # (n, 2)
    vel: np.ndarray           # (n, 2)
    charges: np.ndarray       # (n,), +1 / -1
    alpha_x: float
    alpha_y: float


def _check_counts(n_v: int, n_a: int) -> None:
    if n_v != n_a:
        raise ValueError(f"net vorticity must vanish: n_v={n_v} != n_a={n_a}")
    if n_v < 0:
        raise ValueError("counts must be nonnegative")


def _check_steps(dt: float, n_steps: int, sample_stride: int,
                 burn_in_steps: int = 0) -> None:
    _check_positive_finite("step dt", dt)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    if burn_in_steps < 0:
        raise ValueError(f"burn_in_steps must be >= 0, got {burn_in_steps}")


def initial_state(env: ThermalEnv, geometry: TorusGeometry, n_v: int,
                  n_a: int, rng: np.random.Generator,
                  init_velocities: str = "stationary") -> SimulationState:
    """Fresh neutral ensemble with positions uniform on the torus.

    Velocities are drawn from the stationary Maxwell distribution
    (variance T/M per axis) or start at zero ("zero"), in which case a
    burn-in of order 20/gamma is needed before sampling.
    """
    _check_counts(n_v, n_a)
    n = n_v + n_a
    pos = rng.random((n, 2)) * [geometry.l_x, geometry.l_y]
    if init_velocities == "stationary":
        vel = rng.normal(0.0, np.sqrt(env.temperature / env.mass),
                         size=(n, 2))
    elif init_velocities == "zero":
        vel = np.zeros((n, 2))
    else:
        raise ValueError(f"unknown init_velocities {init_velocities!r}")
    charges = np.ones(n)
    charges[n_v:] = -1.0
    return SimulationState(pos=pos, vel=vel, charges=charges,
                           alpha_x=0.0, alpha_y=0.0)


@dataclass
class WindingResult:
    """The winding series of one replica: what the rate estimators read."""

    times: np.ndarray          # (S+1,), includes t=0
    alpha: np.ndarray          # (2, S+1), rows alpha_x and alpha_y
    inc: np.ndarray            # (2, N) per-step increments, rows x and y
    final_alpha: Tuple[float, float]


@dataclass
class ReplicaResult(WindingResult):
    """Everything one replica run emits for the estimators and exporters."""

    n_v: int
    n_a: int
    state: SimulationState
    vel_series: np.ndarray       # (N, k) v_y of the first k walkers
    chunk_vy2_sums: np.ndarray   # (N,) sum of v_y^2 per step
    chunk_counts: np.ndarray     # (N,) walkers per step, read-only view
    positions: np.ndarray        # (P, n, 2) unwrapped, P = 0 unrecorded
    position_times: np.ndarray   # (P,)


# run_replica's chunk buffers per walker and step: two noise buffers
# (8 doubles), velocities (2), displacements (2) and one reduction
# temporary (1)
STEP_BYTES = 13 * 8
# bytes of chunk buffers run_replica may hold; each chunk then draws
# CHUNK_BYTES / 26 normals whatever the walker count (about 161k, 4 ms of
# draws; the helper hands a chunk off in 30-50 us)
CHUNK_BYTES = 4 << 20
# _arma_filter scales a block by |decay|**-s for s below its length, at
# most e**BLOCK_EXPONENT (about 1e260): no factor or scaled sum overflows,
# and no factor goes subnormal
BLOCK_EXPONENT = 600.0


def lfilter(v: np.ndarray, decay: float) -> np.ndarray:
    """The first-order recurrence v[i] += decay * v[i-1] along axis 0, one
    step at a time, in place; returns v: run_replica's OU velocities (row
    0 the starting velocity, row i sigma_v * n1 of step i on entry), the
    stepwise arithmetic bit for bit.
    """
    tmp = np.empty(v.shape[1:])
    for prev, row in zip(v[:-1], v[1:]):   # row views, updated in turn
        np.multiply(prev, decay, out=tmp)
        row += tmp
    return v


def _block_steps(decay: float, n: int) -> int:
    """The steps of one of _arma_filter's blocks over n steps: the most s
    with |decay|**-s <= e**BLOCK_EXPONENT, at least 1 and at most n."""
    rate = -math.log(abs(decay)) if decay else math.inf
    if rate * n <= BLOCK_EXPONENT:
        return n
    return max(1, int(BLOCK_EXPONENT / rate))


@lru_cache(maxsize=8)
def _block_factors(decay: float, steps: int):
    """(decay**-s, decay**s) for s < steps, read-only: the scalings of one
    block. Cached per (decay, steps)."""
    s = np.arange(steps, dtype=float)
    factors = decay ** -s, decay ** s
    for f in factors:
        f.flags.writeable = False
    return factors


def _arma_filter(rows: np.ndarray, decay: float, theta: float,
                 head) -> np.ndarray:
    """The ARMA(1,1) filter D_i = decay D_(i-1) + e_i + theta e_(i-1) /
    head_(i-1) along the last axis of the (k, n) array rows, in place, e
    on entry and D on return; D_(-1) = e_(-1) = 0 and head_i = 1 beyond
    head. decay may be negative, and |decay| <= 1.

    A blocked linear-recurrence scan (Blelloch, "Prefix Sums and Their
    Applications", CMU-CS-90-190 (1990); Martin & Cundy, ICLR 2018): over
    a block of B = _block_steps steps from b, D_(b+t) = decay**t
    sum_(s<=t) decay**-s w_(b+s), with w_(b+s) the block's MA sums and
    decay D_(b-1) added to w_b. So each block takes its theta term, is
    scaled by decay**-s, summed by one cumsum along the rows and scaled by
    decay**s; the next block carries its last D and theta e. Beyond rows
    it holds O(B) values, and B = floor(600/|ln|decay||) keeps every
    factor within e**600.
    """
    n = rows.shape[1]
    up, down = _block_factors(decay, _block_steps(decay, n))
    steps = len(up)
    # ma[:, j + 1] is theta e_(b+j) / head_(b+j), the term of step b + j + 1;
    # ma[:, 0] carries decay D_(b-1) + theta e_(b-1) / head_(b-1)
    ma = np.zeros((len(rows), steps + 1))
    for start in range(0, n, steps):
        block = rows[:, start:start + steps]
        m = block.shape[1]
        np.multiply(block, theta, out=ma[:, 1:m + 1])
        if start < len(head):
            tail = head[start:start + m]
            ma[:, 1:len(tail) + 1] /= tail
        block += ma[:, :m]
        block *= up[:m]
        np.cumsum(block, axis=1, out=block)
        block *= down[:m]
        np.multiply(block[:, -1], decay, out=ma[:, 0])
        ma[:, 0] += ma[:, m]
    return rows


def _propagate(noise: np.ndarray, prop: OUPropagator, vel: np.ndarray, *,
               v: np.ndarray, dxy: np.ndarray):
    """Advance velocities vel step by step over the steps whose normals
    noise holds.

    noise is indexed [step, ..., role], its middle axes shaped as vel; its
    normals are spent (overwritten). Returns (vseq, dxy): the velocity
    after each step and each step's displacement, both shaped
    noise[..., 0], written into v (one row longer) and dxy.
    """
    n1, n2 = noise[..., 0], noise[..., 1]
    v[0] = vel
    np.multiply(n1, prop.sigma_v, out=v[1:])
    lfilter(v, prop.decay)
    # dxy = drift * vprev + c1 * n1 + c2 * n2, the products formed in the
    # spent normals
    dxy = np.multiply(v[:-1], prop.drift, out=dxy)
    n1 *= prop.c1
    dxy += n1
    n2 *= prop.c2
    dxy += n2
    return v[1:], dxy


_END = object()


def _bind(cpus: list, slot: int) -> None:
    """Bind the calling thread to cpus[slot % len(cpus)] alone; bind nothing
    for fewer than two cpus."""
    if len(cpus) >= 2:
        os.sched_setaffinity(0, (cpus[slot % len(cpus)],))


def prefetched(make, items, slot: int = 0):
    """Yield make(item) for each item of items, in order, one item ahead.

    One helper thread takes the next item and makes it while the caller
    works on the last one made, so while the caller holds item i no more
    than item i + 1 has been started; the helper may reuse what item i - 1
    held. items is advanced on the helper alone, so helpers of several
    callers may share one thread-safe iterator. An exception raised by
    make reaches the caller in place of its item. The with block joins
    the helper however the generator ends: exhausted, closed early, or
    dropped by a caller that raised.

    The caller runs on the CPU at index slot of its sorted mask and the
    helper on the one at slot + 1, both modulo the mask's CPU count; the
    mask is read once, before either thread is bound. Left to the
    scheduler, both threads were seen on one CPU of two while the other
    stayed idle, so the draws hid nothing. The caller gets its mask back
    when the generator ends, however it ends; the helper's binding ends
    with the helper. With one CPU allowed, or where threads cannot be
    bound, nothing is bound.
    """
    items = iter(items)
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [])

    def make_next():
        for item in items:
            return make(item)
        return _END

    _bind(cpus, slot)
    try:
        with ThreadPoolExecutor(max_workers=1, initializer=_bind,
                                initargs=(cpus, slot + 1)) as helper:
            pending = helper.submit(make_next)
            while (made := pending.result()) is not _END:
                pending = helper.submit(make_next)
                yield made
    finally:
        if len(cpus) >= 2:
            os.sched_setaffinity(0, cpus)


def _chunks(rng: np.random.Generator, prop: OUPropagator, vel: np.ndarray,
            burn_in_steps: int, n_steps: int):
    """Propagate burn-in, then the recorded steps, in chunks of the most
    steps of all walkers whose STEP_BYTES fit in CHUNK_BYTES, at least one.

    Yields (recording, done, vseq, dxy) per chunk, done being the chunk's
    first step within its phase; the velocity is carried between chunks.
    vseq and dxy are views of buffers that the next chunk overwrites.
    prefetched's helper draws each chunk's (step, walker, axis, role)
    normals, in chunk order, into one of two reused buffers while this
    thread propagates the chunk before, the two on different CPUs while
    the chunks run (prefetched's slot 0); nothing else draws from rng
    meanwhile, so the stream is consumed as by one thread.
    """
    steps = max(1, CHUNK_BYTES // (STEP_BYTES * len(vel)))
    plan = [(recording, done, min(steps, total - done))
            for total, recording in ((burn_in_steps, False), (n_steps, True))
            for done in range(0, total, steps)]
    rows = max(m for _, _, m in plan)
    noise = np.empty((2, rows) + vel.shape + (2,))
    v = np.empty((rows + 1,) + vel.shape)
    dxy = np.empty((rows,) + vel.shape)

    def draw(item):
        i, (recording, done, m) = item
        return recording, done, rng.standard_normal(
            (m,) + vel.shape + (2,), out=noise[i % 2, :m])

    for recording, done, chunk in prefetched(draw, enumerate(plan)):
        m = len(chunk)
        vseq, dxy_m = _propagate(chunk, prop, vel, v=v[:m + 1],
                                 dxy=dxy[:m])
        vel = vseq[-1].copy()
        yield recording, done, vseq, dxy_m


def _record_increments(dxy, charges, geometry: TorusGeometry, inc,
                       start: int) -> None:
    """Write a chunk's charge-weighted winding increments from step start
    into the (2, N) rows inc, one contiguous reduction per axis."""
    stop = start + dxy.shape[0]
    inc[0, start:stop] = (charges[None, :] * dxy[:, :, 1]).sum(axis=1) \
        / geometry.l_y
    inc[1, start:stop] = (charges[None, :] * dxy[:, :, 0]).sum(axis=1) \
        / geometry.l_x


def _stride_windings(inc, dt: float, sample_stride: int) -> WindingResult:
    """Cumulative windings, sampled after every sample_stride-th step,
    from the sums over each stride: one reduceat over the S whole strides,
    then a cumsum of the S sums. final_alpha adds the steps after the
    last sample. Holds 4 doubles per sample beyond inc."""
    n = inc.shape[1]
    whole = n - n % sample_stride
    alpha = np.zeros((2, whole // sample_stride + 1))
    if whole:
        sums = np.add.reduceat(inc[:, :whole],
                               np.arange(0, whole, sample_stride), axis=1)
        np.cumsum(sums, axis=1, out=alpha[:, 1:])
    final = alpha[:, -1] + inc[:, whole:].sum(axis=1)
    return WindingResult(
        times=np.arange(0, n + 1, sample_stride) * dt, alpha=alpha,
        inc=inc, final_alpha=tuple(final.tolist()))


def run_replica(env: ThermalEnv, geometry: TorusGeometry, n_v: int, n_a: int,
                dt: float, n_steps: int, master_seed: int = 0,
                stream_id: int = 0, *,
                sample_stride: int = 10,
                burn_in_steps: int = 0,
                init_velocities: str = "stationary",
                velocity_series_walkers: int = 0,
                position_stride: int = 0) -> ReplicaResult:
    """Run one replica with chunked, vectorized per-walker propagation.

    Each step applies the exact OUPropagator recurrence to every walker.
    All noise is consumed in (step, walker, axis, role) order, so the
    trajectory is a pure function of the Philox stream of
    (master_seed, stream_id) and the physical arguments.
    Use it where walkers matter: velocity series, positions, equipartition;
    run_winding gives the winding series alone in O(1) draws per step.

    The winding accumulators are zeroed after burn-in; sampled series
    start at (t=0, alpha=0) at the first recorded instant. With
    position_stride, unwrapped positions are recorded after every
    position_stride-th recorded step. chunk_counts is the walker count n
    at every recorded step, returned as a read-only broadcast of the one
    value, so it holds no memory per step.
    """
    _check_steps(dt, n_steps, sample_stride, burn_in_steps)
    rng = substream(master_seed, stream_id)
    state = initial_state(env, geometry, n_v, n_a, rng,
                          init_velocities=init_velocities)
    prop = OUPropagator.build(env, dt)
    n = n_v + n_a
    if not 0 <= velocity_series_walkers <= n:
        raise ValueError(f"velocity_series_walkers must be in [0, {n}], got "
                         f"{velocity_series_walkers}")
    if position_stride < 0:
        raise ValueError(f"position_stride {position_stride} must be >= 0")

    inc = np.zeros((2, n_steps))
    vel_series = np.empty((n_steps, velocity_series_walkers))
    vy2_sums = np.zeros(n_steps)
    positions = np.empty((n_steps // position_stride
                          if position_stride and n else 0, n, 2))

    pos_unwrapped = state.pos.copy()
    if n:
        for recording, done, vseq, dxy in _chunks(
                rng, prop, state.vel, burn_in_steps, n_steps):
            m = dxy.shape[0]
            if recording:
                _record_increments(dxy, state.charges, geometry, inc, done)
                vel_series[done:done + m] = \
                    vseq[:, :velocity_series_walkers, 1]
                (vseq[:, :, 1] ** 2).sum(axis=1, out=vy2_sums[done:done + m])
            # one running sum from the carried position, so the positions
            # are the same sequential sum whatever the chunk size; a record
            # follows each step whose global 1-based index hits the stride
            dxy[0] += pos_unwrapped
            np.cumsum(dxy, axis=0, out=dxy)
            if recording and position_stride:
                rows = dxy[(position_stride - 1 - done) % position_stride::
                           position_stride]
                first = done // position_stride
                positions[first:first + len(rows)] = rows
            pos_unwrapped = dxy[-1].copy()
        state.vel = vseq[-1].copy()
        del vseq, dxy  # the last chunk is not kept through the tail

    state.pos = pos_unwrapped % [geometry.l_x, geometry.l_y]
    windings = _stride_windings(inc, dt, sample_stride)
    state.alpha_x, state.alpha_y = windings.final_alpha
    record_steps = np.arange(1, len(positions) + 1) * position_stride
    return ReplicaResult(
        **vars(windings), n_v=n_v, n_a=n_a, state=state,
        vel_series=vel_series, chunk_vy2_sums=vy2_sums,
        chunk_counts=np.broadcast_to(float(n), (n_steps,)),
        positions=positions,
        position_times=record_steps * dt)


def collective_size(n: int, steps: int) -> int:
    """How many normals run_winding spends on n walkers over steps recorded
    steps."""
    return 2 * steps if n else 0


def collective_normals(rng: np.random.Generator, n: int, steps: int, *,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """The normals run_winding spends on a replica of n walkers over steps
    recorded steps, as one flat array: those of the steps axis-major, the
    alpha_x row first. An empty ensemble draws nothing and gets an empty
    array. out, when given, has room for at least that many; they are
    drawn into its head, which is returned."""
    size = collective_size(n, steps)
    return rng.standard_normal(size, out=None if out is None else out[:size])


def run_winding(env: ThermalEnv, geometry: TorusGeometry, n_v: int,
                n_a: int, dt: float, n_steps: int, *,
                normals: np.ndarray, sample_stride: int = 10
                ) -> WindingResult:
    """Winding series of one replica from the collective coordinates alone.

    Per axis, D = sum q dx of n = n_v + n_a independent walkers (q = +-1)
    has the displacement law of one walker at temperature nT, and that law
    (increment_law) is a stationary Gaussian ARMA(1,1) process. So the
    windings have exactly the law of run_replica's, from 2 normals per
    step instead of 4n: the exact innovations form of the process
    (Brockwell & Davis, Time Series: Theory and Methods, 2nd ed., 1991,
    section 5.3), D_1 = s sqrt(r_0) z_1 and D_i = phi D_(i-1)
    + s (sqrt(r_(i-1)) z_i + theta z_(i-1) / sqrt(r_(i-2))).

    normals are collective_normals(rng, n, n_steps); any other length is
    refused. The start is exactly stationary, so no burn-in is run or
    drawn. They hold the (2, n_steps) increments' normals, rows x and y,
    and are spent: scaled by sqrt(r) at the head, filtered in place along
    the contiguous rows by _arma_filter, one loop over blocks of B =
    floor(600/(gamma dt)) steps that each take the theta term, add phi
    times the last D carried from the block before, and run one scaled
    cumsum, and then scaled by sqrt(nT s2/eta)/l, each axis once. D is
    carried unscaled, so T = 0 gives zeros. inc is that view of them.
    The windings come from the sums over each stride (_stride_windings).
    Beyond the normals (2 doubles per step) the memory is O(B) for the
    filter and 4 doubles per sample for the windings, with no temporary
    of O(n_steps). An empty ensemble has zero increments. The series
    start at (t=0, alpha=0).
    """
    _check_steps(dt, n_steps, sample_stride)
    _check_counts(n_v, n_a)
    n = n_v + n_a
    size = collective_size(n, n_steps)
    if np.shape(normals) != (size,):
        raise ValueError(f"normals holds {np.size(normals)} values, but "
                         f"{n} walkers over {n_steps} steps spend {size}")
    if not n:
        return _stride_windings(np.zeros((2, n_steps)), dt, sample_stride)
    law = increment_law(env.gamma, dt)
    inc = normals.reshape(2, n_steps)
    # innovations e_i = sqrt(r_i) z_i, then D_i = phi D_(i-1) + s w_i with
    # w_i = e_i + theta e_(i-1) / r_(i-1); r_i = 1 beyond the head
    head = law.r[:n_steps]
    inc[:, :len(head)] *= np.sqrt(head)
    _arma_filter(inc, law.phi, law.theta, head)
    # rows x and y wind with the y and x displacements
    inc *= (np.sqrt(n * env.temperature * law.s2 / env.eta)
            / np.array([geometry.l_y, geometry.l_x]))[:, None]
    return _stride_windings(inc, dt, sample_stride)


def mean_population(env: ThermalEnv, geometry: TorusGeometry,
                    f0: float) -> float:
    """Boltzmann mean of the total vortex+antivortex count: (V/pi) M T e^-F0/T."""
    if f0 < 0.0:
        raise ValueError("vortex free energy f0 must be >= 0")
    if env.temperature <= 0.0:
        raise ValueError("population sampling requires T > 0")
    return (geometry.l_x * geometry.l_y / np.pi * env.mass * env.temperature
            * np.exp(-f0 / env.temperature))


def sample_population(env: ThermalEnv, geometry: TorusGeometry, f0: float,
                      rng: np.random.Generator):
    """Draw (n_v, n_a): Poisson total, rounded to the nearest even, split equally.

    An odd total sits exactly between two even numbers; the tie is broken
    by a fair coin so the Boltzmann mean is preserved. A mean below 2
    simply makes (0, 0) the likely outcome ("empty ensemble"); it is not
    an error.
    """
    mean = mean_population(env, geometry, f0)
    total = int(rng.poisson(mean))
    if total % 2:
        total += 1 if rng.random() < 0.5 else -1
    return total // 2, total // 2


def even_mean_population(env: ThermalEnv, geometry: TorusGeometry,
                         f0: float):
    """Deterministic variant: the Boltzmann mean rounded to the nearest even."""
    mean = mean_population(env, geometry, f0)
    half = int(np.rint(mean / 2.0))
    return half, half


def analytic_rate(env: ThermalEnv, geometry: TorusGeometry, n_v: int,
                  n_a: int, axis: str = "x") -> float:
    """Closed-form rate T (N_v+N_a) / (eta l^2), l = l_y for axis x."""
    if n_v < 0 or n_a < 0:
        raise ValueError("counts must be nonnegative")
    length = _axis_length(geometry, axis)
    return float(env.temperature * (n_v + n_a) / (env.eta * length**2))


def predicted_rate(env: ThermalEnv, geometry: TorusGeometry, f0: float,
                   axis: str = "x") -> float:
    """Design-level rate (M T^2 / pi eta) (l_x/l_y) e^-F0/T, 0 at T = 0.

    The y-axis rate interchanges l_x and l_y.
    """
    if f0 < 0.0:
        raise ValueError("vortex free energy f0 must be >= 0")
    length = _axis_length(geometry, axis)
    ratio = (geometry.l_x if axis == "x" else geometry.l_y) / length
    t = env.temperature
    rate = env.mass * t**2 / (np.pi * env.eta) * ratio * np.exp(-f0 / t) \
        if t > 0.0 else 0.0
    return float(rate)


def _axis_length(geometry: TorusGeometry, axis: str) -> float:
    if axis == "x":
        return geometry.l_y
    if axis == "y":
        return geometry.l_x
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _estimate(rates: np.ndarray) -> RateEstimate:
    """Mean of the per-row rates, clipped at 0, and the standard error of
    the unclipped rows (clipping each row would bias the mean upward)."""
    stderr = (float(np.std(rates, ddof=1) / np.sqrt(len(rates)))
              if len(rates) > 1 else 0.0)
    return RateEstimate(max(float(np.mean(rates)), 0.0), stderr, rates)


def rate_from_msd(spacing: float, alphas, fit_window, *,
                  gamma=None) -> RateEstimate:
    """Rate from the slope of the winding-number MSD.

    Parameters
    ----------
    spacing : float
        Time between successive samples of the alpha series, > 0.
    alphas : (R, S) array
        Winding-number samples; rows are independent replicas, and a
        single (S,) series is one replica (stderr 0).
    fit_window : (t_min, t_max)
        Lag-time window for the line, fitted at every lag of the
        all-origin MSD; a window of fewer than two lags is refused.
    gamma : float, optional
        Velocity relaxation rate eta/M; when given, the window must start
        in the diffusive regime, t_min >= 10/gamma.

    Returns
    -------
    RateEstimate
        stderr is the standard error over replica slopes, and per_row
        holds each row's rate.
    """
    spacing = float(spacing)
    _check_positive_finite("sample spacing", spacing)
    if gamma is not None:
        _check_fit_start(fit_window[0], gamma)
    rows = _as_rows(alphas)
    _check_samples(rows.shape[1])
    return _estimate(_msd_rates(rows, spacing, *fit_window))


def rate_from_green_kubo(increments, dt: float,
                         cutoff: float) -> RateEstimate:
    """Rate from the integrated autocorrelation of alpha-dot.

    Gamma = (1/2) [C(0) dt + 2 sum_k>=1 C(k) dt] with C the lag
    autocorrelation of Delta(alpha)/dt, summed to the cutoff lag time.
    The rectangle sum telescopes to the exact long-time MSD growth rate
    for any dt, so no small-dt extrapolation is needed.

    Gamma is linear in the lag products, so each row's rate is its own
    power spectrum's contraction (langevin._green_kubo_rates).

    increments are (R, N) per-replica rows, and a single (N,) series is
    one replica (stderr 0); per_row of the result holds each row's rate.
    """
    return _estimate(_green_kubo_rates(_as_rows(increments), dt, cutoff))


def pool_replicas(per_rows) -> Tuple[RateEstimate, ...]:
    """Pool one estimator's per-replica calls into one estimate per row.

    per_rows holds each replica's per_row, from a call on the same rows of
    that replica (e.g. its x and y series). Row i of the result pools row
    i of every call, with the rule of a single call on all replicas' rows:
    per_row holds the replicas' rates in order, the mean is clipped at 0
    and the standard error is over the replicas.
    """
    return tuple(_estimate(rates) for rates in np.stack(per_rows, axis=1))
