"""Single-vortex Langevin dynamics: M r'' + eta r' = f(t).

The force is Gaussian white noise with <f_i(t) f_j(t')> =
2 eta T delta_ij delta(t-t'), the unique normalization for which the
stationary velocity variance is T/M per axis (equipartition).

There is no potential term, so the velocity is an Ornstein-Uhlenbeck
process and the position-velocity update over any finite dt has an exact
Gaussian propagator. Stepping uses that propagator, never Euler-Maruyama:
results carry no time-step bias, only statistics.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np


@dataclass(frozen=True)
class ThermalEnv:
    """Vortex mass, viscosity, temperature; gamma = eta/mass is cached."""

    mass: float
    eta: float
    temperature: float

    def __post_init__(self):
        for name in ("mass", "eta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"ThermalEnv.{name} must be positive")
        if self.temperature < 0.0:
            raise ValueError("ThermalEnv.temperature must be >= 0")

    @property
    def gamma(self) -> float:
        return self.eta / self.mass


@dataclass(frozen=True)
class OUPropagator:
    """Exact one-step propagator coefficients for step dt.

    v' = decay * v + sigma_v * n1
    dx = drift * v + c1 * n1 + c2 * n2

    with n1, n2 independent standard normals per axis. (c1, c2) is the
    Cholesky factor of the exact position-noise covariance, so the pair
    (dx, v') has the exact joint distribution of the free underdamped
    process for any dt.
    """

    dt: float
    decay: float
    drift: float
    sigma_v: float
    c1: float
    c2: float

    @classmethod
    def build(cls, env: ThermalEnv, dt: float) -> "OUPropagator":
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        gamma = env.gamma
        x = gamma * dt
        decay = np.exp(-x)
        drift = -np.expm1(-x) / gamma
        t_over_m = env.temperature / env.mass
        var_v = t_over_m * (-np.expm1(-2.0 * x))
        cov_xv = (t_over_m / gamma) * np.expm1(-x) ** 2
        # 2x - 3 + 4e^-x - e^-2x cancels catastrophically for small x
        if x < 1e-2:
            f = x**3 * (2.0 / 3.0 + x * (-0.5 + x * (7.0 / 30.0
                        + x * (-1.0 / 12.0 + x * (31.0 / 1260.0)))))
        else:
            f = 2.0 * x - 3.0 + 4.0 * np.exp(-x) - np.exp(-2.0 * x)
        var_x = t_over_m / gamma**2 * f
        sigma_v = np.sqrt(var_v)
        if sigma_v > 0.0:
            c1 = cov_xv / sigma_v
            c2 = np.sqrt(max(var_x - c1 * c1, 0.0))
        else:
            c1 = c2 = 0.0
        return cls(dt=dt, decay=decay, drift=drift, sigma_v=sigma_v,
                   c1=c1, c2=c2)


class IncrementLaw(NamedTuple):
    """The stationary law of the displacements over successive steps of
    one free walker at unit diffusion T/eta = 1, per axis; increment_law
    gives it."""

    phi: float        # e^-gamma h
    c0: float         # variance of one step's displacement
    c1: float         # covariance of successive steps; c_k = c1 phi^(k-1)
    theta: float      # MA(1) coefficient of u_i = D_i - phi D_(i-1)
    s2: float         # variance of the MA(1) noise
    r: np.ndarray     # innovation variances r_i / s2 until they reach 1


# Taylor coefficients of the forms below that cancel at small x, highest
# power first for np.polyval: x + expm1(-x) = x^2 sum_k (-x)^k / (k+2)!,
# sinh x - x = x^3 sum_k y^k / (2k+3)! and 2 (x cosh x - sinh x) =
# x^3 sum_k 4 (k+1) y^k / (2k+3)!, with y = x^2; below x = 1 the omitted
# terms are under 1e-18 of the sum
_EXP_TAIL = [(-1) ** k / math.factorial(k + 2) for k in range(20)][::-1]
_SINH_TAIL = [1.0 / math.factorial(2 * k + 3) for k in range(10)][::-1]
_COSH_TAIL = [4.0 * (k + 1) / math.factorial(2 * k + 3)
              for k in range(10)][::-1]


@lru_cache(maxsize=8)
def increment_law(gamma: float, dt: float) -> IncrementLaw:
    """The increments' law over step h = dt at relaxation rate gamma, per
    axis at unit diffusion: a stationary Gaussian ARMA(1,1) process.

    With x = gamma h and phi = e^-x, the step covariances are c0 =
    2 (h - (1 - phi)/gamma) and c_k = c1 phi^(k-1), c1 = (1 - phi)^2/gamma,
    so u_i = D_i - phi D_(i-1) is MA(1): its lag-0 and lag-1 covariances
    c0 (1 + phi^2) - 2 phi c1 = 2 e^-x (x cosh x - sinh x)/gamma and
    c1 - phi c0 = 2 e^-x (sinh x - x)/gamma vanish beyond lag 1. Their
    spectral factorization (Brockwell & Davis, Time Series: Theory and
    Methods, 2nd ed., 1991, section 3.3) gives u_i = Z_i + theta Z_(i-1),
    Z white of variance s2, |theta| < 1 (about 0.268 at small x). The
    innovations algorithm (ibid., section 5.2) on D_1, u_2, u_3, ... gives
    the one-step prediction errors' variances s2 r_i from the exact
    stationary start: r_0 = c0/s2, r_i = 1 + theta^2 - theta^2/r_(i-1).
    r lists them until one lies within one ulp of 1, their fixed point
    (14 rows at x from 1e-3 to 0.2); from there on they are 1.

    Every cancelling difference is read from its Taylor series below
    x = 1, so the law holds to rounding at any x. Read-only and cached.
    """
    x = gamma * dt
    a = -math.expm1(-x)
    if x < 1.0:
        y = x * x
        excess = y * np.polyval(_EXP_TAIL, x)
        lag1 = math.exp(-x) * x * y * np.polyval(_SINH_TAIL, y)
        lag0 = math.exp(-x) * x * y * np.polyval(_COSH_TAIL, y)
    else:
        excess = x - a
        lag1 = 0.5 * a * (2.0 - a) - x * math.exp(-x)
        lag0 = x - 1.0 + (x + 1.0) * math.exp(-2.0 * x)
    rho = lag1 / lag0
    theta = 2.0 * rho / (1.0 + math.sqrt(1.0 - 4.0 * rho * rho))
    s2 = 2.0 * lag0 / (gamma * (1.0 + theta * theta))
    c0 = 2.0 * excess / gamma
    r = [c0 / s2]
    while abs(r[-1] - 1.0) > np.finfo(float).eps:
        r.append(1.0 + theta * theta - theta * theta / r[-1])
    rows = np.array(r[:-1])
    rows.flags.writeable = False
    return IncrementLaw(phi=math.exp(-x), c0=c0, c1=a * a / gamma,
                        theta=theta, s2=s2, r=rows)


@dataclass(frozen=True)
class AcfFit:
    """Exponential fit C(tau) = amplitude * exp(-rate * tau)."""

    amplitude: float
    rate: float
    amplitude_err: float
    rate_err: float


def velocity_autocorrelation(series, dt: float, max_lag: int
                             ) -> Tuple[np.ndarray, np.ndarray, AcfFit]:
    """Lagged velocity products and an exponential fit.

    Parameters
    ----------
    series : array_like, shape (N,) or (R, N)
        Sampled velocity component; rows are independent series whose
        correlations are averaged.
    dt : float
        Sample spacing.
    max_lag : int
        Largest lag (in samples), at least 2; series length must be
        >= 10 * max_lag.

    Returns
    -------
    (tau, c, fit)
        Lag times, unbiased product averages, and the fitted
        amplitude/decay with standard errors (_fit_exponential).
    """
    if max_lag < 2:
        raise ValueError(f"max_lag must be >= 2, got {max_lag}: a "
                         f"two-parameter fit needs three lags or more")
    series = _as_rows(series)
    n = series.shape[1]
    if n < 10 * max_lag:
        raise ValueError(f"series length {n} < 10 * max_lag = {10 * max_lag}")
    c = _lag_products(series, max_lag).mean(axis=0)
    tau = np.arange(max_lag + 1) * dt
    return tau, c, AcfFit(*_fit_exponential(tau, c))


def _as_rows(values) -> np.ndarray:
    """values as a float (R, n) array of R >= 1 rows, a single (n,) series
    being one row; input without rows is refused, since its mean over rows
    would be NaN."""
    rows = np.atleast_2d(np.asarray(values, dtype=float))
    if not len(rows):
        raise ValueError(f"input of shape {rows.shape} has no rows")
    return rows


def _fit_exponential(tau, c):
    """Least-squares fit of amp * exp(-rate * tau) to c on lags tau[0] = 0
    < tau[1] < ..., by variable projection (Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 413 (1973)).

    For a given rate, with e = exp(-rate * tau), the best amplitude is
    a = (c.e)/(e.e) and SSR = c.c - P with P = (c.e)^2/(e.e), so the rate
    maximises P alone, where dP/drate = -2a (c - a e).(tau e). The largest
    P on a log grid of rates from 1e-3/tau[-1] to 1e3/tau[1] brackets the
    rate between its grid neighbours, and bisection on the sign of that
    slope narrows the bracket until its midpoint rounds to an end. A
    series that has not decayed by tau[-1] puts the maximum at the low
    end of that grid; on white noise P is flat at the high end, so any
    large rate fits equally well.

    Returns (amplitude, rate, amplitude_err, rate_err), the errors from
    inv(J^T J) * SSR / (n - 2), as scipy's curve_fit gives them, or inf
    where J^T J is singular to working precision (white noise fits a
    rate so large that exp(-rate * tau) is negligible at every tau > 0).
    """
    if not np.all(np.isfinite(c)):
        raise ValueError("autocorrelation contains NaN or inf")

    def profile(log_rate):
        e = np.exp(-np.exp(log_rate) * tau)
        return (e @ c) ** 2 / (e @ e)

    def rising(rate):
        e = np.exp(-rate * tau)
        amp = (e @ c) / (e @ e)
        return -amp * ((c - amp * e) @ (tau * e)) > 0.0

    grid = np.linspace(np.log(1e-3 / tau[-1]), np.log(1e3 / tau[1]), 121)
    best = int(np.argmax([profile(x) for x in grid]))
    lo = np.exp(grid[max(best - 1, 0)])
    hi = np.exp(grid[min(best + 1, len(grid) - 1)])
    while lo < (rate := 0.5 * (lo + hi)) < hi:
        if rising(rate):
            lo = rate
        else:
            hi = rate
    e = np.exp(-rate * tau)
    amp = (e @ c) / (e @ e)
    r = amp * e - c
    jac = np.column_stack([e, -amp * tau * e])
    a = jac.T @ jac
    if np.linalg.cond(a) < 1.0 / np.finfo(float).eps:
        err = np.sqrt(np.diag(np.linalg.inv(a)) * (r @ r) / (len(c) - 2))
    else:
        err = np.full(2, np.inf)
    return float(amp), float(rate), float(err[0]), float(err[1])


@lru_cache(maxsize=8)
def fast_size(m: int) -> int:
    """The smallest even 2^a 3^b 5^c >= m, the length to which the
    spectral contractions (Green-Kubo, the MSD slope) zero-pad a row of
    n samples for lags up to m - n. numpy.fft transforms such lengths
    about as fast per point as a power of two, and above m = 1000 they
    exceed m by at most 7%, where a power of two may be twice m. Even,
    because _lag_sum_kernel needs the bin size/2."""
    best = 1 << max(1, (m - 1).bit_length())
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            even = 2 * odd
            best = min(best, even << (-(-m // even) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _lag_sum_kernel(w: np.ndarray, size: int, dt: float) -> np.ndarray:
    """K with sum_k w_k S_k / dt = sum_m |F_m|^2 K_m for lag weights w_k,
    k < len(w), over the lag sums S_k = sum_j x[j] x[j+k] of a row x of n
    samples, F its size-point rfft and size >= n + len(w) - 1, so that no
    lag wraps. Read-only.

    S_k = (1/size) sum_m |F_m|^2 e^(2 pi i m k / size), and |F|^2 is real
    and even, so K_m = c_m Re[rfft(w)]_m / (size dt), c_m = 1 at m = 0 and
    m = size/2 and 2 between them; an odd size has no bin size/2, so it is
    refused.
    """
    if size % 2:
        raise ValueError(f"transform size {size} must be even")
    padded = np.zeros(size)
    padded[:len(w)] = w
    kernel = np.fft.rfft(padded).real
    kernel[1:-1] *= 2.0
    kernel /= size * dt
    kernel.flags.writeable = False
    return kernel


# the largest transform _lag_products gives a whole row (unless max_lag
# needs more); a longer row is cut into blocks
LAG_BLOCK = 1 << 15


def _lag_products(rows, max_lag: int) -> np.ndarray:
    """Unbiased lag products sum_j x[j] x[j+k] / (n-k) of each row x:
    (R, n) -> (R, max_lag + 1), row by row by FFT (Wiener-Khinchin), every
    transform zero-padded so that no lag wraps around. The velocity ACF
    reads every lag; Green-Kubo and the MSD slope, which only weight and
    sum them, contract |F|^2 directly (ensemble.rate_from_green_kubo,
    _msd_rates).

    The sums run by overlap-save over blocks of M - max_lag samples, M
    being the transform size: a block's products with itself and the next
    max_lag samples are the inverse FFT of conj(F_block) F_segment, and a
    block that reaches the row's end is its own segment, |F_block|^2. M is
    the power of two >= n + max_lag, which makes the row one block, but at
    most the larger of LAG_BLOCK and the power of two above 2 * max_lag,
    so the transient memory is O(LAG_BLOCK + max_lag) whatever n.
    """
    n = rows.shape[1]
    lags = max_lag + 1
    size = min(1 << int(n + max_lag - 1).bit_length(),
               max(LAG_BLOCK, 1 << int(2 * max_lag).bit_length()))
    step = size - max_lag
    out = np.zeros((len(rows), lags))
    for i, row in enumerate(rows):
        for start in range(0, n, step):
            f = np.fft.rfft(row[start:start + step], size)
            if start + step < n:
                spectrum = np.fft.rfft(row[start:start + size], size)
                spectrum *= np.conjugate(f, out=f)
            else:
                spectrum = f.real**2 + f.imag**2
            out[i] += np.fft.irfft(spectrum, size)[:lags]
    out /= n - np.arange(lags)
    return out


def _msd_rates(rows, spacing: float, t_min: float, t_max: float
               ) -> np.ndarray:
    """Half the least-squares slope of each row's all-origin MSD against
    lag time, at every lag of the window [t_min, t_max]: (R, n) -> (R,).

    The slope is sum_L a_L MSD(L), a_L = t_L / (2 sum t^2) with t the
    centred lag times. On a centred row x (Kneller et al., Comput. Phys.
    Commun. 91, 191 (1995)), MSD(L) = (E_L - 2 S_L) / (n - L), with E_L =
    sum_{j<n-L} x_j^2 + sum_{j>=L} x_j^2 read from one cumsum and S_L =
    sum_j x_j x_{j+L}. The slope is linear in the lag sums S_L, so by
    Wiener-Khinchin their part is the row's |F|^2, zero-padded to
    fast_size(n + the last lag) so that no lag wraps, contracted with a
    cached kernel (_msd_kernel): one forward FFT per row, no inverse and
    no MSD array. Row by row, so the transient memory is O(n + lags)
    whatever R.
    """
    n = rows.shape[1]
    lags = _fit_lags(t_min, t_max, spacing, n)
    lag_lo, lag_hi = int(lags[0]), int(lags[-1])
    size = fast_size(n + lag_hi)
    weights, kernel = _msd_kernel(n, lag_lo, lag_hi, size, spacing)
    slopes = np.empty(len(rows))
    for i, row in enumerate(rows):
        x = row - row.mean()
        squares = np.cumsum(x * x)
        ends = squares[n - 1 - lags] + (squares[-1] - squares[lags - 1])
        f = np.fft.rfft(x, size)
        power = f.real**2
        power += f.imag**2
        power *= kernel
        slopes[i] = np.sum(ends * weights) + power.sum()
    return slopes


@lru_cache(maxsize=4)
def _msd_kernel(n: int, lag_lo: int, lag_hi: int, size: int,
                spacing: float) -> Tuple[np.ndarray, np.ndarray]:
    """(w, K) with slope = sum_L w_L E_L + sum_m |F_m|^2 K_m for a row of
    n samples, lags lag_lo..lag_hi at the given spacing and its size-point
    rfft F (_msd_rates): w_L = a_L / (n - L), and K carries the lag sums'
    term -2 sum_L w_L S_L (_lag_sum_kernel). Built once per shape and
    read-only.
    """
    lags = np.arange(lag_lo, lag_hi + 1)
    t = lags * spacing
    t -= t.mean()
    weights = t / (2.0 * np.sum(t * t)) / (n - lags)
    weights.flags.writeable = False
    b = np.zeros(lag_hi + 1)
    b[lags] = -2.0 * weights
    return weights, _lag_sum_kernel(b, size, 1.0)


# The fit-window rules, one owner each: the MSD fits, the Green-Kubo estimator
# and the config parser (refusing a rates config before it runs) call them.

def _check_fit_start(t_min: float, gamma: float) -> None:
    """A slope fit must start in the diffusive regime, t_min >= 10/gamma."""
    # the slack admits a t_min computed as 10/gamma that rounds below it
    if t_min < 10.0 / gamma - 1e-12:
        raise ValueError(f"fit window starts at {t_min}, below the "
                         f"diffusive regime 10/gamma = {10.0 / gamma}")


def _check_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError(f"an MSD slope needs at least two samples, got "
                         f"{n_samples}")


def _fit_lags(t_min: float, t_max: float, spacing: float,
              n_samples: int) -> np.ndarray:
    """Every lag (in samples) in the lag-time window [t_min, t_max], each
    end rounded and clipped to [1, n_samples - 1]; a window that rounds to
    fewer than the two lags a line needs is refused."""
    lag_lo = max(1, int(round(t_min / spacing)))
    lag_hi = min(n_samples - 1, int(round(t_max / spacing)))
    if lag_hi <= lag_lo:
        raise ValueError(f"fit window ({t_min}, {t_max}) leaves no usable "
                         f"lags at sample spacing {spacing}")
    return np.arange(lag_lo, lag_hi + 1)


def _cutoff_lag(cutoff: float, dt: float, n_samples: int) -> int:
    """Green-Kubo cutoff in steps; it must reach lag 1 and stay below the
    series length."""
    lag_max = int(round(cutoff / dt))
    if lag_max < 1:
        raise ValueError(f"cutoff {cutoff} rounds to lag 0 at step {dt}; "
                         f"the sum needs at least one lag")
    if lag_max >= n_samples:
        raise ValueError(f"cutoff {cutoff} (lag {lag_max}) exceeds series "
                         f"length {n_samples}")
    return lag_max


@dataclass(frozen=True)
class DiffusionCheck:
    """Measured diffusion coefficient against the Einstein value T/eta."""

    d_measured: float
    d_expected: float
    ratio: float
    ratio_err: float


def einstein_diffusion_check(positions, dt: float, env: ThermalEnv
                             ) -> DiffusionCheck:
    """Compare the MSD slope of free trajectories with D = T/eta.

    Parameters
    ----------
    positions : array_like, shape (S, 2) or (S, n, 2)
        Unwrapped positions sampled every dt (S samples, n walkers).

    The slope is fitted over lag times (10/gamma, min(50/gamma, T/2)), T
    being the trajectory duration, at every lag of the all-origin MSD; a
    trajectory too short to give two lags in that window is refused.

    Returns
    -------
    DiffusionCheck
        Per-coordinate, per-walker slopes are averaged; the quoted error
        is the standard error of that scatter.
    """
    pos = np.asarray(positions, dtype=float)
    n_samples = pos.shape[0]
    _check_samples(n_samples)
    t_max = min(50.0 / env.gamma, (n_samples - 1) * dt / 2.0)
    slopes = _msd_rates(_as_rows(pos.reshape(n_samples, -1).T), dt,
                        10.0 / env.gamma, t_max)
    d_measured = float(np.mean(slopes))
    d_expected = env.temperature / env.eta
    err = float(np.std(slopes, ddof=1) / np.sqrt(len(slopes)))   # >= 2 slopes
    if d_expected > 0.0:
        ratio, ratio_err = d_measured / d_expected, err / d_expected
    else:
        ratio = 1.0 if d_measured == 0.0 else float("inf")
        ratio_err = 0.0
    return DiffusionCheck(d_measured=d_measured, d_expected=d_expected,
                          ratio=ratio, ratio_err=ratio_err)
