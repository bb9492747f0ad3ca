import json
import os
import platform
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from windrift import (SimulationState, ThermalEnv, TorusGeometry,
                      analytic_rate, collective_normals,
                      even_mean_population, initial_state,
                      mean_population, parse_config, pool_replicas,
                      predicted_rate, rate_from_green_kubo, rate_from_msd,
                      run_replica, run_winding, sample_population,
                      substream)
from windrift import cli, ensemble, langevin
from windrift.config import LANE_STEP_BYTES
from windrift.langevin import OUPropagator, increment_law

from oracles import (arma_longdouble, increment_covariances,
                     innovations_increments, recurrence_loop,
                     running_sum_positions, running_windings, step_ensemble,
                     synthetic_brownian_alpha, traced_peak,
                     winding_variance)


def drift_state(velocities, charges):
    """Deterministic state: given velocities, T=0 dynamics just relaxes them."""
    n = len(charges)
    return SimulationState(
        pos=np.full((n, 2), 0.25), vel=np.array(velocities, dtype=float),
        charges=np.array(charges, dtype=float), alpha_x=0.0, alpha_y=0.0)


def step_once(state, geometry, env, dt=1.0):
    return step_ensemble(state, geometry, dt, env, substream(0, 0))


class TestWindingAccumulators:
    def test_vortex_crossing_short_loop_adds_one(self, square_torus):
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        prop = OUPropagator.build(env, 1.0)
        vy = square_torus.l_y / prop.drift   # displacement = exactly l_y
        state = drift_state([[0.0, vy]], [+1])
        step_once(state, square_torus, env)
        assert state.alpha_x == pytest.approx(1.0, rel=1e-12)
        assert state.alpha_y == 0.0

    def test_antivortex_half_loop(self, square_torus):
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        prop = OUPropagator.build(env, 1.0)
        vy = 0.5 * square_torus.l_y / prop.drift
        state = drift_state([[0.0, vy]], [-1])
        step_once(state, square_torus, env)
        assert state.alpha_x == pytest.approx(-0.5, rel=1e-12)

    def test_pair_moving_together_cancels(self, square_torus):
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        state = drift_state([[0.3, 0.9], [0.3, 0.9]], [+1, -1])
        step_once(state, square_torus, env)
        assert state.alpha_x == 0.0
        assert state.alpha_y == 0.0

    def test_x_motion_feeds_alpha_y(self, square_torus):
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        prop = OUPropagator.build(env, 1.0)
        vx = square_torus.l_x / prop.drift
        state = drift_state([[vx, 0.0]], [+1])
        step_once(state, square_torus, env)
        assert state.alpha_y == pytest.approx(1.0, rel=1e-12)
        assert state.alpha_x == 0.0

    def test_positions_wrapped(self, square_torus):
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        prop = OUPropagator.build(env, 1.0)
        vy = 1.7 * square_torus.l_y / prop.drift
        state = drift_state([[0.0, vy]], [+1])
        step_once(state, square_torus, env)
        assert 0.0 <= state.pos[0, 1] < square_torus.l_y

    def test_rejects_bad_dt(self, square_torus, basic_env):
        state = drift_state([[0.0, 0.0]], [+1])
        with pytest.raises(ValueError):
            step_once(state, square_torus, basic_env, dt=0.0)


class TestStateConstruction:
    def test_neutrality_enforced(self, square_torus, basic_env):
        with pytest.raises(ValueError):
            initial_state(basic_env, square_torus, 3, 2, substream(0, 0))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TorusGeometry(l_x=1.0, l_y=2.0)


RECORD_INCREMENTS = ensemble._record_increments


def force_chunk_steps(monkeypatch, steps, n_walkers):
    """Set CHUNK_BYTES to chunks of `steps` steps of n_walkers walkers.

    Returns a list that collects the length of each recorded chunk, so a
    test can check that the budget forced the chunks it meant to.
    """
    monkeypatch.setattr(ensemble, "CHUNK_BYTES",
                        steps * ensemble.STEP_BYTES * n_walkers)
    lengths = []

    def spy(dxy, *args):
        lengths.append(len(dxy))
        return RECORD_INCREMENTS(dxy, *args)

    monkeypatch.setattr(ensemble, "_record_increments", spy)
    return lengths


def assert_engine_matches_oracle(env, geometry, burn_in_steps,
                                 init_velocities, monkeypatch):
    """run_replica against the stepwise oracle fed the same Philox stream."""
    chunks = force_chunk_steps(monkeypatch, 7, 6)
    dt, n_steps, seed, stream = 0.07, 40, 123, 4
    rng = substream(seed, stream)
    state = initial_state(env, geometry, 3, 3, rng,
                          init_velocities=init_velocities)
    for _ in range(burn_in_steps):
        step_ensemble(state, geometry, dt, env, rng)
    state.alpha_x = state.alpha_y = 0.0
    alphas = []
    for _ in range(n_steps):
        step_ensemble(state, geometry, dt, env, rng)
        alphas.append((state.alpha_x, state.alpha_y))
    rep = run_replica(env, geometry, 3, 3, dt, n_steps, master_seed=seed,
                      stream_id=stream, sample_stride=1,
                      burn_in_steps=burn_in_steps,
                      init_velocities=init_velocities)
    assert chunks == [7] * 5 + [5]              # 40 steps in chunks of 7
    assert len(rep.chunk_counts) == n_steps     # one count per step
    assert np.array_equal(rep.state.vel, state.vel)
    assert rep.alpha[0, 1:].tolist() == [a[0] for a in alphas]
    assert rep.alpha[1, 1:].tolist() == [a[1] for a in alphas]
    assert np.allclose(rep.state.pos, state.pos, rtol=1e-12, atol=1e-12)


class TestEngineEquivalence:
    """The chunked fast path must reproduce the stepwise oracle bit for bit."""

    def test_stepwise_and_chunked_match(self, square_torus, basic_env,
                                        monkeypatch):
        assert_engine_matches_oracle(basic_env, square_torus, 0,
                                     "stationary", monkeypatch)

    @pytest.mark.parametrize("burn_in_steps,init_velocities",
                             [(9, "stationary"), (0, "zero"), (16, "zero")])
    def test_stepwise_and_chunked_match_variants(
            self, square_torus, basic_env, burn_in_steps, init_velocities,
            monkeypatch):
        assert_engine_matches_oracle(basic_env, square_torus, burn_in_steps,
                                     init_velocities, monkeypatch)

    def test_chunk_size_invariance(self, square_torus, basic_env,
                                   monkeypatch):
        runs, chunks = [], []
        for steps in (11, 64):
            chunks.append(force_chunk_steps(monkeypatch, steps, 8))
            runs.append(run_replica(basic_env, square_torus, 4, 4, 0.05, 100,
                                    master_seed=9, stream_id=2,
                                    velocity_series_walkers=3,
                                    position_stride=7))
        a, b = runs
        # the chunk length is read when run_replica is called
        assert chunks == [[11] * 9 + [1], [64, 36]]
        assert (len(a.chunk_counts), len(b.chunk_counts)) == (100, 100)
        assert np.array_equal(a.inc, b.inc)
        assert np.array_equal(a.state.vel, b.state.vel)
        assert a.positions.shape == (14, 8, 2)
        # the carried position heads each chunk's running sum, so the
        # positions are one sequential sum and agree bit for bit
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.state.pos, b.state.pos)
        assert np.array_equal(a.position_times, b.position_times)
        assert np.array_equal(a.position_times, np.arange(1, 15) * 7 * 0.05)
        assert np.array_equal(a.vel_series, b.vel_series)
        # each step's v_y^2 sum is one row's reduction, so callers group
        # the same sums into blocks of any length
        assert np.array_equal(a.chunk_vy2_sums, b.chunk_vy2_sums)

    @pytest.mark.parametrize("stride", [4, 13])
    def test_positions_equal_whole_series_running_sum(
            self, square_torus, basic_env, stride, monkeypatch):
        # chunks of 11 steps after 9 burn-in steps: blocks straddle chunk
        # ends, and at stride 13 some chunks record nothing
        chunks = force_chunk_steps(monkeypatch, 11, 6)
        dt, n_steps, burn_in, seed = 0.05, 100, 9, 31
        res = run_replica(basic_env, square_torus, 3, 3, dt, n_steps,
                          master_seed=seed, stream_id=2,
                          burn_in_steps=burn_in, position_stride=stride)
        assert chunks == [11] * 9 + [1]
        rng = substream(seed, 2)
        state = initial_state(basic_env, square_torus, 3, 3, rng)
        pos = running_sum_positions(state, dt, basic_env, rng,
                                    burn_in + n_steps)
        assert res.positions.shape == (n_steps // stride, 6, 2)
        assert np.array_equal(res.positions, pos[burn_in + stride::stride])
        assert np.array_equal(res.state.pos,
                              pos[-1] % [square_torus.l_x, square_torus.l_y])

    def test_seed_determinism(self, square_torus, basic_env):
        a = run_replica(basic_env, square_torus, 4, 4, 0.05, 50,
                        master_seed=9, stream_id=0)
        b = run_replica(basic_env, square_torus, 4, 4, 0.05, 50,
                        master_seed=9, stream_id=0)
        c = run_replica(basic_env, square_torus, 4, 4, 0.05, 50,
                        master_seed=9, stream_id=1)
        assert np.array_equal(a.inc, b.inc)
        assert not np.array_equal(a.inc, c.inc)

    @pytest.mark.parametrize("key", [(2**64, 0), (-1, 0), (0, 2**64),
                                     (1.5, 0)],
                             ids=["seed-2**64", "seed--1", "stream-2**64",
                                  "seed-1.5"])
    def test_substream_refuses_aliasing_keys(self, key):
        # Philox keys are 64-bit words: masking 2**64 reproduced seed 0,
        # and a float key would be truncated to another seed
        with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*64\)"):
            substream(*key)

    @pytest.mark.parametrize("kwargs,name", [
        ({"velocity_series_walkers": 9}, "velocity_series_walkers"),
        ({"velocity_series_walkers": -1}, "velocity_series_walkers"),
        ({"position_stride": -1}, "position_stride"),
        ({"burn_in_steps": -1}, "burn_in_steps")],
        ids=["walkers-above-count", "walkers-negative", "stride-negative",
             "burn-in-negative"])
    def test_recording_arguments_name_themselves(self, square_torus,
                                                 basic_env, kwargs, name):
        # a negative burn-in was skipped without a word
        with pytest.raises(ValueError, match=name):
            run_replica(basic_env, square_torus, 4, 4, 0.05, 50, **kwargs)

    def test_winding_additivity(self, square_torus, basic_env):
        res = run_replica(basic_env, square_torus, 4, 4, 0.05, 157,
                          master_seed=2, stream_id=0, sample_stride=1)
        assert res.state.alpha_x == res.alpha[0, -1]
        assert res.state.alpha_x == pytest.approx(res.inc[0].sum(), rel=1e-12)


class TestReplicaResultArrays:
    """Every recorded field is a plain array, empty when nothing is
    recorded, and the winding rows are C-contiguous (2, .) arrays."""

    def test_nothing_recorded(self, square_torus, basic_env):
        res = run_replica(basic_env, square_torus, 3, 3, 0.05, 40,
                          master_seed=1, velocity_series_walkers=0,
                          position_stride=0)
        assert res.vel_series.shape == (40, 0)
        assert res.positions.shape == (0, 6, 2)
        assert res.position_times.shape == (0,)

    def test_no_walkers(self, square_torus, basic_env):
        res = run_replica(basic_env, square_torus, 0, 0, 0.05, 40,
                          master_seed=1, position_stride=4)
        for name in ("chunk_vy2_sums", "chunk_counts"):
            values = getattr(res, name)
            assert values.shape == (40,) and not values.any(), name
        assert res.vel_series.shape == (40, 0)
        assert res.positions.shape == (0, 0, 2)
        assert res.position_times.shape == (0,)

    def test_position_times(self, square_torus, basic_env):
        stride, n_steps, dt = 7, 100, 0.07
        res = run_replica(basic_env, square_torus, 2, 2, dt, n_steps,
                          master_seed=1, position_stride=stride)
        assert res.positions.shape == (14, 4, 2)
        assert np.array_equal(res.position_times,
                              np.arange(stride, n_steps + 1, stride) * dt)

    @pytest.mark.parametrize("engine", ["run_replica", "run_winding"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_winding_rows(self, square_torus, basic_env, engine, n):
        if engine == "run_replica":
            res = run_replica(basic_env, square_torus, n, n, 0.05, 40,
                              master_seed=1, sample_stride=4,
                              burn_in_steps=5)
        else:
            res = run_winding(basic_env, square_torus, n, n, 0.05, 40,
                              normals=collective_normals(substream(1, 0),
                                                         2 * n, 40),
                              sample_stride=4)
        assert res.inc.shape == (2, 40) and res.inc.flags.c_contiguous
        assert res.alpha.shape == (2, 11) and res.alpha.flags.c_contiguous
        assert res.times.shape == (11,)
        # the stride divides the step count: the last sample is the end
        assert res.final_alpha == tuple(res.alpha[:, -1].tolist())
        assert all(type(a) is float for a in res.final_alpha)


def same_position(rng, ref):
    """The two generators are at the same point of the same stream."""
    return np.array_equal(rng.integers(0, 2**63, 8),
                          ref.integers(0, 2**63, 8))


def oracle_increments(env, geometry, n, dt, normals):
    """The (2, N) winding increments of n walkers that the innovations
    recursion makes of (2, N) normals, rows alpha_x and alpha_y."""
    scale = np.sqrt(n * env.temperature / env.eta)
    return np.array([scale / length * innovations_increments(z, env.gamma, dt)
                     for z, length in zip(normals, (geometry.l_y,
                                                    geometry.l_x))])


def final_windings_collective(env, geometry, n, dt, n_steps, seed, stream):
    res = run_winding(env, geometry, n, n, dt, n_steps,
                      normals=collective_normals(substream(seed, stream),
                                                 2 * n, n_steps),
                      sample_stride=n_steps)
    return res.final_alpha


def final_windings_per_walker(env, geometry, n, dt, n_steps, seed, stream):
    res = run_replica(env, geometry, n, n, dt, n_steps, master_seed=seed,
                      stream_id=stream, sample_stride=n_steps)
    return res.state.alpha_x, res.state.alpha_y


def windings_collective(env, geometry, n_steps, stride):
    return run_winding(env, geometry, 3, 3, 0.05, n_steps,
                       normals=collective_normals(substream(5, 1), 6, n_steps),
                       sample_stride=stride)


def windings_per_walker(env, geometry, n_steps, stride):
    return run_replica(env, geometry, 3, 3, 0.05, n_steps, master_seed=5,
                       stream_id=1, sample_stride=stride)


class TestWindingEngine:
    """run_winding: the collective-coordinate engine behind rates/simulate."""

    @pytest.mark.parametrize("final_windings", [final_windings_collective,
                                                final_windings_per_walker])
    @pytest.mark.parametrize("n", [1, 8])
    def test_exact_variance_oracle(self, basic_env, final_windings, n):
        # one lag per replica, so the R samples are independent; at
        # gamma * tau = 2 the ballistic term is 43% of tau. The two counts
        # tell the noise scale sqrt(2n) from n or 2n, and the two axes
        # check the 1/l^2 law
        geo = TorusGeometry(l_x=20.0, l_y=10.0)
        dt, n_steps, replicas = 0.1, 10, 4000
        samples = np.array([final_windings(basic_env, geo, n, dt, n_steps,
                                           31, r) for r in range(replicas)])
        tau = n_steps * dt
        for column, length in ((0, geo.l_y), (1, geo.l_x)):
            var = winding_variance(basic_env, 2 * n, length, tau)
            # the mean is exactly 0, so mean(a^2) has variance 2 var^2 / R
            z = ((np.mean(samples[:, column] ** 2) - var)
                 / (var * np.sqrt(2.0 / replicas)))
            assert abs(z) <= 4.0, (column, z)

    def test_chunk_size_invariance(self, square_torus, basic_env,
                                   monkeypatch):
        # run_winding scans the whole series at once: run_replica's chunk
        # budget must not reach it
        runs = []
        for steps in (7, 64, 8192):
            monkeypatch.setattr(ensemble, "CHUNK_BYTES",
                                steps * ensemble.STEP_BYTES * 6)
            runs.append(run_winding(basic_env, square_torus, 3, 3, 0.05, 500,
                                    normals=collective_normals(
                                        substream(9, 2), 6, 500),
                                    sample_stride=5))
        for other in runs[1:]:
            for name in ("times", "alpha", "inc", "final_alpha"):
                assert np.array_equal(getattr(runs[0], name),
                                      getattr(other, name)), name

    def test_stream_layout(self, square_torus, basic_env):
        # the recorded steps' normals driving alpha_x, then those driving
        # alpha_y; nothing else is drawn
        n, dt, n_steps = 5, 0.05, 40
        rng = substream(4, 1)
        res = run_winding(basic_env, square_torus, n, n, dt, n_steps,
                          normals=collective_normals(rng, 2 * n, n_steps))
        ref = substream(4, 1)
        normals = ref.standard_normal(2 * n_steps)
        assert same_position(rng, ref)
        expected = oracle_increments(basic_env, square_torus, 2 * n, dt,
                                     normals.reshape(2, -1))
        assert (np.abs(res.inc - expected).max()
                <= 1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("gamma_dt", [1e-3, 0.04, 0.2, 2.0])
    def test_exact_increment_law(self, gamma_dt):
        # run_winding is linear in its normals: fed the unit basis, it gives
        # the columns of L with inc = L z, so L L^T is the exact covariance
        # of the increments, whatever the layout. Per axis it must be the
        # closed-form (D/l^2) c_|i-j|, D = nT/eta, to rounding, with no
        # covariance across axes
        dt, n_steps, n = 0.1, 80, 6
        env = ThermalEnv(mass=1.0, eta=gamma_dt / dt, temperature=1.5)
        geo = TorusGeometry(l_x=20.0, l_y=10.0)
        size = ensemble.collective_size(n, n_steps)
        columns = [run_winding(env, geo, n // 2, n // 2, dt, n_steps,
                               normals=basis, sample_stride=n_steps).inc
                   for basis in np.eye(size)]
        lower = np.stack(columns, axis=-1).reshape(2 * n_steps, size)
        cov = (lower @ lower.T).reshape(2, n_steps, 2, n_steps)
        assert not cov[0, :, 1].any() and not cov[1, :, 0].any()
        lags = np.abs(np.subtract.outer(np.arange(n_steps),
                                        np.arange(n_steps)))
        c = increment_covariances(env.gamma, dt, lags)
        for axis, length in ((0, geo.l_y), (1, geo.l_x)):
            exact = n * env.temperature / env.eta / length**2 * c
            assert (np.abs(cov[axis, :, axis] - exact).max()
                    <= 1e-13 * exact[0, 0]), axis

    # the collective engine's cases keep their plain ids
    @pytest.mark.parametrize("windings,n_steps,stride", [
        pytest.param(windings, n_steps, stride, id=f"{n_steps}-{stride}{tag}")
        for windings, tag in ((windings_collective, ""),
                              (windings_per_walker, "-per_walker"))
        for n_steps, stride in ((1000, 10), (1003, 10), (7, 10), (10, 10),
                                (999, 1))])
    def test_stride_sums_match_running_sum(self, square_torus, basic_env,
                                           windings, n_steps, stride):
        # both engines sample the windings as sums over each stride, then a
        # running sum of those: n_steps a multiple of the stride or not, and
        # below it; at stride 1 that is the running sum bit for bit
        res = windings(basic_env, square_torus, n_steps, stride)
        full = running_windings(res.inc)
        tol = 1e-14 * np.abs(full).max()
        assert np.array_equal(res.times,
                              np.arange(0, n_steps + 1, stride) * 0.05)
        assert res.alpha.shape == full[:, ::stride].shape
        assert np.abs(res.alpha - full[:, ::stride]).max() <= tol
        assert np.abs(np.array(res.final_alpha) - full[:, -1]).max() <= tol
        assert (np.abs(np.array(res.final_alpha) - res.inc.sum(axis=1)).max()
                <= tol)
        if stride == 1:
            assert np.array_equal(res.alpha, full)

    def test_zero_temperature_over_blocks(self, square_torus):
        # gamma dt 0.2 over 10,000 steps spans four blocks of the filter; D
        # is carried unscaled, so the zero scale at T = 0 gives exact zeros
        env = ThermalEnv(mass=1.0, eta=2.0, temperature=0.0)
        n_steps = 10_000
        assert ensemble._block_steps(np.exp(-0.2), n_steps) < n_steps / 3
        res = run_winding(env, square_torus, 2, 2, 0.1, n_steps,
                          normals=collective_normals(substream(7, 0), 4,
                                                     n_steps),
                          sample_stride=5)
        assert not res.inc.any() and not res.alpha.any()
        assert res.final_alpha == (0.0, 0.0)

    def test_empty_ensemble_draws_nothing(self, square_torus, basic_env):
        rng = substream(3, 0)
        res = run_winding(basic_env, square_torus, 0, 0, 0.1, 50,
                          normals=collective_normals(rng, 0, 50),
                          sample_stride=5)
        assert same_position(rng, substream(3, 0))
        assert not res.inc.any() and not res.alpha.any()
        assert res.final_alpha == (0.0, 0.0)
        assert res.times.shape == (11,)

    def test_flat_normals_match_two_draws(self, square_torus, basic_env):
        # one flat draw holds each axis's normals in the order two calls
        # draw them; the windings are the step-by-step innovations
        # recursion on those rows, to rounding
        n, dt, n_steps = 4, 0.05, 300
        for stream in range(10):
            res = run_winding(basic_env, square_torus, n, n, dt, n_steps,
                              normals=collective_normals(
                                  substream(6, stream), 2 * n, n_steps),
                              sample_stride=3)
            rng = substream(6, stream)
            inc = oracle_increments(
                basic_env, square_torus, 2 * n, dt,
                [rng.standard_normal(n_steps) for _ in "xy"])
            alpha = np.cumsum(inc, axis=1)[:, 2::3]
            tol = 1e-13 * n_steps * np.abs(inc).max()
            assert np.abs(res.inc - inc).max() <= tol, stream
            assert not res.alpha[:, 0].any()
            assert np.abs(res.alpha[:, 1:] - alpha).max() <= tol, stream
            assert np.allclose(res.final_alpha, alpha[:, -1], rtol=0,
                               atol=tol), stream

    @pytest.mark.parametrize("n,steps", [(1, 1), (2, 7), (10, 1000)])
    def test_draw_consumes_its_layout(self, n, steps):
        rng, ref = substream(8, 2), substream(8, 2)
        normals = collective_normals(rng, n, steps)
        assert np.array_equal(normals, ref.standard_normal(2 * steps))
        assert same_position(rng, ref)

    def test_draw_into_buffer(self):
        # 9 steps of a nonempty ensemble fill the buffer's first 18 values
        buffer = np.full(50, np.nan)
        normals = collective_normals(substream(8, 2), 6, 9, out=buffer)
        assert np.shares_memory(normals, buffer)
        assert np.array_equal(normals,
                              collective_normals(substream(8, 2), 6, 9))
        assert np.isnan(buffer[18:]).all()

    @pytest.mark.parametrize("n,size", [(2, 19), (2, 21), (2, 41), (2, 43),
                                        (0, 42), (2, 0)])
    def test_refuses_wrong_length(self, square_torus, basic_env, n, size):
        # 10 steps of a nonempty ensemble spend 20 normals, an empty one 0
        spend = 20 if n else 0
        with pytest.raises(ValueError,
                           match=rf"holds {size} values.* spend {spend}$"):
            run_winding(basic_env, square_torus, n // 2, n // 2, 0.1, 10,
                        normals=np.zeros(size))

    @pytest.mark.parametrize("n_v,n_a,dt,n_steps", [
        (2, 1, 0.1, 10), (-1, -1, 0.1, 10), (1, 1, 0.0, 10),
        (1, 1, -0.1, 10), (1, 1, 0.1, 0)])
    def test_rejects_what_run_replica_rejects(self, square_torus, basic_env,
                                              n_v, n_a, dt, n_steps):
        with pytest.raises(ValueError) as per_walker:
            run_replica(basic_env, square_torus, n_v, n_a, dt, n_steps)
        with pytest.raises(ValueError) as collective:
            run_winding(basic_env, square_torus, n_v, n_a, dt, n_steps,
                        normals=collective_normals(substream(0, 0),
                                                   n_v + n_a, n_steps))
        assert str(collective.value) == str(per_walker.value)

    @pytest.mark.parametrize("kwargs,name", [
        ({"sample_stride": 0}, "sample_stride"),
        ({"sample_stride": -2}, "sample_stride")],
        ids=["stride-0", "stride-negative"])
    def test_step_arguments_name_themselves(self, square_torus, basic_env,
                                            kwargs, name):
        # a zero stride divided by zero, a negative one sampled only t=0
        with pytest.raises(ValueError, match=name) as per_walker:
            run_replica(basic_env, square_torus, 2, 2, 0.1, 20, **kwargs)
        with pytest.raises(ValueError, match=name) as collective:
            run_winding(basic_env, square_torus, 2, 2, 0.1, 20,
                        normals=collective_normals(substream(0, 0), 4, 20),
                        **kwargs)
        assert str(collective.value) == str(per_walker.value)


def recurrence_input(gamma_dt, n_steps, seed):
    """The recurrence's input at T/M = 1: a stationary start, then
    sigma_v * n1."""
    rng = np.random.default_rng(seed)
    u = np.empty((n_steps + 1, 2))
    u[0] = rng.standard_normal(2)
    u[1:] = np.sqrt(-np.expm1(-2.0 * gamma_dt)) * rng.standard_normal(
        (n_steps, 2))
    return u


def blocked(u, decay, theta=0.0, head=()):
    """ensemble._arma_filter on the (N, 2) steps u, as (N, 2) steps: the
    filter runs along the rows of the contiguous (2, N) transpose."""
    return ensemble._arma_filter(u.T.copy(), decay, theta, head).T


class TestVelocityRecurrence:
    """ensemble.lfilter and the blocked recurrence (ensemble._arma_filter)
    against the step-by-step recurrence oracle."""

    @pytest.mark.parametrize("gamma_dt", [1e-3, 0.04, 0.2, 5.0])
    def test_matches_stepwise_loop(self, gamma_dt):
        decay = np.exp(-gamma_dt)
        u = recurrence_input(gamma_dt, 100_000, 1)
        expected = recurrence_loop(u, decay)
        assert np.array_equal(ensemble.lfilter(u.copy(), decay), expected)
        scan = blocked(u, decay)
        assert (np.abs(scan - expected).max()
                <= 1e-14 * np.abs(expected).max())

    def test_scan_prefix_independent_of_length(self):
        # the blocks start at multiples of a length set by the decay alone,
        # so a prefix sees the same blocks as the whole series
        decay = np.exp(-0.04)
        u = recurrence_input(0.04, 100_000, 2)
        full = blocked(u, decay)
        for n in (1, 2, 3, 1000, 4097, 65_537):
            assert np.array_equal(blocked(u[:n], decay), full[:n]), n

    def test_scan_with_negative_decay(self):
        # a decay of theta's sign under the MA inversion: the block length
        # must come from |decay|, or the log of the decay is undefined
        decay = -0.27
        u = np.random.default_rng(3).standard_normal((10_000, 2))
        expected = recurrence_loop(u, decay)
        scan = blocked(u, decay)
        assert (np.abs(scan - expected).max()
                <= 1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("gamma_dt", [1e-3, 0.04, 0.2, 2.0, None],
                             ids=["1e-3", "0.04", "0.2", "2", "decay-0.27"])
    def test_blocks_match_longdouble_recurrence(self, gamma_dt):
        # over two block boundaries and a partial block: with run_winding's
        # decay, theta term and head at each gamma dt, and the recurrence
        # alone at a negative decay
        if gamma_dt is None:
            decay, theta, head = -0.27, 0.0, ()
        else:
            law = increment_law(gamma_dt, 1.0)
            decay, theta, head = law.phi, law.theta, law.r
        steps = ensemble._block_steps(decay, 10**9)
        u = np.random.default_rng(4).standard_normal((2 * steps + 77, 2))
        expected = arma_longdouble(u, decay, theta, head)
        scan = blocked(u, decay, theta, head)
        assert (np.abs(scan - expected).max()
                <= 1e-14 * np.abs(expected).max())


class TestChunkHelperThread:
    """_chunks draws on one helper thread, joined however it ends."""

    def test_run_replica_leaves_no_thread(self, square_torus, basic_env):
        before = threading.active_count()
        run_replica(basic_env, square_torus, 4, 4, 0.05, 100,
                    burn_in_steps=30)
        assert threading.active_count() == before

    def test_closed_generator_leaves_no_thread(self, basic_env,
                                               monkeypatch):
        monkeypatch.setattr(ensemble, "CHUNK_BYTES",
                            7 * ensemble.STEP_BYTES * 4)
        before = threading.active_count()
        chunks = ensemble._chunks(substream(1, 0),
                                  OUPropagator.build(basic_env, 0.05),
                                  np.zeros((4, 2)), 9, 30)
        next(chunks)
        # the helper is drawing (or has drawn) the second chunk
        assert threading.active_count() == before + 1
        chunks.close()
        assert threading.active_count() == before

    def test_raising_consumer_leaves_no_thread(self, square_torus, basic_env,
                                               monkeypatch):
        def fail(*args):
            raise RuntimeError("consumer failed")

        monkeypatch.setattr(ensemble, "CHUNK_BYTES",
                            7 * ensemble.STEP_BYTES * 8)
        monkeypatch.setattr(ensemble, "_record_increments", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="consumer failed"):
            run_replica(basic_env, square_torus, 4, 4, 0.05, 100,
                        burn_in_steps=9)
        assert threading.active_count() == before


class TestPrefetched:
    """ensemble.prefetched: make(item) one item ahead on a helper thread."""

    def test_items_in_order(self):
        made = ensemble.prefetched(lambda i: i * i, iter(range(50)))
        assert list(made) == [i * i for i in range(50)]
        assert list(ensemble.prefetched(lambda i: i, [])) == []

    def test_at_most_one_item_ahead(self):
        started = []

        def make(i):
            started.append(i)
            return i

        for i in ensemble.prefetched(make, range(20)):
            time.sleep(0.002)   # time for a runaway helper to show
            assert started[:i + 1] == list(range(i + 1))
            assert len(started) <= i + 2

    def test_exception_reaches_caller(self):
        def make(i):
            if i == 3:
                raise RuntimeError("item 3 failed")
            return i

        got = []
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="item 3 failed"):
            for i in ensemble.prefetched(make, range(10)):
                got.append(i)
        assert got == [0, 1, 2]
        assert threading.active_count() == before

    def test_closed_generator_joins_helper(self):
        before = threading.active_count()
        made = ensemble.prefetched(lambda i: i, range(10))
        assert next(made) == 0
        assert threading.active_count() == before + 1
        made.close()
        assert threading.active_count() == before

    def test_shared_items_claimed_once(self):
        # more callers than cores share one iterator, as the lanes share
        # the replica indices; a lost or repeated claim breaks the count
        items, callers = iter(range(3000)), 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=callers) as pool:
                runs = [pool.submit(list, ensemble.prefetched(
                    lambda i: i, items)) for _ in range(callers)]
                got = [i for run in runs for i in run.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == list(range(3000))

    def test_raising_caller_joins_helper(self):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller failed"):
            for _ in ensemble.prefetched(lambda i: i, range(10)):
                raise RuntimeError("caller failed")
        assert threading.active_count() == before


def thread_mask():
    return os.sched_getaffinity(0)


# the test thread's mask before any test ran: a thread that a test left
# bound shows as a narrower mask in the tests after it
ALLOWED = thread_mask() if hasattr(os, "sched_setaffinity") else None


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="threads cannot be bound on this platform")
class TestBinding:
    """prefetched runs its caller and its helper on different CPUs, and
    gives the caller its mask back however the generator ends."""

    @pytest.mark.parametrize("slot", [0, 1, 5])
    def test_caller_and_helper_on_different_cpus(self, slot):
        allowed = thread_mask()
        assert allowed == ALLOWED
        cpus = sorted(allowed)
        pairs = [(thread_mask(), helper) for helper in ensemble.prefetched(
            lambda i: thread_mask(), range(4), slot)]
        if len(cpus) < 2:
            assert pairs == [(allowed, allowed)] * 4
            return
        caller = {cpus[slot % len(cpus)]}
        helper = {cpus[(slot + 1) % len(cpus)]}
        assert pairs == [(caller, helper)] * 4 and caller != helper

    def test_mask_restored_when_exhausted(self):
        before = thread_mask()
        assert before == ALLOWED
        assert list(ensemble.prefetched(lambda i: i, range(5))) == \
            list(range(5))
        assert thread_mask() == before

    def test_mask_restored_when_closed_early(self):
        before = thread_mask()
        assert before == ALLOWED
        made = ensemble.prefetched(lambda i: i, range(10), 1)
        assert next(made) == 0
        made.close()
        assert thread_mask() == before

    def test_mask_restored_when_make_raises(self):
        def make(i):
            if i == 2:
                raise RuntimeError("item 2 failed")
            return i

        before = thread_mask()
        assert before == ALLOWED
        with pytest.raises(RuntimeError, match="item 2 failed"):
            list(ensemble.prefetched(make, range(10)))
        assert thread_mask() == before

    @pytest.mark.parametrize("fails", [False, True])
    def test_run_replica_restores_mask(self, square_torus, basic_env,
                                       monkeypatch, fails):
        def fail(*args):
            raise RuntimeError("consumer failed")

        if fails:
            monkeypatch.setattr(ensemble, "_record_increments", fail)
        before = thread_mask()
        assert before == ALLOWED
        with (pytest.raises(RuntimeError, match="consumer failed") if fails
              else nullcontext()):
            run_replica(basic_env, square_torus, 4, 4, 0.05, 100)
        assert thread_mask() == before

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_run_restores_mask(self, tmp_path, monkeypatch, lanes, fails):
        def fail(*args, **kwargs):
            raise RuntimeError("lane failed")

        if fails:
            monkeypatch.setattr(cli, "run_winding", fail)
        before = thread_mask()
        assert before == ALLOWED
        config = parse_config(TestMemoryBounds.rates_doc(2_000, 4), "rates")
        with (pytest.raises(RuntimeError, match="lane failed") if fails
              else nullcontext()):
            cli.run(config, lanes=lanes, output_dir=tmp_path)
        assert thread_mask() == before

    def test_one_cpu_binds_nothing(self, square_torus, basic_env,
                                   monkeypatch):
        # under a one-CPU mask the caller and the helper keep it, and the
        # per-walker engine gives what it gives with the threads bound
        kwargs = dict(master_seed=5, burn_in_steps=7,
                      velocity_series_walkers=3, position_stride=4)
        spread = run_replica(basic_env, square_torus, 3, 3, 0.05, 300,
                             **kwargs)
        set_mask, bindings = os.sched_setaffinity, []
        monkeypatch.setattr(os, "sched_setaffinity", lambda *args: (
            bindings.append(args), set_mask(*args)))
        before = thread_mask()
        cpu = min(before)
        set_mask(0, (cpu,))
        try:
            masks = [(thread_mask(), helper) for helper in
                     ensemble.prefetched(lambda i: thread_mask(), range(3))]
            alone = run_replica(basic_env, square_torus, 3, 3, 0.05, 300,
                                **kwargs)
        finally:
            set_mask(0, before)
        assert bindings == []
        assert masks == [({cpu}, {cpu})] * 3
        for name in ("alpha", "inc", "vel_series", "chunk_vy2_sums",
                     "positions"):
            assert np.array_equal(getattr(alone, name),
                                  getattr(spread, name)), name


class TestMemoryBounds:
    """Peak working memory of the engines, in doubles (tracemalloc)."""

    def test_run_winding_peak_per_step(self, square_torus, basic_env):
        # the draw's normals (2 per step), which become the increments, and
        # beyond them the stride sums, the sampled windings (2 each per
        # sample), the sample times and O(block) for the filter: no
        # temporary of O(steps)
        n_steps = 200_000

        def draw_and_run():
            normals = collective_normals(substream(3, 1), 10, n_steps)
            return run_winding(basic_env, square_torus, 5, 5, 0.05, n_steps,
                               normals=normals, sample_stride=5)

        _, peak = traced_peak(draw_and_run)
        assert peak / 8 / n_steps <= 3.5

    def test_simulate_lane_peak_per_step(self):
        # one lane holds two draw buffers (4 doubles per step) and the
        # engine's 2 beyond them, whatever the replica count, besides the
        # replica-0 trajectory it returns
        burn, n_steps = 20_000, 100_000
        config = parse_config(json.dumps({
            "env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
            "geometry": {"l_x": 10.0, "l_y": 10.0},
            "population": {"mode": "fixed", "n_v": 5, "n_a": 5},
            "dt": 0.1, "total_time": 0.1 * n_steps, "burn_in": 0.1 * burn,
            "replicas": 3, "sample_stride": 5, "master_seed": 4}),
            "simulate")
        (trajectory, records), peak = traced_peak(cli._run_ensemble,
                                                  config, 1)
        kept = sum(a.nbytes for a in trajectory)
        assert len(records) == 3
        assert (peak - kept) / 8 / (burn + n_steps) <= 12.5

    def test_simulate_lane_peak_per_step_two_normals(self):
        # the same lane at two normals per step: two draw buffers of 2
        # doubles per recorded step (a burn-in draws nothing), and at the
        # peak the stride sums and the sampled windings (4/5) and the
        # sample times and the reduceat index (2/5) per recorded step:
        # 5.2 doubles per recorded step, 4.3 per burn-in and recorded step
        # with 1/6 of the steps in burn-in
        burn, n_steps = 20_000, 100_000
        config = parse_config(json.dumps({
            "env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
            "geometry": {"l_x": 10.0, "l_y": 10.0},
            "population": {"mode": "fixed", "n_v": 5, "n_a": 5},
            "dt": 0.1, "total_time": 0.1 * n_steps, "burn_in": 0.1 * burn,
            "replicas": 3, "sample_stride": 5, "master_seed": 4}),
            "simulate")
        (trajectory, records), peak = traced_peak(cli._run_ensemble,
                                                  config, 1)
        kept = sum(a.nbytes for a in trajectory)
        assert (peak - kept) / 8 / (burn + n_steps) <= 6.5

    @pytest.mark.parametrize("burn", [0, 20_000])
    def test_simulate_lane_peak_per_recorded_step(self, burn):
        # a burn-in draws nothing, so the lane's peak is the same per
        # recorded step whatever the burn-in: two draw buffers of 2
        # doubles (4), the stride sums and the sampled windings (4/5),
        # the sample times and the reduceat index (2/5), 5.2 doubles per
        # recorded step, plus 0.5 of slack
        n_steps = 100_000
        config = parse_config(json.dumps({
            "env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
            "geometry": {"l_x": 10.0, "l_y": 10.0},
            "population": {"mode": "fixed", "n_v": 5, "n_a": 5},
            "dt": 0.1, "total_time": 0.1 * n_steps, "burn_in": 0.1 * burn,
            "replicas": 3, "sample_stride": 5, "master_seed": 4}),
            "simulate")
        (trajectory, records), peak = traced_peak(cli._run_ensemble,
                                                  config, 1)
        kept = sum(a.nbytes for a in trajectory)
        assert (peak - kept) / 8 / n_steps <= 5.2 + 0.5

    def test_rates_lane_peak_within_parser_budget(self):
        # the parser refuses a run whose lane would exceed LANE_BYTES at
        # LANE_STEP_BYTES per recorded step; at sample_stride 1, where
        # the sampled windings are longest, the lane must stay within it
        # beyond replica 0's trajectory, which the run keeps (README)
        n_steps = 100_000
        doc = dict(json.loads(self.rates_doc(n_steps, 3)), sample_stride=1)
        config = parse_config(json.dumps(doc), "rates")
        (trajectory, records), peak = traced_peak(cli._run_ensemble,
                                                  config, 1)
        kept = sum(a.nbytes for a in trajectory)
        assert (peak - kept) / n_steps <= LANE_STEP_BYTES

    def test_rates_peak_with_trajectory_within_parser_budget(self):
        # the budget also holds replica 0's sampled trajectory, which the
        # run keeps: 3 doubles per sample at sample_stride 1
        n_steps = 100_000
        doc = dict(json.loads(self.rates_doc(n_steps, 3)), sample_stride=1)
        config = parse_config(json.dumps(doc), "rates")
        _, peak = traced_peak(cli._run_ensemble, config, 1)
        assert peak / n_steps <= LANE_STEP_BYTES

    @pytest.mark.parametrize("n,n_steps,stride", [
        pytest.param(2, 100_000, 50, id="2-100000"),
        pytest.param(100, 55_000, 50, id="100-55000"),
        pytest.param(2_000, 400, 50, id="2000-400"),
        pytest.param(100, 55_000, 5, id="100-55000-stride5")])
    def test_run_replica_transient_peak_within_budget(self, n, n_steps,
                                                      stride):
        # the chunk buffers hold STEP_BYTES per walker and step, as many
        # steps as fit in CHUNK_BYTES; fresh arrays for every chunk would
        # reach 14/13 of it. A chunk is 20,164 steps at 2 walkers and 20
        # at 2,000. Positions go straight into the returned array: at
        # stride 5, 17.6 MB of them, per-chunk copies would add as much
        env, geo = ThermalEnv(2.0, 2.0, 4.0), TorusGeometry(100.0, 100.0)
        res, peak = traced_peak(
            run_replica, env, geo, n // 2, n // 2, 0.01, n_steps,
            master_seed=3, burn_in_steps=500, init_velocities="zero",
            velocity_series_walkers=2, position_stride=stride)
        kept = sum(a.nbytes for a in (*vars(res).values(), res.state.pos,
                                      res.state.vel, res.state.charges)
                   if isinstance(a, np.ndarray))
        steps = ensemble.CHUNK_BYTES // (ensemble.STEP_BYTES * n)
        assert n_steps > steps      # the run spans more than one chunk
        assert peak - kept <= ensemble.CHUNK_BYTES * 13.5 / 13

    def test_diagnostics_sequence_transient_within_budget(self):
        # the diagnostics path: one recorded replica, then the velocity ACF
        # and the Einstein check on what it returned. The chunk buffers are
        # freed at return, and the ACF of 8 rows of 1e5 samples (longer
        # than one lag transform) and the Einstein check stay under them
        env, geo = ThermalEnv(2.0, 2.0, 4.0), TorusGeometry(100.0, 100.0)
        dt, n_steps, stride, max_lag = 0.01, 100_000, 50, 400

        def diagnostics():
            res = run_replica(env, geo, 50, 50, dt, n_steps, master_seed=3,
                              burn_in_steps=5_000, init_velocities="zero",
                              velocity_series_walkers=8,
                              position_stride=stride)
            langevin.velocity_autocorrelation(res.vel_series.T, dt, max_lag)
            langevin.einstein_diffusion_check(res.positions, dt * stride,
                                              env)
            return res

        res, peak = traced_peak(diagnostics)
        # chunk_counts is a broadcast view that owns no memory
        kept = sum(a.nbytes for a in (*vars(res).values(), res.state.pos,
                                      res.state.vel, res.state.charges)
                   if isinstance(a, np.ndarray) and a.base is None)
        assert n_steps + max_lag > langevin.LAG_BLOCK
        assert peak - kept <= ensemble.CHUNK_BYTES * 13.5 / 13

    @staticmethod
    def rates_doc(n_steps, replicas):
        return json.dumps({
            "env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
            "geometry": {"l_x": 10.0, "l_y": 10.0},
            "population": {"mode": "fixed", "n_v": 5, "n_a": 5},
            "dt": 0.1, "total_time": 0.1 * n_steps, "replicas": replicas,
            "sample_stride": 5, "fit": {"t_min": 5.0, "t_max": 100.0},
            "green_kubo_cutoff": 10.0, "master_seed": 4})

    def rates_config(self, n_steps, replicas):
        return parse_config(self.rates_doc(n_steps, replicas), "rates")

    def test_rates_peak_does_not_grow_with_replicas(self, tmp_path):
        # each lane reduces its replica and drops the series, so 4x the
        # replicas may add less than one replica's increments at the peak
        n_steps = 20_000
        peaks = [traced_peak(cli.run, self.rates_config(n_steps, replicas),
                             lanes=1, output_dir=tmp_path / str(replicas))[1]
                 for replicas in (3, 12)]
        assert peaks[1] - peaks[0] < 8 * 2 * n_steps

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="malloc trimming is glibc's")
    def test_rates_first_run_faults_each_lane_once(self, tmp_path):
        # a fresh process, so malloc starts from glibc's defaults. Each lane
        # faults its series in once: two draw buffers (4 doubles per step)
        # and the engine's and estimators' transients, within 16 in all. If
        # malloc handed freed replicas back to the OS, later replicas would
        # fault them in again: more than twice the bound at 10 per lane
        lanes, n_steps = 2, 100_000
        code = (
            "import resource, sys\n"
            "from windrift import cli, parse_config\n"
            "config = parse_config(sys.stdin.read(), 'rates')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"cli.run(config, lanes={lanes}, output_dir=sys.argv[1])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)\n")
        src = str(Path(ensemble.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env,
            input=self.rates_doc(n_steps, 20), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < lanes * 16 * 8 * n_steps / 4096


class TestPopulation:
    def test_mean_formula(self, basic_env):
        geo = TorusGeometry(l_x=np.pi, l_y=1.0)
        assert mean_population(basic_env, geo, 0.0) == pytest.approx(
            np.pi * 1.0 * 1.0 / np.pi, rel=1e-15)

    def test_boltzmann_suppression_to_empty(self, basic_env, square_torus):
        n_v, n_a = sample_population(basic_env, square_torus, 1e6,
                                     rng=substream(0, 0))
        assert (n_v, n_a) == (0, 0)

    def test_sampled_mean_matches_boltzmann(self, basic_env):
        geo = TorusGeometry(l_x=np.pi, l_y=1.0)    # mean total = 1
        rng = substream(7, 0)
        totals = [sum(sample_population(basic_env, geo, 0.0, rng=rng))
                  for _ in range(10_000)]
        # Poisson sd ~ 1 plus the even-rounding tie-break
        assert abs(np.mean(totals) - 1.0) < 0.05

    def test_counts_always_even_split(self, basic_env, square_torus):
        rng = substream(3, 1)
        for _ in range(50):
            n_v, n_a = sample_population(basic_env, square_torus, 2.0,
                                         rng=rng)
            assert n_v == n_a >= 0

    def test_even_mean_population(self, basic_env, square_torus):
        # mean total = 100/pi = 31.83 -> nearest even 32 -> 16 + 16
        assert even_mean_population(basic_env, square_torus, 0.0) == (16, 16)

    def test_rejects_bad_inputs(self, basic_env, square_torus):
        with pytest.raises(ValueError):
            mean_population(basic_env, square_torus, -1.0)
        cold = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        with pytest.raises(ValueError):
            mean_population(cold, square_torus, 1.0)


class TestClosedFormRates:
    def test_analytic_rate_substitution(self, square_torus):
        env = ThermalEnv(mass=1.0, eta=2.0, temperature=1.0)
        assert analytic_rate(env, square_torus, 50, 50) == \
            pytest.approx(0.5, rel=1e-15)

    def test_analytic_rate_empty(self, basic_env, square_torus):
        assert analytic_rate(basic_env, square_torus, 0, 0) == 0.0

    def test_no_volume_enhancement_in_formula(self, basic_env):
        small = analytic_rate(basic_env, TorusGeometry(10.0, 10.0), 50, 50)
        large = analytic_rate(basic_env, TorusGeometry(20.0, 20.0), 200, 200)
        assert small == pytest.approx(large, rel=1e-15)

    def test_predicted_rate_substitution(self):
        env = ThermalEnv(mass=1.0, eta=np.pi, temperature=1.0)
        assert predicted_rate(env, TorusGeometry(7.0, 7.0), 0.0) == \
            pytest.approx(1.0 / np.pi**2, rel=1e-12)

    def test_boltzmann_factor(self, basic_env, square_torus):
        bare = predicted_rate(basic_env, square_torus, 0.0)
        cooled = predicted_rate(basic_env, square_torus,
                                basic_env.temperature * np.log(10.0))
        assert cooled == pytest.approx(0.1 * bare, rel=1e-12)

    def test_predicted_equals_analytic_at_mean_population(self, basic_env):
        geo = TorusGeometry(l_x=14.0, l_y=5.0)
        f0 = 0.7
        half = mean_population(basic_env, geo, f0) / 2.0
        for axis in ("x", "y"):
            pred = predicted_rate(basic_env, geo, f0, axis=axis)
            ana = analytic_rate(basic_env, geo, half, half, axis=axis)
            assert pred == pytest.approx(ana, rel=1e-12)

    def test_axis_interchange(self, basic_env):
        geo = TorusGeometry(l_x=20.0, l_y=10.0)
        gx = analytic_rate(basic_env, geo, 50, 50, axis="x")
        gy = analytic_rate(basic_env, geo, 50, 50, axis="y")
        assert gx / gy == pytest.approx(4.0, rel=1e-12)

    def test_zero_temperature_rate_zero(self, square_torus):
        cold = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        assert predicted_rate(cold, square_torus, 0.0) == 0.0

    def test_validation(self, basic_env, square_torus):
        with pytest.raises(ValueError):
            analytic_rate(basic_env, square_torus, -1, 1)
        with pytest.raises(ValueError):
            predicted_rate(basic_env, square_torus, -0.1)
        with pytest.raises(ValueError):
            analytic_rate(basic_env, square_torus, 1, 1, axis="z")


class TestMsdEstimator:
    def test_constant_series(self):
        est = rate_from_msd(1.0, np.ones(401), fit_window=(2.0, 8.0))
        assert est.gamma_rate == 0.0
        assert est.stderr == 0.0

    def test_synthetic_brownian_oracle(self):
        rng = np.random.default_rng(11)
        rate0, dt, n = 0.3, 0.01, 20_000
        rows = [synthetic_brownian_alpha(rate0, dt, n, rng)[0]
                for _ in range(25)]
        est = rate_from_msd(dt, np.stack(rows), fit_window=(1.0, 20.0))
        assert abs(est.gamma_rate - rate0) < 3.0 * est.stderr + 0.01

    def test_diffusive_window_precondition(self):
        with pytest.raises(ValueError, match="diffusive"):
            rate_from_msd(1.0, np.zeros(1000), fit_window=(1.0, 50.0),
                          gamma=1.0)

    def test_window_beyond_data(self):
        with pytest.raises(ValueError):
            rate_from_msd(1.0, np.zeros(4), fit_window=(10.0, 20.0))

    @pytest.mark.parametrize("spacing", [0.0, -0.1, np.nan])
    def test_spacing_must_be_positive(self, spacing):
        with pytest.raises(ValueError, match="spacing must be positive"):
            rate_from_msd(spacing, np.zeros(400), fit_window=(5.0, 15.0))

    def test_sample_times_refused(self):
        # the spacing is one number: sample times of any length would be
        # read at their first two entries alone
        with pytest.raises(TypeError):
            rate_from_msd(np.arange(10) * 0.1, np.zeros(400),
                          fit_window=(5.0, 15.0))


class TestGreenKuboEstimator:
    def test_zero_increments(self):
        est = rate_from_green_kubo(np.zeros(4000), dt=0.1, cutoff=5.0)
        assert est.gamma_rate == 0.0
        assert est.stderr == 0.0

    def test_white_noise_oracle(self):
        rng = np.random.default_rng(23)
        s, dt = 0.8, 0.05
        inc = rng.normal(0.0, s * np.sqrt(dt), size=(20, 40_000))
        est = rate_from_green_kubo(inc, dt=dt, cutoff=2.0)
        assert abs(est.gamma_rate - s**2 / 2.0) < 3.0 * est.stderr + 0.01

    def test_matches_msd_on_same_trajectory(self):
        rng = np.random.default_rng(31)
        rate0, dt, n = 0.3, 0.02, 50_000
        alphas, incs = [], []
        for _ in range(20):
            a, i = synthetic_brownian_alpha(rate0, dt, n, rng)
            alphas.append(a)
            incs.append(i)
        msd = rate_from_msd(dt, np.stack(alphas), fit_window=(1.0, 30.0))
        gk = rate_from_green_kubo(np.stack(incs), dt=dt, cutoff=3.0)
        combined = np.hypot(msd.stderr, gk.stderr)
        assert abs(msd.gamma_rate - gk.gamma_rate) <= 2.0 * combined + 1e-3

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            rate_from_green_kubo(np.zeros(100), dt=0.1, cutoff=20.0)

    def test_cutoff_below_one_step_refused(self):
        # 0.04 rounds to lag 0 at dt = 0.1, which leaves only C(0) dt / 2
        with pytest.raises(ValueError, match="cutoff"):
            rate_from_green_kubo(np.zeros(100), dt=0.1, cutoff=0.04)

    @pytest.mark.parametrize("dt,cutoff,message", [
        (0.0, 1.0, "step dt must be positive and finite"),
        (-0.1, 1.0, "step dt must be positive and finite"),
        (np.nan, 1.0, "step dt must be positive and finite"),
        (0.1, np.nan, "cutoff must be positive and finite"),
        (0.1, np.inf, "cutoff must be positive and finite"),
        # cutoff / dt overflows to inf: longer than any series
        (1e-10, 1e300, "exceeds series length")])
    def test_bad_step_or_cutoff_refused_by_name(self, dt, cutoff, message):
        with pytest.raises(ValueError, match=message):
            rate_from_green_kubo(np.ones((2, 100)), dt=dt, cutoff=cutoff)

    def test_no_inverse_transform(self, monkeypatch):
        # the rate is a contraction of the power spectrum, not a sum over
        # an inverse-transformed autocorrelation
        def refuse(*args, **kwargs):
            raise AssertionError("inverse FFT called")

        monkeypatch.setattr(np.fft, "irfft", refuse)
        inc = np.random.default_rng(3).normal(size=(2, 1000))
        assert rate_from_green_kubo(inc, dt=0.1, cutoff=1.0).gamma_rate > 0.0

    def test_kernel_refuses_odd_size(self):
        # an odd size has no bin size/2, so doubling bins 1..size/2-1
        # would leave its last bin single
        with pytest.raises(ValueError, match="even"):
            langevin._green_kubo_kernel(1000, 10, 1025, 0.1)

    def test_kernel_cached_per_shape(self):
        kernel = langevin._green_kubo_kernel
        kernel.cache_clear()
        inc = np.random.default_rng(4).normal(size=(2, 1000))
        first = rate_from_green_kubo(inc, dt=0.1, cutoff=1.0)
        assert (kernel.cache_info().hits, kernel.cache_info().misses) == (0, 1)
        again = rate_from_green_kubo(inc[::-1], dt=0.1, cutoff=1.0)
        assert (kernel.cache_info().hits, kernel.cache_info().misses) == (1, 1)
        assert again.per_row.tolist() == first.per_row[::-1].tolist()
        for other in ((inc[:, :900], 0.1, 1.0), (inc, 0.1, 2.0),
                      (inc, 0.2, 2.0)):
            rate_from_green_kubo(*other)
        assert (kernel.cache_info().hits, kernel.cache_info().misses) == (1, 4)


class TestPerRowRates:
    """A stacked call's per_row equals one single-row call per replica."""

    @pytest.fixture(scope="class")
    def series(self):
        rng = np.random.default_rng(5)
        dt, n = 0.05, 4000
        rows = [synthetic_brownian_alpha(0.3, dt, n, rng) for _ in range(5)]
        rows.append((np.zeros(n + 1), np.zeros(n)))      # rate exactly 0
        alphas, incs = (np.stack(col) for col in zip(*rows))
        return alphas, incs, dt

    def test_msd(self, series):
        alphas, _, dt = series
        est = rate_from_msd(dt, alphas, (1.0, 20.0))
        singles = [rate_from_msd(dt, row, (1.0, 20.0)).gamma_rate
                   for row in alphas]
        assert est.per_row.tolist() == singles
        assert est.gamma_rate == float(np.mean(est.per_row))

    def test_green_kubo(self, series):
        _, incs, dt = series
        est = rate_from_green_kubo(incs, dt, cutoff=1.0)
        singles = [rate_from_green_kubo(row, dt, cutoff=1.0).gamma_rate
                   for row in incs]
        assert est.per_row.tolist() == singles
        assert est.per_row[-1] == 0.0
        assert est.gamma_rate == float(np.mean(est.per_row))

    @pytest.mark.parametrize("n_negative", [1, 4])
    def test_negative_rows_are_kept(self, n_negative):
        # only the mean is clipped. Green-Kubo: alternating increments give
        # dt (C0/2 + C1) = -dt C0 / 2 at a one-lag cutoff; MSD: a period-20
        # sine's MSD falls over lag times (12, 18)
        dt, n = 0.1, 4000
        t = np.arange(n) * dt
        white = np.random.default_rng(8).normal(0.0, 0.3, size=(4, n))
        amps = np.arange(1.0, n_negative + 1.0)[:, None]
        alternating = amps * 0.3 * (-1.0) ** np.arange(n)
        sine = amps * np.sin(2.0 * np.pi * t / 20.0)
        walks = np.cumsum(white, axis=1)
        for est in (rate_from_green_kubo(
                        np.vstack([white[n_negative:], alternating]), dt,
                        cutoff=dt),
                    rate_from_msd(dt, np.vstack([walks[n_negative:], sine]),
                                  (12.0, 18.0))):
            rows = est.per_row
            assert np.all(rows[-n_negative:] < 0.0) and len(rows) == 4
            assert est.gamma_rate == max(float(np.mean(rows)), 0.0)
            assert est.stderr == float(np.std(rows, ddof=1) / 2.0)
            assert (est.gamma_rate == 0.0) == (n_negative == 4)

    def test_pooled_replica_calls_equal_one_call(self, series):
        # cli's lanes call each estimator on one replica's (x, y) rows
        alphas, incs, dt = series
        pairs = [(i, (i + 1) % len(incs)) for i in range(len(incs))]
        for call in (lambda rows: rate_from_green_kubo(incs[rows], dt, 1.0),
                     lambda rows: rate_from_msd(dt, alphas[rows],
                                                (1.0, 20.0))):
            pooled = pool_replicas([call(list(p)).per_row for p in pairs])
            for axis, est in enumerate(pooled):
                whole = call([p[axis] for p in pairs])
                assert est.per_row.tolist() == whole.per_row.tolist()
                assert (est.gamma_rate, est.stderr) == \
                    (whole.gamma_rate, whole.stderr)

    def test_closed_forms_are_floats(self, basic_env, square_torus):
        assert type(analytic_rate(basic_env, square_torus, 1, 1)) is float
        assert type(predicted_rate(basic_env, square_torus, 0.5)) is float


class TestSimulatedDiffusion:
    def test_msd_linear_with_no_quadratic_term(self, basic_env):
        # gamma = 2: beyond 10/gamma the winding MSD is a straight line
        geo = TorusGeometry(l_x=10.0, l_y=10.0)
        dt, n_steps = 0.05, 40_000
        curves = []
        for r in range(20):
            res = run_replica(basic_env, geo, 20, 20, dt, n_steps,
                              master_seed=77, stream_id=r, sample_stride=20)
            curves.append(res.alpha[0])
        times = np.arange(0.0, n_steps * dt + 1e-9, dt * 20)
        lags = np.arange(5, 101, 5)            # 5 .. 100 time units
        lag_idx = lags
        coeffs = []
        for alpha in curves:
            origins = np.arange(0, len(alpha) - lag_idx[-1], lag_idx[-1])
            msd = np.array([np.mean((alpha[origins + L] - alpha[origins])**2)
                            for L in lag_idx])
            coeffs.append(np.polyfit(lags.astype(float), msd, 2)[0])
        coeffs = np.asarray(coeffs)
        se = coeffs.std(ddof=1) / np.sqrt(len(coeffs))
        assert abs(coeffs.mean()) <= 3.0 * se
        assert times[1] == pytest.approx(1.0)

    def test_simulated_rate_near_analytic(self, basic_env):
        geo = TorusGeometry(l_x=10.0, l_y=10.0)
        dt, n_steps = 0.1, 30_000
        rows = [run_replica(basic_env, geo, 20, 20, dt, n_steps,
                            master_seed=99, stream_id=r, sample_stride=1)
                for r in range(20)]
        alphas = np.stack([r.alpha[0] for r in rows])
        est = rate_from_msd(dt, alphas, fit_window=(5.0, 100.0),
                            gamma=basic_env.gamma)
        target = analytic_rate(basic_env, geo, 20, 20)
        assert abs(est.gamma_rate - target) <= 0.15 * target
