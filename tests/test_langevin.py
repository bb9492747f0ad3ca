from bisect import bisect_left

import numpy as np
import pytest
from scipy.signal import lfilter

from windrift import (OUPropagator, ThermalEnv, TorusGeometry,
                      collective_normals, einstein_diffusion_check,
                      rate_from_green_kubo, rate_from_msd, run_replica,
                      run_winding, substream, velocity_autocorrelation)
from windrift import langevin
from windrift.langevin import _fit_lags, _lag_products, _msd_rates

from oracles import (_initial_rate_guess, curve_fit_exponential,
                     five_smooth_at_least, free_langevin_noise_free,
                     increment_covariances,
                     green_kubo_rates_longdouble, lag_products_loop,
                     lag_products_whole_row, msd_all_origin, msd_fit_rates,
                     msd_loop, slope_weights, traced_peak,
                     winding_variance)


def noise_free_step(env, dt, pos, vel):
    """One propagator step with zero noise: (pos + drift v, decay v)."""
    prop = OUPropagator.build(env, dt)
    vel = np.asarray(vel, dtype=float)
    return np.asarray(pos, dtype=float) + prop.drift * vel, prop.decay * vel


class TestThermalEnv:
    def test_gamma_is_eta_over_mass(self):
        env = ThermalEnv(mass=2.0, eta=3.0, temperature=1.0)
        assert env.gamma == pytest.approx(1.5, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ThermalEnv(mass=0.0, eta=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            ThermalEnv(mass=1.0, eta=-1.0, temperature=1.0)


class TestExactPropagator:
    def test_noise_free_single_step(self):
        # T=0, v0=(1,0), gamma=1, dt=1: v -> e^-1, x advances 1 - e^-1
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=0.0)
        prop = OUPropagator.build(env, 1.0)
        assert prop.sigma_v == prop.c1 == prop.c2 == 0.0
        pos, vel = noise_free_step(env, 1.0, np.zeros(2), (1.0, 0.0))
        assert vel[0] == pytest.approx(0.36787944117144233, rel=1e-12)
        assert vel[1] == 0.0
        assert pos[0] == pytest.approx(0.6321205588285577, rel=1e-12)

    @pytest.mark.parametrize("dt", [1e-6, 1e-3, 0.1, 1.0, 25.0])
    def test_noise_free_matches_closed_form_any_dt(self, dt):
        env = ThermalEnv(mass=2.0, eta=1.0, temperature=0.0)
        pos0, vel0 = np.zeros(2), np.array([0.7, -1.3])
        stepped_pos, stepped_vel = noise_free_step(env, dt, pos0, vel0)
        pos, vel = free_langevin_noise_free(pos0, vel0, env.gamma, dt)
        assert np.allclose(stepped_pos, pos, rtol=1e-12, atol=0.0)
        assert np.allclose(stepped_vel, vel, rtol=1e-12, atol=0.0)

    def test_full_relaxation_limit(self):
        env = ThermalEnv(mass=1.0, eta=50.0, temperature=0.0)
        _, vel = noise_free_step(env, 10.0, np.zeros(2), (1.0, 0.0))
        assert np.allclose(vel, 0.0, atol=1e-200)

    def test_rejects_bad_inputs(self):
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            OUPropagator.build(env, 0.0)
        with pytest.raises(ValueError):
            OUPropagator.build(env, -0.1)

    def test_small_dt_variance_expansion(self):
        # stable evaluation of the position variance for gamma*dt << 1
        env = ThermalEnv(mass=1.0, eta=1.0, temperature=2.0)
        dt = 1e-5
        prop = OUPropagator.build(env, dt)
        var_x = prop.c1**2 + prop.c2**2
        assert var_x == pytest.approx((2.0 / 3.0) * 2.0 * dt**3, rel=1e-4)

    def test_stationary_velocity_statistics(self):
        # burn-in >= 20/gamma, then <v> = 0 within 3 SE, <v^2> = T/M
        env = ThermalEnv(mass=2.0, eta=2.0, temperature=4.0)
        geo = TorusGeometry(l_x=50.0, l_y=50.0)
        res = run_replica(env, geo, 100, 100, 0.05, 20_000, master_seed=11,
                          stream_id=0, velocity_series_walkers=200,
                          burn_in_steps=500, init_velocities="zero")
        vy = res.vel_series
        t_over_m = env.temperature / env.mass
        n_eff = vy.size * 0.05 * env.gamma / 2.0   # decorrelation ~ 1/gamma
        mean_se = np.sqrt(t_over_m / n_eff)
        assert abs(vy.mean()) < 3.0 * mean_se
        assert vy.var() == pytest.approx(t_over_m, rel=0.02)


class TestIncrementLaw:
    """langevin.increment_law against the closed-form covariances."""

    @pytest.mark.parametrize("gamma_dt", [1e-3, 0.04, 0.2, 0.999, 1.0, 2.0])
    def test_matches_closed_form(self, gamma_dt):
        gamma, dt = 2.0, gamma_dt / 2.0
        law = langevin.increment_law(gamma, dt)
        c0, c1 = increment_covariances(gamma, dt, [0, 1])
        phi, theta = np.exp(-gamma_dt), law.theta
        assert law.phi == pytest.approx(phi, rel=1e-15)
        assert law.c0 == pytest.approx(c0, rel=1e-14)
        assert law.c1 == pytest.approx(c1, rel=1e-14)
        # the MA(1) factors of u_i = D_i - phi D_(i-1)
        assert 0.0 < theta < 1.0
        assert law.s2 * (1.0 + theta**2) == pytest.approx(
            c0 * (1.0 + phi**2) - 2.0 * phi * c1, rel=0, abs=1e-14 * c0)
        assert law.s2 * theta == pytest.approx(c1 - phi * c0, rel=0,
                                               abs=1e-14 * c0)
        # the innovation variances, from c0/s2 until their fixed point 1
        r = law.r
        assert r[0] == pytest.approx(c0 / law.s2, rel=1e-14)
        assert np.allclose(r[1:], 1.0 + theta**2 - theta**2 / r[:-1],
                           rtol=1e-15, atol=0.0)
        assert abs(theta**2 * (1.0 - 1.0 / r[-1])) <= 2e-16
        assert not r.flags.writeable


def ou_series(gamma, t_over_m, dt, n, rng, n_rows=1):
    """AR(1) velocity series with the exact one-step coefficients."""
    decay = np.exp(-gamma * dt)
    sigma = np.sqrt(t_over_m * -np.expm1(-2.0 * gamma * dt))
    noise = rng.standard_normal((n_rows, n))
    v0 = rng.normal(0.0, np.sqrt(t_over_m), size=(n_rows, 1))
    out, _ = lfilter([sigma], [1.0, -decay], noise, axis=1,
                     zi=decay * v0)
    return out if n_rows > 1 else out[0]


class TestVelocityAutocorrelation:
    def test_recovers_gamma_and_amplitude(self):
        gamma, t_over_m, dt = 1.0, 0.5, 0.01
        rng = np.random.default_rng(42)
        series = ou_series(gamma, t_over_m, dt, 1_000_000, rng)
        tau, c, fit = velocity_autocorrelation(series, dt, max_lag=600)
        assert fit.rate == pytest.approx(gamma, rel=0.05)
        assert fit.amplitude == pytest.approx(t_over_m, rel=0.05)
        assert c[0] == pytest.approx(t_over_m, rel=0.02)
        assert tau[1] - tau[0] == pytest.approx(dt)

    def test_white_noise_series(self):
        rng = np.random.default_rng(3)
        dt = 0.01
        series = rng.normal(0.0, 2.0, size=200_000)
        _, c, fit = velocity_autocorrelation(series, dt, max_lag=50)
        assert fit.amplitude == pytest.approx(series.var(), rel=0.05)
        assert fit.rate > 0.2 / dt         # decays within ~a sample interval
        assert abs(c[1]) < 0.01 * c[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_matches_curve_fit(self, seed):
        # 8 OU rows as the diagnostics workload records them; curve_fit
        # stops at 1.5e-8 relative with a finite-difference Jacobian, which
        # moves its error estimates by a few 1e-6
        dt = 0.01
        series = ou_series(1.0, 2.0, dt, 100_000,
                           np.random.default_rng(seed), n_rows=8)
        tau, c, fit = velocity_autocorrelation(series, dt, max_lag=400)
        popt, perr = curve_fit_exponential(
            tau, c, (c[0], _initial_rate_guess(c, dt)))
        assert np.allclose([fit.amplitude, fit.rate], popt, rtol=1e-6,
                           atol=0.0)
        assert np.allclose([fit.amplitude_err, fit.rate_err], perr,
                           rtol=1e-5, atol=0.0)

    def test_white_noise_rows_give_inf_errors(self):
        # the fitted rate makes exp(-rate * tau) negligible at every
        # tau > 0, so J^T J is singular to working precision
        rows = np.random.default_rng(17).normal(0.0, 1.5, size=(3, 40))
        tau, c, fit = velocity_autocorrelation(rows, 0.1, max_lag=4)
        popt, _ = curve_fit_exponential(
            tau, c, (c[0], _initial_rate_guess(c, 0.1)))
        assert fit.amplitude == pytest.approx(popt[0], rel=1e-6)
        assert fit.amplitude_err == fit.rate_err == np.inf

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            velocity_autocorrelation(np.zeros(99), 0.1, max_lag=10)

    @pytest.mark.parametrize("max_lag", [0, 1])
    def test_rejects_max_lag_below_two(self, max_lag):
        # amplitude and rate from max_lag + 1 points need n - 2 > 0
        rows = np.random.default_rng(5).normal(size=(2, 100))
        with pytest.raises(ValueError, match="max_lag"):
            velocity_autocorrelation(rows, 0.1, max_lag=max_lag)


class TestLagProductKernel:
    """The ACF and Green-Kubo lag products against an explicit double loop."""

    @pytest.fixture(scope="class")
    def rows(self):
        return np.random.default_rng(17).normal(0.0, 1.5, size=(3, 40))

    def test_velocity_acf_matches_loop(self, rows):
        _, c, _ = velocity_autocorrelation(rows, 0.1, max_lag=4)
        expected = lag_products_loop(rows, 4).mean(axis=0)
        assert np.allclose(c, expected, rtol=1e-14, atol=0.0)

    def test_every_lag_matches_loop(self, rows):
        # at max_lag = n - 1 a transform padded below n + max_lag wraps
        n = rows.shape[1]
        expected = lag_products_loop(rows, n - 1)
        err = np.abs(_lag_products(rows, n - 1) - expected).max()
        assert err <= 1e-14 * np.abs(expected).max()

    def test_green_kubo_per_row_matches_loop(self, rows):
        dt = 0.1
        est = rate_from_green_kubo(rows, dt=dt, cutoff=0.4)
        acf = lag_products_loop(rows / dt, 4)
        expected = dt * (0.5 * acf[:, 0] + acf[:, 1:].sum(axis=1))
        assert expected.shape == (3,) and np.any(expected > 0.0)
        assert np.allclose(est.per_row, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [2_015, 3_295, 50_495])
    def test_green_kubo_odd_nearest_smooth_length(self, n):
        # n + 5 lags: the nearest 5-smooth length, 2,025, 3,375 or 50,625,
        # is odd, where the kernel's doubled bins 1..size/2-1 would miss
        # the last one; fast_size pads to the next even one instead
        dt, cutoff = 0.1, 0.5
        assert five_smooth_at_least(n + 5) % 2 == 1
        rows = np.random.default_rng(n).normal(0.0, 0.05, size=(2, n))
        est = rate_from_green_kubo(rows, dt=dt, cutoff=cutoff)
        expected = green_kubo_rates_longdouble(rows, dt, 5)
        assert np.allclose(est.per_row, expected.astype(float), rtol=1e-13,
                           atol=0.0)

    @pytest.mark.parametrize("n", [7, 50_000, 100_000])
    def test_green_kubo_matches_longdouble_lags(self, n):
        # the spectral contraction against one extended-precision dot
        # product per lag, at the bound of the loop comparison above
        dt, cutoff = 0.1, 0.5
        rows = np.random.default_rng(n).normal(0.0, 0.05, size=(2, n))
        est = rate_from_green_kubo(rows, dt=dt, cutoff=cutoff)
        expected = green_kubo_rates_longdouble(rows, dt, 5)
        assert np.allclose(est.per_row, expected.astype(float), rtol=1e-14,
                           atol=0.0)


class TestFastSize:
    def test_smallest_even_smooth_length(self):
        # every m against the even 5-smooth numbers found by trial division
        evens = [k for k in range(2, 40_001, 2)
                 if five_smooth_at_least(k) == k]
        for m in range(2, 20_001):
            assert langevin.fast_size(m) == evens[bisect_left(evens, m)], m


class TestOverlapSaveLagProducts:
    """Rows longer than one lag transform, summed block by block."""

    @pytest.mark.parametrize("n,max_lag", [(301, 30), (130, 31), (35, 30),
                                           (1_000, 2)])
    def test_blocks_match_loop(self, monkeypatch, n, max_lag):
        # 64-point transforms: blocks of 34, 33, 34 and 62 samples, none
        # dividing n, and max_lag up to one sample short of the block. The
        # velocities (rms 0.5) drift at mean 2, so that no lag product sits
        # near 0, where the transforms' rounding, which scales with C(0),
        # would exceed an elementwise rtol
        monkeypatch.setattr(langevin, "LAG_BLOCK", 64)
        assert n + max_lag > 64
        rows = 2.0 + ou_series(1.0, 0.25, 0.05, n,
                               np.random.default_rng(n), n_rows=3)
        np.testing.assert_allclose(_lag_products(rows, max_lag),
                                   lag_products_loop(rows, max_lag),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n,max_lag", [(40, 39), (2_001, 200),
                                           (20_001, 12_767), (32_368, 400)])
    def test_one_transform_rows_unchanged(self, n, max_lag):
        # up to n + max_lag = 2^15 a row is still one whole-row transform,
        # bit for bit: the ACF of such rows and the MSD oracle keep their
        # values
        rows = ou_series(1.0, 2.0, 0.05, n, np.random.default_rng(n),
                         n_rows=2)
        assert np.array_equal(_lag_products(rows, max_lag),
                              lag_products_whole_row(rows, max_lag))

    def test_first_blocked_row_matches_whole_row(self):
        # one sample past a single transform, at the shipped block size
        # (drifting as in test_blocks_match_loop)
        n, max_lag = langevin.LAG_BLOCK - 399, 400
        rows = 2.0 + ou_series(1.0, 0.25, 0.05, n, np.random.default_rng(3),
                               n_rows=2)
        np.testing.assert_allclose(_lag_products(rows, max_lag),
                                   lag_products_whole_row(rows, max_lag),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_acf_peak_bounded_by_block(self, n):
        # the block's and the segment's transforms and the inverse, each
        # about LAG_BLOCK doubles, with room for the output rows and the
        # fit; the bound does not grow with the row length (whole-row
        # transforms took 4.5 MiB at 8 x 1e5 and 18.0 MiB at 8 x 4e5)
        rows = np.random.default_rng(n).normal(size=(n, 8)).T
        _, peak = traced_peak(velocity_autocorrelation, rows, 0.01, 400)
        assert peak <= 5 * 8 * langevin.LAG_BLOCK


class TestAllOriginMsd:
    """oracles.msd_all_origin, the MSD that the slope tests fit."""

    def test_matches_loop_on_random_walks(self):
        # MSD(L) is a difference of sums of squares of the size of the row
        # variance, so its rounding error scales with that variance (about
        # 7e-12 of it at 20,000 samples), not with the MSD itself
        rows = np.cumsum(np.random.default_rng(2).normal(size=(4, 20_000)),
                         axis=1)
        lags = np.unique(np.geomspace(1, rows.shape[1] - 1, 60).astype(int))
        err = np.abs(msd_all_origin(rows, lags) - msd_loop(rows, lags))
        assert np.all(err <= 2e-11 * rows.var(axis=1, keepdims=True))

    def test_replica_mean_is_exact_variance(self, basic_env):
        # stationary increments, so every origin's expectation is
        # Var[alpha(tau)]; lags at 0.5, 5 and 50 / gamma (gamma = 2), z
        # from the spread of the R replica values
        geo = TorusGeometry(l_x=20.0, l_y=10.0)
        n, dt, replicas = 4, 0.05, 400
        lags = np.array([5, 50, 500])
        runs = (run_winding(basic_env, geo, n, n, dt, 2000,
                            normals=collective_normals(substream(43, r),
                                                       2 * n, 2000),
                            sample_stride=1) for r in range(replicas))
        msd = np.array([msd_all_origin(res.alpha, lags) for res in runs])
        for axis, length in ((0, geo.l_y), (1, geo.l_x)):
            exact = winding_variance(basic_env, 2 * n, length, lags * dt)
            z = ((msd[:, axis].mean(axis=0) - exact)
                 / (msd[:, axis].std(axis=0, ddof=1) / np.sqrt(replicas)))
            assert np.all(np.abs(z) <= 4.0), (axis, z)


class TestMsdSlope:
    """_msd_rates, the one-transform slope behind rate_from_msd and the
    Einstein check, against the oracle MSD and its closed-form fit."""

    @pytest.mark.parametrize("n_rows,n,spacing,t_min,t_max", [
        (4, 20_000, 0.05, 0.05, 50.0),   # lag_lo = 1
        (4, 3_000, 0.1, 1.0, 1e6),       # lag_hi clipped to n - 1
        (4, 1_000, 0.1, 0.5, 20.0),      # n + lag_hi = 1,200, 5-smooth
        (4, 2_001, 0.1, 0.5, 50.0),      # odd n
        (1, 5_001, 0.2, 5.0, 500.0),     # one row, the rates-sparse shape
        (200, 2_000, 0.5, 10.0, 50.0),   # 200 rows, the Einstein shape
    ])
    def test_matches_oracle_slope(self, n_rows, n, spacing, t_min, t_max):
        # the slope is sum_L a_L MSD(L); each MSD(L) is a difference of
        # running sums of n squares, so its rounding is at most about
        # n * eps of the row variance, and the slope's at most that times
        # sum |a_L|
        rows = np.cumsum(np.random.default_rng(n).normal(size=(n, n_rows)),
                         axis=0).T
        lags = _fit_lags(t_min, t_max, spacing, n)
        a = slope_weights(lags * spacing)
        err = np.abs(_msd_rates(rows, spacing, t_min, t_max)
                     - msd_fit_rates(rows, spacing, lags))
        eps = np.finfo(float).eps
        assert np.all(err <= n * eps * rows.var(axis=1) * np.abs(a).sum())

    def test_rows_transformed_one_at_a_time(self):
        # a row's transform and power spectrum take a few size-point
        # arrays (size = fast_size(2,100) = 2,160); all 200 rows at once
        # would hold 200 x 1,081 complex values, 3.5 MB
        rows = np.cumsum(np.random.default_rng(8).normal(size=(2_000, 200)),
                         axis=0).T
        _, peak = traced_peak(_msd_rates, rows, 0.5, 10.0, 50.0)
        assert peak <= 16 * 8 * langevin.fast_size(2_100)

    def test_replica_mean_is_exact_slope(self, basic_env):
        # every origin's MSD(L) has expectation Var[alpha(tau_L)], so the
        # slope's is sum_L a_L Var[alpha(tau_L)]; window 0.5 to 50 / gamma
        # (gamma = 2), z from the spread of the R replica slopes
        geo = TorusGeometry(l_x=20.0, l_y=10.0)
        n, dt, replicas = 4, 0.05, 400
        t_min, t_max = 0.25, 25.0
        slopes = np.array([
            _msd_rates(run_winding(basic_env, geo, n, n, dt, 2000,
                                   normals=collective_normals(
                                       substream(43, r), 2 * n, 2000),
                                   sample_stride=1).alpha, dt, t_min, t_max)
            for r in range(replicas)])
        tau = _fit_lags(t_min, t_max, dt, 2001) * dt
        for axis, length in ((0, geo.l_y), (1, geo.l_x)):
            exact = slope_weights(tau) @ winding_variance(basic_env, 2 * n,
                                                          length, tau)
            z = ((slopes[:, axis].mean() - exact)
                 / (slopes[:, axis].std(ddof=1) / np.sqrt(replicas)))
            assert abs(z) <= 4.0, (axis, z)


class TestEinsteinDiffusion:
    def test_expected_value_is_t_over_eta(self, basic_env):
        geo = TorusGeometry(l_x=100.0, l_y=100.0)
        res = run_replica(basic_env, geo, 8, 8, 0.01, 60_000, master_seed=5,
                          stream_id=0, position_stride=50)
        check = einstein_diffusion_check(res.positions, 0.5, basic_env)
        assert check.d_expected == pytest.approx(0.5, rel=1e-15)
        assert 0.8 < check.ratio < 1.2

    def test_same_line_fit_as_rate_from_msd(self, basic_env):
        # one owner of the MSD line fit: the Einstein check is
        # rate_from_msd on the coordinate rows at its own window
        geo = TorusGeometry(l_x=100.0, l_y=100.0)
        res = run_replica(basic_env, geo, 4, 4, 0.01, 20_000, master_seed=5,
                          stream_id=1, position_stride=10)
        pos, dt = res.positions, 0.1
        s, gamma = pos.shape[0], basic_env.gamma
        window = (10.0 / gamma, min(50.0 / gamma, (s - 1) * dt / 2.0))
        est = rate_from_msd(dt, pos.reshape(s, -1).T, window)
        check = einstein_diffusion_check(pos, dt, basic_env)
        assert len(est.per_row) == 16 and est.gamma_rate > 0.0
        assert check.d_measured == est.gamma_rate
        assert check.ratio_err == est.stderr / check.d_expected

    def test_frozen_at_zero_temperature(self):
        env = ThermalEnv(mass=1.0, eta=2.0, temperature=0.0)
        positions = np.zeros((500, 4, 2))     # nothing moves from rest
        check = einstein_diffusion_check(positions, 0.1, env)
        assert check.d_measured == 0.0

    def test_ratio_close_to_one_large_run(self, basic_env):
        geo = TorusGeometry(l_x=100.0, l_y=100.0)
        res = run_replica(basic_env, geo, 50, 50, 0.01, 1_000_000,
                          master_seed=7, stream_id=0, position_stride=100)
        check = einstein_diffusion_check(res.positions, 1.0, basic_env)
        assert 0.95 <= check.ratio <= 1.05

    def test_rejects_short_trajectory(self, basic_env):
        # gamma = 2, dt = 0.1: the window (5, min(25, duration / 2)) must
        # hold two lags. 10 samples end before 10/gamma; at 76 the window
        # (5, 3.75) is empty; at 101 (5, 5) rounds to a single lag
        walk = np.cumsum(np.random.default_rng(3).normal(0.0, 0.3, (101, 2)),
                         axis=0)
        for n_samples in (10, 76, 101):
            with pytest.raises(ValueError, match="no usable lags"):
                einstein_diffusion_check(walk[:n_samples], 0.1, basic_env)

    def test_timestep_independence(self, basic_env):
        geo = TorusGeometry(l_x=100.0, l_y=100.0)
        checks = []
        for sid, (dt, steps, stride) in enumerate(
                [(0.02, 200_000, 50), (0.01, 400_000, 100)]):
            res = run_replica(basic_env, geo, 20, 20, dt, steps,
                              master_seed=19, stream_id=sid,
                              position_stride=stride)
            checks.append(einstein_diffusion_check(res.positions, dt * stride,
                                                   basic_env))
        diff = abs(checks[0].ratio - checks[1].ratio)
        budget = 3.0 * (checks[0].ratio_err + checks[1].ratio_err)
        assert diff < max(budget, 0.05)


# 400 samples at spacing 0.1 fit every window and lag below; only the rows
# are missing, and a mean over no rows would be NaN
ENV = ThermalEnv(mass=1.0, eta=2.0, temperature=1.0)


@pytest.mark.parametrize("call", [
    lambda: rate_from_msd(0.1, np.empty((0, 400)), (5.0, 15.0)),
    lambda: rate_from_green_kubo(np.empty((0, 400)), 0.1, cutoff=2.0),
    lambda: einstein_diffusion_check(np.empty((400, 0, 2)), 0.1, ENV),
    lambda: velocity_autocorrelation(np.empty((0, 400)), 0.1, max_lag=20)],
    ids=["msd", "green_kubo", "einstein", "acf"])
def test_input_without_rows_refused(call):
    with pytest.raises(ValueError, match="no rows"):
        call()


@pytest.mark.parametrize("call, n_samples", [
    (lambda: rate_from_msd(0.1, np.zeros((3, 1)), (5.0, 15.0)), 1),
    (lambda: rate_from_msd(0.1, np.zeros((3, 0)), (5.0, 15.0)), 0),
    (lambda: einstein_diffusion_check(np.empty((0, 4, 2)), 0.1, ENV), 0)],
    ids=["msd-one-sample", "msd-no-samples", "einstein-no-samples"])
def test_series_too_short_to_fit_refused(call, n_samples):
    with pytest.raises(ValueError, match=f"at least two samples, got "
                                         f"{n_samples}$"):
        call()
