"""Acceptance gate: every headline behavior at its stated tolerance.

Each test prints one PASS line when it succeeds (run with -s to see them
inline); a failure shows up as an ordinary pytest failure. The heavy
simulations are shared through module-scoped fixtures. Statistical
criteria run at fixed seeds, sized so their tolerances sit at >= 3 sigma.
"""

import json

import numpy as np
import pytest

from windrift import (MaterialParams, ThermalEnv, TorusGeometry,
                      analytic_rate, derive_scales, e_divergence_residual,
                      field_energy, helmholtz_residual, level_splitting,
                      mean_population, moving_vortex_e, parse_config,
                      predicted_rate, run_replica, static_b,
                      velocity_autocorrelation)
from windrift.cli import run as cli_run
from windrift.design import DeviceSpec

from oracles import bessel_k_quadrature

SEED = 20260810


def announce(num, text):
    print(f"\ncriterion {num:2d} PASS: {text}")


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def equipartition_run():
    """100 walkers, gamma=1, M=2, T=4, dt=0.01, 1e4 time units, burn-in 50."""
    env = ThermalEnv(mass=2.0, eta=2.0, temperature=4.0)
    geo = TorusGeometry(l_x=100.0, l_y=100.0)
    res = run_replica(env, geo, 50, 50, 0.01, 1_000_000, master_seed=SEED,
                      stream_id=0, burn_in_steps=5_000,
                      init_velocities="zero", velocity_series_walkers=8,
                      sample_stride=100)
    return env, res


RATES_CONFIG = {
    "env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
    "geometry": {"l_x": 10.0, "l_y": 10.0},
    "population": {"mode": "fixed", "n_v": 100, "n_a": 100},
    "dt": 0.1,
    "total_time": 10_000.0,
    "replicas": 20,
    "master_seed": SEED,
    "sample_stride": 5,
    "fit": {"t_min": 5.0, "t_max": 100.0},
    "green_kubo_cutoff": 10.0,
}


@pytest.fixture(scope="module")
def rates_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion3")
    cfg = parse_config(json.dumps(RATES_CONFIG), "rates")
    summary = cli_run(cfg, lanes=1, output_dir=out)
    return out, summary


def volume_config(side, f0=0.0):
    cfg = dict(RATES_CONFIG)
    cfg["geometry"] = {"l_x": side, "l_y": side}
    cfg["population"] = {"mode": "mean", "f0": f0}
    return cfg


@pytest.fixture(scope="module")
def kappa100():
    params = MaterialParams(zeta=1.0, a_coeff=5000.0, b_coeff=5000.0,
                            g_coupling=1.0, sigma=1.0, d_thickness=1.0)
    return derive_scales(params)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_equipartition(equipartition_run):
    env, res = equipartition_run
    target = env.temperature / env.mass                 # 2.0
    mean_vy2 = res.chunk_vy2_sums.sum() / res.chunk_counts.sum()
    # the per-step sums, grouped into 20 equipartition blocks of 5e4 steps
    blocks = res.chunk_vy2_sums.reshape(20, -1).sum(axis=1) \
        / res.chunk_counts.reshape(20, -1).sum(axis=1)
    stderr = blocks.std(ddof=1) / np.sqrt(len(blocks))
    assert abs(mean_vy2 - target) <= 0.02 * target
    assert abs(mean_vy2 - target) <= 3.0 * stderr
    announce(1, f"<v_y^2> = {mean_vy2:.4f} vs T/M = {target} "
                f"(stderr {stderr:.4f})")


def test_criterion_02_velocity_autocorrelation(equipartition_run):
    env, res = equipartition_run
    series = res.vel_series.T                            # (8, N)
    _, _, fit = velocity_autocorrelation(series, 0.01, max_lag=500)
    assert fit.rate == pytest.approx(env.gamma, rel=0.05)
    assert fit.amplitude == pytest.approx(env.temperature / env.mass,
                                          rel=0.05)
    announce(2, f"ACF fit gamma = {fit.rate:.4f} (true 1.0), amplitude = "
                f"{fit.amplitude:.4f} (true 2.0)")


def test_criterion_03_rate_agreement(rates_run):
    _, summary = rates_run
    rates = summary["rates"]["x"]
    analytic = rates["analytic"]["gamma"]
    assert analytic == pytest.approx(1.0, rel=1e-12)
    msd, gk = rates["msd"], rates["green_kubo"]
    assert abs(msd["gamma"] / analytic - 1.0) <= 0.10
    assert abs(gk["gamma"] / analytic - 1.0) <= 0.10
    combined = np.hypot(msd["stderr"], gk["stderr"])
    assert abs(msd["gamma"] - gk["gamma"]) <= 2.0 * combined
    announce(3, f"Gamma_msd = {msd['gamma']:.4f} +- {msd['stderr']:.4f}, "
                f"Gamma_gk = {gk['gamma']:.4f} +- {gk['stderr']:.4f}, "
                f"analytic = 1.0")


def test_criterion_04_no_volume_enhancement(tmp_path_factory):
    """Gamma_x on the L = 10 torus (32 walkers) over the L = 20 one (128).

    Under the collective engine that rates runs, this is an identity: both
    tori draw the same normals (same seed, no population draw in mean
    mode), scaled by sqrt(N)/l, which is the same on both, so the ratio is
    1 by construction. The statistical check of the N/l^2 scaling is the
    exact-variance oracle test of run_winding in test_ensemble.py.
    """
    gammas = {}
    for side in (10.0, 20.0):
        out = tmp_path_factory.mktemp(f"volume{int(side)}")
        cfg = parse_config(json.dumps(volume_config(side)), "rates")
        summary = cli_run(cfg, lanes=1, output_dir=out)
        gammas[side] = summary["rates"]["x"]["msd"]["gamma"]
        # population mean scales with area: 32 -> 128 walkers
        expected_total = {10.0: 32, 20.0: 128}[side]
        assert summary["population"]["per_replica_n_v"][0] * 2 == \
            expected_total
    ratio = gammas[10.0] / gammas[20.0]
    assert abs(ratio - 1.0) <= 0.10
    announce(4, f"Gamma_x(L=10)/Gamma_x(L=20) = {ratio:.4f} at fixed F0, T")


def test_criterion_05_aspect_ratio_law(tmp_path_factory):
    out = tmp_path_factory.mktemp("aspect")
    cfg_doc = dict(RATES_CONFIG)
    cfg_doc["geometry"] = {"l_x": 20.0, "l_y": 10.0}
    cfg = parse_config(json.dumps(cfg_doc), "rates")
    summary = cli_run(cfg, lanes=1, output_dir=out)
    gx = summary["rates"]["x"]["msd"]["gamma"]
    gy = summary["rates"]["y"]["msd"]["gamma"]
    assert abs(gx / gy - 4.0) <= 0.15 * 4.0
    announce(5, f"Gamma_x/Gamma_y = {gx / gy:.3f} at l_x/l_y = 2 "
                f"(law: 4)")


def test_criterion_06_consistency_identity():
    env = ThermalEnv(mass=1.3, eta=2.7, temperature=0.9)
    geo = TorusGeometry(l_x=17.0, l_y=6.0)
    for f0 in (0.0, 0.8, 3.5):
        half = mean_population(env, geo, f0) / 2.0
        for axis in ("x", "y"):
            pred = predicted_rate(env, geo, f0, axis=axis)
            ana = analytic_rate(env, geo, half, half, axis=axis)
            assert pred == pytest.approx(ana, rel=1e-12)
    announce(6, "predicted rate == analytic rate at the Boltzmann mean "
                "population (1e-12 relative)")


def test_criterion_07_field_residuals(kappa100):
    scales = kappa100
    v = [0.3, 0.2]
    worst_h, worst_d = 0.0, 0.0
    for r in np.geomspace(2 * scales.xi, 5 * scales.delta, 16):
        b_mag = abs(static_b(r, scales))
        resid = helmholtz_residual(r, scales, h=r / 2000.0)
        worst_h = max(worst_h, resid / b_mag)
        point = np.array([r, r]) / np.sqrt(2.0)
        e = moving_vortex_e(point, v, scales, 1.0)
        e_mag = np.hypot(e[0], e[1])
        resid_div = e_divergence_residual(point, v, scales, 1.0,
                                          h=r / 1000.0)
        worst_d = max(worst_d, resid_div / (e_mag / r))
    assert worst_h <= 1e-4
    assert worst_d <= 1e-4
    announce(7, f"worst Helmholtz residual {worst_h:.2e}, worst div-E "
                f"residual {worst_d:.2e} (both <= 1e-4 relative)")


def test_criterion_08_far_field_asymptote(kappa100):
    scales = kappa100
    r = np.geomspace(0.01 * scales.delta, 0.1 * scales.delta, 30)
    pts = np.stack([r, np.zeros_like(r)], axis=-1)
    e = moving_vortex_e(pts, [0.25, 0.0], scales, 1.0)
    e2 = e[:, 0]**2 + e[:, 1]**2
    slope = np.polyfit(np.log(r), np.log(e2), 1)[0]
    assert -4.1 <= slope <= -3.9
    announce(8, f"log-log slope of E^2 = {slope:.4f} on [0.01, 0.1] delta")


def test_criterion_09_mass_scaling(kappa100):
    scales = kappa100
    base = field_energy(scales.xi, scales.delta, 0.3, scales, 1.0, d=1.0)
    tight = field_energy(scales.xi / 2.0, scales.delta, 0.3, scales, 1.0,
                         d=1.0)
    ratio = tight.mass_estimate / base.mass_estimate
    assert ratio == pytest.approx(4.0, rel=0.20)      # 1/xi^2 scaling
    thick = field_energy(scales.xi, scales.delta, 0.3, scales, 1.0, d=2.0)
    assert thick.mass_estimate == pytest.approx(2.0 * base.mass_estimate,
                                                rel=1e-12)
    announce(9, f"mass(xi/2)/mass(xi) = {ratio:.4f} (1/xi^2 law), "
                f"mass exactly proportional to d")


def test_criterion_10_design_numbers():
    split = level_splitting(DeviceSpec(r_eff=0.02, n1=0, n2=1, l_x=0.05,
                                       l_y=0.001, epsilon_line=1.0,
                                       temperature=1.0))
    mm = split.wavelength_si_m * 1e3
    assert mm == pytest.approx(0.917, rel=5e-3)
    assert 0.1 <= mm <= 10.0
    announce(10, f"lambda(R = 2 cm, 0->1) = {mm:.4f} mm")


def test_criterion_11_bessel_accuracy():
    from windrift import bessel_k
    zs = np.geomspace(1e-4, 30.0, 1000)
    worst = 0.0
    for order in (0, 1):
        values = bessel_k(order, zs)
        for z, v in zip(zs, values):
            ref = bessel_k_quadrature(order, float(z))
            worst = max(worst, abs(v - ref) / abs(ref))
    assert worst <= 1e-9
    announce(11, f"K0/K1 worst relative error vs quadrature oracle: "
                 f"{worst:.2e} over z in [1e-4, 30]")


def test_criterion_12_reproducibility(rates_run, tmp_path_factory):
    out1, _ = rates_run

    def strip_timestamp(path):
        return "\n".join(line for line in path.read_text().splitlines()
                         if '"timestamp"' not in line)

    reference = strip_timestamp(out1 / "summary.json")
    reference_traj = (out1 / "trajectory.csv").read_bytes()
    for lanes in (2, 8):
        out = tmp_path_factory.mktemp(f"lanes{lanes}")
        cfg = parse_config(json.dumps(RATES_CONFIG), "rates")
        cli_run(cfg, lanes=lanes, output_dir=out)
        assert strip_timestamp(out / "summary.json") == reference
        assert (out / "trajectory.csv").read_bytes() == reference_traj
    announce(12, "criterion-3 run is bit-identical at 1, 2, and 8 lanes")
