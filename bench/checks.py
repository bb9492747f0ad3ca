"""Correctness checks on one job's artifacts.

Every check returns ``(name, ok, detail)``. Statistical tolerances are Z
standard errors wide. With Z = 6 a correct program fails a check with
probability below 1e-6 per check for a Gaussian statistic; the benchmark
makes a few thousand checks per 22 runs of each workload.
"""

import json
import math
import statistics

Z = 6.0

# ACF fit scatter of an OU velocity series: the relative standard deviation
# of the fitted rate (amplitude) is C / sqrt(gamma * T * k) for k series
# of duration T. Measured on the diagnostics shape (8 series, dt = 0.01,
# max lag 4/gamma): 80 seeds at T = 1000 gave C = 3.61 (1.68); 150 seeds
# at T = 100 gave C = 3.05 (1.56). The larger values are used.
ACF_RATE_C = 3.61
ACF_AMPLITUDE_C = 1.68


def _within(name, value, target, tol, what="rel"):
    ok = math.isfinite(value) and abs(value - target) <= tol
    return (name, ok, f"{value:.6g} vs {target:.6g} (tol {tol:.3g}, {what})")


def _exact(name, value, target):
    return _within(name, value, target, 1e-12 * max(abs(target), 1e-300),
                   "exact")


def _stderr_at(estimate, reference):
    """The estimate's reported stderr, rescaled to the reference rate.

    Both estimators scatter in proportion to the rate (the increments are
    Gaussian with variance proportional to the walker count). The MSD
    estimate is skewed: a low estimate comes with a low stderr, so the raw
    z-score has a heavy lower tail. In simulated runs of the workload
    shapes (per axis), the raw MSD z-score reached -5.4 in 800 draws of
    rates-sparse and -4.6 in 600 of rates-dense, and 1 in 125 sparse draws
    fell below -4. Rescaled, the largest |z| was 4.6 and 3.2.
    """
    if estimate["gamma"] <= 0.0:
        return 0.0
    return estimate["stderr"] * reference / estimate["gamma"]


def _per_walker_check(axis, per_replica, walkers, unit_rate):
    """Per-replica Green-Kubo rates over their own analytic rate, against 1.

    The analytic rate of a replica with N walkers is N * unit_rate. The
    summary's rates use the mean N, so with a Boltzmann population their
    stderr also holds the spread of N across replicas, which cancels in
    the comparison with the analytic rate. Dividing each replica's rate by
    its own N removes that spread. The stderr of the mean ratio comes from
    the ratios, rescaled from the mean to 1 as in ``_stderr_at``. Empty
    replicas are left out. In 500 simulated draws per axis of rates-sparse
    and 400 of rates-dense, the largest |z| was 3.7; the stderr of the
    mean ratio was 3.1% and 4.2% of it.

    MSD gets no such check: one replica's MSD rate scatters by about 100%
    (a stderr of the mean ratio of 17% on rates-sparse), so it would
    detect no smaller bias than the summary check does, and its rescaled
    z reached 5.3 in 500 draws.
    """
    ratios = [rate / (n * unit_rate)
              for rate, n in zip(per_replica["green_kubo"], walkers) if n > 0]
    if len(ratios) < 2:
        return []
    estimate = {"gamma": statistics.fmean(ratios),
                "stderr": statistics.stdev(ratios) / math.sqrt(len(ratios))}
    return [_within(f"{axis}: Green-Kubo per walker / analytic",
                    estimate["gamma"], 1.0, Z * _stderr_at(estimate, 1.0),
                    "abs")]


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def walker_steps(spec, out_dir):
    """Sum over replicas of walkers x (burn-in + steps), from the artifacts."""
    cfg = spec["config"]
    steps = round(cfg["total_time"] / cfg["dt"]) \
        + round(cfg.get("burn_in", 0.0) / cfg["dt"])
    if spec["subcommand"] == "rates":
        pop = read_summary(out_dir)["population"]
        walkers = sum(pop["per_replica_n_v"]) + sum(pop["per_replica_n_a"])
    else:
        walkers = json.loads(
            (out_dir / "diagnostics.json").read_text())["n_walkers"]
    return walkers * steps


def rates_checks(spec, out_dir):
    """MSD, Green-Kubo, analytic and predicted rates; artifact shapes."""
    cfg = spec["config"]
    env, geo = cfg["env"], cfg["geometry"]
    replicas = cfg["replicas"]
    checks = []
    try:
        summary = read_summary(out_dir)
        rows = (out_dir / "trajectory.csv").read_text().splitlines()
        header = rows[0]
        [[float(x) for x in row.split(",")] for row in rows[1:]]
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [("artifacts parse", False, repr(err))]
    n_steps = round(cfg["total_time"] / cfg["dt"])
    stride = cfg.get("sample_stride", 10)
    checks.append(("artifacts parse", True, ""))
    checks.append(("trajectory.csv header", header == "t,alpha_x,alpha_y",
                   header))
    checks.append(_within("trajectory.csv rows", len(rows) - 1,
                          n_steps // stride + 1, 0, "rows"))

    pop = summary["population"]
    n_v, n_a = pop["per_replica_n_v"], pop["per_replica_n_a"]
    checks.append(("population neutral per replica",
                   len(n_v) == replicas and n_v == n_a, f"{len(n_v)} rows"))
    mean_total = (sum(n_v) + sum(n_a)) / replicas
    checks.append(("empty_ensemble flag",
                   pop["empty_ensemble"] == (mean_total == 0), ""))
    f0 = cfg["population"].get("f0")
    if cfg["population"]["mode"] == "boltzmann":
        mu = (geo["l_x"] * geo["l_y"] / math.pi * env["mass"]
              * env["temperature"] * math.exp(-f0 / env["temperature"]))
        # Poisson variance plus at most 1 from rounding to an even total
        checks.append(_within("boltzmann mean population", mean_total, mu,
                              Z * math.sqrt((mu + 1.0) / replicas), "abs"))

    for axis, length, ratio in (("x", geo["l_y"], geo["l_x"] / geo["l_y"]),
                                ("y", geo["l_x"], geo["l_y"] / geo["l_x"])):
        rates = summary["rates"][axis]
        analytic = rates["analytic"]["gamma"]
        checks.append(_exact(f"{axis}: analytic rate", analytic,
                             env["temperature"] * mean_total
                             / (env["eta"] * length**2)))
        msd, gk = rates["msd"], rates["green_kubo"]
        checks.append(_within(f"{axis}: MSD vs analytic", msd["gamma"],
                              analytic, Z * _stderr_at(msd, analytic),
                              "abs"))
        checks.append(_within(f"{axis}: Green-Kubo vs analytic", gk["gamma"],
                              analytic, Z * _stderr_at(gk, analytic), "abs"))
        checks.append(_within(f"{axis}: MSD vs Green-Kubo", msd["gamma"],
                              gk["gamma"],
                              Z * math.hypot(_stderr_at(msd, gk["gamma"]),
                                             gk["stderr"]), "abs"))
        per = summary["per_replica_rates"][axis]
        checks.append((f"{axis}: per-replica rates",
                       len(per["msd"]) == len(per["green_kubo"]) == replicas,
                       ""))
        checks += _per_walker_check(
            axis, per, [v + a for v, a in zip(n_v, n_a)],
            env["temperature"] / (env["eta"] * length**2))
        if f0 is not None:
            t = env["temperature"]
            expected = (env["mass"] * t * t / (math.pi * env["eta"]) * ratio
                        * math.exp(-f0 / t))
            checks.append(_exact(f"{axis}: predicted rate",
                                 rates["predicted"]["gamma"], expected))
        else:
            checks.append((f"{axis}: predicted rate absent",
                           rates["predicted"] is None, ""))
    return checks


def diagnostics_checks(spec, out_dir):
    """Equipartition, velocity ACF, Einstein relation; recording shapes."""
    cfg, diag = spec["config"], spec["diagnostics"]
    env = cfg["env"]
    try:
        rec = json.loads((out_dir / "diagnostics.json").read_text())
    except (OSError, ValueError) as err:
        return [("diagnostics.json parse", False, repr(err))]
    gamma = env["eta"] / env["mass"]
    t_over_m = env["temperature"] / env["mass"]
    duration = rec["n_steps"] * cfg["dt"]
    k = diag["velocity_series_walkers"]
    acf_scale = 1.0 / math.sqrt(gamma * duration * k)
    # time average of v^2 over n OU walkers: Var = 2 (T/M)^2 / (gamma T n)
    equip_sd = math.sqrt(2.0 / (gamma * duration * rec["n_walkers"]))
    return [
        ("diagnostics.json parse", True, ""),
        _within("equipartition <v_y^2>/(T/M)", rec["vy2"] / t_over_m, 1.0,
                Z * equip_sd),
        _within("ACF rate / gamma", rec["acf_rate"] / gamma, 1.0,
                Z * ACF_RATE_C * acf_scale),
        _within("ACF amplitude / (T/M)", rec["acf_amplitude"] / t_over_m,
                1.0, Z * ACF_AMPLITUDE_C * acf_scale),
        _within("Einstein ratio D/(T/eta)", rec["einstein_ratio"], 1.0,
                Z * rec["einstein_ratio_err"]),
        _within("velocity series length", rec["n_velocity_samples"],
                rec["n_steps"], 0, "rows"),
        _within("recorded positions", rec["n_positions"],
                rec["n_steps"] // diag["position_stride"], 0, "rows"),
    ]


def artifacts_match(dir_a, dir_b, names):
    """Traced and untraced artifacts agree, ignoring the timestamp field."""
    checks = []
    for name in names:
        a, b = (d / name for d in (dir_a, dir_b))
        if name.endswith(".json"):
            docs = [json.loads(p.read_text()) for p in (a, b)]
            for doc in docs:
                doc.pop("timestamp", None)
            same = len({json.dumps(doc, sort_keys=True) for doc in docs}) == 1
        else:
            same = a.read_bytes() == b.read_bytes()
        checks.append((f"traced {name} matches untraced", same, ""))
    return checks


CHECKS = {"rates": rates_checks, "simulate": diagnostics_checks}
ARTIFACTS = {"rates": ("summary.json", "trajectory.csv"),
             "simulate": ("diagnostics.json",)}
