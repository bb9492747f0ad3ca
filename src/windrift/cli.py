"""Experiment orchestration and deterministic file output.

The only module with side effects. Artifacts:

* trajectory.csv   header t,alpha_x,alpha_y (replica 0, sampled)
* summary.json     rate estimates, per-replica records, config echo, seed
* fields.csv       header r,B,Ex,Ey,E2 (fields subcommand)
* design.json      design-calculator report

simulate and rates write only charge-weighted sums (windings and their
rates), so they run the collective engine, ensemble.run_winding.

Numbers are serialized with 17 significant digits so binary doubles
round-trip exactly; JSON keys are sorted. Reruns with the same config
and seed are byte-identical except for the timestamp field, regardless
of how many worker lanes execute the replicas.
"""

import argparse
import itertools
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import design as design_mod
from .bessel import bessel_k
from .config import (SUBCOMMANDS, DesignConfig, EnsembleConfig, FieldsConfig,
                     RatesConfig, RunConfig, parse_config)
from .ensemble import (TorusGeometry, analytic_rate,
                       collective_normals, collective_size,
                       even_mean_population, mean_population, pool_replicas,
                       predicted_rate, prefetched, rate_from_green_kubo,
                       rate_from_msd, run_replica, run_winding,
                       sample_population)
from .fields import field_table, helmholtz_residual
from .langevin import ThermalEnv
from .materials import MaterialParams, classify_regime, derive_scales
from .rng import substream


# ---------------------------------------------------------------------------
# deterministic serialization

def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def json_text(obj, indent: int = 0) -> str:
    """Render JSON with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            rendered = json_text(obj[key], indent + 1)
            items.append(f'{pad}  "{key}": {rendered}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [pad + "  " + json_text(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path: Path, obj) -> None:
    path.write_text(json_text(obj) + "\n")


CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, header, columns) -> None:
    """The bytes np.savetxt writes with fmt %.17g, from one % format per
    block of CSV_BLOCK_ROWS rows instead of one per row, so the text held
    at once is bounded whatever the row count."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _rate_dict(method: str, gamma: float, stderr: float = 0.0) -> dict:
    return {"gamma": gamma, "stderr": stderr, "method": method}


# ---------------------------------------------------------------------------
# subcommand runners

class _Reduced(NamedTuple):
    """What a lane keeps of one replica once its series are reduced."""

    counts: tuple                 # (n_v, n_a)
    final: tuple                  # (alpha_x, alpha_y) at the last step
    # rates: the (x, y) per_row of the MSD and of the Green-Kubo call;
    # simulate: ()
    per_rows: tuple


# glibc's mallopt parameters (malloc.h) and the largest heap block it
# accepts on 64-bit hosts
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BYTES = 32 << 20


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed blocks of up to 32 MB for reuse.

    A lane frees each replica's arrays just before the next replica
    allocates the same sizes. By default glibc maps blocks above a moving
    threshold separately and trims the free top of a heap past twice it,
    so later replicas fault the same pages in again: the first
    20-replica, 1e5-step criterion-3 run at two lanes in a fresh process
    takes 14.1k-16.3k minor faults by default, against 4.7k-4.9k with
    heap blocks and a trim threshold of 32 MB. The settings hold for the
    rest of the process; a C library without mallopt is left as it is.
    """
    import ctypes   # only simulate and rates load it
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a refused value (return 0) leaves malloc's default: slower, not wrong
    mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)


def _run_ensemble(config: EnsembleConfig, lanes: int):
    """Each replica simulated and reduced in its lane. Returns replica 0's
    sampled (times, alpha_x, alpha_y) and the records in replica order.

    The lanes claim replicas from one shared iterator. Each lane's helper
    thread (ensemble.prefetched) claims the next replica, draws its
    population and fills one of two lane-owned buffers with its normals,
    while the lane runs the replica before through run_winding and the
    estimators. Lane i is prefetched's slot i: it runs on CPU i and its
    helper on CPU i + 1, modulo the CPUs allowed, so at 2 lanes on 2 CPUs
    each CPU holds one lane and the other lane's helper. A lane drops a
    replica's per-step series before it takes the next one, so memory
    grows with the lane count, not the replica count. Each estimator gets
    one call per replica, on the engine's (x, y) rows as they are:
    per-axis calls would make two lanes contend for the interpreter lock
    over many small numpy operations.
    """
    env, geo, pop = config.env, config.geometry, config.population
    replicas = iter(range(config.replicas))
    trajectory = []     # filled by the lane that runs replica 0

    def draw(r, buffer):
        rng = substream(config.master_seed, r)
        if pop.mode == "fixed":
            counts = pop.n_v, pop.n_a
        elif pop.mode == "mean":
            counts = even_mean_population(env, geo, pop.f0)
        else:  # boltzmann: Poisson draw first, then the stream feeds the run
            counts = sample_population(env, geo, pop.f0, rng=rng)
        return r, counts, collective_normals(rng, sum(counts),
                                             config.n_steps, out=buffer)

    def reduce(r, counts, normals):
        res = run_winding(env, geo, *counts, config.dt, config.n_steps,
                          normals=normals, sample_stride=config.sample_stride)
        if r == 0:
            trajectory.extend((res.times, *res.alpha))
        if config.subcommand != "rates":
            return _Reduced(counts, res.final_alpha, ())
        green_kubo = rate_from_green_kubo(res.inc, config.dt,
                                          config.green_kubo_cutoff)
        msd = rate_from_msd(config.dt * config.sample_stride, res.alpha,
                            (config.fit_t_min, config.fit_t_max),
                            gamma=env.gamma)
        return _Reduced(counts, res.final_alpha,
                        (msd.per_row, green_kubo.per_row))

    def lane(slot):
        # the helper fills one buffer while the lane spends the other;
        # each has room for any nonempty population
        buffers = itertools.cycle(
            np.empty((2, collective_size(1, config.n_steps))))
        return [(r, reduce(r, counts, normals)) for r, counts, normals
                in prefetched(lambda r: draw(r, next(buffers)), replicas,
                              slot)]

    _keep_freed_memory()
    records = [None] * config.replicas
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        for done in [pool.submit(lane, slot)
                     for slot in range(min(lanes, config.replicas))]:
            for r, out in done.result():
                records[r] = out
    return trajectory, records


def _predicted_dict(rate: float) -> dict:
    """The design rate and its storage time 1/rate, inf at rate 0."""
    return dict(_rate_dict("Predicted", rate),
                storage_time=1.0 / rate if rate > 0.0 else float("inf"))


def _rates_summary(config: RatesConfig, records, mean_nv: float,
                   mean_na: float) -> dict:
    # each estimator's per-replica (x, y) rows, pooled per axis
    msd_xy, gk_xy = (pool_replicas(per_rows) for per_rows
                     in zip(*(rec.per_rows for rec in records)))
    f0 = config.population.f0
    rates = {}
    per_replica = {}
    for axis, msd, gk in zip(("x", "y"), msd_xy, gk_xy):
        analytic = analytic_rate(config.env, config.geometry,
                                 mean_nv, mean_na, axis=axis)
        rates[axis] = {
            "msd": _rate_dict("MSD", msd.gamma_rate, msd.stderr),
            "green_kubo": _rate_dict("GreenKubo", gk.gamma_rate, gk.stderr),
            "analytic": _rate_dict("Analytic", analytic),
            "predicted": None if f0 is None else _predicted_dict(
                predicted_rate(config.env, config.geometry, f0, axis=axis))}
        per_replica[axis] = {"msd": msd.per_row.tolist(),
                             "green_kubo": gk.per_row.tolist()}
    return {"rates": rates, "per_replica_rates": per_replica}


def _config_echo(config: EnsembleConfig) -> dict:
    """The fields the run reads, less the seed, paths and step count."""
    return {key: value for key, value in asdict(config).items()
            if key not in ("master_seed", "output_dir", "n_steps")}


def run_ensemble(config: EnsembleConfig, out_dir: Path, lanes: int) -> dict:
    """Write trajectory.csv and summary.json; rates adds the rate estimates."""
    trajectory, records = _run_ensemble(config, lanes)
    population = {"per_replica_n_v": [rec.counts[0] for rec in records],
                  "per_replica_n_a": [rec.counts[1] for rec in records]}
    summary = {
        "schema": f"windrift.{config.subcommand}.v1",
        "master_seed": config.master_seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_echo": _config_echo(config),
        "population": population,
        "final_alpha_x": [rec.final[0] for rec in records],
        "final_alpha_y": [rec.final[1] for rec in records],
    }
    if config.subcommand == "rates":
        mean_nv = float(np.mean(population["per_replica_n_v"]))
        mean_na = float(np.mean(population["per_replica_n_a"]))
        population.update(mean_total=mean_nv + mean_na,
                          empty_ensemble=mean_nv + mean_na == 0)
        summary.update(_rates_summary(config, records, mean_nv, mean_na))
    write_csv(out_dir / "trajectory.csv", ["t", "alpha_x", "alpha_y"],
              trajectory)
    write_json(out_dir / "summary.json", summary)
    return summary


def run_fields(config: FieldsConfig, out_dir: Path, lanes: int) -> dict:
    scales = derive_scales(config.material, c_light=config.c_light)
    grid = config.field_table
    r = np.geomspace(grid.r_min, grid.r_max, grid.n_points)
    table = field_table(scales, r, grid.speed, config.c_light,
                        angle=np.deg2rad(grid.angle_deg))
    write_csv(out_dir / "fields.csv", ["r", "B", "Ex", "Ey", "E2"], table.T)
    summary = {
        "schema": "windrift.fields.v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scales": {
            "delta": scales.delta, "xi": scales.xi, "psi0": scales.psi0,
            "kappa": scales.kappa, "flux_quantum": scales.flux_quantum,
            "h_c2": scales.h_c2, "mass": scales.mass, "eta": scales.eta,
            "gamma": scales.gamma,
            "estimate_fields": list(scales.estimate_fields),
        },
        "regime": asdict(classify_regime(config.material, scales)),
        "grid": asdict(grid),
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def run_design(config: DesignConfig, out_dir: Path, lanes: int) -> dict:
    dev = config.device
    split = design_mod.level_splitting(dev, r_unit_m=config.r_unit_m)
    flux_quantum = 2.0 * math.pi / config.design_g_coupling
    current = design_mod.loop_current_scale(dev.l_x, dev.l_y, flux_quantum,
                                            config.c_light) \
        if dev.l_x > dev.l_y else None
    class_1, class_2 = (design_mod.equivalence_class(n, 0)
                        for n in (dev.n1, dev.n2))
    report = {
        "schema": "windrift.design.v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "level_splitting": dict(asdict(split),
                                wavelength_si_mm=split.wavelength_si_m * 1e3),
        "boltzmann_suppression": design_mod.solid_torus_suppression(dev),
        "equivalence_classes": {
            "level_1": class_1,
            "level_2": class_2,
            "distinct": class_1 != class_2,
        },
        "loop_current": None if current is None else asdict(current),
        "anyon_prefactor_log": (
            design_mod.anyon_prefactor_log(config.anyon.l_prime,
                                           config.anyon.rho_min)
            if config.anyon else None),
    }
    write_json(out_dir / "design.json", report)
    return report


def run_selftest(config: RunConfig, out_dir: Path, lanes: int) -> dict:
    """Fast internal consistency checks; one PASS/FAIL line each."""
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    params = MaterialParams(zeta=0.5, a_coeff=1.0, b_coeff=50.0,
                            g_coupling=0.1, sigma=1.0, d_thickness=1.0)
    scales = derive_scales(params)
    check("derived scales (psi0, xi, delta)",
          np.allclose([scales.psi0, scales.xi, scales.delta],
                      [0.1, 0.5, 100.0], rtol=1e-12))
    check("bessel K0(1), K1(1)",
          abs(bessel_k(0, 1.0) - 0.42102443824070834) < 1e-12
          and abs(bessel_k(1, 1.0) - 0.6019072301972346) < 1e-12)
    check("screening equation residual at r=delta",
          helmholtz_residual(scales.delta, scales, scales.delta / 1000.0)
          < 1e-4 * abs(bessel_k(0, 1.0) / (params.g_coupling
                                           * scales.delta**2)))
    env = ThermalEnv(mass=1.0, eta=2.0, temperature=1.0)
    geo = TorusGeometry(l_x=10.0, l_y=10.0)
    pred = predicted_rate(env, geo, 0.5)
    # identity holds exactly at the continuous Boltzmann mean
    half = mean_population(env, geo, 0.5) / 2.0
    exact = analytic_rate(env, geo, half, half)
    check("predicted rate equals analytic rate at the Boltzmann mean",
          abs(pred / exact - 1.0) < 1e-12)
    dt, n_steps = 0.05, 20_000
    res = run_replica(env, geo, 8, 8, dt, n_steps, master_seed=7, stream_id=0)
    # v_y^2 (variance 2 (T/M)^2) decorrelates in 1/(2 gamma), so each
    # walker gives about gamma * n_steps * dt independent samples
    samples = (res.n_v + res.n_a) * n_steps
    ratio = res.chunk_vy2_sums.sum() / samples / (env.temperature / env.mass)
    check("equipartition <v_y^2> = T/M within 4 standard errors",
          abs(ratio - 1) < 4 * np.sqrt(2 / (env.gamma * dt * samples)))
    ok = all(flag for _, flag in checks)
    return {"passed": ok,
            "checks": [{"name": n, "ok": o} for n, o in checks]}


_RUNNERS = {"simulate": run_ensemble, "rates": run_ensemble,
            "fields": run_fields, "design": run_design,
            "selftest": run_selftest}


def run(config: RunConfig, lanes: int = 1, output_dir=None) -> dict:
    """Execute a validated config; returns the summary dict."""
    out_dir = Path(output_dir if output_dir is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.subcommand](config, out_dir, lanes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="windrift",
        description="Vortex-diffusion winding-number transport: simulate, "
                    "estimate rates, export field profiles, size devices.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override master_seed")
    parser.add_argument("--out", default=None, help="override output_dir")
    parser.add_argument("--lanes", type=int, default=1,
                        help="parallel replica lanes, each with one helper "
                             "thread drawing its next replica (does not "
                             "affect results)")
    args = parser.parse_args(argv)
    if args.lanes < 1:
        parser.error(f"--lanes must be >= 1, got {args.lanes}")
    if args.seed is not None and not 0 <= args.seed < 1 << 64:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")

    try:
        text = Path(args.config).read_text() if args.config else "{}"
        config = parse_config(text, args.subcommand)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        summary = run(config, lanes=args.lanes, output_dir=args.out)
    except (ValueError, OSError) as err:     # ConfigError is a ValueError
        print(f"windrift: error: {err}", file=sys.stderr)
        return 2
    if args.subcommand == "selftest" and not summary.get("passed", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
