"""One benchmark job: a fresh process that runs one workload once.

Usage: python3 bench/job.py SPEC_JSON

SPEC_JSON (written by run.py) gives the subcommand, the config document,
the lane count, the output directory, the diagnostics settings and
whether to trace. The job writes its artifacts and ``job.json`` into the
output directory; ``job.json`` holds CLOCK_MONOTONIC timestamps (shared by
all processes on Linux, so run.py can subtract its spawn time), the
per-layer metrics when traced, and the library versions.
"""

import json
import sys
import time
from pathlib import Path


def run_rates(windrift, config, spec, out_dir):
    windrift.cli.run(config, lanes=spec["lanes"], output_dir=out_dir)


def run_diagnostics(windrift, config, spec, out_dir):
    """The demos/langevin_checks.py path: one recorded replica + checks."""
    diag = spec["diagnostics"]
    env, dt = config.env, config.dt
    pop = config.population
    n_steps = int(round(config.total_time / dt))
    stride = diag["position_stride"]
    res = windrift.ensemble.run_replica(
        env, config.geometry, pop.n_v, pop.n_a, dt, n_steps,
        master_seed=config.master_seed, stream_id=0,
        sample_stride=config.sample_stride,
        burn_in_steps=int(round(config.burn_in / dt)),
        init_velocities="zero",
        velocity_series_walkers=diag["velocity_series_walkers"],
        position_stride=stride)
    max_lag = int(round(diag["acf_max_lag_time"] / dt))
    _, _, fit = windrift.langevin.velocity_autocorrelation(
        res.vel_series.T, dt, max_lag=max_lag)
    check = windrift.langevin.einstein_diffusion_check(
        res.positions, dt * stride, env)
    record = {
        "vy2": float(res.chunk_vy2_sums.sum() / res.chunk_counts.sum()),
        "acf_rate": fit.rate, "acf_amplitude": fit.amplitude,
        "einstein_ratio": check.ratio, "einstein_ratio_err": check.ratio_err,
        "final_alpha": [res.state.alpha_x, res.state.alpha_y],
        "n_walkers": res.n_v + res.n_a, "n_steps": n_steps,
        "n_velocity_samples": int(res.vel_series.shape[0]),
        "n_positions": int(res.positions.shape[0]),
    }
    (out_dir / "diagnostics.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n")


RUNNERS = {"rates": run_rates, "simulate": run_diagnostics}


def main(spec_path):
    t_import = time.monotonic()
    import windrift
    import windrift.cli
    spec = json.loads(Path(spec_path).read_text())
    t_parse = time.monotonic()
    config = windrift.parse_config(json.dumps(spec["config"]),
                                   spec["subcommand"])
    t_setup = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out_dir = Path(spec["out_dir"])
    RUNNERS[spec["subcommand"]](windrift, config, spec, out_dir)
    t_end = time.monotonic()

    record = {
        "t_setup": t_setup,
        "wall_s": t_end - t_setup,
        "import_s": t_parse - t_import,
        "parse_config_s": t_setup - t_parse,
        "versions": {"windrift": windrift.__version__,
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "python": sys.version.split()[0]},
        "layers": tracer.metrics() if tracer else None,
    }
    (out_dir / "job.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
