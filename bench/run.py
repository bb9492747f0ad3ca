#!/usr/bin/env python3
"""windrift benchmark: runs workloads and reports their metrics.

    python3 bench/run.py --workload rates-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

Load model: a closed loop with one client. This process starts a job (a
fresh ``bench/job.py`` process running one batch experiment) only after
the previous job has ended, and keeps starting jobs until ``--seconds``
have passed, with at least one job (one pair when traced). Job j of a run
uses master seed derived from (--seed, j), so the same seed gives the
same inputs.

Untraced runs report the end-to-end metrics, each the median over jobs.
A traced run alternates an untraced and a traced job on the same inputs,
checks that their artifacts match, and reports the per-layer metrics
(medians over traced jobs) plus ``trace.overhead_frac``. Metric names and
units come from BENCHMARK.json. Every job's artifacts are checked; the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
where attempted/failed count correctness checks (failed_frac =
failed / attempted).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import ARTIFACTS, CHECKS, artifacts_match, walker_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
JOB_TIMEOUT_S = 120.0

# Jobs run with one BLAS thread. With OpenBLAS's default (one thread per
# core) a 2e4-double np.dot took ~8 ms in some fresh processes and ~5 us in
# others, so the first Green-Kubo call cost 1.0-1.25 s in 3 of 18 processes
# instead of 0.12-0.21 s; none of 6 single-thread processes showed it.
# One thread also keeps lanes + extra BLAS threads <= nproc.
BLAS_THREADS = 1

RATE_ENV = {"mass": 1.0, "eta": 2.0, "temperature": 1.0}
TORUS_10 = {"l_x": 10.0, "l_y": 10.0}

# The shape of each workload named in BENCHMARK.json; why each exists:
# bench/README.md. "layers" holds the name prefixes of the per-layer
# metrics the workload's code path calls; the others read 0, and the
# report marks them.
EVERY_LAYER = ("setup.", "config.", "rng.", "ensemble.run_replica.",
               "ensemble.lfilter.", "ensemble.replica_s.",
               "ensemble.series_bytes")
WORKLOADS = {
    "rates-dense": {
        "subcommand": "rates", "lanes": 2,
        "layers": EVERY_LAYER + ("ensemble.rate_from_", "cli."),
        "total_time": {"full": 1000.0, "smoke": 200.0},
        "config": {"env": RATE_ENV, "geometry": TORUS_10,
                   "population": {"mode": "fixed", "n_v": 100, "n_a": 100},
                   "dt": 0.1, "replicas": 20, "sample_stride": 5,
                   "fit": {"t_min": 5.0, "t_max": 100.0},
                   "green_kubo_cutoff": 10.0},
    },
    "rates-sparse": {
        "subcommand": "rates", "lanes": 1,
        "layers": EVERY_LAYER + ("ensemble.rate_from_", "cli."),
        "total_time": {"full": 1000.0, "smoke": 100.0},
        "config": {"env": RATE_ENV, "geometry": TORUS_10,
                   "population": {"mode": "boltzmann", "f0": 1.67},
                   "dt": 0.02, "replicas": 40},
    },
    "diagnostics": {
        "subcommand": "simulate", "lanes": 1,
        "layers": EVERY_LAYER + ("langevin.",),
        "total_time": {"full": 1000.0, "smoke": 100.0},
        "config": {"env": {"mass": 2.0, "eta": 2.0, "temperature": 4.0},
                   "geometry": {"l_x": 100.0, "l_y": 100.0},
                   "population": {"mode": "fixed", "n_v": 50, "n_a": 50},
                   "dt": 0.01, "burn_in": 50.0, "replicas": 1},
        "diagnostics": {"velocity_series_walkers": 8, "position_stride": 50,
                        "acf_max_lag_time": 4.0},
    },
}
assert list(WORKLOADS) == [w["name"] for w in BENCH["workloads"]]


class JobFailed(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def job_spec(name, seed, job, size, trace, out_dir):
    w = WORKLOADS[name]
    config = dict(w["config"], total_time=w["total_time"][size],
                  master_seed=(seed * 1_000_003 + job) % 2**63)
    return {"subcommand": w["subcommand"], "config": config,
            "lanes": min(w["lanes"], nproc()),
            "diagnostics": w.get("diagnostics"), "trace": trace,
            "out_dir": str(out_dir)}


def job_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_job(spec, out_dir):
    """Run one job to completion; adds setup_s and peak RSS to its record."""
    out_dir.mkdir(parents=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(out_dir / "job.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "job.py"),
                                 str(spec_path)], cwd=ROOT, env=job_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (out_dir / "job.log").read_text()[-2000:]
        raise JobFailed(f"job exited with {proc.returncode}:\n{tail}")
    record = json.loads((out_dir / "job.json").read_text())
    record["setup_s"] = record["t_setup"] - t_spawn
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    return record


def job_checks(spec, out_dir):
    try:
        return CHECKS[spec["subcommand"]](spec, out_dir)
    except (KeyError, TypeError, ValueError, OSError) as err:
        return [("artifacts readable", False, repr(err))]


def median(values):
    return float(statistics.median(values))


def provenance(versions, lanes):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    mem_mb = cpu = "unknown"
    try:
        with open("/proc/meminfo") as fh:
            mem_mb = int(fh.readline().split()[1]) // 1024
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        pass
    return {"git_sha": git_sha, **versions, "nproc": nproc(),
            "mem_total_mb": mem_mb, "cpu_model": cpu,
            "blas_threads": BLAS_THREADS, "lanes": lanes}


def run_workload(name, seed, seconds, trace, size, run_dir):
    """One benchmark run. Returns (metric samples, checks, jobs, provenance).

    Each metric has one sample per job; a traced run's count metrics come
    from identical inputs, so their samples must all be equal (checked).
    """
    checks, plain, traced = [], [], []
    start = time.monotonic()
    job = 0
    while job == 0 or time.monotonic() - start < seconds:
        pair = [False, True] if trace else [False]
        dirs = []
        for traced_job in pair:
            out_dir = run_dir / f"{name}-{job}-{int(traced_job)}"
            # a traced run repeats the same inputs, so counts must repeat
            spec = job_spec(name, seed, 0 if trace else job, size,
                            traced_job, out_dir)
            record = run_job(spec, out_dir)
            record["walker_steps"] = walker_steps(spec, out_dir)
            checks += job_checks(spec, out_dir)
            (traced if traced_job else plain).append(record)
            dirs.append(out_dir)
        if trace:
            checks += artifacts_match(*dirs, ARTIFACTS[spec["subcommand"]])
        for d in dirs:
            shutil.rmtree(d)
        job += 1
    prov = provenance(plain[0]["versions"], spec["lanes"])

    if not trace:
        for r in plain:
            r["walker_steps_per_s"] = r["walker_steps"] / r["wall_s"]
        samples = {key: [r[key] for r in plain]
                   for key in ("setup_s", "wall_s", "walker_steps_per_s",
                               "peak_rss_mb")}
        return samples, checks, plain, prov

    layers = [dict(r["layers"], **{"setup.import_s": r["import_s"],
                                   "config.parse_config.busy_s":
                                   r["parse_config_s"]}) for r in traced]
    samples = {key: [m[key] for m in layers] for key in layers[0]}
    for key, value in layers[0].items():
        if isinstance(value, int):
            repeated = all(m[key] == value for m in layers)
            checks.append((f"{key} repeats across traced jobs", repeated,
                           str(sorted({m[key] for m in layers}))))
    return samples, checks, plain + traced, prov


def report(name, trace, samples, checks, jobs, prov):
    """Print the human-readable report; return the result object.

    Each metric's value is the median of its samples; the report line
    also gives the quartiles and the sample count. Two figures are
    printed but are not BENCHMARK.json metrics, since they can read 0:
    failed_frac and, when traced, trace.overhead_frac (median traced
    wall_s over median untraced wall_s, minus 1).
    """
    metrics = {}
    failed = [c for c in checks if not c[1]]
    print(f"# workload {name}  trace={int(trace)}  jobs={len(jobs)}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for m in BENCH["per_layer" if trace else "end_to_end"]:
        values = samples[m["name"]]
        value = values[0] if isinstance(values[0], int) else median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        called = not trace or m["name"].startswith(WORKLOADS[name]["layers"])
        print(f"{m['name']:42s} {value:12.6g} {m['unit']:8s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"
              + ("" if called else "  (not called by this workload)"))
    print(f"{'failed_frac':42s} {len(failed) / len(checks):12.6g} "
          f"(attempted {len(checks)} checks)")
    if trace:
        walls = [[r["wall_s"] for r in jobs if r["layers"] is None],
                 [r["wall_s"] for r in jobs if r["layers"] is not None]]
        print(f"{'trace.overhead_frac':42s} "
              f"{median(walls[1]) / median(walls[0]) - 1.0:12.6g}")
    for check_name, _, detail in failed:
        print(f"FAILED {check_name}: {detail}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(checks),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: untraced then traced")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "windrift" / "__init__.py").is_file():
        print("bench: no windrift sources under src/", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    run_dir = ROOT / ".bench_runs" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            for trace in modes:
                outcome = run_workload(name, args.seed, args.seconds,
                                       bool(trace), args.size, run_dir)
                results[(name, trace)] = report(name, bool(trace), *outcome)
    except JobFailed as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{key}": m
                             for (name, _), r in results.items()
                             for key, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
