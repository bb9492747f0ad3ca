"""Tests of the benchmark itself, at smoke size (a few seconds per run).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNT_UNITS = ("count", "B")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--size", "smoke",
                           "--seconds", "0", "--seed", "7", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_format():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCH["end_to_end"])} \
        in BENCH["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    untraced = result(bench("--workload", workload, "--trace", "0"))
    traced = [result(bench("--workload", workload, "--trace", "1"))
              for _ in range(2)]
    for res, spec in ((untraced, "end_to_end"), *((t, "per_layer")
                                                  for t in traced)):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert [(k, m["unit"]) for k, m in res["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in BENCH[spec]]
    for name, metric in traced[0]["metrics"].items():
        if metric["unit"] in COUNT_UNITS:
            assert traced[1]["metrics"][name] == metric, name
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    from compare import verdict
    wall = next(m for m in BENCH["end_to_end"] if m["name"] == "wall_s")
    base = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.02, 1.98, 2.1, 1.9]
    assert verdict(wall, base, base) == (0, "within bound")
    assert verdict(wall, base, [x * 0.7 for x in base]) == (10, "gain")
    assert verdict(wall, base, [x * 1.4 for x in base]) == (0, "regression")
    noisy = [1.0, 3.0] * 5
    assert verdict(wall, noisy, [x * 1.1 for x in noisy])[1] == "unresolved"
