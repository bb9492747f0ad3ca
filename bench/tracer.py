"""Per-layer instrumentation for a traced benchmark job.

The tracer times windrift's layers from outside: it replaces public names
in the package's modules with timing wrappers and reads the objects they
return. Nothing inside ``src/`` changes, so a traced job must write the
same artifacts as an untraced one (run.py checks this).

Patched names and the layer they stand for:

* ``windrift.cli.substream`` / ``windrift.ensemble.substream``: the
  returned Philox generators are wrapped in ``TimedGenerator`` (layer rng).
* ``windrift.ensemble.lfilter``: the OU velocity recurrence.
* ``windrift.cli.run_replica`` / ``windrift.ensemble.run_replica``: one
  replica; its self time excludes rng and lfilter time spent inside it.
  The growth of the process's peak RSS from the first call's start to
  the last call's end is charged to this layer; it sees memory that a
  replica holds while it runs, which the returned arrays do not show.
* ``windrift.cli.rate_from_msd`` / ``rate_from_green_kubo``: estimators.
* ``windrift.cli.ThreadPoolExecutor``: the lane pool.
* ``windrift.cli.write_csv`` / ``write_json``: artifact serialization.
* ``windrift.langevin.velocity_autocorrelation`` /
  ``einstein_diffusion_check``: the single-vortex diagnostics.
"""

import functools
import os
import resource
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

import windrift.cli
import windrift.ensemble
import windrift.langevin


def current_rss_mb() -> float:
    """Resident set size of this process now (not the peak), in MiB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray))


class TimedGenerator:
    """Forwards to a numpy Generator; times and counts its normal draws."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_normal(self, *args, **kwargs):
        t0 = perf_counter()
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.child_time("rng.standard_normal", perf_counter() - t0,
                                np.size(out))
        return out

    def normal(self, *args, **kwargs):
        out = self._gen.normal(*args, **kwargs)
        self._tracer.count("rng.normals", np.size(out))
        return out


class Tracer:
    """Thread-safe accumulator of busy times, call counts and byte counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy = {}
        self.calls = {}
        self.first = {}
        self.counts = {"rng.normals": 0, "ensemble.series_bytes": 0,
                       "langevin.recorded_bytes": 0, "cli.bytes_written": 0}
        self.replica_s = []
        self.replica_self_s = 0.0
        self.peak_before_replicas_mb = None
        self.peak_after_replicas_mb = 0.0
        self.pool_wall_s = 0.0
        self.pool_lanes = 0
        self.rss_after_pool_mb = 0.0

    # -- accumulation -----------------------------------------------------

    def add(self, name, seconds):
        with self._lock:
            self.busy[name] = self.busy.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + 1
            self.first.setdefault(name, seconds)

    def count(self, name, n):
        with self._lock:
            self.counts[name] += int(n)

    def child_time(self, name, seconds, normals=0):
        """Time spent in a layer that run_replica calls, on this thread."""
        self.add(name, seconds)
        if normals:
            self.count("rng.normals", normals)
        self._local.child_s = getattr(self._local, "child_s", 0.0) + seconds

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, *, child=False):
        record = self.child_time if child else self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, perf_counter() - t0)
        return wrapper

    def substream(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return TimedGenerator(fn(*args, **kwargs), self)
        return wrapper

    def run_replica(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                if self.peak_before_replicas_mb is None:
                    self.peak_before_replicas_mb = peak_rss_mb()
            self._local.child_s = 0.0
            t0 = perf_counter()
            res = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
            peak = peak_rss_mb()
            recorded = sum(a.nbytes for a in (res.vel_series, res.positions,
                                              res.position_times)
                           if a is not None)
            with self._lock:
                self.replica_s.append(elapsed)
                self.peak_after_replicas_mb = max(
                    self.peak_after_replicas_mb, peak)
                self.replica_self_s += elapsed - self._local.child_s
                self.counts["ensemble.series_bytes"] += _array_bytes(res)
                self.counts["langevin.recorded_bytes"] += recorded
            self.add("ensemble.run_replica", elapsed)
            return res
        return wrapper

    def writer(self, fn):
        timed = self.timed("cli.write", fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            timed(path, *args, **kwargs)
            self.count("cli.bytes_written", os.path.getsize(path))
        return wrapper

    def pool_class(self):
        tracer = self

        class TimedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._bench_t0 = perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                with tracer._lock:
                    tracer.pool_wall_s += perf_counter() - self._bench_t0
                    tracer.pool_lanes = self._max_workers
                    tracer.rss_after_pool_mb = current_rss_mb()
                return out
        return TimedPool

    def install(self):
        """Patch the package's module attributes; lasts for the process."""
        cli, ens, lan = windrift.cli, windrift.ensemble, windrift.langevin
        stream = self.substream(ens.substream)
        replica = self.run_replica(ens.run_replica)
        cli.substream = ens.substream = stream
        cli.run_replica = ens.run_replica = replica
        ens.lfilter = self.timed("ensemble.lfilter", ens.lfilter, child=True)
        for name in ("rate_from_msd", "rate_from_green_kubo"):
            setattr(cli, name, self.timed(f"ensemble.{name}",
                                          getattr(cli, name)))
        cli.ThreadPoolExecutor = self.pool_class()
        cli.write_csv = self.writer(cli.write_csv)
        cli.write_json = self.writer(cli.write_json)
        for name in ("velocity_autocorrelation", "einstein_diffusion_check"):
            setattr(lan, name, self.timed(f"langevin.{name}",
                                          getattr(lan, name)))

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the job; a layer the job never ran reads 0."""
        busy = self.busy.get
        calls = self.calls.get
        replica_busy = busy("ensemble.run_replica", 0.0)
        lanes_wall = self.pool_lanes * self.pool_wall_s
        out = {
            "rng.standard_normal.busy_s": busy("rng.standard_normal", 0.0),
            "ensemble.run_replica.busy_s": replica_busy,
            "ensemble.run_replica.calls": calls("ensemble.run_replica", 0),
            "ensemble.run_replica.self_s": self.replica_self_s,
            "ensemble.run_replica.peak_growth_mb": (
                self.peak_after_replicas_mb - self.peak_before_replicas_mb
                if self.replica_s else 0.0),
            "ensemble.lfilter.busy_s": busy("ensemble.lfilter", 0.0),
            "ensemble.replica_s.p50": (float(np.median(self.replica_s))
                                       if self.replica_s else 0.0),
            "ensemble.replica_s.max": max(self.replica_s, default=0.0),
            "cli.pool_wall_s": self.pool_wall_s,
            "cli.lane_efficiency": (replica_busy / lanes_wall
                                    if lanes_wall else 0.0),
            "cli.rss_after_pool_mb": self.rss_after_pool_mb,
            "cli.write.busy_s": busy("cli.write", 0.0),
        }
        estimators = ("ensemble.rate_from_green_kubo",
                      "ensemble.rate_from_msd")
        for name in estimators + ("langevin.velocity_autocorrelation",
                                  "langevin.einstein_diffusion_check"):
            out[f"{name}.busy_s"] = busy(name, 0.0)
        for name in estimators:
            out[f"{name}.calls"] = calls(name, 0)
        out["ensemble.rate_from_green_kubo.first_s"] = self.first.get(
            "ensemble.rate_from_green_kubo", 0.0)
        out.update(self.counts)
        return out
