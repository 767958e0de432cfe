"""Benchmark of the rollup + matrix-profile engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Each run is its own process with
its own Ray session (``num_cpus`` = ``nproc``). The input is generated
from ``--seed`` before anything is timed. Batch jobs run one after another
from this single process until ``--seconds`` have been measured (with a
per-workload minimum); ``stream`` times a fixed 1,000 updates. Every job's
output is checked against independent references.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
untraced jobs once more, then one traced job with a span around each call
into a layer, and prints the per-layer metrics. The last stdout line is the JSON
result; the line before it holds the run facts. Spans and facts are also
written to ``.perfbench_run/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# every per-layer metric and its unit; a layer a workload does not run
# reports 0
PER_LAYER = {
    "read.s": "s", "read.rows": "count", "read.bytes": "bytes",
    "read.blocks": "count",
    "combine.s": "s", "combine.rows_out": "count", "combine.ratio": "ratio",
    "exchange.s": "s", "exchange.blocks_in": "count",
    "exchange.partitions": "count", "exchange.skew": "ratio",
    "exchange.hash_shuffle": "count",
    "fold.s": "s", "fold.series": "count", "fold.rolled_points": "count",
    "fold.gap_frac": "ratio",
    "encode.s": "s", "encode.bits_per_point": "bits",
    "split.s": "s", "profile.tasks": "count",
    "profile.s": "s", "profile.series": "count", "profile.skipped": "count",
    "profile.cells": "count", "profile.cells_per_s": "1/s",
    "kernel.cells_per_s": "1/s", "profile.pool_efficiency": "ratio",
    "discovery.s": "s", "discovery.rows": "count",
    "discovery.profiles_per_s": "1/s",
    "ts.rollup.s": "s", "ts.cascade.s": "s", "ts.series.s": "s",
    "ts.profile.s": "s", "ts.discover.s": "s", "ts.buckets": "count",
    "stream.update_p50_ms": "ms", "stream.update_p99_ms": "ms",
    "stream.updates": "count", "stream.kernel_ms": "ms",
    "stream.overhead_ms": "ms", "stream.checkpoint_s": "s",
    "stream.state_bytes": "bytes", "stream.snapshot_s": "s",
    "ray.quiesce_s": "s", "proc.maps": "count",
    "trace.wall_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s",
}
PAGE = os.sysconf("SC_PAGE_SIZE")
SETUP_CYCLES = 3


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


# ---------------------------------------------------------------- processes

def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, resident bytes) for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{name}/statm") as fh:
                rss = int(fh.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            continue
        out[int(name)] = (ppid, rss)
    return out


def descendants(table: dict, root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


class RssSampler:
    """Peak summed RSS of this process and all its descendants (the Ray
    head processes and workers), sampled from /proc every 100 ms."""

    def __init__(self):
        self.peak = 0
        self._on = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        me = os.getpid()
        while not self._stop.wait(0.1):
            if self._on.is_set():
                table = _proc_table()
                total = sum(table[p][1] for p in [me] + descendants(table, me)
                            if p in table)
                self.peak = max(self.peak, total)

    def start(self):
        self._on.set()

    def reset(self):
        self.peak = 0

    def pause(self):
        self._on.clear()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)


def _max_map_count() -> int:
    with open("/proc/sys/vm/max_map_count") as fh:
        return int(fh.read())


def process_age() -> float:
    """Seconds since this process started (from /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def map_count() -> int:
    with open("/proc/self/maps") as fh:
        return sum(1 for _ in fh)


def _live_descendants() -> list[int]:
    """Descendants that still run; zombies are collected on the way."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
    live = []
    for pid in descendants(_proc_table(), os.getpid()):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != "Z":
            live.append(pid)
    return live


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    deadline = time.time() + timeout
    while _live_descendants() and time.time() < deadline:
        time.sleep(0.1)
    for pid in _live_descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    end = time.time() + 5
    while _live_descendants() and time.time() < end:
        time.sleep(0.1)


# ------------------------------------------------------------------- Ray

def nproc() -> int:
    """CPUs as ``nproc`` reports them: the affinity mask, lowered by
    OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    try:
        omp = int(os.environ.get("OMP_NUM_THREADS", "0"))
    except ValueError:
        omp = 0
    return min(n, omp) if omp > 0 else n


class Session:
    def __init__(self, ncpu: int, temp_dir: str | None):
        self.ncpu = ncpu
        self.temp_dir = temp_dir

    def start(self) -> None:
        import logging

        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=self.ncpu, include_dashboard=False,
                 log_to_driver=False, logging_level=logging.ERROR,
                 object_store_memory=512 * 1024 * 1024,
                 _temp_dir=self.temp_dir)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False

    def stop(self) -> None:
        """Shut Ray down and remove this session's directory."""
        import ray

        gc.collect()
        session_dir = None
        if ray.is_initialized():
            session_dir = ray._private.worker._global_node.get_session_dir_path()
        ray.shutdown()
        if session_dir:
            shutil.rmtree(session_dir, ignore_errors=True)

    def quiesce(self, timeout: float = 120.0) -> float:
        """Drop garbage and wait until every CPU is free; returns the wait."""
        import ray

        gc.collect()
        t = time.perf_counter()
        while (ray.available_resources().get("CPU", 0) < self.ncpu
               and time.perf_counter() - t < timeout):
            time.sleep(0.02)
        return time.perf_counter() - t


# ------------------------------------------------------------------ facts

def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "matrixprofile_ray")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def shuffle_strategy() -> str:
    from ray.data.context import DataContext

    return str(DataContext.get_current().shuffle_strategy)


# ---------------------------------------------------------------- metrics

def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def p99(values: list[float]) -> float:
    """p99; the stream's 1,000 or more updates leave ten samples beyond."""
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run_batch(wl, session, seconds: float, rss: RssSampler, seed: int):
    """Untraced jobs until ``seconds`` are measured. A job that raises or
    fails its check counts as failed; its time still counts."""
    import numpy as np
    from spans import Tracer

    import workloads

    rng = np.random.default_rng([seed, 9])
    times, quiesce, attempted, failed = [], 0.0, 0, 0
    counts: dict = {}
    check_s: list[float] = []
    steps: list[dict] = []
    peaks: list[int] = []
    while attempted < wl.MIN_JOBS or sum(times) < seconds:
        attempted += 1
        job = None
        rss.reset()
        rss.start()
        t = time.perf_counter()
        try:
            job = wl.job(session, Tracer(False))
            rss.pause()
            times.append(job.seconds)
            steps.append(job.steps)
            t = time.perf_counter()
            counts = wl.check(job, rng)
            check_s.append(time.perf_counter() - t)
        except Exception as exc:
            failed += 1
            if job is None:
                times.append(time.perf_counter() - t)
            print(f"perfbench: job failed: {exc!r}", file=sys.stderr, flush=True)
        finally:
            rss.pause()
            peaks.append(rss.peak)
            if job is not None:
                quiesce += job.quiesce_s
                workloads.release(job.out)
    return times, quiesce, attempted, failed, counts, check_s, steps, peaks


def e2e_batch(wl, session, seconds, rss, seed):
    """End-to-end metrics of the untraced batch jobs."""
    (times, quiesce, attempted, failed, counts, check_s, steps,
     peaks) = run_batch(wl, session, seconds, rss, seed)
    job_s = statistics.median(times)
    metrics = {
        "job_s": metric(job_s, "s"),
        "rows_per_s": metric(counts.get("rows", 0) / job_s, "1/s"),
        "rolled_points_per_s": metric(counts.get("points", 0) / job_s, "1/s"),
        "peak_rss_mb": metric(statistics.median(peaks) / 2**20, "MB"),
    }
    return metrics, attempted, failed, {
        "jobs": len(times), "ray_quiesce_s": quiesce, "check_s": check_s,
        "job_steps_s": steps}


def e2e_stream(wl, session, seconds, rss, seed):
    """End-to-end metrics of the untraced update loop; the snapshot that
    follows it is checked, not timed."""
    from spans import Tracer

    import refs

    rss.start()
    lat, failed = wl.run_updates(Tracer(False))
    rss.pause()
    try:
        wl.check(wl.snapshot(Tracer(False)))
    except refs.CheckFailed as exc:
        failed = len(lat)
        print(f"perfbench: stream check failed: {exc!r}", file=sys.stderr)
    rows_per_s = len(lat) * wl.N_KEYS / sum(lat)
    metrics = {
        "job_s": metric(statistics.median(lat), "s"),
        "rows_per_s": metric(rows_per_s, "1/s"),
        "rolled_points_per_s": metric(rows_per_s, "1/s"),
        "peak_rss_mb": metric(rss.peak / 2**20, "MB"),
    }
    return metrics, len(lat), failed, {"jobs": len(lat)}


def per_layer_batch(wl, session, seconds, rss, seed) -> tuple[dict, dict]:
    """One untraced job, one traced job, then the fused-layer probes."""
    import numpy as np
    from spans import Tracer

    import inputs
    import matrixprofile_ray.core as core
    import refs
    import workloads

    rng = np.random.default_rng([seed, 9])
    times, quiesce, attempted, failed, _, _, _, _ = run_batch(
        wl, session, 0.0, rss, seed)
    untraced = statistics.median(times)

    tracer = Tracer(True)
    attempted += 1
    job = wl.traced_job(session, tracer)
    try:
        counts = wl.check(job, rng)
    except refs.CheckFailed as exc:
        failed += 1
        counts = {}
        print(f"perfbench: traced job failed: {exc!r}", file=sys.stderr)
    probed = wl.probes(session, tracer, job)
    root = next(s for s in tracer.spans if s["id"] == job.root)
    wall = root["end"] - root["start"]
    selfs = tracer.self_times()
    quiesce += tracer.duration("ray.quiesce")
    workloads.release(job.out)

    # the kernel alone, in this process, on a long seeded walk
    walk = inputs.random_walk(seed, 16_128)
    reps = []
    for _ in range(3):
        t = time.perf_counter()
        core.mpx(walk, 24)
        reps.append(time.perf_counter() - t)
    kernel_cps = refs.mpx_cells(len(walk), 24) / statistics.median(reps)

    g = selfs.get
    profile_s = g("profile", 0.0) + g("ts.profile", 0.0)
    discovery_s = g("discovery", 0.0) + g("ts.discover", 0.0)
    cells = counts.get("cells", 0)
    prof_cps = cells / profile_s if profile_s else 0.0
    points = counts.get("points", 0)
    m = {
        "read.s": g("read", 0.0),
        "combine.s": tracer.duration("combine"),
        "exchange.s": tracer.duration("exchange"),
        "fold.s": g("series_all_tiers", 0.0),
        "fold.series": counts.get("series", 0),
        "fold.rolled_points": points,
        "fold.gap_frac": counts.get("gaps", 0) / points if points else 0.0,
        "encode.s": g("encode", 0.0),
        "encode.bits_per_point": counts.get("bits", 0) / points if points else 0.0,
        "split.s": g("split", 0.0),
        "profile.tasks": probed.pop("split.blocks", 0),
        "profile.s": profile_s,
        "profile.series": counts.get("profiles", 0),
        "profile.skipped": counts.get("series", 0) - counts.get("profiles", 0),
        "profile.cells": cells,
        "profile.cells_per_s": prof_cps,
        "kernel.cells_per_s": kernel_cps,
        "profile.pool_efficiency": prof_cps / kernel_cps,
        "discovery.s": discovery_s,
        "discovery.rows": counts.get("discoveries", 0),
        "discovery.profiles_per_s": (counts.get("profiles", 0) / discovery_s
                                     if discovery_s else 0.0),
        "ts.rollup.s": g("ts.rollup", 0.0),
        "ts.cascade.s": g("ts.cascade", 0.0),
        "ts.series.s": g("ts.series", 0.0),
        "ts.profile.s": g("ts.profile", 0.0),
        "ts.discover.s": g("ts.discover", 0.0),
        "ray.quiesce_s": quiesce,
        "trace.wall_s": wall,
        "trace.coverage": 1.0 - g("job", 0.0) / wall,
        "trace.overhead_s": wall - tracer.duration("ray.quiesce") - untraced,
    }
    m.update(probed)
    return m, {"tracer": tracer, "attempted": attempted, "failed": failed,
               "untraced_job_s": untraced}


def per_layer_stream(wl, session, seconds, rss, seed) -> tuple[dict, dict]:
    """Untraced update loop, then a traced one, then the probes."""
    from spans import Tracer

    import refs

    untraced, failed = wl.run_updates(Tracer(False))
    u_p50 = statistics.median(untraced)
    tracer = Tracer(True)
    with tracer.span("job") as root:
        lat, f2 = wl.run_updates(tracer)
        snap = wl.snapshot(tracer)
    failed += f2
    attempted = len(untraced) + len(lat)
    try:
        wl.check(snap)
    except refs.CheckFailed as exc:
        failed = attempted
        print(f"perfbench: stream check failed: {exc!r}", file=sys.stderr)
    rec = tracer.spans[root]
    wall = rec["end"] - rec["start"]
    probed = wl.probes()
    p50 = statistics.median(lat)
    m = {
        "stream.update_p50_ms": 1000 * p50,
        "stream.update_p99_ms": 1000 * p99(lat),
        "stream.overhead_ms": 1000 * p50 - probed["stream.kernel_ms"],
        "stream.snapshot_s": tracer.duration("snapshot"),
        "stream.updates": len(lat),
        "trace.wall_s": wall,
        "trace.coverage": 1.0 - tracer.self_times().get("job", 0.0) / wall,
        # per update: traced minus untraced median latency
        "trace.overhead_s": p50 - u_p50,
    }
    m.update(probed)
    return m, {"tracer": tracer, "attempted": attempted, "failed": failed}


# ------------------------------------------------------------------- main

def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "matrixprofile_ray")):
        fail(f"no engine source under {ROOT}")
    sys.path.insert(0, ROOT)
    # Ray workers import the engine and these modules by name
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        import numpy
        import pyarrow
        import ray

        import matrixprofile_ray.pipelines.flagship  # noqa: F401
        import matrixprofile_ray.pipelines.timeseries  # noqa: F401
        import matrixprofile_ray.state.streaming  # noqa: F401
        from matrixprofile_ray.core import _native
    except ImportError as exc:
        fail(f"cannot import the engine: {exc}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    import_s = process_age()

    # build (compile on first use) the native kernels, outside set-up
    # time; workers load them during the warm-up. A numpy fallback would
    # measure a different program
    if not _native.available():
        fail("native kernels unavailable (core._native.available() is False)", 3)

    ncpu = nproc()
    run_dir = os.path.join(ROOT, ".perfbench_run")
    work = os.path.join(run_dir, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Ray's unix socket paths (temp dir + ~64 chars) must stay under 108
    # bytes. When the checkout path allows it, every temp file of this
    # run and of Ray stays inside the checkout; else Ray keeps its default.
    temp_dir = os.path.join(run_dir, "ray")
    if len(temp_dir) > 40:
        temp_dir = None
    else:
        tmp = os.path.join(run_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = tmp
        tempfile.tempdir = tmp

    wl = workloads.WORKLOADS[args.workload](work, args.seed, ncpu)
    t = time.perf_counter()
    wl.prepare()
    phases = {"prepare_s": time.perf_counter() - t}

    session = Session(ncpu, temp_dir)
    rss = RssSampler()
    try:
        # set up several times and take the median: the first Ray start-up
        # in a process is sometimes a whole second slower than the rest
        cycles = []
        for i in range(SETUP_CYCLES if args.trace == 0 else 1):
            if i:
                wl.close()
                session.stop()
            t = time.perf_counter()
            session.start()
            wl.warm_up()
            cycles.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(cycles)

        maps_before = map_count()
        t_measure = time.perf_counter()
        stream = args.workload == "stream"
        if args.trace == 0:
            fn = e2e_stream if stream else e2e_batch
            metrics, attempted, failed, extra = fn(
                wl, session, args.seconds, rss, args.seed)
            metrics = {"setup_s": metric(setup_s, "s"), **metrics}
            trace_file = None
        else:
            rss.start()
            fn = per_layer_stream if stream else per_layer_batch
            layer, info = fn(wl, session, args.seconds, rss, args.seed)
            attempted, failed = info["attempted"], info["failed"]
            layer["proc.maps"] = max(maps_before, map_count())
            unknown = set(layer) - set(PER_LAYER)
            if unknown:
                raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
            metrics = {k: metric(layer.get(k, 0.0), u)
                       for k, u in PER_LAYER.items()}
            extra = {"layer_self_s": info["tracer"].self_times()}
            trace_file = os.path.join(
                run_dir, f"trace-{args.workload}-{args.seed}.json")
        phases["measure_s"] = time.perf_counter() - t_measure
        facts = {
            "workload": args.workload, "seed": args.seed, "phases": phases,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(), "source_digest": source_digest(),
            "nproc": ncpu, "affinity_cpus": len(os.sched_getaffinity(0)),
            "ray_num_cpus": ncpu, "shuffle_strategy": shuffle_strategy(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "ray_temp_dir": temp_dir,
            "import_s": import_s, "setup_cycles_s": cycles,
            "maps": map_count(), "max_map_count": _max_map_count(),
            **wl.input_facts(), **extra,
        }
        if trace_file:
            info["tracer"].write(trace_file, facts)
    finally:
        t = time.perf_counter()
        wl.close()
        session.stop()
        rss.close()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        phases["teardown_s"] = time.perf_counter() - t
        phases["total_s"] = time.perf_counter() - T_START

    print(json.dumps({"facts": facts}), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
