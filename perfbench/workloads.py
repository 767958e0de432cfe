"""The benchmark's workloads, each driving the engine's public functions.

A workload generates its input from the seed (``prepare``, before Ray
starts), warms a fresh Ray session (``warm_up``), runs timed jobs
(``job``) and checks each job's outputs against independent references
(``check``). In the traced run, ``traced_job`` records a span around each
call into a layer and ``probes`` times the layers the engine fuses.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np

import inputs
import refs

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


def worker_warm(batch):
    """Import the engine in a Ray worker and load its native kernels."""
    import matrixprofile_ray.pipelines.flagship  # noqa: F401
    import matrixprofile_ray.pipelines.timeseries  # noqa: F401
    from matrixprofile_ray.core import _native

    if not _native.available():
        raise RuntimeError("native kernels unavailable in a Ray worker")
    return batch


def _partition_rows(part):
    """Partition fn of the exchange probe: one row with the partition's
    size. An identity fn would also time writing every row back out,
    which the engine's folds do not do (they emit a row per key)."""
    import pandas as pd

    return pd.DataFrame({"rows": [len(part)]})


class Job:
    """Timing of one job: each step quiesces Ray (untimed) and then runs
    under a span; ``seconds`` sums the steps only."""

    def __init__(self, session, tracer):
        self.session = session
        self.tracer = tracer
        self.seconds = 0.0
        self.quiesce_s = 0.0
        self.steps: dict[str, float] = {}
        self.out: dict = {}

    def step(self, name, fn):
        with self.tracer.span("ray.quiesce"):
            self.quiesce_s += self.session.quiesce()
        t = time.perf_counter()
        with self.tracer.span(name):
            result = fn()
        took = time.perf_counter() - t
        self.steps[name] = self.steps.get(name, 0.0) + took
        self.seconds += took
        return result


class _Batch:
    """Shared session plumbing of the Ray Data workloads."""

    MIN_JOBS = 1  # jobs per run, at least, whatever ``--seconds`` says

    def __init__(self, work: str, seed: int, ncpu: int):
        self.work, self.seed, self.ncpu = work, seed, ncpu
        self.files: list[str] = []

    def warm_up(self) -> None:
        import ray.data as rd

        rd.range(1).map_batches(worker_warm, batch_format="numpy").materialize()

    def input_facts(self) -> dict:
        import pyarrow.parquet as pq

        metas = [pq.ParquetFile(f).metadata for f in self.files]
        return {"input_rows": sum(m.num_rows for m in metas),
                "input_bytes": inputs.dir_bytes(self.files),
                "input_files": len(self.files),
                "input_row_groups": sum(m.num_row_groups for m in metas)}

    def close(self) -> None:
        pass


class PagesRollup(_Batch):
    """Flagship over a Parquet page corpus, tiers 1h/1d/7d (no raw)."""

    name = "pages-rollup"
    N_PAGES, N_DOMAINS, N_FILES = 50_000, 200, 4
    TIERS = ("1h", "1d", "7d")
    WINDOW = 24

    def prepare(self) -> None:
        from matrixprofile_ray.stages.rollup import TIERS

        self.files = inputs.write_pages(os.path.join(self.work, "pages"),
                                        self.seed, self.N_PAGES,
                                        self.N_DOMAINS, self.N_FILES)
        self.bucket_us = {t: TIERS[t] for t in self.TIERS}
        self.spans = refs.pages_spans(self.files, self.bucket_us)

    def _read(self):
        import ray.data as rd

        return rd.read_parquet(self.files, columns=inputs.PAGE_COLUMNS)

    def _discover(self, profiles):
        from matrixprofile_ray.stages.discovery import DiscoveryStage

        # as pipelines/flagship.py runs discovery: elastic tasks, 32 rows
        return profiles.map_batches(DiscoveryStage(), batch_format="pandas",
                                    batch_size=32)

    def job(self, session, tracer) -> Job:
        from matrixprofile_ray.pipelines.flagship import flagship

        j = Job(session, tracer)
        res = j.step("flagship", lambda: flagship(
            self._read(), window=self.WINDOW, tiers=self.TIERS,
            profile_concurrency=self.ncpu))
        j.out["series"] = res["series"]
        j.out["gorilla"] = j.step("encode", lambda: res["gorilla"].materialize())
        j.out["profiles"] = j.step("profile",
                                   lambda: res["profiles"].materialize())
        j.out["discoveries"] = j.step(
            "discovery", lambda: self._discover(j.out["profiles"]).materialize())
        return j

    def traced_job(self, session, tracer) -> Job:
        """The flagship's layers as separate, materialized calls, in the
        order and with the settings ``pipelines.flagship.flagship`` uses."""
        from matrixprofile_ray.pipelines.flagship import series_all_tiers
        from matrixprofile_ray.stages.encode import encode_series
        from matrixprofile_ray.stages.profile import ProfileStage

        j = Job(session, tracer)
        with tracer.span("job") as root:
            j.root = root
            j.out["read"] = j.step("read", lambda: self._read().materialize())
            series = j.step("series_all_tiers", lambda: series_all_tiers(
                j.out["read"], tiers=self.TIERS).materialize())
            j.out["series"] = series

            def split():
                # flagship's pool split: >= 8 tasks per actor, 4..32 rows
                n_rows = series.count()
                rows = max(4, min(32, n_rows // (self.ncpu * 8)))
                return series.repartition(target_num_rows_per_block=rows
                                          ).materialize()

            j.out["split"] = j.step("split", split)
            j.out["gorilla"] = j.step("encode", lambda: series.map_batches(
                encode_series, batch_format="pandas").materialize())
            j.out["profiles"] = j.step("profile", lambda: j.out["split"].map_batches(
                ProfileStage,
                fn_constructor_kwargs={"window": self.WINDOW, "algorithm": "mpx"},
                batch_format="pandas", batch_size=32,
                concurrency=self.ncpu).materialize())
            j.out["discoveries"] = j.step("discovery", lambda: self._discover(
                j.out["profiles"]).materialize())
        return j

    def probes(self, session, tracer, j: Job) -> dict:
        """Time the combine and the exchange that ``series_all_tiers``
        fuses, on the same input, and attribute them to it."""
        from matrixprofile_ray.stages.rollup import TIERS, partial_rollup
        from matrixprofile_ray.util import (_hash_shuffle_active,
                                            partitioned_group_map)

        read = j.out["read"]
        session.quiesce()
        with tracer.span("combine", probe=True) as c:
            partials = read.map_batches(
                lambda b: partial_rollup(b, TIERS["raw"]),
                batch_format="pyarrow").materialize()
        session.quiesce()
        with tracer.span("exchange", probe=True) as e:
            # the partition count series_all_tiers passes
            exch = partitioned_group_map(
                partials, ["domain"], _partition_rows,
                num_partitions=max(32, self.ncpu * 2),
                partition_batch_format="pyarrow").materialize()
        sat = next(s["id"] for s in tracer.spans if s["name"] == "series_all_tiers")
        tracer.adopt(c, sat)
        tracer.adopt(e, sat)
        sizes = exch.to_pandas()["rows"].to_numpy()
        rows_in = read.count()
        rows_out = partials.count()
        return {
            "read.rows": rows_in,
            "read.bytes": read.size_bytes(),
            "read.blocks": read.num_blocks(),
            "combine.rows_out": rows_out,
            "combine.ratio": rows_in / max(1, rows_out),
            "exchange.blocks_in": partials.num_blocks(),
            "exchange.partitions": len(sizes),
            "exchange.skew": float(sizes.max() / np.median(sizes)),
            "exchange.hash_shuffle": int(_hash_shuffle_active()),
            "split.blocks": j.out["split"].num_blocks(),
        }

    def check(self, j: Job, rng) -> dict:
        series = j.out["series"].to_pandas()
        points = refs.check_series_spans(series, self.spans, "domain",
                                         self.bucket_us)
        bits = refs.check_gorilla(j.out["gorilla"].to_pandas(), series)
        prof = j.out["profiles"].to_pandas()
        refs.check_profiles(prof, "domain", rng)
        disc = j.out["discoveries"].to_pandas()
        refs.check_discoveries(disc, prof, "domain")
        cells = sum(refs.mpx_cells(int(n), int(w))
                    for n, w in zip(prof["n"], prof["w"]))
        return {"rows": self.N_PAGES,
                "points": points, "series": len(series),
                "gaps": int(series["n_gaps"].sum()), "bits": bits,
                "profiles": len(prof), "cells": cells,
                "discoveries": len(disc)}


class Events(_Batch):
    """The generic (key, ts, value) engine over an events table."""

    name = "events"
    N_ROWS, N_KEYS, DAYS, N_FILES = 200_000, 50, 30, 3
    MIN_JOBS = 3
    WINDOW = 24

    def prepare(self) -> None:
        self.files = inputs.write_events(os.path.join(self.work, "events"),
                                         self.seed, self.N_ROWS, self.N_KEYS,
                                         self.DAYS, self.N_FILES)
        self.want_1h = refs.events_buckets(self.files, HOUR_US)
        self.want_7d = refs.events_buckets(self.files, 7 * DAY_US)

    def _run(self, j: Job) -> Job:
        import ray.data as rd
        from matrixprofile_ray.pipelines import timeseries as ts

        read = j.step("read", lambda: rd.read_parquet(
            self.files, columns=inputs.EVENT_COLUMNS).materialize())
        j.out["read"] = read
        j.out["1h"] = j.step("ts.rollup", lambda: ts.rollup_events(
            read, HOUR_US).materialize())

        def cascade():
            day = ts.rollup_events(read, DAY_US, keep_partials=True).materialize()
            return ts.cascade_events(day, 7 * DAY_US).materialize()

        j.out["7d"] = j.step("ts.cascade", cascade)
        j.out["series"] = j.step("ts.series", lambda: ts.series_from_buckets(
            j.out["1h"], HOUR_US).materialize())
        j.out["profiles"] = j.step("ts.profile", lambda: ts.profile_series(
            j.out["series"], self.WINDOW, concurrency=self.ncpu).materialize())
        j.out["discoveries"] = j.step("ts.discover", lambda: ts.discover_series(
            j.out["profiles"], concurrency=self.ncpu).materialize())
        return j

    def job(self, session, tracer) -> Job:
        return self._run(Job(session, tracer))

    def traced_job(self, session, tracer) -> Job:
        j = Job(session, tracer)
        with tracer.span("job") as root:
            j.root = root
            self._run(j)
        return j

    def probes(self, session, tracer, j: Job) -> dict:
        """Time the engine's exchange alone over the 1h bucket table. The
        probe stands outside the job's span tree: the rollups exchange
        their in-batch partials, not this table, so it is no part of any
        one rollup's time."""
        from matrixprofile_ray.util import (_hash_shuffle_active,
                                            partitioned_group_map)

        session.quiesce()
        with tracer.span("exchange", probe=True) as e:
            exch = partitioned_group_map(
                j.out["1h"], ["event_type", "bucket_ts"], _partition_rows
            ).materialize()
        sizes = exch.to_pandas()["rows"].to_numpy()
        read = j.out["read"]
        return {
            "read.rows": read.count(),
            "read.bytes": read.size_bytes(),
            "read.blocks": read.num_blocks(),
            "exchange.blocks_in": j.out["1h"].num_blocks(),
            "exchange.partitions": len(sizes),
            "exchange.skew": float(sizes.max() / np.median(sizes)),
            "exchange.hash_shuffle": int(_hash_shuffle_active()),
            "ts.buckets": j.out["1h"].count(),
        }

    def check(self, j: Job, rng) -> dict:
        refs.check_bucket_table(j.out["1h"].to_pandas(), self.want_1h,
                                "event_type")
        refs.check_bucket_table(j.out["7d"].to_pandas(), self.want_7d,
                                "event_type")
        series = j.out["series"].to_pandas()
        points = refs.check_series_spans(
            series, refs.spans_from_buckets(self.want_1h, "events"),
            "event_type", {"events": HOUR_US})
        prof = j.out["profiles"].to_pandas()
        refs.check_profiles(prof, "event_type", rng)
        disc = j.out["discoveries"].to_pandas()
        refs.check_discoveries(disc, prof, "event_type")
        cells = sum(refs.mpx_cells(int(n), int(w))
                    for n, w in zip(prof["n"], prof["w"]))
        return {"rows": self.N_ROWS, "points": points, "series": len(series),
                "gaps": int(series["n_gaps"].sum()), "bits": 0,
                "profiles": len(prof), "cells": cells,
                "discoveries": len(disc)}


class Stream:
    """Closed loop, one client: one point per key per ``update()``."""

    name = "stream"
    # a fixed count, so every commit appends the same series; 1,000
    # updates leave ten samples beyond p99
    N_KEYS, HISTORY, UPDATES, WARM_UPDATES = 16, 500, 1000, 10
    WINDOW = 24

    def __init__(self, work: str, seed: int, ncpu: int):
        self.work, self.seed, self.ncpu = work, seed, ncpu
        self.profiler = None
        self.ckpt = os.path.join(work, "ckpt")

    def prepare(self) -> None:
        # room for the untraced and the traced loop of a traced run
        self.keys, self.walks = inputs.stream_series(
            self.seed, self.N_KEYS,
            self.HISTORY + self.WARM_UPDATES + 2 * self.UPDATES)

    def input_facts(self) -> dict:
        return {"input_rows": int(self.walks.size), "input_bytes": int(self.walks.nbytes),
                "input_files": 0, "input_row_groups": 0}

    def _batch(self, t: int):
        import pandas as pd

        return pd.DataFrame({"key": self.keys, "value": self.walks[:, t]})

    def warm_up(self) -> None:
        """Shard actors, every key seeded with history, a few updates."""
        import pandas as pd
        from matrixprofile_ray.state.streaming import StreamingProfiler

        # a fresh checkpoint dir: the shards recover any state left there
        shutil.rmtree(self.ckpt, ignore_errors=True)
        self.profiler = StreamingProfiler(window=self.WINDOW,
                                          num_shards=self.ncpu,
                                          checkpoint_dir=self.ckpt)
        self.profiler.update(pd.DataFrame({
            "key": np.repeat(self.keys, self.HISTORY),
            "value": self.walks[:, :self.HISTORY].ravel()}))
        for t in range(self.HISTORY, self.HISTORY + self.WARM_UPDATES):
            self.profiler.update(self._batch(t))
        self.next_t = self.HISTORY + self.WARM_UPDATES

    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.shutdown()
            self.profiler = None

    def run_updates(self, tracer) -> tuple[list, int]:
        """UPDATES closed-loop updates; returns latencies and failures."""
        lat, failed = [], 0
        for _ in range(self.UPDATES):
            batch = self._batch(self.next_t)
            t = time.perf_counter()
            try:
                with tracer.span("update"):
                    self.profiler.update(batch)
            except Exception:
                failed += 1
            lat.append(time.perf_counter() - t)
            self.next_t += 1
        return lat, failed

    def snapshot(self, tracer):
        with tracer.span("snapshot"):
            return self.profiler.snapshot()

    def check(self, snap) -> None:
        """Snapshot equals a brute-force batch profile of the same appended
        series (STAMPI's trivial-match zone is ceil(w/2))."""
        snap = snap.set_index("key")
        min_sep = int(np.ceil(self.WINDOW / 2)) + 1
        refs._require(sorted(snap.index) == sorted(self.keys),
                      "snapshot keys differ")
        for i, k in enumerate(self.keys):
            series = self.walks[i, :self.next_t]
            refs._require(int(snap.loc[k, "n"]) == len(series),
                          f"stream {k}: n {snap.loc[k, 'n']} != {len(series)}")
            want = refs.brute_mp(series, self.WINDOW, min_sep)
            got = np.asarray(snap.loc[k, "mp"], dtype="d")
            refs._require(got.shape == want.shape
                          and np.allclose(got, want, rtol=1e-6, atol=1e-6),
                          f"stream {k}: snapshot differs from batch profile")

    def probes(self) -> dict:
        """Checkpoint cost, state size, and the in-process kernel time of
        one micro-batch (``stampi_append_many`` per key)."""
        import copy

        import matrixprofile_ray.core as core

        t = time.perf_counter()
        self.profiler.checkpoint()
        ckpt_s = time.perf_counter() - t
        state_bytes = sum(os.path.getsize(os.path.join(self.ckpt, f))
                          for f in os.listdir(self.ckpt))
        t0 = self.next_t - 1
        states = [core.stampi_init(self.walks[i, :t0], self.WINDOW)
                  for i in range(self.N_KEYS)]
        reps = []
        for _ in range(30):
            fresh = [copy.deepcopy(s) for s in states]
            t = time.perf_counter()
            for i, s in enumerate(fresh):
                core.stampi_append_many(s, self.walks[i, t0:t0 + 1])
            reps.append(time.perf_counter() - t)
        return {"stream.checkpoint_s": ckpt_s, "stream.state_bytes": state_bytes,
                "stream.kernel_ms": 1000 * float(np.median(reps))}


WORKLOADS = {w.name: w for w in (PagesRollup, Events, Stream)}


def release(out: dict) -> None:
    """Drop a job's Dataset references so actor pools give their CPUs back."""
    out.clear()
    gc.collect()
