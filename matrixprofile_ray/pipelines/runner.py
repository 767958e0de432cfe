"""Resumable flagship runner: partition-scoped outputs + lineage records.

Layout (north rule: resumable from checkpoint, per-partition lineage+metrics):

    <out>/series/shard=<k>/...parquet      gap-filled series, hash(domain)%S
    <out>/gorilla/shard=<k>/...parquet
    <out>/profiles/shard=<k>/...parquet
    <out>/discoveries/shard=<k>/...parquet
    <out>/_lineage/<stage>-<partition>.json

A killed run resumes by anti-joining requested partitions against completed
lineage records (driver-side on the tiny id set — the reference's PMP-reuse
pattern, skimp.py:195-206, generalized) and re-running only missing shards.
Shards are deterministic in the domain hash, so a resume produces
byte-identical outputs to an uninterrupted run.
"""

from __future__ import annotations

import os
import shutil
import time
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from matrixprofile_ray.state.lineage import LineageWriter, completed_partitions

__all__ = ["run_resumable", "shard_of"]


def shard_of(domain: str, shards: int) -> int:
    return zlib.crc32(domain.encode()) % shards


def _series_arrow(batch: pd.DataFrame, shards: int) -> pa.Table:
    """Series rows → explicit Arrow schema for a clean parquet round-trip.

    ``values`` must be a plain list<double> column — Ray's default
    pandas→Arrow conversion stores ragged ndarrays as a tensor extension
    type whose pandas metadata does not survive read_parquet→to_pandas.
    """
    return pa.table({
        "domain": pa.array(batch["domain"], pa.string()),
        "tier": pa.array(batch["tier"], pa.string()),
        "start_ts": pa.array(batch["start_ts"], pa.int64()),
        "bucket_us": pa.array(batch["bucket_us"], pa.int64()),
        "n": pa.array(batch["n"], pa.int32()),
        "n_gaps": pa.array(batch["n_gaps"], pa.int32()),
        "truncated": pa.array(batch["truncated"], pa.bool_()),
        "values": pa.array(
            [np.asarray(v, dtype="d") for v in batch["values"]],
            pa.list_(pa.float64()),
        ),
        "shard": pa.array(
            [shard_of(d, shards) for d in batch["domain"]], pa.int32()
        ),
    })


def _profiles_arrow(batch: pd.DataFrame) -> pa.Table:
    """Profile rows → explicit Arrow schema (mp/pi as plain lists)."""
    return pa.table({
        "domain": pa.array(batch["domain"], pa.string()),
        "tier": pa.array(batch["tier"], pa.string()),
        "start_ts": pa.array(batch["start_ts"], pa.int64()),
        "bucket_us": pa.array(batch["bucket_us"], pa.int64()),
        "n": pa.array(batch["n"], pa.int32()),
        "w": pa.array(batch["w"], pa.int32()),
        "algorithm": pa.array(batch["algorithm"], pa.string()),
        "metric": pa.array(batch["metric"], pa.string()),
        "ez": pa.array(batch["ez"], pa.int32()),
        "join": pa.array(batch["join"], pa.bool_()),
        "sample_pct": pa.array(batch["sample_pct"], pa.float64()),
        "mp": pa.array(
            [np.asarray(m, dtype="d") for m in batch["mp"]],
            pa.list_(pa.float64()),
        ),
        "pi": pa.array(
            [np.asarray(p, dtype=np.int64) for p in batch["pi"]],
            pa.list_(pa.int64()),
        ),
    })


def _discoveries_arrow(batch: pd.DataFrame) -> pa.Table:
    return pa.table({
        "domain": pa.array(batch["domain"], pa.string()),
        "tier": pa.array(batch["tier"], pa.string()),
        "w": pa.array(batch["w"], pa.int32()),
        "kind": pa.array(batch["kind"], pa.string()),
        "rank": pa.array(batch["rank"], pa.int32()),
        "idx": pa.array(batch["idx"], pa.int64()),
        "pair_idx": pa.array(batch["pair_idx"], pa.int64()),
        "neighbors": pa.array(
            [np.asarray(nb, dtype=np.int64) for nb in batch["neighbors"]],
            pa.list_(pa.int64()),
        ),
        "score": pa.array(batch["score"], pa.float64()),
    })


def run_resumable(
    pages_ds,
    out_dir: str,
    tiers=("raw", "1h", "1d", "7d"),
    window: int = 24,
    algorithm: str = "mpx",
    shards: int = 16,
    profile_concurrency: int = 4,
):
    """Run the flagship with checkpointed, shard-partitioned outputs.

    Returns the lineage records written this run (resumed shards excluded).
    """
    import ray.data as rd

    from matrixprofile_ray.pipelines.flagship import series_all_tiers
    from matrixprofile_ray.util import ensure_hash_shuffle

    ensure_hash_shuffle()
    from matrixprofile_ray.stages.discovery import DiscoveryStage
    from matrixprofile_ray.stages.encode import encode_series
    from matrixprofile_ray.stages.profile import ProfileStage

    writer = LineageWriter(out_dir)
    written = []

    # ---- stage A: one-shuffle series build, partitioned by domain shard
    series_dir = os.path.join(out_dir, "series")
    if "series" not in completed_partitions(out_dir, "series"):
        # crash safety: a run killed MID-WRITE leaves partial parquet that
        # write_parquet (SaveMode.APPEND) would duplicate on re-run — any
        # output dir without a matching lineage record is stale and must go
        # (lineage publishes atomically AFTER the write, so done dirs are
        # never removed)
        for stale in ("series", "gorilla", "profiles", "discoveries"):
            shutil.rmtree(os.path.join(out_dir, stale), ignore_errors=True)
        t0 = time.time()
        series = series_all_tiers(pages_ds, tiers=tiers)
        sharded = series.map_batches(
            lambda b: _series_arrow(b, shards), batch_format="pandas"
        )
        sharded.write_parquet(series_dir, partition_cols=["shard"])
        n_rows = rd.read_parquet(series_dir).count()
        rec = {
            "partition_id": "series",
            "stage": "series",
            "input_rows": -1,
            "output_rows": int(n_rows),
            "wall_s": time.time() - t0,
            "checkpoint_epoch": 0,
            "status": "done",
            "ts": time.time(),
        }
        writer.write(rec)
        written.append(rec)

    # ---- stage B: per-shard profile/discovery/gorilla, resumable
    done = completed_partitions(out_dir, "discoveries")
    todo = [k for k in range(shards) if str(k) not in done]
    for k in todo:
        shard_dir = os.path.join(series_dir, f"shard={k}")
        if not os.path.isdir(shard_dir):
            # empty shard (no domain hashed here) — mark done for resume
            writer.write(_rec("discoveries", str(k), 0, 0, 0.0))
            continue
        # crash safety: wipe partial shard outputs from a killed attempt
        # before re-running (no lineage record ⇒ the write never finished)
        for stage in ("gorilla", "profiles", "discoveries"):
            shutil.rmtree(
                os.path.join(out_dir, stage, f"shard={k}"), ignore_errors=True
            )
        t0 = time.time()
        shard_series = rd.read_parquet(shard_dir).materialize()
        n_in = shard_series.count()
        stage = ProfileStage(window=window, algorithm=algorithm,
                             carry_values=True)

        gorilla = shard_series.map_batches(
            encode_series, batch_format="pandas"
        )
        gorilla.write_parquet(os.path.join(out_dir, "gorilla", f"shard={k}"))

        # both stages hold only config: configured instances run as
        # tasks, one per block of the stage's cells-balanced split
        # (profile_concurrency caps the concurrent tasks)
        profiles = stage.split(shard_series, profile_concurrency).map_batches(
            stage,
            batch_format="pandas",
            batch_size=None,
            concurrency=profile_concurrency,
        ).materialize()
        profiles.map_batches(
            _profiles_arrow, batch_format="pandas"
        ).write_parquet(os.path.join(out_dir, "profiles", f"shard={k}"))

        discoveries = profiles.map_batches(
            DiscoveryStage(),
            batch_format="pandas",
            batch_size=None,
            concurrency=profile_concurrency,
        )
        discoveries.map_batches(
            _discoveries_arrow, batch_format="pandas"
        ).write_parquet(os.path.join(out_dir, "discoveries", f"shard={k}"))
        n_out = rd.read_parquet(
            os.path.join(out_dir, "discoveries", f"shard={k}")
        ).count()
        rec = _rec("discoveries", str(k), int(n_in), int(n_out),
                   time.time() - t0)
        writer.write(rec)
        written.append(rec)
    return written


def _rec(stage: str, pid: str, n_in: int, n_out: int, wall: float) -> dict:
    return {
        "partition_id": pid,
        "stage": stage,
        "input_rows": n_in,
        "output_rows": n_out,
        "wall_s": wall,
        "checkpoint_epoch": 0,
        "status": "done",
        "ts": time.time(),
    }
