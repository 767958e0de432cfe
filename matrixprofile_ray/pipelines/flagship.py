"""The flagship pipeline: pages → rollup tiers → gap-filled series →
Gorilla payloads → matrix profiles → discoveries.

Execution topology — exactly ONE all-to-all exchange:

    read/generate pages
      └─ rollup_partials(finest tier)          stateless tasks, pyarrow:
           partial_rollup per read block, then cascade_partial at the same
           grain over COALESCE_ROWS-row batches (few large blocks)
         └─ partitioned_group_map(domain, DomainPipeline)   THE shuffle
              per-partition fold: merge → coarser tiers → gap-fill
            └─ series rows (one per domain × tier)  [materialized: tiny]
               ├─ map_batches(encode_series)        → series_gorilla
               └─ map_batches(ProfileStage(...))    tasks
                  └─ map_batches(DiscoveryStage())  tasks → discoveries

The corpus is scanned ONCE; the partial combine collapses it to
≤ (domains × finest-tier buckets) rows before the single shuffle, so the
exchange volume is bounded by the bucket grid, not the page count. The
per-tier ``rollup_tier`` / ``cascade_tier`` path (stages/rollup.py) builds
the same partials for bucket-table outputs and oracle checks; the
flagship hot path fuses the tiers into one fold.
"""

from __future__ import annotations

from matrixprofile_ray.stages.discovery import DiscoveryStage
from matrixprofile_ray.stages.domain_pipeline import DomainPipeline
from matrixprofile_ray.stages.encode import encode_series
from matrixprofile_ray.stages.gapfill import SeriesAssembler
from matrixprofile_ray.stages.profile import ProfileStage
from matrixprofile_ray.stages.rollup import (
    TIERS,
    cascade_tier,
    rollup_partials,
    rollup_tier,
)

__all__ = ["bucket_tiers", "series_for_tier", "series_all_tiers", "flagship"]

_CASCADE = ["raw", "1h", "1d", "7d"]


def bucket_tiers(pages_ds, tiers=("raw", "1h", "1d", "7d")) -> dict:
    """All requested tiers as bucket-table Datasets; one corpus scan +
    cascaded rollups. (Bucket-table output path; the flagship series path
    uses the fused single-shuffle ``series_all_tiers`` instead.)"""
    from matrixprofile_ray.util import ensure_hash_shuffle

    ensure_hash_shuffle()
    out = {}
    from matrixprofile_ray.util import safe_materialize

    base = rollup_tier(pages_ds, "raw")
    if len(tiers) > 1:
        base = safe_materialize(base)
    out["raw"] = base
    prev = base
    for tier in _CASCADE[1:]:
        if tier not in tiers and all(
            t not in tiers for t in _CASCADE[_CASCADE.index(tier):]
        ):
            break
        nxt = cascade_tier(prev, tier)
        # pin each intermediate ONCE and hand the pinned dataset to both the
        # next cascade step and the caller — otherwise every consumer
        # re-executes the tier's shuffle
        prev = safe_materialize(nxt) if tier != _CASCADE[-1] else nxt
        if tier in tiers:
            out[tier] = prev
    return {t: out[t] for t in tiers if t in out}


def series_for_tier(bucket_ds, tier: str, value_col: str = "count",
                    concurrency=None):
    """Bucket table → gap-filled dense series (one row per domain).

    Partition-level assembly (domain count is data-sized; per-key
    map_groups pays Ray machinery per domain)."""
    import numpy as np
    import pandas as pd

    from matrixprofile_ray.stages.gapfill import assemble_series_row
    from matrixprofile_ray.util import partitioned_group_map

    bucket_us = TIERS[tier]

    def assemble_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["domain", "bucket_ts"], kind="stable")
        rows = [
            assemble_series_row(
                d,
                g["bucket_ts"].to_numpy(dtype=np.int64),
                g[value_col].to_numpy(dtype=np.float64),
                bucket_us,
                tier,
            )
            for d, g in part.groupby("domain", sort=False)
        ]
        return pd.DataFrame(rows)

    return partitioned_group_map(bucket_ds, ["domain"], assemble_partition)


def series_all_tiers(pages_ds, tiers=("raw", "1h", "1d", "7d"),
                     value_col: str = "count"):
    """pages → gap-filled series rows for every tier, ONE shuffle total."""
    from matrixprofile_ray.util import ensure_hash_shuffle

    ensure_hash_shuffle()

    pipeline = DomainPipeline(tiers=tiers, value_col=value_col)
    # partials at the grain of the finest tier; the fold cascades the rest
    partials = rollup_partials(pages_ds, pipeline.tiers[0])

    from matrixprofile_ray.util import _cluster_cpus, partitioned_group_map

    # partition-level processing: all domains of a hash partition in one
    # call (per-domain map_groups paid Ray bookkeeping + a one-row pandas
    # frame per (domain, tier) — measurable at 8k+ domains).
    # cpus*2 partitions (round-3 remeasure, was cpus*8): the hash-shuffle
    # map side pays per-slice push costs proportional to blocks×parts, and
    # that dominated the exchange — parts=cpus*2 with blocks=cpus/2 source
    # blocks measured 12.1 s vs 27.8 s at 32 cpus (and 39.0 vs 65.9 at 8)
    # for the full 1M-page series phase. rollup_partials' coalesce gives
    # that block count by construction. Fold stragglers stay amortized:
    # a partition holds ~domains/parts hash-mixed domains, so Zipf skew
    # averages out (max fold task 2.05 s at 256 parts → ~8 s at 64; still
    # a clear net win).
    cpus = _cluster_cpus() or 8
    # partials are pure scalar Arrow (domain, bucket_ts, moments): keep the
    # scatter Arrow-native so the split is zero-copy take, not a pandas
    # frame copy per slice (measured ~1.2 s/block at 64 blocks)
    return partitioned_group_map(
        partials, ["domain"], pipeline.process_partition,
        num_partitions=max(32, cpus * 2),
        partition_batch_format="pyarrow",
    )


def flagship(
    pages_ds,
    window: int = 24,
    algorithm: str = "mpx",
    tiers=("raw", "1h", "1d", "7d"),
    out_dir: str | None = None,
    profile_concurrency: int = 8,
    materialize_series: bool = True,
):
    """Run the full pipeline; returns dict with the series / gorilla /
    profiles / discoveries Datasets (series rows carry a ``tier`` column).

    ``profile_concurrency`` caps the number of concurrent profile tasks.
    When ``out_dir`` is set, outputs are also written as partitioned
    parquet (one directory per stage — the resumable layout lives in
    pipelines/runner.py).
    """
    series = series_all_tiers(pages_ds, tiers=tiers)
    profile_input = series
    if materialize_series:
        # one dense row per (domain, tier) — tiny relative to pages; at
        # 100 TB the equivalent is write_parquet + read of the series
        # table so downstream consumers never rescan the corpus
        # materialize BEFORE repartitioning: chaining the repartition
        # AllToAll onto the hash-groupby plan triples the stage's wall time
        # (measured 24s -> 85s at 1M pages); then split so no profile task
        # gets a whole shuffle-output block. Block size is a real lever
        # BOTH ways: Ray pays ~ms-scale machinery per task (8-row blocks
        # cost ~25 s per stage at 32k rows), but too-few blocks starve the
        # workers (32-row blocks at 800 rows → 25 tasks for 30 CPUs:
        # 15 s → 24 s regression). Size adaptively: ≥8 blocks per
        # concurrent task, 4..32 rows.
        series = series.materialize()
        n_rows = series.count()
        rows_per_block = max(
            4, min(32, n_rows // (max(1, int(profile_concurrency)) * 8))
        )
        profile_input = series.repartition(
            target_num_rows_per_block=rows_per_block
        ).materialize()

    # gorilla encode is C-speed per value: run it on the BIG shuffle-output
    # blocks (1.05 s) — tiny repartitioned blocks cost 24x more in pure
    # task machinery (measured 24.8 s)
    gorilla = series.map_batches(encode_series, batch_format="pandas")
    # both stages hold only config: run them as elastic TASKS on the warm
    # workers — an actor pool pays an actor start-up on every job and
    # statically takes CPUs away from the stage after it
    profiles = profile_input.map_batches(
        ProfileStage(window=window, algorithm=algorithm),
        batch_format="pandas",
        batch_size=32,
        concurrency=profile_concurrency,
    )
    discoveries = profiles.map_batches(
        DiscoveryStage(),
        batch_format="pandas",
        batch_size=32,
    )
    results = {
        "series": series,
        "gorilla": gorilla,
        "profiles": profiles,
        "discoveries": discoveries,
    }

    if out_dir:
        import os

        for stage in ("gorilla", "discoveries"):
            path = os.path.join(out_dir, stage)
            os.makedirs(path, exist_ok=True)
            results[stage].write_parquet(path)
    return results
