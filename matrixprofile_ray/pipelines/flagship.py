"""The flagship pipeline: pages → rollup tiers → gap-filled series →
Gorilla payloads → matrix profiles → discoveries.

Execution topology — exactly ONE all-to-all exchange:

    scan (url, warc_ts) of the pages         a lazy Parquet read is
                                             narrowed by util.read_only;
                                             other sources run as given
      └─ rollup_partials(finest tier)          stateless tasks, pyarrow:
           partial_rollup (page count per domain × bucket) per read block,
           then rebucket at the same grain over COALESCE_ROWS-row batches
           (few large blocks)
         └─ partitioned_group_map(domain, fold_tiers)   THE shuffle
              per-partition fold, per tier: fold_moments → assemble_series
            └─ series rows (one per domain × tier)  [materialized: tiny]
               └─ ProfileStage.split                k pieces of equal cells
                  ├─ map_batches(encode_series)      → series_gorilla,
                  │                                    one task per piece
                  └─ map_batches(ProfileStage(...))    one task per piece
                     └─ map_batches(DiscoveryStage())  one task per piece

The corpus is scanned ONCE, and only the two columns the rollup reads
(the page bodies are never decoded); the partial combine collapses it to
≤ (domains × finest-tier buckets) rows before the single shuffle, so the
exchange volume is bounded by the bucket grid, not the page count. The
fold is the two pieces the events engine runs too: the one merge fold
(``stages.rollup.fold_moments``), called once per tier over the whole
partition, and the one series assembly (``stages.gapfill.assemble_series``)
on its sorted output. The finest tier merges the partials; each coarser
tier re-buckets the one before (continuous aggregates — exact). The tests
check its series against ``pipelines.timeseries.series_from_buckets`` over
DuckDB bucket tables.
"""

from __future__ import annotations

import pandas as pd

from matrixprofile_ray.stages.discovery import DiscoveryStage
from matrixprofile_ray.stages.encode import encode_series
from matrixprofile_ray.stages.gapfill import assemble_series
from matrixprofile_ray.stages.profile import ProfileStage
from matrixprofile_ray.stages.rollup import (PAGE_MOMENTS, TIERS,
                                             fold_moments, rollup_partials)

__all__ = ["fold_tiers", "series_all_tiers", "flagship"]


def fold_tiers(part: pd.DataFrame, tiers) -> pd.DataFrame:
    """Partition fold: page-count partials at the grain of ``tiers[0]``
    (tiers finest first) → one series row per (domain, tier), tier-major,
    domains sorted within a tier."""
    frames = []
    for tier in tiers:
        bucket_us = TIERS[tier]
        part = fold_moments(
            part.assign(bucket_ts=part["bucket_ts"] // bucket_us * bucket_us),
            ["domain", "bucket_ts"], PAGE_MOMENTS)
        frames.append(assemble_series(part, "domain", "count", bucket_us, tier))
    return pd.concat(frames, ignore_index=True)


def series_all_tiers(pages_ds, tiers=("raw", "1h", "1d", "7d")):
    """pages → gap-filled page-count series rows for every tier, ONE
    shuffle total."""
    from matrixprofile_ray.util import ensure_hash_shuffle, partitioned_group_map

    ensure_hash_shuffle()

    tiers = tuple(sorted(tiers, key=TIERS.__getitem__))
    # partials at the grain of the finest tier; the fold cascades the rest
    partials = rollup_partials(pages_ds, tiers[0])

    # partition-level processing: all domains of a hash partition in one
    # call (per-domain map_groups paid Ray bookkeeping + a one-row pandas
    # frame per (domain, tier) — measurable at 8k+ domains). The partition
    # count is util.shuffle_partitions' (see there for the measurement).
    # partials are pure scalar Arrow (domain, bucket_ts, count): keep the
    # scatter Arrow-native so the split is zero-copy take, not a pandas
    # frame copy per slice (measured ~1.2 s/block at 64 blocks)
    return partitioned_group_map(
        partials, ["domain"], lambda part: fold_tiers(part, tiers),
        partition_batch_format="pyarrow",
    )


def flagship(
    pages_ds,
    window: int = 24,
    algorithm: str = "mpx",
    tiers=("raw", "1h", "1d", "7d"),
    profile_concurrency: int = 8,
):
    """Run the full pipeline; returns dict with the series / gorilla /
    profiles / discoveries Datasets (series rows carry a ``tier`` column).

    ``profile_concurrency`` caps the number of concurrent profile tasks,
    and the series is cut into that many cells-balanced pieces (at most
    one per cluster CPU; ``ProfileStage.split``).
    Persisted, resumable outputs are ``pipelines/runner.py``'s job.
    """
    # one dense row per (domain, tier) — tiny relative to pages; at
    # 100 TB the equivalent is write_parquet + read of the series
    # table so downstream consumers never rescan the corpus
    series = series_all_tiers(pages_ds, tiers=tiers).materialize()

    # every stage below holds only config: run them as elastic TASKS on
    # the warm workers — an actor pool pays an actor start-up on every
    # job and statically takes CPUs away from the stage after it. The
    # profile stage's own split gives each concurrent task one block of
    # equal estimated cells, and batch_size=None keeps one block = one
    # task: Ray's per-task machinery dominates small blocks (on the
    # 600-row pages-rollup series at 1 CPU, split + profile + discovery
    # took 1.62 s as 19 blocks of 4..32 rows, 1.24 s as one block and
    # 1.18 s as two cells-balanced blocks; seed 5, 6 reps each). The
    # Gorilla encode runs over the same pieces, not over the exchange's
    # 2 × CPUs output blocks (1 CPU, seed 11: 0.082-0.092 s as one block
    # against 0.095-0.107 s as two)
    stage = ProfileStage(window=window, algorithm=algorithm)
    pieces = stage.split(series, profile_concurrency)
    gorilla = pieces.map_batches(encode_series, batch_format="pandas",
                                 batch_size=None)
    profiles = pieces.map_batches(
        stage,
        batch_format="pandas",
        batch_size=None,
        concurrency=profile_concurrency,
    )
    discoveries = profiles.map_batches(
        DiscoveryStage(),
        batch_format="pandas",
        batch_size=None,
    )
    return {
        "series": series,
        "gorilla": gorilla,
        "profiles": profiles,
        "discoveries": discoveries,
    }
