"""Generic Ray-Data timeseries engine over any (key, ts, value) table.

The same rollup → cascade → gap-fill → matrix-profile → discovery topology
as the flagship pages pipeline, parameterized on column names so it drives
both the synthetic Common-Crawl corpus and arbitrary event streams (the
driver's `events` table). Partial, merge and cascade run on the
moment-partial core in ``stages.rollup`` with the ``EVENT_MOMENTS`` spec:
count, min, max and the exact micro-unit sum ``sum_mu``. Every moment is
exact under any split of the rows, so the partials are coalesced before
the exchange as the pages partials are, and ``_finalize`` derives the
float sum and mean from ``sum_mu`` — the one place that rule lives.

Shuffle budget per query: ONE exchange on (key, bucket) after an in-batch
Arrow combiner and the coalesce, folded per partition by the one merge
fold (``stages.rollup.fold_moments``, through ``merge_moments``), which
also runs ``_finalize`` on its partition: below 8 CPUs the exchange is
eager (``util.partitioned_group_map``), so a map after it would cost one
more Ray Data execution. Series assembly is one more exchange on the key,
whose fold sorts each partition and hands it to the one series assembly
(``stages.gapfill.assemble_series``) that the flagship's fold calls too.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from matrixprofile_ray.stages.rollup import coalesce, group_moments, merge_moments

__all__ = [
    "EVENT_MOMENTS",
    "rollup_events",
    "cascade_events",
    "series_from_buckets",
    "profile_series",
    "discover_series",
]

# moment column → (column of ``_partial``'s projection, Arrow aggregate)
EVENT_MOMENTS = {
    "count": ("v", "count"),
    "min_value": ("v", "min"),
    "max_value": ("v", "max"),
    "sum_mu": ("mu", "sum"),
}


def _partial(batch: pa.Table, key: str, ts_col: str, value_col: str,
             bucket_us: int) -> pa.Table:
    """Within-batch combiner: one partial row per (key, bucket).

    ``sum_mu`` carries the value sum in EXACT integer micro-units
    (round-half-away(value·1e6), summed as int64): int sums are
    order-independent, so the sum/mean ``_finalize`` derives from it
    hash-match a sequential SQL oracle under ANY partitioning — a float
    sum differs in ulps whenever a bucket splits across blocks, which
    flips ROUND(·, 6) on exact-half boundary rows (observed: 2/3600
    buckets at sf0.1). Bound: |value| ≤ 9.2e12·1e-6 per row and ~9e15
    µ-units per bucket stay exact in int64/double.
    """
    from matrixprofile_ray.stages.relational import _mu_int64

    ts = pc.cast(batch[ts_col], pa.int64())
    bucket = pc.multiply(pc.divide(ts, bucket_us), bucket_us)
    val = pc.cast(batch[value_col], pa.float64())
    mu = _mu_int64(np.asarray(val, dtype="d"))
    tbl = pa.table({
        "key": batch[key],
        "bucket_ts": bucket,
        "v": val,
        "mu": pa.array(mu, pa.int64()),
    })
    return group_moments(tbl, ["key", "bucket_ts"], EVENT_MOMENTS)


def _finalize(part: pd.DataFrame, key_out: str) -> pa.Table:
    """Merged partials → bucket rows. sum = sum_mu / 1e6, then mean =
    sum / count: the oracle SQL's float64 operation order. Runs in the
    exchange's partition task, on the frame ``fold_moments`` returns."""
    from ray.data.block import BlockAccessor

    batch = BlockAccessor.for_block(part).to_arrow()
    mu = np.asarray(batch["sum_mu"], dtype=np.int64)
    s = mu.astype(np.float64) / 1e6
    return pa.table({
        key_out: batch["key"],
        "bucket_ts": batch["bucket_ts"],
        "count": pc.cast(batch["count"], pa.int64()),
        "sum_value": pa.array(s, pa.float64()),
        "min_value": batch["min_value"],
        "max_value": batch["max_value"],
        "mean_value": pa.array(s / np.asarray(batch["count"], dtype="d"),
                               pa.float64()),
        "sum_mu": pa.array(mu, pa.int64()),
    })


def rollup_events(
    ds,
    bucket_us: int,
    key: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    keep_partials: bool = False,
):
    """(key, ts, value) Dataset → tumbling-window bucket table.

    Output columns: <key>, bucket_ts (epoch µs), count, sum_value,
    min_value, max_value, mean_value, sum_mu. Each value is rounded
    half-away-from-zero to 6 decimals before the int64 sum ``sum_mu``
    (within the bound ``_partial`` gives); ``sum_value`` is
    ``sum_mu / 1e6`` and ``mean_value`` is ``sum_value / count``, so
    every column is bit-identical under any split of the rows across
    blocks and any shuffle path. ``keep_partials`` returns the merged
    moment rows (key, bucket_ts, ``EVENT_MOMENTS``) for
    ``cascade_events``.
    """
    from matrixprofile_ray.util import ensure_hash_shuffle

    ensure_hash_shuffle()
    partials = coalesce(ds.map_batches(
        lambda b: _partial(b, key, ts_col, value_col, bucket_us),
        batch_format="pyarrow",
    ), ["key"], EVENT_MOMENTS, bucket_us)
    finish = None if keep_partials else (lambda part: _finalize(part, key))
    return merge_moments(partials, ["key", "bucket_ts"], EVENT_MOMENTS,
                         finish=finish)


def cascade_events(partial_ds, bucket_us: int, key_out: str = "event_type"):
    """Partial bucket table (keep_partials=True) → rollup at ``bucket_us``:
    a coarser tier, or a merge of partials at the same grain (e.g. ones
    read back from a checkpoint)."""
    from matrixprofile_ray.util import ensure_hash_shuffle

    ensure_hash_shuffle()

    partials = coalesce(partial_ds, ["key"], EVENT_MOMENTS, bucket_us)
    return merge_moments(partials, ["key", "bucket_ts"], EVENT_MOMENTS,
                         finish=lambda part: _finalize(part, key_out))


def series_from_buckets(
    bucket_ds,
    bucket_us: int,
    key: str = "event_type",
    value_col: str = "count",
    tier: str = "events",
    add_noise: bool = True,
):
    """Bucket table → one gap-filled dense series row per key."""
    from matrixprofile_ray.util import ensure_hash_shuffle

    ensure_hash_shuffle()

    from matrixprofile_ray.stages.gapfill import assemble_series
    from matrixprofile_ray.util import partitioned_group_map

    def assemble_partition(part: pd.DataFrame) -> pd.DataFrame:
        """All keys of one hash partition in one call (key cardinality is
        data-sized — millions of users/domains — so per-key map_groups
        would pay Ray machinery per key)."""
        part = part.sort_values([key, "bucket_ts"], kind="stable")
        return assemble_series(part, key, value_col, bucket_us, tier,
                               add_noise=add_noise)

    return partitioned_group_map(bucket_ds, [key], assemble_partition)


def profile_series(series_ds, window: int, key: str = "event_type",
                   algorithm: str = "mpx", concurrency=2):
    """Materialized series rows → profile rows via ``ProfileStage`` run
    as tasks.

    The stage holds only config, so a configured instance runs as
    stateless Ray tasks on the warm workers (``concurrency`` caps the
    concurrent tasks): no actor start-up per job, and no CPUs held once
    the stage is done. The stage's own split gives each concurrent task
    one block of equal estimated cells, as in ``flagship()``.
    """
    from matrixprofile_ray.stages.profile import ProfileStage

    stage = ProfileStage(window=window, algorithm=algorithm, key_col=key)
    return stage.split(series_ds, concurrency).map_batches(
        stage,
        batch_format="pandas",
        batch_size=None,
        concurrency=concurrency,
    )


def discover_series(profiles_ds, key: str = "event_type", concurrency=2, **kwargs):
    """Profile rows → discoveries rows via ``DiscoveryStage`` run as tasks,
    one per profile block (``concurrency`` caps the concurrent tasks)."""
    from matrixprofile_ray.stages.discovery import DiscoveryStage

    return profiles_ds.map_batches(
        DiscoveryStage(key_col=key, **kwargs),
        batch_format="pandas",
        batch_size=None,
        concurrency=concurrency,
    )
