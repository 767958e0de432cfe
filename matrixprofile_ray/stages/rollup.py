"""Tumbling-window rollup into retention tiers (raw/1h/1d/7d).

The shuffle-minimizing shape (ray_guide "Aggregation at scale"):

1. ``partial_rollup`` — inside ``map_batches`` (pyarrow, zero-copy), per
   read block: project domain + bucket, then a *within-batch* Arrow
   ``group_by`` producing one partial row per (domain, bucket) per block.
2. Coalesce — ``cascade_partial`` at the same grain over batches of
   ``COALESCE_ROWS`` partial rows merges the per-block partials into
   ~ceil(rows / COALESCE_ROWS) large blocks. The exchange pays Ray task
   and slice machinery per input block, so it must not see one narrow
   block per read block. ``rollup_partials`` builds steps 1 and 2.
3. ``merge_rollup_partials`` — the only all-to-all exchange
   (``util.partitioned_group_map``) plus a pandas fold per partition.
4. ``finalize_rollup`` — derive mean/std from the merged moments.

Tier cascade: 1d is rolled up from the 1h table, 7d from 1d (partial+final
again, cheap) — the "continuous aggregate" pattern; counts and moments stay
exact because we carry sum/sum_sq/min/max/count, never averages. The
moments are integer-valued float64 sums far below 2**53, so the merge order
(which block a partial lands in) cannot change them.

Reference parity: the per-bucket stats match reference
algorithms/statistics.py:15-90 global stats per bucket; numerically checked
against DuckDB in the driver's oracle gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from matrixprofile_ray.stages.extract import add_domain

__all__ = [
    "TIERS",
    "COALESCE_ROWS",
    "partial_rollup",
    "rollup_partials",
    "merge_rollup_partials",
    "finalize_rollup",
    "rollup_tier",
    "cascade_partial",
]

# tier → bucket width in microseconds; "raw" is the finest persisted grain
TIERS = {
    "raw": 300_000_000,  # 5 min
    "1h": 3_600_000_000,
    "1d": 86_400_000_000,
    "7d": 604_800_000_000,
}

# partial rows per coalesced block handed to the exchange: 1M pages give
# at most 16 blocks, the source-block count the 32-CPU exchange sweep
# measured as best (pipelines/flagship.series_all_tiers)
COALESCE_ROWS = 65_536

_PARTIAL_COLS = ["count", "bytes", "sum_len", "sum_sq_len", "min_len", "max_len"]


def partial_rollup(batch: pa.Table, bucket_us: int) -> pa.Table:
    """Per-batch combiner: one partial row per (domain, bucket) in the batch."""
    batch = add_domain(batch)
    ts = pc.cast(batch["warc_ts"], pa.int64())
    bucket = pc.multiply(pc.divide(ts, bucket_us), bucket_us)
    length = pc.cast(pc.utf8_length(batch["text"]), pa.float64())
    tbl = pa.table(
        {
            "domain": batch["domain"],
            "bucket_ts": bucket,
            "nbytes": pc.cast(pc.binary_length(batch["html"]), pa.int64()),
            "len": length,
            "len_sq": pc.multiply(length, length),
        }
    )
    agg = tbl.group_by(["domain", "bucket_ts"]).aggregate(
        [
            ("len", "count"),
            ("nbytes", "sum"),
            ("len", "sum"),
            ("len_sq", "sum"),
            ("len", "min"),
            ("len", "max"),
        ]
    )
    return agg.rename_columns(["domain", "bucket_ts"] + _PARTIAL_COLS)


def merge_rollup_partials(partials_ds):
    """Merge partial rows per (domain, bucket): one partition-cardinality
    shuffle + a pandas fold per partition (Ray's built-in Sum/Min/Max
    aggregate is ~3× slower and pays per-group overhead at corpus-scale
    domain counts)."""
    import pandas as pd

    from matrixprofile_ray.util import partitioned_group_map

    def fold(part: "pd.DataFrame") -> "pd.DataFrame":
        return part.groupby(["domain", "bucket_ts"], as_index=False).agg(
            count=("count", "sum"),
            bytes=("bytes", "sum"),
            sum_len=("sum_len", "sum"),
            sum_sq_len=("sum_sq_len", "sum"),
            min_len=("min_len", "min"),
            max_len=("max_len", "max"),
        )

    return partitioned_group_map(partials_ds, ["domain", "bucket_ts"], fold)


def finalize_rollup(batch: pa.Table, tier: str) -> pa.Table:
    """Derive mean/std from merged moments and tag the tier."""
    count = np.asarray(batch["count"], dtype="d")
    s = np.asarray(batch["sum_len"], dtype="d")
    s2 = np.asarray(batch["sum_sq_len"], dtype="d")
    mean = s / count
    var = np.maximum(s2 / count - mean * mean, 0.0)
    out = batch.append_column("mean_len", pa.array(mean, pa.float64()))
    out = out.append_column("std_len", pa.array(np.sqrt(var), pa.float64()))
    out = out.append_column("tier", pa.array([tier] * batch.num_rows, pa.string()))
    return out


def cascade_partial(batch: pa.Table, bucket_us: int) -> pa.Table:
    """Re-bucket an already-rolled-up tier to a coarser one (within-batch)."""
    bucket = pc.multiply(pc.divide(batch["bucket_ts"], bucket_us), bucket_us)
    tbl = batch.select(["domain"] + _PARTIAL_COLS).add_column(
        1, "bucket_ts", bucket
    )
    agg = tbl.group_by(["domain", "bucket_ts"]).aggregate(
        [
            ("count", "sum"),
            ("bytes", "sum"),
            ("sum_len", "sum"),
            ("sum_sq_len", "sum"),
            ("min_len", "min"),
            ("max_len", "max"),
        ]
    )
    return agg.rename_columns(["domain", "bucket_ts"] + _PARTIAL_COLS)


def rollup_partials(pages_ds, tier: str):
    """pages Dataset → partial rows at ``tier``'s grain, coalesced into
    ~ceil(rows / COALESCE_ROWS) blocks, ready for the one exchange."""
    bucket_us = TIERS[tier]
    return pages_ds.map_batches(
        lambda b: partial_rollup(b, bucket_us),
        batch_format="pyarrow",
    ).map_batches(
        lambda b: cascade_partial(b, bucket_us),
        batch_format="pyarrow",
        batch_size=COALESCE_ROWS,
    )


def rollup_tier(pages_ds, tier: str):
    """pages Dataset → finalized bucket table for one tier."""
    merged = merge_rollup_partials(rollup_partials(pages_ds, tier))
    return merged.map_batches(
        lambda b: finalize_rollup(b, tier), batch_format="pyarrow"
    )


def cascade_tier(bucket_ds, tier: str):
    """Finer bucket table → coarser tier (partial + final + finalize)."""
    bucket_us = TIERS[tier]
    partials = bucket_ds.map_batches(
        lambda b: cascade_partial(b, bucket_us),
        batch_format="pyarrow",
    )
    merged = merge_rollup_partials(partials)
    return merged.map_batches(
        lambda b: finalize_rollup(b, tier), batch_format="pyarrow"
    )
