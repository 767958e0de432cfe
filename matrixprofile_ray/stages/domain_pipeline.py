"""Fused per-domain pipeline: ONE shuffle for all retention tiers.

The naive topology (groupby per tier + groupby per series assembly) costs
8 all-to-all exchanges; Ray's aggregate has seconds of fixed latency each.
This stage does it with ONE (``pipelines.flagship.series_all_tiers``):

    pages → rollup_partials(finest tier)   per-block partial + coalesce
          → partitioned_group_map(domain, DomainPipeline.process_partition)
                                           THE shuffle + per-partition fold
          → series rows for every requested tier

Inside one domain everything is trivial pandas/numpy: merge the page-count
partials (``stages.rollup.PAGE_MOMENTS``) at the finest requested tier,
cascade each coarser tier by integer re-bucketing (continuous aggregates —
exact), gap-fill each tier, emit one dense series row per (domain, tier).

Partitioning assumptions (documented per north rule):
- one domain's finest-tier bucket partials fit in a worker heap — bounded
  by span/bucket rows (~16k/56d at 5 min), NOT by page count, thanks to
  the partial combine;
- heavy-tailed domains are therefore NOT a skew problem for this stage
  (the combiner equalizes); a hash partition holds ~domains/partitions
  hash-mixed domains, so Zipf skew averages out.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from matrixprofile_ray.stages.gapfill import assemble_series_row
from matrixprofile_ray.stages.rollup import PAGE_MOMENTS, TIERS, merge_spec

__all__ = ["DomainPipeline"]

# column → merge aggregate, in pandas' dict form: named aggregation costs
# about twice as much per call, and this runs per domain per tier
_AGGS = {col: fn for col, (_, fn) in merge_spec(PAGE_MOMENTS).items()}


class DomainPipeline:
    """Partition fold: partial rows of the domains in one hash partition →
    series rows for every requested tier. The partials must be at the
    grain of the finest requested tier (``rollup_partials``)."""

    def __init__(self, tiers=("raw", "1h", "1d", "7d")):
        self.tiers = tuple(sorted(tiers, key=TIERS.__getitem__))

    def _domain_rows(self, domain, group: pd.DataFrame) -> list[dict]:
        rows = []
        buckets = group
        for tier in self.tiers:
            # the finest tier merges the partials (several rows per bucket
            # across blocks); each coarser tier re-buckets the one before
            bucket_us = TIERS[tier]
            buckets = (
                buckets.assign(bucket_ts=buckets["bucket_ts"] // bucket_us
                               * bucket_us)
                .groupby("bucket_ts", sort=True).agg(_AGGS).reset_index()
            )
            rows.append(assemble_series_row(
                domain,
                buckets["bucket_ts"].to_numpy(dtype=np.int64),
                buckets["count"].to_numpy(dtype=np.float64),
                bucket_us,
                tier,
            ))
        return rows

    def process_partition(self, part: pd.DataFrame) -> pd.DataFrame:
        """All domains of one hash partition in ONE call (see
        util.partitioned_group_map): avoids Ray's per-group overhead and
        builds a single output frame per partition instead of one-row
        frames per (domain, tier)."""
        rows: list[dict] = []
        for domain, group in part.groupby("domain", sort=False):
            rows.extend(self._domain_rows(domain, group))
        if not rows:
            return pd.DataFrame({
                "domain": pd.Series(dtype="object"),
                "tier": pd.Series(dtype="object"),
                "start_ts": pd.Series(dtype="int64"),
                "bucket_us": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "n_gaps": pd.Series(dtype="int64"),
                "truncated": pd.Series(dtype="bool"),
                "values": pd.Series(dtype="object"),
            })
        return pd.DataFrame(rows)
