"""Tumbling-window rollup into retention tiers (raw/1h/1d/7d): the one
moment-partial core under both the pages flagship and the generic events
engine (``pipelines/timeseries.py``).

A *spec* maps each output moment column to its source column and its
first-level Arrow aggregate. The aggregate that merges partials of one
bucket, or folds finer buckets into a coarser one, follows from it
(``_MERGE``: count→sum, sum→sum, min→min, max→max), so this module owns
that rule. The core is five functions:

- ``group_moments`` — the in-batch Arrow ``group_by``: one partial row per
  key tuple of the batch;
- ``rebucket`` — re-bucket partial rows at a coarser grain (the tier
  cascade, the "continuous aggregate" pattern) or merge them at the same
  grain;
- ``coalesce`` — ``rebucket`` over batches of ``COALESCE_ROWS`` rows, so
  the exchange sees a few large blocks, not one narrow block per read
  block (it pays Ray task and slice machinery per input block);
- ``fold_moments`` — the one merge fold: a pandas groupby over a whole
  partition that merges the partials of each key tuple;
- ``merge_moments`` — the one all-to-all exchange
  (``util.partitioned_group_map``) with ``fold_moments`` per partition.

Every moment of both specs is a count, an int64 sum (the events'
micro-unit ``sum_mu``), a min or a max, so it is exact under any split of
the rows across blocks and any merge order: the coalesce and the fold
cannot change a bit.

Pages (``PAGE_MOMENTS``) carry only the page count per (domain, bucket),
the one moment the flagship's series read. The flagship shape is:

1. ``partial_rollup`` — inside ``map_batches`` (pyarrow, zero-copy), per
   read block: project domain + bucket, then ``group_moments``.
2. ``coalesce`` at the same grain. ``rollup_partials`` builds steps 1
   and 2.
3. The exchange + fold: ``pipelines.flagship.fold_tiers`` calls
   ``fold_moments`` once per tier over the whole partition (the finest
   tier merges the partials, each coarser tier re-buckets the one
   before) and assembles each tier's series with
   ``stages.gapfill.assemble_series``.

The page counts are checked against DuckDB ``count(*)`` per (domain,
bucket) in ``tests/test_pipeline.py``; the events moments hash-match the
driver's DuckDB oracles (the ``rollup_*`` queries).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from matrixprofile_ray.stages.extract import add_domain

__all__ = [
    "TIERS",
    "COALESCE_ROWS",
    "PAGE_MOMENTS",
    "group_moments",
    "rebucket",
    "coalesce",
    "merge_spec",
    "fold_moments",
    "merge_moments",
    "partial_rollup",
    "rollup_partials",
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

# first-level aggregate → the aggregate that merges its partials
_MERGE = {"count": "sum", "count_all": "sum", "sum": "sum", "min": "min",
          "max": "max"}

# the page count per bucket: count(*), so a row counts whatever it holds
PAGE_MOMENTS = {"count": ([], "count_all")}


def group_moments(tbl: pa.Table, keys: list[str], spec: dict) -> pa.Table:
    """In-batch combiner: one partial row per key tuple of ``tbl``, with
    the spec's moments as columns after the keys."""
    agg = tbl.group_by(keys).aggregate([(src, fn) for src, fn in spec.values()])
    return agg.rename_columns(keys + list(spec))


def merge_spec(spec: dict) -> dict:
    """The spec that merges partials of ``spec``: each moment column is
    its own source, under the aggregate ``_MERGE`` gives its first-level
    one."""
    return {out: (out, _MERGE[fn]) for out, (_, fn) in spec.items()}


def rebucket(batch: pa.Table, keys: list[str], spec: dict,
             bucket_us: int) -> pa.Table:
    """Partial rows keyed on ``keys`` + bucket_ts → partial rows at the
    ``bucket_us`` grain, merged within the batch."""
    bucket = pc.multiply(pc.divide(batch["bucket_ts"], bucket_us), bucket_us)
    tbl = batch.select(keys + list(spec)).add_column(len(keys), "bucket_ts",
                                                    bucket)
    return group_moments(tbl, keys + ["bucket_ts"], merge_spec(spec))


def coalesce(partials_ds, keys: list[str], spec: dict, bucket_us: int):
    """Partial rows → partial rows at the ``bucket_us`` grain, merged over
    batches of ``COALESCE_ROWS`` rows. Where Ray fuses this map with the
    one that makes the partials, it counts that map's input rows, so the
    exchange sees ~ceil(input rows / COALESCE_ROWS) blocks."""
    return partials_ds.map_batches(
        lambda b: rebucket(b, keys, spec, bucket_us),
        batch_format="pyarrow",
        batch_size=COALESCE_ROWS,
    )


def fold_moments(part, keys: list[str], spec: dict):
    """Partial rows of a pandas frame → one merged row per key tuple,
    sorted by ``keys``: one groupby over the whole frame, not one per key."""
    return part.groupby(keys, as_index=False).agg(**merge_spec(spec))


def merge_moments(partials_ds, keys: list[str], spec: dict, finish=None):
    """Merge partial rows per key tuple: ONE partition-cardinality shuffle
    + ``fold_moments`` per partition (3× faster than Ray's built-in
    Sum/Min/Max aggregate at sf0.1 — 14.5 s → 4.6 s for lineitem — and
    immune to its per-group overhead at corpus-scale key counts).
    ``finish``, if given, maps each partition's merged frame in the same
    task, so a per-row finishing step costs no map after the exchange."""
    from matrixprofile_ray.util import partitioned_group_map

    def fold(part):
        merged = fold_moments(part, keys, spec)
        return merged if finish is None else finish(merged)

    return partitioned_group_map(partials_ds, keys, fold)


def partial_rollup(batch: pa.Table, bucket_us: int) -> pa.Table:
    """Per-batch combiner: the page count per (domain, bucket) in the batch."""
    batch = add_domain(batch)
    ts = pc.cast(batch["warc_ts"], pa.int64())
    tbl = pa.table({
        "domain": batch["domain"],
        "bucket_ts": pc.multiply(pc.divide(ts, bucket_us), bucket_us),
    })
    return group_moments(tbl, ["domain", "bucket_ts"], PAGE_MOMENTS)


def rollup_partials(pages_ds, tier: str):
    """pages Dataset → partial rows at ``tier``'s grain, coalesced into
    ~ceil(rows / COALESCE_ROWS) blocks, ready for the one exchange."""
    bucket_us = TIERS[tier]
    return coalesce(pages_ds.map_batches(
        lambda b: partial_rollup(b, bucket_us),
        batch_format="pyarrow",
    ), ["domain"], PAGE_MOMENTS, bucket_us)
