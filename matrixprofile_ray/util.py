"""Engine-wide Ray Data context defaults, exchange sizing and the
high-cardinality groupby helper.

This module is the one owner of exchange sizing: :func:`cluster_cpus` is
the engine's only read of the cluster's resources, and
:func:`shuffle_partitions` is the one partition rule. It also owns the
engine's two exchange paths (:func:`partitioned_group_map`): Ray Data's
HASH_SHUFFLE on ≥ 8 CPUs, and below that an exchange of plain Ray tasks
(one scatter per input block, one gather per partition) that returns a
materialized Dataset. :func:`cut_blocks` builds its output the same way:
block refs from tasks that return each block's metadata beside it.
:func:`read_only` narrows a lazy Parquet read to the columns a stage
reads.
"""

from __future__ import annotations

import functools

__all__ = [
    "cluster_cpus",
    "cut_blocks",
    "ensure_hash_shuffle",
    "partitioned_group_map",
    "read_only",
    "shuffle_partitions",
]


def cluster_cpus() -> int:
    """Total CPUs of the live Ray cluster (cluster-wide, every node).

    Raises ``RaySystemError`` when no Ray session is running: an exchange
    sized without a cluster would be a guess.
    """
    import ray

    return int(ray.cluster_resources()["CPU"])


def shuffle_partitions() -> int:
    """Partition count of every key-partitioned exchange: 2 per cluster CPU.

    The hash-shuffle map side pays a push/ack per (source block ×
    partition) slice, so the partition count is a direct tax on every map
    task. The round-3 sweep measured the flagship's 1M-page series phase
    at 12.1 s with 2 partitions per CPU vs 27.8 s with 8 per CPU at 32
    CPUs (39.0 vs 65.9 s at 8 CPUs), with ``cpus / 2`` source blocks. Fold
    stragglers stay amortized: a partition hash-mixes ~keys/parts keys, so
    Zipf skew averages out.
    """
    return 2 * cluster_cpus()


def _hash_shuffle_active() -> bool:
    from ray.data.context import DataContext, ShuffleStrategy

    return (
        DataContext.get_current().shuffle_strategy
        == ShuffleStrategy.HASH_SHUFFLE
    )


def ensure_hash_shuffle() -> None:
    """Switch the current DataContext to hash-based shuffling, sized to the
    cluster.

    Our wide operations are all key-based groupbys (domain, (band, bucket),
    content hash); none needs a global sort, so none runs on Ray's
    sort-based shuffle: below 8 CPUs :func:`partitioned_group_map`
    exchanges with plain Ray tasks instead. The stock hash-shuffle
    defaults assume a big cluster
    (200 partitions / up to 64 aggregator actors) and strangle small CPU
    counts — size both to the actual cluster (:func:`shuffle_partitions`)
    so aggregators never crowd out the compute pools. Safe to call
    repeatedly; raises ``RaySystemError`` before ``ray.init()``.

    Must be set BEFORE the source dataset is created: Ray snapshots the
    DataContext into the plan at source creation.
    """
    from ray.data.context import DataContext, ShuffleStrategy

    cpus = cluster_cpus()
    if cpus < 8:
        # on <8 CPUs leave the strategy alone, so partitioned_group_map
        # takes its task exchange: HASH_SHUFFLE starts an aggregator actor
        # on every execution (measured at 1 CPU, 1 aggregator, 2
        # partitions, 0 CPUs per partition: 0.96-1.22 s per 1h events
        # rollup, against 0.15 s on the task exchange)
        return
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.max_hash_shuffle_aggregators = max(2, cpus // 2)
    ctx.default_hash_shuffle_parallelism = shuffle_partitions()
    # aggregator actors must not reserve whole CPUs away from the
    # profile/discovery pools
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.05
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.05


def _check_aggregators_fit(num_partitions: int) -> None:
    """Raise ``ValueError`` for a HASH_SHUFFLE exchange that would hang.

    Each hash aggregator reserves ``override × ceil(P / aggregators)``
    CPUs and each shuffle task needs one whole CPU, so aggregators that
    leave less than one CPU free starve every shuffle task (measured on
    4 CPUs, 2 aggregators, 0.05 CPU per partition: 60 partitions ran,
    61 hung).
    """
    import math

    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    per_part = ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override
    if per_part is None:  # Ray sizes its own default reservation
        return
    aggs = min(num_partitions, ctx.max_hash_shuffle_aggregators)
    reserved = per_part * math.ceil(num_partitions / aggs) * aggs
    cpus = cluster_cpus()
    if reserved > cpus - 1:
        raise ValueError(
            f"{num_partitions} hash-shuffle partitions reserve {reserved:g} "
            f"of {cpus} CPUs for aggregators; a shuffle task needs 1 free"
        )


def partitioned_group_map(
    ds,
    keys: list[str],
    fn,
    num_partitions: int | None = None,
    partition_batch_format: str = "pandas",
):
    """Group-by for HIGH-CARDINALITY keys: one low-cardinality shuffle +
    one vectorized call per PARTITION.

    Ray 2.49's ``groupby(keys).map_groups`` and built-in ``aggregate`` both
    pay per-GROUP overhead (measured ~0.2-25 ms/group; a 236k-group dedupe
    took 95 s via map_groups and >600 s via the built-in Count). This
    helper instead hash-partitions rows on the key columns into
    ``num_partitions`` buckets (deterministic pd.util.hash_array, seed
    fixed) and calls ``fn(partition_df)`` ONCE per partition — fn sees all
    rows of every key it owns and must process its keys vectorized
    (pandas groupby / lexsort + reduceat / merge_asof). Keys never split
    across partitions; partition count is cluster-sized
    (:func:`shuffle_partitions` by default), not data-sized, so the
    per-call overhead is O(cores).

    When the DataContext is on HASH_SHUFFLE (``ensure_hash_shuffle`` on a
    ≥8-CPU cluster) this routes through ``repartition(P, keys=keys,
    sort=False)`` + a whole-block ``map_batches``: Ray hash-partitions the
    key columns natively on Arrow (zero-copy take, no scatter stage, no
    ``_part`` column shipped through the exchange) and ``fn`` is called
    once per partition block. ``sort=False`` also removes the
    ``Concat.finalize`` ``sort_by`` that dies with ``ArrowInvalid`` when a
    zero-column empty block (Ray's empty-hash-partition artifact) wins the
    schema-broadcast race, so an exchange's output feeds the next exchange
    as it is (``tests/test_util.py::TestChainedExchange``).

    Otherwise (below 8 CPUs: perfbench, the test cluster) the exchange is
    plain Ray tasks, and runs EAGERLY: ``ds`` runs once, one scatter task
    per non-empty input block returns its rows of each partition (stable
    order) plus their row counts, then one gather task per non-empty
    partition concatenates its slices in input-block order and calls
    ``fn`` once. The result is a MaterializedDataset of one block per
    non-empty partition; an empty input gives an empty Dataset, and an
    ``fn`` that raises makes this call raise. The partition ids are
    computed per row, so nothing is sorted: Ray's sort-based groupby
    spent most of a 1-CPU rollup in its ``Sort`` all-to-all, its
    sampling and the ``map_groups`` operator. Being eager, the exchange
    should be the last step of an execution: fold a per-row finishing
    map into ``fn`` (``stages.rollup.merge_moments``' ``finish``) rather
    than map the result, which costs one more Ray Data execution.

    ``partition_batch_format`` is the format the task exchange's scatter
    splits each block in: splitting a pandas block copies the frame,
    while Arrow blocks split by zero-copy take. Pass "pyarrow" when every
    column is scalar-typed (no object/ragged columns); ``fn`` receives a
    pandas frame either way. Partition assignment differs between the
    two paths (Ray's internal key hash vs ``pd.util.hash_array``) but
    outputs do not: ``fn`` must process each key independently and
    vectorized, so which partition a key lands in is invisible in the
    result.
    """
    import numpy as np
    import pandas as pd
    import ray

    if num_partitions is None:
        num_partitions = shuffle_partitions()

    if _hash_shuffle_active():
        _check_aggregators_fit(num_partitions)

        def run_block(batch: pd.DataFrame) -> pd.DataFrame:
            if len(batch) == 0:
                # typed empty partition block: nothing to fold, and fn
                # implementations may not all tolerate empty input
                return batch.iloc[:0]
            return fn(batch)

        return ds.repartition(
            num_partitions, keys=keys, sort=False
        ).map_batches(run_block, batch_size=None, batch_format="pandas")

    scatter = _remote(_scatter).options(num_returns=num_partitions + 1)
    shards = [scatter.remote(ref, keys, num_partitions, partition_batch_format)
              for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    if not shards:
        return _from_block_refs([], [])
    counts = np.array(ray.get([s[-1] for s in shards]))
    gather = _remote(_gather).options(num_returns=2)
    fn_ref = ray.put(fn)
    out = [gather.remote(fn_ref, *[s[p] for s, n in zip(shards, counts[:, p])
                                   if n])
           for p in np.flatnonzero(counts.sum(axis=0)).tolist()]
    return _from_block_refs([ref for ref, _ in out],
                            ray.get([meta for _, meta in out]))


def _part_ids(cols: list, num_partitions: int):
    """Partition id of every row: a seed-fixed ``pd.util.hash_array`` of
    each key column, mixed FNV-style, modulo ``num_partitions``."""
    import numpy as np
    import pandas as pd

    h = None
    for col in cols:
        hc = pd.util.hash_array(np.asarray(col)).astype(np.uint64)
        h = hc if h is None else h * np.uint64(1099511628211) + hc
    return (h % np.uint64(num_partitions)).astype(np.int64)


def _scatter(block, keys: list[str], num_partitions: int, batch_format: str):
    """One input block → its rows of each partition, in input order, as
    ``num_partitions`` slices in ``batch_format`` (None where a partition
    gets no row), then the slices' row counts."""
    import numpy as np
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    if batch_format == "pyarrow":
        tbl = acc.to_arrow()
        cols = [tbl[c].to_numpy(zero_copy_only=False) for c in keys]
    else:
        tbl = acc.to_pandas()
        cols = [tbl[c].to_numpy() for c in keys]
    ids = _part_ids(cols, num_partitions)
    counts = np.bincount(ids, minlength=num_partitions).tolist()
    parts = BlockAccessor.for_block(
        BlockAccessor.for_block(tbl).take(np.argsort(ids, kind="stable")))
    ends = np.cumsum(counts).tolist()
    return (*[parts.slice(end - n, end) if n else None
              for n, end in zip(counts, ends)], counts)


def _concat(blocks):
    """Blocks → one block, rows in the order given: pandas if every block
    is pandas, else Arrow."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    if all(isinstance(b, pd.DataFrame) for b in blocks):
        return pd.concat(blocks, ignore_index=True)
    return pa.concat_tables(
        [BlockAccessor.for_block(b).to_arrow() for b in blocks],
        promote_options="default")


def _gather(fn, *blocks):
    """A partition's slices → ``fn`` of their concatenation as a pandas
    frame (one call per partition), as a block, and its metadata."""
    from ray.data.block import BlockAccessor, BlockMetadataWithSchema

    block = BlockAccessor.batch_to_block(
        fn(BlockAccessor.for_block(_concat(blocks)).to_pandas()))
    return block, BlockMetadataWithSchema.from_block(block)


def _cut(lo: int, hi: int, *blocks):
    """Rows ``lo:hi`` of the blocks' concatenation, as a block, and its
    metadata."""
    from ray.data.block import BlockAccessor, BlockMetadataWithSchema

    block = BlockAccessor.for_block(_concat(blocks)).slice(lo, hi)
    return block, BlockMetadataWithSchema.from_block(block)


@functools.cache
def _remote(task):
    import ray

    return ray.remote(task)


def _from_block_refs(refs: list, metas: list):
    """Block refs + their metadata → a MaterializedDataset, as
    ``ray.data.from_pandas_refs`` builds one, minus its metadata task per
    block: each task that makes a block here returns its metadata beside
    it."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromBlocks
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(
        DatasetStats(metadata={"FromBlocks": metas}, parent=None),
        DataContext.get_current().copy(),
    )
    return MaterializedDataset(
        plan, LogicalPlan(FromBlocks(refs, metas), plan._context))


def cut_blocks(ds, cuts: list[int]):
    """Materialized ``ds`` → the same rows in the same order, cut before
    each row index in ``cuts`` (ascending, at most its row count), as ONE
    block per non-empty
    piece. A piece that is one whole input block keeps it; every other
    piece is cut out of its input blocks by one task, all submitted
    together."""
    import numpy as np
    import ray
    from ray.data.block import BlockMetadataWithSchema

    blocks = [(ref, BlockMetadataWithSchema(meta, bundle.schema))
              for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    rows = np.array([meta.num_rows for _, meta in blocks], dtype=np.int64)
    ends = np.cumsum(rows)
    starts = ends - rows
    bounds = [0, *cuts, int(ends[-1]) if len(ends) else 0]
    cut = _remote(_cut).options(num_returns=2)
    refs, metas, pending = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo >= hi:
            continue
        # the input blocks first..last-1 hold rows lo..hi-1
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(starts, hi, side="left"))
        if last - first == 1 and starts[first] == lo and ends[first] == hi:
            ref, meta = blocks[first]
        else:
            off = lo - int(starts[first])
            ref, meta = cut.remote(off, off + hi - lo,
                                   *[ref for ref, _ in blocks[first:last]])
            pending.append(len(refs))
        refs.append(ref)
        metas.append(meta)
    for i, meta in zip(pending, ray.get([metas[i] for i in pending])):
        metas[i] = meta
    return _from_block_refs(refs, metas)


def read_only(ds, columns: list[str]):
    """A lazy Parquet read → the same read of just ``columns``; any other
    ``ds`` → ``ds`` itself.

    Narrows a Dataset whose whole, unexecuted plan is one Parquet read
    (no ``_block_udf``, no caller-given schema) that yields every name in
    ``columns`` and more: a shallow copy of the datasource reads only
    ``columns``, rebuilt with the read's parallelism, remote args,
    concurrency and ``ds.context``, so columns a stage never reads are
    never decoded (the page bodies are most of a crawl's bytes). ``ds``
    is not changed; a plan with any other operator or input comes back
    as given, with no operator added. Nothing is registered with Ray's
    optimizer, so no other Dataset of the process is rewritten.
    """
    import copy

    import pyarrow as pa
    from ray.data._internal.datasource.parquet_datasource import \
        ParquetDatasource
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.read_operator import Read
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.dataset import Dataset
    from ray.data.datasource.partitioning import PathPartitionParser

    op = ds._logical_plan.dag
    if not isinstance(op, Read) or ds._plan.has_computed_output():
        return ds
    src = op._datasource
    if (not isinstance(src, ParquetDatasource)
            or src._block_udf is not None or src._read_schema is not None):
        return ds
    schema = src._inferred_schema
    if not set(columns) < set(schema.names):
        return ds
    parts = (PathPartitionParser(src._partitioning)(src._pq_paths[0])
             if src._partitioning is not None else {})
    narrow = copy.copy(src)
    narrow._data_columns = [c for c in columns if c not in parts]
    narrow._partition_columns = [c for c in columns if c in parts]
    narrow._inferred_schema = pa.schema([schema.field(c) for c in columns],
                                        schema.metadata)
    narrow._include_paths = False
    read = Read(narrow, narrow, op._parallelism, op._mem_size,
                op._num_outputs, dict(op._ray_remote_args), op._concurrency)
    # the read tasks' metadata is per file, whatever the columns
    plan = ExecutionPlan(
        DatasetStats(metadata=ds._plan._in_stats.metadata, parent=None),
        ds.context.copy())
    return Dataset(plan, LogicalPlan(read, plan._context))

