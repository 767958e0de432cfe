"""Engine-wide Ray Data context defaults, exchange sizing and the
high-cardinality groupby helper.

This module is the one owner of exchange sizing: :func:`cluster_cpus` is
the engine's only read of the cluster's resources, and
:func:`shuffle_partitions` is the one partition rule.
"""

from __future__ import annotations

__all__ = [
    "cluster_cpus",
    "ensure_hash_shuffle",
    "partitioned_group_map",
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
    content hash); none needs a global sort. Ray's default sort-based
    shuffle costs tens of seconds of fixed latency per exchange at any
    cluster size. The stock hash-shuffle defaults assume a big cluster
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
        # on <8 CPUs stay on the default sort shuffle: the aggregator
        # actors contend with compute pools (measured: the flagship's
        # exchange on HASH_SHUFFLE with 1 aggregator and 2 partitions did
        # not finish in 600 s at 1 CPU)
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
    as it is (``tests/test_util.py::TestChainedExchange``). On the
    sort-shuffle fallback (small test clusters), the original
    tag-with-``_part`` + ``groupby.map_groups`` path is used.

    ``partition_batch_format`` controls the format of the *scatter* stage
    in the fallback path. Ray's hash-shuffle scatter splits each tagged
    block into ``num_partitions`` slices; splitting a pandas block pays a
    frame-copy per slice, while Arrow blocks split by zero-copy take.
    Pass "pyarrow" when every column is scalar-typed (no object/ragged
    columns); ``fn`` still receives a pandas frame either way. Partition
    assignment differs between the two paths (Ray's internal key hash vs
    ``pd.util.hash_array``) but outputs do not: ``fn`` must process each
    key independently and vectorized, so which partition a key lands in is
    invisible in the result.
    """
    import numpy as np
    import pandas as pd

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

    def _part_ids(cols: dict) -> np.ndarray:
        h = None
        for col in keys:
            hc = pd.util.hash_array(np.asarray(cols[col])).astype(np.uint64)
            h = hc if h is None else h * np.uint64(1099511628211) + hc
        return (h % np.uint64(num_partitions)).astype(np.int64)

    if partition_batch_format == "pyarrow":
        import pyarrow as pa

        def add_part(batch: "pa.Table") -> "pa.Table":
            batch = batch.combine_chunks()
            ids = _part_ids(
                {
                    col: batch[col].to_numpy(zero_copy_only=False)
                    for col in keys
                }
            )
            return batch.append_column("_part", pa.array(ids, pa.int64()))

    else:

        def add_part(batch: pd.DataFrame) -> pd.DataFrame:
            ids = _part_ids({col: batch[col].to_numpy() for col in keys})
            batch = batch.copy()
            batch["_part"] = ids
            return batch

    def run_part(group: pd.DataFrame) -> pd.DataFrame:
        return fn(group.drop(columns=["_part"]))

    return (
        ds.map_batches(add_part, batch_format=partition_batch_format)
        .groupby("_part")
        .map_groups(run_part, batch_format="pandas")
    )
