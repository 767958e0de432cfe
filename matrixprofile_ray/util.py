"""Engine-wide Ray Data context defaults + high-cardinality groupby helper."""

from __future__ import annotations

import os

__all__ = [
    "ensure_hash_shuffle",
    "partitioned_group_map",
    "safe_materialize",
    "scrub_empty_blocks",
    "shuffle_partitions",
]


def shuffle_partitions(default: int | None = None) -> int | None:
    """Cluster-sizing knob for every wide exchange in the engine.

    ``GRAFT_SHUFFLE_PARTS``, when set, overrides the partition count used
    by :func:`ensure_hash_shuffle`, :func:`partitioned_group_map` and the
    dedup/minhash joins. The in-repo defaults are tuned on ONE 32-CPU box
    (hash-shuffle map tasks pay a push per source-block × partition slice,
    so small clusters want FEW partitions); a multi-node run should set
    this to ~2× total cluster cores so it doesn't inherit single-box
    tuning. Returns ``default`` (which may be None = "use the local
    heuristic") when the variable is unset.
    """
    val = os.environ.get("GRAFT_SHUFFLE_PARTS")
    if val:
        return max(1, int(val))
    return default


def _hash_shuffle_active() -> bool:
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        return (
            DataContext.get_current().shuffle_strategy
            == ShuffleStrategy.HASH_SHUFFLE
        )
    except Exception:
        return False


def scrub_empty_blocks(mds):
    """Drop degenerate empty blocks from a MATERIALIZED dataset.

    Ray 2.49's hash shuffle/aggregate emits a zero-row block with an EMPTY
    schema for every partition that received no rows (with P partitions and
    k < P distinct keys, that is P-k poison blocks). Those blocks bypass
    map_batches UDFs (the batcher yields no batch for them) and, when one
    is the FIRST block a downstream ``Shuffle(key_columns=...)`` sees, its
    empty schema is broadcast to every aggregator and empty partitions then
    die in ``finalize`` with ``ArrowInvalid: No match for FieldRef`` on the
    sort key (observed on the materialize-rollup -> series-assembly path).
    Rebuilding the dataset from only the non-empty block refs (zero-copy:
    the refs are reused, one tiny metadata task per block) removes the
    poison. No-op when the dataset has no empty blocks or no rows at all.
    """
    import ray
    import ray.data as rd

    keep, dropped = [], 0
    try:
        for rb in mds.iter_internal_ref_bundles():
            for block_ref, meta in rb.blocks:
                if meta.num_rows:
                    keep.append(block_ref)
                else:
                    dropped += 1
    except Exception:
        return mds
    if not dropped or not keep:
        return mds
    return rd.from_arrow_refs(keep)


def safe_materialize(ds):
    """``ds.materialize()`` + :func:`scrub_empty_blocks`.

    Use instead of bare ``materialize()`` whenever the materialized result
    feeds another shuffle / groupby / join.
    """
    return scrub_empty_blocks(ds.materialize())


def _cluster_cpus() -> int | None:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 0)) or (
                os.cpu_count() or 8
            )
    except Exception:
        pass
    return None  # unknown until ray.init — do not guess


def ensure_hash_shuffle(parallelism_mult: int = 2) -> None:
    """Switch the current DataContext to hash-based shuffling, sized to the
    cluster.

    Our wide operations are all key-based groupbys (domain, (band, bucket),
    content hash); none needs a global sort. Ray's default sort-based
    shuffle costs tens of seconds of fixed latency per exchange at any
    cluster size. The stock hash-shuffle defaults assume a big cluster
    (200 partitions / up to 64 aggregator actors) and strangle small CPU
    counts — size both to the actual cluster so aggregators never crowd
    out the compute actor pools. Safe to call repeatedly and before
    ray.init(); silently a no-op on Ray versions without the strategy.

    ``parallelism_mult`` sets shuffle partitions per CPU. Default 2: the
    hash-shuffle map side pays a push/ack per (source block × partition)
    slice, so partition count is a direct tax on every map task — the
    round-3 sweep measured the flagship exchange at 12.1 s with
    parts=cpus*2 vs 27.8 s with the earlier parts=cpus*8 at 32 cpus
    (39.0 vs 65.9 at 8 cpus). Fold stragglers stay amortized because a
    partition hash-mixes ~keys/parts keys. Must be set BEFORE the source
    dataset is created: Ray snapshots the DataContext into the plan at
    source creation.
    """
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        ctx = DataContext.get_current()
        cpus = _cluster_cpus()
        if cpus is None or cpus < 8:
            # cluster size unknown (pre-init) or tiny: stay on the default
            # sort shuffle — mis-sized hash aggregators can deadlock, and
            # on <8 CPUs the aggregator actors contend with compute pools
            # (measured: the flagship's exchange on HASH_SHUFFLE with 1
            # aggregator and 2 partitions did not finish in 600 s at 1 CPU)
            return
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        ctx.max_hash_shuffle_aggregators = max(2, cpus // 2)
        ctx.default_hash_shuffle_parallelism = shuffle_partitions(
            max(16, cpus * parallelism_mult)
        )
        # aggregator actors must not reserve whole CPUs away from the
        # profile/discovery pools
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.05
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.05
    except Exception:
        pass


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
    across partitions; partition count is cluster-sized, not
    data-sized, so the per-call overhead is O(cores).

    When the DataContext is on HASH_SHUFFLE (``ensure_hash_shuffle`` on a
    ≥8-CPU cluster) this routes through ``repartition(P, keys=keys,
    sort=False)`` + a whole-block ``map_batches``: Ray hash-partitions the
    key columns natively on Arrow (zero-copy take, no scatter stage, no
    ``_part`` column shipped through the exchange) and ``fn`` is called
    once per partition block. ``sort=False`` also removes the
    ``Concat.finalize`` ``sort_by`` that dies with ``ArrowInvalid`` when a
    zero-column empty block (Ray's empty-hash-partition artifact, see
    :func:`scrub_empty_blocks`) wins the schema-broadcast race. On the
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
    if num_partitions is None:
        try:
            import ray

            num_partitions = max(
                8, int(ray.cluster_resources().get("CPU", 8)) * 2
            )
        except Exception:
            num_partitions = 16

    if _hash_shuffle_active():

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
