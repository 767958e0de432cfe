"""Tests for util.partitioned_group_map hash-shuffle path + empty-block
scrubbing (regression for the ArrowInvalid sort-key crash: Ray's hash
shuffle/aggregate emits zero-column empty blocks for empty partitions,
which poison the schema broadcast of any downstream keyed shuffle)."""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pytest


@contextlib.contextmanager
def _hash_shuffle_ctx():
    """Force HASH_SHUFFLE on the current DataContext, sized for the tiny
    test cluster, restoring the previous strategy afterwards."""
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    saved = (
        ctx.shuffle_strategy,
        ctx.max_hash_shuffle_aggregators,
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
    )
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.max_hash_shuffle_aggregators = 2
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.05
    try:
        yield ctx
    finally:
        (
            ctx.shuffle_strategy,
            ctx.max_hash_shuffle_aggregators,
            ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
        ) = saved


def _make_fold():
    # returned as a closure so cloudpickle ships it by value (a plain
    # module-level function in tests/ is not importable on Ray workers)
    def fold(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("g", as_index=False).agg(
            s=("v", "sum"), c=("v", "size")
        )

    return fold


class TestSmallClusterShuffleGuard:
    def test_below_8_cpus_keeps_shuffle_strategy(self, ray_session):
        """On a <8-CPU cluster ensure_hash_shuffle must not switch to
        HASH_SHUFFLE (at 1 CPU a 1-aggregator hash shuffle never finished)."""
        from ray.data.context import DataContext

        from matrixprofile_ray.util import ensure_hash_shuffle

        assert ray_session.cluster_resources()["CPU"] < 8
        ctx = DataContext.get_current()
        before = ctx.shuffle_strategy
        ensure_hash_shuffle()
        assert ctx.shuffle_strategy == before


class TestHashShufflePath:
    def test_matches_fallback_path(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(11)
        df = pd.DataFrame({
            "g": rng.integers(0, 40, 1200),
            "v": rng.normal(size=1200),
        })

        from matrixprofile_ray.util import partitioned_group_map

        fold = _make_fold()
        expected = (
            df.groupby("g", as_index=False)
            .agg(s=("v", "sum"), c=("v", "size"))
            .sort_values("g")
            .reset_index(drop=True)
        )
        with _hash_shuffle_ctx():
            ds = rd.from_pandas(df)  # context snapshots at source creation
            out_hash = (
                partitioned_group_map(ds, ["g"], fold, num_partitions=16)
                .to_pandas()
                .sort_values("g")
                .reset_index(drop=True)
            )
        assert out_hash["g"].is_unique
        np.testing.assert_allclose(
            out_hash["s"].to_numpy(), expected["s"].to_numpy()
        )
        np.testing.assert_array_equal(
            out_hash["c"].to_numpy(), expected["c"].to_numpy()
        )

    def test_poisoned_input_and_chained_shuffles(self, ray_session):
        """Zero-column empty blocks in the input + more partitions than
        keys + a second chained shuffle — the exact mstomp_1h failure
        topology — must produce correct results."""
        import pyarrow as pa
        import ray.data as rd

        from matrixprofile_ray.util import partitioned_group_map

        real1 = pa.table({"g": ["a", "b", "a"], "v": [1.0, 2.0, 3.0]})
        real2 = pa.table({"g": ["c", "a"], "v": [4.0, 5.0]})
        poison = pa.table({}).select([])

        with _hash_shuffle_ctx():
            ds = rd.from_arrow([poison, poison, real1, poison, real2, poison])
            fold = _make_fold()
            first = partitioned_group_map(ds, ["g"], fold, num_partitions=16)
            # chain a second keyed shuffle over the first's output (which
            # contains Ray's empty-partition blocks)
            out = (
                partitioned_group_map(
                    first,
                    ["g"],
                    lambda p: p.groupby("g", as_index=False).agg(
                        s=("s", "sum"), c=("c", "sum")
                    ),
                    num_partitions=16,
                )
                .to_pandas()
                .sort_values("g")
                .reset_index(drop=True)
            )
        assert list(out["g"]) == ["a", "b", "c"]
        np.testing.assert_allclose(out["s"].to_numpy(), [9.0, 2.0, 4.0])
        np.testing.assert_array_equal(out["c"].to_numpy(), [3, 1, 1])


class TestScrubEmptyBlocks:
    def test_scrub_drops_only_empty_blocks(self, ray_session):
        import pyarrow as pa
        import ray
        import ray.data as rd

        from matrixprofile_ray.util import safe_materialize

        real1 = pa.table({"k": ["a", "b"], "v": [1, 2]})
        poison = pa.table({}).select([])
        ds = rd.from_arrow([poison, real1, poison])
        scrubbed = safe_materialize(ds)
        rows = scrubbed.to_pandas().sort_values("k").reset_index(drop=True)
        assert list(rows["k"]) == ["a", "b"]
        for rb in scrubbed.iter_internal_ref_bundles():
            for block_ref, meta in rb.blocks:
                assert meta.num_rows > 0
                blk = ray.get(block_ref)
                assert len(blk.schema.names) == 2

    def test_scrub_noop_on_dense_and_all_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from matrixprofile_ray.util import scrub_empty_blocks

        real = pa.table({"k": ["a"], "v": [1]})
        dense = rd.from_arrow([real]).materialize()
        assert scrub_empty_blocks(dense) is dense

        poison = pa.table({}).select([])
        empty = rd.from_arrow([poison]).materialize()
        assert scrub_empty_blocks(empty) is empty
