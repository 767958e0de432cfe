"""Tests for util: exchange sizing, and the partitioned_group_map fold
contract on both shuffle paths, chained exchanges included (Ray's
exchanges leave a zero-column empty block per empty partition, which once
poisoned the schema broadcast of a downstream keyed shuffle with an
ArrowInvalid sort-key crash)."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import _hash_shuffle_ctx

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _make_fold():
    # returned as a closure so cloudpickle ships it by value (a plain
    # module-level function in tests/ is not importable on Ray workers)
    def fold(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("g", as_index=False).agg(
            s=("v", "sum"), c=("v", "size")
        )

    return fold


class TestExchangeSizing:
    def test_two_partitions_per_cluster_cpu(self, ray_session):
        from matrixprofile_ray.util import shuffle_partitions

        assert shuffle_partitions() == 2 * int(
            ray_session.cluster_resources()["CPU"]
        )

    def test_no_session_is_loud(self):
        """Without a Ray session the exchange cannot be sized: the sizing
        entry point raises instead of guessing a partition count."""
        code = (
            "import ray\n"
            "from matrixprofile_ray.util import ensure_hash_shuffle\n"
            "try:\n"
            "    ensure_hash_shuffle()\n"
            "except ray.exceptions.RaySystemError:\n"
            "    print('raised')\n"
        )
        res = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr[-2000:]
        assert res.stdout.strip() == "raised"

    def test_unschedulable_hash_exchange_is_loud(self, ray_session):
        """Aggregators that would leave no CPU for a shuffle task raise at
        plan time instead of hanging the job."""
        import ray.data as rd

        from matrixprofile_ray.util import partitioned_group_map

        cpus = int(ray_session.cluster_resources()["CPU"])
        with _hash_shuffle_ctx():
            ds = rd.from_pandas(pd.DataFrame({"g": [1, 2], "v": [1, 2]}))
            # 0.05 CPU per partition: 20 per CPU reserves the whole cluster
            with pytest.raises(ValueError, match="reserve"):
                partitioned_group_map(ds, ["g"], _make_fold(),
                                      num_partitions=20 * cpus)


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


def _blocks(mds) -> list:
    """(num_rows, block) of a materialized dataset, in block order."""
    import ray

    return [(meta.num_rows, ray.get(ref))
            for bundle in mds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks]


def _chain(first):
    """A second keyed exchange and a hash join over ``first`` (columns g,
    s, c) as it is: the two ways an exchange output is consumed
    downstream (series assembly over a materialized rollup; dedup's
    joins)."""
    import ray.data as rd

    from matrixprofile_ray.util import partitioned_group_map

    out = (
        partitioned_group_map(
            first, ["g"],
            lambda p: p.groupby("g", as_index=False).agg(
                s=("s", "sum"), c=("c", "sum")),
            num_partitions=16,
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    other = rd.from_pandas(pd.DataFrame({"h": ["a", "c", "d"],
                                         "w": [10, 30, 40]}))
    joined = (
        first.join(other, join_type="inner", num_partitions=2,
                   on=("g",), right_on=("h",))
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    return out, joined


def _assert_chain(out: pd.DataFrame, joined: pd.DataFrame) -> None:
    assert list(out["g"]) == ["a", "b", "c"]
    np.testing.assert_array_equal(out["s"].to_numpy(), [9.0, 2.0, 4.0])
    np.testing.assert_array_equal(out["c"].to_numpy(), [3, 1, 1])
    assert list(joined["g"]) == ["a", "c"]
    np.testing.assert_array_equal(joined["w"].to_numpy(), [10, 30])


class TestChainedExchange:
    """Ray's exchanges leave a zero-row, zero-column block per empty
    partition. Such a block once poisoned a downstream keyed shuffle when
    it was the FIRST block that shuffle saw (its empty schema was
    broadcast to every aggregator, which then died with ``ArrowInvalid:
    No match for FieldRef`` on the sort key). Both tests feed such
    blocks, unscrubbed, into a second exchange and a join."""

    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    def test_sparse_materialized_output_feeds_second_exchange(
            self, ray_session, shuffle):
        """A real exchange output with fewer keys than partitions."""
        import ray.data as rd

        from matrixprofile_ray.util import partitioned_group_map

        df = pd.DataFrame({"g": ["a", "b", "a", "c", "a"],
                           "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
        ctx = (_hash_shuffle_ctx() if shuffle == "hash"
               else contextlib.nullcontext())
        with ctx:
            ds = rd.from_pandas([df.iloc[:2], df.iloc[2:]])
            first = partitioned_group_map(ds, ["g"], _make_fold(),
                                          num_partitions=16).materialize()
            assert any(n == 0 and len(blk.columns) == 0
                       for n, blk in _blocks(first))
            _assert_chain(*_chain(first))

    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    def test_empty_first_block_feeds_second_exchange(
            self, ray_session, shuffle):
        """The poison layout itself, independent of where the keys hash:
        the first block (and every other one) is zero-row, zero-column."""
        import pyarrow as pa
        import ray.data as rd

        poison = pa.table({})
        real = pa.table({"g": ["a", "b", "c"], "s": [9.0, 2.0, 4.0],
                         "c": [3, 1, 1]})
        ctx = (_hash_shuffle_ctx() if shuffle == "hash"
               else contextlib.nullcontext())
        with ctx:
            first = rd.from_arrow([poison, real.slice(0, 2), poison,
                                   real.slice(2), poison]).materialize()
            blocks = _blocks(first)
            assert [n for n, _ in blocks] == [0, 2, 0, 1, 0]
            assert blocks[0][1].num_columns == 0
            _assert_chain(*_chain(first))


@st.composite
def _fold_cases(draw):
    # up to 12 keys against up to 64 partitions: many partitions get no
    # key at all, and so an empty block
    return {
        "n_rows": draw(st.integers(1, 300)),
        "n_keys": draw(st.integers(1, 12)),
        "n_blocks": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        # None: the default, util.shuffle_partitions()
        "num_partitions": draw(st.sampled_from([1, 2, 3, None, 64])),
        "batch_format": draw(st.sampled_from(["pandas", "pyarrow"])),
    }


class TestFoldContract:
    """``partitioned_group_map`` gives what one pandas groupby gives, for
    any key set, block split and partition count, on both shuffle paths."""

    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    @settings(max_examples=8, deadline=None)
    @given(case=_fold_cases())
    def test_matches_pandas_groupby(self, ray_session, shuffle, case):
        import ray.data as rd

        from matrixprofile_ray.util import (_hash_shuffle_active,
                                            partitioned_group_map)

        rng = np.random.default_rng(case["seed"])
        n = case["n_rows"]
        df = pd.DataFrame({
            "g": rng.integers(0, case["n_keys"], n),
            "h": rng.choice(["x", "y"], n),
            "v": rng.integers(-1000, 1000, n),
        })
        cuts = np.sort(rng.integers(0, n + 1, case["n_blocks"] - 1))
        bounds = [0, *cuts.tolist(), n]

        def fold(part: pd.DataFrame) -> pd.DataFrame:
            return part.groupby(["g", "h"], as_index=False).agg(
                s=("v", "sum"), c=("v", "size"), lo=("v", "min")
            )

        want = fold(df).sort_values(["g", "h"]).reset_index(drop=True)
        ctx = (_hash_shuffle_ctx() if shuffle == "hash"
               else contextlib.nullcontext())
        with ctx:
            assert _hash_shuffle_active() == (shuffle == "hash")
            # the context is snapshotted when the source is created
            ds = rd.from_pandas([df.iloc[lo:hi]
                                 for lo, hi in zip(bounds, bounds[1:])])

            def run():
                return partitioned_group_map(
                    ds, ["g", "h"], fold,
                    num_partitions=case["num_partitions"],
                    partition_batch_format=case["batch_format"],
                )

            if shuffle == "hash" and case["num_partitions"] == 64:
                # 64 × 0.05 CPU of aggregators on the 4-CPU test cluster
                # leaves no CPU for a shuffle task: refused, not hung
                assert ray_session.cluster_resources()["CPU"] == 4
                with pytest.raises(ValueError, match="reserve"):
                    run()
                return
            got = (
                run().to_pandas().sort_values(["g", "h"]).reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
