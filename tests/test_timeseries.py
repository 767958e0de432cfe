"""Generic timeseries pipeline: exact events rollup (block-split
invariance, the cascade from 1h partials, the coalesce and the fold) and
series assembly over the events table under both shuffle paths, and the
task-form profile/discovery stages."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from tests.conftest import _hash_shuffle_ctx

SF = "/root/testdata/sf0.001"

needs_testdata = pytest.mark.skipif(
    not os.path.isdir(SF), reason="driver testdata not present"
)

H1 = 3_600_000_000
D1 = 86_400_000_000

# the sort-shuffle fallback small clusters take, and the HASH_SHUFFLE
# path ``ensure_hash_shuffle`` picks at >=8 CPUs
SHUFFLES = pytest.mark.parametrize("shuffle", ["sort", "hash"])


@contextlib.contextmanager
def _shuffle(shuffle: str):
    from matrixprofile_ray.util import _hash_shuffle_active

    ctx = _hash_shuffle_ctx() if shuffle == "hash" else contextlib.nullcontext()
    with ctx:
        assert _hash_shuffle_active() == (shuffle == "hash")
        yield


def _events(blocks: int = 10):
    """The sf0.001 events in ``blocks`` blocks, so a bucket's partials
    span several blocks. Build it inside the shuffle context: Ray
    snapshots the DataContext when the source dataset is created."""
    import ray.data as rd

    tbl = pq.read_table(os.path.join(SF, "events.parquet"),
                        columns=["event_type", "ts", "value"])
    cut = [i * tbl.num_rows // blocks for i in range(blocks + 1)]
    return rd.from_arrow([tbl.slice(lo, hi - lo)
                          for lo, hi in zip(cut, cut[1:])])


def _sorted_rollup(ds, bucket_us: int, **kw) -> pd.DataFrame:
    from matrixprofile_ray.pipelines.timeseries import rollup_events

    return (
        rollup_events(ds, bucket_us, **kw)
        .to_pandas()
        .sort_values(["event_type", "bucket_ts"])
        .reset_index(drop=True)
    )


def _assert_same_frame(got: pd.DataFrame, want: pd.DataFrame) -> None:
    """Same columns, and every column bit-identical."""
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want) > 0
    for col in got.columns:
        np.testing.assert_array_equal(got[col].to_numpy(),
                                      want[col].to_numpy(), err_msg=col)


@needs_testdata
class TestEventRollup:
    """Every events moment is exact (count, int64 micro-unit sum, min,
    max), so no split of the rows can change a bit of the output."""

    @SHUFFLES
    def test_block_split_invariant(self, ray_session, shuffle):
        """1, 10 and 37 source blocks give bit-identical bucket tables,
        the unrounded sum_value/mean_value included. 1d buckets hold ~7
        events each, so most of them split across blocks."""
        with _shuffle(shuffle):
            frames = [_sorted_rollup(_events(n), D1) for n in (1, 10, 37)]
        for other in frames[1:]:
            _assert_same_frame(other, frames[0])

    @SHUFFLES
    def test_cascade_from_1h_partials(self, ray_session, shuffle):
        """The 1d tier cascaded from the merged 1h partials is bit-identical
        to the 1d rollup straight from the events."""
        from matrixprofile_ray.pipelines.timeseries import (
            cascade_events,
            rollup_events,
        )

        with _shuffle(shuffle):
            direct = _sorted_rollup(_events(), D1)
            partials = rollup_events(_events(), H1, keep_partials=True)
            cascaded = (
                cascade_events(partials, D1)
                .to_pandas()
                .sort_values(["event_type", "bucket_ts"])
                .reset_index(drop=True)
            )
        _assert_same_frame(cascaded, direct)

    def test_partials_reach_exchange_coalesced(self, ray_session,
                                               monkeypatch):
        """The partials ``rollup_events`` hands its exchange are
        coalesced into ~ceil(rows / COALESCE_ROWS) blocks, not one per
        source block."""
        from matrixprofile_ray.pipelines import timeseries as ts
        from matrixprofile_ray.stages.rollup import COALESCE_ROWS

        real, seen = ts.merge_moments, []

        def spy(partials_ds, keys, spec):
            seen.append(partials_ds.materialize())
            return real(seen[-1], keys, spec)

        monkeypatch.setattr(ts, "merge_moments", spy)
        ds = _events(37)
        assert ds.num_blocks() == 37
        ts.rollup_events(ds, H1).materialize()
        (partials,) = seen
        assert partials.count() > 0
        assert partials.num_blocks() <= -(-partials.count() // COALESCE_ROWS)

    @SHUFFLES
    def test_fold_merges_partials_across_blocks(self, ray_session, shuffle):
        """At test scale the coalesce already merges every bucket, so feed
        the fold un-coalesced per-block partials and check each (key, 1d
        bucket) against DuckDB."""
        import duckdb
        import ray.data as rd

        from matrixprofile_ray.pipelines.timeseries import (
            EVENT_MOMENTS,
            _partial,
        )
        from matrixprofile_ray.stages.rollup import merge_moments

        path = os.path.join(SF, "events.parquet")
        tbl = pq.read_table(path, columns=["event_type", "ts", "value"])
        step = -(-tbl.num_rows // 12)
        blocks = [_partial(tbl.slice(i, step), "event_type", "ts", "value", D1)
                  for i in range(0, tbl.num_rows, step)]
        assert len(blocks) >= 10
        with _shuffle(shuffle):
            got = (
                merge_moments(rd.from_arrow(blocks), ["key", "bucket_ts"],
                              EVENT_MOMENTS)
                .to_pandas()
                .sort_values(["key", "bucket_ts"])
                .reset_index(drop=True)
            )
        want = duckdb.connect().execute(
            f"""
            SELECT event_type AS key,
                   (epoch_us(ts) // {D1}) * {D1} AS bucket_ts,
                   count(*) AS count, min(value) AS min_value,
                   max(value) AS max_value,
                   SUM(CAST(ROUND(value * 1000000, 0) AS BIGINT)) AS sum_mu
            FROM '{path}' GROUP BY 1, 2 ORDER BY 1, 2
            """
        ).df()
        assert sum(b.num_rows for b in blocks) > len(want)
        assert got["key"].tolist() == want["key"].tolist()
        for col in ("bucket_ts", "count", "sum_mu"):
            np.testing.assert_array_equal(
                got[col].to_numpy(dtype=np.int64),
                want[col].to_numpy(dtype=np.int64), err_msg=col)
        for col in ("min_value", "max_value"):
            np.testing.assert_array_equal(
                got[col].to_numpy(dtype="d"), want[col].to_numpy(dtype="d"),
                err_msg=col)


@needs_testdata
class TestEventSeries:
    @SHUFFLES
    def test_series_spans_match_duckdb(self, ray_session, shuffle):
        """Each key's 1h series starts at its first DuckDB bucket, spans
        first..last bucket densely, and has one gap per empty bucket."""
        import duckdb

        from matrixprofile_ray.pipelines.timeseries import (
            rollup_events,
            series_from_buckets,
        )

        with _shuffle(shuffle):
            got = (
                series_from_buckets(rollup_events(_events(), H1), H1)
                .to_pandas()
                .sort_values("event_type")
                .reset_index(drop=True)
            )
        want = duckdb.connect().execute(
            f"""
            WITH b AS (
                SELECT event_type, (epoch_us(ts) // {H1}) * {H1} AS bucket_ts
                FROM '{os.path.join(SF, "events.parquet")}' GROUP BY 1, 2)
            SELECT event_type,
                   min(bucket_ts) AS start_ts,
                   (max(bucket_ts) - min(bucket_ts)) // {H1} + 1 AS n,
                   (max(bucket_ts) - min(bucket_ts)) // {H1} + 1 - count(*)
                       AS n_gaps
            FROM b GROUP BY 1 ORDER BY 1
            """
        ).df()
        assert got["event_type"].tolist() == want["event_type"].tolist()
        for col in ("start_ts", "n", "n_gaps"):
            np.testing.assert_array_equal(
                got[col].to_numpy(dtype=np.int64),
                want[col].to_numpy(dtype=np.int64),
            )
        assert not got["truncated"].any()
        assert [len(v) for v in got["values"]] == got["n"].tolist()


def _series_rows() -> pd.DataFrame:
    """Series rows for six keys; k1 (30 points) is too short for w=24."""
    rng = np.random.default_rng(5)
    rows = []
    for i, n in enumerate([200, 30, 350, 120, 500, 90]):
        rows.append({
            "event_type": f"k{i}", "tier": "1h", "start_ts": 0,
            "bucket_us": H1, "n": n, "n_gaps": 0, "truncated": False,
            "values": np.cumsum(rng.normal(size=n)),
        })
    return pd.DataFrame(rows)


class TestTaskStages:
    """``profile_series``/``discover_series`` run their stages as Ray
    tasks; the result is the stage called in-process on the same rows."""

    @pytest.mark.parametrize("concurrency", [1, None], ids=["1", "default"])
    def test_task_form_equals_in_process(self, ray_session, concurrency):
        import ray.data as rd

        from matrixprofile_ray.pipelines.timeseries import (
            discover_series,
            profile_series,
        )
        from matrixprofile_ray.stages.discovery import DiscoveryStage
        from matrixprofile_ray.stages.profile import ProfileStage

        kw = {} if concurrency is None else {"concurrency": concurrency}
        df = _series_rows()
        ds = rd.from_pandas([df.iloc[i:i + 2] for i in range(0, len(df), 2)])
        assert ds.num_blocks() == 3

        prof_ds = profile_series(ds, 24, **kw).materialize()
        got = prof_ds.to_pandas().sort_values("event_type").reset_index(drop=True)
        want = (
            ProfileStage(window=24, key_col="event_type")(df)
            .sort_values("event_type").reset_index(drop=True)
        )
        assert got["event_type"].tolist() == ["k0", "k2", "k3", "k4", "k5"]
        assert want["event_type"].tolist() == got["event_type"].tolist()
        for col in ("n", "w", "ez"):
            np.testing.assert_array_equal(
                got[col].to_numpy(dtype=np.int64),
                want[col].to_numpy(dtype=np.int64),
            )
        for col, dtype in (("mp", "d"), ("pi", np.int64)):
            for g, w in zip(got[col], want[col]):
                assert np.asarray(g, dtype=dtype).tobytes() == (
                    np.asarray(w, dtype=dtype).tobytes()
                )

        order = ["event_type", "kind", "rank"]
        disc = (
            discover_series(prof_ds, **kw).to_pandas()
            .sort_values(order, kind="stable").reset_index(drop=True)
        )
        want_disc = (
            DiscoveryStage(key_col="event_type")(got)
            .sort_values(order, kind="stable").reset_index(drop=True)
        )
        assert len(disc) == len(want_disc) > 0
        assert list(disc.columns) == list(want_disc.columns)
        for col in disc.columns:
            if col == "neighbors":
                for g, w in zip(disc[col], want_disc[col]):
                    np.testing.assert_array_equal(
                        np.asarray(g, dtype=np.int64),
                        np.asarray(w, dtype=np.int64),
                    )
            else:
                assert disc[col].tolist() == want_disc[col].tolist(), col


class TestRollupExactMuSums:
    def test_boundary_mean_partition_invariant(self, ray_session):
        """The sf0.1 sweep regression: a bucket whose mean lands exactly
        on x.xxxxxx5 AND splits across blocks must still hash-match a
        sequential oracle — sum_mu (exact int micro-units) makes sum and
        mean independent of partitioning and float add order."""
        import duckdb
        import ray.data as rd

        from matrixprofile_ray.pipelines.timeseries import rollup_events
        from matrixprofile_ray.stages.relational import _round6_away

        # 4 values whose mean = 49.0278125 → ROUND(·, 6) is a half case
        vals = [49.027812, 49.027813, 49.027812, 49.027813]
        ts = [1_000_000 * i for i in range(4)]
        df = pd.DataFrame({
            "event_type": ["a"] * 4,
            "ts": pd.to_datetime(ts, unit="us"),
            "value": vals,
        })
        outs = []
        for parts in (1, 4):
            ds = rd.from_pandas(df).repartition(parts)
            out = rollup_events(ds, 3_600_000_000).to_pandas()
            outs.append((out["sum_mu"][0],
                         _round6_away(out["mean_value"].to_numpy())[0]))
        # identical across partitioning
        assert outs[0] == outs[1]
        con = duckdb.connect()
        con.register("events", df)
        want = con.execute("""
            SELECT SUM(CAST(ROUND(value * 1000000, 0) AS BIGINT)) AS mu,
                   ROUND((SUM(CAST(ROUND(value * 1000000, 0) AS BIGINT))
                          / 1000000.0) / count(*), 6) AS mean_r
            FROM events""").fetchone()
        assert outs[0][0] == want[0]
        assert outs[0][1] == want[1]
        # the half case rounds AWAY (…813), not to-even (…812)
        assert outs[0][1] == 49.027813
