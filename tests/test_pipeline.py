"""Ray Data pipeline tests: corpus determinism, extraction oracle, rollup
vs DuckDB, gap-fill, Gorilla stage round-trip, flagship smoke.

Small inputs (≤5k pages) so the whole module runs in well under a minute on
4 CPUs; correctness of the wide stages is checked against DuckDB as an
independent SQL oracle.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from matrixprofile_ray.sources.pages import generate_pages, pages_dataset
from matrixprofile_ray.stages.extract import add_domain, extract_text, verify_extraction
from matrixprofile_ray.stages.rollup import TIERS
from tests.conftest import _hash_shuffle_ctx

N_PAGES = 4000


def _sql_buckets(pages_table: pa.Table, bucket_us: int) -> pd.DataFrame:
    """The page count per (domain, bucket) from DuckDB, sorted."""
    import duckdb

    con = duckdb.connect()
    con.register("pages", pages_table)
    return con.execute(
        f"""
        SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS domain,
               (epoch_us(warc_ts) // {bucket_us}) * {bucket_us} AS bucket_ts,
               count(*) AS count
        FROM pages GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df()


def _merged(partials_ds) -> pd.DataFrame:
    """Page-count partials merged per (domain, bucket) through the
    exchange, sorted."""
    from matrixprofile_ray.stages.rollup import PAGE_MOMENTS, merge_moments

    return (
        merge_moments(partials_ds, ["domain", "bucket_ts"], PAGE_MOMENTS)
        .to_pandas()
        .sort_values(["domain", "bucket_ts"])
        .reset_index(drop=True)
    )


def _assert_same_counts(got: pd.DataFrame, want: pd.DataFrame) -> None:
    assert len(got) == len(want)
    for col in ("domain", "bucket_ts", "count"):
        np.testing.assert_array_equal(got[col], want[col])


@pytest.fixture(scope="module")
def pages_table() -> pa.Table:
    return generate_pages(np.arange(N_PAGES))


@pytest.fixture(scope="module")
def pages_ds(ray_session):
    return pages_dataset(N_PAGES)


@pytest.fixture(scope="module")
def blocky_ds(ray_session, pages_ds):
    # many small blocks: every bucket's partials span several blocks
    ds = pages_ds.repartition(40).materialize()
    assert ds.num_blocks() == 40
    return ds


class TestCorpusDeterminism:
    def test_block_size_independent(self, pages_table):
        """Same rows regardless of how indices are batched."""
        a = generate_pages(np.arange(100))
        parts = [generate_pages(np.arange(i, i + 20)) for i in range(0, 100, 20)]
        b = pa.concat_tables(parts)
        assert a.equals(b)
        # past a few million tokens per call the token strings must still
        # form one Arrow array
        big = generate_pages(np.arange(40_000))
        parts = [generate_pages(np.arange(i, i + 10_000))
                 for i in range(0, 40_000, 10_000)]
        assert big.equals(pa.concat_tables(parts))

    def test_schema_matches_input_hint(self, pages_table):
        assert pages_table.schema.names == ["url", "warc_ts", "html", "text", "lang"]
        assert pages_table.schema.field("warc_ts").type == pa.timestamp("us")
        assert pages_table.schema.field("html").type == pa.binary()

    def test_heavy_tail(self, pages_table):
        counts = (
            add_domain(pages_table).column("domain").to_pandas().value_counts()
        )
        # Zipf head domain ≫ median domain
        assert counts.iloc[0] > 10 * counts.median()

    def test_duplicate_urls_exist(self, pages_table):
        urls = pages_table.column("url").to_pandas()
        assert urls.duplicated().any()


class TestExtraction:
    def test_byte_identical_per_url(self, pages_table):
        """The north-rule invariant: extracted text == corpus text column."""
        res = verify_extraction(pages_table)
        assert res.column("mismatched")[0].as_py() == 0

    def test_text_is_pure_function_of_url(self, pages_table):
        df = pages_table.select(["url", "text"]).to_pandas()
        assert (df.groupby("url")["text"].nunique() == 1).all()

    def test_extract_replaces_text(self, pages_table):
        stripped = pages_table.drop_columns(["text"])
        out = extract_text(stripped)
        assert out.column("text").to_pylist() == pages_table.column("text").to_pylist()


class TestRollupVsDuckdb:
    @pytest.mark.parametrize("tier", ["raw", "1h", "1d"])
    def test_tier_matches_sql(self, blocky_ds, pages_table, tier):
        from matrixprofile_ray.stages.rollup import rollup_partials

        got = _merged(rollup_partials(blocky_ds, tier))
        _assert_same_counts(got, _sql_buckets(pages_table, TIERS[tier]))

    def test_cascade_equals_direct(self, ray_session, pages_ds):
        """1d re-bucketed from the merged 1h partials == 1d straight from
        pages."""
        import ray.data as rd

        from matrixprofile_ray.stages.rollup import (
            PAGE_MOMENTS,
            rebucket,
            rollup_partials,
        )

        h1 = _merged(rollup_partials(pages_ds, "1h"))
        via_cascade = _merged(rd.from_pandas(h1).map_batches(
            lambda b: rebucket(b, ["domain"], PAGE_MOMENTS, TIERS["1d"]),
            batch_format="pyarrow",
        ))
        assert len(via_cascade) < len(h1)
        _assert_same_counts(via_cascade, _merged(rollup_partials(pages_ds, "1d")))


class TestFusedSeriesEquivalence:
    """The flagship's fused one-shuffle path vs an unfused per-tier path
    (DuckDB bucket tables, then one series assembly per tier)."""

    TIERS = ("1h", "1d", "7d")

    def test_partials_reach_exchange_coalesced(self, blocky_ds):
        from matrixprofile_ray.stages.rollup import COALESCE_ROWS, rollup_partials

        partials = rollup_partials(blocky_ds, "1h").materialize()
        assert partials.count() > 0
        assert partials.num_blocks() <= -(-partials.count() // COALESCE_ROWS)

    def test_fold_merges_partials_across_blocks(self, pages_table):
        """At test scale the coalesce already merges every bucket, so feed
        the fold per-block partials directly."""
        from matrixprofile_ray.pipelines.flagship import fold_tiers
        from matrixprofile_ray.stages.rollup import partial_rollup

        grain = TIERS[self.TIERS[0]]
        whole = partial_rollup(pages_table, grain).to_pandas()
        split = pd.concat([
            partial_rollup(pages_table.slice(i, 500), grain).to_pandas()
            for i in range(0, N_PAGES, 500)
        ])
        assert len(split) > len(whole)
        got, want = (
            fold_tiers(df, self.TIERS)
            .sort_values(["domain", "tier"]).reset_index(drop=True)
            for df in (split, whole)
        )
        assert got[["domain", "tier", "n", "n_gaps"]].equals(
            want[["domain", "tier", "n", "n_gaps"]]
        )
        for g, w in zip(got["values"], want["values"]):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    def test_null_domain_partition(self, ray_session, pages_table, shuffle):
        """A url without a scheme has a null domain; its rows can reach a
        partition that holds no other domain. They are dropped there, as
        the groupby drops them, and the job does not fail."""
        import pyarrow.compute as pc
        import ray.data as rd

        from matrixprofile_ray.pipelines.flagship import series_all_tiers

        domains = add_domain(pages_table).column("domain")
        one = pages_table.filter(pc.equal(domains, domains[0]))
        urls = one["url"].to_pylist()
        urls[0] = "dns:host"
        bad = one.set_column(0, "url", pa.array(urls, one["url"].type))
        ctx = _hash_shuffle_ctx() if shuffle == "hash" else contextlib.nullcontext()
        with ctx:
            got, want = (
                series_all_tiers(rd.from_arrow(t), tiers=self.TIERS)
                .to_pandas().sort_values("tier").reset_index(drop=True)
                for t in (bad, one.slice(1))
            )
        assert got["domain"].tolist() == [domains[0].as_py()] * len(self.TIERS)
        assert got.drop(columns="values").equals(want.drop(columns="values"))
        for g, w in zip(got["values"], want["values"]):
            assert np.asarray(g, dtype="d").tobytes() == (
                np.asarray(w, dtype="d").tobytes()
            )

    @pytest.fixture(scope="class")
    def per_tier(self, ray_session, pages_table):
        """Per-tier series assembled from DuckDB bucket tables."""
        import ray.data as rd

        from matrixprofile_ray.pipelines.timeseries import series_from_buckets

        return {
            tier: series_from_buckets(
                rd.from_pandas(_sql_buckets(pages_table, TIERS[tier])),
                TIERS[tier], key="domain", tier=tier,
            ).to_pandas().sort_values("domain").reset_index(drop=True)
            for tier in self.TIERS
        }

    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    def test_fused_equals_per_tier(self, pages_table, per_tier, shuffle):
        """Under the task exchange small clusters take (id ``sort``) and
        under the HASH_SHUFFLE path ``ensure_hash_shuffle`` picks at ≥8
        CPUs."""
        import ray.data as rd

        from matrixprofile_ray.pipelines.flagship import series_all_tiers
        from matrixprofile_ray.util import _hash_shuffle_active

        ctx = _hash_shuffle_ctx() if shuffle == "hash" else contextlib.nullcontext()
        with ctx:
            assert _hash_shuffle_active() == (shuffle == "hash")
            # many small blocks: every bucket's partials span several
            # blocks; built here because Ray snapshots the DataContext
            # when the source dataset is created
            ds = rd.from_arrow([pages_table.slice(i, 100)
                                for i in range(0, N_PAGES, 100)])
            fused = series_all_tiers(ds, tiers=self.TIERS).to_pandas()
        assert set(fused["tier"]) == set(self.TIERS)
        for tier in self.TIERS:
            got = (
                fused[fused["tier"] == tier]
                .sort_values("domain").reset_index(drop=True)
            )
            want = per_tier[tier]
            assert got["domain"].tolist() == want["domain"].tolist()
            np.testing.assert_array_equal(got["n"], want["n"])
            np.testing.assert_array_equal(got["n_gaps"], want["n_gaps"])
            np.testing.assert_array_equal(got["start_ts"], want["start_ts"])
            for g, w in zip(got["values"], want["values"]):
                assert np.asarray(g, dtype="d").tobytes() == (
                    np.asarray(w, dtype="d").tobytes()
                )


class TestGapfill:
    def test_dense_grid_and_values(self):
        from matrixprofile_ray.stages.gapfill import assemble_series_row

        out = assemble_series_row(
            "d", np.array([0, 3000, 5000]), np.array([10.0, 20.0, 30.0]),
            1000, "raw", add_noise=False,
        )
        assert out["n"] == 6
        values = out["values"]
        assert values[0] == 10.0 and values[3] == 20.0 and values[5] == 30.0
        assert np.all(np.isfinite(values))
        assert out["n_gaps"] == 3

    def test_truncation_cap(self):
        from matrixprofile_ray.stages.gapfill import assemble_series_row

        out = assemble_series_row(
            "d", np.array([0, 10_000_000]), np.array([1.0, 2.0]), 1000,
            "raw", max_buckets=100,
        )
        assert out["n"] == 100
        assert out["truncated"]

    def test_series_through_ray(self, ray_session, pages_ds):
        from matrixprofile_ray.pipelines.flagship import series_all_tiers

        series = series_all_tiers(pages_ds, tiers=("1d",)).to_pandas()
        # one row per domain, dense grid
        assert series["domain"].is_unique
        for _, row in series.iterrows():
            assert len(row["values"]) == row["n"]
            assert np.all(np.isfinite(np.asarray(row["values"])))


@st.composite
def _bucket_frames(draw):
    """Bucket rows of up to 8 keys: some keys have one bucket, and a key
    may repeat the buckets of the key before it in sorted order."""
    keys = sorted(draw(st.lists(st.text("abc", min_size=1, max_size=3),
                                min_size=1, max_size=8, unique=True)))
    rows, prev = [], None
    for k in keys:
        if prev is not None and draw(st.booleans()):
            buckets = prev
        else:
            buckets = draw(st.lists(st.integers(0, 30), min_size=1,
                                    max_size=12, unique=True))
        rows += [(k, b * 1000, draw(st.integers(1, 50))) for b in buckets]
        prev = buckets
    frame = pd.DataFrame(rows, columns=["domain", "bucket_ts", "count"])
    return frame, draw(st.integers(0, 2**31 - 1))


class TestAssembleSeries:
    @settings(max_examples=60, deadline=None)
    @given(case=_bucket_frames())
    def test_equals_per_key_loop(self, case):
        """The split at key changes gives, key by key, what one
        ``assemble_series_row`` call per key gives."""
        from matrixprofile_ray.stages.gapfill import (assemble_series,
                                                      assemble_series_row)

        df, seed = case
        shuffled = df.sample(frac=1, random_state=seed)
        part = shuffled.sort_values(["domain", "bucket_ts"], kind="stable")
        got = assemble_series(part, "domain", "count", 1000, "1h")
        want = []
        for k in sorted(set(df["domain"])):
            g = df[df["domain"] == k].sort_values("bucket_ts")
            want.append({"domain": k, **assemble_series_row(
                k, g["bucket_ts"].to_numpy(dtype=np.int64),
                g["count"].to_numpy(dtype=np.float64), 1000, "1h")})
        want = pd.DataFrame(want)
        # the key first, under the caller's name
        assert list(got.columns) == list(want.columns)
        for col in got.columns.drop("values"):
            assert got[col].tolist() == want[col].tolist(), col
        for g, w in zip(got["values"], want["values"]):
            assert g.tobytes() == w.tobytes()


    def test_empty_input_is_typed(self, pages_table):
        """No rows, or only null-key rows, give zero series rows with the
        columns a non-empty fold has."""
        from matrixprofile_ray.pipelines.flagship import fold_tiers
        from matrixprofile_ray.stages.gapfill import assemble_series
        from matrixprofile_ray.stages.rollup import partial_rollup

        tiers = ("1h", "1d")
        partials = partial_rollup(pages_table, TIERS["1h"]).to_pandas()
        full = fold_tiers(partials, tiers)
        null = fold_tiers(partials.assign(domain=None), tiers)
        empty = assemble_series(partials.iloc[:0], "domain", "count",
                                TIERS["1h"], "1h")
        for out in (null, empty):
            assert len(out) == 0
            assert list(out.columns) == list(full.columns)
            assert out.dtypes.drop("values").equals(
                full.dtypes.drop("values"))


class TestGorillaStage:
    def test_roundtrip_through_ray(self, ray_session, pages_ds):
        from matrixprofile_ray.pipelines.flagship import series_all_tiers
        from matrixprofile_ray.stages.encode import decode_series, encode_series

        series = series_all_tiers(pages_ds, tiers=("1d",)).materialize()
        enc = series.map_batches(encode_series, batch_format="pandas")
        dec = enc.map_batches(decode_series, batch_format="pandas").to_pandas()
        orig = series.to_pandas().set_index("domain")
        dec = dec.set_index("domain")
        assert set(dec.index) == set(orig.index)
        for d in orig.index:
            np.testing.assert_array_equal(
                np.asarray(dec.loc[d, "values"]),
                np.asarray(orig.loc[d, "values"]),
            )
        # compression works on the real workload shape
        stats = enc.to_pandas()
        assert stats["enc_bytes"].sum() < stats["raw_bytes"].sum()


class TestFlagshipSmoke:
    def test_end_to_end_1d(self, ray_session, pages_ds):
        from matrixprofile_ray.pipelines.flagship import flagship

        res = flagship(pages_ds, window=8, tiers=("1d",), profile_concurrency=2)
        profiles = res["profiles"].to_pandas()
        assert len(profiles) > 0
        # profile length invariant: len(mp) == n - w + 1 (reference core.py:121-138)
        for _, row in profiles.iterrows():
            assert len(row["mp"]) == row["n"] - row["w"] + 1
            assert len(row["pi"]) == len(row["mp"])
        discoveries = res["discoveries"].to_pandas()
        assert set(discoveries["kind"]).issubset({"motif", "discord", "regime"})
        assert (discoveries["score"] >= 0).all()


def _split_blocks(ds) -> list[pd.DataFrame]:
    """The non-empty blocks of ``ds`` in block order, as pandas."""
    import ray

    out = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                blk = ray.get(ref)
                out.append(blk if isinstance(blk, pd.DataFrame)
                           else blk.to_pandas())
    return out


class TestProfileSplit:
    """``ProfileStage.split``: contiguous pieces of equal estimated cells,
    row order kept, no exchange."""

    W = 8

    def _check(self, stage, series, concurrency, ids, n):
        import ray

        blocks = _split_blocks(stage.split(series, concurrency))
        got = np.concatenate([b["id"].to_numpy() for b in blocks]) if blocks else []
        np.testing.assert_array_equal(got, ids)
        cells = stage.cells(n)
        k = min(concurrency, int(ray.cluster_resources()["CPU"]))
        bound = cells.sum() / k + (cells.max() if len(cells) else 0)
        for b in blocks:
            assert stage.cells(b["n"].to_numpy()).sum() <= bound

    @settings(max_examples=12, deadline=None)
    @given(n=st.lists(st.integers(1, 300), min_size=1, max_size=40),
           n_blocks=st.integers(1, 4), concurrency=st.integers(1, 8))
    def test_blocks_cover_rows_in_order_and_balance(
            self, ray_session, n, n_blocks, concurrency):
        import ray.data as rd

        from matrixprofile_ray.stages.profile import ProfileStage

        df = pd.DataFrame({"id": np.arange(len(n)), "n": n})
        bounds = np.linspace(0, len(df), n_blocks + 1).astype(int)
        series = rd.from_pandas(
            [df.iloc[a:b] for a, b in zip(bounds, bounds[1:])]).materialize()
        self._check(ProfileStage(window=self.W), series, concurrency,
                    df["id"].to_numpy(), np.asarray(n))

    def test_more_pieces_than_rows(self, ray_session):
        import ray.data as rd

        from matrixprofile_ray.stages.profile import ProfileStage

        df = pd.DataFrame({"id": [0, 1], "n": [100, 40]})
        self._check(ProfileStage(window=self.W),
                    rd.from_pandas(df).materialize(), 4, [0, 1], df["n"])

    def test_every_row_skipped(self, ray_session):
        import ray.data as rd

        from matrixprofile_ray.stages.profile import ProfileStage

        df = pd.DataFrame({"id": [0, 1, 2], "n": [3, 5, 7]})
        series = rd.from_pandas(df).materialize()
        stage = ProfileStage(window=self.W)
        assert stage.split(series, 4) is series
        self._check(stage, series, 4, [0, 1, 2], df["n"])

    def test_piece_spanning_blocks_is_one_block(self, ray_session):
        """A piece that spans input blocks becomes one block: a 3-block
        series at k = 2 gives 2 blocks (2 tasks), rows in order."""
        import ray.data as rd

        from matrixprofile_ray.stages.profile import ProfileStage

        df = pd.DataFrame({"id": np.arange(30), "n": np.full(30, 100)})
        series = rd.from_pandas(
            [df.iloc[0:10], df.iloc[10:20], df.iloc[20:30]]).materialize()
        stage = ProfileStage(window=self.W)
        blocks = _split_blocks(stage.split(series, 2))
        assert [len(b) for b in blocks] == [15, 15]
        self._check(stage, series, 2, df["id"].to_numpy(), df["n"])

    def test_row_larger_than_a_piece_stands_alone(self, ray_session):
        """A row with more than total/k cells is not merged with the rows
        after it: they still run as a task of their own."""
        import ray.data as rd

        from matrixprofile_ray.stages.profile import ProfileStage

        n = np.full(32, 40)
        n[0] = 3000
        df = pd.DataFrame({"id": np.arange(32), "n": n})
        stage = ProfileStage(window=self.W)
        blocks = _split_blocks(stage.split(rd.from_pandas(df).materialize(), 4))
        assert [b["id"].tolist() for b in blocks] == [[0], list(range(1, 32))]
        self._check(stage, rd.from_pandas(df).materialize(), 4,
                    df["id"].to_numpy(), n)

    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    def test_fold_output_with_fewer_keys_than_partitions(
            self, ray_session, shuffle):
        """An exchange's output holds empty (under HASH_SHUFFLE zero-row,
        zero-column) blocks; the split and both stages take them."""
        import ray.data as rd

        from matrixprofile_ray.stages.discovery import DiscoveryStage
        from matrixprofile_ray.stages.profile import ProfileStage
        from matrixprofile_ray.util import partitioned_group_map

        def fold(part):
            rng = np.random.default_rng(len(part))
            return pd.DataFrame([
                {"domain": d, "tier": "1h", "start_ts": 0, "bucket_us": 1,
                 "n": int(g["m"].sum()),
                 "values": rng.normal(size=int(g["m"].sum()))}
                for d, g in part.groupby("domain")])

        src = pd.DataFrame({"domain": ["a", "b", "c", "a"],
                            "m": [30, 80, 12, 50]})
        ctx = _hash_shuffle_ctx() if shuffle == "hash" else contextlib.nullcontext()
        with ctx:
            series = partitioned_group_map(
                rd.from_pandas([src.iloc[:2], src.iloc[2:]]), ["domain"],
                fold, num_partitions=16).materialize()
            stage = ProfileStage(window=self.W)
            profiles = stage.split(series, 4).map_batches(
                stage, batch_format="pandas", batch_size=None).materialize()
            disc = profiles.map_batches(
                DiscoveryStage(), batch_format="pandas",
                batch_size=None).to_pandas()
            got = profiles.to_pandas()
        # "c" (12 points) is shorter than the stage's floor, 2w = 16
        assert sorted(got["domain"]) == ["a", "b"]
        assert sorted(got["n"]) == [80, 80]
        assert set(disc["domain"]) == {"a", "b"}


class TestFlagshipConcurrency:
    @pytest.mark.parametrize("shuffle", ["sort", "hash"])
    def test_profiles_and_discoveries_do_not_depend_on_it(
            self, ray_session, pages_table, shuffle):
        import ray.data as rd

        from matrixprofile_ray.pipelines.flagship import flagship

        def run(concurrency):
            # a source made inside the context runs on its shuffle path
            res = flagship(rd.from_arrow(pages_table), window=8,
                           tiers=("1h", "1d"),
                           profile_concurrency=concurrency)
            return tuple(
                res[name].to_pandas().sort_values(keys, kind="stable")
                .reset_index(drop=True)
                for name, keys in (
                    ("profiles", ["domain", "tier"]),
                    ("discoveries", ["domain", "tier", "kind", "rank"])))

        ctx = _hash_shuffle_ctx() if shuffle == "hash" else contextlib.nullcontext()
        with ctx:
            want = run(1)
            assert len(want[0]) > 0 and len(want[1]) > 0
            for concurrency in (2, 4):
                for g, w in zip(run(concurrency), want):
                    assert list(g.columns) == list(w.columns)
                    for col in g.columns:
                        for a, b in zip(g[col], w[col]):
                            if isinstance(a, np.ndarray):
                                assert a.tobytes() == b.tobytes()
                            else:
                                assert a == b or (a is None and b is None)


class TestParquetCorpusPath:
    def test_write_read_column_pruned(self, ray_session, tmp_path):
        """The 100TB input path: corpus parquet → pruned read → rollup."""
        import ray.data as rd

        from matrixprofile_ray.sources.pages import pages_parquet
        from matrixprofile_ray.stages.rollup import rollup_partials

        corpus = str(tmp_path / "corpus")
        pages_parquet(corpus, 2000)
        pruned = rd.read_parquet(
            corpus, columns=["url", "warc_ts", "html", "text"]
        )
        assert set(pruned.schema().names) == {"url", "warc_ts", "html", "text"}
        got = _merged(rollup_partials(pruned, "1d"))
        # must equal the in-flight generated rollup
        want = _merged(rollup_partials(pages_dataset(2000), "1d"))
        _assert_same_counts(got, want)
