"""Ray Data pipeline tests: corpus determinism, extraction oracle, rollup
vs DuckDB, gap-fill, Gorilla stage round-trip, flagship smoke.

Small inputs (≤5k pages) so the whole module runs in well under a minute on
4 CPUs; correctness of the wide stages is checked against DuckDB as an
independent SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from matrixprofile_ray.sources.pages import generate_pages, pages_dataset
from matrixprofile_ray.stages.extract import add_domain, extract_text, verify_extraction
from matrixprofile_ray.stages.rollup import TIERS

N_PAGES = 4000


@pytest.fixture(scope="module")
def pages_table() -> pa.Table:
    return generate_pages(np.arange(N_PAGES))


@pytest.fixture(scope="module")
def pages_ds(ray_session):
    return pages_dataset(N_PAGES)


class TestCorpusDeterminism:
    def test_block_size_independent(self, pages_table):
        """Same rows regardless of how indices are batched."""
        a = generate_pages(np.arange(100))
        parts = [generate_pages(np.arange(i, i + 20)) for i in range(0, 100, 20)]
        b = pa.concat_tables(parts)
        assert a.equals(b)

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
    def test_tier_matches_sql(self, ray_session, pages_ds, pages_table, tier):
        import duckdb

        from matrixprofile_ray.stages.rollup import rollup_tier

        got = (
            rollup_tier(pages_ds, tier)
            .to_pandas()
            .sort_values(["domain", "bucket_ts"])
            .reset_index(drop=True)
        )
        bucket_us = TIERS[tier]
        con = duckdb.connect()
        con.register("pages", pages_table)
        want = con.execute(
            f"""
            SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS domain,
                   (epoch_us(warc_ts) // {bucket_us}) * {bucket_us} AS bucket_ts,
                   count(*) AS count,
                   sum(octet_length(html)) AS bytes,
                   sum(length(text)) AS sum_len,
                   min(length(text)) AS min_len,
                   max(length(text)) AS max_len,
                   avg(length(text)) AS mean_len
            FROM pages GROUP BY 1, 2 ORDER BY 1, 2
            """
        ).df()
        assert len(got) == len(want)
        np.testing.assert_array_equal(got["domain"], want["domain"])
        np.testing.assert_array_equal(got["bucket_ts"], want["bucket_ts"])
        np.testing.assert_array_equal(got["count"], want["count"])
        np.testing.assert_array_equal(got["bytes"], want["bytes"])
        np.testing.assert_almost_equal(got["mean_len"].to_numpy(), want["mean_len"].to_numpy())

    def test_cascade_equals_direct(self, ray_session, pages_ds):
        """1d from the 1h table == 1d straight from pages."""
        from matrixprofile_ray.stages.rollup import cascade_tier, rollup_tier

        h1 = rollup_tier(pages_ds, "1h").materialize()
        via_cascade = (
            cascade_tier(h1, "1d").to_pandas()
            .sort_values(["domain", "bucket_ts"]).reset_index(drop=True)
        )
        direct = (
            rollup_tier(pages_ds, "1d").to_pandas()
            .sort_values(["domain", "bucket_ts"]).reset_index(drop=True)
        )
        for col in ("count", "bytes", "sum_len", "min_len", "max_len"):
            np.testing.assert_array_equal(via_cascade[col], direct[col])
        np.testing.assert_almost_equal(
            via_cascade["mean_len"].to_numpy(), direct["mean_len"].to_numpy()
        )
        np.testing.assert_almost_equal(
            via_cascade["std_len"].to_numpy(), direct["std_len"].to_numpy()
        )


class TestFusedSeriesEquivalence:
    """The flagship's fused one-shuffle path vs the unfused per-tier path
    (bucket tables, then one series assembly per tier)."""

    TIERS = ("1h", "1d", "7d")

    @pytest.fixture(scope="class")
    def blocky_ds(self, ray_session, pages_ds):
        # many small blocks: every bucket's partials span several blocks
        ds = pages_ds.repartition(40).materialize()
        assert ds.num_blocks() == 40
        return ds

    def test_partials_reach_exchange_coalesced(self, blocky_ds):
        from matrixprofile_ray.stages.rollup import COALESCE_ROWS, rollup_partials

        partials = rollup_partials(blocky_ds, "1h").materialize()
        assert partials.count() > 0
        assert partials.num_blocks() <= -(-partials.count() // COALESCE_ROWS)

    def test_fold_merges_partials_across_blocks(self, pages_table):
        """At test scale the coalesce already merges every bucket, so feed
        the fold per-block partials directly."""
        from matrixprofile_ray.stages.domain_pipeline import DomainPipeline
        from matrixprofile_ray.stages.rollup import partial_rollup

        grain = TIERS[self.TIERS[0]]
        whole = partial_rollup(pages_table, grain).to_pandas()
        split = pd.concat([
            partial_rollup(pages_table.slice(i, 500), grain).to_pandas()
            for i in range(0, N_PAGES, 500)
        ])
        assert len(split) > len(whole)
        fold = DomainPipeline(tiers=self.TIERS).process_partition
        got, want = (
            fold(df).sort_values(["domain", "tier"]).reset_index(drop=True)
            for df in (split, whole)
        )
        assert got[["domain", "tier", "n", "n_gaps"]].equals(
            want[["domain", "tier", "n", "n_gaps"]]
        )
        for g, w in zip(got["values"], want["values"]):
            assert g.tobytes() == w.tobytes()

    def test_fused_equals_per_tier(self, blocky_ds):
        from matrixprofile_ray.pipelines.flagship import (
            bucket_tiers,
            series_all_tiers,
            series_for_tier,
        )

        fused = series_all_tiers(blocky_ds, tiers=self.TIERS).to_pandas()
        buckets = bucket_tiers(blocky_ds, tiers=self.TIERS)
        assert set(fused["tier"]) == set(self.TIERS)
        for tier in self.TIERS:
            got = (
                fused[fused["tier"] == tier]
                .sort_values("domain").reset_index(drop=True)
            )
            want = (
                series_for_tier(buckets[tier], tier).to_pandas()
                .sort_values("domain").reset_index(drop=True)
            )
            assert got["domain"].tolist() == want["domain"].tolist()
            np.testing.assert_array_equal(got["n"], want["n"])
            np.testing.assert_array_equal(got["n_gaps"], want["n_gaps"])
            for g, w in zip(got["values"], want["values"]):
                assert np.asarray(g, dtype="d").tobytes() == (
                    np.asarray(w, dtype="d").tobytes()
                )


class TestGapfill:
    def test_dense_grid_and_values(self):
        from matrixprofile_ray.stages.gapfill import assemble_series

        bucket_us = 1000
        group = pd.DataFrame(
            {
                "domain": ["d"] * 3,
                "bucket_ts": [0, 3000, 5000],
                "count": [10.0, 20.0, 30.0],
            }
        )
        out = assemble_series(group, bucket_us, "raw", add_noise=False)
        assert out["n"].iloc[0] == 6
        values = out["values"].iloc[0]
        assert values[0] == 10.0 and values[3] == 20.0 and values[5] == 30.0
        assert np.all(np.isfinite(values))
        assert out["n_gaps"].iloc[0] == 3

    def test_truncation_cap(self):
        from matrixprofile_ray.stages.gapfill import assemble_series

        group = pd.DataFrame(
            {
                "domain": ["d", "d"],
                "bucket_ts": [0, 10_000_000],
                "count": [1.0, 2.0],
            }
        )
        out = assemble_series(group, 1000, "raw", max_buckets=100)
        assert out["n"].iloc[0] == 100
        assert bool(out["truncated"].iloc[0])

    def test_series_through_ray(self, ray_session, pages_ds):
        from matrixprofile_ray.pipelines.flagship import bucket_tiers, series_for_tier

        buckets = bucket_tiers(pages_ds, tiers=("1d",))["1d"]
        series = series_for_tier(buckets, "1d").to_pandas()
        # one row per domain, dense grid
        assert series["domain"].is_unique
        for _, row in series.iterrows():
            assert len(row["values"]) == row["n"]
            assert np.all(np.isfinite(np.asarray(row["values"])))


class TestGorillaStage:
    def test_roundtrip_through_ray(self, ray_session, pages_ds):
        from matrixprofile_ray.pipelines.flagship import bucket_tiers, series_for_tier
        from matrixprofile_ray.stages.encode import decode_series, encode_series

        buckets = bucket_tiers(pages_ds, tiers=("1d",))["1d"]
        series = series_for_tier(buckets, "1d").materialize()
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


class TestParquetCorpusPath:
    def test_write_read_column_pruned(self, ray_session, tmp_path):
        """The 100TB input path: corpus parquet → pruned read → rollup."""
        import ray.data as rd

        from matrixprofile_ray.sources.pages import pages_parquet
        from matrixprofile_ray.stages.rollup import rollup_tier

        corpus = str(tmp_path / "corpus")
        pages_parquet(corpus, 2000)
        pruned = rd.read_parquet(
            corpus, columns=["url", "warc_ts", "html", "text"]
        )
        assert set(pruned.schema().names) == {"url", "warc_ts", "html", "text"}
        got = rollup_tier(pruned, "1d").to_pandas()
        # must equal the in-flight generated rollup
        want = rollup_tier(pages_dataset(2000), "1d").to_pandas()
        got = got.sort_values(["domain", "bucket_ts"]).reset_index(drop=True)
        want = want.sort_values(["domain", "bucket_ts"]).reset_index(drop=True)
        np.testing.assert_array_equal(got["count"], want["count"])
        np.testing.assert_array_equal(got["bytes"], want["bytes"])
