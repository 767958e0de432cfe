"""Driver-contract smoke: entry()/queries()/oracle_sql() shape and a fast
subset of oracle comparisons at sf0.001 (the full gate runs at sf0.01)."""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"

needs_testdata = pytest.mark.skipif(
    not os.path.isdir(SF), reason="driver testdata not present"
)


def _to_df(res):
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


@needs_testdata
class TestContract:
    def test_entry_runs(self, ray_session):
        import __ray_entry__ as e

        df = _to_df(e.entry())
        assert len(df) >= 0
        assert {"event_type", "kind", "rank", "idx"} <= set(df.columns)

    def test_every_oracle_key_has_query(self):
        import __ray_entry__ as e

        assert set(e.oracle_sql()) <= set(e.queries())

    def test_rollup_1h_matches_duckdb(self, ray_session):
        import duckdb

        import __ray_entry__ as e

        got = _to_df(e.queries()["rollup_1h"](SF))
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'"
        )
        want = con.execute(e.oracle_sql()["rollup_1h"]).df()
        got = got.sort_values(["event_type", "bucket_ts"]).reset_index(drop=True)
        want = want.sort_values(["event_type", "bucket_ts"]).reset_index(drop=True)
        assert len(got) == len(want)
        np.testing.assert_array_equal(got["count"], want["count"])
        for col in ("sum_value", "min_value", "max_value", "mean_value"):
            np.testing.assert_array_equal(
                got[col].to_numpy(), want[col].to_numpy(), err_msg=col)

    def test_dedup_exact_matches_duckdb(self, ray_session):
        import duckdb

        import __ray_entry__ as e

        got = _to_df(e.queries()["dedup_exact"](SF))
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
        )
        want = con.execute(e.oracle_sql()["dedup_exact"]).df()
        got = got.sort_values("doc_id").reset_index(drop=True)
        want = want.sort_values("doc_id").reset_index(drop=True)
        np.testing.assert_array_equal(got["doc_id"], want["doc_id"])
        np.testing.assert_array_equal(got["dup_count"], want["dup_count"])


@needs_testdata
class TestBruteMpOracleKernel:
    def test_brute_w4_matches_mpx(self):
        """The oracle-visible brute MP (w=4, ez=1) must agree with the
        production mpx kernel on the same series — linking the DuckDB
        oracle gate to the O(n) kernel the flagship actually runs."""
        import matrixprofile_ray.core as core
        from __ray_entry__ import _brute_mp_w4

        rng = np.random.default_rng(17)
        c = np.round(rng.gamma(3.0, 10.0, size=300))  # count-like series
        idx, mp_brute, pi_brute = _brute_mp_w4(c)
        assert len(idx) == len(c) - 3  # no constant windows in this draw
        mp, pi = core.mpx(c, 4)
        np.testing.assert_allclose(mp_brute, mp[idx], atol=2e-6)
        # neighbor indices agree wherever the nearest neighbor is unique
        # at 6-decimal resolution
        unique = np.abs(mp_brute - np.round(mp[idx], 6)) < 1e-9
        agree = (pi_brute == pi[idx]) | ~unique
        assert agree.mean() > 0.95

    def test_constant_windows_dropped(self):
        from __ray_entry__ import _brute_mp_w4

        c = np.array([5.0] * 4 + [1, 9, 2, 8, 3, 7, 4, 6, 1, 9], dtype="d")
        res = _brute_mp_w4(c)
        assert res is not None
        idx, mp, pi = res
        assert 0 not in idx  # the all-constant leading window is dropped


class TestSnippetsBruteMirror:
    def test_mirror_matches_core_snippets(self):
        """The oracle-visible snippet mirror (s=8, w=4) must pick the same
        snippet indices as the production core.snippets kernel on a
        constant-window-free series (where the kernel's FFT mass2 path is
        well-defined) — the link from the DuckDB greedy-cover gate to the
        real kernel. Driver count series always carry constant windows,
        so this is the test that keeps the in-query assert honest."""
        import matrixprofile_ray.core as core
        from __ray_entry__ import _snippets_brute_key

        rng = np.random.default_rng(23)
        c = np.round(rng.gamma(3.0, 10.0, size=200)) + np.linspace(
            0, 0.5, 200
        )  # the ramp guarantees no constant w=4 window
        res = _snippets_brute_key(c, 8)
        assert res is not None
        found, had_const = res
        assert not had_const
        m = (len(c) // 8) * 8
        prod = core.snippets(c[:m], 8, num_snippets=2, window_size=4)
        assert [p["index"] for p in prod] == [f[1] for f in found]
        # fractions in (0, 1], ranks 0 and 1
        assert [f[0] for f in found] == [0, 1]
        assert all(0 < f[2] <= 1.0 + 1e-9 for f in found)

    def test_mirror_matches_duckdb_sql(self):
        """End-to-end: the SQL chain and the numpy mirror agree exactly
        on a synthetic events table (tiny, in-memory DuckDB)."""
        import duckdb

        from __ray_entry__ import (
            H1,
            _round6_away_arr,
            _snippets_brute_key,
            _snippets_sql,
        )

        rng = np.random.default_rng(4)
        n = 64
        ts = pd.to_datetime(
            np.repeat(np.arange(n), rng.integers(1, 6, size=n))
            * 3_600_000_000, unit="us"
        )
        events = pd.DataFrame({
            "event_type": "a", "ts": ts, "value": 1.0,
        })
        con = duckdb.connect()
        con.register("events", events)
        oracle = con.execute(_snippets_sql(8)).df()
        counts = events.groupby(
            events["ts"].astype("int64") // (H1 * 1000)
        ).size().to_numpy(dtype="d")
        found, _ = _snippets_brute_key(counts, 8)
        assert list(oracle["idx"]) == [f[1] for f in found]
        np.testing.assert_array_equal(
            oracle["fraction"].to_numpy(),
            _round6_away_arr([f[2] for f in found]),
        )


class TestSuppressedPicksMatchProduction:
    """The chained-CTE oracle mirrors (q_discords_1h / q_regimes_1h) pick
    with (value, idx) tie-break + reference suppression; the production
    loops must choose identically on tie-free inputs."""

    def test_discords(self):
        import matrixprofile_ray.core as core
        from __ray_entry__ import _suppressed_picks

        rng = np.random.default_rng(2)
        vals = np.round(rng.permutation(np.arange(300)) / 300.0, 6)
        idx = np.arange(300)
        pi = rng.integers(0, 300, size=300)
        picks = _suppressed_picks(idx, vals, pi, 3, 1, largest=True,
                                  end_exclusive=True, mask_pair=False)
        prod = core.top_k_discords(vals, 4, exclusion_zone=1, k=3)
        assert [int(idx[x]) for x in picks] == [int(v) for v in prod]

    def test_regimes(self):
        import matrixprofile_ray.core as core
        from __ray_entry__ import _suppressed_picks

        rng = np.random.default_rng(3)
        cac = np.round(rng.random(400), 6)
        p = np.arange(400)
        picks = _suppressed_picks(p, cac, p, 3, 20, largest=False,
                                  end_exclusive=True, mask_pair=False)
        prod = core.extract_regimes(cac, window_size=4, num_regimes=3)
        assert [int(p[x]) for x in picks] == [int(v) for v in prod[:len(picks)]]


class TestGeneralizedMirrorHelpers:
    def test_zwin_any_w4_bitwise_equals_zwin_w4(self):
        from __ray_entry__ import _brute_dist_any, _brute_dist_w4, _zwin_any, _zwin_w4

        rng = np.random.default_rng(7)
        c = np.round(rng.gamma(3.0, 8.0, size=200))
        c[50:55] = 4.0      # a constant run
        i4, z4 = _zwin_w4(c)
        ia, za = _zwin_any(c, 4)
        np.testing.assert_array_equal(i4, ia)
        for a, b in zip(z4, za):
            np.testing.assert_array_equal(a, b)    # bitwise
        np.testing.assert_array_equal(
            _brute_dist_w4(z4, z4), _brute_dist_any(za, za)
        )

    def test_brute_any_w5_matches_mpx(self):
        """w=5 mirror (ez = ceil(5/4) = 2) vs the production kernel —
        the pmp_1h oracle's second window."""
        import matrixprofile_ray.core as core
        from __ray_entry__ import _brute_mp_any

        rng = np.random.default_rng(12)
        c = np.round(rng.gamma(3.0, 10.0, size=260))
        res = _brute_mp_any(c, 5, ez=2, min_len=9)
        assert res is not None
        idx, mp, pi = res
        assert len(idx) == len(c) - 4      # no constant windows drawn
        prod, _ = core.mpx(c, 5)
        np.testing.assert_allclose(mp, np.round(prod[idx], 6), atol=5e-6)

    def test_stomp_ez2_mirror_exact_with_constants(self):
        """profile_stomp_1h's strongest claim: with the constant-window
        NaN policy, stomp's candidate set equals the ez=2 mirror's even
        when constant windows exist."""
        import matrixprofile_ray.core as core
        from __ray_entry__ import _brute_mp_any, _round6_away_arr

        rng = np.random.default_rng(13)
        c = np.round(rng.gamma(2.0, 3.0, size=240))
        c[60:68] = 5.0
        res = _brute_mp_any(c, 4, ez=2, min_len=8)
        idx, mp, pi = res
        assert len(idx) < len(c) - 3       # constants actually dropped
        prof = core.stomp(c, 4)
        fmp = np.asarray(prof["mp"], dtype="d")[idx]
        assert np.isfinite(fmp).all()
        np.testing.assert_allclose(_round6_away_arr(fmp), mp, atol=5e-6)


class TestDriverPrefixInvariant:
    def test_first_50_queries_all_oracle_backed(self):
        """The driver's correctness gate samples exactly the FIRST 50
        entries of queries() in dict order — every one of them must have
        an oracle_sql() entry or a driver slot is wasted on a weaker
        rows-only check."""
        import __ray_entry__ as e

        names = list(e.queries())
        oracles = set(e.oracle_sql())
        missing = [n for n in names[:50] if n not in oracles]
        assert missing == [], f"non-oracle queries inside the prefix: {missing}"


class TestClusterBruteMirror:
    def test_threshold_cut_equals_dendrogram_cut(self):
        """The SQL-expressible threshold-components rule (components of
        edges d <= v*, v* = largest distance leaving >= 2 components)
        must equal the single-linkage maxclust-2 dendrogram cut for
        distinct distances — the equivalence q_cluster_events_brute_1h's
        in-query assert relies on."""
        import itertools

        import matrixprofile_ray.core as core

        rng = np.random.default_rng(11)
        for trial in range(30):
            m = int(rng.integers(3, 8))
            condensed = rng.permutation(np.arange(1, m * (m - 1) // 2 + 1)
                                        ).astype("d")
            keys = [f"k{i}" for i in range(m)]
            pairs = [(keys[i], keys[j], condensed[k])
                     for k, (i, j) in enumerate(
                         itertools.combinations(range(m), 2))]

            def comps(vmax):
                lab = {k: k for k in keys}
                edges = [(a, b) for a, b, d in pairs if d <= vmax]
                changed = True
                while changed:
                    changed = False
                    for a, b in edges:
                        mm = min(lab[a], lab[b])
                        if lab[a] != mm or lab[b] != mm:
                            lab[a] = lab[b] = mm
                            changed = True
                return lab

            best = None
            for v in sorted({d for _, _, d in pairs}):
                if len(set(comps(v).values())) >= 2:
                    best = v
            lab = comps(best)
            got = {frozenset(k for k, r in lab.items() if r == rep)
                   for rep in set(lab.values())}
            Z = core.linkage(condensed, method="single")
            fl = core.fcluster(Z, 2)
            want = {frozenset(k for k, c in zip(keys, fl) if c == cid)
                    for cid in set(fl)}
            assert want == got, trial
            assert len(got) == 2

    def test_query_runs_and_labels_normalized(self, ray_session):
        from __ray_entry__ import q_cluster_events_brute_1h

        out = q_cluster_events_brute_1h("/root/testdata/sf0.001")
        assert list(out.columns) == ["event_type", "cluster_rep"]
        assert len(out) == 5
        # every cluster label is the lexicographically smallest member
        for rep, grp in out.groupby("cluster_rep"):
            assert rep == grp["event_type"].min()
        assert out["cluster_rep"].nunique() >= 2
