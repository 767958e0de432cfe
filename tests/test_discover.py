"""Discovery-operator parity with the reference's behavioral fixtures.

Fixtures from reference tests/test_top_k_discords.py:20-63,
tests/test_regimes.py:25-42, tests/test_snippets.py:23-53,
tests/test_annotation_vector.py.
"""

from __future__ import annotations

import numpy as np

import matrixprofile_ray.core as core
from matrixprofile_ray.core.transform import make_complexity_av


class TestTopKDiscords:
    def test_all_same_with_ez(self):
        discords = core.top_k_discords(np.ones(10), 4, exclusion_zone=2)
        np.testing.assert_array_equal(discords, [9, 6, 3])

    def test_no_exclusion(self):
        discords = core.top_k_discords(
            np.array([1.0, 2, 3, 4]), 4, exclusion_zone=0, k=3
        )
        np.testing.assert_array_equal(discords, [3, 2, 1])

    def test_no_exclusion_all(self):
        discords = core.top_k_discords(
            np.array([1.0, 2, 3, 4]), 4, exclusion_zone=0, k=4
        )
        np.testing.assert_array_equal(discords, [3, 2, 1, 0])

    def test_exclude_one(self):
        discords = core.top_k_discords(
            np.array([1.0, 2, 3, 4]), 4, exclusion_zone=1, k=4
        )
        np.testing.assert_array_equal(discords, [3, 1])


class TestRegimes:
    def test_sampledata_regimes(self, sampledata):
        _, pi = core.mpx(sampledata, 32)
        cac = core.fluss(pi, 32)
        np.testing.assert_array_equal(
            core.extract_regimes(cac, 32, 3), [759, 423, 583]
        )
        np.testing.assert_array_equal(
            core.extract_regimes(cac, 32, 2), [759, 423]
        )

    def test_fluss_warns_nothing(self, sampledata):
        """The idealized arc curve is 0 at index 0; that entry is
        overwritten, so its 0/0 (and -1/0 when pi[0] == 0) must not warn,
        and the CAC keeps its bytes (sha256 of the CAC before the
        division was silenced)."""
        import hashlib
        import warnings

        _, pi = core.mpx(sampledata, 32)
        pi0 = np.random.default_rng(3).integers(0, 200, 200)
        pi0[0] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cac = core.fluss(pi, 32)
            cac0 = core.fluss(pi0, 8)
        np.testing.assert_array_equal(
            core.extract_regimes(cac, 32, 3), [759, 423, 583]
        )
        assert hashlib.sha256(cac0.tobytes()).hexdigest() == (
            "3324fa8ed35b0d72ef0e9dbbdeb8b62a261cf3e0bd94643aaadba569b036ce0a"
        )


class TestMotifs:
    def test_all_inf_returns_empty(self):
        motifs = core.top_k_motifs(
            np.ones(8, dtype="d"),
            np.full(5, np.inf),
            np.zeros(5, dtype=np.int64),
            4,
        )
        assert motifs == []

    def test_planted_motif_found(self):
        rng = np.random.default_rng(0)
        ts = rng.normal(size=300)
        pattern = np.sin(np.linspace(0, 4 * np.pi, 32))
        ts[40:72] += 5 * pattern
        ts[200:232] += 5 * pattern
        mp, pi = core.mpx(ts, 32)
        motifs = core.top_k_motifs(ts, mp, pi, 32, exclusion_zone=16, k=1)
        assert len(motifs) == 1
        a, b = motifs[0]["motifs"]
        assert abs(a - 40) <= 2 and abs(b - 200) <= 2


class TestSnippets:
    def test_sampledata_invariants(self, sampledata):
        # reference tests/test_snippets.py:23-53
        sn = core.snippets(sampledata, 64, num_snippets=2, window_size=32)
        assert sorted(s["index"] for s in sn) == [384, 704]
        assert sorted(int(np.sum(s["neighbors"])) for s in sn) == [190967, 191408]
        assert all(0.0 < s["fraction"] <= 1.0 for s in sn)


class TestAnnotationVectors:
    def test_apply_av_identity_default(self, sampledata):
        mp, pi = core.mpx(sampledata, 32)
        cmp_, av = core.apply_av(mp, sampledata, 32, av="default")
        np.testing.assert_almost_equal(cmp_, mp)
        np.testing.assert_array_equal(av, np.ones(len(mp)))

    def test_apply_av_custom_scales_up(self, sampledata):
        mp, pi = core.mpx(sampledata, 32)
        av = np.zeros(len(mp))
        cmp_, _ = core.apply_av(mp, sampledata, 32, av="custom", custom_av=av)
        # av=0 everywhere → cmp = mp + max(mp)
        np.testing.assert_almost_equal(cmp_, mp + np.max(mp))

    def test_complexity_av_range(self, sampledata):
        av = make_complexity_av(sampledata, 32)
        assert av.min() >= 0 and av.max() <= 1


class TestPmpDiscovery:
    def test_pmp_discords_shape(self, sampledata):
        ts = sampledata[:300]
        pmp = core.skimp(ts, windows=[16, 32], sample_pct=1.0)
        discords = core.pmp_top_k_discords(pmp["pmp"], pmp["windows"], k=3)
        assert len(discords) <= 3

    def test_pmp_motifs_nonempty(self, sampledata):
        ts = sampledata[:300]
        pmp = core.skimp(ts, windows=[16, 32], sample_pct=1.0)
        motifs = core.pmp_top_k_motifs(
            ts, pmp["pmp"], pmp["pmpi"], pmp["windows"], k=2
        )
        assert len(motifs) >= 1


class TestStatistics:
    def test_matches_numpy(self, sampledata):
        st = core.statistics(sampledata, 32)
        assert st["min"] == sampledata.min()
        assert st["max"] == sampledata.max()
        np.testing.assert_almost_equal(st["mean"], sampledata.mean())
        np.testing.assert_almost_equal(st["std"], sampledata.std())
        np.testing.assert_almost_equal(st["median"], np.median(sampledata))
        assert len(st["moving_mean"]) == len(sampledata) - 32 + 1
