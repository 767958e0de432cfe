"""Kernel parity with the reference library's own test fixtures.

Tiny hand-computed fixtures come from reference tests/test_mpx.py:24-105,
test_stomp.py:38-81, test_mpdist.py:23-54; MATLAB goldens on sampledata.txt
from test_mpx.py:108-133, test_scrimp.py:90-95, test_cycore.py:60-66.
"""

from __future__ import annotations

import numpy as np
import pytest

import matrixprofile_ray.core as core
from tests.conftest import golden

SMALL_TS = np.array([0, 1, 1, 1, 0, 0, 2, 1, 0, 0, 2, 1], dtype="d")


class TestMuinvn:
    def test_matlab_golden(self, sampledata):
        mua = golden("muinvn_mua.txt")
        stda = golden("muinvn_stda.txt")
        w = len(sampledata) - len(mua) + 1
        mu, sig = core.muinvn(sampledata, w)
        np.testing.assert_almost_equal(mu, mua, decimal=4)
        np.testing.assert_almost_equal(sig, stda, decimal=4)

    def test_constant_window_sig_zero(self):
        mu, sig = core.muinvn(np.ones(16), 4)
        np.testing.assert_array_equal(sig, np.zeros(13))


class TestMpxSelfJoin:
    def test_small_euclidean(self):
        mp, pi = core.mpx(SMALL_TS, 4)
        np.testing.assert_almost_equal(
            mp, [1.9550, 1.9550, 0.8739, 0, 0, 1.9550, 0.8739, 0, 0], decimal=4
        )
        np.testing.assert_array_equal(pi, [4, 5, 6, 7, 8, 1, 2, 3, 4])

    def test_small_pearson(self):
        mp, pi = core.mpx(SMALL_TS, 4, cross_correlation=True)
        np.testing.assert_almost_equal(
            mp,
            [0.52223297, 0.52223297, 0.90453403, 1, 1,
             0.52223297, 0.90453403, 1, 1],
            decimal=4,
        )
        np.testing.assert_array_equal(pi, [4, 5, 6, 7, 8, 1, 2, 3, 4])

    def test_matlab_golden(self, sampledata):
        mp_g = golden("mpx_mp.txt")
        mpi_g = golden("mpx_mpi.txt")  # 1-indexed (MATLAB)
        w = len(sampledata) - len(mp_g) + 1
        mp, pi = core.mpx(sampledata, w)
        np.testing.assert_almost_equal(mp, mp_g, decimal=4)
        np.testing.assert_array_equal(pi, mpi_g - 1)


class TestMpxAbJoin:
    def test_small(self):
        ts = np.array(
            [1, 2, 3, 1, 2, 3, 4, 5, 6, 0, 0, 1, 1, 2, 2, 4, 5, 1, 1, 9], dtype="d"
        )
        query = np.array([0, 0, 1, 1, 2, 2, 4, 5], dtype="d")
        mp, pi, _, _ = core.mpx_ab(ts, query, 4)
        desired = [
            2.36387589, 2.82842712, 2.17957574, 0.64072897, 0.64072897,
            0.64072897, 3.26103392, 3.61947699, 3.39984131, 0.0,
            4.21468485e-08, 0.0, 4.21468485e-08, 0.0, 2.82842712,
            3.57109342, 1.73771570,
        ]
        np.testing.assert_almost_equal(mp, desired, decimal=4)
        np.testing.assert_array_equal(
            pi, [0, 1, 4, 1, 1, 1, 2, 1, 4, 2, 1, 2, 3, 4, 2, 1, 3]
        )

    def test_matlab_golden(self, sampledata):
        mpa, _, mpb, _ = core.mpx_ab(sampledata, sampledata[199:300], 32)
        np.testing.assert_almost_equal(mpa, golden("mpx_ab_mpa.txt"), decimal=4)
        np.testing.assert_almost_equal(mpb, golden("mpx_ab_mpb.txt"), decimal=4)


class TestStomp:
    def test_small_with_left_right(self):
        ts = np.array([0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0], dtype="d")
        p = core.stomp(ts, 4)
        np.testing.assert_almost_equal(p["mp"], np.zeros(9))
        np.testing.assert_array_equal(p["pi"], [4, 5, 6, 7, 0, 1, 2, 3, 0])
        np.testing.assert_almost_equal(
            p["lmp"], [np.inf, np.inf, np.inf, 2.82842712, 0, 0, 0, 0, 0]
        )
        np.testing.assert_array_equal(p["lpi"], [0, 0, 0, 0, 0, 1, 2, 3, 0])
        np.testing.assert_almost_equal(
            p["rmp"], [0, 0, 0, 0, 0, 2.82842712, np.inf, np.inf, np.inf]
        )
        np.testing.assert_array_equal(p["rpi"], [4, 5, 6, 7, 8, 8, 0, 0, 0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            core.stomp(np.arange(8, dtype="d"), 8)


class TestScrimp:
    def test_full_sample_matches_golden(self, sampledata):
        mp_g = golden("scrimp.mp.txt")
        mpi_g = golden("scrimp.mpi.txt")  # 1-indexed
        w = len(sampledata) - len(mp_g) + 1
        p = core.scrimp_plus_plus(sampledata, w, sample_pct=1.0, random_state=0)
        np.testing.assert_almost_equal(p["mp"], mp_g, decimal=4)
        np.testing.assert_array_equal(p["pi"], mpi_g - 1)

    def test_sampled_upper_bounds_exact(self, sampledata):
        mp, _ = core.mpx(sampledata, 32)
        p = core.scrimp_plus_plus(sampledata, 32, sample_pct=0.25, random_state=7)
        # anytime property: approximate profile never below the exact one
        assert np.all(p["mp"] >= mp - 1e-6)

    def test_deterministic_seed(self, sampledata):
        a = core.scrimp_plus_plus(sampledata, 32, sample_pct=0.2, random_state=3)
        b = core.scrimp_plus_plus(sampledata, 32, sample_pct=0.2, random_state=3)
        np.testing.assert_array_equal(a["mp"], b["mp"])


class TestMass2:
    def test_distance_profile_matches_brute(self, sampledata):
        ts = sampledata[:200]
        q = sampledata[300:332]
        dp = core.mass2(ts, q)
        # brute-force z-norm euclidean oracle
        w = len(q)
        qz = (q - q.mean()) / q.std()
        wins = core.rolling_window(ts, w)
        mu = wins.mean(axis=1)
        sd = wins.std(axis=1)
        wz = (wins - mu[:, None]) / sd[:, None]
        brute = np.sqrt(((wz - qz) ** 2).sum(axis=1))
        np.testing.assert_almost_equal(np.abs(dp), brute, decimal=8)


class TestMpdist:
    def test_small(self):
        ts = np.array(
            [1, 2, 3, 1, 2, 3, 4, 5, 6, 0, 0, 1, 1, 2, 2, 4, 5, 1, 1, 9], dtype="d"
        )
        query = np.array(
            [0.23595094, 0.9865171, 0.1934413, 0.60880883,
             0.55174926, 0.77139988, 0.33529215, 0.63215848], dtype="d"
        )
        np.testing.assert_almost_equal(
            core.mpdist(ts, query, 4), 0.437690617625298
        )


class TestStampi:
    def test_incremental_matches_batch(self, sampledata):
        """Appending points one at a time == recomputing from scratch."""
        w = 16
        n0 = 120
        state = core.stampi_init(sampledata[:n0], w)
        for x in sampledata[n0:200]:
            state = core.stampi_append(state, x)
        full = core.stomp(sampledata[:200], w)
        np.testing.assert_almost_equal(state["mp"], full["mp"], decimal=8)

    def test_indices_match_batch(self, sampledata):
        w = 8
        state = core.stampi_init(sampledata[:50], w)
        for x in sampledata[50:90]:
            state = core.stampi_append(state, x)
        full = core.stomp(sampledata[:90], w)
        np.testing.assert_almost_equal(state["mp"], full["mp"], decimal=8)


class TestStampiConstantWindows:
    def test_constant_windows_no_false_zero_match(self):
        """Round-4 regression: a CONSTANT appended window's FFT product
        carries ~1e-13 noise, and distance_profile's negative-clamp used
        to turn its 0/0 covariance into a false 0-distance match. Batch
        STOMP and incremental STAMPI must agree on a count series with
        runs of equal values, and no non-constant window may claim a
        0-distance to a constant one."""
        rng = np.random.default_rng(5)
        c = np.round(rng.gamma(2.0, 2.0, size=240))
        c[40:48] = 3.0      # constant run -> several constant windows
        c[200:207] = 5.0    # constant run appended AFTER the bootstrap
        w = 4
        state = core.stampi_init(c[:180], w)
        for x in c[180:]:
            state = core.stampi_append(state, x)
        full = core.stomp(c, w)
        fin = np.isfinite(full["mp"])
        assert (np.isfinite(state["mp"]) == fin).all()
        np.testing.assert_allclose(
            state["mp"][fin], full["mp"][fin], atol=1e-6
        )
        # constant windows match nothing (reference NaN policy -> inf here)
        win = np.lib.stride_tricks.sliding_window_view(c, w)
        const = win.std(axis=1) == 0
        zero_claims = fin & (full["mp"] < 1e-9)
        for i in np.flatnonzero(zero_claims):
            assert not const[full["pi"][i]]

    def test_distance_profile_constant_sigma_is_nan(self):
        """sig == 0 must yield NaN (reference core.py:447-478 semantics),
        while tiny FINITE negatives still clamp to distance 0."""
        from matrixprofile_ray.core import mathutil

        mu = np.array([2.0, 2.0])
        sig = np.array([0.0, 1.0])
        # prod slightly off the exact covariance-zero point
        prod = np.array([4 * 2.0 * 2.0 + 1e-13, 4 * 2.0 * 2.0 + 1e-13])
        d = mathutil.distance_profile(prod, 4, mu, sig, 2.0, 1.0)
        assert np.isnan(d[0])
        assert np.isfinite(d[1])
        # finite negative argument (correlation numerically > 1) -> 0
        d2 = mathutil.distance_profile(
            np.array([4 * (1.0 + 1e-12)]), 4,
            np.array([0.0]), np.array([1.0]), 0.0, 1.0,
        )
        assert d2[0] == 0.0


class TestStampiAppendMany:
    def test_bit_identical_to_per_point(self, sampledata):
        """stampi_append_many over irregular chunks must equal repeated
        stampi_append EXACTLY (same slices, same window stats, same
        bootstrap prefix), including a mid-chunk 2w bootstrap crossing."""
        for w, boot in ((16, 120), (32, 40), (8, 10)):
            s1 = core.stampi_init(sampledata[:boot].copy(), w)
            for x in sampledata[boot:300]:
                s1 = core.stampi_append(s1, x)
            s2 = core.stampi_init(sampledata[:boot].copy(), w)
            i = boot
            for chunk in (1, 7, 0, 113, 50, 300):
                hi = min(300, i + chunk)
                s2 = core.stampi_append_many(s2, sampledata[i:hi])
                i = hi
                if i >= 300:
                    break
            np.testing.assert_array_equal(s1["ts"], s2["ts"])
            np.testing.assert_array_equal(s1["pi"], s2["pi"])
            np.testing.assert_array_equal(s1["mp"], s2["mp"])


class TestStampiExactProducts:
    def test_long_stream_matches_brute_force(self):
        """3,000 points appended one at a time stay within 1e-8 relative
        of a brute-force profile: exact dot products do not drift."""
        w, boot, n = 24, 100, 3000
        ez = int(np.ceil(w / 2))
        x = np.cumsum(np.random.default_rng(3).normal(size=n))
        state = core.stampi_init(x[:boot], w)
        for v in x[boot:]:
            state = core.stampi_append(state, v)

        sub = np.lib.stride_tricks.sliding_window_view(x, w)
        z = sub - sub.mean(axis=1, keepdims=True)
        z /= np.sqrt((z * z).sum(axis=1, keepdims=True))
        idx = np.arange(len(sub))
        want = np.empty(len(sub))
        for lo in range(0, len(sub), 256):      # 256 rows at a time
            corr = np.clip(z[lo:lo + 256] @ z.T, -1.0, 1.0)
            dist = np.sqrt(np.maximum(2.0 * w * (1.0 - corr), 0.0))
            dist[np.abs(idx[lo:lo + 256, None] - idx[None, :]) <= ez] = np.inf
            want[lo:lo + 256] = dist.min(axis=1)
        assert len(state["mp"]) == len(want)
        rel = np.abs(state["mp"] - want) / want
        assert rel.max() <= 1e-8, rel.max()


class TestSkimp:
    def test_binary_split_order(self):
        # reference skimp.py:46-94: BFS binary split visits 0 first then midpoints
        assert core.binary_split(1) == [0]
        assert core.binary_split(5) == [0, 2, 1, 3, 4]

    def test_pmp_rows_match_mpx(self, sampledata):
        windows = [16, 32]
        pmp = core.skimp(sampledata[:300], windows=windows, sample_pct=1.0)
        for i, w in enumerate(windows):
            mp, _ = core.mpx(sampledata[:300], w)
            row = pmp["pmp"][i][: len(mp)]
            np.testing.assert_almost_equal(row, mp, decimal=8)

    def test_maximum_subsequence(self, sampledata):
        best = core.maximum_subsequence(sampledata, threshold=0.95)
        assert best >= 8


class TestMovingStats:
    def test_moving_basics(self):
        x = np.array([1.0, 2, 3, 4, 5, 6])
        np.testing.assert_almost_equal(
            core.moving_average(x, 3), [2, 3, 4, 5]
        )
        np.testing.assert_almost_equal(core.moving_min(x, 3), [1, 2, 3, 4])
        np.testing.assert_almost_equal(core.moving_max(x, 3), [3, 4, 5, 6])

    def test_moving_avg_std_negative_variance_clamp(self):
        x = np.full(100, 7.0)
        mu, sd = core.moving_avg_std(x, 10)
        assert np.all(sd >= 0)
        np.testing.assert_almost_equal(mu, np.full(91, 7.0))


class TestPrescrimp:
    def test_upper_bounds_exact(self, sampledata):
        mp, _ = core.mpx(sampledata, 32)
        p = core.prescrimp(sampledata, 32, sample_pct=1.0, random_state=1)
        assert np.all(p["mp"] >= mp - 1e-6)
        assert len(p["mp"]) == len(mp)


class TestMpdistHelpers:
    def test_mpdist_vector_shape(self, sampledata):
        ts = sampledata[:200]
        sub = sampledata[300:364]
        out = core.mpdist_vector(ts, sub, 16)
        assert len(out) == len(ts) - len(sub) + 1
        assert np.all(out >= 0)

    def test_mass_distance_matrix_shape(self, sampledata):
        ts = sampledata[:100]
        q = sampledata[100:140]
        m = core.mass_distance_matrix(ts, q, 16)
        assert m.shape == (len(q) - 16 + 1, len(ts) - 16 + 1)

    def test_calculate_mpdist_percentile(self):
        prof = np.arange(100, dtype="d")
        d = core.calculate_mpdist(prof, 0.05, 200)
        assert d == prof[int(np.ceil(0.05 * 200))]


class TestNativeParity:
    """C fast path vs numpy block kernel: identical values and indices."""

    def test_self_join_random(self):
        import importlib

        from matrixprofile_ray.core import _native

        mpxmod = importlib.import_module("matrixprofile_ray.core.mpx")

        if not _native.available():
            pytest.skip("no C compiler")
        rng = np.random.default_rng(11)
        for n, w in ((300, 8), (1000, 24), (2048, 50)):
            ts = rng.normal(size=n)
            mp_c, pi_c = core.mpx(ts, w)
            # force the numpy path
            import math

            plen = n - w + 1
            mu, sig = core.muinvn(ts, w)
            df, dg = mpxmod._diffs(ts, mu, w)
            v = np.full(plen, -1.0)
            i = np.full(plen, -1, dtype=np.int64)
            mpxmod._sweep(ts, mu, sig, df, dg, ts, mu, sig, df, dg, w,
                          int(math.ceil(w / 4.0)) + 1, v, i, v, i,
                          self_join=True)
            np.minimum(v, 1.0, out=v)
            mp_np = np.sqrt(2.0 * w * (1.0 - v))
            np.testing.assert_allclose(mp_c, mp_np, atol=1e-10)
            np.testing.assert_array_equal(pi_c, i)

    def test_ab_join_random(self):
        import importlib

        from matrixprofile_ray.core import _native

        mpxmod = importlib.import_module("matrixprofile_ray.core.mpx")

        if not _native.available():
            pytest.skip("no C compiler")
        rng = np.random.default_rng(12)
        ts = rng.normal(size=800)
        q = rng.normal(size=200)
        mp_c, pi_c, mpb_c, pib_c = core.mpx_ab(ts, q, 16)
        pa, pb = len(ts) - 15, len(q) - 15
        mua, siga = core.muinvn(ts, 16)
        mub, sigb = core.muinvn(q, 16)
        dfa, dga = mpxmod._diffs(ts, mua, 16)
        dfb, dgb = mpxmod._diffs(q, mub, 16)
        mp = np.full(pa, -1.0); mpi = np.full(pa, -1, dtype=np.int64)
        mpb = np.full(pb, -1.0); mpib = np.full(pb, -1, dtype=np.int64)
        mpxmod._sweep(ts, mua, siga, dfa, dga, q, mub, sigb, dfb, dgb, 16,
                      0, mp, mpi, mpb, mpib, self_join=False)
        mpxmod._sweep(q, mub, sigb, dfb, dgb, ts, mua, siga, dfa, dga, 16,
                      0, mpb, mpib, mp, mpi, self_join=False)
        for arr in (mp, mpb):
            none = arr == -1.0
            np.minimum(arr, 1.0, out=arr)
            arr[:] = np.sqrt(2.0 * 16 * (1.0 - arr))
            arr[none] = np.inf
        np.testing.assert_allclose(mp_c, mp, atol=1e-10)
        np.testing.assert_array_equal(pi_c, mpi)
        np.testing.assert_allclose(mpb_c, mpb, atol=1e-10)
        np.testing.assert_array_equal(pib_c, mpib)
