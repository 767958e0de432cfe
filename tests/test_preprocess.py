"""Preprocess/impute semantics (reference preprocess.py:140-270 parity)."""

from __future__ import annotations

import numpy as np
import pytest

import matrixprofile_ray.core as core


class TestImputeMissing:
    def test_no_missing_is_identity(self):
        x = np.arange(20, dtype="d")
        np.testing.assert_array_equal(core.impute_missing(x, 4), x)

    def test_fills_all_nan_inf(self):
        x = np.arange(40, dtype="d")
        x[[3, 7, 8, 20]] = np.nan
        x[[15, 30]] = np.inf
        out = core.impute_missing(x, 4)
        assert np.all(np.isfinite(out))
        # untouched positions unchanged
        mask = np.isfinite(x)
        np.testing.assert_array_equal(out[mask], x[mask])

    def test_forward_mean_fill_value(self):
        # window [1,2,3,nan] → nan ← mean(1,2,3) = 2
        x = np.array([1.0, 2, 3, np.nan, 5, 6, 7, 8])
        out = core.impute_missing(x, 4, method="mean", direction="forward")
        assert out[3] == 2.0

    def test_median_method(self):
        x = np.array([1.0, 2, 9, np.nan, 5, 6, 7, 8])
        out = core.impute_missing(x, 4, method="median", direction="forward")
        assert out[3] == 2.0  # median(1,2,9)

    def test_invalid_method_raises(self):
        with pytest.raises(ValueError):
            core.impute_missing(np.ones(8), 4, method="bogus")

    def test_invalid_direction_raises(self):
        with pytest.raises(ValueError):
            core.impute_missing(np.ones(8), 4, direction="sideways")

    def test_endpoint_nan_seeded_from_nearest_finite(self):
        x = np.array([np.nan, np.nan, 3.0, 4, 5, np.nan])
        out = core.impute_missing(x, 3)
        assert out[0] == 3.0 and out[-1] == 5.0
        assert np.all(np.isfinite(out))


class TestNoise:
    def test_constant_windows_deflattened(self):
        x = np.concatenate([np.ones(10), np.arange(10, dtype="d")])
        out = core.preprocess(x, 4, add_noise=True)
        # no window of width 4 is exactly constant anymore
        wins = core.rolling_window(out, 4)
        assert not np.any(wins.min(axis=1) == wins.max(axis=1))
        # noise is tiny (≤ 9e-7 per reference preprocess.py:115-137)
        assert np.max(np.abs(out[:10] - 1.0)) < 1e-6

    def test_seeded_rng_deterministic(self):
        x = np.concatenate([np.ones(10), np.arange(10, dtype="d")])
        a = core.preprocess(x, 4, rng=np.random.default_rng(5))
        b = core.preprocess(x, 4, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_no_noise_flag(self):
        x = np.ones(12)
        out = core.preprocess(x, 4, add_noise=False)
        np.testing.assert_array_equal(out, x)


class TestSparseSeriesPerformance:
    def test_large_sparse_series_fast(self):
        """16k-bucket raw-tier series with 90% gaps must impute quickly."""
        import time

        rng = np.random.default_rng(7)
        x = np.full(16_384, np.nan)
        pos = rng.choice(16_384, size=1_600, replace=False)
        x[pos] = rng.normal(size=1_600)
        t0 = time.time()
        out = core.impute_missing(x, 4)
        assert time.time() - t0 < 2.0
        assert np.all(np.isfinite(out))


# ---- the one-pass preprocess against the per-gap / per-window loops ----

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matrixprofile_ray.core import _native  # noqa: E402


def _loop_impute(ts, window, direction="forward"):
    """The Python-list gap fill the C loop replaced (window ≤ 8, forward),
    else the generic sweep."""
    temp = np.array(ts, dtype="d", copy=True)
    bad = ~np.isfinite(temp)
    if bad.all():
        return temp
    if bad[0]:
        temp[0] = temp[~bad][0]
        bad = ~np.isfinite(temp)
    if bad[-1]:
        temp[-1] = temp[~bad][-1]
        bad = ~np.isfinite(temp)
    if direction == "forward" and window <= 8 and len(temp) >= window:
        head_bad = bad[:window]
        if head_bad.any():
            temp[:window][head_bad] = temp[:window][~head_bad].mean()
        gaps = np.flatnonzero(bad[window:]) + window
        buf = temp.tolist()
        for t in gaps:
            buf[t] = sum(buf[t - window + 1:t]) / (window - 1)
        return np.asarray(buf, dtype="d")
    if direction == "forward":
        order = range(len(temp) - window + 1)
    else:
        order = range(len(temp) - window + 1, 0, -1)
    for start in order:
        seg, wb = temp[start:start + window], bad[start:start + window]
        if wb.any():
            seg[wb] = np.mean(seg[~wb])
            bad[start:start + window] = ~np.isfinite(seg)
    return temp


def _loop_noise(temp, window, rng):
    """The per-window noise loop: one draw per constant window."""
    temp = temp.copy()
    n = len(temp)
    if n < window:
        return temp
    change = np.flatnonzero(temp[1:] != temp[:-1]) + 1
    for a, b in zip(np.concatenate([[0], change]), np.concatenate([change, [n]])):
        s = a
        while s + window <= b:
            temp[s:s + window] = core.add_noise_to_series(temp[s:s + window], rng=rng)
            s += window
    return temp


# few distinct values (ties make long constant runs), ±0.0 and gaps
_cells = st.sampled_from([np.nan, np.inf, -0.0, 0.0, 1.0, -2.5, 3.25, 7.0])
_series = st.lists(_cells, min_size=0, max_size=80)


class TestOnePassPreprocess:
    @settings(max_examples=300, deadline=None)
    @given(xs=_series, window=st.integers(2, 12),
           backward=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_gap_and_per_window_loops(self, xs, window, backward, seed):
        x = np.array(xs, dtype="d")
        direction = "backward" if backward else "forward"
        want = _loop_impute(x, window, direction)
        got = core.impute_missing(x, window, direction=direction)
        assert got.tobytes() == want.tobytes()
        want = _loop_noise(want, window, np.random.default_rng(seed))
        got = core.preprocess(x, window, impute_direction=direction,
                              rng=np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x", [
        [np.nan] * 6,                                  # all NaN
        [-0.0, -0.0, -0.0, -0.0, -0.0, np.nan, 1.0],  # -0.0 sums to +0.0
        [1.0, np.nan],                                 # n < window
    ])
    def test_edges(self, x):
        x = np.array(x)
        want = _loop_noise(_loop_impute(x, 4), 4, np.random.default_rng(3))
        got = core.preprocess(x, 4, rng=np.random.default_rng(3))
        assert got.tobytes() == want.tobytes()

    def test_numpy_fallback_equals_native(self, monkeypatch):
        """A build with no compiler runs the generic sweep: same bytes."""
        assert _native.available()
        rng = np.random.default_rng(11)
        xs = []
        for _ in range(40):
            x = np.round(rng.normal(size=int(rng.integers(1, 300))), 1)
            x[rng.random(len(x)) < 0.6] = np.nan
            x[rng.random(len(x)) < 0.05] = -0.0
            xs.append(x)
        native = [core.preprocess(x, w, rng=np.random.default_rng(i))
                  for i, x in enumerate(xs) for w in (2, 4, 8)]
        monkeypatch.setattr(_native, "_LIB", False)
        assert not _native.available()
        fallback = [core.preprocess(x, w, rng=np.random.default_rng(i))
                    for i, x in enumerate(xs) for w in (2, 4, 8)]
        for a, b in zip(native, fallback):
            assert a.tobytes() == b.tobytes()
