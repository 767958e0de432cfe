"""Series preprocessing: windowed imputation + constant-window noise.

Parity target: reference preprocess.py:91-270. ``impute_missing`` is the
gap-fill semantics for the rollup pipeline (north rule): NaN/Inf buckets are
filled from the window statistic in a forward (or backward) sweep, with the
endpoints seeded from the nearest finite value.

Each series takes one pass of each kind:
- the forward-mean fill with ``window`` ≤ 8 is a C loop over the gaps
  (``core._native``); the generic window sweep is the reference semantics
  and the path for wider windows, other methods, backward fill and a
  build with no compiler;
- the noise windows are found from the equal-value runs all at once, and
  one ``rng.uniform`` draw covers them all in ascending window order,
  which is the per-window draw sequence of the reference's scan.
"""

from __future__ import annotations

import numpy as np

from matrixprofile_ray.core import _native

__all__ = [
    "is_subsequence_constant",
    "add_noise_to_series",
    "impute_missing",
    "preprocess",
]

_METHODS = {"mean": np.mean, "median": np.median, "min": np.min, "max": np.max}
_DIRECTIONS = {"forward", "fwd", "f", "backward", "bwd", "b"}


def is_subsequence_constant(subsequence: np.ndarray) -> bool:
    a = np.asarray(subsequence)
    return bool(np.all(a == a[0]))


def add_noise_to_series(series: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Add tiny uniform noise (breaks σ=0 windows). Seeded rng for determinism."""
    if rng is None:
        rng = np.random.default_rng(0)
    a = np.array(series, dtype="d", copy=True)
    return a + rng.uniform(0, 0.0000009, size=len(a))


def impute_missing(
    ts: np.ndarray, window: int, method: str = "mean", direction: str = "forward"
) -> np.ndarray:
    """Windowed fill of NaN/Inf values (returns a copy)."""
    if method not in _METHODS:
        raise ValueError(
            "invalid imputation method! valid include options: "
            + ", ".join(_METHODS)
        )
    if direction not in _DIRECTIONS:
        raise ValueError(
            "invalid imputation direction! valid include options: "
            + ", ".join(sorted(_DIRECTIONS))
        )
    if not isinstance(window, int):
        raise ValueError("window is not an integer!")

    temp = np.array(ts, dtype="d", copy=True)
    func = _METHODS[method]
    bad = ~np.isfinite(temp)

    if bad.all():
        return temp
    # endpoints seeded from the nearest finite value
    if bad[0]:
        temp[0] = temp[~bad][0]
        bad = ~np.isfinite(temp)
    if bad[-1]:
        temp[-1] = temp[~bad][-1]
        bad = ~np.isfinite(temp)

    if (direction.startswith("f") and method == "mean"
            and 2 <= window <= 8 and len(temp) >= window
            and _native.available()):
        # EXACT same results as the generic sweep below: after window 0 is
        # filled (the seeded endpoint makes it non-empty), each later
        # window holds at most one new gap, its rightmost element, so the
        # sweep is the recurrence x[t] = mean(x[t-w+1:t]). np.mean sums
        # ≤ 7 values left to right from +0.0, as the C loop does (on 8 or
        # more it switches to unrolled pairwise sums — hence window ≤ 8)
        head_bad = bad[:window]
        if head_bad.any():
            temp[:window][head_bad] = temp[:window][~head_bad].mean()
        _native.native_impute_forward_mean(temp, window)
        return temp

    if direction.startswith("f"):
        index_order = range(len(temp) - window + 1)
    else:
        index_order = range(len(temp) - window + 1, 0, -1)

    # identical semantics to the reference's sweep, but the NaN mask is
    # maintained incrementally (the reference recomputes it over the whole
    # array per touched window — O(n^2) on sparse series)
    for start in index_order:
        end = start + window
        window_bad = bad[start:end]
        if window_bad.any():
            seg = temp[start:end]
            stat = func(seg[~window_bad])
            seg[window_bad] = stat
            bad[start:end] = ~np.isfinite(seg)
    return temp


def preprocess(
    ts: np.ndarray,
    window: int,
    impute_method: str = "mean",
    impute_direction: str = "forward",
    add_noise: bool = True,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Impute missing values, then de-flatten constant windows with noise."""
    temp = impute_missing(ts, window, method=impute_method, direction=impute_direction)
    if add_noise:
        if rng is None:
            rng = np.random.default_rng(0)
        # Equivalent to the sequential window scan (noise window s, then the
        # next fully-un-noised constant window is s+window), expressed over
        # maximal equal-value runs: within a run [a, b) noise lands at
        # a, a+w, a+2w, ... while the window fits. Same windows in the same
        # ascending order ⇒ the same rng stream ⇒ identical output.
        n = len(temp)
        if n >= window:
            change = np.flatnonzero(temp[1:] != temp[:-1]) + 1
            starts = np.concatenate([[0], change])
            fits = (np.concatenate([change, [n]]) - starts) // window
            total = int(fits.sum())
            if total:
                first = np.cumsum(fits) - fits  # each run's first window id
                win = np.repeat(starts, fits) + window * (
                    np.arange(total) - np.repeat(first, fits))
                pos = (win[:, None] + np.arange(window)).ravel()
                temp[pos] += rng.uniform(0, 0.0000009, size=len(pos))
    return temp
