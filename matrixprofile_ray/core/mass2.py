"""MASS v2: FFT distance profile of one query against a series.

Parity target: reference algorithms/mass2.py:14-96, including the constant-
signal fixes (sigma below threshold ⇒ distance sqrt(m), or 0 when both the
window and the query are constant).
"""

from __future__ import annotations

import numpy as np

from matrixprofile_ray.core.moving import moving_avg_std

__all__ = ["mass2", "mass2_fft"]


def mass2(ts: np.ndarray, query: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """Distance profile of ``query`` over ``ts`` (complex dtype like the ref)."""
    ts = np.asarray(ts, dtype="d")
    meanx, sigmax = moving_avg_std(ts, len(query))
    return mass2_fft(np.fft.fft(ts), meanx, sigmax, query, threshold)


def mass2_fft(ts_fft: np.ndarray, meanx: np.ndarray, sigmax: np.ndarray,
              query: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """``mass2`` from the series' FFT and its ``moving_avg_std`` at the
    query's length, so a caller that queries one series several times
    computes them once."""
    query = np.asarray(query, dtype="d")
    n = len(ts_fft)
    m = len(query)

    meany = np.mean(query)
    sigmay = np.std(query)

    y = np.concatenate([query[::-1], np.zeros(n - m)])
    z = np.fft.ifft(ts_fft * np.fft.fft(y))

    denom = sigmax * sigmay
    denom = np.where(denom == 0, 1e-12, denom)
    dist = 2 * (m - (z[m - 1 : n] - m * meanx * meany) / denom)

    const_win = sigmax < threshold
    dist[const_win] = m
    dist[const_win & (sigmay < threshold)] = 0
    return np.sqrt(dist)
