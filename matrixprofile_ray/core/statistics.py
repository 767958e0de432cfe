"""Global + moving descriptive statistics for one series.

Parity target: reference algorithms/statistics.py:15-90. The distributed
per-bucket counterpart (count/sum/min/max/mean per key and bucket) is
``matrixprofile_ray.pipelines.timeseries.rollup_events``; this kernel
serves the per-series API.
"""

from __future__ import annotations

import numpy as np

from matrixprofile_ray.core.moving import moving_avg_std, rolling_window

__all__ = ["statistics"]


def statistics(ts: np.ndarray, window_size: int) -> dict:
    ts = np.asarray(ts)
    if ts.ndim != 1:
        raise ValueError("The time series must be 1D")
    if not isinstance(window_size, int):
        raise ValueError("Expecting int for window_size")
    if window_size > len(ts):
        raise ValueError("Window size cannot be greater than len(ts)")
    if window_size < 3:
        raise ValueError("Window size cannot be less than 3")

    moving_mu, moving_sigma = moving_avg_std(ts, window_size)
    rolled = rolling_window(ts, window_size)
    return {
        "ts": ts,
        "min": np.min(ts),
        "max": np.max(ts),
        "mean": np.mean(ts),
        "std": np.std(ts),
        "median": np.median(ts),
        "moving_min": np.min(rolled, axis=1),
        "moving_max": np.max(rolled, axis=1),
        "moving_mean": moving_mu,
        "moving_std": moving_sigma,
        "moving_median": np.median(rolled, axis=1),
        "window_size": window_size,
        "class": "Statistics",
    }
