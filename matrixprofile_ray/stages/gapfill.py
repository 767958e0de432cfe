"""Series assembly + gap-fill: sorted bucket rows → one dense series per key.

``assemble_series`` is the one assembly, called by every series fold
(``pipelines.flagship.fold_tiers`` per tier,
``pipelines.timeseries.series_from_buckets``, and the multidimensional
profile query once per dimension): it takes rows sorted by
(key, bucket_ts), splits them where the key changes and calls
``assemble_series_row`` per key. That re-indexes the key's buckets onto
the dense bucket grid (missing buckets → NaN), then imputes them with the
reference's windowed fill semantics (reference preprocess.py:140-222 via
core.preprocess — forward mean fill, endpoints seeded from nearest finite)
and de-flattens them with seeded noise.

Output: one row per (key, tier) with the series as Arrow list columns —
the layout the matrix-profile stage consumes row-wise. Partitioning
assumption: one key's series for one tier fits in a worker's heap (a
56-day span at the 5-min raw tier is ~16k buckets ⇒ ~128 KB; at 100 TB the
cap is enforced by ``max_buckets``, which truncates to the most recent
window and records the truncation).
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from matrixprofile_ray.core.preprocess import preprocess

__all__ = ["assemble_series", "assemble_series_row"]

DEFAULT_MAX_BUCKETS = 2**18  # ~2 MiB of float64 per series, hard cap

# the series columns after the key, for a partition with no key to emit
_SERIES_DTYPES = {"tier": "object", "start_ts": "int64", "bucket_us": "int64",
                  "n": "int64", "n_gaps": "int64", "truncated": "bool",
                  "values": "object"}


def assemble_series_row(
    key,
    buckets: np.ndarray,
    values: np.ndarray,
    bucket_us: int,
    tier: str,
    impute_window: int = 4,
    add_noise: bool = True,
    max_buckets: int = DEFAULT_MAX_BUCKETS,
) -> dict:
    """Sorted bucket/value arrays of ONE key → a dense-series row dict
    (without the key: ``key`` only seeds the noise).

    The dict form exists so ``assemble_series`` builds ONE DataFrame per
    call instead of one per key — pandas frame construction was a
    measurable per-domain cost at 8k domains.
    """
    start, stop = buckets[0], buckets[-1]
    n = int((stop - start) // bucket_us) + 1
    truncated = False
    if n > max_buckets:
        start = stop - (max_buckets - 1) * bucket_us
        keep = buckets >= start
        buckets, values = buckets[keep], values[keep]
        n = max_buckets
        truncated = True

    dense = np.full(n, np.nan)
    pos = (buckets - start) // bucket_us
    dense[pos] = values
    n_gaps = int(np.isnan(dense).sum())

    if n >= impute_window:
        # stable per-(key, tier) seed — python hash() is salted per process
        seed = zlib.crc32(f"{key}|{tier}".encode())
        rng = np.random.default_rng(seed)
        filled = preprocess(
            dense, impute_window, add_noise=add_noise, rng=rng
        )
    else:
        filled = np.nan_to_num(dense, nan=0.0)

    return {
        "tier": tier,
        "start_ts": int(start),
        "bucket_us": int(bucket_us),
        "n": n,
        "n_gaps": n_gaps,
        "truncated": truncated,
        "values": filled,
    }


def assemble_series(
    part: pd.DataFrame,
    key: str,
    value_col: str,
    bucket_us: int,
    tier: str,
    add_noise: bool = True,
) -> pd.DataFrame:
    """Bucket rows sorted by (``key``, bucket_ts) → one series row per key,
    in key order, with ``key`` as the first column. Rows with a null key
    are dropped, as a pandas groupby drops them; with no key left the
    frame is empty but typed."""
    null = part[key].isna()
    if null.any():
        part = part[~null]
    if not len(part):
        return pd.DataFrame({
            key: pd.Series(dtype=part[key].dtype),
            **{c: pd.Series(dtype=t) for c, t in _SERIES_DTYPES.items()},
        })
    k = part[key].to_numpy()
    ts = part["bucket_ts"].to_numpy(dtype=np.int64)
    v = part[value_col].to_numpy(dtype=np.float64)
    bounds = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
    return pd.DataFrame([
        {key: k[lo], **assemble_series_row(
            k[lo], ts[lo:hi], v[lo:hi], bucket_us, tier, add_noise=add_noise)}
        for lo, hi in zip(bounds, bounds[1:])
    ])
