"""Series assembly + gap-fill: bucket rows → one dense series per key.

``assemble_series_row`` is called per key inside the partition folds
(``stages.domain_pipeline.DomainPipeline``,
``pipelines.timeseries.series_from_buckets``): the key's buckets, sorted by
bucket_ts, are re-indexed onto the dense bucket grid (missing buckets →
NaN), then imputed with the reference's windowed fill semantics
(reference preprocess.py:140-222 via core.preprocess — forward mean fill,
endpoints seeded from nearest finite) and de-flattened with seeded noise.

Output: one row per (domain, tier) with the series as Arrow list columns —
the layout the matrix-profile stage consumes row-wise. Partitioning
assumption: one domain's series for one tier fits in a worker's heap (a
56-day span at the 5-min raw tier is ~16k buckets ⇒ ~128 KB; at 100 TB the
cap is enforced by ``max_buckets``, which truncates to the most recent
window and records the truncation).
"""

from __future__ import annotations

import zlib

import numpy as np

from matrixprofile_ray.core.preprocess import preprocess

__all__ = ["assemble_series_row"]

DEFAULT_MAX_BUCKETS = 2**18  # ~2 MiB of float64 per series, hard cap


def assemble_series_row(
    domain,
    buckets: np.ndarray,
    values: np.ndarray,
    bucket_us: int,
    tier: str,
    impute_window: int = 4,
    add_noise: bool = True,
    max_buckets: int = DEFAULT_MAX_BUCKETS,
) -> dict:
    """Sorted bucket/value arrays of ONE domain → a dense-series row dict.

    The dict form exists so partition-level callers (domain_pipeline) can
    build ONE DataFrame per partition instead of one per domain — pandas
    frame construction was a measurable per-domain cost at 8k domains.
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
        # stable per-(domain, tier) seed — python hash() is salted per process
        seed = zlib.crc32(f"{domain}|{tier}".encode())
        rng = np.random.default_rng(seed)
        filled = preprocess(
            dense, impute_window, add_noise=add_noise, rng=rng
        )
    else:
        filled = np.nan_to_num(dense, nan=0.0)

    return {
        "domain": domain,
        "tier": tier,
        "start_ts": int(start),
        "bucket_us": int(bucket_us),
        "n": n,
        "n_gaps": n_gaps,
        "truncated": truncated,
        "values": filled,
    }
