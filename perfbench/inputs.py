"""Seeded benchmark inputs, generated before any timed region.

Everything here is a pure function of the seed: the same seed writes the
same files and returns the same arrays. Nothing here starts Ray.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGE_COLUMNS = ["url", "warc_ts", "html", "text"]
EVENT_COLUMNS = ["event_type", "ts", "value"]
EVENTS_BASE_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
DAY_US = 86_400_000_000


def write_pages(path: str, seed: int, n_pages: int, n_domains: int,
                n_files: int) -> list[str]:
    """The engine's Common-Crawl-style corpus (``sources.pages``), split
    into ``n_files`` Parquet files of consecutive row ranges."""
    from matrixprofile_ray.sources.pages import generate_pages

    os.makedirs(path, exist_ok=True)
    files = []
    bounds = np.linspace(0, n_pages, n_files + 1).astype(np.int64)
    for f in range(n_files):
        tbl = generate_pages(np.arange(bounds[f], bounds[f + 1]), seed=seed,
                             n_domains=n_domains)
        name = os.path.join(path, f"pages-{f:03d}.parquet")
        pq.write_table(tbl, name)
        files.append(name)
    return files


def write_events(path: str, seed: int, n_rows: int, n_keys: int, days: int,
                 n_files: int) -> list[str]:
    """An events table with the schema of the engine's ``events`` input:
    ``event_type`` drawn from ``n_keys`` skewed keys, ``ts`` over ``days``
    days, ``value`` with two decimals. File ``f`` holds the f-th time
    slice, as an append-only event log would."""
    rng = np.random.default_rng([seed, 2])
    os.makedirs(path, exist_ok=True)
    keys = np.array([f"type{i:02d}" for i in range(n_keys)])
    weights = 1.0 / np.arange(1, n_keys + 1) ** 0.8
    weights /= weights.sum()
    # per-key diurnal phase so every key's hourly series has motif structure
    phase = rng.uniform(0, 2 * np.pi, n_keys)
    span_us = days * DAY_US
    bounds = np.linspace(0, n_rows, n_files + 1).astype(np.int64)
    files = []
    for f in range(n_files):
        n = int(bounds[f + 1] - bounds[f])
        lo, hi = span_us * f // n_files, span_us * (f + 1) // n_files
        ts = np.sort(rng.integers(lo, hi, n)) + EVENTS_BASE_US
        k = rng.choice(n_keys, size=n, p=weights)
        hour = (ts - EVENTS_BASE_US) / 3_600_000_000
        level = 40 + 25 * np.sin(2 * np.pi * hour / 24 + phase[k])
        value = np.round(level + rng.gamma(2.0, 8.0, n), 2)
        tbl = pa.table({
            "event_id": pa.array(np.arange(bounds[f], bounds[f + 1]), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 5000, n), pa.int64()),
            "event_type": pa.array(keys[k], pa.string()),
            "value": pa.array(value, pa.float64()),
            "props": pa.array([f'{{"k": {i % 100}}}' for i in range(n)],
                              pa.string()),
        })
        name = os.path.join(path, f"events-{f:03d}.parquet")
        pq.write_table(tbl, name)
        files.append(name)
    return files


def stream_series(seed: int, n_keys: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and one seeded random walk per key, shape (n_keys, length)."""
    rng = np.random.default_rng([seed, 3])
    keys = np.array([f"sensor{i:02d}" for i in range(n_keys)], dtype=object)
    walks = np.cumsum(rng.normal(size=(n_keys, length)), axis=1)
    return keys, walks


def random_walk(seed: int, n: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng([seed, 4]).normal(size=n))


def dir_bytes(files: list[str]) -> int:
    return sum(os.path.getsize(f) for f in files)
