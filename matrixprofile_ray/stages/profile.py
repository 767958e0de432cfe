"""Matrix-profile stage: series rows → profile rows.

Usage: ``series_ds.map_batches(ProfileStage(window=..., algorithm='mpx'),
batch_format='pandas', batch_size=B, concurrency=N)``.

``ProfileStage`` holds only validated config, so every call site
(``pipelines/flagship.py``, ``pipelines/timeseries.py``,
``pipelines/runner.py`` and the driver's SKIMP fan-out) passes a
configured INSTANCE, which runs as stateless Ray tasks: no actor start-up
per job, no CPUs held between stages. Each call handles one batch of
series rows. One row = one series = one kernel invocation — the
per-batch "loop" iterates over a handful of heavy numpy kernel calls,
not scalar work.

Profile schema (SURVEY §1.2): columnar port of the reference profile dict
(reference mpx.py:82-100) minus the embedded raw data; the series stays
keyed by (domain, tier) and is optionally carried through for discovery.

Window semantics per algorithm match the reference:
  mpx   ez=0 self / ceil(w/4) join (reference mpx.py:91)
  stomp ez=ceil(w/2) self / 0 join (reference stomp.py:276-280)
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from matrixprofile_ray.core.mpx import mpx as _mpx
from matrixprofile_ray.core.scrimp import scrimp_plus_plus
from matrixprofile_ray.core.stomp import stomp as _stomp

__all__ = ["ProfileStage", "profile_one"]


def profile_one(
    values: np.ndarray,
    w: int,
    algorithm: str = "mpx",
    sample_pct: float = 1.0,
    seed: int = 0,
) -> dict:
    """Compute one series' profile; returns plain-array dict."""
    values = np.asarray(values, dtype="d")
    if algorithm == "mpx":
        mp, pi = _mpx(values, w)
        return {
            "mp": mp, "pi": pi, "lmp": None, "lpi": None,
            "rmp": None, "rpi": None, "ez": 0, "join": False,
            "metric": "euclidean", "algorithm": "mpx", "sample_pct": 1.0,
        }
    if algorithm == "stomp":
        p = _stomp(values, w)
        return {
            "mp": p["mp"], "pi": p["pi"], "lmp": p["lmp"], "lpi": p["lpi"],
            "rmp": p["rmp"], "rpi": p["rpi"], "ez": p["ez"], "join": False,
            "metric": "euclidean", "algorithm": "stomp", "sample_pct": 1.0,
        }
    if algorithm == "scrimp++":
        p = scrimp_plus_plus(values, w, sample_pct=sample_pct, random_state=seed)
        return {
            "mp": p["mp"], "pi": p["pi"], "lmp": None, "lpi": None,
            "rmp": None, "rpi": None, "ez": p["ez"], "join": False,
            "metric": "euclidean", "algorithm": "scrimp++",
            "sample_pct": sample_pct,
        }
    raise ValueError(f"unknown algorithm: {algorithm}")


_META_COLS = ("domain", "tier", "start_ts", "bucket_us")


class ProfileStage:
    """Batch transform computing matrix profiles per series row.

    ``window`` may be an int (fixed) or None — then each input row must
    carry its own ``w`` column (the SKIMP (series × window) fan-out path).
    """

    def __init__(
        self,
        window: int | None = 32,
        algorithm: str = "mpx",
        sample_pct: float = 1.0,
        min_len_factor: int = 2,
        carry_values: bool = True,
        key_col: str = "domain",
    ):
        if window is not None and window < 4:
            raise ValueError("window must be >= 4")
        self.window = window
        self.algorithm = algorithm
        self.sample_pct = sample_pct
        self.min_len_factor = min_len_factor
        self.carry_values = carry_values
        self.key_col = key_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        windows = (
            batch["w"].to_numpy() if self.window is None
            else np.full(len(batch), self.window)
        )
        for i in range(len(batch)):
            w = int(windows[i])
            values = np.asarray(batch["values"].iloc[i], dtype="d")
            if len(values) < self.min_len_factor * w or len(values) < w + 4:
                continue  # series too short for this window
            domain = batch[self.key_col].iloc[i]
            tier = batch["tier"].iloc[i]
            seed = zlib.crc32(f"{domain}|{tier}|{w}".encode())
            p = profile_one(values, w, self.algorithm, self.sample_pct, seed=seed)
            row = {
                self.key_col: domain,
                "tier": tier,
                "start_ts": int(batch["start_ts"].iloc[i]),
                "bucket_us": int(batch["bucket_us"].iloc[i]),
                "n": len(values),
                "w": w,
                "algorithm": p["algorithm"],
                "metric": p["metric"],
                "ez": p["ez"],
                "join": p["join"],
                "sample_pct": p["sample_pct"],
                "mp": np.asarray(p["mp"], dtype="d"),
                "pi": np.asarray(p["pi"], dtype=np.int64),
            }
            for key in ("lmp", "lpi", "rmp", "rpi"):
                row[key] = None if p[key] is None else np.asarray(p[key])
            if self.carry_values:
                row["values"] = values
            rows.append(row)
        if not rows:
            return _empty_frame(self.carry_values, self.key_col)
        return pd.DataFrame(rows)


def _empty_frame(carry_values: bool, key_col: str = "domain") -> pd.DataFrame:
    cols = [
        key_col, "tier", "start_ts", "bucket_us", "n", "w", "algorithm",
        "metric", "ez", "join", "sample_pct", "mp", "pi",
        "lmp", "lpi", "rmp", "rpi",
    ]
    if carry_values:
        cols.append("values")
    return pd.DataFrame({c: [] for c in cols})
