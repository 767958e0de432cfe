"""Matrix-profile stage: series rows → profile rows.

Usage::

    stage = ProfileStage(window=..., algorithm='mpx')
    stage.split(series_ds, N).map_batches(stage, batch_format='pandas',
                                          batch_size=None, concurrency=N)

``ProfileStage.split`` is the one block rule of every profile call site
that runs a fixed window: it cuts the materialized series into k =
min(N, cluster CPUs) contiguous pieces of equal estimated kernel cells
(``ProfileStage.cells``: (n − w + 1)² per row, 0 for a row the stage
skips), so one block is one task and the tasks finish together. Series
lengths vary ~30× on the flagship, so cells per row vary ~800×: a
row-count rule leaves one task with most of the work, and a fine one
pays Ray's per-task machinery on every small block.

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

    def min_len(self, w: int) -> int:
        """Shortest series the stage profiles at window ``w``."""
        return max(self.min_len_factor * w, w + 4)

    def cells(self, n: np.ndarray) -> np.ndarray:
        """Estimated kernel cells of series of lengths ``n`` at the fixed
        window: (n − w + 1)², 0 for a series the stage skips."""
        n = np.asarray(n, dtype=np.int64)
        plen = n - self.window + 1
        return np.where(n >= self.min_len(self.window), plen * plen, 0)

    def split(self, series, concurrency: int):
        """Materialized ``series`` → the same rows in the same order, cut
        into k = min(``concurrency``, cluster CPUs) contiguous pieces of
        equal cumulative :meth:`cells`. Reads only the ``n`` column and
        runs no exchange; at k = 1, or with nothing to profile, returns
        ``series`` as it is. Every piece holds at most total/k + the
        largest row's cells. A piece that spans input blocks stays as
        those block slices (Ray runs one task per block)."""
        from matrixprofile_ray.util import cluster_cpus

        k = min(int(concurrency), cluster_cpus())
        if k <= 1:
            return series
        n = [b["n"] for b in series.select_columns(["n"]).iter_batches(
            batch_size=None, batch_format="numpy")]
        cum = np.cumsum(self.cells(np.concatenate(n) if n else []))
        if not len(cum) or not cum[-1]:
            return series
        cuts = np.searchsorted(cum, cum[-1] * np.arange(1, k) / k, "right")
        first, *rest = series.split_at_indices(cuts.tolist())
        return first.union(*rest)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        windows = (
            batch["w"].to_numpy() if self.window is None
            else np.full(len(batch), self.window)
        )
        for i in range(len(batch)):
            w = int(windows[i])
            values = np.asarray(batch["values"].iloc[i], dtype="d")
            if len(values) < self.min_len(w):
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
