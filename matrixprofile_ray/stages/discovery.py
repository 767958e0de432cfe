"""Discovery stage: profile rows → flattened discoveries rows.

Per profile row, runs the sequential in-kernel discovery operators
(motifs/discords/regimes — reference top_k_motifs.py:174-314,
top_k_discords.py:94-155, regimes.py:94-152) and emits one output row per
finding:

    domain, tier, w, kind ∈ {motif, discord, regime}, rank, idx, pair_idx,
    neighbors (list<int64>), score

Global "top discords across all domains" is then a relational
``ds.sort('score', descending=True).limit(k)`` downstream — the per-series
exclusion-zone logic stays in-kernel where it belongs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from matrixprofile_ray.core.discover import (
    extract_regimes,
    fluss,
    top_k_discords,
    top_k_motifs,
)

__all__ = ["DiscoveryStage"]


class DiscoveryStage:
    def __init__(
        self,
        k_motifs: int = 3,
        k_discords: int = 3,
        num_regimes: int = 3,
        max_neighbors: int = 10,
        radius: int = 3,
        key_col: str = "domain",
    ):
        self.k_motifs = k_motifs
        self.k_discords = k_discords
        self.num_regimes = num_regimes
        self.max_neighbors = max_neighbors
        self.radius = radius
        self.key_col = key_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        n = len(batch)
        if not n:  # an empty block may have no columns at all
            return self._frame(rows)
        # one column read per batch, not one .iloc per row and column
        keys, tiers = batch[self.key_col].to_numpy(), batch["tier"].to_numpy()
        ws = batch["w"].to_numpy()
        mps, pis = batch["mp"].to_numpy(), batch["pi"].to_numpy()
        series = batch["values"].to_numpy()
        ezs = batch["ez"].to_numpy() if "ez" in batch else np.zeros(n)
        for i in range(n):
            domain, tier, w = keys[i], tiers[i], int(ws[i])
            mp = np.asarray(mps[i], dtype="d")
            pi = np.asarray(pis[i], dtype=np.int64)
            values = np.asarray(series[i], dtype="d")
            ez = int(ezs[i])
            # discovery needs a non-zero exclusion zone even for mpx profiles
            # (reference analyze.py passes the profile ez; mpx self-join ez=0
            # would return adjacent trivial matches) — use ceil(w/2) floor.
            disc_ez = max(ez, int(np.ceil(w / 2.0)))

            def emit(kind, rank, idx, pair_idx, neighbors, score):
                rows.append(
                    {
                        self.key_col: domain, "tier": tier, "w": w, "kind": kind,
                        "rank": rank, "idx": int(idx), "pair_idx": int(pair_idx),
                        "neighbors": np.asarray(neighbors, dtype=np.int64),
                        "score": float(score),
                    }
                )

            motifs = top_k_motifs(
                values, mp, pi, w,
                exclusion_zone=disc_ez, k=self.k_motifs,
                max_neighbors=self.max_neighbors, radius=self.radius,
            )
            for rank, m in enumerate(motifs):
                a, b = m["motifs"]
                emit("motif", rank, a, b, m["neighbors"], mp[a])

            discords = top_k_discords(
                mp, w, exclusion_zone=disc_ez, k=self.k_discords
            )
            for rank, idx in enumerate(discords):
                emit("discord", rank, idx, pi[idx], [], mp[idx])

            if len(pi) > 2 * w:
                cac = fluss(pi, w)
                regimes = extract_regimes(cac, w, self.num_regimes)
                for rank, idx in enumerate(regimes):
                    emit("regime", rank, idx, -1, [], cac[idx])

        return self._frame(rows)

    def _frame(self, rows: list[dict]) -> pd.DataFrame:
        if not rows:
            return pd.DataFrame(
                {c: [] for c in [self.key_col, "tier", "w", "kind", "rank",
                                 "idx", "pair_idx", "neighbors", "score"]}
            )
        return pd.DataFrame(rows)
