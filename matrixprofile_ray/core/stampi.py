"""STAMPI: incremental matrix-profile maintenance for appended points.

The reference library has no STAMPI (its stomp.py docstring mentions Ray but
v1 ships none); this follows the published STAMPI construction (Yeh et al.,
"Matrix Profile I", ICDM 2016 §V-D) on top of the same primitives the
reference uses: appending one point creates exactly one new subsequence whose
distance profile is computed against every earlier subsequence, existing
profile entries take an elementwise min against it, and the new entry is the
min of that profile with the self-join exclusion zone applied (ez = ceil(w/2),
matching stomp.py:276).

Cost contract: one appended point costs O(n·w), one pass over the earlier
windows. Each dot product is summed exactly, term by term in window order
(no FFT and no running recurrence), so the profile does not drift however
long the stream runs; window stats use ``moving_avg_std``'s cumsum formula
and distances ``mathutil.distance_profile``'s formula, with the same policy:
a constant window on either side, or a non-finite value, is at distance inf.
The loop is C (``_native.stampi_extend``) with a numpy mirror of the same
operations for hosts without a compiler; the two are bit-identical.
"""

from __future__ import annotations

import numpy as np

from matrixprofile_ray.core import mathutil
from matrixprofile_ray.core._native import native_stampi_extend
from matrixprofile_ray.core.moving import moving_avg_std
from matrixprofile_ray.core.stomp import stomp

__all__ = ["stampi_init", "stampi_append", "stampi_append_many"]


def stampi_init(ts: np.ndarray, w: int) -> dict:
    """Bootstrap incremental state from a batch STOMP run."""
    ts = np.asarray(ts, dtype="d")
    state = {
        "ts": ts,
        "w": w,
        "ez": int(np.ceil(w / 2.0)),
        "mp": np.empty(0, dtype="d"),
        "pi": np.empty(0, dtype=np.int64),
        "algorithm": "stampi",
    }
    if len(ts) >= 2 * w:
        profile = stomp(ts, w)
        state["mp"] = profile["mp"]
        state["pi"] = profile["pi"]
    return state


def stampi_append(state: dict, value: float) -> dict:
    """Append one point; see :func:`stampi_append_many`."""
    return stampi_append_many(state, [value])


def stampi_append_many(state: dict, values: np.ndarray) -> dict:
    """Append a block of points in one call: each new subsequence joins
    the profile in order, exactly as one-at-a-time appends would.

    Mutates and returns ``state``. The profile is bootstrapped by batch
    STOMP once the series first reaches 2w points (at exactly 2w, so the
    result does not depend on how the points were chunked).
    """
    values = np.asarray(values, dtype="d")
    if len(values) == 0:
        return state
    w = state["w"]
    ez = state["ez"]
    ts = np.concatenate([state["ts"], values])
    state["ts"] = ts
    n = len(ts)
    if n < 2 * w:
        return state
    if len(state["mp"]) == 0:
        profile = stomp(ts[: 2 * w], w)
        state["mp"] = profile["mp"]
        state["pi"] = profile["pi"]

    s0 = len(state["mp"])
    grow = n - w + 1 - s0
    mp = np.concatenate([state["mp"], np.empty(grow)])
    pi = np.concatenate([state["pi"], np.empty(grow, dtype=np.int64)])
    if not native_stampi_extend(ts, w, ez, s0, mp, pi):
        _extend_numpy(ts, w, ez, s0, mp, pi)
    state["mp"] = mp
    state["pi"] = pi
    return state


def _extend_numpy(ts: np.ndarray, w: int, ez: int, s0: int,
                  mp: np.ndarray, pi: np.ndarray) -> None:
    """The numpy mirror of ``_native.stampi_extend``: subsequences
    [``s0``, ``len(mp)``) join ``mp``/``pi`` in place. Vectorised over the
    earlier windows j and looping over k, it performs the C loop's
    operations in the C loop's order, so the two are bit-identical."""
    with np.errstate(invalid="ignore", over="ignore"):
        mu, sig = moving_avg_std(ts, w)
        for s in range(s0, len(mp)):
            cut = s - ez
            q = ts[s: s + w]
            q_mu, q_sig = moving_avg_std(q, w)
            best, nn = np.inf, 0
            if q_sig[0] != 0 and cut > 0:
                prod = np.zeros(cut)
                for k in range(w):
                    prod += ts[k: k + cut] * q[k]
                dist = mathutil.distance_profile(
                    prod, w, mu[:cut], sig[:cut], q_mu[0], q_sig[0])
                dist[~np.isfinite(dist) | (sig[:cut] == 0)] = np.inf
                better = dist < mp[:cut]
                mp[:cut][better] = dist[better]
                pi[:cut][better] = s
                nn = int(np.argmin(dist))
                best = dist[nn]
            mp[s] = best
            pi[s] = nn
