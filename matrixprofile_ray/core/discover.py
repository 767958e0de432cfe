"""Discovery operators over computed profiles: motifs, discords, regimes,
snippets.

Parity targets in the reference:
- ``top_k_motifs``    ⇔ top_k_motifs.py:174-314 (MP) / :16-171 (PMP)
- ``top_k_discords``  ⇔ top_k_discords.py:94-155 (MP) / :16-91 (PMP)
- ``fluss``/``extract_regimes`` ⇔ regimes.py:16-152
- ``snippets``        ⇔ snippets.py:17-126

These are sequential argmin/argmax loops with exclusion-zone masking — not
relationally expressible — so they run in-kernel per series; global top-k
across series is a Dataset sort/limit downstream.
"""

from __future__ import annotations

import numpy as np

from matrixprofile_ray.core import mathutil
from matrixprofile_ray.core.mass2 import mass2, mass2_fft
from matrixprofile_ray.core.moving import moving_avg_std
from matrixprofile_ray.core.mpdist import mpdist_vector

__all__ = [
    "top_k_motifs",
    "top_k_discords",
    "pmp_top_k_motifs",
    "pmp_top_k_discords",
    "fluss",
    "extract_regimes",
    "snippets",
]


def _is_bad(val) -> bool:
    return bool(np.isnan(val) or np.isinf(val))


def top_k_motifs(
    ts: np.ndarray,
    mp: np.ndarray,
    pi: np.ndarray,
    window_size: int,
    exclusion_zone: int | None = None,
    default_ez: int = 0,
    k: int = 3,
    max_neighbors: int = 10,
    radius: int = 3,
) -> list[dict]:
    """Iterative argmin motif extraction with MASS neighbor search.

    ``default_ez`` is the profile's own ez (used when ``exclusion_zone`` is
    None, matching the reference's use of profile['ez']).
    """
    ts = np.asarray(ts, dtype="d")
    data_len = len(ts)
    mp = np.array(mp, dtype="d", copy=True)
    motifs = []
    if exclusion_zone is None:
        exclusion_zone = default_ez
    # every neighbor search queries this series at this window
    ts_fft = np.fft.fft(ts)
    meanx, sigmax = moving_avg_std(ts, window_size)

    for _ in range(k):
        min_idx = int(np.argmin(mp))
        min_dist = mp[min_idx]
        if _is_bad(min_dist):
            break

        first_idx = int(min(min_idx, pi[min_idx]))
        second_idx = int(max(min_idx, pi[min_idx]))

        dist_profile = mass2_fft(ts_fft, meanx, sigmax,
                                 ts[first_idx : first_idx + window_size])
        dist_profile[~np.isfinite(mp)] = np.inf

        for j in (first_idx, second_idx):
            dist_profile = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, j, dist_profile
            )
            mp = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, j, mp
            )

        neighbors = []
        for _n in range(max_neighbors):
            neighbor_idx = int(np.argmin(dist_profile))
            neighbor_dist = dist_profile[neighbor_idx]
            if _is_bad(neighbor_dist) or not (radius * min_dist >= neighbor_dist):
                break
            neighbors.append(neighbor_idx)
            dist_profile = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, neighbor_idx, dist_profile
            )
            mp = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, neighbor_idx, mp
            )

        motifs.append({"motifs": [first_idx, second_idx], "neighbors": neighbors})
    return motifs


def top_k_discords(
    mp: np.ndarray,
    window_size: int,
    exclusion_zone: int | None = None,
    default_ez: int = 0,
    k: int = 3,
) -> np.ndarray:
    """Descending argsort with ±ez suppression (reference order-exact)."""
    tmp = np.array(mp, dtype="d", copy=True)
    n = len(tmp)
    if exclusion_zone is None:
        exclusion_zone = default_ez

    found = []
    for idx in np.argsort(tmp)[::-1]:
        if not np.isinf(tmp[idx]):
            found.append(int(idx))
            if exclusion_zone > 0:
                start = max(0, idx - exclusion_zone)
                end = min(n, idx + exclusion_zone)
                tmp[start:end] = np.inf
        if len(found) >= k:
            break
    return np.array(found, dtype=np.int64)


def pmp_top_k_motifs(
    ts: np.ndarray,
    pmp: np.ndarray,
    pmpi: np.ndarray,
    windows: np.ndarray,
    metric: str = "euclidean",
    exclusion_zone: int | None = None,
    k: int = 3,
    max_neighbors: int = 10,
    radius: int = 3,
) -> list[dict]:
    """Top-k motifs over a 2-D pan matrix profile ((row, col) indices)."""
    ts = np.asarray(ts, dtype="d")
    data_len = len(ts)
    profile_len = pmp.shape[1]

    if metric == "pearson" or mathutil.is_pearson_array(pmp):
        tmp = mathutil.pearson_to_euclidean(pmp, windows)
    else:
        tmp = np.array(pmp, dtype="d", copy=True)
    tmp[~np.isfinite(tmp)] = np.inf

    motifs = []
    for _ in range(k):
        min_idx = np.unravel_index(np.argmin(tmp), tmp.shape)
        min_dist = tmp[min_idx]
        if _is_bad(min_dist):
            break
        row, col = int(min_idx[0]), int(min_idx[1])
        first_idx = int(min(col, pmpi[row][col]))
        second_idx = int(max(col, pmpi[row][col]))
        window_size = int(windows[row])

        dist_profile = mass2(ts, ts[first_idx : first_idx + window_size])
        dist_profile = np.append(
            dist_profile, np.full(profile_len - len(dist_profile), np.inf)
        )
        dist_profile[~np.isfinite(pmp[row])] = np.inf

        if not exclusion_zone:
            exclusion_zone = int(np.floor(window_size / 2))

        for j in (first_idx, second_idx):
            dist_profile = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, j, dist_profile
            )
            tmp[row] = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, j, tmp[row]
            )

        neighbors = []
        for _n in range(max_neighbors):
            neighbor_idx = int(np.argmin(dist_profile))
            neighbor_dist = np.real(dist_profile[neighbor_idx])
            if _is_bad(neighbor_dist) or not (radius * min_dist >= neighbor_dist):
                break
            neighbors.append((row, neighbor_idx))
            dist_profile = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, neighbor_idx, dist_profile
            )
            tmp[row] = mathutil.apply_exclusion_zone(
                exclusion_zone, False, window_size, data_len, neighbor_idx, tmp[row]
            )

        motifs.append(
            {"motifs": [(row, first_idx), (row, second_idx)], "neighbors": neighbors}
        )
    return motifs


def pmp_top_k_discords(
    pmp: np.ndarray,
    windows: np.ndarray,
    metric: str = "euclidean",
    exclusion_zone: int | None = None,
    k: int = 3,
) -> np.ndarray:
    """Top-k discords over a PMP: iterative 2-D argmax with row-wise ez."""
    if metric == "pearson":
        tmp = mathutil.pearson_to_euclidean(pmp, windows)
    else:
        tmp = np.array(pmp, dtype="d", copy=True)
    tmp[~np.isfinite(tmp)] = -np.inf

    found = []
    for _ in range(k):
        max_idx = np.unravel_index(np.argmax(tmp), tmp.shape)
        window = int(windows[max_idx[0]])
        if tmp[max_idx] == -np.inf:
            break
        found.append(max_idx)
        n = tmp[max_idx[0]].shape[0]
        ez = exclusion_zone if exclusion_zone is not None else int(np.floor(window / 2))
        start = max(0, max_idx[1] - ez)
        end = min(n, max_idx[1] + ez)
        tmp[max_idx[0]][start:end] = -np.inf
    return np.array(found)


def _idealized_arc_curve(width: int, index: np.ndarray) -> np.ndarray:
    height = width / 2
    c = width / 2
    a = height / (width / 2) ** 2
    return -(a * (index - c) ** 2) + height


def fluss(pi: np.ndarray, w: int) -> np.ndarray:
    """Corrected arc curve from a matrix-profile index (FLUSS, vectorized)."""
    pi = np.asarray(pi, dtype=np.int64)
    n = len(pi)
    idx = np.arange(n)
    small = np.minimum(idx, pi)
    large = np.maximum(idx, pi)
    nnmark = np.zeros(n + 1)
    np.add.at(nnmark, small + 1, 1)
    np.add.at(nnmark, large, -1)
    cross_count = np.cumsum(nnmark[:n])

    # the idealized curve is 0 at index 0: that 0/0 is overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        cac = cross_count / _idealized_arc_curve(n, idx)
    cac[cac > 1] = 1
    cac[:w] = 1
    cac[-w:] = 1
    return cac


def extract_regimes(
    cac: np.ndarray, window_size: int, num_regimes: int = 3
) -> np.ndarray:
    """k× argmin over the CAC with ez = 5*w (reference regimes.py:94-152)."""
    ez = window_size * 5
    tmp = np.array(cac, copy=True)
    n = len(tmp)
    regimes = []
    for _ in range(num_regimes):
        min_index = int(np.argmin(tmp))
        regimes.append(min_index)
        start = max(0, min_index - ez)
        end = min(n, min_index + ez)
        tmp[start:end] = np.inf
    return np.array(regimes, dtype=np.int64)


def snippets(
    ts: np.ndarray,
    snippet_size: int,
    num_snippets: int = 2,
    window_size: int | None = None,
) -> list[dict]:
    """Greedy min-sum cover over MPDist profiles of non-overlapping chunks."""
    ts = np.asarray(ts, dtype="d")
    time_series_len = len(ts)
    n = len(ts)

    if not isinstance(snippet_size, int) or snippet_size < 4:
        raise ValueError("snippet_size must be an integer >= 4")
    if n < 2 * snippet_size:
        raise ValueError("Time series is too short relative to snippet length")
    if not window_size:
        window_size = int(np.floor(snippet_size / 2))
    if window_size >= snippet_size:
        raise ValueError("window_size must be smaller than snippet_size")

    num_zeros = int(snippet_size * np.ceil(n / snippet_size) - n)
    padded = np.append(ts, np.zeros(num_zeros))

    indices = np.arange(0, len(padded) - snippet_size, snippet_size)
    distances = np.array(
        [
            mpdist_vector(
                padded, padded[i : i + snippet_size - 1], int(window_size)
            )
            for i in indices
        ]
    )

    found = []
    minis = np.inf
    total_min = None
    for _ in range(num_snippets):
        minims = np.inf
        index = -1
        for i in range(len(indices)):
            s = np.sum(np.minimum(distances[i, :], minis))
            if minims > s:
                minims = s
                index = i
        minis = np.minimum(distances[index, :], minis)
        actual_index = int(indices[index])
        found.append(
            {
                "index": actual_index,
                "snippet": padded[actual_index : actual_index + snippet_size],
                "distance": distances[index],
            }
        )
        if total_min is None:
            total_min = found[-1]["distance"]
        else:
            total_min = np.minimum(total_min, found[-1]["distance"])

    for snippet in found:
        mask = snippet["distance"] <= total_min
        arr = np.arange(len(mask))
        max_index = time_series_len - snippet_size
        snippet["neighbors"] = [int(x) for x in arr[mask] if x <= max_index]
        if max_index in snippet["neighbors"]:
            snippet["neighbors"].extend(range(max_index + 1, time_series_len))
        snippet["fraction"] = mask.sum() / (len(padded) - snippet_size)
        total_min = total_min - mask
        del snippet["distance"]
    return found
