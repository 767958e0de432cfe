"""Intra-series diagonal fan-out: the matrix profile of ONE giant series
distributed across Ray tasks.

The per-series actor path (``stages/profile.py``) assumes one series fits —
and is worth computing in — one worker (the O(n²) diagonal sweep of a
10⁷-point series is ~10¹⁴ cells: days on one core). This module splits the
diagonal space of a single self-join into cell-balanced ranges, computes
each range as an independent Ray task against the ONE broadcast copy of the
series (``ray.put``), and left-fold merges the partial Pearson profiles in
ascending-range order with strict ``>`` — reproducing the sequential
kernel's earlier-diagonal tie-breaking, so the result is bit-identical to a
single-task ``core.mpx`` (parity-tested in tests/test_giant.py).

Reference semantics: cympx.pyx:72-112 — the same diagonal loop split across
OpenMP threads with thread-local profiles merged under a lock; here the
"threads" are Ray tasks and the merge is an ordered driver-side fold over
task-count-many partials (task count ~ cluster cores, so the fold is tiny;
a tree merge is unnecessary because left-biased strict-max is associative
but partials are only ever O(cores), not O(data)).

Partitioning assumption: the series itself (8 B/point) fits in the object
store and in each worker's heap — 10⁸ points = 800 MB is the practical
ceiling per series; the quadratic WORK is what's distributed here, not the
series storage.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["diag_ranges", "mpx_distributed"]


def diag_ranges(plen: int, minlag: int, num_tasks: int) -> list[tuple[int, int]]:
    """Split diagonals [minlag+1, plen) into ~cell-balanced ranges.

    Diagonal d has plen-d cells, so equal-width ranges would skew ~2×
    between the first and last task; boundaries are drawn on the cumulative
    cell count instead (exact, O(plen) once on the driver).
    """
    first = minlag + 1
    if first >= plen:
        return []
    lens = plen - np.arange(first, plen, dtype=np.int64)  # cells per diag
    cum = np.cumsum(lens)
    total = int(cum[-1])
    num_tasks = max(1, min(num_tasks, plen - first))
    targets = (np.arange(1, num_tasks) * (total / num_tasks)).astype(np.int64)
    cuts = first + 1 + np.searchsorted(cum, targets)
    bounds = np.concatenate([[first], cuts, [plen]])
    return [
        (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b
    ]


def mpx_distributed(
    ts: np.ndarray,
    w: int,
    num_tasks: int | None = None,
    cross_correlation: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-join matrix profile of one giant series via Ray-task fan-out.

    Bit-identical to ``core.mpx(ts, w)``; wall time ~1/min(num_tasks, cores)
    of the single-task sweep. Returns ``(mp, mpi)``.
    """
    import ray

    from matrixprofile_ray.core.mpx import mpx_partial
    from matrixprofile_ray.util import cluster_cpus

    ts = np.ascontiguousarray(np.asarray(ts, dtype="d"))
    n = ts.shape[0]
    plen = n - w + 1
    minlag = int(math.ceil(w / 4.0))
    if num_tasks is None:
        num_tasks = cluster_cpus()
    ranges = diag_ranges(plen, minlag, num_tasks)

    run_v = np.full(plen, -1.0, dtype="d")
    run_i = np.full(plen, -1, dtype=np.int64)

    if ranges:
        ts_ref = ray.put(ts)  # ONE object-store copy, zero-copy reads

        @ray.remote(num_cpus=1)
        def partial(lo: int, hi: int):
            return mpx_partial(ray.get(ts_ref), w, lo, hi)

        refs = [partial.remote(lo, hi) for lo, hi in ranges]
        # ordered left fold: strict > keeps the earlier range on ties,
        # matching the sequential kernel's diagonal-ascending tie-breaking.
        # Fetch one partial at a time so peak driver memory is 2 profiles.
        for ref in refs:
            pv, pi = ray.get(ref)
            upd = pv > run_v
            run_v[upd] = pv[upd]
            run_i[upd] = pi[upd]
            del pv, pi

    np.minimum(run_v, 1.0, out=run_v)
    if cross_correlation:
        return run_v, run_i
    return np.sqrt(2.0 * w * (1.0 - run_v)), run_i
