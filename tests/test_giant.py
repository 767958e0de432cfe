"""Intra-series diagonal fan-out: distributed single-series MPX must be
bit-identical to the single-task kernel (values AND indices)."""

from __future__ import annotations

import numpy as np
import pytest

import matrixprofile_ray.core as core
from matrixprofile_ray.stages.giant import diag_ranges, mpx_distributed


class TestDiagRanges:
    def test_covers_all_diagonals_once(self):
        for plen, minlag, t in [(100, 2, 4), (50, 8, 16), (10, 2, 32),
                                (1000, 6, 7)]:
            ranges = diag_ranges(plen, minlag, t)
            got = []
            for lo, hi in ranges:
                got.extend(range(lo, hi))
            assert got == list(range(minlag + 1, plen))

    def test_cell_balanced(self):
        plen, minlag = 10_000, 6
        ranges = diag_ranges(plen, minlag, 8)
        cells = [sum(plen - d for d in range(lo, hi)) for lo, hi in ranges]
        assert max(cells) / min(cells) < 1.2

    def test_degenerate_empty(self):
        assert diag_ranges(5, 10, 4) == []


class TestMpxPartialMerge:
    def test_partials_fold_to_full(self):
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.normal(size=400))
        w = 16
        mp_full, mpi_full = core.mpx(ts, w, cross_correlation=True)
        plen = len(ts) - w + 1
        minlag = int(np.ceil(w / 4.0))
        run_v = np.full(plen, -1.0)
        run_i = np.full(plen, -1, dtype=np.int64)
        for lo, hi in diag_ranges(plen, minlag, 5):
            pv, pi = core.mpx_partial(ts, w, lo, hi)
            upd = pv > run_v
            run_v[upd] = pv[upd]
            run_i[upd] = pi[upd]
        np.minimum(run_v, 1.0, out=run_v)
        np.testing.assert_array_equal(run_v, mp_full)
        np.testing.assert_array_equal(run_i, mpi_full)


class TestMpxDistributed:
    @pytest.mark.parametrize("n,w,tasks", [(2_000, 32, 4), (5_000, 64, 9)])
    def test_bit_identical_to_single_task(self, ray_session, n, w, tasks):
        rng = np.random.default_rng(11)
        ts = np.cumsum(rng.normal(size=n)) + rng.normal(scale=0.2, size=n)
        mp1, pi1 = core.mpx(ts, w)
        mp2, pi2 = mpx_distributed(ts, w, num_tasks=tasks)
        np.testing.assert_array_equal(mp1, mp2)
        np.testing.assert_array_equal(pi1, pi2)

    def test_large_series_parity(self, ray_session):
        """A series big enough that the fan-out path matters (50k points,
        ~1.2e9 diagonal cells) still matches single-task exactly."""
        rng = np.random.default_rng(13)
        n = 50_000
        ts = np.cumsum(rng.normal(size=n))
        w = 128
        mp1, pi1 = core.mpx(ts, w)
        mp2, pi2 = mpx_distributed(ts, w, num_tasks=8)
        np.testing.assert_array_equal(mp1, mp2)
        np.testing.assert_array_equal(pi1, pi2)
