"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield ray
    ray.shutdown()


@contextlib.contextmanager
def _hash_shuffle_ctx():
    """Force HASH_SHUFFLE on the current DataContext, sized for the tiny
    test cluster, restoring the previous strategy afterwards."""
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    saved = (
        ctx.shuffle_strategy,
        ctx.max_hash_shuffle_aggregators,
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
    )
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.max_hash_shuffle_aggregators = 2
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.05
    try:
        yield ctx
    finally:
        (
            ctx.shuffle_strategy,
            ctx.max_hash_shuffle_aggregators,
            ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
        ) = saved


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="session")
def sampledata() -> np.ndarray:
    """The reference suite's shared 875-point real series."""
    return np.loadtxt(os.path.join(GOLDEN_DIR, "sampledata.txt"))


def golden(name: str) -> np.ndarray:
    return np.loadtxt(os.path.join(GOLDEN_DIR, name))


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")
