"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.apps import ft_profile, gadget2_profile
from repro.cluster import Multicluster, das3_multicluster
from repro.sim import Environment, RandomStreams

# One session-wide hypothesis profile, whichever modules are collected:
# deterministic, so every interpreter of the CI matrix draws the same
# examples.  Tests with their own ``@settings`` override single fields.
settings.register_profile(
    "repro-deterministic", deadline=None, derandomize=True, max_examples=60
)
settings.load_profile("repro-deterministic")


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams for tests."""
    return RandomStreams(seed=1234)


@pytest.fixture
def ft():
    """The calibrated NAS FT application profile."""
    return ft_profile()


@pytest.fixture
def gadget2():
    """The calibrated GADGET-2 application profile."""
    return gadget2_profile()


@pytest.fixture
def das3(env, streams) -> Multicluster:
    """The five-cluster DAS-3 system of Table I, without background load."""
    return das3_multicluster(env, streams=streams)


@pytest.fixture
def small_system(env, streams) -> Multicluster:
    """A small two-cluster system for fast, tightly controlled tests."""
    multicluster = Multicluster(env, streams=streams, gram_submission_latency=1.0)
    multicluster.add_cluster("alpha", 32)
    multicluster.add_cluster("beta", 16)
    return multicluster
