"""Shared fixtures: the exhaustive-simulation results reused across tests.

The full sweep over l = 1..10 for both strategies (about half a million
leaves at l = 10) is computed once per session and shared by every
acceptance criterion that consumes it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from coinweigh import verify

pytest_plugins = ("pytester",)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ACCEPTANCE_L_MAX = 10


@pytest.fixture(scope="session")
def full_stats():
    """StatsRow for every (l, strategy) with l = 1..10, keyed by that pair.

    Building a row walks the decision tree of the strategy's step function,
    the one its core follows: every edge passes its checks against
    ``model.weigh_runs``, the scale of ``model.oracle``, so each leaf's
    support reads every reading on its path, and the leaves number
    n + C(n, 2); so merely constructing this fixture proves recovery
    correctness for the whole range.  The subset
    tuples of the public transcripts are pinned separately, byte for byte,
    by the digest tests in ``test_strategies.py``.
    """
    return {
        (l, strategy): verify.exhaustive_stats(1 << l, strategy)
        for l in range(1, ACCEPTANCE_L_MAX + 1)
        for strategy in ("proposed", "nested")
    }
