"""Strategy executors: the halving scheme, nested bisection, the discipline
checker, and their transcript contracts."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinweigh import strategies
from coinweigh.model import (
    Configuration,
    InternalContractError,
    InvalidSizeError,
    delta_of,
    enumerate_configs,
    weigh,
)
from coinweigh.strategies import (
    Transcript,
    check_nested,
    run_nested,
    run_proposed,
)

EXAMPLE_CONFIG = Configuration.from_text("0,0,1,0,0,1,0,0")
EXAMPLE_QUERIES = (
    ((1, 2, 3, 4), 1),
    ((1, 2, 5, 6), 1),
    ((1, 2, 7), 0),
    ((3, 5), 1),
    ((3,), 1),
)


def all_configs(n: int):
    return list(enumerate_configs(n, allow_any_size=True))


def assert_transcript_valid(config: Configuration, transcript: Transcript):
    """The universal transcript contract, re-checked from scratch."""
    assert transcript.estimate == config.weights
    assert sum(transcript.estimate) == 2
    assert transcript.weighings >= 1
    for subset, outcome in transcript.queries:
        assert weigh(config, subset) == outcome


class TestProposed:
    def test_example_transcript_verbatim(self):
        transcript = run_proposed(EXAMPLE_CONFIG)
        assert transcript.queries == EXAMPLE_QUERIES
        assert transcript.weighings == 5
        assert transcript.estimate == EXAMPLE_CONFIG.weights

    def test_two_coins(self):
        transcript = run_proposed(Configuration((2, 0)))
        assert transcript.queries == (((1,), 2),)
        assert transcript.estimate == (2, 0)

    def test_adjacent_pair_trace(self):
        transcript = run_proposed(Configuration((0, 1, 1, 0)))
        assert transcript.queries == (
            ((1, 2), 1),
            ((1, 3), 1),
            ((1,), 0),
        )

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_recovery_exhaustive(self, n):
        for config in all_configs(n):
            assert_transcript_valid(config, run_proposed(config))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_debug_mode_contracts_hold(self, n):
        for config in all_configs(n):
            transcript = run_proposed(config, debug=True)
            assert transcript.estimate == config.weights

    def test_debug_mode_rejects_lying_oracle(self, monkeypatch):
        # The oracle reports a 1 / 1 split first and weight 0 afterwards, so
        # the joint round's precondition fails; without debug the run would
        # return the wrong estimate (0, 1, 0, 1).
        answers = iter([1])
        monkeypatch.setattr(
            strategies, "_subset_weight", lambda config, subset: next(answers, 0)
        )
        with pytest.raises(InternalContractError):
            run_proposed(Configuration.type_two(4, 1, 3), debug=True)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_worst_case_attained(self, l):
        worst = max(
            run_proposed(c).weighings for c in all_configs(1 << l)
        )
        assert worst == 2 * l - 1

    @given(st.data())
    def test_recovery_random(self, data):
        l = data.draw(st.integers(1, 6))
        config = data.draw(st.sampled_from(all_configs(1 << l)))
        transcript = run_proposed(config, debug=True)
        assert_transcript_valid(config, transcript)
        assert transcript.weighings <= 2 * l - 1

    @pytest.mark.parametrize("weights", [(1, 1, 0), (0, 1, 0, 0, 1, 0)])
    def test_rejects_non_power_of_two(self, weights):
        with pytest.raises(InvalidSizeError):
            run_proposed(Configuration(weights))


class TestNested:
    def test_split_pair_trace(self):
        transcript = run_nested(Configuration((1, 0, 0, 1)))
        assert transcript.queries == (
            ((1, 2), 1),
            ((1,), 1),
            ((3,), 0),
        )

    def test_heavy_coin_trace(self):
        transcript = run_nested(Configuration((2, 0, 0, 0)))
        assert transcript.queries == (((1, 2), 2), ((1,), 2))

    def test_worst_case_n4(self):
        assert max(run_nested(c).weighings for c in all_configs(4)) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 15, 16, 32])
    def test_recovery_exhaustive(self, n):
        for config in all_configs(n):
            transcript = run_nested(config)
            assert_transcript_valid(config, transcript)
            assert check_nested(transcript)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_worst_case_attained(self, l):
        worst = max(run_nested(c).weighings for c in all_configs(1 << l))
        assert worst == 2 * l - 1

    @given(st.data())
    def test_recovery_random_any_size(self, data):
        n = data.draw(st.integers(2, 100))
        kind = data.draw(st.sampled_from(["one", "two"]))
        if kind == "one" or n == 2:
            config = Configuration.type_one(n, data.draw(st.integers(1, n)))
        else:
            i = data.draw(st.integers(1, n - 1))
            j = data.draw(st.integers(i + 1, n))
            config = Configuration.type_two(n, i, j)
        transcript = run_nested(config)
        assert_transcript_valid(config, transcript)
        assert check_nested(transcript)


class TestCheckNested:
    def test_nested_runs_pass(self):
        for config in all_configs(4):
            assert check_nested(run_nested(config))

    def test_example_halving_transcript_is_not_nested(self):
        transcript = run_proposed(EXAMPLE_CONFIG)
        assert not check_nested(transcript)

    def test_single_query_is_nested(self):
        transcript = Transcript(queries=(((1,), 2),), estimate=(2, 0))
        assert check_nested(transcript)

    def test_straddling_query_rejected(self):
        # After {1,2} -> 1, the open regions are {1,2} and {3,4}; a later
        # weighing may not span both.
        transcript = Transcript(
            queries=(((1, 2), 1), ((2, 3), 1)),
            estimate=(1, 0, 0, 1),
        )
        assert not check_nested(transcript)

    def test_non_proper_subset_rejected(self):
        transcript = Transcript(
            queries=(((1, 2, 3, 4), 2),),
            estimate=(2, 0, 0, 0),
        )
        assert not check_nested(transcript)

    def test_impossible_outcome_rejected(self):
        transcript = Transcript(
            queries=(((1, 2), 1), ((1,), 2)),
            estimate=(1, 0, 0, 1),
        )
        assert not check_nested(transcript)


class TestBudget:
    @given(st.data())
    def test_both_strategies_within_bounds(self, data):
        l = data.draw(st.integers(1, 5))
        config = data.draw(st.sampled_from(all_configs(1 << l)))
        for runner in (run_proposed, run_nested):
            transcript = runner(config)
            assert 1 <= transcript.weighings <= 2 * l - 1
