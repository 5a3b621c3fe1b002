"""Strategy executors: the halving scheme, nested bisection, the discipline
checker, and their transcript contracts."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinweigh import cli, model, strategies
from coinweigh.model import (
    Configuration,
    InternalContractError,
    InvalidConfigurationError,
    Subset,
    enumerate_configs,
    iter_supports,
    oracle,
    validate_subset,
    weigh,
    weigh_runs,
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
    return list(enumerate_configs(n))


def assert_transcript_valid(config: Configuration, transcript: Transcript):
    """The universal transcript contract, re-checked from scratch.  Each
    subset is weighed as a plain tuple, so ``weigh`` checks it index by
    index rather than trusting the ``Subset`` that ``model`` made."""
    assert transcript.estimate == config.weights
    assert sum(transcript.estimate) == 2
    assert transcript.weighings >= 1
    for subset, outcome in transcript.queries:
        assert weigh(config, tuple(subset)) == outcome


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

    @pytest.mark.parametrize("runner", [run_proposed, run_nested])
    def test_estimate_is_the_weights_of_any_config(self, runner):
        # A configuration built from a list or from non-int zeros stores the
        # same dense tuple that the estimate is, so the two compare equal.
        for weights in ([0, 1, 0, 1], (2, False, 0.0)):
            config = Configuration(weights)
            assert runner(config).estimate == config.weights

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
        # At each joint round a run enters, a and b weigh 1 each, and at
        # each tie-break their lower halves weigh 1 together: weighed on
        # the true support with ``weigh_runs``, which logs nothing.
        root = strategies._root(strategies._PROPOSED, n)
        for config in all_configs(n):
            assert run_proposed(config).estimate == config.weights
            scale = partial(weigh_runs, *config.positions)
            visited, _ = passed_states(root, config.positions)
            for kind, *regions in visited:
                if kind != strategies._PI1 and kind != strategies._PI2:
                    continue
                alo, ahi, blo, bhi = regions
                assert scale(((alo, ahi),)) == scale(((blo, bhi),)) == 1
                if kind == strategies._PI2:
                    lower = _union(alo, (alo + ahi) // 2, blo, (blo + bhi) // 2)
                    assert scale(lower) == 1, (config, regions)

    def test_possible_readings_are_followed(self):
        # A scale that reports a 1 / 1 split and weight 0 afterwards gives
        # readings that support (2, 4) gives, so the run ends there.
        assert strategies._proposed_core(4, lying_scale([1])) == (2, 4)

    @pytest.mark.parametrize(
        "n, answers, regions",
        [
            # Π2 on a = [1, 3) and b = [3, 5): b's quarter is empty, so no
            # scale reads 2 on a's lower coin alone.
            (4, [1, 1, 2], "[1, 3), [3, 5)"),
            # Π1 reads 3 or -1 on two runs of weight 1 each at most.
            (4, [1, 3], "[1, 3), [3, 5)"),
            (8, [1, -1], "[1, 5), [5, 9)"),
            # Π2 on a = [9, 13) and b = [13, 17) weighs [9, 11) and [15, 16).
            (16, [0, 1, 1, 3], "[9, 13), [13, 17)"),
        ],
        ids=["pi2-2-empty-quarter", "pi1-3", "pi1-minus-1", "pi2-3"],
    )
    def test_impossible_joint_reading_raises(self, n, answers, regions):
        with pytest.raises(InternalContractError) as info:
            strategies._proposed_core(n, lying_scale(answers))
        assert str(info.value) == (
            f"weighed {answers[-1]} in a joint round on {regions}"
        )

    @pytest.mark.parametrize("reading", [3, -1])
    def test_impossible_weight_two_reading_raises(self, reading):
        # No honest scale reads 3 or -1 on a half of a run of weight 2; the
        # core raises instead of taking it for a 1 / 1 split.
        with pytest.raises(InternalContractError) as info:
            strategies._proposed_core(8, lying_scale([reading]))
        assert str(info.value) == f"w(s)=2 but weighed {reading} on a half"

    @pytest.mark.parametrize("config", [5, None, (0, 2), "0,2"])
    @pytest.mark.parametrize(
        "runner", [run_proposed, run_nested], ids=["proposed", "nested"]
    )
    def test_rejects_what_is_not_a_configuration(self, runner, config):
        with pytest.raises(InvalidConfigurationError, match="not a Configuration"):
            runner(config)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_worst_case_attained(self, l):
        worst = max(
            run_proposed(c).weighings for c in all_configs(1 << l)
        )
        assert worst == 2 * l - 1

    @given(st.data())
    def test_recovery_random(self, data):
        n = data.draw(st.integers(2, 64))
        config = data.draw(st.sampled_from(all_configs(n)))
        transcript = run_proposed(config)
        assert_transcript_valid(config, transcript)
        # 2 ceil(log2 n) - 1, which is 2l - 1 at n = 2**l.
        assert transcript.weighings <= 2 * (n - 1).bit_length() - 1

    @pytest.mark.parametrize(
        "weights, queries",
        [
            ((1, 1, 0), (((1,), 1), ((2,), 1))),
            (
                (0, 1, 0, 0, 1, 0),
                (((1, 2, 3), 1), ((1, 4), 0), ((2, 5), 2)),
            ),
        ],
    )
    def test_runs_on_non_power_of_two(self, weights, queries):
        # Halves of a run of odd size differ by one coin; the split is the
        # same midpoint (lo + hi) // 2 as at a power of two.
        config = Configuration(weights)
        transcript = run_proposed(config)
        assert transcript.queries == queries
        assert_transcript_valid(config, transcript)


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

    @pytest.mark.parametrize(
        "query", [(), (2,), (5,)], ids=["empty", "resolved-coin", "past-n"]
    )
    def test_query_in_no_open_region_rejected(self, query):
        # After {1,2} -> 1 and {1} -> 1, coins 1 and 2 are resolved and only
        # {3,4} is open.  An empty query, one at coin 2 and one at coin 5,
        # past n = 4, start in no open region.
        transcript = Transcript(
            queries=(((1, 2), 1), ((1,), 1), (query, 0)),
            estimate=(1, 0, 0, 1),
        )
        assert not check_nested(transcript)

    @pytest.mark.parametrize("transcript", [5, None, EXAMPLE_CONFIG])
    def test_rejects_what_is_not_a_transcript(self, transcript):
        with pytest.raises(InvalidConfigurationError, match="not a Transcript"):
            check_nested(transcript)


class TestBudget:
    @given(st.data())
    def test_both_strategies_within_bounds(self, data):
        l = data.draw(st.integers(1, 5))
        config = data.draw(st.sampled_from(all_configs(1 << l)))
        for runner in (run_proposed, run_nested):
            transcript = runner(config)
            assert 1 <= transcript.weighings <= 2 * l - 1


def assert_subsets_sliced(transcript: Transcript, queries, n: int):
    """Each subset is a ``Subset`` of ints whose copy as a plain tuple
    validates index by index, and it equals the concatenation of
    ``tuple(range(lo, hi))`` over the core's runs."""
    assert len(transcript.queries) == len(queries)
    for (subset, outcome), (runs, core_outcome) in zip(
        transcript.queries, queries
    ):
        assert type(subset) is Subset
        assert set(map(type, subset)) == {int}
        validate_subset(tuple(subset), n)
        reference: tuple[int, ...] = ()
        for lo, hi in runs:
            reference += tuple(range(lo, hi))
        assert (subset, outcome) == (reference, core_outcome)


def logged(core, n: int, p: int, q: int):
    """Run ``core`` on the scale of ``model.oracle`` for the support (p, q);
    return the oracle's log and the recovered support."""
    ask, log = oracle(p, q)
    return log, core(n, ask)


class TestTranscriptSubsets:
    @pytest.mark.parametrize("l", range(1, 9))
    @pytest.mark.parametrize(
        "runner, core",
        [
            (run_proposed, strategies._proposed_core),
            (run_nested, strategies._nested_core),
        ],
        ids=["proposed", "nested"],
    )
    def test_subsets_match_runs(self, runner, core, l):
        n = 1 << l
        for config in all_configs(n):
            queries, _ = logged(core, n, *config.positions)
            assert_subsets_sliced(runner(config), queries, n)

    def test_positions_grow_and_are_reused(self, monkeypatch):
        # Entries made before the reset, from a longer _POSITIONS, are still
        # the runs' positions afterwards, and are shared by later runs.
        before = run_nested(Configuration.type_two(8, 3, 8))
        monkeypatch.setattr(model, "_POSITIONS", ())
        for n in (5000, 8):
            config = Configuration.type_two(n, 3, n)
            transcript = run_nested(config)
            assert_transcript_valid(config, transcript)
            queries, _ = logged(strategies._nested_core, n, 3, n)
            assert_subsets_sliced(transcript, queries, n)
            # Grown for n = 5000, then reused, not shrunk, for n = 8.
            assert len(model._POSITIONS) == 5001
        assert transcript.queries == before.queries
        assert all(
            now is then
            for (now, _), (then, _) in zip(transcript.queries, before.queries)
        )

    def test_subsets_match_runs_at_cap(self):
        # 200 seeded supports at n = 4096, type I among them: far more
        # distinct queries than the 512 entries of _subset's memo, so
        # entries are evicted and made again while the sample runs.
        n = 4096
        rng = random.Random(28)
        supports = [(pos, pos) for pos in rng.sample(range(1, n + 1), 10)]
        supports += [tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(190)]
        model._subset.cache_clear()
        for p, q in supports:
            config = Configuration.type_one(n, p) if p == q else Configuration.type_two(n, p, q)
            for runner, core in (
                (run_proposed, strategies._proposed_core),
                (run_nested, strategies._nested_core),
            ):
                transcript = runner(config)
                assert transcript.estimate == config.weights
                queries, _ = logged(core, n, p, q)
                assert_subsets_sliced(transcript, queries, n)
        assert model._subset.cache_info().misses > model._subset.cache_info().maxsize

    @pytest.mark.parametrize(
        "runs",
        [
            ((1, 3), (2, 4)),
            ((3, 4), (1, 2)),
            ((2, 2),),
            ((0, 2),),
            ((1, 6),),
            (),
        ],
        ids=["overlapping", "descending", "empty-run", "from-0", "past-n", "no-run"],
    )
    def test_rejects_runs_that_break_the_subset_contract(self, monkeypatch, runs):
        # Positions past n + 1 are present, so an unchecked run past n would
        # slice coins that do not exist instead of being cut short.
        monkeypatch.setattr(model, "_POSITIONS", tuple(range(64)))
        with pytest.raises(InternalContractError):
            model._logged_subsets(4, [(((1, 2),), 1), (runs, 0)])

    @pytest.mark.parametrize(
        "runs", [((1, 6),), ((1, 3), (2, 4))], ids=["past-n", "overlapping"]
    )
    def test_rejected_runs_leave_no_entry(self, monkeypatch, runs):
        # _POSITIONS holds exactly 0..4, so a run past n = 4 that reached
        # the memo would be cut short to (1, 2, 3, 4) and kept for n = 8.
        monkeypatch.setattr(model, "_POSITIONS", tuple(range(5)))
        model._subset.cache_clear()
        with pytest.raises(InternalContractError):
            model._logged_subsets(4, [(runs, 0)])
        assert model._subset.cache_info().currsize == 0
        ((subset, outcome),) = model._logged_subsets(8, [(((1, 6),), 1)])
        assert type(subset) is Subset
        assert (subset, outcome) == (Subset(range(1, 6)), 1)

    def test_dense_entries_are_per_support(self):
        # The type-I key (p, p) and the type-II key (p, q) at one n are
        # distinct entries, each equal to a fresh build.
        n = 16
        for p, q, weights in (
            (5, 5, [0] * 4 + [2] + [0] * 11),
            (5, 9, [0] * 4 + [1] + [0] * 3 + [1] + [0] * 7),
        ):
            dense = model._dense(n, p, q)
            fresh = model._dense.__wrapped__(n, p, q)
            assert type(dense) is tuple and dense == fresh == tuple(weights)
            assert model._dense(n, p, q) is dense
            built = Configuration(weights).weights
            assert type(built) is tuple and built == fresh


def passed_states(root, support):
    """The states, in real coordinates, that the run of ``support`` from
    ``root`` passes through, and the leaf it ends at.

    Each step is taken as ``_follow`` takes it, on the canonical form, and
    the next state is placed back among the real coins with ``_at``.  The
    runs weighed on the way must be those that ``_follow`` weighs, and it
    must end at the same support.
    """
    visited = []
    asked = []
    state = root
    while state[0] != strategies._FOUND:
        visited.append(state)
        canon, offsets = strategies._canon(state)
        runs = tuple(strategies._at(run, offsets) for run in strategies._query(canon))
        asked.append(runs)
        after = strategies._advance(canon, weigh_runs(*support, runs))
        state = after[:1] + strategies._at(after[1:], offsets)
    ask, log = oracle(*support)
    assert strategies._follow(root, ask) == state[1:]
    assert [runs for runs, _ in log] == asked
    return visited, state


def shape_points(state):
    """Every support in ``strategies._shape(state)``'s blocks, in a list,
    so that a support in two blocks shows twice."""
    return [
        (p, q)
        for i0, i1, j0, j1 in strategies._shape(state)
        for p in range(i0, i1)
        for q in range(max(j0, p), j1)
    ]


class TestShape:
    @pytest.mark.parametrize("kind", [strategies._PROPOSED, strategies._NESTED])
    def test_set_is_the_supports_whose_run_passes(self, kind):
        # At every n <= 64, each state of the tree stands for exactly the
        # supports whose ``_follow`` run passes through it: the sets of a
        # state's children partition its own set.
        advance = strategies._advance
        for n in range(2, 65):
            root = strategies._root(kind, n)
            through = {}
            for support in iter_supports(n):
                visited, leaf = passed_states(root, support)
                assert leaf[1:] == support
                for state in (*visited, leaf):
                    through.setdefault(state, set()).add(support)
            stack = [root]
            while stack:
                state = stack.pop()
                points = shape_points(state)
                assert len(points) == len(set(points)), (n, state)
                assert set(points) == through.pop(state, set()), (n, state)
                if state[0] != strategies._FOUND:
                    below = (advance(state, o) for o in (0, 1, 2))
                    stack += [child for child in below if child is not None]
            # No run passed through a state outside the tree.
            assert through == {}

    def test_blocks_are_ordered(self):
        # Π2 with a above b, and Π0 on weight 1 on a with b's coin above
        # it, give blocks whose first run lies below their second.
        assert strategies._shape((strategies._PI2, 9, 13, 1, 9)) == (
            (5, 9, 9, 11),
            (1, 5, 11, 13),
        )
        assert strategies._shape((strategies._ONE, 1, 5, 7, 8)) == ((1, 5, 7, 8),)
        assert strategies._shape((strategies._FOUND, 3, 3)) == ((3, 4, 3, 4),)

    def test_one_searches_the_region_of_more_coins(self):
        # Π0 on weight 1 keeps bisecting a region of more than one coin
        # first, whichever of the two it was given first.
        assert (
            strategies._one(7, 8, 1, 5)
            == strategies._one(1, 5, 7, 8)
            == (strategies._ONE, 1, 5, 7, 8)
        )


# The recursive cores the loop cores replaced, with their ``_union``, kept as
# the reference they must match: Π0, Π1 and Π2 as mutually recursive
# closures, and nested bisection as one recursive closure.  Their logic and
# messages are unchanged, except that ``pi0``, like ``solve``, takes only a
# reading of 1 on weight 2 for a 1 / 1 split and raises on any other, and
# that ``pi1`` and ``pi2`` raise on any reading no scale gives them, with
# ``pi2`` using its general rule when a and b both have two coins; only
# annotations and comments were dropped.  Like the loop cores, they weigh
# only through the scale ``ask`` they are given and return the support, so
# a test can hand both the same lying scale.
def _union(alo, ahi, blo, bhi):
    if alo < blo:
        return ((alo, ahi), (blo, bhi))
    return ((blo, bhi), (alo, ahi))


def recursive_proposed_core(n, ask):
    found = []

    def pi0(lo, hi, w):
        if hi - lo == 1:
            found.extend((lo,) * w)
            return
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            pi0(mid, hi, w)
        elif o == w:
            pi0(lo, mid, w)
        elif w == 2 and o == 1:
            pi1(lo, mid, mid, hi)
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")

    def impossible(o, alo, ahi, blo, bhi):
        return InternalContractError(
            f"weighed {o} in a joint round on [{alo}, {ahi}), [{blo}, {bhi})"
        )

    def pi1(alo, ahi, blo, bhi):
        if ahi - alo == 1 or bhi - blo == 1:
            pi0(alo, ahi, 1)
            pi0(blo, bhi, 1)
            return
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        o = ask(_union(alo, amid, blo, bmid))
        if o == 0:
            pi1(amid, ahi, bmid, bhi)
        elif o == 2:
            pi1(alo, amid, blo, bmid)
        elif o == 1:
            pi2(alo, ahi, blo, bhi)
        else:
            raise impossible(o, alo, ahi, blo, bhi)

    def pi2(alo, ahi, blo, bhi):
        if bhi - blo < ahi - alo:
            alo, ahi, blo, bhi = blo, bhi, alo, ahi
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        bqtr = (bmid + bhi) // 2
        if bmid == bqtr:
            o = ask(((alo, amid),))
        else:
            o = ask(_union(alo, amid, bmid, bqtr))
        if o == 0:
            pi1(amid, ahi, blo, bmid)
        elif o == 1:
            pi1(alo, amid, bqtr, bhi)
        elif o == 2 and bmid < bqtr:
            pi1(alo, amid, bmid, bqtr)
        else:
            raise impossible(o, alo, ahi, blo, bhi)

    pi0(1, n + 1, 2)
    lo_coin, hi_coin = sorted(found)
    return lo_coin, hi_coin


def recursive_nested_core(n, ask):
    found = []

    def solve(lo, hi, w):
        if hi - lo == 1:
            found.extend((lo,) * w)
            return
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            solve(mid, hi, w)
        elif o == w:
            solve(lo, mid, w)
        elif w == 2 and o == 1:
            solve(lo, mid, 1)
            solve(mid, hi, 1)
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")

    solve(1, n + 1, 2)
    lo_coin, hi_coin = sorted(found)
    return lo_coin, hi_coin


def supports(n: int):
    """Hypothesis strategy for one support (p, q) of n coins, p <= q."""
    return st.integers(1, n).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(p, n))
    )


# n = 4096, or any size below it that is not a power of two.
sizes_to_4096 = st.one_of(
    st.just(4096),
    st.integers(3, 4095).filter(lambda n: n & (n - 1)),
)


def lying_scale(answers):
    """A scale that answers each weighing with the next of ``answers``, true
    or not, and 0 once they run out."""
    replies = iter(answers)
    return lambda runs: next(replies, 0)


def run_on_oracle(core, answers, n: int):
    """Run ``core`` with every weighing answered from ``answers`` (0 once
    they run out).  Return the logged weighings with
    their answers, and the recovered support or the message of the contract
    error the core raised."""
    lie = lying_scale(answers)
    log = []

    def ask(runs):
        outcome = lie(runs)
        log.append((runs, outcome))
        return outcome

    try:
        result = core(n, ask)
    except InternalContractError as exc:
        result = f"InternalContractError: {exc}"
    return log, result


class TestLoopCoresMatchRecursive:
    @pytest.mark.parametrize("l", range(1, 9))
    def test_proposed_every_support(self, l):
        # Every n with ceil(log2 n) = l up to n = 64, and n = 2**l above.
        sizes = range((1 << (l - 1)) + 1, (1 << l) + 1) if l <= 6 else [1 << l]
        for n in sizes:
            for p, q in iter_supports(n):
                assert logged(strategies._proposed_core, n, p, q) == logged(
                    recursive_proposed_core, n, p, q
                ), (n, p, q)

    def test_nested_every_support(self):
        for n in range(2, 65):
            for p, q in iter_supports(n):
                assert logged(strategies._nested_core, n, p, q) == logged(
                    recursive_nested_core, n, p, q
                ), (n, p, q)

    @given(st.data())
    def test_proposed_n4096(self, data):
        n = data.draw(sizes_to_4096)
        p, q = data.draw(supports(n))
        assert logged(strategies._proposed_core, n, p, q) == logged(
            recursive_proposed_core, n, p, q
        )

    @given(st.data())
    def test_nested_n4096_and_non_powers_of_two(self, data):
        n = data.draw(sizes_to_4096)
        p, q = data.draw(supports(n))
        assert logged(strategies._nested_core, n, p, q) == logged(
            recursive_nested_core, n, p, q
        )

    @given(st.integers(2, 65), st.lists(st.integers(-1, 3), max_size=30))
    def test_same_queries_and_errors_on_any_oracle(self, n, answers):
        # Any sequence of outcomes, true or not, yields the same queries and
        # support, or the same contract error.
        assert run_on_oracle(
            strategies._proposed_core, answers, n
        ) == run_on_oracle(recursive_proposed_core, answers, n)
        assert run_on_oracle(
            strategies._nested_core, answers, n
        ) == run_on_oracle(recursive_nested_core, answers, n)


# sha256 of the concatenated ``trace`` text of every transcript at one size,
# configurations in canonical order, as produced before the executors worked
# on runs (lo, hi): the interval cores must reproduce every query verbatim.
PROPOSED_DIGESTS = {
    1: "4e7e9674df3ae0b1c30cc6e4973d9d5a2cab34f7487a3ad8df2b9cbde975c1cf",
    2: "88c8a4dc817c854fcfca2ad229d4c69fa31bcf44a738a9950c2f16c0e2ecd2a5",
    3: "4a7f61256a3ed56b27638c4084a684f8308848b7413eb6048b8557ab951f22e5",
    4: "0e3dcc9333fe94c523b25839f897957dcb92d881bc051dfbb1086ddbd8b67661",
    5: "9f46003fbb2140fa212e7418aac0906cb3b31ecc9371f1b5e6076196970404e7",
    6: "5cbd8fc69a018bbe5883ce6aaf1021e217be337ad670fa68ec257931d6dcf3de",
    7: "2d41e24abe71f6e6a6c7710854b6ead0b1c383bfc8988003401fe16b6059329a",
}
NESTED_DIGESTS = {
    2: "4e7e9674df3ae0b1c30cc6e4973d9d5a2cab34f7487a3ad8df2b9cbde975c1cf",
    3: "78b01176cbfb4297aa000a330f2a891489092909db12a24faef1f8a56c9764c8",
    4: "79a0671fcdf7e63b47bcd417c80f5252efc7ec405fbcf39735b6eada30bd7d4c",
    5: "f5c93631acad0a2f8b932e0cc026fd137a628d9767c177c74be6315d2cb264fc",
    6: "89995fa81695b2e11bf7b20ba4d7de5df7e4c8df3d31d41e11503c09787011f5",
    7: "db194dabcd8549fe83e085eee07f213bce9fcb75c97807b8d0ff111bf3a4e748",
    8: "1b7533976dadbfa4f9ce4cfe3c48f0b5170027f09fae3752e52f79cc9d85fe5b",
    9: "9774495a070a3ea8ec59f2a4491fbf390ea6d47089a710d542fc94092033d901",
    10: "6428d9163ff843670a147e351fdbecd3989822d6297c7295f726f5f597cc8086",
    11: "3ec671d567ef71b12b5ec8bf7925e998517c88bdb3866a5db6e1ea8a7efe8f31",
    12: "71df44ecceed721265d7cf348a20b5d6c3acbfb7d1f01cb0c092cbeb8c468a40",
    13: "82287f49069313316ddc6c72f1c6312eab0f503816ef647fcf8c0357578bbbcc",
    14: "87d53f39f6730de276ac1b45aad877e44694a90a73b74e3b3b44f0d4d77b347d",
    15: "98f0286fe50a5da7771d3de84d83584d7c61290d3ad82ded113ddf92cbbb29d8",
    16: "aeb0701a37e118f5348efcf9b72693d0a682fc30ecd45d2369983742c7ccc226",
    17: "0b783fd1281dc0c5864ddbdce3bedc8792d240609b6d1419b1591147418c9041",
    18: "f8f770438c7cfd96a20c8f11c05561a0b55b722bc2eb9e406e6ffabbb2fbb7f3",
    19: "065691db7771a3514c5d4256e3975f7b88832ef27e3b0ecbdaa28b914538937a",
    20: "df2155d152da54f3d3490ab74509bd21517cf35f3dc29eaa352102557d8b5137",
    21: "ca8e6723c1ed92ce24dedcee82099cf0bda5fc4803fdce78f7eff1def29b58e4",
    22: "4bf8185b5cb3411bd3b492c44208be59ef1012a9fd17393470c80993683ac530",
    23: "608e3538b3a3e78eb8e567dacff0865ade6e45526e4bb88ca972333c2fec75da",
    24: "bd41194ee5b43b4b7f97a2d33e9cc30e158320a0e14ace20226c767e3f0a4b9d",
    25: "d751f3557f05379b36c59bfb3a92cb04c5a985901a1ea4cb0154d3ab69577c42",
    26: "95420367963fecdbd66e4befaa73c6fb06d51b6505fd4078f7618b0868d8228b",
    27: "d4bf36bf91a77819dc74f8ae52a0cfd7ad60cb62ecff91df3a62c374ccb87c18",
    28: "dd8779a7e1336c85a59cec6bca80e30713bf63071c6dd5e0f853e63f17a9f1cf",
    29: "e40ce019a2236ac43844700a5463ace3d7d086a41ba3748edacbdf08d84b7497",
    30: "4735be285f2c7b2fd325c5efdbf95b8581846becab9c926c3e2289a977987be6",
    31: "4b6b9fca7dc71d1c25b183c46ae2c1d8bbc75a6729bf9fbe9b118d25f5845a3b",
    32: "f6e730b28906c29fcf2ea665e306b5419bba3d741356ed2a15482d8e66573ba8",
    33: "0bcb2b233426f6e63f36847cbdb4ea9df1673908d837122687822615fd93aadd",
    34: "61c5119d417b59b3d948b8d642827c9b4aaeeb5d45f819afc3d94c6f9155a60a",
    35: "a3714070d5a6ba0dd6e7e952f28894b9f6f2f089409c61b6f9d643dc71b72a1f",
    36: "500dbfd9c310e8f30ec775ed73a3bd329063e66885721c5adbeb76869cd3b10e",
    37: "ea215beb0d5e08e9b73d1fb5ec62799e8715c26c53d9314979390ed18c1f52cd",
    38: "2d501b249358885feb8565b507242b0d5b6266781c0542b7793c028e8642aa35",
    39: "69dadb3eb25432814f621f8a4e14ec0d3cd5cd3e81a3286e3c60e64a266ee439",
    40: "ce4ffcc963fad4738cf53adeb49aceea81319c6f74d162ec1cbf45a8c739ef16",
    41: "82fd72851edf93ad62a3e6e2011a53f0216722e484f628d5b070e82026ec935c",
    42: "70d3393fc48576d5308c18cbe3d72a3d2e2e28729bd12865504ff20eafa51c1c",
    43: "e6f42dbdeb31ca2453b26fc027be81ab906d2b187b5bc3fedb5b766384015a57",
    44: "a2e72f97784148f262edbf4969deaf92bea2682f3a1923f39c919674bd05c06f",
    45: "683494489620a61a1a5ce439420294fae17c6ad08298d02ada72d3dd197ba8a4",
    46: "b04b5ccfb7bd01de45a8d9d3b7fc125871c4d9c9e495f56459ca57ab2a1f1606",
    47: "9a155982576fa297a7706a63eff83f9c703477835843a68dc7de4a7eb59eb13b",
    48: "78071fb13cace07983625021b8723e8e4d5dc7b8f148a1a1b37797110ae214ee",
    49: "ead65b64cbb8b4af0bdd22c4df0b92d95a027a3a1629f6f560bbb1e709d291db",
    50: "526d7bc0345ce60b354c724975e893c898aade0e8afc2a9b5426d4c080464c4e",
    51: "7970e8807d0e4181fa71dabacfe1397fc7a171ff594ca88b2c142a2c2ccbcde4",
    52: "254111accf55513ef8f42454b9c903a940bdb9a18efe989e175821511f4e1029",
    53: "05e112d441a260334c548f85c0e7dbc795ca950979899140ffd6f4cd4e0c2bcd",
    54: "ee097c5048c903e12645542a71dd58405c3f6ef068ae1139d8c5c7eee51c6315",
    55: "d366c9250b12791420d1594244c8e58843469a58e4fb0240b247aebee9334b9c",
    56: "3c49b195c9d9a6cbaf6523c1cb58d1f0fa3e8f2992c2da2479ccd9d2e2ab4abe",
    57: "5b355639fa5ba17a1367e8fba1e74c949155ba486131aa17d284e82f16628fd9",
    58: "125248f0d456addd4a5cf92444919b90c10efd2ba6e0413e51569963e9289cfa",
    59: "08657d6b3ac1b2efaf77d7b3c5c87978f619de164f9780dc8d8589a47e3a0204",
    60: "447bf39e24099b5048afb1fba17f76b0fe914ea92e3b7856d1737ce8333a22ad",
    61: "957bcb86d88dda7ec394d71ef3a01f0a8708cf0819cec2b26a42680e998b3226",
    62: "6b2772407aa5c4d8d77badd834a36dab017da0e57e955c4b1e783d7524a959d6",
    63: "f2fb263447934c8d8cf4d6675b4f1247d2e6c6ced4b6bafbb2cb9cc6a6379047",
    64: "6c35e0be68d8a74fe0a5243dde434efa63b0a3e11b6bf92367e5122ef6b85321",
}


def trace_digest(runner, n: int) -> str:
    digest = hashlib.sha256()
    for config in all_configs(n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._print_transcript(runner(config))
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


class TestTranscriptDigests:
    @pytest.mark.parametrize("l", sorted(PROPOSED_DIGESTS))
    def test_proposed(self, l):
        assert trace_digest(run_proposed, 1 << l) == PROPOSED_DIGESTS[l]

    @pytest.mark.parametrize("n", sorted(NESTED_DIGESTS))
    def test_nested(self, n):
        assert trace_digest(run_nested, n) == NESTED_DIGESTS[n]
