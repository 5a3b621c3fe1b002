"""Exhaustive verification layer: simulation statistics, analytic
cross-checks, and the least-squares fit helper."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from coinweigh import strategies, verify
from coinweigh.analysis import (
    nested_closed_forms,
    nested_tables,
    t_ave_proposed,
)
from coinweigh.model import (
    InternalContractError,
    InvalidSizeError,
    TooLargeError,
    config_count,
    iter_supports,
)
from coinweigh.verify import (
    _run_range,
    cross_check,
    exhaustive_stats,
    fit_loglinear,
)

F = Fraction


def rows_equal(a, b):
    """StatsRow equality minus the wall-clock field."""
    return (
        (a.l, a.n, a.strategy, a.average, a.max_weighings, a.configs)
        == (b.l, b.n, b.strategy, b.average, b.max_weighings, b.configs)
        and a.per_delta == b.per_delta
    )


class TestExhaustiveStats:
    def test_n4_proposed(self):
        stats = exhaustive_stats(4, "proposed")
        assert stats.average == F(11, 5)
        assert stats.max_weighings == 3
        assert stats.configs == 10

    def test_n4_nested(self):
        stats = exhaustive_stats(4, "nested")
        assert stats.average == F(12, 5)
        assert stats.max_weighings == 3

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_n2(self, strategy):
        stats = exhaustive_stats(2, strategy)
        assert stats.average == 1
        assert stats.max_weighings == 1
        assert stats.configs == 3

    def test_per_delta_census(self):
        stats = exhaustive_stats(8, "proposed")
        for delta, (_, count) in stats.per_delta.items():
            assert count == (8 if delta == 0 else 8 - delta)
        assert sum(c for _, c in stats.per_delta.values()) == config_count(8)

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_accepts_any_size(self, strategy):
        # Every n = 2..64, powers of two or not: every edge of the walk
        # passes its checks (else the walk raises), the leaves are every
        # configuration and none takes more than 2 ceil(log2 n) - 1 weighings.
        averages = {}
        for n in range(2, 65):
            stats = exhaustive_stats(n, strategy, threads=1)
            assert stats.configs == config_count(n)
            assert stats.l == (n.bit_length() - 1 if n & (n - 1) == 0 else None)
            assert stats.max_weighings <= 2 * (n - 1).bit_length() - 1, n
            averages[n] = stats.average
        if strategy == "proposed":
            assert [averages[n] for n in range(2, 9)] == [
                1, F(11, 6), F(11, 5), F(8, 3), F(64, 21), F(93, 28), F(7, 2)
            ]
        else:
            opt2 = nested_tables(64).opt2
            assert all(averages[n] == opt2[n] for n in averages)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="^unknown strategy 'greedy'$"):
            exhaustive_stats(4, "greedy")
        # An unhashable one too, not a TypeError from the name lookup.
        with pytest.raises(ValueError, match=r"^unknown strategy \['x'\]$"):
            exhaustive_stats(4, ["x"])

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            exhaustive_stats(1 << 13, "proposed")
        with pytest.raises(TooLargeError):
            exhaustive_stats(4097, "nested")

    def test_deterministic(self):
        assert rows_equal(
            exhaustive_stats(16, "proposed"), exhaustive_stats(16, "proposed")
        )

    def test_parallel_merge_matches_sequential(self):
        # ``threads`` has no effect.
        assert rows_equal(
            exhaustive_stats(32, "proposed", threads=1),
            exhaustive_stats(32, "proposed", threads=2),
        )

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CW_THREADS", "2")
        from_env = exhaustive_stats(16, "nested")
        assert rows_equal(from_env, exhaustive_stats(16, "nested", threads=1))

    def test_rejects_bad_threads(self, monkeypatch):
        with pytest.raises(InvalidSizeError):
            exhaustive_stats(4, "proposed", threads=0)
        with pytest.raises(InvalidSizeError):
            exhaustive_stats(4, "proposed", threads=True)
        for env in ("0", "-3", "two"):
            monkeypatch.setenv("CW_THREADS", env)
            with pytest.raises(InvalidSizeError, match="^CW_THREADS must"):
                exhaustive_stats(4, "proposed")


def merge_partials(a, b):
    per_delta = {delta: list(cell) for delta, cell in a[3].items()}
    for delta, (total, count) in b[3].items():
        cell = per_delta.setdefault(delta, [0, 0])
        cell[0] += total
        cell[1] += count
    return a[0] + b[0], a[1] + b[1], max(a[2], b[2]), per_delta


def run_range_row(n, strategy):
    """The whole-range ``_run_range`` partial of n coins, as the fields of
    the ``StatsRow`` that ``rows_equal`` compares."""
    count, total, worst, cells = _run_range(n, strategy, 0, config_count(n))
    per_delta = {
        delta: (F(dtotal, dcount), dcount)
        for delta, (dtotal, dcount) in sorted(cells.items())
    }
    return count, F(total, count), worst, per_delta


def children(state):
    """The states below ``state``, one for each reading 0, 1 or 2 that
    ``strategies._advance`` accepts."""
    if state[0] == strategies._FOUND:
        return []
    below = (strategies._advance(state, o) for o in (0, 1, 2))
    return [child for child in below if child is not None]


def subtree_leaves(state):
    """The support of every leaf below ``state``."""
    if state[0] == strategies._FOUND:
        return [state[1:]]
    return [leaf for child in children(state) for leaf in subtree_leaves(child)]


class TestWalk:
    SIZES = [*range(2, 71), 127, 128, 129, 255, 256, 257]

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_matches_run_range(self, strategy):
        # The walk and the per-configuration runs give the same row at every
        # size.
        for n in self.SIZES:
            row = exhaustive_stats(n, strategy)
            assert (
                row.configs, row.average, row.max_weighings, row.per_delta
            ) == run_range_row(n, strategy), n

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_every_edge_passes_its_checks(self, strategy):
        # Sizes that the row test above does not walk: with it, every
        # n <= 129, and the top of the range up to 300.  Every edge passes
        # its checks (else the walk raises) and the leaves are every
        # configuration.
        for n in [*range(71, 127), 299, 300]:
            assert exhaustive_stats(n, strategy).configs == config_count(n)

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 31, 64, 100])
    def test_frontier_splits_the_configurations(self, strategy, n):
        # The states reached from the root in exactly d steps, for each d,
        # until every one is a leaf: the subtrees below each such frontier
        # hold every configuration exactly once.  Each state is its
        # canonical form placed back by its offsets, and that form has its
        # regions from coin 1 on, one coin apart.
        frontier = [strategies._root(verify._ROOTS[strategy], n)]
        while not all(state[0] == strategies._FOUND for state in frontier):
            leaves = [leaf for state in frontier for leaf in subtree_leaves(state)]
            assert sorted(leaves) == sorted(iter_supports(n))
            for state in frontier:
                if state[0] == strategies._FOUND:
                    continue
                canon, offsets = strategies._canon(state)
                assert canon[:1] + strategies._at(canon[1:], offsets) == state
                regions = sorted(strategies._regions(canon))
                assert regions[0][0] == 1
                if len(regions) == 2:
                    assert regions[1][0] == regions[0][1] + 1 == offsets[0]
            frontier = [
                child for state in frontier for child in children(state) or [state]
            ]

    @pytest.mark.parametrize(
        "strategy, states", [("proposed", 95), ("nested", 89)]
    )
    def test_each_canonical_state_is_stepped_once(
        self, monkeypatch, strategy, states
    ):
        # The tree of n = 4096 has 8,390,656 leaves, but up to translating
        # each region on its own only this many states that are not leaves:
        # the walk asks each of them for its three readings once.
        calls = [0]
        advance = verify._advance

        def counted(state, o):
            calls[0] += 1
            return advance(state, o)

        monkeypatch.setattr(verify, "_advance", counted)
        exhaustive_stats(4096, strategy)
        assert calls[0] == 3 * states

    @pytest.mark.parametrize("l", [13, 14])
    def test_past_the_cap(self, l):
        # The walk itself takes sizes past the enumeration cap: each leaf is
        # one configuration, the averages are the analytic ones and the
        # worst case is 2l - 1.
        n = 1 << l
        analytic = {
            "proposed": t_ave_proposed(l),
            "nested": nested_closed_forms(l)[1],
        }
        for strategy, average in analytic.items():
            count, total, worst, _ = verify._tree(n, strategy)
            assert count == config_count(n) == n + n * (n - 1) // 2
            assert F(total, count) == average
            assert worst == 2 * l - 1

    def test_leaf_past_the_last_coin(self, monkeypatch):
        # Π0 on weight 2 on two coins [lo, lo + 2) ends its reading 0 at
        # coin lo + 2, past its run: at n = 2 that is coin n + 1, which
        # reads 0 on every weighing, as coin n does.  So only the leaf's
        # containment in its parent's set, the root's, tells the planted
        # leaf from the true one.
        advance = verify._advance

        def past_n(state, o):
            if state[0] == strategies._NESTED and state[2] - state[1] == 2 and o == 0:
                return (strategies._FOUND, state[2], state[2])
            return advance(state, o)

        monkeypatch.setattr(verify, "_advance", past_n)
        with pytest.raises(
            InternalContractError,
            match=r"^nested failed to recover support \(2, 2\) of n=2: got \(3, 3\)$",
        ):
            exhaustive_stats(2, "nested", threads=1)

    def test_leaf_on_readings_no_configuration_gives(self, monkeypatch):
        # A step function that ends a reading of 3, which no scale gives, at
        # a leaf: the leaf does not read 3, and no configuration in its
        # parent's set does.
        advance = verify._advance

        def lying(state, o):
            if o == 3:
                return (strategies._FOUND, 1, 2)
            return advance(state, o)

        monkeypatch.setattr(verify, "_READINGS", (0, 1, 2, 3))
        monkeypatch.setattr(verify, "_advance", lying)
        with pytest.raises(
            InternalContractError,
            match=r"^proposed reached support \(1, 2\) of n=2 on readings that no "
            r"configuration gives$",
        ):
            exhaustive_stats(2, "proposed", threads=1)


# Planted faults: each takes the true ``_advance`` (or ``_query``) and
# returns one that builds a wrong tree.  ``exhaustive_stats`` must raise on
# every one.
FOUND = strategies._FOUND


def swapped_pi1(advance, n):
    # Readings 0 and 2 swapped at each Π1 state whose regions both have at
    # least four coins.  Each moved child is a Π1 state on the other
    # halves; only its corner reading tells it from the true one.
    def planted(state, o):
        if (
            state[0] == strategies._PI1
            and o != 1
            and min(state[2] - state[1], state[4] - state[3]) >= 4
        ):
            o = 2 - o
        return advance(state, o)

    return planted


def swapped_pi2(advance, n):
    # Readings 1 and 2 swapped at each Π2 state whose b has quarters: b's
    # top two quarters trade places.
    def planted(state, o):
        if state[0] == strategies._PI2 and o != 0 and state[4] - state[3] >= 4:
            o = 3 - o
        return advance(state, o)

    return planted


def duplicated_subtree(advance, n):
    # Reading 0 of every Π1 state leads where reading 2 does.
    def planted(state, o):
        if state[0] == strategies._PI1 and o == 0:
            o = 2
        return advance(state, o)

    return planted


def unordered_leaf(advance, n):
    # Where Π0 on weight 2 splits its last two coins 1 / 1, the leaf names
    # its support as (q, p).  The scale reads the same either way, and the
    # parent's triangle holds both orders: only p <= q tells them apart.
    def planted(state, o):
        after = advance(state, o)
        if state[0] <= strategies._NESTED and o == 1 and after[0] == FOUND:
            return (FOUND, after[2], after[1])
        return after

    return planted


def child_outside_parent(advance, n):
    # Π0 on weight 2 on four coins [lo, lo + 4) reads 0 into [lo + 4,
    # lo + 6), past its run, in place of its upper half [lo + 2, lo + 4):
    # the child reads 0 and its run misses the query, as the true one
    # does, and its subtree holds three leaves, as the true one does.
    def planted(state, o):
        if state[0] == strategies._NESTED and state[2] - state[1] == 4 and o == 0:
            return (strategies._NESTED, state[2], state[2] + 2)
        return advance(state, o)

    return planted


def straddling_child(advance, n):
    # Where Π0 on weight 2 has an odd run [lo, hi), its 1 / 1 split enters
    # Π1 at mid + 1 instead of mid.  The regions, of m + 1 and m coins in
    # place of m and m + 1, hold as many pairs, and a's first coin reads 1;
    # only a's run, across the query [lo, mid), tells the child is wrong.
    def planted(state, o):
        if state[0] == strategies._PROPOSED and o == 1 and (state[2] - state[1]) % 2:
            _, lo, hi = state
            mid = (lo + hi) // 2 + 1
            return strategies._joint(lo, mid, mid, hi)
        return advance(state, o)

    return planted


def straddling_query(query, n):
    # Each Π1 round weighs one run from a's midpoint to b's, across the
    # coins between the regions, in place of their lower halves.
    def planted(state):
        if state[0] == strategies._PI1:
            _, alo, ahi, blo, bhi = state
            lo, hi = sorted(((alo + ahi) // 2, (blo + bhi) // 2))
            return ((lo, hi),)
        return query(state)

    return planted


def recover(strategy, n, support, got):
    return f"{strategy} failed to recover support {support} of n={n}: got {got}"


class TestPlantedFaults:
    # Each fault, the step that it replaces, and the line that the walk
    # raises, at the first failed check in the order of the real tree,
    # where the walk takes the lowest readings last.  ``threads`` has no
    # effect on the line.
    FAULTS = [
        (swapped_pi1, "_advance", 64, "proposed", recover("proposed", 64, (3, 7), (2, 6))),
        (swapped_pi2, "_advance", 64, "proposed", recover("proposed", 64, (1, 8), (1, 7))),
        (duplicated_subtree, "_advance", 32, "proposed", recover("proposed", 32, (2, 4), (1, 3))),
        (unordered_leaf, "_advance", 16, "nested", recover("nested", 16, (1, 2), (2, 1))),
        (child_outside_parent, "_advance", 64, "nested", recover("nested", 64, (3, 3), (6, 6))),
        (straddling_child, "_advance", 40, "proposed", recover("proposed", 40, (1, 3), (1, 5))),
        (
            straddling_query, "_query", 8, "proposed",
            "proposed weighs [2, 4) outside each of the regions [1, 3), [3, 5) of n=8",
        ),
    ]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "fault, step, n, strategy, line",
        FAULTS,
        ids=[fault.__name__ for fault, *_ in FAULTS],
    )
    def test_raises(self, monkeypatch, threads, fault, step, n, strategy, line):
        monkeypatch.setattr(verify, step, fault(getattr(verify, step), n))
        with pytest.raises(InternalContractError, match=f"^{re.escape(line)}$"):
            exhaustive_stats(n, strategy, threads=threads)


class TestRunRange:
    # n = 8 splits inside type I (k < 8), at n (k = 8) and inside every pair
    # row; n = 6 does the same for a size that is not a power of two.
    @pytest.mark.parametrize(
        "n, strategy",
        [(8, "proposed"), (8, "nested"), (6, "nested"), (6, "proposed")],
    )
    def test_split_anywhere_merges_to_whole(self, n, strategy):
        total = config_count(n)
        whole = _run_range(n, strategy, 0, total)
        assert whole[0] == total
        for k in range(total + 1):
            parts = merge_partials(
                _run_range(n, strategy, 0, k), _run_range(n, strategy, k, total)
            )
            assert parts == whole

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_wrong_support_is_contract_error(self, monkeypatch, strategy):
        # The recovery check is the one check left on a run: a core that
        # weighs honestly but names the wrong support must not be counted.
        def wrong(n, ask):
            ask(((1, 2),))
            return 1, n

        monkeypatch.setitem(verify._CORES, strategy, wrong)
        with pytest.raises(
            InternalContractError,
            match=rf"^{strategy} failed to recover support \(1, 1\) of n=4: "
            r"got \(1, 4\)$",
        ):
            _run_range(4, strategy, 0, config_count(4))


class TestCrossCheck:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_small_sizes_pass(self, l):
        report = cross_check(l)
        assert report.ok
        assert report.mismatches == ()
        assert report.analytic_avg == report.empirical_avg == t_ave_proposed(l)
        assert (
            report.nested_closed
            == report.nested_dp
            == report.nested_empirical
            == nested_closed_forms(l)[1]
        )
        assert report.max_proposed == report.max_nested == 2 * l - 1

    def test_each_failed_comparison_is_one_mismatch(self, monkeypatch):
        # Wrong analytic values for all three comparisons: each fails once,
        # with its own line, and the report is not ok.
        monkeypatch.setattr(verify.analysis, "t_ave_proposed", lambda l: F(0))
        monkeypatch.setattr(verify.analysis, "nested_closed_forms", lambda l: (F(l), F(1)))
        monkeypatch.setattr(verify.analysis, "t_max", lambda l: 0)
        report = cross_check(2, threads=1)
        assert not report.ok
        assert report.mismatches == (
            "proposed average: analytic 0/1 != exhaustive 11/5",
            "nested average disagreement: closed 1/1, recursion 12/5, exhaustive 12/5",
            "max weighings: predicted 0, proposed 3, nested 3",
        )

    def test_runs_strategies_in_turn(self, monkeypatch):
        # Proposed, then nested, each through ``verify.exhaustive_stats``
        # with ``threads`` passed on by keyword.
        calls = []
        stats = verify.exhaustive_stats

        def logged(*args, **kwargs):
            calls.append((args, kwargs))
            return stats(*args, **kwargs)

        monkeypatch.setattr(verify, "exhaustive_stats", logged)
        assert cross_check(4, threads=2).ok
        assert calls == [
            ((16, "proposed"), {"threads": 2}),
            ((16, "nested"), {"threads": 2}),
        ]

    def test_failed_proposed_walk_starts_no_nested_walk(self, monkeypatch):
        walked = []
        tree = verify._tree

        def failing(n, strategy):
            walked.append(strategy)
            if strategy == "proposed":
                raise InternalContractError("planted failure")
            return tree(n, strategy)

        monkeypatch.setattr(verify, "_tree", failing)
        with pytest.raises(InternalContractError, match="^planted failure$"):
            cross_check(4, threads=2)
        assert walked == ["proposed"]

    def test_computes_analytic_side_first(self, monkeypatch):
        events = []

        def logged(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(verify, "_tree", logged("walk", verify._tree))
        analytic = (
            "t_ave_proposed",
            "nested_closed_forms",
            "nested_tables",
            "t_max",
            "t_table",
            "t_given_delta",
        )
        for name in analytic:
            monkeypatch.setattr(
                verify.analysis, name, logged(name, getattr(verify.analysis, name))
            )
        assert cross_check(3, threads=2).ok
        first_walk = events.index("walk")
        assert set(events[:first_walk]) == set(analytic)
        assert events[:first_walk].count("t_given_delta") == 8
        assert events[first_walk:] == ["walk", "walk"]

    def test_l2_per_delta_report(self):
        report = cross_check(2)
        rows = {row.delta: row for row in report.per_delta}
        assert rows[1].analytic == F(9, 4)
        assert rows[1].empirical == F(7, 3)
        assert rows[1].configs == 3

    def test_l3_empirical_max(self):
        assert cross_check(3).max_proposed == 5

    def test_rejects_out_of_range(self):
        for bad in (0, -1, 1.5, "2", True, False, 2.0, None):
            with pytest.raises(InvalidSizeError, match="^exponent must be an integer >= 1"):
                cross_check(bad)
        with pytest.raises(TooLargeError):
            cross_check(13)


class TestFitLoglinear:
    def test_collinear_points_exact(self):
        result = fit_loglinear(8, 20, [(10, 12.0), (20, 27.0)])
        assert result.slope == pytest.approx(1.5)
        assert result.intercept == pytest.approx(-3.0)
        assert result.residual_max == pytest.approx(0.0, abs=1e-12)

    def test_recovers_synthetic_line(self):
        points = [(l, 1.4 * l - 0.6) for l in range(8, 21)]
        result = fit_loglinear(8, 20, points)
        assert result.slope == pytest.approx(1.4, abs=1e-12)
        assert result.intercept == pytest.approx(-0.6, abs=1e-10)
        assert result.residual_max < 1e-10

    def test_nested_analytic_trend(self):
        points = [
            (l, float(nested_closed_forms(l)[1])) for l in range(10, 21)
        ]
        result = fit_loglinear(10, 20, points)
        assert result.slope == pytest.approx(2.0, abs=0.02)
        assert result.intercept == pytest.approx(-2.0, abs=0.1)

    def test_proposed_measured_trend(self):
        # The honest measured line for the halving scheme: slope approaches
        # 4/3 from above, intercept approaches -4/9 from below.
        points = [
            (l, t_ave_proposed(l, mode="float")) for l in range(10, 21)
        ]
        result = fit_loglinear(10, 20, points)
        assert result.slope == pytest.approx(1.333551, abs=1e-5)
        assert result.intercept == pytest.approx(-0.448274, abs=1e-5)

    def test_ignores_out_of_range_points(self):
        result = fit_loglinear(10, 12, [(9, 0.0), (10, 10.0), (12, 12.0)])
        assert result.slope == pytest.approx(1.0)

    def test_needs_two_points(self):
        with pytest.raises(InvalidSizeError):
            fit_loglinear(10, 20, [(10, 12.0)])
        with pytest.raises(InvalidSizeError):
            fit_loglinear(10, 20, [(10, 12.0), (10, 12.5)])

    @pytest.mark.parametrize("values", [5, None, [10, 11], [(10, "x"), (11, 1.0)]])
    def test_rejects_values_that_are_not_pairs(self, values):
        with pytest.raises(InvalidSizeError, match="values must be"):
            fit_loglinear(1, 20, values)
