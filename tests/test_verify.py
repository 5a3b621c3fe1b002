"""Exhaustive verification layer: simulation statistics, analytic
cross-checks, and the least-squares fit helper."""

from __future__ import annotations

import os
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
    worker_pool,
)

F = Fraction


def rows_equal(a, b):
    """StatsRow equality minus the wall-clock field."""
    return (
        (a.l, a.n, a.strategy, a.average, a.max_weighings, a.configs)
        == (b.l, b.n, b.strategy, b.average, b.max_weighings, b.configs)
        and a.per_delta == b.per_delta
    )


@pytest.fixture
def pool_small_sizes(monkeypatch):
    """Two usable CPUs, and every size sent to the pool however small, so
    that tests of the pooled walk run it at small n."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_POOL_MIN_CONFIGS", 0)


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

    def test_parallel_merge_matches_sequential(self, pool_small_sizes):
        sequential = exhaustive_stats(32, "proposed", threads=1)
        parallel = exhaustive_stats(32, "proposed", threads=2)
        assert rows_equal(sequential, parallel)

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


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for ``verify.ProcessPoolExecutor`` that starts no process.

    It records each pool's size and every batch of jobs, and runs ``map`` in
    process.  ``sent_when_read`` holds, for each batch, how many batches had
    been sent when its first result was read.  Every size goes to the pool,
    however small, so every size sends a batch.
    """
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.batches = []
            self.sent_when_read = []
            pools.append(self)

        def map(self, fn, jobs):
            self.batches.append(jobs)
            return self._results(fn, jobs)

        def _results(self, fn, jobs):
            self.sent_when_read.append(len(self.batches))
            yield from map(fn, jobs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify, "_POOL_MIN_CONFIGS", 0)
    return pools


class TestWorkerPool:
    @pytest.mark.parametrize(
        "from_env, has_affinity",
        [(False, True), (True, True), (False, False)],
    )
    def test_worker_count_clamped_to_usable_cpus(
        self, monkeypatch, recording_pool, from_env, has_affinity
    ):
        if has_affinity:
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
            )
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        threads = None
        if from_env:
            monkeypatch.setenv("CW_THREADS", "5000")
        else:
            threads = 5000
        row = exhaustive_stats(64, "proposed", threads=threads)
        assert [pool.max_workers for pool in recording_pool] == [3]
        assert rows_equal(row, exhaustive_stats(64, "proposed", threads=1))

    def test_cross_check_runs_strategies_in_turn(self, monkeypatch, recording_pool):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        assert cross_check(4, threads=2).ok
        [pool] = recording_pool
        # The nested subtrees are sent only once the proposed ones are read,
        # one strategy per batch, each batch a frontier of at least 2 * 4
        # states.
        assert pool.sent_when_read == [1, 2]
        assert [
            [(n, strategy, state, depth) for n, strategy, state, depth in jobs]
            for jobs in pool.batches
        ] == [
            [
                (16, strategy, state, depth)
                for state, depth in verify._frontier(16, strategy, 8)
            ]
            for strategy in ("proposed", "nested")
        ]
        assert all(len(jobs) >= 8 for jobs in pool.batches)

    def test_cross_check_failure_sends_no_nested_chunk(
        self, monkeypatch, recording_pool
    ):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        worker = verify._worker
        proposed_jobs = []

        def failing(job):
            # Every proposed subtree but the first fails.
            _, strategy, _, _ = job
            if strategy == "proposed":
                proposed_jobs.append(job)
                if len(proposed_jobs) > 1:
                    raise InternalContractError("planted failure")
            return worker(job)

        monkeypatch.setattr(verify, "_worker", failing)
        with pytest.raises(InternalContractError, match="^planted failure$"):
            cross_check(4, threads=2)
        [pool] = recording_pool
        assert len(pool.batches) == 1
        assert {strategy for _, strategy, _, _ in pool.batches[0]} == {"proposed"}

    def test_cross_check_computes_analytic_side_before_reading(
        self, monkeypatch, recording_pool
    ):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        events = []

        def logged(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(verify, "_worker", logged("chunk", verify._worker))
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
        first_chunk = events.index("chunk")
        assert set(events[:first_chunk]) == set(analytic)
        assert events[:first_chunk].count("t_given_delta") == 8
        assert set(events[first_chunk:]) == {"chunk"}

    def test_shared_pool_rows_match_in_process(self, pool_small_sizes):
        cases = [
            (1 << l, strategy)
            for l in range(1, 7)
            for strategy in ("proposed", "nested")
        ] + [(n, "nested") for n in (5, 6, 7)]
        with worker_pool(2):
            shared = [exhaustive_stats(n, strategy) for n, strategy in cases]
        assert verify._open_pool is None
        for (n, strategy), row in zip(cases, shared):
            assert rows_equal(row, exhaustive_stats(n, strategy, threads=1))


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
    SIZES = [*range(2, 70), 100, 255, 256, 257]

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_matches_run_range(self, pool_small_sizes, strategy):
        # The walk and the per-configuration runs give the same row at every
        # size, in one process and on two workers.
        with worker_pool(2):
            pooled = [exhaustive_stats(n, strategy) for n in self.SIZES]
        for n, row in zip(self.SIZES, pooled):
            single = exhaustive_stats(n, strategy, threads=1)
            assert rows_equal(single, row), n
            reference = run_range_row(n, strategy)
            assert (
                single.configs, single.average, single.max_weighings, single.per_delta
            ) == reference, n

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_every_edge_passes_its_checks(self, monkeypatch, strategy):
        # Sizes that the row test above does not walk: with it, every
        # n <= 128, and the top of the range up to 300.  Every edge passes
        # its checks (else the walk raises) and the leaves are every
        # configuration.
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        with worker_pool(2):
            for n in [*range(70, 129), 299, 300]:
                assert exhaustive_stats(n, strategy).configs == config_count(n)

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 31, 64, 100])
    def test_frontier_splits_the_configurations(self, strategy, n):
        root = strategies._root(verify._ROOTS[strategy], n)
        assert verify._frontier(n, strategy, 1) == [(root, 0)]
        # The states reached from the root in exactly d steps, for each d.
        reached = [{root}]
        for jobs in (2, 4, 8, 64, 10**6):
            frontier = verify._frontier(n, strategy, jobs)
            leaves = [leaf for state, _ in frontier for leaf in subtree_leaves(state)]
            # Every configuration exactly once, under one frontier state.
            assert sorted(leaves) == sorted(iter_supports(n))
            everything_a_leaf = all(
                state[0] == strategies._FOUND for state, _ in frontier
            )
            assert len(frontier) >= jobs or everything_a_leaf
            # Each frontier state is reached from the root in ``depth`` steps.
            for state, depth in frontier:
                while len(reached) <= depth:
                    reached.append(
                        {child for at in reached[-1] for child in children(at)}
                    )
                assert state in reached[depth]

    def test_leaf_past_the_last_coin(self, monkeypatch):
        # Coin n + 1 of weight 2 reads 0 on every weighing, as coin n does,
        # so only the leaf's containment in its parent's set, Π0 on weight 2
        # on [7, 9), tells the planted leaf from the true one.
        advance = verify._advance

        def past_n(state, o):
            after = advance(state, o)
            if after == (strategies._FOUND, 8, 8):
                return (strategies._FOUND, 9, 9)
            return after

        monkeypatch.setattr(verify, "_advance", past_n)
        with pytest.raises(
            InternalContractError,
            match=r"^nested failed to recover support \(8, 8\) of n=8: got \(9, 9\)$",
        ):
            exhaustive_stats(8, "nested", threads=1)

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


# Planted faults: each takes the true ``_advance`` and returns one that
# builds a wrong tree.  ``exhaustive_stats`` must raise on every one.
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
    # Π0 on weight 2 on the last two coins, [n - 1, n + 1), moves to
    # [n + 1, n + 3): it reads 0 and its runs miss the query, as the true
    # one does, and its subtree holds three leaves, as the true one does.
    def planted(state, o):
        after = advance(state, o)
        if after == (strategies._NESTED, n - 1, n + 1):
            return (strategies._NESTED, n + 1, n + 3)
        return after

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


class TestPlantedFaults:
    # Each fault with the line that one worker raises, where the walk takes
    # the lowest readings last; two workers meet the faults in another
    # order.
    FAULTS = [
        (swapped_pi1, 64, "proposed", (3, 7), (2, 6)),
        (swapped_pi2, 64, "proposed", (1, 8), (1, 7)),
        (duplicated_subtree, 32, "proposed", (2, 4), (1, 3)),
        (unordered_leaf, 16, "nested", (1, 2), (2, 1)),
        (child_outside_parent, 64, "nested", (63, 63), (66, 66)),
        (straddling_child, 40, "proposed", (1, 3), (1, 5)),
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "fault, n, strategy, support, got",
        FAULTS,
        ids=[fault.__name__ for fault, *_ in FAULTS],
    )
    def test_raises(
        self, monkeypatch, pool_small_sizes, workers, fault, n, strategy, support, got
    ):
        monkeypatch.setattr(verify, "_advance", fault(verify._advance, n))
        if workers == 1:
            line = re.escape(
                f"{strategy} failed to recover support {support} of n={n}: "
                f"got {got}"
            )
        else:
            line = (
                rf"{strategy} failed to recover support \(\d+, \d+\) of n={n}: "
                r"got \(\d+, \d+\)"
            )
        with pytest.raises(InternalContractError, match=f"^{line}$"):
            exhaustive_stats(n, strategy, threads=workers)


class TestKeptSizes:
    # Inside one block each size is walked with the kept tree of n // 2 in
    # it; outside any block each call walks its whole tree.  With two
    # workers only n = 512 goes to the pool here; ``TestWalk`` sends every
    # size to it.
    SIZES = [*range(2, 71), 128, 256, 512]

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_calls_outside_any_block(self, monkeypatch, strategy, workers):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        with worker_pool(workers):
            kept = [exhaustive_stats(n, strategy) for n in self.SIZES]
            assert len(verify._open_pool[2]) == len(self.SIZES)
        for n, row in zip(self.SIZES, kept):
            assert rows_equal(row, exhaustive_stats(n, strategy, threads=1)), n

    @pytest.mark.parametrize("strategy", ["proposed", "nested"])
    def test_kept_worst_is_one_weighing_deeper(self, strategy):
        # The tree of n // 2 is never the deepest part of the tree of n, so
        # no row shows its worst; a kept partial with a planted worst does.
        with worker_pool(1):
            half = exhaustive_stats(8, strategy)
            kept = verify._open_pool[2]
            root = strategies._root(verify._ROOTS[strategy], 8)
            count, total, worst, cells = kept[root]
            kept[root] = count, total, worst + 10, cells
            row = exhaustive_stats(16, strategy)
        assert row.max_weighings == half.max_weighings + 11


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
