"""Exhaustive verification layer: simulation statistics, analytic
cross-checks, and the least-squares fit helper."""

from __future__ import annotations

from fractions import Fraction

import pytest

from coinweigh.analysis import nested_closed_forms, t_ave_proposed
from coinweigh.model import InvalidSizeError, TooLargeError, config_count
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

    def test_nested_accepts_odd_sizes(self):
        stats = exhaustive_stats(5, "nested")
        assert stats.configs == 15
        assert stats.l is None

    def test_proposed_needs_power_of_two(self):
        with pytest.raises(InvalidSizeError):
            exhaustive_stats(5, "proposed")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            exhaustive_stats(4, "greedy")

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
        sequential = exhaustive_stats(32, "proposed", threads=1)
        parallel = exhaustive_stats(32, "proposed", threads=2)
        assert rows_equal(sequential, parallel)

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CW_THREADS", "2")
        from_env = exhaustive_stats(16, "nested")
        assert rows_equal(from_env, exhaustive_stats(16, "nested", threads=1))

    def test_rejects_bad_threads(self):
        with pytest.raises(InvalidSizeError):
            exhaustive_stats(4, "proposed", threads=0)


def merge_partials(a, b):
    per_delta = {delta: list(cell) for delta, cell in a[3].items()}
    for delta, (total, count) in b[3].items():
        cell = per_delta.setdefault(delta, [0, 0])
        cell[0] += total
        cell[1] += count
    return a[0] + b[0], a[1] + b[1], max(a[2], b[2]), per_delta


class TestRunRange:
    # n = 8 splits inside type I (k < 8), at n (k = 8) and inside every pair
    # row; n = 6 does the same for a size that is not a power of two.
    @pytest.mark.parametrize(
        "n, strategy", [(8, "proposed"), (8, "nested"), (6, "nested")]
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


class TestCrossCheck:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_small_sizes_pass(self, l):
        report = cross_check(l)
        assert report.ok
        assert report.mismatches == ()
        assert report.avg_equal and report.nested_equal and report.max_equal
        assert report.analytic_avg == report.empirical_avg == t_ave_proposed(l)
        assert (
            report.nested_closed
            == report.nested_log_form
            == report.nested_dp
            == report.nested_empirical
            == nested_closed_forms(l)[1]
        )
        assert report.max_proposed == report.max_nested == 2 * l - 1

    def test_l2_per_delta_report(self):
        report = cross_check(2)
        rows = {row.delta: row for row in report.per_delta}
        assert rows[1].analytic == F(9, 4)
        assert rows[1].empirical == F(7, 3)
        assert rows[1].configs == 3

    def test_l3_empirical_max(self):
        assert cross_check(3).max_proposed == 5

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSizeError):
            cross_check(0)
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
