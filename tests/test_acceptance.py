"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints the measured values it checked so the
evidence is visible with ``-s`` (or in the captured output on failure).

The building of the shared ``full_stats`` fixture is itself the recovery
check behind criterion 1: the exhaustive walk of each strategy's decision
tree raises if any edge fails its checks on the scale or the leaves are
not every configuration, for every n = 2, 4, ..., 1024 and both
strategies.  That proves that a run on each configuration recovers it
(see the ``verify`` module docstring).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from coinweigh import analysis, verify
from coinweigh.cli import main
from coinweigh.model import Configuration
from coinweigh.strategies import run_proposed

STRATEGIES = ("proposed", "nested")
ACCEPTANCE_L_MAX = 10  # must match the range the full_stats fixture covers


def test_criterion_01_exhaustive_recovery_all_sizes(full_stats):
    expected_keys = {
        (l, strategy)
        for l in range(1, ACCEPTANCE_L_MAX + 1)
        for strategy in STRATEGIES
    }
    assert set(full_stats) == expected_keys
    total_runtime = 0.0
    for l in range(1, ACCEPTANCE_L_MAX + 1):
        n = 1 << l
        for strategy in STRATEGIES:
            row = full_stats[(l, strategy)]
            assert row.configs == n * (n + 1) // 2
            assert row.max_weighings >= 1
            total_runtime += row.runtime_s
    print(
        "criterion 1: all configurations recovered, every edge checked "
        f"on the scale, n=2..{1 << ACCEPTANCE_L_MAX} both strategies "
        f"({total_runtime:.1f}s total)"
    )


def test_criterion_02_worst_case_is_2l_minus_1(full_stats):
    for l in range(1, ACCEPTANCE_L_MAX + 1):
        predicted = analysis.t_max(l)
        assert predicted == 2 * l - 1
        for strategy in STRATEGIES:
            assert full_stats[(l, strategy)].max_weighings == predicted
    print(
        f"criterion 2: empirical maximum == 2l-1 for both strategies, "
        f"l=1..{ACCEPTANCE_L_MAX}"
    )


def test_criterion_03_proposed_average_exact(full_stats):
    assert analysis.t_ave_proposed(2) == Fraction(11, 5)
    for l in range(1, ACCEPTANCE_L_MAX + 1):
        analytic = analysis.t_ave_proposed(l)
        empirical = full_stats[(l, "proposed")].average
        assert analytic == empirical, f"l={l}: {analytic} != {empirical}"
    print(
        f"criterion 3: analytic == exhaustive proposed average as exact "
        f"rationals, l=1..{ACCEPTANCE_L_MAX}; l=2 gives 11/5"
    )


def test_criterion_04_nested_average_four_way_exact(full_stats):
    tables = analysis.nested_tables(1 << ACCEPTANCE_L_MAX)
    assert analysis.nested_closed_forms(2)[1] == Fraction(12, 5)
    for i in range(1, ACCEPTANCE_L_MAX + 1):
        n = 1 << i
        opt1_closed, opt2_closed = analysis.nested_closed_forms(i)
        log_form = Fraction((2 * n + 1) * i - 2 * (n - 1), n + 1)
        assert opt2_closed == log_form
        assert tables.opt1[n] == opt1_closed == i
        assert tables.opt2[n] == opt2_closed
        assert full_stats[(i, "nested")].average == opt2_closed
    print(
        f"criterion 4: closed form == log form == DP == exhaustive nested "
        f"average, i=1..{ACCEPTANCE_L_MAX}; i=2 gives 12/5"
    )


def test_criterion_05_two_unit_coins_transcript_verbatim():
    transcript = run_proposed(Configuration.from_text("0,0,1,0,0,1,0,0"))
    assert transcript.queries == (
        ((1, 2, 3, 4), 1),
        ((1, 2, 5, 6), 1),
        ((1, 2, 7), 0),
        ((3, 5), 1),
        ((3,), 1),
    )
    assert transcript.estimate == (0, 0, 1, 0, 0, 1, 0, 0)
    print("criterion 5: reference 5-weighing transcript reproduced verbatim")


def test_criterion_06_midpoint_attains_minimum():
    tables = analysis.nested_tables(256)
    for s in range(2, 257):
        lo_mid, hi_mid = s // 2, (s + 1) // 2
        best = min(tables.split_t1(s, m) for m in range(1, s))
        assert tables.split_t1(s, lo_mid) == best
        assert tables.split_t1(s, hi_mid) == best
    for s in (2, 4, 8, 16, 32, 64, 128, 256):
        for fn in (tables.split_t22, tables.split_t2):
            best = min(fn(s, m) for m in range(1, s))
            assert fn(s, s // 2) == best
    print(
        "criterion 6: floor(s/2) and ceil(s/2) attain the exact minimum of "
        "the single-coin split tables for every s=2..256, and of the "
        "pair tables at every power of two (the sizes nested runs visit)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "midpoint splits are not optimal for the pair-search tables at "
        "general s: at s=6 the split m=2 costs 56/15 < 19/5 (and 24/7 < "
        "73/21 for the mixed table) because it leaves dyadic parts; the "
        "claim fails at 234 of the 255 sizes in 2..256, all non-dyadic"
    ),
)
def test_criterion_06_midpoint_attains_minimum_pair_tables_all_sizes():
    tables = analysis.nested_tables(256)
    for s in range(3, 257):
        for fn in (tables.split_t22, tables.split_t2):
            best = min(fn(s, m) for m in range(1, s))
            assert fn(s, s // 2) == best
            assert fn(s, (s + 1) // 2) == best


def test_criterion_07_branch_weights_on_simplex():
    checked = 0
    for l in range(1, 13):
        n = 1 << l
        for delta in range(n):
            weights = analysis.branch_weights(l, delta)
            assert sum(weights.m) == 1, (l, delta)
            assert all(0 <= mi <= 1 for mi in weights.m), (l, delta)
            checked += 1
    print(
        f"criterion 7: {checked} branch-weight vectors lie on the "
        f"probability simplex, l=1..12, every separation class"
    )


def test_criterion_08_lower_bounds_respected(full_stats):
    for l in range(1, ACCEPTANCE_L_MAX + 1):
        bounds = analysis.lower_bounds(1 << l)
        for strategy in STRATEGIES:
            row = full_stats[(l, strategy)]
            assert float(row.average) >= bounds.ave_lb, (l, strategy)
            assert row.max_weighings >= bounds.worst_lb, (l, strategy)
    n8 = analysis.lower_bounds(8)
    assert n8.worst_lb == pytest.approx(3.0331, abs=1e-4)
    print(
        f"criterion 8: averages >= average-case bound and maxima >= "
        f"worst-case bound, l=1..{ACCEPTANCE_L_MAX}; "
        f"n=8 worst-case bound {n8.worst_lb:.4f}"
    )


def test_criterion_09_trend_constants_and_sweep_artifact(tmp_path):
    points = [
        (l, analysis.t_ave_proposed(l, mode="float")) for l in range(10, 21)
    ]
    fit = verify.fit_loglinear(10, 20, points)
    assert -0.7 <= fit.intercept <= -0.3

    constants = analysis.asymptotic_constants()
    assert constants.saving_vs_nested == pytest.approx(0.3175, abs=0.001)
    assert constants.excess_vs_lb == pytest.approx(0.0816, abs=0.001)

    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--l-max", "20", "--out", str(out_path), "--fit"])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("l,n,prop_avg,")
    assert len(lines) == 1 + 20 + 2
    assert lines[-1] == "# saving_vs_nested=31.75% excess_vs_lb=8.17369%"
    print(
        f"criterion 9: fit over l=10..20 gives slope {fit.slope:.6f}, "
        f"intercept {fit.intercept:.6f}; saving "
        f"{constants.saving_vs_nested:.2%}, excess "
        f"{constants.excess_vs_lb:.4%}; sweep CSV written"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the exact average-cost pipeline trends to (4/3)*l - 4/9: the "
        "least-squares slope over l=10..20 is 1.3336, below the nominal "
        "[1.34, 1.39] window, which no implementation consistent with the "
        "exact l<=10 averages can reach"
    ),
)
def test_criterion_09_fit_slope_window():
    points = [
        (l, analysis.t_ave_proposed(l, mode="float")) for l in range(10, 21)
    ]
    fit = verify.fit_loglinear(10, 20, points)
    assert 1.34 <= fit.slope <= 1.39


def test_criterion_10_unit_search_step_identity():
    tables = analysis.nested_tables(256)
    for q in range(2, 257):
        step = tables.opt1[q] - tables.opt1[q - 1]
        expected = Fraction(1 << (q - 1).bit_length(), q * (q - 1))
        assert step == expected, q
    print(
        "criterion 10: consecutive unit-search costs differ by "
        "2^(floor(log2(q-1))+1)/(q(q-1)) exactly for q=2..256"
    )
