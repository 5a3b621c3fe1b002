"""Exact analysis: cost tables, branch weights, averages, nested DP,
bounds, and the named asymptotic constants."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinweigh.analysis import (
    NestedTables,
    alpha,
    asymptotic_constants,
    branch_weights,
    lower_bounds,
    nested_closed_forms,
    nested_tables,
    rational_str,
    sig6,
    t_ave_proposed,
    t_given_delta,
    t_max,
    t_table,
)
from coinweigh.model import InvalidSizeError

F = Fraction


def t_ave_closed_form(l):
    """4l/3 - 4/9 - (3l - 4 - 4/n) / (9(n+1)) at n = 2**l."""
    n = 1 << l
    return F(4 * l, 3) - F(4, 9) - (3 * l - 4 - F(4, n)) / (9 * (n + 1))


# Joint-round costs measured by exhaustively simulating the joint procedure
# over every placement of the two unit coins in disjoint regions of sizes
# 2**i and 2**j.  The recursion must reproduce every one of these exactly.
MEASURED_T = {
    (0, 0): F(0),
    (0, 3): F(3),
    (1, 1): F(3, 2),
    (1, 2): F(9, 4),
    (1, 3): F(13, 4),
    (2, 2): F(23, 8),
    (2, 3): F(57, 16),
    (2, 4): F(9, 2),
    (2, 5): F(11, 2),
    (3, 3): F(135, 32),
    (3, 4): F(313, 64),
    (3, 5): F(369, 64),
    (4, 4): F(711, 128),
    (4, 5): F(1593, 256),
    (5, 5): F(3527, 512),
}

# Averages measured by running the halving scheme on every configuration.
EXHAUSTIVE_AVG = {
    1: F(1),
    2: F(11, 5),
    3: F(7, 2),
    4: F(329, 68),
    5: F(1633, 264),
    6: F(7833, 1040),
    7: F(12211, 1376),
    8: F(167993, 16448),
    9: F(28091, 2432),
    10: F(676261, 52480),
}

# Nested averages at n = 2**l, equal to the closed form by Lemma-style DP.
NESTED_AVG = {
    1: F(1),
    2: F(12, 5),
    3: F(37, 9),
    4: F(6),
    5: F(263, 33),
    6: F(648, 65),
    7: F(515, 43),
    8: F(3594, 257),
    9: F(8203, 513),
    10: F(18444, 1025),
}


# The rational routes the integer tables replaced, kept as the reference
# they must match: the Fraction recursion of ``t_table``, the branch-weight
# loop and ``t_given_delta`` on Fractions, and the alpha-weighted nested
# recursion with its ``_mix``.  Their arithmetic is unchanged; only the
# argument checks were dropped.
def fraction_t_table(l):
    half = F(1, 2)
    quarter = F(1, 4)
    one = F(1)
    t = [[None] * (l + 1) for _ in range(l + 1)]
    for k in range(l + 1):
        for i in range(k + 1):
            if i == 0:
                v = k * one
            elif i == k == 1:
                v = one + half
            else:
                near = t[i - 1][k - 1]
                far = t[i - 1][k - 2] if k - 2 >= i - 1 else t[k - 2][i - 1]
                v = 3 * quarter * near + quarter * far + one + half
            t[i][k] = v
            t[k][i] = v
    return t


def fraction_branch_weights(l, delta):
    n = 1 << l
    dn = min(delta, n - delta)
    h = 1 << (l - 1)
    m = [F(0)] * (l + 1)
    rest = h
    for i in range(l + 1):
        if i == l or dn >= 1 << (l - i - 1):
            m[i] = F(rest, h)
            break
        share = dn << (i - 1) if i else dn
        m[i] = F(share, h)
        rest -= share
    return m


def fraction_t_given_delta(l, delta, t):
    m = fraction_branch_weights(l, delta)
    total = F(0)
    for i in range(l):
        total += m[i] * (t[l - i - 1][l - i - 1] + i + 1)
    total += m[l] * l
    return total


class FractionNested:
    def __init__(self, s_max):
        zero = F(0)
        self.opt1 = [zero] * (s_max + 1)
        self.opt22 = [zero] * (s_max + 1)
        self.opt2 = [zero] * (s_max + 1)
        for s in range(2, s_max + 1):
            m = s // 2
            self.opt1[s] = self.split_t1(s, m)
            self.opt22[s] = self.split_t22(s, m)
            self.opt2[s] = self._mix(s, self.opt1[s], self.opt22[s])

    @staticmethod
    def _mix(s, v21, v22):
        return F(2, s + 1) * v21 + F(s - 1, s + 1) * v22

    def split_t1(self, s, m):
        return alpha(s, m, 1, 0) * (self.opt1[s - m] + 1) + alpha(s, m, 1, 1) * (
            self.opt1[m] + 1
        )

    def split_t22(self, s, m):
        return (
            alpha(s, m, 2, 0) * (self.opt22[s - m] + 1)
            + alpha(s, m, 2, 2) * (self.opt22[m] + 1)
            + 2 * alpha(s, m, 2, 1) * (self.opt1[m] + self.opt1[s - m] + 1)
        )

    def split_t2(self, s, m):
        return self._mix(s, self.split_t1(s, m), self.split_t22(s, m))


class TestTTable:
    def test_base_examples(self):
        table = t_table(3)
        assert table.value(0, 0) == 0
        assert table.value(1, 1) == F(3, 2)
        assert table.value(1, 3) == F(13, 4)
        assert table.value(2, 2) == F(23, 8)
        # The general rule gives the T[1][j] base line without a special case.
        table = t_table(30)
        for j in range(2, 31):
            assert table.value(1, j) == j + F(1, 4), j

    def test_matches_measured_costs(self):
        table = t_table(5)
        for (i, j), expected in MEASURED_T.items():
            assert table.value(i, j) == expected, (i, j)

    def test_diagonal_closed_form(self):
        table = t_table(200)
        for k in range(201):
            expected = F(4 * k, 3) + F(2, 9) * (1 - F(1, 4**k))
            assert table.value(k, k) == expected, k

    def test_diagonal_pair_closed_forms(self):
        # D_k = T[k][k] and E_k = T[k][k+1] (ROADMAP item 1), pinned for
        # k <= 60; a pin of the values, not the coefficient proof.
        table = t_table(61)
        for k in range(61):
            d = F(4 * k, 3) + F(2, 9) * (1 - F(1, 4**k))
            e = F(4 * k, 3) + F(8, 9) + F(1, 9) * F(1, 4**k)
            assert table.value(k, k) == d, k
            assert table.value(k, k + 1) == e, k

    def test_matches_fraction_recursion(self):
        ref = fraction_t_table(24)
        for l in range(25):
            table = t_table(l)
            assert table.l == l
            for i in range(l + 1):
                for j in range(l + 1):
                    assert table.value(i, j) == ref[i][j], (l, i, j)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_symmetric(self, i, j):
        table = t_table(12)
        assert table.value(i, j) == table.value(j, i)

    def test_value_range_checked(self):
        table = t_table(2)
        with pytest.raises(InvalidSizeError):
            table.value(0, 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidSizeError):
            t_table(-1)


class TestBranchWeights:
    @pytest.mark.parametrize(
        "delta, expected",
        [
            (0, [F(0), F(0), F(1)]),
            (1, [F(1, 2), F(1, 2), F(0)]),
            (2, [F(1), F(0), F(0)]),
        ],
    )
    def test_l2_examples(self, delta, expected):
        assert list(branch_weights(2, delta).m) == expected

    @given(st.data())
    def test_simplex(self, data):
        l = data.draw(st.integers(1, 10))
        delta = data.draw(st.integers(0, (1 << l) - 1))
        bw = branch_weights(l, delta)
        assert sum(bw.m) == 1
        assert all(0 <= m <= 1 for m in bw.m)
        assert len(bw.m) == l + 1

    def test_folding(self):
        # Classes d and n - d share d_n and therefore all weights.
        for d in range(1, 8):
            assert branch_weights(3, d).m == branch_weights(3, 8 - d).m

    @pytest.mark.parametrize("l", range(1, 10))
    def test_matches_fraction_loop(self, l):
        for delta in range(1 << l):
            bw = branch_weights(l, delta)
            assert list(bw.m) == fraction_branch_weights(l, delta), delta
            assert bw.delta_n == min(delta, (1 << l) - delta)

    def test_delta_range_checked(self):
        with pytest.raises(InvalidSizeError):
            branch_weights(2, 4)
        with pytest.raises(InvalidSizeError):
            branch_weights(2, -1)


class TestTGivenDelta:
    @pytest.mark.parametrize(
        "delta, expected", [(0, F(2)), (1, F(9, 4)), (2, F(5, 2)), (3, F(9, 4))]
    )
    def test_l2_values(self, delta, expected):
        assert t_given_delta(2, delta) == expected

    @pytest.mark.parametrize(
        "delta, expected",
        [
            (0, F(3)),
            (1, F(107, 32)),
            (2, F(59, 16)),
            (3, F(121, 32)),
            (4, F(31, 8)),
            (5, F(121, 32)),
            (7, F(107, 32)),
        ],
    )
    def test_l3_values(self, delta, expected):
        assert t_given_delta(3, delta) == expected

    def test_accepts_prebuilt_table(self):
        table = t_table(4)
        assert t_given_delta(4, 1, table=table) == t_given_delta(4, 1)

    @pytest.mark.parametrize("l", range(1, 10))
    def test_matches_fraction_route(self, l):
        # Own table, a larger prebuilt one (scaled by 4**12, not 4**l), and
        # one too small, which is rebuilt.
        ref = fraction_t_table(l)
        tables = (None, t_table(12), t_table(l - 1))
        for delta in range(1 << l):
            expected = fraction_t_given_delta(l, delta, ref)
            for table in tables:
                assert t_given_delta(l, delta, table) == expected, (delta, table)

    def test_delta_range_checked(self):
        with pytest.raises(InvalidSizeError):
            t_given_delta(3, 8)
        with pytest.raises(InvalidSizeError):
            t_given_delta(3, -1, t_table(3))

    @pytest.mark.parametrize("l", range(1, 11))
    def test_class_mix_equals_average(self, l):
        # Class d of a pair configuration has prior weight 2(n-d)/(n(n+1)),
        # and class 0 stands for the n weight-2 configurations, 2/(n+1).
        n = 1 << l
        table = t_table(l)
        mix = F(2, n + 1) * t_given_delta(l, 0, table=table)
        for d in range(1, n):
            mix += F(2 * (n - d), n * (n + 1)) * t_given_delta(l, d, table=table)
        assert mix == t_ave_proposed(l)


class TestTAveProposed:
    @pytest.mark.parametrize("l", sorted(EXHAUSTIVE_AVG))
    def test_equals_measured_average(self, l):
        assert t_ave_proposed(l) == EXHAUSTIVE_AVG[l]

    @pytest.mark.parametrize("l", range(1, 21))
    def test_float_mode_tracks_exact(self, l):
        value = t_ave_proposed(l, mode="float")
        assert type(value) is float
        assert value == float(t_ave_proposed(l))

    def test_exact_matches_closed_form(self):
        for l in range(1, 65):
            assert t_ave_proposed(l) == t_ave_closed_form(l), l

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            t_ave_proposed(3, mode="exactly")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "nominal trend line 1.365*l - 0.5 misses the exact value at "
            "l = 12 by 0.33; the true average is 15.5547, trending to "
            "(4/3)*l - 4/9"
        ),
    )
    def test_l12_within_nominal_trend_window(self):
        assert float(t_ave_proposed(12)) == pytest.approx(
            1.365 * 12 - 0.5, abs=0.3
        )


class TestTMax:
    @pytest.mark.parametrize("l, expected", [(1, 1), (3, 5), (10, 19)])
    def test_examples(self, l, expected):
        assert t_max(l) == expected


class TestAlpha:
    def test_examples(self):
        assert alpha(4, 2, 1, 0) == F(1, 2)
        assert alpha(4, 2, 2, 1) == F(1, 3)
        assert alpha(3, 1, 2, 2) == 0

    @given(st.data())
    def test_hypergeometric_sums_to_one(self, data):
        # alpha counts one arrangement of the j captured coins, so each term
        # carries its comb(i, j) multiplicity (the recursions write the
        # middle pair-search outcome as 2*alpha_{2,1} for the same reason).
        s = data.draw(st.integers(2, 40))
        m = data.draw(st.integers(1, s - 1))
        i = data.draw(st.integers(0, min(2, s)))
        total = sum(
            math.comb(i, j) * alpha(s, m, i, j) for j in range(i + 1)
        )
        assert total == 1

    def test_matches_binomial_ratio(self):
        # Reference: C(s-i, m-j) / C(s, m), zero outside 0 <= m-j <= s-i
        # (which covers i > s).
        for s in range(2, 41):
            for m in range(1, s):
                for i in range(s + 2):
                    for j in range(i + 1):
                        if 0 <= m - j <= s - i:
                            ref = F(math.comb(s - i, m - j), math.comb(s, m))
                        else:
                            ref = F(0)
                        assert alpha(s, m, i, j) == ref, (s, m, i, j)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidSizeError):
            alpha(1, 1, 1, 0)
        with pytest.raises(InvalidSizeError):
            alpha(4, 0, 1, 0)
        with pytest.raises(InvalidSizeError):
            alpha(4, 4, 1, 0)


@pytest.fixture(scope="module")
def tables():
    return nested_tables(256)


class TestNestedTables:
    def test_examples(self, tables):
        assert tables.opt1[1] == 0
        assert tables.opt21[2] == 1
        assert tables.opt22[2] == 1
        assert tables.opt1[3] == F(5, 3)
        assert tables.opt2[4] == F(12, 5)

    def test_opt21_is_opt1(self):
        tables = NestedTables(8)
        assert tables.opt21 is tables.opt1
        assert NestedTables.split_t21 is NestedTables.split_t1

    def test_s4096_closed_forms(self):
        # The size cross_check(12) builds.
        tables = nested_tables(4096)
        assert tables.opt1[4096] == 12
        assert tables.opt2[4096] == nested_closed_forms(12)[1]

    def test_closed_forms_agree(self, tables):
        for i in range(1, 9):
            opt1, opt2 = nested_closed_forms(i)
            assert tables.opt1[1 << i] == opt1 == i
            assert tables.opt2[1 << i] == opt2

    @given(st.data())
    def test_split_symmetry(self, data):
        tables = nested_tables(128)
        s = data.draw(st.integers(2, 128))
        m = data.draw(st.integers(1, s - 1))
        assert tables.split_t1(s, m) == tables.split_t1(s, s - m)
        assert tables.split_t21(s, m) == tables.split_t21(s, s - m)
        assert tables.split_t22(s, m) == tables.split_t22(s, s - m)
        assert tables.split_t2(s, m) == tables.split_t2(s, s - m)

    @pytest.mark.parametrize("s", range(2, 65))
    def test_midpoint_attains_minimum_unit_search(self, s, tables):
        for split in (tables.split_t1, tables.split_t21):
            values = [split(s, m) for m in range(1, s)]
            best = min(values)
            assert split(s, s // 2) == best
            assert split(s, (s + 1) // 2) == best

    @pytest.mark.parametrize("s", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_midpoint_attains_minimum_pair_search_dyadic(self, s, tables):
        for split in (tables.split_t22, tables.split_t2):
            values = [split(s, m) for m in range(1, s)]
            best = min(values)
            assert split(s, s // 2) == best

    def test_pair_search_midpoint_not_optimal_at_six(self, tables):
        # Splitting 6 as 2+4 leaves dyadic parts, which beats the midpoint:
        # the pair tables are genuinely cheaper off-center at non-dyadic
        # sizes, so only the dyadic midpoint property is asserted above.
        assert tables.split_t22(6, 2) == F(56, 15)
        assert tables.split_t22(6, 3) == F(19, 5)
        assert tables.split_t2(6, 2) == F(24, 7)
        assert tables.split_t2(6, 3) == F(73, 21)
        assert min(tables.split_t22(6, m) for m in range(1, 6)) == F(56, 15)
        assert min(tables.split_t2(6, m) for m in range(1, 6)) == F(24, 7)

    def test_midpoint_tables_match_fraction_recursion(self):
        tables = nested_tables(512)
        ref = FractionNested(512)
        assert tables.opt1 == ref.opt1
        assert tables.opt22 == ref.opt22
        assert tables.opt2 == ref.opt2

    def test_every_split_matches_fraction_recursion(self):
        tables = nested_tables(64)
        ref = FractionNested(64)
        for s in range(2, 65):
            for m in range(1, s):
                assert tables.split_t1(s, m) == ref.split_t1(s, m), (s, m)
                assert tables.split_t22(s, m) == ref.split_t22(s, m), (s, m)
                assert tables.split_t2(s, m) == ref.split_t2(s, m), (s, m)

    def test_step_identity(self, tables):
        for q in range(2, 257):
            step = tables.opt1[q] - tables.opt1[q - 1]
            k = (q - 1).bit_length() - 1
            assert step == F(1 << (k + 1), q * (q - 1))

    def test_split_range_checked(self, tables):
        with pytest.raises(InvalidSizeError):
            tables.split_t1(2, 2)
        with pytest.raises(InvalidSizeError):
            tables.split_t1(300, 1)
        with pytest.raises(InvalidSizeError):
            nested_tables(1)


class TestNestedClosedForms:
    def test_examples(self):
        assert nested_closed_forms(0) == (0, 0)
        assert nested_closed_forms(2) == (2, F(12, 5))

    @given(st.integers(1, 12))
    def test_matches_log_form(self, i):
        # ((i-1) 2^(i+1) + i + 2) / (2^i + 1)  ==  ((2n+1) l - 2(n-1)) / (n+1)
        n = 1 << i
        _, opt2 = nested_closed_forms(i)
        assert opt2 == F((2 * n + 1) * i - 2 * (n - 1), n + 1)

    @pytest.mark.parametrize("l", sorted(NESTED_AVG))
    def test_frozen_values(self, l):
        assert nested_closed_forms(l)[1] == NESTED_AVG[l]

    def test_rejects_negative(self):
        with pytest.raises(InvalidSizeError):
            nested_closed_forms(-1)


class TestLowerBounds:
    def test_n2(self):
        bounds = lower_bounds(2)
        assert bounds.worst_lb == 1.0
        assert bounds.ave_lb == pytest.approx(2 / 3)

    def test_n8(self):
        bounds = lower_bounds(8)
        log3_28 = math.log(28) / math.log(3)
        assert bounds.worst_lb == pytest.approx(3.0331, abs=1e-4)
        assert bounds.ave_lb == pytest.approx(
            (2 / 9) * 3 + (7 / 9) * log3_28
        )
        assert bounds.ave_lb == pytest.approx(3.026, abs=1e-3)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidSizeError):
            lower_bounds(1)

    def test_rejects_n_past_binary64(self):
        assert lower_bounds(1 << 1023).worst_lb > 0
        with pytest.raises(InvalidSizeError):
            lower_bounds(1 << 1024)

    @pytest.mark.parametrize("l", range(1, 13))
    def test_analytic_averages_dominate_bounds(self, l):
        bounds = lower_bounds(1 << l)
        prop = t_ave_proposed(l)
        nested = nested_closed_forms(l)[1]
        assert float(prop) >= bounds.ave_lb
        assert float(nested) >= bounds.ave_lb
        assert t_max(l) >= bounds.worst_lb
        if l >= 2:
            assert prop < nested


class TestAsymptoticConstants:
    def test_named_values(self):
        constants = asymptotic_constants()
        assert constants.fit_slope == 1.365
        assert constants.fit_intercept == -0.5
        assert constants.nested_slope == 2.0
        assert constants.nested_intercept == -2.0
        assert constants.lb_slope == pytest.approx(1.262, abs=1e-3)
        assert constants.saving_vs_nested == pytest.approx(0.3175, abs=1e-12)
        assert constants.excess_vs_lb == pytest.approx(0.0816, abs=5e-4)


class TestFormatting:
    def test_rational_str(self):
        assert rational_str(F(11, 5)) == "11/5"
        assert rational_str(F(3)) == "3/1"

    def test_sig6(self):
        assert sig6(F(11, 5)) == "2.2"
        assert sig6(3.0331032) == "3.0331"
        assert sig6(12.886070884) == "12.8861"
