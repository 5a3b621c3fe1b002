"""Exact expected-cost analysis for both strategies, plus lower bounds.

Everything here is closed-form or recursive arithmetic; no strategy is ever
executed.  Results are rationals; the float mode of ``t_ave_proposed`` is
the binary64 rounding of the exact value.

The halving scheme's average for n = 2**l coins follows a depth law.  The n
weight-2 configurations take l weighings each.  The pair configurations
whose two unit coins first fall into different halves at depth i carry
total probability 2**(l-i-1)/(n+1) and cost i + 1 + T[l-i-1][l-i-1] on
average, where T is the triangular table of joint-round costs.  Per
separation class d of the two unit coins, the branch weights m give the
depth distribution of the first joint round.  They depend on d only through
d_n = min(d, n - d) and are linear in d_n up to the first depth whose half
no longer fits the class.

The nested strategy's average satisfies a divide-and-conquer recursion in
hypergeometric split probabilities alpha, each a ratio of falling powers;
its optimum is attained by the midpoint split, giving closed forms at powers
of two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .model import InvalidSizeError, ProblemSize

__all__ = [
    "TTable",
    "BranchWeights",
    "NestedTables",
    "Bounds",
    "AsymptoticConstants",
    "t_table",
    "branch_weights",
    "t_given_delta",
    "t_ave_proposed",
    "t_max",
    "alpha",
    "nested_tables",
    "nested_closed_forms",
    "lower_bounds",
    "asymptotic_constants",
]


# ---------------------------------------------------------------------------
# Joint-round cost table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TTable:
    """Expected joint-round costs T[i][j], symmetric in (i, j).

    T[i][j] is the expected number of further weighings once the two unit
    coins are confined to disjoint regions of sizes 2**i and 2**j that are
    handled jointly.  Stored densely for 0 <= i, j <= l.
    """

    l: int
    entries: tuple[tuple[Fraction, ...], ...]

    def value(self, i: int, j: int) -> Fraction:
        if not (0 <= i <= self.l and 0 <= j <= self.l):
            raise InvalidSizeError(f"indices ({i}, {j}) outside 0..{self.l}")
        return self.entries[i][j]


def t_table(l: int) -> TTable:
    """Build the joint-round cost table up to index ``l``.

    Bases: T[0][0] = 0 (both coins already located), T[0][j] = j (one coin
    located, bisect the other), T[1][1] = 3/2, T[1][j] = j + 1/4 for j >= 2.
    Past the bases, the joint round weighs the near halves of both regions
    together: outcomes 0 and 2 (combined probability 1/2) shrink both
    regions to halves, while after outcome 1 the coins sit in opposite
    halves and one follow-up weighing either shrinks both regions to halves
    again (probability 1/2) or shrinks the smaller region to a half and the
    larger to a quarter.  Collecting terms, for 2 <= i <= k

        T[i][k] = (3/4) T[i-1][k-1] + (1/4) T[i-1][k-2] + 3/2,

    where T[i-1][k-2] is read through symmetry as T[k-2][i-1] when
    k - 2 < i - 1 (which covers the diagonal k = i).  Evaluated at i = 1
    the same rule reproduces the T[1][j] base line, so the whole table is
    the closure of the bases under one rule.  Filled by increasing second
    index, so every dependency, direct or mirrored, is already present.
    """
    if not isinstance(l, int) or l < 0:
        raise InvalidSizeError(f"table size must be an integer >= 0, got {l!r}")

    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    one = Fraction(1)
    t = [[None] * (l + 1) for _ in range(l + 1)]
    for k in range(l + 1):
        for i in range(k + 1):
            if i == 0:
                v = k * one
            elif i == 1:
                v = one + half if k == 1 else k * one + quarter
            else:
                near = t[i - 1][k - 1]
                far = t[i - 1][k - 2] if k - 2 >= i - 1 else t[k - 2][i - 1]
                v = 3 * quarter * near + quarter * far + one + half
            t[i][k] = v
            t[k][i] = v
    return TTable(l=l, entries=tuple(tuple(row) for row in t))


# ---------------------------------------------------------------------------
# Branch weights over separation classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchWeights:
    """Depth distribution of the first joint round for one separation class.

    ``m[i]`` (0 <= i < l) is the probability that the halving scheme enters
    its first joint round at depth i, conditioned on the class; ``m[l]`` is
    the probability it never does (pure bisection).  With h = n/2 and
    d_n = ``delta_n``, m[0] = d_n/h and m[i] = 2**(i-1) d_n/h while
    d_n < 2**(l-i-1).  The first depth that fails this test, or depth l if
    none does, takes the remaining mass and every later entry is 0, so the
    m's lie in [0, 1] and sum to 1.
    """

    l: int
    delta: int
    delta_n: int
    m: tuple[Fraction, ...]


def branch_weights(l: int, delta: int) -> BranchWeights:
    """Exact branch weights for separation class ``delta`` at size n = 2**l."""
    size = ProblemSize.from_exponent(l)
    if not 0 <= delta <= size.n - 1:
        raise InvalidSizeError(f"delta must be in 0..{size.n - 1}, got {delta}")
    dn = min(delta, size.n - delta)
    h = 1 << (l - 1)
    m = [Fraction(0)] * (l + 1)
    rest = h  # mass not yet assigned, in units of 1/h
    for i in range(l + 1):
        if i == l or dn >= 1 << (l - i - 1):
            m[i] = Fraction(rest, h)
            break
        share = dn << (i - 1) if i else dn
        m[i] = Fraction(share, h)
        rest -= share
    return BranchWeights(l=l, delta=delta, delta_n=dn, m=tuple(m))


def t_given_delta(l: int, delta: int, table: TTable | None = None) -> Fraction:
    """Exact expected weighings for one separation class (informational).

    Only the probability-weighted aggregate of these values is certified to
    match exhaustive execution; within a class the analytic value and the
    empirical conditional mean can genuinely differ.
    """
    bw = branch_weights(l, delta)
    if table is None or table.l < l:
        table = t_table(l)
    total = Fraction(0)
    for i in range(l):
        total += bw.m[i] * (table.value(l - i - 1, l - i - 1) + i + 1)
    total += bw.m[l] * l
    return total


def t_ave_proposed(l: int, mode: str = "exact") -> Fraction | float:
    """Average weighings of the halving scheme over all configurations.

    Depth law at n = 2**l: the n weight-2 configurations (probability
    2/(n+1) together) cost l each, and the pair configurations whose first
    split of the two unit coins happens at depth i (probability
    2**(l-i-1)/(n+1) together) cost i + 1 + T[l-i-1][l-i-1] on average, so

        t_ave = (2l + sum_{i<l} 2**(l-i-1) (i + 1 + T[l-i-1][l-i-1])) / (n+1).

    Exact mode returns that Fraction for any l; float mode returns its
    rounding to the nearest binary64.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    size = ProblemSize.from_exponent(l)
    table = t_table(l)
    total = Fraction(2 * l)
    for i in range(l):
        k = l - i - 1
        total += (1 << k) * (i + 1 + table.value(k, k))
    exact = total / (size.n + 1)
    return exact if mode == "exact" else float(exact)


def t_max(l: int) -> int:
    """Worst-case weighings at n = 2**l: 2l - 1, for both strategies."""
    ProblemSize.from_exponent(l)
    return 2 * l - 1


# ---------------------------------------------------------------------------
# Nested strategy analysis
# ---------------------------------------------------------------------------


def alpha(s: int, m: int, i: int, j: int) -> Fraction:
    """Probability that a uniform weighing of m of s coins captures j of the
    i coins that are present: C(s-i, m-j) / C(s, m), zero outside
    0 <= m - j <= s - i.  Computed as the equal ratio of falling powers
    m^(j) (s-m)^(i-j) / s^(i), whose factors have at most i terms.
    """
    if not (isinstance(s, int) and s >= 2):
        raise InvalidSizeError(f"need s >= 2, got {s!r}")
    if not 1 <= m <= s - 1:
        raise InvalidSizeError(f"need 1 <= m <= s-1, got m={m!r}")
    if i < 0 or j < 0 or j > i:
        return Fraction(0)
    if not 0 <= m - j <= s - i:
        return Fraction(0)
    captured = math.perm(m, j) * math.perm(s - m, i - j)
    return Fraction(captured, math.perm(s, i))


class NestedTables:
    """Optimal expected nested-search costs by region size.

    ``opt1[s]`` locates one distinguished coin in a region of s coins;
    ``opt21[s]`` and ``opt22[s]`` handle a region known to hold total weight
    2 as one weight-2 coin or two weight-1 coins respectively, and
    ``opt2[s]`` mixes them with the prior odds (2 : s-1) that a weight-2
    region of s coins holds a single coin.  ``opt21`` is the same list as
    ``opt1``, and ``split_t21`` is ``split_t1``: a lone weight-2 coin makes
    every weighing read 0 or the full weight, exactly like a lone weight-1
    coin, so both searches follow the same recursion from the same zero
    base.  All values are exact and follow the midpoint split
    m = floor(s/2), which is what the nested executor plays.  For the
    single-coin tables the midpoint attains the true minimum over m at every
    s.  For the pair tables it does so at every power of two
    -- the only sizes a run started at n = 2**l ever visits -- but not at
    general s, where splitting at a nearby power of two can be strictly
    cheaper (first case s = 6: m = 2 costs 56/15 against 19/5 at the
    midpoint), so there ``opt22``/``opt2`` are upper bounds on the optimum.
    ``split_*`` evaluates any split for comparison.
    """

    def __init__(self, s_max: int):
        if not isinstance(s_max, int) or s_max < 2:
            raise InvalidSizeError(f"need s_max >= 2, got {s_max!r}")
        self.s_max = s_max
        zero = Fraction(0)
        # Size-1 regions are resolved: every table starts at 0.
        self.opt1 = [zero] * (s_max + 1)
        self.opt21 = self.opt1
        self.opt22 = [zero] * (s_max + 1)
        self.opt2 = [zero] * (s_max + 1)
        for s in range(2, s_max + 1):
            m = s // 2
            self.opt1[s] = self.split_t1(s, m)
            self.opt22[s] = self.split_t22(s, m)
            self.opt2[s] = self._mix(s, self.opt1[s], self.opt22[s])

    @staticmethod
    def _mix(s: int, v21: Fraction, v22: Fraction) -> Fraction:
        return Fraction(2, s + 1) * v21 + Fraction(s - 1, s + 1) * v22

    def _require(self, s: int, m: int) -> None:
        if not 2 <= s <= self.s_max:
            raise InvalidSizeError(f"s must be in 2..{self.s_max}, got {s}")
        if not 1 <= m <= s - 1:
            raise InvalidSizeError(f"split must be in 1..{s - 1}, got {m}")

    def split_t1(self, s: int, m: int) -> Fraction:
        """Expected cost of locating one coin when the first weighing takes m."""
        self._require(s, m)
        return alpha(s, m, 1, 0) * (self.opt1[s - m] + 1) + alpha(s, m, 1, 1) * (
            self.opt1[m] + 1
        )

    split_t21 = split_t1

    def split_t22(self, s: int, m: int) -> Fraction:
        self._require(s, m)
        return (
            alpha(s, m, 2, 0) * (self.opt22[s - m] + 1)
            + alpha(s, m, 2, 2) * (self.opt22[m] + 1)
            + 2 * alpha(s, m, 2, 1) * (self.opt1[m] + self.opt1[s - m] + 1)
        )

    def split_t2(self, s: int, m: int) -> Fraction:
        self._require(s, m)
        return self._mix(s, self.split_t1(s, m), self.split_t22(s, m))


def nested_tables(s_max: int) -> NestedTables:
    """Build the nested-search cost tables for region sizes up to ``s_max``."""
    return NestedTables(s_max)


def nested_closed_forms(i: int) -> tuple[Fraction, Fraction]:
    """Closed forms at s = 2**i: (opt1, opt2).

    opt1[2**i] = i and opt2[2**i] = ((i-1) 2**(i+1) + i + 2) / (2**i + 1),
    which equals ((2n+1) log2 n - 2(n-1)) / (n+1) at n = 2**i.
    """
    if not isinstance(i, int) or i < 0:
        raise InvalidSizeError(f"need i >= 0, got {i!r}")
    opt2 = Fraction((i - 1) * (1 << (i + 1)) + i + 2, (1 << i) + 1)
    return Fraction(i), opt2


# ---------------------------------------------------------------------------
# Lower bounds and asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """Information-theoretic lower bounds on weighings at size n."""

    worst_lb: float
    ave_lb: float


def lower_bounds(n: int) -> Bounds:
    """Worst-case and average-case lower bounds for n coins.

    Worst case: max(log2 n, log3 C(n, 2)) since a weighing of a weight-2
    configuration has two useful outcomes and one of a weight-1-pair has
    three.  Average case: the prior-weighted mix of the two entropy terms,
    (2 log2 n + (n-1) log3 C(n, 2)) / (n+1).  Binary64 throughout, with
    log3 computed as a ratio of natural logs, so n + 1 must not exceed the
    largest binary64 value (just under 2**1024).
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"need n >= 2, got {n!r}")
    if n + 1 > sys.float_info.max:
        raise InvalidSizeError(
            f"need n + 1 <= {sys.float_info.max!r} for binary64 bounds, "
            f"got n of {n.bit_length()} bits"
        )
    log2n = math.log2(n)
    log3pairs = math.log(math.comb(n, 2)) / math.log(3) if n > 2 else 0.0
    worst = max(log2n, log3pairs)
    ave = (2.0 * log2n + (n - 1) * log3pairs) / (n + 1)
    return Bounds(worst_lb=worst, ave_lb=ave)


@dataclass(frozen=True)
class AsymptoticConstants:
    """Leading-order constants for averages ~ slope * log2 n + intercept."""

    fit_slope: float
    fit_intercept: float
    nested_slope: float
    nested_intercept: float
    lb_slope: float
    saving_vs_nested: float
    excess_vs_lb: float


def asymptotic_constants() -> AsymptoticConstants:
    """Named reference constants for the large-n trend lines.

    The halving scheme's average is summarized by the nominal line
    1.365 log2 n - 0.5, nested search by 2 log2 n - 2, and the average-case
    lower bound by (2 / log2 3) log2 n; the derived percentages compare the
    slopes.  The first line is nominal rather than fitted: a least-squares
    fit of the exact average over l = 10..20 gives slope 1.3336 with
    intercept -0.448, and the true trend approaches (4/3) log2 n - 4/9 from
    below.  The nominal constants are kept as the fixed reference that the
    reported percentages are derived from.
    """
    fit_slope = 1.365
    nested_slope = 2.0
    lb_slope = 2.0 / math.log2(3)
    return AsymptoticConstants(
        fit_slope=fit_slope,
        fit_intercept=-0.5,
        nested_slope=nested_slope,
        nested_intercept=-2.0,
        lb_slope=lb_slope,
        saving_vs_nested=1.0 - fit_slope / nested_slope,
        excess_vs_lb=fit_slope / lb_slope - 1.0,
    )


# ---------------------------------------------------------------------------
# Serialization helpers shared by the CLI and reports
# ---------------------------------------------------------------------------


def rational_str(value: Fraction) -> str:
    """Render a rational as ``num/den`` (denominator always written)."""
    return f"{value.numerator}/{value.denominator}"


def sig6(value) -> str:
    """Render a number with 6 significant digits."""
    return f"{float(value):.6g}"
