"""Exact expected-cost analysis for both strategies, plus lower bounds.

Everything here is closed-form or recursive arithmetic; no strategy is ever
executed.  Results are rationals; the float mode of ``t_ave_proposed`` is
the binary64 rounding of the exact value.  The recursions themselves run
on integers: each table holds its values times a fixed denominator (4**l
for the joint-round table, the number of placements for the nested
tables), and a ``Fraction`` is formed only where a public value is
returned.

The halving scheme's average for n = 2**l coins follows a depth law.  The n
weight-2 configurations take l weighings each.  The pair configurations
whose two unit coins first fall into different halves at depth i carry
total probability 2**(l-i-1)/(n+1) and cost i + 1 + T[l-i-1][l-i-1] on
average, where T is the triangular table of joint-round costs.  Per
separation class d of the two unit coins, the branch weights m give the
depth distribution of the first joint round.  They depend on d only through
d_n = min(d, n - d) and are linear in d_n up to the first depth whose half
no longer fits the class.  So is the class's expected cost: with each
depth's cost and the prefix sums of those costs weighted by 2**(i-1) kept
once per table, one class costs one integer expression, and its value is
linear in d_n between the cutoffs d_n = 2**k.  A class at size l reads the
table of size l: a table of another size is rebuilt, never rescaled.

The nested strategy's average satisfies a divide-and-conquer recursion in
hypergeometric split probabilities alpha, each a ratio of falling powers.
Multiplied through by the number of placements of the coins sought, it
becomes a recursion on integer total path lengths, evaluated at the
midpoint split that the nested executor plays, which gives closed forms at
powers of two.  The midpoint attains the optimum of the single-coin search
at every size, but that of the pair search only at powers of two (see
``NestedTables``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .model import InvalidSizeError, _coin_count

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
    handled jointly.  Every T[i][j] is dyadic with a denominator dividing
    4**min(i, j), so the table stores the integers U[i][j] = 4**l T[i][j]
    densely for 0 <= i, j <= l, and ``value`` forms the one ``Fraction``.
    ``depth_rows`` holds the per-depth costs and their weighted prefix sums
    at size l, which ``t_given_delta`` reads (see ``_depth_rows``); a class
    at another size reads the rows of a table built for that size.
    """

    l: int
    numerators: tuple[tuple[int, ...], ...]
    depth_rows: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rows = _depth_rows(self.l, self.numerators)
        object.__setattr__(self, "depth_rows", rows)

    def value(self, i: int, j: int) -> Fraction:
        l = self.l
        if not (type(i) is int and type(j) is int and 0 <= i <= l and 0 <= j <= l):
            raise InvalidSizeError(f"need integer indices in 0..{l}, got {i!r}, {j!r}")
        return Fraction(self.numerators[i][j], 4**l)


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

    The rule runs on the integers U = 4**l T, with the bases scaled alike:

        U[i][k] = (3 U[i-1][k-1] + U[i-1][k-2]) / 4 + 3 * 4**l / 2,

    with U[i-1][k-2] mirrored as above.  Both divisions are exact: T's
    denominators in row i - 1 divide 4**(i-1), so every entry there is a
    multiple of 4**(l-i+1), a multiple of 4 since i <= l; and 3 * 4**l is
    even because i >= 1 forces l >= 1.
    """
    if type(l) is not int or l < 0:
        raise InvalidSizeError(f"table size must be an integer >= 0, got {l!r}")

    scale = 4**l
    step = 3 * scale // 2
    u = [[0] * (l + 1) for _ in range(l + 1)]
    for k in range(l + 1):
        for i in range(k + 1):
            if i == 0:
                v = k * scale
            elif i == k == 1:
                v = step
            else:
                near = u[i - 1][k - 1]
                far = u[i - 1][k - 2] if k - 2 >= i - 1 else u[k - 2][i - 1]
                v = (3 * near + far) // 4 + step
            u[i][k] = v
            u[k][i] = v
    return TTable(l=l, numerators=tuple(tuple(row) for row in u))


def _depth_rows(
    l: int, u: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-depth costs at size n = 2**l, on the scale 4**l of U = 4**l T.

    Returns (C, S).  C[i] = (i + 1) 4**l + U[l-i-1][l-i-1] is 4**l times the
    expected cost of a first joint round at depth i < l, and C[l] = l 4**l
    that of pure bisection.  S[j] = sum_{i<j} w_i C[i] with w_0 = 1 and
    w_i = 2**(i-1): the depths before a class's cutoff take shares
    d_n w_i, so S[j] is their cost per unit of d_n.  Only a table of size l
    has these rows; nothing is rescaled to another size.
    """
    scale = 4**l
    costs = [(i + 1) * scale + u[l - i - 1][l - i - 1] for i in range(l)]
    costs.append(l * scale)
    prefix = [0]
    total = 0
    for i in range(l):
        total += costs[i] << (i - 1) if i else costs[i]
        prefix.append(total)
    return tuple(costs), tuple(prefix)


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


def _cutoff(l: int, delta: int) -> tuple[int, int, int, int]:
    """Check ``delta`` against n = 2**l and locate its class's cutoff.

    Returns (d_n, h, j, rest) with d_n = min(delta, n - delta) and h = n/2.
    In units of 1/h, depth i takes the share d_n w_i (w_0 = 1,
    w_i = 2**(i-1)) while d_n < 2**(l-i-1), so the cutoff is
    j = l - bitlen(d_n), and depth j takes rest = h - d_n 2**(j-1) (h at j = 0).
    """
    n = _coin_count(l)
    if type(delta) is not int or not 0 <= delta <= n - 1:
        raise InvalidSizeError(f"delta must be an integer in 0..{n - 1}, got {delta!r}")
    dn = min(delta, n - delta)
    h = n >> 1
    j = l - dn.bit_length()
    rest = h - (dn << (j - 1)) if j else h
    return dn, h, j, rest


def branch_weights(l: int, delta: int) -> BranchWeights:
    """Exact branch weights for separation class ``delta`` at size n = 2**l.

    From ``_cutoff``: m[i] = d_n w_i / h before j, rest / h at j, 0 after.
    """
    dn, h, j, rest = _cutoff(l, delta)
    shares = [dn << (i - 1) if i else dn for i in range(j)] + [rest] + [0] * (l - j)
    m = tuple(Fraction(share, h) for share in shares)
    return BranchWeights(l=l, delta=delta, delta_n=dn, m=m)


def t_given_delta(l: int, delta: int, table: TTable | None = None) -> Fraction:
    """Exact expected weighings for one separation class (informational).

    Only the probability-weighted aggregate of these values is certified to
    match exhaustive execution; within a class the analytic value and the
    empirical conditional mean can genuinely differ.

    The value is sum_{i<l} m[i] (i + 1 + T[l-i-1][l-i-1]) + m[l] l.  With
    h = n/2, the branch weights are m[i] = d_n w_i / h (w_0 = 1,
    w_i = 2**(i-1)) for every depth i before the cutoff j, and depth j takes
    m[j] = rest / h (see ``_cutoff``).  So, with the depth costs C and their
    prefix sums S that the table of size l keeps (``_depth_rows``, scaled
    by 4**l),

        t = (d_n S[j] + rest C[j]) / (h 4**l),

    which is linear in d_n between the cutoffs d_n = 2**k.  ``table`` is
    used when its size is l; a table of any other size, or none, is
    replaced by ``t_table(l)``, and anything that is not a ``TTable`` is
    rejected.
    """
    dn, h, j, rest = _cutoff(l, delta)
    if table is not None and not isinstance(table, TTable):
        raise InvalidSizeError(f"table must be a TTable or None, got {table!r}")
    if table is None or table.l != l:
        table = t_table(l)
    costs, prefix = table.depth_rows
    return Fraction(dn * prefix[j] + rest * costs[j], h * 4**l)


def t_ave_proposed(l: int, mode: str = "exact") -> Fraction | float:
    """Average weighings of the halving scheme over all configurations.

    Depth law at n = 2**l: the n weight-2 configurations (probability
    2/(n+1) together) cost l each, and the pair configurations whose first
    split of the two unit coins happens at depth i (probability
    2**(l-i-1)/(n+1) together) cost i + 1 + T[l-i-1][l-i-1] on average, so

        t_ave = (2l + sum_{i<l} 2**(l-i-1) (i + 1 + T[l-i-1][l-i-1])) / (n+1).

    With the table's depth costs C = 4**l (i + 1 + T[l-i-1][l-i-1]) and
    C[l] = 4**l l (see ``_depth_rows``), the sum is the integer
    2 C[l] + sum_{i<l} 2**(l-i-1) C[i] over 4**l (n+1), divided once.
    Exact mode returns that Fraction for any l; float mode returns its
    rounding to the nearest binary64.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    n = _coin_count(l)
    costs, _ = t_table(l).depth_rows
    total = 2 * costs[l] + sum(costs[i] << (l - i - 1) for i in range(l))
    exact = Fraction(total, 4**l * (n + 1))
    return exact if mode == "exact" else float(exact)


def t_max(l: int) -> int:
    """Worst-case weighings at n = 2**l: 2l - 1, for both strategies."""
    _coin_count(l)
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
    if type(s) is not int or s < 2:
        raise InvalidSizeError(f"need s >= 2, got {s!r}")
    if type(m) is not int or not 1 <= m <= s - 1:
        raise InvalidSizeError(f"need 1 <= m <= s-1, got m={m!r}")
    if type(i) is not int or type(j) is not int:
        raise InvalidSizeError(f"need integer i and j, got i={i!r}, j={j!r}")
    if i < 0 or j < 0 or j > i:
        return Fraction(0)
    if not 0 <= m - j <= s - i:
        return Fraction(0)
    captured = math.perm(m, j) * math.perm(s - m, i - j)
    return Fraction(captured, math.perm(s, i))


# Sizes 0 and 1 of every nested table: a region of one coin is resolved.
_ZEROS = [Fraction(0), Fraction(0)]


class NestedTables:
    """Optimal expected nested-search costs by region size.

    ``opt1[s]`` locates one distinguished coin in a region of s coins;
    ``opt22[s]`` locates two weight-1 coins in a region of s coins known
    to hold total weight 2, and ``opt2[s]`` mixes ``opt1`` and ``opt22``
    with the prior odds (2 : s-1) that a weight-2 region of s coins holds a
    single coin.  Locating that weight-2 coin costs ``opt1[s]``, and a split
    of it ``split_t1``: a lone weight-2 coin makes every weighing read 0 or
    the full weight, exactly like a lone weight-1 coin, so both searches
    follow the same recursion from the same zero base.  All values are
    exact and follow the midpoint split m = floor(s/2), which is what the
    nested executor plays.  For the single-coin tables the midpoint attains
    the true minimum over m at every s.  For the pair tables it does so at every power of two
    -- the only sizes a run started at n = 2**l ever visits -- but not at
    general s, where splitting at a nearby power of two can be strictly
    cheaper (first case s = 6: m = 2 costs 56/15 against 19/5 at the
    midpoint), so there ``opt22``/``opt2`` are upper bounds on the optimum.
    ``split_*`` evaluates any split for comparison.

    The recursions run on integer total path lengths: e1[s] = s opt1[s]
    sums the weighings over the s equally likely places of one coin, and
    e22[s] = C(s, 2) opt22[s] over the C(s, 2) places of two.  Multiplying
    the hypergeometric recursions in ``alpha`` through by s and C(s, 2)
    clears every denominator; a first weighing of m of the s coins gives

        e1[s]  = e1[s-m] + e1[m] + s,
        e22[s] = e22[s-m] + e22[m] + C(s, 2) + (s-m) e1[m] + m e1[s-m],

    since every placement pays that weighing, and a pair split across the
    parts searches each part for one coin once per place of the other.  No
    step divides.  Construction fills only these integer tables.  The
    public values are opt1 = e1/s, opt22 = e22/C(s, 2) and
    opt2 = 2(e1 + e22)/(s(s+1)), which is the prior mix
    (2 opt1 + (s-1) opt22)/(s+1).  Each rational table is formed as a list
    of ``Fraction``s on its first read and kept, so a caller pays only for
    the tables it reads; the tables are the midpoint case of the same
    expressions that ``split_*`` evaluate at any m.
    """

    def __init__(self, s_max: int):
        if type(s_max) is not int or s_max < 2:
            raise InvalidSizeError(f"need s_max >= 2, got {s_max!r}")
        self.s_max = s_max
        self._e1 = e1 = [0] * (s_max + 1)
        self._e22 = e22 = [0] * (s_max + 1)
        paths1, paths22 = self._paths1, self._paths22
        for s in range(2, s_max + 1):
            m = s // 2
            e1[s] = paths1(s, m)
            e22[s] = paths22(s, m)

    @functools.cached_property
    def opt1(self) -> list[Fraction]:
        e1 = self._e1
        return _ZEROS + [Fraction(e1[s], s) for s in range(2, self.s_max + 1)]

    @functools.cached_property
    def opt22(self) -> list[Fraction]:
        e22 = self._e22
        return _ZEROS + [
            Fraction(e22[s], math.comb(s, 2)) for s in range(2, self.s_max + 1)
        ]

    @functools.cached_property
    def opt2(self) -> list[Fraction]:
        e1, e22 = self._e1, self._e22
        return _ZEROS + [
            Fraction(2 * (e1[s] + e22[s]), s * (s + 1))
            for s in range(2, self.s_max + 1)
        ]

    def _paths1(self, s: int, m: int) -> int:
        return self._e1[s - m] + self._e1[m] + s

    def _paths22(self, s: int, m: int) -> int:
        e1, e22 = self._e1, self._e22
        return (
            e22[s - m] + e22[m] + math.comb(s, 2) + (s - m) * e1[m] + m * e1[s - m]
        )

    def _require(self, s: int, m: int) -> None:
        if type(s) is not int or not 2 <= s <= self.s_max:
            raise InvalidSizeError(f"s must be in 2..{self.s_max}, got {s!r}")
        if type(m) is not int or not 1 <= m <= s - 1:
            raise InvalidSizeError(f"split must be in 1..{s - 1}, got {m!r}")

    def split_t1(self, s: int, m: int) -> Fraction:
        """Expected cost of locating one coin when the first weighing takes m."""
        self._require(s, m)
        return Fraction(self._paths1(s, m), s)

    def split_t22(self, s: int, m: int) -> Fraction:
        self._require(s, m)
        return Fraction(self._paths22(s, m), math.comb(s, 2))

    def split_t2(self, s: int, m: int) -> Fraction:
        self._require(s, m)
        return Fraction(
            2 * (self._paths1(s, m) + self._paths22(s, m)), s * (s + 1)
        )


def nested_tables(s_max: int) -> NestedTables:
    """Build the nested-search cost tables for region sizes up to ``s_max``."""
    return NestedTables(s_max)


def nested_closed_forms(i: int) -> tuple[Fraction, Fraction]:
    """Closed forms at s = 2**i: (opt1, opt2).

    opt1[2**i] = i and opt2[2**i] = ((i-1) 2**(i+1) + i + 2) / (2**i + 1),
    which equals ((2n+1) log2 n - 2(n-1)) / (n+1) at n = 2**i.
    """
    if type(i) is not int or i < 0:
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


def _past_binary64(bits: int) -> InvalidSizeError:
    return InvalidSizeError(
        f"need n + 1 <= {sys.float_info.max!r} for binary64 bounds, "
        f"got n of {bits} bits"
    )


def _bounds_size(l: int) -> int:
    """n = 2**l for ``lower_bounds``, with l checked before 2**l is built:
    n + 1 fits in binary64 up to l = 1023, and a huge 2**l would not fit in
    memory."""
    if l >= sys.float_info.max_exp:
        raise _past_binary64(l + 1)
    return _coin_count(l)


def lower_bounds(n: int) -> Bounds:
    """Worst-case and average-case lower bounds for n coins.

    Worst case: max(log2 n, log3 C(n, 2)) since a weighing of a weight-2
    configuration has two useful outcomes and one of a weight-1-pair has
    three.  Average case: the prior-weighted mix of the two entropy terms,
    (2 log2 n + (n-1) log3 C(n, 2)) / (n+1).  Binary64 throughout, with
    log3 computed as a ratio of natural logs, so n + 1 must not exceed the
    largest binary64 value (just under 2**1024).
    """
    if type(n) is not int or n < 2:
        raise InvalidSizeError(f"need n >= 2, got {n!r}")
    if n + 1 > sys.float_info.max:
        raise _past_binary64(n.bit_length())
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
