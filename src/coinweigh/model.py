"""Problem model: coins, configurations, and the spring-scale oracle.

There are n coins in positions 1..n.  Each coin weighs 0, 1, or 2 units and
the total weight is exactly 2, so a configuration is either

* type I:  a single coin of weight 2 (n of these), or
* type II: two distinct coins of weight 1 (n choose 2 of these).

A weighing places a subset S of coins on a spring scale and reads off the
exact total w(S).  Everything downstream (strategy executors, exact analysis,
exhaustive verification) is built on the small vocabulary defined here.

Indices are 1-based everywhere.  A ``Configuration`` stores the dense weight
vector its public API exposes, but the executors and the verifier see only
its support ``(p, q)``: the positions of the two unit coins, or p == q for a
single coin of weight 2.  Regions are half-open runs ``[lo, hi)`` of
consecutive positions, and ``weigh_runs`` weighs a union of runs against a
support by comparing intervals.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

# Exhaustive enumeration is supported up to n = 2**ENUMERATION_CAP_L; past
# that only the analytic (closed form / recursion) path is meaningful.
ENUMERATION_CAP_L = 12

TOTAL_WEIGHT = 2


class CoinWeighError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSizeError(CoinWeighError, ValueError):
    """A coin count or exponent outside the valid domain."""


class InvalidConfigurationError(CoinWeighError, ValueError):
    """A weight vector that is not a legal total-weight-2 configuration."""


class InvalidSubsetError(CoinWeighError, ValueError):
    """A weighing subset with out-of-range, repeated, or unsorted indices."""


class TooLargeError(InvalidSizeError):
    """An instance too large to enumerate; analysis-only mode still works."""


class InternalContractError(CoinWeighError, RuntimeError):
    """An oracle outcome inconsistent with a procedure's precondition.

    Reaching this is an implementation bug, never a property of the input.
    """


@dataclass(frozen=True)
class ProblemSize:
    """A validated problem size n = 2**l with l >= 1."""

    l: int
    n: int

    @classmethod
    def from_exponent(cls, l: int) -> "ProblemSize":
        if not isinstance(l, int) or l < 1:
            raise InvalidSizeError(f"exponent must be an integer >= 1, got {l!r}")
        return cls(l=l, n=1 << l)

    @classmethod
    def from_coin_count(cls, n: int) -> "ProblemSize":
        if not isinstance(n, int) or n < 2 or n & (n - 1):
            raise InvalidSizeError(
                f"coin count must be a power of two >= 2, got {n!r}"
            )
        return cls(l=n.bit_length() - 1, n=n)


def require_coin_count(n: int) -> None:
    """Validate an arbitrary-size coin count (nested strategy admits any n >= 2)."""
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"coin count must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class Configuration:
    """A dense weight vector over coins 1..n with total weight 2.

    ``weights[k]`` is the weight of coin k+1.  The support (positions of the
    nonzero weights, 1-based) is cached on first access, and ``positions``
    gives it as the pair (p, q) that the executors work on.  Construction
    cost is validation: two ``tuple.count`` passes in C, with no Python-level
    loop even at n = 4096.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        w = self.weights
        if len(w) < 2:
            raise InvalidConfigurationError("need at least two coins")
        # The only legal shapes are one 2 among zeros or two 1s among zeros.
        # Counting pins the shape whatever the entries, so a vector such as
        # (0.5, 1.5) that sums to 2 is rejected as well.
        zeros = w.count(0)
        if not (
            (zeros == len(w) - 1 and w.count(TOTAL_WEIGHT) == 1)
            or (zeros == len(w) - 2 and w.count(1) == 2)
        ):
            raise InvalidConfigurationError(
                f"weights must be 0/1/2 with total {TOTAL_WEIGHT}: {w!r}"
            )

    @classmethod
    def type_one(cls, n: int, pos: int) -> "Configuration":
        """The configuration with coin ``pos`` weighing 2."""
        if not 1 <= pos <= n:
            raise InvalidConfigurationError(f"position {pos} not in 1..{n}")
        w = [0] * n
        w[pos - 1] = 2
        return cls(tuple(w))

    @classmethod
    def type_two(cls, n: int, i: int, j: int) -> "Configuration":
        """The configuration with coins ``i`` < ``j`` each weighing 1."""
        if not (1 <= i < j <= n):
            raise InvalidConfigurationError(f"need 1 <= i < j <= n, got {i}, {j}")
        w = [0] * n
        w[i - 1] = 1
        w[j - 1] = 1
        return cls(tuple(w))

    @classmethod
    def from_text(cls, text: str) -> "Configuration":
        """Parse a comma-separated weight vector like ``0,0,1,0,0,1,0,0``."""
        try:
            weights = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as exc:
            raise InvalidConfigurationError(f"malformed weight list: {text!r}") from exc
        return cls(weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def support(self) -> tuple[tuple[int, int], ...]:
        """Nonzero positions as ((pos, weight), ...) with pos ascending."""
        w = self.weights
        try:
            pos = w.index(2)
        except ValueError:
            i = w.index(1)
            j = w.index(1, i + 1)
            return ((i + 1, 1), (j + 1, 1))
        return ((pos + 1, 2),)

    @property
    def positions(self) -> tuple[int, int]:
        """The support as (p, q) with p <= q; p == q for a coin of weight 2."""
        support = self.support
        return support[0][0], support[-1][0]

    @property
    def is_type_one(self) -> bool:
        return len(self.support) == 1

    def as_text(self) -> str:
        return ",".join(str(v) for v in self.weights)


def delta_of(config: Configuration) -> int:
    """Positional separation class of a configuration.

    0 for a single coin of weight 2; |i - j| for two unit coins at i and j.
    Always in [0, n-1], and exactly n - d configurations share each class
    d >= 1 while all n type-I configurations share class 0.
    """
    p, q = config.positions
    return q - p


def validate_subset(subset: tuple[int, ...], n: int) -> None:
    """Check that ``subset`` is a strictly increasing tuple inside 1..n."""
    if not subset:
        raise InvalidSubsetError("weighing subset must be nonempty")
    prev = 0
    for idx in subset:
        if type(idx) is not int or idx <= prev:
            raise InvalidSubsetError(
                f"subset indices must be strictly increasing positive ints: {subset!r}"
            )
        prev = idx
    if subset[-1] > n:
        raise InvalidSubsetError(f"index {subset[-1]} out of range for n={n}")


def parse_subset(text: str, n: int) -> tuple[int, ...]:
    """Parse a comma-separated 1-based index list and validate it."""
    try:
        subset = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise InvalidSubsetError(f"malformed subset: {text!r}") from exc
    validate_subset(subset, n)
    return subset


def weigh(config: Configuration, subset: tuple[int, ...]) -> int:
    """Spring-scale oracle: the exact total weight of ``subset``.

    The subset must be a strictly increasing tuple of 1-based positions.
    Once ``validate_subset`` has checked that, each of the at most two
    support positions is found by binary search in the sorted subset.
    """
    validate_subset(subset, config.n)
    total = 0
    for pos, wt in config.support:
        k = bisect_left(subset, pos)
        if k < len(subset) and subset[k] == pos:
            total += wt
    return total


def weigh_runs(p: int, q: int, runs: tuple[tuple[int, int], ...]) -> int:
    """Interval oracle: the weight of a union of disjoint runs ``[lo, hi)``.

    The configuration is given by its support ``(p, q)``.  Each run
    contributes ``(lo <= p < hi) + (lo <= q < hi)``, so a coin of weight 2
    (p == q) counts twice.  On the materialized subset this equals ``weigh``,
    which is property-tested.
    """
    total = 0
    for lo, hi in runs:
        total += (lo <= p < hi) + (lo <= q < hi)
    return total


def iter_supports(n: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """Yield the support (p, q) of each configuration of n coins, from rank
    ``start`` on, in canonical order.

    Ranks 0..n-1 are type I, ``(pos, pos)`` for pos = 1..n; then come the
    type-II pairs (i, j), i < j, in lexicographic order.  ``n`` is not
    validated here; ``enumerate_configs`` and the verifier do that.
    """
    if start < n:
        for pos in range(start + 1, n + 1):
            yield pos, pos
        first, second = 1, 2
    else:
        k = start - n
        if k >= n * (n - 1) // 2:
            return
        # Pair row a (0-based first coin) starts at offset a*n - a*(a+1)/2;
        # invert with the quadratic formula and correct the rounding.
        a = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * k)) // 2
        while a * n - a * (a + 1) // 2 > k:
            a -= 1
        while (a + 1) * n - (a + 1) * (a + 2) // 2 <= k:
            a += 1
        first, second = a + 1, a + 2 + k - (a * n - a * (a + 1) // 2)
    for i in range(first, n):
        for j in range(second, n + 1):
            yield i, j
        second = i + 2


def enumerate_configs(
    n: int, *, allow_any_size: bool = False
) -> Iterator[Configuration]:
    """Yield all n + C(n, 2) configurations of n coins in canonical order.

    The order is that of ``iter_supports``: type I by position 1..n, then
    type II in lexicographic order of (i, j).  ``n`` must be a power of two
    unless ``allow_any_size`` is set (the nested strategy handles arbitrary
    sizes).
    Enumeration refuses n > 2**ENUMERATION_CAP_L; use the analytic routines
    for larger sizes.
    """
    if allow_any_size:
        require_coin_count(n)
    else:
        ProblemSize.from_coin_count(n)
    if n > (1 << ENUMERATION_CAP_L):
        raise TooLargeError(
            f"n={n} exceeds the enumeration cap 2**{ENUMERATION_CAP_L}; "
            "use analysis-only mode"
        )
    for p, q in iter_supports(n):
        if p == q:
            yield Configuration.type_one(n, p)
        else:
            yield Configuration.type_two(n, p, q)


def config_count(n: int) -> int:
    """Number of configurations: n + C(n, 2)."""
    return n + n * (n - 1) // 2
