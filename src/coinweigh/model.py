"""Problem model: coins, configurations, and the spring-scale oracle.

There are n coins in positions 1..n.  Each coin weighs 0, 1, or 2 units and
the total weight is exactly 2, so a configuration is either

* type I:  a single coin of weight 2 (n of these), or
* type II: two distinct coins of weight 1 (n choose 2 of these).

A weighing places a subset S of coins on a spring scale and reads off the
exact total w(S).  Everything downstream (strategy executors, exact analysis,
exhaustive verification) is built on the small vocabulary defined here.

Indices are 1-based everywhere.  A ``Configuration`` stores the dense weight
vector its public API exposes and, located once at construction, its support
``(p, q)``: the positions of the two unit coins, or p == q for a single coin
of weight 2.  The executors and the verifier see only the support.  Regions
are half-open runs ``[lo, hi)`` of consecutive positions, and ``weigh_runs``
weighs a union of runs against a support by comparing intervals.

Which coin counts can be enumerated is decided in one place,
``require_enumerable``: every n with 2 <= n <= 2**ENUMERATION_CAP_L.  Only
the halving strategy also needs n to be a power of two (``ProblemSize``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
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


def require_enumerable(n: int) -> None:
    """Check that every configuration of n coins can be enumerated.

    n must be an integer with 2 <= n <= 2**ENUMERATION_CAP_L; past the cap
    raises ``TooLargeError`` (the analytic routines still work there).
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"coin count must be an integer >= 2, got {n!r}")
    if n > (1 << ENUMERATION_CAP_L):
        raise TooLargeError(
            f"n={n} exceeds the enumeration cap 2**{ENUMERATION_CAP_L}; "
            "use analysis-only mode"
        )


@dataclass(frozen=True)
class Configuration:
    """A dense weight vector over coins 1..n with total weight 2.

    ``weights[k]`` is the weight of coin k+1.  ``positions`` stores the
    support (the 1-based positions of the nonzero weights) as the pair
    (p, q) that the executors work on, with p == q for a coin of weight 2.
    Construction is two ``tuple.count`` passes that pin the shape, then
    ``tuple.index`` calls that stop at the coins; all of it runs in C, with
    no Python-level loop even at n = 4096.
    """

    weights: tuple[int, ...]
    positions: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = self.weights
        if len(w) < 2:
            raise InvalidConfigurationError("need at least two coins")
        # The only legal shapes are one 2 among zeros or two 1s among zeros.
        # Counting pins the shape whatever the entries, so a vector such as
        # (0.5, 1.5) that sums to 2 is rejected as well.
        zeros = w.count(0)
        if zeros == len(w) - 1 and w.count(TOTAL_WEIGHT) == 1:
            p = q = w.index(TOTAL_WEIGHT) + 1
        elif zeros == len(w) - 2 and w.count(1) == 2:
            p = w.index(1) + 1
            q = w.index(1, p) + 1
        else:
            raise InvalidConfigurationError(
                f"weights must be 0/1/2 with total {TOTAL_WEIGHT}: {w!r}"
            )
        object.__setattr__(self, "positions", (p, q))

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

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        """Nonzero positions as ((pos, weight), ...) with pos ascending."""
        p, q = self.positions
        return ((p, TOTAL_WEIGHT),) if p == q else ((p, 1), (q, 1))

    @property
    def is_type_one(self) -> bool:
        p, q = self.positions
        return p == q

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
    Once ``validate_subset`` has checked that, p and q of the support are
    each found by binary search in the sorted subset and count 1 each, so a
    coin of weight 2 (p == q) counts twice, as in ``weigh_runs``.
    """
    validate_subset(subset, config.n)
    total = 0
    for pos in config.positions:
        k = bisect_left(subset, pos)
        if k < len(subset) and subset[k] == pos:
            total += 1
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
    validated here; ``require_enumerable`` does that for its callers.
    """
    if start < n:
        for pos in range(start + 1, n + 1):
            yield pos, pos
        first, second = 1, 2
    else:
        # Walk the pair rows: row i holds the n - i pairs (i, i+1..n).
        k = start - n
        first = 1
        while first < n and k >= n - first:
            k -= n - first
            first += 1
        second = first + 1 + k
    for i in range(first, n):
        for j in range(second, n + 1):
            yield i, j
        second = i + 2


def enumerate_configs(n: int) -> Iterator[Configuration]:
    """Yield all n + C(n, 2) configurations of n coins in canonical order.

    The order is that of ``iter_supports``: type I by position 1..n, then
    type II in lexicographic order of (i, j).  Any n accepted by
    ``require_enumerable`` works, a power of two or not; past
    2**ENUMERATION_CAP_L it raises ``TooLargeError`` and the analytic
    routines are the way to go.
    """
    require_enumerable(n)
    for p, q in iter_supports(n):
        if p == q:
            yield Configuration.type_one(n, p)
        else:
            yield Configuration.type_two(n, p, q)


def config_count(n: int) -> int:
    """Number of configurations: n + C(n, 2)."""
    return n + n * (n - 1) // 2
