"""Problem model: coins, configurations, and the spring-scale oracle.

There are n coins in positions 1..n.  Each coin weighs 0, 1, or 2 units and
the total weight is exactly 2, so a configuration is either

* type I:  a single coin of weight 2 (n of these), or
* type II: two distinct coins of weight 1 (n choose 2 of these).

A weighing places a subset S of coins on a spring scale and reads off the
exact total w(S).  Everything downstream (strategy executors, exact analysis,
exhaustive verification) is built on the small vocabulary defined here.

Indices are 1-based everywhere a coin position crosses a public interface;
internal storage is a dense 0-based tuple.
"""

from __future__ import annotations

import itertools
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
    nonzero weights, 1-based) is cached on first access; construction cost is
    dominated by validation, which stays at C speed even for n = 4096.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        w = self.weights
        if len(w) < 2:
            raise InvalidConfigurationError("need at least two coins")
        # For integer entries, min/max bounds plus the total pin the shape:
        # one 2 or two 1s.  Constructors only ever supply integers.
        if min(w) < 0 or max(w) > TOTAL_WEIGHT or sum(w) != TOTAL_WEIGHT:
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
    support = config.support
    if len(support) == 1:
        return 0
    (i, _), (j, _) = support
    return j - i


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


def _subset_weight(config: Configuration, subset: tuple[int, ...]) -> int:
    # Hot path shared by the executors and transcript re-verification: scan
    # the (at most two-element) support against the subset.  Equivalent to
    # the dense sum; the equivalence is property-tested.
    total = 0
    for pos, wt in config.support:
        if pos in subset:
            total += wt
    return total


def weigh(config: Configuration, subset: tuple[int, ...]) -> int:
    """Spring-scale oracle: the exact total weight of ``subset``.

    The subset must be a strictly increasing tuple of 1-based positions.
    """
    validate_subset(subset, config.n)
    return _subset_weight(config, subset)


def enumerate_configs(
    n: int, *, allow_any_size: bool = False
) -> Iterator[Configuration]:
    """Yield all n + C(n, 2) configurations of n coins in canonical order.

    Order is deterministic: type I by position 1..n, then type II in
    lexicographic order of (i, j).  ``n`` must be a power of two unless
    ``allow_any_size`` is set (the nested strategy handles arbitrary sizes).
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
    for pos in range(1, n + 1):
        yield Configuration.type_one(n, pos)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        yield Configuration.type_two(n, i, j)


def config_count(n: int) -> int:
    """Number of configurations: n + C(n, 2)."""
    return n + n * (n - 1) // 2
