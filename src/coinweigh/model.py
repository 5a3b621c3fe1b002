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
of weight 2.  Regions are half-open runs ``[lo, hi)`` of consecutive
positions, and ``weigh_runs`` weighs a union of runs against a support by
comparing intervals.  ``oracle`` wraps it as the scale a strategy weighs
on: a closure over the support that logs every weighing, so the strategy
sees the readings and never the support.  ``weigh`` is the independent
dense scale on a tuple of positions (see ``Subset``).

Each representation has one writer, and both are memoised: ``_dense``
builds the weight vector of a support, for every ``Configuration`` and
transcript estimate, and ``_logged_subsets`` turns an oracle log into a
transcript's subsets, each made by ``_subset`` from its runs as slices of
one shared tuple of positions, proved a ``Subset`` in O(runs).  The
strategies are deterministic, so runs at one n ask the same large queries
near the root, and a configuration's weights are built again for its
estimate.  Each such O(n) tuple is built once while it stays in its memo:
configurations and transcripts of different runs may share ``Subset``
objects and weight tuples, which is safe because both are immutable.

Which coin counts can be enumerated is decided in one place,
``require_enumerable``: every n with 2 <= n <= 2**ENUMERATION_CAP_L.  Both
strategies run at every such n.  The analytic rows are indexed by l, with
n = 2**l; ``_coin_count`` is the one check of l.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache

# Exhaustive enumeration is supported up to n = 2**ENUMERATION_CAP_L; past
# that only the analytic (closed form / recursion) path is meaningful.
ENUMERATION_CAP_L = 12

TOTAL_WEIGHT = 2

# A weighing of a union of disjoint runs [lo, hi), runs ascending.
Runs = tuple[tuple[int, int], ...]
# A spring scale as a strategy sees it: runs in, outcome out.
Scale = Callable[[Runs], int]


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


def _coin_count(l: int) -> int:
    """n = 2**l, once l is checked to be an ``int`` >= 1.

    A ``bool`` equals 0 or 1 and a ``float`` may equal an integer, but
    neither is an exponent.
    """
    if type(l) is not int or l < 1:
        raise InvalidSizeError(f"exponent must be an integer >= 1, got {l!r}")
    return 1 << l


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


@lru_cache(maxsize=8)
def _dense(n: int, p: int, q: int) -> tuple[int, ...]:
    # The weights of n coins with the checked support (p, q); coin p == q weighs 2.
    # Memoised: a run builds its configuration and then its estimate from the
    # same support, and the tuple is immutable, so both may share it.
    w = [0] * n
    w[p - 1] += 1
    w[q - 1] += 1
    return tuple(w)


@dataclass(frozen=True)
class Configuration:
    """A dense weight vector over coins 1..n with total weight 2.

    ``weights[k]`` is the weight of coin k+1.  ``positions`` stores the
    support (the 1-based positions of the nonzero weights) as the pair
    (p, q) that the executors work on, with p == q for a coin of weight 2.
    ``Configuration(weights)`` takes a tuple or a list.  Construction is two
    ``tuple.count`` passes that pin the shape, then ``tuple.index`` calls
    that stop at the coins; all of it runs in C, with no Python-level loop
    even at n = 4096.  The one or two coins found must be of type ``int``
    (not ``bool`` or ``float``), while zero entries are compared by value
    only: a type check on every entry would cost a Python-level pass over
    all n.  ``type_one`` and ``type_two`` take the support their checked
    arguments give, without that scan.  Every constructor stores the
    ``_dense`` tuple of the support as ``weights``.
    """

    weights: tuple[int, ...]
    positions: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = self.weights
        if not isinstance(w, (tuple, list)):
            raise InvalidConfigurationError(f"weights must be a tuple or a list: {w!r}")
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
        if type(w[p - 1]) is not int or type(w[q - 1]) is not int:
            raise InvalidConfigurationError(f"coin weights must be ints: {w!r}")
        object.__setattr__(self, "weights", _dense(len(w), p, q))
        object.__setattr__(self, "positions", (p, q))

    @classmethod
    def type_one(cls, n: int, pos: int) -> "Configuration":
        """The configuration with coin ``pos`` weighing 2."""
        if type(n) is not int:
            raise InvalidConfigurationError(f"coin count must be an integer, got {n!r}")
        if type(pos) is not int or not 1 <= pos <= n:
            raise InvalidConfigurationError(
                f"position must be an integer in 1..{n}, got {pos!r}"
            )
        if n < 2:
            raise InvalidConfigurationError("need at least two coins")
        return cls._located(n, pos, pos)

    @classmethod
    def type_two(cls, n: int, i: int, j: int) -> "Configuration":
        """The configuration with coins ``i`` < ``j`` each weighing 1."""
        if type(n) is not int:
            raise InvalidConfigurationError(f"coin count must be an integer, got {n!r}")
        if type(i) is not int or type(j) is not int or not 1 <= i < j <= n:
            raise InvalidConfigurationError(f"need 1 <= i < j <= n, got {i!r}, {j!r}")
        return cls._located(n, i, j)

    @classmethod
    def _located(cls, n: int, p: int, q: int) -> "Configuration":
        # The checked support (p, q) of n coins and its ``_dense`` weights,
        # stored without the scan ``__post_init__`` makes.
        config = object.__new__(cls)
        object.__setattr__(config, "weights", _dense(n, p, q))
        object.__setattr__(config, "positions", (p, q))
        return config

    @classmethod
    def from_text(cls, text: str) -> "Configuration":
        """Parse a comma-separated weight vector like ``0,0,1,0,0,1,0,0``."""
        if not isinstance(text, str):
            raise InvalidConfigurationError(f"weight list must be a str: {text!r}")
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

    def as_text(self) -> str:
        """The weight list as ``from_text`` reads it, e.g. ``0,0,1,0,0,1``."""
        return ",".join(map(str, self.weights))


# Bytes-like objects iterate and index as ints, but are not lists of positions.
_BYTES_LIKE = (bytes, bytearray, memoryview)


def _check_increasing(indices: tuple[int, ...]) -> None:
    # The structure of a subset: nonempty, exact ints, strictly increasing
    # from 1 on.  One Python-level step per index.
    if not indices:
        raise InvalidSubsetError("weighing subset must be nonempty")
    prev = 0
    for idx in indices:
        if type(idx) is not int or idx <= prev:
            raise InvalidSubsetError(
                f"subset indices must be strictly increasing positive ints: {indices!r}"
            )
        prev = idx


class Subset(tuple):
    """A weighing subset whose structure was checked once, when it was made.

    ``Subset(indices)`` checks that the indices are a nonempty, strictly
    increasing sequence of exact ``int`` positions >= 1, and raises
    ``InvalidSubsetError`` otherwise, as it does for ``bytes``, ``bytearray``
    and ``memoryview``.  Every instance holds that invariant, so ``weigh``
    and ``validate_subset`` check only its last index against n, in O(1).
    Build one ``Subset`` for a subset weighed many times; a plain tuple is
    checked again on every call.  Equality and hashing are those of the
    tuple, and slicing or adding one gives a plain tuple.
    ``tuple.__new__(Subset, ...)`` skips the check; only ``_subset`` makes
    one that way, after proving the invariant from the runs of its query.
    It is memoised, so transcripts of different runs may share one
    ``Subset`` object; being an immutable tuple, it is safe to share.
    """

    __slots__ = ()

    def __new__(cls, indices: Iterable[int]) -> "Subset":
        if not isinstance(indices, Iterable) or isinstance(indices, _BYTES_LIKE):
            raise InvalidSubsetError(
                f"weighing subset must be iterable and not bytes: {indices!r}"
            )
        subset = tuple.__new__(cls, indices)
        _check_increasing(subset)
        return subset


# _POSITIONS[k] == k for k = 0..n, for the largest n seen so far.  A larger n
# replaces it with a longer tuple of the same form, so callers holding
# different versions slice the same values, and a ``_subset`` entry does not
# depend on the n it was made for.
_POSITIONS: tuple[int, ...] = ()


@lru_cache(maxsize=1 << 9)
def _subset(runs: Runs) -> Subset:
    # The ``Subset`` of a query's runs, once ``_logged_subsets`` has checked
    # that the last run ends by n + 1 and grown _POSITIONS past n.  Runs that
    # are nonempty, ascending and disjoint from 1 on slice _POSITIONS (where
    # _POSITIONS[k] == k) into exactly what ``Subset()`` checks for, so that
    # check is proved here in O(runs), not rerun.  A rejected query raises
    # and so is not cached.
    positions = _POSITIONS
    subset: tuple[int, ...] = ()
    prev = 1
    for lo, hi in runs:
        if not prev <= lo < hi:
            raise InternalContractError(
                f"runs {runs!r} are not nonempty, ascending and disjoint from 1 on"
            )
        subset += positions[lo:hi]
        prev = hi
    return tuple.__new__(Subset, subset)


def _logged_subsets(
    n: int, log: list[tuple[Runs, int]]
) -> tuple[tuple[Subset, int], ...]:
    # Each logged query of n coins as (Subset, outcome).  The last run must
    # end in (1, n + 1] before the memo is asked, so a run past n never
    # slices a short _POSITIONS into a cached entry.
    global _POSITIONS
    if len(_POSITIONS) <= n:
        _POSITIONS = tuple(range(n + 1))
    subsets = []
    for runs, outcome in log:
        if not runs or not 1 < runs[-1][1] <= n + 1:
            raise InternalContractError(f"runs {runs!r} are empty or pass coin {n}")
        subsets.append((_subset(runs), outcome))
    return tuple(subsets)


def validate_subset(subset: tuple[int, ...], n: int) -> None:
    """Check that ``subset`` is a strictly increasing tuple inside 1..n.

    Any other sequence is checked index by index, in O(len), and anything
    that is not a sequence, or is bytes-like, is rejected.  A ``Subset`` (of
    that exact type) was checked when it was made, so only its last index is
    compared with n, which must be an ``int``.
    """
    if type(n) is not int:
        raise InvalidSizeError(f"coin count must be an int, got {n!r}")
    if type(subset) is not Subset:
        if not isinstance(subset, Sequence) or isinstance(subset, _BYTES_LIKE):
            raise InvalidSubsetError(
                f"weighing subset must be a sequence and not bytes: {subset!r}"
            )
        _check_increasing(subset)
    if subset[-1] > n:
        raise InvalidSubsetError(f"index {subset[-1]} out of range for n={n}")


def weigh(config: Configuration, subset: tuple[int, ...]) -> int:
    """Spring-scale oracle: the exact total weight of ``subset``.

    The subset must be a strictly increasing tuple of 1-based positions.
    Once ``validate_subset`` has checked that (in O(1) for a ``Subset``),
    p and q of the support are each found by binary search in the sorted
    subset and count 1 each, so a coin of weight 2 (p == q) counts twice,
    as in ``weigh_runs``, which this dense route is kept independent of.
    """
    if not isinstance(config, Configuration):
        raise InvalidConfigurationError(f"not a Configuration: {config!r}")
    validate_subset(subset, config.n)
    total = 0
    for pos in config.positions:
        k = bisect_left(subset, pos)
        if k < len(subset) and subset[k] == pos:
            total += 1
    return total


def weigh_runs(p: int, q: int, runs: Runs) -> int:
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


def oracle(p: int, q: int) -> tuple[Scale, list[tuple[Runs, int]]]:
    """The spring scale hiding the support (p, q), and the log it keeps.

    Returns ``(ask, log)``.  ``ask(runs)`` weighs the runs with
    ``weigh_runs``, appends ``(runs, outcome)`` to ``log`` and returns the
    outcome.  A strategy core is handed ``ask`` alone, so it sees only the
    scale's readings, never p or q, and ``log`` holds every weighing it made
    with the scale's own answer, in the order asked.
    """
    log: list[tuple[Runs, int]] = []
    record = log.append

    def ask(runs: Runs) -> int:
        outcome = weigh_runs(p, q, runs)
        record((runs, outcome))
        return outcome

    return ask, log


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
