"""Adaptive weighing strategies: the halving scheme and plain nested search.

Both strategies identify an unknown total-weight-2 configuration by adaptive
weighings and both finish within 2l - 1 weighings for n = 2**l coins.  They
differ in how they spend the average case:

* ``run_proposed`` is the three-procedure halving scheme.  Π0 bisects a set
  of known total weight; when a weighing splits weight 1 / 1 across two
  halves it hands off to Π1, which shrinks the two weight-1 regions in
  lockstep with a single weighing per round; Π2 resolves the ambiguous
  outcome of Π1 with one more weighing that is shared between the regions.
  The joint rounds are what push the average below 1.5 log2(n).

* ``run_nested`` is classic nested bisection: every weighing is a subset of
  the region the previous weighing pinned down, so type-II configurations
  are resolved one coin at a time.  It works for every n >= 2, powers of two
  or not.

``check_nested`` decides whether a finished transcript obeys the nested
discipline (each query refines a single currently-open region).  The proposed
strategy violates it as soon as a Π1 round weighs across two regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Configuration,
    InternalContractError,
    InvalidSizeError,
    ProblemSize,
    _subset_weight,
    require_coin_count,
)

__all__ = ["Transcript", "run_proposed", "run_nested", "check_nested"]


@dataclass(frozen=True)
class Transcript:
    """One strategy execution: the queries asked and the recovered weights.

    ``queries`` holds (subset, outcome) pairs in the order asked, subsets as
    strictly increasing 1-based tuples.  ``estimate`` is the full recovered
    weight vector; for a correct executor it equals the true configuration
    and sums to 2, and every recorded outcome re-verifies against the oracle.
    """

    queries: tuple[tuple[tuple[int, ...], int], ...]
    estimate: tuple[int, ...]

    @property
    def weighings(self) -> int:
        return len(self.queries)


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # Union of two disjoint ascending runs, kept ascending.  The executors
    # only ever join runs that do not interleave, so concatenation suffices.
    if not a:
        return b
    if not b:
        return a
    if a[-1] < b[0]:
        return a + b
    if b[-1] < a[0]:
        return b + a
    raise InternalContractError(f"interleaved runs {a!r} and {b!r}")


def run_proposed(config: Configuration, *, debug: bool = False) -> Transcript:
    """Execute the halving scheme on ``config`` (n must be a power of two).

    With ``debug`` set, every entry into a joint round re-checks its
    precondition (both regions hold weight exactly 1, and for Π2 the lower
    halves hold 1 together) against the oracle without recording a query,
    and raises ``InternalContractError`` if it fails.
    """
    ProblemSize.from_coin_count(config.n)
    est = [0] * config.n
    queries: list[tuple[tuple[int, ...], int]] = []

    def ask(subset: tuple[int, ...]) -> int:
        outcome = _subset_weight(config, subset)
        queries.append((subset, outcome))
        return outcome

    def pi0(s: tuple[int, ...], w: int) -> None:
        # Known: w(s) = w, either 1 or 2.
        if len(s) == 1:
            est[s[0] - 1] = w
            return
        half = len(s) // 2
        s1, s2 = s[:half], s[half:]
        o = ask(s1)
        if o == 0:
            pi0(s2, w)
        elif o == w:
            pi0(s1, w)
        elif w == 2:
            # Weight split 1 / 1 across the halves.
            pi1(s1, s2)
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")

    def pi1(a: tuple[int, ...], b: tuple[int, ...]) -> None:
        # Known: w(a) = w(b) = 1.
        if debug and (_subset_weight(config, a), _subset_weight(config, b)) != (1, 1):
            raise InternalContractError(f"joint round on {a!r}, {b!r}: not 1 each")
        if len(a) == 1 and len(b) == 1:
            est[a[0] - 1] = 1
            est[b[0] - 1] = 1
            return
        if len(a) == 1:
            pi0(a, 1)
            pi0(b, 1)
            return
        if len(b) == 1:
            pi0(b, 1)
            pi0(a, 1)
            return
        a1, a2 = a[: len(a) // 2], a[len(a) // 2 :]
        b1, b2 = b[: len(b) // 2], b[len(b) // 2 :]
        o = ask(_merge(a1, b1))
        if o == 0:
            pi1(a2, b2)
        elif o == 2:
            pi1(a1, b1)
        else:
            pi2(a, b)

    def pi2(a: tuple[int, ...], b: tuple[int, ...]) -> None:
        # Known: w(a) = w(b) = 1 and the joined lower halves weigh 1, so one
        # coin sits in a lower half and the other in an upper half.
        if debug:
            lower = _merge(a[: len(a) // 2], b[: len(b) // 2])
            if _subset_weight(config, lower) != 1:
                raise InternalContractError(f"tie-break on {a!r}, {b!r}: lower not 1")
        if len(a) == 2 and len(b) == 2:
            # One weighing settles all four coins.
            o = ask(a[:1])
            if o not in (0, 1):
                raise InternalContractError(f"singleton weighed {o} in a joint round")
            est[a[0] - 1] = o
            est[a[1] - 1] = 1 - o
            est[b[0] - 1] = 1 - o
            est[b[1] - 1] = o
            return
        if len(b) < len(a):
            a, b = b, a
        a1, a2 = a[: len(a) // 2], a[len(a) // 2 :]
        b1, b2 = b[: len(b) // 2], b[len(b) // 2 :]
        b21, b22 = b2[: len(b2) // 2], b2[len(b2) // 2 :]
        o = ask(_merge(a1, b21))
        if o == 0:
            pi1(a2, b1)
        elif o == 1:
            # a1 holds its coin (else outcome 0 or 2), so b's coin is in b22.
            pi1(a1, b22)
        else:
            pi1(a1, b21)

    pi0(tuple(range(1, config.n + 1)), 2)
    return Transcript(tuple(queries), tuple(est))


def run_nested(config: Configuration) -> Transcript:
    """Execute nested bisection on ``config`` (any n >= 2)."""
    require_coin_count(config.n)
    est = [0] * config.n
    queries: list[tuple[tuple[int, ...], int]] = []

    def ask(subset: tuple[int, ...]) -> int:
        outcome = _subset_weight(config, subset)
        queries.append((subset, outcome))
        return outcome

    def solve(s: tuple[int, ...], w: int) -> None:
        # Known: w(s) = w >= 1.
        if len(s) == 1:
            est[s[0] - 1] = w
            return
        r = s[: len(s) // 2]
        o = ask(r)
        if o == 0:
            solve(s[len(r) :], w)
        elif o == w:
            solve(r, w)
        elif w == 2 and o == 1:
            solve(r, 1)
            solve(s[len(r) :], 1)
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")

    solve(tuple(range(1, config.n + 1)), 2)
    return Transcript(tuple(queries), tuple(est))


def check_nested(transcript: Transcript) -> bool:
    """True iff the transcript obeys the nested discipline.

    The check simulates the open regions a nested strategy would hold: at the
    start the whole coin set is open with weight 2.  Each query must be a
    proper nonempty subset of exactly one open region; its outcome closes or
    splits that region (outcome 0 keeps the complement, a full-weight outcome
    keeps the query, anything in between splits the weight across both
    parts).  Regions narrowed to a single coin are resolved and drop out.
    Any query that straddles regions, repeats resolved coins, or reports an
    outcome impossible for its region makes the transcript non-nested.
    """
    n = len(transcript.estimate)
    regions: list[tuple[set[int], int]] = [(set(range(1, n + 1)), 2)]

    for subset, outcome in transcript.queries:
        if not subset:
            return False
        asked = set(subset)
        home = None
        for idx, (coins, weight) in enumerate(regions):
            if subset[0] in coins:
                home = idx
                break
        if home is None:
            return False
        coins, weight = regions[home]
        if not asked < coins:
            return False
        if not 0 <= outcome <= weight:
            return False
        rest = coins - asked
        new: list[tuple[set[int], int]] = []
        if outcome == 0:
            new.append((rest, weight))
        elif outcome == weight:
            new.append((asked, weight))
        else:
            new.append((asked, outcome))
            new.append((rest, weight - outcome))
        regions[home : home + 1] = [
            (part, w) for part, w in new if len(part) > 1
        ]
    return True
