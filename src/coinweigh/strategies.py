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

In both strategies every region is one run of consecutive coins and every
query is the union of at most two runs.  So each strategy has a private core
that works on half-open runs ``(lo, hi)`` and the support ``(p, q)`` alone,
weighs with ``model.weigh_runs``, and returns the queries as (runs, outcome)
pairs with runs ascending, plus the recovered support.  The exhaustive
verifier calls the cores directly; ``run_proposed`` and ``run_nested`` turn
their result into a ``Transcript`` of subset tuples and a dense estimate.
Each subset is a slice of one shared tuple of positions (two slices joined
for a query of two runs), so building a transcript copies pointers and
allocates no int objects.

``check_nested`` decides whether a finished transcript obeys the nested
discipline (each query refines a single currently-open region).  The proposed
strategy violates it as soon as a Π1 round weighs across two regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Configuration,
    InternalContractError,
    ProblemSize,
    require_coin_count,
    weigh_runs,
)

__all__ = ["Transcript", "run_proposed", "run_nested", "check_nested"]

Runs = tuple[tuple[int, int], ...]


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


def _union(alo: int, ahi: int, blo: int, bhi: int) -> Runs:
    # Two runs from disjoint regions, ordered by their first coin.
    if alo < blo:
        return ((alo, ahi), (blo, bhi))
    return ((blo, bhi), (alo, ahi))


def _proposed_core(
    n: int, p: int, q: int, debug: bool = False
) -> tuple[list[tuple[Runs, int]], tuple[int, int]]:
    """Π0/Π1/Π2 on coins 1..n (a power of two) for the support (p, q).

    Returns the (runs, outcome) pairs in the order asked and the recovered
    support.  A region is the run [lo, hi) and is split at its midpoint.
    Resolved coins go into ``found`` once per unit of weight, so a coin of
    weight 2 fills both ends of the support.
    """
    queries: list[tuple[Runs, int]] = []
    found: list[int] = []

    def ask(runs: Runs) -> int:
        outcome = weigh_runs(p, q, runs)
        queries.append((runs, outcome))
        return outcome

    def pi0(lo: int, hi: int, w: int) -> None:
        # Known: w([lo, hi)) = w, either 1 or 2.
        if hi - lo == 1:
            found.extend((lo,) * w)
            return
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            pi0(mid, hi, w)
        elif o == w:
            pi0(lo, mid, w)
        elif w == 2:
            # Weight split 1 / 1 across the halves.
            pi1(lo, mid, mid, hi)
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")

    def pi1(alo: int, ahi: int, blo: int, bhi: int) -> None:
        # Known: w(a) = w(b) = 1 for a = [alo, ahi) and b = [blo, bhi).
        if debug and (
            weigh_runs(p, q, ((alo, ahi),)),
            weigh_runs(p, q, ((blo, bhi),)),
        ) != (1, 1):
            raise InternalContractError(
                f"joint round on [{alo}, {ahi}), [{blo}, {bhi}): not 1 each"
            )
        if ahi - alo == 1 or bhi - blo == 1:
            # A singleton is resolved without a weighing; bisect the other.
            pi0(alo, ahi, 1)
            pi0(blo, bhi, 1)
            return
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        o = ask(_union(alo, amid, blo, bmid))
        if o == 0:
            pi1(amid, ahi, bmid, bhi)
        elif o == 2:
            pi1(alo, amid, blo, bmid)
        else:
            pi2(alo, ahi, blo, bhi)

    def pi2(alo: int, ahi: int, blo: int, bhi: int) -> None:
        # Known: w(a) = w(b) = 1 and the joined lower halves weigh 1, so one
        # coin sits in a lower half and the other in an upper half.
        if debug and weigh_runs(
            p, q, _union(alo, (alo + ahi) // 2, blo, (blo + bhi) // 2)
        ) != 1:
            raise InternalContractError(
                f"tie-break on [{alo}, {ahi}), [{blo}, {bhi}): lower not 1"
            )
        if ahi - alo == 2 and bhi - blo == 2:
            # One weighing settles all four coins.
            o = ask(((alo, alo + 1),))
            if o not in (0, 1):
                raise InternalContractError(f"singleton weighed {o} in a joint round")
            found.extend((alo, bhi - 1) if o else (alo + 1, blo))
            return
        if bhi - blo < ahi - alo:
            alo, ahi, blo, bhi = blo, bhi, alo, ahi
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        bqtr = (bmid + bhi) // 2
        o = ask(_union(alo, amid, bmid, bqtr))
        if o == 0:
            pi1(amid, ahi, blo, bmid)
        elif o == 1:
            # a's lower half holds its coin (else outcome 0 or 2), so b's
            # coin is in the top quarter of b.
            pi1(alo, amid, bqtr, bhi)
        else:
            pi1(alo, amid, bmid, bqtr)

    pi0(1, n + 1, 2)
    lo_coin, hi_coin = sorted(found)
    return queries, (lo_coin, hi_coin)


def _nested_core(
    n: int, p: int, q: int
) -> tuple[list[tuple[Runs, int]], tuple[int, int]]:
    """Nested bisection on coins 1..n for the support (p, q).

    Returns the (runs, outcome) pairs in the order asked and the recovered
    support.  Every query is the lower half of the region it refines.
    """
    queries: list[tuple[Runs, int]] = []
    found: list[int] = []

    def solve(lo: int, hi: int, w: int) -> None:
        # Known: w([lo, hi)) = w >= 1.
        if hi - lo == 1:
            found.extend((lo,) * w)
            return
        mid = (lo + hi) // 2
        runs = ((lo, mid),)
        o = weigh_runs(p, q, runs)
        queries.append((runs, o))
        if o == 0:
            solve(mid, hi, w)
        elif o == w:
            solve(lo, mid, w)
        elif w == 2 and o == 1:
            solve(lo, mid, 1)
            solve(mid, hi, 1)
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")

    solve(1, n + 1, 2)
    lo_coin, hi_coin = sorted(found)
    return queries, (lo_coin, hi_coin)


# _POSITIONS[k] == k for k = 0..n, for the largest n seen so far.  A larger n
# replaces it with a longer tuple of the same form, so callers holding
# different versions slice the same values.
_POSITIONS: tuple[int, ...] = ()


def _transcript(
    n: int, queries: list[tuple[Runs, int]], support: tuple[int, int]
) -> Transcript:
    # The public form: each query's runs as one ascending subset tuple, and
    # the dense estimate (a coin of weight 2 is both ends of its support).
    global _POSITIONS
    positions = _POSITIONS
    if len(positions) <= n:
        positions = _POSITIONS = tuple(range(n + 1))
    subsets = []
    for runs, outcome in queries:
        subset: tuple[int, ...] = ()
        for lo, hi in runs:
            subset += positions[lo:hi]
        subsets.append((subset, outcome))
    est = [0] * n
    est[support[0] - 1] += 1
    est[support[1] - 1] += 1
    return Transcript(tuple(subsets), tuple(est))


def run_proposed(config: Configuration, *, debug: bool = False) -> Transcript:
    """Execute the halving scheme on ``config`` (n must be a power of two).

    With ``debug`` set, every entry into a joint round re-checks its
    precondition (both regions hold weight exactly 1, and for Π2 the lower
    halves hold 1 together) against the oracle without recording a query,
    and raises ``InternalContractError`` if it fails.
    """
    n = ProblemSize.from_coin_count(config.n).n
    queries, support = _proposed_core(n, *config.positions, debug)
    return _transcript(n, queries, support)


def run_nested(config: Configuration) -> Transcript:
    """Execute nested bisection on ``config`` (any n >= 2)."""
    require_coin_count(config.n)
    queries, support = _nested_core(config.n, *config.positions)
    return _transcript(config.n, queries, support)


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
