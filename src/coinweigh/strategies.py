"""Adaptive weighing strategies: the halving scheme and plain nested search.

Both strategies identify an unknown total-weight-2 configuration of any
n >= 2 coins by adaptive weighings, and both finish within 2l - 1 weighings
for n = 2**l coins.  They differ in how they spend the average case:

* ``run_proposed`` is the three-procedure halving scheme.  Π0 bisects a set
  of known total weight; when a weighing splits weight 1 / 1 across two
  halves it hands off to Π1, which shrinks the two weight-1 regions in
  lockstep with a single weighing per round; Π2 resolves the ambiguous
  outcome of Π1 with one more weighing that is shared between the regions,
  and hands the narrowed regions back to Π1.  Once one region is a single
  coin, Π0 bisects the other with weight 1.  The joint rounds are what push
  the average below 1.5 log2(n).

* ``run_nested`` is classic nested bisection: every weighing is a subset of
  the region the previous weighing pinned down, so type-II configurations
  are resolved one coin at a time.

Both cores run the same phases: Π0 on weight 2, then, for the halving
scheme only, the joint rounds, then Π0 on weight 1 (``_bisect1``).  Each
hand-off is the last step of the procedure that makes it, so each core is
a flat loop, not a set of recursive procedures.  In ``_proposed_core`` a
Π1 or Π2 hand-off replaces the two regions in place, and once a region is
a single coin only the other one is bisected.  ``_nested_core`` bisects
both halves of a 1 / 1 split, the lower one first.

In both strategies every region is one run of consecutive coins and every
query is the union of at most two runs.  So each strategy has a private core
that works on half-open runs ``(lo, hi)``.  A core is given n and the scale
``ask`` of ``model.oracle``, weighs each query (runs ascending) only
through it, and returns the recovered support.  It never sees the hidden
support and never records a query: ``ask`` logs each (runs, outcome) pair
as the scale answers it.  The exhaustive verifier calls the cores directly;
``run_proposed`` and ``run_nested`` turn the log and the support into a
``Transcript`` of ``model.Subset`` queries and a dense estimate, both built
by ``model`` (see its docstring).

``check_nested`` decides whether a finished transcript obeys the nested
discipline (each query refines a single currently-open region).  The proposed
strategy violates it as soon as a Π1 round weighs across two regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .model import (
    Configuration,
    InternalContractError,
    Runs,
    Scale,
    Subset,
    _dense,
    _logged_subsets,
    oracle,
    weigh_runs,
)

__all__ = ["Transcript", "run_proposed", "run_nested", "check_nested"]


@dataclass(frozen=True)
class Transcript:
    """One strategy execution: the queries asked and the recovered weights.

    ``queries`` holds (subset, outcome) pairs in the order asked, subsets as
    ``model.Subset`` tuples.  Each outcome is the oracle's own reading,
    logged by the oracle as it answered.  ``estimate`` is the full
    recovered weight vector; for a correct executor it equals the true
    configuration and sums to 2.
    """

    queries: tuple[tuple[Subset, int], ...]
    estimate: tuple[int, ...]

    @property
    def weighings(self) -> int:
        return len(self.queries)


def _union(alo: int, ahi: int, blo: int, bhi: int) -> Runs:
    # Two runs from disjoint regions, ordered by their first coin.
    if alo < blo:
        return ((alo, ahi), (blo, bhi))
    return ((blo, bhi), (alo, ahi))


def _bisect1(ask: Scale, lo: int, hi: int) -> int:
    """Π0 on weight 1: the one coin of the run [lo, hi), found by bisection."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            lo = mid
        elif o == 1:
            hi = mid
        else:
            raise InternalContractError(f"w(s)=1 but weighed {o} on a half")
    return lo


def _proposed_core(
    n: int, ask: Scale, probe: Scale | None = None
) -> tuple[int, int]:
    """Π0/Π1/Π2 on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  A region is the run [lo, hi) and is
    split at its midpoint.  Given ``probe``, a scale that weighs without
    logging, each entry into a joint round first checks its precondition
    with it and raises ``InternalContractError`` if that fails.

    The procedures run as loop phases, and each hand-off replaces the
    regions in place:

    * Π0 bisects [1, n + 1), of weight 2, until a single coin holds both
      units (returned at once) or a weighing splits the weight 1 / 1, which
      hands the two halves a and b to the joint rounds.
    * Each pass of the joint-round loop is one Π1 round on a and b, each of
      weight 1.  Outcome 0 or 2 keeps both upper or both lower halves.
      Outcome 1 is Π2's tie-break, which asks one more weighing and hands
      new regions back to Π1; when a and b both have two coins that
      weighing settles all four, and the support is returned.
    * Once a or b is a single coin, that coin is known and the loop ends;
      ``_bisect1`` finds the coin of the other region.
    """
    # Π0 on weight 2.
    lo, hi = 1, n + 1
    while True:
        if hi - lo == 1:
            return lo, lo
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            lo = mid
        elif o == 2:
            hi = mid
        else:
            # Weight split 1 / 1 across the halves.
            break

    # Joint rounds.  Known on entry to each pass: w(a) = w(b) = 1 for
    # a = [alo, ahi) and b = [blo, bhi).
    alo, ahi, blo, bhi = lo, mid, mid, hi
    while True:
        if probe is not None and (
            probe(((alo, ahi),)),
            probe(((blo, bhi),)),
        ) != (1, 1):
            raise InternalContractError(
                f"joint round on [{alo}, {ahi}), [{blo}, {bhi}): not 1 each"
            )
        if ahi - alo == 1 or bhi - blo == 1:
            break
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        runs = _union(alo, amid, blo, bmid)
        o = ask(runs)
        if o == 0:
            alo, blo = amid, bmid
            continue
        if o == 2:
            ahi, bhi = amid, bmid
            continue

        # Π2.  Known: the joined lower halves weigh 1, so one coin sits in a
        # lower half and the other in an upper half.
        if probe is not None and probe(runs) != 1:
            raise InternalContractError(
                f"tie-break on [{alo}, {ahi}), [{blo}, {bhi}): lower not 1"
            )
        if ahi - alo == 2 and bhi - blo == 2:
            # One weighing settles all four coins.
            o = ask(((alo, alo + 1),))
            if o not in (0, 1):
                raise InternalContractError(
                    f"singleton weighed {o} in a joint round"
                )
            c, d = (alo, bhi - 1) if o else (alo + 1, blo)
            return (c, d) if c < d else (d, c)
        if bhi - blo < ahi - alo:
            alo, ahi, amid, blo, bhi, bmid = blo, bhi, bmid, alo, ahi, amid
        bqtr = (bmid + bhi) // 2
        o = ask(_union(alo, amid, bmid, bqtr))
        if o == 0:
            alo, bhi = amid, bmid
        elif o == 1:
            # a's lower half holds its coin (else outcome 0 or 2), so b's
            # coin is in the top quarter of b.
            ahi, blo = amid, bqtr
        else:
            ahi, blo, bhi = amid, bmid, bqtr

    # Π0 on weight 1 on the region that is not yet a single coin.
    if ahi - alo == 1:
        coin, other = alo, _bisect1(ask, blo, bhi)
    else:
        coin, other = blo, _bisect1(ask, alo, ahi)
    return (coin, other) if coin < other else (other, coin)


def _nested_core(n: int, ask: Scale) -> tuple[int, int]:
    """Nested bisection on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  Every query is the lower half of the
    region it refines.  Π0 bisects [1, n + 1), of weight 2, until a single
    coin holds both units or a weighing splits the weight 1 / 1; then each
    half is bisected with weight 1, the lower one first.  A reading other
    than 0, 1 or 2 raises ``InternalContractError``, where the weight-2 loop
    of ``_proposed_core`` hands it to the joint rounds; so the two loops
    stay separate.
    """
    lo, hi = 1, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            lo = mid
        elif o == 2:
            hi = mid
        elif o == 1:
            return _bisect1(ask, lo, mid), _bisect1(ask, mid, hi)
        else:
            raise InternalContractError(f"w(s)=2 but weighed {o} on a half")
    return lo, lo


def run_proposed(config: Configuration, *, debug: bool = False) -> Transcript:
    """Execute the halving scheme on ``config`` (any n >= 2).

    With ``debug`` set, every entry into a joint round re-checks its
    precondition (both regions hold weight exactly 1, and for Π2 the lower
    halves hold 1 together) on a second scale that does not log, so the
    transcript is the same, and raises ``InternalContractError`` if it
    fails.
    """
    n = config.n
    p, q = config.positions
    ask, log = oracle(p, q)
    probe = partial(weigh_runs, p, q) if debug else None
    support = _proposed_core(n, ask, probe)
    return Transcript(_logged_subsets(n, log), _dense(n, *support))


def run_nested(config: Configuration) -> Transcript:
    """Execute nested bisection on ``config`` (any n >= 2)."""
    n = config.n
    ask, log = oracle(*config.positions)
    support = _nested_core(n, ask)
    return Transcript(_logged_subsets(n, log), _dense(n, *support))


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
