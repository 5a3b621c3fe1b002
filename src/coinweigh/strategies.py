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

Both cores are built on one Π0 loop, ``_bisect``: Π0 on weight 2, then,
for the halving scheme only, the joint rounds, then Π0 on weight 1 on each
region.  Each hand-off is the last step of the procedure that makes it, so
each core is a sequence of flat loops, not a set of recursive procedures.
In ``_proposed_core`` a Π1 or Π2 hand-off replaces the two regions in
place.

In both strategies every region is one run of consecutive coins and every
query is the union of at most two runs.  So each strategy has a private core
that works on half-open runs ``(lo, hi)``.  A core is given n and the scale
``ask`` of ``model.oracle``, weighs each query (runs ascending) only
through it, and returns the recovered support.  It never sees the hidden
support and never records a query: ``ask`` logs each (runs, outcome) pair
as the scale answers it.  The exhaustive verifier calls the cores directly;
``run_proposed`` and ``run_nested`` share one run body, which turns the log
and the support into a ``Transcript`` of ``model.Subset`` queries and a
dense estimate, both built by ``model`` (see its docstring).

``check_nested`` decides whether a finished transcript obeys the nested
discipline (each query refines a single currently-open region).  The proposed
strategy violates it as soon as a Π1 round weighs across two regions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .model import (
    Configuration,
    InternalContractError,
    InvalidConfigurationError,
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


def _bisect(ask: Scale, lo: int, hi: int, w: int) -> tuple[int, int, int]:
    """Π0 on the run [lo, hi) of weight w: ``(c, c + 1, c + 1)`` once coin c
    holds all of w, or for w = 2 ``(lo, mid, hi)`` once a weighing of the
    lower half [lo, mid) splits w 1 / 1.  Other readings raise
    ``InternalContractError``.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        o = ask(((lo, mid),))
        if o == 0:
            lo = mid
        elif o == w:
            hi = mid
        elif w == 2 and o == 1:
            return lo, mid, hi
        else:
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")
    return lo, hi, hi


def _proposed_core(
    n: int, ask: Scale, probe: Scale | None = None
) -> tuple[int, int]:
    """Π0/Π1/Π2 on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  A region is the run [lo, hi) and is
    split at its midpoint.  Given ``probe``, a scale that weighs without
    logging, each entry into a joint round first checks its precondition
    with it and raises ``InternalContractError`` if that fails.

    The procedures run as phases, and each hand-off replaces the regions in
    place:

    * ``_bisect`` does Π0 on [1, n + 1), of weight 2, until a single coin
      holds both units (returned at once) or a weighing splits the weight
      1 / 1, which hands the two halves a and b to the joint rounds.
    * Each pass of the joint-round loop is one Π1 round on a and b, each of
      weight 1.  Outcome 0 or 2 keeps both upper or both lower halves.
      Outcome 1 is Π2's tie-break, which asks one more weighing and hands
      new regions back to Π1; when a and b both have two coins that
      weighing settles all four, and the support is returned.
    * Once a or b is a single coin the loop ends, and ``_bisect`` does Π0
      on weight 1 on a, then on b; the single coin costs no weighing.
    """
    alo, blo, bhi = _bisect(ask, 1, n + 1, 2)
    if blo == bhi:
        return alo, alo

    # Joint rounds.  Known on entry to each pass: w(a) = w(b) = 1 for
    # a = [alo, ahi) and b = [blo, bhi).
    ahi = blo
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

    c = _bisect(ask, alo, ahi, 1)[0]
    d = _bisect(ask, blo, bhi, 1)[0]
    return (c, d) if c < d else (d, c)


def _nested_core(n: int, ask: Scale) -> tuple[int, int]:
    """Nested bisection on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  Every query is the lower half of the
    region it refines: ``_bisect`` does Π0 on [1, n + 1), of weight 2, until
    a single coin holds both units or a weighing splits the weight 1 / 1,
    and then on each half with weight 1, the lower one first.
    """
    lo, mid, hi = _bisect(ask, 1, n + 1, 2)
    if mid == hi:
        return lo, lo
    return _bisect(ask, lo, mid, 1)[0], _bisect(ask, mid, hi, 1)[0]


def _run(
    config: Configuration, core: Callable[..., tuple[int, int]], debug: bool = False
) -> Transcript:
    # Both runners' body; with ``debug`` the core also gets a scale that
    # does not log.
    if not isinstance(config, Configuration):
        raise InvalidConfigurationError(f"not a Configuration: {config!r}")
    n = config.n
    ask, log = oracle(*config.positions)
    probe = (partial(weigh_runs, *config.positions),) if debug else ()
    support = core(n, ask, *probe)
    return Transcript(_logged_subsets(n, log), _dense(n, *support))


def run_proposed(config: Configuration, *, debug: bool = False) -> Transcript:
    """Execute the halving scheme on ``config`` (any n >= 2).

    With ``debug`` set, every entry into a joint round re-checks its
    precondition (both regions hold weight exactly 1, and for Π2 the lower
    halves hold 1 together) on a second scale that does not log, so the
    transcript is the same, and raises ``InternalContractError`` if it
    fails.
    """
    return _run(config, _proposed_core, debug)


def run_nested(config: Configuration) -> Transcript:
    """Execute nested bisection on ``config`` (any n >= 2)."""
    return _run(config, _nested_core)


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
    if not isinstance(transcript, Transcript):
        raise InvalidConfigurationError(f"not a Transcript: {transcript!r}")
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
