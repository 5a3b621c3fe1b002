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

In both strategies every region is one run of consecutive coins and every
query is the union of at most two runs.  Both are one step function over
explicit states.  A state holds its regions, as half-open runs
``(lo, hi)``, and its procedure: Π0 on weight 2 (one kind per strategy,
since a 1 / 1 split enters Π1 in the halving scheme and Π0 on weight 1 in
nested search), Π1, Π2, or Π0 on weight 1 on region a and then on b.
``_query(state)`` gives the runs the state weighs, and
``_advance(state, reading)`` gives the next state, a leaf that holds the
support, or None for a reading the state rejects.  A hand-off that needs
no weighing (a region of one coin) is taken inside ``_advance``, so every
state but a leaf asks one weighing.

Each strategy has a private core, a loop that follows the step function
from its root state.  A core is given n and the scale ``ask`` of
``model.oracle``, weighs each query (runs ascending) only through it, and
returns the recovered support, or raises ``InternalContractError`` on a
rejected reading.  It never sees the hidden support and never records a
query: ``ask`` logs each (runs, outcome) pair as the scale answers it.
The exhaustive verifier follows it another way: it walks the decision
tree of the same step function, branching on every reading 0, 1 or 2 that
a state accepts (see ``verify``).  ``run_proposed`` and ``run_nested``
share one run body, which turns the log and the support into a
``Transcript`` of ``model.Subset`` queries and a dense estimate, both
built by ``model`` (see its docstring).

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


# A state of either strategy is a tuple: its kind, which names the procedure
# it runs, then its regions, each a run [lo, hi), or its support:
#   _PROPOSED, _NESTED  lo, hi              Π0 on weight 2 on [lo, hi); a
#                                           1 / 1 split enters Π1 for the
#                                           halving scheme, Π0 on weight 1
#                                           on a and b for nested search
#   _PI1                alo, ahi, blo, bhi  a joint round on a and b
#   _PI2                alo, ahi, blo, bhi  its tie-break; b is no smaller
#   _ONE_A              alo, ahi, blo, bhi  Π0 on weight 1 on a, then on b
#   _ONE_B              blo, bhi, c         Π0 on weight 1 on b; a's coin is c
#   _FOUND              p, q                a leaf: the recovered support
# Every state but a leaf asks one weighing; each Π0 state bisects the run in
# its first two fields.
_State = tuple[int, ...]

_PROPOSED, _NESTED, _PI1, _PI2, _ONE_A, _ONE_B, _FOUND = range(7)


def _union(alo: int, ahi: int, blo: int, bhi: int) -> Runs:
    # Two runs from disjoint regions, ordered by their first coin.
    if alo < blo:
        return ((alo, ahi), (blo, bhi))
    return ((blo, bhi), (alo, ahi))


def _root(kind: int, n: int) -> _State:
    """The first state on coins 1..n: Π0 on weight 2 for the halving
    scheme (``_PROPOSED``) or for nested search (``_NESTED``)."""
    return (kind, 1, n + 1)


def _query(state: _State) -> Runs:
    """The runs that ``state`` weighs (ascending)."""
    kind = state[0]
    if kind == _PI1:
        _, alo, ahi, blo, bhi = state
        return _union(alo, (alo + ahi) // 2, blo, (blo + bhi) // 2)
    if kind == _PI2:
        _, alo, ahi, blo, bhi = state
        if bhi - blo == 2:
            return ((alo, alo + 1),)
        bmid = (blo + bhi) // 2
        return _union(alo, (alo + ahi) // 2, bmid, (bmid + bhi) // 2)
    lo = state[1]
    return ((lo, (lo + state[2]) // 2),)


def _found(c: int, d: int) -> _State:
    return (_FOUND, c, d) if c < d else (_FOUND, d, c)


def _one_b(blo: int, bhi: int, c: int) -> _State:
    # Π0 on weight 1 on b = [blo, bhi), a's coin c known.
    if bhi - blo > 1:
        return (_ONE_B, blo, bhi, c)
    return _found(c, blo)


def _one_a(alo: int, ahi: int, blo: int, bhi: int) -> _State:
    # Π0 on weight 1 on a = [alo, ahi), then on b; a single coin costs
    # no weighing.
    if ahi - alo > 1:
        return (_ONE_A, alo, ahi, blo, bhi)
    return _one_b(blo, bhi, alo)


def _joint(alo: int, ahi: int, blo: int, bhi: int, probe: Scale | None) -> _State:
    # Entry into Π1 on a = [alo, ahi) and b = [blo, bhi), each of weight 1;
    # once either is a single coin, Π0 on weight 1 takes over.
    if probe is not None and (
        probe(((alo, ahi),)),
        probe(((blo, bhi),)),
    ) != (1, 1):
        raise InternalContractError(
            f"joint round on [{alo}, {ahi}), [{blo}, {bhi}): not 1 each"
        )
    if ahi - alo > 1 and bhi - blo > 1:
        return (_PI1, alo, ahi, blo, bhi)
    return _one_a(alo, ahi, blo, bhi)


def _advance(state: _State, o: int, probe: Scale | None = None) -> _State | None:
    """The state after ``state`` reads ``o``, or None for a reading that
    the state rejects.

    Given ``probe``, a scale that weighs without logging, each entry into a
    joint round or a tie-break first checks its precondition with it and
    raises ``InternalContractError`` if that fails.
    """
    kind = state[0]
    if kind == _PI1:
        _, alo, ahi, blo, bhi = state
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        if o == 0:
            return _joint(amid, ahi, bmid, bhi, probe)
        if o == 2:
            return _joint(alo, amid, blo, bmid, probe)
        # Π2.  Known: the joined lower halves weigh 1, so one coin sits in a
        # lower half and the other in an upper half.  b is made the larger
        # region, and keeps that name in the joint rounds that follow.
        if probe is not None and probe(_union(alo, amid, blo, bmid)) != 1:
            raise InternalContractError(
                f"tie-break on [{alo}, {ahi}), [{blo}, {bhi}): lower not 1"
            )
        if bhi - blo < ahi - alo:
            return (_PI2, blo, bhi, alo, ahi)
        return (_PI2, alo, ahi, blo, bhi)
    if kind == _PI2:
        _, alo, ahi, blo, bhi = state
        if bhi - blo == 2:
            # a and b both have two coins: one weighing of a's lower coin
            # settles all four.
            if o == 0:
                return _found(alo + 1, blo)
            if o == 1:
                return _found(alo, bhi - 1)
            return None
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        bqtr = (bmid + bhi) // 2
        if o == 0:
            return _joint(amid, ahi, blo, bmid, probe)
        if o == 1:
            # a's lower half holds its coin (else outcome 0 or 2), so b's
            # coin is in the top quarter of b.
            return _joint(alo, amid, bqtr, bhi, probe)
        return _joint(alo, amid, bmid, bqtr, probe)

    # Π0: bisect [lo, hi), of weight w, at its midpoint.
    lo, hi = state[1], state[2]
    mid = (lo + hi) // 2
    w = 2 if kind <= _NESTED else 1
    if o == 0:
        lo = mid
    elif o == w:
        hi = mid
    elif kind == _PROPOSED and o == 1:
        return _joint(lo, mid, mid, hi, probe)
    elif kind == _NESTED and o == 1:
        return _one_a(lo, mid, mid, hi)
    else:
        return None
    if kind == _ONE_A:
        return _one_a(lo, hi, state[3], state[4])
    if kind == _ONE_B:
        return _one_b(lo, hi, state[3])
    return (kind, lo, hi) if hi - lo > 1 else (_FOUND, lo, lo)


def _follow(
    state: _State, ask: Scale, probe: Scale | None = None
) -> tuple[int, int]:
    # Weigh each state's query through ``ask`` until a leaf; a rejected
    # reading raises.
    while True:
        o = ask(_query(state))
        after = _advance(state, o, probe)
        if after is None:
            if state[0] == _PI2:
                raise InternalContractError(
                    f"singleton weighed {o} in a joint round"
                )
            w = 2 if state[0] <= _NESTED else 1
            raise InternalContractError(f"w(s)={w} but weighed {o} on a half")
        if after[0] == _FOUND:
            return after[1], after[2]
        state = after


def _proposed_core(
    n: int, ask: Scale, probe: Scale | None = None
) -> tuple[int, int]:
    """Π0/Π1/Π2 on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  A region is the run [lo, hi) and is
    split at its midpoint.  Given ``probe``, a scale that weighs without
    logging, each entry into a joint round first checks its precondition
    with it and raises ``InternalContractError`` if that fails.

    The procedures are the states of ``_advance``:

    * Π0 on [1, n + 1), of weight 2, bisects until a single coin holds both
      units (a leaf) or a weighing splits the weight 1 / 1, which hands the
      two halves a and b to the joint rounds.
    * Each Π1 state is one joint round on a and b, each of weight 1.
      Outcome 0 or 2 keeps both upper or both lower halves.  Outcome 1
      enters Π2's tie-break, which asks one more weighing and hands new
      regions back to Π1; when a and b both have two coins that weighing
      settles all four.
    * Once a or b is a single coin, Π0 on weight 1 bisects a, then b; the
      single coin costs no weighing.
    """
    return _follow(_root(_PROPOSED, n), ask, probe)


def _nested_core(n: int, ask: Scale) -> tuple[int, int]:
    """Nested bisection on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  Every query is the lower half of the
    region it refines: Π0 on [1, n + 1), of weight 2, bisects until a
    single coin holds both units or a weighing splits the weight 1 / 1, and
    then Π0 on weight 1 bisects each half, the lower one first.
    """
    return _follow(_root(_NESTED, n), ask)


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
