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
rejected reading.  It takes each step on the state's canonical form,
``_canon``: the same kind and region sizes, with the regions placed from
coin 1 on in their order.  It places the query's runs back among the real
coins before it weighs them, and composes the offsets of each child with
its parent's.  So ``_query`` and ``_advance`` never
see where a region lies; they use only sizes, midpoints and the order of
two regions.  A tree has few canonical states, so the cores' steps
(``_step``) are memoised.  A core never sees the hidden support and never
records a query: ``ask`` logs each (runs, outcome) pair as the scale
answers it.  The exhaustive verifier follows it another way: it walks the
decision tree of the same step function on the same canonical states,
branching on every reading 0, 1 or 2 that a state accepts, and checks each
edge against ``_shape(state)``, the set of supports whose run passes
through a state (see ``verify``).  ``run_proposed`` and ``run_nested``
share one run body, which turns the log and the support into a
``Transcript`` of ``model.Subset`` queries and a dense estimate, both
built by ``model``'s memoised writers (see its docstring).  So transcripts
of different runs may share ``Subset`` objects and estimate tuples, which
is safe because both are immutable.

``check_nested`` decides whether a finished transcript obeys the nested
discipline (each query refines a single currently-open region).  The proposed
strategy violates it as soon as a Π1 round weighs across two regions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

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
# it runs, then its regions, each a run [lo, hi), or its support.  Its set,
# which ``_shape`` gives, is the supports (p, q) whose run passes through
# it; X x Y there means one of p, q in X and the other in Y:
#   kind                fields              procedure          set
#   _PROPOSED, _NESTED  lo, hi              Π0 on weight 2     p, q in [lo, hi)
#   _PI1                alo, ahi, blo, bhi  a joint round      a x b
#   _PI2                alo, ahi, blo, bhi  its tie-break; b   a_low x b_high,
#                                           is no smaller      a_high x b_low
#   _ONE_A              alo, ahi, blo, bhi  Π0 on weight 1 on  a x b
#                                           a, then on b
#   _ONE_B              blo, bhi, c         Π0 on weight 1 on  {c} x b
#                                           b; a's coin is c
#   _FOUND              p, q                a leaf             {(p, q)}
# A 1 / 1 split of Π0 on weight 2 enters Π1 for the halving scheme, and Π0
# on weight 1 on a and b for nested search.  Every state but a leaf asks
# one weighing; each Π0 state bisects the run in its first two fields, and
# a region's halves are [lo, mid) and [mid, hi) with mid = (lo + hi) // 2.
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
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        bqtr = (bmid + bhi) // 2
        if bmid == bqtr:
            # b has two coins, so its quarter is empty.
            return ((alo, amid),)
        return _union(alo, amid, bmid, bqtr)
    lo = state[1]
    return ((lo, (lo + state[2]) // 2),)


def _shape(state: _State) -> tuple[tuple[int, int, int, int], ...]:
    """The set of supports that ``state`` stands for, as at most two
    blocks ``(i0, i1, j0, j1)``: a block holds each (p, q) with
    i0 <= p < i1, j0 <= q < j1 and p <= q."""
    kind = state[0]
    if kind <= _NESTED:
        _, lo, hi = state
        return ((lo, hi, lo, hi),)
    if kind == _PI1 or kind == _ONE_A:
        _, alo, ahi, blo, bhi = state
        if alo < blo:
            return ((alo, ahi, blo, bhi),)
        return ((blo, bhi, alo, ahi),)
    if kind == _PI2:
        # The Π1 state that entered this one read 1 on the lower halves of
        # the same two regions.
        _, alo, ahi, blo, bhi = state
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        if alo < blo:
            return ((alo, amid, bmid, bhi), (amid, ahi, blo, bmid))
        return ((bmid, bhi, alo, amid), (blo, bmid, amid, ahi))
    if kind == _ONE_B:
        _, blo, bhi, c = state
        if c < blo:
            return ((c, c + 1, blo, bhi),)
        return ((blo, bhi, c, c + 1),)
    _, p, q = state
    return ((p, p + 1, q, q + 1),)


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


def _joint(alo: int, ahi: int, blo: int, bhi: int) -> _State:
    # Entry into Π1 on a = [alo, ahi) and b = [blo, bhi), each of weight 1;
    # once either is a single coin, Π0 on weight 1 takes over.
    if ahi - alo > 1 and bhi - blo > 1:
        return (_PI1, alo, ahi, blo, bhi)
    return _one_a(alo, ahi, blo, bhi)


def _advance(state: _State, o: int) -> _State | None:
    """The state after ``state`` reads ``o``, or None for a reading that
    the state rejects."""
    kind = state[0]
    if kind == _PI1:
        _, alo, ahi, blo, bhi = state
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        if o == 0:
            return _joint(amid, ahi, bmid, bhi)
        if o == 2:
            return _joint(alo, amid, blo, bmid)
        if o != 1:
            return None
        # Π2.  Known: the joined lower halves weigh 1, so one coin sits in a
        # lower half and the other in an upper half.  b is made the larger
        # region, and keeps that name in the joint rounds that follow.
        if bhi - blo < ahi - alo:
            return (_PI2, blo, bhi, alo, ahi)
        return (_PI2, alo, ahi, blo, bhi)
    if kind == _PI2:
        _, alo, ahi, blo, bhi = state
        amid = (alo + ahi) // 2
        bmid = (blo + bhi) // 2
        bqtr = (bmid + bhi) // 2
        if o == 0:
            return _joint(amid, ahi, blo, bmid)
        if o == 1:
            # a's lower half holds its coin (else outcome 0 or 2), so b's
            # coin is in the top quarter of b.
            return _joint(alo, amid, bqtr, bhi)
        if o == 2 and bmid < bqtr:
            return _joint(alo, amid, bmid, bqtr)
        # No scale reads 2 when b's quarter is empty.
        return None

    # Π0: bisect [lo, hi), of weight w, at its midpoint.
    lo, hi = state[1], state[2]
    mid = (lo + hi) // 2
    w = 2 if kind <= _NESTED else 1
    if o == 0:
        lo = mid
    elif o == w:
        hi = mid
    elif kind == _PROPOSED and o == 1:
        return _joint(lo, mid, mid, hi)
    elif kind == _NESTED and o == 1:
        return _one_a(lo, mid, mid, hi)
    else:
        return None
    if kind == _ONE_A:
        return _one_a(lo, hi, state[3], state[4])
    if kind == _ONE_B:
        return _one_b(lo, hi, state[3])
    return (kind, lo, hi) if hi - lo > 1 else (_FOUND, lo, lo)


def _regions(state: _State) -> Runs:
    """The regions of ``state``, which is not a leaf, as runs, in the order
    of its fields; a's coin c of ``_ONE_B`` is the region [c, c + 1)."""
    kind = state[0]
    if kind <= _NESTED:
        return (state[1:],)
    if kind == _ONE_B:
        return (state[1:3], (state[3], state[3] + 1))
    return (state[1:3], state[3:])


# Where a canonical state lies among the real coins: (split, t0, t1) puts
# each coin x of the canonical state at x + t0 if x < split, else x + t1.
_Offsets = tuple[int, int, int]


def _canon(state: _State) -> tuple[_State, _Offsets]:
    """The canonical form of ``state``, which is not a leaf, and its offsets.

    The canonical form keeps the kind, the region sizes and their order, and
    places the regions from coin 1 on, one coin apart: the lower one ends
    below ``split`` and the upper one starts there.  So each coin, and each
    end of a run inside one region, is placed by comparing it with
    ``split``.  A state with one region has t0 == t1.
    """
    kind = state[0]
    if kind <= _NESTED:
        _, lo, hi = state
        return (kind, 1, hi - lo + 1), (1, lo - 1, lo - 1)
    (alo, ahi), (blo, bhi) = _regions(state)
    if alo < blo:
        split = ahi - alo + 2
        a, b = (1, split - 1), (split, split + bhi - blo)
        offsets = split, alo - 1, blo - split
    else:
        split = bhi - blo + 2
        a, b = (split, split + ahi - alo), (1, split - 1)
        offsets = split, blo - 1, alo - split
    # ``_ONE_B`` keeps only the first coin of its second region, a's coin.
    return (kind, *a, *b)[: len(state)], offsets


def _at(coins: tuple[int, ...], offsets: _Offsets) -> tuple[int, ...]:
    """The real coins of ``coins``, coins or ends of runs of a canonical
    state placed by ``offsets``."""
    split, t0, t1 = offsets
    return tuple([x + t0 if x < split else x + t1 for x in coins])


@lru_cache(maxsize=1 << 12)
def _step(state: _State, o: int) -> tuple[_State | None, _Offsets | None]:
    """The canonical form of ``_advance(state, o)``, for a canonical
    ``state``, and its offsets among the coins of ``state``; or the leaf or
    None that ``_advance`` gives, with None.  Memoised: the trees at
    n = 4096 have 97 and 89 canonical states that are not leaves, so the
    runs of one size take the same steps again and again; the bound holds
    all of their steps."""
    after = _advance(state, o)
    if after is None or after[0] == _FOUND:
        return after, None
    return _canon(after)


def _follow(state: _State, ask: Scale) -> tuple[int, int]:
    # Weigh each state's query through ``ask`` until a leaf; a rejected
    # reading raises.  Each step is taken on a canonical state: its runs
    # are placed among the real coins before they are weighed (``_at``,
    # written out, as this loop runs once per weighing), and ``_step`` gives
    # the next one.  Its lower region starts at coin 1 + u0 of this state
    # and its upper one at coin s + u1, each inside one of this state's
    # regions; where those coins land gives its offsets.
    state, (split, t0, t1) = _canon(state)
    while True:
        runs = _query(state)
        if len(runs) == 1:
            ((lo, hi),) = runs
            t = t0 if lo < split else t1
            runs = ((lo + t, hi + t),)
        else:
            (alo, ahi), (blo, bhi) = runs
            ta = t0 if alo < split else t1
            tb = t0 if blo < split else t1
            runs = ((alo + ta, ahi + ta), (blo + tb, bhi + tb))
        o = ask(runs)
        after, inner = _step(state, o)
        if inner is None:
            if after is None:
                kind = state[0]
                if kind == _PI1 or kind == _PI2:
                    alo, ahi, blo, bhi = _at(state[1:], (split, t0, t1))
                    raise InternalContractError(
                        f"weighed {o} in a joint round on "
                        f"[{alo}, {ahi}), [{blo}, {bhi})"
                    )
                w = 2 if kind <= _NESTED else 1
                raise InternalContractError(f"w(s)={w} but weighed {o} on a half")
            p, q = _at(after[1:], (split, t0, t1))
            return p, q
        state = after
        s, u0, u1 = inner
        t0, t1 = (
            u0 + (t0 if 1 + u0 < split else t1),
            u1 + (t0 if s + u1 < split else t1),
        )
        split = s


def _proposed_core(n: int, ask: Scale) -> tuple[int, int]:
    """Π0/Π1/Π2 on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  A region is the run [lo, hi) and is
    split at its midpoint.

    The procedures are the states of ``_advance``:

    * Π0 on [1, n + 1), of weight 2, bisects until a single coin holds both
      units (a leaf) or a weighing splits the weight 1 / 1, which hands the
      two halves a and b to the joint rounds.
    * Each Π1 state is one joint round on a and b, each of weight 1.
      Outcome 0 or 2 keeps both upper or both lower halves.  Outcome 1
      enters Π2's tie-break, which weighs a's lower half with the lower
      quarter of b's upper half and hands new regions back to Π1.  When b
      has two coins that quarter is empty, and reading 2 is rejected.
    * Once a or b is a single coin, Π0 on weight 1 bisects a, then b; the
      single coin costs no weighing.
    """
    return _follow(_root(_PROPOSED, n), ask)


def _nested_core(n: int, ask: Scale) -> tuple[int, int]:
    """Nested bisection on coins 1..n, weighing through ``ask``.

    Returns the recovered support.  Every query is the lower half of the
    region it refines: Π0 on [1, n + 1), of weight 2, bisects until a
    single coin holds both units or a weighing splits the weight 1 / 1, and
    then Π0 on weight 1 bisects each half, the lower one first.
    """
    return _follow(_root(_NESTED, n), ask)


def _run(
    config: Configuration, core: Callable[[int, Scale], tuple[int, int]]
) -> Transcript:
    # Both runners' body.
    if not isinstance(config, Configuration):
        raise InvalidConfigurationError(f"not a Configuration: {config!r}")
    n = config.n
    ask, log = oracle(*config.positions)
    support = core(n, ask)
    return Transcript(_logged_subsets(n, log), _dense(n, *support))


def run_proposed(config: Configuration) -> Transcript:
    """Execute the halving scheme on ``config`` (any n >= 2)."""
    return _run(config, _proposed_core)


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
