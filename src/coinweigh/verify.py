"""Exhaustive verification: earn each strategy's statistics on every
configuration.

The analytic side of the package predicts averages and maxima from
recursions; this module earns those numbers the hard way, over all
n + C(n, 2) configurations, checking that every one is recovered exactly,
and aggregates exact statistics.  ``cross_check`` then compares the two
routes, demanding exact equality of rationals.

``exhaustive_stats`` does not run each configuration.  It walks the
decision tree of the strategy's step table, ``strategies._node``, the same
memoised table the cores follow, so each weighing is asked once per node,
not once per configuration below it.  At
each state it branches on every reading 0, 1 or 2 that the state accepts;
a leaf holds a support, and its depth is that configuration's weighing
count.  Each state stands for a set of supports, ``strategies._shape``:
at most two blocks (i0, i1, j0, j1), each the supports (p, q) with
i0 <= p < i1, j0 <= q < j1 and p <= q.  The root's set is every support
1 <= p <= q <= n, whatever ``_shape`` says of it.  Instead of "the run
returned (p, q)", the walk checks every edge, from a parent that weighs
``runs`` through a reading o to a child:

* each block of the child lies inside one block of the parent, each of
  its two runs lies wholly inside or wholly outside each run of ``runs``,
  and ``model.weigh_runs``, the scale that a core's ``ask`` weighs with,
  gives o at its corner (i0, j0), so every support in the block reads o;
* a leaf child's support (p, q) lies inside a block of the parent, has
  p <= q, and reads o;

and after the walk, that the leaves number n + C(n, 2).

Why that is enough: a leaf's support lies in its parent's set and reads
the parent's reading, and so does every support in the set of a state that
is not a leaf.  By induction up the path, each leaf's support lies in the
root's set and reads every reading on its path: the whole path is
replayed, one edge at a time.  Two leaves part at a node where they read
different outcomes of the same runs, so their supports are distinct
configurations, and with the right count they are all of them.  Run on any
configuration c, a core asks the root's runs and reads what c's leaf path
reads there, and so on down: the run follows that path and returns c,
after as many weighings as the path is long.  This part of the argument
does not assume that ``_shape`` is exact, only that the root's set is
right: a wrong set can make a check fail and the walk raise, but never let
a wrong tree pass.

The tree is walked as the cores step it, on canonical states: a state's
regions placed from coin 1 on, in their order, one coin apart.  A node
gives the query and, per reading, the canonical child with the offsets
that place it among the state's coins; a core composes those offsets
with its own, so a real node is its canonical state with each region
translated on its own.  The walk checks each edge on the child's set as
those same offsets place it, so a wrong offset fails as a wrong step
does.  The placement step of the induction: each run of a state's query
lies inside one of its regions, which the walk checks, and each placed
child's region lies inside one of its parent's, since the child's blocks
cover its regions and, placed, lie inside its parent's blocks, which lie
inside the parent's regions.  So translating each region on its own moves
each run of a query with the coins of the state's set that it holds, and
keeps every reading: each check holds at a real node exactly when it holds
at its canonical state.  This step takes from ``_shape``, beyond the
root's set, that a state's blocks cover its regions, lie inside them and
move with them; its code says so, and the tests check that it is exact at
n <= 64.

So the walk checks each canonical state's edges once, however often the
real tree meets it.  It keeps, for each canonical state, the partial sums
of the leaves below it, with each depth counted from the state and each
δ = q - p read in its coordinates: a leaf below a state of two regions has
a coin in each, so its δ one state up is its δ plus the gap that the
child's offsets put between the regions.  This memo of sums lives for one
call.  The root's edges are checked against the root's set.  The walk
carries the real offsets of its path, so a failed check names the real
coins of its edge; and since a state met again stands for a subtree that
passed, the first failure met is the first of the real tree, taken state
by state with reading 2 first.  ``_run_range``, which runs the cores on a range of
configurations, is kept as the per-configuration reference.

``cross_check`` computes its analytic side first and then runs the
strategies in turn, so a failed proposed walk raises before the nested
one starts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .model import (
    InternalContractError,
    InvalidSizeError,
    Runs,
    _coin_count,
    config_count,
    iter_supports,
    oracle,
    require_enumerable,
    weigh_runs,
)
from . import analysis
from .analysis import rational_str
from .strategies import (
    _FOUND,
    _NESTED,
    _PROPOSED,
    _Offsets,
    _State,
    _at,
    _canon,
    _follow,
    _nested_core,
    _node,
    _proposed_core,
    _regions,
    _root,
    _shape,
)

__all__ = [
    "StatsRow",
    "PerDeltaRow",
    "CrossCheckReport",
    "FitResult",
    "exhaustive_stats",
    "cross_check",
    "fit_loglinear",
]

_CORES = {"proposed": _proposed_core, "nested": _nested_core}
_ROOTS = {"proposed": _PROPOSED, "nested": _NESTED}


@dataclass(frozen=True)
class StatsRow:
    """Exact statistics of one strategy over the full configuration space."""

    l: int | None
    n: int
    strategy: str
    average: Fraction
    max_weighings: int
    per_delta: dict[int, tuple[Fraction, int]]
    configs: int
    runtime_s: float


@dataclass(frozen=True)
class PerDeltaRow:
    """Analytic vs empirical mean for one separation class (informational)."""

    delta: int
    analytic: Fraction
    empirical: Fraction
    configs: int


@dataclass(frozen=True)
class CrossCheckReport:
    """Analytic predictions vs exhaustive execution at one size.

    ``mismatches`` holds one line per failed comparison, and is the verdict:
    ``ok`` is true when it is empty.
    """

    l: int
    n: int
    analytic_avg: Fraction
    empirical_avg: Fraction
    nested_closed: Fraction
    nested_dp: Fraction
    nested_empirical: Fraction
    predicted_max: int
    max_proposed: int
    max_nested: int
    per_delta: tuple[PerDeltaRow, ...]
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (l, value) points."""

    slope: float
    intercept: float
    residual_max: float


def _check_threads(threads: int | None) -> None:
    """Reject a bad ``threads``, or, when it is None, a bad CW_THREADS.

    Both are accepted for compatibility, and checked, but have no effect:
    each tree is walked in the calling process.
    """
    name = "threads"
    if threads is None:
        env = os.environ.get("CW_THREADS")
        if env is None:
            return
        name, threads = "CW_THREADS", env
        try:
            threads = int(env)
        except ValueError:
            pass  # left a str, which the one check below rejects
    if type(threads) is not int or threads < 1:
        raise InvalidSizeError(f"{name} must be an integer >= 1, got {threads!r}")


_Partial = tuple[int, int, int, dict[int, list[int]]]


def _run_range(n: int, strategy: str, lo: int, hi: int) -> _Partial:
    """Execute configs with ranks lo..hi-1; return exact partial sums.

    Each core weighs through the ``ask`` of ``model.oracle`` and sees
    nothing else of the support, and the oracle's log records every outcome
    as the scale gave it.  So a run that returns the true support has
    identified it, and the log's length is its weighing count; a run that
    returns anything else is an implementation bug.  Per-class cells are
    keyed by δ = q - p and hold [weighings, configs].  This is the
    per-configuration reference that the tests compare the walk with.
    """
    core = _CORES[strategy]
    count = 0
    total = 0
    worst = 0
    per_delta: dict[int, list[int]] = {}
    for p, q in islice(iter_supports(n, lo), hi - lo):
        ask, log = oracle(p, q)
        found = core(n, ask)
        if found != (p, q):
            raise InternalContractError(
                f"{strategy} failed to recover support {(p, q)} of n={n}: "
                f"got {found}"
            )
        weighings = len(log)
        count += 1
        total += weighings
        if weighings > worst:
            worst = weighings
        cell = per_delta.setdefault(q - p, [0, 0])
        cell[0] += weighings
        cell[1] += 1
    return count, total, worst, per_delta


_Blocks = tuple[tuple[int, int, int, int], ...]


def _top(n: int) -> _Blocks:
    # The root's set: every support 1 <= p <= q <= n, whatever ``_shape``
    # says of the root.
    return ((1, n + 1, 1, n + 1),)


def _inside(p: int, q: int, blocks: _Blocks) -> bool:
    for i0, i1, j0, j1 in blocks:
        if i0 <= p < i1 and j0 <= q < j1:
            return True
    return False


def _fits(blocks: _Blocks, runs: Runs, o: int, shape: _Blocks) -> bool:
    """Whether a child's set ``shape`` passes the checks of its edge from
    a state whose set is ``blocks``, that weighs ``runs`` and reads ``o``:
    each block of ``shape`` lies inside one of ``blocks``, each of its two
    runs lies wholly inside or wholly outside each run of ``runs``, and its
    corner (i0, j0) reads ``o``."""
    for i0, i1, j0, j1 in shape:
        for a0, a1, b0, b1 in blocks:
            if a0 <= i0 and i1 <= a1 and b0 <= j0 and j1 <= b1:
                break
        else:
            return False
        for lo, hi in runs:
            if not (lo <= i0 and i1 <= hi or i1 <= lo or hi <= i0):
                return False
            if not (lo <= j0 and j1 <= hi or j1 <= lo or hi <= j0):
                return False
        if weigh_runs(i0, j0, runs) != o:
            return False
    return True


def _reach(state: _State, p: int, q: int) -> tuple[int, ...] | None:
    # Where ``_follow`` ends the run of (p, q) from ``state``, or None if a
    # state on the way rejects its reading.  This only names a failure.
    if state[0] == _FOUND:
        return state[1:]
    try:
        return _follow(state, lambda runs: weigh_runs(p, q, runs))
    except InternalContractError:
        return None


def _failure(
    n: int, strategy: str, blocks: _Blocks, runs: Runs, o: int, child: _State
) -> str:
    # The failure line of an edge that fails its checks: the first
    # configuration in the parent's set that reads ``o``, and where its run
    # ends below ``child``.  When none reads ``o``, the line names where
    # the run of the child's first corner ends instead.
    for p, q in iter_supports(n):
        if _inside(p, q, blocks) and weigh_runs(p, q, runs) == o:
            return (
                f"{strategy} failed to recover support {(p, q)} of n={n}: "
                f"got {_reach(child, p, q)}"
            )
    i0, _, j0, _ = _shape(child)[0]
    return (
        f"{strategy} reached support {_reach(child, i0, j0)} of n={n} on "
        "readings that no configuration gives"
    )


def _children(
    n: int, strategy: str, state: _State, offsets: _Offsets, blocks: _Blocks
) -> list[tuple[_State, _Offsets | None]]:
    """The steps of the canonical ``state``, whose set is ``blocks``, from
    its ``_node``: each child with its offsets (a leaf with None), once each
    run of its query lies inside one of its regions and each edge has passed
    its checks; else ``InternalContractError``, naming the real coins that
    ``offsets`` places the state at."""
    runs, steps = _node(state)
    regions = _regions(state)
    for run in runs:
        if not any(rlo <= run[0] and run[1] <= rhi for rlo, rhi in regions):
            lo, hi = _at(run, offsets)
            named = ", ".join(
                "[{}, {})".format(*_at(region, offsets)) for region in regions
            )
            raise InternalContractError(
                f"{strategy} weighs [{lo}, {hi}) outside each of the regions "
                f"{named} of n={n}"
            )
    children = []
    for o, (child, inner) in steps.items():
        if child is None:
            continue
        if inner is None:
            # A leaf's support is ordered, lies in the parent's set and
            # reads ``o``.
            _, p, q = child
            ok = p <= q and _inside(p, q, blocks) and weigh_runs(p, q, runs) == o
        else:
            # The child's set, placed among this state's coins.
            shape = tuple(_at(block, inner) for block in _shape(child))
            ok = _fits(blocks, runs, o, shape)
        if not ok:
            if inner is not None:
                child = child[:1] + _at(child[1:], inner)
            raise InternalContractError(_failure(
                n,
                strategy,
                tuple(_at(block, offsets) for block in blocks),
                tuple(_at(run, offsets) for run in runs),
                o,
                child[:1] + _at(child[1:], offsets),
            ))
        children.append((child, inner))
    return children


def _walk(
    n: int,
    strategy: str,
    state: _State,
    offsets: _Offsets,
    blocks: _Blocks,
    memo: dict[_State, _Partial],
) -> _Partial:
    """Check each edge below the canonical ``state``, whose set is
    ``blocks`` and which ``offsets`` places among the real coins; return the
    exact partial sums of the leaves below it, as ``_run_range`` does for a
    range, with each depth counted from ``state`` and each δ read in its
    coordinates.  A state met again is read from ``memo`` (see the module
    docstring)."""
    part = memo.get(state)
    if part is not None:
        return part
    count = 0
    total = 0
    worst = 0
    cells: dict[int, list[int]] = {}
    for child, inner in reversed(_children(n, strategy, state, offsets, blocks)):
        if inner is None:
            below = 1, 0, 0, {child[2] - child[1]: [0, 1]}
            shift = 0
        else:
            s, u0, u1 = inner
            # Each of its regions' offsets: where its first coin lands,
            # less where it starts.
            r0, r1 = _at((1 + u0, s + u1), offsets)
            below = _walk(
                n, strategy, child, (s, r0 - 1, r1 - s), _shape(child), memo
            )
            # A leaf below a state of two regions has one coin in each.
            shift = u1 - u0
        # One weighing deeper, and δ read in this state's coordinates.
        count += below[0]
        total += below[1] + below[0]
        worst = max(worst, below[2] + 1)
        for delta, (dtotal, dcount) in below[3].items():
            cell = cells.setdefault(delta + shift, [0, 0])
            cell[0] += dtotal + dcount
            cell[1] += dcount
    memo[state] = part = count, total, worst, cells
    return part


def _tree(n: int, strategy: str) -> _Partial:
    """Walk the decision tree of ``strategy`` on n coins (see the module
    docstring), with a memo that lives for this call; return the exact
    partial sums of its leaves, once they number n + C(n, 2).  It takes any
    n >= 2, past the enumeration cap too."""
    root, offsets = _canon(_root(_ROOTS[strategy], n))
    part = _walk(n, strategy, root, offsets, _top(n), {})
    if part[0] != config_count(n):
        raise InternalContractError(
            f"{strategy} reached {part[0]} leaves of n={n}, not the "
            f"{config_count(n)} configurations"
        )
    return part


def exhaustive_stats(
    n: int, strategy: str, *, threads: int | None = None
) -> StatsRow:
    """Earn ``strategy``'s statistics on every configuration of n coins.

    The walk of the strategy's decision tree (see the module docstring)
    stands for one leaf per configuration, whose depth is that
    configuration's weighing count, and raises ``InternalContractError``
    when a check fails or the leaves are not n + C(n, 2).  Both strategies
    take every n that passes ``model.require_enumerable`` (any
    2 <= n <= 2**ENUMERATION_CAP_L, else ``TooLargeError``).  ``l`` is
    log2 n for a power of two and None otherwise.  Statistics are exact
    rationals.

    ``threads`` is accepted and checked, as is CW_THREADS when it is None,
    but has no effect.  ``runtime_s`` is the wall time of the walk; it is
    reported, never part of any contract.
    """
    if not isinstance(strategy, str) or strategy not in _CORES:
        raise ValueError(f"unknown strategy {strategy!r}")
    require_enumerable(n)
    _check_threads(threads)
    l = n.bit_length() - 1 if n & (n - 1) == 0 else None

    start = time.perf_counter()
    count, total, worst, cells = _tree(n, strategy)
    runtime = time.perf_counter() - start

    per_delta = {
        delta: (Fraction(dtotal, dcount), dcount)
        for delta, (dtotal, dcount) in sorted(cells.items())
    }
    return StatsRow(
        l=l,
        n=n,
        strategy=strategy,
        average=Fraction(total, count),
        max_weighings=worst,
        per_delta=per_delta,
        configs=count,
        runtime_s=runtime,
    )


def cross_check(l: int, *, threads: int | None = None) -> CrossCheckReport:
    """Compare every analytic prediction at n = 2**l with exhaustive runs.

    Demands exact rational equality of the proposed average against the
    depth law, of the nested average against the closed form and the
    divide-and-conquer recursion, and of both empirical maxima against
    2l - 1.  Each comparison is made once, and a failed one adds its line
    to ``mismatches``.  Per-class rows are informational only: inside a
    class the analytic value and the empirical conditional mean
    legitimately disagree.  Every analytic value is
    computed first; then the strategies run in turn, proposed and then
    nested, so a failed proposed walk raises before the nested one starts.
    Past the enumeration cap it raises ``TooLargeError``.  ``threads`` is
    passed on to ``exhaustive_stats``, where it has no effect.
    """
    n = _coin_count(l)
    require_enumerable(n)
    analytic_avg = analysis.t_ave_proposed(l)
    nested_closed = analysis.nested_closed_forms(l)[1]
    nested_dp = analysis.nested_tables(n).opt2[n]
    predicted_max = analysis.t_max(l)
    table = analysis.t_table(l)
    # Every separation class 0 <= δ < n occurs among the configurations.
    delta_analytic = [
        analysis.t_given_delta(l, delta, table) for delta in range(n)
    ]
    proposed = exhaustive_stats(n, "proposed", threads=threads)
    nested = exhaustive_stats(n, "nested", threads=threads)

    mismatches: list[str] = []
    if analytic_avg != proposed.average:
        mismatches.append(
            f"proposed average: analytic {rational_str(analytic_avg)} != "
            f"exhaustive {rational_str(proposed.average)}"
        )
    if not nested_closed == nested_dp == nested.average:
        mismatches.append(
            "nested average disagreement: closed "
            f"{rational_str(nested_closed)}, recursion "
            f"{rational_str(nested_dp)}, exhaustive "
            f"{rational_str(nested.average)}"
        )
    if not proposed.max_weighings == nested.max_weighings == predicted_max:
        mismatches.append(
            f"max weighings: predicted {predicted_max}, proposed "
            f"{proposed.max_weighings}, nested {nested.max_weighings}"
        )

    per_delta = tuple(
        PerDeltaRow(
            delta=delta,
            analytic=delta_analytic[delta],
            empirical=mean,
            configs=cfgs,
        )
        for delta, (mean, cfgs) in proposed.per_delta.items()
    )
    return CrossCheckReport(
        l=l,
        n=n,
        analytic_avg=analytic_avg,
        empirical_avg=proposed.average,
        nested_closed=nested_closed,
        nested_dp=nested_dp,
        nested_empirical=nested.average,
        predicted_max=predicted_max,
        max_proposed=proposed.max_weighings,
        max_nested=nested.max_weighings,
        per_delta=per_delta,
        mismatches=tuple(mismatches),
    )


def fit_loglinear(
    l_min: int, l_max: int, values: "list[tuple[int, float]]"
) -> FitResult:
    """Least-squares line through the (l, value) points with l_min <= l <= l_max.

    Closed-form normal equations in binary64; two exactly collinear points
    give the exact slope and intercept with zero residual.
    """
    try:
        points = [(l, float(v)) for l, v in values if l_min <= l <= l_max]
    except (TypeError, ValueError) as exc:
        raise InvalidSizeError(f"values must be (l, number) pairs: {values!r}") from exc
    if len(points) < 2 or len({l for l, _ in points}) < 2:
        raise InvalidSizeError(
            f"need at least two distinct l in {l_min}..{l_max} to fit"
        )
    count = len(points)
    sx = sum(l for l, _ in points)
    sy = sum(v for _, v in points)
    sxx = sum(l * l for l, _ in points)
    sxy = sum(l * v for l, v in points)
    slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
    intercept = (sy - slope * sx) / count
    residual = max(abs(v - (slope * l + intercept)) for l, v in points)
    return FitResult(slope=slope, intercept=intercept, residual_max=residual)
