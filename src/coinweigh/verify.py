"""Exhaustive verification: earn each strategy's statistics on every
configuration.

The analytic side of the package predicts averages and maxima from
recursions; this module earns those numbers the hard way, over all
n + C(n, 2) configurations, checking that every one is recovered exactly,
and aggregates exact statistics.  ``cross_check`` then compares the two
routes, demanding exact equality of rationals.

``exhaustive_stats`` does not run each configuration.  It walks the
decision tree of the strategy's step function (``strategies._query`` and
``strategies._advance``, the same step function the cores follow), so each
weighing is asked once per node, not once per configuration below it.  At
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

and after the merge, that the leaves number n + C(n, 2).

Why that is enough: a leaf's support lies in its parent's set and reads
the parent's reading, and so does every support in the set of a state that
is not a leaf.  By induction up the path, each leaf's support lies in the
root's set and reads every reading on its path: the whole path is
replayed, one edge at a time.  Two leaves part at a node where they read
different outcomes of the same runs, so their supports are distinct
configurations, and with the right count they are all of them.  Run on any
configuration c, a core asks the root's runs and reads what c's leaf path
reads there, and so on down: the run follows that path and returns c,
after as many weighings as the path is long.  The argument does not assume
that ``_shape`` is exact, only that the root's set is right: a wrong set
can make a check fail and the walk raise, but never let a wrong tree pass.
The tests check that ``_shape`` is exact.

``exhaustive_stats`` checks the root's edges itself and then walks each
child's subtree, except where the child is the root of a size already
walked in the same ``worker_pool`` block.  The root (kind, 1, n + 1) of
n >= 4 coins reads 2 into (kind, 1, n//2 + 1), the root of n//2 coins,
and ``_shape`` gives that child the set ``_top(n//2)``, the one the walk
of n//2 starts from; so every edge and check below it is exactly that
walk.  Its partial, kept once its leaves passed the count check, is added
one weighing deeper instead.  The kept partials die with the block, so a
call outside any block walks its whole tree.

Work spreads over processes by subtrees.  A size walks the children left
to walk in the calling process, in the order one walk of the root pops
them, when it has one worker or when their subtrees hold fewer than
``_POOL_MIN_CONFIGS`` configurations.  Otherwise they are expanded one
level at a time, each edge checked as the walk checks it, until the
frontier holds at least four states per worker, and each job is one
frontier state with its depth.  Partial records hold integer sums, which
merge exactly in any order, and the mean only becomes a rational at the
end.  ``_run_range``, which runs the cores on a range of configurations,
is kept as the per-configuration reference.

A CLI run opens one ``worker_pool`` around all of its sizes, and every
``exhaustive_stats`` call inside it sends its jobs to that one pool and
reuses the sizes walked before it; a call outside any ``worker_pool``
opens a pool for itself.  ``cross_check`` computes its analytic side first
and then runs the strategies in turn, so a failed proposed walk returns
before any nested job is sent.  The pool never outlives the block that
opened it.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
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
    _State,
    _advance,
    _nested_core,
    _proposed_core,
    _query,
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
    "worker_pool",
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _resolve_threads(threads: int | None) -> int:
    """Worker count: ``threads``, else CW_THREADS, else every usable CPU.

    The count is clamped to the CPUs this process may run on, so a large
    request never forks more workers than can run at once.
    """
    name = "threads"
    if threads is None:
        env = os.environ.get("CW_THREADS")
        if env is None:
            return _usable_cpus()
        name, threads = "CW_THREADS", env
        try:
            threads = int(env)
        except ValueError:
            pass  # left a str, which the one check below rejects
    if type(threads) is not int or threads < 1:
        raise InvalidSizeError(f"{name} must be an integer >= 1, got {threads!r}")
    return min(threads, _usable_cpus())


_Partial = tuple[int, int, int, dict[int, list[int]]]


# The open ``worker_pool``: (workers, executor, kept), no executor for one
# worker; ``kept`` maps the root state of each size walked in the block to
# its partial.
_open_pool: (
    tuple[int, ProcessPoolExecutor | None, dict[_State, _Partial]] | None
) = None

# A size whose walked part holds fewer configurations than this is walked
# in the calling process, not sent to the pool.  With n//2 kept, the part
# is 6,176 configurations at n = 128 and 24,640 at n = 256; whole
# `verify --l-max 8 --threads 2` runs on two CPUs took as long with this
# anywhere from 2,048 to 16,384, and a run up to n = 128 starts no process.
_POOL_MIN_CONFIGS = 16384


@contextmanager
def worker_pool(threads: int | None = None) -> Iterator[None]:
    """Share one worker pool, and the sizes already walked, among every
    exhaustive run inside the block.

    The worker count is resolved once, as for ``exhaustive_stats``; with one
    worker no process starts, and with more the workers start with the
    first job that a size sends to the pool.  A block opened inside another
    checks ``threads`` and joins the outer pool.  On leaving the block the
    kept sizes are dropped and the pool is
    shut down, and when an exception leaves it (a failed check, a broken
    pool, Ctrl-C) its queued jobs are cancelled first.  The pool never
    outlives the block, so its workers never run code older than the call
    that opened it.
    """
    global _open_pool
    workers = _resolve_threads(threads)
    if _open_pool is not None:
        yield
        return
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    _open_pool = workers, executor, {}
    finished = False
    try:
        yield
        finished = True
    finally:
        _open_pool = None
        if executor is not None:
            executor.shutdown(cancel_futures=not finished)


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


# The readings a walk tries at each state: all that a scale can give for a
# total weight of 2.
_READINGS = (0, 1, 2)

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


def _reach(state: _State | None, p: int, q: int) -> tuple[int, ...] | None:
    # The support where the run of (p, q) from ``state`` ends, or None if a
    # state on the way rejects its reading.
    while state is not None and state[0] != _FOUND:
        state = _advance(state, weigh_runs(p, q, _query(state)))
    return None if state is None else state[1:]


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
    n: int, strategy: str, state: _State, blocks: _Blocks
) -> list[tuple[_State, _Blocks | None]]:
    """The children of ``state``, whose set is ``blocks``, each with its own
    set (None for a leaf), once each edge has passed its checks; else
    ``InternalContractError``."""
    runs = _query(state)
    children = []
    for o in _READINGS:
        child = _advance(state, o)
        if child is None:
            continue
        if child[0] == _FOUND:
            # A leaf's support is ordered, lies in the parent's set and
            # reads ``o``.
            _, p, q = child
            ok = p <= q and _inside(p, q, blocks) and weigh_runs(p, q, runs) == o
            shape = None
        else:
            shape = _shape(child)
            ok = _fits(blocks, runs, o, shape)
        if not ok:
            raise InternalContractError(_failure(n, strategy, blocks, runs, o, child))
        children.append((child, shape))
    return children


def _frontier(
    n: int,
    strategy: str,
    jobs: int,
    level: list[tuple[_State, _Blocks | None, int]] | None = None,
) -> list[tuple[_State, int]]:
    """The states one level of the tree below ``level`` (by default the
    root) at a time, each with its depth, until there are at least ``jobs``
    of them or every one is a leaf.  Their subtrees split the leaves below
    ``level`` between them.  Each edge on the way is checked as ``_walk``
    checks it."""
    if level is None:
        level = [(_root(_ROOTS[strategy], n), _top(n), 0)]
    while len(level) < jobs:
        below = []
        for state, blocks, depth in level:
            if blocks is None:
                below.append((state, blocks, depth))
                continue
            for child, shape in _children(n, strategy, state, blocks):
                below.append((child, shape, depth + 1))
        if len(below) == len(level):
            break
        level = below
    return [(state, depth) for state, _, depth in level]


def _walk(n: int, strategy: str, state: _State, depth: int) -> _Partial:
    """Walk the subtree below ``state``, at ``depth`` weighings from the
    root; return the exact partial sums of its leaves, as ``_run_range``
    does for a range.

    The walk branches on every reading 0, 1 or 2 that a state accepts, and
    checks each edge below ``state`` as ``_children`` does (see the module
    docstring); a failed check raises ``InternalContractError``.  The edge
    into ``state``, which is never the root, is ``_children``'s to check.
    A leaf's depth is its weighing count.
    """
    if state[0] == _FOUND:
        return 1, depth, depth, {state[2] - state[1]: [depth, 1]}
    count = 0
    total = 0
    worst = 0
    per_delta: dict[int, list[int]] = {}
    stack = [(state, _shape(state), depth)]
    pop = stack.pop
    push = stack.append
    while stack:
        state, blocks, depth = pop()
        # ``_children``, written out here because this loop runs once per
        # node: a leaf is counted where it is found, and never pushed.
        runs = _query(state)
        depth += 1
        for o in _READINGS:
            child = _advance(state, o)
            if child is None:
                continue
            if child[0] != _FOUND:
                shape = _shape(child)
                if not _fits(blocks, runs, o, shape):
                    raise InternalContractError(
                        _failure(n, strategy, blocks, runs, o, child)
                    )
                push((child, shape, depth))
                continue
            # A leaf's edge, as ``_children`` checks it.
            _, p, q = child
            for i0, i1, j0, j1 in blocks:
                if (
                    i0 <= p < i1
                    and j0 <= q < j1
                    and p <= q
                    and weigh_runs(p, q, runs) == o
                ):
                    break
            else:
                raise InternalContractError(
                    _failure(n, strategy, blocks, runs, o, child)
                )
            count += 1
            total += depth
            if depth > worst:
                worst = depth
            cell = per_delta.get(q - p)
            if cell is None:
                per_delta[q - p] = [depth, 1]
            else:
                cell[0] += depth
                cell[1] += 1
    return count, total, worst, per_delta


def _worker(job: tuple[int, str, _State, int]) -> _Partial:
    return _walk(*job)


def exhaustive_stats(
    n: int, strategy: str, *, threads: int | None = None
) -> StatsRow:
    """Earn ``strategy``'s statistics on every configuration of n coins.

    The walk of the strategy's decision tree (see the module docstring)
    visits one leaf per configuration, whose depth is that configuration's
    weighing count, and raises ``InternalContractError`` when an edge fails
    its checks or the leaves are not n + C(n, 2).
    Both strategies take every n that passes ``model.require_enumerable``
    (any 2 <= n <= 2**ENUMERATION_CAP_L, else ``TooLargeError`` before any
    worker starts).  ``l`` is log2 n for a power of two and None otherwise.
    Statistics are exact rationals; partials merge exactly, so the result is
    independent of partitioning.

    ``threads`` defaults to CW_THREADS or the usable CPUs, and is clamped to
    the usable CPUs.  Inside an open ``worker_pool`` (a CLI run opens one
    for all its sizes and both strategies) the call uses that pool with its
    worker count, and adds the kept partial of n//2 coins, if that size was
    walked in the block, in place of walking it again; outside one, a pool
    is opened for this call.  The root's children left to walk are walked
    in this process with one worker, or when they hold fewer than
    ``_POOL_MIN_CONFIGS`` configurations; else each job is the subtree
    below one state of a frontier of at least four states per worker.

    ``runtime_s`` is the wall time of this call.  The pool's workers start
    with its first job, so it includes their start-up when this call is the
    first in its block to send jobs to the pool: in a CLI run, the first
    size big enough for the pool.  It is reported, never part of any
    contract.
    """
    if not isinstance(strategy, str) or strategy not in _CORES:
        raise ValueError(f"unknown strategy {strategy!r}")
    require_enumerable(n)
    l = n.bit_length() - 1 if n & (n - 1) == 0 else None

    start = time.perf_counter()
    with worker_pool(threads):
        workers, executor, kept = _open_pool
        root = _root(_ROOTS[strategy], n)
        partials = []
        level = []
        for child, shape in _children(n, strategy, root, _top(n)):
            part = kept.get(child)
            if part is None:
                level.append((child, shape, 1))
                continue
            # A size walked in this block, one weighing deeper.
            count, total, worst, cells = part
            shifted = {
                delta: [dtotal + dcount, dcount]
                for delta, (dtotal, dcount) in cells.items()
            }
            partials.append((count, total + count, worst + 1, shifted))
        if executor is None or (
            config_count(n) - sum(part[0] for part in partials) < _POOL_MIN_CONFIGS
        ):
            # In the order one walk of the root pops them: reading 2 first.
            for state, _, depth in reversed(level):
                partials.append(_walk(n, strategy, state, depth))
        else:
            frontier = _frontier(n, strategy, workers * 4, level)
            jobs = [(n, strategy, state, depth) for state, depth in frontier]
            partials += executor.map(_worker, jobs)
    runtime = time.perf_counter() - start

    count = sum(part[0] for part in partials)
    if count != config_count(n):
        raise InternalContractError(
            f"{strategy} reached {count} leaves of n={n}, not the "
            f"{config_count(n)} configurations"
        )
    total = sum(part[1] for part in partials)
    worst = max(part[2] for part in partials)
    merged: dict[int, list[int]] = {}
    for part in partials:
        for delta, (dtotal, dcount) in part[3].items():
            cell = merged.setdefault(delta, [0, 0])
            cell[0] += dtotal
            cell[1] += dcount
    kept[root] = count, total, worst, merged
    per_delta = {
        delta: (Fraction(dtotal, dcount), dcount)
        for delta, (dtotal, dcount) in sorted(merged.items())
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
    nested, on one ``worker_pool`` (the open one, or one opened for this
    call), so a failed proposed walk raises before any nested job is sent.
    Past the enumeration cap it raises ``TooLargeError`` before any worker
    starts.
    """
    n = _coin_count(l)
    require_enumerable(n)
    with worker_pool(threads):
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
