"""Exhaustive verification: run the strategies on every configuration.

The analytic side of the package predicts averages and maxima from
recursions; this module earns those numbers the hard way by executing a
strategy on all n + C(n, 2) configurations, checking that every run recovers
the exact support, and aggregating exact statistics.  ``cross_check`` then
compares the two routes, demanding exact equality of rationals.

The exhaustive loop never builds a ``Configuration`` or a subset tuple: it
walks the supports (p, q) of ``model.iter_supports`` and hands the
strategies' interval cores the scale ``ask`` of ``model.oracle``.  A core
sees only the readings of ``ask``, whose log holds each weighing with the
scale's own answer, so no outcome needs weighing again: a run that returns
(p, q) has identified the support from true readings.  Work is partitioned
by ranges of support ranks so it can spread over processes; partial records
hold integer sums, which merge exactly in any order, and the mean only
becomes a rational at the end.

A CLI run opens one ``worker_pool`` around all of its sizes, and every
``exhaustive_stats`` call inside it sends its chunks to that one pool; a
call outside any ``worker_pool`` opens a pool for itself.  ``cross_check``
computes its analytic side first and then runs the strategies in turn, so
a failed proposed run returns before any nested chunk is sent.  The pool
never outlives the block that opened it.
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
    _coin_count,
    config_count,
    iter_supports,
    oracle,
    require_enumerable,
)
from . import analysis
from .analysis import rational_str
from .strategies import _nested_core, _proposed_core

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


# The open ``worker_pool``: (workers, executor), no executor for one worker.
_open_pool: tuple[int, ProcessPoolExecutor | None] | None = None


@contextmanager
def worker_pool(threads: int | None = None) -> Iterator[None]:
    """Share one worker pool among every exhaustive run inside the block.

    The worker count is resolved once, as for ``exhaustive_stats``; with one
    worker no process starts.  A block opened inside another checks
    ``threads`` and joins the outer pool.  On leaving the block the pool is
    shut down, and when an exception leaves it (a failed check, a broken
    pool, Ctrl-C) its queued chunks are cancelled first.  The pool never
    outlives the block, so its workers never run code older than the call
    that opened it.
    """
    global _open_pool
    workers = _resolve_threads(threads)
    if _open_pool is not None:
        yield
        return
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    _open_pool = workers, executor
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
    keyed by δ = q - p and hold [weighings, configs].
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


def _worker(args: tuple[int, str, int, int]):
    return _run_range(*args)


def exhaustive_stats(
    n: int, strategy: str, *, threads: int | None = None
) -> StatsRow:
    """Run ``strategy`` on every configuration of n coins and aggregate.

    Both strategies take every n that passes ``model.require_enumerable``
    (any 2 <= n <= 2**ENUMERATION_CAP_L, else ``TooLargeError`` before any
    worker starts).  ``l`` is log2 n for a power of two and None otherwise.
    Statistics are exact rationals; partials merge exactly, so the result is
    independent of partitioning.

    ``threads`` defaults to CW_THREADS or the usable CPUs, and is clamped to
    the usable CPUs.  Inside an open ``worker_pool`` (a CLI run opens one
    for all its sizes and both strategies) the chunks run on that pool with
    its worker count; outside one, a pool is opened for this call.

    ``runtime_s`` is the wall time this call waited for its chunks, and
    includes pool start-up only when the call opened its own pool.  It is
    reported, never part of any contract.
    """
    if not isinstance(strategy, str) or strategy not in _CORES:
        raise ValueError(f"unknown strategy {strategy!r}")
    require_enumerable(n)
    l = n.bit_length() - 1 if n & (n - 1) == 0 else None

    start = time.perf_counter()
    with worker_pool(threads):
        workers, executor = _open_pool
        configs = config_count(n)
        chunks = 1 if executor is None else min(workers * 4, configs)
        bounds = [configs * part // chunks for part in range(chunks + 1)]
        jobs = [(n, strategy, bounds[part], bounds[part + 1]) for part in range(chunks)]
        partials = list((map if executor is None else executor.map)(_worker, jobs))
    runtime = time.perf_counter() - start

    count = sum(part[0] for part in partials)
    total = sum(part[1] for part in partials)
    worst = max(part[2] for part in partials)
    merged: dict[int, list[int]] = {}
    for part in partials:
        for delta, (dtotal, dcount) in part[3].items():
            cell = merged.setdefault(delta, [0, 0])
            cell[0] += dtotal
            cell[1] += dcount
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
    call), so a failed proposed run raises before any nested chunk is sent.
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
