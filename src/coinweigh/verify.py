"""Exhaustive verification: run the strategies on every configuration.

The analytic side of the package predicts averages and maxima from
recursions; this module earns those numbers the hard way by executing a
strategy on all n + C(n, 2) configurations, checking that every run recovers
the exact support and that every recorded outcome re-verifies against the
oracle, and aggregating exact statistics.  ``cross_check`` then compares the
two routes, demanding exact equality of rationals.

The exhaustive loop never builds a ``Configuration`` or a subset tuple: it
walks the supports (p, q) of ``model.iter_supports`` and calls the
strategies' interval cores, whose queries are runs (lo, hi) weighed by
``model.weigh_runs``.  Work is partitioned by ranges of support ranks so it
can spread over processes; partial records hold integer sums, which merge
exactly in any order, and the mean only becomes a rational at the end.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .model import (
    InternalContractError,
    InvalidSizeError,
    ProblemSize,
    config_count,
    iter_supports,
    require_enumerable,
    weigh_runs,
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
    """Analytic predictions vs exhaustive execution at one size."""

    l: int
    n: int
    analytic_avg: Fraction
    empirical_avg: Fraction
    avg_equal: bool
    nested_closed: Fraction
    nested_log_form: Fraction
    nested_dp: Fraction
    nested_empirical: Fraction
    nested_equal: bool
    predicted_max: int
    max_proposed: int
    max_nested: int
    max_equal: bool
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


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if not isinstance(threads, int) or threads < 1:
            raise InvalidSizeError(f"threads must be an integer >= 1, got {threads!r}")
        return threads
    env = os.environ.get("CW_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise InvalidSizeError(f"CW_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise InvalidSizeError(f"CW_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _run_range(
    n: int, strategy: str, lo: int, hi: int
) -> tuple[int, int, int, dict[int, list[int]]]:
    """Execute configs with ranks lo..hi-1; return exact partial sums.

    Every run must recover the true support and every recorded outcome must
    re-verify against the oracle; any discrepancy is an implementation bug.
    Per-class cells are keyed by δ = q - p and hold [weighings, configs].
    """
    core = _CORES[strategy]
    count = 0
    total = 0
    worst = 0
    per_delta: dict[int, list[int]] = {}
    for p, q in islice(iter_supports(n, lo), hi - lo):
        queries, found = core(n, p, q)
        if found != (p, q):
            raise InternalContractError(
                f"{strategy} failed to recover support {(p, q)} of n={n}: "
                f"got {found}"
            )
        for runs, outcome in queries:
            if weigh_runs(p, q, runs) != outcome:
                raise InternalContractError(
                    f"{strategy} transcript outcome {outcome} for runs {runs} "
                    f"does not re-verify on support {(p, q)} of n={n}"
                )
        weighings = len(queries)
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

    n must pass ``model.require_enumerable`` (any 2 <= n <=
    2**ENUMERATION_CAP_L, else ``TooLargeError`` before any worker starts),
    and the proposed strategy also needs n a power of two.  ``l`` is log2 n
    for a power of two and None otherwise.  Statistics are exact rationals;
    wall time is reported, never part of any contract.  ``threads`` defaults
    to CW_THREADS or the machine's CPU count; partials merge exactly so the
    result is independent of partitioning.
    """
    if strategy not in _CORES:
        raise ValueError(f"unknown strategy {strategy!r}")
    require_enumerable(n)
    if strategy == "proposed":
        ProblemSize.from_coin_count(n)
    l = n.bit_length() - 1 if n & (n - 1) == 0 else None

    total_configs = config_count(n)
    workers = min(_resolve_threads(threads), total_configs)
    start = time.perf_counter()
    if workers == 1:
        partials = [_run_range(n, strategy, 0, total_configs)]
    else:
        chunk_count = min(workers * 4, total_configs)
        bounds = [
            total_configs * part // chunk_count for part in range(chunk_count + 1)
        ]
        jobs = [
            (n, strategy, bounds[part], bounds[part + 1])
            for part in range(chunk_count)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_worker, jobs))
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
    depth law, of the nested average against the closed form,
    the divide-and-conquer recursion, and the direct log-form expression,
    and of both empirical maxima against 2l - 1.  Per-class rows are
    informational only: inside a class the analytic value and the empirical
    conditional mean legitimately disagree.  Past the enumeration cap,
    ``exhaustive_stats`` raises ``TooLargeError``.
    """
    n = ProblemSize.from_exponent(l).n
    proposed = exhaustive_stats(n, "proposed", threads=threads)
    nested = exhaustive_stats(n, "nested", threads=threads)

    analytic_avg = analysis.t_ave_proposed(l)
    nested_closed = analysis.nested_closed_forms(l)[1]
    nested_log_form = Fraction((2 * n + 1) * l - 2 * (n - 1), n + 1)
    nested_dp = analysis.nested_tables(n).opt2[n]
    predicted_max = analysis.t_max(l)

    avg_equal = analytic_avg == proposed.average
    nested_equal = nested_closed == nested_log_form == nested_dp == nested.average
    max_equal = proposed.max_weighings == nested.max_weighings == predicted_max
    mismatches: list[str] = []
    if not avg_equal:
        mismatches.append(
            f"proposed average: analytic {rational_str(analytic_avg)} != "
            f"exhaustive {rational_str(proposed.average)}"
        )
    if not nested_equal:
        mismatches.append(
            "nested average disagreement: closed "
            f"{rational_str(nested_closed)}, log-form "
            f"{rational_str(nested_log_form)}, recursion "
            f"{rational_str(nested_dp)}, exhaustive "
            f"{rational_str(nested.average)}"
        )
    if not max_equal:
        mismatches.append(
            f"max weighings: predicted {predicted_max}, proposed "
            f"{proposed.max_weighings}, nested {nested.max_weighings}"
        )

    table = analysis.t_table(l)
    per_delta = tuple(
        PerDeltaRow(
            delta=delta,
            analytic=analysis.t_given_delta(l, delta, table),
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
        avg_equal=avg_equal,
        nested_closed=nested_closed,
        nested_log_form=nested_log_form,
        nested_dp=nested_dp,
        nested_empirical=nested.average,
        nested_equal=nested_equal,
        predicted_max=predicted_max,
        max_proposed=proposed.max_weighings,
        max_nested=nested.max_weighings,
        max_equal=max_equal,
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
    points = [(l, float(v)) for l, v in values if l_min <= l <= l_max]
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
