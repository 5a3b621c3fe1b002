"""Exhaustive verification: run the strategies on every configuration.

The analytic side of the package predicts averages and maxima from
recursions; this module earns those numbers the hard way by executing a
strategy on all n + C(n, 2) configurations, checking that every run recovers
the exact weights and that every recorded outcome re-verifies against the
oracle, and aggregating exact statistics.  ``cross_check`` then compares the
two routes, demanding exact equality of rationals.

Work is partitioned by configuration-index ranges so it can spread over
processes; partial records hold integer sums, which merge exactly in any
order, and the mean only becomes a rational at the end.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Configuration,
    ENUMERATION_CAP_L,
    InternalContractError,
    InvalidSizeError,
    ProblemSize,
    TooLargeError,
    _subset_weight,
    config_count,
    delta_of,
    require_coin_count,
)
from . import analysis
from .analysis import rational_str
from .strategies import run_nested, run_proposed

__all__ = [
    "StatsRow",
    "PerDeltaRow",
    "CrossCheckReport",
    "FitResult",
    "exhaustive_stats",
    "cross_check",
    "fit_loglinear",
]

_STRATEGIES = {"proposed": run_proposed, "nested": run_nested}


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


def _config_at(n: int, k: int) -> Configuration:
    # Unrank: type-I configs occupy indices 0..n-1, then type-II pairs in
    # lexicographic order of (i, j).
    if k < n:
        return Configuration.type_one(n, k + 1)
    k -= n
    # Row a (0-based first index) starts at offset a*n - a*(a+1)/2; invert
    # with the quadratic formula and clamp.
    a = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * k)) // 2
    while a * n - a * (a + 1) // 2 > k:
        a -= 1
    while (a + 1) * n - (a + 1) * (a + 2) // 2 <= k:
        a += 1
    offset = a * n - a * (a + 1) // 2
    return Configuration.type_two(n, a + 1, a + 2 + (k - offset))


def _run_range(
    n: int, strategy: str, lo: int, hi: int
) -> tuple[int, int, int, dict[int, list[int]]]:
    """Execute configs with indices lo..hi-1; return exact partial sums.

    Every config must recover exactly and every recorded outcome must
    re-verify against the oracle; any discrepancy is an implementation bug.
    """
    runner = _STRATEGIES[strategy]
    count = 0
    total = 0
    worst = 0
    per_delta: dict[int, list[int]] = {}
    for k in range(lo, hi):
        config = _config_at(n, k)
        transcript = runner(config)
        if transcript.estimate != config.weights:
            raise InternalContractError(
                f"{strategy} failed to recover {config.as_text()}: "
                f"got {','.join(map(str, transcript.estimate))}"
            )
        for subset, outcome in transcript.queries:
            if _subset_weight(config, subset) != outcome:
                raise InternalContractError(
                    f"{strategy} transcript outcome {outcome} for subset "
                    f"{subset} does not re-verify on {config.as_text()}"
                )
        q = transcript.weighings
        count += 1
        total += q
        if q > worst:
            worst = q
        cell = per_delta.setdefault(delta_of(config), [0, 0])
        cell[0] += q
        cell[1] += 1
    return count, total, worst, per_delta


def _worker(args: tuple[int, str, int, int]):
    return _run_range(*args)


def exhaustive_stats(
    n: int, strategy: str, *, threads: int | None = None
) -> StatsRow:
    """Run ``strategy`` on every configuration of n coins and aggregate.

    The proposed strategy needs n a power of two; nested accepts any
    2 <= n <= 2**ENUMERATION_CAP_L.  Statistics are exact rationals; wall
    time is reported, never part of any contract.  ``threads`` defaults to
    CW_THREADS or the machine's CPU count; partials merge exactly so the
    result is independent of partitioning.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "proposed":
        size = ProblemSize.from_coin_count(n)
        l: int | None = size.l
    else:
        require_coin_count(n)
        l = n.bit_length() - 1 if n & (n - 1) == 0 else None
    if n > (1 << ENUMERATION_CAP_L):
        raise TooLargeError(
            f"n={n} exceeds the enumeration cap 2**{ENUMERATION_CAP_L}; "
            "use analysis-only mode"
        )

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
    conditional mean legitimately disagree.
    """
    size = ProblemSize.from_exponent(l)
    if l > ENUMERATION_CAP_L:
        raise TooLargeError(
            f"cross-check needs enumeration; l={l} exceeds {ENUMERATION_CAP_L}"
        )
    n = size.n
    analytic_avg = analysis.t_ave_proposed(l)
    proposed = exhaustive_stats(n, "proposed", threads=threads)
    nested = exhaustive_stats(n, "nested", threads=threads)

    nested_closed = analysis.nested_closed_forms(l)[1]
    nested_log_form = Fraction((2 * n + 1) * l - 2 * (n - 1), n + 1)
    nested_dp = analysis.nested_tables(n).opt2[n]
    predicted_max = analysis.t_max(l)

    mismatches: list[str] = []
    if analytic_avg != proposed.average:
        mismatches.append(
            f"proposed average: analytic {rational_str(analytic_avg)} != "
            f"exhaustive {rational_str(proposed.average)}"
        )
    if not nested_closed == nested_log_form == nested_dp == nested.average:
        mismatches.append(
            "nested average disagreement: closed "
            f"{rational_str(nested_closed)}, log-form "
            f"{rational_str(nested_log_form)}, recursion "
            f"{rational_str(nested_dp)}, exhaustive "
            f"{rational_str(nested.average)}"
        )
    if not proposed.max_weighings == nested.max_weighings == predicted_max:
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
        avg_equal=analytic_avg == proposed.average,
        nested_closed=nested_closed,
        nested_log_form=nested_log_form,
        nested_dp=nested_dp,
        nested_empirical=nested.average,
        nested_equal=nested_closed == nested_log_form == nested_dp == nested.average,
        predicted_max=predicted_max,
        max_proposed=proposed.max_weighings,
        max_nested=nested.max_weighings,
        max_equal=proposed.max_weighings == nested.max_weighings == predicted_max,
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
