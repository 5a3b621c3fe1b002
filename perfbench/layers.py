"""Traced run: per-layer metrics from spans recorded around calls into coinweigh.

Spans are recorded by this benchmark, never inside the package: either
around the benchmark's own calls, or by temporarily replacing a public
function on its module with a timing wrapper.  The wrapper only sees calls
that look the function up on the module at call time.  ``cli`` calls
``analysis.*`` and ``verify.*`` that way, ``verify.cross_check`` calls
``exhaustive_stats`` and ``analysis.*`` that way, and ``analysis`` calls
``alpha``, ``t_table`` and ``branch_weights`` that way.  ``verify`` binds
``run_proposed``/``run_nested`` and ``_subset_weight`` at import, so the
per-configuration model and strategy numbers at l = 8 come from driving
``enumerate_configs`` -> ``run_*`` -> ``weigh`` here instead.

A traced run measures every layer, whichever workload it is started for,
because its result carries every per-layer metric.  Each workload's pass
runs untraced just before and just after its traced pass; the difference is
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from collections import Counter

import workloads as wl
from coinweigh import analysis, model, strategies, verify

ANALYSIS_TRACED = (
    "t_table",
    "branch_weights",
    "t_given_delta",
    "t_ave_proposed",
    "t_max",
    "nested_tables",
    "nested_closed_forms",
    "lower_bounds",
    "asymptotic_constants",
)
VERIFY_TRACED = ("cross_check", "fit_loglinear")

L10_CHUNKS = 16
L10_CHUNK_SIZE = 256


def _plain(values):
    """Arguments worth keeping on a span: numbers and strings."""
    if isinstance(values, dict):
        return {k: _plain(v) for k, v in values.items()}
    if isinstance(values, (list, tuple)):
        return [_plain(v) for v in values]
    if isinstance(values, (bool, int, float, str)) or values is None:
        return values
    return type(values).__name__


class Tracer:
    """Spans kept in memory: ``[name, parent, trace, start, end, attrs]``.

    ``parent`` and ``trace`` are span indexes; a span without a parent starts
    a new trace, and its descendants share its index as their trace id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        trace = index if parent is None else self.spans[parent][2]
        record = [name, parent, trace, 0.0, 0.0, attrs]
        self.spans.append(record)
        self._stack.append(index)
        record[3] = time.perf_counter()
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, module, names, keep=None, counted=()):
        """Wrap ``module.<name>`` for each name with a span; ``counted``
        names get a call counter only.  ``keep`` maps a name to a function
        of the result whose dict is stored on the span."""
        keep = keep or {}
        originals = {name: getattr(module, name) for name in (*names, *counted)}
        prefix = module.__name__.rsplit(".", 1)[-1]

        def spanned(name, fn, pick):
            def traced(*args, **kwargs):
                with self.span(f"{prefix}.{name}", args=_plain(args), kwargs=_plain(kwargs)) as rec:
                    result = fn(*args, **kwargs)
                    if pick is not None:
                        rec[5].update(pick(result))
                return result
            return traced

        def tallied(name, fn):
            def counted_fn(*args, **kwargs):
                self.counts[f"{prefix}.{name}"] += 1
                return fn(*args, **kwargs)
            return counted_fn

        for name in names:
            setattr(module, name, spanned(name, originals[name], keep.get(name)))
        for name in counted:
            setattr(module, name, tallied(name, originals[name]))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def named(self, name: str, since: int = 0, where=None) -> list[list]:
        return [s for s in self.spans[since:] if s[0] == name and (where is None or where(s))]

    def children(self, index: int) -> list[list]:
        return [s for s in self.spans[index + 1 :] if s[1] == index]

    def self_time(self, index: int) -> float:
        return _dur(self.spans[index]) - sum(_dur(c) for c in self.children(index))


def _dur(span) -> float:
    return span[4] - span[3]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _overhead(metrics, workload, untraced: float, traced: float) -> None:
    """``untraced`` is the mean of one pass before and one after the traced one."""
    metrics[f"trace.{workload}.untraced_s"] = (untraced, "s")
    metrics[f"trace.{workload}.traced_s"] = (traced, "s")
    metrics[f"trace.{workload}.overhead_s"] = (traced - untraced, "s")


def _gc_totals() -> tuple[int, int]:
    stats = gc.get_stats()
    return sum(g["collections"] for g in stats), sum(g["collected"] for g in stats)


def trace_group(seed, tracer: Tracer, checks: wl.Checks, expect: wl.Expected, metrics) -> int:
    sample = wl.trace_sample(seed)
    before = wl.trace_pass(sample, checks, expect).seconds
    since = len(tracer.spans)
    gc_collections = gc_collected = 0
    roots = []
    for entry in sample:
        with tracer.span("trace-l12.config", entry=list(entry)) as root:
            with tracer.span("model.config_build"):
                config = wl.build_config(entry)
            transcripts = []
            runners = (("run_proposed", strategies.run_proposed),
                       ("run_nested", strategies.run_nested))
            for name, run in runners:
                gc_before = _gc_totals()
                with tracer.span(f"strategies.{name}.l12"):
                    transcripts.append(run(config))
                gc_after = _gc_totals()
                gc_collections += gc_after[0] - gc_before[0]
                gc_collected += gc_after[1] - gc_before[1]
            reverified = True
            for transcript in transcripts:
                for subset, outcome in transcript.queries:
                    with tracer.span("model.weigh"):
                        reverified &= model.weigh(config, subset) == outcome
        roots.append(root)
        if reverified:
            wl.check_trace_run(entry, config, *transcripts, checks, expect)
        else:
            checks.record(False, f"trace-l12 configuration {entry}: outcome does not re-verify")
    after = wl.trace_pass(sample, checks, expect).seconds
    _overhead(metrics, "trace-l12", (before + after) / 2, sum(_dur(r) for r in roots))

    builds = [_dur(s) for s in tracer.named("model.config_build", since)]
    weighs = [_dur(s) for s in tracer.named("model.weigh", since)]
    metrics["model.config_build.us_p50"] = (statistics.median(builds) * 1e6, "us")
    metrics["model.config_build.calls"] = (len(builds), "count")
    metrics["model.weigh.us_per_call"] = (sum(weighs) / len(weighs) * 1e6, "us")
    metrics["model.weigh.calls"] = (len(weighs), "count")
    for name in ("run_proposed", "run_nested"):
        runs = [_dur(s) for s in tracer.named(f"strategies.{name}.l12", since)]
        metrics[f"strategies.{name}.l12.us_p50"] = (statistics.median(runs) * 1e6, "us")
        metrics[f"strategies.{name}.l12.us_p99"] = (wl.percentile(runs, 99) * 1e6, "us")
    per_1000 = 1000 / (2 * len(sample))
    metrics["strategies.gc_collections"] = (gc_collections * per_1000, "count/1000runs")
    metrics["strategies.gc_collected"] = (gc_collected * per_1000, "count/1000runs")
    return 0


def _drive_l8(checks: wl.Checks, expect: wl.Expected, metrics) -> None:
    """enumerate_configs -> run_* -> weigh over every configuration at l = 8."""
    l = wl.EXHAUSTIVE_L
    cap = expect.max_weighings(l)
    runners = {"run_proposed": strategies.run_proposed, "run_nested": strategies.run_nested}
    run_s = dict.fromkeys(runners, 0.0)
    build_s = 0.0
    configs = queries = 0
    configs_iter = model.enumerate_configs(1 << l)
    while True:
        start = time.perf_counter()
        config = next(configs_iter, None)
        build_s += time.perf_counter() - start
        if config is None:
            break
        configs += 1
        ok = True
        for name, run in runners.items():
            transcript, seconds = _timed(run, config)
            run_s[name] += seconds
            queries += transcript.weighings
            ok = ok and (
                transcript.estimate == config.weights
                and transcript.weighings <= cap
                and all(model.weigh(config, s) == o for s, o in transcript.queries)
            )
            if name == "run_nested":
                ok = ok and strategies.check_nested(transcript)
        checks.record(ok, f"l={l} configuration {config.support}")
    metrics["model.enumerate_configs.us_per_config"] = (build_s / configs * 1e6, "us")
    for name, seconds in run_s.items():
        metrics[f"strategies.{name}.l8.us_per_run"] = (seconds / configs * 1e6, "us")
    metrics["strategies.queries.l8"] = (queries, "count")
    metrics["strategies.runs.l8"] = (2 * configs, "count")
    metrics["strategies.queries_per_run"] = (queries / (2 * configs), "count")


def _exhaustive_layers(checks: wl.Checks, expect: wl.Expected, metrics) -> None:
    n = 1 << wl.EXHAUSTIVE_L
    expected_avg = {
        "proposed": wl.t_ave_closed_form(wl.EXHAUSTIVE_L) + expect.offset,
        "nested": analysis.nested_closed_forms(wl.EXHAUSTIVE_L)[1] + expect.offset,
    }
    base = {1: 0.0, wl.EXHAUSTIVE_WORKERS: 0.0}
    for strategy, average in expected_avg.items():
        rows = {}
        for workers in base:
            rows[workers], seconds = _timed(verify.exhaustive_stats, n, strategy, threads=workers)
            base[workers] += seconds
        one, many = rows[1], rows[wl.EXHAUSTIVE_WORKERS]
        checks.record(
            one.average == many.average == average
            and one.max_weighings == many.max_weighings == expect.max_weighings(wl.EXHAUSTIVE_L)
            and one.per_delta == many.per_delta,
            f"exhaustive_stats({n}, {strategy!r}) with 1 and {wl.EXHAUSTIVE_WORKERS} workers",
        )
        metrics[f"verify.exhaustive_stats.us_per_config.{strategy}.l8"] = (
            one.runtime_s / one.configs * 1e6, "us")
    metrics["verify.pool_speedup.l8.base_1w_s"] = (base[1], "s")
    metrics[f"verify.pool_speedup.l8.base_{wl.EXHAUSTIVE_WORKERS}w_s"] = (
        base[wl.EXHAUSTIVE_WORKERS], "s")
    metrics["verify.pool_speedup.l8"] = (base[1] / base[wl.EXHAUSTIVE_WORKERS], "ratio")

    # A full l = 10 run takes over two minutes per strategy, so time evenly
    # spaced chunks of the same per-range executor exhaustive_stats uses.
    l10, n10 = 10, 1 << 10
    total = model.config_count(n10)
    for strategy in expected_avg:
        seconds = 0.0
        configs = 0
        for chunk in range(L10_CHUNKS):
            lo = (2 * chunk + 1) * total // (2 * L10_CHUNKS) - L10_CHUNK_SIZE // 2
            (count, _, worst, _), elapsed = _timed(
                verify._run_range, n10, strategy, lo, lo + L10_CHUNK_SIZE)
            seconds += elapsed
            configs += count
            checks.record(
                count == L10_CHUNK_SIZE and worst <= expect.max_weighings(l10),
                f"l=10 {strategy} configurations {lo}..{lo + L10_CHUNK_SIZE - 1}",
            )
        per_config = seconds / configs * 1e6
        l8 = metrics[f"verify.exhaustive_stats.us_per_config.{strategy}.l8"][0]
        metrics[f"verify.exhaustive_stats.us_per_config.{strategy}.l10"] = (per_config, "us")
        metrics[f"verify.exhaustive_stats.l10_over_l8.{strategy}"] = (per_config / l8, "ratio")


def exhaustive_group(_seed, tracer: Tracer, checks: wl.Checks, expect: wl.Expected, metrics) -> int:
    argv = wl.make_inputs("exhaustive-l8", 0)
    before = wl.exhaustive_pass(argv, checks, expect).seconds
    since = len(tracer.spans)
    keep = {"exhaustive_stats": lambda row: {"runtime_s": row.runtime_s}}
    with tracer.patched(wl.cli, ("main",)), \
            tracer.patched(verify, (*VERIFY_TRACED, "exhaustive_stats"), keep=keep), \
            tracer.patched(analysis, ANALYSIS_TRACED, counted=("alpha",)):
        result = wl.exhaustive_pass(argv, checks, expect)
    after = wl.exhaustive_pass(argv, checks, expect).seconds
    _overhead(metrics, "exhaustive-l8", (before + after) / 2, result.seconds)

    stats = tracer.named("verify.exhaustive_stats", since)
    metrics["verify.exhaustive_stats.overhead_s"] = (
        sum(_dur(s) - s[5]["runtime_s"] for s in stats), "s")
    metrics["verify.workers"] = (
        max(min(s[5]["kwargs"]["threads"], model.config_count(s[5]["args"][0])) for s in stats),
        "count")
    analytic = 0.0
    for index in range(since, len(tracer.spans)):
        if tracer.spans[index][0] == "verify.cross_check":
            analytic += sum(
                _dur(c) for c in tracer.children(index) if c[0].startswith("analysis."))
    metrics["verify.cross_check.analytic_s"] = (analytic, "s")
    _cli_self(tracer, since, metrics)

    _drive_l8(checks, expect, metrics)
    _exhaustive_layers(checks, expect, metrics)
    return result.output_bytes


def _cli_self(tracer: Tracer, since: int, metrics) -> None:
    """cli.main time minus the time inside the verify.* and analysis.* calls."""
    for index in range(since, len(tracer.spans)):
        span = tracer.spans[index]
        if span[0] == "cli.main":
            command = span[5]["args"][0][0]
            metrics[f"cli.main.{command}.self_s"] = (tracer.self_time(index), "s")


def analytic_group(_seed, tracer: Tracer, checks: wl.Checks, expect: wl.Expected, metrics) -> int:
    inputs = wl.make_inputs("analytic", 0)
    before = wl.analytic_pass(inputs, checks, expect).seconds
    since = len(tracer.spans)
    tracer.counts.clear()
    with tracer.patched(wl.cli, ("main",)), \
            tracer.patched(verify, VERIFY_TRACED), \
            tracer.patched(analysis, ANALYSIS_TRACED, counted=("alpha",)):
        result = wl.analytic_pass(inputs, checks, expect)
    after = wl.analytic_pass(inputs, checks, expect).seconds
    _overhead(metrics, "analytic", (before + after) / 2, result.seconds)

    def call_s(name, where):
        return statistics.median(_dur(s) for s in tracer.named(name, since, where))

    def mode(span):
        args, kwargs = span[5]["args"], span[5]["kwargs"]
        return kwargs.get("mode", args[1] if len(args) > 1 else "exact")

    metrics["analysis.t_table.l20.s"] = (
        call_s("analysis.t_table", lambda s: s[5]["args"][0] == 20), "s")
    for kind, l in (("exact", 12), ("float", 20)):
        metrics[f"analysis.t_ave_proposed.{kind}.l{l}.s"] = (call_s(
            "analysis.t_ave_proposed", lambda s: s[5]["args"][0] == l and mode(s) == kind), "s")
    metrics[f"analysis.nested_tables.s{wl.NESTED_S}.s"] = (
        call_s("analysis.nested_tables", lambda s: s[5]["args"][0] == wl.NESTED_S), "s")
    metrics["analysis.alpha.calls"] = (tracer.counts["analysis.alpha"], "count")
    per_delta = [_dur(s) for s in tracer.named(
        "analysis.t_given_delta", since, lambda s: s[5]["args"][0] == wl.DELTA_L)]
    metrics[f"analysis.t_given_delta.l{wl.DELTA_L}.us_per_call"] = (
        sum(per_delta) / len(per_delta) * 1e6, "us")
    _cli_self(tracer, since, metrics)

    # The remaining baseline row, timed untraced.
    _, seconds = _timed(analysis.nested_tables, 1024)
    metrics["analysis.nested_tables.s1024.s"] = (seconds, "s")
    wl.check_closed_form(checks, expect)
    return result.output_bytes


def collect(seed: int, checks: wl.Checks, expect: wl.Expected) -> tuple[dict, Tracer]:
    """Every per-layer metric as ``{name: (value, unit)}``, and the spans."""
    tracer = Tracer()
    metrics: dict[str, tuple[float, str]] = {}
    output = 0
    groups = (("exhaustive-l8", exhaustive_group), ("analytic", analytic_group),
              ("trace-l12", trace_group))
    for workload, group in groups:
        # Spans kept from earlier groups would otherwise make every later
        # full collection slower than it is in an untraced run.
        gc.collect()
        gc.freeze()
        with wl.pinned(workload):
            output += group(seed, tracer, checks, expect, metrics)
    gc.unfreeze()
    metrics["cli.output_bytes"] = (output, "bytes")
    return metrics, tracer
