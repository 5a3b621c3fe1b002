"""Workload inputs, timed passes and correctness oracles for the benchmark.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and imports ``coinweigh`` from it, so the benchmark always
measures the source tree it sits in.

Each workload is a *pass* over inputs made from the seed:

* ``exhaustive-l8``: one in-process ``coinweigh verify --l-max 8 --threads 2``
  (43,945 configurations per strategy over l = 1..8, every transcript
  re-verified).  An op is one configuration run by both strategies and
  re-verified; ops are not timed one by one, so an op's time is the pass
  time divided by 43,945.
* ``trace-l12``: a seeded sample of configurations at n = 4096 drawn from the
  paper's prior, each built, run by both strategies and re-verified with
  ``model.weigh``; an op is one configuration and is timed on its own.
* ``analytic``: ``sweep --l-max 20 --fit``, ``analyze --l 12 --mode exact``,
  ``nested_tables(2048)`` and ``t_given_delta(11, d)`` for every d; an op is
  one whole pass.  No strategy is executed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from coinweigh import analysis, cli, model, strategies  # noqa: E402

EXHAUSTIVE_L = 8
EXHAUSTIVE_ARGV = ["verify", "--l-max", str(EXHAUSTIVE_L), "--threads", "2"]
EXHAUSTIVE_WORKERS = 2
EXHAUSTIVE_CONFIGS = sum(model.config_count(1 << l) for l in range(1, EXHAUSTIVE_L + 1))

TRACE_L = 12
TRACE_N = 1 << TRACE_L
# 1000 configurations leave ten samples beyond the 99th percentile.
TRACE_SAMPLE = 1000

SWEEP_L_MAX = 20
ANALYZE_ARGV = ["analyze", "--l", "12", "--mode", "exact"]
NESTED_S = 2048
DELTA_L = 11

# Scratch files (the sweep CSV, result records) stay inside the checkout.
OUT_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Expected:
    """Reference values the oracles compare against.

    The digests are of the output of the package at its seed commit; the
    package's CLI and CSV output must stay byte-identical.
    """

    verify8_stdout: str = "89b8639fabb9984a68ba8945e01f2c999c1ba20089ed20a147d130a308983d46"
    sweep20_csv: str = "bcdf362afc18a6ebb8377d57e5ba80e2ca56424f37274740151b61a01a49022d"
    analyze12_stdout: str = "0cf9b1f467246eb0ca9924fa633e9a317623a25fa325f457f677a9b6becc4da7"
    # Added to every exact analytic expectation; nonzero only in the
    # negative self-check.
    offset: Fraction = Fraction(0)

    def max_weighings(self, l: int) -> int:
        # The wrong reference caps runs below any real run's length.
        return 2 * l - 1 if self.offset == 0 else 0


CORRECT = Expected()
# A deliberately wrong reference: every oracle must then report failure.
WRONG = Expected(
    verify8_stdout="0" * 64,
    sweep20_csv="0" * 64,
    analyze12_stdout="0" * 64,
    offset=Fraction(1),
)


@dataclass
class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


class PassResult(NamedTuple):
    """One pass: its seconds, the seconds of each op, and the bytes of
    byte-stable CLI output it produced (stdout, and the sweep's CSV)."""

    seconds: float
    op_seconds: list[float]
    output_bytes: int


# Workloads that start no worker process run on one CPU, so the scheduler
# cannot move them between CPUs mid-run; on a 2-vCPU VM five unpinned
# trace-l12 runs spread by 0.23 (quartile distance over median), pinned 0.04.
PINNED = ("trace-l12", "analytic")


@contextlib.contextmanager
def pinned(workload: str):
    """Hold this process on the last CPU it may use while ``workload`` runs;
    yields that CPU, or None for a workload with a worker pool."""
    allowed = os.sched_getaffinity(0)
    if workload not in PINNED:
        yield None
        return
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def t_ave_closed_form(l: int) -> Fraction:
    """4l/3 - 4/9 - (3l - 4 - 4/n) / (9(n+1)) at n = 2**l."""
    n = 1 << l
    return Fraction(4 * l, 3) - Fraction(4, 9) - (3 * l - 4 - Fraction(4, n)) / (9 * (n + 1))


def trace_sample(seed: int) -> list[tuple[int, ...]]:
    """Configurations at n = 4096 drawn from the paper's prior.

    Type I (one coin of weight 2) with probability 2/(n+1), else a uniform
    pair; an entry is ``(pos,)`` or ``(i, j)`` with i < j.
    """
    rng = random.Random(seed)
    n = TRACE_N
    sample = []
    for _ in range(TRACE_SAMPLE):
        if rng.random() < 2 / (n + 1):
            sample.append((rng.randint(1, n),))
        else:
            sample.append(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return sample


def make_inputs(workload: str, seed: int):
    """Everything a pass needs; only the trace sample depends on the seed."""
    if workload == "exhaustive-l8":
        return list(EXHAUSTIVE_ARGV)
    if workload == "trace-l12":
        return trace_sample(seed)
    if workload == "analytic":
        csv = OUT_DIR / f"sweep-{os.getpid()}.csv"
        sweep = ["sweep", "--l-max", str(SWEEP_L_MAX), "--fit", "--out", str(csv)]
        return sweep, list(ANALYZE_ARGV), csv
    raise ValueError(f"unknown workload {workload!r}")


def build_config(entry: tuple[int, ...]) -> model.Configuration:
    if len(entry) == 1:
        return model.Configuration.type_one(TRACE_N, entry[0])
    return model.Configuration.type_two(TRACE_N, entry[0], entry[1])


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def exhaustive_pass(argv, checks: Checks, expect: Expected) -> PassResult:
    """One verify call; an op's time is the pass time over 43,945."""
    start = time.perf_counter()
    code, stdout = run_cli(argv)
    elapsed = time.perf_counter() - start
    checks.record(
        code == 0 and digest(stdout) == expect.verify8_stdout,
        f"verify --l-max {EXHAUSTIVE_L}: exit {code}, stdout sha256 {digest(stdout)}",
    )
    return PassResult(elapsed, [elapsed / EXHAUSTIVE_CONFIGS], len(stdout.encode()))


def check_trace_run(entry, config, proposed, nested, checks: Checks, expect: Expected) -> None:
    """Recovery, at most 2l - 1 weighings, and the nested discipline."""
    cap = expect.max_weighings(TRACE_L)
    ok = (
        proposed.estimate == config.weights
        and nested.estimate == config.weights
        and proposed.weighings <= cap
        and nested.weighings <= cap
        and strategies.check_nested(nested)
    )
    checks.record(ok, f"trace-l12 configuration {entry}")


def trace_pass(sample, checks: Checks, expect: Expected) -> PassResult:
    """Each configuration timed from build through re-verification."""
    weigh = model.weigh
    latencies = []
    for entry in sample:
        start = time.perf_counter()
        config = build_config(entry)
        proposed = strategies.run_proposed(config)
        nested = strategies.run_nested(config)
        reverified = all(
            weigh(config, subset) == outcome
            for transcript in (proposed, nested)
            for subset, outcome in transcript.queries
        )
        latencies.append(time.perf_counter() - start)
        if not reverified:
            checks.record(False, f"trace-l12 configuration {entry}: outcome does not re-verify")
            continue
        check_trace_run(entry, config, proposed, nested, checks, expect)
    return PassResult(sum(latencies), latencies, 0)


def analytic_pass(inputs, checks: Checks, expect: Expected) -> PassResult:
    sweep_argv, analyze_argv, csv = inputs
    start = time.perf_counter()
    sweep_code, _ = run_cli(sweep_argv)
    analyze_code, analyze_out = run_cli(analyze_argv)
    tables = analysis.nested_tables(NESTED_S)
    table = analysis.t_table(DELTA_L)
    per_delta = [analysis.t_given_delta(DELTA_L, d, table) for d in range(1 << DELTA_L)]
    elapsed = time.perf_counter() - start
    csv_bytes = csv.read_bytes() if sweep_code == 0 else b""
    csv.unlink(missing_ok=True)
    check_analytic(sweep_code, csv_bytes, analyze_code, analyze_out, tables, per_delta,
                   checks, expect)
    return PassResult(elapsed, [elapsed], len(csv_bytes) + len(analyze_out.encode()))


def check_analytic(sweep_code, csv_bytes, analyze_code, analyze_out, tables, per_delta,
                   checks: Checks, expect: Expected) -> None:
    checks.record(
        sweep_code == 0 and digest(csv_bytes) == expect.sweep20_csv,
        f"sweep --l-max {SWEEP_L_MAX} --fit: exit {sweep_code}, CSV sha256 {digest(csv_bytes)}",
    )
    checks.record(
        analyze_code == 0 and digest(analyze_out) == expect.analyze12_stdout,
        f"analyze: exit {analyze_code}, stdout sha256 {digest(analyze_out)}",
    )
    checks.record(
        tables.opt2[NESTED_S] == analysis.nested_closed_forms(DELTA_L)[1] + expect.offset,
        f"nested_tables({NESTED_S}).opt2[{NESTED_S}] != nested_closed_forms({DELTA_L})",
    )
    # The class-weighted mix of the per-class values is the overall average:
    # P_0 = 2/(n+1), P_d = 2(n-d)/(n(n+1)).
    n = 1 << DELTA_L
    mixed = Fraction(2, n + 1) * per_delta[0] + sum(
        Fraction(2 * (n - d), n * (n + 1)) * per_delta[d] for d in range(1, n)
    )
    checks.record(
        mixed == t_ave_closed_form(DELTA_L) + expect.offset,
        f"class-weighted t_given_delta({DELTA_L}, d) != closed-form average",
    )


def check_closed_form(checks: Checks, expect: Expected, l_max: int = 12) -> None:
    """t_ave_proposed(l) equals the closed form exactly for l = 1..l_max."""
    for l in range(1, l_max + 1):
        checks.record(
            analysis.t_ave_proposed(l) == t_ave_closed_form(l) + expect.offset,
            f"t_ave_proposed({l}) != closed form",
        )


PASSES = {
    "exhaustive-l8": exhaustive_pass,
    "trace-l12": trace_pass,
    "analytic": analytic_pass,
}

# What one op is on each workload, and how many a pass holds.
OPS_PER_PASS = {
    "exhaustive-l8": EXHAUSTIVE_CONFIGS,
    "trace-l12": TRACE_SAMPLE,
    "analytic": 1,
}
