"""coinweigh benchmark: run one workload, check its outputs, print metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``exhaustive-l8``, ``trace-l12``,
``analytic``.  With ``--trace 0`` the workload's passes repeat until
``--seconds`` have been measured and the end-to-end metrics are printed;
with ``--trace 1`` the per-layer metrics of ``layers.py`` are printed
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  The full record (environment, metrics, failed
checks and, for a traced run, every span) is written to
``.perfbench/<workload>-seed<N>-trace<T>.json`` in the checkout.

``--expect-wrong`` compares every output against a deliberately wrong
reference; such a run must report ``"correct": false`` (see
``selfcheck.py``).  The exit code is 0 when every check passed, 1 when one
failed, and 2 when the package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("exhaustive-l8", "trace-l12", "analytic")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-wrong", action="store_true")
    return parser.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(args, workers: int, cpu: int | None) -> dict:
    import numpy

    return {
        "pinned_cpu": cpu,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from starting a fresh interpreter until the package is
    imported and the workload's inputs exist; one unrecorded warm-up start
    fills the bytecode cache first."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        if attempt:
            times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def measure(args, wl, checks, expect) -> tuple[dict, dict]:
    """End-to-end metrics, and the pass times they came from; passes
    repeat until ``--seconds`` are measured."""
    setup = measure_setup(args.workload, args.seed)
    inputs = wl.make_inputs(args.workload, args.seed)
    if args.workload == "analytic":
        wl.check_closed_form(checks, expect)
    run_pass = wl.PASSES[args.workload]
    passes: list[float] = []
    p50: list[float] = []
    p99: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        result = run_pass(inputs, checks, expect)
        passes.append(result.seconds)
        p50.append(statistics.median(result.op_seconds))
        p99.append(wl.percentile(result.op_seconds, 99))
    # Means over passes, not medians: the host's speed drifts in phases of
    # several seconds, and a mean over the whole run follows them smoothly
    # where a median jumps between them.
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.fmean(passes), "s"),
        "ops_per_s": (wl.OPS_PER_PASS[args.workload] * len(passes) / sum(passes), "1/s"),
        "op_us_p50": (statistics.fmean(p50) * 1e6, "us"),
        "op_us_p99": (statistics.fmean(p99) * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"passes": passes, "op_p50": p50, "op_p99": p99,
                     "ops_per_pass": wl.OPS_PER_PASS[args.workload]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import coinweigh from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    package = Path(wl.analysis.__file__).resolve().parent
    if package != (wl.SRC / "coinweigh").resolve():
        print(f"perfbench: coinweigh was imported from {package}, not this checkout",
              file=sys.stderr)
        return 2

    expect = wl.WRONG if args.expect_wrong else wl.CORRECT
    checks = wl.Checks()
    wl.OUT_DIR.mkdir(exist_ok=True)
    record: dict = {}
    if args.trace:
        import layers

        metrics, tracer = layers.collect(args.seed, checks, expect)
        record["spans"] = tracer.spans
        workers, cpu = wl.EXHAUSTIVE_WORKERS, None
    else:
        with wl.pinned(args.workload) as cpu:
            metrics, record["samples"] = measure(args, wl, checks, expect)
        workers = 1 if args.workload in wl.PINNED else wl.EXHAUSTIVE_WORKERS

    env = environment(args, workers, cpu)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(env=env, result=result, failures=checks.messages)
    out = wl.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    for message in checks.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
