"""Negative self-checks for the benchmark itself.

1. Every workload, run against a deliberately wrong reference
   (``run.py --expect-wrong``), must report ``"correct": false`` with every
   attempted operation failed, and exit with code 1.
2. A copy of the benchmark without the package beside it must exit with a
   nonzero code and print no result.

Usage: python3 perfbench/selfcheck.py   (from the root of a checkout)
Exit code 0 when the benchmark fails where it must, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOAD_NAMES


def run_bench(cwd: Path, *extra: str, workload: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    problems = []
    for workload in WORKLOAD_NAMES:
        done = run_bench(ROOT, "--expect-wrong", workload=workload)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if (done.returncode != 1 or result.get("correct") is not False
                or result.get("failed") != result.get("attempted")):
            problems.append(f"{workload}: wrong reference gave exit {done.returncode}, {result}")
        else:
            print(f"{workload}: wrong reference reported as failed "
                  f"({result['failed']} of {result['attempted']} operations)")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench(bare, workload=WORKLOAD_NAMES[0])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append(f"without the package: exit {done.returncode}, stdout {done.stdout!r}")
    else:
        print(f"without the package: exit {done.returncode}, no result printed")

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
