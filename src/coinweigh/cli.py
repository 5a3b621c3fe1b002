"""Command-line front end.

Four subcommands:

* ``trace``    run one strategy on one configuration and print the weighings
* ``analyze``  print the sweep's row at one size: analytic averages, maxima
               and lower bounds
* ``verify``   cross-check analytic predictions against exhaustive execution
* ``sweep``    write the size-sweep comparison table as CSV

Exit codes: 0 success, 1 verification failure, 2 usage error, 130
interrupted by Ctrl-C.  File output is written in one shot after all
computation succeeds, so failures never leave partial files behind.  All
numeric formatting is fixed, making output byte-stable across runs and
machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis, verify
from .analysis import rational_str, sig6
from .model import (
    CoinWeighError,
    Configuration,
    ENUMERATION_CAP_L,
    InternalContractError,
)
from .strategies import Transcript, run_nested, run_proposed


def _fmt_subset(subset: tuple[int, ...]) -> str:
    return "{" + ",".join(map(str, subset)) + "}"


def _print_transcript(transcript: Transcript) -> None:
    for step, (subset, outcome) in enumerate(transcript.queries, start=1):
        print(f"step {step}: weigh {_fmt_subset(subset)} -> {outcome}")
    print("recovered: " + ",".join(map(str, transcript.estimate)))
    print(f"weighings: {transcript.weighings}")


def cmd_trace(args: argparse.Namespace) -> int:
    config = Configuration.from_text(args.weights)
    runner = run_proposed if args.strategy == "proposed" else run_nested
    transcript = runner(config)
    if args.json:
        doc = {
            "strategy": args.strategy,
            "n": config.n,
            "steps": [
                {"subset": list(subset), "outcome": outcome}
                for subset, outcome in transcript.queries
            ],
            "recovered": list(transcript.estimate),
            "weighings": transcript.weighings,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        _print_transcript(transcript)
    return 0


def _size_row(l: int, exact: bool) -> dict:
    """The analytic columns at n = 2**l, keyed in CSV order.

    The proposed average is a Fraction when ``exact`` and its binary64
    rounding otherwise; the nested average is always a Fraction.
    """
    # The bounds reject sizes too large for binary64, so they go first.
    n = analysis._bounds_size(l)
    bounds = analysis.lower_bounds(n)
    worst = analysis.t_max(l)
    return {
        "l": l,
        "n": n,
        "prop_avg": analysis.t_ave_proposed(l, mode="exact" if exact else "float"),
        "prop_max": worst,
        "nested_avg": analysis.nested_closed_forms(l)[1],
        "nested_max": worst,
        "lb_avg": bounds.ave_lb,
        "lb_max": bounds.worst_lb,
    }


def _json_row(row: dict) -> dict:
    """A row ready for ``json.dumps``: rationals become ``num/den`` strings."""
    return {
        key: rational_str(value) if isinstance(value, Fraction) else value
        for key, value in row.items()
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    exact = args.mode == "exact"
    row = _size_row(args.l, exact)
    if not exact:
        row["nested_avg"] = float(row["nested_avg"])
    if args.json:
        print(json.dumps({**_json_row(row), "mode": args.mode}, sort_keys=True))
        return 0
    for key, value in row.items():
        if key in ("lb_avg", "lb_max"):
            value = f"{value:.4f}"
        elif isinstance(value, Fraction):
            value = f"{rational_str(value)} ({float(value):.6f})"
        elif isinstance(value, float):
            value = f"{value:.6f}"
        print(key, value)
    return 0


_PER_DELTA_SHOWN = 6

# The fields of a ``verify.CrossCheckReport`` that ``verify`` renders, besides
# its per-δ rows; ``--json`` prints them all.
_REPORT_FIELDS = (
    "l", "n", "ok", "analytic_avg", "empirical_avg", "nested_closed",
    "nested_empirical", "predicted_max", "max_proposed", "max_nested", "mismatches",
)


def cmd_verify(args: argparse.Namespace) -> int:
    l_max = args.l_max
    if l_max < 1 or l_max > ENUMERATION_CAP_L:
        raise CoinWeighError(
            f"--l-max must be in 1..{ENUMERATION_CAP_L}, got {l_max}"
        )
    doc = []
    failed_at: int | None = None
    for l in range(1, l_max + 1):
        report = verify.cross_check(l, threads=args.threads)
        # Each report is rendered once; the text lines print from it.
        row = _json_row({key: getattr(report, key) for key in _REPORT_FIELDS})
        row["per_delta"] = [_json_row(vars(cell)) for cell in report.per_delta]
        doc.append(row)
        if not args.json:
            status = "PASS" if report.ok else "FAIL"
            print(
                f"l={l}: {status} avg={row['empirical_avg']} "
                f"nested={row['nested_empirical']} max={row['max_proposed']}"
            )
            shown = row["per_delta"][:_PER_DELTA_SHOWN]
            rows = "; ".join(
                f"d={cell['delta']}: {cell['analytic']} vs "
                f"{cell['empirical']} ({cell['configs']} cfgs)"
                for cell in shown
            )
            extra = len(report.per_delta) - len(shown)
            tail = f"; ... {extra} more" if extra > 0 else ""
            print(f"  per-delta analytic vs empirical (info): {rows}{tail}")
            for line in report.mismatches:
                print(f"  mismatch: {line}")
        if not report.ok and failed_at is None:
            failed_at = l
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    if failed_at is None:
        if not args.json:
            print(f"PASS l=1..{l_max}")
        return 0
    if not args.json:
        print(f"FAIL l={failed_at}")
    return 1


def _csv_cell(value: int | Fraction | float | None) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else sig6(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    l_max = args.l_max
    if l_max < 2:
        raise CoinWeighError(f"--l-max must be >= 2 for a sweep, got {l_max}")
    # Reject a top size too large for binary64 before any row is built.
    analysis._bounds_size(l_max)
    # A bad --threads is a usage error even without --simulate.
    if args.threads is not None:
        verify._check_threads(args.threads)

    # Rows that exhaustive runs can certify stay exact rationals.
    rows = [_size_row(l, l <= ENUMERATION_CAP_L) for l in range(1, l_max + 1)]
    if args.simulate:
        for row in rows:
            if row["l"] <= ENUMERATION_CAP_L:
                row["sim_prop_avg"] = verify.exhaustive_stats(
                    row["n"], "proposed", threads=args.threads
                ).average
                row["sim_nested_avg"] = verify.exhaustive_stats(
                    row["n"], "nested", threads=args.threads
                ).average
            else:
                row["sim_prop_avg"] = None
                row["sim_nested_avg"] = None

    lines = [",".join(rows[0])]
    lines += [",".join(map(_csv_cell, row.values())) for row in rows]

    fit_lines: list[str] = []
    if args.fit:
        lo = l_max // 2 + 1
        result = verify.fit_loglinear(
            lo, l_max, [(row["l"], float(row["prop_avg"])) for row in rows]
        )
        # The percentages are the fixed reference comparisons from the named
        # trend-line constants, not ratios of the fitted slope; the fit line
        # above them reports what this sweep actually measured.
        constants = analysis.asymptotic_constants()
        fit_lines = [
            f"# fit l={lo}..{l_max}: slope={sig6(result.slope)} "
            f"intercept={sig6(result.intercept)} "
            f"residual_max={sig6(result.residual_max)}",
            f"# saving_vs_nested={sig6(constants.saving_vs_nested * 100)}% "
            f"excess_vs_lb={sig6(constants.excess_vs_lb * 100)}%",
        ]

    text = "\n".join(lines + fit_lines) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)

    if args.json:
        print(json.dumps([_json_row(row) for row in rows], sort_keys=True))
    else:
        print(f"wrote {args.out} ({len(rows)} rows)")
        for line in fit_lines:
            print(line.lstrip("# "))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinweigh",
        description=(
            "Adaptive spring-scale weighing for n coins of total weight 2: "
            "trace strategies, compute exact averages, verify exhaustively."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="run one strategy on one configuration")
    p_trace.add_argument(
        "--weights", required=True, help="comma-separated weights, e.g. 0,0,1,0,0,1,0,0"
    )
    p_trace.add_argument(
        "--strategy", required=True, choices=("proposed", "nested")
    )
    p_trace.add_argument("--json", action="store_true")
    p_trace.set_defaults(func=cmd_trace)

    p_analyze = sub.add_parser("analyze", help="analytic values for one size")
    p_analyze.add_argument("--l", type=int, required=True, help="size exponent, n=2**l")
    p_analyze.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser(
        "verify", help="cross-check analytic vs exhaustive for l=1..L"
    )
    p_verify.add_argument("--l-max", type=int, required=True)
    p_verify.add_argument("--threads", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="write the comparison table as CSV")
    p_sweep.add_argument("--l-max", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument(
        "--simulate",
        action="store_true",
        help="add exhaustive-simulation columns (l <= %d)" % ENUMERATION_CAP_L,
    )
    p_sweep.add_argument(
        "--fit",
        action="store_true",
        help="append a least-squares fit over the top half of the l range",
    )
    p_sweep.add_argument("--threads", type=int, default=None)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalContractError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except CoinWeighError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
