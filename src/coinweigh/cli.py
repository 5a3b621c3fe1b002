"""Command-line front end.

Four subcommands:

* ``trace``    run one strategy on one configuration and print the weighings
* ``analyze``  print analytic averages, maxima, and lower bounds for one size
* ``verify``   cross-check analytic predictions against exhaustive execution
* ``sweep``    write the size-sweep comparison table as CSV

Exit codes: 0 success, 1 verification failure (a crashed worker process
counts as one), 2 usage error, 130 interrupted by Ctrl-C.  File output
is written in one shot after all computation succeeds, so failures never
leave partial files behind.  All numeric formatting is fixed, making output
byte-stable across runs and machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

from . import analysis, verify
from .analysis import rational_str, sig6
from .model import (
    CoinWeighError,
    Configuration,
    ENUMERATION_CAP_L,
    InternalContractError,
    ProblemSize,
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


def cmd_analyze(args: argparse.Namespace) -> int:
    l = args.l
    size = ProblemSize.from_exponent(l)
    # The bounds reject sizes too large for binary64, so they go first.
    bounds = analysis.lower_bounds(size.n)
    prop_avg = analysis.t_ave_proposed(l, mode=args.mode)
    nested_avg = analysis.nested_closed_forms(l)[1]
    worst = analysis.t_max(l)

    if args.mode == "exact":
        prop_txt = f"{rational_str(prop_avg)} ({float(prop_avg):.6f})"
        nested_txt = f"{rational_str(nested_avg)} ({float(nested_avg):.6f})"
        prop_json: object = rational_str(prop_avg)
        nested_json: object = rational_str(nested_avg)
    else:
        prop_txt = f"{float(prop_avg):.6f}"
        nested_txt = f"{float(nested_avg):.6f}"
        prop_json = float(prop_avg)
        nested_json = float(nested_avg)

    if args.json:
        doc = {
            "l": l,
            "n": size.n,
            "mode": args.mode,
            "prop_avg": prop_json,
            "prop_max": worst,
            "nested_avg": nested_json,
            "nested_max": worst,
            "lb_avg": bounds.ave_lb,
            "lb_max": bounds.worst_lb,
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    print(f"l {l}")
    print(f"n {size.n}")
    print(f"prop_avg {prop_txt}")
    print(f"prop_max {worst}")
    print(f"nested_avg {nested_txt}")
    print(f"nested_max {worst}")
    print(f"lb_avg {bounds.ave_lb:.4f}")
    print(f"lb_max {bounds.worst_lb:.4f}")
    return 0


_PER_DELTA_SHOWN = 6


def cmd_verify(args: argparse.Namespace) -> int:
    l_max = args.l_max
    if l_max < 1 or l_max > ENUMERATION_CAP_L:
        raise CoinWeighError(
            f"--l-max must be in 1..{ENUMERATION_CAP_L}, got {l_max}"
        )
    reports = []
    failed_at: int | None = None
    for l in range(1, l_max + 1):
        report = verify.cross_check(l, threads=args.threads)
        reports.append(report)
        if not args.json:
            status = "PASS" if report.ok else "FAIL"
            print(
                f"l={l}: {status} avg={rational_str(report.empirical_avg)} "
                f"nested={rational_str(report.nested_empirical)} "
                f"max={report.max_proposed}"
            )
            shown = report.per_delta[:_PER_DELTA_SHOWN]
            rows = "; ".join(
                f"d={row.delta}: {rational_str(row.analytic)} vs "
                f"{rational_str(row.empirical)} ({row.configs} cfgs)"
                for row in shown
            )
            extra = len(report.per_delta) - len(shown)
            tail = f"; ... {extra} more" if extra > 0 else ""
            print(f"  per-delta analytic vs empirical (info): {rows}{tail}")
            for line in report.mismatches:
                print(f"  mismatch: {line}")
        if not report.ok and failed_at is None:
            failed_at = l
    if args.json:
        doc = [
            {
                "l": rep.l,
                "n": rep.n,
                "ok": rep.ok,
                "analytic_avg": rational_str(rep.analytic_avg),
                "empirical_avg": rational_str(rep.empirical_avg),
                "nested_closed": rational_str(rep.nested_closed),
                "nested_empirical": rational_str(rep.nested_empirical),
                "predicted_max": rep.predicted_max,
                "max_proposed": rep.max_proposed,
                "max_nested": rep.max_nested,
                "per_delta": [
                    {
                        "delta": row.delta,
                        "analytic": rational_str(row.analytic),
                        "empirical": rational_str(row.empirical),
                        "configs": row.configs,
                    }
                    for row in rep.per_delta
                ],
                "mismatches": list(rep.mismatches),
            }
            for rep in reports
        ]
        print(json.dumps(doc, sort_keys=True))
    if failed_at is None:
        if not args.json:
            print(f"PASS l=1..{l_max}")
        return 0
    if not args.json:
        print(f"FAIL l={failed_at}")
    return 1


_CSV_BASE = "l,n,prop_avg,prop_max,nested_avg,nested_max,lb_avg,lb_max"
_CSV_SIM = ",sim_prop_avg,sim_nested_avg"


def cmd_sweep(args: argparse.Namespace) -> int:
    l_max = args.l_max
    if l_max < 2:
        raise CoinWeighError(f"--l-max must be >= 2 for a sweep, got {l_max}")
    # Reject a top size too large for binary64 before any row is built.
    analysis.lower_bounds(1 << l_max)

    rows = []
    fit_points: list[tuple[int, float]] = []
    for l in range(1, l_max + 1):
        n = 1 << l
        # Rows that exhaustive runs can certify stay exact rationals.
        if l <= ENUMERATION_CAP_L:
            prop_avg: Fraction | float = analysis.t_ave_proposed(l)
        else:
            prop_avg = analysis.t_ave_proposed(l, mode="float")
        nested_avg = analysis.nested_closed_forms(l)[1]
        bounds = analysis.lower_bounds(n)
        worst = analysis.t_max(l)
        fit_points.append((l, float(prop_avg)))
        row = {
            "l": l,
            "n": n,
            "prop_avg": prop_avg,
            "prop_max": worst,
            "nested_avg": nested_avg,
            "nested_max": worst,
            "lb_avg": bounds.ave_lb,
            "lb_max": bounds.worst_lb,
        }
        if args.simulate:
            if l <= ENUMERATION_CAP_L:
                row["sim_prop_avg"] = verify.exhaustive_stats(
                    n, "proposed", threads=args.threads
                ).average
                row["sim_nested_avg"] = verify.exhaustive_stats(
                    n, "nested", threads=args.threads
                ).average
            else:
                row["sim_prop_avg"] = None
                row["sim_nested_avg"] = None
        rows.append(row)

    lines = [_CSV_BASE + (_CSV_SIM if args.simulate else "")]
    for row in rows:
        cells = [
            str(row["l"]),
            str(row["n"]),
            sig6(row["prop_avg"]),
            str(row["prop_max"]),
            sig6(row["nested_avg"]),
            str(row["nested_max"]),
            sig6(row["lb_avg"]),
            sig6(row["lb_max"]),
        ]
        if args.simulate:
            for key in ("sim_prop_avg", "sim_nested_avg"):
                cells.append("" if row[key] is None else sig6(row[key]))
        lines.append(",".join(cells))

    fit_lines: list[str] = []
    if args.fit:
        lo = l_max // 2 + 1
        result = verify.fit_loglinear(lo, l_max, fit_points)
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
        doc = [
            {
                key: (
                    rational_str(value)
                    if isinstance(value, Fraction)
                    else value
                )
                for key, value in row.items()
            }
            for row in rows
        ]
        print(json.dumps(doc, sort_keys=True))
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
    except (InternalContractError, BrokenProcessPool) as exc:
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
