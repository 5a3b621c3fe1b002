"""Command-line interface: output contracts, exit codes, file behavior."""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest

from coinweigh import verify
from coinweigh.analysis import rational_str
from coinweigh.cli import main

CSV_HEADER = "l,n,prop_avg,prop_max,nested_avg,nested_max,lb_avg,lb_max"


def t_ave_closed_form(l):
    """4l/3 - 4/9 - (3l - 4 - 4/n) / (9(n+1)) at n = 2**l."""
    n = 1 << l
    return (
        Fraction(4 * l, 3)
        - Fraction(4, 9)
        - (3 * l - 4 - Fraction(4, n)) / (9 * (n + 1))
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrace:
    def test_single_heavy_coin(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--weights", "2,0", "--strategy", "proposed"
        )
        assert code == 0
        assert out.splitlines() == [
            "step 1: weigh {1} -> 2",
            "recovered: 2,0",
            "weighings: 1",
        ]

    def test_nested_pair(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--weights", "1,0,0,1", "--strategy", "nested"
        )
        assert code == 0
        assert out.splitlines() == [
            "step 1: weigh {1,2} -> 1",
            "step 2: weigh {1} -> 1",
            "step 3: weigh {3} -> 0",
            "recovered: 1,0,0,1",
            "weighings: 3",
        ]

    def test_example_transcript(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--weights",
            "0,0,1,0,0,1,0,0",
            "--strategy",
            "proposed",
        )
        assert code == 0
        assert out.splitlines() == [
            "step 1: weigh {1,2,3,4} -> 1",
            "step 2: weigh {1,2,5,6} -> 1",
            "step 3: weigh {1,2,7} -> 0",
            "step 4: weigh {3,5} -> 1",
            "step 5: weigh {3} -> 1",
            "recovered: 0,0,1,0,0,1,0,0",
            "weighings: 5",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--weights",
            "2,0",
            "--strategy",
            "nested",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["recovered"] == [2, 0]
        assert doc["weighings"] == len(doc["steps"])

    def test_bad_weights_usage_error(self, capsys):
        code, _, err = run(
            capsys, "trace", "--weights", "1,2", "--strategy", "proposed"
        )
        assert code == 2
        assert "error" in err

    def test_proposed_needs_power_of_two(self, capsys):
        code, _, err = run(
            capsys,
            "trace",
            "--weights",
            "1,0,0,0,0,1",
            "--strategy",
            "proposed",
        )
        assert code == 2
        assert "error" in err

    def test_nested_accepts_any_size(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--weights",
            "1,0,0,0,0,1",
            "--strategy",
            "nested",
        )
        assert code == 0
        assert "recovered: 1,0,0,0,0,1" in out


class TestAnalyze:
    def test_l2_exact(self, capsys):
        code, out, _ = run(capsys, "analyze", "--l", "2", "--mode", "exact")
        assert code == 0
        assert out.splitlines() == [
            "l 2",
            "n 4",
            "prop_avg 11/5 (2.200000)",
            "prop_max 3",
            "nested_avg 12/5 (2.400000)",
            "nested_max 3",
            "lb_avg 1.7786",
            "lb_max 2.0000",
        ]

    def test_l1_defaults_exact(self, capsys):
        code, out, _ = run(capsys, "analyze", "--l", "1")
        assert code == 0
        lines = out.splitlines()
        assert "prop_avg 1/1 (1.000000)" in lines
        assert "nested_avg 1/1 (1.000000)" in lines
        assert "prop_max 1" in lines
        assert "lb_max 1.0000" in lines

    def test_l20_float(self, capsys):
        code, out, _ = run(capsys, "analyze", "--l", "20", "--mode", "float")
        assert code == 0
        assert "prop_avg 26.222216" in out
        assert "nested_avg 37.999985" in out

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "nominal trend line 1.365*l - 0.5 = 26.8 at l = 20 misses the "
            "exact-pipeline value 26.2222 by 0.58"
        ),
    )
    def test_l20_within_nominal_trend_window(self, capsys):
        _, out, _ = run(capsys, "analyze", "--l", "20", "--mode", "float")
        value = float(next(
            line.split()[1]
            for line in out.splitlines()
            if line.startswith("prop_avg ")
        ))
        assert value == pytest.approx(1.365 * 20 - 0.5, abs=0.3)

    def test_exact_above_enumeration_cap(self, capsys):
        code, out, _ = run(capsys, "analyze", "--l", "13", "--mode", "exact")
        assert code == 0
        expected = t_ave_closed_form(13)
        assert (
            f"prop_avg {rational_str(expected)} ({float(expected):.6f})"
            in out.splitlines()
        )

    def test_l64_float(self, capsys):
        code, out, _ = run(capsys, "analyze", "--l", "64", "--mode", "float")
        assert code == 0
        expected = t_ave_closed_form(64)
        assert f"prop_avg {float(expected):.6f}" in out.splitlines()

    def test_size_past_binary64_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--l", "1024")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--l", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["prop_avg"] == "11/5"
        assert doc["nested_avg"] == "12/5"
        assert doc["prop_max"] == 3


class TestVerify:
    def test_l_max_4(self, capsys):
        code, out, _ = run(capsys, "verify", "--l-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("l=1: PASS")
        assert lines[-1] == "PASS l=1..4"
        assert any("per-delta" in line for line in lines)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--l-max", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [entry["l"] for entry in doc] == [1, 2]
        assert all(entry["ok"] for entry in doc)
        assert doc[1]["empirical_avg"] == "11/5"

    def test_above_cap_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--l-max", "13")
        assert code == 2
        assert "error" in err

    def test_worker_crash_is_verification_failure(self, capsys, monkeypatch):
        # Forked workers inherit the patch and die without a result.
        monkeypatch.setattr(verify, "_run_range", lambda *args: os._exit(1))
        code, _, err = run(capsys, "verify", "--l-max", "6", "--threads", "2")
        assert code == 1
        assert err.startswith("verification failure:")

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "cross_check", interrupted)
        code, _, err = run(capsys, "verify", "--l-max", "2")
        assert code == 130
        assert err == "interrupted\n"


class TestSweep:
    def test_ten_rows(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, out, _ = run(capsys, "sweep", "--l-max", "10", "--out", str(out_path))
        assert code == 0
        assert "wrote" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        row = dict(zip(CSV_HEADER.split(","), lines[3].split(",")))
        assert row["l"] == "3"
        assert row["n"] == "8"
        assert row["prop_avg"] == "3.5"
        assert row["prop_max"] == "5"
        assert row["lb_max"] == "3.0331"

    def test_bit_stable(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, "sweep", "--l-max", "8", "--out", str(first))[0] == 0
        assert run(capsys, "sweep", "--l-max", "8", "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_fit_summary(self, capsys, tmp_path):
        out_path = tmp_path / "fit.csv"
        code, _, _ = run(
            capsys, "sweep", "--l-max", "12", "--out", str(out_path), "--fit"
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[-2].startswith("# fit l=7..12: slope=")
        assert lines[-1] == "# saving_vs_nested=31.75% excess_vs_lb=8.17369%"

    def test_simulate_columns_match_analytic(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "sweep", "--l-max", "3", "--out", str(out_path), "--simulate"
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER + ",sim_prop_avg,sim_nested_avg"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[8] == cells[2]  # simulated == analytic average
            assert cells[9] == cells[4]

    def test_l_max_1_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--l-max", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "error" in err
        assert not (tmp_path / "x.csv").exists()

    def test_l_max_past_binary64_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "sweep", "--l-max", "1024", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path_leaves_no_file(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run(capsys, "sweep", "--l-max", "4", "--out", str(missing))
        assert code == 2
        assert "error" in err
        assert not missing.exists()

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "sweep", "--l-max", "4", "--out", str(out_path), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 4
        assert doc[1]["prop_avg"] == "11/5"
        assert doc[3]["prop_max"] == 7
