"""Command-line interface: output contracts, exit codes, file behavior."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from fractions import Fraction

import pytest

from coinweigh import analysis, cli, strategies, verify
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

    def test_proposed_accepts_any_size(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--weights",
            "1,0,0,0,0,1",
            "--strategy",
            "proposed",
        )
        assert code == 0
        assert out.splitlines() == [
            "step 1: weigh {1,2,3} -> 1",
            "step 2: weigh {1,4} -> 1",
            "step 3: weigh {1,5} -> 1",
            "recovered: 1,0,0,0,0,1",
            "weighings: 3",
        ]

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

    def test_wrong_support_is_verification_failure(self, capsys, monkeypatch):
        # The step function ends the path of coin 1 of weight 2 at a wrong
        # leaf; only the walk uses the planted one.
        advance = verify._advance

        def wrong_leaf(state, o):
            after = advance(state, o)
            if after == (strategies._FOUND, 1, 1):
                return (strategies._FOUND, 1, 2)
            return after

        monkeypatch.setattr(verify, "_advance", wrong_leaf)
        code, out, err = run(capsys, "verify", "--l-max", "3", "--threads", "1")
        assert code == 1
        assert out == ""
        assert err == (
            "verification failure: proposed failed to recover support (1, 1) "
            "of n=2: got (1, 2)\n"
        )

    def test_rejected_reading_is_verification_failure(self, capsys, monkeypatch):
        # The step function rejects the reading 2 of the first weighing, so
        # the walk never reaches coin 1 of weight 2: one leaf short.
        advance = verify._advance

        def rejecting(state, o):
            if state == strategies._root(strategies._PROPOSED, 2) and o == 2:
                return None
            return advance(state, o)

        monkeypatch.setattr(verify, "_advance", rejecting)
        code, out, err = run(capsys, "verify", "--l-max", "3", "--threads", "1")
        assert code == 1
        assert out == ""
        assert err == (
            "verification failure: proposed reached 2 leaves of n=2, not the "
            "3 configurations\n"
        )

    def test_analytic_mismatch_fails_and_later_sizes_run(self, capsys, monkeypatch):
        # The analytic average is wrong at l = 2 only: that size fails with
        # its mismatch line, l = 3 still runs and passes, and the exit code
        # is 1.
        exact = analysis.t_ave_proposed

        def wrong_at_2(l, *args, **kwargs):
            return exact(l, *args, **kwargs) + (l == 2)

        monkeypatch.setattr(analysis, "t_ave_proposed", wrong_at_2)
        code, out, err = run(capsys, "verify", "--l-max", "3", "--threads", "1")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line.split(" ")[0] for line in lines if line.startswith("l=")] == [
            "l=1:", "l=2:", "l=3:"
        ]
        assert lines[0].startswith("l=1: PASS")
        assert any(line.startswith("l=2: FAIL") for line in lines)
        assert any(line.startswith("l=3: PASS") for line in lines)
        assert "  mismatch: proposed average: analytic 16/5 != exhaustive 11/5" in lines
        assert lines[-1] == "FAIL l=2"

        code, out, err = run(
            capsys, "verify", "--l-max", "3", "--threads", "1", "--json"
        )
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert [(row["l"], row["ok"]) for row in doc] == [
            (1, True), (2, False), (3, True)
        ]
        assert doc[1]["mismatches"] == [
            "proposed average: analytic 16/5 != exhaustive 11/5"
        ]

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "cross_check", interrupted)
        code, _, err = run(capsys, "verify", "--l-max", "2")
        assert code == 130
        assert err == "interrupted\n"

    def test_bad_threads_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--l-max", "4", "--threads", "0")
        assert code == 2
        assert out == ""
        assert err == "error: threads must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--l-max", "6", "--threads", "1"],
            ["verify", "--l-max", "6", "--threads", "2"],
            ["verify", "--l-max", "7", "--threads", "2"],
            ["verify", "--l-max", "8", "--threads", "2"],
            ["sweep", "--l-max", "9", "--out"],
            ["sweep", "--l-max", "6", "--simulate", "--threads", "2", "--out"],
        ],
        ids=[
            "verify-l6-threads1",
            "verify-l6-threads2",
            "verify-l7-threads2",
            "verify-l8-threads2",
            "sweep",
            "sweep-simulate-threads2",
        ],
    )
    def test_starts_no_process(self, capsys, monkeypatch, tmp_path, argv):
        # Each tree is walked in the calling process, whatever --threads.
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counted(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path / "sim.csv")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert started == []


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

    def test_simulate_past_the_cap_leaves_cells_blank(
        self, capsys, tmp_path, monkeypatch
    ):
        # Sizes past the enumeration cap are not simulated: their CSV cells
        # are empty and their JSON values null.
        monkeypatch.setattr(cli, "ENUMERATION_CAP_L", 2)
        out_path = tmp_path / "capped.csv"
        argv = ["sweep", "--l-max", "3", "--simulate", "--threads", "1"]
        code, _, err = run(capsys, *argv, "--out", str(out_path))
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out_path.read_text().splitlines()]
        assert rows[0] == CSV_HEADER.split(",") + ["sim_prop_avg", "sim_nested_avg"]
        assert [row[8:] for row in rows[1:]] == [["1", "1"], ["2.2", "2.4"], ["", ""]]

        code, out, err = run(capsys, *argv, "--out", str(out_path), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [(row["sim_prop_avg"], row["sim_nested_avg"]) for row in doc] == [
            ("1/1", "1/1"), ("11/5", "12/5"), (None, None)
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threads", "0"],
            ["--threads", "-3"],
            ["--threads", "0", "--simulate"],
        ],
    )
    def test_bad_threads_usage_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sweep", "--l-max", "4", *argv, "--out", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: threads must be an integer >= 1, got {argv[1]}\n"
        assert not out_path.exists()

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutput:
    """sha256 of what each command prints, and of the CSV a sweep writes,
    so that any changed byte fails.  A sweep's text stdout names its output
    path, so there only the CSV is pinned."""

    @pytest.mark.parametrize(
        "argv, stdout_digest",
        [
            (
                ["analyze", "--l", "12"],
                "0cf9b1f467246eb0ca9924fa633e9a317623a25fa325f457f677a9b6becc4da7",
            ),
            (
                ["analyze", "--l", "2", "--json"],
                "91aba2b817750e8fee51311df9f401555680e0f37c51ef331c5bf72705929450",
            ),
            (
                ["analyze", "--l", "13"],
                "08d82dcfd8f73608d40ae214cdfa74827abe655725a640ae6f08a400ce5181dc",
            ),
            (
                ["analyze", "--l", "20", "--mode", "float"],
                "b1db5041cee324f571d44efa581b1fd35ae10d54f5cb1b4f51dfe71f2fd0cc43",
            ),
            (
                ["analyze", "--l", "20", "--mode", "float", "--json"],
                "4fe297d98ec62c323a04a419c866e7c6a14ff23032d82750ad1cdf232e25c4d6",
            ),
            (
                ["verify", "--l-max", "8", "--threads", "2"],
                "89b8639fabb9984a68ba8945e01f2c999c1ba20089ed20a147d130a308983d46",
            ),
            (
                ["verify", "--l-max", "8", "--threads", "2", "--json"],
                "668333152e5e31cf0a198af6abd6afa4700a82325c047f0a723c95724ccdf682",
            ),
        ],
    )
    def test_stdout(self, capsys, argv, stdout_digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert sha256(out.encode("utf-8")) == stdout_digest

    @pytest.mark.parametrize(
        "strategy, stdout_digest",
        [
            ("proposed", "b787559bb6c19083a4013f5390377d248189247b8253591ccfe8e1a6f162f54a"),
            ("nested", "ad41cc6ddaf12954034e0a35ad379e53e11ad2e84eaef28e90199fbec0f715a2"),
        ],
    )
    def test_trace_json_at_cap(self, capsys, strategy, stdout_digest):
        # Coins 1000 and 3001 of 4096 weigh 1: queries of up to n/2 coins,
        # and for the halving scheme joint rounds of two runs each.
        weights = ["0"] * 4096
        weights[1000 - 1] = weights[3001 - 1] = "1"
        code, out, err = run(
            capsys, "trace", "--weights", ",".join(weights), "--strategy", strategy, "--json"
        )
        assert (code, err) == (0, "")
        assert sha256(out.encode("utf-8")) == stdout_digest

    @pytest.mark.parametrize(
        "strategy, stdout_digest",
        [
            ("proposed", "d6a9ede34d55d439cd6f43526e28a29c7748801c655b86e9ab425ca4639b4dcc"),
            ("nested", "1deb85cc28862a2ea38c8eda3be8afcc18c17844aac421931de3d26beb13fbde"),
        ],
    )
    def test_trace_json_weight_two_off_a_power_of_two(self, capsys, strategy, stdout_digest):
        # Coin 1234 of 4095 weighs 2: Π0 on weight 2 ends at a single coin,
        # on runs whose halves differ by one coin.
        weights = ["0"] * 4095
        weights[1234 - 1] = "2"
        code, out, err = run(
            capsys, "trace", "--weights", ",".join(weights), "--strategy", strategy, "--json"
        )
        assert (code, err) == (0, "")
        assert sha256(out.encode("utf-8")) == stdout_digest

    @pytest.mark.parametrize(
        "argv, stdout_digest, csv_digest",
        [
            (
                ["--l-max", "20", "--fit"],
                None,
                "bcdf362afc18a6ebb8377d57e5ba80e2ca56424f37274740151b61a01a49022d",
            ),
            (
                ["--l-max", "14", "--fit", "--json"],
                "9a98cc7a0e62d3b152a84b2ea6770e1d0cd7e982c264e1271c36337a843cdcea",
                "8677842df55b2b6c843f46022ebb914a4625b7c63b700e96b6bd18aa2f01e34d",
            ),
            (
                ["--l-max", "6", "--simulate", "--fit", "--json", "--threads", "2"],
                "12bec550f4bc0ffde29ea5c36e08d985bd99b6b0bf82178508cd0587e6a13591",
                "d53f88ee3e60f17c72a859dc5a91a07a1f1e5025755449c4cb804d79293c5147",
            ),
        ],
    )
    def test_sweep(self, capsys, tmp_path, argv, stdout_digest, csv_digest):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", *argv, "--out", str(out_path))
        assert (code, err) == (0, "")
        if stdout_digest is not None:
            assert sha256(out.encode("utf-8")) == stdout_digest
        assert sha256(out_path.read_bytes()) == csv_digest
