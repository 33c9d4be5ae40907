import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from alphaspec import cli
from alphaspec.cli import build_parser, main, sig12
from alphaspec.graphs import complete_graph, to_graph6
from alphaspec.verify import REPORT_FIELDS, VerificationReport, verify_order
from reference import disjoint_union, star_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSig12:
    def test_twelve_significant_digits(self):
        assert sig12(6.0) == "6.00000000000"
        assert sig12(3 ** 0.5) == "1.73205080757"
        assert sig12(12.0) == "12.0000000000"

    def test_zero(self):
        assert sig12(0.0) == "0"


class TestRho:
    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "rho", "--input", str(path), "--alpha", "1")
        assert code == 0
        assert "6.00000000000" in out

    def test_inline_graph6_star(self, capsys):
        code, out, _ = run(capsys, "rho", "--graph6", to_graph6(star_graph(3)))
        assert code == 0
        assert "1.73205080757" in out

    def test_empty_graph_prints_zero(self, capsys):
        code, out, _ = run(capsys, "rho", "--graph6", "B?")
        assert code == 0
        assert out.splitlines()[0] == "rho = 0"

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 9\n")
        code, _, err = run(capsys, "rho", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_graph6_order_above_cap_exits_2(self, capsys):
        # long-form header for n = 10,001 and a two-byte payload
        code, out, err = run(capsys, "rho", "--graph6", "~A[P??")
        assert code == 2
        assert out == ""
        assert "order n=10001 exceeds the graph6 limit 10000 (byte offset 1)" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "rho")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "rho", "--graph6", "C~", "--alpha", "1/2", "--format", "json-lines")
        record = json.loads(out)
        assert record["rho"] == pytest.approx(4.5)
        assert record["alpha"] == "1/2"
        assert sorted(record) == ["alpha", "n", "residual", "rho"]

    def test_unreachable_tolerance_exits_2(self, capsys):
        # P_6: on a regular graph the solve can return the exact constant
        # vector, whose residual is 0
        code, _, err = run(capsys, "rho", "--graph6", "EhCG", "--tol", "1e-300")
        assert code == 2
        assert "residual" in err


class TestNonFiniteTolerance:
    # NaN and inf used to pass the positivity check, so every residual
    # passed and `verify` wrote "tol": NaN, which is not JSON
    @pytest.mark.parametrize("tol", ["nan", "inf", "NaN", "Infinity"])
    @pytest.mark.parametrize(
        "argv",
        [["rho", "--graph6", "EhCG", "--alpha", "1e6"], ["verify", "5"], ["report", "--n-max", "3"]],
        ids=["rho", "verify", "report"],
    )
    def test_rejected_with_exit_2(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", tol])
        assert exc.value.code == 2
        assert f"must be positive and finite, got '{tol}'" in capsys.readouterr().err


class TestNegativeAlpha:
    # argparse alone takes "-1/2" and "-1e0" for options, so a negative
    # alpha given as a separate argument failed as a missing value
    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["rho", "--graph6", "D?{", "--alpha", "-1/2"], "-1/2"),
            (["family", "64", "24", "--alpha", "-1e0"], "-1"),
            (["rho", "--graph6", "D?{", "--alpha", "-.5"], "-1/2"),
        ],
        ids=["rho", "family", "leading-point"],
    )
    def test_separate_argument_reaches_the_alpha_check(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --alpha: alpha must be nonnegative, got {shown}" in err
        assert "expected one argument" not in err

    def test_report_alpha_list(self, capsys):
        code, out, err = run(capsys, "report", "--n-max", "3", "--alphas", "-1,0")
        assert (code, out) == (2, "")
        assert err == "error: alpha must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rho", "--graph6", "D?{", "--alpha=-1/2"], "argument --alpha: alpha must be nonnegative, got -1/2"),
            (["rho", "--graph6", "D?{", "--tol", "-1"], "argument --tol: must be positive and finite, got '-1'"),
        ],
        ids=["alpha-equals", "tol"],
    )
    def test_messages_kept(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_option_still_takes_no_digit_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "9", "3", "--alpha", "--format", "json-lines"])
        assert exc.value.code == 2
        assert "argument --alpha: expected one argument" in capsys.readouterr().err


class TestMatching:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "matching", "--graph6", "C~")
        assert code == 0
        assert "beta = 2" in out

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "matching", "--graph6", to_graph6(star_graph(3)), "--witness")
        assert code == 0
        assert "witness S" in out and "q=3" in out

    def test_witness_above_the_old_scan_cap(self, capsys):
        # K_3 v bar(K_40): 43 vertices, past the 24 the subset scan allowed
        from alphaspec import empty_graph, join

        g6 = to_graph6(join(complete_graph(3), empty_graph(40)))
        code, out, _ = run(capsys, "matching", "--graph6", g6, "--witness", "--format", "json-lines")
        assert code == 0
        assert json.loads(out) == {"n": 43, "beta": 3, "witness_set": [0, 1, 2], "s": 3, "odd_components": 40, "q": 40}

    def test_witness_runs_one_matching_search(self, capsys, monkeypatch):
        # beta comes from the witness's own maximum matching
        from alphaspec import matching

        calls = []
        real = matching._match
        monkeypatch.setattr(matching, "_match", lambda *args: calls.append(1) or real(*args))
        code, out, _ = run(capsys, "matching", "--graph6", "E?~o", "--witness", "--format", "json-lines")
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["beta"] == 2


@pytest.mark.parametrize("command", ["rho", "matching"])
class TestEmptyGraphInput:
    # an empty option value is given, not absent: it used to count as
    # absent, so "--input ''" beside --graph6 passed the one-input check
    def test_empty_input_beside_graph6_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, "--input", "", "--graph6", "A_")
        assert code == 2 and out == ""
        assert "exactly one of --input or --graph6 is required" in err

    def test_empty_graph6_is_a_parse_error_at_offset_0(self, capsys, command):
        code, out, err = run(capsys, command, "--graph6", "")
        assert code == 2 and out == ""
        assert "empty graph6 input (byte offset 0)" in err


class TestBoundClassify:
    def test_threshold_human(self, capsys):
        code, out, _ = run(capsys, "bound", "8", "2", "--alpha", "0")
        assert code == 0
        assert "case (3)" in out and "THRESHOLD" in out
        assert "4.00000000000" in out
        assert out.count("extremal:") == 2

    def test_above_value(self, capsys):
        code, out, _ = run(capsys, "bound", "10", "2", "--alpha", "0")
        assert code == 0
        assert "4.53112887415" in out

    def test_full(self, capsys):
        code, out, _ = run(capsys, "classify", "5", "2", "--alpha", "0")
        assert code == 0
        assert "case (1)" in out and "FULL" in out

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "5", "3")
        assert code == 2
        assert "matching number" in err

    def test_rational_alpha_threshold(self, capsys):
        code, out, _ = run(capsys, "classify", "7", "2", "--alpha", "1/2")
        assert code == 0
        assert "THRESHOLD" in out

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["9", "3", "--alpha", "1"], "case (3) THRESHOLD: n=9 beta=3 alpha=1\nn* = 9\nbound = 12.0000000000\n"
             "extremal: COMPLETE_SPLIT (K_b joined to an independent set)\n"
             "extremal: ODD_CLIQUE_PLUS_ISOLATES (K_{2b+1} + isolated vertices)\n"),
            (["8", "2", "--alpha", "1/2"], "case (4) ABOVE: n=8 beta=2 alpha=1/2\nn* = 7\nbound = 6.63104367407\n"
             "extremal: COMPLETE_SPLIT (K_b joined to an independent set)\n"),
            (["7", "2", "--alpha", "1/3"], "case (2) BELOW: n=7 beta=2 alpha=1/3\nn* = 29/4 = 7.25\n"
             "bound = 5.33333333333\nextremal: ODD_CLIQUE_PLUS_ISOLATES (K_{2b+1} + isolated vertices)\n"),
        ],
        ids=["threshold", "above", "fractional-n-star"],
    )
    def test_human_golden(self, capsys, argv, expected):
        assert run(capsys, "bound", *argv) == (0, expected, "")

    def test_long_n_star_prints_its_float(self, capsys):
        # the exact n* at alpha = 1e150 is a 154-digit numerator over a
        # 151-digit denominator; the human line shows its float alone
        code, out, _ = run(capsys, "bound", "10000", "4000", "--alpha", "1e150")
        assert code == 0
        (line,) = [line for line in out.splitlines() if line.startswith("n*")]
        assert line == "n* ≈ 8001" and len(line) <= 40
        _, out, _ = run(capsys, "bound", "10000", "4000", "--alpha", "1e150", "--format", "json-lines")
        assert len(json.loads(out)["n_star"]) == 306

    def test_long_alpha_prints_its_float(self, capsys):
        # alpha = 1e150 is a 151-digit integer; the case line shows its
        # float, while the JSON record keeps it exact
        code, out, _ = run(capsys, "bound", "10000", "4000", "--alpha", "1e150")
        assert code == 0
        assert out.splitlines()[0] == "case (4) ABOVE: n=10000 beta=4000 alpha ≈ 1e+150"
        _, out, _ = run(capsys, "bound", "10000", "4000", "--alpha", "1e150", "--format", "json-lines")
        assert json.loads(out)["alpha"] == str(10**150)
        # 40 characters still print exactly
        alpha = "1/" + "9" * 38
        _, out, _ = run(capsys, "bound", "10", "2", "--alpha", alpha)
        assert out.splitlines()[0].endswith(f"alpha={alpha}")

    @pytest.mark.parametrize("fmt", ["human", "json-lines", "csv"])
    def test_classify_is_an_alias_of_bound(self, capsys, fmt):
        bound = run(capsys, "bound", "25", "10", "--alpha", "2", "--format", fmt)
        assert run(capsys, "classify", "25", "10", "--alpha", "2", "--format", fmt) == bound
        assert bound[0] == 0 and "ABOVE" in bound[1]


class TestVerify:
    def test_order_five(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "--alpha", "0")
        assert code == 0
        assert "all pass" in out

    def test_json_lines_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "--alpha", "1", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [json.dumps(r) for r in records] == out.strip().splitlines()
        expected = [r.record() for r in verify_order(5, Fraction(1))]
        for record in records + expected:
            record.pop("wall_time")
        assert records == expected

    def test_over_cap_without_file(self, capsys):
        code, _, err = run(capsys, "verify", "9")
        assert code == 2
        assert "graph6" in err

    @pytest.mark.parametrize(
        "line3,message",
        [
            ("D\x19{", "error: line 3: byte 25 outside the graph6 range 63..126 (byte offset 1)"),
            ("C~", "error: line 3: graph has order 4, expected 5"),
        ],
        ids=["bad-payload", "wrong-order"],
    )
    def test_graph6_file_error_names_its_line(self, capsys, tmp_path, line3, message):
        path = tmp_path / "order5.g6"
        path.write_text(to_graph6(complete_graph(5)) + "\n\n" + line3 + "\n")
        code, out, err = run(capsys, "verify", "5", "--graph6", str(path))
        assert code == 2
        assert out == ""
        assert err.strip() == message

    @pytest.mark.parametrize("isolates_first", [True, False])
    def test_certificates_canonical_above_cap(self, capsys, tmp_path, isolates_first):
        # K_7 + 2K_1 in either labelling, and the complete split graph
        # K_3 v co-K_6 with its clique last: both have matching number 3,
        # so one beta is scanned from a file of order 9
        from alphaspec.graphs import empty_graph, join

        parts = (empty_graph(2), complete_graph(7))
        clique_graph = disjoint_union(*(parts if isolates_first else parts[::-1]))
        path = tmp_path / "order9.g6"
        path.write_text(
            to_graph6(clique_graph) + "\n" + to_graph6(join(empty_graph(6), complete_graph(3))) + "\n"
        )
        code, out, _ = run(capsys, "verify", "9", "--alpha", "0", "--graph6", str(path),
                           "--format", "json-lines")
        assert code == 0
        (record,) = [json.loads(line) for line in out.strip().splitlines()]
        assert record["beta"] == 3
        assert len(record["argmax_certificates"]) == 1
        assert record["argmax_certificates"] == record["predicted_certificates"]

    def test_star_of_order_1100(self, capsys, tmp_path):
        # the argmax certificate of K_{1,1099} searches 1100 positions
        # deep; a recursive search stopped with a RecursionError there
        import random

        from alphaspec import canonical_graph, from_edges

        rng = random.Random(1100)
        copies = []
        for _ in range(2):
            perm = list(range(1100))
            rng.shuffle(perm)
            copies.append(from_edges(1100, [(perm[0], perm[v]) for v in range(1, 1100)]))
        assert canonical_graph(copies[0]) == canonical_graph(copies[1])
        path = tmp_path / "star1100.g6"
        path.write_text(to_graph6(copies[0]) + "\n")
        code, out, _ = run(capsys, "verify", "1100", "--alpha", "0", "--graph6", str(path),
                           "--format", "json-lines")
        assert code == 0
        (record,) = [json.loads(line) for line in out.strip().splitlines()]
        assert record["beta"] == 1 and record["value_pass"] and record["structure_pass"], record


    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_graph6_file_without_graphs_exits_2_before_any_scan(self, capsys, tmp_path, monkeypatch, text):
        import alphaspec.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a radius or matching was computed")

        monkeypatch.setattr(verify, "spectral_radii", refuse)
        monkeypatch.setattr(verify, "matching_number", refuse)
        path = tmp_path / "EMPTY.g6"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "3", "--graph6", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err and "no graph" in err

    def test_graph6_file_without_an_edge_exits_2(self, capsys, tmp_path):
        # A? is the edgeless graph of order 2: no beta >= 1 to verify
        path = tmp_path / "EDGELESS.g6"
        path.write_text("A?\n")
        code, out, err = run(capsys, "verify", "2", "--graph6", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err and "matching number 1 or more" in err

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_census_orders_without_an_edge_pass_with_no_records(self, capsys, n):
        # no class of order 0 or 1 has matching number 1 or more
        code, out, _ = run(capsys, "verify", n)
        assert code == 0
        assert out.splitlines() == [f"all pass (0 records, n={n}, alpha=0)"]


class TestFamily:
    def test_above(self, capsys):
        code, out, _ = run(capsys, "family", "10", "2", "--alpha", "0")
        assert code == 0
        assert "s=2" in out
        assert "4.53112887415" in out

    def test_over_cap_exits_2_before_any_radius(self, capsys, monkeypatch):
        import alphaspec.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a radius was computed")

        monkeypatch.setattr(verify, "family_radius", refuse)
        code, out, err = run(capsys, "family", "400", "150", "--format", "json-lines")
        assert code == 2
        assert out == ""
        assert "candidate families" in err and "cap" in err


class TestReport:
    def test_small_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "records.csv"
        code, _, _ = run(
            capsys,
            "report",
            "--n-min", "4", "--n-max", "5",
            "--alphas", "0,1",
            "--format", "csv",
            "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("n,beta,alpha,observed_max")
        assert len(lines) == 1 + 2 * (2 + 2)  # header + two alphas x (beta rows at n=4,5)

    def test_header_without_records(self, capsys):
        code, out, _ = run(capsys, "report", "--n-min", "0", "--n-max", "1", "--alphas", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [",".join(REPORT_FIELDS)]

    def test_jobs_above_cpu_count_exits_2_before_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        out_path = tmp_path / "records.csv"
        code, _, err = run(capsys, "report", "--jobs", "3", "--output", str(out_path))
        assert code == 2
        assert "between 1 and 2" in err
        assert not out_path.exists()

    def test_output_replaced_only_on_success(self, capsys, tmp_path, monkeypatch):
        import alphaspec.cli as cli

        out_path = tmp_path / "records.jsonl"
        out_path.write_bytes(b"earlier records\n")
        real = cli.verify_order
        calls = []

        def fail_on_second_order(n, *args, **kwargs):
            calls.append(n)
            if len(set(calls)) == 2:
                raise ValueError("scan failed")
            return real(n, *args, **kwargs)

        monkeypatch.setattr(cli, "verify_order", fail_on_second_order)
        code, _, err = run(capsys, "report", "--n-min", "3", "--n-max", "5", "--alphas", "0",
                           "--format", "json-lines", "--output", str(out_path))
        assert code == 2
        assert "scan failed" in err
        assert out_path.read_bytes() == b"earlier records\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]

        monkeypatch.setattr(cli, "verify_order", real)
        code, _, _ = run(capsys, "report", "--n-min", "3", "--n-max", "5", "--alphas", "0",
                         "--format", "json-lines", "--output", str(out_path))
        assert code == 0
        assert [json.loads(line)["n"] for line in out_path.read_text().splitlines()] == [3, 4, 4, 5, 5]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]

    @pytest.mark.parametrize(
        "n_min,n_max,message",
        [("7", "9", "BUILTIN_ORDER_CAP = 8"), ("5", "3", "empty order range")],
        ids=["above-cap", "empty"],
    )
    def test_order_range_checked_before_any_scan(self, capsys, tmp_path, monkeypatch, n_min, n_max, message):
        import alphaspec.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("an order was scanned")

        monkeypatch.setattr(cli, "verify_order", refuse)
        out_path = tmp_path / "records.jsonl"
        code, out, err = run(capsys, "report", "--n-min", n_min, "--n-max", n_max, "--output", str(out_path))
        assert code == 2
        assert out == ""
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alphas", [",", "", " , "])
    def test_no_alpha_exits_2_before_any_scan(self, capsys, tmp_path, monkeypatch, alphas):
        import alphaspec.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("an order was scanned")

        monkeypatch.setattr(cli, "verify_order", refuse)
        out_path = tmp_path / "records.jsonl"
        code, out, err = run(capsys, "report", "--alphas", alphas, "--output", str(out_path))
        assert code == 2
        assert out == ""
        assert "no alpha given" in err
        assert list(tmp_path.iterdir()) == []

    def test_environment_does_not_set_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHASPEC_JOBS", "many")
        code, out, _ = run(capsys, "verify", "5", "--format", "json-lines")
        assert code == 0
        assert len(out.splitlines()) == 2


class TestRecordWriter:
    # one hand-built report through the verify and report commands
    REPORT = VerificationReport(
        n=7,
        beta=2,
        alpha=Fraction(7, 3),
        observed_max=0.1 + 0.2,
        argmax_certificates=("F?B~w", "F?~vw"),
        predicted_max=0.3,
        predicted_certificates=("F?B~w",),
        value_pass=True,
        structure_pass=False,
        tol=1e-9,
        graphs_scanned=1044,
        wall_time=0.125,
    )
    JSON = (
        '{"n": 7, "beta": 2, "alpha": "7/3", "observed_max": 0.30000000000000004, '
        '"argmax_certificates": ["F?B~w", "F?~vw"], "predicted_max": 0.3, '
        '"predicted_certificates": ["F?B~w"], "value_pass": true, "structure_pass": false, '
        '"tol": 1e-09, "graphs_scanned": 1044, "wall_time": 0.125}\n'
    )
    CSV = (
        "n,beta,alpha,observed_max,argmax_certificates,predicted_max,predicted_certificates,"
        "value_pass,structure_pass,tol,graphs_scanned,wall_time\n"
        "7,2,7/3,0.30000000000000004,F?B~w;F?~vw,0.3,F?B~w,true,false,1e-09,1044,0.125\n"
    )

    @pytest.fixture(autouse=True)
    def one_report(self, monkeypatch):
        import alphaspec.cli as cli

        monkeypatch.setattr(cli, "verify_order", lambda *args, **kwargs: [self.REPORT])

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["verify", "7", "--alpha", "7/3", "--format", "json-lines"], JSON),
            (["report", "--n-max", "7", "--n-min", "7", "--alphas", "7/3", "--format", "json-lines"], JSON),
            (["report", "--n-max", "7", "--n-min", "7", "--alphas", "7/3", "--format", "csv"], CSV),
        ],
        ids=["verify-json", "report-json", "report-csv"],
    )
    def test_golden(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 1  # the structure verdict failed
        assert out == expected

    def test_json_round_trip(self):
        assert json.loads(self.JSON) == self.REPORT.record()


CSV_COMMANDS = {
    "rho": ["rho", "--graph6", "D?{", "--alpha", "1/2"],
    "matching": ["matching", "--graph6", "E?~o"],
    "matching-witness": ["matching", "--graph6", "E?~o", "--witness"],
    "bound": ["bound", "8", "2"],
    "verify": ["verify", "5", "--alpha", "1"],
    "family": ["family", "12", "4", "--alpha", "1"],
    "report": ["report", "--n-min", "4", "--n-max", "5", "--alphas", "0,1/2"],
}


@pytest.mark.parametrize("argv", CSV_COMMANDS.values(), ids=CSV_COMMANDS.keys())
def test_csv_rows_match_the_header(capsys, argv):
    # the header names the JSON record's keys, and every row has one cell
    # per header field
    _, json_out, _ = run(capsys, *argv, "--format", "json-lines")
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    records = [json.loads(line) for line in json_out.splitlines()]
    header, *rows = csv.reader(io.StringIO(csv_out))
    assert header == list(records[0])
    assert len(rows) == len(records)
    assert all(len(row) == len(header) for row in rows)


class TestExitCodes:
    def test_verification_failure_exits_1(self, capsys, tmp_path):
        from alphaspec import isomorphism_classes, to_graph6 as tg6

        kept = [g for g in isomorphism_classes(5) if g.num_edges < 10]
        path = tmp_path / "holey.g6"
        path.write_text("\n".join(tg6(g) for g in kept) + "\n")
        code, out, _ = run(capsys, "verify", "5", "--alpha", "0", "--graph6", str(path))
        assert code == 1
        assert "FAILURES PRESENT" in out


class TestHugeAlpha:
    # both lie above ALPHA_MAX: 1e400 overflows float(alpha), and at 1e300
    # a bound's (alpha + 1) * n passes spectral.SECULAR_ORDER_LIMIT
    @pytest.mark.parametrize("alpha", ["1e400", "1e300"])
    @pytest.mark.parametrize(
        "argv",
        [["rho", "--graph6", "Bw"], ["bound", "10", "3"], ["verify", "5"], ["family", "10", "3"]],
        ids=["rho", "bound", "verify", "family"],
    )
    def test_rejected_with_exit_2(self, capsys, argv, alpha):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--alpha", alpha])
        assert exc.value.code == 2
        assert f"alpha '{alpha}' is too large" in capsys.readouterr().err

    def test_report_alpha_list(self, capsys):
        code, out, err = run(capsys, "report", "--n-max", "3", "--alphas", "0,1e400")
        assert code == 2
        assert out == ""
        assert "alpha '1e400' is too large" in err

    def test_largest_accepted_alpha(self, capsys):
        code, out, _ = run(capsys, "bound", "10", "3", "--alpha", "1e150", "--format", "json-lines")
        assert code == 0
        assert json.loads(out)["alpha"] == str(10**150)

    def test_secular_order_limit_exits_2(self, capsys):
        # (alpha + 1) * n = 1e155 is past the limit, where the secular start
        # would overflow to an infinite bound, which is not JSON
        code, out, err = run(capsys, "bound", "100000", "10", "--alpha", "1e150", "--format", "json-lines")
        assert code == 2
        assert out == ""
        assert "exceeds the limit 2e+154" in err

    def test_bound_below_the_order_limit_is_finite(self, capsys):
        code, out, _ = run(capsys, "bound", "10000", "4000", "--alpha", "1e150", "--format", "json-lines")
        bound = json.loads(out)["bound"]
        assert code == 0
        assert math.isfinite(bound) and bound == pytest.approx(9.999e153, rel=1e-12)

    def test_even_complete_graph_at_huge_alpha(self, capsys):
        # K_10 is held as K_1 v K_9, one part, so it takes the clique radius
        code, out, _ = run(capsys, "bound", "10", "5", "--alpha", "1e16", "--format", "json-lines")
        assert code == 0
        assert json.loads(out)["bound"] == 9e16


def _outcome(capsys, parse, argv):
    """Exit code, stdout with ``wall_time`` dropped from its records, stderr,
    and the ``--output`` file's text (the file is removed)."""
    try:
        code = parse(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if "--output" in argv:
        path = Path(argv[argv.index("--output") + 1])
        written = _drop_wall_time(path.read_text(encoding="utf-8"))
        path.unlink()
    return code, _drop_wall_time(captured.out), captured.err, written


def _drop_wall_time(text):
    return [
        json.dumps({k: v for k, v in json.loads(line).items() if k != "wall_time"}) if line.startswith("{") else line
        for line in text.splitlines()
    ]


class TestParserReuse:
    """``main`` builds its parser once per process; no call sees state
    left by an earlier one."""

    @staticmethod
    def sequence(output):
        report = ["report", "--n-max", "4", "--alphas", "0,1", "--format", "json-lines"]
        return [
            ["rho", "--graph6", "D?{", "--alpha", "2"],
            ["rho", "--graph6", "D?{"],
            ["matching", "--graph6", "E?~o", "--witness"],
            ["matching", "--graph6", "E?~o"],
            ["bound", "9", "3", "--alpha", "1", "--format", "json-lines"],
            ["bound", "9"],  # usage error, SystemExit 2
            ["bound", "10", "2"],
            ["classify", "10", "2", "--alpha", "1/2", "--format", "csv"],
            ["rho"],  # ValueError, exit 2
            ["verify", "5", "--alpha", "1", "--format", "json-lines"],
            ["family", "12", "4", "--alpha", "1"],
            [*report, "--output", str(output)],
            report,
        ]

    def test_sequence_matches_fresh_parsers(self, capsys, tmp_path):
        sequence = self.sequence(tmp_path / "records.jsonl")

        def fresh(argv):
            cli._parser.cache_clear()
            return main(argv)

        expected = [_outcome(capsys, fresh, argv) for argv in sequence]
        cli._parser.cache_clear()
        reused = [_outcome(capsys, main, argv) for argv in sequence]
        assert cli._parser.cache_info().misses == 1
        for argv, got, want in zip(sequence, reused, expected):
            assert got == want, argv
        codes = [code for code, *_ in reused]
        assert codes == [0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0]
        # the defaults came back: alpha 0, no witness, human format, stdout
        assert reused[0][1] != reused[1][1]
        assert reused[2][1] != reused[3][1]
        assert reused[6][1][0].startswith("case (")
        assert reused[11][1] == [] and reused[11][3] == reused[12][1]

    def test_import_builds_nothing_and_main_builds_once(self):
        script = (
            "import argparse, contextlib, io, json\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import alphaspec.cli as cli\n"
            "at_import = len(built)\n"
            "cli.build_parser()\n"
            "tree = len(built) - at_import\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['bound', '9', '3', '--alpha', '1']) for _ in range(20)]\n"
            "print(json.dumps({'at_import': at_import, 'tree': tree, 'main': len(built) - at_import - tree, 'codes': codes}))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        counts = json.loads(proc.stdout)
        assert counts["at_import"] == 0
        assert counts["tree"] > 1  # the top level and one parser per subcommand
        assert counts["main"] == counts["tree"]
        assert counts["codes"] == [0] * 20

    @pytest.mark.parametrize(
        "argv",
        [[], ["rho"], ["matching"], ["bound"], ["classify"], ["verify"], ["family"], ["report"]],
        ids=["top", "rho", "matching", "bound", "classify", "verify", "family", "report"],
    )
    def test_help_follows_the_terminal_width(self, capsys, monkeypatch, argv):
        def fresh(argv):
            return build_parser().parse_args(argv)

        helps = []
        for columns in ("120", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            reused = _outcome(capsys, main, [*argv, "--help"])
            assert reused == _outcome(capsys, fresh, [*argv, "--help"])
            assert reused[0] == 0
            helps.append(reused[1])
        assert helps[0] != helps[1]
        assert max(map(len, helps[1])) < max(map(len, helps[0]))
        assert cli._parser.cache_info().currsize == 1
