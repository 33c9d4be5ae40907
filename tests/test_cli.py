import csv
import io
import json
from fractions import Fraction

import pytest

from alphaspec.cli import main, sig12
from alphaspec.graphs import complete_graph, to_graph6
from alphaspec.verify import REPORT_FIELDS, VerificationReport


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
        code, out, _ = run(capsys, "rho", "--graph6", to_graph6(__import__("alphaspec").star_graph(3)))
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
        code, _, err = run(capsys, "rho", "--graph6", "C~", "--tol", "1e-300")
        assert code == 2
        assert "residual" in err


class TestMatching:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "matching", "--graph6", "C~")
        assert code == 0
        assert "beta = 2" in out

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "matching", "--graph6", to_graph6(__import__("alphaspec").star_graph(3)), "--witness")
        assert code == 0
        assert "witness S" in out and "q=3" in out


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
        for line in out.strip().splitlines():
            report = VerificationReport.from_json_line(line)
            assert report.to_json_line() == line

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
        from alphaspec.graphs import disjoint_union, empty_graph, join

        parts = (empty_graph(2), complete_graph(7))
        clique_graph = disjoint_union(*(parts if isolates_first else parts[::-1]))
        path = tmp_path / "order9.g6"
        path.write_text(
            to_graph6(clique_graph) + "\n" + to_graph6(join(empty_graph(6), complete_graph(3))) + "\n"
        )
        code, out, _ = run(capsys, "verify", "9", "--alpha", "0", "--graph6", str(path),
                           "--format", "json-lines")
        assert code == 0
        (report,) = [VerificationReport.from_json_line(line) for line in out.strip().splitlines()]
        assert report.beta == 3
        assert len(report.argmax_certificates) == 1
        assert report.argmax_certificates == report.predicted_certificates


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

    def test_malformed_environment_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHASPEC_JOBS", "many")
        code, _, err = run(capsys, "verify", "5")
        assert code == 2
        assert "ALPHASPEC_JOBS" in err


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
        assert VerificationReport.from_json_line(self.JSON) == self.REPORT


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
    # 1e400 overflows float(alpha), 1e300 overflows (1 + alpha) ** 2 in
    # the sampled-region test; both used to end in an OverflowError traceback
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
