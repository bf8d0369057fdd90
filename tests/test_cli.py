"""Command-line surface: flags, streams, exit codes, formats."""

import io

import pytest

from trisplit import (
    Digraph,
    punctured_tournament,
    read_digraph,
    ternary_tournament,
    write_digraph,
)
from trisplit.cli import run


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_triangle_bytes_exact(self, capsys):
        code, out, err = invoke(capsys, ["generate", "--k", "1"])
        assert code == 0
        assert out == "3\n010\n001\n100\n"

    def test_output_parses_back(self, capsys):
        code, out, _ = invoke(capsys, ["generate", "--k", "2"])
        assert code == 0
        assert read_digraph(out) == ternary_tournament(2)

    def test_delete_vertex(self, capsys):
        code, out, _ = invoke(capsys, ["generate", "--k", "2", "--delete-vertex"])
        assert code == 0
        assert read_digraph(out) == punctured_tournament(2)

    def test_delete_vertex_needs_positive_level(self, capsys):
        code, out, err = invoke(capsys, ["generate", "--k", "0", "--delete-vertex"])
        assert code == 2 and out == "" and "k >= 1" in err

    def test_negative_level(self, capsys):
        code, _, err = invoke(capsys, ["generate", "--k", "-1"])
        assert code == 2 and err


class TestVerify:
    def test_level_two_passes(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--k", "2"])
        assert code == 0
        assert "PASS" in out
        assert "exact max" in out and " 1" in out

    def test_budget_refusal(self, capsys):
        code, out, err = invoke(capsys, ["verify", "--k", "4"])
        assert code == 2
        assert out == ""
        assert err == ("verify: search needs 1208925819614629174706176 subsets, "
                       "budget allows 134217728\n")

    def test_tight_budget_on_small_level(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--k", "2", "--budget", "10"])
        assert code == 2 and "256" in err


class TestCertify:
    def test_report_fields(self, capsys):
        code, out, _ = invoke(capsys, ["certify", "--k", "2", "--set", "0,1,2"])
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("bound") and line.endswith("1") for line in lines)
        assert any(line.startswith("actual") and line.endswith("1") for line in lines)
        assert "empty_part" in out

    def test_empty_set(self, capsys):
        code, out, _ = invoke(capsys, ["certify", "--k", "1", "--set", ""])
        assert code == 0
        assert "base" in out

    def test_oversize_subset(self, capsys):
        code, _, err = invoke(capsys, ["certify", "--k", "1", "--set", "0,1"])
        assert code == 2 and "precondition" in err

    def test_out_of_range_id(self, capsys):
        code, _, err = invoke(capsys, ["certify", "--k", "1", "--set", "9"])
        assert code == 2 and err

    def test_spaces_tolerated(self, capsys):
        code, out, _ = invoke(capsys, ["certify", "--k", "2", "--set", " 0, 3 ,6 "])
        assert code == 0 and "two_small" in out


class TestSearch:
    def test_stdin_pipe_and_result_line(self, capsys, monkeypatch, tmp_path):
        text = "3\n010\n001\n100\n"
        code, out, _ = invoke(capsys, ["search", "--input", "-", "--size", "3"],
                              stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines()[-1] == "RESULT max=1 set=0,1,2 exact=true visited=1"

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "tri.dg"
        p.write_text("3\n010\n001\n100\n")
        code, out, _ = invoke(capsys, ["search", "--input", str(p), "--size", "1"])
        assert code == 0
        assert "RESULT max=0 set=0 exact=true visited=3" in out

    def test_engines_selectable(self, capsys, tmp_path):
        p = tmp_path / "tri.dg"
        p.write_text("3\n010\n001\n100\n")
        outs = {}
        for engine in ("auto", "blocks", "gosper", "bb"):
            code, out, _ = invoke(capsys, ["search", "--input", str(p),
                                           "--size", "2", "--engine", engine])
            assert code == 0
            outs[engine] = out.splitlines()[-1].split("visited")[0]
        assert len(set(outs.values())) == 1

    def test_prints_resolved_engine(self, capsys, tmp_path):
        p = tmp_path / "tri.dg"
        p.write_text("3\n010\n001\n100\n")
        code, out, _ = invoke(capsys, ["search", "--input", str(p), "--size", "3"])
        assert code == 0
        assert "engine      blocks" in out.splitlines()
        assert out.splitlines()[-1] == "RESULT max=1 set=0,1,2 exact=true visited=1"
        cycle = Digraph.from_arcs(70, [(i, (i + 1) % 70) for i in range(70)])
        p.write_text(write_digraph(cycle))
        code, out, _ = invoke(capsys, ["search", "--input", str(p), "--size", "1"])
        assert code == 0
        assert "engine      gosper" in out.splitlines()

    def test_bb_honours_budget(self, capsys, tmp_path):
        p = tmp_path / "five.dg"
        p.write_text(write_digraph(Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "3",
                                         "--engine", "bb", "--budget", "1"])
        assert code == 2 and out == ""
        assert "budget allows 1" in err

    def test_bb_deep_search_needs_no_recursion(self, capsys, tmp_path):
        p = tmp_path / "arcless.dg"
        p.write_text(write_digraph(Digraph(1500, [0] * 1500)))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "1200",
                                         "--engine", "bb"])
        assert code == 0 and err == ""
        assert out.splitlines()[-1].startswith("RESULT max=0 set=0,1,2,")

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, ["search", "--input", "/no/such", "--size", "1"])
        assert code == 2 and err

    def test_malformed_input(self, capsys, monkeypatch):
        code, _, err = invoke(capsys, ["search", "--input", "-", "--size", "1"],
                              stdin="2\n01\n", monkeypatch=monkeypatch)
        assert code == 2 and err

    def test_budget_flag(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys,
            ["search", "--input", "-", "--size", "2", "--budget", "2"],
            stdin="3\n010\n001\n100\n", monkeypatch=monkeypatch)
        assert code == 2 and "3" in err


class TestSplit:
    def test_csv_header_and_rows(self, capsys, monkeypatch):
        text = "2\n01\n10\n"
        code, out, err = invoke(
            capsys, ["split", "--input", "-", "--trials", "3", "--seed", "5"],
            stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trial,seed,delta_one,delta_two"
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2]
        assert "max delta" in err

    def test_deterministic_given_seed(self, capsys, monkeypatch):
        argv = ["split", "--input", "-", "--trials", "4", "--seed", "8"]
        text = "2\n01\n10\n"
        first = invoke(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        second = invoke(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        assert first == second

    def test_odd_order_rejected(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys, ["split", "--input", "-", "--trials", "1"],
            stdin="3\n010\n001\n100\n", monkeypatch=monkeypatch)
        assert code == 2 and "even" in err


class TestTable:
    def test_csv_exact_small(self, capsys):
        code, out, err = invoke(capsys, ["table", "--kmax", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n,s,bound,gap_num,gap_den,log3_s"
        assert lines[1] == "1,1,0,0,0,1,nan"
        assert lines[2] == "2,4,3,1,1,2,1.0"
        assert lines[3].startswith("3,13,12,5,1,1,2.26")
        assert err == ""

    def test_curves_are_extra_columns_with_note(self, capsys):
        code, out, err = invoke(capsys, ["table", "--kmax", "2", "--curves"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n,s,bound,gap_num,gap_den,log3_s,ref_log,ref_sqrt"
        assert "reference shape only" in err

    def test_zero_rows_rejected(self, capsys):
        code, _, err = invoke(capsys, ["table", "--kmax", "0"])
        assert code == 2 and err


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert invoke(capsys, [])[0] == 2

    def test_unknown_command(self, capsys):
        assert invoke(capsys, ["frobnicate"])[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, ["generate", "--k", "1", "--wat"])[0] == 2

    def test_help_exits_clean(self, capsys):
        assert invoke(capsys, ["--help"])[0] == 0

    def test_generate_pipes_into_search(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, ["generate", "--k", "2"])
        assert code == 0
        code2, out2, _ = invoke(capsys, ["search", "--input", "-", "--size", "4"],
                                stdin=out, monkeypatch=monkeypatch)
        assert code2 == 0
        assert "RESULT max=1 set=0,1,2,6 exact=true" in out2
