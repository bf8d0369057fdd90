"""Command-line surface: flags, streams, exit codes, formats."""

import errno
import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    DigraphFormatError,
    SplitMix64,
    punctured_tournament,
    read_digraph,
    ternary_tournament,
    write_digraph,
)
import trisplit
from trisplit.cli import _load_digraph, _parse_id_list, run

from naive import (
    naive_max_over_sizes,
    naive_min_out_degree,
    naive_parse_ids,
    random_digraph,
    random_tournament,
)


def stdin_of(data):
    """A text stdin over ``data`` (str or bytes) with the ``buffer`` a
    real one has."""
    return io.TextIOWrapper(io.BytesIO(data if isinstance(data, bytes) else data.encode()))


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", stdin_of(stdin))
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

    def test_out_of_memory_is_exit_two(self, capsys, monkeypatch):
        def exhausted(digraph, out=None):
            raise MemoryError
        monkeypatch.setattr("trisplit.cli.write_digraph", exhausted)
        code, out, err = invoke(capsys, ["generate", "--k", "2"])
        assert (code, out, err) == (2, "", "generate: out of memory\n")

    def test_out_of_memory_partway_leaves_a_refused_prefix(self, capsys, monkeypatch):
        # blocks of three rows of the 9-vertex tournament; the second one fails
        monkeypatch.setattr("trisplit.digraph._BLOCK_CELLS", 3 * 9)
        unpack = trisplit.digraph._unpack_rows
        calls = []

        def fail_second(rows, n):
            calls.append(n)
            if len(calls) == 2:
                raise MemoryError
            return unpack(rows, n)
        monkeypatch.setattr("trisplit.digraph._unpack_rows", fail_second)
        code, out, err = invoke(capsys, ["generate", "--k", "2"])
        assert (code, err) == (2, "generate: out of memory\n")
        assert len(calls) == 2
        full = write_digraph(ternary_tournament(2))
        assert out and full.startswith(out) and out != full
        with pytest.raises(ValueError, match=r"^expected 9 rows, got 3$"):
            read_digraph(out)

    def test_streamed_generate_memory(self):
        # the child reports how far its peak RSS rose above its post-import peak
        # while it wrote the level-8 punctured tournament (43 MB of text) to /dev/null
        child = (
            "import resource, sys\n"
            "from trisplit.cli import run\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "code = run(['generate', '--k', '8', '--delete-vertex'])\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base\n"
            "unit = 1 if sys.platform == 'darwin' else 1024  # ru_maxrss bytes or KiB\n"
            "print(code, grown * unit, file=sys.stderr)\n"
        )
        src = str(Path(trisplit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child], env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, grown = map(int, proc.stderr.split())
        assert code == 0
        assert grown < 40 << 20


class TestVerify:
    def test_level_two_passes(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--k", "2"])
        assert code == 0
        assert "PASS" in out
        assert "exact max" in out and " 1" in out

    @pytest.mark.parametrize("k", [4, 8, 10])
    def test_level_above_three_is_refused_by_its_size(self, capsys, monkeypatch, k):
        def refuse(*args, **kwargs):
            raise AssertionError("tournament built for a refused run")

        monkeypatch.setattr("trisplit.search.ternary_tournament", refuse)
        code, out, err = invoke(capsys, ["verify", "--k", str(k)])
        assert (code, out) == (2, "")
        assert err == (f"verify: level {k} has {3 ** k} vertices, "
                       "the exhaustive sweep takes at most 64\n")

    def test_takes_no_budget(self, capsys):
        # the work is fixed by the level, so there is nothing to budget
        code, out, err = invoke(capsys, ["verify", "--k", "3", "--budget", "1"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget 1" in err


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

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "0x1"])
    def test_ids_are_ascii_decimal(self, capsys, token):
        # int() reads the first three as 10, 3 and 3
        code, out, err = invoke(capsys, ["certify", "--k", "3", "--set", f"0,{token}"])
        assert (code, out, err) == (2, "", f"certify: malformed vertex id {token!r}\n")

    def test_repeated_id_refused(self, capsys):
        code, out, err = invoke(capsys, ["certify", "--k", "2", "--set", "0,0"])
        assert (code, out, err) == (2, "", "certify: vertex 0 listed twice\n")

    def test_negative_id_is_out_of_range(self, capsys):
        code, out, err = invoke(capsys, ["certify", "--k", "2", "--set", "-1"])
        assert (code, out, err) == (2, "", "certify: vertex -1 out of range for n=9\n")

    # ASCII and non-ASCII blanks, digits, signs and characters int() or
    # float() might read
    @settings(max_examples=1000)
    @given(st.text("0123456789-+_,x.e\u0663\u00a0\t\x0b\x0c\x1c\x1f\r\n ", max_size=20))
    def test_id_list_matches_the_oracle(self, text):
        try:
            parsed = _parse_id_list(text)
        except ValueError as exc:
            parsed = str(exc)
        assert parsed == naive_parse_ids(text)


class TestSearch:
    def test_stdin_pipe_and_result_line(self, capsys, monkeypatch, tmp_path):
        text = "3\n010\n001\n100\n"
        code, out, _ = invoke(capsys, ["search", "--input", "-", "--size", "3"],
                              stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines()[-1] == "RESULT max=1 set=0,1,2 exact=true visited=4"

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "tri.dg"
        p.write_text("3\n010\n001\n100\n")
        code, out, _ = invoke(capsys, ["search", "--input", str(p), "--size", "1"])
        assert code == 0
        assert "RESULT max=0 set=0 exact=true visited=2" in out

    def test_engines_selectable(self, capsys, tmp_path):
        p = tmp_path / "tri.dg"
        p.write_text("3\n010\n001\n100\n")
        outs = {}
        for engine in ("auto", "blocks", "bb"):
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
        assert "engine      bb" in out.splitlines()
        assert out.splitlines()[-1] == "RESULT max=1 set=0,1,2 exact=true visited=4"

    def test_auto_runs_bb_past_64_vertices(self, capsys, tmp_path):
        arcs = random_digraph(SplitMix64(70), 70)
        p = tmp_path / "seventy.dg"
        p.write_text(write_digraph(Digraph.from_arcs(70, sorted(arcs))))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "2"])
        assert code == 0 and err == ""
        assert "engine      bb" in out.splitlines()
        value, witness = naive_max_over_sizes(arcs, 70, [2])
        assert out.splitlines()[-1].startswith(
            f"RESULT max={value} set={','.join(map(str, witness))} exact=true ")

    def test_auto_runs_bb_where_the_subsets_exceed_the_budget(self, capsys, tmp_path):
        # C(90, 10) subsets are far past the budget; bb needs few nodes
        arcs = random_tournament(SplitMix64(90), 90)
        p = tmp_path / "ninety.dg"
        p.write_text(write_digraph(Digraph.from_arcs(90, sorted(arcs))))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "10"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert "engine      bb" in lines
        result = dict(kv.split("=", 1) for kv in lines[-1].split()[1:])
        witness = set(map(int, result["set"].split(",")))
        assert len(witness) == 10
        assert naive_min_out_degree(arcs, witness) == int(result["max"])

    def test_blocks_mask_build_honours_budget(self, capsys, tmp_path):
        p = tmp_path / "twelve.dg"
        p.write_text(write_digraph(Digraph.from_arcs(12, [(i, (i + 1) % 12) for i in range(12)])))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "11",
                                         "--engine", "blocks", "--budget", "11"])
        assert code == 2 and out == ""
        assert err == "search: search needs 12 subsets, budget allows 11\n"
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "11",
                                         "--engine", "blocks", "--budget", "12"])
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith(" visited=12")

    def test_budget_refusal(self, capsys, tmp_path, monkeypatch):
        # the sweep's own count refuses, before any subset is scored
        def refuse(*args, **kwargs):
            raise AssertionError("sweep ran for a refused budget")

        monkeypatch.setattr("trisplit.search._blocks_by_size", refuse)
        p = tmp_path / "p3.dg"
        p.write_text(write_digraph(punctured_tournament(3)))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "13",
                                         "--engine", "blocks", "--budget", "10400599"])
        assert (code, out) == (2, "")
        assert err == "search: search needs 10400600 subsets, budget allows 10400599\n"

    def test_blocks_refuses_past_64_vertices(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep ran past its vertex limit")

        monkeypatch.setattr("trisplit.search._blocks_by_size", refuse)
        arcs = random_tournament(SplitMix64(65), 65)
        p = tmp_path / "sixty-five.dg"
        p.write_text(write_digraph(Digraph.from_arcs(65, sorted(arcs))))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "2",
                                         "--engine", "blocks"])
        assert (code, out) == (2, "")
        assert err == "search: blocks engine requires at most 64 vertices\n"

    def test_bb_honours_budget(self, capsys, tmp_path):
        p = tmp_path / "five.dg"
        p.write_text(write_digraph(Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "3",
                                         "--engine", "bb", "--budget", "1"])
        assert code == 2 and out == ""
        assert "budget allows 1" in err

    def test_bb_negative_budget_names_one_node(self, capsys, tmp_path):
        p = tmp_path / "five.dg"
        p.write_text(write_digraph(Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "3",
                                         "--engine", "bb", "--budget", "-1"])
        assert code == 2 and out == ""
        assert err == "search: search needs 1 node or more, budget allows -1\n"

    @pytest.mark.parametrize("engine, unit", [("auto", "node or more"),
                                              ("blocks", "subset")])
    def test_size_zero_at_budget_zero_names_one_unit(self, capsys, tmp_path, engine, unit):
        # auto runs bb, which refuses its first node
        p = tmp_path / "five.dg"
        p.write_text(write_digraph(Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])))
        code, out, err = invoke(capsys, ["search", "--input", str(p), "--size", "0",
                                         "--engine", engine, "--budget", "0"])
        assert code == 2 and out == ""
        assert err == f"search: search needs 1 {unit}, budget allows 0\n"

    @pytest.mark.parametrize("engine", ["auto", "blocks", "bb"])
    def test_empty_digraph_at_size_zero(self, capsys, monkeypatch, engine):
        code, out, err = invoke(capsys, ["search", "--input", "-", "--size", "0",
                                         "--engine", engine],
                                stdin="0\n", monkeypatch=monkeypatch)
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "RESULT max=0 set=- exact=true visited=1"

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

    @pytest.mark.parametrize("row", [b"0\xff", "0é".encode()], ids=["byte_ff", "e_acute"])
    def test_file_and_stdin_read_alike(self, capsys, monkeypatch, tmp_path, row):
        data = b"2\n" + row + b"\n10\n"
        p = tmp_path / "bad.dg"
        p.write_bytes(data)
        argv = ["search", "--input", str(p), "--size", "1"]
        by_file = invoke(capsys, argv)
        argv[2] = "-"
        by_stdin = invoke(capsys, argv, stdin=data, monkeypatch=monkeypatch)
        assert by_file == by_stdin == (2, "", "search: row 0 contains characters other than 0/1\n")

    def test_closed_stdin_is_refused(self):
        src = str(Path(trisplit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # the child starts with no file descriptor 0, as under `<&-`
        proc = subprocess.run(
            [sys.executable, "-m", "trisplit.cli", "search", "--input", "-", "--size", "1"],
            env=env, capture_output=True, preexec_fn=lambda: os.close(0), text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "search: standard input is closed\n")

    def test_budget_flag(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys,
            ["search", "--input", "-", "--size", "2", "--budget", "2"],
            stdin="3\n010\n001\n100\n", monkeypatch=monkeypatch)
        assert code == 2 and "3" in err


class TestOversizedIntegers:
    """Integers from outside the program past Python's int-to-str digit
    limit are refused with the program's own one-line message, which
    does not echo the digits."""

    @pytest.fixture(autouse=True)
    def small_digit_limit(self):
        # the smallest limit Python allows keeps the inputs small
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(digits)

    def test_reader_refuses_a_long_count(self):
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph("0" * 641 + "\n")
        message = str(exc.value)
        assert message.startswith("malformed vertex count")
        assert "0" * 10 not in message and len(message) < 80

    def test_certify_refuses_a_long_id(self, capsys):
        code, out, err = invoke(capsys, ["certify", "--k", "2", "--set", "0," + "1" * 641])
        assert (code, out) == (2, "")
        assert err == "certify: vertex id with too many digits to read\n"

    def test_search_from_file_and_stdin(self, capsys, monkeypatch, tmp_path):
        data = "1" * 641 + "\n"
        p = tmp_path / "long.dg"
        p.write_text(data)
        argv = ["search", "--input", str(p), "--size", "1"]
        by_file = invoke(capsys, argv)
        argv[2] = "-"
        by_stdin = invoke(capsys, argv, stdin=data, monkeypatch=monkeypatch)
        assert by_file == by_stdin
        code, out, err = by_file
        assert (code, out) == (2, "")
        assert err.startswith("search: malformed vertex count")
        assert "1" * 10 not in err and len(err.splitlines()[0]) < 80
        assert err.count("\n") == 1


_LONG = "1" * 4000


class TestLongValues:
    """Integers from outside the program past 20 digits, within
    Python's digit limit, are named by their digit count, and a bad int
    flag by its first 20 characters and its length, so every refusal is
    one short line; ordinary values read as before."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--k", _LONG],
         "level <4000-digit number> is above the largest level, 10 (59049 vertices)"),
        (["generate", "--k", "-" + _LONG], "level must be >= 0, got <negative 4000-digit number>"),
        (["certify", "--k", "2", "--set", _LONG], "vertex <4000-digit number> out of range for n=9"),
        (["certify", "--k", "2", "--set", f"{_LONG},{_LONG}"],
         "vertex <4000-digit number> listed twice"),
        (["search", "--input", "-", "--size", _LONG],
         "subset size <4000-digit number> out of range for n=3"),
        (["search", "--input", "-", "--size", "1", "--budget", "-" + _LONG],
         "search needs 1 node or more, budget allows <negative 4000-digit number>"),
        (["split", "--input", "-", "--trials", "-" + _LONG],
         "need at least one trial, got <negative 4000-digit number>"),
        (["table", "--kmax", _LONG], "k_max must be <= 9000, got <4000-digit number>"),
    ], ids=["level", "negative-level", "vertex", "repeat", "size", "budget", "trials", "kmax"])
    def test_integer_named_by_digit_count(self, capsys, monkeypatch, argv, message):
        code, out, err = invoke(capsys, argv, stdin="2\n01\n10\n" if "split" in argv
                                else "3\n010\n001\n100\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"{argv[0]}: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["generate", "--k"], ["verify", "--k"], ["certify", "--set", "0", "--k"],
        ["search", "--input", "-", "--size"], ["search", "--input", "-", "--size", "1", "--budget"],
        ["split", "--input", "-", "--trials"], ["split", "--input", "-", "--trials", "1", "--seed"],
        ["table", "--kmax"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_int_flag_quotes_a_prefix(self, capsys, argv):
        command, flag = argv[0], argv[-1]
        code, out, err = invoke(capsys, argv + ["x" * 100_000])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"trisplit {command}: error: argument {flag}: invalid int value: "
            "'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)")
        assert len(err) < 500
        code, out, err = invoke(capsys, argv + ["1x"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == \
            f"trisplit {command}: error: argument {flag}: invalid int value: '1x'"

    def test_long_header_on_stdin(self, capsys, monkeypatch):
        code, out, err = invoke(capsys, ["search", "--input", "-", "--size", "1"],
                                stdin="x" * 100_000 + "\n", monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "search: malformed vertex count 'xxxxxxxxxxxxxxxxxxxx'... " \
                      "(100000 characters)\n"


_XS = "x" * 100_000
_QUOTED_XS = "'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)"


class TestLongOutsideText:
    """Outside text in a refusal, from argparse or the program, is
    quoted by its first 20 characters and its length, so stderr stays
    short; ordinary refusals keep their wording."""

    @pytest.mark.parametrize("argv, last_line", [
        (["certify", "--k", "2", "--set", _XS], f"certify: malformed vertex id {_QUOTED_XS}"),
        (["search", "--engine", _XS, "--input", "-", "--size", "1"],
         f"trisplit search: error: argument --engine: invalid choice: {_QUOTED_XS} "
         "(choose from 'auto', 'blocks', 'bb')"),
        (["table", "--kmax", "2", _XS], f"trisplit: error: unrecognized arguments: {_QUOTED_XS}"),
        (["table", "--kmax", "2"] + ["x"] * 50_000,
         "trisplit: error: unrecognized arguments: 'x x x x x x x x x x '... (99999 characters)"),
        (["search", "--input", _XS, "--size", "1"],
         f"search: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: {_QUOTED_XS}"),
        ([_XS], f"trisplit: error: argument command: invalid choice: {_QUOTED_XS} (choose from "
                "'generate', 'verify', 'certify', 'search', 'split', 'table')"),
    ], ids=["set", "engine", "extra", "many-extra", "input", "command"])
    def test_refusal_is_short(self, capsys, argv, last_line):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == last_line
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("argv", [
        ["table", "--kmax", "2", "--=" + _XS],
        ["generate", "--k", "1", "--delete-vertex=" + _XS],
        ["table", "-h" + _XS],
    ], ids=["ambiguous", "flag-value", "short-flags"])
    def test_rarer_argparse_refusals_are_quoted_whole(self, capsys, argv):
        # an ambiguous prefix or a value given to a flag; the wording is argparse's
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"trisplit \w+: error: '.{20}'\.\.\. \(\d{6} characters\)",
                            err.splitlines()[-1])
        assert len(err.encode()) < 300

    def test_long_id_matches_the_oracle(self):
        with pytest.raises(ValueError) as exc:
            _parse_id_list(f"0, {_XS} ,1")
        assert str(exc.value) == naive_parse_ids(f"0, {_XS} ,1")

    @pytest.mark.parametrize("argv, message", [
        (["search", "--engine", "x", "--input", "-", "--size", "1"],
         "trisplit search: error: argument --engine: invalid choice: 'x' "
         "(choose from 'auto', 'blocks', 'bb')"),
        (["table", "--kmax", "2", "a", "b"], "trisplit: error: unrecognized arguments: a b"),
        (["search", "--input", "/no/such", "--size", "1"],
         "search: [Errno 2] No such file or directory: '/no/such'"),
        (["generate", "--k", "1", "--delete-vertex=1"],
         "trisplit generate: error: argument --delete-vertex: ignored explicit argument '1'"),
    ], ids=["engine", "extra", "input", "flag-value"])
    def test_ordinary_refusals_keep_their_wording(self, capsys, argv, message):
        code, out, err = invoke(capsys, argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", message)


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

    @pytest.mark.parametrize("text, seed, expected", [
        ("0\n", 4, "0,17910168766398507921,0,0\n1,16615945980102658620,0,0\n"
                   "2,2554248263986949992,0,0\n"),
        ("2\n01\n10\n", 8, "0,721373886964523290,0,0\n1,10267574001610339165,0,0\n"
                            "2,15722710495894201946,0,0\n"),
    ])
    def test_smallest_digraphs_exact(self, capsys, monkeypatch, text, seed, expected):
        code, out, err = invoke(
            capsys, ["split", "--input", "-", "--trials", "3", "--seed", str(seed)],
            stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out == "trial,seed,delta_one,delta_two\n" + expected
        assert err == "split: 3 trials, max delta 0, mean 0.0000\n"

    def test_odd_order_rejected(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys, ["split", "--input", "-", "--trials", "1"],
            stdin="3\n010\n001\n100\n", monkeypatch=monkeypatch)
        assert code == 2 and "even" in err

    def test_input_bytes_freed_before_the_parse(self, tmp_path):
        # the file's bytes and its decoded text coexist only while it is
        # decoded; bytes kept through the parse would add the parse's own peak
        d = punctured_tournament(7)
        path = tmp_path / "punctured7.txt"
        with path.open("w") as f:
            write_digraph(d, f)
        tracemalloc.start()
        try:
            loaded = _load_digraph(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == d
        assert peak < 2 * path.stat().st_size + (1 << 20)


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

    def test_zero_rows_rejected(self, capsys):
        code, _, err = invoke(capsys, ["table", "--kmax", "0"])
        assert code == 2 and err

    def test_unprintable_rows_refused_up_front(self, capsys):
        code, out, err = invoke(capsys, ["table", "--kmax", "10000"])
        assert code == 2 and out == ""
        assert err == "table: k_max must be <= 9000, got 10000\n"


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert invoke(capsys, [])[0] == 2

    def test_unknown_command(self, capsys):
        assert invoke(capsys, ["frobnicate"])[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, ["generate", "--k", "1", "--wat"])[0] == 2

    def test_help_exits_clean(self, capsys):
        assert invoke(capsys, ["--help"])[0] == 0

    def test_parser_is_built_once_per_import(self):
        # in-process callers run many commands; count the top-level
        # parsers that three of them construct in a fresh interpreter
        script = "\n".join([
            "import argparse, contextlib, io",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counted(self, *args, **kwargs):",
            "    built.append(kwargs.get('prog'))",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counted",
            "from trisplit.cli import run",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [run(['table', '--kmax', '1']) for _ in range(3)]",
            "print(codes, built.count('trisplit'))",
        ])
        src = str(Path(trisplit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0] 1\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--threads", "2", "--k", "2"],
        ["search", "--input", "-", "--size", "1", "--threads", "2"],
        ["generate", "--k", "1", "--max-vertices", "9"],
        ["search", "--input", "-", "--size", "1", "--engine", "gosper"],
        ["table", "--kmax", "2", "--curves"],
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, out, _ = invoke(capsys, argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "40"],
        ["certify", "--k", "41", "--set", "0"],
        ["generate", "--k", "41"],
        # 3**level has more decimal digits than the interpreter prints
        ["verify", "--k", "10000"],
        ["certify", "--k", "100000", "--set", "0"],
    ])
    def test_huge_level_refused_up_front(self, capsys, argv):
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"{argv[0]}: level {argv[2]} is above the largest level, " \
                      "10 (59049 vertices)\n"

    def test_level_refusal_takes_bounded_time(self, capsys):
        # 3**100000000 is never computed
        code, out, err = invoke(capsys, ["verify", "--k", "100000000"])
        assert code == 2 and out == ""
        assert err == "verify: level 100000000 is above the largest level, " \
                      "10 (59049 vertices)\n"

    def test_generate_pipes_into_search(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, ["generate", "--k", "2"])
        assert code == 0
        code2, out2, _ = invoke(capsys, ["search", "--input", "-", "--size", "4"],
                                stdin=out, monkeypatch=monkeypatch)
        assert code2 == 0
        assert "RESULT max=1 set=0,1,2,6 exact=true" in out2


#: sha256 of exit code, stdout and stderr, with ``elapsed`` masked, per
#: command; {t12} is a seeded 12-vertex tournament, {p3} the punctured
#: level-3 tournament.  A refactor must leave every digest unchanged.
GOLDEN = {
    "verify --k 0":
        "5e5f603d2affe218e021bd9d56da7976674a589dacbf84d39fe87efa528ab755",
    "verify --k 1":
        "a4deaebd63a7ca443d71ab3064923c426e132a5cdff459597a13cb480646df37",
    "verify --k 2":
        "226923b08d187c79a689e78db04571f7814892f15160086e47cbd68d82df825c",
    "verify --k 3":
        "ef369f91803b8b3db83811149ccd6ba7502bcbfd2b7f60a7c234b1c13af72dca",
    "generate --k 4":
        "c8960a656506149cd1e0727d8042bcc63bcc2fabeb2d3530920fbe0f38478eeb",
    "generate --k 4 --delete-vertex":
        "be4f939ba668e68b300addae16ec61b63a092dd680c84e004d2c8c5a08fbf653",
    "certify --k 3 --set":
        "b3c113c9307727dd66c7708ab4c4d9b3ccde194181dd13cd9d78bea40751ec2e",
    "certify --k 3 --set 0,1,2":
        "922ffc3643a23e47fb82fd76051865af1d77282f29ba0bf577ef48c36ca0f2b1",
    "certify --k 3 --set 0,9,18":
        "50aafe84c040da3caa69aa2ce82d34e8497c3d7dd45188d18ac3efbf5b038d06",
    "certify --k 3 --set 0,1,2,3,4,9,10,11,12,13,18":
        "858efb4e6735a20c4d7d0ce272ac01e00ac2064058981f0fbf7f616aeb2f2a17",
    "search --input {t12} --size 7 --engine auto":
        "2f4ed46f8e5abc904573db424bb50a8579f017a78d46595da2be10f30b19e539",
    "search --input {t12} --size 7 --engine blocks":
        "af50b8913735ece9bf4b14ea461d19dc36ddd2227b62a32fc4102613182c16d4",
    "search --input {t12} --size 7 --engine bb":
        "2f4ed46f8e5abc904573db424bb50a8579f017a78d46595da2be10f30b19e539",
    # 26 vertices across many tiles
    "search --input {p3} --size 13 --engine blocks":
        "32dbf689a900f0e14ad79e538b11dc53bf069727954a51f7d75602ca4fa92c66",
    "split --input {p3} --trials 1":
        "e8a161a66ab2565749f20ff0cce4c22c4105100561016a53f960c0c4c762ae81",
    "split --input {p3} --trials 20 --seed 3":
        "ac0532b4e6fa1127a67c93427c7942843ef08477635cc6a2a2763f749248859b",
    "table --kmax 12":
        "9d6c74322e9fd866482cb8aa6c88850433b6025963c470471f901d5403c1f69f",
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    t12 = Digraph.from_arcs(12, random_tournament(SplitMix64(7), 12))
    paths = {}
    for name, digraph in (("t12", t12), ("p3", punctured_tournament(3))):
        paths[name] = root / f"{name}.dg"
        paths[name].write_text(write_digraph(digraph))
    return paths


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_transcript(capsys, golden_inputs, command):
    argv = command.format(**golden_inputs).split(" ")
    if argv[-1] == "--set":
        argv.append("")  # the empty subset
    code, out, err = invoke(capsys, argv)
    transcript = re.sub(r"(elapsed +)\S+", r"\1-", f"{code}\n{out}\n{err}")
    assert hashlib.sha256(transcript.encode()).hexdigest() == GOLDEN[command]


def test_golden_bb_result_matches_the_sweep_up_to_visited(capsys, golden_inputs):
    """Branch and bound's digest pins its node count; its answer is the
    sweep's.  ``auto`` runs branch and bound, so its digest is bb's."""
    assert GOLDEN["search --input {t12} --size 7 --engine auto"] == \
        GOLDEN["search --input {t12} --size 7 --engine bb"]
    lines = {}
    for engine in ("auto", "bb", "blocks"):
        code, out, _ = invoke(capsys, ["search", "--input", str(golden_inputs["t12"]),
                                       "--size", "7", "--engine", engine])
        assert code == 0
        lines[engine] = out.splitlines()[-1].split(" visited=")[0]
    assert lines["auto"] == lines["bb"] == lines["blocks"] == \
        "RESULT max=3 set=0,3,4,5,7,9,11 exact=true"


def _matrix_text(n):
    """A count line and n rows of n characters from {0,1}: well shaped,
    though a diagonal 1 still makes it invalid."""
    rows = st.lists(st.text(alphabet="01", min_size=n, max_size=n),
                    min_size=n, max_size=n)
    return rows.map(lambda r: "\n".join([str(n), *r]) + "\n")


@pytest.mark.parametrize("argv", [
    ["search", "--input", "-", "--size", "1"],
    ["split", "--input", "-", "--trials", "1"],
])
@settings(max_examples=150, deadline=None)
@given(text=st.one_of(st.text(max_size=40),
                      st.integers(min_value=0, max_value=6).flatmap(_matrix_text)))
def test_garbage_stdin_exits_zero_or_two(argv, text):
    """Any text on stdin either parses and runs (0) or is refused (2)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", stdin_of(text))
        mp.setattr("sys.stdout", io.StringIO())
        mp.setattr("sys.stderr", io.StringIO())
        assert run(argv) in (0, 2)
