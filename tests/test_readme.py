"""The README's command-line examples, run through the CLI in process."""

import io
import re
import shlex
from pathlib import Path

import pytest

from trisplit.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(command line, shown output lines) for each ``$ trisplit`` line
    of the README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line and not line.startswith("#") and examples:
            examples[-1][1].append(line)
    return examples


def _masked(line):
    return re.sub(r"^(elapsed\s+)\d+\.\d+s$", r"\1*", line)


def _matches(shown, actual):
    """Whether ``actual`` reads as ``shown``, a ``...`` line standing
    for any run of lines."""
    if not shown:
        return not actual
    if shown[0] == "...":
        return any(_matches(shown[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and _masked(shown[0]) == _masked(actual[0]) \
        and _matches(shown[1:], actual[1:])


def _limits():
    """(command line, stderr line) for each bullet of the README's
    "Exit codes and limits" list."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Exit codes and limits", 1)[1].split("\n#", 1)[0]
    bullets = [" ".join(b.split("\n\n")[0].split())
               for b in re.split(r"^- ", section, flags=re.M)[1:]]
    return [re.match(r"`([^`]+)` prints `([^`]+)`", b).groups() for b in bullets]


EXAMPLES = _examples()
LIMITS = _limits()


def test_the_block_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, command, shown):
    out = None
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "trisplit"
        if out is not None:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
        code = run(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, stage
    assert _matches(shown, out.splitlines()), out


def test_the_list_has_limits():
    assert len(LIMITS) >= 5


@pytest.mark.parametrize("command, line", LIMITS, ids=[c for c, _ in LIMITS])
def test_readme_limit(capsys, command, line):
    code = run(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", line + "\n")
