"""The benchmark's traced layers and CLI hooks exist in the package.

``bench/tracing.py`` patches the functions named in its ``TRACED`` list,
and ``bench/run.py`` writes its inputs through ``trisplit.cli``.  A
rename or deletion in the package would break the benchmark only when
it runs; these checks catch it with the test suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _load_tracing().TRACED])
def test_traced_names_resolve(module, attr):
    owner = importlib.import_module(f"trisplit.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_cli_exposes_input_writers():
    cli = importlib.import_module("trisplit.cli")
    assert callable(cli.run)
    assert callable(cli.Digraph) and callable(cli.write_digraph)
