import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evpricing

from conftest import CLI_COMMANDS, GOLDEN

MODULES = ["competition", "distributions", "errors", "evtfit", "guarantees", "kernel", "policy"]


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_each_public_name(name):
    # a module's __all__, or every public name of one without it (errors)
    module = importlib.import_module(f"evpricing.{name}")
    names = getattr(module, "__all__", [s for s in vars(module) if not s.startswith("_")])
    assert names
    for symbol in names:
        assert getattr(evpricing, symbol, None) is getattr(module, symbol), symbol


SRC = Path(evpricing.__file__).resolve().parent


def scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter; return the scipy modules it loaded.

    The test process has loaded scipy itself, so only a new process can tell.
    """
    script = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
                     " if m.split('.')[0] == 'scipy')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def cli(argv: list[str]) -> str:
    """Code that runs one README command, its HIST output in a temporary directory."""
    argv = [str(GOLDEN / "bids.csv") if a == "BIDS" else a for a in argv]
    return ("import os, tempfile\nfrom evpricing.cli import main\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            f"    argv = [os.path.join(tmp, 'hist.csv') if a == 'HIST' else a for a in {argv!r}]\n"
            "    assert main(argv) == 0")


@pytest.mark.parametrize("code", [
    pytest.param("import evpricing", id="import"),
    pytest.param("import evpricing.cli", id="import-cli"),
    # the README commands
    *(pytest.param(cli(argv), id=name) for name, argv in CLI_COMMANDS.items()),
    # the capped counts of the Poisson and binomial laws, walked in Python
    pytest.param("from evpricing import phi_k\nphi_k(2.5, 3)", id="phi_k-numeric"),
    pytest.param("from evpricing import Pareto, order_statistic_tail\n"
                 "order_statistic_tail(Pareto(2.0), 10 ** 6, 2, 1e3)", id="order_statistic_tail"),
])
def test_no_scipy_without_a_special_function(code):
    # no call of the package loads scipy: the README commands and each capped-count route
    assert scipy_modules_after(code) == []


def test_no_runtime_module_imports_scipy():
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == set()
