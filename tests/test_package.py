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


def public_names(name: str) -> list[str]:
    """A submodule's __all__, or every public name of one without it (errors)."""
    module = importlib.import_module(f"evpricing.{name}")
    return getattr(module, "__all__", [s for s in vars(module) if not s.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_each_public_name(name):
    module = importlib.import_module(f"evpricing.{name}")
    names = public_names(name)
    assert names
    for symbol in names:
        assert getattr(evpricing, symbol, None) is getattr(module, symbol), symbol


SRC = Path(evpricing.__file__).resolve().parent


def in_fresh_interpreter(code: str, result: str):
    """Run code in a fresh interpreter; return the JSON value of the expression result.

    The test process has loaded scipy and every evpricing module itself, so only a
    new process can tell what a piece of code loads.
    """
    script = code + f"\nimport json, sys\nprint(json.dumps({result}))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def modules_after(code: str, package: str) -> list[str]:
    """The modules of a package that code loads in a fresh interpreter."""
    return in_fresh_interpreter(
        code, f"sorted(m for m in sys.modules if m.split('.')[0] == {package!r})")


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
    assert modules_after(code, "scipy") == []


def test_references_load_no_evpricing_module():
    # the oracles of tier-1 are independent of the code they check
    tests = Path(__file__).resolve().parent
    code = f"import sys\nsys.path.insert(0, {str(tests)!r})\nimport references"
    assert modules_after(code, "references") == ["references"]
    assert modules_after(code, "evpricing") == []


def test_no_runtime_module_imports_scipy():
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_only_the_tail_integrals_call_integrate():
    # distributions picks every quadrature of a model's tail; the DP steps and
    # policy's conditional means take the closed-form tail integral from it
    callers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "integrate":
                    callers.add(path.stem)
    assert callers == {"distributions"}


_GUARANTEE = ["errors", "guarantees", "kernel"]
_POLICY = ["distributions", "errors", "kernel", "policy"]

#: The evpricing modules beside evpricing.cli that each README command loads.
COMMAND_MODULES = {
    "guarantees": _GUARANTEE, "phi1-min": _GUARANTEE, "adaptivity-gap": _GUARANTEE,
    "evaluate": _POLICY, "converge-pareto": _POLICY, "converge-exp": _POLICY,
    "simulate": _POLICY,
    "competition": ["competition", "distributions", "errors", "kernel"],
    "fit": [m for m in MODULES if m != "competition"],
}


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_readme_command_loads_only_its_modules(name):
    loaded = modules_after(cli(CLI_COMMANDS[name]), "evpricing")
    assert loaded == sorted(["evpricing", "evpricing.cli",
                             *(f"evpricing.{m}" for m in COMMAND_MODULES[name])])


#: The README commands that run on the standard library alone.
NUMPY_FREE = ("guarantees", "phi1-min", "adaptivity-gap", "evaluate", "competition")

#: One model of each kind for the numpy-free library calls, one of them rescaled.
_SIX_KINDS = ("Pareto(2.0)", "Exponential(1e8)", "Uniform(0.0, 1.0)", "Frechet(0.0, 1.0, 2.5)",
              "Gumbel(0.0, 1.0)", "BoundedPower(1.0, 2.0)")


@pytest.mark.parametrize("code", [
    *(pytest.param(cli(CLI_COMMANDS[name]), id=name) for name in NUMPY_FREE),
    pytest.param("from evpricing.guarantees import phi_k\nphi_k(2.5, 3)", id="phi_k"),
    pytest.param("from evpricing.guarantees import minimize_phi_1\nminimize_phi_1()",
                 id="minimize_phi_1"),
    pytest.param("from evpricing.guarantees import adaptivity_gap\nadaptivity_gap()",
                 id="adaptivity_gap"),
    # the exact policy value and the DP competition complexity: scalar sf and
    # list panels
    pytest.param("from evpricing.distributions import Pareto\n"
                 "from evpricing.policy import prophet_value\n"
                 "prophet_value(Pareto(2.0), 100, 3)", id="prophet_value"),
    pytest.param("from evpricing.distributions import Pareto\n"
                 "from evpricing.policy import fixed_price_value_exact\n"
                 "fixed_price_value_exact(Pareto(2.0), 100, 3, 2.5)",
                 id="fixed_price_value_exact"),
    *(pytest.param("from evpricing.distributions import *\n"
                   "from evpricing.competition import empirical_competition_complexity\n"
                   f"empirical_competition_complexity({model}, 100)",
                   id=f"empirical_competition_complexity-{model}") for model in _SIX_KINDS),
])
def test_guarantees_need_no_numpy(code):
    assert modules_after(code, "numpy") == []


@pytest.mark.parametrize("name", sorted(set(CLI_COMMANDS) - set(NUMPY_FREE)))
def test_other_readme_commands_load_numpy(name):
    # the import floor of these commands is numpy's: both converge runs (k = 1,
    # n <= 1000) sum the unit binomial tail in log space with numpy, bits that
    # converge-pareto's golden pins; simulate draws from numpy's Philox stream;
    # fit prints the golden-section s_hat of fit_scale on numpy's sample
    # moments.  ROADMAP.md's directions 3 and 8 replace the log-space tail and
    # fit_scale's search.
    assert "numpy" in modules_after(cli(CLI_COMMANDS[name]), "numpy")


@pytest.mark.parametrize("code, modules", [
    pytest.param("import evpricing", [], id="import"),
    pytest.param("import evpricing.cli\nevpricing.cli.build_parser()", ["cli", "errors"],
                 id="build_parser"),
    pytest.param("import evpricing\nevpricing.kernel", ["errors", "kernel"], id="submodule"),
    pytest.param("from evpricing import guarantees", _GUARANTEE, id="from-submodule"),
    pytest.param("from evpricing import cli", ["cli", "errors"], id="from-cli"),
    pytest.param("import evpricing\nevpricing.Pareto", MODULES, id="public-name"),
    pytest.param("import evpricing\ndir(evpricing)", MODULES, id="dir"),
])
def test_package_loads_submodules_on_first_use(code, modules):
    assert modules_after(code, "evpricing") == sorted(
        ["evpricing", *(f"evpricing.{m}" for m in modules)])


def test_star_import_and_dir_give_the_public_names():
    # the seven submodules and every name each one exports, as the package's
    # star-imports of each submodule gave them
    expected = set(MODULES).union(*map(public_names, MODULES))
    star = in_fresh_interpreter(
        "from evpricing import *\n_star = sorted(s for s in globals() if s[0] != '_')", "_star")
    listed = in_fresh_interpreter("import evpricing",
                                  "[s for s in dir(evpricing) if not s.startswith('_')]")
    assert star == listed == sorted(expected)
