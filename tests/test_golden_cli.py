"""The README commands against their checked-in golden output, byte for byte.

The commands and the golden files live with the benchmark (``bench/``), which
regenerates them with ``bench/make_golden.py``; this test only reads them.
Each command runs in process through ``evpricing.cli.main``.
"""

import re
import shlex

import pytest

from evpricing import cli

from conftest import BENCH, CLI_COMMANDS, GOLDEN


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_readme_command_matches_golden(name, tmp_path, capsys):
    hist = tmp_path / "fit.hist.csv"
    argv = [str(GOLDEN / "bids.csv") if a == "BIDS" else str(hist) if a == "HIST" else a
            for a in CLI_COMMANDS[name]]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    if "HIST" in CLI_COMMANDS[name]:
        assert hist.read_bytes() == (GOLDEN / "fit.hist.csv").read_bytes()


def test_readme_cli_block_is_the_command_list():
    # the README's ## CLI block, continuations joined and comments dropped,
    # with its file names as the placeholders of bench/workloads.py
    readme = (BENCH.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    names = {"bids.csv": "BIDS", "hist.csv": "HIST"}
    commands = [[names.get(a, a) for a in shlex.split(line, comments=True)]
                for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "evpricing" for argv in commands)
    assert [argv[1:] for argv in commands] == list(CLI_COMMANDS.values())
