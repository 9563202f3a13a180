"""Which modules each CLI entry point loads, each case in a fresh interpreter.

`import colorproof.cli` loads only what the parser needs; each command then
imports the modules it runs. `games` loads no numpy, and only the batch round
engine (`engine`) and the quantum core do, so `serve-prover` and `verify` load
none, nor do `gen`, `extend` and `bounds`. No command loads mpmath, which the
package no longer uses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorproof
from colorproof import graphs

SRC = str(Path(colorproof.__file__).resolve().parents[1])

PROBE = """
import contextlib, io, json, sys

def loaded():
    return {m for m in sys.modules if m in ("colorproof", "mpmath", "numpy") or m.startswith("colorproof.")}

import colorproof.cli
before = loaded()
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = colorproof.cli.main(argv)
print(json.dumps({"before": sorted(before), "added": sorted(loaded() - before), "code": code}))
"""


def run(code, *args, cwd=None):
    """What `code` prints as JSON, run in a fresh interpreter with `args` as its argv."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def probe(argv, cwd=None):
    return run(PROBE, json.dumps(argv), cwd=cwd)


def test_importing_the_cli_loads_only_what_the_parser_needs():
    doc = probe(None)
    assert doc["before"] == ["colorproof", "colorproof.cli", "colorproof.graphs", "colorproof.seeds"]


def test_importing_games_loads_no_numpy():
    loaded = run("import json, sys, colorproof.games\nprint(json.dumps(sorted(sys.modules)))")
    assert "colorproof.games" in loaded
    assert "numpy" not in loaded and "colorproof.engine" not in loaded


@pytest.mark.parametrize(
    "argv, code, added",
    [
        (["bounds", "--nodes", "10", "--edges", "12", "--max-deg", "4"], 0, ["colorproof.soundness"]),
        (["gen", "--nodes", "6", "--edges", "8"], 0, []),
        (["extend", "--graph", "graph.json"], 0, []),
        (
            ["simulate", "--rounds", "10", "--nodes", "6", "--edges", "8"], 0,
            ["colorproof.engine", "colorproof.games", "colorproof.strategies", "numpy"],
        ),
        (
            ["audit-quantum", "--samples", "1"], 0,
            [
                "colorproof.audits", "colorproof.certificates", "colorproof.engine", "colorproof.games",
                "colorproof.quantum", "numpy",
            ],
        ),
        # the graph is missing, so the prover reports it and exits instead of serving
        (
            ["serve-prover", "--role", "a", "--shared-seed", "1", "--graph", "no-such-file.json"], 1,
            ["colorproof.games", "colorproof.net"],
        ),
        # likewise the verifier exits before it connects
        (
            ["verify", "--graph", "no-such-file.json", "--prover-a", "127.0.0.1:1", "--prover-b", "127.0.0.1:1"], 1,
            ["colorproof.games", "colorproof.net"],
        ),
    ],
    ids=["bounds", "gen", "extend", "simulate", "audit-quantum", "serve-prover", "verify"],
)
def test_each_command_adds_only_the_modules_it_runs(tmp_path, argv, code, added):
    (tmp_path / "graph.json").write_text(json.dumps(graphs.gen_planted(6, 8, 0).graph.to_dict()))
    doc = probe(argv, cwd=tmp_path)
    assert doc["code"] == code
    assert doc["added"] == added
