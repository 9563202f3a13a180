"""End-to-end check with real process separation: two prover subprocesses
driven by the verify subcommand."""

import json
import os
import subprocess
import sys

import pytest

from colorproof.cli import main as cli_main
from colorproof.graphs import gen_planted


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    inst = gen_planted(8, 14, seed=3)
    path = tmp_path_factory.mktemp("nets") / "inst.json"
    path.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    return path


def test_two_process_session(instance_file, spawn_prover, capsys):
    _, port_a = spawn_prover(instance_file, "a", 777)
    _, port_b = spawn_prover(instance_file, "b", 777)
    code = cli_main(
        [
            "verify",
            "--graph", str(instance_file),
            "--prover-a", f"127.0.0.1:{port_a}",
            "--prover-b", f"127.0.0.1:{port_b}",
            "--rounds", "500",
            "--deadline-ms", "250",
            "--seed", "4",
            "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    doc = json.loads(out)
    assert doc["accepted"] == 500
    assert doc["accepted_all"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["audit-quantum", "--samples", "2", "--json"],
        ["bounds", "--nodes", "10", "--edges", "12", "--max-deg", "4"],
        ["gen", "--nodes", "6", "--edges", "9", "--json"],
    ],
    ids=["audit-quantum-json", "bounds-text", "gen-json"],
)
def test_closed_stdout_ends_the_output_cleanly(argv):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the command writes
    try:
        argv = [sys.executable, "-m", "colorproof", *argv]
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")
