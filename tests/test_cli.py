import json
import socket

import pytest

from colorproof import ColorproofError, certificates, cli, games, graphs, net, quantum, soundness, strategies
from colorproof.cli import main
from colorproof.graphs import gen_planted
from colorproof.net import ProverServer


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_table_row(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--nodes", "200", "--edges", "380", "--max-deg", "4", "--k", "100"])
    assert code == 0
    assert "8.54e40" in out
    assert "78280" in out and "176060" in out


def test_bounds_json_deterministic(capsys):
    argv = ["bounds", "--nodes", "600", "--edges", "1122", "--max-deg", "4", "--json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["rounds"] == "5.95e44"
    assert doc["m_ext"] == 1608324


def test_gen_extend_bruteforce_pipeline(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    code, _, _ = run_cli(capsys, ["gen", "--nodes", "6", "--edges", "9", "--seed", "1", "--out", str(inst_path)])
    assert code == 0
    doc = json.loads(inst_path.read_text())
    assert doc["n"] == 6 and len(doc["edges"]) == 9 and "witness" in doc

    code, out, _ = run_cli(capsys, ["extend", "--graph", str(inst_path)])
    assert code == 0
    assert "n'=30" in out and "m'=63" in out  # 2*36 - 6 - 4*9 and (9/2)*30 - 8*9

    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({"n": 4, "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}))
    code, out, _ = run_cli(capsys, ["bruteforce", "--graph", str(k4)])
    assert code == 0
    assert "5/6" in out


def test_extend_out_writes_full_graph(capsys, tmp_path):
    from colorproof.graphs import graph_from_dict

    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "ext.json"
    run_cli(capsys, ["gen", "--nodes", "5", "--edges", "4", "--seed", "0", "--out", str(inst_path)])
    code, _, _ = run_cli(capsys, ["extend", "--graph", str(inst_path), "--out", str(out_path)])
    assert code == 0
    full = graph_from_dict(json.loads(out_path.read_text()))
    assert (full.n, len(full.edges)) == (2 * 25 - 5 - 16, 9 * 10 - 32)


def test_simulate_fixed_strategy(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(capsys, ["gen", "--nodes", "6", "--edges", "9", "--seed", "1", "--out", str(inst_path)])
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", str(inst_path), "--kind", "vertex", "--mix", "0.0",
         "--strategy", "fixed", "--rounds", "400", "--seed", "5", "--json"],
    )
    assert code == 0
    assert json.loads(out)["win_rate"] == 1.0  # witness is proper, edge branch never rejects


def test_extend_counts_against_library(capsys, tmp_path):
    from colorproof.graphs import extended_counts

    inst_path = tmp_path / "inst.json"
    run_cli(capsys, ["gen", "--nodes", "6", "--edges", "9", "--seed", "1", "--out", str(inst_path)])
    code, out, _ = run_cli(capsys, ["extend", "--graph", str(inst_path), "--json"])
    doc = json.loads(out)
    assert (doc["n_ext"], doc["m_ext"]) == extended_counts(6, 9)


def test_simulate_honest(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(capsys, ["gen", "--nodes", "6", "--edges", "9", "--seed", "1", "--out", str(inst_path)])
    log_path = tmp_path / "rounds.jsonl"
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", str(inst_path), "--kind", "vertex", "--rounds", "500", "--seed", "3",
         "--json", "--log", str(log_path)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["win_rate"] == 1.0
    lines = log_path.read_text().splitlines()
    assert len(lines) == 500
    rec = json.loads(lines[0])
    assert rec["verdict"] == "accept" and rec["challenge"]["kind"] == "vertex"


def test_zk_test_smoke(capsys):
    code, out, _ = run_cli(capsys, ["zk-test", "--rounds", "20000", "--seed", "0", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["control_tv"] > 0.1
    assert all(tv < 0.05 for tv in doc["honest_tv"].values())


def test_audit_quantum_smoke(capsys):
    code, out, _ = run_cli(capsys, ["audit-quantum", "--samples", "6", "--seed", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["clean"] is True


def test_audit_quantum_json_names_worst_samples(capsys):
    code, out, _ = run_cli(capsys, ["audit-quantum", "--samples", "6", "--seed", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["worst_sample"]) == set(doc["worst_margin"])
    assert all(w["seed"] == 1 and 0 <= w["sample"] < 6 for w in doc["worst_sample"].values())


def test_audit_quantum_counts_non_vacuous_commutator_instances(capsys):
    code, out, _ = run_cli(capsys, ["audit-quantum", "--samples", "6", "--seed", "1", "--json"])
    assert code == 0
    counts = json.loads(out)["non_vacuous"]
    assert set(counts) == {"commuting", "gadget"}
    assert all(0 <= n <= json.loads(out)["checks"][family] for family, n in counts.items())
    code, out, _ = run_cli(capsys, ["audit-quantum", "--samples", "6", "--seed", "1"])
    gadget = next(line for line in out.splitlines() if "gadget:" in line)
    assert code == 0 and f"{counts['gadget']} non-vacuous" in gadget


def test_audit_quantum_replay_takes_a_negative_seed(capsys):
    code, out, _ = run_cli(capsys, ["audit-quantum", "--samples", "2", "--seed", "-3", "--json"])
    assert code == 0
    command = json.loads(out)["replay"]["tracial-transpose"].split()
    code, out, _ = run_cli(capsys, command[3:] + ["--json"])
    assert code == 0 and json.loads(out)["config"]["replay"].startswith("-3:")


def test_audit_quantum_replays_the_worst_gadget_sample(capsys):
    # the sweep prints, per family, the command that replays its worst sample; running it alone
    # reproduces that family's worst margin exactly, since each sample draws from its own substream
    code, out, _ = run_cli(capsys, ["audit-quantum", "--samples", "16", "--seed", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    worst = doc["worst_sample"]["gadget"]
    assert set(doc["replay"]) == set(doc["worst_sample"])
    command = doc["replay"]["gadget"].split()
    assert command[:4] == ["python", "-m", "colorproof", "audit-quantum"]
    assert command[-1] == f"--replay={worst['seed']}:{worst['sample']}"
    code, out, _ = run_cli(capsys, command[3:] + ["--json"])
    assert code == 0
    replayed = json.loads(out)
    assert replayed["config"] == {"replay": f"{worst['seed']}:{worst['sample']}", "dims": 3}
    assert replayed["worst_margin"]["gadget"] == doc["worst_margin"]["gadget"]
    assert replayed["worst_sample"]["gadget"] == worst and "replay" not in replayed


def test_verify_against_live_provers(capsys, tmp_path):
    inst = gen_planted(6, 9, seed=1)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    pa = ProverServer(inst, "a", 9).start()
    pb = ProverServer(inst, "b", 9).start()
    try:
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--graph", str(inst_path),
                "--prover-a", f"127.0.0.1:{pa.address[1]}",
                "--prover-b", f"127.0.0.1:{pb.address[1]}",
                "--rounds", "300",
                "--deadline-ms", "200",
                "--seed", "2",
                "--json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["accepted"] == 300 and doc["accepted_all"] is True
    finally:
        pa.stop()
        pb.stop()


def _instance_file(tmp_path):
    inst = gen_planted(6, 9, seed=1)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    return str(path)


def _closed_port() -> int:
    """A port that was bound and then closed, so nothing listens on it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


@pytest.mark.parametrize(
    "command, flag, address",
    [
        ("verify", "--prover-a", "127.0.0.1:99999"),  # getaddrinfo would wrap it to port 34463
        ("verify", "--prover-b", "127.0.0.1:abc"),
        ("verify", "--prover-a", "127.0.0.1:"),
        ("verify", "--prover-b", "127.0.0.1"),  # no port at all
        ("serve-prover", "--listen", "127.0.0.1:-5"),
    ],
)
def test_bad_port_exits_1(capsys, tmp_path, command, flag, address):
    argv = [command, "--graph", _instance_file(tmp_path), flag, address]
    if command == "verify":
        other = "--prover-b" if flag == "--prover-a" else "--prover-a"
        argv += [other, f"127.0.0.1:{_closed_port()}"]
    else:
        argv += ["--role", "a", "--shared-seed", "1"]
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and address in err


def test_serve_prover_on_a_taken_port_exits_1(capsys, tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as listener:  # listens, and serves nothing
        port = listener.getsockname()[1]
        address = f"127.0.0.1:{port}"
        with pytest.raises(net.ConfigError, match=f"^cannot listen on {address}: "):
            ProverServer(gen_planted(6, 9, seed=1), "a", 1, port=port)
        argv = ["serve-prover", "--graph", _instance_file(tmp_path), "--listen", address, "--role", "a"]
        code, out, err = run_cli(capsys, argv + ["--shared-seed", "1"])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot listen on {address}: ")


def test_verify_against_a_dead_prover_exits_1(capsys, tmp_path):
    port = _closed_port()
    address = f"127.0.0.1:{port}"
    argv = ["verify", "--graph", _instance_file(tmp_path), "--prover-a", address, "--prover-b", address]
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith(f"error: cannot connect to prover A at {address}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--rounds", "0"], "at least one round"),
        (["verify", "--deadline-ms", "-1"], "deadline must be nonnegative"),
        (["verify", "--deadline-ms", "nan"], "--deadline-ms must be finite"),
        (["verify", "--deadline-ms", "3e9"], "at most 86400 s"),
        (["simulate", "--mix", "2", "--rounds", "10"], "mixture weight 2.0"),
        (["simulate", "--rounds", "0"], "--rounds must be at least 1"),
        (["zk-test", "--rounds", "0"], "--rounds must be at least 1, got 0"),
        (["audit-quantum", "--dims", "1", "--samples", "2"], "--dims must be at least 2"),
        (["audit-quantum", "--samples", "0"], "--samples must be at least 1"),
        (["audit-quantum", "--samples", "-1"], "--samples must be at least 1"),
        (["audit-quantum", "--replay", "3-7"], "must look like SEED:INDEX"),
        (["audit-quantum", "--replay=--3:7"], "must look like SEED:INDEX"),
        (["audit-quantum", "--replay", "3:-7"], "must look like SEED:INDEX"),
        (["serve-prover", "--role", "a", "--shared-seed", "1", "--delay-ms", "-5"], "finite and nonnegative"),
        (["serve-prover", "--role", "a", "--shared-seed", "1", "--delay-ms", "nan"], "finite and nonnegative"),
        (["serve-prover", "--role", "a", "--shared-seed", "1", "--delay-ms", "1e16"], "at most 86400 s"),
        (["bounds", "--nodes", "10", "--edges", "5", "--max-deg", "4", "--k", "nan"], "positive and finite"),
        (["bounds", "--nodes", "10", "--edges", "5", "--max-deg", "4", "--k", "inf"], "positive and finite"),
        (["bounds", "--nodes", "10", "--edges", "5", "--max-deg", "-1"], "max degree -1"),
        (["bounds", "--nodes", "10", "--edges", "40", "--max-deg", "1"], "no graph on 10 vertices has 40 edges"),
    ],
    ids=[
        "verify-rounds-0", "verify-negative-deadline", "verify-nan-deadline", "verify-huge-deadline",
        "simulate-mix-2", "simulate-rounds-0", "zk-rounds-0",
        "audit-dims-1", "audit-samples-0", "audit-samples-minus-1",
        "audit-replay-no-colon", "audit-replay-double-minus", "audit-replay-negative-index",
        "serve-negative-delay", "serve-nan-delay", "serve-huge-delay",
        "bounds-k-nan", "bounds-k-inf", "bounds-max-deg-minus-1", "bounds-more-edges-than-max-deg-allows",
    ],
)
def test_out_of_range_input_exits_1(capsys, monkeypatch, tmp_path, argv, message):
    # each of these ended in a traceback, except the negative, NaN and huge delays: those provers
    # served, and every connection thread died in time.sleep; simulate with no rounds and
    # audit-quantum with no samples, which reported a perfect rate or PASS for no work; and
    # bounds with more edges than max-deg allows, which printed a round count; zk-test with no
    # rounds exited 1 but blamed the transcripts ("no transcripts carry A-challenge (0, 1)")
    def serve_forever(self, *args):
        raise AssertionError("the prover started serving")

    monkeypatch.setattr(net.ProverServer, "serve_forever", serve_forever)
    if argv[0] in ("verify", "serve-prover"):
        argv = argv + ["--graph", _instance_file(tmp_path)]
    if argv[0] == "verify":
        argv += ["--prover-a", f"127.0.0.1:{_closed_port()}", "--prover-b", f"127.0.0.1:{_closed_port()}"]
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv, first",
    [
        (["gen", "--nodes", "4", "--edges", "3", "--seed", "7"], "config: nodes=4 edges=3 seed=7"),
        (["gen", "--nodes", "4", "--edges", "3", "--seed", "7", "--out", "{inst}"], "config: nodes=4 edges=3 seed=7"),
        (["extend", "--graph", "{inst}"], "config: graph={inst}"),
        (
            ["bounds", "--nodes", "200", "--edges", "380", "--max-deg", "4"],
            "config: nodes=200 edges=380 max-deg=4 k=100.0 variant=appendix",
        ),
        (
            ["simulate", "--rounds", "10", "--mix", "0.25"],
            "config: kind=alt-rzkp mix=0.25 rounds=10 seed=0 strategy=honest",
        ),
        (["bruteforce", "--graph", "{inst}"], "config: graph={inst}"),
        (["zk-test", "--rounds", "50", "--seed", "3"], "config: rounds=50 seed=3"),
        (["audit-quantum", "--samples", "1", "--dims", "2"], "config: samples=1 seed=0 dims=2"),
        (["audit-quantum", "--replay=-3:0", "--dims", "2"], "config: replay=-3:0 dims=2"),
        (
            ["serve-prover", "--graph", "{inst}", "--role", "b", "--shared-seed", "5", "--listen", "127.0.0.1:{port}"],
            "config: role=b listen=127.0.0.1:{port} shared-seed=5",
        ),
        (
            ["verify", "--graph", "{inst}", "--prover-a", "{a}", "--prover-b", "{b}", "--rounds", "5"],
            "config: rounds=5 deadline-ms=100.0 seed=0",
        ),
    ],
    ids=[
        "gen", "gen-out", "extend", "bounds", "simulate", "bruteforce", "zk-test",
        "audit-quantum", "audit-quantum-replay", "serve-prover", "verify",
    ],
)
def test_each_command_echoes_its_config_first(capsys, monkeypatch, tmp_path, argv, first):
    # the human output's first line names the configuration the JSON payload holds;
    # gen echoes it on stderr when the instance itself goes to stdout
    inst = gen_planted(6, 9, seed=1)
    provers = [ProverServer(inst, role, 9).start() for role in "ab"]
    monkeypatch.setattr(net.ProverServer, "serve_forever", lambda self: None)  # serve-prover returns once bound
    try:
        fill = {"inst": _instance_file(tmp_path), "port": _closed_port()}
        fill.update({role: f"127.0.0.1:{p.address[1]}" for role, p in zip("ab", provers)})
        code, out, err = run_cli(capsys, [arg.format(**fill) for arg in argv])
    finally:
        for p in provers:
            p.stop()
    assert code == 0
    assert (err or out).splitlines()[0] == first.format(**fill)


def test_gen_stdout_modes(capsys):
    code, out, err = run_cli(capsys, ["gen", "--nodes", "4", "--edges", "3", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert "config:" in err
    code, out, _ = run_cli(capsys, ["gen", "--nodes", "4", "--edges", "3", "--seed", "0", "--json"])
    wrapped = json.loads(out)
    assert wrapped["instance"] == doc
    assert wrapped["config"]["seed"] == 0


def test_every_reported_error_class_shares_one_root():
    # main reports exactly the ColorproofError family (plus missing files and bad JSON) as `error: ...`
    for cls, base in [
        (cli.CliError, Exception), (games.GamesError, ValueError), (graphs.GraphError, ValueError),
        (strategies.StrategiesError, ValueError), (soundness.SoundnessError, ValueError),
        (quantum.StrategyError, ValueError), (net.FrameError, ValueError), (net.ConfigError, ValueError),
        (net.SessionError, RuntimeError),
    ]:
        assert issubclass(cls, ColorproofError) and issubclass(cls, base), cls
    # a certificate failure is a bug: it keeps its traceback
    assert not issubclass(certificates.CertificateError, ColorproofError)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--nodes", "200"])  # missing required flags
    assert exc.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--nodes", "200", "--edges", "380", "--max-deg", "4", "--frobnicate"])
    assert exc.value.code == 2


def test_domain_error_exits_1(capsys):
    code, _, err = run_cli(capsys, ["bruteforce", "--graph", "/nonexistent/path.json"])
    assert code == 1
    assert "error:" in err


def test_infeasible_gen_exits_1(capsys):
    code, _, err = run_cli(capsys, ["gen", "--nodes", "4", "--edges", "7", "--seed", "0"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv", [["gen", "--nodes", "5", "--edges", "-1"], ["simulate", "--edges", "-2", "--rounds", "10"]], ids=["gen", "simulate"]
)
def test_negative_edge_count_exits_1(capsys, argv):
    # both ended in a ValueError traceback from the edge draw
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "edge count" in err


MALFORMED_DOCUMENTS = {
    "not-an-object": [],
    "n-a-string": {"n": "x", "edges": [[0, 1]], "witness": [0, 1]},
    "n-a-float": {"n": 3.5, "edges": [[0, 1]], "witness": [0, 1, 2]},
    "edge-of-one-vertex": {"n": 3, "edges": [[0]], "witness": [0, 1, 2]},
    "no-edges-key": {"n": 3, "witness": [0, 1, 2]},
    "witness-a-string": {"n": 3, "edges": [[0, 1]], "witness": ["a", 1, 2]},
}


@pytest.mark.parametrize(
    "command, doc",
    [(c, d) for d in MALFORMED_DOCUMENTS for c in ("extend", "simulate") if (c, d) != ("extend", "witness-a-string")],
)
def test_malformed_graph_document_exits_1(capsys, tmp_path, command, doc):
    # each ended in a TypeError, ValueError, IndexError or KeyError traceback, except n = 3.5, read as 3
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[doc]))
    argv = [command, "--graph", str(path)] + (["--rounds", "10"] if command == "simulate" else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")
