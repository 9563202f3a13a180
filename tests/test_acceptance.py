"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`
to watch them stream) and enforces the stated runtime budget.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np

from colorproof import net
from colorproof.audits import run_certificate_sweep
from colorproof.certificates import (
    extract_assignment,
    sequential_coloring,
    sequential_distribution,
)
from colorproof.cli import main as cli_main
from colorproof.games import (
    ALT_EDGE,
    ALT_RZKP,
    BCS,
    VERTEX,
    challenge_pmf,
    play_rounds,
    sample_challenge,
)
from colorproof.graphs import (
    extend_with_gadgets,
    extended_counts,
    gen_planted,
    make_graph,
    three_color,
    validate_coloring,
)
from colorproof.quantum import QuantumStrategy, classical_embedding
from colorproof.quantum import GameType
from colorproof.seeds import derive_seed
from colorproof.soundness import BoundVariant, quantum_value_bound, scaling_probe
from colorproof.strategies import (
    brute_force_vertex3col_value,
    fixed_coloring_pair,
    honest_pair,
    mismatched_pair,
    transcript_uniformity,
    uniformity_by_edge,
)
from reference_quantum import maximally_entangled

TABLE = [
    (200, 380, 8.54e40, 78280, 176060),
    (600, 1122, 5.95e44, 714912, 1608324),
    (900, 1695, 1.54e46, 1612320, 3627390),
]


def criterion(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = "") -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} {name} ({elapsed:.1f}s of {budget:.0f}s budget) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {num} ({name}) overran: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_round_table(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n, m, rounds, n_ext, m_ext in TABLE:
        rep = quantum_value_bound(n, m, 4, BoundVariant.APPENDIX_CHAIN, k=100.0)
        got = rep.rounds_mantissa * 10.0**rep.rounds_exponent
        ok &= abs(got - rounds) / rounds < 0.01
        ok &= (rep.n_ext, rep.m_ext) == (n_ext, m_ext)
        detail.append(rep.rounds_str)
    code = cli_main(["bounds", "--nodes", "200", "--edges", "380", "--max-deg", "4", "--k", "100",
                     "--variant", "appendix"])
    out = capsys.readouterr().out
    ok &= code == 0 and "8.54e40" in out
    with capsys.disabled():
        criterion(1, "round-count table", ok, time.perf_counter() - t0, 1.0, " ".join(detail))


def test_criterion_02_gadget_counts_and_colorability(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    ok = True
    checked_col = 0
    for trial in range(200):
        n = rng.randrange(2, 13)
        p = rng.random()
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = make_graph(n, edges)
        ext = extend_with_gadgets(g)
        ok &= (ext.full.n, len(ext.full.edges)) == extended_counts(g.n, len(g.edges))
        if n <= 5:
            ok &= (three_color(g) is not None) == (three_color(ext.full) is not None)
            checked_col += 1
    with capsys.disabled():
        criterion(2, "gadget vs closed form", ok and checked_col >= 20, time.perf_counter() - t0, 30.0,
                  f"200 graphs, {checked_col} colorability agreements")


def test_criterion_03_classical_value_ceiling(capsys):
    t0 = time.perf_counter()
    rng = random.Random(3)
    ok = True
    non_colorable = 0
    for trial in range(100):
        n = rng.randrange(4, 11)
        p = 0.3 + 0.65 * rng.random()
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if not edges:
            edges = [(0, 1)]
        g = make_graph(n, edges)
        value, argmax = brute_force_vertex3col_value(g)
        colorable = three_color(g) is not None
        ok &= (value == 1) == colorable
        if not colorable:
            non_colorable += 1
            ok &= value <= 1 - Fraction(1, len(g.edges))
        else:
            ok &= validate_coloring(g, argmax) == []
    k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    ok &= brute_force_vertex3col_value(k4)[0] == Fraction(5, 6)
    ok &= non_colorable >= 20
    with capsys.disabled():
        criterion(3, "classical value ceiling", ok, time.perf_counter() - t0, 120.0,
                  f"{non_colorable}/100 non-3-colorable, K4 = 5/6")


def test_criterion_04_completeness(capsys):
    t0 = time.perf_counter()
    inst = gen_planted(20, 40, seed=0)
    pair = honest_pair(inst)
    ok = True
    rates = []
    for kind in (ALT_RZKP, ALT_EDGE, BCS, VERTEX):
        stats, _ = play_rounds(kind, inst.graph, pair, 100000, seed=404)
        rates.append(stats.win_rate)
        ok &= stats.win_rate == 1.0
    with capsys.disabled():
        criterion(4, "honest completeness", ok, time.perf_counter() - t0, 30.0,
                  f"rates {rates} over 4x1e5 rounds")


def test_criterion_05_challenge_distribution(capsys):
    t0 = time.perf_counter()
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ok = True
    worst = 0.0
    samples = 10**6
    for g in (k3, c5):
        for kind in (ALT_RZKP, ALT_EDGE, BCS, VERTEX):
            pmf = challenge_pmf(kind, g)
            ok &= abs(sum(pmf.values()) - 1.0) < 1e-12
            assert len(pmf) <= 50
            counts: dict = {}
            rng = random.Random(derive_seed("tv", kind.game.value, g.n))
            for _ in range(samples):
                ch = sample_challenge(kind, g, rng)
                counts[ch] = counts.get(ch, 0) + 1
            ok &= set(counts) <= set(pmf)
            tv = sum(abs(counts.get(ch, 0) / samples - p) for ch, p in pmf.items()) / 2.0
            worst = max(worst, tv)
            ok &= tv < 0.005
    with capsys.disabled():
        criterion(5, "sampler matches pmf", ok, time.perf_counter() - t0, 60.0,
                  f"worst TV {worst:.4f} at 1e6 samples")


def _streamed_transcripts(kind, g, pair, total, seed, chunk=100000):
    for start in range(0, total, chunk):
        _, log = play_rounds(kind, g, pair, min(chunk, total - start), seed=derive_seed(seed, start),
                             keep_log=True)
        yield from log


def test_criterion_06_zero_knowledge_surrogate(capsys):
    t0 = time.perf_counter()
    inst = gen_planted(3, 3, seed=12)
    g = inst.graph
    rounds = 10**6
    ok = True
    tvs = []
    # one pass over the seed-606 stream reports every edge
    reports = uniformity_by_edge(_streamed_transcripts(ALT_RZKP, g, honest_pair(inst), rounds, seed=606), g.edges)
    for rep in reports.values():
        tvs.append(rep.tv_from_uniform)
        ok &= rep.tv_from_uniform < 0.01
        ok &= rep.support == 54
    control = transcript_uniformity(
        _streamed_transcripts(ALT_RZKP, g, fixed_coloring_pair(inst.witness), 200000, seed=607), g.edges[0]
    )
    ok &= control.tv_from_uniform > 0.1
    with capsys.disabled():
        criterion(6, "transcript uniformity", ok, time.perf_counter() - t0, 120.0,
                  f"honest TVs {[f'{t:.4f}' for t in tvs]}, control {control.tv_from_uniform:.3f}")


def test_criterion_07_theorem_certificates(capsys):
    t0 = time.perf_counter()
    summary = run_certificate_sweep(samples=1000, seed=7, max_dim=4)
    needed = {
        "gentle-measurement",
        "tracial",
        "tracial-commutator",
        "tracial-transpose",
        "commuting",
        "edge-coloring",
        "gadget",
        "observable",
        "pinching-chain",
        "normal-frobenius",
    }
    ok = summary.clean and needed <= set(summary.checks) and summary.strategies >= 1000
    with capsys.disabled():
        criterion(7, "certificate audit", ok, time.perf_counter() - t0, 300.0,
                  f"{summary.strategies} strategies, {sum(summary.checks.values())} checks, "
                  f"violations {summary.violations}")


def test_criterion_08_sequential_extraction(capsys):
    t0 = time.perf_counter()
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    ok = True
    # non-commuting assignment: empirical vs exhaustive outcome distribution
    rng_np = np.random.default_rng(88)
    from colorproof.quantum import random_strategy, reduce_edge_to_bcs

    bcs = reduce_edge_to_bcs(random_strategy(GameType.ALT_EDGE, k3, 2, 3, rng_np, 0.35), k3)
    a = extract_assignment(bcs, k3)
    order = [0, 1, 2]
    exact = sequential_distribution(a, order)
    ok &= abs(sum(exact.values()) - 1.0) < 1e-9
    draws = 10**5
    rng = random.Random(808)
    counts: dict = {}
    for _ in range(draws):
        c = sequential_coloring(a, order, rng)
        counts[c] = counts.get(c, 0) + 1
    tv = sum(abs(counts.get(k, 0) / draws - p) for k, p in exact.items()) / 2.0
    ok &= tv < 0.01
    # exactly commuting satisfying assignment: proper with frequency 1
    base = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=3)
    s = QuantumStrategy(GameType.BCS, 3, 3, maximally_entangled(3), base.a, base.b)
    a2 = extract_assignment(s, k3)
    proper = sum(
        1 for _ in range(10**4) if validate_coloring(k3, sequential_coloring(a2, [2, 0, 1], rng)) == []
    )
    ok &= proper == 10**4
    with capsys.disabled():
        criterion(8, "sequential extraction", ok, time.perf_counter() - t0, 60.0,
                  f"TV {tv:.4f} at 1e5 draws, proper {proper}/10000")


def test_criterion_09_networked_equivalence(capsys, tmp_path, spawn_prover):
    # the provers run as `serve-prover` subprocesses, so the sessions time the
    # wire path rather than interpreter-lock handoffs between threads
    t0 = time.perf_counter()
    inst = gen_planted(6, 9, seed=1)
    ok = True
    other = three_color(inst.graph)
    if tuple(other) == inst.witness:
        other = tuple((c + 1) % 3 for c in other)
    honest_file, other_file = tmp_path / "honest.json", tmp_path / "other.json"
    honest_file.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    other_file.write_text(json.dumps(inst.graph.to_dict(other)))
    addr_a = spawn_prover(honest_file, "a", 99)
    addr_b = spawn_prover(honest_file, "b", 99)
    addr_b_bad = spawn_prover(other_file, "b", 99)
    cfg = net.SessionConfig(inst.graph, rounds=10000, deadline_ns=250_000_000, seed=909,
                            addr_a=addr_a, addr_b=addr_b)
    rep = net.run_verifier_session(cfg)
    ok &= rep.ok and rep.accepted == 10000
    rounds = 10000
    cfg2 = net.SessionConfig(inst.graph, rounds=rounds, deadline_ns=250_000_000, seed=910,
                             addr_a=addr_a, addr_b=addr_b_bad)
    rep2 = net.run_verifier_session(cfg2)
    net_rate = rep2.rejected_check / rounds
    stats, _ = play_rounds(ALT_RZKP, inst.graph, mismatched_pair(inst.witness, other), rounds, seed=911)
    sim_rate = 1.0 - stats.win_rate
    sigma = math.sqrt(max(net_rate * (1 - net_rate), sim_rate * (1 - sim_rate)) * 2.0 / rounds)
    ok &= abs(net_rate - sim_rate) < 4.0 * sigma
    blob = os.urandom(1 << 20)
    rng = random.Random(912)
    crashes = 0
    for _ in range(10**6):
        start = rng.randrange(len(blob) - 64)
        data = blob[start : start + rng.randrange(0, 48)]
        try:
            net.decode(data)
        except net.FrameError:
            pass
        except Exception:
            crashes += 1
    ok &= crashes == 0
    with capsys.disabled():
        criterion(9, "networked equivalence", ok, time.perf_counter() - t0, 120.0,
                  f"net {net_rate:.4f} vs sim {sim_rate:.4f}, fuzz crashes {crashes}")


def test_criterion_10_scaling_probe(capsys):
    t0 = time.perf_counter()
    pts = [(n, int(1.9 * n)) for n in (200, 400, 600, 900)]
    slope = scaling_probe(pts, 4)
    ok = abs(slope - 8.0) < 0.5
    with capsys.disabled():
        criterion(10, "scaling exponent", ok, time.perf_counter() - t0, 1.0, f"slope {slope:.3f}")
