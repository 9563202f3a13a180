"""The benchmark workloads.

Each workload calls colorproof's public functions from outside, in blocks of
fixed size. Block `k` draws its inputs from (workload seed, k), so the same
seed replays the same inputs. Every program call in a block goes through a
Clock, which times it on its own; the block returns the time spent inside
the program calls and the number of operations. The output checks run
outside that time.

Why these workloads (each optimisation planned in ROADMAP items 3-5 has one
workload that exercises it and one that bypasses it):

  sim       honest classical rounds on all four variants plus a mismatched
            alt-rzkp pair, n=20 m=40. The per-round labelling draw (2n
            randrange calls) is the largest cost, so a batch round engine or
            a cheaper draw shows here first.
  born      Born-rule rounds of one fixed random_strategy on alt-edge,
            n=20 m=40. The joint sampler never draws a labelling: the bypass
            for the labelling-draw and classical batch-engine work.
  zk        honest alt-rzkp rounds on a planted triangle with transcripts
            kept, transcript_uniformity on every edge, and the
            fixed-coloring control. At n=3 the draw is cheap and the cost is
            building and scanning transcripts (criterion 6's path).
  audit     the certificate sweep (max_dim 4) plus the round-count table
            under both constant sets and scaling_probe. The only workload
            that reaches quantum, certificates, audits and soundness; it
            never enters the round loop.
  loopback  alt-rzkp sessions over 127.0.0.1 against two `colorproof
            serve-prover` subprocesses, 250 ms deadline, one verifier
            thread, two connections, one round in flight (closed loop). The
            only workload that reaches net.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from colorproof import audits, games, graphs, net, quantum, soundness, strategies

Z_CHECK = 6.0  # binomial checks: a correct program fails one with probability below 1e-8
TV_DELTA = 1e-9  # per-edge TV bound: a uniform sample exceeds it with probability below this
DEADLINE_NS = 250_000_000
PROVER_START_TIMEOUT_S = 60.0

REQUIRED_FAMILIES = frozenset(
    {
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
)
TABLE_ROWS = ((200, 380, "8.54e40"), (600, 1122, "5.95e44"), (900, 1695, "1.54e46"))
PROBE_POINTS = [(n, int(1.9 * n)) for n in (200, 400, 600, 900)]


def sub_seed(*parts: object) -> int:
    """A 64-bit seed derived from the workload seed and a label.

    The benchmark derives its own seeds so that its inputs do not move when
    the program's seed derivation changes.
    """
    text = "\x1f".join(repr(p) for p in ("perfbench",) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Block:
    ops: int  # operations the throughput counts: rounds, or strategies for audit
    dt: float  # seconds inside the program calls
    attempted: int  # operations that can fail: rounds, or certificate instances for audit
    failed: int
    counts: dict = field(default_factory=dict)
    # per round, loopback only: first challenge sent to last response received,
    # each prover's own latency, and the time from one round's first send to the next's
    latencies_us: list = field(default_factory=list)
    latencies_a_us: list = field(default_factory=list)
    latencies_b_us: list = field(default_factory=list)
    cycles_us: list = field(default_factory=list)


def binomial_check(name: str, hits: int, n: int, p: float) -> Check:
    """Observed rate within Z_CHECK standard deviations of the exact rate p."""
    rate = hits / n
    half = Z_CHECK * math.sqrt(p * (1.0 - p) / n) + 1e-12
    return Check(name, abs(rate - p) <= half, f"{hits}/{n} = {rate:.5f}, exact {p:.5f} +- {half:.5f}")


def tv_bound(samples: int, support: int = 54) -> float:
    """High-probability TV bound for `samples` uniform draws over `support` cells.

    E[TV] <= (1/2) sqrt((support - 1) / samples) by Cauchy-Schwarz on the
    per-cell deviations; TV moves by at most 1/samples when one draw changes,
    so McDiarmid adds sqrt(ln(1/TV_DELTA) / (2 samples)).
    """
    return 0.5 * math.sqrt((support - 1) / samples) + math.sqrt(math.log(1.0 / TV_DELTA) / (2.0 * samples))


class Workload:
    name = ""
    nominal_block_s = 1.0  # sizes the fixed-work traced passes; never measured
    reference = "python"  # the reference loop shaped like this workload's work (calibrate.py)
    pair_attrs: tuple = ()  # attributes holding ClassicalStrategyPair objects

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.checks: list[Check] = []
        self._untraced: dict = {}

    def setup(self) -> dict:
        """Build inputs and warm lazy caches; returns per-part seconds."""
        raise NotImplementedError

    def block(self, k: int, clock: Clock | None = None) -> Block:
        """Block `k`; its program calls go through `clock` (one without reference passes by default)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over all blocks (distributional checks)."""

    def teardown(self) -> None:
        """Stop what setup started; safe to call more than once."""

    def instrument(self, tracer) -> None:
        """Trace the callables of the strategy objects this workload built."""
        for attr in self.pair_attrs:
            pair = getattr(self, attr)
            self._untraced[attr] = pair
            setattr(
                self,
                attr,
                replace(
                    pair,
                    shared=tracer.wrap("strategies.shared", pair.shared),
                    answer_a=tracer.wrap("strategies.answer", pair.answer_a),
                    answer_b=tracer.wrap("strategies.answer", pair.answer_b),
                ),
            )

    def uninstrument(self) -> None:
        for attr, pair in self._untraced.items():
            setattr(self, attr, pair)
        self._untraced.clear()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Clock:
    """Times a block's program calls one by one.

    With a `reference` (a callable that returns the seconds of one pass of
    the reference loop), a pass runs before every call and one more at
    `close()`, so each call lies between two passes a few milliseconds
    away. The host's speed moves on that time scale, and a call's time
    correlates with the passes beside it far better than with passes a
    block away (perfbench/README.md). `call_scales` turns the passes into
    one scale factor per call.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.calls: list[tuple[float, float]] = []  # (start, seconds) of each program call
        self.passes: list[tuple[float, float]] = []  # (midpoint, seconds) of each reference pass

    def _pass(self) -> None:
        t0 = time.perf_counter()
        seconds = self.reference()
        self.passes.append(((t0 + time.perf_counter()) / 2.0, seconds))

    def call(self, fn, *args, **kwargs):
        if self.reference is not None:
            self._pass()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((t0, time.perf_counter() - t0))
        return out

    def close(self) -> None:
        if self.reference is not None and self.calls:
            self._pass()

    @property
    def seconds(self) -> float:
        return sum(dt for _, dt in self.calls)


def call_scales(clocks: list, ref_pass_s: float) -> list[list[float]]:
    """Per clock, per call: ref_pass_s over the pass time that call ran at.

    A call's pass time is the median of the passes, from any of the clocks,
    whose midpoints lie within one call length before or after the call,
    and always includes the passes just before and just after it. A call of
    a few milliseconds thus takes the mean of the two passes beside it. A
    call of half a second takes some fifteen passes from both sides, so one
    pass slowed by a host stall cannot rescale it.
    """
    passes = sorted(p for c in clocks for p in c.passes)
    mids = [m for m, _ in passes]
    scales = []
    for c in clocks:
        per_call = []
        for start, dt in c.calls:
            after = bisect.bisect_left(mids, start)  # first pass after the call: none runs during one
            lo = min(bisect.bisect_left(mids, start - dt), after - 1)
            hi = max(bisect.bisect_right(mids, start + 2.0 * dt), after + 1)
            per_call.append(ref_pass_s / statistics.median(p for _, p in passes[lo:hi]))
        scales.append(per_call)
    return scales


def exact_mismatch_reject(g: graphs.Graph, colors_a, colors_b) -> float:
    """Exact reject probability of mismatched_pair(colors_a, colors_b) on alt-rzkp.

    Both provers share the permutation and the bit-0 labels, so a round
    rejects exactly when the bit is 1 and a vertex shared by the two edges
    is colored differently by the two colorings.
    """
    p = 0.0
    for ch, w in games.challenge_pmf(games.ALT_RZKP, g).items():
        shared = set(ch.edge_a) & set(ch.edge_b)
        if ch.bit == 1 and any(colors_a[v] != colors_b[v] for v in shared):
            p += w
    return p


class Sim(Workload):
    name = "sim"
    nominal_block_s = 0.025
    pair_attrs = ("honest", "mismatched")
    KINDS = (games.ALT_RZKP, games.ALT_EDGE, games.BCS, games.VERTEX)
    # per variant per block: one call of a few milliseconds, so that the
    # reference passes beside it see the speed it ran at
    HONEST_ROUNDS = 200
    MISMATCHED_ROUNDS = 200

    def setup(self) -> dict:
        self.inst, gen_s = _timed(graphs.gen_planted, 20, 40, self.seed)
        self.honest = strategies.honest_pair(self.inst)
        rng = random.Random(sub_seed(self.seed, "sim", "colors-b"))
        self.colors_b = tuple((c + rng.randrange(3)) % 3 for c in self.inst.witness)
        self.mismatched = strategies.mismatched_pair(self.inst.witness, self.colors_b)
        self.reject_p = exact_mismatch_reject(self.inst.graph, self.inst.witness, self.colors_b)
        self.rejects: dict[int, tuple[int, int]] = {}
        return {"graphs.gen_planted_s": gen_s}

    def block(self, k: int, clock: Clock | None = None) -> Block:
        clock = clock or Clock()
        g = self.inst.graph
        honest = [
            clock.call(
                games.play_rounds, kind, g, self.honest, self.HONEST_ROUNDS, sub_seed(self.seed, "sim", kind.game.value, k)
            )[0]
            for kind in self.KINDS
        ]
        mism, _ = clock.call(
            games.play_rounds, games.ALT_RZKP, g, self.mismatched, self.MISMATCHED_ROUNDS,
            sub_seed(self.seed, "sim", "mismatched", k),
        )
        failed = 0
        for kind, stats in zip(self.KINDS, honest):
            failed += stats.rounds - stats.accepts
            self.check(f"sim.honest.{kind.game.value}", stats.accepts == stats.rounds, f"{stats.accepts}/{stats.rounds}")
        self.rejects[k] = (mism.rounds - mism.accepts, mism.rounds)
        rounds = len(self.KINDS) * self.HONEST_ROUNDS + self.MISMATCHED_ROUNDS
        return Block(ops=rounds, dt=clock.seconds, attempted=rounds, failed=failed)

    def finish(self) -> None:
        hits = sum(r for r, _ in self.rejects.values())
        n = sum(n for _, n in self.rejects.values())
        self.checks.append(binomial_check("sim.mismatched.reject_rate", hits, n, self.reject_p))


class Born(Workload):
    name = "born"
    nominal_block_s = 0.005
    ROUNDS = 600  # one call of a few milliseconds per block
    DIMS = (3, 3)
    JIGGLE = 0.3

    def setup(self) -> dict:
        self.inst, gen_s = _timed(graphs.gen_planted, 20, 40, self.seed)
        g = self.inst.graph
        rng = np.random.default_rng(sub_seed(self.seed, "born", "strategy"))
        strat = quantum.random_strategy(
            quantum.GameType.ALT_EDGE, g, *self.DIMS, rng, jiggle=self.JIGGLE, colors=self.inst.witness
        )
        quantum._winning_sets.cache_clear()  # every set-up pays the lazy cache warm-up
        self.win_p = quantum.win_probability(games.ALT_EDGE, g, strat)
        self.pair = quantum.BornPair(strat)
        warm = random.Random(0)
        for ch in games.challenge_pmf(games.ALT_EDGE, g):
            self.pair.respond(games.ALT_EDGE, ch, warm)
        self.wins: dict[int, tuple[int, int]] = {}
        return {"graphs.gen_planted_s": gen_s}

    def block(self, k: int, clock: Clock | None = None) -> Block:
        clock = clock or Clock()
        stats, _ = clock.call(
            games.play_rounds, games.ALT_EDGE, self.inst.graph, self.pair, self.ROUNDS, sub_seed(self.seed, "born", k)
        )
        self.wins[k] = (stats.accepts, stats.rounds)
        return Block(ops=stats.rounds, dt=clock.seconds, attempted=stats.rounds, failed=0)

    def instrument(self, tracer) -> None:
        tracer.patch(self.pair, "respond", "quantum.BornPair.respond")  # restore() removes it

    def finish(self) -> None:
        hits = sum(w for w, _ in self.wins.values())
        n = sum(n for _, n in self.wins.values())
        self.checks.append(binomial_check("born.win_rate", hits, n, self.win_p))


class Zk(Workload):
    name = "zk"
    nominal_block_s = 0.25
    pair_attrs = ("honest", "control")
    # the analysis needs a block's whole log, so a block plays its rounds in
    # calls of CALL_ROUNDS: each call is a few milliseconds long
    HONEST_ROUNDS = 10000
    CONTROL_ROUNDS = 2500
    CALL_ROUNDS = 125

    def setup(self) -> dict:
        # a uniform witness on 3 vertices admits a triangle only when all three
        # colors differ (6 of 27 witnesses); take the first feasible seed
        t0 = time.perf_counter()
        s = self.seed
        while True:
            try:
                self.inst = graphs.gen_planted(3, 3, s)
                break
            except graphs.InfeasibleError:
                s += 1
        gen_s = time.perf_counter() - t0
        self.honest = strategies.honest_pair(self.inst)
        self.control = strategies.fixed_coloring_pair(self.inst.witness)
        return {"graphs.gen_planted_s": gen_s}

    def _play_logged(self, clock: Clock, pair, rounds: int, *label) -> tuple[int, list]:
        """`rounds` logged alt-rzkp rounds in calls of CALL_ROUNDS; (accepts, log)."""
        accepts, log = 0, []
        for i in range(0, rounds, self.CALL_ROUNDS):
            stats, part = clock.call(
                games.play_rounds, games.ALT_RZKP, self.inst.graph, pair, min(self.CALL_ROUNDS, rounds - i),
                sub_seed(self.seed, "zk", *label, i), keep_log=True,
            )
            accepts += stats.accepts
            log += part
        return accepts, log

    def block(self, k: int, clock: Clock | None = None) -> Block:
        clock = clock or Clock()
        g = self.inst.graph
        accepts, log = self._play_logged(clock, self.honest, self.HONEST_ROUNDS, "honest", k)
        reports = [clock.call(strategies.transcript_uniformity, log, e) for e in g.edges]
        _, clog = self._play_logged(clock, self.control, self.CONTROL_ROUNDS, "control", k)
        control = clock.call(strategies.transcript_uniformity, clog, g.edges[0])
        kept = len(log) + len(clog)
        clock.call(_release, log, clog)  # freeing the transcripts is part of the cost
        self.check("zk.honest.accept", accepts == self.HONEST_ROUNDS, f"{accepts}/{self.HONEST_ROUNDS}")
        for rep in reports:
            bound = tv_bound(rep.samples)
            self.check(f"zk.support.{rep.edge}", rep.support == 54, f"support {rep.support}")
            self.check(
                f"zk.tv.{rep.edge}", rep.tv_from_uniform <= bound, f"TV {rep.tv_from_uniform:.4f} <= {bound:.4f} at {rep.samples}"
            )
        self.check("zk.control.tv", control.tv_from_uniform > 0.1, f"TV {control.tv_from_uniform:.3f}")
        rounds = self.HONEST_ROUNDS + self.CONTROL_ROUNDS
        return Block(
            ops=rounds, dt=clock.seconds, attempted=rounds, failed=self.HONEST_ROUNDS - accepts,
            counts={"games.transcripts_kept": kept},
        )


class Audit(Workload):
    name = "audit"
    nominal_block_s = 0.65
    reference = "numpy"
    SAMPLES = 16  # one period of the sweep's i % 16 extension schedule
    MAX_DIM = 4

    def setup(self) -> dict:
        k3 = graphs.make_graph(3, [(0, 1), (1, 2), (0, 2)])
        ext, ext_s = _timed(graphs.extend_with_gadgets, graphs.make_graph(3, [(0, 1), (1, 2)]))
        # the sweep's winning-set tables are lazy; warm the six it reads
        quantum._winning_sets.cache_clear()
        for g in (k3, ext.full):
            colors = graphs.three_color(g)
            for kind in (games.ALT_RZKP, games.ALT_EDGE, audits.BCS_EDGE_ONLY):
                quantum.win_probability(kind, g, quantum.classical_embedding(kind.game, g, colors))
        return {"graphs.extend_with_gadgets_s": ext_s}

    def block(self, k: int, clock: Clock | None = None) -> Block:
        clock = clock or Clock()
        summary = clock.call(
            audits.run_certificate_sweep, self.SAMPLES, sub_seed(self.seed, "audit", k), max_dim=self.MAX_DIM
        )
        rows = {
            (variant, n): clock.call(soundness.quantum_value_bound, n, m, 4, variant, 100.0)
            for variant in soundness.BoundVariant
            for n, m, _ in TABLE_ROWS
        }
        slope = clock.call(soundness.scaling_probe, PROBE_POINTS, 4)
        instances = sum(summary.checks.values())
        violations = sum(summary.violations.values())
        self.check("audit.violations", summary.clean, json.dumps(summary.violations, sort_keys=True))
        missing = sorted(REQUIRED_FAMILIES - set(summary.checks))
        self.check("audit.families", not missing, f"missing {missing}")
        for n, _, want in TABLE_ROWS:
            app = rows[(soundness.BoundVariant.APPENDIX_CHAIN, n)]
            main = rows[(soundness.BoundVariant.MAIN_THEOREM, n)]
            self.check(f"audit.table.{n}", app.rounds_str == want, f"{app.rounds_str} want {want}")
            self.check(
                f"audit.table.{n}.main_looser", main.log10_rounds > app.log10_rounds, f"main {main.rounds_str}"
            )
        self.check("audit.slope", abs(slope - 8.0) < 0.5, f"slope {slope:.4f}")
        return Block(
            ops=summary.strategies, dt=clock.seconds, attempted=instances, failed=violations,
            counts={"audits.checks": instances, "audits.violations": violations},
        )


def _release(*logs: list) -> None:
    for log in logs:
        log.clear()


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One line of a child's stdout, or an error once `deadline` passes."""
    fd = proc.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("prover did not announce its address in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"prover exited before announcing its address: {buf!r}")
            buf += chunk
    return buf.decode()


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Loopback(Workload):
    name = "loopback"
    nominal_block_s = 0.05
    ROUNDS = 200  # per session: a call of some 50 ms, so the passes beside it see its speed

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        self.procs: list[subprocess.Popen] = []
        self.oracle = games.verdict  # taken before tracing wraps the name: replays add no traced calls

    def setup(self) -> dict:
        self.inst, gen_s = _timed(graphs.gen_planted, 20, 40, self.seed)
        path = self.workdir / "instance.json"
        path.write_text(json.dumps(self.inst.graph.to_dict(self.inst.witness)))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        shared_seed = sub_seed(self.seed, "loopback", "shared") % (1 << 31)
        t0 = time.perf_counter()
        for role in ("a", "b"):
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "colorproof", "serve-prover", "--role", role, "--graph", str(path),
                     "--shared-seed", str(shared_seed), "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, env=env, cwd=self.root,
                )
            )
        deadline = time.monotonic() + PROVER_START_TIMEOUT_S
        self.addrs = []
        for proc in self.procs:
            line = _read_line(proc, deadline)
            match = re.search(r"listen=([\d.]+):(\d+)", line)
            if not match:
                raise RuntimeError(f"prover announced no address: {line!r}")
            self.addrs.append((match.group(1), int(match.group(2))))
        start_s = time.perf_counter() - t0
        return {"graphs.gen_planted_s": gen_s, "cli.prover_start_s": start_s}

    def teardown(self) -> None:
        while self.procs:
            stop_process(self.procs.pop())

    def block(self, k: int, clock: Clock | None = None) -> Block:
        clock = clock or Clock()
        cfg = net.SessionConfig(
            graph=self.inst.graph, rounds=self.ROUNDS, deadline_ns=DEADLINE_NS,
            seed=sub_seed(self.seed, "loopback", k), addr_a=self.addrs[0], addr_b=self.addrs[1],
        )
        rep = clock.call(net.run_verifier_session, cfg)
        lat, lat_a, lat_b = [], [], []
        for t in rep.timings:
            if t.recv_a_ns is not None and t.recv_b_ns is not None:
                lat.append((max(t.recv_a_ns, t.recv_b_ns) - min(t.send_a_ns, t.send_b_ns)) / 1e3)
                lat_a.append((t.recv_a_ns - t.send_a_ns) / 1e3)
                lat_b.append((t.recv_b_ns - t.send_b_ns) / 1e3)
        sends = [t.send_a_ns for t in rep.timings]
        cycles = [(b - a) / 1e3 for a, b in zip(sends, sends[1:])]
        self.check("loopback.accept", rep.accepted == rep.rounds, json.dumps(rep.to_dict(), sort_keys=True))
        agree = sum(
            self.oracle(games.ALT_RZKP, t.challenge, t.response_a, t.response_b) == t.verdict for t in rep.transcripts
        )
        self.check("loopback.verdict_replay", agree == rep.rounds, f"{agree}/{rep.rounds} verdicts agree")
        return Block(
            ops=rep.rounds, dt=clock.seconds, attempted=rep.rounds, failed=rep.rounds - rep.accepted,
            counts={"net.timeouts": rep.rejected_timeout},
            latencies_us=lat, latencies_a_us=lat_a, latencies_b_us=lat_b, cycles_us=cycles,
        )


WORKLOADS = {w.name: w for w in (Sim, Born, Zk, Audit, Loopback)}
