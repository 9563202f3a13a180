"""The event-loop verifier and the prover's partial label decode.

Covers the per-round cost of a hung prover, latency attributed to the prover
that was late, the reason byte of the verifier's `Result` frames, the session
telemetry, why prover connections end, writes that never block, a prover
that cannot be reached or misbehaves on the wire, and the prover's label
decode (`games.accepted_draws` and `games.labelling_at`) against
`round_labelling`.
"""

import contextlib
import json
import random
import selectors
import socket
import struct
import threading
import time

import pytest

from colorproof import net
from colorproof.games import DRAW_DIGITS, REASON_CODE, REJECTED, VERDICT_OF_CODE, Reason, accepted_draws, labelling_at
from colorproof.graphs import PlantedInstance, gen_planted, three_color
from colorproof.net import (
    GRACE_S,
    Bye,
    ChallengeA,
    ChallengeB,
    Hello,
    ProverServer,
    ResponseA,
    ResponseB,
    SessionConfig,
    _Link,
    _Stream,
    run_verifier_session,
)
from colorproof.seeds import derive_seed, substream
from reference_stream import round_labelling


@pytest.fixture(scope="module")
def inst():
    return gen_planted(6, 9, seed=1)


@pytest.fixture(scope="module")
def provers(inst):
    pa = ProverServer(inst, "a", 42).start()
    pb = ProverServer(inst, "b", 42).start()
    yield pa, pb
    pa.stop()
    pb.stop()


# ---------------------------------------------------------------------------
# Partial label decode


def _partial_labelling(witness, rng, vertices):
    """The prover's decode, at `vertices`, of the labelling drawn from `rng`."""
    return labelling_at(witness, accepted_draws(rng, len(witness) + 1), vertices)


@pytest.mark.parametrize("shared_seed", [0, 99, 2**40 + 7])
def test_partial_labelling_matches_round_labelling(shared_seed):
    witness = gen_planted(20, 40, seed=11).witness
    rng = random.Random(shared_seed)
    for r in range(2000):
        ref = round_labelling(witness, shared_seed, r)
        lab = _partial_labelling(witness, substream("label", shared_seed, r), range(len(witness)))
        assert tuple(lab.colors.values()) == ref.colors
        assert tuple(lab.w0.values()) == ref.w0
        assert tuple(lab.w1.values()) == ref.w1
        i, j = rng.sample(range(len(witness)), 2)
        pair = _partial_labelling(witness, substream("label", shared_seed, r), (i, j))
        assert pair.w0 == {i: ref.w0[i], j: ref.w0[j]} and pair.w1 == {i: ref.w1[i], j: ref.w1[j]}


class _CountingRandom(random.Random):
    """A `random.Random` that counts its `randbytes` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.randbytes_calls = 0

    def randbytes(self, n):
        self.randbytes_calls += 1
        return super().randbytes(n)


def test_partial_labelling_continues_the_rng_after_a_short_first_draw():
    # 20 labels plus the permutation need 21 accepted words; the rounds whose
    # first draw holds fewer go on drawing from the same rng
    witness = gen_planted(20, 40, seed=11).witness
    short = 0
    for r in range(5000):
        rng = _CountingRandom(derive_seed("label", 5, r))
        ref = round_labelling(witness, 5, r)
        lab = _partial_labelling(witness, rng, range(len(witness)))
        assert (tuple(lab.colors.values()), tuple(lab.w0.values()), tuple(lab.w1.values())) == (
            ref.colors, ref.w0, ref.w1
        )
        short += rng.randbytes_calls > 1
    assert short >= 1


class _ShortFirstDraw(_CountingRandom):
    """A `_CountingRandom` whose first `randbytes` call yields only `words` words."""

    def __init__(self, seed, words):
        super().__init__(seed)
        self.words = words

    def randbytes(self, n):
        return super().randbytes(min(n, 4 * self.words) if self.randbytes_calls == 0 else n)


@pytest.mark.parametrize("words", [1, 2, 5, 21])
def test_partial_labelling_continues_the_rng_when_words_run_out(words):
    # 20 labels plus the permutation need 21 accepted words; a first draw of
    # `words` words holds fewer, so the decode goes on drawing from the same rng
    witness = gen_planted(20, 40, seed=11).witness
    refilled = 0
    for r in range(300):
        rng = _ShortFirstDraw(derive_seed("label", 5, r), words)
        ref = round_labelling(witness, 5, r)
        lab = _partial_labelling(witness, rng, range(len(witness)))
        assert (tuple(lab.colors.values()), tuple(lab.w0.values()), tuple(lab.w1.values())) == (
            ref.colors, ref.w0, ref.w1
        )
        refilled += rng.randbytes_calls > 1
    assert refilled == 300 if words < len(witness) + 1 else refilled >= 1


class _ServedWord(random.Random):
    """Serves one 32-bit word, then zero words, to `getrandbits`; counts the words served."""

    def __init__(self, word):
        super().__init__(0)
        self.word, self.served = word, 0

    def getrandbits(self, k):
        word = self.word if self.served == 0 else 0
        self.served += 1
        return word >> (32 - k)


@pytest.mark.parametrize("n", [6, 3])
def test_draw_digits_agree_with_randrange(n):
    for top in range(256):
        rng = _ServedWord(top << 24 | 0x5A5A5A)
        value = rng.randrange(n)
        digit = DRAW_DIGITS[top]
        assert (rng.served == 1) == (digit != REJECTED), top
        if digit != REJECTED:
            assert value == (digit if n == 6 else digit >> 1), top


# ---------------------------------------------------------------------------
# A prover that cannot be reached


def test_session_names_the_prover_it_cannot_reach(inst, provers):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        closed = listener.getsockname()  # bound, then closed: nothing listens there
    cfg = SessionConfig(inst.graph, rounds=1, deadline_ns=10**8, seed=1, addr_a=provers[0].address, addr_b=closed)
    with pytest.raises(net.SessionError, match=f"prover B at 127.0.0.1:{closed[1]}"):
        run_verifier_session(cfg)


# ---------------------------------------------------------------------------
# A prover that misbehaves on the wire

UNKNOWN_TYPE = b"\x00\x00\x00\x01\x63"  # a whole frame of type 0x63, which does not exist
OVERSIZE = struct.pack(">IB", net.MAX_PAYLOAD + 1, 5)  # a header too long to skip


def _rogue_b(script, connections=1):
    """A fake prover B that runs `script(conn, stream)` on each of `connections` connections."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            for _ in range(connections):
                conn, _ = listener.accept()
                with conn, contextlib.suppress(OSError):
                    script(conn, _Stream(conn))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


def _drain(conn):
    """Reads until the verifier closes the connection."""
    conn.settimeout(10.0)
    while conn.recv(65536):
        pass


def _honest_b(inst, msg):
    lab = round_labelling(inst.witness, 42, msg.round)
    w = lab.w0 if msg.b == 0 else lab.w1
    return net.encode(ResponseB(msg.round, w[msg.i], w[msg.j]))


def test_garbage_instead_of_hello_aborts_the_session(capsys, tmp_path, inst, provers):
    def garbage_hello(conn, stream):
        conn.sendall(UNKNOWN_TYPE)
        _drain(conn)

    addr, thread = _rogue_b(garbage_hello, connections=2)
    cfg = SessionConfig(inst.graph, rounds=3, deadline_ns=10**8, seed=1, addr_a=provers[0].address, addr_b=addr)
    with pytest.raises(net.SessionError, match="handshake with prover B failed: unknown message type 99"):
        run_verifier_session(cfg)

    from colorproof.cli import main

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    code = main(["verify", "--graph", str(path), "--prover-a", "%s:%d" % provers[0].address,
                 "--prover-b", "%s:%d" % addr, "--rounds", "3"])
    thread.join(timeout=5.0)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: handshake with prover B failed")
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "frame",
    [UNKNOWN_TYPE, net.encode(ResponseA(1, (0, 0, 0, 0)))],
    ids=["unknown-type", "response-of-prover-a"],
)
def test_a_bad_frame_rejects_its_round_and_the_session_goes_on(inst, provers, frame):
    def bad_frame_in_round_1(conn, stream):
        stream.send(stream.read_frame(timeout=5.0))
        while not isinstance(msg := stream.read_frame(timeout=5.0), Bye):
            if isinstance(msg, ChallengeB):
                conn.sendall(frame if msg.round == 1 else _honest_b(inst, msg))

    addr, thread = _rogue_b(bad_frame_in_round_1)
    cfg = SessionConfig(inst.graph, rounds=4, deadline_ns=2_000_000_000, seed=5,
                        addr_a=provers[0].address, addr_b=addr)
    t0 = time.monotonic()
    rep = run_verifier_session(cfg)
    elapsed = time.monotonic() - t0
    thread.join(timeout=5.0)
    assert [t.verdict.reason for t in rep.transcripts] == [None, Reason.TIMEOUT, None, None]
    assert rep.accepted == 3 and rep.rejected_timeout == 1
    assert elapsed < 1.0  # the bad frame fails round 1 at once, not at its 2 s deadline
    assert not thread.is_alive()  # B read the session to its Bye


def test_an_oversize_header_closes_the_link_and_later_rounds_reject_at_once(inst, provers):
    def oversize_in_round_1(conn, stream):
        stream.send(stream.read_frame(timeout=5.0))
        while not (isinstance(msg := stream.read_frame(timeout=5.0), ChallengeB) and msg.round == 1):
            if isinstance(msg, ChallengeB):
                conn.sendall(_honest_b(inst, msg))
        conn.sendall(OVERSIZE)
        _drain(conn)  # hold the connection open: only the header can end the link

    addr, thread = _rogue_b(oversize_in_round_1)
    rounds, deadline_s = 6, 2.0
    cfg = SessionConfig(inst.graph, rounds=rounds, deadline_ns=int(deadline_s * 1e9), seed=5,
                        addr_a=provers[0].address, addr_b=addr)
    t0 = time.monotonic()
    rep = run_verifier_session(cfg)
    elapsed = time.monotonic() - t0
    thread.join(timeout=5.0)
    assert rep.accepted == 1 and rep.rejected_timeout == rounds - 1
    assert all(t.recv_b_ns is None for t in rep.timings[1:])
    assert elapsed < 1.0  # five rounds that waited their deadlines would take 10 s
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Verifier timing


def _silent_prover(received_hello: threading.Event):
    """A prover that completes HELLO, then reads and never answers."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            stream = _Stream(conn)
            hello = stream.read_frame(timeout=5.0)
            stream.send(hello)
            received_hello.set()
            conn.settimeout(30.0)
            while conn.recv(65536):
                pass
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


def test_hung_prover_costs_deadline_plus_grace_per_round(inst, provers):
    pa, _ = provers
    hello = threading.Event()
    addr, thread = _silent_prover(hello)
    rounds, deadline_s = 5, 0.05
    cfg = SessionConfig(inst.graph, rounds=rounds, deadline_ns=int(deadline_s * 1e9), seed=5,
                        addr_a=pa.address, addr_b=addr)
    t0 = time.monotonic()
    rep = run_verifier_session(cfg)
    elapsed = time.monotonic() - t0
    thread.join(timeout=5.0)
    assert hello.is_set()
    assert rep.rejected_timeout == rounds
    assert all(t.verdict.reason is Reason.TIMEOUT for t in rep.transcripts)
    assert all(t.recv_b_ns is None for t in rep.timings)
    # each round waits its deadline plus the grace, not max(3 x deadline, 2 s)
    assert rounds * deadline_s <= elapsed < rounds * (deadline_s + GRACE_S) + 0.5


def test_latency_is_blamed_on_the_late_prover(tmp_path, inst, spawn_prover):
    # both provers run as serve-prover processes: a prover thread in this
    # interpreter would add its scheduling tail to B's latency
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    slow_a = spawn_prover(path, "a", 42, delay_ms=50)
    pb = spawn_prover(path, "b", 42)
    cfg = SessionConfig(inst.graph, rounds=4, deadline_ns=1_000_000_000, seed=5, addr_a=slow_a, addr_b=pb)
    rep = run_verifier_session(cfg)
    assert rep.accepted == 4
    for t in rep.timings:
        assert t.recv_a_ns - t.send_a_ns >= 50_000_000
        assert t.recv_b_ns - t.send_b_ns < 10_000_000
    # a deadline between the two latencies rejects every round, and B stays fast
    cfg = SessionConfig(inst.graph, rounds=4, deadline_ns=25_000_000, seed=6, addr_a=slow_a, addr_b=pb)
    rep = run_verifier_session(cfg)
    assert rep.rejected_timeout == 4
    for t in rep.timings:
        assert t.recv_b_ns - t.send_b_ns < 10_000_000
        assert t.recv_a_ns is None or t.recv_a_ns - t.send_a_ns >= 50_000_000


def test_writes_never_block_and_arrive_in_order():
    a, b = socket.socketpair()
    a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    payload = random.Random(3).randbytes(1 << 18)
    with a, b, selectors.DefaultSelector() as sel:
        link = _Link(_Stream(a), sel)
        t0 = time.monotonic()
        link.write(payload[:100_000])
        link.write(payload[100_000:])
        assert time.monotonic() - t0 < 0.5
        assert link.queued  # the socket took only part of it
        got = bytearray()
        b.settimeout(5.0)
        while len(got) < len(payload):
            for key, mask in sel.select(0):
                key.data.on_ready(mask)
            got += b.recv(65536)
        assert bytes(got) == payload and not link.queued


# ---------------------------------------------------------------------------
# Result frames


def test_reason_codes_are_pinned():
    # the reason byte of a Result frame is part of the wire format
    assert REASON_CODE == {
        None: 0,
        Reason.EDGE_VERIFICATION: 1,
        Reason.WELL_DEFINITION: 2,
        Reason.CONSTRAINT_SATISFACTION: 3,
        Reason.MALFORMED: 4,
        Reason.TIMEOUT: 5,
    }
    assert [VERDICT_OF_CODE[code].reason for code in REASON_CODE.values()] == list(REASON_CODE)


def test_result_frames_carry_the_reason_byte(inst, provers):
    frames = []

    def off_by_one_then_silent_then_honest(conn, stream):
        # round 0: both labels one off the witness's (well-definition); round 1: no answer (timeout); then honest
        conn.settimeout(10.0)
        buf = b""
        while chunk := conn.recv(65536):
            buf += chunk
            while len(buf) >= 4 and len(buf) >= (size := 4 + int.from_bytes(buf[:4], "big")):
                frames.append(buf[:size])
                msg, buf = net.decode(buf[:size]), buf[size:]
                if isinstance(msg, Hello):
                    conn.sendall(net.encode(msg))
                elif isinstance(msg, ChallengeB) and msg.round == 0:
                    lab = round_labelling(inst.witness, 42, 0)
                    w = lab.w0 if msg.b == 0 else lab.w1
                    conn.sendall(net.encode(ResponseB(0, (w[msg.i] + 1) % 3, (w[msg.j] + 1) % 3)))
                elif isinstance(msg, ChallengeB) and msg.round > 1:
                    conn.sendall(_honest_b(inst, msg))

    addr, thread = _rogue_b(off_by_one_then_silent_then_honest)
    cfg = SessionConfig(inst.graph, rounds=3, deadline_ns=500_000_000, seed=5,
                        addr_a=provers[0].address, addr_b=addr)
    rep = run_verifier_session(cfg)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [t.verdict.reason for t in rep.transcripts] == [Reason.WELL_DEFINITION, Reason.TIMEOUT, None]
    # length, type 6, round, verdict byte, reason byte
    assert [f.hex() for f in frames if f[4] == net.T_RESULT] == [
        "0000000b" "06" "0000000000000000" "00" "02",
        "0000000b" "06" "0000000000000001" "00" "05",
        "0000000b" "06" "0000000000000002" "01" "00",
    ]


# ---------------------------------------------------------------------------
# Telemetry


def test_report_adds_latency_and_reject_reasons(inst, provers):
    pa, pb = provers
    # 150 rounds: the nearest-rank p99 is the 149th smallest latency (ceil(148.5))
    rep = run_verifier_session(SessionConfig(inst.graph, rounds=150, deadline_ns=500_000_000, seed=8,
                                             addr_a=pa.address, addr_b=pb.address))
    doc = json.loads(json.dumps(rep.to_dict()))
    assert {k: doc[k] for k in ("rounds", "accepted", "rejected_check", "rejected_timeout", "accepted_all")} == {
        "rounds": 150, "accepted": 150, "rejected_check": 0, "rejected_timeout": 0, "accepted_all": True,
    }
    assert doc["reject_reasons"] == {r.value: 0 for r in Reason}
    for side, recv, send in (("a", "recv_a_ns", "send_a_ns"), ("b", "recv_b_ns", "send_b_ns")):
        lat = sorted((getattr(t, recv) - getattr(t, send)) / 1e3 for t in rep.timings)
        summary = doc["latency_us"][side]
        assert summary == {"p50": round(lat[74], 1), "p99": round(lat[148], 1), "max": round(lat[-1], 1)}
        assert 0 < summary["p50"] <= summary["p99"] <= summary["max"]

    other = three_color(inst.graph)
    if tuple(other) == inst.witness:
        other = tuple((c + 1) % 3 for c in other)
    bad_b = ProverServer(PlantedInstance(inst.graph, tuple(other)), "b", 42).start()
    try:
        rep = run_verifier_session(SessionConfig(inst.graph, rounds=300, deadline_ns=500_000_000, seed=9,
                                                 addr_a=pa.address, addr_b=bad_b.address))
    finally:
        bad_b.stop()
    reasons = rep.to_dict()["reject_reasons"]
    assert reasons["well-definition"] == rep.rejected_check > 0
    assert sum(reasons.values()) == rep.rounds - rep.accepted

    rep = run_verifier_session(SessionConfig(inst.graph, rounds=10, deadline_ns=0, seed=5,
                                             addr_a=pa.address, addr_b=pb.address))
    assert rep.to_dict()["reject_reasons"]["timeout"] == 10


def _wait_closes(server, total):
    deadline = time.monotonic() + 5.0
    while sum(server.closes.values()) < total and time.monotonic() < deadline:
        time.sleep(0.01)
    return dict(server.closes)


def _hello_then(inst, frames, wait_for_close=True):
    """A client that completes HELLO, sends `frames`, then waits for the prover to close (or closes first)."""

    def run(sock):
        stream = _Stream(sock)
        stream.send(Hello(1, 1, inst.graph.digest()))
        assert isinstance(stream.read_frame(timeout=2.0), Hello)
        for frame in frames:
            sock.sendall(frame if isinstance(frame, bytes) else net.encode(frame))
        if wait_for_close:
            sock.settimeout(2.0)
            while sock.recv(65536):
                pass

    return run


@pytest.mark.parametrize(
    "reason",
    ["bye", "bad-hello", "refused-half", "idle-timeout", "garbage", "peer-closed"],
)
def test_prover_counts_why_connections_end(monkeypatch, inst, reason):
    monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 0.2)
    server = ProverServer(inst, "a", 42).start()
    clients = {
        "bye": _hello_then(inst, [ChallengeA(0, *inst.graph.edges[0]), Bye()]),
        "bad-hello": lambda sock: (
            _Stream(sock).send(Hello(1, 1, bytes(32))), sock.settimeout(2.0), sock.recv(64)
        ),
        "refused-half": _hello_then(inst, [ChallengeB(0, *inst.graph.edges[0], 0)]),
        "idle-timeout": _hello_then(inst, []),
        "garbage": _hello_then(inst, [b"\x00\x00\x00\x01\x63"]),  # type 0x63 does not exist
        "peer-closed": _hello_then(inst, [], wait_for_close=False),
    }
    try:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            clients[reason](sock)
        closes = _wait_closes(server, 1)
    finally:
        server.stop()
    assert closes == {**dict.fromkeys(net.CLOSE_REASONS, 0), reason: 1}


def test_an_exception_escaping_a_connection_reaches_threading_excepthook(monkeypatch, inst):
    # socketserver's own handle_error would print it and go on; the prover re-raises it
    seen = []

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(net, "_serve_connection", broken)
    monkeypatch.setattr(threading, "excepthook", seen.append)
    server = ProverServer(inst, "a", 42).start()
    try:
        with socket.create_connection(server.address, timeout=2.0):
            pass
        deadline = time.monotonic() + 5.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        server.stop()
    assert [str(args.exc_value) for args in seen] == ["boom"]
    assert sum(server.closes.values()) == 0


def test_stop_returns_promptly_started_or_not(inst):
    for started in (False, True):
        server = net.ProverServer(inst, "a", shared_seed=42)
        if started:
            server.start()
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 0.5
        with pytest.raises(OSError):  # the listening socket is closed
            socket.create_connection(server.address, timeout=1.0).close()


def test_session_ends_with_bye_on_both_provers(inst):
    pa = ProverServer(inst, "a", 42).start()
    pb = ProverServer(inst, "b", 42).start()
    try:
        for seed in (1, 2):
            cfg = SessionConfig(inst.graph, rounds=20, deadline_ns=500_000_000, seed=seed,
                                addr_a=pa.address, addr_b=pb.address)
            assert run_verifier_session(cfg).ok
        assert _wait_closes(pa, 2)["bye"] == 2 and _wait_closes(pb, 2)["bye"] == 2
    finally:
        pa.stop()
        pb.stop()


def test_verify_json_reports_latency_and_reject_reasons(capsys, tmp_path, inst, provers):
    from colorproof.cli import main

    pa, pb = provers
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.graph.to_dict(inst.witness)))
    code = main(["verify", "--graph", str(path), "--prover-a", "%s:%d" % pa.address,
                 "--prover-b", "%s:%d" % pb.address, "--rounds", "50", "--deadline-ms", "500", "--seed", "3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["accepted"] == 50 and doc["accepted_all"] is True
    assert doc["reject_reasons"] == {r.value: 0 for r in Reason}
    assert set(doc["latency_us"]) == {"a", "b"}
    assert all(set(v) == {"p50", "p99", "max"} and v["p50"] > 0 for v in doc["latency_us"].values())
