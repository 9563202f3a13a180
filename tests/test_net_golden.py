"""Seeded networked sessions pinned byte for byte.

The values below were captured before the verifier became an event loop
that writes each round's `Result` together with the next challenge. The
frames a prover receives must stay the same bytes in the same order (only
how they are split into writes may change), and a seeded session must keep
its transcripts: challenges, responses and verdicts.
"""

import hashlib
import socket
import threading

import pytest

from colorproof.games import SPECS, GameType, transcript_to_json_line
from colorproof.graphs import PlantedInstance, gen_planted, three_color
from colorproof.net import (
    Bye,
    ChallengeA,
    ChallengeB,
    Hello,
    ProverServer,
    ResponseA,
    ResponseB,
    Result,
    SessionConfig,
    decode,
    encode,
    run_verifier_session,
)
from reference_stream import round_labelling

SPEC = SPECS[GameType.ALT_RZKP]

# sha256 of the bytes each recording prover received, and how many
RECORDED = {
    "a": ("5f5a8c0e0fff100dc3f1a38439944bf74af489424353866364ce22f7558a0f60", 10844),
    "b": ("2d3f01b3a0d56e625b9ef999b253b3d86a4105f9579451e6ce66a71fbdca65e1", 11144),
}
RECORDED_TRANSCRIPTS = "ffea1a91ed65d0833ca33dcb4102f80061bc1cfa54999bddab6572688842b0d9"
# sha256 of the JSON-lines transcripts of seeded sessions against `ProverServer` provers
HONEST_TRANSCRIPTS = "cb455e841bea867a51de7d581f0d35c787d1954be3ea0f2109222933e9bb63d9"
MISMATCHED_TRANSCRIPTS = "989eabf408dd1a75ccc328e9fe95f52445b21e1948608c57127e02da8ac498e3"


@pytest.fixture(scope="module")
def inst():
    return gen_planted(6, 9, seed=1)


@pytest.fixture(scope="module")
def other(inst):
    other = three_color(inst.graph)
    if tuple(other) == inst.witness:
        other = tuple((c + 1) % 3 for c in other)
    return tuple(other)


def _digest(transcripts) -> str:
    return hashlib.sha256("\n".join(map(transcript_to_json_line, transcripts)).encode()).hexdigest()


class RecordingProver:
    """An honest prover on a plain blocking socket that keeps every byte it receives."""

    def __init__(self, witness, role, shared_seed):
        self.witness, self.role, self.shared_seed = witness, role, shared_seed
        self.received = bytearray()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _answer(self, msg):
        lab = round_labelling(self.witness, self.shared_seed, msg.round)
        if isinstance(msg, ChallengeA):
            return ResponseA(msg.round, SPEC.honest_a(lab, (msg.i, msg.j)))
        return ResponseB(msg.round, *SPEC.honest_b(lab, ((msg.i, msg.j), msg.b)))

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn:
            conn.settimeout(30.0)
            buf = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                self.received += chunk
                buf += chunk
                while len(buf) >= 5 and len(buf) >= 4 + int.from_bytes(buf[:4], "big"):
                    size = 4 + int.from_bytes(buf[:4], "big")
                    msg, buf = decode(buf[:size]), buf[size:]
                    if isinstance(msg, Hello):
                        conn.sendall(encode(msg))
                    elif isinstance(msg, (ChallengeA, ChallengeB)):
                        conn.sendall(encode(self._answer(msg)))

    def join(self):
        self._thread.join(timeout=30.0)
        self._listener.close()
        assert not self._thread.is_alive()


def _frames(data: bytes) -> list:
    out = []
    while data:
        size = 4 + int.from_bytes(data[:4], "big")
        out.append(decode(data[:size]))
        data = data[size:]
    return out


def test_recording_provers_receive_the_same_bytes(inst, other):
    rounds = 300
    pa = RecordingProver(inst.witness, "a", 42)
    pb = RecordingProver(other, "b", 42)
    cfg = SessionConfig(inst.graph, rounds=rounds, deadline_ns=5_000_000_000, seed=12,
                        addr_a=pa.address, addr_b=pb.address)
    rep = run_verifier_session(cfg)
    pa.join()
    pb.join()
    assert rep.rejected_timeout == 0 and 0 < rep.rejected_check < rounds
    for role, prover, challenge in (("a", pa, ChallengeA), ("b", pb, ChallengeB)):
        frames = _frames(bytes(prover.received))
        assert frames[0] == Hello(1, 1, inst.graph.digest())
        assert frames[-1] == Bye()
        body = frames[1:-1]
        assert len(body) == 2 * rounds
        for r, t in enumerate(rep.transcripts):
            assert isinstance(body[2 * r], challenge) and body[2 * r].round == r
            assert body[2 * r + 1] == Result(r, int(t.verdict.accept), body[2 * r + 1].reason)
        received = (hashlib.sha256(prover.received).hexdigest(), len(prover.received))
        assert received == RECORDED[role]
    assert _digest(rep.transcripts) == RECORDED_TRANSCRIPTS


def test_seeded_honest_session_keeps_its_transcripts(inst):
    pa = ProverServer(inst, "a", 42).start()
    pb = ProverServer(inst, "b", 42).start()
    try:
        cfg = SessionConfig(inst.graph, rounds=1000, deadline_ns=5_000_000_000, seed=21,
                            addr_a=pa.address, addr_b=pb.address)
        rep = run_verifier_session(cfg)
    finally:
        pa.stop()
        pb.stop()
    assert rep.accepted == 1000
    assert _digest(rep.transcripts) == HONEST_TRANSCRIPTS


def test_seeded_mismatched_session_keeps_its_transcripts(inst, other):
    pa = ProverServer(inst, "a", 42).start()
    pb = ProverServer(PlantedInstance(inst.graph, other), "b", 42).start()
    try:
        cfg = SessionConfig(inst.graph, rounds=1000, deadline_ns=5_000_000_000, seed=22,
                            addr_a=pa.address, addr_b=pb.address)
        rep = run_verifier_session(cfg)
    finally:
        pa.stop()
        pb.stop()
    assert rep.rejected_timeout == 0 and rep.rejected_check > 0
    assert _digest(rep.transcripts) == MISMATCHED_TRANSCRIPTS
