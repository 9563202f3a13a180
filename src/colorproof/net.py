"""Wire protocol and runtime for running the labelling game across processes.

Framing: 4-byte big-endian length (counting the type byte plus the body),
1-byte message type, body.
The verifier opens one connection per prover, pins the graph identity with a
32-byte hash in HELLO, then drives strictly sequential rounds. A round's
challenge frames carry only that prover's half (the A frame never contains
the bit or the second edge). The relativistic separation constraint is
modeled as a per-round response deadline on the verifier's monotonic clock;
it is a desk-scale stand-in, not a security claim.

Provers derive their per-round labelling deterministically from a shared
seed exchanged out-of-band, so two honest provers agree without talking.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .games import (
    ALT_RZKP,
    SPECS,
    GameType,
    Labelled,
    Reason,
    RzkpChallenge,
    RzkpResponseA,
    RzkpResponseB,
    Transcript,
    Verdict,
    draw_labellings,
    sample_challenge,
    verdict,
)
from .graphs import Graph, PlantedInstance
from .seeds import substream

MAX_PAYLOAD = 1 << 20
PROTOCOL_VERSION = 1

T_HELLO = 1
T_CHALLENGE_A = 2
T_CHALLENGE_B = 3
T_RESPONSE_A = 4
T_RESPONSE_B = 5
T_RESULT = 6
T_BYE = 7

GAME_CODES = {GameType.ALT_RZKP: 1}  # the only game the wire carries

REASON_CODES = {
    None: 0,
    Reason.EDGE_VERIFICATION: 1,
    Reason.WELL_DEFINITION: 2,
    Reason.CONSTRAINT_SATISFACTION: 3,
    Reason.MALFORMED: 4,
    Reason.TIMEOUT: 5,
}
REASON_FROM_CODE = {v: k for k, v in REASON_CODES.items()}


class FrameError(ValueError):
    pass


class TruncatedError(FrameError):
    pass


class OversizeError(FrameError):
    pass


class BadTypeError(FrameError):
    pass


class FieldRangeError(FrameError):
    pass


class SessionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Hello:
    version: int
    game: int
    graph_hash: bytes


@dataclass(frozen=True)
class ChallengeA:
    round: int
    i: int
    j: int


@dataclass(frozen=True)
class ChallengeB:
    round: int
    i: int
    j: int
    b: int


@dataclass(frozen=True)
class ResponseA:
    round: int
    w: tuple[int, int, int, int]


@dataclass(frozen=True)
class ResponseB:
    round: int
    wi: int
    wj: int


@dataclass(frozen=True)
class Result:
    round: int
    accept: int
    reason: int


@dataclass(frozen=True)
class Bye:
    pass


WireMessage = Union[Hello, ChallengeA, ChallengeB, ResponseA, ResponseB, Result, Bye]


_U64, _U32 = 1 << 64, 1 << 32

# Per message type: its class, the layout of the whole frame (length, type,
# body), and the name and exclusive upper bound of each leading body field.
# Both directions check through this table.
_FRAMES = {
    T_HELLO: (Hello, struct.Struct(">IBBB32s"), (("version", 256),)),
    T_CHALLENGE_A: (ChallengeA, struct.Struct(">IBQII"), (("round", _U64), ("i", _U32), ("j", _U32))),
    T_CHALLENGE_B: (ChallengeB, struct.Struct(">IBQIIB"), (("round", _U64), ("i", _U32), ("j", _U32), ("b", 2))),
    T_RESPONSE_A: (ResponseA, struct.Struct(">IBQBBBB"), (("round", _U64),) + (("w", 3),) * 4),
    T_RESPONSE_B: (ResponseB, struct.Struct(">IBQBB"), (("round", _U64), ("wi", 3), ("wj", 3))),
    T_RESULT: (Result, struct.Struct(">IBQBB"), (("round", _U64), ("verdict", 2), ("reason", 6))),
    T_BYE: (Bye, struct.Struct(">IB"), ()),
}
_TYPE_OF = {cls: t for t, (cls, _, _) in _FRAMES.items()}
_HEADER = struct.Struct(">IB")


def _check_fields(t: int, values: tuple) -> None:
    for (name, limit), value in zip(_FRAMES[t][2], values):
        if not 0 <= value < limit:
            raise FieldRangeError(f"{name}={value} outside 0..{limit - 1}")
    if t == T_HELLO:
        if values[1] not in GAME_CODES.values():
            raise FieldRangeError(f"unknown game code {values[1]}")
        if len(values[2]) != 32:
            raise FieldRangeError("graph hash must be 32 bytes")


def encode(msg: WireMessage) -> bytes:
    t = _TYPE_OF.get(type(msg))
    if t is None:
        raise BadTypeError(f"cannot encode {type(msg)!r}")
    values = (msg.round, *msg.w) if t == T_RESPONSE_A else tuple(vars(msg).values())
    _check_fields(t, values)
    frame = _FRAMES[t][1]
    # the length prefix counts the type byte plus the body
    return frame.pack(frame.size - 4, t, *values)


def decode(data: bytes) -> WireMessage:
    """Parse exactly one complete frame; rejects garbage, never crashes."""
    if len(data) < 5:
        raise TruncatedError(f"frame header needs 5 bytes, got {len(data)}")
    length, t = _HEADER.unpack_from(data)
    if length > MAX_PAYLOAD:
        raise OversizeError(f"declared payload {length} exceeds {MAX_PAYLOAD}")
    if t not in _FRAMES:
        raise BadTypeError(f"unknown message type {t}")
    cls, frame, _ = _FRAMES[t]
    if length != frame.size - 4:
        raise FieldRangeError(f"type {t} wants declared length {frame.size - 4}, got {length}")
    if len(data) < 4 + length:
        raise TruncatedError(f"frame needs {4 + length} bytes, got {len(data)}")
    if len(data) > 4 + length:
        raise FieldRangeError(f"{len(data) - 4 - length} trailing bytes after frame")
    values = frame.unpack(data)[2:]
    _check_fields(t, values)
    return ResponseA(values[0], values[1:]) if t == T_RESPONSE_A else cls(*values)


# ---------------------------------------------------------------------------
# Stream reader


class _Stream:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""
        # small request/response frames stall badly behind Nagle + delayed ACK
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    def _fill(self, need: int, deadline: Optional[float]) -> None:
        while len(self.buf) < need:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("transport deadline expired")
                self.sock.settimeout(remaining)
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self.buf += chunk

    def read_frame(self, timeout: Optional[float] = None) -> WireMessage:
        deadline = None if timeout is None else time.monotonic() + timeout
        self._fill(5, deadline)
        (length,) = struct.unpack(">I", self.buf[:4])
        if length > MAX_PAYLOAD:
            raise OversizeError(f"declared payload {length} exceeds {MAX_PAYLOAD}")
        self._fill(max(5, 4 + length), deadline)
        frame, self.buf = self.buf[: 4 + length], self.buf[4 + length :]
        return decode(frame)

    def send(self, msg: WireMessage) -> None:
        self.sock.sendall(encode(msg))


# ---------------------------------------------------------------------------
# Prover


def round_labelling(witness: tuple[int, ...], shared_seed: int, round_index: int) -> Labelled:
    """The honest per-round coloring permutation and label split.

    Both provers call this with the same shared seed, so their labellings
    agree without any communication.
    """
    rng = substream("label", shared_seed, round_index)
    return draw_labellings(witness, witness, True, rng)[0]


def _serve_connection(conn: socket.socket, inst: PlantedInstance, role: str, shared_seed: int, delay_s: float) -> None:
    spec = SPECS[GameType.ALT_RZKP]
    stream = _Stream(conn)
    try:
        hello = stream.read_frame(timeout=10.0)
        if (
            not isinstance(hello, Hello)
            or hello.version != PROTOCOL_VERSION
            or hello.game != GAME_CODES[GameType.ALT_RZKP]
            or hello.graph_hash != inst.graph.digest()
        ):
            stream.send(Bye())
            return
        stream.send(Hello(PROTOCOL_VERSION, GAME_CODES[GameType.ALT_RZKP], inst.graph.digest()))
        # answering a half off the graph (a non-edge, say), or a second half under
        # one round's permutation, would reveal colors: each round is answered once
        halves = set(spec.a_keys(inst.graph) if role == "a" else spec.b_keys(inst.graph))
        answered = -1
        while True:
            msg = stream.read_frame(timeout=60.0)
            if isinstance(msg, Bye):
                return
            if isinstance(msg, Result):
                continue
            half = None
            if isinstance(msg, ChallengeA) and role == "a":
                half = (msg.i, msg.j)
            elif isinstance(msg, ChallengeB) and role == "b":
                half = ((msg.i, msg.j), msg.b)
            if half not in halves or msg.round <= answered:
                stream.send(Bye())
                return
            answered = msg.round
            lab = round_labelling(inst.witness, shared_seed, msg.round)
            if delay_s:
                time.sleep(delay_s)
            if role == "a":
                stream.send(ResponseA(msg.round, spec.honest_a(lab, half)))
            else:
                stream.send(ResponseB(msg.round, *spec.honest_b(lab, half)))
    except (OSError, FrameError, ConnectionError, TimeoutError):
        return
    finally:
        conn.close()


class ProverServer:
    """Threaded prover endpoint; serves honest responses for one instance."""

    def __init__(
        self,
        inst: PlantedInstance,
        role: str,
        shared_seed: int,
        host: str = "127.0.0.1",
        port: int = 0,
        delay_s: float = 0.0,
    ):
        if role not in ("a", "b"):
            raise ValueError(f"role must be 'a' or 'b', got {role!r}")
        self.inst = inst
        self.role = role
        self.shared_seed = shared_seed
        self.delay_s = delay_s
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(8)
        self._sock.settimeout(0.2)
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ProverServer":
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            worker = threading.Thread(
                target=_serve_connection,
                args=(conn, self.inst, self.role, self.shared_seed, self.delay_s),
                daemon=True,
            )
            worker.start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def serve_forever(self) -> None:
        """Blocking accept loop for the CLI entry point."""
        self._sock.settimeout(None)
        self._accept_loop()


def run_prover(
    endpoint: tuple[str, int], inst: PlantedInstance, role: str, shared_seed: int, delay_s: float = 0.0
) -> ProverServer:
    """Start a prover server on `endpoint`; returns the running server."""
    host, port = endpoint
    return ProverServer(inst, role, shared_seed, host=host, port=port, delay_s=delay_s).start()


# ---------------------------------------------------------------------------
# Verifier


@dataclass(frozen=True)
class SessionConfig:
    graph: Graph
    rounds: int
    deadline_ns: int
    seed: int
    addr_a: tuple[str, int]
    addr_b: tuple[str, int]

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("session needs at least one round")
        if self.deadline_ns < 0:
            raise ValueError("deadline must be nonnegative")


@dataclass(frozen=True)
class RoundTiming:
    send_a_ns: int
    recv_a_ns: Optional[int]
    send_b_ns: int
    recv_b_ns: Optional[int]


@dataclass
class SessionReport:
    rounds: int
    accepted: int
    rejected_check: int
    rejected_timeout: int
    transcripts: list[Transcript] = field(default_factory=list)
    timings: list[RoundTiming] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rejected_check == 0 and self.rejected_timeout == 0

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "accepted": self.accepted,
            "rejected_check": self.rejected_check,
            "rejected_timeout": self.rejected_timeout,
            "accepted_all": self.ok,
        }


def _recv_for_round(stream: _Stream, want_type, round_index: int, cap_s: float):
    """Next response of `want_type` for this round; stale rounds are skipped."""
    deadline = time.monotonic() + cap_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("no response within the transport cap")
        msg = stream.read_frame(timeout=remaining)
        if isinstance(msg, want_type):
            if msg.round == round_index:
                return msg
            if msg.round < round_index:
                continue  # stale response from a timed-out round
        raise SessionError(f"unexpected frame {msg!r} while waiting for round {round_index}")


def run_verifier_session(cfg: SessionConfig) -> SessionReport:
    """Drive a full session; every round yields a transcript and timings.

    A round rejects on deadline breach (either prover) or on the game checks;
    check verdicts are computed by the same verdict machine the in-process
    simulator uses. Transport failures count as timeouts; only a failed
    handshake aborts the session.
    """
    g = cfg.graph
    report = SessionReport(rounds=cfg.rounds, accepted=0, rejected_check=0, rejected_timeout=0)
    cap_s = max(3.0 * cfg.deadline_ns / 1e9, 2.0)
    with socket.create_connection(cfg.addr_a, timeout=5.0) as sock_a, socket.create_connection(
        cfg.addr_b, timeout=5.0
    ) as sock_b:
        sa, sb = _Stream(sock_a), _Stream(sock_b)
        hello = Hello(PROTOCOL_VERSION, GAME_CODES[GameType.ALT_RZKP], g.digest())
        for s in (sa, sb):
            s.send(hello)
        for s, name in ((sa, "prover A"), (sb, "prover B")):
            try:
                reply = s.read_frame(timeout=5.0)
            except (TimeoutError, ConnectionError, FrameError) as exc:
                raise SessionError(f"handshake with {name} failed: {exc}") from exc
            if not isinstance(reply, Hello) or reply.graph_hash != g.digest():
                raise SessionError(f"{name} refused the session (graph hash mismatch?)")
        for r in range(cfg.rounds):
            rng = substream("round", cfg.seed, r)
            ch = sample_challenge(ALT_RZKP, g, rng)
            assert isinstance(ch, RzkpChallenge)
            sent_a = sent_b = False
            send_a = time.monotonic_ns()
            try:
                sa.send(ChallengeA(r, ch.edge_a[0], ch.edge_a[1]))
                sent_a = True
            except OSError:
                pass
            send_b = time.monotonic_ns()
            try:
                sb.send(ChallengeB(r, ch.edge_b[0], ch.edge_b[1], ch.bit))
                sent_b = True
            except OSError:
                pass
            ra = rb = None
            recv_a = recv_b = None
            timed_out = not (sent_a and sent_b)
            if sent_a:
                try:
                    msg_a = _recv_for_round(sa, ResponseA, r, cap_s)
                    recv_a = time.monotonic_ns()
                    ra = RzkpResponseA(msg_a.w)
                except (TimeoutError, ConnectionError, FrameError, SessionError, OSError):
                    timed_out = True
            if sent_b:
                try:
                    msg_b = _recv_for_round(sb, ResponseB, r, cap_s)
                    recv_b = time.monotonic_ns()
                    rb = RzkpResponseB((msg_b.wi, msg_b.wj))
                except (TimeoutError, ConnectionError, FrameError, SessionError, OSError):
                    timed_out = True
            if recv_a is not None and recv_a - send_a > cfg.deadline_ns:
                timed_out = True
            if recv_b is not None and recv_b - send_b > cfg.deadline_ns:
                timed_out = True
            if timed_out:
                v = Verdict(False, Reason.TIMEOUT)
                report.rejected_timeout += 1
            else:
                v = verdict(ALT_RZKP, ch, ra, rb)
                if v.accept:
                    report.accepted += 1
                else:
                    report.rejected_check += 1
            report.transcripts.append(Transcript(r, ch, ra, rb, v))
            report.timings.append(RoundTiming(send_a, recv_a, send_b, recv_b))
            result = Result(r, int(v.accept), REASON_CODES[v.reason])
            for s in (sa, sb):
                try:
                    s.send(result)
                except OSError:
                    pass
        for s in (sa, sb):
            try:
                s.send(Bye())
            except OSError:
                pass
    return report
