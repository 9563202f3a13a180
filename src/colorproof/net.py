"""Wire protocol and runtime for running the labelling game across processes.

Framing: 4-byte big-endian length (counting the type byte plus the body),
1-byte message type, body.
The verifier opens one connection per prover, pins the graph identity with a
32-byte hash in HELLO, then drives strictly sequential rounds. A round's
challenge frames carry only that prover's half (the A frame never contains
the bit or the second edge). The relativistic separation constraint is
modeled as a per-round response deadline on the verifier's monotonic clock;
it is a desk-scale stand-in, not a security claim.

The verifier is one `selectors` loop over both connections. Each prover gets
one write per round, the previous round's `Result` followed by this round's
challenge (the last `Result` goes out with `Bye`), so it receives the same
frames in the same order as with one write per frame. Sends never block: what
a socket does not take is queued and flushed as it becomes writable. Each
response is stamped when its socket becomes readable, so one prover's latency
never includes the other's. A round waits at most its deadline plus
`GRACE_S`; a response that comes later carries an older round index and is
skipped. The next round's challenge is sampled while the provers answer.

Provers derive their per-round labelling deterministically from a shared
seed exchanged out-of-band, so two honest provers agree without talking.
A prover decodes only the labels it answers, in pure Python, so it loads no
numpy (`games.accepted_draws` and `games.labelling_at`).
"""

from __future__ import annotations

import selectors
import socket
import socketserver
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from . import ColorproofError
from .games import (
    ALT_RZKP,
    REASON_CODE,
    SPECS,
    GameType,
    Reason,
    Transcript,
    Verdict,
    accepted_draws,
    labelling_at,
    sample_challenge,
    verdict,
)
from .graphs import Graph, PlantedInstance
from .seeds import substream

MAX_PAYLOAD = 1 << 20
PROTOCOL_VERSION = 1
GRACE_S = 0.02  # how long past its deadline a round still takes in responses
HELLO_TIMEOUT_S = 10.0
IDLE_TIMEOUT_S = 60.0  # a prover closes a connection silent for this long
POLL_S = 0.05  # how often a started ProverServer checks for stop()
MAX_WAIT_S = 86400.0  # longest deadline or delay: epoll and time.sleep overflow near 24.8 days
CLOSE_REASONS = ("bye", "bad-hello", "refused-half", "idle-timeout", "garbage", "peer-closed")

T_HELLO = 1
T_CHALLENGE_A = 2
T_CHALLENGE_B = 3
T_RESPONSE_A = 4
T_RESPONSE_B = 5
T_RESULT = 6
T_BYE = 7

GAME_CODE = 1  # HELLO's code for alt-rzkp, the only game the wire carries


class FrameError(ColorproofError, ValueError):
    pass


class OversizeError(FrameError):
    pass


class SessionError(ColorproofError, RuntimeError):
    pass


class ConfigError(ColorproofError, ValueError):
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
_LENGTH = struct.Struct(">I")


def _check_fields(t: int, values: tuple) -> None:
    for (name, limit), value in zip(_FRAMES[t][2], values):
        if not 0 <= value < limit:
            raise FrameError(f"{name}={value} outside 0..{limit - 1}")
    if t == T_HELLO:
        if values[1] != GAME_CODE:
            raise FrameError(f"unknown game code {values[1]}")
        if len(values[2]) != 32:
            raise FrameError("graph hash must be 32 bytes")


def encode(msg: WireMessage) -> bytes:
    t = _TYPE_OF.get(type(msg))
    if t is None:
        raise FrameError(f"cannot encode {type(msg)!r}")
    values = (msg.round, *msg.w) if t == T_RESPONSE_A else tuple(vars(msg).values())
    _check_fields(t, values)
    frame = _FRAMES[t][1]
    # the length prefix counts the type byte plus the body
    return frame.pack(frame.size - 4, t, *values)


def decode(data: bytes) -> WireMessage:
    """Parse exactly one complete frame; rejects garbage, never crashes."""
    if len(data) < 5:
        raise FrameError(f"frame header needs 5 bytes, got {len(data)}")
    length, t = _HEADER.unpack_from(data)
    if length > MAX_PAYLOAD:
        raise OversizeError(f"declared payload {length} exceeds {MAX_PAYLOAD}")
    if t not in _FRAMES:
        raise FrameError(f"unknown message type {t}")
    cls, frame, _ = _FRAMES[t]
    if length != frame.size - 4:
        raise FrameError(f"type {t} wants declared length {frame.size - 4}, got {length}")
    if len(data) < 4 + length:
        raise FrameError(f"frame needs {4 + length} bytes, got {len(data)}")
    if len(data) > 4 + length:
        raise FrameError(f"{len(data) - 4 - length} trailing bytes after frame")
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

    def pop(self) -> Optional[WireMessage]:
        """The next whole frame in the buffer, decoded; None until one is complete."""
        buf = self.buf
        if len(buf) < 5:
            return None
        (length,) = _LENGTH.unpack_from(buf)
        if length > MAX_PAYLOAD:
            raise OversizeError(f"declared payload {length} exceeds {MAX_PAYLOAD}")
        if len(buf) < max(5, 4 + length):
            return None
        self.buf = buf[4 + length :]
        return decode(buf[: 4 + length])

    def read_frame(self, timeout: Optional[float] = None) -> WireMessage:
        """The next frame; without `timeout`, reads wait as the socket's own timeout says."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            msg = self.pop()
            if msg is not None:
                return msg
            self._fill(len(self.buf) + 1, deadline)

    def send(self, msg: WireMessage) -> None:
        self.sock.sendall(encode(msg))


# ---------------------------------------------------------------------------
# Prover


def _serve_connection(conn: socket.socket, inst: PlantedInstance, role: str, shared_seed: int, delay_s: float) -> str:
    """Answer one verifier; returns why the connection ended (one of CLOSE_REASONS)."""
    spec = SPECS[GameType.ALT_RZKP]
    stream = _Stream(conn)
    hello_back = Hello(PROTOCOL_VERSION, GAME_CODE, inst.graph.digest())
    try:
        conn.settimeout(HELLO_TIMEOUT_S)
        hello = stream.read_frame()
        if hello != hello_back:  # another version, game or graph
            stream.send(Bye())
            return "bad-hello"
        stream.send(hello_back)
        conn.settimeout(IDLE_TIMEOUT_S)
        # answering a half off the graph (a non-edge, say), or a second half under
        # one round's permutation, would reveal colors: each round is answered once
        halves = set(spec.a_keys(inst.graph) if role == "a" else spec.b_keys(inst.graph))
        answered = -1
        draws_of = lambda r: accepted_draws(substream("label", shared_seed, r), len(inst.witness) + 1)  # noqa: E731
        ahead = (0, draws_of(0))  # the next round's draw, made while the verifier works
        while True:
            msg = stream.read_frame()
            if isinstance(msg, Bye):
                return "bye"
            if isinstance(msg, Result):
                continue
            half = None
            if isinstance(msg, ChallengeA) and role == "a":
                half = (msg.i, msg.j)
            elif isinstance(msg, ChallengeB) and role == "b":
                half = ((msg.i, msg.j), msg.b)
            if half not in halves or msg.round <= answered:
                stream.send(Bye())
                return "refused-half"
            answered = msg.round
            draws = ahead[1] if ahead[0] == msg.round else draws_of(msg.round)
            lab = labelling_at(inst.witness, draws, (msg.i, msg.j))
            if delay_s:
                time.sleep(delay_s)
            if role == "a":
                stream.send(ResponseA(msg.round, spec.honest_a(lab, half)))
            else:
                stream.send(ResponseB(msg.round, *spec.honest_b(lab, half)))
            ahead = (msg.round + 1, draws_of(msg.round + 1))
    except TimeoutError:
        return "idle-timeout"
    except FrameError:
        return "garbage"
    except OSError:  # the verifier closed or reset the connection
        return "peer-closed"
    finally:
        conn.close()


class ProverServer(socketserver.ThreadingTCPServer):
    """Threaded prover endpoint; serves honest responses for one instance.

    Each connection runs `_serve_connection` on its own daemon thread.
    `closes` counts why each connection ended, by the keys of CLOSE_REASONS.
    `start` serves from a background thread and `stop` ends that; the CLI
    calls the inherited `serve_forever` instead.
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 8

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
            raise ConfigError(f"role must be 'a' or 'b', got {role!r}")
        if not 0 <= delay_s <= MAX_WAIT_S:  # time.sleep fails on a negative, NaN or huge delay
            raise ConfigError(f"delay must be finite and nonnegative, at most {MAX_WAIT_S:g} s; got {delay_s} s")
        self.inst = inst
        self.role = role
        self.shared_seed = shared_seed
        self.delay_s = delay_s
        self.closes = Counter(dict.fromkeys(CLOSE_REASONS, 0))
        self._closes_lock = threading.Lock()
        self._started = False
        try:
            super().__init__((host, port), None)
        except OSError as exc:  # the name does not resolve, the port is taken, ...: the socket is closed
            raise ConfigError(f"cannot listen on {host}:{port}: {exc}") from exc
        self.address = self.server_address

    def finish_request(self, request: socket.socket, client_address) -> None:
        reason = _serve_connection(request, self.inst, self.role, self.shared_seed, self.delay_s)
        with self._closes_lock:
            self.closes[reason] += 1

    def handle_error(self, request, client_address) -> None:
        raise  # an escaped exception ends its thread through threading.excepthook

    def start(self) -> "ProverServer":
        self._started = True
        threading.Thread(target=self.serve_forever, args=(POLL_S,), daemon=True).start()
        return self

    def stop(self) -> None:
        if self._started:  # shutdown() waits for a serve_forever loop, forever if none runs
            self.shutdown()
        self.server_close()


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
            raise ConfigError("session needs at least one round")
        if not 0 <= self.deadline_ns <= MAX_WAIT_S * 1e9:  # select() overflows on a huge timeout
            raise ConfigError(f"deadline must be nonnegative, at most {MAX_WAIT_S:g} s; got {self.deadline_ns / 1e9} s")


@dataclass(frozen=True)
class RoundTiming:
    send_a_ns: int
    recv_a_ns: Optional[int]
    send_b_ns: int
    recv_b_ns: Optional[int]


def _latency_summary(latencies_ns: list) -> dict:
    """Nearest-rank p50 and p99 and the max, in microseconds (None without samples)."""
    us = sorted(x / 1e3 for x in latencies_ns)
    n = len(us)  # the nearest-rank q-th percentile is the ceil(n q / 100)-th smallest
    ranks = {"p50": -(-n * 50 // 100), "p99": -(-n * 99 // 100), "max": n}
    return {key: round(us[rank - 1], 1) if us else None for key, rank in ranks.items()}


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
        reasons = Counter(t.verdict.reason for t in self.transcripts if not t.verdict.accept)
        return {
            "rounds": self.rounds,
            "accepted": self.accepted,
            "rejected_check": self.rejected_check,
            "rejected_timeout": self.rejected_timeout,
            "accepted_all": self.ok,
            "latency_us": {
                "a": _latency_summary([t.recv_a_ns - t.send_a_ns for t in self.timings if t.recv_a_ns is not None]),
                "b": _latency_summary([t.recv_b_ns - t.send_b_ns for t in self.timings if t.recv_b_ns is not None]),
            },
            "reject_reasons": {reason.value: reasons[reason] for reason in Reason},
        }


class _Link:
    """The verifier's end of one prover connection, driven by the session's selector.

    The socket is non-blocking: `write` sends what the socket takes at once
    and queues the rest, which goes out as the selector reports it writable.
    """

    def __init__(self, stream: _Stream, sel: selectors.BaseSelector):
        self.stream, self.sock, self.sel = stream, stream.sock, sel
        self.queued = b""
        self.closed = False
        self.events = selectors.EVENT_READ
        self.sock.setblocking(False)
        sel.register(self.sock, self.events, self)

    def write(self, data: bytes) -> None:
        if not self.closed:
            self.queued += data
            self._flush()

    def _flush(self) -> None:
        try:
            self.queued = self.queued[self.sock.send(self.queued) :]
        except BlockingIOError:
            pass
        except OSError:
            self.close()
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.queued else 0)
        if events != self.events:
            self.events = events
            self.sel.modify(self.sock, events, self)

    def on_ready(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush()
        if mask & selectors.EVENT_READ and not self.closed:
            try:
                chunk = self.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""
            if chunk:
                self.stream.buf += chunk
            else:
                self.close()

    def response(self, want: type, round_index: int):
        """Round `round_index`'s response if it is buffered, False if this round
        can get none from this link, else None (still waiting).

        Responses to earlier rounds are skipped; any other frame, or garbage,
        fails the round. A frame too long to skip ends the link.
        """
        try:
            while (msg := self.stream.pop()) is not None:
                if isinstance(msg, want) and msg.round <= round_index:
                    if msg.round == round_index:
                        return msg
                    continue  # stale response from a timed-out round
                return False
        except OversizeError:
            self.close()
        except FrameError:
            return False
        return False if self.closed else None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.sel.unregister(self.sock)


def _round_frames(g: Graph, seed: int, round_index: int) -> tuple:
    """Round `round_index`'s challenge and the challenge frame of each prover."""
    ch = sample_challenge(ALT_RZKP, g, substream("round", seed, round_index))
    return ch, encode(ChallengeA(round_index, *ch.edge_a)), encode(ChallengeB(round_index, *ch.edge_b, ch.bit))


def _collect(sel: selectors.BaseSelector, wants: list, round_index: int, end_ns: int) -> list:
    """Per (link, response type) of `wants`, (response, arrival ns) or None if none came by `end_ns`.

    A response is stamped with the time the selector reported its socket
    readable, so it never includes the time spent on the other prover.
    """
    replies: list = [None] * len(wants)
    waiting = list(range(len(wants)))
    now = time.monotonic_ns()
    while True:
        for k in waiting[:]:
            link, want = wants[k]
            msg = link.response(want, round_index)
            if msg is not None:
                waiting.remove(k)
                if msg is not False:
                    replies[k] = (msg, now)
        if not waiting or now >= end_ns:
            return replies
        events = sel.select((end_ns - now) / 1e9)
        now = time.monotonic_ns()
        for key, mask in events:
            key.data.on_ready(mask)


def _connect(name: str, addr: tuple[str, int]) -> socket.socket:
    try:
        return socket.create_connection(addr, timeout=5.0)
    except OSError as exc:  # refused, unreachable, timed out or an unknown host
        raise SessionError(f"cannot connect to {name} at {addr[0]}:{addr[1]}: {exc}") from exc


def run_verifier_session(cfg: SessionConfig) -> SessionReport:
    """Drive a full session; every round yields a transcript and timings.

    A round rejects on deadline breach (either prover) or on the game checks;
    check verdicts are computed by the same verdict machine the in-process
    simulator uses. Transport failures count as timeouts; only a failed
    handshake aborts the session. Each round waits at most the deadline plus
    GRACE_S after its last challenge went out. A prover that cannot be reached
    raises SessionError.
    """
    g = cfg.graph
    report = SessionReport(rounds=cfg.rounds, accepted=0, rejected_check=0, rejected_timeout=0)
    wait_ns = cfg.deadline_ns + int(GRACE_S * 1e9)
    with _connect("prover A", cfg.addr_a) as sock_a, _connect(
        "prover B", cfg.addr_b
    ) as sock_b, selectors.DefaultSelector() as sel:
        sa, sb = _Stream(sock_a), _Stream(sock_b)
        hello = Hello(PROTOCOL_VERSION, GAME_CODE, g.digest())
        for s in (sa, sb):
            s.send(hello)
        for s, name in ((sa, "prover A"), (sb, "prover B")):
            try:
                reply = s.read_frame(timeout=5.0)
            except (TimeoutError, ConnectionError, FrameError) as exc:
                raise SessionError(f"handshake with {name} failed: {exc}") from exc
            if reply != hello:
                raise SessionError(f"{name} refused the session (another version, game or graph?)")
        la, lb = _Link(sa, sel), _Link(sb, sel)
        wants = [(la, ResponseA), (lb, ResponseB)]
        upcoming = _round_frames(g, cfg.seed, 0)
        result = b""  # the previous round's Result frame, sent with this round's challenge
        for r in range(cfg.rounds):
            ch, frame_a, frame_b = upcoming
            send_a = time.monotonic_ns()
            la.write(result + frame_a)
            send_b = time.monotonic_ns()
            lb.write(result + frame_b)
            if r + 1 < cfg.rounds:
                upcoming = _round_frames(g, cfg.seed, r + 1)
            reply_a, reply_b = _collect(sel, wants, r, send_b + wait_ns)
            ra = rb = recv_a = recv_b = None
            if reply_a is not None:
                ra, recv_a = reply_a[0].w, reply_a[1]
            if reply_b is not None:
                rb, recv_b = (reply_b[0].wi, reply_b[0].wj), reply_b[1]
            timed_out = (
                recv_a is None
                or recv_b is None
                or recv_a - send_a > cfg.deadline_ns
                or recv_b - send_b > cfg.deadline_ns
            )
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
            result = encode(Result(r, int(v.accept), REASON_CODE[v.reason]))
        bye = result + encode(Bye())
        for link in (la, lb):
            link.write(bye)
        end_ns = time.monotonic_ns() + wait_ns
        while any(link.queued and not link.closed for link in (la, lb)) and time.monotonic_ns() < end_ns:
            for key, mask in sel.select((end_ns - time.monotonic_ns()) / 1e9):
                key.data.on_ready(mask)
    return report
