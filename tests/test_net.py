import dataclasses
import math
import os
import random
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorproof.games import ALT_RZKP, Reason, play_rounds, verdict
from colorproof.graphs import PlantedInstance, gen_planted, three_color
from colorproof.net import (
    Bye,
    ChallengeA,
    ChallengeB,
    FieldRangeError,
    FrameError,
    Hello,
    OversizeError,
    ProverServer,
    ResponseA,
    ResponseB,
    Result,
    SessionConfig,
    SessionError,
    TruncatedError,
    decode,
    encode,
    run_verifier_session,
)
from colorproof.strategies import mismatched_pair
from reference_stream import round_labelling

MESSAGES = [
    Hello(1, 1, bytes(range(32))),
    ChallengeA(0, 0, 1),
    ChallengeA(2**63, 4096, 4097),
    ChallengeB(3, 1, 2, 1),
    ResponseA(7, (0, 1, 2, 0)),
    ResponseB(9, 2, 1),
    Result(11, 1, 0),
    Result(12, 0, 5),
    Bye(),
]


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


@pytest.mark.parametrize("msg", MESSAGES)
def test_codec_roundtrip(msg):
    assert decode(encode(msg)) == msg


def test_challenge_a_declared_length():
    frame = encode(ChallengeA(0, 0, 1))
    assert int.from_bytes(frame[:4], "big") == 17  # type byte + 8 + 4 + 4
    assert len(frame) == 21


def test_challenge_a_carries_no_bit_or_second_edge():
    # structural no-cross-information guarantee
    fields = {f for f in ChallengeA.__dataclass_fields__}
    assert fields == {"round", "i", "j"}


def test_encode_field_ranges():
    with pytest.raises(FieldRangeError):
        encode(ResponseA(0, (3, 0, 0, 0)))
    with pytest.raises(FieldRangeError):
        encode(ChallengeB(0, 0, 1, 2))
    with pytest.raises(FieldRangeError):
        encode(Hello(1, 1, b"short"))
    with pytest.raises(FieldRangeError):
        encode(ChallengeA(0, 1 << 32, 0))
    with pytest.raises(FieldRangeError):
        encode(ResponseB(-1, 0, 0))


def test_decode_rejects_bad_frames():
    with pytest.raises(TruncatedError):
        decode(b"\x00\x00")
    with pytest.raises(TruncatedError):
        decode(encode(ChallengeA(0, 0, 1))[:-2])
    with pytest.raises(OversizeError):
        decode((1 << 24).to_bytes(4, "big") + b"\x02" + b"\x00" * 16)
    with pytest.raises(FrameError):
        decode(b"\x00\x00\x00\x01\x63")  # unknown type 0x63
    with pytest.raises(FieldRangeError):
        decode(encode(ChallengeA(0, 0, 1)) + b"\x00")
    # in-range length, wrong for the type
    with pytest.raises(FieldRangeError):
        decode((5).to_bytes(4, "big") + b"\x02" + b"\x00" * 4)
    # out-of-range color inside a well-framed response
    good = bytearray(encode(ResponseB(0, 0, 0)))
    good[-1] = 7
    with pytest.raises(FieldRangeError):
        decode(bytes(good))


def test_decode_fuzz_never_crashes():
    rng = random.Random(123)
    blob = os.urandom(1 << 16)
    for _ in range(100000):
        start = rng.randrange(len(blob) - 64)
        data = blob[start : start + rng.randrange(0, 48)]
        try:
            decode(data)
        except FrameError:
            pass


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)
def test_codec_roundtrip_property(rnd, w):
    assert decode(encode(ResponseA(rnd, w))) == ResponseA(rnd, w)


@pytest.mark.parametrize("msg", MESSAGES)
def test_codec_byte_identity(msg):
    frame = encode(msg)
    assert encode(decode(frame)) == frame


GOLDEN_FRAMES = [
    (Hello(1, 1, bytes(32)), "00000023" + "01" + "0101" + "00" * 32),
    (ChallengeA(1, 2, 3), "00000011" + "02" + "0000000000000001" + "00000002" + "00000003"),
    (ChallengeB(1, 2, 3, 1), "00000012" + "03" + "0000000000000001" + "00000002" + "00000003" + "01"),
    (ResponseA(5, (0, 1, 2, 0)), "0000000d" + "04" + "0000000000000005" + "00" + "01" + "02" + "00"),
    (ResponseB(5, 2, 1), "0000000b" + "05" + "0000000000000005" + "02" + "01"),
    (Result(9, 1, 0), "0000000b" + "06" + "0000000000000009" + "01" + "00"),
    (Bye(), "00000001" + "07"),
]


@pytest.mark.parametrize("msg,hexbytes", GOLDEN_FRAMES)
def test_codec_golden_bytes(msg, hexbytes):
    # the wire format is an external interface: exact bytes are pinned
    assert encode(msg).hex() == hexbytes
    assert decode(bytes.fromhex(hexbytes)) == msg


def test_round_labelling_agreement(inst):
    for r in (0, 1, 7, 12345):
        la = round_labelling(inst.witness, 42, r)
        lb = round_labelling(inst.witness, 42, r)
        assert la == lb
        assert all((a + b) % 3 == c for a, b, c in zip(la.w0, la.w1, la.colors))
    assert round_labelling(inst.witness, 42, 0) != round_labelling(inst.witness, 43, 0)


def test_honest_session_accepts(inst, provers):
    pa, pb = provers
    cfg = SessionConfig(inst.graph, rounds=2000, deadline_ns=200_000_000, seed=5, addr_a=pa.address, addr_b=pb.address)
    rep = run_verifier_session(cfg)
    assert rep.ok
    assert rep.accepted == 2000
    # verdict equivalence: recompute every verdict in-process
    for t in rep.transcripts:
        assert verdict(ALT_RZKP, t.challenge, t.response_a, t.response_b) == t.verdict
    # timing monotonicity
    for tm in rep.timings:
        assert tm.recv_a_ns >= tm.send_a_ns
        assert tm.recv_b_ns >= tm.send_b_ns


def test_session_transcripts_deterministic(inst, provers):
    pa, pb = provers
    cfg = SessionConfig(inst.graph, rounds=200, deadline_ns=500_000_000, seed=31,
                        addr_a=pa.address, addr_b=pb.address)
    rep1 = run_verifier_session(cfg)
    rep2 = run_verifier_session(cfg)
    assert rep1.transcripts == rep2.transcripts  # timings differ, transcripts must not


def test_mismatched_witness_rejections_match_in_process(inst, provers):
    pa, _ = provers
    other = three_color(inst.graph)
    if tuple(other) == inst.witness:
        other = tuple((c + 1) % 3 for c in other)
    pb2 = ProverServer(PlantedInstance(inst.graph, tuple(other)), "b", 42).start()
    try:
        rounds = 4000
        cfg = SessionConfig(inst.graph, rounds=rounds, deadline_ns=200_000_000, seed=6, addr_a=pa.address, addr_b=pb2.address)
        rep = run_verifier_session(cfg)
        net_rate = rep.rejected_check / rounds
        stats, log = play_rounds(ALT_RZKP, inst.graph, mismatched_pair(inst.witness, other), rounds, seed=60, keep_log=True)
        sim_rate = 1.0 - stats.win_rate
        sigma = math.sqrt(max(net_rate * (1 - net_rate), sim_rate * (1 - sim_rate)) * 2 / rounds)
        assert abs(net_rate - sim_rate) < 4 * sigma + 1e-9
        reasons = {t.verdict.reason for t in rep.transcripts if not t.verdict.accept}
        assert reasons == {Reason.WELL_DEFINITION}
    finally:
        pb2.stop()


def test_slow_prover_times_out(inst, provers):
    pa, _ = provers
    slow = ProverServer(inst, "b", 42, delay_s=0.03).start()
    try:
        cfg = SessionConfig(inst.graph, rounds=15, deadline_ns=2_000_000, seed=5, addr_a=pa.address, addr_b=slow.address)
        rep = run_verifier_session(cfg)
        assert rep.rejected_timeout == 15
        assert all(t.verdict.reason is Reason.TIMEOUT for t in rep.transcripts)
    finally:
        slow.stop()


def test_zero_deadline_times_out_every_round(inst, provers):
    pa, pb = provers
    cfg = SessionConfig(inst.graph, rounds=10, deadline_ns=0, seed=5, addr_a=pa.address, addr_b=pb.address)
    rep = run_verifier_session(cfg)
    assert rep.rejected_timeout == 10


def test_graph_hash_mismatch_refused(inst, provers):
    pa, pb = provers
    other = gen_planted(6, 9, seed=3)
    cfg = SessionConfig(other.graph, rounds=5, deadline_ns=200_000_000, seed=5, addr_a=pa.address, addr_b=pb.address)
    with pytest.raises(SessionError):
        run_verifier_session(cfg)


def test_prover_rejects_wrong_role_frames(inst):
    p = ProverServer(inst, "a", 42).start()
    try:
        with socket.create_connection(p.address, timeout=2.0) as sock:
            from colorproof.net import _Stream

            stream = _Stream(sock)
            stream.send(Hello(1, 1, inst.graph.digest()))
            assert isinstance(stream.read_frame(timeout=2.0), Hello)
            stream.send(ChallengeB(0, 0, 1, 0))  # wrong half for role a
            assert isinstance(stream.read_frame(timeout=2.0), Bye)
    finally:
        p.stop()


@pytest.mark.parametrize(
    "role,challenge",
    [("a", ChallengeA(0, 0, 2)), ("a", ChallengeA(0, 0, 10000)), ("b", ChallengeB(0, 0, 10000, 1))],
    ids=["a-non-edge", "a-out-of-range", "b-out-of-range"],
)
def test_prover_refuses_challenges_off_its_graph(monkeypatch, role, challenge):
    # answering the non-edge (0, 2) would tell the verifier whether c0 == c2
    from colorproof import net
    from colorproof.net import _Stream

    inst = gen_planted(8, 10, 3)
    assert not inst.graph.has_edge(0, 2)
    ended = []
    serve = net._serve_connection

    def recording_serve(*args):
        try:
            serve(*args)
        except BaseException as exc:
            ended.append(exc)
            raise
        ended.append(None)

    monkeypatch.setattr(net, "_serve_connection", recording_serve)
    p = ProverServer(inst, role, 42).start()
    try:
        with socket.create_connection(p.address, timeout=2.0) as sock:
            stream = _Stream(sock)
            stream.send(Hello(1, 1, inst.graph.digest()))
            assert isinstance(stream.read_frame(timeout=2.0), Hello)
            stream.send(challenge)
            assert isinstance(stream.read_frame(timeout=2.0), Bye)
        deadline = time.monotonic() + 2.0
        while not ended and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ended == [None]  # the worker returned; no exception escaped its thread
    finally:
        p.stop()


@pytest.mark.parametrize(
    "role,first,replay",
    [
        ("a", ChallengeA(0, 0, 1), ChallengeA(0, 1, 4)),
        ("a", ChallengeA(3, 0, 1), ChallengeA(2, 1, 4)),
        ("b", ChallengeB(0, 0, 1, 0), ChallengeB(0, 1, 4, 1)),
    ],
    ids=["a-same-round", "a-earlier-round", "b-same-round"],
)
def test_prover_answers_each_round_once(role, first, replay):
    # two answers under round 0's permutation on the path 0-1-4 would reveal
    # whether the non-adjacent vertices 0 and 4 share a color
    from colorproof.net import _Stream

    inst = gen_planted(8, 10, 3)
    assert inst.graph.has_edge(0, 1) and inst.graph.has_edge(1, 4) and not inst.graph.has_edge(0, 4)
    p = ProverServer(inst, role, 42).start()
    try:
        with socket.create_connection(p.address, timeout=2.0) as sock:
            stream = _Stream(sock)
            stream.send(Hello(1, 1, inst.graph.digest()))
            assert isinstance(stream.read_frame(timeout=2.0), Hello)
            stream.send(first)
            answer = stream.read_frame(timeout=2.0)
            assert isinstance(answer, ResponseA if role == "a" else ResponseB) and answer.round == first.round
            stream.send(replay)
            assert isinstance(stream.read_frame(timeout=2.0), Bye)
        # later rounds on a fresh connection are still answered
        with socket.create_connection(p.address, timeout=2.0) as sock:
            stream = _Stream(sock)
            stream.send(Hello(1, 1, inst.graph.digest()))
            assert isinstance(stream.read_frame(timeout=2.0), Hello)
            for r in (5, 9):
                stream.send(dataclasses.replace(replay, round=r))
                assert stream.read_frame(timeout=2.0).round == r
    finally:
        p.stop()


def test_hello_game_codes_agree_between_encode_and_decode():
    accepted = set()
    for version in (0, 1, 255):
        for game in range(256):
            try:
                frame = encode(Hello(version, game, bytes(32)))
            except FieldRangeError:
                continue
            assert decode(frame) == Hello(version, game, bytes(32))
            accepted.add(game)
    assert accepted == {1}  # alt-rzkp is the only game on the wire
    for game in (0, 2):
        with pytest.raises(FieldRangeError):
            encode(Hello(1, game, bytes(32)))
        frame = bytearray(encode(Hello(1, 1, bytes(32))))
        frame[6] = game  # length (4), type (1), version (1), then the game code
        with pytest.raises(FieldRangeError):
            decode(bytes(frame))


def test_prover_dying_mid_session_yields_timeouts(inst, provers):
    # a prover closing after a few rounds must not abort the session: the
    # remaining rounds are recorded as timeout-class rejections
    import threading

    from colorproof.net import _Stream

    pa, _ = provers
    rogue = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    rogue.bind(("127.0.0.1", 0))
    rogue.listen(1)
    addr = rogue.getsockname()

    def rogue_b():
        conn, _ = rogue.accept()
        stream = _Stream(conn)
        try:
            hello = stream.read_frame(timeout=5.0)
            stream.send(Hello(1, 1, hello.graph_hash))
            served = 0
            while served < 3:
                msg = stream.read_frame(timeout=5.0)
                if isinstance(msg, ChallengeB):
                    lab = round_labelling(inst.witness, 42, msg.round)
                    w = lab.w0 if msg.b == 0 else lab.w1
                    stream.send(ResponseB(msg.round, w[msg.i], w[msg.j]))
                    served += 1
        finally:
            conn.close()
            rogue.close()

    t = threading.Thread(target=rogue_b, daemon=True)
    t.start()
    cfg = SessionConfig(inst.graph, rounds=6, deadline_ns=500_000_000, seed=5,
                        addr_a=pa.address, addr_b=addr)
    rep = run_verifier_session(cfg)
    t.join(timeout=5.0)
    assert rep.accepted == 3
    assert rep.rejected_timeout == 3
    assert rep.rejected_check == 0


def test_stale_round_frames_are_skipped(inst, provers):
    # a response tagged with an old round number must be discarded, and the
    # current round's real response still accepted
    import threading

    from colorproof.net import _Stream

    pa, _ = provers
    rogue = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    rogue.bind(("127.0.0.1", 0))
    rogue.listen(1)
    addr = rogue.getsockname()

    def rogue_b():
        conn, _ = rogue.accept()
        stream = _Stream(conn)
        try:
            hello = stream.read_frame(timeout=5.0)
            stream.send(Hello(1, 1, hello.graph_hash))
            while True:
                msg = stream.read_frame(timeout=5.0)
                if isinstance(msg, Bye):
                    return
                if isinstance(msg, ChallengeB):
                    lab = round_labelling(inst.witness, 42, msg.round)
                    w = lab.w0 if msg.b == 0 else lab.w1
                    if msg.round > 0:
                        stream.send(ResponseB(msg.round - 1, 0, 0))  # stale echo
                    stream.send(ResponseB(msg.round, w[msg.i], w[msg.j]))
        except (OSError, ConnectionError, TimeoutError, FrameError):
            return
        finally:
            conn.close()
            rogue.close()

    t = threading.Thread(target=rogue_b, daemon=True)
    t.start()
    cfg = SessionConfig(inst.graph, rounds=5, deadline_ns=500_000_000, seed=5,
                        addr_a=pa.address, addr_b=addr)
    rep = run_verifier_session(cfg)
    t.join(timeout=5.0)
    assert rep.ok and rep.accepted == 5


def test_verifier_refuses_a_hello_of_another_version(inst, provers):
    # the prover side refuses any HELLO but its own; the verifier must too
    import threading

    from colorproof.net import _Stream

    pa, _ = provers
    rogue = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    rogue.bind(("127.0.0.1", 0))
    rogue.listen(1)
    addr = rogue.getsockname()

    def rogue_b():
        conn, _ = rogue.accept()
        stream = _Stream(conn)
        try:
            hello = stream.read_frame(timeout=5.0)
            stream.send(Hello(7, hello.game, hello.graph_hash))
            stream.read_frame(timeout=5.0)  # until the verifier hangs up
        except (OSError, ConnectionError, TimeoutError, FrameError):
            return
        finally:
            conn.close()
            rogue.close()

    t = threading.Thread(target=rogue_b, daemon=True)
    t.start()
    cfg = SessionConfig(inst.graph, rounds=3, deadline_ns=500_000_000, seed=5, addr_a=pa.address, addr_b=addr)
    with pytest.raises(SessionError, match="prover B refused the session"):
        run_verifier_session(cfg)
    t.join(timeout=5.0)


def test_prover_refuses_wrong_version(inst, provers):
    pa, _ = provers
    from colorproof.net import _Stream

    with socket.create_connection(pa.address, timeout=2.0) as sock:
        stream = _Stream(sock)
        stream.send(Hello(7, 1, inst.graph.digest()))
        assert isinstance(stream.read_frame(timeout=2.0), Bye)


def test_prover_survives_garbage_bytes(inst, provers):
    pa, pb = provers
    rng = random.Random(55)
    for _ in range(20):
        with socket.create_connection(pa.address, timeout=2.0) as sock:
            sock.sendall(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64))))
    # the server must still answer a clean session afterwards
    cfg = SessionConfig(inst.graph, rounds=50, deadline_ns=500_000_000, seed=77,
                        addr_a=pa.address, addr_b=pb.address)
    rep = run_verifier_session(cfg)
    assert rep.ok


def test_concurrent_sessions_are_isolated(inst, provers):
    import threading

    pa, pb = provers
    results = {}

    def drive(tag, seed):
        cfg = SessionConfig(inst.graph, rounds=400, deadline_ns=500_000_000, seed=seed,
                            addr_a=pa.address, addr_b=pb.address)
        results[tag] = run_verifier_session(cfg)

    threads = [threading.Thread(target=drive, args=(t, 100 + t)) for t in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 3
    for rep in results.values():
        assert rep.ok and rep.accepted == 400


def test_session_config_validation(inst):
    with pytest.raises(ValueError):
        SessionConfig(inst.graph, rounds=0, deadline_ns=1, seed=0, addr_a=("h", 1), addr_b=("h", 2))
