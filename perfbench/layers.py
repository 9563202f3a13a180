"""Where the traced mode wraps colorproof, and the per-layer metrics it reports.

Each public callable is wrapped where its caller looks the name up: `net`
and `games` import `verdict`, `sample_challenge` and `substream` by name,
`audits` imports the quantum and certificate functions by name, and
`reduce_*` call `validate_strategy` through the `quantum` module. The
strategy objects the workloads build are wrapped by the workloads
themselves (`Workload.instrument`).
"""

from __future__ import annotations

import statistics

from colorproof import audits, games, net, quantum, soundness, strategies

# (metric, unit, better). A layer a workload never reaches reports 0.
PER_LAYER = [
    ("strategies.shared.self_s", "s", "lower"),
    ("strategies.answer.self_s", "s", "lower"),
    ("strategies.transcript_uniformity.self_s", "s", "lower"),
    ("games.sample_challenge.calls", "count", "lower"),
    ("games.sample_challenge.self_s", "s", "lower"),
    ("games.verdict.calls", "count", "lower"),
    ("games.verdict.self_s", "s", "lower"),
    ("games.verdict.reject_share", "ratio", "lower"),
    ("games.play_rounds.self_s", "s", "lower"),
    ("games.transcripts_kept", "count", "lower"),
    ("quantum.BornPair.respond.self_s", "s", "lower"),
    ("quantum.random_strategy.self_s", "s", "lower"),
    ("quantum.arbitrary_strategy.self_s", "s", "lower"),
    ("quantum.validate_strategy.self_s", "s", "lower"),
    ("quantum.win_probability.self_s", "s", "lower"),
    ("quantum.reduce_rzkp_to_edge.self_s", "s", "lower"),
    ("quantum.reduce_edge_to_bcs.self_s", "s", "lower"),
    ("certificates.extract_assignment.self_s", "s", "lower"),
    ("certificates.eps_table.self_s", "s", "lower"),
    ("certificates.assignment_norms.self_s", "s", "lower"),
    ("certificates.evaluate_bounds.self_s", "s", "lower"),
    ("audits.spot_checks.self_s", "s", "lower"),
    ("audits.sweep.self_s", "s", "lower"),
    ("audits.checks", "count", "higher"),
    ("audits.violations", "count", "lower"),
    ("soundness.quantum_value_bound.calls", "count", "lower"),
    ("soundness.quantum_value_bound.self_s", "s", "lower"),
    ("net.encode.calls", "count", "lower"),
    ("net.encode.self_s", "s", "lower"),
    ("net.decode.calls", "count", "lower"),
    ("net.decode.self_s", "s", "lower"),
    ("seeds.substream.calls", "count", "lower"),
    ("seeds.substream.self_s", "s", "lower"),
    ("net.wait_s", "s", "lower"),
    ("net.verifier_self_s", "s", "lower"),
    ("net.frames", "count", "lower"),
    ("net.bytes", "count", "lower"),
    ("net.latency_a_p50_us", "us", "lower"),
    ("net.latency_a_p99_us", "us", "lower"),
    ("net.latency_b_p50_us", "us", "lower"),
    ("net.latency_b_p99_us", "us", "lower"),
    ("net.round_p99_us", "us", "lower"),
    ("net.timeouts", "count", "lower"),
    ("graphs.gen_planted_s", "s", "lower"),
    ("graphs.extend_with_gadgets_s", "s", "lower"),
    ("cli.prover_start_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_s_total", "s", "lower"),
]

SETUP_PARTS = ("graphs.gen_planted_s", "graphs.extend_with_gadgets_s", "cli.prover_start_s")
BLOCK_COUNTS = ("games.transcripts_kept", "audits.checks", "audits.violations", "net.timeouts")


def install(tracer) -> None:
    """Wrap every traced colorproof callable; `tracer.restore()` undoes it."""
    counters = tracer.counters

    def count_rejects(fn):
        def verdict(*args, **kwargs):
            v = fn(*args, **kwargs)
            if not v.accept:
                counters["games.verdict.rejects"] += 1
            return v

        return verdict

    def count_encoded(fn):
        def encode(msg):
            data = fn(msg)
            counters["net.bytes"] += len(data)
            return data

        return encode

    def count_decoded(fn):
        def decode(data):
            counters["net.bytes"] += len(data)
            return fn(data)

        return decode

    tracer.patch(games, "play_rounds", "games.play_rounds")
    for module in (games, net):
        tracer.patch(module, "sample_challenge", "games.sample_challenge")
        tracer.patch(module, "verdict", "games.verdict", pre=count_rejects)
        tracer.patch(module, "substream", "seeds.substream")
    tracer.patch(strategies, "transcript_uniformity", "strategies.transcript_uniformity")
    tracer.patch(net, "encode", "net.encode", pre=count_encoded)
    tracer.patch(net, "decode", "net.decode", pre=count_decoded)
    tracer.patch(net._Stream, "_fill", "net.wait")  # the verifier blocked on a response
    tracer.patch(net, "run_verifier_session", "net.run_verifier_session")
    tracer.patch(quantum, "validate_strategy", "quantum.validate_strategy")
    for name in ("win_probability", "reduce_rzkp_to_edge", "reduce_edge_to_bcs", "random_strategy", "arbitrary_strategy"):
        tracer.patch(audits, name, f"quantum.{name}")
    for name in ("extract_assignment", "eps_table", "assignment_norms", "evaluate_bounds"):
        tracer.patch(audits, name, f"certificates.{name}")
    for name in ("audit_tracial_pair", "audit_pinching_chain", "audit_normal_trace"):
        tracer.patch(audits, name, "audits.spot_checks")
    for name in ("audit_gentle_measurement", "audit_bcs_chain", "run_certificate_sweep"):
        tracer.patch(audits, name, "audits.sweep")
    tracer.patch(soundness, "quantum_value_bound", "soundness.quantum_value_bound")
    tracer.patch(soundness, "scaling_probe", "soundness.scaling_probe")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n q / 100)
    return float(ordered[int(rank) - 1])


def per_layer_metrics(tracer, ref_blocks: list, traced_blocks: list, setups: list, traced_wall_s: float) -> dict:
    """Every PER_LAYER metric from one traced run.

    Span times and counts come from the traced pass. Latencies come from
    the untraced reference pass over the same inputs, so tracing does not
    inflate them. Set-up parts are medians over the run's set-ups.
    """
    calls = tracer.calls
    values = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = tracer.self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
    verdicts = calls.get("games.verdict", 0)
    values["games.verdict.reject_share"] = tracer.counters.get("games.verdict.rejects", 0) / verdicts if verdicts else 0.0
    for name in BLOCK_COUNTS:
        values[name] = sum(b.counts.get(name, 0) for b in traced_blocks)
    values["net.wait_s"] = tracer.self_s("net.wait")
    values["net.verifier_self_s"] = tracer.self_s("net.run_verifier_session")
    values["net.frames"] = calls.get("net.encode", 0) + calls.get("net.decode", 0)
    values["net.bytes"] = tracer.counters.get("net.bytes", 0)
    lat_a = [x for b in ref_blocks for x in b.latencies_a_us]
    lat_b = [x for b in ref_blocks for x in b.latencies_b_us]
    lat = [x for b in ref_blocks for x in b.latencies_us]
    values["net.latency_a_p50_us"] = percentile(lat_a, 50)
    values["net.latency_a_p99_us"] = percentile(lat_a, 99)
    values["net.latency_b_p50_us"] = percentile(lat_b, 50)
    values["net.latency_b_p99_us"] = percentile(lat_b, 99)
    values["net.round_p99_us"] = percentile(lat, 99)
    for name in SETUP_PARTS:
        values[name] = statistics.median(s.get(name, 0.0) for s in setups)
    ref_s = sum(b.dt for b in ref_blocks)
    values["trace.overhead_share"] = sum(b.dt for b in traced_blocks) / ref_s - 1.0
    values["trace.wall_s"] = traced_wall_s
    values["trace.self_s_total"] = tracer.total_self_s()
    return values
