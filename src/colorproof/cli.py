"""Command-line entry point.

Subcommands: gen, extend, bounds, simulate, bruteforce, zk-test,
audit-quantum, serve-prover, verify. Every randomized subcommand takes
--seed and echoes its resolved configuration; --json switches to a stable
machine-readable output. serve-prover takes no --json: it prints only its
config: line, which supervisors parse for the bound port. Exit codes: 0
success, 1 domain error, 2 usage.
Each command imports the modules it runs when it starts, so start-up pays for no other.
A stdout whose reader has gone ends the output; the command exits cleanly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import ColorproofError, GameType, graphs

KIND_NAMES = {t.value: t for t in GameType}


class CliError(ColorproofError):
    pass


def _config_line(config: dict) -> str:
    """The human echo of a payload's config, in its order, each key spelled as its flag."""
    return "config: " + " ".join(f"{k.replace('_', '-')}={v}" for k, v in config.items())


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _load_graph(path: str) -> graphs.Graph:
    with open(path) as fh:
        return graphs.graph_from_dict(json.load(fh))


def _load_instance(path: str) -> graphs.PlantedInstance:
    with open(path) as fh:
        return graphs.instance_from_dict(json.load(fh))


def _addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise CliError(f"address {text!r} must look like host:port")
    if not (port.isdecimal() and int(port) <= 65535):
        raise CliError(f"address {text!r} needs a port in 0..65535")
    return host or "127.0.0.1", int(port)


def _cmd_gen(args) -> int:
    inst = graphs.gen_planted(args.nodes, args.edges, args.seed)
    doc = inst.graph.to_dict(inst.witness)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    config = {"nodes": args.nodes, "edges": args.edges, "seed": args.seed}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _emit(args, {"config": config, "out": args.out}, f"{_config_line(config)}\nwrote {args.out}")
    elif args.json:
        print(json.dumps({"config": config, "instance": doc}, sort_keys=True, separators=(",", ":")))
    else:
        # keep stdout pipeable; the config echo goes to stderr
        print(_config_line(config), file=sys.stderr)
        print(text)
    return 0


def _cmd_extend(args) -> int:
    g = _load_graph(args.graph)
    ext = graphs.extend_with_gadgets(g)
    n2, m2 = graphs.extended_counts(g.n, len(g.edges))
    assert (ext.full.n, len(ext.full.edges)) == (n2, m2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(ext.full.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")
    payload = {"config": {"graph": args.graph}, "n": g.n, "m": len(g.edges), "n_ext": n2, "m_ext": m2,
               "gadgets": len(ext.gadgets)}
    _emit(args, payload, f"{_config_line(payload['config'])}\nn'={n2} m'={m2} gadgets={len(ext.gadgets)}")
    return 0


def _cmd_bounds(args) -> int:
    from . import soundness
    variant = soundness.BoundVariant.APPENDIX_CHAIN if args.variant == "appendix" else soundness.BoundVariant.MAIN_THEOREM
    rep = soundness.quantum_value_bound(args.nodes, args.edges, args.max_deg, variant, args.k)
    payload = {
        "config": {"nodes": args.nodes, "edges": args.edges, "max_deg": args.max_deg, "k": args.k,
                   "variant": args.variant},
        "n_ext": rep.n_ext,
        "m_ext": rep.m_ext,
        "one_minus_omega_q": rep.epsilon_star,
        "log10_one_minus_omega_q": rep.log10_epsilon_star,
        "rounds": rep.rounds_str,
        "log10_rounds": rep.log10_rounds,
    }
    lines = [
        _config_line(payload["config"]),
        f"{'n':>8} {'m':>8} {'n_ext':>9} {'m_ext':>9} {'1-omega_q':>12} {'rounds':>10}",
        f"{rep.n:>8} {rep.m:>8} {rep.n_ext:>9} {rep.m_ext:>9} {rep.epsilon_star:>12.3e} {rep.rounds_str:>10}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_simulate(args) -> int:
    from . import games, strategies
    if args.rounds < 1:
        raise CliError(f"--rounds must be at least 1, got {args.rounds}")
    inst = _load_instance(args.graph) if args.graph else graphs.gen_planted(args.nodes, args.edges, args.seed)
    kind = games.GameKind(KIND_NAMES[args.kind], args.mix)
    if args.strategy == "honest":
        pair = strategies.honest_pair(inst)
    else:
        pair = strategies.fixed_coloring_pair(inst.witness)
    stats, log = games.play_rounds(kind, inst.graph, pair, args.rounds, args.seed, keep_log=bool(args.log))
    if args.log:
        with open(args.log, "w") as fh:
            for t in log:
                fh.write(games.transcript_to_json_line(t) + "\n")
    payload = {
        "config": {"kind": args.kind, "mix": args.mix, "rounds": args.rounds, "seed": args.seed,
                   "strategy": args.strategy},
        "accepts": stats.accepts,
        "win_rate": stats.win_rate,
        "wilson_95": list(stats.wilson_95),
    }
    _emit(
        args,
        payload,
        f"{_config_line(payload['config'])}\n"
        f"accepted {stats.accepts}/{stats.rounds} (rate {stats.win_rate:.6f}, "
        f"95% CI [{stats.wilson_95[0]:.6f}, {stats.wilson_95[1]:.6f}])",
    )
    return 0


def _cmd_bruteforce(args) -> int:
    from . import strategies
    g = _load_graph(args.graph)
    value, argmax = strategies.brute_force_vertex3col_value(g)
    payload = {
        "config": {"graph": args.graph},
        "value": f"{value.numerator}/{value.denominator}",
        "argmax": list(argmax),
        "three_colorable": value == 1,
    }
    _emit(args, payload, f"{_config_line(payload['config'])}\nbest edge win = {value} at coloring {argmax}")
    return 0


def _cmd_zk_test(args) -> int:
    from . import games, strategies
    if args.rounds < 1:
        raise CliError(f"--rounds must be at least 1, got {args.rounds}")
    if args.graph:
        inst = _load_instance(args.graph)
    else:
        inst = graphs.PlantedInstance(graphs.make_graph(3, [(0, 1), (0, 2), (1, 2)]), (0, 1, 2))
    g = inst.graph
    _, log = games.play_rounds(games.ALT_RZKP, g, strategies.honest_pair(inst), args.rounds, args.seed, keep_log=True)
    reports = strategies.uniformity_by_edge(log, g.edges)
    _, log_fixed = games.play_rounds(
        games.ALT_RZKP, g, strategies.fixed_coloring_pair(inst.witness), args.rounds, args.seed + 1, keep_log=True
    )
    control = strategies.transcript_uniformity(log_fixed, g.edges[0])
    payload = {
        "config": {"rounds": args.rounds, "seed": args.seed},
        "honest_tv": {f"{i},{j}": r.tv_from_uniform for (i, j), r in reports.items()},
        "control_tv": control.tv_from_uniform,
        "control_support": control.support,
    }
    lines = [_config_line(payload["config"])]
    for (i, j), r in reports.items():
        lines.append(f"edge ({i},{j}): TV from uniform = {r.tv_from_uniform:.4f} over {r.samples} rounds")
    lines.append(f"fixed-coloring control: TV = {control.tv_from_uniform:.4f} (support {control.support})")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_audit_quantum(args) -> int:
    from .audits import SweepSummary, audit_sample, run_certificate_sweep
    if args.dims < 2:
        raise CliError(f"--dims must be at least 2, got {args.dims}")
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    summary, replay = SweepSummary(), {}
    if args.replay is not None:  # one sample: its summary, margins included
        seed, _, index = args.replay.partition(":")
        if not (seed.removeprefix("-").isdecimal() and index.isdecimal()):
            raise CliError(f"--replay {args.replay!r} must look like SEED:INDEX")
        config = {"replay": args.replay, "dims": args.dims}
        audit_sample(int(seed), int(index), args.dims, summary)
    else:  # the sweep, and per family the command that replays its worst sample
        config = {"samples": args.samples, "seed": args.seed, "dims": args.dims}
        summary = run_certificate_sweep(samples=args.samples, seed=args.seed, max_dim=args.dims)
        command = f"python -m colorproof audit-quantum --dims {args.dims} --replay="  # = keeps a seed -3 an argument
        replay = {"replay": {k: f"{command}{seed}:{i}" for k, (seed, i) in sorted(summary.worst_sample.items())}}
    payload = {"config": config, **summary.to_dict(), **replay}
    lines = [_config_line(config)]
    for name, count in summary.checks.items():
        vacuity = f", {summary.non_vacuous[name]} non-vacuous" if name in summary.non_vacuous else ""
        lines.append(f"{name:>24}: {count} instances{vacuity}, {summary.violations.get(name, 0)} violations, "
                     f"worst margin {summary.worst_margin[name]:.3e}")
    lines.append("PASS" if summary.clean else "FAIL")
    _emit(args, payload, "\n".join(lines))
    return 0 if summary.clean else 1


def _cmd_serve_prover(args) -> int:
    from . import net
    inst = _load_instance(args.graph)
    host, port = _addr(args.listen)
    server = net.ProverServer(inst, args.role, args.shared_seed, host=host, port=port,
                              delay_s=args.delay_ms / 1e3)
    # flush so supervisors watching a pipe learn the bound port before we block
    config = {"role": args.role, "listen": f"{server.address[0]}:{server.address[1]}", "shared_seed": args.shared_seed}
    print(_config_line(config), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_verify(args) -> int:
    from . import net
    if not math.isfinite(args.deadline_ms):
        raise CliError(f"--deadline-ms must be finite, got {args.deadline_ms}")
    g = _load_graph(args.graph)
    cfg = net.SessionConfig(
        graph=g,
        rounds=args.rounds,
        deadline_ns=int(args.deadline_ms * 1e6),
        seed=args.seed,
        addr_a=_addr(args.prover_a),
        addr_b=_addr(args.prover_b),
    )
    report = net.run_verifier_session(cfg)
    payload = {
        "config": {"rounds": args.rounds, "deadline_ms": args.deadline_ms, "seed": args.seed},
        **report.to_dict(),
    }
    _emit(
        args,
        payload,
        f"{_config_line(payload['config'])}\n"
        f"accepted={report.accepted} rejected_check={report.rejected_check} "
        f"rejected_timeout={report.rejected_timeout}\n"
        f"session {'ACCEPTED' if report.ok else 'REJECTED'}",
    )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="colorproof", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gen", help="generate a planted 3-colorable instance")
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--edges", type=int, required=True)
    sp.add_argument("--out", help="write instance JSON here instead of stdout")
    common(sp)

    sp = sub.add_parser("extend", help="attach prism gadgets to all non-adjacent pairs")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out", help="write the extended graph JSON here")
    common(sp, seed=False)

    sp = sub.add_parser("bounds", help="quantum-value bound and round count")
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--edges", type=int, required=True)
    sp.add_argument("--max-deg", type=int, required=True)
    sp.add_argument("--k", type=float, default=100.0)
    sp.add_argument("--variant", choices=["main", "appendix"], default="appendix")
    common(sp, seed=False)

    sp = sub.add_parser("simulate", help="play rounds of a game in-process")
    sp.add_argument("--graph", help="instance JSON with witness; omit to generate")
    sp.add_argument("--nodes", type=int, default=12)
    sp.add_argument("--edges", type=int, default=24)
    sp.add_argument("--kind", choices=sorted(KIND_NAMES), default="alt-rzkp")
    sp.add_argument("--mix", "--lambda", dest="mix", type=float, default=0.5)
    sp.add_argument("--rounds", type=int, default=10000)
    sp.add_argument("--strategy", choices=["honest", "fixed"], default="honest")
    sp.add_argument("--log", help="write per-round transcripts here as JSON lines")
    common(sp)

    sp = sub.add_parser("bruteforce", help="exact classical edge-verification value")
    sp.add_argument("--graph", required=True)
    common(sp, seed=False)

    sp = sub.add_parser("zk-test", help="transcript-uniformity surrogate test")
    sp.add_argument("--graph", help="instance JSON with witness; omit for a K3 default")
    sp.add_argument("--rounds", type=int, default=200000)
    common(sp)

    sp = sub.add_parser("audit-quantum", help="run the theorem-certificate sweeps")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--dims", type=int, default=3)
    sp.add_argument("--replay", metavar="SEED:INDEX", help="run sample INDEX of the sweep seeded SEED alone")
    common(sp)

    sp = sub.add_parser("serve-prover", help="run one prover endpoint")
    sp.add_argument("--listen", default="127.0.0.1:0")
    sp.add_argument("--role", choices=["a", "b"], required=True)
    sp.add_argument("--graph", required=True, help="instance JSON with witness")
    sp.add_argument("--shared-seed", type=int, required=True)
    sp.add_argument("--delay-ms", type=float, default=0.0)

    sp = sub.add_parser("verify", help="drive a networked session against two provers")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--prover-a", required=True)
    sp.add_argument("--prover-b", required=True)
    sp.add_argument("--rounds", type=int, default=1000)
    sp.add_argument("--deadline-ms", type=float, default=100.0)
    common(sp)

    return p


_COMMANDS = {
    "gen": _cmd_gen,
    "extend": _cmd_extend,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "bruteforce": _cmd_bruteforce,
    "zk-test": _cmd_zk_test,
    "audit-quantum": _cmd_audit_quantum,
    "serve-prover": _cmd_serve_prover,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = 0
    try:
        code = _COMMANDS[args.command](args)
        print(end="", flush=True)  # flushes stdout, if any: a closed one shows here, not as an error at exit
    except BrokenPipeError:  # the reader of stdout has gone: the output ends (the signal module docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ColorproofError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
