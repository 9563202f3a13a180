#!/usr/bin/env python3
"""colorproof benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics for `--seconds` seconds and
reports them relative to reference programs that run in child interpreters
and never call colorproof (see Calibrator and scaled_setup_s).
`--trace 1` runs a fixed amount of work twice on the same inputs, first
untraced and then with every layer wrapped in spans, and reports the
per-layer metrics plus the tracing overhead. The last line of stdout is the
result object; the line before it is a report with the environment record,
the raw figures, the set-up samples and every output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
REF_CALIBRATION_S = 0.0025  # one pass of either reference loop on the reference machine
REF_IMPORT_S = 0.200  # the reference imports on the reference machine
TRACED_SHARE = 0.4  # each of the two traced-mode passes runs about this share of --seconds
PROGRAM_MODULES = "colorproof.cli, colorproof.audits"
# what colorproof imports outside itself at the commit that defined the
# benchmark; a fixed list, so a change that adds or drops one shows in setup_s
REFERENCE_MODULES = (
    "numpy, mpmath, argparse, dataclasses, enum, fractions, functools, hashlib, itertools, json, math, random,"
    " socket, struct, threading, typing"
)

# (metric, unit, better); every workload reports each one
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
]


def import_seconds(modules: str) -> float:
    """Time to import `modules` in a fresh interpreter (start-up excluded)."""
    probe = f"import time\nt = time.perf_counter()\nimport {modules}\nprint(time.perf_counter() - t)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import mpmath
    import numpy

    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "colorproof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": loadavg,
    }


class Calibrator:
    """Times a reference loop (calibrate.py) in a child interpreter on request.

    On a shared 2-vCPU VM (Xeon, 2.1 GHz) the speed moves by up to a half
    within milliseconds, on both vCPUs at once: back-to-back `sim` runs of
    the same code read 32k to 48k rounds/s. A pass runs before each program
    call of a few milliseconds (workloads.Clock), and dividing each call's
    time by the passes beside it removes most of that (perfbench/README.md).
    The loop runs in its own process so that no state the program leaves in
    this one can change its time; the child is idle while the program runs.
    """

    def __init__(self, kind: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), kind], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(wl, seconds: float, calibrator: Calibrator) -> tuple[list, list]:
    """Blocks with fresh inputs until `seconds` of wall time have passed.

    Returns the blocks and their clocks, whose reference passes bracket
    every program call.
    """
    import workloads

    blocks, clocks = [], []
    end = time.perf_counter() + seconds
    while not blocks or time.perf_counter() < end:
        clock = workloads.Clock(calibrator.measure)
        blocks.append(wl.block(len(blocks), clock))
        clock.close()
        clocks.append(clock)
    return blocks, clocks


def end_to_end_metrics(blocks: list, clocks: list, setups: list) -> tuple[dict, dict]:
    """The end-to-end metrics relative to the reference loop, and the raw ones.

    Every program call's seconds are scaled by REF_CALIBRATION_S over the
    time of the reference passes beside it (workloads.call_scales).
    In-process workloads cannot time one round from outside, so their rate
    is all operations over all scaled call time and their per-operation
    time is its inverse (a mean, not a median).
    Loopback times every round: a session's round latencies and cycles
    (first send to the next round's first send) take the scale of the
    session's call; the rate is that of the median scaled cycle, because the
    mean moves with millisecond host stalls (its p99 reaches 2 ms in noisy
    minutes). The mean rates stay in the report. setup_s is the median of
    the scaled set-up samples (scaled_setup_s).
    """
    import workloads

    scales = [  # per block: its scaled call time over its call time
        sum(dt * f for (_, dt), f in zip(c.calls, per_call)) / c.seconds
        for c, per_call in zip(clocks, workloads.call_scales(clocks, REF_CALIBRATION_S))
    ]
    ops = sum(b.ops for b in blocks)
    mean_rate = ops / sum(b.dt for b in blocks)
    latencies = [x for b in blocks for x in b.latencies_us]
    cycles = [x for b in blocks for x in b.cycles_us]
    raw = {
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "ops_per_s": 1e6 / statistics.median(cycles) if cycles else mean_rate,
        "op_p50_us": statistics.median(latencies) if latencies else 1e6 / mean_rate,
    }
    scaled_mean_rate = ops / sum(b.dt * f for b, f in zip(blocks, scales))
    if cycles:
        scaled = {
            "ops_per_s": 1e6 / statistics.median(x * f for b, f in zip(blocks, scales) for x in b.cycles_us),
            "op_p50_us": statistics.median(x * f for b, f in zip(blocks, scales) for x in b.latencies_us),
        }
    else:
        scaled = {"ops_per_s": scaled_mean_rate, "op_p50_us": 1e6 / scaled_mean_rate}
    scaled["setup_s"] = statistics.median(scaled_setup_s(s) for s in setups)
    passes = [seconds for c in clocks for _, seconds in c.passes]
    return scaled, dict(
        raw, calibration_s=statistics.median(passes), mean_ops_per_s=mean_rate, scaled_mean_ops_per_s=scaled_mean_rate,
    )


def scaled_setup_s(sample: dict) -> float:
    """One set-up's seconds relative to the two references timed beside it.

    Interpreter parts (the package import and the provers' start, each a
    fresh interpreter importing numpy) follow the reference imports, timed
    just before and just after; the reference loop tracks them worse than no
    scaling at all (perfbench/README.md). The in-process parts (instances,
    cache warm-up) are CPU work and follow the reference loop.
    """
    interp = sample["import_s"] + sample.get("cli.prover_start_s", 0.0)
    return (
        interp * REF_IMPORT_S / sample["reference_import_s"]
        + (sample["total_s"] - interp) * REF_CALIBRATION_S / sample["calibration_s"]
    )


def traced_run(wl, seconds: float, setups: list) -> tuple[list, dict, list]:
    import layers
    from tracing import Tracer

    n = max(1, round(seconds * TRACED_SHARE / wl.nominal_block_s))
    ref = [wl.block(k) for k in range(n)]
    tracer = Tracer()
    try:
        layers.install(tracer)
        wl.instrument(tracer)
        t0 = time.perf_counter()
        traced = [wl.block(k) for k in range(n)]
        wall = time.perf_counter() - t0
    finally:
        wl.uninstrument()
        tracer.restore()
    metrics = layers.per_layer_metrics(tracer, ref, traced, setups, wall)
    return ref + traced, metrics, tracer.link_table()


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result, report)."""
    import colorproof
    import layers
    import workloads

    if SRC not in Path(colorproof.__file__).resolve().parents:
        raise RuntimeError(f"colorproof imported from {colorproof.__file__}, not from {SRC}")
    report = {"env": environment(args)}
    bench_dir = ROOT / ".bench_build"
    bench_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=bench_dir))
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    setups = []
    calibrator = Calibrator(wl.reference)
    try:
        references = [import_seconds(REFERENCE_MODULES)]
        for _ in range(SETUP_REPEATS):
            wl.teardown()
            loop_s = calibrator.measure()
            imported = import_seconds(PROGRAM_MODULES)
            t0 = time.perf_counter()
            parts = wl.setup()
            total = imported + time.perf_counter() - t0
            references.append(import_seconds(REFERENCE_MODULES))
            setups.append(dict(
                parts, import_s=imported, total_s=total, calibration_s=loop_s,
                reference_import_s=(references[-2] + references[-1]) / 2,
            ))
        if args.trace:
            blocks, metrics, report["spans"] = traced_run(wl, args.seconds, setups)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            blocks, clocks = measure(wl, args.seconds, calibrator)
            metrics, report["raw"] = end_to_end_metrics(blocks, clocks, setups)
            report["calls"] = sum(len(c.calls) for c in clocks)
            units = {name: unit for name, unit, _ in END_TO_END}
            latencies = [x for b in blocks for x in b.latencies_us]
            if latencies:  # the tail is reported, not gated: it does not repeat within a tenth
                report["round_p99_us"] = layers.percentile(latencies, 99)
                report["rounds_timed"] = len(latencies)
        wl.finish()
    finally:
        wl.teardown()
        calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)
    checks: dict = {}
    for c in wl.checks:
        passed, total = checks.get(c.name, (0, 0))
        checks[c.name] = (passed + c.ok, total + 1)
    failed_checks = [vars(c) for c in wl.checks if not c.ok]
    attempted = sum(b.attempted for b in blocks) + len(wl.checks)
    failed = sum(b.failed for b in blocks) + len(failed_checks)
    report.update(
        setup_samples=setups,
        blocks=len(blocks),
        ops=sum(b.ops for b in blocks),
        timed_s=sum(b.dt for b in blocks),
        checks={name: list(v) for name, v in checks.items()},
        failed_checks=failed_checks[:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="sim, born, zk, audit or loopback")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the provers are stopped
    if not (SRC / "colorproof" / "__init__.py").is_file():
        print(f"perfbench: no colorproof sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result, report = run(args)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
