"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from colorproof import strategies  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_s_total"] <= metrics["trace.wall_s"]
    report = json.loads(out.stdout.splitlines()[-2])["report"]
    for key in ("cpu_count", "python", "numpy", "mpmath", "git_sha", "seed", "loadavg_at_start"):
        assert key in report["env"]


def test_traced_counts_repeat_exactly():
    runs = [json.loads(_run("loopback", 1).stdout.splitlines()[-1])["metrics"] for _ in range(2)]
    for name in ("net.frames", "net.bytes", "net.encode.calls", "games.verdict.calls", "seeds.substream.calls"):
        assert runs[0][name]["value"] == runs[1][name]["value"] > 0


def test_runs_without_sources_fail_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("sim", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def _workload(cls, tmp_path):
    wl = cls(5, ROOT, tmp_path)
    wl.setup()
    return wl


def test_zk_check_fails_on_fixed_coloring_pair(tmp_path):
    wl = _workload(workloads.Zk, tmp_path)
    wl.honest = strategies.fixed_coloring_pair(wl.inst.witness)
    wl.block(0)
    failed = {c.name.split(".(")[0] for c in wl.checks if not c.ok}
    assert {"zk.support", "zk.tv"} <= failed


def test_sim_counts_rejected_honest_rounds(tmp_path):
    wl = _workload(workloads.Sim, tmp_path)
    wl.honest = wl.mismatched
    block = wl.block(0)
    assert block.failed > 0
    assert not wl.checks[0].ok


def test_sim_reject_rate_check_fails_on_wrong_exact_value(tmp_path):
    wl = _workload(workloads.Sim, tmp_path)
    wl.reject_p = min(1.0, wl.reject_p + 0.1)
    for k in range(10):  # 2000 mismatched rounds
        wl.block(k)
    wl.finish()
    assert not wl.checks[-1].ok


def test_born_check_fails_on_wrong_win_probability(tmp_path):
    wl = _workload(workloads.Born, tmp_path)
    for k in range(34):  # about 20000 rounds
        wl.block(k)
    wl.win_p = min(1.0, wl.win_p + 0.05)
    wl.finish()
    assert not wl.checks[-1].ok


def test_self_times_sum_to_wall_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def parent():
        traced_leaf()
        traced_leaf()
        time.sleep(0.005)

    traced_parent = tracer.wrap("parent", parent)
    t0 = time.perf_counter()
    traced_parent()
    wall = time.perf_counter() - t0
    assert tracer.calls == {"leaf": 2, "parent": 1}
    assert tracer.self_s("leaf") >= 0.02
    assert 0.005 <= tracer.self_s("parent") < 0.02
    assert tracer.total_self_s() <= wall
    assert {(r["parent"], r["span"]) for r in tracer.link_table()} == {(None, "parent"), ("parent", "leaf")}


def test_tracer_restores_patched_names():
    from colorproof import games

    import layers

    before = games.verdict
    tracer = Tracer()
    layers.install(tracer)
    assert games.verdict is not before
    tracer.restore()
    assert games.verdict is before


@pytest.mark.parametrize("kind", ["python", "numpy"])
def test_calibrator_child_answers_and_ends(kind):
    calibrator = run.Calibrator(kind)
    try:
        times = [calibrator.measure() for _ in range(2)]
    finally:
        calibrator.close()
    assert all(0 < t < 5 for t in times)
    assert calibrator.proc.returncode == 0


def test_setup_scaling_follows_each_reference():
    sample = {"import_s": 0.2, "cli.prover_start_s": 0.3, "total_s": 0.6,
              "reference_import_s": run.REF_IMPORT_S, "calibration_s": run.REF_CALIBRATION_S}
    assert run.scaled_setup_s(sample) == pytest.approx(0.6)
    slow_imports = dict(sample, reference_import_s=2 * run.REF_IMPORT_S)
    assert run.scaled_setup_s(slow_imports) == pytest.approx(0.25 + 0.1)
    slow_loop = dict(sample, calibration_s=2 * run.REF_CALIBRATION_S)
    assert run.scaled_setup_s(slow_loop) == pytest.approx(0.5 + 0.05)


def test_clock_scales_each_call_by_the_passes_beside_it():
    passes = iter([0.002, 0.004, 0.001])
    clock = workloads.Clock(lambda: next(passes))
    assert clock.call(lambda x: x + 1, 1) == 2
    assert clock.call(time.sleep, 0.01) is None
    clock.close()
    assert [p for _, p in clock.passes] == [0.002, 0.004, 0.001]
    (_, first), (_, second) = clock.calls
    assert second >= 0.01 and clock.seconds == pytest.approx(first + second)
    # two 10 ms calls 20 ms apart: each takes the mean of the two passes beside it;
    # one between passes of 2 and 4 ms runs at 1/1.5 of the 2 ms speed
    clock.calls = [(0.0, 0.01), (0.03, 0.01)]
    clock.passes = [(-0.002, 0.002), (0.015, 0.004), (0.042, 0.001)]
    assert workloads.call_scales([clock], 0.002) == [[pytest.approx(1 / 1.5), pytest.approx(1 / 1.25)]]


def test_long_call_takes_the_median_of_nearby_passes():
    def clock_at(calls, passes):
        clock = workloads.Clock()
        clock.calls, clock.passes = calls, passes
        return clock

    # a 1 s call from t=10 to t=11, one stalled pass just before it, and
    # passes within a call length on both sides; the pass at t=7 is too far
    before = clock_at([(9.0, 0.01)], [(7.0, 0.5), (8.5, 0.002), (9.9, 0.020)])
    long = clock_at([(10.0, 1.0)], [(11.1, 0.002), (11.5, 0.002)])
    [_], [scale] = workloads.call_scales([before, long], 0.002)
    assert scale == pytest.approx(1.0)  # median of 0.002, 0.020, 0.002, 0.002
