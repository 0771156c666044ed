"""Tests of the benchmark itself: ``python3 -m pytest -q bench`` from the repo root.

Every workload runs at a tiny point count, so the suite takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads_and_metrics_the_runner_prints():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: wl["why"] for name, wl in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--points", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line
                   for line in lines), name
    host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
    assert host["warpcheck_threads_unset"] and host["seed"] == 7
    assert host["src_lines"] > 0
    digests = [line for line in lines if line.startswith("report ")]
    assert len(digests) == len(run.WORKLOADS[workload]["targets"])


def test_structural_anchors():
    proc = bench("--workload", "classify-scan", "--seconds", "0", "--trace", "1",
                 "--points", "3")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["subman.InducedMetric.derivs.calls_per_point"]["value"] == 0
    assert metrics["subman.second_fundamental_form.calls_per_point"]["value"] == 1
    proc = bench("--workload", "cr-flat", "--seconds", "0", "--trace", "1",
                 "--points", "2")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["ineq.main_inequality.calls_per_point"]["value"] == 2


def _report_bytes(target: str, points: int = 2) -> bytes:
    from warpcheck import cli
    code, doc, _ = cli.run(cli.parse_args(["--target", target, "--points", str(points)]))
    assert code == 0
    return cli.to_json_bytes(doc)


def _public_functions() -> dict:
    import warpcheck
    mods = [m for name, m in sys.modules.items() if name.startswith("warpcheck")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)} | {(warpcheck.Jet3.__name__, k): v
                               for k, v in vars(warpcheck.Jet3).items()}


def test_tracing_restores_every_attribute_and_keeps_report_bytes():
    before_bytes = _report_bytes("e4")
    before = _public_functions()
    tracer = Tracer()
    tracer.install()
    try:
        traced_bytes = _report_bytes("e4")
    finally:
        tracer.uninstall()
    assert tracer.spans and tracer.jet_ops["mul"] > 0
    assert _public_functions() == before
    assert traced_bytes == before_bytes == _report_bytes("e4")


def test_counts_repeat_exactly():
    def traced_counts():
        tracer = Tracer()
        tracer.install()
        try:
            _report_bytes("e6", points=1)
        finally:
            tracer.uninstall()
        calls = {name: v[0] for name, v in summarize(tracer.dump()).items()}
        return calls, tracer.counters()

    first = traced_counts()
    assert first == traced_counts()
    assert first[0]["subman.InducedMetric.derivs"] == 19


def test_check_run_rejects_each_kind_of_bad_target_run():
    wl = run.WORKLOADS["cr-flat"]
    expected = json.loads((BENCH / "expected.json").read_text())
    good = {"target": "e6", "points": wl["points"], "code": 0, "verdict": "pass",
            "records": expected["e6 all"], "sha256": "a"}
    digests = {}
    assert run.check_run(good, wl, expected, digests) is None
    for bad in ({"code": 1, "verdict": "fail"}, {"verdict": "fail"},
                {"records": good["records"][:-1]}, {"points": 1}, {"sha256": "b"}):
        assert run.check_run({**good, **bad}, wl, expected, digests), bad


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cr-flat", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
