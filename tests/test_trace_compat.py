"""The benchmark's tracer (bench/tracer.py) wraps warpcheck from outside:
every public function and method of the spanned modules, and the Jet3
operators through ``vars(Jet3)``.  A traced run must report the same bytes
as an untraced one, and every callable the benchmark names must exist."""

import importlib
import json
import sys
from pathlib import Path

from warpcheck import cli
from warpcheck.jets import Jet3
from warpcheck.report import to_json_bytes

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from tracer import JET_OPS, Tracer  # noqa: E402

RUNS = (("e3", 40), ("e5", 3), ("e6", 3), ("s2-warped", 40))


def _reports() -> list[bytes]:
    out = []
    for target, points in RUNS:
        code, doc, _ = cli.run(cli.RunConfig(target=target, points=points, seed=42))
        assert code == 0, target
        out.append(to_json_bytes(doc))
    return out


def test_traced_reports_equal_untraced():
    assert all(op in vars(Jet3) for op in JET_OPS)  # the tracer counts these
    plain = _reports()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _reports()
    finally:
        tracer.uninstall()
    assert traced == plain
    counters = tracer.counters()
    assert counters["jet_ops"]["mul"] > 0
    assert counters["unique"]["subman.InducedMetric.derivs"] > 0


def test_bench_layer_names_resolve():
    # the tracer records nothing for a callable that is gone, so a rename
    # would read as zero cost in the bench instead of failing
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = []
    for metric in spec["per_layer"]:
        path, suffix = metric["name"].rsplit(".", 1)
        module, *chain = path.split(".")
        if module in ("jets", "trace"):  # counters, not callables
            continue
        assert suffix in ("self_s", "total_s", "calls_per_point", "unique_ratio"), path
        obj = importlib.import_module(f"warpcheck.{module}")
        for attr in chain:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(path)
    assert not missing
