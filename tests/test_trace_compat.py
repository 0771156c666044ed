"""The benchmark's tracer (bench/tracer.py) wraps warpcheck from outside:
every public function and method of the spanned modules, and the Jet3
operators through ``vars(Jet3)``.  A traced run must report the same bytes
as an untraced one."""

import sys
from pathlib import Path

from warpcheck import cli
from warpcheck.jets import Jet3
from warpcheck.report import to_json_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
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
