"""warpcheck benchmark: builtin gallery targets through ``warpcheck.cli.run``.

    python3 bench/run.py --workload cr-flat --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/warpcheck`` is imported from
there.  The load is closed-loop: one client, serial, each target run starting
after the previous report is serialized.  Every timed pass is a fresh
interpreter (``bench/worker.py``), as a CLI invocation is, with
``WARPCHECK_THREADS`` unset.  Passes repeat until ``--seconds`` is used up.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed.
Every target run is checked against ``bench/expected.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPANNED_MODULES, UNIQUE_TRACKED, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Each workload: builtin targets, the --checks selection, points per target,
# and why it is in the benchmark.
WORKLOADS = {
    "cr-flat": {
        "targets": ("e6", "e1"), "checks": "all", "points": 3,
        "why": "flat complex ambients; induced-metric jet assembly dominates "
               "(InducedMetric.derivs 19 times a point on e6), the target of a "
               "per-point geometry record and of batched jets"},
    "contact-curved": {
        "targets": ("e5", "sasakian-r5"), "checks": "all", "points": 4,
        "why": "curved Sasakian chart; structures layer and value-only "
               "expression evaluation through full jets dominate, with fewer "
               "induced-metric rebuilds"},
    "intrinsic-dense": {
        "targets": ("e2", "s2-warped", "e3"), "checks": "all", "points": 96,
        "why": "cheap 2-dimensional charts at many points; per-point fixed "
               "overhead dominates, where batching over points wins most and "
               "a per-point cache removes little"},
    "classify-scan": {
        "targets": ("e6", "e5", "e7"), "checks": "classify", "points": 192,
        "why": "only the second fundamental form, once a point and no induced "
               "metric jets; the lazy path, where eagerly built per-point "
               "geometry shows as cost"},
}

END_TO_END_UNITS = {"points_per_s": "points/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# Per-layer metrics: module self times, then per-callable counts and times.
CALLS_PER_POINT = (
    "subman.InducedMetric.derivs", "subman.second_fundamental_form",
    "subman.Immersion.component_jets", "expr.eval_jets", "expr.eval_expr",
    "riemann.MetricField.value", "riemann.MetricField.derivs",
    "riemann.christoffel", "riemann.curvature_components", "riemann.laplacian",
    "warped.leaf_scalars", "ineq.main_inequality")
CALLABLE_TIMES = ("subman.InducedMetric.derivs", "subman.second_fundamental_form")
PER_LAYER_UNITS = {
    **{f"{m}.self_s": "s" for m in SPANNED_MODULES},
    **{f"{c}.self_s": "s" for c in CALLABLE_TIMES},
    **{f"{c}.total_s": "s" for c in CALLABLE_TIMES},
    **{f"{c}.calls_per_point": "calls/point" for c in CALLS_PER_POINT},
    **{f"{c}.unique_ratio": "ratio" for c in UNIQUE_TRACKED},
    **{f"jets.{op}_per_point": "ops/point" for op in ("mul", "add", "div")},
    "trace.overhead_ratio": "ratio",
}

MIN_PASSES = 5
PROCESS_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here, e.g. no warpcheck sources."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WARPCHECK_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(wl: dict, seed: int, *extra: str) -> dict:
    """Run bench/worker.py once; return its JSON line, or raise BenchError."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--targets", ",".join(wl["targets"]), "--checks", wl["checks"],
           "--points", str(wl["points"]), "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {PROCESS_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def measure_setup(wl: dict, seed: int) -> float:
    """Wall time of one fresh process: start, import, load the configs."""
    start = time.perf_counter()
    info = worker(wl, seed, "--setup")
    elapsed = time.perf_counter() - start
    if not Path(info["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"warpcheck imported from {info['module']}, not {ROOT / 'src'}")
    return elapsed


def check_run(run: dict, wl: dict, expected: dict, digests: dict) -> str | None:
    """Why one target run failed, or None.  ``digests`` holds the first report
    digest seen per target; every later pass must match it."""
    if run["code"] != 0:
        return f"exit code {run['code']}"
    if run["verdict"] != "pass":
        return f"verdict {run['verdict']}"
    if run["records"] != expected.get(f"{run['target']} {wl['checks']}"):
        return "check records differ from expected"
    if run["points"] != wl["points"]:
        return f"ran {run['points']} points"
    if digests.setdefault(run["target"], run["sha256"]) != run["sha256"]:
        return "report bytes differ from the first pass"
    return None


def host_record(seed: int) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "warpcheck").glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "seed": seed, "loadavg": os.getloadavg(),
            "warpcheck_threads_unset": "WARPCHECK_THREADS" not in child_env(),
            "src_lines": src_lines}


def layer_metrics(summaries: list[dict], counters: dict, points: int,
                  overhead: float) -> dict:
    """Per-layer metrics from traced passes: times are medians over passes,
    counts come from the first pass (they repeat exactly)."""
    first = summaries[0]

    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    def calls(name):
        return first.get(name, (0,))[0]

    out = {}
    for mod in SPANNED_MODULES:
        out[f"{mod}.self_s"] = median_of(lambda s: sum(
            v[1] for name, v in s.items() if name.split(".", 1)[0] == mod))
    for name in CALLABLE_TIMES:
        out[f"{name}.self_s"] = median_of(lambda s: s.get(name, (0, 0.0, 0.0))[1])
        out[f"{name}.total_s"] = median_of(lambda s: s.get(name, (0, 0.0, 0.0))[2])
    for name in CALLS_PER_POINT:
        out[f"{name}.calls_per_point"] = calls(name) / points
    for name in UNIQUE_TRACKED:
        # no calls means nothing was rebuilt: count that as no waste
        out[f"{name}.unique_ratio"] = \
            counters["unique"][name] / calls(name) if calls(name) else 1.0
    for op in ("mul", "add", "div"):
        out[f"jets.{op}_per_point"] = counters["jet_ops"][op] / points
    out["trace.overhead_ratio"] = overhead
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    if not (ROOT / "src" / "warpcheck" / "__init__.py").is_file():
        raise BenchError(f"no warpcheck sources under {ROOT / 'src'}")
    expected = json.loads((BENCH / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    host = host_record(seed)
    print("host " + json.dumps(host), flush=True)

    measure_setup(wl, seed)  # warm-up: byte-compiles the sources once

    plain, traced, summaries, counter_sets = [], [], [], []
    setups, problems, attempted, digests = [], [], 0, {}
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if not trace:
            # one set-up sample per pass spreads them over the whole run
            setups.append(measure_setup(wl, seed))
        is_traced = trace and len(traced) < len(plain)
        extra = ()
        if is_traced:
            span_file = OUT / f"spans-{workload}-pass{len(traced)}.json"
            extra = ("--trace", str(span_file), "--pass-id", str(len(traced)))
        attempted += len(wl["targets"])
        try:
            result = worker(wl, seed, *extra)
        except BenchError as err:
            problems += [f"{t}: {err}" for t in wl["targets"]]
            result = None
        if result is not None:
            for r in result["runs"]:
                why = check_run(r, wl, expected, digests)
                if why:
                    problems.append(f"{r['target']}{' (traced)' if is_traced else ''}: {why}")
            if is_traced:
                summaries.append(summarize(json.loads(span_file.read_text())))
                counter_sets.append(result["counters"])
                traced.append(result)
            else:
                plain.append(result)
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        done = len(plain) >= (1 if trace else MIN_PASSES) and (not trace or traced)
        if result is None or (done and elapsed + longest > seconds):
            break

    failed = len(problems)
    for p in problems:
        print(f"FAIL {p}", flush=True)
    for target, digest in digests.items():
        print(f"report {target} checks={wl['checks']} points={wl['points']} "
              f"seed={seed} sha256={digest}")
    if not plain or (trace and not traced):
        raise BenchError("no pass completed")
    pps = [r["points"] / r["wall_s"] for r in plain]
    if trace:
        overhead = statistics.median(r["wall_s"] for r in traced) / \
            statistics.median(r["wall_s"] for r in plain)
        if any(c != counter_sets[0] for c in counter_sets) or \
                any({k: v[0] for k, v in s.items()} != {k: v[0] for k, v in summaries[0].items()}
                    for s in summaries):
            failed += 1
            print("FAIL counts differ between traced passes")
        values = layer_metrics(summaries, counter_sets[0], plain[0]["points"],
                               overhead)
        units = PER_LAYER_UNITS
    else:
        values = {"points_per_s": statistics.median(pps),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
                  "pass_ratio": 1.0 - failed / attempted}
        units = END_TO_END_UNITS
    samples = {"points_per_s": len(pps), "setup_s": len(setups),
               "peak_rss_mb": len(plain)}
    for name, value in values.items():
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"metric {name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {failed}/{attempted}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"host": host, "workload": workload, "wall_s": [r["wall_s"] for r in plain],
         "traced_wall_s": [r["wall_s"] for r in traced], "setup_s": setups,
         "reports": digests, "problems": problems, "result": result}, indent=1))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--points", type=int, default=None,
                   help="override points per target (for quick checks)")
    args = p.parse_args(argv)
    if args.points is not None:
        WORKLOADS[args.workload] = {**WORKLOADS[args.workload], "points": args.points}
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
