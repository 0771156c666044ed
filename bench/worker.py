"""One benchmark pass in a fresh interpreter, as one CLI invocation per target.

    python3 bench/worker.py --targets e6,e1 --checks all --points 8 --seed 42
        [--setup] [--trace FILE --pass-id K]

``--setup`` stops after importing warpcheck and loading the targets' builtin
configs.  Otherwise every target runs through ``warpcheck.cli.run`` and its
report is serialized to the JSON bytes the CLI would write.  The last line of
standard output is one JSON object describing the pass.  With ``--trace`` the
pass runs under :class:`tracer.Tracer` and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--targets", required=True)
    p.add_argument("--checks", required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup", action="store_true")
    p.add_argument("--trace", default=None)
    p.add_argument("--pass-id", type=int, default=0)
    args = p.parse_args(argv)
    targets = args.targets.split(",")

    import warpcheck
    from warpcheck import cli
    if args.setup:
        for t in targets:
            warpcheck.load_builtin(t)
        print(json.dumps({"module": warpcheck.__file__}))
        return 0

    configs = [cli.parse_args(["--target", t, "--checks", args.checks,
                               "--points", str(args.points),
                               "--seed", str(args.seed), "--format", "json"])
               for t in targets]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    start = time.perf_counter()
    try:
        for rc in configs:
            code, doc, _ = cli.run(rc)
            results.append((code, doc, cli.to_json_bytes(doc) if code != 2 else b""))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    runs = [{"target": rc.target, "points": rc.points, "code": code,
             "verdict": doc.get("verdict"),
             "records": [[r["name"], r["pass"]] for r in doc.get("checks", [])],
             "sha256": hashlib.sha256(payload).hexdigest()}
            for rc, (code, doc, payload) in zip(configs, results)]
    out = {"wall_s": wall, "points": sum(rc.points for rc in configs),
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "runs": runs}
    if tracer is not None:
        with open(args.trace, "w") as fh:
            json.dump({"pass": args.pass_id, **tracer.dump()}, fh,
                      separators=(",", ":"))
        out["counters"] = tracer.counters()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
