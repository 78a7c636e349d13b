"""altia benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--workload`` one run is made and its last output line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it every workload is run twice, untraced and
traced, each pass in its own process started one after the other, and
the tracing overhead is printed.  Run from anywhere; files are read and
written only inside the checkout that holds this directory (under
``.bench_work/``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"explore": "explore", "conjoin": "conjoin", "campaign": "campaign",
             "cli": "session"}
NEEDED = ("src/altia/__init__.py", "tests/oracles.py", "models/machine.aia")


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name: str, seed: int, res, traced: bool) -> None:
    b = res.bench
    print(f"{name}: seed {seed}, {'traced' if traced else 'untraced'}, {res.rounds} rounds, "
          f"{b.attempted} operations attempted, {b.failed} failed, correct {b.correct}")
    print(f"  operation time of the first {res.prefix_rounds} rounds: {res.prefix_op_s!r} s")
    from harness import REFERENCE_S

    ref = statistics.median(b.refs)
    print(f"  reference: median {ref * 1e3:.3f} ms over {len(b.refs)} timings, "
          f"times scaled by {REFERENCE_S / ref:.3f} at that median")
    for metric, mv in res.metrics(traced).items():
        print(f"  {metric:24s} {_fmt(mv['value']):>12s} {mv['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each pass in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        prefix_op_s = []
        for trace in (0, 1):
            cp = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(cp.stderr)
            if cp.returncode != 0:
                print(f"error: {name} --trace {trace} exited {cp.returncode}", file=sys.stderr)
                return 1
            lines = cp.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            prefix_op_s.append(float(re.search(r"rounds: (\S+) s$", cp.stdout, re.M)[1]))
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for metric, mv in res["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = mv
        overhead = (prefix_op_s[1] / prefix_op_s[0] - 1) * 100
        print(f"  tracing overhead: {overhead:+.1f}% operation time of the first rounds")
        summary["metrics"][f"{name}.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [f for f in NEEDED if not (ROOT / f).is_file()]
    if missing:
        print(f"error: {ROOT} is not an altia checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if not args.workload:
        return run_all(args.seed, args.seconds)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness

    mod = importlib.import_module(WORKLOADS[args.workload])
    ctx = harness.Context(ROOT, args.seed)
    try:
        traced = bool(args.trace)
        res = harness.run_workload(mod, ctx, args.seconds, traced)
        report(args.workload, args.seed, res, traced)
        print(json.dumps(res.summary(traced)))
        return 0
    finally:
        ctx.close()


if __name__ == "__main__":
    sys.exit(main())
