"""Steadiness check: run each workload with several seeds, report spreads.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --workloads cli --runs 5 --out a.json
    python3 perfbench/steady.py --against a.json      # compare medians

Each run is ``run.py --workload W --seed S --seconds N --trace 0`` in its
own process, one at a time.  For every end-to-end metric it prints the
median and the spread (distance between first and third quartile as a
share of the median, ``statistics.quantiles(values, n=4)``) next to the
metric's bound from ``BENCHMARK.json``, and the share of failed
operations.  With ``--against`` it also prints how far each median moved
against an earlier set, in the metric's worse direction.  Seeds are 1 to
``--runs`` and each run lasts ``run_seconds`` of ``BENCHMARK.json``.
Every spread, ``setup_s``'s too, is checked against a third of its
bound, the target for a steady benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workloads, seeds, seconds):
    out = {}
    for w in workloads:
        runs = []
        for seed in seeds:
            cp = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if cp.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {cp.returncode}:\n{cp.stderr[-2000:]}")
            res = json.loads(cp.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        out[w] = runs
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", help="write the raw results here")
    p.add_argument("--against", help="raw results of an earlier set to compare medians with")
    args = p.parse_args(argv)

    seeds = range(1, args.runs + 1)
    results = run_set(args.workloads.split(","), seeds, bench["run_seconds"])
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    steady = True
    for w, runs in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        steady &= correct and len(shares) == 1
        print(f"\n{w}: {len(runs)} runs, correct {correct}, failed share "
              f"{', '.join(str(s) for s in sorted(shares))}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            s = spread(vals)
            ok = s < bound / 3
            steady &= ok
            line = (f"  {name:12s} median {med:10.4g} {m['unit']:5s}"
                    f" spread {s:6.3f} (bound {bound}, {'ok' if ok else 'WIDE'})")
            if w in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                ok = worse <= bound
                steady &= ok
                line += f" moved {worse:+.3f} worse ({'ok' if ok else 'BEYOND BOUND'})"
            print(line)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
