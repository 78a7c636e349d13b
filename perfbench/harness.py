"""Timing, tracing and reporting shared by the workloads.

A workload is a module with ``NAME``, ``PASS``, ``PREFIX_ROUNDS``,
``setup(ctx)`` and ``run_round(ctx, state, r, bench)``.  A run sets up,
then runs whole rounds until ``--seconds`` have passed and at least
``PREFIX_ROUNDS`` rounds are done.  Every call the benchmark makes into a
layer of altia goes through ``Bench.call``; every operation (one result a
user asks for) goes through ``Bench.op``.

Round ``r`` repeats the work of round ``r - PASS`` on renamed inputs, so a
*pass* of ``PASS`` rounds is a fixed list of operations and a run repeats
it.  End-to-end latency and throughput come from every operation of the
run.

Times are given at a fixed machine speed.  The shared host's speed
swings by up to 1.8x within seconds and over minutes (one ``det`` call
repeated in one process took 186-342 ms per 2.5 s stretch), which moves
the median of a whole run by more than the bounds.  So the benchmark
times a fixed computation in plain Python (``reference_s``, its own code,
not altia's) right before and after every operation, or every
``REF_INTERVAL`` seconds between short ones, and multiplies the
operation's time by ``REFERENCE_S`` over the mean of those two reference
times.  Set-up time, ``cli.startup_s`` and layer times are scaled the
same way.  A change to altia moves the scaled times as it moves the raw
ones; a slow spell of the host moves the operation and the reference
around it alike.
Peak memory and all per-layer figures come from the first
``PREFIX_ROUNDS`` rounds only: that work is fixed by the seed, so the
counts repeat exactly (all but the intern-table size, which follows the
per-process string hash order) and memory does not grow with the number
of rounds a faster program fits into the run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
from altia import AIA, Config, dnf

ROOT = Path(__file__).resolve().parent.parent
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics: (name, unit).  Times are self time of the spans the
# benchmark records around its own calls into that layer.
LAYER_METRICS = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}

IMPORT_REPS = 11
SETUP_REPS = 5
# About the reference's time on the 2-core reference machine (2.7-3.6 ms per run).
REFERENCE_S = 0.003
REF_INTERVAL = 0.1
_REF_SPEC = gen.rand_spec(gen.rng_for(0, "reference"), 6, ("a", "b"), ("x", "y"), "ref")
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


class Context:
    """Where a run reads and writes: everything stays inside the checkout."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.models = root / "models"
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child_peak_mb = 0.0

    def altia(self, *args: str) -> subprocess.CompletedProcess:
        """Run one ``altia`` command as its own process and wait for it.

        The result also carries ``seconds``, the command's own wall time,
        and the command's peak memory goes into ``child_peak_mb``.  A
        launcher that leaves no report, or one whose exit code is not the
        command's, raises.
        """
        report = self.work / "launch.json"
        report.unlink(missing_ok=True)
        cp = subprocess.run(
            [sys.executable, "-S", str(LAUNCHER), str(report),
             sys.executable, "-m", "altia", *args],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150,
        )
        if not report.is_file():
            raise RuntimeError(f"launcher left no report (exit {cp.returncode}): "
                               f"{cp.stderr[-300:]!r}")
        facts = json.loads(report.read_text(encoding="utf-8"))
        if facts["code"] != cp.returncode:
            raise RuntimeError(f"launcher exited {cp.returncode}, command {facts['code']}")
        cp.seconds = facts["seconds"]
        self.child_peak_mb = max(self.child_peak_mb, facts["maxrss_kb"] / 1024.0)
        return cp

    def import_s(self, module: str) -> float:
        """Time a fresh process takes to import a workload and its modules."""
        paths = [str(self.root / d) for d in ("src", "tests", "perfbench")]
        code = ("import sys, time\nt = time.perf_counter()\n"
                f"sys.path[:0] = {paths!r}\nimport harness, {module}\n"
                "print(time.perf_counter() - t)")
        cp = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                            capture_output=True, text=True, check=True, timeout=60)
        return float(cp.stdout)

    def startup_s(self, reps: int = 5) -> float:
        """Median time, scaled, of a process that only imports ``altia.cli``."""
        times = []
        for _ in range(reps):
            _, t, f = around(subprocess.run, [sys.executable, "-c", "import altia.cli"],
                             cwd=self.root, env=self.env, check=True, timeout=60)
            times.append(t * f)
        return statistics.median(times)

    @staticmethod
    def intern_entries() -> int:
        from altia import lattice

        return len(getattr(lattice, "_interned", ()))

    def write_trace(self, workload: str, tracer: "Tracer") -> None:
        out = self.root / ".bench_work" / "traces"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"{workload}-seed{self.seed}.jsonl")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class OpFailed(Exception):
    """An operation raised; the rest of its round is skipped."""


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.op_id])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def self_times(self, upto: int, factors: list[float]) -> dict:
        """Per span name, total duration minus the time its children cover,
        each span scaled by its operation's factor."""
        out: dict = defaultdict(float)
        for name, start, end, parent, op in self.spans[:upto]:
            d = (end - start) * factors[max(op, 1) - 1]
            out[name] += d
            if parent >= 0:
                out[self.spans[parent][0]] -= d
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _max_clauses(res) -> int:
    if isinstance(res, Config):
        return len(dnf(res))
    if isinstance(res, AIA):
        return max([len(dnf(res.initial))] + [
            len(dnf(c)) for row in res.transitions.values() for c in row.values()
        ])
    if isinstance(res, tuple):
        return max([_max_clauses(x) for x in res] + [0])
    return 0


class Bench:
    """Operation timings, layer calls, counters and correctness of one run."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.lat: list[float] = []  # seconds; inf marks a failed operation
        self.refs: list[float] = []  # reference times, in the order taken
        self.ref_at = -math.inf  # when the last one was taken
        self.op_ref: list[int] = []  # per operation: the last reference before it
        self.factors: list[float] = []  # per operation, once the run has ended
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.counts: dict = defaultdict(int)

    def call(self, layer: str, fn, *args):
        """Call into a layer of altia; traced runs record a span."""
        tr = self.tracer
        if tr is None:
            return fn(*args)
        tr.begin(layer)
        try:
            res = fn(*args)
        finally:
            tr.end()
        self.counts["lattice.max_clauses"] = max(
            self.counts["lattice.max_clauses"], _max_clauses(res)
        )
        return res

    def sample(self, force: bool = False) -> None:
        """Time the reference if ``REF_INTERVAL`` has passed since the last time."""
        if force or perf_counter() - self.ref_at >= REF_INTERVAL:
            self.refs.append(reference_s())
            self.ref_at = perf_counter()

    def scale(self) -> None:
        """Bring every operation's time to the speed at which the reference
        takes ``REFERENCE_S``."""
        self.sample(force=True)
        for i, k in enumerate(self.op_ref):
            self.factors.append(2 * REFERENCE_S / (self.refs[k] + self.refs[k + 1]))
            self.lat[i] *= self.factors[-1]

    def op(self, kind: str, fn, *args):
        """Time one operation; an exception counts it as failed."""
        self.sample()
        self.op_ref.append(len(self.refs) - 1)
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            tr.op_id = self.attempted
            tr.begin("op." + kind)
        t0 = perf_counter()
        try:
            res = fn(*args)
        except Exception as exc:
            self.lat.append(math.inf)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(kind) from exc
        finally:
            t1 = perf_counter()
            if tr is not None:
                tr.end()
            self.sample()
        self.lat.append(t1 - t0)
        return res

    def retime_last(self, seconds: float) -> None:
        """Replace the last operation's time by a more exact one."""
        if self.lat[-1] != math.inf:
            self.lat[-1] = seconds

    def fail_last(self) -> None:
        """Count the last operation as failed (it returned a wrong-kind answer)."""
        self.lat[-1] = math.inf
        self.failed += 1

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(what)
                print(f"INCORRECT: {what}", file=sys.stderr)


def around(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its time and the factor that scales times
    taken during it, from the reference timed before and after."""
    before = reference_s()
    t0 = perf_counter()
    res = fn(*args, **kwargs)
    t = perf_counter() - t0
    return res, t, 2 * REFERENCE_S / (before + reference_s())


def _reference_work() -> int:
    """Fixed work in plain Python, shaped like altia's: reachable
    configurations by bit masks, then each one canonicalized over state
    names and interned."""
    table: dict = {}
    for cfg in gen.MaskExplorer(_REF_SPEC).reachable(10**6):
        key = tuple(sorted(tuple(sorted(f"q{i}" for i in range(8) if m >> i & 1))
                           for m in cfg))
        table.setdefault(key, len(table))
    return len(table)


def reference_s(reps: int = 3) -> float:
    """Median time of ``reps`` runs of the reference computation."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def nearest_rank(sorted_vals: list[float], p: float) -> float:
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class RunResult:
    bench: Bench
    rounds: int
    prefix_rounds: int
    setup_s: float
    prefix_op_s: float  # operation time of the prefix rounds
    peak_rss_mb: float
    layer: dict

    def end_to_end(self) -> dict:
        lat = sorted(self.bench.lat)
        ok = [x for x in lat if x != math.inf]
        return {
            "setup_s": self.setup_s,
            "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
            "op_p50_ms": nearest_rank(lat, 0.5) * 1e3,
            "op_p90_ms": nearest_rank(lat, 0.9) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def metrics(self, traced: bool) -> dict:
        if traced:
            return {n: {"value": self.layer[n], "unit": u} for n, u in LAYER_METRICS}
        e2e = self.end_to_end()
        return {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}

    def summary(self, traced: bool) -> dict:
        return {
            "correct": self.bench.correct,
            "attempted": self.bench.attempted,
            "failed": self.bench.failed,
            "metrics": self.metrics(traced),
        }


def run_workload(mod, ctx, seconds: float, traced: bool) -> RunResult:
    """Set up, then run rounds.

    ``setup_s`` is the median time of ``IMPORT_REPS`` fresh processes
    importing the workload's modules plus the median of ``SETUP_REPS``
    calls of its ``setup`` in this process, each time scaled.
    """
    imports = []
    for _ in range(IMPORT_REPS):
        t, _, f = around(ctx.import_s, mod.__name__)
        imports.append(t * f)
    times = []
    for _ in range(SETUP_REPS):
        state, t, f = around(mod.setup, ctx)
        times.append(t * f)
    setup_s = statistics.median(imports) + statistics.median(times)

    tracer = Tracer() if traced else None
    bench = Bench(tracer)
    r = 0
    prefix_ops = 0
    prefix_spans = 0
    rss = 0.0
    layer_counts: dict = {}
    start = perf_counter()
    while r < mod.PREFIX_ROUNDS or perf_counter() - start < seconds:
        try:
            mod.run_round(ctx, state, r, bench)
        except OpFailed:
            pass
        r += 1
        if r == mod.PREFIX_ROUNDS:
            prefix_ops = len(bench.lat)
            rss = ctx.child_peak_mb if getattr(mod, "CHILD_PROCESSES", False) else peak_rss_mb()
            layer_counts = dict(bench.counts)
            layer_counts["lattice.intern_entries"] = ctx.intern_entries()
            if tracer is not None:
                prefix_spans = len(tracer.spans)
    bench.scale()
    prefix_op_s = sum(x for x in bench.lat[:prefix_ops] if x != math.inf)
    layer: dict = {}
    if traced:
        layer_counts["cli.startup_s"] = ctx.startup_s()
        st = tracer.self_times(prefix_spans, bench.factors)
        for name, unit in LAYER_METRICS:
            if name in layer_counts:
                layer[name] = layer_counts[name]
            elif name.endswith("_calls"):
                layer[name] = sum(1 for s in tracer.spans[:prefix_spans]
                                  if s[0] == name[: -len("_calls")])
            elif unit == "s":
                layer[name] = st.get(name[:-2], 0.0)
            else:
                layer[name] = 0
        ctx.write_trace(mod.NAME, tracer)
    return RunResult(bench, r, mod.PREFIX_ROUNDS, setup_s, prefix_op_s, rss, layer)
