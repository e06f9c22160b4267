"""nodalcat benchmark: three seeded workloads, each pass in a fresh process.

    python3 bench/run.py [--workload verify-sweep|oracle-sweep|query-mix|all]
                         [--seed N] [--seconds S] [--trace 0|1]

A run repeats one seeded op list in passes until ``--seconds`` have gone by
(at least MIN_PASSES).  Each pass starts one child process (child.py),
which sets up the contexts, runs the ops and exits; children run one at a
time.  The answers are then checked here (oracle.py), so no check runs
inside the timed child.

Two steps make the timings steady on a shared machine:

* Speed scaling.  The child times a fixed pure-Python kernel between ops;
  every time of a pass is multiplied by CAL_REF_MS over the best kernel
  time of that pass.  A pass that ran while the whole machine was slower
  then reads the same as one that did not.  Times are therefore seconds at
  the reference speed, where the kernel takes CAL_REF_MS; the table shows
  the unscaled value beside each.
* Best of passes.  Slow spells of a few hundred milliseconds hit random
  ops; the best of several repetitions removes them where a median does
  not.  Per-op figures take each op's best latency over the passes, and
  total_s the fastest pass.  setup_s and peak_rss_mb are medians over the
  passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every other pass is traced
(spans.py) and the line holds the per-layer metrics instead, plus the
tracing overhead: traced minus untraced ``total_s``.  Lines before it are a
readable table.  See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("verify-sweep", "oracle-sweep", "query-mix")
MIN_PASSES = 3
AS_LIMIT_MB = 1536
CHILD_TIMEOUT_S = 100
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10
# best time of child.calibrate() at full speed on the machine where the
# benchmark was written (2 vCPU, Python 3.11.7), in milliseconds
CAL_REF_MS = 2.1

END_TO_END_UNITS = {
    "total_s": "s", "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB", "decided_ratio": "ratio",
}


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest percentile in PERCENTILES with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value, samples beyond).  Nearest rank: the p-th
    percentile of n samples is the ceil(n p / 100)-th smallest.  With too
    few samples for any, it falls back to the median.
    """
    data = sorted(samples)
    n = len(data)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(n * p / 100))
        if n - rank >= TAIL_BEYOND or best is None:
            best = (p, data[rank - 1], n - rank)
    return best


class Pass:
    """What one child reported, plus the wall clock seen from here.

    Times are unscaled; ``speed`` is the factor that scales them to the
    reference speed.
    """

    def __init__(self, out: dict, t_spawn: float, t_exit: float, statuses: list[str]):
        self.total_s = t_exit - t_spawn
        self.setup_s = out["t_first"] - t_spawn
        self.speed = CAL_REF_MS / out["cal_ms"]
        self.maxrss_mb = out["maxrss_mb"]
        self.trace = out.get("trace")
        self.statuses = statuses
        self.latencies_ms = [rec["ms"] for rec in out["records"]]


def run_child(workload: str, ops, traced: bool) -> tuple[dict, float, float]:
    spec = json.dumps({"workload": workload, "ops": ops, "contexts": workloads.contexts(workload),
                       "trace": traced, "as_limit_mb": AS_LIMIT_MB})
    # a fixed string hash makes set and dict orders repeat from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, CHILD], input=spec, capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    t_exit = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if len(out["records"]) != len(ops):
        raise RuntimeError(f"{workload} pass answered {len(out['records'])} of {len(ops)} ops")
    return out, t_spawn, t_exit


class Checker:
    """Turns child records into final statuses with the oracles."""

    def __init__(self):
        import oracle

        self.oracle = oracle
        self.queries = oracle.QueryOracle()

    def statuses(self, workload: str, ops, records) -> list[str]:
        if workload == "verify-sweep":
            return self.oracle.check_verify(records, ops)
        if workload == "oracle-sweep":
            return [rec["s"] for rec in records]
        return [self.queries.check(op["argv"], rec) if rec["s"] == "answer" else rec["s"]
                for op, rec in zip(ops, records)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 checker: Checker, rosters) -> list[tuple[Pass, bool]]:
    ops = workloads.make_ops(workload, seed, rosters)
    passes = []
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 0
        out, t_spawn, t_exit = run_child(workload, ops, traced)
        statuses = checker.statuses(workload, ops, out["records"])
        passes.append((Pass(out, t_spawn, t_exit, statuses), traced))
        index += 1
    return passes


def counts(statuses) -> dict:
    attempted = len(statuses)
    failed = sum(s in ("wrong", "fail") for s in statuses)
    undecided = statuses.count("undecided")
    return {"attempted": attempted, "failed": failed, "undecided": undecided,
            "fail_ratio": failed / attempted, "undecided_ratio": undecided / attempted}


def end_to_end(passes) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes at the reference speed, and notes.

    Each note gives the unscaled value of its metric.
    """

    def figures(scaled: bool) -> dict:
        def k(p):
            return p.speed if scaled else 1.0

        best = [min(ms) for ms in zip(*([x * k(p) for x in p.latencies_ms] for p in passes))]
        pct, tail, beyond = tail_percentile(best)
        return {
            "total_s": min(p.total_s * k(p) for p in passes),
            "setup_s": statistics.median(p.setup_s * k(p) for p in passes),
            "ops_per_s": len(best) / (sum(best) / 1e3),
            "op_p50_ms": statistics.median(best),
            "op_tail_ms": tail,
            "tail": f"p{pct:g} of {len(best)} ops, {beyond} beyond",
        }

    metrics, raw = figures(True), figures(False)
    c = counts([s for p in passes for s in p.statuses])
    metrics["peak_rss_mb"] = statistics.median(p.maxrss_mb for p in passes)
    metrics["decided_ratio"] = 1 - c["undecided_ratio"]
    notes = {name: f"unscaled {raw[name]:.6g}" for name in ("total_s", "setup_s", "ops_per_s",
                                                           "op_p50_ms", "op_tail_ms")}
    notes["total_s"] += f"; best of {len(passes)} passes, speed x{statistics.median(p.speed for p in passes):.3f}"
    notes["op_tail_ms"] += f"; {metrics.pop('tail')}"
    notes["decided_ratio"] = (f"undecided_ratio {c['undecided_ratio']:.4f}, "
                              f"fail_ratio {c['fail_ratio']:.4f}")
    return metrics, notes


def per_layer(traced, untraced) -> dict:
    """Per-layer medians over traced passes, with the tracing overhead."""

    def med(values):
        return statistics.median(values)

    out = {}
    for name in spans.LAYERS:
        rows = [p.trace["layers"][name] for p in traced]
        out[f"{name}.calls"] = (med(r["calls"] for r in rows), "count")
        out[f"{name}.self_s"] = (med(r["self_s"] for r in rows), "s")
    out["formalcat.mutate.setup_calls"] = (
        med(p.trace["layers"]["formalcat.mutate"]["setup_calls"] for p in traced), "count")
    out["formalcat.hom.undecided"] = (med(p.trace["counts"]["formalcat.hom.undecided"] for p in traced), "count")
    out["formalcat.render.bytes"] = (med(p.trace["counts"]["formalcat.render.bytes"] for p in traced), "bytes")
    out["formalcat.mutate.reuse_ratio"] = (med(
        p.trace["counts"]["formalcat.mutate.reused"] / p.trace["layers"]["formalcat.mutate"]["calls"]
        if p.trace["layers"]["formalcat.mutate"]["calls"] else 0.0 for p in traced), "ratio")
    out["formalcat.registry.triangles"] = (med(p.trace["triangles"] for p in traced), "count")
    out["trace.overhead_s"] = (med(p.total_s * p.speed for p in traced)
                               - med(p.total_s * p.speed for p in untraced), "s")
    return out


def report(workload: str, metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{workload:13s} {name:34s} {value:14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nodalcat", "__init__.py")):
        print(f"bench: no nodalcat source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from nodalcat import nodal

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    checker = Checker()
    rosters = {d: nodal.build_context(d).generators for d in range(2, 14)}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        passes = run_workload(name, args.seed, args.seconds, bool(args.trace), checker, rosters)
        traced = [p for p, t in passes if t]
        untraced = [p for p, t in passes if not t]
        c = counts([s for p, _ in passes for s in p.statuses])
        result["attempted"] += c["attempted"]
        result["failed"] += c["failed"]
        result["correct"] = result["correct"] and c["failed"] == 0
        if args.trace:
            metrics, notes = per_layer(traced, untraced), {}
        else:
            values, notes = end_to_end(untraced)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        report(name, metrics, notes)
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
