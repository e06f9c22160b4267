"""One benchmark pass, in a fresh single-threaded process.

Reads a spec from stdin:
    {"workload": name, "ops": [...], "contexts": [d, ...], "trace": bool,
     "as_limit_mb": int}
caps its own address space, imports nodalcat, builds every context the
workload needs (set-up), runs the ops one at a time and writes one JSON
object to stdout.  run.py starts it; a pass is never run twice in one
process, because ``nodal._setup`` is cached and every context carries a
mutable memo and triangle registry.

Op statuses: "ok" or "wrong" (checked here), "answer" (handed to run.py
for checking), "undecided" (a typed IndeterminateHom / UnsupportedPair /
NotExceptional), "fail" (any other exception, MemoryError included).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from answers import parse_render

HERE = os.path.dirname(os.path.abspath(__file__))
CAL_EVERY_S = 0.1
CAL_MIN_SAMPLES = 5
SRC = os.path.join(os.path.dirname(HERE), "src")
UNDECIDED = ("IndeterminateHom", "UnsupportedPair", "NotExceptional")


class Workload:
    """Runs one op; ``finish`` may shrink its record after the clock stopped.

    Modules are held, not their functions, so that the tracer's wrappers
    (installed on the module attributes) see every call.
    """

    def __init__(self, contexts):
        from nodalcat import cli, formalcat, mukai, nodal, quadric

        self.contexts = contexts
        self.cli, self.formalcat, self.mukai, self.nodal, self.quadric = (
            cli, formalcat, mukai, nodal, quadric)

    def finish(self, op, rec):
        return rec


class VerifySweep(Workload):
    """``nodal.verify_dim(d)``; run.py compares the reports with a stored file."""

    def run(self, op):
        report = self.nodal.verify_dim(op["d"])
        return {"s": "ok" if report.all_pass else "wrong", "report": report.to_json()}


class OracleSweep(Workload):
    """Cross-checks of the engine's independent paths; each op is one pair."""

    def run(self, op):
        nodal, quadric = self.nodal, self.quadric
        kind = op["k"]
        if kind == "pair":
            # euler(Hom(j*A, j*B)) against the additive chi
            d = op["d"]
            Gen = self.formalcat.Gen
            h = self.formalcat.hom(self.contexts[d], Gen(op["a"]), Gen(op["b"]))
            Fa, Fb = nodal.parse_push_name(op["a"]), nodal.parse_push_name(op["b"])
            chi = quadric.chi_quadric(d - 1, Fa, Fb) - quadric.chi_quadric(d - 1, Fa.twisted(1), Fb)
            return {"s": "ok" if h.euler() == chi else "wrong"}
        F = quadric.sheaf_from_string(op["f"])
        G = quadric.sheaf_from_string(op["g"])
        got = quadric.chi_quadric(op["n"], F, G)
        want = self.mukai.chi_hrr(op["n"], F, G) if kind == "hrr" else _spinor_chi(quadric, op["n"], F, G)
        return {"s": "ok" if got == want else "wrong"}


def _spinor_chi(quadric, n, F, G):
    """chi(S(a), S(b)) on odd Q^n from Hom values alone.

    Inside twist differences 0..n the spinor pair's Hom is known; outside,
    the tautological sequence 0 -> S(b-1) -> O(b-1)^r -> S(b) -> 0 moves b
    towards that range, and each step needs only a spinor-line Hom, which is
    plain cohomology.
    """
    r = quadric.taut_rank(n)
    sign, total = 1, 0
    while not 0 <= F.twist - G.twist <= n:
        step = -1 if F.twist < G.twist else 1
        line = quadric.QuadricSheaf(quadric.LINE, G.twist - 1 if step < 0 else G.twist)
        total += sign * r * quadric.hom_quadric(n, F, line).euler()
        sign = -sign
        G = G.twisted(step)
    return total + sign * quadric.hom_quadric(n, F, G).euler()


class QueryMix(Workload):
    """``cli.main(argv)`` in-process; run.py checks the captured answers."""

    # answers that are object expressions, possibly huge: sent as trees
    OBJECT_ANSWERS = ("mutate", "serre")

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(op["argv"])
        first_err = err.getvalue().split("\n", 1)[0][:200]
        if rc == 2 and any(first_err.startswith(f"nodalcat: {name}:") for name in UNDECIDED):
            return {"s": "undecided", "rc": rc, "err": first_err}
        return {"s": "answer", "rc": rc, "out": out.getvalue(), "err": first_err}

    def finish(self, op, rec):
        if rec.get("rc") == 0 and op["argv"][0] in self.OBJECT_ANSWERS:
            text = rec.pop("out")
            try:
                rec["tree"] = parse_render(text)
            except ValueError as exc:
                rec.update(s="wrong", err=f"unreadable answer: {exc}"[:200])
        return rec


WORKLOADS = {"verify-sweep": VerifySweep, "oracle-sweep": OracleSweep, "query-mix": QueryMix}


def _kernel():
    table = {}
    for i in range(3000):
        key = (i % 97, str(i % 89))
        table[key] = table.get(key, 0) + i
    return sorted(table.items())[:5]


def calibrate() -> float:
    """Best of two timings of a fixed pure-Python kernel, in seconds.

    Taken between ops every CAL_EVERY_S, outside their clocks.  run.py
    scales the pass's times by the best of these, so a machine that is
    slower for a whole pass (a busy neighbour, a lower clock) does not
    read as a slower program.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    spec = json.load(sys.stdin)
    limit = spec["as_limit_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, SRC)
    from nodalcat import cli, cubic, formalcat, mukai, nodal, quadric
    from nodalcat.errors import NodalcatError

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install({"cli": cli, "cubic": cubic, "formalcat": formalcat,
                        "mukai": mukai, "nodal": nodal, "quadric": quadric})
    contexts = {d: nodal.build_context(d) for d in spec["contexts"]}
    workload = WORKLOADS[spec["workload"]](contexts)

    records = []
    cal = []
    t_first = time.perf_counter()
    last_cal = t_first
    for i, op in enumerate(spec["ops"]):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            rec = workload.run(op)
        except NodalcatError as exc:
            status = "undecided" if type(exc).__name__ in UNDECIDED else "fail"
            rec = {"s": status, "err": f"{type(exc).__name__}: {exc}"[:200]}
        except MemoryError:
            rec = {"s": "fail", "err": "MemoryError"}
        except Exception as exc:  # an untyped error is a failed op, not a crash
            rec = {"s": "fail", "err": f"{type(exc).__name__}: {exc}"[:200]}
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        rec = workload.finish(op, rec)
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal.append(calibrate())
            last_cal = time.perf_counter()
        if tracer:
            tracer.active = True
        rec["ms"] = elapsed * 1e3
        records.append(rec)
    while len(cal) < CAL_MIN_SAMPLES:
        cal.append(calibrate())

    result = {
        "t_first": t_first,
        "records": records,
        "cal_ms": min(cal) * 1e3,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.active = False
        result["trace"] = spans.summarize(tracer.spans, tracer.counts)
        result["trace"]["triangles"] = sum(
            sum(1 for _ in ctx.all_triangles()) for ctx in contexts.values()
        )
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
