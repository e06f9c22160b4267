"""Answer checks, run in the parent process after a pass has ended.

None of them runs the code path under test:

* verify-sweep: the reports must equal a stored ``verify --json`` file,
  byte for byte.
* query-mix: every printed answer is read back (``cli.parse_expr`` on its
  generators) and checked by Euler characteristic or K-theory class.  Both
  come from the additive ``quadric.chi_quadric``, which no query-mix
  command calls:
    chi(j*F, j*G) = chi_Q(F, G) - chi_Q(F(1), G), bilinear over sums,
    [X[m]] = (-1)^m [X], [cone(X -> Y)] = [Y] - [X];
    [R_E F] = [F] - chi(F, E) [E],  [L_E F] = [F] - chi(E, F) [E].
  Classes are compared by their pairing with every roster generator.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter

from nodalcat import cli, nodal, quadric
from nodalcat.formalcat import Cone, Gen, Shift

HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY_EXPECTED = os.path.join(HERE, "expected", "verify_2_48.json")

_GRADED_TERM = re.compile(r"^C(?:\^(\d+))?(?:\[(-?\d+)\])?$")


def check_verify(records, ops) -> list[str]:
    """Statuses after comparing the reports with the stored file."""
    with open(VERIFY_EXPECTED, "rb") as fh:
        expected = fh.read()
    reports = {rec["report"]["dim"]: rec["report"] for rec in records if "report" in rec}
    text = json.dumps([reports.get(op["d"]) for op in sorted(ops, key=lambda op: op["d"])], indent=2)
    if (text + "\n").encode() == expected:
        return [rec["s"] for rec in records]
    want = {item["dim"]: item for item in json.loads(expected)}
    return [rec["s"] if rec.get("report") == want.get(op["d"]) and rec["s"] == "ok" else "wrong"
            for op, rec in zip(ops, records)]


def euler_of_graded(text: str) -> int:
    """Euler characteristic of a rendered GradedDim ("C^3[-2] + C")."""
    text = text.strip()
    if text == "0":
        return 0
    total = 0
    for term in text.split(" + "):
        m = _GRADED_TERM.match(term)
        if not m:
            raise ValueError(f"not a graded dimension term: {term!r}")
        mult = int(m.group(1) or 1)
        degree = -int(m.group(2) or 0)
        total += mult if degree % 2 == 0 else -mult
    return total


class QueryOracle:
    """K-theory checks of query-mix answers, with chi values memoized."""

    def __init__(self):
        self._chi: dict = {}

    # -- classes -------------------------------------------------------------

    def chi_push(self, n: int, a: tuple, b: tuple) -> int:
        key = (n, a, b)
        if key not in self._chi:
            F, G = quadric.QuadricSheaf(*a), quadric.QuadricSheaf(*b)
            self._chi[key] = quadric.chi_quadric(n, F, G) - quadric.chi_quadric(n, F.twisted(1), G)
        return self._chi[key]

    def pair(self, n: int, x: Counter, y: Counter) -> int:
        return sum(cx * cy * self.chi_push(n, a, b)
                   for a, cx in x.items() if cx for b, cy in y.items() if cy)

    @staticmethod
    def _leaf(name: str) -> tuple:
        F = nodal.parse_push_name(name)
        return F.kind, F.twist

    def kclass(self, expr) -> Counter:
        """Class of a parsed object, as {(kind, twist): coefficient}."""
        if isinstance(expr, Gen):
            return Counter({self._leaf(expr.name): 1})
        if isinstance(expr, Shift):
            return _scaled(self.kclass(expr.expr), (-1) ** expr.m)
        if isinstance(expr, Cone):
            return _combine(self.kclass(expr.tgt), self.kclass(expr.src), -1)
        out = Counter()
        for part, mult in expr.parts:
            out = _combine(out, self.kclass(part), mult)
        return out

    def kclass_tree(self, ctx, tree) -> Counter:
        """Class of an answer tree from answers.parse_render."""
        out = Counter()
        for node, count in tree:
            if node[0] == "g":
                cls = self.kclass(cli.parse_expr(ctx, node[1]))
            else:
                cls = _combine(self.kclass_tree(ctx, node[2]), self.kclass_tree(ctx, node[1]), -1)
            out = _combine(out, cls, count * (-1) ** node[-1])
        return out

    def same_class(self, d: int, x: Counter, y: Counter) -> bool:
        n = d - 1
        roster = [Counter({self._leaf(g): 1}) for g in nodal.build_context(d).generators]
        return all(self.pair(n, g, x) == self.pair(n, g, y) and self.pair(n, x, g) == self.pair(n, y, g)
                   for g in roster)

    def mutated(self, d: int, cls: Counter, through, right: bool) -> Counter:
        n = d - 1
        for name in through:
            E = Counter({self._leaf(name): 1})
            factor = self.pair(n, cls, E) if right else self.pair(n, E, cls)
            cls = _combine(cls, E, -factor)
        return cls

    # -- answers -------------------------------------------------------------

    def check(self, argv, rec) -> str:
        """"ok", "wrong" or "fail" for one answered query."""
        if rec["rc"] != 0:
            return "fail"
        command = argv[0]
        if command in ("hom", "mutate", "serre"):
            d = int(argv[argv.index("--context") + 1].split(":")[1])
            ctx = nodal.build_context(d)
        if command == "hom":
            want = self.pair(d - 1, self.kclass(cli.parse_expr(ctx, argv[-2])),
                             self.kclass(cli.parse_expr(ctx, argv[-1])))
            return _verdict(euler_of_graded(rec["out"]) == want)
        if command == "mutate":
            start = self.kclass(cli.parse_expr(ctx, argv[-1]))
            through = [argv[i + 1] for i, a in enumerate(argv) if a == "--through"]
            right = argv[argv.index("--dir") + 1] == "right"
            want = self.mutated(d, start, through if right else through[::-1], right)
            return _verdict(self.same_class(d, self.kclass_tree(ctx, rec["tree"]), want))
        if command == "serre":
            n = d - 1
            start = self.kclass(cli.parse_expr(ctx, argv[-1]))
            relative = "--relative" in argv
            # pair-Serre: j*F -> j*F(1-n)[n+1]; relative: j*F -> j*F(1-n)
            sign = 1 if relative else (-1) ** (n + 1)
            moved = Counter({(kind, t + 1 - n): sign * c for (kind, t), c in start.items()})
            want = self.mutated(d, moved, nodal.perp_collection(d), right=True)
            return _verdict(self.same_class(d, self.kclass_tree(ctx, rec["tree"]), want))
        if command == "kernel":
            d = int(argv[2])
            T, k = ("j*S", 2) if d % 2 == 0 else ("cone(j*S' -> j*S''[2])", 3)
            return _verdict(rec["out"] == f"{T}, {k}-spherical: pass\n")
        if command == "cohom":
            n, F = int(argv[2]), quadric.sheaf_from_string(argv[3])
            want = quadric.chi_quadric(n, quadric.QuadricSheaf(quadric.LINE, 0), F)
            return _verdict(euler_of_graded(rec["out"]) == want)
        if command == "mukai":
            return _verdict(_mukai_ok(argv[1], rec["out"]))
        if command == "cubic4":
            return _verdict(_cubic_ok(rec["out"]))
        return "fail"


def _scaled(cls: Counter, factor: int) -> Counter:
    return Counter({k: v * factor for k, v in cls.items()})


def _combine(x: Counter, y: Counter, factor: int) -> Counter:
    out = Counter(x)
    for k, v in y.items():
        out[k] += factor * v
    return out


def _verdict(ok: bool) -> str:
    return "ok" if ok else "wrong"


def _mukai_ok(sheaf: str, out: str) -> bool:
    """Exceptional bundles on Q^3 restrict to spherical objects on the K3.

    So <v,v> = -2 and chi = 2.  The Mukai vector starts with the rank and
    c1: O(k) has (1, kH), and S(k) has (2, (2k-1)H) because S^v = S(1).
    """
    F = quadric.sheaf_from_string(sheaf)
    r, c = (1, F.twist) if F.is_line else (2, 2 * F.twist - 1)
    lines = out.splitlines()
    if len(lines) != 4:
        return False
    c_text = "0" if c == 0 else ("H" if c == 1 else ("-H" if c == -1 else f"{c}H"))
    return (lines[1].startswith(f"v = ({r}, {c_text}, ")
            and lines[2] == "<v,v> = -2" and lines[3] == "chi = 2")


def _cubic_ok(out: str) -> bool:
    """Criterion 7: every item passes and the chain R1 R1 R2 R3 R4 ends at t*S[1]."""
    lines = out.splitlines()
    trace_at = lines.index("trace:") if "trace:" in lines else None
    if trace_at is None:
        return False
    items, trace = lines[:trace_at], [line.split() for line in lines[trace_at + 1:]]
    return (bool(items) and all(line.startswith("[ok ]") for line in items)
            and [t[0] for t in trace] == ["R1", "R1", "R2", "R3", "R4"]
            and trace[-1][-1] == "t*S[1]")
