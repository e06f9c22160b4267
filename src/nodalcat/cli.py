"""Command-line front end.

Grammar for object expressions (shared with the formal calculus renderer):

    obj   := atom | obj "[" int "]" | obj "(" int ")"
           | "cone(" obj "->" obj ")" | obj "+" obj
    atom  := "j*" sheaf | sheaf | name
    sheaf := ("O" | "S" | "S'" | "S''") [ "(" int ")" ]

Cones nest at most ``MAX_CONE_DEPTH`` deep; deeper input is a parse
error, so it never reaches the recursive solvers.  Postfix chains
(shifts and twists) have no cap.

Exit codes: 0 success, 1 verification failure, 2 indeterminate or
unsupported computation, 3 parse or usage error, 4 internal error (an
exception of no documented kind, reported in one stderr line), 141 stdout
closed by its reader before the answer was written (the shell's code for
SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from itertools import chain

from . import cubic, formalcat, mukai, nodal, quadric
from .errors import (
    IndeterminateHom,
    NodalcatError,
    NotExceptional,
    ParityMismatch,
    RuleNotApplicable,
    UnknownGenerator,
    UnsupportedPair,
)
from .formalcat import Cone, Gen, ObjExpr

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


# Deepest cone nesting the parser accepts.  The Hom solvers recurse about
# three frames per cone level of each argument, so a command whose two
# arguments both sit at the cap stays well inside Python's default
# recursion limit of 1000 frames.
MAX_CONE_DEPTH = 100


class ExprParseError(Exception):
    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"parse error at column {column}: {message}")


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<plus>\+)
  | (?P<int>-?\d+)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<lbr>\[)
  | (?P<rbr>\])
  | (?P<cone>cone(?=\())
  | (?P<gen>j\*(?:S''|S'|S|O)|(?:S''|S'|S|O)(?!['\w]))
  | (?P<name>[A-Za-z_]\w*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprParseError(f"unexpected character {text[pos]!r}", pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over the object grammar; produces a raw tree.

    Raw nodes: ("gen", name), ("shift", node, m), ("twist", node, k),
    ("cone", a, b), ("sum", [nodes]).
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # cones open at the current token

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ExprParseError(f"expected {kind}, found {tok[1]!r}" if tok[1] else f"expected {kind}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        node = self.parse_sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def parse_sum(self):
        parts = [self.parse_postfix()]
        while self.peek()[0] == "plus":
            self.take("plus")
            parts.append(self.parse_postfix())
        if len(parts) == 1:
            return parts[0]
        return ("sum", parts)

    def parse_postfix(self):
        node = self.parse_atom()
        while True:
            kind = self.peek()[0]
            if kind == "lbr":
                self.take("lbr")
                m = int(self.take("int")[1])
                self.take("rbr")
                node = ("shift", node, m)
            elif kind == "lpar":
                self.take("lpar")
                k = int(self.take("int")[1])
                self.take("rpar")
                node = ("twist", node, k)
            else:
                return node

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "cone":
            if self.depth == MAX_CONE_DEPTH:
                raise ExprParseError(f"cones nested more than {MAX_CONE_DEPTH} deep", tok[2])
            self.depth += 1
            self.take("cone")
            self.take("lpar")
            a = self.parse_sum()
            self.take("arrow")
            b = self.parse_sum()
            self.take("rpar")
            self.depth -= 1
            return ("cone", a, b)
        if tok[0] in ("gen", "name", "int"):
            if tok[0] == "int" and tok[1] != "0":
                raise ExprParseError(f"unexpected {tok[1]!r}", tok[2])
            self.take(tok[0])
            return ("gen", tok[1])
        raise ExprParseError(
            f"expected an object, found {tok[1]!r}" if tok[1] else "expected an object",
            tok[2],
        )


def parse_raw(text: str):
    return _Parser(text).parse()


def _canon_gen(ctx: formalcat.Context, name: str) -> str:
    # "j*S(0)" and "j*S" denote the same generator; pin the canonical name
    ctx.resolve(name)
    if ctx.twist_gen is not None:
        return ctx.twist_gen(name, 0)
    return name


def resolve(ctx: formalcat.Context, node) -> ObjExpr:
    """Turn a raw parse tree into a normalized object over a context."""
    kind = node[0]
    if kind == "gen":
        if node[1] == "0":
            return formalcat.ZERO
        return Gen(_canon_gen(ctx, node[1]))
    if kind in ("shift", "twist"):
        # a postfix chain nests one node per operator: walk it in a loop
        ops = []
        while node[0] in ("shift", "twist"):
            ops.append(node)
            node = node[1]
        out = resolve(ctx, node)
        for op, _, m in reversed(ops):
            out = formalcat.shift_expr(out, m) if op == "shift" else formalcat.twist_expr(ctx, out, m)
        return out
    if kind == "cone":
        return formalcat.normalize(Cone(resolve(ctx, node[1]), resolve(ctx, node[2])))
    return formalcat.sum_exprs((resolve(ctx, p), 1) for p in node[1])


def parse_expr(ctx: formalcat.Context, text: str) -> ObjExpr:
    """Parse and resolve an object expression over a context."""
    return resolve(ctx, parse_raw(text))


def parse_sheaf(text: str) -> quadric.QuadricSheaf:
    """Parse a bare sheaf expression O(k), S(k), S'(k), S''(k)."""
    node = parse_raw(text)
    twist = 0
    while node[0] == "twist":
        twist += node[2]
        node = node[1]
    if node[0] != "gen" or node[1].startswith("j*") or node[1] == "0":
        raise ExprParseError("expected a sheaf expression", 1)
    try:
        base = quadric.sheaf_from_string(node[1])
    except ValueError:
        raise ExprParseError(f"unknown sheaf {node[1]!r}", 1) from None
    return base.twisted(twist)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _context_for(spec: str) -> tuple[int, formalcat.Context]:
    """The dimension d and the context of a ``nodal:<d>`` spec."""
    m = re.match(r"^nodal:(\d+)$", spec)
    if not m:
        raise ExprParseError(f"unknown context {spec!r} (expected nodal:<dim>)", 1)
    d = int(m.group(1))
    return d, nodal.build_context(d)


def _print_chunks(chunks, file=None) -> None:
    """Write consecutive pieces of one line, then the newline."""
    write = (file or sys.stdout).write
    for chunk in chunks:
        write(chunk)
    write("\n")


def _cmd_cohom(args) -> int:
    sheaf = parse_sheaf(args.expr)
    print(quadric.cohomology(args.quadric, sheaf).render())
    return EXIT_OK


def _cmd_hom(args) -> int:
    _, ctx = _context_for(args.context)
    F = parse_expr(ctx, args.source)
    G = parse_expr(ctx, args.target)
    print(formalcat.hom(ctx, F, G).render())
    return EXIT_OK


def _cmd_mutate(args) -> int:
    _, ctx = _context_for(args.context)
    F = parse_expr(ctx, args.expr)
    through = [Gen(_canon_gen(ctx, t)) for t in args.through]
    mutate = formalcat.mutate_right if args.dir == "right" else formalcat.mutate_left
    _print_chunks(formalcat.render_chunks(mutate(ctx, through, F)))
    return EXIT_OK


def _cmd_serre(args) -> int:
    d, ctx = _context_for(args.context)
    F = parse_expr(ctx, args.expr)
    if args.relative:
        out = nodal.relative_serre(d, F)
    else:
        out = formalcat.serre_in(ctx, nodal.perp_collection(d), F)
    _print_chunks(formalcat.render_chunks(out))
    return EXIT_OK


def _cmd_kernel(args) -> int:
    d = args.dim
    T = nodal.kernel_generator(d)
    k = nodal.spherical_degree(d)
    report = formalcat.check_spherical(
        nodal.build_context(d), nodal.perp_collection(d), T, k
    )
    verdict = "pass" if report.passed else "FAIL"
    print(f"{formalcat.render(T)}, {k}-spherical: {verdict}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _parse_dims(spec: str) -> range:
    m = re.match(r"^(\d+)(?:\.\.(\d+))?$", spec)
    if not m:
        raise ExprParseError(f"bad dimension range {spec!r} (expected a..b)", 1)
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise ExprParseError(f"empty dimension range {spec!r} (upper end below lower end)",
                             m.start(2) + 1)
    return range(lo, hi + 1)


def _cmd_verify(args) -> int:
    reports = [nodal.verify_dim(d) for d in _parse_dims(args.dims)]
    for rep in reports:
        status = "PASS" if rep.all_pass else "FAIL"
        print(f"dim {rep.dim}: {status}")
        for item in rep.items:
            mark = "ok " if item.passed else "BAD"
            print(f"  [{mark}] {item.id}: {item.got}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([rep.to_json() for rep in reports], fh, indent=2)
            fh.write("\n")
    return EXIT_OK if all(rep.all_pass for rep in reports) else EXIT_VERIFY_FAILED


def _cmd_cubic4(args) -> int:
    report = cubic.verify_cubic()
    for item in report["items"]:
        mark = "ok " if item["pass"] else "BAD"
        print(f"[{mark}] {item['id']}: {item['got']}")
    print("trace:")
    for entry in report["trace"]:
        print(f"  {entry['rule']} {entry['step']}: {entry['result']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


def _cmd_mukai(args) -> int:
    sheaf = parse_sheaf(args.expr)
    ch = mukai.ch_sheaf(3, sheaf)
    v = mukai.restrict_to_k3(ch)
    print(f"ch = {ch.render()}")
    print(f"v = {v.render()}")
    print(f"<v,v> = {mukai.mukai_pairing(v, v)}")
    print(f"chi = {mukai.chi_k3(v, v)}")
    return EXIT_OK


@cache
def _parsers() -> tuple[_ArgumentParser, dict[str, _ArgumentParser]]:
    """The command-line parser and its subcommands' parsers by name."""
    parser = _ArgumentParser(prog="nodalcat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohom", help="graded cohomology of a sheaf on a quadric")
    p.add_argument("--quadric", type=int, required=True, metavar="N")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_cohom)

    p = sub.add_parser("hom", help="graded Hom between objects of a context")
    p.add_argument("--context", required=True)
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("mutate", help="mutate an object through generators")
    p.add_argument("--context", required=True)
    p.add_argument("--dir", choices=("right", "left"), default="right")
    p.add_argument("--through", action="append", required=True, metavar="GEN")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("serre", help="Serre functor of the resolution component")
    p.add_argument("--context", required=True)
    p.add_argument("--relative", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_serre)

    p = sub.add_parser("kernel", help="kernel generator and its sphericalness")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("verify", help="full verification battery over dimensions")
    p.add_argument("--dims", required=True, metavar="A..B")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cubic4", help="nodal cubic fourfold pipeline")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_cubic4)

    p = sub.add_parser("mukai", help="Mukai vector of a sheaf restricted to the K3")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_mukai)

    return parser, sub.choices


def build_arg_parser() -> _ArgumentParser:
    """The command-line parser, built once per process and then shared.

    Parsing leaves the parser unchanged (each call fills a fresh
    namespace), so every ``main`` call can reuse it.
    """
    return _parsers()[0]


def _parse_args(argv) -> argparse.Namespace:
    """``build_arg_parser().parse_args(argv)`` in one argparse pass.

    The full parser scans all of argv only to hand its tail to the
    subcommand's parser, which scans it again; a known subcommand name goes
    straight to that parser instead.  The full parser runs only where
    argparse has something to report (no argv, an unknown or option-like
    command, arguments left over), so every usage, error and help text and
    every exit code is its own.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        code = _main(argv)
        # flushed here, so that a reader gone early (``| head``) raises
        # inside this try and not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write go
        # nowhere instead of raising a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        # a bug, not an answer: one line instead of a traceback, and a code
        # no verdict uses
        print(f"nodalcat: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


def _main(argv) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_PARSE
    try:
        return args.func(args)
    except ExprParseError as exc:
        print(f"nodalcat: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (IndeterminateHom, UnsupportedPair, UnknownGenerator, NotExceptional,
            ParityMismatch, RuleNotApplicable) as exc:
        _print_chunks(chain((f"nodalcat: {type(exc).__name__}: ",), exc.chunks()), sys.stderr)
        return EXIT_UNDECIDED
    except NodalcatError as exc:
        _print_chunks(chain(("nodalcat: ",), exc.chunks()), sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"nodalcat: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
