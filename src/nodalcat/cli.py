"""Command-line front end.

Grammar for object expressions (shared with the formal calculus renderer):

    obj   := atom | obj "[" int "]" | obj "(" int ")" | obj "^" int
           | "cone(" obj "->" obj ")" | obj "+" obj
    atom  := "j*" sheaf | sheaf | name
    sheaf := ("O" | "S" | "S'" | "S''") [ "(" int ")" ]

``obj "^" m`` is the direct sum of m >= 0 copies of obj, so
``j*O^2 + j*O[1]`` and ``j*O + j*O + j*O[1]`` are the same object.
Postfix operators bind tighter than "+".  Answers on stdout write every
copy out; the Hom arguments of an ``IndeterminateHom`` message use
``^``, and paste back into ``hom`` as they are.

Cones nest at most ``MAX_CONE_DEPTH`` deep; deeper input is a parse
error, so it never reaches the recursive solvers.  Postfix chains
(shifts, twists and multiplicities) have no cap.  An integer literal has
at most ``MAX_LITERAL_DIGITS`` digits; an answer has no cap on its
numbers, which are written out exactly.

A text that is a generator name the context has already resolved (its
whole roster, and any name resolved since), alone or followed by one
shift ``[m]``, is looked up and not parsed.  Any other text is read in
one tokenizer pass, and its postfixes apply one at a time, in written
order.  The parser builds the object as it reads, and a syntax error
anywhere in a text wins over a generator that does not resolve, wherever
each lies.

Exit codes: 0 success, 1 verification failure, 2 indeterminate or
unsupported computation, 3 parse or usage error, 4 internal error (an
exception of no documented kind, reported in one stderr line), 141 stdout
closed by its reader before the answer was written (the shell's code for
SIGPIPE).
"""

from __future__ import annotations

import os
import re
import sys
from functools import cache, lru_cache
from types import SimpleNamespace

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
from .formalcat import ZERO, Gen, ObjExpr

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

# Most digits an integer literal of the input may have: CPython's default
# limit on int/str conversion.  A command runs with that limit lifted, so
# that an answer of any size is written exactly (see ``_main``); a longer
# literal is a parse error before it costs a conversion.
MAX_LITERAL_DIGITS = 4300

# Largest dimension a command accepts: d of a nodal context, and the N of
# ``cohom --quadric N``.  A larger one is a parse error before any work.
# The limit bounds what grows with the dimension: the stored roster of 2d
# or 3d generators (d = 10^5 builds and answers a Hom in ~0.6 s within
# 128 MiB), the O(d) work of verify, kernel and serre, and the size of an
# answer, whose numbers have O(N) digits (N = 10^7 took 33 s, mostly
# converting one to text).
MAX_DIM = 100_000


class ExprParseError(Exception):
    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"parse error at column {column}: {message}")


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# an integer literal the parser accepts, for the lookup of a shifted name
_LITERAL_RE = re.compile(rf"-?\d{{1,{MAX_LITERAL_DIGITS}}}")
# "cone" before "(" is not a name; the generator pattern comes next, since
# most tokens are generators.
_TOKEN_RE = re.compile(
    r"""
    (?P<cone>cone(?=\())
  | (?P<gen>j\*(?:S''|S'|S|O)|(?:S''|S'|S|O)(?!['\w])|[A-Za-z_]\w*)
  | (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<plus>\+)
  | (?P<int>-?\d+)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<lbr>\[)
  | (?P<rbr>\])
  | (?P<caret>\^)
  | (?P<bad>(?s:.))
    """,
    re.VERBOSE,
)


def _int_literal(text: str, column: int) -> int:
    if len(text.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise ExprParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", column)
    return int(text)


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, column) per token, then ("end", "", column)."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ExprParseError(f"unexpected character {match.group()!r}", match.start() + 1)
        elif kind != "ws":
            tokens.append((kind, match.group(), match.start() + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over the object grammar, building the normalized
    object over ``ctx`` as it reads.  Without a context it only checks the
    syntax, and every object reads as zero."""

    def __init__(self, tokens: list[tuple], ctx: formalcat.Context | None = None):
        self.tokens = tokens
        self.ctx = ctx
        self.i = 0
        self.depth = 0  # cones open at the current token

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ExprParseError(f"expected {kind}, found {tok[1]!r}" if tok[1] else f"expected {kind}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> ObjExpr:
        node = self.parse_sum()
        tok = self.tokens[self.i]
        if tok[0] != "end":
            raise ExprParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def parse_sum(self) -> ObjExpr:
        parts = [self.parse_postfix()]
        while self.tokens[self.i][0] == "plus":
            self.i += 1
            parts.append(self.parse_postfix())
        return parts[0] if len(parts) == 1 else formalcat.sum_exprs((p, 1) for p in parts)

    def parse_postfix(self) -> ObjExpr:
        # postfixes apply one at a time, in a loop: a chain has no cap
        node = self.parse_atom()
        while True:
            kind = self.tokens[self.i][0]
            if kind == "lbr":
                self.i += 1
                m = _int_literal(*self.take("int")[1:])
                self.take("rbr")
                node = formalcat.shift_expr(node, m)
            elif kind == "lpar":
                self.i += 1
                k = _int_literal(*self.take("int")[1:])
                self.take("rpar")
                if self.ctx is not None:
                    node = formalcat.twist_expr(self.ctx, node, k)
            elif kind == "caret":
                self.i += 1
                tok = self.take("int")
                if tok[1].startswith("-"):
                    raise ExprParseError(f"expected a multiplicity of 0 or more, found {tok[1]!r}", tok[2])
                node = formalcat.sum_of(node, _int_literal(tok[1], tok[2]))
            else:
                return node

    def parse_atom(self) -> ObjExpr:
        tok = self.tokens[self.i]
        kind = tok[0]
        if kind == "gen":
            self.i += 1
            return ZERO if self.ctx is None else Gen(self.ctx.twist_gen(tok[1], 0))
        if kind == "cone":
            if self.depth == MAX_CONE_DEPTH:
                raise ExprParseError(f"cones nested more than {MAX_CONE_DEPTH} deep", tok[2])
            self.depth += 1
            self.i += 1
            self.take("lpar")
            a = self.parse_sum()
            self.take("arrow")
            b = self.parse_sum()
            self.take("rpar")
            self.depth -= 1
            return formalcat.cone_of(a, b)
        if kind == "int":
            if tok[1] != "0":
                raise ExprParseError(f"unexpected {tok[1]!r}", tok[2])
            self.i += 1
            return ZERO
        raise ExprParseError(f"expected an object, found {tok[1]!r}" if tok[1] else "expected an object", tok[2])


def _lookup(ctx: formalcat.Context, text: str) -> ObjExpr | None:
    """What the parser reads from a text ``_lookup_name`` reads, or from a
    one-level cone ``cone(A -> B)`` of two such texts, written with exactly
    one " -> " and no other space (no such text holds a space); None for
    any other text."""
    if text.startswith("cone(") and text.endswith(")"):
        src, _, tgt = text[5:-1].partition(" -> ")  # without an arrow tgt is ""
        a, b = _lookup_name(ctx, src), _lookup_name(ctx, tgt)
        return None if a is None or b is None else formalcat.cone_of(a, b)
    return _lookup_name(ctx, text)


def _lookup_name(ctx: formalcat.Context, text: str) -> ObjExpr | None:
    """What the parser reads from a generator name the context has
    resolved, alone or followed by one shift ``[m]`` (m an integer literal
    of at most ``MAX_LITERAL_DIGITS`` digits, as the parser reads one);
    None for any other text.  A resolved name holds its twist as the
    parser reads it, except a twist past the literal cap (twists add up),
    which written out is a parse error: a text that long is left to the
    parser."""
    if len(text) > MAX_LITERAL_DIGITS:
        return None
    if ctx.has_resolved(text):
        return Gen(text)
    name, _, shift = text.rpartition("[")
    if shift[-1:] == "]" and ctx.has_resolved(name) and _LITERAL_RE.fullmatch(shift, 0, len(shift) - 1):
        return formalcat.shift_expr(Gen(name), int(shift[:-1]))
    return None


# Parsing reads only a context's resolved names and twist rule, never its
# facts or triangles, and the terms it returns are immutable: one parse per
# (context, text) serves every later query.  A failing parse is not cached
# and raises again on every call.  The bound caps the contexts and texts the
# cache keeps alive.
@lru_cache(maxsize=1024)
def parse_expr(ctx: formalcat.Context, text: str) -> ObjExpr:
    """Parse and resolve an object expression over a context."""
    found = _lookup(ctx, text)
    if found is not None:  # most texts are a roster name, maybe shifted, or a cone of two
        return found
    tokens = _tokenize(text)
    try:
        return _Parser(tokens, ctx).parse()
    except Exception:
        # a syntax error anywhere in the text wins over a generator that
        # does not resolve: read the whole text again for one
        _Parser(tokens).parse()
        raise


def parse_sheaf(text: str) -> quadric.QuadricSheaf:
    """Parse a bare sheaf expression O(k), S(k), S'(k), S''(k)."""
    tokens = _tokenize(text)
    head, rest = tokens[0], tokens[1:-1]
    # a sheaf name, and after it only twists
    if (head[0] != "gen" or head[1].startswith("j*")
            or [tok[0] for tok in rest] != ["lpar", "int", "rpar"] * (len(rest) // 3)):
        _Parser(tokens).parse()  # a syntax error comes first
        raise ExprParseError("expected a sheaf expression", 1)
    twist = sum(_int_literal(tok[1], tok[2]) for tok in rest[1::3])
    try:
        base = quadric.sheaf_from_string(head[1])
    except ValueError:
        raise ExprParseError(f"unknown sheaf {head[1]!r}", 1) from None
    return base.twisted(twist)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


_CONTEXT_RE = re.compile(r"nodal:(\d+)")


def _dim(d: int, column: int) -> int:
    """d, checked to be at most ``MAX_DIM``; ``column`` is where it is written."""
    if d > MAX_DIM:
        raise ExprParseError(f"dimension {d} is above the limit {MAX_DIM}", column)
    return d


# The dimension a spec names depends on its text alone, so it is read once
# per text; a failing spec is not cached and raises on every call.  The
# context itself comes from ``nodal.build_context`` on every query.
@lru_cache(maxsize=256)
def _spec_dim(spec: str) -> int:
    """The d of a ``nodal:<d>`` spec."""
    m = _CONTEXT_RE.fullmatch(spec)
    if not m:
        raise ExprParseError(f"unknown context {spec!r} (expected nodal:<dim>)", 1)
    column = m.start(1) + 1
    return _dim(_int_literal(m.group(1), column), column)


def _context_for(spec: str) -> tuple[int, formalcat.Context]:
    """The dimension d and the context of a ``nodal:<d>`` spec."""
    d = _spec_dim(spec)
    return d, nodal.build_context(d)


def _print_chunks(chunks) -> None:
    """Write consecutive pieces of one stdout line, then the newline."""
    write = sys.stdout.write
    for chunk in chunks:
        write(chunk)
    write("\n")


def _cmd_cohom(args) -> int:
    print(quadric.cohomology(_dim(args.quadric, 1), parse_sheaf(args.expr)).render())
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
    # a resolved name is looked up; "j*O(0)" names the generator "j*O": the
    # twist rule reads any spelling and writes the one the context resolves
    through = [Gen(t if ctx.has_resolved(t) else ctx.twist_gen(t, 0)) for t in args.through]
    mutate = formalcat.mutate_right if args.dir == "right" else formalcat.mutate_left
    _print_chunks(formalcat.render_chunks(mutate(ctx, through, F)))
    return EXIT_OK


def _cmd_serre(args) -> int:
    d, ctx = _context_for(args.context)
    F = parse_expr(ctx, args.expr)
    if args.relative:
        out = nodal.relative_serre(d, F)
    else:
        out = formalcat.serre_in(ctx, nodal.perp_generators(d), F)
    _print_chunks(formalcat.render_chunks(out))
    return EXIT_OK


def _cmd_kernel(args) -> int:
    d = _dim(args.dim, 1)
    T = nodal.kernel_generator(d)
    k = nodal.spherical_degree(d)
    report = formalcat.check_spherical(
        nodal.build_context(d), nodal.perp_generators(d), T, k
    )
    verdict = "pass" if report.passed else "FAIL"
    print(f"{formalcat.render(T)}, {k}-spherical: {verdict}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _parse_dims(spec: str) -> range:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", spec)
    if not m:
        raise ExprParseError(f"bad dimension range {spec!r} (expected a..b)", 1)
    lo = _dim(_int_literal(m.group(1), 1), 1)
    hi = _dim(_int_literal(m.group(2), m.start(2) + 1), m.start(2) + 1) if m.group(2) else lo
    if hi < lo:
        raise ExprParseError(f"empty dimension range {spec!r} (upper end below lower end)",
                             m.start(2) + 1)
    return range(lo, hi + 1)


def _write_json(path: str, obj) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _cmd_verify(args) -> int:
    reports = [nodal.verify_dim(d) for d in _parse_dims(args.dims)]
    for rep in reports:
        status = "PASS" if rep.all_pass else "FAIL"
        print(f"dim {rep.dim}: {status}")
        for item in rep.items:
            mark = "ok " if item.passed else "BAD"
            print(f"  [{mark}] {item.id}: {item.got}")
    if args.json:
        _write_json(args.json, [rep.to_json() for rep in reports])
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
        _write_json(args.json, report)
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


# Every subcommand: its help line, handler, options and positionals.  An
# option is (flag, kind, default, choices, metavar), and its dest is the flag
# without "--", as argparse derives it.  Kinds: "value" stores the string,
# "int" its int(), "flag" True, "append" each value in a list.  No option has
# a help text of its own.  The argparse parser and ``_ARGV_TABLE``, which
# ``_table_parse`` reads, are both built from this table, so the two accept
# the same options.
_REQUIRED = object()  # the default of a required option

_CONTEXT = ("--context", "value", _REQUIRED, None, None)
_JSON = ("--json", "value", None, None, "PATH")

_COMMANDS = {
    "cohom": ("graded cohomology of a sheaf on a quadric", _cmd_cohom,
              (("--quadric", "int", _REQUIRED, None, "N"),), ("expr",)),
    "hom": ("graded Hom between objects of a context", _cmd_hom,
            (_CONTEXT,), ("source", "target")),
    "mutate": ("mutate an object through generators", _cmd_mutate,
               (_CONTEXT, ("--dir", "value", "right", ("right", "left"), None),
                ("--through", "append", _REQUIRED, None, "GEN")), ("expr",)),
    "serre": ("S_A(beta^*X): the Serre functor of the component A after beta^*, the left"
              " adjoint of its inclusion; equal to S_A X only for X in A", _cmd_serre,
              (_CONTEXT, ("--relative", "flag", False, None, None)), ("expr",)),
    "kernel": ("kernel generator and its sphericalness", _cmd_kernel,
               (("--dim", "int", _REQUIRED, None, None),), ()),
    "verify": ("full verification battery over dimensions", _cmd_verify,
               (("--dims", "value", _REQUIRED, None, "A..B"), _JSON), ()),
    "cubic4": ("nodal cubic fourfold pipeline", _cmd_cubic4, (_JSON,), ()),
    "mukai": ("Mukai vector of a sheaf restricted to the K3", _cmd_mukai, (), ("expr",)),
}


@cache
def build_arg_parser():
    """The argparse parser of ``_COMMANDS``, built once per process and then shared.

    Only help, usage errors and the argv forms the table does not read need
    it (see ``_parse_args``), so argparse is imported here and not at start.
    Parsing leaves the parser unchanged (each call fills a fresh namespace),
    so every ``main`` call can reuse it.
    """
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_PARSE)

    parser = _ArgumentParser(prog="nodalcat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, options, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kind, default, choices, metavar in options:
            if kind == "flag":
                p.add_argument(flag, action="store_true")
                continue
            required = default is _REQUIRED
            p.add_argument(flag, action="append" if kind == "append" else "store",
                           type=int if kind == "int" else None, choices=choices,
                           default=None if required else default, required=required,
                           metavar=metavar)
        for dest in positionals:
            p.add_argument(dest)
        p.set_defaults(func=func)
    return parser


# What ``_table_parse`` reads, per command, built once from ``_COMMANDS``:
# the fields every namespace starts from (the command, its handler and the
# default of each optional dest), flag -> (dest, kind, choices), the
# required dests and the positionals.
_ARGV_TABLE = {
    name: ({"command": name, "func": func,
            **{flag[2:]: default for flag, _, default, _, _ in options if default is not _REQUIRED}},
           {flag: (flag[2:], kind, choices) for flag, kind, _, choices, _ in options},
           frozenset(flag[2:] for flag, _, default, _, _ in options if default is _REQUIRED),
           positionals)
    for name, (_, func, options, positionals) in _COMMANDS.items()
}


def _table_parse(argv) -> SimpleNamespace | None:
    """The namespace argparse gives a plainly well-formed argv, or None.

    Read by lookups in ``_ARGV_TABLE``: each namespace starts as a copy of
    the command's defaults, and each flag finds its option by one dict
    lookup.  Accepted: a command name; then its long options, each written
    out in full and followed by its value (a flag takes none); then exactly
    the command's positionals.  Every value and positional must be nonempty
    and must not start with "-".  Anything else (help, an abbreviated or
    short option, ``--opt=value``, ``--``, a negative number, a positional
    before an option, a bad choice or int, a missing or extra argument) is
    declined and left to argparse.
    """
    entry = _ARGV_TABLE.get(argv[0]) if argv else None
    if entry is None:
        return None
    start, flags, required, positionals = entry
    args = SimpleNamespace(**start)
    values = args.__dict__
    i, n = 1, len(argv)
    while i < n and argv[i][:1] == "-":
        option = flags.get(argv[i])
        if option is None:  # help, "--", an abbreviated or "--opt=value" form: argparse's
            return None
        dest, kind, choices = option
        i += 1
        if kind == "flag":
            values[dest] = True
            continue
        value = argv[i] if i < n else ""
        i += 1
        if not value or value[0] == "-" or (choices and value not in choices):
            return None
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind == "append":  # a new list each parse, as argparse copies
            value = [*(values.get(dest) or ()), value]
        values[dest] = value
    rest = argv[i:]
    if len(rest) != len(positionals) or not required <= values.keys():
        return None
    for dest, arg in zip(positionals, rest):
        if arg[:1] in "-":  # empty, or an option
            return None
        values[dest] = arg
    return args


def _parse_args(argv):
    """The namespace of argv: read from the command table where that is
    sure, else by argparse.

    ``_table_parse`` turns a plainly well-formed argv straight into the
    namespace argparse would give (a test checks the two agree).  What it
    declines (help, no argv, an unknown command, a usage error, a form it
    does not read) goes to ``build_arg_parser()``'s full parse, so every
    usage, error and help text and every exit code is argparse's own, and
    argparse is imported only then.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _table_parse(argv)
    return args if args is not None else build_arg_parser().parse_args(argv)


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
    # answers are exact at any size: the command runs with CPython's limit
    # on int/str conversion (3.10.7 and later) lifted, and the caller's
    # limit is back when it returns
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ExprParseError as exc:
        print(f"nodalcat: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (IndeterminateHom, UnsupportedPair, UnknownGenerator, NotExceptional,
            ParityMismatch, RuleNotApplicable) as exc:
        print(f"nodalcat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except NodalcatError as exc:
        print(f"nodalcat: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"nodalcat: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
