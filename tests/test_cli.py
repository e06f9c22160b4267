import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nodalcat import cli, formalcat, nodal
from nodalcat.cli import ExprParseError, main, parse_expr, parse_sheaf
from nodalcat.errors import IndeterminateHom, UnknownGenerator
from nodalcat.formalcat import Cone, Gen, Shift, render
from nodalcat.quadric import QuadricSheaf as QS


class TestParser:
    def test_cone_expression(self):
        ctx = nodal.build_context(5)
        got = parse_expr(ctx, "cone(j*S' -> j*S''[2])")
        assert got == formalcat.normalize(Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)))

    def test_sheaf(self):
        assert parse_sheaf("S(1)") == QS("S", 1)
        assert parse_sheaf("O(-3)") == QS("O", -3)
        assert parse_sheaf("S''") == QS("S''", 0)

    def test_error_position(self):
        with pytest.raises(ExprParseError) as exc:
            parse_expr(nodal.build_context(5), "cone(j*S' ->")
        assert exc.value.column == 13

    def test_twist_distributes(self):
        ctx = nodal.build_context(5)
        assert parse_expr(ctx, "j*S'(-1)(1)") == Gen("j*S'")
        got = parse_expr(ctx, "cone(j*S' -> j*S''[2])(-1)")
        assert got == formalcat.normalize(Cone(Gen("j*S'(-1)"), Shift(Gen("j*S''(-1)"), 2)))

    def test_sum_and_shift(self):
        ctx = nodal.build_context(4)
        got = parse_expr(ctx, "j*S + j*O(-1)[2]")
        assert got == formalcat.sum_exprs([(Gen("j*S"), 1), (Shift(Gen("j*O(-1)"), 2), 1)])

    def test_zero(self):
        ctx = nodal.build_context(4)
        assert parse_expr(ctx, "0") == formalcat.ZERO

    def test_explicit_zero_twist_canonicalized(self):
        ctx = nodal.build_context(4)
        assert parse_expr(ctx, "j*S(0)") == Gen("j*S")
        assert parse_expr(ctx, "j*O(0)[1]") == Shift(Gen("j*O"), 1)

    def test_mutate_through_zero_twist_name(self, capsys):
        rc = main(["mutate", "--context", "nodal:5", "--dir", "right",
                   "--through", "j*S''(0)", "j*S'"])
        assert rc == 0
        assert capsys.readouterr().out == "cone(j*S' -> j*S''[2])[-1]\n"

    def test_unknown_generator(self):
        from nodalcat.errors import UnknownGenerator

        ctx = nodal.build_context(4)
        with pytest.raises(UnknownGenerator):
            parse_expr(ctx, "j*S'")  # wrong parity for d = 4

    def test_garbage(self):
        with pytest.raises(ExprParseError):
            parse_expr(nodal.build_context(5), "j*S' @ j*S''")

    def test_parsed_once_per_context_and_text(self):
        from nodalcat.errors import UnknownGenerator

        ctx = nodal.build_context(5)
        assert parse_expr(ctx, "cone(j*S' -> j*S''[2])") is parse_expr(ctx, "cone(j*S' -> j*S''[2])")
        # a failing parse is not cached: it raises on every call
        for _ in range(2):
            with pytest.raises(UnknownGenerator):
                parse_expr(nodal.build_context(4), "j*S'")
            with pytest.raises(ExprParseError):
                parse_expr(ctx, "cone(j*S' ->")


# round-trip: render o parse is the identity on normal forms
_atoms = st.sampled_from(["j*S'", "j*S''", "j*S'(-1)", "j*O", "j*O(-1)", "j*O(-2)"])


@st.composite
def _objects(draw, depth=2):
    kind = draw(st.integers(0, 3 if depth else 1))
    if kind == 0:
        return Gen(draw(_atoms))
    if kind == 1:
        return formalcat.shift_expr(Gen(draw(_atoms)), draw(st.integers(-3, 3)))
    if kind == 2:
        a = draw(_objects(depth=depth - 1))
        b = draw(_objects(depth=depth - 1))
        return formalcat.sum_exprs([(a, draw(st.integers(1, 2))), (b, 1)])
    a = draw(_objects(depth=0))
    b = draw(_objects(depth=0))
    return formalcat.normalize(Cone(a, b))


@given(_objects())
def test_parse_render_round_trip(expr):
    ctx = nodal.build_context(5)
    assert parse_expr(ctx, render(expr)) == expr


# normal forms with shifts, nested cones and multiplicities up to 10^9
_normal_terms = st.recursive(
    st.builds(Gen, _atoms),
    lambda inner: st.one_of(
        st.builds(formalcat.shift_expr, inner, st.integers(-3, 3)),
        st.builds(lambda a, b: formalcat.normalize(Cone(a, b)), inner, inner),
        st.lists(st.tuples(inner, st.integers(1, 3) | st.integers(1, 10**9)), min_size=1, max_size=3)
        .map(formalcat.sum_exprs),
    ),
    max_leaves=10,
)


def _copies(e) -> int:
    """How many generator leaves the full rendering of e writes."""
    if isinstance(e, Gen):
        return 1
    if isinstance(e, Shift):
        return _copies(e.expr)
    if isinstance(e, Cone):
        return _copies(e.src) + _copies(e.tgt)
    return sum(r * _copies(p) for p, r in e.parts)


@settings(max_examples=200, deadline=None)
@given(_normal_terms)
def test_compact_render_round_trip(expr):
    ctx = nodal.build_context(5)
    assert parse_expr(ctx, "".join(formalcat.render_chunks(expr, compact=True))) == expr
    if _copies(expr) <= 10_000:
        assert parse_expr(ctx, render(expr)) == expr


_LONG_LITERAL = "9" * (cli.MAX_LITERAL_DIGITS + 1)

# (context dimension d, text, error type, message, column, exit code of
# `hom --context nodal:<d> TEXT j*O`).  A syntax error anywhere in the text
# wins over an unknown generator anywhere in it; of two unknown generators
# the leftmost is named.
_EXPR_ERRORS = [
    (4, "j*S' + @", ExprParseError, "parse error at column 8: unexpected character '@'", 8, 3),
    (4, "foo + j*O[", ExprParseError, "parse error at column 11: expected int", 11, 3),
    (5, "j*S'(1)[2", ExprParseError, "parse error at column 10: expected rbr", 10, 3),
    (4, "j*S'(1)[2", ExprParseError, "parse error at column 10: expected rbr", 10, 3),
    (5, "cone(j*S' -> j*O", ExprParseError, "parse error at column 17: expected rpar", 17, 3),
    (5, "j*O^-1", ExprParseError,
     "parse error at column 5: expected a multiplicity of 0 or more, found '-1'", 5, 3),
    (5, "j*O^", ExprParseError, "parse error at column 5: expected int", 5, 3),
    (5, "j*X", ExprParseError, "parse error at column 2: unexpected character '*'", 2, 3),
    (3, "cone(" * (cli.MAX_CONE_DEPTH + 1) + "j*O" + " -> j*O(1))" * (cli.MAX_CONE_DEPTH + 1),
     ExprParseError, f"parse error at column {5 * cli.MAX_CONE_DEPTH + 1}: cones nested more than "
     f"{cli.MAX_CONE_DEPTH} deep", 5 * cli.MAX_CONE_DEPTH + 1, 3),
    (3, f"j*O({_LONG_LITERAL})", ExprParseError,
     "parse error at column 5: integer literal longer than 4300 digits", 5, 3),
    (3, f"j*O[{_LONG_LITERAL}]", ExprParseError,
     "parse error at column 5: integer literal longer than 4300 digits", 5, 3),
    (3, f"j*O^{_LONG_LITERAL}", ExprParseError,
     "parse error at column 5: integer literal longer than 4300 digits", 5, 3),
    (5, "X", UnknownGenerator, "'X' is not a pushforward sheaf generator", None, 2),
    (4, "j*S'(1)[2] + X", UnknownGenerator, "j*S': S' needs an even-dimensional quadric, got n=3", None, 2),
    (4, "cone(j*O -> X(1)) + j*S'", UnknownGenerator, "'X' is not a pushforward sheaf generator", None, 2),
    (4, "j*S'^0", UnknownGenerator, "j*S': S' needs an even-dimensional quadric, got n=3", None, 2),
]


@pytest.mark.parametrize("d, text, error, message, column, code", _EXPR_ERRORS,
                         ids=[f"{d}:{text[:24]}" for d, text, *_ in _EXPR_ERRORS])
def test_expression_error_corpus(capsys, d, text, error, message, column, code):
    with pytest.raises(error) as exc:
        parse_expr(nodal.build_context(d), text)
    assert (str(exc.value), getattr(exc.value, "column", None)) == (message, column)
    assert main(["hom", "--context", f"nodal:{d}", text, "j*O"]) == code
    prefix = "" if error is ExprParseError else f"{error.__name__}: "
    assert capsys.readouterr() == ("", f"nodalcat: {prefix}{message}\n")


# (text, message, column) of `parse_sheaf`; `cohom --quadric 3 TEXT` exits 3
_SHEAF_ERRORS = [
    ("S(x)", "parse error at column 3: expected int, found 'x'", 3),
    ("j*O", "parse error at column 1: expected a sheaf expression", 1),
    ("S[1][-1]", "parse error at column 1: expected a sheaf expression", 1),
    ("S^1", "parse error at column 1: expected a sheaf expression", 1),
    ("S + 0", "parse error at column 1: expected a sheaf expression", 1),
    ("0(1)", "parse error at column 1: expected a sheaf expression", 1),
    ("foo(1)", "parse error at column 1: unknown sheaf 'foo'", 1),
    ("S(1) @", "parse error at column 6: unexpected character '@'", 6),
]


@pytest.mark.parametrize("text, message, column", _SHEAF_ERRORS)
def test_sheaf_error_corpus(capsys, text, message, column):
    with pytest.raises(ExprParseError) as exc:
        parse_sheaf(text)
    assert (str(exc.value), exc.value.column) == (message, column)
    assert main(["cohom", "--quadric", "3", text]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", f"nodalcat: {message}\n")


def test_sheaf_twist_spellings():
    for text in ("S(1)(2)", "S (1) ( 2 )", "S(4)(-1)(0)"):
        assert parse_sheaf(text) == QS("S", 3)


def test_multiplicity_binds_tighter_than_sum():
    ctx = nodal.build_context(5)
    got = parse_expr(ctx, "j*O^2 + j*O[1]^0 + cone(j*S' -> j*O^3)(-1)^2")
    want = parse_expr(ctx, "j*O + cone(j*S'(-1) -> j*O(-1) + j*O(-1) + j*O(-1)) + j*O"
                           " + cone(j*S'(-1) -> j*O(-1) + j*O(-1) + j*O(-1))")
    assert got == want
    assert parse_expr(ctx, "j*O^0") == formalcat.ZERO


# written forms render never produces: interleaved postfix chains, explicit
# (0) and ^0, a space before a postfix, inside sums and cones.  A node is
# (base, chain): base an atom or a cone (src parts, tgt parts), chain a
# list of (operator, value, spaced).
_chain = st.lists(st.tuples(st.sampled_from("([^"), st.integers(-2, 3), st.booleans()), max_size=6)
_postfixed = st.recursive(
    st.tuples(st.sampled_from(["j*S'", "j*S''", "j*O", "j*O(-1)", "0"]), _chain),
    lambda inner: st.tuples(st.tuples(st.lists(inner, min_size=1, max_size=2),
                                      st.lists(inner, min_size=1, max_size=2)), _chain),
    max_leaves=6,
)
_CLOSE = {"(": ")", "[": "]", "^": ""}


def _written(parts) -> str:
    texts = []
    for base, chain in parts:
        text = base if isinstance(base, str) else f"cone({_written(base[0])} -> {_written(base[1])})"
        for op, v, spaced in chain:
            text += f"{' ' if spaced else ''}{op}{abs(v) if op == '^' else v}{_CLOSE[op]}"
        texts.append(text)
    return " + ".join(texts)


def _stepwise(ctx, parts):
    """The reference: each postfix applied on its own, in written order."""
    values = []
    for base, chain in parts:
        if isinstance(base, str):
            out = formalcat.ZERO if base == "0" else Gen(ctx.twist_gen(base, 0))
        else:
            out = formalcat.normalize(Cone(_stepwise(ctx, base[0]), _stepwise(ctx, base[1])))
        for op, v, _ in chain:
            if op == "(":
                out = formalcat.twist_expr(ctx, out, v)
            elif op == "[":
                out = formalcat.shift_expr(out, v)
            else:
                out = formalcat.sum_of(out, abs(v))
        values.append(out)
    return values[0] if len(values) == 1 else formalcat.sum_exprs((v, 1) for v in values)


@settings(max_examples=300, deadline=None)
@example([("j*S'", [("(", -1, False), ("(", 1, False), ("[", 2, False), ("[", -1, False),
                    ("^", 2, False), ("(", 3, False)])])
@given(st.lists(_postfixed, min_size=1, max_size=3))
def test_postfix_chains_fold_as_applied_one_at_a_time(parts):
    ctx = nodal.build_context(5)
    assert parse_expr(ctx, _written(parts)) == _stepwise(ctx, parts)


@pytest.mark.usefixtures("fresh_contexts")
@pytest.mark.parametrize("argv, texts", [
    (["hom", "--context", "nodal:5", "j*S'", "j*S''[1]"], ["j*S'", "j*S''[1]"]),
    (["mutate", "--context", "nodal:5", "--through", "j*S''", "j*S'"], ["j*S'"]),
    (["serre", "--context", "nodal:4", "j*S"], ["j*S"]),
    (["serre", "--context", "nodal:4", "--relative", "j*S"], ["j*S"]),
])
def test_commands_parse_through_the_module_global(capsys, monkeypatch, argv, texts):
    # the benchmark tracer wraps cli.parse_expr by assignment: a command
    # that held its own reference would keep its parses out of that row
    seen = []
    parse = cli.parse_expr

    def counting(ctx, text):
        seen.append(text)
        return parse(ctx, text)

    monkeypatch.setattr(cli, "parse_expr", counting)
    assert main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert seen == texts


class TestCommands:
    def test_kernel_odd(self, capsys):
        assert main(["kernel", "--dim", "5"]) == 0
        assert capsys.readouterr().out == "cone(j*S' -> j*S''[2]), 3-spherical: pass\n"

    def test_kernel_even(self, capsys):
        assert main(["kernel", "--dim", "4"]) == 0
        assert capsys.readouterr().out == "j*S, 2-spherical: pass\n"

    def test_cohom(self, capsys):
        assert main(["cohom", "--quadric", "3", "S(1)"]) == 0
        assert capsys.readouterr().out == "C^4\n"

    def test_hom(self, capsys):
        assert main(["hom", "--context", "nodal:5", "j*S'", "j*S''"]) == 0
        assert capsys.readouterr().out == "C[-2]\n"

    def test_mutate(self, capsys):
        rc = main(["mutate", "--context", "nodal:5", "--dir", "right",
                   "--through", "j*S''", "j*S'"])
        assert rc == 0
        assert capsys.readouterr().out == "cone(j*S' -> j*S''[2])[-1]\n"

    def test_serre(self, capsys):
        assert main(["serre", "--context", "nodal:4", "j*S"]) == 0
        assert capsys.readouterr().out == "j*S[2]\n"

    def test_serre_relative(self, capsys):
        assert main(["serre", "--context", "nodal:4", "--relative", "j*S"]) == 0
        assert capsys.readouterr().out == "j*S[-2]\n"

    def test_mukai(self, capsys):
        assert main(["mukai", "S"]) == 0
        out = capsys.readouterr().out
        assert "v = (2, -H, 2)" in out
        assert "<v,v> = -2" in out

    def test_verify_range_json(self, capsys, tmp_path):
        path = tmp_path / "reports.json"
        assert main(["verify", "--dims", "2..5", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dim 2: PASS" in out and "dim 5: PASS" in out
        data = json.loads(path.read_text())
        assert [rep["dim"] for rep in data] == [2, 3, 4, 5]
        for rep in data:
            assert rep["all_pass"] is True
            for item in rep["items"]:
                assert set(item) == {"id", "citation", "expected", "got", "pass"}

    def test_verify_byte_stable(self, capsys):
        assert main(["verify", "--dims", "4..6"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--dims", "4..6"]) == 0
        assert capsys.readouterr().out == first

    def test_verify_matches_stored_benchmark_range(self, capsys, tmp_path):
        # the whole benchmark range, byte for byte against the stored report
        expected = Path(__file__).resolve().parents[1] / "bench" / "expected" / "verify_2_48.json"
        path = tmp_path / "reports.json"
        assert main(["verify", "--dims", "2..48", "--json", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == expected.read_bytes()

    def test_verify_full_range(self, capsys):
        assert main(["verify", "--dims", "2..13"]) == 0
        out = capsys.readouterr().out
        assert out.count(": PASS") == 12

    def test_cubic4_json(self, capsys, tmp_path):
        path = tmp_path / "cubic.json"
        assert main(["cubic4", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["all_pass"] is True
        assert [t["rule"] for t in data["trace"]] == ["R1", "R1", "R2", "R3", "R4"]
        # byte for byte against the stored report and stdout
        expected = Path(__file__).resolve().parent / "expected"
        assert path.read_bytes() == (expected / "cubic4.json").read_bytes()
        assert capsys.readouterr().out.encode() == (expected / "cubic4.stdout").read_bytes()


class TestCachedParser:
    def test_built_once(self):
        assert cli.build_arg_parser() is cli.build_arg_parser()

    def test_append_option_starts_empty_each_call(self):
        parser = cli.build_arg_parser()
        first = parser.parse_args(["mutate", "--context", "nodal:5", "--through", "j*O",
                                   "--through", "j*O(-1)", "j*S'"])
        second = parser.parse_args(["mutate", "--context", "nodal:5", "--through", "j*S''", "j*S'"])
        assert first.through == ["j*O", "j*O(-1)"]
        assert second.through == ["j*S''"]

    def test_flags_do_not_carry_over(self, capsys, tmp_path):
        assert main(["serre", "--context", "nodal:4", "--relative", "j*S"]) == 0
        assert main(["serre", "--context", "nodal:4", "j*S"]) == 0
        assert capsys.readouterr().out == "j*S[-2]\nj*S[2]\n"
        path = tmp_path / "reports.json"
        assert main(["verify", "--dims", "3", "--json", str(path)]) == 0
        path.unlink()
        assert main(["verify", "--dims", "3"]) == 0
        assert not path.exists()
        capsys.readouterr()


def _full_parse(argv):
    """The reference: argparse's own two-pass parse of the whole argv."""
    return cli.build_arg_parser().parse_args(argv)


_WELL_FORMED = [
    ["cohom", "--quadric", "3", "S(1)"],
    ["hom", "--context", "nodal:5", "j*S'", "j*S''"],
    ["mutate", "--context", "nodal:5", "--dir", "left", "--through", "j*O", "j*S'"],
    ["serre", "--context", "nodal:4", "--relative", "j*S"],
    ["kernel", "--dim", "5"],
    ["verify", "--dims", "3..4"],
    ["cubic4"],
    ["mukai", "S(1)"],
    # a repeated append option
    ["mutate", "--context", "nodal:5", "--through", "j*O", "--through", "j*O(-1)", "j*S'"],
]

# well formed, but in a form the table leaves to argparse: an abbreviated
# option, "--opt=value" and "--"
_ARGPARSE_FORMS = [
    ["hom", "--cont", "nodal:3", "j*O", "j*O(-1)"],
    ["kernel", "--dim=5"],
    ["hom", "--context", "nodal:3", "--", "j*O", "j*O(-1)"],
]

_MALFORMED = [
    [], ["-h"], ["--help"], ["bogus"], ["--", "hom"], ["hom"], ["hom", "-h"], ["mutate", "--help"],
    ["hom", "--context", "nodal:3", "j*O", "j*O", "extra"],
    ["hom", "--context", "nodal:3", "--bogus", "j*O", "j*O"],
    ["hom", "--context", "nodal:3", "j*O", "--", "j*O", "j*O"],
    ["mutate", "--context", "nodal:5", "--dir", "up", "--through", "j*O", "j*S'"],
    ["kernel", "--dim", "x"],
    ["hom", "--context", "-x", "j*O", "j*O"], ["hom", "--=nodal:3", "j*O", "j*O"], ["cubic4", "--"],
]


class TestDispatch:
    """``main`` reads a well-formed argv from the command table and leaves
    the rest to argparse; exit code, stdout and stderr must be those of the
    full parser."""

    @staticmethod
    def _run(capsys, *argv):
        rc = main(*argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("argv", _WELL_FORMED + _ARGPARSE_FORMS + _MALFORMED, ids=lambda a: " ".join(a) or "<empty>")
    def test_matches_the_full_parser(self, capsys, monkeypatch, argv):
        got = self._run(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", _full_parse)
        assert self._run(capsys, argv) == got

    @pytest.mark.parametrize("argv", [["hom", "--context", "nodal:5", "j*S'", "j*S''"], ["hom"], []])
    def test_reads_sys_argv(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["nodalcat", *argv])
        got = self._run(capsys)
        monkeypatch.setattr(cli, "_parse_args", _full_parse)
        assert self._run(capsys) == got

    def test_well_formed_argv_skips_the_full_parser(self, capsys, monkeypatch):
        def refuse(argv):
            raise AssertionError(f"full parse of {argv}")

        # the table's namespace is not argparse's class: compare the fields
        want = [vars(_full_parse(argv)) for argv in _WELL_FORMED]
        monkeypatch.setattr(cli.build_arg_parser(), "parse_args", refuse)
        assert [vars(cli._parse_args(argv)) for argv in _WELL_FORMED] == want
        for argv in _WELL_FORMED:
            assert main(argv) == cli.EXIT_OK
        capsys.readouterr()
        # the other well-formed argvs are argparse's alone
        declined = [argv for argv in _WELL_FORMED + _ARGPARSE_FORMS if cli._table_parse(argv) is None]
        assert declined == _ARGPARSE_FORMS


# values each option takes, positionals, words drawn for any value or
# positional, and stray words put into drawn command lines
_GOOD = {"--quadric": ["3", "4"], "--context": ["nodal:3", "nodal:5"], "--dir": ["right", "left"],
         "--through": ["j*O", "j*O(-1)"], "--dim": ["3", "4"], "--dims": ["3", "3..4"],
         "--json": ["out.json"]}
_EXPRS = ["j*O", "j*O(-1)", "S(1)", "cone(j*O -> j*O(1))"]
_VALUES = ["nodal:3", "up", "x", "3", "-3", "-x", "--", "", "j*O", "j*O(-1)", "j*S'",
           "cone(j*O -> j*O(1))", "S(1)", "O"]
_STRAY = ["-h", "--help", "--", "-3", "--bogus", "--=x", "-", "x"]


@st.composite
def _argvs(draw):
    """A command line of any command: each option absent, once or repeated,
    written out, abbreviated or as ``--opt=v``, then an optional ``--`` and
    the positionals.  Half of them are noisy: one positional too few or too
    many, sometimes shuffled, and stray words put in."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    _, _, options, positionals = cli._COMMANDS.get(command, (None, None, (), ()))
    anything = st.sampled_from(_VALUES)
    pieces = []
    for flag, kind, *_ in options:
        values = st.sampled_from(_GOOD.get(flag, _VALUES)) | anything
        for _ in range(draw(st.sampled_from((1, 1, 2, 0)))):
            written = draw(st.sampled_from((flag, flag, flag, flag[:4], flag[:3], flag[:2])))
            if kind == "flag":
                pieces.append([written])
            elif draw(st.booleans()):
                pieces.append([f"{written}={draw(values)}"])
            else:
                pieces.append([written, draw(values)])
    pieces = draw(st.permutations(pieces))
    if draw(st.booleans()):
        pieces.append(["--"])
    noisy = draw(st.booleans())
    count = max(0, len(positionals) + (draw(st.sampled_from((-1, 1))) if noisy else 0))
    positional = st.sampled_from(_EXPRS) | anything
    pieces += [[draw(positional)] for _ in range(count)]
    if noisy and draw(st.booleans()):
        pieces = draw(st.permutations(pieces))
    argv = [command, *(word for piece in pieces for word in piece)]
    for _ in range(draw(st.integers(0, 2)) if noisy else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_STRAY)))
    return argv


# each example runs its command twice; --json writes into tmp_path
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_table_parser_matches_argparse(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    table = cli._table_parse(argv)
    if table is not None:
        assert vars(table) == vars(_full_parse(argv))
    got = TestDispatch._run(capsys, argv)
    with mock.patch.object(cli, "_parse_args", _full_parse):
        assert TestDispatch._run(capsys, argv) == got


def _fixed_script() -> list[list[str]]:
    """A CLI script over nodal d = 3..7: answers, typed errors, parse errors."""
    argv = []
    for d in range(3, 8):
        context = ["--context", f"nodal:{d}"]
        roster = nodal.build_context(d).generators
        lines = [g for g in roster if g.startswith("j*O")]
        for i, a in enumerate(roster):
            b = roster[(i + 1) % len(roster)]
            argv += [["hom", *context, a, c] for c in roster]
            argv.append(["hom", *context, f"cone({a} -> {b}[1])", a])
            argv.append(["hom", *context, a, f"cone({b}[-1] -> {a})"])
            argv.append(["hom", *context, f"{a} + {b}[2]", f"cone({a} -> {a})"])
            for j, direction in enumerate(("right", "left")):
                through = lines[(i + j) % len(lines)]
                argv.append(["mutate", *context, "--dir", direction, "--through", through, a])
            argv.append(["mutate", *context, "--through", lines[0], "--through", lines[-1], a])
            argv.append(["serre", *context, a])
            argv.append(["serre", *context, "--relative", a])
        argv.append(["kernel", "--dim", str(d)])
    for n in range(1, 9):
        for kind in ("O", "S") if n % 2 else ("O", "S'", "S''"):
            argv += [["cohom", "--quadric", str(n), f"{kind}({k})"] for k in range(-12, 13, 5)]
    return argv + [
        ["mukai", "S(1)"], ["cubic4"], ["verify", "--dims", "3..4"],
        ["hom", "--context", "nodal:x", "j*O", "j*O"],
        ["mutate", "--context", "bogus", "--through", "j*O", "j*O"],
        ["hom", "--context", "nodal:5", "cone(j*O ->", "j*O"],
        ["hom", "--context", "nodal:4", "j*S'", "j*O"],
        ["hom", "--context", "nodal:4", "j*S", "j*S(1)"],
        ["hom", "--context", "nodal:5", "j*O"],
        ["cohom", "--quadric", "4", "S(1)"],
    ]


# Runs the script in a fresh interpreter (answers must not depend on what
# earlier tests left in the shared contexts) and hashes every query's
# [argv, exit code, stdout, stderr] as JSON.
_DIGEST_RUNNER = """
import contextlib, hashlib, io, json, sys
from nodalcat import cli
digest = hashlib.sha256()
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    digest.update(json.dumps([argv, rc, out.getvalue(), err.getvalue()]).encode())
print(digest.hexdigest())
"""

# taken once IndeterminateHom messages named their Hom arguments in the
# X^m notation: against the digest before that (3123862b...), only the 74
# IndeterminateHom stderr lines of `serre` queries differ, each expanding
# (X^m to m copies) to its old text
_FIXED_SCRIPT_SHA256 = "87ade7ce7868052551b08c3900bd8e15b007ac0c9096223c8af75aae9029f9b5"


def _fixed_script_digest(**env_extra) -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80", **env_extra)
    proc = subprocess.run([sys.executable, "-c", _DIGEST_RUNNER], input=json.dumps(_fixed_script()),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_fixed_script_output_is_byte_stable():
    assert _fixed_script_digest() == _FIXED_SCRIPT_SHA256


def test_fixed_script_output_ignores_hash_seed():
    # generator hashes follow memory addresses and string hashes follow the
    # seed, and both differ between two fresh interpreters: an answer that
    # depended on the iteration order of a set of expressions would show
    digests = {_fixed_script_digest(PYTHONHASHSEED=seed) for seed in ("0", "1")}
    assert digests == {_FIXED_SCRIPT_SHA256}


def test_import_loads_no_code_generating_modules():
    # every CLI call pays the import; dataclasses and typing (and the
    # inspect machinery dataclasses pulls in) are start-up cost that no
    # query needs.  -S keeps site-installed .pth hooks out of the count.
    # argparse (help and usage errors) and json (--json) load only when used
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, nodalcat, nodalcat.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect', 'argparse', 'json'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_table_reads_every_well_formed_fixed_script_query():
    # the fast path must not go dead: of the fixed script, only the one
    # usage error (a missing positional) is left to argparse
    declined = [argv for argv in _fixed_script() if cli._table_parse(argv) is None]
    assert declined == [["hom", "--context", "nodal:5", "j*O"]]


def test_valid_queries_load_neither_argparse_nor_json():
    src = str(Path(cli.__file__).resolve().parents[1])
    queries = [["hom", "--context", "nodal:5", "j*S'", "j*S''"],
               ["mutate", "--context", "nodal:5", "--through", "j*S''", "j*S'"],
               ["serre", "--context", "nodal:4", "--relative", "j*S"],
               ["kernel", "--dim", "5"], ["cohom", "--quadric", "3", "S(1)"], ["mukai", "S"],
               ["verify", "--dims", "3"], ["cubic4"]]
    code = ("import sys\n"
            "from nodalcat import cli\n"
            f"codes = [cli.main(argv) for argv in {queries!r}]\n"
            "print(codes, sorted({'argparse', 'json'} & sys.modules.keys()), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.stderr == f"{[0] * len(queries)} []\n"


@pytest.mark.parametrize("argv, code", [(["-h"], cli.EXIT_OK), (["hom", "-h"], cli.EXIT_OK),
                                        (["hom", "--context", "nodal:5", "j*S'"], cli.EXIT_PARSE)])
def test_help_and_usage_errors_in_a_fresh_process(capsys, monkeypatch, argv, code):
    # argparse, imported on demand, writes the same text as in-process
    monkeypatch.setenv("COLUMNS", "80")
    want = TestDispatch._run(capsys, argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "nodalcat", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert want[0] == code
    assert "usage: nodalcat" in want[1] + want[2]


def test_mutate_at_d13_streams_in_bounded_memory():
    # Hom(j*S'(-11), j*O) is C^86532992 + C^41385344[-1] at d = 13: the
    # answer is ~1.7 GB of text, written in slices under a 512 MiB cap
    limit = 512 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "nodalcat", "mutate", "--context", "nodal:13", "--dir", "right",
         "--through", "j*O(0)", "j*S'(-11)"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _hom_arguments(message: str) -> tuple[str, str]:
    """The two arguments of the ``Hom(F, G)`` that ends an
    IndeterminateHom stderr line."""
    m = re.fullmatch(r"nodalcat: IndeterminateHom: indeterminate degrees \[[-\d, ]+\] \(Hom\((.*)\)\)\n",
                     message)
    assert m, message
    args, depth = m.group(1), 0
    for i, c in enumerate(args):
        depth += (c in "([") - (c in ")]")
        if c == "," and depth == 0:
            return args[:i], args[i + 2:]
    raise AssertionError(f"no top-level comma in {args!r}")


def test_undecided_serre_at_d13_prints_one_bounded_line():
    # the undecided Hom's source holds j*O(-11)^86532992: written copy by
    # copy, its message was 1.5 GB; in the X^m notation it is one short line
    limit = 512 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "nodalcat", "serre", "--context", "nodal:13", "j*S''(-11)"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == cli.EXIT_UNDECIDED
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert len(proc.stderr.encode()) < 1024
    # the arguments read back, and asking their Hom fails with the same text
    F, G = _hom_arguments(proc.stderr)
    ctx = nodal.build_context(13)
    with pytest.raises(IndeterminateHom) as exc:
        formalcat.hom(ctx, parse_expr(ctx, F), parse_expr(ctx, G))
    assert proc.stderr == f"nodalcat: IndeterminateHom: {exc.value}\n"


def test_sum_with_a_huge_cone_summand_in_bounded_memory():
    # the cone's text is ~11 GB; sorting the sum once wrote it out as a
    # sort key, and the query died of MemoryError (exit 4)
    limit = 512 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "nodalcat", "hom", "--context", "nodal:5",
         "cone(j*S' -> j*S'(-1)^1000000000) + j*O", "j*O"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == cli.EXIT_UNDECIDED
    assert proc.stdout == ""
    assert proc.stderr == ("nodalcat: IndeterminateHom: indeterminate degrees [0, 1] "
                           "(Hom(cone(j*S' -> j*S'(-1)^1000000000), j*O))\n")


def _exact(text):
    """text() under no limit on int/str conversion; the limit is put back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return text()
    finally:
        sys.set_int_max_str_digits(limit)


_NINES_1500 = 10 ** 1500 - 1
_NINES_4299 = 10 ** 4299 - 1


@pytest.mark.parametrize("argv, want", [
    # rank S = 2^49999 on Q^99999, so H^n(S(-n)) = H^0(S(1))^v has dimension 2^50000
    (["cohom", "--quadric", "99999", "S(-99999)"],
     lambda: f"C^{2 ** 50000}[-99999]\n"),
    (["mukai", f"O({'9' * 1500})"],
     lambda: (f"ch = 1 + {_NINES_1500} h + {Fraction(_NINES_1500 ** 2, 2)} h^2"
              f" + {Fraction(_NINES_1500 ** 3, 6)} h^3\n"
              f"v = (1, {_NINES_1500}H, {3 * _NINES_1500 ** 2 + 1})\n<v,v> = -2\nchi = 2\n")),
    # Hom(j*O, j*O(3)) = C^16 + C^9[-1] at d = 3, once per copy
    (["hom", "--context", "nodal:3", "j*O", f"j*O(3)^{'9' * 4299}"],
     lambda: f"C^{16 * _NINES_4299} + C^{9 * _NINES_4299}[-1]\n"),
], ids=["cohom", "mukai", "hom"])
def test_answer_longer_than_the_int_str_limit(argv, want):
    # each answer has over 4300 digits, CPython's default limit on int/str
    # conversion, which once ended the command with exit 3 and its message
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "nodalcat", *argv], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
    assert max(map(len, re.findall(r"\d+", proc.stdout))) > 4300
    assert proc.stdout == _exact(want)


def test_int_str_limit_is_the_callers_after_main(capsys, fresh_contexts):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert main(["cohom", "--quadric", "99999", "S(-99999)"]) == cli.EXIT_OK
        assert sys.get_int_max_str_digits() == 5000
        assert main(["hom", "--context", "nodal:3", "j*O", "j*O(3)^" + "9" * 4301]) == cli.EXIT_PARSE
        assert sys.get_int_max_str_digits() == 5000
        assert main(["hom", "--context", "nodal:5", "cone(j*S' -> j*S'(-1)^7) + j*O",
                     "j*O"]) == cli.EXIT_UNDECIDED
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert len(out) > 15000
    assert err.splitlines()[0] == ("nodalcat: parse error at column 8: integer literal longer "
                                   "than 4300 digits")


@pytest.mark.parametrize("argv, column", [
    (["hom", "--context", "nodal:3", "j*O", "j*O(" + "9" * 4301 + ")"], 5),
    (["hom", "--context", "nodal:3", "j*O", "j*O[-" + "9" * 4301 + "]"], 5),
    (["hom", "--context", "nodal:" + "9" * 4301, "j*O", "j*O"], 7),
    (["verify", "--dims", "2.." + "9" * 4301], 4),
])
def test_integer_literal_over_the_cap_is_a_parse_error(capsys, argv, column):
    assert main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (f"nodalcat: parse error at column {column}: integer literal "
                                       f"longer than {cli.MAX_LITERAL_DIGITS} digits\n")


_OVER_DIM = cli.MAX_DIM + 1


@pytest.mark.parametrize("argv, d, column", [
    (["hom", "--context", "nodal:100000000", "j*O", "j*O"], 100000000, 7),
    (["hom", "--context", f"nodal:{_OVER_DIM}", "j*O", "j*O"], _OVER_DIM, 7),
    (["mutate", "--context", f"nodal:{_OVER_DIM}", "--through", "j*O", "j*O"], _OVER_DIM, 7),
    (["serre", "--context", f"nodal:{_OVER_DIM}", "--relative", "j*O"], _OVER_DIM, 7),
    (["kernel", "--dim", str(_OVER_DIM)], _OVER_DIM, 1),
    (["verify", "--dims", str(_OVER_DIM)], _OVER_DIM, 1),
    (["verify", "--dims", f"2..{_OVER_DIM}"], _OVER_DIM, 4),
])
def test_dimension_over_the_limit_is_a_parse_error(capsys, monkeypatch, argv, d, column):
    # refused before any context is built
    monkeypatch.setattr(nodal, "_setup", lambda d: pytest.fail(f"built nodal:{d}"))
    assert main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", f"nodalcat: parse error at column {column}: dimension {d} "
                                       f"is above the limit {cli.MAX_DIM}\n")


def test_dimension_at_the_limit_is_built(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(nodal, "build_context", lambda d: built.append(d) or nodal._setup(3).context)
    assert main(["hom", "--context", f"nodal:{cli.MAX_DIM}", "j*O", "j*O"]) == cli.EXIT_OK
    assert built == [cli.MAX_DIM]
    assert capsys.readouterr() == ("C\n", "")


def test_largest_context_builds_under_the_benchmark_cap():
    # the benchmark's children run under a 1.5 GiB address-space cap
    limit = 1536 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "nodalcat", "hom", "--context", f"nodal:{cli.MAX_DIM}", "j*O", "j*O"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "C\n", "")


def test_reader_gone_early_exits_quietly():
    # the ~57 MB answer outgrows the pipe long before it is written, so the
    # writes after the reader closed fail with EPIPE, as under `| head -c 10`
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "nodalcat", "mutate", "--context", "nodal:11", "--dir", "left",
         "--through", "j*O(-9)", "j*S''(1)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        rc = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert head == b"cone(j*O(-"
    assert err == ""
    assert rc == cli.EXIT_BROKEN_PIPE == 141


def _nested_cone(levels: int, right: bool) -> str:
    """``levels`` cones nested in the source (or the target) leg."""
    e = "j*O"
    for _ in range(levels):
        e = f"cone(j*O(1) -> {e})" if right else f"cone({e} -> j*O(1))"
    return e


# the deep cones these queries register stay out of the shared contexts
@pytest.mark.usefixtures("fresh_contexts")
class TestConeDepthCap:
    @staticmethod
    def _argv(command: str, expr: str) -> list[str]:
        context = ["--context", "nodal:3"]
        return {"hom": ["hom", *context, expr, "j*O"],
                "mutate": ["mutate", *context, "--through", "j*O", expr],
                "serre": ["serre", *context, expr]}[command]

    @pytest.mark.parametrize("right", [False, True])
    @pytest.mark.parametrize("command", ["hom", "mutate", "serre"])
    def test_at_the_cap_gives_a_value_or_a_typed_error(self, capsys, command, right):
        rc = main(self._argv(command, _nested_cone(cli.MAX_CONE_DEPTH, right)))
        err = capsys.readouterr().err
        assert rc in (cli.EXIT_OK, cli.EXIT_UNDECIDED)
        assert err.count("\n") == (rc != cli.EXIT_OK)

    def test_both_hom_arguments_at_the_cap(self, capsys):
        deep = _nested_cone(cli.MAX_CONE_DEPTH, False)
        for source, target in ((deep, deep), (_nested_cone(cli.MAX_CONE_DEPTH, True), deep)):
            assert main(["hom", "--context", "nodal:3", source, target]) in (cli.EXIT_OK, cli.EXIT_UNDECIDED)
        capsys.readouterr()

    @pytest.mark.parametrize("right", [False, True])
    @pytest.mark.parametrize("command", ["hom", "mutate", "serre"])
    def test_one_past_the_cap_is_a_parse_error(self, capsys, command, right):
        rc = main(self._argv(command, _nested_cone(cli.MAX_CONE_DEPTH + 1, right)))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_PARSE
        assert captured.out == ""
        column = 1 + cli.MAX_CONE_DEPTH * len("cone(j*O(1) -> " if right else "cone(")
        assert captured.err == (f"nodalcat: parse error at column {column}: "
                                f"cones nested more than {cli.MAX_CONE_DEPTH} deep\n")

    def test_long_postfix_chain_is_a_value(self, capsys):
        # postfix operators are not capped: a chain of 4000 resolves in a loop
        context = ["--context", "nodal:3"]
        assert main(["hom", *context, "j*O(-1)", "j*O(1999)[2000]"]) == 0
        want = capsys.readouterr().out
        assert main(["hom", *context, "j*O(-1)", "j*O(-1)" + "[1](1)" * 2000]) == 0
        assert capsys.readouterr().out == want


class TestExitCodes:
    def test_parse_error_is_3(self, capsys):
        assert main(["hom", "--context", "nodal:5", "cone(j*S' ->", "j*S''"]) == 3
        assert "column 13" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["j*O^-1", "j*O^", "j*O^j*O"])
    def test_bad_multiplicity_is_3(self, capsys, expr):
        assert main(["hom", "--context", "nodal:5", expr, "j*O"]) == 3
        assert capsys.readouterr().err.startswith("nodalcat: parse error at column 5: ")

    def test_empty_dims_range_is_3(self, capsys):
        assert main(["verify", "--dims", "5..3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "empty dimension range '5..3'" in captured.err

    def test_usage_error_is_3(self, capsys):
        assert main(["hom", "--context", "nodal:5", "j*S'"]) == 3
        capsys.readouterr()

    def test_unsupported_is_2(self, capsys):
        assert main(["hom", "--context", "nodal:4", "j*S", "j*S(1)"]) == 2
        assert "UnsupportedPair" in capsys.readouterr().err

    def test_unknown_generator_is_2(self, capsys):
        assert main(["hom", "--context", "nodal:4", "j*S'", "j*S'"]) == 2
        capsys.readouterr()

    def test_indeterminate_is_2(self, capsys):
        # a cone on an unprovable self-map has no determinate Hom row
        rc = main(["hom", "--context", "nodal:4", "cone(j*O(-1) -> j*O(-1))", "j*O(-1)"])
        assert rc == 2
        assert "Indeterminate" in capsys.readouterr().err

    def test_bad_context_is_3(self, capsys):
        for command in (["hom", "j*O", "j*O"], ["mutate", "--through", "j*O", "j*O"],
                        ["serre", "j*O"], ["serre", "--relative", "j*O"]):
            assert main([command[0], "--context", "nodal:x", *command[1:]]) == 3
            err = capsys.readouterr().err
            assert err == "nodalcat: parse error at column 1: unknown context 'nodal:x' (expected nodal:<dim>)\n"

    def test_huge_spinor_twist_is_a_value(self, capsys):
        assert main(["cohom", "--quadric", "3", "S(5000)"]) == 0
        assert capsys.readouterr().out == "C^83383340000\n"

    def test_parity_is_2(self, capsys):
        assert main(["cohom", "--quadric", "4", "S(1)"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
    def test_untyped_exception_is_4(self, monkeypatch, capsys, error):
        def broken(*args):
            raise error

        monkeypatch.setattr(cli.quadric, "cohomology", broken)
        assert main(["cohom", "--quadric", "3", "O"]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nodalcat: internal error: {type(error).__name__}: {error}\n"

    @pytest.mark.parametrize("error", ["RuntimeError('boom')", "RecursionError('too deep')"])
    def test_untyped_exception_is_4_in_a_fresh_process(self, error):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from nodalcat import cli, quadric\n"
                "def broken(*args):\n"
                f"    raise {error}\n"
                "quadric.cohomology = broken\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", code, "cohom", "--quadric", "3", "O"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("nodalcat: internal error: ")
        assert "Traceback" not in proc.stderr

    def test_value_error_stays_3(self, monkeypatch, capsys):
        def broken(*args):
            raise ValueError("bad value")

        monkeypatch.setattr(cli.quadric, "cohomology", broken)
        assert main(["cohom", "--quadric", "3", "O"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == "nodalcat: bad value\n"

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.quadric, "cohomology", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["cohom", "--quadric", "3", "O"])
