import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nodalcat import cli, formalcat, nodal
from nodalcat.cli import ExprParseError, main, parse_expr, parse_sheaf
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
            cli.parse_raw("cone(j*S' ->")
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
            cli.parse_raw("j*S' @ j*S''")


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
    # an abbreviated option, "--" and a repeated append option
    ["hom", "--cont", "nodal:3", "j*O", "j*O(-1)"],
    ["hom", "--context", "nodal:3", "--", "j*O", "j*O(-1)"],
    ["mutate", "--context", "nodal:5", "--through", "j*O", "--through", "j*O(-1)", "j*S'"],
]

_MALFORMED = [
    [], ["-h"], ["--help"], ["bogus"], ["--", "hom"], ["hom"], ["hom", "-h"], ["mutate", "--help"],
    ["hom", "--context", "nodal:3", "j*O", "j*O", "extra"],
    ["hom", "--context", "nodal:3", "--bogus", "j*O", "j*O"],
    ["hom", "--context", "nodal:3", "j*O", "--", "j*O", "j*O"],
    ["mutate", "--context", "nodal:5", "--dir", "up", "--through", "j*O", "j*S'"],
    ["kernel", "--dim", "x"],
]


class TestDispatch:
    """``main`` hands a well-formed argv straight to its subcommand's parser;
    exit code, stdout and stderr must be those of the full parser."""

    @staticmethod
    def _run(capsys, *argv):
        rc = main(*argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("argv", _WELL_FORMED + _MALFORMED, ids=lambda a: " ".join(a) or "<empty>")
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

        want = [_full_parse(argv) for argv in _WELL_FORMED]
        monkeypatch.setattr(cli.build_arg_parser(), "parse_args", refuse)
        assert [cli._parse_args(argv) for argv in _WELL_FORMED] == want
        for argv in _WELL_FORMED:
            assert main(argv) == cli.EXIT_OK
        capsys.readouterr()


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

# taken with the recursive renderer and the eagerly formatted errors
_FIXED_SCRIPT_SHA256 = "3123862b1a1af9e80e0e7846f41503221a85bac2aec175e16728e0ea8c166d6e"


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
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, nodalcat, nodalcat.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
