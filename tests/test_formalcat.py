import contextlib
import copy
import io
import pickle
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st

from nodalcat import cli, formalcat, nodal, quadric
from nodalcat.errors import Failure, IndeterminateHom, NodalcatError, NotExceptional, UnknownGenerator
from nodalcat.formalcat import (
    Cone,
    Context,
    Gen,
    SOD,
    Shift,
    Sum,
    Triangle,
    ZERO,
    check_exceptional,
    check_semiorthogonal,
    check_spherical,
    hom,
    mutate_left,
    mutate_right,
    normalize,
    render,
    serre_in,
    shift_expr,
    sum_of,
)
from nodalcat.graded import GradedDim
from tautological import nodal_tautological


def gd(d):
    return GradedDim.from_dict(d)


C = gd({0: 1})


# a small handmade context: two exceptional generators with Hom(A, B) = C^2[-1]
def _toy_context():
    table = {
        ("A", "A"): C,
        ("B", "B"): C,
        ("A", "B"): gd({1: 2}),
        ("B", "A"): GradedDim.zero(),
    }

    def base(a, b):
        if (a, b) not in table:
            raise UnknownGenerator(f"{a},{b}")
        return table[(a, b)]

    def resolve(name):
        if name not in ("A", "B"):
            raise UnknownGenerator(name)
        return name

    return Context(
        name="toy",
        generators=("A", "B"),
        base_hom=base,
        gen_resolve=resolve,
    )


class TestNormalize:
    def test_cone_over_zero(self):
        assert normalize(Cone(ZERO, Gen("A"))) == Gen("A")

    def test_cone_to_zero(self):
        assert normalize(Cone(Gen("A"), ZERO)) == Shift(Gen("A"), 1)

    def test_shift_cancellation(self):
        assert normalize(Shift(Shift(Gen("A"), 2), -2)) == Gen("A")

    def test_plain_self_cone_not_split(self):
        # without a provable map, cone(A -> A) stays a cone
        e = normalize(Cone(Gen("A"), Gen("A")))
        assert isinstance(e, Cone)

    def test_sum_flatten_and_merge(self):
        e = normalize(Sum(((Sum(((Gen("A"), 2),)), 3), (Gen("A"), 1))))
        assert e == Sum(((Gen("A"), 7),))

    def test_singleton_sum_collapse(self):
        assert normalize(Sum(((Gen("A"), 1),))) == Gen("A")

    def test_cone_absorbs_source_shift(self):
        e = normalize(Cone(Shift(Gen("A"), 2), Shift(Gen("B"), 5)))
        assert e == Shift(Cone(Gen("A"), Shift(Gen("B"), 3)), 2)

    def test_render_sum_repeats(self):
        assert render(sum_of(Gen("A"), 3)) == "A + A + A"

    @pytest.mark.parametrize("part", [Gen("A"), Shift(Gen("A"), -2), Shift(Gen("A"), 5)])
    @pytest.mark.parametrize("r", [2, 3, 10**9])
    def test_one_generator_part_comes_back_as_is(self, part, r):
        # the shape of every tautological middle term and one-degree tensor
        e = Sum(((part, r),))
        assert normalize(e) is e
        assert Triangle(Gen("B"), e, Gen("C")).normalized().y is e

    @pytest.mark.parametrize("raw", [
        Sum(((Gen("A"), 1),)),
        Sum(((Shift(Gen("A"), 2), 1),)),
        Sum(((Gen("A"), 0),)),
        Sum(((Shift(Gen("A"), 0), 2),)),
        Sum(((Shift(Shift(Gen("A"), 1), 1), 2),)),
        Sum(((Cone(Gen("A"), Gen("B")), 2),)),
        Sum(((Cone(Shift(Gen("A"), 1), Gen("B")), 2),)),
        Sum(((Sum(((Gen("A"), 2),)), 3),)),
        Sum(((Gen("B"), 1), (Gen("A"), 2))),
        Sum(((Gen("A"), 2), (Gen("A"), 1))),
        Sum(((Gen("A"), 2), (Shift(Gen("A"), 1), 2))),
    ])
    def test_other_sums_are_rewritten_as_before(self, raw):
        # multiplicities 0 and 1, non-generator parts and two parts keep the
        # general path, which agrees with the reference normal form
        assert _same(normalize(raw), _reference_normalize(raw))


class TestHomStructural:
    def test_generator_row(self):
        ctx = _toy_context()
        assert hom(ctx, Gen("A"), Gen("B")) == gd({1: 2})

    def test_shift_in_first_argument(self):
        ctx = _toy_context()
        F = Gen("A")
        assert hom(ctx, Shift(F, 1), F) == hom(ctx, F, F).shift(-1)

    def test_shift_in_second_argument(self):
        ctx = _toy_context()
        F = Gen("A")
        assert hom(ctx, F, Shift(F, 1)) == hom(ctx, F, F).shift(1)

    def test_sum_additive(self):
        ctx = _toy_context()
        two_a = sum_of(Gen("A"), 2)
        assert hom(ctx, two_a, Gen("B")) == gd({1: 4})

    def test_zero_objects(self):
        ctx = _toy_context()
        assert hom(ctx, ZERO, Gen("A")).is_zero
        assert hom(ctx, Gen("A"), ZERO).is_zero

    def test_unknown_generator(self):
        ctx = _toy_context()
        with pytest.raises(UnknownGenerator):
            hom(ctx, Gen("X"), Gen("A"))


class TestLESSolver:
    def test_disjoint_supports_solve(self):
        ctx = _toy_context()
        # cone(A -> B[3]): rows against A have disjoint supports
        Z = normalize(Cone(Gen("A"), Shift(Gen("B"), 3)))
        got = hom(ctx, Z, Gen("A"))
        # Hom(B[3], A) = 0, Hom(A, A) = C: the sequence forces C[-1]
        assert got == gd({1: 1})

    def test_indeterminate_raises_with_degrees(self):
        ctx = _toy_context()
        Z = normalize(Cone(Gen("A"), Gen("A")))  # unknown self-map
        with pytest.raises(IndeterminateHom) as exc:
            hom(ctx, Z, Gen("A"))
        assert 0 in exc.value.degrees or 1 in exc.value.degrees

    def test_zero_fact_short_circuits(self):
        ctx = _toy_context()
        Z = normalize(Cone(Gen("A"), Gen("A")))
        ctx.add_zero_fact(Z, Gen("A"))
        assert hom(ctx, Z, Gen("A")).is_zero
        # shifts of both sides are covered by the same fact
        assert hom(ctx, shift_expr(Z, 5), Shift(Gen("A"), -2)).is_zero
        # a fact between two generators wins over the base table
        assert not ctx.base_hom("A", "B").is_zero
        ctx.add_zero_fact(Gen("A"), Gen("B"))
        assert hom(ctx, Gen("A"), Gen("B")).is_zero
        assert hom(ctx, Shift(Gen("A"), 1), Gen("B")).is_zero
        # the reverse pair still reads the base table
        assert hom(ctx, Gen("B"), Gen("A")) == ctx.base_hom("B", "A")


class TestMutations:
    def test_mutate_self_is_zero(self):
        ctx = _toy_context()
        assert mutate_right(ctx, Gen("A"), Gen("A")) == ZERO
        assert mutate_left(ctx, Gen("B"), Gen("B")) == ZERO

    def test_vanishing_hom_fixes_object(self):
        ctx = _toy_context()
        assert mutate_right(ctx, Gen("A"), Gen("B")) == Gen("B")  # Hom(B, A) = 0
        assert mutate_left(ctx, Gen("B"), Gen("A")) == Gen("A")  # Hom(B, A) = 0

    def test_fresh_cone_records_orthogonality(self):
        ctx = _toy_context()
        moved = mutate_right(ctx, Gen("B"), Gen("A"))
        # V = C^2[-1], so the cone target is B^2[1]
        core = moved.expr if isinstance(moved, Shift) else moved
        assert isinstance(core, Cone)
        assert core.tgt == sum_of(Shift(Gen("B"), 1), 2)
        assert hom(ctx, moved, Gen("B")).is_zero

    def test_left_mutation_records_orthogonality(self):
        ctx = _toy_context()
        moved = mutate_left(ctx, Gen("A"), Gen("B"))
        assert hom(ctx, Gen("A"), moved).is_zero

    def test_not_exceptional(self):
        ctx = nodal.build_context(4)
        with pytest.raises(NotExceptional):
            mutate_right(ctx, Gen("j*S"), Gen("j*O(-1)"))

    def test_not_exceptional_raises_the_same_text_every_call(self):
        # a failed check is not remembered: it runs, and raises, each time
        ctx = nodal.build_context(4)
        texts = []
        for mutate in (mutate_right, mutate_left, mutate_right):
            with pytest.raises(NotExceptional) as info:
                mutate(ctx, Gen("j*S"), Gen("j*O(-1)"))
            texts.append(str(info.value))
        assert texts == ["j*S has Hom-algebra C + C[-2]"] * 3
        assert Gen("j*S") not in ctx._checked_exceptional

    def test_unknown_through_generator(self):
        # j*S' has the wrong parity on nodal:4; the others are no generators
        ctx = nodal.build_context(4)
        for name in ("j*S'", "j*T", "X"):
            for mutate in (mutate_right, mutate_left, mutate_right):
                with pytest.raises(UnknownGenerator):
                    mutate(ctx, Gen(name), Gen("j*O(-1)"))
            assert Gen(name) not in ctx._checked_exceptional

    def test_round_trip_on_chain_steps(self):
        # opposite mutation undoes each twisted chain step
        for d in (4, 5, 6, 7):
            ctx = nodal.build_context(d)
            n = d - 1
            spin = "j*S" if d % 2 == 0 else "j*S'"
            for k in range(1 - n, 0):
                name = f"{spin}({k})" if k else spin
                E = Gen(f"j*O({k})")
                F = shift_expr(Gen(name), 2 - k)
                moved = mutate_right(ctx, E, F)
                back = mutate_left(ctx, E, moved)
                assert back == F, (d, k, render(back))

    def test_collection_order(self):
        # through a collection, the first entry acts first
        ctx = nodal.build_context(4)
        start = formalcat.apply_serre_action(ctx, Gen("j*S"))
        step1 = mutate_right(ctx, Gen("j*O(-2)"), start)
        step2 = mutate_right(ctx, Gen("j*O(-1)"), step1)
        assert mutate_right(ctx, ("j*O(-2)", "j*O(-1)"), start) == step2


class TestChecks:
    def test_exceptional(self):
        ctx = nodal.build_context(4)
        assert check_exceptional(ctx, Gen("j*O(-1)"))
        assert not check_exceptional(ctx, Gen("j*S"))
        ctx5 = nodal.build_context(5)
        assert check_exceptional(ctx5, Gen("j*S'"))

    def test_semiorthogonal_and_reversed(self):
        ctx = nodal.build_context(4)
        perp = nodal.perp_collection(4)
        assert check_semiorthogonal(ctx, SOD(tuple((g,) for g in perp)))
        reversed_sod = SOD(tuple((g,) for g in reversed(perp)))
        assert not check_semiorthogonal(ctx, reversed_sod)

    def test_single_block(self):
        ctx = nodal.build_context(4)
        assert check_semiorthogonal(ctx, SOD((("j*O(-1)", "j*O"),)))

    def test_spherical_pass_and_fail(self):
        ctx = nodal.build_context(4)
        perp = nodal.perp_collection(4)
        report = check_spherical(ctx, perp, Gen("j*S"), 2)
        assert report.passed and report.hom_ok and report.serre_ok
        for k in (1, 2, 3):
            assert not check_spherical(ctx, perp, Gen("j*O(-1)"), k).passed


class TestSerre:
    def test_ambient_action_alone(self):
        ctx = nodal.build_context(4)
        img = formalcat.apply_serre_action(ctx, Gen("j*S"))
        assert img == Shift(Gen("j*S(-2)"), 4)

    def test_shift_equivariance(self):
        ctx = nodal.build_context(4)
        perp = nodal.perp_collection(4)
        F = Gen("j*S")
        assert serre_in(ctx, perp, Shift(F, 1)) == shift_expr(serre_in(ctx, perp, F), 1)

    def test_chain_intermediate_steps(self):
        # each step of the even chain telescopes exactly
        d = 6
        n = d - 1
        ctx = nodal.build_context(d)
        obj = formalcat.apply_serre_action(ctx, Gen("j*S"))
        for k in range(1 - n, 0):
            expected_in = shift_expr(Gen(f"j*S({k})"), 2 - k)
            assert obj == expected_in, (k, render(obj))
            obj = mutate_right(ctx, Gen(f"j*O({k})"), obj)
        assert obj == shift_expr(Gen("j*S"), 2)


def test_chi_conservation_across_registered_triangles():
    from nodalcat.errors import UnsupportedPair

    for d in range(2, 14):
        ctx = nodal.build_context(d)
        for tri in [*nodal_tautological(d), *ctx.all_triangles()]:
            for w in ctx.generators:
                W = Gen(w)
                try:
                    ax = hom(ctx, W, tri.x).euler()
                    ay = hom(ctx, W, tri.y).euler()
                    az = hom(ctx, W, tri.z).euler()
                except (UnsupportedPair, IndeterminateHom):
                    continue
                assert ay == ax + az
                try:
                    bx = hom(ctx, tri.x, W).euler()
                    by = hom(ctx, tri.y, W).euler()
                    bz = hom(ctx, tri.z, W).euler()
                except (UnsupportedPair, IndeterminateHom):
                    continue
                assert by == bx + bz


# ---------------------------------------------------------------------------
# cone identification: the cone rule or cone_of, against a brute-force scan
# ---------------------------------------------------------------------------


def _scan_identify_cone(triangles, src, tgt):
    """Reference: scan every triangle and rotation, first match wins; the
    result and the index of the matching triangle, or (None, None)."""

    def outer_shift(e):
        return e.m if isinstance(e, Shift) else 0

    def min_shift(e):
        if isinstance(e, Sum):
            return min((outer_shift(p) for p, _ in e.parts), default=0)
        return outer_shift(e)

    for i, tri in enumerate(triangles):
        for p, q, res in _rotations(tri.normalized()):
            s = min_shift(src) - min_shift(p)
            if shift_expr(p, s) == src and shift_expr(q, s) == tgt:
                return shift_expr(res, s), i
    return None, None


def _rotations(t):
    """(p, q, r) of each rotation of a normal triangle: cone(p -> q) = r."""
    x1 = shift_expr(t.x, 1)
    return ((t.x, t.y, t.z), (t.y, t.z, x1), (t.z, x1, shift_expr(t.y, 1)))


def _holds_cone(e):
    """Reference: whether a cone stands anywhere in e outside another cone."""
    if isinstance(e, Sum):
        return any(_holds_cone(p) for p, _ in e.parts)
    if isinstance(e, Shift):
        return _holds_cone(e.expr)
    return isinstance(e, Cone)


def _live(p, q):
    """Whether neither term of the key (p, q) holds a cone."""
    return not _holds_cone(p) and not _holds_cone(q)


def _record_probes(monkeypatch, record):
    """Run ``record(ctx, src, tgt, got)`` at every ``_identify_cone`` call of
    ``verify_dim`` d = 2..22 and of the query-mix script of seed 0, before
    the step that asked registers anything; the number of calls of each."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    identify = formalcat._identify_cone
    calls = 0

    def recording(ctx, src, tgt):
        nonlocal calls
        calls += 1
        got = identify(ctx, src, tgt)
        record(ctx, src, tgt, got)
        return got

    monkeypatch.setattr(formalcat, "_identify_cone", recording)
    # mutation steps are memoized, so only a step's first run probes: d up
    # to 22 keeps the probes above the floor (320 of them)
    for d in range(2, 23):
        assert nodal.verify_dim(d).all_pass
    verify_calls = calls
    rosters = {d: nodal.build_context(d).generators for d in range(2, 14)}
    for op in workloads.make_ops("query-mix", 0, rosters):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(op["argv"])
    return verify_calls, calls - verify_calls


def test_step_cones_match_scan_on_verify_and_query_mix(monkeypatch, fresh_contexts):
    # fresh contexts, so the probes do not depend on what earlier tests
    # registered.  A step's cone is the rule's hit, else cone_of of its
    # legs; wherever a scan of the tautological triangles (the rule's)
    # and the registered ones finds a cone, it is that one, and the scan
    # hits a registered triangle exactly when the step's own triangle is
    # registered already, so that step records no fact
    seen = {"rule": 0, "registered": 0, "new": 0}

    def record(ctx, src, tgt, got):
        d = int(ctx.name.split(":")[1])
        tautological = nodal_tautological(d)
        scanned, at = _scan_identify_cone([*tautological, *ctx.all_triangles()], src, tgt)
        cone = formalcat.cone_of(src, tgt) if got is None else got
        if scanned is not None:
            assert cone == scanned and render(cone) == render(scanned)
        if got is not None:
            # the rule's cone is a tautological triangle's
            assert at is not None and at < len(tautological)
            seen["rule"] += 1
            return
        core = formalcat._strip_shift(cone)
        registered = Triangle(core.src, core.tgt, core) in ctx._derived_triangles
        assert (at is not None and at >= len(tautological)) == registered
        seen["registered" if registered else "new"] += 1

    verify_calls, script_calls = _record_probes(monkeypatch, record)
    assert verify_calls > 300 and script_calls > 150
    # every case is met: rule hits, steps onto a registered triangle (the
    # kernel triangles of odd d, say) and new cones
    assert seen["rule"] and seen["registered"] and seen["new"]


def test_no_probe_holds_a_cone(monkeypatch, fresh_contexts):
    # the cone rule is asked only on keys without a cone: a mutation probes
    # an unshifted generator against shifts of one generator
    probes = []
    verify_calls, script_calls = _record_probes(monkeypatch, lambda ctx, src, tgt, got: probes.append((src, tgt)))
    assert verify_calls > 300 and script_calls > 150
    assert all(_live(src, tgt) for src, tgt in probes)


def test_step_records_its_fact_only_with_a_new_triangle():
    # with Hom(A, B) = C, R_B(A) and L_A(B) are one cone up to shift: the
    # first step registers cone(A -> B) and Hom(cone, B) = 0, the second
    # finds that triangle registered and adds no fact
    table = {("A", "A"): C, ("B", "B"): C, ("A", "B"): C, ("B", "A"): GradedDim.zero()}
    ctx = Context(name="toy", generators=("A", "B"), base_hom=lambda a, b: table[(a, b)])
    A, B = Gen("A"), Gen("B")
    core = Cone(A, B)
    assert mutate_right(ctx, B, A) == Shift(core, -1)
    assert list(ctx.all_triangles()) == [Triangle(A, B, core)] and ctx._zero_facts == {(core, B)}
    assert mutate_left(ctx, A, B) == core
    assert list(ctx.all_triangles()) == [Triangle(A, B, core)] and ctx._zero_facts == {(core, B)}


def test_steps_onto_the_kernel_triangles_record_nothing(fresh_contexts):
    # at odd d, R_{j*S'}(j*S'') is the companion cone and L_{j*S'}(j*S'')
    # the kernel cone, shifted; set-up registered both triangles (the
    # companion's without a fact), so neither step adds a triangle or fact
    ctx = nodal.build_context(5)
    sp, spp = Gen("j*S'"), Gen("j*S''")
    triangles, facts = list(ctx.all_triangles()), set(ctx._zero_facts)
    assert mutate_right(ctx, sp, spp) == Shift(Cone(spp, Shift(sp, 2)), -1)
    assert mutate_left(ctx, sp, spp) == Shift(Cone(sp, Shift(spp, 2)), -2)
    assert list(ctx.all_triangles()) == triangles and ctx._zero_facts == facts


def test_add_triangle_dedupes_and_keeps_order():
    A, B = Gen("A"), Gen("B")
    t0 = Triangle(A, B, Cone(A, B))
    ctx = Context(name="toy", generators=("A", "B"), base_hom=lambda a, b: C)
    t1 = Triangle(B, A, Cone(B, A))
    t2 = Triangle(A, Shift(B, 1), Cone(A, Shift(B, 1)))
    for tri in (t0, t0, t1, Triangle(Shift(Shift(B, 1), -1), A, Cone(B, A)), t2, t1):
        ctx.add_triangle(tri)
    # each triangle once, in the order of its first registration
    assert repr(list(ctx.all_triangles())) == repr([t0, t1, t2])
    # a normal triangle registers as it is, and says whether it is new
    assert ctx._register_triangle(Triangle(B, A, Cone(B, A))) is False
    assert ctx._register_triangle(Triangle(B, B, Cone(B, B))) is True
    assert len(ctx._derived_triangles) == 4


def test_cone_rule_answers_before_registered_triangles():
    # only the rule names cones: a registered triangle answers no probe
    A, B = Gen("A"), Gen("B")
    asked = []

    def rule(src, tgt):
        asked.append((src, tgt))
        return Gen("R") if (src, tgt) == (A, B) else None

    ctx = Context(name="toy", generators=("A", "B"), base_hom=lambda a, b: C, cone_rule=rule)
    Z = Gen("Z")
    ctx.add_triangle(Triangle(A, B, Z))
    ctx.add_triangle(Triangle(B, A, Cone(B, A)))
    # asked on the shift-normalized key; its hit is shifted back
    assert formalcat._identify_cone(ctx, Shift(A, 2), Shift(B, 2)) == Shift(Gen("R"), 2)
    # a miss of the rule is a miss, though a registered triangle has the key
    assert formalcat._identify_cone(ctx, Shift(B, -1), Shift(A, -1)) is None
    assert formalcat._identify_cone(ctx, B, Z) is None
    assert asked == [(A, B), (B, A), (B, Z)]
    assert list(ctx.all_triangles()) == [Triangle(A, B, Z), Triangle(B, A, Cone(B, A))]


# ---------------------------------------------------------------------------
# rendering: chunks against the recursive reference
# ---------------------------------------------------------------------------


def _reference_render(e):
    """Reference: the recursive renderer, one list entry per summand copy."""
    if isinstance(e, Gen):
        return e.name
    if isinstance(e, Shift):
        return f"{_reference_render(e.expr)}[{e.m}]"
    if isinstance(e, Cone):
        return f"cone({_reference_render(e.src)} -> {_reference_render(e.tgt)})"
    if not e.parts:
        return "0"
    bits = []
    for part, mult in e.parts:
        bits.extend([_reference_render(part)] * mult)
    return " + ".join(bits)


# raw terms, normalized or not: shifts of anything, sums with multiplicities
# (0 and repeats included), empty sums and cones nested in all of them
_raw_terms = st.recursive(
    st.builds(Gen, st.sampled_from(["j*S'", "j*S''(-1)", "j*O", "j*O(2)", "A"])),
    lambda inner: st.one_of(
        st.builds(Shift, inner, st.integers(-3, 3)),
        st.builds(Cone, inner, inner),
        st.builds(Sum, st.lists(st.tuples(inner, st.integers(0, 50)), max_size=4).map(tuple)),
    ),
    max_leaves=12,
)


@st.composite
def _long_runs(draw):
    """A sum of raw terms whose runs reach past ``RUN_SLICE`` (up to ~3 MiB
    of text), bare, shifted or in a cone leg."""
    parts = draw(st.lists(_raw_terms, min_size=1, max_size=3))
    budget = 3 * formalcat.RUN_SLICE // len(parts)
    mults = []
    for p in parts:
        hi = budget // (len(_reference_render(p)) + 3)
        mults.append(draw(st.integers(0, hi) | st.integers(hi // 3, hi)))
    runs = Sum(tuple(zip(parts, mults)))
    return draw(st.one_of(st.just(runs), st.builds(Shift, st.just(runs), st.integers(-3, 3)),
                          st.builds(Cone, _raw_terms, st.just(runs))))


def _longest_unit(e):
    """The longest ``s + " + "`` of a summand anywhere in e (0 if none)."""
    if isinstance(e, Gen):
        return 0
    if isinstance(e, Shift):
        return _longest_unit(e.expr)
    if isinstance(e, Cone):
        return max(_longest_unit(e.src), _longest_unit(e.tgt))
    return max((max(len(_reference_render(p)) + 3, _longest_unit(p)) for p, _ in e.parts), default=0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_raw_terms, _long_runs()))
def test_render_chunks_match_reference(e):
    want = _reference_render(e)
    assert render(e) == want
    chunks = list(formalcat.render_chunks(e))
    assert "".join(chunks) == want
    assert max(map(len, chunks), default=0) <= formalcat.RUN_SLICE + _longest_unit(e)


def test_render_chunks_keep_a_run_in_one_piece():
    part = Shift(Cone(Gen("A"), Gen("B")), 1)
    chunks = list(formalcat.render_chunks(Sum(((part, 40), (Gen("C"), 1)))))
    assert chunks == ["cone(A -> B)[1] + " * 39, "cone(A -> B)[1]", " + ", "C"]


def test_render_chunks_slice_a_long_run():
    unit = "j*O(-1) + "
    per_slice = formalcat.RUN_SLICE // len(unit)
    for mult, full, rest in ((per_slice + 1, 1, 0), (per_slice + 2, 1, 1), (3 * per_slice + 8, 3, 7)):
        chunks = list(formalcat.render_chunks(Sum(((Gen("j*O(-1)"), mult),))))
        assert chunks == [unit * per_slice] * full + [unit * rest] * (rest > 0) + ["j*O(-1)"]
        # one slice object, written again and again
        assert len({id(c) for c in chunks[:full]}) == 1


def test_compact_render_chunks_write_each_summand_once():
    run = Sum(((Gen("j*O(-1)"), 10**9), (Shift(Gen("j*O(-1)"), 1), 2), (Gen("A"), 1)))
    e = Sum(((Shift(Cone(Gen("j*S'"), run), 1), 3), (Gen("B"), 1)))
    assert "".join(formalcat.render_chunks(e, compact=True)) == (
        "cone(j*S' -> j*O(-1)^1000000000 + j*O(-1)[1]^2 + A)[1]^3 + B")


# ---------------------------------------------------------------------------
# sorting parts: the one-part fast paths and the bounded sort keys against
# the sort-by-rendered-text versions they replaced
# ---------------------------------------------------------------------------


def _text_len(e) -> int:
    """``len(render(e))``, counted on the tree."""
    if isinstance(e, Gen):
        return len(e.name)
    if isinstance(e, Shift):
        return _text_len(e.expr) + len(f"[{e.m}]")
    if isinstance(e, Cone):
        return len("cone( -> )") + _text_len(e.src) + _text_len(e.tgt)
    runs = [(p, r) for p, r in e.parts if r >= 1]
    if not runs:
        return 1
    return sum(r * (_text_len(p) + 3) for p, r in runs) - 3


class _Unwritten:
    """The reference's sort key for a part too long to write out.  A sort of
    one part never compares its key; comparing this one rejects the example."""

    def __lt__(self, other):
        reject()

    __gt__ = __lt__


def _reference_key(p):
    return render(p) if _text_len(p) <= 10_000 else _Unwritten()


def _reference_sorted_parts(pairs) -> tuple:
    acc = {}
    order = {}
    for p, r in pairs:
        if r == 0:
            continue
        acc[p] = acc.get(p, 0) + r
        order[p] = _reference_key(p)
    return tuple(sorted(((p, r) for p, r in acc.items()), key=lambda it: order[it[0]]))


def _reference_shift_expr(e, m):
    if m == 0:
        return e
    if isinstance(e, Shift):
        k = e.m + m
        return e.expr if k == 0 else Shift(e.expr, k)
    if isinstance(e, Sum):
        return Sum(_reference_sorted_parts([(_reference_shift_expr(p, m), r) for p, r in e.parts]))
    return Shift(e, m)


def _reference_normalize(e):
    if isinstance(e, Gen):
        return e
    if isinstance(e, Shift):
        return _reference_shift_expr(_reference_normalize(e.expr), e.m)
    if isinstance(e, Sum):
        flat = []
        for p, r in e.parts:
            q = _reference_normalize(p)
            if isinstance(q, Sum):
                flat.extend((pp, rr * r) for pp, rr in q.parts)
            else:
                flat.append((q, r))
        parts = _reference_sorted_parts(flat)
        if len(parts) == 1 and parts[0][1] == 1:
            return parts[0][0]
        return Sum(parts)
    src, tgt = _reference_normalize(e.src), _reference_normalize(e.tgt)
    if formalcat.is_zero(src):
        return tgt
    if formalcat.is_zero(tgt):
        return _reference_shift_expr(src, 1)
    s = src.m if isinstance(src, Shift) else 0
    if s:
        return Shift(Cone(_reference_shift_expr(src, -s), _reference_shift_expr(tgt, -s)), s)
    return Cone(src, tgt)


def _same(got, want) -> bool:
    # repr as well as equality; neither renders the text
    return got == want and repr(got) == repr(want)


# normal forms with shifts, nested cones and multiplicities up to 10^9
_normal_terms = st.recursive(
    st.builds(Gen, st.sampled_from(["j*S'", "j*S''(-1)", "j*O", "j*O(2)", "A"])),
    lambda inner: st.one_of(
        st.builds(shift_expr, inner, st.integers(-3, 3)),
        st.builds(lambda a, b: normalize(Cone(a, b)), inner, inner),
        st.lists(st.tuples(inner, st.integers(1, 3) | st.integers(1, 10**9)), min_size=1, max_size=3)
        .map(formalcat.sum_exprs),
    ),
    max_leaves=10,
)
_mults = st.integers(-3, 3) | st.integers(1, 10**9)


@settings(max_examples=300, deadline=None)
@given(_normal_terms, st.lists(st.tuples(st.integers(0, 2), _mults), min_size=1, max_size=4),
       st.integers(-3, 3), _mults)
def test_sorting_parts_matches_the_sort_by_text(e, picks, m, r):
    # a normal term normalizes to itself, the very object
    assert normalize(e) is e and _same(e, _reference_normalize(e))
    assert _same(shift_expr(e, m), _reference_shift_expr(e, m))
    # a one-part sum, raw, and pairs of e's parts, repeated and cancelling
    raw = Sum(((e, r),))
    assert _same(normalize(raw), _reference_normalize(raw))
    parts = [p for p, _ in e.parts] if isinstance(e, Sum) else [e]
    pairs = [(parts[i % len(parts)], k) for i, k in picks]
    assert _same(Sum(formalcat._sorted_parts(pairs)), Sum(_reference_sorted_parts(pairs)))


def test_one_part_sums_render_nothing(monkeypatch):
    # the part's text is ~10 GB, and a one-part sum has nothing to sort
    huge = Cone(Gen("j*S'"), Sum(((Gen("j*S'(-1)"), 10**9),)))

    def unwritten(*args):
        raise AssertionError("rendered a sort key")

    monkeypatch.setattr(formalcat, "render", unwritten)
    monkeypatch.setattr(formalcat, "render_chunks", unwritten)
    assert formalcat._sorted_parts([(huge, 2), (huge, 1)]) == ((huge, 3),)
    assert shift_expr(Sum(((huge, 3),)), 2) == Sum(((Shift(huge, 2), 3),))
    assert normalize(Sum(((huge, 1), (huge, 2)))) == Sum(((huge, 3),))


def _chunked(data, text):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=4)))
    return [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]


@settings(max_examples=300, deadline=None)
@given(st.text("ab", max_size=8), st.text("ab", max_size=4), st.data())
def test_text_order_of_chunk_streams(x, tail, data):
    # y is x, x with a tail, or unrelated; both cut into chunks at random
    y = data.draw(st.sampled_from([x, x + tail, tail]))
    got = formalcat._text_order(_chunked(data, x), _chunked(data, y))
    assert got == (x > y) - (x < y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_raw_terms, st.integers(1, 3)), min_size=2, max_size=5))
def test_streamed_sort_keys_keep_the_text_order(pairs):
    # with slices of 8 characters nearly every key and summand is streamed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formalcat, "RUN_SLICE", 8)
        got = formalcat._sorted_parts(pairs)
        chunks = list(formalcat.render_chunks(Sum(got)))
    assert [(repr(p), r) for p, r in got] == [(repr(p), r) for p, r in _reference_sorted_parts(pairs)]
    assert "".join(chunks) == _reference_render(Sum(got))


# ---------------------------------------------------------------------------
# the long-exact-sequence splicer against the three loops it replaced
# ---------------------------------------------------------------------------


def _reference_covariant(A, B, label):
    """Row Hom(W, cone(X -> Y)) from A = Hom(W, X), B = Hom(W, Y)."""
    out, bad = {}, []
    for k in sorted(set(B.support()) | {a - 1 for a in A.support()}):
        ak, bk = A.dim(k), B.dim(k)
        ak1, bk1 = A.dim(k + 1), B.dim(k + 1)
        if bk == 0:
            part1 = 0
        elif ak == 0:
            part1 = bk
        else:
            bad.append(k)
            continue
        if ak1 == 0:
            part2 = 0
        elif bk1 == 0:
            part2 = ak1
        else:
            bad.append(k)
            continue
        if part1 + part2:
            out[k] = part1 + part2
    if bad:
        raise IndeterminateHom(bad, label)
    return GradedDim.from_dict(out)


def _reference_contravariant(B, A, label):
    """Row Hom(cone(X -> Y), W) from B = Hom(Y, W), A = Hom(X, W)."""
    out, bad = {}, []
    for k in sorted(set(B.support()) | {a + 1 for a in A.support()}):
        ak, bk = A.dim(k), B.dim(k)
        ak0, bk0 = A.dim(k - 1), B.dim(k - 1)
        if bk == 0:
            part1 = 0
        elif ak == 0:
            part1 = bk
        else:
            bad.append(k)
            continue
        if ak0 == 0:
            part2 = 0
        elif bk0 == 0:
            part2 = ak0
        else:
            bad.append(k)
            continue
        if part1 + part2:
            out[k] = part1 + part2
    if bad:
        raise IndeterminateHom(bad, label)
    return GradedDim.from_dict(out)


def _reference_push(P, R, label):
    """Row Hom(j_*F, j_*G) from P = Hom_Q(F, G), R = Hom_Q(F(1), G)."""
    out, bad = {}, []
    for k in sorted(set(P.support()) | {r + 1 for r in R.support()}):
        pk, rk2 = P.dim(k), R.dim(k - 2)
        rk1, pk1 = R.dim(k - 1), P.dim(k + 1)
        if pk == 0:
            part1 = 0
        elif rk2 == 0:
            part1 = pk
        else:
            bad.append(k)
            continue
        if rk1 == 0:
            part2 = 0
        elif pk1 == 0:
            part2 = rk1
        else:
            bad.append(k)
            continue
        if part1 + part2:
            out[k] = part1 + part2
    if bad:
        raise IndeterminateHom(bad, label)
    return GradedDim.from_dict(out)


def _outcome(f, *args):
    try:
        return f(*args)
    except IndeterminateHom as exc:
        return ("indeterminate", exc.degrees, str(exc))


# (reference loop, s, t): the splice offsets of each caller
_SPLICE_CALLERS = [(_reference_covariant, 0, 1), (_reference_contravariant, 0, -1),
                   (_reference_push, -2, -1)]

_rows = st.dictionaries(st.integers(-4, 4), st.integers(1, 3), max_size=6).map(GradedDim.from_dict)


def _with_empty_rows(test):
    """Every caller meets an empty Y, an empty X and both, on every run."""
    row = gd({-1: 2, 0: 1, 3: 1})
    zero = GradedDim.zero()
    for caller in _SPLICE_CALLERS:
        for Y, X in ((zero, row), (row, zero), (zero, zero)):
            test = example(Y, X, caller)(test)
    return test


@_with_empty_rows
@settings(max_examples=200, deadline=None)
@given(_rows, _rows, st.sampled_from(_SPLICE_CALLERS))
def test_splice_matches_the_loops_it_replaced(Y, X, caller):
    # rows built directly: no context, so nothing is registered or memoized
    reference, s, t = caller
    # each reference takes its rows in its caller's order: (X, Y) for the
    # covariant row, (Y, X) for the other two
    ref_args = (X, Y) if reference is _reference_covariant else (Y, X)
    want = _outcome(reference, *ref_args, "Hom(F, G)")
    assert _outcome(formalcat.splice, Y, X, s, t, "Hom(F, G)") == want


# ---------------------------------------------------------------------------
# memoized failures
# ---------------------------------------------------------------------------


def _failing_pair():
    """A fresh context and an undecidable pair: Hom(cone(O -> O), O)."""
    from nodalcat import quadric

    ctx = quadric.sheaf_context(3)
    return ctx, Cone(Gen("O"), Gen("O")), Gen("O")


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def test_memoized_failure_keeps_its_traceback_depth():
    ctx, F, G = _failing_pair()
    depths = []
    for _ in range(6):
        with pytest.raises(IndeterminateHom) as exc:
            hom(ctx, F, G)
        depths.append(_traceback_depth(exc.value))
    # the first call computes, the next five re-raise the memoized failure
    assert len(set(depths[1:])) == 1
    # the memo keeps a record of the failure's class and args, never the
    # exception: nothing stored holds a traceback, frame, cause or context
    stored = [v for v in ctx._memo.values() if isinstance(v, Failure)]
    assert stored
    assert not any(isinstance(v, BaseException) for v in ctx._memo.values())
    pinning = (BaseException, types.TracebackType, types.FrameType)
    for record in stored:
        assert not hasattr(record, "__dict__")
        parts = list(record.args)
        for part in record.args:  # a message thunk's closure too
            parts += [cell.cell_contents for cell in getattr(part, "__closure__", None) or ()]
        assert not any(isinstance(part, pinning) for part in parts)
        fresh = record.exception()
        assert fresh.__traceback__ is None
        assert fresh.__context__ is None and fresh.__cause__ is None


def test_memoized_failure_pins_no_caller_frame():
    import weakref

    ctx, F, G = _failing_pair()

    class Local:
        pass

    def caller():
        local = Local()
        try:
            hom(ctx, F, G)
        except IndeterminateHom:
            pass
        return weakref.ref(local)

    for _ in range(2):  # computed, then memoized
        assert caller()() is None


def _three_failures(ctx, F, G):
    """(message, degrees) of three calls of an undecidable hom: computed, then memoized."""
    texts = []
    for _ in range(3):
        with pytest.raises(IndeterminateHom) as exc:
            hom(ctx, F, G)
        texts.append((str(exc.value), exc.value.degrees))
    return texts


def test_memoized_failure_reraises_the_same_message():
    texts = _three_failures(*_failing_pair())
    assert texts[0] == texts[1] == texts[2]
    assert texts[0][0] == "indeterminate degrees [0, 1] (Hom(cone(O -> O), O))"


def test_memoized_covariant_failure_reraises_the_same_message():
    # the cone in the target: decided by the covariant row alone
    ctx = quadric.sheaf_context(3)
    texts = _three_failures(ctx, Gen("O"), Cone(Gen("O"), Gen("O")))
    assert texts[0] == texts[1] == texts[2]
    assert texts[0] == ("indeterminate degrees [-1, 0] (Hom(O, cone(O -> O)))", (-1, 0))


def test_indeterminate_message_is_built_only_when_printed():
    calls = []

    def message():
        calls.append(1)
        return iter(("Hom(", "X", ")"))

    exc = IndeterminateHom([2, 1], message)
    assert not calls
    assert str(exc) == "indeterminate degrees [1, 2] (Hom(X))"
    assert str(IndeterminateHom([0])) == "indeterminate degrees [0]"
    assert str(IndeterminateHom([0], "why")) == "indeterminate degrees [0] (why)"


# ---------------------------------------------------------------------------
# interned generators and the resolve cache
# ---------------------------------------------------------------------------


class TestInternedGen:
    def test_one_object_per_name(self):
        assert Gen("a") is Gen("a")
        assert Gen("a") is not Gen("b")
        assert Gen("a") == Gen("a") and Gen("a") != Gen("b")
        assert Gen("a") != "a"

    def test_copy_deepcopy_and_pickle_keep_identity(self):
        g = Gen("a")
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
        e = normalize(Cone(Shift(g, 2), Sum(((Gen("b"), 3),))))
        for clone in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert clone == e
            assert _first_leaf(clone) is g

    def test_cone_hash_is_recomputed_by_copies(self):
        # a cone keeps its hash once computed; copies and unpickled cones
        # start without it (None) and compute the same value
        e = Cone(Cone(Gen("a"), Shift(Gen("b"), 1)), Sum(((Gen("a"), 2),)))
        want = hash((e.src, e.tgt))
        assert e._hash is None
        assert hash(e) == want and hash(e) == want and e._hash == want
        for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert clone._hash is None
            assert clone == e and repr(clone) == repr(e)
            assert hash(clone) == want
        assert repr(e) == ("Cone(src=Cone(src=Gen(name='a'), tgt=Shift(expr=Gen(name='b'), m=1)), "
                           "tgt=Sum(parts=((Gen(name='a'), 2),)))")

    def test_sum_hash_is_recomputed_by_copies(self):
        # a sum keeps its hash once computed, as a cone does; copies and
        # unpickled sums start without it and compute the same value
        e = Sum(((Shift(Gen("a"), -1), 2), (Cone(Gen("a"), Gen("b")), 3)))
        want = hash((e.parts,))
        assert e._hash is None
        assert hash(e) == want and hash(e) == want and e._hash == want
        for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert clone._hash is None
            assert clone == e and repr(clone) == repr(e)
            assert hash(clone) == want
        # equal sums hash equal
        twin = Sum(((Shift(Gen("a"), -1), 2), (Cone(Gen("a"), Gen("b")), 3)))
        assert twin == e and hash(twin) == want and {e: 1}[twin] == 1
        assert repr(e) == ("Sum(parts=((Shift(expr=Gen(name='a'), m=-1), 2), "
                           "(Cone(src=Gen(name='a'), tgt=Gen(name='b')), 3)))")

    def test_assignment_raises(self):
        g = Gen("a")
        with pytest.raises(AttributeError):
            g.name = "b"
        with pytest.raises(AttributeError):
            del g.name
        with pytest.raises(AttributeError):
            g.other = 1
        assert g.name == "a" and Gen("a") is g

    def test_repr_unchanged(self):
        assert repr(Gen("A")) == "Gen(name='A')"
        assert repr(Shift(Gen("j*S'"), -1)) == "Shift(expr=Gen(name=\"j*S'\"), m=-1)"


def _first_leaf(e):
    """The first generator leaf of a normalized term."""
    while not isinstance(e, Gen):
        e = e.expr if isinstance(e, Shift) else e.src if isinstance(e, Cone) else e.parts[0][0]
    return e


class TestResolveCache:
    def _counting_context(self):
        calls = []

        def resolve(name):
            calls.append(name)
            if name not in ("A", "B"):
                raise UnknownGenerator(name)
            return ("resolved", name)

        seen = []

        def base(a, b):
            seen.append((a, b))
            return C if a == b else GradedDim.zero()

        ctx = Context(name="counting", generators=("A", "B"), base_hom=base, gen_resolve=resolve)
        return ctx, calls, seen

    def test_successful_resolution_runs_once_per_name(self):
        ctx, calls, _ = self._counting_context()
        first = ctx.resolve("A")
        assert ctx.resolve("A") is first
        hom(ctx, Gen("A"), Gen("B"))
        hom(ctx, Gen("B"), Gen("A"))
        assert calls == ["A", "B"]

    @pytest.mark.parametrize("with_resolver", [True, False])
    def test_unknown_name_raises_on_every_call(self, with_resolver):
        ctx = self._counting_context()[0] if with_resolver else Context(
            name="plain", generators=("A",), base_hom=lambda a, b: C)
        for _ in range(3):
            with pytest.raises(UnknownGenerator):
                ctx.resolve("X")
            with pytest.raises(UnknownGenerator):
                hom(ctx, Gen("X"), Gen("A"))
            with pytest.raises(UnknownGenerator):
                mutate_right(ctx, Gen("X"), Gen("A"))

    def test_base_hom_receives_resolved_objects(self):
        ctx, _, seen = self._counting_context()
        assert hom(ctx, Gen("A"), Gen("A")) == C
        assert seen == [(("resolved", "A"), ("resolved", "A"))]
        assert seen[0][0] is ctx.resolve("A")

    def test_plain_context_resolves_names_to_themselves(self):
        seen = []
        ctx = Context(name="plain", generators=("A",),
                      base_hom=lambda a, b: seen.append((a, b)) or C)
        assert hom(ctx, Gen("A"), Gen("A")) == C
        assert seen == [("A", "A")]

    def test_sheaf_contexts_get_sheaves(self):
        ctx = nodal.build_context(4)
        S = ctx.resolve("j*S")
        assert S == quadric.QuadricSheaf(quadric.SPINOR, 0)
        assert ctx.base_hom(S, S) == gd({0: 1, 2: 1})
        qctx = quadric.sheaf_context(3)
        O, O1 = qctx.resolve("O"), qctx.resolve("O(1)")
        assert qctx.base_hom(O, O1) == quadric.hom_quadric(3, O, O1)


# ---------------------------------------------------------------------------
# the lean mutation loop against the forms it replaced
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), st.integers(0, 10**6), max_size=6),
       st.sampled_from(["A", "j*O(-1)", "j*S'", "j*S''(2)"]), st.sampled_from([-1, 1]))
def test_tensor_matches_the_normalized_sum(entries, name, sign):
    V, E = gd(entries), Gen(name)
    want = formalcat.sum_exprs((shift_expr(E, sign * k), r) for k, r in V.entries)
    got = formalcat._tensor(V, E, sign)
    assert got == want
    assert repr(got) == repr(want)


def _mutation_outcome(mutate, ctx, E, F):
    try:
        return mutate(ctx, E, F)
    except (IndeterminateHom, NotExceptional, UnknownGenerator) as exc:
        return type(exc), str(exc)


def test_mutation_commutes_with_shifts(fresh_contexts):
    # fresh contexts: the cones these mutations register stay out of the
    # process-wide ones
    for d in (4, 5):
        ctx = nodal.build_context(d)
        lines = [Gen(g) for g in ctx.generators if g.startswith("j*O")]
        objects = [Gen(g) for g in ctx.generators] + [normalize(Cone(lines[0], Shift(lines[-1], 1)))]
        for E in lines:
            for F in objects:
                for mutate in (mutate_right, mutate_left):
                    for m in (-2, 1, 3):
                        shifted = _mutation_outcome(mutate, ctx, E, shift_expr(F, m))
                        plain = _mutation_outcome(mutate, ctx, E, F)
                        if isinstance(plain, tuple):
                            assert shifted == plain, (d, E, F, m)
                        else:
                            assert shifted == shift_expr(plain, m), (d, E, F, m)


@settings(max_examples=200, deadline=None)
@given(_raw_terms, _raw_terms)
def test_cone_of_is_normalize_of_the_cone(a, b):
    a, b = normalize(a), normalize(b)
    assert repr(formalcat.cone_of(a, b)) == repr(normalize(Cone(a, b)))


# ---------------------------------------------------------------------------
# memoized mutation steps
# ---------------------------------------------------------------------------


def _mutation_keys(ctx):
    return [key for key in ctx._memo if len(key) == 3]


@st.composite
def _memo_scripts(draw):
    """A nodal dimension and a script of mutation and Serre queries over a
    few of its roster generators: generators, shifted generators and
    one-level cones of those.  Drawing from a few generators makes queries
    share steps, in both directions."""
    d = draw(st.integers(3, 9))
    roster = nodal._setup.__wrapped__(d).context.generators
    pool = draw(st.lists(st.sampled_from(roster), min_size=1, max_size=4, unique=True))
    gens = st.builds(Gen, st.sampled_from(pool))
    leaves = gens | st.builds(Shift, gens, st.integers(-2, 2).filter(bool))
    objects = leaves | st.builds(lambda a, b: normalize(Cone(a, b)), leaves, leaves)
    through = st.lists(st.sampled_from(pool), min_size=1, max_size=2).map(tuple)
    query = st.one_of(
        st.tuples(st.sampled_from(["mutate_right", "mutate_left"]), through, objects),
        st.tuples(st.sampled_from(["serre_in", "relative_serre"]), st.none(), objects),
    )
    return d, draw(st.lists(query, min_size=1, max_size=8))


def _run_memo_script(d, script, drop_steps):
    """Answers (reprs or typed errors), derived triangles and
    zero facts of a script on a fresh context; with ``drop_steps``
    every mutation entry leaves the memo before each query."""
    nodal._setup.cache_clear()
    setup = nodal._setup(d)
    ctx = setup.context
    answers = []
    for kind, through, F in script:
        if drop_steps:
            for key in _mutation_keys(ctx):
                del ctx._memo[key]
        try:
            if kind == "mutate_right":
                got = mutate_right(ctx, through, F)
            elif kind == "mutate_left":
                got = mutate_left(ctx, through, F)
            elif kind == "serre_in":
                got = serre_in(ctx, setup.perp, F)
            else:
                got = nodal.relative_serre(d, F)
            answers.append(repr(got))
        except NodalcatError as exc:
            answers.append((type(exc).__name__, str(exc)))
    facts = sorted(map(repr, ctx._zero_facts))
    return answers, repr(list(ctx.all_triangles())), facts


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_memo_scripts())
# one step asked in both directions: Hom(j*O, j*O(-1)) and Hom(j*O(-1), j*O)
# are both nonzero at d = 3
@example((3, [("mutate_right", ("j*O(-1)",), Gen("j*O")),
              ("mutate_left", ("j*O(-1)",), Gen("j*O"))]))
# the two Serre chains of verify's kernel checks
@example((5, [("serre_in", None, Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2))),
              ("relative_serre", None, Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)))]))
def test_memoized_steps_answer_as_recomputed_ones(fresh_contexts, script):
    d, queries = script
    assert _run_memo_script(d, queries, False) == _run_memo_script(d, queries, True)


@pytest.mark.parametrize("d", range(3, 10))
def test_second_kernel_generator_is_all_hits(monkeypatch, fresh_contexts, d):
    first = nodal.kernel_generator(d)
    ctx = nodal.build_context(d)
    memo, triangles = dict(ctx._memo), list(ctx.all_triangles())
    probes = []
    indexed = formalcat._identify_cone
    monkeypatch.setattr(formalcat, "_identify_cone",
                        lambda *args: probes.append(args) or indexed(*args))
    assert repr(nodal.kernel_generator(d)) == repr(first)
    assert ctx._memo == memo
    assert list(ctx.all_triangles()) == triangles
    assert probes == []


def _raised_twice(exc_type, f, *args):
    texts = []
    for _ in range(2):
        with pytest.raises(exc_type) as exc:
            f(*args)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    return texts[0]


def test_mutation_through_a_non_exceptional_generator_stores_nothing(fresh_contexts):
    ctx = nodal.build_context(4)
    memo = dict(ctx._memo)
    text = _raised_twice(NotExceptional, mutate_right, ctx, Gen("j*S"), Gen("j*O"))
    assert text == "j*S has Hom-algebra C + C[-2]"
    assert _mutation_keys(ctx) == [key for key in memo if len(key) == 3]


def test_failing_serre_chain_stores_no_failing_step(monkeypatch, fresh_contexts):
    d = 10
    ctx = nodal.build_context(d)
    failed = []
    step = formalcat._mutate_one

    def recording(ctx, E, F, right):
        try:
            return step(ctx, E, F, right)
        except IndeterminateHom:
            failed.append((E, F, right))
            raise

    monkeypatch.setattr(formalcat, "_mutate_one", recording)
    args = (ctx, nodal.perp_collection(d), Gen("j*O(-8)"))
    with pytest.raises(IndeterminateHom) as exc:
        serre_in(*args)
    keys = _mutation_keys(ctx)
    assert failed and not any(key in ctx._memo for key in failed)
    # the second run re-raises through the Hom memo: the same text, and the
    # steps before the failure are hits
    assert _raised_twice(IndeterminateHom, serre_in, *args) == str(exc.value)
    assert _mutation_keys(ctx) == keys
