import copy
import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nodalcat import formalcat, nodal, quadric
from nodalcat.errors import IndeterminateHom, NodalcatError, NotExceptional, UnknownGenerator
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

    def test_identity_cone(self):
        assert normalize(Cone(Gen("A"), Gen("A"), tag="identity")) == ZERO

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
        for tri in ctx.all_triangles():
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
# cone identification: the rotation index against a brute-force scan
# ---------------------------------------------------------------------------


def _scan_identify_cone(ctx, src, tgt):
    """Reference: scan every triangle and rotation, first match wins."""

    def min_shift(e):
        if isinstance(e, Sum):
            return min(formalcat._outer_shift(p) for p, _ in e.parts)
        return formalcat._outer_shift(e)

    for tri in ctx.all_triangles():
        t = tri.normalized()
        rotations = (
            (t.x, t.y, t.z),
            (t.y, t.z, shift_expr(t.x, 1)),
            (t.z, shift_expr(t.x, 1), shift_expr(t.y, 1)),
        )
        for p, q, res in rotations:
            s = min_shift(src) - min_shift(p)
            if shift_expr(p, s) == src and shift_expr(q, s) == tgt:
                return shift_expr(res, s)
    return None


def test_index_matches_scan_on_verify_probes(monkeypatch, fresh_contexts):
    # fresh contexts, so the probes do not depend on what earlier tests
    # registered
    indexed = formalcat._identify_cone
    probes = []

    def recording(ctx, src, tgt):
        got = indexed(ctx, src, tgt)
        # repr shows the cone tags, which equality ignores
        probes.append((repr(got), repr(_scan_identify_cone(ctx, src, tgt))))
        return got

    monkeypatch.setattr(formalcat, "_identify_cone", recording)
    # mutation steps are memoized, so only a step's first run probes: d up
    # to 22 keeps the probes above the floor (320 of them)
    for d in range(2, 23):
        assert nodal.verify_dim(d).all_pass
    assert len(probes) > 300
    assert [got for got, _ in probes] == [want for _, want in probes]


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 9), st.data(), st.integers(0, 2), st.integers(-4, 4))
def test_index_finds_every_rotation_up_to_shift(d, data, r, s):
    ctx = nodal.build_context(d)
    triangles = list(ctx.all_triangles())
    t = data.draw(st.sampled_from(triangles)).normalized()
    x1 = shift_expr(t.x, 1)
    p, q, res = ((t.x, t.y, t.z), (t.y, t.z, x1), (t.z, x1, shift_expr(t.y, 1)))[r]
    got = formalcat._identify_cone(ctx, shift_expr(p, s), shift_expr(q, s))
    assert got == shift_expr(res, s)


def test_colliding_keys_first_registered_decides():
    A, B = Gen("A"), Gen("B")
    first = Triangle(A, B, Cone(A, B, tag="first"))
    # equal to `first` up to tags: both sit in the static tuple
    twin = Triangle(A, B, Cone(A, B, tag="twin"))
    ctx = Context(name="toy", generators=("A", "B"), base_hom=lambda a, b: C,
                  triangles=(first, twin))
    assert formalcat._identify_cone(ctx, A, B).tag == "first"
    # a shifted copy is a new triangle with the same keys
    ctx.add_triangle(Triangle(Shift(A, 3), Shift(B, 3), Shift(Cone(A, B, tag="shifted"), 3)))
    assert len(ctx._derived_triangles) == 1
    got = formalcat._identify_cone(ctx, Shift(A, 2), Shift(B, 2))
    assert got == Shift(Cone(A, B), 2) and got.expr.tag == "first"
    assert repr(got) == repr(_scan_identify_cone(ctx, Shift(A, 2), Shift(B, 2)))
    # rotations share the rule: cone(B -> cone(A -> B)) = A[1]
    assert formalcat._identify_cone(ctx, B, Cone(A, B)) == Shift(A, 1)
    assert formalcat._identify_cone(ctx, B, A) is None


def test_add_triangle_dedupes_and_keeps_order():
    A, B = Gen("A"), Gen("B")
    static = Triangle(A, B, Cone(A, B))
    ctx = Context(name="toy", generators=("A", "B"), base_hom=lambda a, b: C,
                  triangles=(static,))
    t1 = Triangle(B, A, Cone(B, A))
    t2 = Triangle(A, Shift(B, 1), Cone(A, Shift(B, 1)))
    for tri in (static, t1, Triangle(Shift(Shift(B, 1), -1), A, Cone(B, A), tag="again"), t2, t1):
        ctx.add_triangle(tri)
    assert ctx._derived_triangles == [t1, t2]
    assert list(ctx.all_triangles()) == [static, t1, t2]


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
    stored = [v for v in ctx._memo.values() if isinstance(v, Exception)]
    assert stored
    for exc in stored:
        assert exc.__traceback__ is None
        assert exc.__context__ is None and exc.__cause__ is None


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
        # start without it and compute the same value
        e = Cone(Cone(Gen("a"), Shift(Gen("b"), 1), tag="inner"), Sum(((Gen("a"), 2),)), tag="outer")
        want = hash((e.src, e.tgt))
        assert hash(e) == want and hash(e) == want
        for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert not hasattr(clone, "_hash")
            assert clone == e and clone.tag == "outer"
            assert hash(clone) == want
        assert repr(e) == ("Cone(src=Cone(src=Gen(name='a'), tgt=Shift(expr=Gen(name='b'), m=1), tag='inner'), "
                           "tgt=Sum(parts=((Gen(name='a'), 2),)), tag='outer')")

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
@given(_raw_terms, _raw_terms, st.sampled_from(["", "f", "identity"]))
def test_cone_of_is_normalize_of_the_cone(a, b, tag):
    a, b = normalize(a), normalize(b)
    assert repr(formalcat.cone_of(a, b, tag)) == repr(normalize(Cone(a, b, tag)))


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
    """Answers (reprs, tags included, or typed errors), derived triangles and
    derived zero facts of a script on a fresh context; with ``drop_steps``
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
    facts = sorted(map(repr, ctx._derived_zero_facts))
    return answers, repr(ctx._derived_triangles), facts


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
    memo, triangles = dict(ctx._memo), list(ctx._derived_triangles)
    probes = []
    indexed = formalcat._identify_cone
    monkeypatch.setattr(formalcat, "_identify_cone",
                        lambda *args: probes.append(args) or indexed(*args))
    assert repr(nodal.kernel_generator(d)) == repr(first)
    assert ctx._memo == memo
    assert ctx._derived_triangles == triangles
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
