import functools
import hashlib

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nodalcat import formalcat, nodal, quadric
from nodalcat.errors import NodalcatError, UnknownGenerator, UnsupportedPair
from nodalcat.formalcat import SOD, Cone, Gen, Shift, normalize, render
from nodalcat.graded import GradedDim
from nodalcat.quadric import QuadricSheaf as QS
from tautological import min_shift, rotations, scan_cone, step_legs, tautological_triangles


def gd(d):
    return GradedDim.from_dict(d)


class TestHomPush:
    def test_spinor_self_even_dim(self):
        assert nodal.hom_push(3, QS("S"), QS("S")) == gd({0: 1, 2: 1})

    def test_spinor_cross_odd_dim(self):
        assert nodal.hom_push(2, QS("S'"), QS("S''")) == gd({2: 1})

    def test_push_pull_vanish(self):
        assert nodal.hom_push(3, QS("S", 1), QS("O")).is_zero
        for n in (2, 3, 4, 5):
            for k in range(1 - n, 0):
                spin = QS("S") if n % 2 else QS("S'")
                assert nodal.hom_push(n, spin, QS("O", k)).is_zero

    def test_reverse_direction_computed_independently(self):
        # the spinor-swapped row comes from its own splice and must agree
        for n in (2, 4, 6, 8, 10, 12):
            fwd = nodal.hom_push(n, QS("S'"), QS("S''"))
            rev = nodal.hom_push(n, QS("S''"), QS("S'"))
            assert fwd == rev == gd({2: 1})

    def test_line_bundle_exceptional_row(self):
        for n in (2, 3, 5, 8):
            assert nodal.hom_push(n, QS("O"), QS("O")) == gd({0: 1})

    def test_chi_bridge(self):
        # euler of the splice equals the difference of the two chi values
        for n in (1, 2, 3, 4, 5):
            kinds = ["O"] + (["S"] if n % 2 else ["S'", "S''"])
            sheaves = [QS(kd, k) for kd in kinds for k in range(1 - n, 2)]
            for F in sheaves:
                for G in sheaves:
                    try:
                        h = nodal.hom_push(n, F, G)
                    except UnsupportedPair:
                        continue
                    chi = quadric.chi_quadric(n, F, G) - quadric.chi_quadric(n, F.twisted(1), G)
                    assert h.euler() == chi, (n, str(F), str(G))

    def test_unsupported_propagates(self):
        with pytest.raises(UnsupportedPair):
            nodal.hom_push(4, QS("S'"), QS("S'", 1))


def test_a_failing_class_is_computed_once(fresh_contexts, monkeypatch):
    # two pairs of the class (S', -2, S'') on nodal:9, each asked twice:
    # one computation, then fresh errors from one record, with the same bytes
    ctx = nodal.build_context(9)
    calls = []
    push_value = nodal._push_value
    monkeypatch.setattr(nodal, "_push_value", lambda *args: calls.append(args) or push_value(*args))
    monkeypatch.setattr(nodal, "_pair_value", functools.cache(nodal._pair_value.__wrapped__))
    raised = []
    for a, b in [("j*S'(-2)", "j*S''"), ("j*S'(-3)", "j*S''(-1)")] * 2:
        with pytest.raises(UnsupportedPair) as exc:
            formalcat.hom(ctx, Gen(a), Gen(b))
        raised.append(exc.value)
    assert calls == [(8, "S'", -2, "S''", 0)]
    # both pairs' memo entries are the class's one record
    assert ctx._memo[Gen("j*S'(-2)"), Gen("j*S''")] is ctx._memo[Gen("j*S'(-3)"), Gen("j*S''(-1)")]
    assert len({id(exc) for exc in raised}) == 4
    assert {str(exc) for exc in raised} == {
        "Hom(S'(-2), S'') on Q^8: twist difference -2 is outside the range 0..8 reachable "
        "by the tautological-sequence recursion"}


class TestBuildContext:
    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            nodal.build_context(1)

    def test_perp_even(self):
        assert nodal.perp_collection(4) == ("j*O(-2)", "j*O(-1)")

    def test_perp_odd_contains_mutated_spinor(self):
        perp = nodal.perp_collection(5)
        assert perp == ("j*O(-3)", "j*O(-2)", "j*O(-1)", "j*S''")
        assert "j*S'(-1)" not in perp

    def test_perp_d2_empty(self):
        assert nodal.perp_collection(2) == ()

    def test_roster(self):
        ctx = nodal.build_context(4)
        assert "j*O(-2)" in ctx.generators
        assert "j*S(1)" in ctx.generators
        ctx5 = nodal.build_context(5)
        assert "j*S''(-3)" in ctx5.generators

    def test_d2_hom_algebra(self):
        ctx = nodal.build_context(2)
        assert formalcat.hom(ctx, Gen("j*S"), Gen("j*S")) == gd({0: 1, 2: 1})
        # pushforward line bundles are NOT exceptional on a surface
        assert formalcat.hom(ctx, Gen("j*O"), Gen("j*O")) == gd({0: 1, 2: 1})

    def test_twist_equivariance_of_rows(self):
        ctx = nodal.build_context(5)
        a = formalcat.hom(ctx, Gen("j*S'(-1)"), Gen("j*S''(-1)"))
        b = formalcat.hom(ctx, Gen("j*S'"), Gen("j*S''"))
        assert a == b == gd({2: 1})

    @pytest.mark.parametrize("d", [2, 3, 4, 13])
    def test_roster_resolves_as_parsed(self, d):
        # the build fills the resolve memo from kinds and twists; what it
        # holds is what parsing each roster name gives
        ctx = nodal._setup.__wrapped__(d).context
        assert all(ctx.has_resolved(g) for g in ctx.generators)
        assert [ctx.resolve(g) for g in ctx.generators] == [
            nodal.parse_push_name.__wrapped__(g) for g in ctx.generators]

    def test_parse_cache_is_bounded(self, fresh_contexts):
        # the roster is resolved without the shared parse cache, which is
        # bounded: the largest context adds nothing to it
        before = nodal.parse_push_name.cache_info()
        ctx = nodal.build_context(100000)
        after = nodal.parse_push_name.cache_info()
        assert len(ctx.generators) == 200000
        assert after.maxsize is not None and after.currsize <= after.maxsize
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_declared_exceptional_rows(self):
        # the pushed line bundles for d >= 3, and the pushed spinors too
        # for odd d, have endomorphism algebra C
        for d in range(3, 14):
            ctx = nodal.build_context(d)
            for g in ctx.generators:
                if d % 2 == 1 or nodal.parse_push_name(g).is_line:
                    assert formalcat.hom(ctx, Gen(g), Gen(g)) == gd({0: 1}), (d, g)


# ---------------------------------------------------------------------------
# context construction, and the step rule against the written-out triangles
# ---------------------------------------------------------------------------


def _kernel_facts():
    """The kernel cone's fact, as odd d records it at build."""
    spp = Gen("j*S''")
    return {(Cone(Gen("j*S'"), Shift(spp, 2)), spp)}


def _reference_index(triangles) -> dict:
    """Every rotation of every triangle (x, y, z) shifted by its minimal
    shift, the zero one included, first triangle winning."""
    index = {}
    for tri in triangles:
        for p, q, res in rotations(tri):
            m = min_shift(p)
            key = (formalcat.shift_expr(p, -m), formalcat.shift_expr(q, -m))
            index.setdefault(key, formalcat.shift_expr(res, -m))
    return index


def _step_values(r: int) -> list:
    """Hom values of the steps near the tautological triangles, whose middle
    rank is r: 0, C^(r-1), C^r, C^(r+1), C^r[-1], C[-1], C^2[-1], C[-2]."""
    return [GradedDim.zero(), *(gd({0: m}) for m in (r - 1, r, r + 1)),
            gd({1: r}), gd({1: 1}), gd({1: 2}), gd({2: 1})]


def _rule_steps(n, prefix, twists):
    """Generator steps around the tautological triangles: F at each twist k
    of ``twists``, E at k - 1..k + 1 of them, both directions, and every
    value of ``_step_values``."""
    kinds = ("O", "S") if n % 2 == 1 else ("O", "S'", "S''")
    values = _step_values(2 ** ((n + 1) // 2))

    def at(k):
        return [Gen(prefix + QS(kd, k).render()) for kd in kinds]

    for k in twists:
        for F in at(k):
            for E in (e for j in (k - 1, k, k + 1) if j in twists for e in at(j)):
                for V in values:
                    yield E, F, V, True
                    yield E, F, V, False


def _assert_built_as_reference(ctx, n, prefix, roster, facts):
    assert ctx._zero_facts == facts
    assert ctx.generators == tuple(roster)
    # on the steps at the roster twists and five beyond on each side, which
    # reach every rotation of each triangle between sheaves at those twists,
    # the rule answers as ``_reference_index`` of the written-out triangles,
    # one more twist on each side included
    low, top = (f(ctx.resolve(g).twist for g in roster) for f in (min, max))
    index = _reference_index(tautological_triangles(n, prefix, range(low - 6, top + 6)))
    keys = set()
    for E, F, V, right in _rule_steps(n, prefix, range(low - 5, top + 6)):
        # the rule reads both from the resolve cache
        ctx.resolve(E.name), ctx.resolve(F.name)
        src, tgt = step_legs(E, F, V, right)
        m = min_shift(src)
        key = (formalcat.shift_expr(src, -m), formalcat.shift_expr(tgt, -m))
        keys.add(key)
        want = index.get(key)
        if want is not None:
            want = formalcat.shift_expr(want, m - 1 if right else m)
        assert repr(ctx.step_rule(E, F, V, right)) == repr(want), (E, F, V, right)
    assert set(_reference_index(tautological_triangles(n, prefix, range(low - 5, top + 5)))) <= keys


@pytest.mark.parametrize("d", range(2, 31))
def test_nodal_context_built_as_the_reference(d):
    ctx = nodal._setup.__wrapped__(d).context
    n, kinds = d - 1, quadric.spinor_kinds(d - 1)
    roster = [nodal.push_name(QS("O", k)) for k in range(1 - n, 2)]
    roster += [nodal.push_name(QS(kd, k)) for k in range(1 - n, 2) for kd in kinds]
    _assert_built_as_reference(ctx, n, "j*", roster, _kernel_facts() if d % 2 else set())


@pytest.mark.parametrize("n", range(1, 11))
def test_quadric_context_built_as_the_reference(n):
    kinds = ("S",) if n % 2 == 1 else ("S'", "S''")
    roster = [QS("O", k).render() for k in (0, 1)] + [QS(kd, k).render() for k in (0, 1) for kd in kinds]
    _assert_built_as_reference(quadric.sheaf_context(n), n, "", roster, set())


@st.composite
def _drawn_steps(draw):
    """A family context, nodal:2..13 or ``quadric.sheaf_context(1..8)``, as
    (kind, dimension), and a generator step (E, F, V, right) in it: F at a
    twist k in -6..6, E at k - 1..k + 1, V from ``_step_values``; E's
    kind is drawn more often as the successor of F's, and V as one of the
    two values of the named steps."""
    where = draw(st.tuples(st.just("nodal"), st.integers(2, 13)) | st.tuples(st.just("quadric"), st.integers(1, 8)))
    n = where[1] - 1 if where[0] == "nodal" else where[1]
    prefix = "j*" if where[0] == "nodal" else ""
    kinds = st.sampled_from(("O", "S") if n % 2 == 1 else ("O", "S'", "S''"))
    k, f = draw(st.integers(-6, 6)), draw(kinds)
    successor = {"O": "O", "S": "S", "S'": "S''", "S''": "S'"}[f]
    F = Gen(prefix + QS(f, k).render())
    E = Gen(prefix + QS(draw(kinds | st.just(successor)), k + draw(st.integers(-1, 1))).render())
    values = _step_values(2 ** ((n + 1) // 2))
    V = draw(st.sampled_from(values) | st.sampled_from(values[2:6:3]))
    return where, E, F, V, draw(st.booleans())


def _nodal5_step(through, target, V, right):
    return ("nodal", 5), Gen(through), Gen(target), gd(V), right


@settings(max_examples=300, deadline=None)
@given(_drawn_steps())
# the four named steps at nodal:5 (r = 4), a value one off in rank or in
# degree, and the spinor steps one twist off
@example(_nodal5_step("j*O", "j*S'", {0: 4}, True))
@example(_nodal5_step("j*O(-1)", "j*S'", {0: 4}, False))
@example(_nodal5_step("j*S''(-1)", "j*S'", {1: 1}, True))
@example(_nodal5_step("j*S'", "j*S''(-1)", {1: 1}, False))
@example(_nodal5_step("j*O", "j*S'", {0: 5}, True))
@example(_nodal5_step("j*O(-1)", "j*S'", {1: 4}, False))
@example(_nodal5_step("j*S''(-1)", "j*S'", {1: 2}, True))
@example(_nodal5_step("j*S'", "j*S''(-1)", {2: 1}, False))
@example(_nodal5_step("j*O", "j*S'", {0: 4}, False))
@example(_nodal5_step("j*S''", "j*S'", {1: 1}, True))
@example(_nodal5_step("j*S'", "j*S''", {1: 1}, False))
def test_step_rule_matches_the_triangle_scan(step):
    # the rule's answer is the scan's cone of the step's legs, moved by
    # [-1] for a right step, or None where no rotation matches
    (kind, dim), E, F, V, right = step
    if kind == "nodal":
        ctx, n = nodal._setup.__wrapped__(dim).context, dim - 1
    else:
        ctx, n = quadric.sheaf_context(dim), dim
    # the rule reads both from the resolve cache
    ctx.resolve(E.name)
    k = ctx.resolve(F.name).twist
    triangles = tautological_triangles(n, "j*" if kind == "nodal" else "", range(k - 3, k + 3))
    want, _ = scan_cone(triangles, *step_legs(E, F, V, right))
    if want is not None and right:
        want = formalcat.shift_expr(want, -1)
    assert repr(ctx.step_rule(E, F, V, right)) == repr(want)


# (context, another spelling of a generator, the name the context writes)
_RESPELLED = [
    ("nodal:4", "j*O(0)", "j*O"),
    ("nodal:4", "j*O(-0)", "j*O"),
    ("nodal:4", "j*O(01)", "j*O(1)"),
    ("quadric:3", "O(0)", "O"),
    ("quadric:3", " O", "O"),
]


@pytest.mark.parametrize("where, name, canonical", _RESPELLED)
def test_one_spelling_per_generator(fresh_contexts, where, name, canonical):
    # a context resolves only the names it writes, so j*O(0) can never give
    # an answer of its own beside j*O's; its twist rule reads either
    if where == "nodal:4":
        ctx, other = nodal.build_context(4), Gen("j*S")
    else:
        ctx, other = quadric.sheaf_context(3), Gen("S")
    calls = [
        lambda: formalcat.hom(ctx, Gen(name), other),
        lambda: formalcat.hom(ctx, other, Gen(name)),
        lambda: formalcat.mutate_right(ctx, Gen(name), other),
        lambda: formalcat.mutate_right(ctx, Gen(canonical), Gen(name)),
    ]
    for call in calls:
        with pytest.raises(UnknownGenerator) as exc:
            call()
        assert str(exc.value) == f"{name} is written {canonical}"
    assert ctx.twist_gen(name, 0) == canonical
    assert formalcat.check_exceptional(ctx, Gen(canonical))


def test_canonical_names_mutate_as_the_tautological_triangle(fresh_contexts):
    ctx = nodal.build_context(4)
    assert formalcat.mutate_right(ctx, Gen("j*O"), Gen("j*S")) == Shift(Gen("j*S(1)"), -1)


def _mutation_outcome(compute):
    try:
        return compute()
    except NodalcatError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(3, 9), st.integers(0, 999), st.integers(0, 999), st.integers(-10**4, 10**4), st.booleans())
@example(d=5, i=3, j=11, k=1, right=True)  # through j*O(1), j*S'(1) -> j*S''(2)[-1]
def test_mutation_commutes_with_twists(fresh_contexts, d, i, j, k, right):
    # tensoring by O(Q) is an autoequivalence, so a mutation of roster
    # names, twisted by k, is the mutation of their twists; asked on a
    # fresh context, the twist-0 mutation first
    nodal._setup.cache_clear()
    ctx = nodal.build_context(d)
    lines = [g for g in ctx.generators if g.startswith("j*O")]
    E, F = Gen(lines[i % len(lines)]), Gen(ctx.generators[j % len(ctx.generators)])
    mutate = formalcat.mutate_right if right else formalcat.mutate_left
    want = _mutation_outcome(lambda: formalcat.twist_expr(ctx, mutate(ctx, E, F), k))
    got = _mutation_outcome(lambda: mutate(ctx, *(formalcat.twist_expr(ctx, G, k) for G in (E, F))))
    assert got == want


def _serre_outcome(compute):
    try:
        return compute()
    except NodalcatError as exc:
        return type(exc), getattr(exc, "degrees", None)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(3, 8), st.data())
def test_relative_serre_is_the_shifted_serre_functor(fresh_contexts, d, data):
    # the dualizing twist j_*F -> j_*F(1-n) is the pair-Serre action
    # j_*F -> j_*F(1-n)[n+1] without its shift, and n + 1 = d
    ctx, perp = nodal.build_context(d), nodal.perp_collection(d)
    gens = st.builds(Gen, st.sampled_from(ctx.generators))
    leaves = gens | st.builds(Shift, gens, st.integers(-2, 2).filter(bool))
    F = data.draw(leaves | st.builds(lambda a, b: normalize(Cone(a, b)), leaves, leaves))
    relative = _serre_outcome(lambda: nodal.relative_serre(d, F))
    shifted = _serre_outcome(lambda: formalcat.shift_expr(formalcat.serre_in(ctx, perp, F), -d))
    assert relative == shifted


class TestMutationIdentities:
    def test_fix_spinor(self):
        for d in (4, 5, 6, 7):
            ctx = nodal.build_context(d)
            spin = Gen("j*S") if d % 2 == 0 else Gen("j*S'")
            for k in range(2 - d, 0):
                assert formalcat.mutate_right(ctx, Gen(f"j*O({k})"), spin) == spin

    def test_twisted_steps_even(self):
        ctx = nodal.build_context(6)
        for k in range(-4, 0):
            got = formalcat.mutate_right(ctx, Gen(f"j*O({k})"), Gen(f"j*S({k})"))
            want = Shift(Gen(f"j*S({k + 1})" if k + 1 else "j*S"), -1)
            assert got == want

    def test_twisted_steps_odd_swap_primes(self):
        ctx = nodal.build_context(5)
        got = formalcat.mutate_right(ctx, Gen("j*O(-1)"), Gen("j*S'(-1)"))
        assert got == Shift(Gen("j*S''"), -1)
        got = formalcat.mutate_right(ctx, Gen("j*O(-1)"), Gen("j*S''(-1)"))
        assert got == Shift(Gen("j*S'"), -1)

    def test_cross_spinor_mutation(self):
        ctx = nodal.build_context(5)
        got = formalcat.mutate_right(ctx, Gen("j*S''"), Gen("j*S'"))
        want = Shift(Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)), -1)
        assert got == want

    def test_mutation_orthogonality_invariant(self):
        # after R_E the result receives no Homs into E
        for d in (4, 5, 6, 7):
            ctx = nodal.build_context(d)
            n = d - 1
            spin = "j*S" if d % 2 == 0 else "j*S'"
            for k in range(1 - n, 0):
                E = Gen(f"j*O({k})")
                for start in (Gen(spin), Gen(f"{spin}({k})")):
                    moved = formalcat.mutate_right(ctx, E, start)
                    assert formalcat.hom(ctx, moved, E).is_zero, (d, k, render(moved))
            if d % 2 == 1:
                moved = formalcat.mutate_right(ctx, Gen("j*S''"), Gen("j*S'"))
                assert formalcat.hom(ctx, moved, Gen("j*S''")).is_zero


class TestKernel:
    def test_even(self):
        assert nodal.kernel_generator(4) == Gen("j*S")
        assert nodal.kernel_generator(6) == Gen("j*S")

    def test_odd(self):
        T = nodal.kernel_generator(5)
        assert render(T) == "cone(j*S' -> j*S''[2])"

    def test_d2(self):
        assert nodal.kernel_generator(2) == Gen("j*S")


class TestKernelHomAlgebra:
    def test_endomorphisms_of_cone_generator(self):
        ctx = nodal.build_context(5)
        T = nodal.kernel_generator(5)
        assert formalcat.hom(ctx, T, T) == gd({0: 1, 3: 1})

    def test_defining_orthogonality(self):
        ctx = nodal.build_context(5)
        T = nodal.kernel_generator(5)
        assert formalcat.hom(ctx, T, Gen("j*S''")).is_zero

    def test_spherical_reports(self):
        for d, k in ((4, 2), (5, 3), (7, 3)):
            ctx = nodal.build_context(d)
            T = nodal.kernel_generator(d)
            report = formalcat.check_spherical(ctx, nodal.perp_collection(d), T, k)
            assert report.passed, d


class TestSerreChains:
    def test_even_serre(self):
        ctx = nodal.build_context(4)
        assert formalcat.serre_in(ctx, nodal.perp_collection(4), Gen("j*S")) == Shift(Gen("j*S"), 2)

    def test_odd_serre(self):
        for d in (5, 7):
            T = nodal.kernel_generator(d)
            ctx = nodal.build_context(d)
            got = formalcat.serre_in(ctx, nodal.perp_collection(d), T)
            assert got == formalcat.shift_expr(T, 3)

    def test_relative_shifts(self):
        for d in range(2, 14):
            T = nodal.kernel_generator(d)
            want_shift = 2 - d if d % 2 == 0 else 3 - d
            got = nodal.relative_serre(d, T)
            assert got == formalcat.shift_expr(T, want_shift), d

    def test_identity_exactly_up_to_dim3(self):
        for d in (2, 3):
            T = nodal.kernel_generator(d)
            assert nodal.relative_serre(d, T) == T
        for d in (4, 5, 6):
            T = nodal.kernel_generator(d)
            assert nodal.relative_serre(d, T) != T


class TestVerifyDim:
    def test_all_dimensions_pass(self):
        for d in range(2, 14):
            assert nodal.verify_dim(d).all_pass, d

    def test_spherical_degrees(self):
        rep4 = nodal.verify_dim(4)
        assert any("2-spherical" in item.expected for item in rep4.items
                   if item.id == "kernel-spherical")
        rep5 = nodal.verify_dim(5)
        assert any("3-spherical" in item.expected for item in rep5.items
                   if item.id == "kernel-spherical")

    def test_report_json_schema(self):
        rep = nodal.verify_dim(4)
        data = rep.to_json()
        assert set(data) == {"dim", "items", "all_pass"}
        assert data["dim"] == 4
        assert data["all_pass"] is True
        for item in data["items"]:
            assert set(item) == {"id", "citation", "expected", "got", "pass"}
            assert isinstance(item["pass"], bool)

    def test_byte_stable(self):
        import json

        a = json.dumps(nodal.verify_dim(5).to_json())
        b = json.dumps(nodal.verify_dim(5).to_json())
        assert a == b

    def test_kernel_build_error_fails_each_kernel_item(self, monkeypatch):
        calls = []

        def broken(d):
            calls.append(d)
            raise NodalcatError("kernel mutation did not close")

        monkeypatch.setattr(nodal, "kernel_generator", broken)
        rep = nodal.verify_dim(5)
        kernel_items = [item for item in rep.items if item.id in
                        ("kernel-generator", "kernel-spherical", "relative-serre-shift")]
        assert [item.got for item in kernel_items] == ["error: kernel mutation did not close"] * 3
        assert not any(item.passed for item in kernel_items)
        assert calls == [5]


# ---------------------------------------------------------------------------
# the per-kind exceptional items against the per-generator loop
# ---------------------------------------------------------------------------


def _exceptional_reference(ctx, lines: bool):
    """(got, passed) of the loop asking every roster generator of the
    chosen kinds, as an exceptional item reports it."""
    try:
        bad = [g for g in ctx.generators if nodal.parse_push_name(g).is_line == lines
               and not formalcat.check_exceptional(ctx, Gen(g))]
    except NodalcatError as exc:
        return f"error: {exc}", False
    return ("all exceptional" if not bad else f"not exceptional: {bad}"), not bad


def _exceptional_items(d) -> tuple[dict, dict]:
    """The exceptional items of ``verify_dim(d)`` beside their references."""
    got = {item.id: (item.got, item.passed) for item in nodal.verify_dim(d).items
           if item.id in ("line-bundles-exceptional", "spinors-exceptional")}
    ctx = nodal.build_context(d)
    want = {}
    if d >= 3:
        want["line-bundles-exceptional"] = _exceptional_reference(ctx, True)
    if d % 2 == 1:
        want["spinors-exceptional"] = _exceptional_reference(ctx, False)
    return got, want


def test_exceptional_items_match_the_per_generator_loop(fresh_contexts):
    for d in range(2, 49):
        got, want = _exceptional_items(d)
        assert got == want, d


@pytest.mark.parametrize("d", range(3, 11))
def test_a_failing_kind_is_reported_as_by_the_per_generator_loop(fresh_contexts, monkeypatch, d):
    # one kind gets endomorphisms C + C[-2], or an error, in every twist;
    # the line bundle stays exceptional for odd d, whose set-up mutates
    # through one
    pair_value = nodal._pair_value
    kinds = quadric.spinor_kinds(d - 1) if d % 2 == 1 else (quadric.LINE,)
    for kind in kinds:
        for broken in (gd({0: 1, 2: 1}), UnsupportedPair):
            def patched(n, kind1, c, kind2, kind=kind, broken=broken):
                if (kind1, c, kind2) != (kind, 0, kind):
                    return pair_value(n, kind1, c, kind2)
                if broken is UnsupportedPair:
                    raise UnsupportedPair(f"no endomorphisms of {kind} on Q^{n}")
                return broken

            monkeypatch.setattr(nodal, "_pair_value", patched)
            nodal._setup.cache_clear()
            got, want = _exceptional_items(d)
            assert got == want, (d, kind, broken)
            assert not all(passed for _, passed in got.values())
            if broken is UnsupportedPair:
                assert f"error: no endomorphisms of {kind} on Q^{d - 1}" in [text for text, _ in got.values()]
            else:
                bad = [g for g in nodal.build_context(d).generators if nodal.parse_push_name(g).kind == kind]
                assert f"not exceptional: {bad}" in [text for text, _ in got.values()]


@pytest.mark.parametrize("d, asked", [(47, 3), (48, 1)])
def test_one_exceptional_check_per_kind(monkeypatch, d, asked):
    calls = []
    check = formalcat.check_exceptional
    monkeypatch.setattr(formalcat, "check_exceptional", lambda c, F: calls.append(F) or check(c, F))
    nodal.verify_dim(d)
    # one per kind: O, and S' and S'' for odd d; not one per roster name
    assert len(calls) == asked == len(set(calls))


def _facts_digest(contexts) -> str:
    """sha256 over each context's zero facts, ordered by their text."""
    digest = hashlib.sha256()
    for ctx in contexts:
        facts = sorted((render(F), render(G), repr((F, G))) for F, G in ctx._zero_facts)
        digest.update(repr(facts).encode())
    return digest.hexdigest()


def test_verify_leaves_the_same_registry(fresh_contexts):
    # the facts verify records are what later queries see, so a faster
    # mutation path must leave exactly these facts: the kernel cone's
    # fact of each odd d and 49 that the verify calls record
    for d in range(2, 16):
        nodal.verify_dim(d)
    contexts = [nodal.build_context(d) for d in range(2, 16)]
    assert sum(len(ctx._zero_facts) for ctx in contexts) == 49 + 7
    assert _facts_digest(contexts) == "21a04944c2425cc35b195df0ca7099b453021208a976fb1cca055b6f9a197a4a"


# ---------------------------------------------------------------------------
# the class-wise perp check against the pairwise reference
# ---------------------------------------------------------------------------


def _pairwise(ctx, collection) -> bool:
    return formalcat.check_semiorthogonal(ctx, SOD(tuple((g,) for g in collection)))


def _outcome(check, ctx, collection):
    try:
        return check(ctx, collection)
    except NodalcatError as exc:
        return type(exc), str(exc)


def _first_pairs(d, collection):
    """Reference: the pair loop the class enumeration replaced.  The first
    pair (i, j) of each class, in pairwise order, cut after the first pair
    whose Hom is nonzero or raises."""
    ctx = nodal.build_context(d)
    sheaves = [ctx.resolve(name) for name in collection]
    seen, pairs = set(), []
    for i in range(1, len(collection)):
        for j in range(i):
            key = nodal._hom_class(sheaves[i], sheaves[j])
            if key in seen:
                continue
            seen.add(key)
            pairs.append((collection[i], collection[j]))
            try:
                if not formalcat.hom(ctx, Gen(collection[i]), Gen(collection[j])).is_zero:
                    return pairs
            except NodalcatError:
                return pairs
    return pairs


def _asked(monkeypatch, d, collection):
    """The (later, earlier) name pairs ``_perp_semiorthogonal`` asks, in order."""
    asked = []
    hom = formalcat.hom
    monkeypatch.setattr(formalcat, "hom", lambda c, F, G: asked.append((F.name, G.name)) or hom(c, F, G))
    try:
        nodal._perp_semiorthogonal(nodal.build_context(d), collection)
    except NodalcatError:
        pass
    finally:
        monkeypatch.undo()
    return asked


class TestPerpClasswise:
    def test_matches_the_pairwise_check(self):
        for d in range(2, 49):
            setup = nodal._setup(d)
            ctx, perp = setup.context, setup.perp
            assert nodal._perp_semiorthogonal(ctx, perp) is _pairwise(ctx, perp) is True, d
            # a later -> earlier Hom is nonzero as soon as two entries swap
            back = tuple(reversed(perp))
            assert nodal._perp_semiorthogonal(ctx, back) is _pairwise(ctx, back) is (len(perp) < 2), d

    def test_one_hom_per_class(self, monkeypatch):
        ctx, perp = nodal.build_context(48), nodal.perp_collection(48)
        asked = []
        hom = formalcat.hom
        monkeypatch.setattr(formalcat, "hom", lambda c, F, G: asked.append((F, G)) or hom(c, F, G))
        assert nodal._perp_semiorthogonal(ctx, perp)
        assert len(perp) * (len(perp) - 1) // 2 == 1035
        assert len(asked) == 45 == len(set(asked))

    def test_classes_are_asked_at_their_first_pairs(self, monkeypatch):
        # the stored collections and their reverses, and for d = 2..7 every
        # roster name, each once in roster order and then in reverse
        cases = []
        for d in range(2, 49):
            perp = nodal.perp_collection(d)
            cases += [(d, perp), (d, tuple(reversed(perp)))]
        for d in range(2, 8):
            roster = nodal.build_context(d).generators
            cases.append((d, roster + tuple(reversed(roster))))
        for d, collection in cases:
            assert _asked(monkeypatch, d, collection) == _first_pairs(d, collection), d

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_random_collections_ask_the_same_pairs(self, d, data):
        collection = tuple(data.draw(st.lists(st.sampled_from(nodal.build_context(d).generators),
                                              max_size=10)))
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert _asked(monkeypatch, d, collection) == _first_pairs(d, collection)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_random_collections_agree(self, d, data):
        # any roster names, repeats and unsupported spinor pairs included:
        # the same verdict, or the same error with the same text
        ctx = nodal.build_context(d)
        collection = tuple(data.draw(st.lists(st.sampled_from(ctx.generators), max_size=8)))
        assert (_outcome(nodal._perp_semiorthogonal, ctx, collection)
                == _outcome(_pairwise, ctx, collection))
