"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is an exact integer identity; the stated time
budgets are asserted with wall-clock measurements.
"""

import itertools
import time
from contextlib import contextmanager

from nodalcat import cubic, formalcat, mukai, nodal, quadric
from nodalcat.errors import UnsupportedPair
from nodalcat.formalcat import Cone, Gen, Shift
from nodalcat.graded import GradedDim
from nodalcat.quadric import QuadricSheaf as QS


def gd(d):
    return GradedDim.from_dict(d)


@contextmanager
def criterion(num: int, desc: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL ({desc})")
        raise
    elapsed = time.perf_counter() - start
    stamp = f"; {elapsed:.3f}s" + (f" < {limit}s" if limit else "")
    print(f"ACCEPTANCE {num}: PASS ({desc}{stamp})")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.3f}s"


def test_criterion_1_quadric_hom_tables():
    with criterion(1, "quadric Hom tables on Q^3 and Q^4", limit=0.1):
        # odd: C at twist 0, C[-1] at twist 1
        assert quadric.hom_quadric(3, QS("S"), QS("S")) == gd({0: 1})
        assert quadric.hom_quadric(3, QS("S", 1), QS("S")) == gd({1: 1})
        # even: diagonal pairs C then 0, cross pairs 0 then C[-1]
        assert quadric.hom_quadric(4, QS("S'"), QS("S'")) == gd({0: 1})
        assert quadric.hom_quadric(4, QS("S''"), QS("S''")) == gd({0: 1})
        assert quadric.hom_quadric(4, QS("S'", 1), QS("S'")).is_zero
        assert quadric.hom_quadric(4, QS("S''", 1), QS("S''")).is_zero
        assert quadric.hom_quadric(4, QS("S'"), QS("S''")).is_zero
        assert quadric.hom_quadric(4, QS("S''"), QS("S'")).is_zero
        assert quadric.hom_quadric(4, QS("S''", 1), QS("S'")) == gd({1: 1})
        assert quadric.hom_quadric(4, QS("S'", 1), QS("S''")) == gd({1: 1})


def test_criterion_2_pushforward_table():
    with criterion(2, "pushforward spinor Hom algebras for d = 4..13", limit=1.0):
        for d in range(4, 13, 2):
            assert nodal.hom_push(d - 1, QS("S"), QS("S")) == gd({0: 1, 2: 1}), d
        for d in range(5, 14, 2):
            assert nodal.hom_push(d - 1, QS("S'"), QS("S''")) == gd({2: 1}), d


def test_criterion_3_mutation_identities():
    with criterion(3, "mutation identities for d = 3..13, k = 2-d..-1", limit=2.0):
        for d in range(3, 14):
            ctx = nodal.build_context(d)
            even = d % 2 == 0
            spin = Gen("j*S") if even else Gen("j*S'")
            kinds = (quadric.SPINOR,) if even else (quadric.SPINOR_P, quadric.SPINOR_PP)
            # the successor rule, stated apart from the engine: S on odd
            # quadrics (even d), the other prime on even ones
            other = {quadric.SPINOR_P: quadric.SPINOR_PP, quadric.SPINOR_PP: quadric.SPINOR_P}
            for k in range(2 - d, 0):
                assert formalcat.mutate_right(ctx, Gen(f"j*O({k})"), spin) == spin, (d, k)
                for kd in kinds:
                    nxt = quadric.SPINOR if even else other[kd]
                    src = Gen(nodal.push_name(QS(kd, k)))
                    want = Shift(Gen(nodal.push_name(QS(nxt, k + 1))), -1)
                    got = formalcat.mutate_right(ctx, Gen(f"j*O({k})"), src)
                    assert got == want, (d, k, kd)
            if not even:
                got = formalcat.mutate_right(ctx, Gen("j*S''"), Gen("j*S'"))
                assert got == Shift(Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)), -1), d


def test_criterion_4_kernel_certification():
    with criterion(4, "verify_dim passes for every d in 2..13", limit=5.0):
        for d in range(2, 14):
            report = nodal.verify_dim(d)
            assert report.all_pass, (d, [i.id for i in report.items if not i.passed])
            k = 2 if d % 2 == 0 else 3
            spherical = next(i for i in report.items if i.id == "kernel-spherical")
            assert f"{k}-spherical" in spherical.expected


def test_criterion_5_strong_crepancy_failure():
    with criterion(5, "relative Serre shift 2-d / 3-d, identity only for d <= 3"):
        for d in range(2, 14):
            T = nodal.kernel_generator(d)
            shift = 2 - d if d % 2 == 0 else 3 - d
            got = nodal.relative_serre(d, T)
            assert got == formalcat.shift_expr(T, shift), d
            assert (got == T) == (d <= 3), d


def test_criterion_6_even_spinor_mutation():
    with criterion(6, "R_O(S'') = S'(1)[-1] on even quadrics up to Q^10"):
        for m in range(1, 6):
            ctx = quadric.sheaf_context(2 * m)
            got = formalcat.mutate_right(ctx, Gen("O"), Gen("S''"))
            assert got == Shift(Gen("S'(1)"), -1), 2 * m


def test_criterion_7_cubic_fourfold():
    with criterion(7, "nodal cubic fourfold pipeline", limit=0.5):
        report = cubic.verify_cubic()
        assert report["all_pass"] is True
        assert [t["rule"] for t in report["trace"]] == ["R1", "R1", "R2", "R3", "R4"]
        assert report["trace"][-1]["result"] == "t*S[1]"
        for entry in report["trace"]:
            assert entry["citation"]
        v = mukai.restrict_to_k3(mukai.ch_spinor_odd(3))
        assert mukai.mukai_pairing(v, v) == -2
        assert mukai.chi_k3(v, v) == 2


def _context_pairs(d):
    ctx = nodal.build_context(d)
    for a in ctx.generators:
        for b in ctx.generators:
            yield ctx, Gen(a), Gen(b)


def test_criterion_8_oracle_equivalences():
    with criterion(8, "oracle equivalence property suites", limit=10.0):
        # (a) euler(hom) equals the K-theory chi on every supported pair of
        # every built context (nodal d = 2..13 and the even sheaf contexts)
        pairs_checked = 0
        for d in range(2, 14):
            n = d - 1
            for ctx, A, B in _context_pairs(d):
                try:
                    h = formalcat.hom(ctx, A, B)
                except UnsupportedPair:
                    continue
                Fa = nodal.parse_push_name(A.name)
                Fb = nodal.parse_push_name(B.name)
                chi = quadric.chi_quadric(n, Fa, Fb) - quadric.chi_quadric(n, Fa.twisted(1), Fb)
                assert h.euler() == chi, (d, A.name, B.name)
                pairs_checked += 1
        for m in range(1, 6):
            n = 2 * m
            ctx = quadric.sheaf_context(n)
            for a in ctx.generators:
                for b in ctx.generators:
                    try:
                        h = formalcat.hom(ctx, Gen(a), Gen(b))
                    except UnsupportedPair:
                        continue
                    chi = quadric.chi_quadric(
                        n, quadric.sheaf_from_string(a), quadric.sheaf_from_string(b)
                    )
                    assert h.euler() == chi, (n, a, b)
                    pairs_checked += 1
        assert pairs_checked > 4000

        # (b) the Kunneth oracle agrees with hom_quadric on Q^2 wherever the
        # recursion reaches, and the unreachable pairs are exactly the
        # spinor pairs with twist difference outside 0..2
        sheaves = [QS("O", k) for k in range(-5, 6)]
        sheaves += [QS(kd, k) for kd in ("S'", "S''") for k in range(-5, 6)]
        for F, G in itertools.product(sheaves, repeat=2):
            try:
                got = quadric.hom_quadric(2, F, G)
            except UnsupportedPair:
                assert not F.is_line and not G.is_line
                assert not 0 <= F.twist - G.twist <= 2
                continue
            assert got == quadric.brute_force_q2(F, G), (str(F), str(G))

        # (c) degree-0 cohomology equals the cone-ring dimension
        for n in range(1, 13):
            for k in range(-4, 9):
                assert quadric.cohomology(n, QS("O", k)).dim(0) == quadric.cone_ring_dim(n, k)

        # (d) pair-Serre duality on all pushforward generator pairs; the
        # supported range is closed under the duality, so a supported side
        # never faces an unsupported one
        for d in range(2, 14):
            for ctx, A, B in _context_pairs(d):
                try:
                    lhs = formalcat.hom(ctx, A, B)
                except UnsupportedPair:
                    try:
                        formalcat.hom(ctx, B, formalcat.apply_serre_action(ctx, A))
                    except UnsupportedPair:
                        continue
                    raise AssertionError(f"asymmetric support: {d}, {A.name}, {B.name}")
                rhs = formalcat.hom(ctx, B, formalcat.apply_serre_action(ctx, A)).dual()
                assert lhs == rhs, (d, A.name, B.name)


def test_criterion_9_determinacy():
    with criterion(9, "the whole battery completes with no indeterminate result"):
        # any IndeterminateHom would propagate out of these calls and fail
        for d in range(2, 14):
            assert nodal.verify_dim(d).all_pass
            T = nodal.kernel_generator(d)
            ctx = nodal.build_context(d)
            formalcat.hom(ctx, T, T)
            formalcat.serre_in(ctx, nodal.perp_collection(d), T)
            nodal.relative_serre(d, T)
        assert cubic.verify_cubic()["all_pass"]
        for m in range(1, 6):
            ctx = quadric.sheaf_context(2 * m)
            formalcat.mutate_right(ctx, Gen("O"), Gen("S''"))
