import functools
import itertools
import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from nodalcat import formalcat, quadric
from nodalcat.errors import ParityMismatch, UnknownGenerator, UnsupportedPair
from nodalcat.graded import GradedDim
from nodalcat.quadric import (
    QuadricSheaf,
    brute_force_q2,
    chi_line,
    chi_quadric,
    cohomology,
    cone_ring_dim,
    dual_sheaf,
    hom_quadric,
    rank,
    sheaf_from_string,
)


def QS(kind, twist=0):
    return QuadricSheaf(kind, twist)


def gd(d):
    return GradedDim.from_dict(d)


def _supported_sheaves(n, twists):
    kinds = ["O"] + (["S"] if n % 2 else ["S'", "S''"])
    return [QS(kd, k) for kd in kinds for k in twists]


def _monomial_count(nvars, degree):
    # independent oracle: enumerate exponent tuples
    if degree < 0:
        return 0
    return sum(1 for _ in combinations_with_replacement(range(nvars), degree))


class TestConeRing:
    def test_degree_one_on_q3(self):
        # oracle: degree-1 monomials in 5 variables, no relation yet
        assert cone_ring_dim(3, 1) == _monomial_count(5, 1) == 5

    def test_degree_two_on_q3(self):
        # oracle: 15 monomials minus the single quadric relation
        assert cone_ring_dim(3, 2) == _monomial_count(5, 2) - _monomial_count(5, 0) == 14

    def test_degree_zero(self):
        for n in range(1, 13):
            assert cone_ring_dim(n, 0) == 1

    def test_negative(self):
        assert cone_ring_dim(4, -2) == 0

    def test_matches_quotient_count(self):
        # oracle: dim of degree-k part of k[x_0..x_{n+1}]/(q) with q a
        # nonzerodivisor of degree 2
        for n in range(1, 7):
            for k in range(0, 6):
                expected = _monomial_count(n + 2, k) - _monomial_count(n + 2, k - 2)
                assert cone_ring_dim(n, k) == expected


class TestCohomology:
    def test_spinor_sections_q3(self):
        assert cohomology(3, QS("S", 1)) == gd({0: 4})

    def test_line_vanishing_range(self):
        assert cohomology(3, QS("O", -1)).is_zero
        for n in range(2, 10):
            for k in range(1, n):
                assert cohomology(n, QS("O", -k)).is_zero

    def test_spinor_vanishing_range(self):
        assert cohomology(4, QS("S'", 0)).is_zero
        for n in range(1, 13):
            for F in _supported_sheaves(n, range(1 - n, 1)):
                if not F.is_line:
                    assert cohomology(n, F).is_zero, str(F)

    def test_serre_dual_line(self):
        # oracle: Serre duality against H^0(O) = C with omega = O(-3)
        assert cohomology(3, QS("O", -3)) == gd({3: 1})

    def test_section_dim_of_twisted_spinor(self):
        for n in range(1, 12):
            F = QS("S", 1) if n % 2 else QS("S'", 1)
            assert cohomology(n, F) == gd({0: 2 ** ((n + 1) // 2)})

    def test_interior_vanishing(self):
        for n in range(1, 13):
            for F in _supported_sheaves(n, range(-n - 3, n + 4)):
                assert all(s in (0, n) for s in cohomology(n, F).support()), (n, str(F))

    def test_serre_duality_invariant(self):
        # dual(shift(H(F tensor omega), n)) = H(F^v) degreewise
        for n in range(1, 13):
            for F in _supported_sheaves(n, range(-n - 3, n + 4)):
                lhs = cohomology(n, F.twisted(-n)).shift(n).dual()
                assert lhs == cohomology(n, dual_sheaf(n, F)), (n, str(F))

    def test_tautological_consistency(self):
        for n in range(1, 12, 2):
            m = (n - 1) // 2
            for k in range(0, 7):
                h_next = cohomology(n, QS("S", k + 1)).dim(0)
                h_line = cone_ring_dim(n, k)
                h_here = cohomology(n, QS("S", k)).dim(0)
                assert h_next == 2 ** (m + 1) * h_line - h_here

    def test_q1_convention(self):
        # O_Q(1) has degree 2 on the conic, S has degree -1
        assert cohomology(1, QS("O", 1)) == gd({0: 3})
        assert cohomology(1, QS("S", 0)).is_zero
        assert cohomology(1, QS("S", 1)) == gd({0: 2})

    def test_parity_checked(self):
        # (n, a sheaf of the wrong parity, another one, its partners of the
        # right parity: a line and a spinor bundle).  Twist 0 lies in the
        # spinor vanishing range, where an unchecked cohomology reads 0.
        cases = [
            (4, QS("S", 0), QS("S", -2), "S needs an odd-dimensional quadric, got n=4",
             (QS("O", 2), QS("S'", -1))),
            (3, QS("S'", 0), QS("S''", -2), "S' needs an even-dimensional quadric, got n=3",
             (QS("O", 2), QS("S", -1))),
            (4, QS("S", 1), QS("S", -2), "S(1) needs an odd-dimensional quadric, got n=4",
             (QS("O", 2), QS("S'", -1))),
            (3, QS("S'", 1), QS("S''", -2), "S'(1) needs an even-dimensional quadric, got n=3",
             (QS("O", 2), QS("S", -1))),
        ]
        for n, bad, other_bad, text, partners in cases:
            calls = [lambda G=G: hom_quadric(n, bad, G) for G in partners]
            calls += [lambda F=F: hom_quadric(n, F, bad) for F in partners]
            calls += [
                lambda: hom_quadric(n, bad, other_bad),  # both wrong: the source is reported
                lambda: cohomology(n, bad),
                lambda: dual_sheaf(n, bad),
            ]
            for call in calls:
                with pytest.raises(ParityMismatch) as exc:
                    call()
                assert str(exc.value) == text


class TestFamilyRules:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_parity_admits_exactly_the_family(self, n):
        for kind in (quadric.LINE, quadric.SPINOR, quadric.SPINOR_P, quadric.SPINOR_PP):
            try:
                quadric.check_parity(n, QS(kind, 1))
                admitted = True
            except ParityMismatch:
                admitted = False
            assert admitted == (kind == quadric.LINE or kind in quadric.spinor_kinds(n)), (n, kind)

    def test_wrong_parity_name_is_an_unknown_generator(self):
        cases = [
            (3, "S'", "S': S' needs an even-dimensional quadric, got n=3"),
            (3, "S''(2)", "S''(2): S''(2) needs an even-dimensional quadric, got n=3"),
            (4, "S", "S: S needs an odd-dimensional quadric, got n=4"),
        ]
        for n, name, text in cases:
            ctx = quadric.sheaf_context(n)
            calls = [
                lambda: ctx.resolve(name),
                lambda: formalcat.hom(ctx, formalcat.Gen(name), formalcat.Gen("O")),
                lambda: ctx.twist_gen(name, 1),
            ]
            for call in calls:
                with pytest.raises(UnknownGenerator) as exc:
                    call()
                assert str(exc.value) == text


class TestHomQuadric:
    def test_twisted_spinor_pair_odd(self):
        assert hom_quadric(3, QS("S", 1), QS("S")) == gd({1: 1})
        assert hom_quadric(3, QS("S"), QS("S")) == gd({0: 1})

    def test_twisted_spinor_pairs_even(self):
        assert hom_quadric(4, QS("S'", 1), QS("S'")).is_zero
        assert hom_quadric(4, QS("S''", 1), QS("S''")).is_zero
        assert hom_quadric(4, QS("S''", 1), QS("S'")) == gd({1: 1})
        assert hom_quadric(4, QS("S'", 1), QS("S''")) == gd({1: 1})
        assert hom_quadric(4, QS("S'"), QS("S''")).is_zero

    def test_spinors_exceptional(self):
        assert hom_quadric(5, QS("S"), QS("S")) == gd({0: 1})
        for n in (2, 4, 6):
            assert hom_quadric(n, QS("S'"), QS("S'")) == gd({0: 1})
            assert hom_quadric(n, QS("S''"), QS("S''")) == gd({0: 1})

    def test_unsupported_pairs_raise(self):
        with pytest.raises(UnsupportedPair):
            hom_quadric(3, QS("S"), QS("S", 1))  # difference -1
        with pytest.raises(UnsupportedPair):
            hom_quadric(3, QS("S", 5), QS("S"))  # difference n+2

    def test_line_pairs_all_twists(self):
        for n in (2, 3, 4):
            for a in range(-4, 5):
                for b in range(-4, 5):
                    assert hom_quadric(n, QS("O", a), QS("O", b)) == cohomology(n, QS("O", b - a))

    def test_chi_cross_check(self):
        for n in range(1, 8):
            sheaves = _supported_sheaves(n, range(-4, 5))
            for F, G in itertools.product(sheaves, repeat=2):
                try:
                    h = hom_quadric(n, F, G)
                except UnsupportedPair:
                    continue
                assert h.euler() == chi_quadric(n, F, G), (n, str(F), str(G))


class TestChi:
    def test_hilbert_polynomial(self):
        # oracle: monomial count for the very ample O(1)
        assert chi_quadric(3, QS("O"), QS("O", 1)) == _monomial_count(5, 1) == 5

    def test_spinor_pair_euler(self):
        # must equal euler of the graded Hom computed the other way
        assert chi_quadric(3, QS("S", 1), QS("S")) == -1

    def test_even_orthogonality_shadow(self):
        assert chi_quadric(2, QS("S'"), QS("S''")) == 0

    def test_structure_sheaf(self):
        for n in range(1, 13):
            assert chi_quadric(n, QS("O"), QS("O")) == 1

    def test_line_bundle_chi_agrees_with_cohomology(self):
        for n in range(1, 9):
            for k in range(-n - 3, n + 4):
                g = cohomology(n, QS("O", k))
                assert chi_quadric(n, QS("O"), QS("O", k)) == g.euler()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [-10_000, 10_000])
    def test_spinor_cohomology_at_large_twists(self, n, k):
        # closed-form h^0: twists far past the recursion limit
        for kind in ("S",) if n % 2 else ("S'", "S''"):
            F = QS(kind, k)
            assert cohomology(n, F).euler() == chi_quadric(n, QS("O"), F), (n, str(F))

    def test_spinor_h0_closed_form_matches_recursion(self):
        # r binom(n+k-1, n) is the tautological-sequence recursion summed up
        from nodalcat import quadric

        for n in range(1, 10):
            h0 = 0
            for k in range(1, 201):
                h0 = quadric.taut_rank(n) * quadric.cone_ring_dim(n, k - 1) - h0
                assert quadric._h0_spinor(n, k) == h0, (n, k)
        # a twist of 10^8 costs what a small one does; chi is the oracle
        for n, kind in ((3, "S"), (4, "S'"), (4, "S''")):
            for k in (10**8, -(10**8)):
                F = QS(kind, k)
                assert cohomology(n, F).euler() == chi_quadric(n, QS("O"), F), (n, str(F))

    @pytest.mark.parametrize("t", [3000, -3005])
    def test_even_chi_is_polynomial_at_large_twists(self, t):
        # chi(S'(t), S') has degree n = 4 in t: its 5th finite difference is 0
        diffs = [chi_quadric(4, QS("S'", t + i), QS("S'")) for i in range(6)]
        assert sum((-1) ** i * math.comb(5, i) * v for i, v in enumerate(diffs)) == 0
        assert len(set(diffs)) == 6

    def test_defined_outside_hom_range(self):
        # the additive path reaches twist differences the Hom path cannot
        assert isinstance(chi_quadric(3, QS("S"), QS("S", 1)), int)

    def test_chi_line_matches_cohomology_and_the_polynomial(self):
        # the closed form against graded cohomology (Serre duality for
        # negative twists) and against the Fraction Hilbert polynomial
        for n in range(1, 41):
            poly = quadric._chi_line_poly(n)
            for k in range(-200, 201):
                want = cohomology(n, QS("O", k)).euler()
                assert chi_line(n, k) == want == quadric._poly_eval(poly, k), (n, k)

    def test_spinor_line_pairing_matches_the_dual_sheaf(self):
        # chi(F, O(t)) = euler H^*(F^v(t)), with F^v from the duality rules
        for n in range(1, 17):
            for kind in quadric.spinor_kinds(n):
                for s in range(-30, 31):
                    F = QS(kind, s)
                    dual = dual_sheaf(n, F)
                    for t in range(-30, 31):
                        want = cohomology(n, dual.twisted(t)).euler()
                        assert chi_quadric(n, F, QS("O", t)) == want, (n, str(F), t)


def _even_kclass_recursive(n, kind, t):
    """K-theory class of kind(t) on even Q^n as (sign, twist-0 kind, line
    part {j: coefficient}), by the tautological-sequence reduction one twist
    at a time: [Sp(t)] = r[O(t-1)] - [Sp~(t-1)] and [Sp(t)] = r[O(t)] -
    [Sp~(t+1)]."""
    if t == 0:
        return 1, kind, {}
    step = -1 if t > 0 else 1
    sign, k0, lines = _even_kclass_recursive(n, quadric._flip(kind), t + step)
    out = {j: -c for j, c in lines.items()}
    at = t - 1 if t > 0 else t
    out[at] = out.get(at, 0) + quadric.taut_rank(n)
    return -sign, k0, out


def _even_spinor_chi_double_sum(n, F, G):
    """The even spinor-spinor pairing with both arguments expanded: every
    line of [F] paired with every line of [G], |s|·|t| ``chi_line`` terms
    (cached here, as pure values)."""
    sa, ka, la = _even_kclass_recursive(n, F.kind, F.twist)
    sb, kb, lb = _even_kclass_recursive(n, G.kind, G.twist)
    total = sa * sb * (1 if ka == kb else 0)
    for j, c in lb.items():
        total += sa * c * quadric._chi_spinor_eval(n, 1 + j)  # chi(Sp, O(j))
    for i, c in la.items():
        total += sb * c * quadric._chi_spinor_eval(n, -i)  # chi(O(i), Sp)
    for i, ci in la.items():
        for j, cj in lb.items():
            total += ci * cj * _chi_line_cached(n, j - i)
    return total


_chi_line_cached = functools.cache(chi_line)

_EVEN_KIND_PAIRS = list(itertools.product(("S'", "S''"), repeat=2))

# both ends of -30..30, every small twist, and odd and even twists between
_REFERENCE_TWISTS = sorted({*range(-30, 31, 4), *range(-3, 4)})
# opposite signs, twist differences far past either twist
_MIXED_SIGN_TWIST_PAIRS = ((-90, 70), (70, -90), (-1, 99), (99, -1))


class TestEvenSpinorPairing:
    """The even spinor-spinor branch of ``chi_quadric`` against the double
    sum over both expanded classes, the Kunneth oracle on Q^2, twist
    invariance and Serre duality at twists of 10^4, and the per-(n, t)
    memo."""

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_matches_the_double_sum(self, n):
        twist_pairs = [*itertools.product(_REFERENCE_TWISTS, repeat=2), *_MIXED_SIGN_TWIST_PAIRS]
        for (ka, kb), (s, t) in itertools.product(_EVEN_KIND_PAIRS, twist_pairs):
            F, G = QS(ka, s), QS(kb, t)
            assert chi_quadric(n, F, G) == _even_spinor_chi_double_sum(n, F, G), (n, str(F), str(G))

    def test_matches_kunneth_on_q2_at_large_twists(self):
        big = 10**4
        # kinds innermost: the four pairs of one twist pair share their
        # spinor chi values
        for s, t, (ka, kb) in itertools.product((-big, big - 1), (1 - big, big), _EVEN_KIND_PAIRS):
            F, G = QS(ka, s), QS(kb, t)
            assert chi_quadric(2, F, G) == brute_force_q2(F, G).euler(), (str(F), str(G))

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_twist_invariance_and_serre_duality_at_large_twists(self, n):
        # chi(F(k), G(k)) = chi(F, G), and chi(F, G) = (-1)^n chi(G, F(-n))
        # since the canonical bundle is O(-n); every side below reads spinor
        # chi values at twists in -n-1..10^4+1 only.  Each kind pair once,
        # with d even for two and odd for two, so the twist-0 classes meet
        # on and off the diagonal at both parities of d.
        big = 10**4
        for (ka, kb), d in zip(_EVEN_KIND_PAIRS, (0, 0, 1, 1)):
            F, G = QS(ka, big), QS(kb, big + d)
            got = chi_quadric(n, F, G)
            assert got == chi_quadric(n, QS(ka), QS(kb, d)), (n, str(F), str(G))
            assert got == (-1) ** n * chi_quadric(n, G, F.twisted(-n)), (n, str(F), str(G))
            assert chi_quadric(n, QS(ka, -big), QS(kb, d)) == chi_quadric(n, QS(ka), QS(kb, big + d)), (n, ka, kb, d)

    def test_cost_is_linear_in_the_twists(self):
        # a pair reads |t - s| spinor chi values, however large s and t are
        big = 10**5
        quadric._chi_spinor_eval.cache_clear()
        got = chi_quadric(4, QS("S'", big), QS("S''", big + 3))
        assert quadric._chi_spinor_eval.cache_info().currsize <= 3
        assert got == chi_quadric(4, QS("S'"), QS("S''", 3))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2), st.integers(-50, 50),
                              st.integers(0, 2), st.integers(-50, 50)), max_size=12))
    def test_answers_do_not_depend_on_earlier_queries(self, queries):
        def sheaf(n, kind, twist):
            kinds = ("O", "S") if n % 2 else ("O", "S'", "S''")
            return QS(kinds[kind % len(kinds)], twist)

        pairs = [(n, sheaf(n, ka, s), sheaf(n, kb, t)) for n, ka, s, kb, t in queries]
        forward = [chi_quadric(*p) for p in pairs]
        backward = [chi_quadric(*p) for p in reversed(pairs)][::-1]
        quadric._chi_spinor_eval.cache_clear()
        cold = [chi_quadric(*p) for p in pairs]
        assert forward == backward == cold


@pytest.mark.parametrize("n", range(1, 10))
def test_spinor_chi_closed_form(n):
    # chi(Sp_a(s), Sp_b(t)) = P_n(c) + (-1)^c ([Sp_a = next^c(Sp_b)] - P_n(0)),
    # c = t - s, where P_n(0) is 1 on odd and 1/2 on even quadrics and
    # P_n(c) + P_n(c + 1) = r chi(Sp(1 + c)), with chi(Sp(k)) read off
    # `cohomology`.  Kept as twice each side, so every value is an integer.
    r, kinds = quadric.taut_rank(n), quadric.spinor_kinds(n)

    def twice_step(c):  # 2 (P_n(c) + P_n(c + 1))
        return 2 * r * cohomology(n, QS(kinds[0], 1 + c)).euler()

    twice_p = {0: 2 if n % 2 else 1}
    for c in range(0, 11):
        twice_p[c + 1] = twice_step(c) - twice_p[c]
    for c in range(-1, -11, -1):
        twice_p[c] = twice_step(c) - twice_p[c + 1]
    for ka, kb, s, t in itertools.product(kinds, kinds, (-3, 0, 2), range(-8, 9)):
        c = t - s
        kind = kb
        for _ in range(abs(c)):
            kind = quadric.next_spinor(n, kind)
        want = twice_p[c] + (-1) ** c * (2 * (ka == kind) - twice_p[0])
        assert 2 * chi_quadric(n, QS(ka, s), QS(kb, t)) == want, (n, ka, s, kb, t)


class TestBruteForceQ2:
    def test_kunneth_line(self):
        assert brute_force_q2(QS("O"), QS("O", 1)) == gd({0: 4})

    def test_spinor_cross(self):
        # oracle for the even spinor cross-pair: H(O(0,-2)) = C[-1] by Kunneth
        assert brute_force_q2(QS("S'", 1), QS("S''")) == gd({1: 1})

    def test_vanishing_factor(self):
        from nodalcat.quadric import _p1_cohomology

        # a bidegree with a -1 factor has no cohomology, whatever the other is
        for b in range(-5, 6):
            assert _p1_cohomology(-1).tensor(_p1_cohomology(b)).is_zero
        # reachable instances: Hom(O, S') = H(O(-1,0)), Hom(S''(1), O) = H(O(-1,0))
        assert brute_force_q2(QS("O"), QS("S'")).is_zero
        assert brute_force_q2(QS("S''", 1), QS("O")).is_zero

    def test_matches_hom_quadric_everywhere_supported(self):
        sheaves = _supported_sheaves(2, range(-5, 6))
        for F, G in itertools.product(sheaves, repeat=2):
            try:
                got = hom_quadric(2, F, G)
            except UnsupportedPair:
                assert not F.is_line and not G.is_line
                assert not 0 <= F.twist - G.twist <= 2
                continue
            assert got == brute_force_q2(F, G), (str(F), str(G))


def test_rank_roster():
    assert rank(3, QS("S")) == 2
    assert rank(5, QS("S")) == 4
    assert rank(4, QS("S'")) == rank(4, QS("S''")) == 2
    assert rank(2, QS("S'")) == 1
    assert rank(1, QS("S")) == 1


def test_dual_rules():
    assert dual_sheaf(3, QS("S", 2)) == QS("S", -1)
    assert dual_sheaf(4, QS("S'")) == QS("S'", 1)  # n = 0 mod 4
    assert dual_sheaf(6, QS("S'")) == QS("S''", 1)  # n = 2 mod 4
    assert dual_sheaf(5, QS("O", 3)) == QS("O", -3)


def test_sheaf_parsing_and_render():
    for text in ("O", "O(-2)", "S'", "S''(3)", "S(1)"):
        assert sheaf_from_string(text).render() == text


def test_lefschetz_blocks():
    from nodalcat.quadric import lefschetz_blocks

    odd = lefschetz_blocks(3)
    assert odd.blocks == (("S", "O"), ("O",), ("O",))
    even = lefschetz_blocks(4)
    assert even.blocks == (("S'", "O"), ("S'", "O"), ("O",), ("O",))
    # nested: every block contains the next
    for data in (odd, even, lefschetz_blocks(7)):
        for a, b in zip(data.blocks, data.blocks[1:]):
            assert set(b) <= set(a)
    # the quadric surface has the two-block shape with no line-only tail
    assert lefschetz_blocks(2).blocks == (("S'", "O"), ("S'", "O"))
    assert lefschetz_blocks(1).blocks == (("S", "O"),)
