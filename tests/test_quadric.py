import itertools
import math
from itertools import combinations_with_replacement

import pytest

from nodalcat.errors import ParityMismatch, UnsupportedPair
from nodalcat.graded import GradedDim
from nodalcat.quadric import (
    QuadricSheaf,
    brute_force_q2,
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
        with pytest.raises(ParityMismatch):
            cohomology(4, QS("S", 0))
        with pytest.raises(ParityMismatch):
            cohomology(3, QS("S'", 0))


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

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_kclass_closed_form_matches_recursion(self, n):
        from nodalcat import quadric

        def recursive(kind, t):
            # the tautological-sequence reduction, one twist at a time
            r = quadric.taut_rank(n)
            if t == 0:
                return 1, kind, {}
            step = -1 if t > 0 else 1
            sign, k0, lines = recursive(quadric._flip(kind), t + step)
            out = {j: -c for j, c in lines.items()}
            at = t - 1 if t > 0 else t
            out[at] = out.get(at, 0) + r
            return -sign, k0, out

        for kind in ("S'", "S''"):
            for t in range(-30, 31):
                assert quadric._even_kclass(n, kind, t) == recursive(kind, t), (kind, t)

    @pytest.mark.parametrize("t", [3000, -3005])
    def test_even_chi_is_polynomial_at_large_twists(self, t):
        # chi(S'(t), S') has degree n = 4 in t: its 5th finite difference is 0
        diffs = [chi_quadric(4, QS("S'", t + i), QS("S'")) for i in range(6)]
        assert sum((-1) ** i * math.comb(5, i) * v for i, v in enumerate(diffs)) == 0
        assert len(set(diffs)) == 6

    def test_defined_outside_hom_range(self):
        # the additive path reaches twist differences the Hom path cannot
        assert isinstance(chi_quadric(3, QS("S"), QS("S", 1)), int)


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
