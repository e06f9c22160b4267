import functools
import itertools
from fractions import Fraction

import pytest

from nodalcat import cli, mukai, quadric
from nodalcat.errors import ParityMismatch, UnsupportedPair
from nodalcat.mukai import ChowClass, MukaiVector, ch_spinor_odd, chi_hrr, chi_k3, mukai_pairing, restrict_to_k3
from nodalcat.quadric import QuadricSheaf as QS


class TestSpinorChern:
    def test_q3(self):
        c = ch_spinor_odd(3)
        assert c.coeffs == (Fraction(2), Fraction(-1), Fraction(0), Fraction(1, 12))
        assert c.render() == "2 - h + 1/12 h^3"

    def test_q1(self):
        assert ch_spinor_odd(1).coeffs == (Fraction(1), Fraction(-1, 2))

    def test_q5_leading_terms(self):
        c = ch_spinor_odd(5)
        assert c.coeffs[0] == 4
        assert c.coeffs[1] == -2

    def test_rank_law(self):
        for n in range(1, 12, 2):
            assert ch_spinor_odd(n).coeffs[0] == 2 ** ((n - 1) // 2)

    def test_defining_equation(self):
        # ch(S) (1 + e^h) = 2^{m+1} identically after truncation
        for n in range(1, 12, 2):
            c = ch_spinor_odd(n)
            total = c * (ChowClass.one(n) + ChowClass.exp_h(n, 1))
            want = ChowClass.make(n, [2 ** ((n + 1) // 2)])
            assert total == want, n

    def test_even_rejected(self):
        with pytest.raises(ParityMismatch):
            ch_spinor_odd(4)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            ch_spinor_odd(13)

    def test_even_spinor_ch_out_of_scope(self):
        with pytest.raises(UnsupportedPair):
            mukai.ch_sheaf(4, QS("S'"))


class TestRestriction:
    def test_spinor(self):
        assert restrict_to_k3(ch_spinor_odd(3)) == MukaiVector(2, -1, 2)

    def test_structure_sheaf(self):
        assert restrict_to_k3(ChowClass.exp_h(3, 0)) == MukaiVector(1, 0, 1)

    def test_twisted_line(self):
        assert restrict_to_k3(ChowClass.exp_h(3, 1)) == MukaiVector(1, 1, 4)

    def test_non_integral_rejected(self):
        bad = ChowClass.make(3, [Fraction(1, 2)])
        with pytest.raises(ValueError):
            restrict_to_k3(bad)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            restrict_to_k3(ChowClass.exp_h(5, 0))


class TestPairing:
    def test_restricted_spinor_is_numerically_spherical(self):
        v = restrict_to_k3(ch_spinor_odd(3))
        assert mukai_pairing(v, v) == -2
        assert chi_k3(v, v) == 2

    def test_structure_sheaf_spherical(self):
        v = MukaiVector(1, 0, 1)
        assert mukai_pairing(v, v) == -2

    def test_point_class(self):
        assert mukai_pairing(MukaiVector(0, 0, 1), MukaiVector(1, 0, 1)) == -1
        assert chi_k3(MukaiVector(1, 0, 1), MukaiVector(0, 0, 1)) == 1

    def test_render(self):
        assert MukaiVector(2, -1, 2).render() == "(2, -H, 2)"
        assert MukaiVector(1, 0, 1).render() == "(1, 0, 1)"
        assert MukaiVector(3, 2, -1).render() == "(3, 2H, -1)"


class TestRiemannRoch:
    def test_structure_sheaf(self):
        for n in range(1, 13):
            assert chi_hrr(n, QS("O"), QS("O")) == 1

    def test_line_pairs_match_additive_path(self):
        for n in range(1, 13):
            for a in (-3, 0, 2):
                for b in (-2, 0, 3):
                    assert chi_hrr(n, QS("O", a), QS("O", b)) == quadric.chi_quadric(
                        n, QS("O", a), QS("O", b)
                    )

    def test_spinor_pairs_match_additive_path_odd(self):
        for n in range(1, 12, 2):
            for a in (-2, 0, 1):
                for b in (-1, 0, 2):
                    assert chi_hrr(n, QS("S", a), QS("S", b)) == quadric.chi_quadric(
                        n, QS("S", a), QS("S", b)
                    )
                    assert chi_hrr(n, QS("S", a), QS("O", b)) == quadric.chi_quadric(
                        n, QS("S", a), QS("O", b)
                    )

    def test_odd_pairs_match_additive_path_at_large_twists(self):
        # the odd spinor-spinor branch of chi_quadric solves its own
        # polynomial; the even pairs have such tests in test_quadric
        big = 10**4
        twist_pairs = ((big, -big), (-big, big), (-777, 1234), (3, 2000), (big, big + 5))
        for n in range(1, 12, 2):
            for ka, kb in itertools.product(("O", "S"), repeat=2):
                for a, b in twist_pairs:
                    F, G = QS(ka, a), QS(kb, b)
                    assert chi_hrr(n, F, G) == quadric.chi_quadric(n, F, G), (n, str(F), str(G))

    def test_spinor_exceptionality_shadow(self):
        # a genuinely independent route to chi(S, S) = 1
        assert chi_hrr(3, QS("S"), QS("S")) == 1
        assert chi_hrr(3, QS("S", 1), QS("S")) == -1


# chi_hrr as it was before the per-quadric coefficients: the integral of
# the product of three whole truncated classes.  The factor classes are
# memoized (per n and sheaf) only to keep the grids below fast; a class
# that raises is never memoized, so the reference raises at every call.
_ch_sheaf = functools.cache(mukai.ch_sheaf)
_todd_quadric = functools.cache(mukai.todd_quadric)


def _chi_hrr_reference(n, F, G):
    total = _ch_sheaf(n, quadric.dual_sheaf(n, F)) * _ch_sheaf(n, G) * _todd_quadric(n)
    val = total.integral()
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral Riemann-Roch value {val}")
    return int(val)


class TestRiemannRochAgainstTripleProduct:
    @pytest.mark.parametrize("n", range(1, 12, 2))
    def test_odd_quadrics_every_kind_pair(self, n):
        for a in ("O", "S"):
            for b in ("O", "S"):
                for s in range(-15, 16):
                    for t in range(-15, 16):
                        F, G = QS(a, s), QS(b, t)
                        assert chi_hrr(n, F, G) == _chi_hrr_reference(n, F, G), (n, F, G)
                for s, t in ((1000, -1000), (-1000, 1000), (1000, 1000), (-999, -1000), (7, -1000)):
                    F, G = QS(a, s), QS(b, t)
                    assert chi_hrr(n, F, G) == _chi_hrr_reference(n, F, G), (n, F, G)

    def test_line_pairs(self):
        for n in range(1, 13):
            for s in (-1000, *range(-15, 16), 1000):
                for t in (-1000, -15, -4, -1, 0, 1, 2, 7, 15, 999):
                    F, G = QS("O", s), QS("O", t)
                    assert chi_hrr(n, F, G) == _chi_hrr_reference(n, F, G), (n, F, G)

    @pytest.mark.parametrize("n, F, G, error", [
        (4, QS("S'"), QS("O"), UnsupportedPair),
        (4, QS("O", 2), QS("S''", -1), UnsupportedPair),
        (13, QS("S"), QS("O"), ValueError),
        (13, QS("O"), QS("S", 3), ValueError),
        (4, QS("S"), QS("O"), ParityMismatch),
        (3, QS("O"), QS("S'"), ParityMismatch),
        (3, QS("S'"), QS("S", 14), ParityMismatch),
        (0, QS("O"), QS("O"), ValueError),
    ])
    def test_same_errors_on_consecutive_calls(self, n, F, G, error):
        with pytest.raises(error) as ref:
            _chi_hrr_reference(n, F, G)
        for _ in range(2):
            with pytest.raises(error) as got:
                chi_hrr(n, F, G)
            assert type(got.value) is type(ref.value)
            assert str(got.value) == str(ref.value)


def test_non_integral_value_raises_every_time(monkeypatch):
    # D chi = k on Q^1 with D = 2: odd twists give a half-integer
    monkeypatch.setattr(mukai, "_hrr_coefficients", lambda n, spinors: ((1, 0), 2))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="^non-integral Riemann-Roch value 1/2$"):
            chi_hrr(1, QS("O"), QS("O", 1))


def test_returned_classes_are_fresh(capsys):
    # chi_hrr keeps per-quadric data; the classes handed out must not be it
    assert chi_hrr(3, QS("S"), QS("S")) == 1
    assert cli.main(["mukai", "S"]) == 0
    before = capsys.readouterr()
    for c in (mukai.ch_spinor_odd(3), mukai.todd_quadric(3), mukai.ch_sheaf(3, QS("S", 1))):
        c.coeffs = (Fraction(5),) * 4
    assert mukai.ch_spinor_odd(3) is not mukai.ch_spinor_odd(3)
    assert chi_hrr(3, QS("S"), QS("S")) == 1
    assert cli.main(["mukai", "S"]) == 0
    assert capsys.readouterr() == before
    assert before.out == "ch = 2 - h + 1/12 h^3\nv = (2, -H, 2)\n<v,v> = -2\nchi = 2\n"


def test_chow_render():
    assert ChowClass.make(3, [2, -1, 0, Fraction(1, 12)]).render() == "2 - h + 1/12 h^3"
    assert ChowClass.make(2, []).render() == "0"
    assert ChowClass.exp_h(1, 1).render() == "1 + h"


def test_integral_rule():
    # the quadric has degree 2: integral of h^n is 2
    assert ChowClass.make(3, [0, 0, 0, 1]).integral() == 2
