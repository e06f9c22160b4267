"""Exact Chern-character and Mukai-lattice arithmetic.

Rational h-polynomial classes on quadrics (truncated at the dimension,
with evaluation rule: the integral of h^n is 2), Chern characters of
spinor bundles on odd quadrics solved from the tautological sequence,
restriction to the degree-6 K3 surface cut out on the quadric threefold,
and the Mukai pairing.  Everything is exact rational arithmetic; an
integrality failure is an error, never a rounding.

Even-dimensional quadrics have middle Chow classes outside the
h-subring, so their spinor Chern characters are out of scope here; their
Euler characteristics come from the additive recursion in the quadric
module instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import quadric
from .errors import ParityMismatch, UnsupportedPair


class ChowClass:
    """A rational polynomial a_0 + a_1 h + ... + a_n h^n on Q^n.

    The class of a point is h^n / 2: the quadric has degree 2, so the
    evaluation rule is integral(h^n) = 2.
    """

    def __init__(self, n: int, coeffs: tuple[Fraction, ...]):
        self.n = n
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.coeffs) == (other.n, other.coeffs)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ChowClass(n={self.n!r}, coeffs={self.coeffs!r})"

    @staticmethod
    def make(n: int, coeffs) -> "ChowClass":
        cs = [Fraction(c) for c in coeffs][: n + 1]
        cs += [Fraction(0)] * (n + 1 - len(cs))
        return ChowClass(n, tuple(cs))

    @staticmethod
    def one(n: int) -> "ChowClass":
        return ChowClass.make(n, [1])

    @staticmethod
    def exp_h(n: int, k: int) -> "ChowClass":
        """e^{k h}, the Chern character of O(k)."""
        return ChowClass.make(n, [Fraction(k) ** i / math.factorial(i) for i in range(n + 1)])

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._same(other)
        return ChowClass(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._same(other)
        return ChowClass(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        self._same(other)
        out = [Fraction(0)] * (self.n + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if i + j <= self.n:
                    out[i + j] += a * b
        return ChowClass(self.n, tuple(out))

    def scale(self, c) -> "ChowClass":
        return ChowClass(self.n, tuple(Fraction(c) * a for a in self.coeffs))

    def invert(self) -> "ChowClass":
        """Multiplicative inverse as a truncated power series."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("class has no constant term")
        out = [Fraction(0)] * (self.n + 1)
        out[0] = 1 / self.coeffs[0]
        for k in range(1, self.n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -acc / self.coeffs[0]
        return ChowClass(self.n, tuple(out))

    def integral(self) -> Fraction:
        return 2 * self.coeffs[self.n]

    def _same(self, other: "ChowClass") -> None:
        if self.n != other.n:
            raise ValueError("classes live on quadrics of different dimensions")

    def render(self) -> str:
        bits = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            mono = "1" if i == 0 else ("h" if i == 1 else f"h^{i}")
            if i == 0:
                bits.append((str(a), a < 0))
            elif abs(a) == 1:
                bits.append((mono, a < 0))
            else:
                bits.append((f"{abs(a)} {mono}", a < 0))
        if not bits:
            return "0"
        out = ("-" if bits[0][1] else "") + bits[0][0].lstrip("-")
        for text, neg in bits[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __str__(self) -> str:
        return self.render()


def ch_spinor_odd(n: int) -> ChowClass:
    """Chern character of the spinor bundle on the odd quadric Q^n.

    The tautological sequence gives ch(S)(1 + e^h) = 2^{m+1}, and the
    class ring has no zero divisors in low degrees, so the solution is
    unique of rank 2^m.
    """
    if n % 2 == 0:
        raise ParityMismatch("the single spinor bundle lives on odd quadrics")
    if n > 11:
        raise ValueError("odd quadric dimension capped at 11")
    denom = ChowClass.one(n) + ChowClass.exp_h(n, 1)
    return denom.invert().scale(2 ** ((n + 1) // 2))


def ch_sheaf(n: int, F: quadric.QuadricSheaf) -> ChowClass:
    """Chern character of a supported sheaf; spinors only on odd quadrics."""
    quadric.check_parity(n, F)
    if F.is_line:
        return ChowClass.exp_h(n, F.twist)
    if F.kind != quadric.SPINOR:
        raise UnsupportedPair(
            "Chern characters of even-quadric spinor bundles are outside the h-subring"
        )
    return ch_spinor_odd(n) * ChowClass.exp_h(n, F.twist)


def todd_quadric(n: int) -> ChowClass:
    """Todd class of Q^n: td(TP^{n+1})|_Q / td(O(2)|_Q)."""
    series = _x_over_one_minus_exp_minus(n)
    td_p = ChowClass.one(n)
    for _ in range(n + 2):
        td_p = td_p * series
    two_h = ChowClass(n, tuple(c * 2 ** i for i, c in enumerate(series.coeffs)))
    return td_p * two_h.invert()


def _x_over_one_minus_exp_minus(n: int) -> ChowClass:
    # x / (1 - e^{-x}) evaluated at x = h, exactly
    denom = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        denom[k] = Fraction((-1) ** k, math.factorial(k + 1))
    return ChowClass(n, tuple(denom)).invert()


def chi_hrr(n: int, F: quadric.QuadricSheaf, G: quadric.QuadricSheaf) -> int:
    """chi(F, G) by Riemann-Roch: integral of ch(F^v) ch(G) td(Q)."""
    total = ch_sheaf(n, quadric.dual_sheaf(n, F)) * ch_sheaf(n, G) * todd_quadric(n)
    val = total.integral()
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral Riemann-Roch value {val}")
    return int(val)


# ---------------------------------------------------------------------------
# the degree-6 K3 surface
# ---------------------------------------------------------------------------


class MukaiVector:
    """(rank, c1 as a multiple of the degree-6 polarization, ch2 + rank)."""

    def __init__(self, r: int, c: int, s: int):
        self.r = r
        self.c = c
        self.s = s

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.r, self.c, self.s) == (other.r, other.c, other.s)
        return NotImplemented

    def __repr__(self) -> str:
        return f"MukaiVector(r={self.r!r}, c={self.c!r}, s={self.s!r})"

    def render(self) -> str:
        if self.c == 0:
            mid = "0"
        elif self.c == 1:
            mid = "H"
        elif self.c == -1:
            mid = "-H"
        else:
            mid = f"{self.c}H"
        return f"({self.r}, {mid}, {self.s})"

    def __str__(self) -> str:
        return self.render()


def restrict_to_k3(c: ChowClass) -> MukaiVector:
    """Mukai vector of the restriction to the K3 surface inside Q^3.

    The surface is a degree-6 K3 cut out on the quadric threefold by a
    cubic; h restricts to the polarization H with H^2 = 6 points.  The
    Mukai vector is (r, c1, ch2 + r) since sqrt(td) of a K3 is 1 + 2 pt.
    """
    if c.n != 3:
        raise ValueError("restriction is defined for classes on the quadric threefold")
    r, c1, ch2 = c.coeffs[0], c.coeffs[1], 6 * c.coeffs[2]
    for name, val in (("rank", r), ("degree-1 part", c1), ("ch2 part", ch2)):
        if val.denominator != 1:
            raise ValueError(f"non-integral restriction: {name} = {val}")
    return MukaiVector(int(r), int(c1), int(ch2 + r))


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> int:
    """<v, w> = c1.c1' - r s' - r' s, with H^2 = 6."""
    return 6 * v.c * w.c - v.r * w.s - w.r * v.s


def chi_k3(v: MukaiVector, w: MukaiVector) -> int:
    """Euler pairing on the K3: the negative of the Mukai pairing."""
    return -mukai_pairing(v, w)
