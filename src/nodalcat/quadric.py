"""Cohomology and Hom oracle for sheaves on smooth quadrics.

Supported sheaves on the n-dimensional smooth quadric Q^n in P^{n+1}: line
bundles O(k), the spinor bundle S (n odd) and the two spinor bundles S',
S'' (n even).  Conventions pinned here for the whole engine:

* O(1) is the hyperplane class; the canonical bundle is O(-n).
* rank S = 2^m on Q^{2m+1}; rank S' = rank S'' = 2^{m-1} on Q^{2m}.
* Tautological sequences: 0 -> S -> O^{2^{m+1}} -> S(1) -> 0 on odd
  quadrics, and the pair 0 -> S' -> O^{2^m} -> S''(1) -> 0,
  0 -> S'' -> O^{2^m} -> S'(1) -> 0 on even quadrics.
* Duals: S^v = S(1); S'^v = S'(1), S''^v = S''(1) when n = 0 mod 4 and
  S'^v = S''(1), S''^v = S'(1) when n = 2 mod 4.
* H^*(Q, Sp(k)) = 0 for 1-n <= k <= 0 and any spinor bundle Sp; line and
  spinor cohomology is concentrated in degrees 0 and n.
* n = 1: Q^1 is the conic, O_Q(1) has degree 2 on P^1 and S is the line
  bundle of degree -1, the unique choice making S^v = S(1) hold.
* The labeling of S' versus S'' is an arbitrary global convention; on
  Q^2 = P^1 x P^1 it is pinned by S' = O(-1,0), S'' = O(0,-1).

Two independent computation paths are exposed and cross-checked in tests:
graded Hom spaces (`cohomology`, `hom_quadric`), driven by the sequence
recursions and their vanishing ranges, and exact Euler characteristics
(`chi_quadric`), driven purely by additivity and the Hilbert polynomial.
Spinor-spinor Hom pairs that the recursion cannot reach raise
UnsupportedPair rather than extrapolate.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache, lru_cache

from .errors import ParityMismatch, UnknownGenerator, UnsupportedPair
from .graded import Frozen, GradedDim

LINE = "O"
SPINOR = "S"
SPINOR_P = "S'"
SPINOR_PP = "S''"

_KINDS = (LINE, SPINOR, SPINOR_P, SPINOR_PP)


class QuadricSheaf(Frozen):
    """A symbolic sheaf O(k), S(k), S'(k) or S''(k) on Q^n."""

    __slots__ = ("kind", "twist")

    def __init__(self, kind: str, twist: int = 0):
        if kind not in _KINDS:
            raise ValueError(f"unknown sheaf kind {kind!r}")
        _set_kind(self, kind)
        _set_twist(self, twist)

    @property
    def is_line(self) -> bool:
        return self.kind == LINE

    def twisted(self, k: int) -> "QuadricSheaf":
        return QuadricSheaf(self.kind, self.twist + k)

    def render(self) -> str:
        return sheaf_name(self.kind, self.twist)

    def __str__(self) -> str:
        return self.render()


def sheaf_name(kind: str, twist: int) -> str:
    """The text of the sheaf ``kind(twist)``, as ``QuadricSheaf.render``
    writes it, without building the sheaf."""
    return kind if twist == 0 else f"{kind}({twist})"


_set_kind = QuadricSheaf.kind.__set__
_set_twist = QuadricSheaf.twist.__set__

_SHEAF_RE = re.compile(r"^(O|S''|S'|S)(?:\((-?\d+)\))?$")


def sheaf_from_string(text: str) -> QuadricSheaf:
    m = _SHEAF_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a sheaf expression: {text!r}")
    return QuadricSheaf(m.group(1), int(m.group(2) or 0))


def check_parity(n: int, F: QuadricSheaf) -> None:
    if n < 1:
        raise ValueError("quadric dimension must be >= 1")
    if F.kind == SPINOR and n % 2 == 0:
        raise ParityMismatch(f"{F} needs an odd-dimensional quadric, got n={n}")
    if F.kind in (SPINOR_P, SPINOR_PP) and n % 2 == 1:
        raise ParityMismatch(f"{F} needs an even-dimensional quadric, got n={n}")


def rank(n: int, F: QuadricSheaf) -> int:
    check_parity(n, F)
    if F.is_line:
        return 1
    if F.kind == SPINOR:
        return 2 ** ((n - 1) // 2)
    return 2 ** (n // 2 - 1)


def taut_rank(n: int) -> int:
    """Rank of the trivial middle term of the tautological sequence."""
    return 2 ** ((n + 1) // 2)


def spinor_kinds(n: int) -> tuple[str, ...]:
    """The spinor kinds on Q^n: S on odd quadrics, S' and S'' on even ones."""
    return (SPINOR,) if n % 2 == 1 else (SPINOR_P, SPINOR_PP)


def _flip(kind: str) -> str:
    return SPINOR_PP if kind == SPINOR_P else SPINOR_P


def next_spinor(n: int, kind: str) -> str:
    """The spinor kind at twist k + 1 in the tautological sequence
    kind(k) -> O(k)^r -> next(k + 1) on Q^n: S on odd quadrics, the other
    prime on even ones."""
    return SPINOR if n % 2 == 1 else _flip(kind)


def _dual_twist(k: int) -> int:
    """Twist of the dual of a spinor bundle of twist k."""
    return 1 - k


def dual_sheaf(n: int, F: QuadricSheaf) -> QuadricSheaf:
    """The dual sheaf, via O(k)^v = O(-k) and the spinor duality rules."""
    check_parity(n, F)
    if F.is_line:
        return QuadricSheaf(LINE, -F.twist)
    if F.kind == SPINOR:
        return QuadricSheaf(SPINOR, _dual_twist(F.twist))
    kind = F.kind if n % 4 == 0 else _flip(F.kind)
    return QuadricSheaf(kind, _dual_twist(F.twist))


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def cone_ring_dim(n: int, k: int) -> int:
    """Dimension of degree k of the homogeneous coordinate ring of Q^n.

    Sections of O(k) on a quadric hypersurface in P^{n+1}: all degree-k
    monomials minus the multiples of the defining quadric.
    """
    if k < 0:
        return 0
    return math.comb(n + 1 + k, n + 1) - (math.comb(n + k - 1, n + 1) if k >= 2 else 0)


def _h0_spinor(n: int, k: int) -> int:
    """h^0 of a twisted spinor bundle: r binom(n+k-1, n) for k >= 1, else 0.

    The sequence 0 -> Sp(k-1) -> O(k-1)^r -> Sp'(k) -> 0 has no higher
    cohomology on the left for k >= 1 (interior vanishing plus the vanishing
    range down to 1-n), so h^0(Sp'(k)) = r h^0(O(k-1)) - h^0(Sp(k-1)) from
    0 at k = 0, i.e. r times the alternating sum of cone_ring_dim(n, j) over
    j = k-1, k-2, ..., 0.  Since cone_ring_dim(n, j) = binom(n+j, n) +
    binom(n+j-1, n), that sum telescopes to binom(n+k-1, n).  The spinor
    kind does not enter: on even quadrics the recursion alternates S' and
    S'' from the same zero start, so both get the same values.
    """
    if k <= 0:
        return 0
    return taut_rank(n) * math.comb(n + k - 1, n)


def cohomology(n: int, F: QuadricSheaf) -> GradedDim:
    """Full graded cohomology H^*(Q^n, F), concentrated in degrees 0 and n.

    Line bundles: h^0(O(k)) = cone_ring_dim(n, k), and H^n by Serre duality.
    Spinor bundles (Ottaviani 1988): h^0(Sp(k)) = r binom(n+k-1, n) for
    k >= 1, with r = taut_rank(n), the closed form of the tautological
    recursion (the alternating sum of cone_ring_dim(n, j) = binom(n+j, n) +
    binom(n+j-1, n) telescopes, see `_h0_spinor`); nothing for
    1-n <= k <= 0; and H^n by Serre duality for k <= -n.
    """
    check_parity(n, F)
    return _cohomology(n, F.kind, F.twist)


def _cohomology(n: int, kind: str, k: int) -> GradedDim:
    """``cohomology`` of the sheaf ``kind(k)``, already checked on Q^n."""
    if kind == LINE:
        if k >= 0:
            return GradedDim.point(0, cone_ring_dim(n, k))
        # Serre duality against O(-n): zero for 1-n <= k <= -1
        return GradedDim.point(n, cone_ring_dim(n, -n - k))
    if k >= 1:
        return GradedDim.point(0, _h0_spinor(n, k))
    if k >= 1 - n:
        return GradedDim.zero()
    # k <= -n: only H^n survives; Serre duality through the spinor dual,
    # whose kind `_h0_spinor` does not read
    return GradedDim.point(n, _h0_spinor(n, _dual_twist(k) - n))


# ---------------------------------------------------------------------------
# graded Hom
# ---------------------------------------------------------------------------


def hom_quadric(n: int, F: QuadricSheaf, G: QuadricSheaf) -> GradedDim:
    """Hom^*(F, G) on Q^n.

    Line-bundle pairs reduce to `cohomology` exactly.  Spinor-spinor pairs
    follow the long exact sequences of the tautological sequences: each
    descent step Hom(Sp(k), G) = Hom(Sp~(k-1), G)[-1] is licensed by the
    vanishing H^*(G(1-k)) = 0, which holds precisely for 1 <= k <= n.  That
    reaches twist differences 0..n from the exceptionality/orthogonality
    base at difference 0 and nothing more; other differences raise
    UnsupportedPair.
    """
    check_parity(n, F)
    check_parity(n, G)
    return _hom_quadric(n, F.kind, F.twist, G.kind, G.twist)


def _hom_quadric(n: int, kind1: str, t1: int, kind2: str, t2: int) -> GradedDim:
    """``hom_quadric`` of the sheaves ``kind1(t1)`` and ``kind2(t2)``,
    already checked on Q^n."""
    if kind1 == LINE:
        return _cohomology(n, kind2, t2 - t1)
    if kind2 == LINE:
        # H^*(F^v(t2)); the dual's kind is not read (see `_h0_spinor`)
        return _cohomology(n, kind1, _dual_twist(t1) + t2)
    c = t1 - t2
    if not 0 <= c <= n:
        raise UnsupportedPair(
            f"Hom({sheaf_name(kind1, t1)}, {sheaf_name(kind2, t2)}) on Q^{n}: twist difference "
            f"{c} is outside the range 0..{n} reachable by the tautological-sequence recursion"
        )
    if n % 2 == 1:
        return GradedDim.point(c, 1)
    # even: each descent step swaps the prime
    start = kind1 if c % 2 == 0 else _flip(kind1)
    if start == kind2:
        return GradedDim.point(c, 1)
    return GradedDim.zero()


# ---------------------------------------------------------------------------
# Euler characteristics (independent additive path)
# ---------------------------------------------------------------------------


def chi_line(n: int, k: int) -> int:
    """chi(Q^n, O(k)): the Hilbert polynomial binom(x, r) - binom(x - 2, r)
    with x = n + 1 + k and r = n + 1, valid for every k.

    A top below 2 is read through the negation rule binom(-y, r) =
    (-1)^r binom(y + r - 1, r) on both terms, so ``math.comb`` only ever
    sees nonnegative arguments.
    """
    r, x = n + 1, n + 1 + k
    if x >= 2:
        return math.comb(x, r) - math.comb(x - 2, r)
    return (-1) ** r * (math.comb(r - 1 - x, r) - math.comb(r + 1 - x, r))


# polynomials as tuples of Fractions, lowest degree first


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _poly_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, a in enumerate(q):
        out[i] += a
    return _poly_trim(out)


def _poly_scale(p, c):
    return _poly_trim(tuple(Fraction(c) * a for a in p))


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1 or 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_eval(p, x: int) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _poly_compose_shift(p, c: int):
    """q(k) = p(k + c)."""
    out = [Fraction(0)] * len(p)
    for i, a in enumerate(p):
        for j in range(i + 1):
            out[j] += a * math.comb(i, j) * Fraction(c) ** (i - j)
    return _poly_trim(out)


def _poly_delta(p):
    return _poly_add(_poly_compose_shift(p, 1), _poly_scale(p, -1))


def _solve_mean_shift(q):
    """The unique polynomial p with p(k) + p(k+1) = q(k).

    Uniqueness: a polynomial satisfying p(k+1) = -p(k) is zero, since the
    leading coefficient of p(k+1) + p(k) is twice that of p.  Inversion of
    (shift + 1) = (2 + delta) as the finite series sum (-1)^i delta^i / 2^{i+1}.
    """
    out = ()
    term = q
    sign = 1
    power = 2
    while term:
        out = _poly_add(out, _poly_scale(term, Fraction(sign, power)))
        term = _poly_delta(term)
        sign = -sign
        power *= 2
    return out


@cache
def _chi_line_poly(n: int):
    """chi(O(k)) on Q^n as a polynomial in k."""

    def falling(c: int, r: int):
        p = (Fraction(1),)
        for i in range(r):
            p = _poly_mul(p, (Fraction(c - i), Fraction(1)))
        return _poly_scale(p, Fraction(1, math.factorial(r)))

    return _poly_add(falling(n + 1, n + 1), _poly_scale(falling(n - 1, n + 1), -1))


@cache
def _chi_spinor_poly(n: int):
    """chi(Q^n, Sp(k)) as a polynomial in k (either spinor bundle).

    Unique polynomial solution of chi(Sp(k)) + chi(Sp(k+1)) = r chi(O(k))
    with r the tautological middle rank.  For even n this uses that the
    interchange symmetry of the two spinor bundles forces their chi
    polynomials to agree.
    """
    return _solve_mean_shift(_poly_scale(_chi_line_poly(n), taut_rank(n)))


# chi(Sp(t)) is a pure function of (n, t): one evaluation of the degree-n
# Fraction polynomial per key serves every later pairing.  A non-integral
# value raises, and exceptions are not cached, so it raises on every call.
# The bound caps what pairings at large twists keep alive.
@lru_cache(maxsize=1 << 15)
def _chi_spinor_eval(n: int, t: int) -> int:
    """chi(Q^n, Sp(t)) for either spinor bundle, memoized per (n, t)."""
    val = _poly_eval(_chi_spinor_poly(n), t)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral chi on Q^{n} at twist {t}: {val}")
    return int(val)


def chi_quadric(n: int, F: QuadricSheaf, G: QuadricSheaf) -> int:
    """chi(F, G) = sum (-1)^i dim Ext^i(F, G), by additivity alone.

    Uses only the additivity of chi across the tautological sequences,
    its invariance under twisting both arguments, chi(F(k), G(k)) =
    chi(F, G), the Hilbert polynomial of Q^n, and polynomiality of chi in
    the twist; no vanishing theorems.  On even quadrics the twist-0 spinor
    pairings (1 on the diagonal, 0 across) seed the recursion, since
    additivity cannot see the difference of the two spinor classes.

    An even spinor pair is paired on its twist difference c = t - s, since
    chi(Sp_a(s), Sp_b(t)) = chi(Sp_a, Sp_b(c)).  Unwinding the tautological
    sequences gives [Sp_b(c)] = (-1)^c [Sp_b~] + sum_j b_j [O(j)], with the
    prime flipped (Sp_b~) when c is odd, b_j = r (-1)^(c-1-j) for
    0 <= j < c and b_j = r (-1)^(j-c) for c <= j < 0; chi(Sp_a, O(j)) =
    chi(Sp(1 + j)).  Spinor chi values are memoized per (n, t), so a
    pairing costs |t - s| cached evaluations.
    """
    check_parity(n, F)
    check_parity(n, G)
    if F.is_line and G.is_line:
        return chi_line(n, G.twist - F.twist)
    if F.is_line:
        return _chi_spinor_eval(n, G.twist - F.twist)
    if G.is_line:
        # chi(F^v(t)), whose kind `_chi_spinor_eval` does not read
        return _chi_spinor_eval(n, _dual_twist(F.twist) + G.twist)
    if n % 2 == 1:
        # unique polynomial in the second twist; no base values needed
        w = _poly_compose_shift(_chi_spinor_poly(n), 1 - F.twist)
        u = _solve_mean_shift(_poly_scale(w, taut_rank(n)))
        val = _poly_eval(u, G.twist)
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral chi pairing: {val}")
        return int(val)
    c = G.twist - F.twist
    total = -(F.kind != G.kind) if c % 2 else int(F.kind == G.kind)
    # b_j is +r at j = c - 1 (c > 0) or j = c (c < 0) and alternates from there
    b = taut_rank(n)
    for j in range(c - 1, -1, -1) if c >= 0 else range(c, 0):
        total += b * _chi_spinor_eval(n, 1 + j)
        b = -b
    return total


# ---------------------------------------------------------------------------
# independent oracle on Q^2 = P^1 x P^1
# ---------------------------------------------------------------------------


def _p1_cohomology(d: int) -> GradedDim:
    if d >= 0:
        return GradedDim.point(0, d + 1)
    if d == -1:
        return GradedDim.zero()
    return GradedDim.point(1, -d - 1)


def _bidegree(F: QuadricSheaf) -> tuple[int, int]:
    k = F.twist
    if F.kind == LINE:
        return (k, k)
    if F.kind == SPINOR_P:
        return (k - 1, k)
    if F.kind == SPINOR_PP:
        return (k, k - 1)
    raise ParityMismatch(f"{F} does not live on Q^2")


def brute_force_q2(F: QuadricSheaf, G: QuadricSheaf) -> GradedDim:
    """Hom^*(F, G) on Q^2 via P^1 x P^1 bidegrees and Kunneth."""
    a1, b1 = _bidegree(F)
    a2, b2 = _bidegree(G)
    return _p1_cohomology(a2 - a1).tensor(_p1_cohomology(b2 - b1))


# ---------------------------------------------------------------------------
# Lefschetz data and a formal context on the quadric itself
# ---------------------------------------------------------------------------


def lefschetz_blocks(n: int) -> "formalcat.LefschetzData":
    """Blocks B_0 >= B_1 >= ... >= B_{n-1} of the dual Lefschetz collection.

    Odd n: B_0 = (S, O), all further blocks (O).  Even n: B_0 = B_1 =
    (S', O), all further blocks (O).  Block i enters the decomposition
    twisted by -i.
    """
    from . import formalcat

    if n % 2 == 1:
        blocks = ((SPINOR, LINE),) + ((LINE,),) * (n - 1)
    else:
        blocks = ((SPINOR_P, LINE),) * 2 + ((LINE,),) * (n - 2)
    return formalcat.LefschetzData(blocks)


def family_context(n: int, name: str, prefix: str, twists: range, base_hom, parse, tag: str,
                   triangles: tuple = (), serre: tuple[int, int] | None = None):
    """A formal context whose generators are the sheaves on Q^n, each
    written ``prefix`` + its `sheaf_name`.

    The roster is O(k) at each k in ``twists``, then every kind of
    `spinor_kinds` at each k.  The tautological triangle
    Sp(k) -> O(k)^r -> next(k + 1) of each spinor kind is registered at
    every twist but the last, tagged "<tag> of <kind> at twist <k>", and
    ``triangles`` after them.  ``parse(text)`` reads any spelling of a
    sheaf and raises ValueError or UnknownGenerator on other text.  The
    context resolves only the text this builder writes, which it receives
    already resolved (``parse`` runs once per roster name, at build), and
    any other spelling raises UnknownGenerator naming the right one; its
    twist rule reads every spelling ``parse`` does.  ``serre=(t, s)``
    gives the pair-Serre action F -> F(t)[s].
    """
    from . import formalcat

    kinds = spinor_kinds(n)
    # the generators of each kind, by position in twists
    gens = {kd: [formalcat.Gen(prefix + sheaf_name(kd, k)) for k in twists] for kd in (LINE, *kinds)}
    roster = [g.name for g in gens[LINE]] + [gens[kd][i].name for i in range(len(twists)) for kd in kinds]

    def sheaf(text: str) -> QuadricSheaf:
        try:
            F = parse(text)
        except ValueError:
            raise UnknownGenerator(text) from None
        try:
            check_parity(n, F)
        except ParityMismatch as exc:
            raise UnknownGenerator(f"{text}: {exc}") from None
        return F

    def resolve(text: str) -> QuadricSheaf:
        F = sheaf(text)
        canonical = prefix + sheaf_name(F.kind, F.twist)
        if text != canonical:
            raise UnknownGenerator(f"{text} is written {canonical}")
        return F

    def twist(text: str, k: int) -> str:
        F = sheaf(text)
        return prefix + sheaf_name(F.kind, F.twist + k)

    def serre_action(text: str) -> "formalcat.ObjExpr":
        t, s = serre
        return formalcat.Shift(formalcat.Gen(twist(text, t)), s)

    # built in normal form (the rank is at least 2), so stored as built
    r = taut_rank(n)
    taut = []
    legs = [(kd, gens[kd], gens[next_spinor(n, kd)]) for kd in kinds]
    for i, k in enumerate(twists[:-1]):
        lines = formalcat.Sum(((gens[LINE][i], r),))
        for kd, here, there in legs:
            taut.append(formalcat.Triangle(here[i], lines, there[i + 1], f"{tag} of {kd} at twist {k}"))
    return formalcat.Context(
        name=name,
        generators=tuple(roster),
        base_hom=base_hom,
        gen_resolve=resolve,
        twist_gen=twist,
        serre_action=serre_action if serre else None,
        triangles=(*taut, *triangles),
        # what resolve above returns for each roster name, which is
        # canonical and of the right parity: the context calls it only for
        # other names
        resolved={name: parse(name) for name in roster},
    )


def sheaf_context(n: int):
    """A formal mutation context whose generators are sheaves on Q^n: the
    roster O, O(1), Sp, Sp(1) over the spinor kinds Sp of Q^n, with the
    twist-0 tautological triangle of each spinor kind."""
    return family_context(n, f"quadric:{n}", "", range(2), lambda a, b: hom_quadric(n, a, b),
                          sheaf_from_string, "tautological sequence")
