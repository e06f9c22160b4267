"""Reference tautological triangles of the family contexts, written out.

A family context knows the triangles Sp(k) -> O(k)^r -> next(k + 1) by
rule, at every twist; tests that walk triangles take this list instead,
built here without the engine's rule: each leg through ``sum_exprs`` and
``normalize``, the successor kind and the middle rank spelled out.  A
triangle x -> y -> z is the plain tuple (x, y, z).

``scan_cone`` finds a cone among the rotations of such a list, and
``step_legs`` writes out the two legs of a mutation step, so tests can
check a context's named steps against the triangles.
"""

from nodalcat import formalcat
from nodalcat.formalcat import Gen, Shift, Sum, normalize, shift_expr
from nodalcat.quadric import QuadricSheaf as QS


def tautological_triangles(n: int, prefix: str, twists) -> list[tuple]:
    """The triangle of each spinor kind of Q^n at each k in ``twists``,
    in that order, every sheaf written ``prefix`` + its name."""
    kinds = ("S",) if n % 2 == 1 else ("S'", "S''")
    successor = {"S": "S", "S'": "S''", "S''": "S'"}
    r = 2 ** ((n + 1) // 2)
    out = []
    for k in twists:
        for kd in kinds:
            legs = (Gen(prefix + QS(kd, k).render()),
                    formalcat.sum_exprs(((Gen(prefix + QS("O", k).render()), r),)),
                    Gen(prefix + QS(successor[kd], k + 1).render()))
            out.append(tuple(map(formalcat.normalize, legs)))
    return out


def nodal_tautological(d: int) -> list[tuple]:
    """The triangles of nodal:d between sheaves at its roster twists 1-n..1
    and five twists beyond on each side."""
    n = d - 1
    return tautological_triangles(n, "j*", range(-4 - n, 6))


def step_legs(E, F, V, right: bool) -> tuple:
    """The legs (src, tgt) of the cone of a mutation step of a generator F
    through a generator E, V = Hom(F, E) (``right``) or Hom(E, F):
    R_E F = cone(F -> V^dual tensor E)[-1] and L_E F = cone(V tensor E -> F),
    an entry of V in degree k giving E[k] or E[-k]."""
    sign = 1 if right else -1
    W = formalcat.sum_exprs((shift_expr(E, sign * k), m) for k, m in V.entries)
    return (F, W) if right else (W, F)


def min_shift(e) -> int:
    """Smallest outer shift of a normal term, over the parts of a sum."""
    def outer(p):
        return p.m if isinstance(p, Shift) else 0

    if isinstance(e, Sum):
        return min((outer(p) for p, _ in e.parts), default=0)
    return outer(e)


def rotations(t):
    """(p, q, r) of each rotation of a normal triangle: cone(p -> q) = r."""
    x, y, z = t
    x1 = shift_expr(x, 1)
    return ((x, y, z), (y, z, x1), (z, x1, shift_expr(y, 1)))


def scan_cone(triangles, src, tgt):
    """cone(src -> tgt) by a scan of every triangle (x, y, z) and rotation,
    matched up to a common shift, first match winning: the cone and the
    index of the matching triangle, or (None, None)."""
    for i, tri in enumerate(triangles):
        for p, q, res in rotations(tuple(map(normalize, tri))):
            s = min_shift(src) - min_shift(p)
            if shift_expr(p, s) == src and shift_expr(q, s) == tgt:
                return shift_expr(res, s), i
    return None, None
