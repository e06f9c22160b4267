"""Reference tautological triangles of the family contexts, written out.

A family context knows the triangles Sp(k) -> O(k)^r -> next(k + 1) by
rule, at every twist; tests that walk triangles take this list instead,
built here without the engine's rule: each leg through ``sum_exprs`` and
``normalize``, the successor kind and the middle rank spelled out.  A
triangle x -> y -> z is the plain tuple (x, y, z).
"""

from nodalcat import formalcat
from nodalcat.formalcat import Gen
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
