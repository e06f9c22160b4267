"""Blow-up contexts for varieties with one nodal point.

For a d-dimensional variety with a single node, the blow-up has a smooth
quadric Q of dimension n = d - 1 as exceptional divisor, with the conormal
convention O_Q(1) = j^* O(-Q).  This module builds the formal context of
pushforward sheaves j_*F, computes their graded Homs by splicing the long
exact sequence of the restriction triangle

    j^* j_* F -> F -> F(1)[2]

out of quadric-level Homs (`hom_push`), produces the kernel generator of
the categorical resolution by actually running the mutation chain, and
packages the whole dimension-by-dimension verification as a structured
report.

Ambient Serre data: the blow-up is (n+1)-dimensional with
j^* omega = O_Q(1-n), so the pair-Serre functor sends j_*F to
j_*F(1-n)[n+1]; the relative dualizing twist sends j_*F to j_*F(1-n).
Graded Homs of pushforwards depend only on the twist difference (twisting
by the O(Q)-powers is an equivalence), which is how the finite roster of
advertised generators coexists with Serre images at arbitrary twists.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache

from . import formalcat, quadric
from .errors import Failure, IndeterminateHom, NodalcatError, UnknownGenerator, UnsupportedPair
from .formalcat import Cone, Context, Gen, ObjExpr, Shift
from .graded import GradedDim

_PUSH_RE = re.compile(r"j\*(O|S''|S'|S)(?:\((-?\d+)\))?")


def push_name(F: quadric.QuadricSheaf) -> str:
    return _push_text(F.kind, F.twist)


def _push_text(kind: str, twist: int) -> str:
    """``push_name`` of the sheaf ``kind(twist)``, without building it."""
    return "j*" + quadric.sheaf_name(kind, twist)


@cache
def _push_gen(kind: str, twist: int) -> Gen:
    """The generator of the sheaf ``kind(twist)``, named and interned once."""
    return Gen(_push_text(kind, twist))


# Bounded: a context's resolved names are its own memo, which the build
# fills without this cache; the bound stays far above the ~230 roster names
# of nodal d = 2..13 that oracle checks parse again and again.
@lru_cache(maxsize=4096)
def parse_push_name(name: str) -> quadric.QuadricSheaf:
    m = _PUSH_RE.fullmatch(name)
    if not m:
        raise UnknownGenerator(f"{name!r} is not a pushforward sheaf generator")
    return quadric.QuadricSheaf(m.group(1), int(m.group(2) or 0))


def hom_push(n: int, F: quadric.QuadricSheaf, G: quadric.QuadricSheaf) -> GradedDim:
    """Hom^*(j_*F, j_*G) via the restriction triangle.

    Hom(j_*F, j_*G) = Hom(j^*j_*F, G), and the long exact sequence of the
    restriction triangle splices Hom^k(F, G) (same degree) with
    Hom^{k-1}(F(1), G) (one degree up):

      ... -> R_{k-2} -> P_k -> C_k -> R_{k-1} -> P_{k+1} -> ...

    with P = Hom_Q(F, G) and R = Hom_Q(F(1), G), that is
    ``formalcat.splice(P, R, -2, -1, ...)``.  A degree is accepted only when
    the two bounding maps are forced by a vanishing neighbor.
    """
    quadric.check_parity(n, F)
    quadric.check_parity(n, G)
    return _push_value(n, F.kind, F.twist, G.kind, G.twist)


def _push_value(n: int, kind1: str, t1: int, kind2: str, t2: int) -> GradedDim:
    """``hom_push`` of the sheaves ``kind1(t1)`` and ``kind2(t2)``, already
    checked on Q^n, read off the kinds and twists without building a
    sheaf; ``splice`` returns at once when a row is zero."""
    P = quadric._hom_quadric(n, kind1, t1, kind2, t2)
    R = quadric._hom_quadric(n, kind1, t1 + 1, kind2, t2)
    return formalcat.splice(P, R, -2, -1, lambda: (
        f"Hom(j*{quadric.sheaf_name(kind1, t1)}, j*{quadric.sheaf_name(kind2, t2)})",))


def _hom_class(F: quadric.QuadricSheaf, G: quadric.QuadricSheaf) -> tuple[str, int, str]:
    """(kind of F, twist of F minus twist of G, kind of G): Hom(j_*F, j_*G)
    depends on nothing else, because twisting both by O(Q) is an
    equivalence."""
    return F.kind, F.twist - G.twist, G.kind


@cache
def _pair_value(n: int, kind1: str, c: int, kind2: str) -> GradedDim | Failure:
    """``hom_push`` of the class ``(kind1, c, kind2)``, see ``_hom_class``,
    or the record of its failure: computed once per class either way, and
    ``formalcat`` raises from the record.  The kinds are those of resolved
    generators, so already checked.  A failure message names the class
    representative ``kind1(c)``, ``kind2``, so every pair of the class
    raises the same bytes."""
    try:
        return _push_value(n, kind1, c, kind2, 0)
    except (UnsupportedPair, IndeterminateHom) as exc:
        return Failure(exc)


class NodalSetup:
    """Roster and derived data of the nodal blow-up context in dimension d:
    the stored orthogonal collection as names (``perp``) and as the
    generators mutations run through (``perp_gens``)."""

    def __init__(self, n: int, context: Context, perp: tuple[str, ...]):
        self.n = n
        self.context = context
        self.perp = perp
        self.perp_gens = tuple(map(Gen, perp))


@cache
def _setup(d: int) -> NodalSetup:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    n = d - 1

    def base_hom(Fa: quadric.QuadricSheaf, Fb: quadric.QuadricSheaf) -> GradedDim | Failure:
        return _pair_value(n, *_hom_class(Fa, Fb))

    # pushed-forward tautological triangles at every twist, by rule;
    # pair-Serre j_*F -> j_*F(1-n)[n+1]
    ctx = quadric.family_context(n, f"nodal:{d}", "j*", range(1 - n, 2), base_hom, parse_push_name,
                                 serre=(1 - n, n + 1))
    if d % 2 == 1:
        # the defining orthogonality of the mutation producing the kernel
        # cone T = cone(j*S' -> j*S''[2])
        ctx.add_zero_fact(Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)), Gen("j*S''"))

    # stored orthogonal collection of the resolution subcategory: the
    # pushed Lefschetz blocks B_{n-1}(1-n), ..., B_1(-1); for odd d the
    # spinor entry is mutated across its line-bundle neighbor, which the
    # builder executes and checks
    perp: list[str] = []
    blocks = quadric.lefschetz_blocks(n).blocks
    for i in range(n - 1, 0, -1):
        for kd in blocks[i]:
            perp.append(_push_text(kd, -i))
    if d % 2 == 1 and n >= 2:
        mutated = formalcat.mutate_right(ctx, Gen("j*O(-1)"), Gen("j*S'(-1)"))
        expected = Shift(Gen("j*S''"), -1)
        if mutated != expected:
            raise NodalcatError(
                f"perp mutation sanity check failed: got {formalcat.render(mutated)}"
            )
        perp = [g for g in perp if g != "j*S'(-1)"]
        perp.append("j*S''")
    return NodalSetup(n=n, context=ctx, perp=tuple(perp))


def _perp_semiorthogonal(ctx: Context, perp: tuple[str, ...]) -> bool:
    """``formalcat.check_semiorthogonal`` of the one-generator blocks of
    ``perp``, asking ``formalcat.hom`` once per ``_hom_class`` of the later
    -> earlier pairs: O(d) Homs instead of O(d^2), found without visiting
    the pairs.

    Every name must be a generator of the nodal context ``ctx``.
    """
    # One pair per class is exact.  The nodal context records orthogonality
    # facts only with a cone on one side (the kernel cone's, and those of
    # mutation cones), so the Hom of two generators, a value or an error, is
    # base_hom of their sheaves, a function of the class alone.  A class is
    # asked at its first pair in the pairwise check's order (i ascending,
    # then j ascending), so the first nonzero Hom or error the pairwise
    # check meets sits on a pair asked here too, and nothing is asked after.
    #
    # The classes are enumerated without visiting the pairs: seen[kind] has
    # bit top - t for each twist t of that kind before entry i, so
    # seen[kind] << (t_i - low) has bit (t_i - t) + span for each twist
    # difference of a pair (i, j) with entry j of that kind.  Clearing the
    # bits already in asked[(kind_i, kind)] leaves the classes first met at
    # i; each one's j is the first entry with that kind and twist.
    sheaves = [ctx.resolve(name) for name in perp]
    low = min((F.twist for F in sheaves), default=0)
    top = max((F.twist for F in sheaves), default=0)
    span = top - low
    seen: dict[str, int] = {}
    asked: dict[tuple[str, str], int] = {}
    first: dict[tuple[str, int], int] = {}
    for i, F in enumerate(sheaves):
        partners = []
        for kind, mask in seen.items():
            key = (F.kind, kind)
            done = asked.get(key, 0)
            new = (mask << (F.twist - low)) & ~done
            if new:
                asked[key] = done | new
                while new:
                    bit = new & -new
                    new ^= bit
                    partners.append(first[kind, F.twist + span - bit.bit_length() + 1])
        for j in sorted(partners):
            if not formalcat.hom(ctx, Gen(perp[i]), Gen(perp[j])).is_zero:
                return False
        seen[F.kind] = seen.get(F.kind, 0) | 1 << (top - F.twist)
        first.setdefault((F.kind, F.twist), i)
    return True


def build_context(d: int) -> Context:
    """The formal context of pushforward sheaves for dimension d."""
    return _setup(d).context


def perp_collection(d: int) -> tuple[str, ...]:
    """The stored orthogonal collection (semiorthogonal order)."""
    return _setup(d).perp


def perp_generators(d: int) -> tuple[Gen, ...]:
    """``perp_collection(d)`` as generators, which mutations take as they are."""
    return _setup(d).perp_gens


def kernel_generator(d: int) -> ObjExpr:
    """Classical generator of the resolution kernel, built by mutation.

    Runs the right mutation through the stored orthogonal collection on the
    pushed spinor bundle; even d gives j_*S back, odd d produces the cone
    on j_*S' -> j_*S''[2] (the mutation's [-1] is dropped: classical
    generation is shift-insensitive and the cone itself is the stated
    generator).
    """
    setup = _setup(d)
    ctx = setup.context
    start = Gen("j*S") if d % 2 == 0 else Gen("j*S'")
    moved = formalcat.mutate_right(ctx, setup.perp_gens, start)
    if d % 2 == 0:
        if moved != start:
            raise NodalcatError(f"kernel mutation did not fix j*S: {formalcat.render(moved)}")
        return moved
    expected = Shift(Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)), -1)
    if moved != expected:
        raise NodalcatError(f"unexpected kernel mutation result: {formalcat.render(moved)}")
    return formalcat.shift_expr(moved, 1)


def spherical_degree(d: int) -> int:
    """The k for which the kernel generator in dimension d is k-spherical."""
    return 2 if d % 2 == 0 else 3


def relative_serre(d: int, F: ObjExpr) -> ObjExpr:
    """Relative Serre functor: the dualizing twist by 1-n, then mutation
    into the resolution."""
    setup = _setup(d)
    return formalcat.mutate_right(
        setup.context, setup.perp_gens, formalcat.twist_expr(setup.context, F, 1 - setup.n)
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class ReportItem:
    """One check of a verification report."""

    def __init__(self, id: str, citation: str, expected: str, got: str, passed: bool):
        self.id = id
        self.citation = citation
        self.expected = expected
        self.got = got
        self.passed = passed

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "citation": self.citation,
            "expected": self.expected,
            "got": self.got,
            "pass": self.passed,
        }


class VerificationReport:
    """The checks of ``verify_dim`` for one dimension."""

    def __init__(self, dim: int, items: tuple[ReportItem, ...]):
        self.dim = dim
        self.items = items

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "items": [item.to_json() for item in self.items],
            "all_pass": self.all_pass,
        }


def add_item(items: list, id: str, citation: str, expected: str, compute) -> None:
    """Run one check and append its item, trapping engine errors as
    failures, never aborting.  ``compute()`` returns ``(got, passed)``."""
    try:
        got, ok = compute()
    except NodalcatError as exc:
        got, ok = f"error: {exc}", False
    items.append(ReportItem(id, citation, expected, str(got), ok))


def verify_dim(d: int) -> VerificationReport:
    """Full verification battery for dimension d."""
    setup = _setup(d)
    ctx = setup.context
    n = setup.n
    items: list[ReportItem] = []
    even = d % 2 == 0
    spin = "j*S" if even else "j*S'"
    spin_gen = Gen(spin)

    def check_all_exceptional(kinds: tuple[str, ...]):
        # One generator per kind is exact.  Facts in a nodal context always
        # have a cone on one side (see _perp_semiorthogonal), so Hom(E, E)
        # of a generator E = j*F, a value or an error, is base_hom of the
        # class (kind, 0, kind) of F, the same for every twist.  Kinds are
        # asked in the order the roster first meets them, so an error is
        # the one the first failing roster name would raise.
        ok = {kd: formalcat.check_exceptional(ctx, _push_gen(kd, 0)) for kd in kinds}
        if all(ok.values()):
            return "all exceptional", True
        bad = [g for g in ctx.generators if not ok.get(parse_push_name(g).kind, True)]
        return f"not exceptional: {bad}", False

    def check_hom(a: str, b: str, want: GradedDim):
        v = formalcat.hom(ctx, Gen(a), Gen(b))
        return v.render(), v == want

    if d >= 3:
        add_item(items, "line-bundles-exceptional",
                 "pushforwards of line bundles from the exceptional quadric are exceptional",
                 "all exceptional", lambda: check_all_exceptional((quadric.LINE,)))

    if even:
        add_item(items, "spinor-endomorphisms",
                 "the pushed spinor bundle has graded endomorphism algebra C + C[-2]",
                 "C + C[-2]", lambda: check_hom("j*S", "j*S", GradedDim.from_dict({0: 1, 2: 1})))
    else:
        add_item(items, "spinors-exceptional",
                 "pushforwards of both spinor bundles are exceptional when the dimension is odd",
                 "all exceptional", lambda: check_all_exceptional(quadric.spinor_kinds(n)))
        add_item(items, "spinor-cross-hom",
                 "Hom(j*S', j*S'') is one dimension in degree 2",
                 "C[-2]", lambda: check_hom("j*S'", "j*S''", GradedDim.point(2)))
        add_item(items, "spinor-cross-hom-reverse",
                 "Hom(j*S'', j*S') computed independently agrees with the spinor-swapped value",
                 "C[-2]", lambda: check_hom("j*S''", "j*S'", GradedDim.point(2)))

    if d >= 3:
        def check_fix():
            for k in range(2 - d, 0):
                got = formalcat.mutate_right(ctx, _push_gen(quadric.LINE, k), spin_gen)
                if got is not spin_gen:
                    return f"k={k}: {formalcat.render(got)}", False
            return f"{spin} fixed for k in {2 - d}..-1", True

        add_item(items, "mutation-fixes-spinor",
                 f"right mutation through j*O(k) fixes {spin} for 2-d <= k <= -1",
                 f"{spin} fixed for k in {2 - d}..-1", check_fix)

        def check_steps():
            for k in range(1 - n, 0):
                line = _push_gen(quadric.LINE, k)
                for kd in quadric.spinor_kinds(n):
                    src = _push_gen(kd, k)
                    want = Shift(_push_gen(quadric.next_spinor(n, kd), k + 1), -1)
                    got = formalcat.mutate_right(ctx, line, src)
                    if got != want:
                        return f"k={k}, {kd}: {formalcat.render(got)}", False
            return "all twisted mutation steps identified", True

        add_item(items, "mutation-twist-steps",
                 "right mutation through j*O(k) turns the pushed spinor at twist k into "
                 "its successor at twist k+1, shifted by [-1], via the tautological triangle",
                 "all twisted mutation steps identified", check_steps)

    if not even and d >= 3:
        def check_cross_mutation():
            got = formalcat.mutate_right(ctx, Gen("j*S''"), Gen("j*S'"))
            want = Shift(Cone(Gen("j*S'"), Shift(Gen("j*S''"), 2)), -1)
            return formalcat.render(got), got == want

        add_item(items, "mutation-across-spinor",
                 "right mutation of j*S' through j*S'' is the cone on j*S' -> j*S''[2], shifted by [-1]",
                 "cone(j*S' -> j*S''[2])[-1]", check_cross_mutation)

    def check_perp():
        ok = _perp_semiorthogonal(ctx, setup.perp)
        return ("semiorthogonal" if ok else "not semiorthogonal", ok)

    add_item(items, "perp-semiorthogonal",
             "the stored orthogonal collection of the resolution is semiorthogonal",
             "semiorthogonal", check_perp)

    # built once for the three items below; a build error fails each of them
    try:
        kernel: ObjExpr | NodalcatError = kernel_generator(d)
    except NodalcatError as exc:
        kernel = exc

    def built_kernel() -> ObjExpr:
        if isinstance(kernel, NodalcatError):
            raise kernel
        return kernel

    expected_kernel = "j*S" if even else "cone(j*S' -> j*S''[2])"

    def check_kernel():
        text = formalcat.render(built_kernel())
        return text, text == expected_kernel

    add_item(items, "kernel-generator",
             "mutating the pushed spinor bundle through the orthogonal collection "
             "yields the kernel generator",
             expected_kernel, check_kernel)

    k_spherical = spherical_degree(d)
    def check_sph():
        T = built_kernel()
        report = formalcat.check_spherical(ctx, setup.perp_gens, T, k_spherical)
        serre_desc = (
            formalcat.render(report.serre_value) if report.serre_value is not None
            else "not evaluated"
        )
        desc = (f"hom={report.hom_value.render()} ({'ok' if report.hom_ok else 'BAD'}), "
                f"serre={serre_desc} ({'ok' if report.serre_ok else 'BAD'})")
        return desc, report.passed

    add_item(items, "kernel-spherical",
             f"the kernel generator is {k_spherical}-spherical: endomorphisms C + C[-{k_spherical}] "
             f"and Serre image shifted by [{k_spherical}]",
             f"{k_spherical}-spherical", check_sph)

    rel_shift = k_spherical - d
    def check_rel():
        T = built_kernel()
        got = relative_serre(d, T)
        want = formalcat.shift_expr(T, rel_shift)
        return formalcat.render(got), got == want

    add_item(items, "relative-serre-shift",
             f"the relative Serre functor shifts the kernel generator by [{rel_shift}]; "
             "it is the identity on it exactly when the dimension is at most 3",
             f"kernel generator shifted by [{rel_shift}]", check_rel)

    return VerificationReport(dim=d, items=tuple(items))
