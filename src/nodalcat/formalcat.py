"""Formal triangulated-object calculus.

Objects are terms: generators, shifts, finite sums, and cones of maps
between previously constructed objects.  A :class:`Context` supplies the
base graded Hom table between generators, the registered exact triangles,
orthogonality facts, and the ambient Serre data.  On top of that this
module implements:

* ``hom``: graded Hom of arbitrary terms.  Cones are handled by ``splice``,
  the one determinate long-exact-sequence solver: a degree of the unknown
  row is accepted only when the two maps bounding it are forced, either
  because a neighboring term vanishes or because a recorded orthogonality
  fact kills a whole row.  Anything else raises IndeterminateHom;
  connecting maps are never guessed.  Its offsets (s, t) are (0, +1) for
  Hom(W, cone) and (0, -1) for Hom(cone, W); ``nodal.hom_push`` splices
  the restriction triangle with (-2, -1).
* ``mutate_right`` / ``mutate_left``: mutations through exceptional
  generators, with cone identification against registered triangles up to
  shift and rotation.  Mutations distribute over sums, shifts and cone
  legs (they are exact functors); an unidentified cone is kept as a single
  indecomposable term carrying its own triangle, and the defining
  orthogonality of the mutation is recorded as a fact.
* ``serre_in``: Serre functor of an admissible complement, computed as the
  ambient Serre action followed by right mutation through the stored
  orthogonal collection (compositions ordered as for mutation through a
  decomposed subcategory).
* semiorthogonality / exceptionality / sphericalness checks.

Contexts are immutable after construction apart from append-only state:
registries of freshly created mutation cones and their orthogonality
facts, a rotation index over every registered triangle (so cone
identification is one dict lookup), a cache of resolved generator names,
the set of generators already checked exceptional as mutation targets,
and one memo table, holding Hom values and failures under (F, G) keys and
single mutation steps under (E, F, right) keys.  Entries are only ever
added, never invalidated, so a memoized Hom can predate a fact registered
later.  This state is updated without locks: a context is not
thread-safe.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterator

from .errors import (
    IndeterminateHom,
    NotExceptional,
    UnknownGenerator,
    UnsupportedPair,
)
from .graded import Frozen, GradedDim

# ---------------------------------------------------------------------------
# object expressions
# ---------------------------------------------------------------------------


class Gen(Frozen):
    """A generator leaf, interned by name.

    ``Gen(name)`` returns the one shared object for that name, so two
    generators are equal exactly when they are the same object: equality
    and hashing are identity (they run in C, with no Python-level call).
    Generators are immutable, and copy, deepcopy and pickle return the
    interned object again.  Hashes therefore depend on memory addresses, so
    no code path may iterate a set of expressions.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Gen":
        gen = _GENS.get(name)
        if gen is None:
            gen = object.__new__(cls)
            object.__setattr__(gen, "name", name)
            gen = _GENS.setdefault(name, gen)
        return gen

    __eq__, __hash__ = object.__eq__, object.__hash__


# the interned generators, by name
_GENS: dict[str, Gen] = {}


class Shift(Frozen):
    """``expr[m]``."""

    __slots__ = ("expr", "m")

    def __init__(self, expr: ObjExpr, m: int):
        _set_shift_expr(self, expr)
        _set_shift_m(self, m)

    # written out: a memo key, where Value's generic methods are ~6x slower
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.expr, self.m) == (other.expr, other.m)
        return NotImplemented

    def __hash__(self):
        return hash((self.expr, self.m))


class Sum(Frozen):
    """A finite direct sum; ``parts`` are (atom-or-shifted-atom,
    multiplicity) pairs, canonically sorted."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[ObjExpr, int], ...]):
        _set_sum_parts(self, parts)

    # written out: a memo key, where Value's generic methods are ~6x slower
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.parts,))


class _HashOnce(Frozen):
    """Holds a subclass's hash, computed on first use.

    The slot lives here, outside the subclass's ``__slots__``, so
    ``Value``'s equality, repr and pickling never see it; a copy or an
    unpickled value starts without it and computes its own.
    """

    __slots__ = ("_hash",)


class Cone(_HashOnce):
    """The cone on a map ``src -> tgt``.  ``tag`` names the map for
    messages; equality and hashing ignore it.  The hash of a nested cone
    walks the whole tree, so it is computed once per object."""

    __slots__ = ("src", "tgt", "tag")

    def __init__(self, src: ObjExpr, tgt: ObjExpr, tag: str = ""):
        _set_cone_src(self, src)
        _set_cone_tgt(self, tgt)
        _set_cone_tag(self, tag)

    # written out: a memo and rotation-index key (~6x faster); skips the tag
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.src, self.tgt) == (other.src, other.tgt)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.src, self.tgt))
            _set_hash(self, h)
            return h


# slot setters for the constructors, which bypass the raising __setattr__
_set_shift_expr, _set_shift_m = Shift.expr.__set__, Shift.m.__set__
_set_sum_parts = Sum.parts.__set__
_set_cone_src, _set_cone_tgt, _set_cone_tag = Cone.src.__set__, Cone.tgt.__set__, Cone.tag.__set__
_set_hash = _HashOnce._hash.__set__

ObjExpr = Gen | Shift | Sum | Cone

ZERO = Sum(())

# Hom(E, E) of an exceptional object: C in degree 0
_ENDO_EXCEPTIONAL = GradedDim.point(0, 1)

# the default of a dict lookup that found no entry
_MISS = object()

# longest slice, in characters, in which ``render_chunks`` writes a run of
# equal summands
RUN_SLICE = 1 << 20


def is_zero(e: ObjExpr) -> bool:
    return isinstance(e, Sum) and not e.parts


def render(e: ObjExpr) -> str:
    """The text of an expression, in the grammar the CLI parses.

    Generators and their shifts, nearly all the sort keys ``_sorted_parts``
    asks for, are formatted directly; other terms join ``render_chunks``.
    """
    if isinstance(e, Gen):
        return e.name
    if isinstance(e, Shift) and isinstance(e.expr, Gen):
        return f"{e.expr.name}[{e.m}]"
    return "".join(render_chunks(e))


def render_chunks(e: ObjExpr, compact: bool = False) -> Iterator[str]:
    """The text of ``render(e)`` as consecutive pieces, for streaming.

    A summand of multiplicity m is rendered once, as s, and its run of
    m - 1 units ``s + " + "`` is written in bounded slices: one slice of as
    many units as fit in ``RUN_SLICE`` characters (at least one unit),
    repeated, then the remainder, then s.  A run that fits in one slice is
    one chunk, and no chunk of a run is longer than the larger of
    ``RUN_SLICE`` and one unit, so the memory a run costs does not grow
    with m.

    With ``compact``, a summand of multiplicity m > 1 is written once, as
    ``s^m``, at every depth, so the text is bounded by the expression's
    tree rather than by its multiplicities; ``cli.parse_expr`` reads both
    forms back to the same normalized expression.
    """
    if isinstance(e, Gen):
        yield e.name
    elif isinstance(e, Shift):
        yield from render_chunks(e.expr, compact)
        yield f"[{e.m}]"
    elif isinstance(e, Cone):
        yield "cone("
        yield from render_chunks(e.src, compact)
        yield " -> "
        yield from render_chunks(e.tgt, compact)
        yield ")"
    elif not e.parts:
        yield "0"
    else:
        first = True
        for part, mult in e.parts:
            if mult < 1:
                continue
            if not first:
                yield " + "
            first = False
            if compact:
                yield from render_chunks(part, True)
                if mult > 1:
                    yield f"^{mult}"
                continue
            s = render(part)
            if mult > 1:
                unit = s + " + "
                per_slice = max(1, RUN_SLICE // len(unit))
                full, rest = divmod(mult - 1, per_slice)
                if full:
                    piece = unit * per_slice
                    for _ in range(full):
                        yield piece
                if rest:
                    yield unit * rest
            yield s


def _outer_shift(e: ObjExpr) -> int:
    return e.m if isinstance(e, Shift) else 0


def shift_expr(e: ObjExpr, m: int) -> ObjExpr:
    """Shift a normalized expression by [m], keeping normal form."""
    if m == 0:
        return e
    if isinstance(e, Shift):
        k = e.m + m
        return e.expr if k == 0 else Shift(e.expr, k)
    if isinstance(e, Sum):
        return Sum(_sorted_parts([(shift_expr(p, m), r) for p, r in e.parts]))
    return Shift(e, m)


def _sorted_parts(pairs) -> tuple:
    acc: dict[ObjExpr, int] = {}
    order: dict[ObjExpr, str] = {}
    for p, r in pairs:
        if r == 0:
            continue
        acc[p] = acc.get(p, 0) + r
        order[p] = render(p)
    return tuple(sorted(((p, r) for p, r in acc.items()), key=lambda it: order[it[0]]))


def sum_of(expr: ObjExpr, mult: int) -> ObjExpr:
    """``mult`` copies of an expression, as a normalized sum."""
    e = normalize(expr)
    if mult == 0 or is_zero(e):
        return ZERO
    if mult == 1:
        return e
    return normalize(Sum(((e, mult),)))


def sum_exprs(parts) -> ObjExpr:
    return normalize(Sum(tuple((p, r) for p, r in parts)))


def normalize(e: ObjExpr) -> ObjExpr:
    """Canonical normal form: shifts at leaves, sums flat, trivial cones gone.

    Cones over (or under) the zero object simplify; an identity-tagged cone
    is zero; otherwise the cone is kept intact since a dimension-level
    calculus cannot prove a map zero.  A cone absorbs the outer shift of
    its source, so cone(X[s] -> Y) = cone(X -> Y[-s])[s].
    """
    if isinstance(e, Gen):
        return e
    if isinstance(e, Shift):
        return shift_expr(normalize(e.expr), e.m)
    if isinstance(e, Sum):
        flat: list[tuple[ObjExpr, int]] = []
        for p, r in e.parts:
            q = normalize(p)
            if isinstance(q, Sum):
                flat.extend((pp, rr * r) for pp, rr in q.parts)
            else:
                flat.append((q, r))
        parts = _sorted_parts(flat)
        if len(parts) == 1 and parts[0][1] == 1:
            return parts[0][0]
        return Sum(parts)
    return cone_of(normalize(e.src), normalize(e.tgt), e.tag)


def cone_of(src: ObjExpr, tgt: ObjExpr, tag: str) -> ObjExpr:
    """``normalize(Cone(src, tgt, tag))`` of normalized legs, which it does
    not walk again: only the cone's own rules apply (identity tag, zero
    legs, the source's outer shift)."""
    if tag == "identity":
        return ZERO
    if is_zero(src):
        return tgt
    if is_zero(tgt):
        return shift_expr(src, 1)
    s = _outer_shift(src)
    if s:
        return Shift(Cone(shift_expr(src, -s), shift_expr(tgt, -s), tag), s)
    return Cone(src, tgt, tag)


def _strip_shift(e: ObjExpr) -> ObjExpr:
    return e.expr if isinstance(e, Shift) else e


def map_gens(e: ObjExpr, f: Callable[[str], ObjExpr]) -> ObjExpr:
    """Apply a generator-wise substitution, distributing over the term."""
    if isinstance(e, Gen):
        return normalize(f(e.name))
    if isinstance(e, Shift):
        return shift_expr(map_gens(e.expr, f), e.m)
    if isinstance(e, Sum):
        return sum_exprs((map_gens(p, f), r) for p, r in e.parts)
    return cone_of(map_gens(e.src, f), map_gens(e.tgt, f), e.tag)


# ---------------------------------------------------------------------------
# triangles and contexts
# ---------------------------------------------------------------------------


class Triangle(Frozen):
    """A registered exact triangle x -> y -> z; z is the cone on x -> y.
    Equality and hashing ignore ``tag``."""

    __slots__ = ("x", "y", "z", "tag")

    def __init__(self, x: ObjExpr, y: ObjExpr, z: ObjExpr, tag: str = ""):
        _set_tri_x(self, x)
        _set_tri_y(self, y)
        _set_tri_z(self, z)
        _set_tri_tag(self, tag)

    # written out: a triangle-registry key (~6x faster); skips the tag
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y, self.z) == (other.x, other.y, other.z)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def normalized(self) -> "Triangle":
        return Triangle(normalize(self.x), normalize(self.y), normalize(self.z), self.tag)


_set_tri_x, _set_tri_y = Triangle.x.__set__, Triangle.y.__set__
_set_tri_z, _set_tri_tag = Triangle.z.__set__, Triangle.tag.__set__


class LefschetzData:
    """Nested blocks B_0 >= B_1 >= ...; block i sits twisted by -i."""

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        self.blocks = blocks


class SOD:
    """An ordered semiorthogonal collection of generator blocks."""

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        self.blocks = blocks


class Context:
    """Immutable computation context for the formal calculus.

    ``gen_resolve(name)`` decides which names are generators at all: it
    returns the object a name stands for (a sheaf, say) or raises
    UnknownGenerator.  Without it a generator is a name in ``generators``
    and resolves to itself.  ``resolve`` memoizes each successful
    resolution per name; a failing name raises on every call.
    ``base_hom(a, b)`` returns the graded Hom between two generators and
    receives them resolved, as ``resolve`` returned them, never as names
    (it may raise UnsupportedPair).  ``serre_action`` sends a generator
    name to its image under the ambient pair-Serre functor.  The static
    ``triangles`` are normalized once, on construction, and stored so.
    """

    def __init__(
        self,
        name: str,
        generators: tuple[str, ...],
        base_hom: Callable[[object, object], GradedDim],
        gen_resolve: Callable[[str], object] | None = None,
        twist_gen: Callable[[str, int], str] | None = None,
        serre_action: Callable[[str], ObjExpr] | None = None,
        relative_twist: Callable[[str], ObjExpr] | None = None,
        triangles: tuple[Triangle, ...] = (),
        zero_facts: frozenset[tuple[ObjExpr, ObjExpr]] = frozenset(),
    ):
        self.name = name
        self.generators = generators
        self.base_hom = base_hom
        self.gen_resolve = gen_resolve
        self.twist_gen = twist_gen
        self.serre_action = serre_action
        self.relative_twist = relative_twist
        self.triangles = tuple(tri.normalized() for tri in triangles)
        self.zero_facts = zero_facts
        self._memo: dict = {}
        self._derived_triangles: list[Triangle] = []
        self._derived_zero_facts: set = set()
        # static and derived triangles, for the dedupe in add_triangle
        self._known_triangles = set(self.triangles)
        # rotation index: shift-normalized (src, tgt) -> cone, see _identify_cone
        self._cone_index: dict = {}
        # name -> resolved generator, filled by resolve
        self._resolved: dict = {}
        # generators that passed _require_exceptional; a failure is not stored
        self._checked_exceptional: set[Gen] = set()
        for tri in self.triangles:
            self._index_triangle(tri)

    def all_triangles(self):
        yield from self.triangles
        yield from self._derived_triangles

    def has_zero_fact(self, F: ObjExpr, G: ObjExpr) -> bool:
        if not (self.zero_facts or self._derived_zero_facts):
            return False
        key = (_strip_shift(F), _strip_shift(G))
        return key in self.zero_facts or key in self._derived_zero_facts

    def add_zero_fact(self, F: ObjExpr, G: ObjExpr) -> None:
        self._derived_zero_facts.add((_strip_shift(F), _strip_shift(G)))

    def add_triangle(self, tri: Triangle) -> None:
        self._register_triangle(tri.normalized())

    def _register_triangle(self, tri: Triangle) -> None:
        """``add_triangle`` of a triangle whose parts are already normal."""
        if tri not in self._known_triangles:
            self._known_triangles.add(tri)
            self._derived_triangles.append(tri)
            self._index_triangle(tri)

    def _index_triangle(self, t: Triangle) -> None:
        # first wins: registry order, then rotation order, decides a key
        x1 = shift_expr(t.x, 1)
        for p, q, res in ((t.x, t.y, t.z), (t.y, t.z, x1), (t.z, x1, shift_expr(t.y, 1))):
            key, m = _cone_key(p, q)
            self._cone_index.setdefault(key, shift_expr(res, -m))

    def resolve(self, name: str):
        obj = self._resolved.get(name, _MISS)
        if obj is _MISS:
            if self.gen_resolve is not None:
                obj = self.gen_resolve(name)
            elif name in self.generators:
                obj = name
            else:
                raise UnknownGenerator(name)
            self._resolved[name] = obj
        return obj


# ---------------------------------------------------------------------------
# graded Hom with the determinate LES solver
# ---------------------------------------------------------------------------


def hom(ctx: Context, F: ObjExpr, G: ObjExpr) -> GradedDim:
    """Graded Hom of two terms over a context."""
    return _hom(ctx, F if isinstance(F, Gen) else normalize(F),
                G if isinstance(G, Gen) else normalize(G))


def _hom(ctx: Context, F: ObjExpr, G: ObjExpr) -> GradedDim:
    """Memoized graded Hom of normalized terms.

    A failure (UnsupportedPair, IndeterminateHom) is memoized too, as a
    copy made before it propagates, so the stored exception has no
    traceback, cause or context; each hit raises a fresh copy of it.
    Storing the raised exception itself would pin every frame it passed
    through (with their locals) for the life of the context, and each
    re-raise would lengthen its traceback.
    """
    key = (F, G)
    memo = ctx._memo
    val = memo.get(key, _MISS)
    if val is not _MISS:
        if isinstance(val, Exception):
            raise copy.copy(val)
        return val
    try:
        val = _hom_compute(ctx, F, G)
    except (UnsupportedPair, IndeterminateHom) as exc:
        memo[key] = copy.copy(exc)
        raise
    memo[key] = val
    return val


def _hom_compute(ctx: Context, F: ObjExpr, G: ObjExpr) -> GradedDim:
    if ctx.has_zero_fact(F, G):
        return GradedDim.zero()
    if isinstance(F, Gen) and isinstance(G, Gen):
        return ctx.base_hom(ctx.resolve(F.name), ctx.resolve(G.name))
    if is_zero(F) or is_zero(G):
        return GradedDim.zero()
    if isinstance(F, Sum):
        out = GradedDim.zero()
        for p, r in F.parts:
            out = out + _hom(ctx, p, G).scale(r)
        return out
    if isinstance(G, Sum):
        out = GradedDim.zero()
        for p, r in G.parts:
            out = out + _hom(ctx, F, p).scale(r)
        return out
    if isinstance(F, Shift):
        return _hom(ctx, F.expr, G).shift(-F.m)
    if isinstance(G, Shift):
        return _hom(ctx, F, G.expr).shift(G.m)
    if isinstance(G, Cone):
        try:
            return _solve_covariant(ctx, F, G)
        except IndeterminateHom:
            if isinstance(F, Cone):
                return _solve_contravariant(ctx, F, G)
            raise
    return _solve_contravariant(ctx, F, G)


def _hom_label(F: ObjExpr, G: ObjExpr) -> Iterator[str]:
    """The pieces of ``Hom(F, G)``, for an IndeterminateHom message; the
    arguments are compact, so the text is bounded by their trees."""
    yield "Hom("
    yield from render_chunks(F, compact=True)
    yield ", "
    yield from render_chunks(G, compact=True)
    yield ")"


def splice(Y: GradedDim, X: GradedDim, s: int, t: int,
           label: str | Callable[[], Iterator[str]]) -> GradedDim:
    """The unknown row C of a long exact sequence, from its known rows Y, X.

    In degree k the sequence runs through Y_k, C_k, X_{k+t} in a row, with
    X_{k+s} next to Y_k on the far side and Y_{k+t-s} next to X_{k+t}:

      ... - X_{k+s} - Y_k - C_k - X_{k+t} - Y_{k+t-s} - ...

    So C_k is the part of Y_k the map between Y_k and X_{k+s} leaves over,
    plus the part of X_{k+t} the map between X_{k+t} and Y_{k+t-s} leaves
    over.  Those maps are unknown, so a part is forced only when one of its
    two terms vanishes: Y_k counts in full when X_{k+s} = 0, and X_{k+t}
    when Y_{k+t-s} = 0.  Any other degree is collected, and together they
    raise ``IndeterminateHom(degrees, label)``.
    """
    y_at, x_at = dict(Y.entries), dict(X.entries)
    out: dict[int, int] = {}
    bad: list[int] = []
    for k in sorted(y_at.keys() | {j - t for j in x_at}):
        y, x = y_at.get(k, 0), x_at.get(k + t, 0)
        if (y and x_at.get(k + s)) or (x and y_at.get(k + t - s)):
            bad.append(k)
        else:
            out[k] = y + x
    if bad:
        raise IndeterminateHom(bad, label)
    return GradedDim.from_dict(out)


def _solve_covariant(ctx: Context, W: ObjExpr, Z: Cone) -> GradedDim:
    """Row Hom(W, cone(X -> Y)) from the sequence
    ... -> Hom^k(W, X) -> Hom^k(W, Y) -> Hom^k(W, Z) -> Hom^{k+1}(W, X) -> ...
    """
    X = _hom(ctx, W, Z.src)  # asked first: it decides which failure propagates
    return splice(_hom(ctx, W, Z.tgt), X, 0, 1, lambda: _hom_label(W, Z))


def _solve_contravariant(ctx: Context, Z: Cone, W: ObjExpr) -> GradedDim:
    """Row Hom(cone(X -> Y), W) from the sequence
    ... -> Hom^{k-1}(X, W) -> Hom^k(Z, W) -> Hom^k(Y, W) -> Hom^k(X, W) -> ...
    """
    return splice(_hom(ctx, Z.tgt, W), _hom(ctx, Z.src, W), 0, -1, lambda: _hom_label(Z, W))


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------


def _min_shift(e: ObjExpr) -> int:
    """Smallest outer shift of a normalized term, over the parts of a sum."""
    if isinstance(e, Sum):
        return min((_outer_shift(p) for p, _ in e.parts), default=0)
    return _outer_shift(e)


def _cone_key(src: ObjExpr, tgt: ObjExpr) -> tuple[tuple[ObjExpr, ObjExpr], int]:
    """The pair shifted by -m, with m = _min_shift(src), and m itself."""
    m = _min_shift(src)
    return (shift_expr(src, -m), shift_expr(tgt, -m)), m


def _identify_cone(ctx: Context, src: ObjExpr, tgt: ObjExpr) -> ObjExpr | None:
    """Match cone(src -> tgt) against registered triangles.

    Matching is up to a common shift and up to rotation: a triangle
    x -> y -> z also certifies cone(y -> z) = x[1] and cone(z -> x[1]) = y[1].

    Each registered triangle sits in ``ctx._cone_index`` under the keys of
    its three rotations (p, q, r).  A key is (p[-m], q[-m]), where m is the
    smallest outer shift of p (of its parts, for a sum), and maps to r[-m].
    The probe is normalized the same way, so one lookup finds a match up to
    a common shift, and the hit is shifted back by the probe's own m.  When
    several rotations share a key, the first registered triangle, then its
    first rotation, holds it.
    """
    key, m = _cone_key(src, tgt)
    hit = ctx._cone_index.get(key)
    return None if hit is None else shift_expr(hit, m)


def _require_exceptional(ctx: Context, E: Gen) -> None:
    """Raise unless E is a known generator with Hom(E, E) = C.

    A pass is remembered per context (Hom(E, E) is memoized, so it cannot
    change); a failure is checked again, and raises again, on every call.
    """
    if E in ctx._checked_exceptional:
        return
    ctx.resolve(E.name)
    value = _hom(ctx, E, E)
    if value != _ENDO_EXCEPTIONAL:
        raise NotExceptional(f"{E.name} has Hom-algebra {value.render()}")
    ctx._checked_exceptional.add(E)


def _as_gen(E) -> Gen:
    if isinstance(E, Gen):
        return E
    if isinstance(E, str):
        return Gen(E)
    raise TypeError(f"mutation requires a generator, got {E!r}")


def _tensor(V: GradedDim, E: Gen, sign: int) -> ObjExpr:
    """V tensor E (sign -1) or V^dual tensor E (sign +1) as an object: an
    entry of V in degree k gives E[sign * k].

    The summands are distinct shifts of one generator, already in normal
    form, so they are sorted directly rather than normalized.
    """
    parts = _sorted_parts((shift_expr(E, sign * k), r) for k, r in V.entries)
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return Sum(parts)


def mutate_right(ctx: Context, through, F: ObjExpr) -> ObjExpr:
    """Right mutation of F through a generator or an ordered collection.

    A collection (A_1, ..., A_m) acts as R_{A_m} o ... o R_{A_1}, i.e. the
    mutation through the subcategory generated by the collection.
    """
    return _mutate(ctx, through, F, right=True)


def mutate_left(ctx: Context, through, F: ObjExpr) -> ObjExpr:
    """Left mutation; a collection (A_1, ..., A_m) acts as L_{A_1} o ... o L_{A_m}."""
    return _mutate(ctx, through, F, right=False)


def _mutate(ctx: Context, through, F: ObjExpr, right: bool) -> ObjExpr:
    gens = through if isinstance(through, (list, tuple)) else (through,)
    out = normalize(F)
    for E in gens if right else reversed(gens):
        E = _as_gen(E)
        _require_exceptional(ctx, E)
        out = _mutate_one(ctx, E, out, right)
    return out


def _mutate_one(ctx: Context, E: Gen, F: ObjExpr, right: bool) -> ObjExpr:
    """One mutation of a normalized F through E, already checked exceptional.

    A step with a nonzero Hom is memoized under ``(E, F, right)``; a hit is
    exactly what a recomputation would return.  The result depends only on
    memoized Homs, which never change once written, and on the cones the
    rotation index holds, where the first registration of a key wins: a
    step that found no cone registers the very key it probed, so asking
    again finds that cone, tag included.  A recomputation registers no new
    triangle or fact either, so a hit skips nothing.  Steps that return F
    unchanged (zero Hom) and failing steps are not stored: the first are
    free, and the second raise again through the Hom memo's stored copy.
    """
    if isinstance(F, Shift):
        # mutation commutes with shifts, and Hom(F[m], E) is Hom(F, E) moved
        return shift_expr(_mutate_one(ctx, E, F.expr, right), F.m)
    if is_zero(F):
        return ZERO
    if F == E:
        return ZERO  # cone on the identity map
    V = _hom(ctx, F, E) if right else _hom(ctx, E, F)
    if V.is_zero:
        return F
    key = (E, F, right)
    out = ctx._memo.get(key)
    if out is None:
        out = ctx._memo[key] = _mutate_step(ctx, E, F, V, right)
    return out


def _mutate_step(ctx: Context, E: Gen, F: ObjExpr, V: GradedDim, right: bool) -> ObjExpr:
    """``_mutate_one`` of an unshifted F with V = Hom(F, E) (right) or
    Hom(E, F) (left) nonzero."""
    if isinstance(F, Sum):
        return sum_exprs((_mutate_one(ctx, E, p, right), r) for p, r in F.parts)
    if isinstance(F, Cone):
        # mutation is exact: act on the legs; the connecting arrow of the
        # new cone is nonzero (otherwise the image would decompose), so it
        # stays one indecomposable term
        src = _mutate_one(ctx, E, F.src, right)
        tgt = _mutate_one(ctx, E, F.tgt, right)
        out = cone_of(src, tgt, f"image of {render(F)} under mutation through {E.name}")
        _record_mutation_cone(ctx, out, E, right)
        return out
    # R_E F = cone(F -> V^dual tensor E)[-1], L_E F = cone(V tensor E -> F)
    W = _tensor(V, E, 1 if right else -1)
    src, tgt = (F, W) if right else (W, F)
    cone = _identify_cone(ctx, src, tgt)
    if cone is None:
        side = "right" if right else "left"
        cone = cone_of(src, tgt, f"{side} mutation of {render(F)} through {E.name}")
        _record_mutation_cone(ctx, cone, E, right)
    return shift_expr(cone, -1) if right else cone


def _record_mutation_cone(ctx: Context, cone: ObjExpr, E: Gen, right: bool) -> None:
    # a normal cone's legs are normal, so the triangle is registered as is
    core = _strip_shift(cone)
    if not isinstance(core, Cone):
        return
    ctx._register_triangle(Triangle(core.src, core.tgt, core, tag=core.tag))
    if right:
        ctx.add_zero_fact(core, E)
    else:
        ctx.add_zero_fact(E, core)


# ---------------------------------------------------------------------------
# Serre functors
# ---------------------------------------------------------------------------


def _map_leaves(ctx: Context, F: ObjExpr, f: Callable[[str], ObjExpr] | None, what: str) -> ObjExpr:
    """``map_gens`` with a context callback; a missing one is UnknownGenerator."""
    if f is None:
        raise UnknownGenerator(f"context {ctx.name} has no {what}")
    return map_gens(normalize(F), f)


def apply_serre_action(ctx: Context, F: ObjExpr) -> ObjExpr:
    """Ambient pair-Serre action, applied leafwise (the functor is exact)."""
    return _map_leaves(ctx, F, ctx.serre_action, "Serre action")


def apply_relative_twist(ctx: Context, F: ObjExpr) -> ObjExpr:
    """Relative dualizing twist, applied leafwise."""
    return _map_leaves(ctx, F, ctx.relative_twist, "relative twist")


def serre_in(ctx: Context, perp, F: ObjExpr) -> ObjExpr:
    """Serre functor of the right-orthogonal complement of ``perp``.

    Ambient Serre action followed by right mutation through the stored
    orthogonal collection, in its semiorthogonal order.
    """
    return mutate_right(ctx, tuple(perp), apply_serre_action(ctx, F))


def twist_expr(ctx: Context, F: ObjExpr, k: int) -> ObjExpr:
    """Twist every generator leaf by k steps of the context line bundle."""
    twist = ctx.twist_gen
    return _map_leaves(ctx, F, twist and (lambda name: Gen(twist(name, k))), "twist rule")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_exceptional(ctx: Context, F: ObjExpr) -> bool:
    return hom(ctx, F, F) == _ENDO_EXCEPTIONAL


def check_semiorthogonal(ctx: Context, sod: SOD) -> bool:
    """No Homs from a later block to an earlier one."""
    blocks = [[Gen(a) for a in block] for block in sod.blocks]
    for i in range(len(blocks)):
        for j in range(i):
            for a in blocks[i]:
                for b in blocks[j]:
                    if not hom(ctx, a, b).is_zero:
                        return False
    return True


class SphericalReport:
    """Outcome of a sphericalness check.

    Finiteness of all graded Homs (condition (a) of the definition) is
    structural here: every value the engine produces is a finite vector.
    ``serre_value`` is None when the endomorphism condition already failed
    and the Serre chain was not attempted.
    """

    def __init__(self, degree: int, hom_value: GradedDim, hom_ok: bool,
                 serre_value: ObjExpr | None, serre_ok: bool):
        self.degree = degree
        self.hom_value = hom_value
        self.hom_ok = hom_ok
        self.serre_value = serre_value
        self.serre_ok = serre_ok

    @property
    def passed(self) -> bool:
        return self.hom_ok and self.serre_ok


def check_spherical(ctx: Context, perp, F: ObjExpr, k: int) -> SphericalReport:
    """k-sphericalness: Hom(F,F) = C + C[-k] and Serre image F[k].

    The Serre chain only runs when the endomorphism condition holds; an
    object failing it (an exceptional object, say) gets a failing report
    without dragging the chain through mutations it was never meant for.
    """
    F = normalize(F)
    hval = hom(ctx, F, F)
    hom_ok = hval == GradedDim.from_dict({0: 1, k: 1})
    if not hom_ok:
        return SphericalReport(k, hval, hom_ok, None, False)
    sval = serre_in(ctx, perp, F)
    serre_ok = sval == shift_expr(F, k)
    return SphericalReport(k, hval, hom_ok, sval, serre_ok)
