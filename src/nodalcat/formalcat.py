"""Formal triangulated-object calculus.

Objects are terms: generators, shifts, finite sums, and cones of maps
between previously constructed objects.  A :class:`Context` supplies the
base graded Hom table between generators, a cone rule, orthogonality
facts, and the ambient Serre data.  On top of that this module implements:

* ``hom``: graded Hom of arbitrary terms.  Cones are handled by ``splice``,
  the one determinate long-exact-sequence solver: a degree of the unknown
  row is accepted only when the two maps bounding it are forced, either
  because a neighboring term vanishes or because a recorded orthogonality
  fact kills a whole row.  Anything else raises IndeterminateHom;
  connecting maps are never guessed.  Its offsets (s, t) are (0, +1) for
  Hom(W, cone) and (0, -1) for Hom(cone, W); ``nodal.hom_push`` splices
  the restriction triangle with (-2, -1).
* ``mutate_right`` / ``mutate_left``: mutations through exceptional
  generators.  Mutations distribute over sums, shifts and cone legs (they
  are exact functors).  The cone of a step on a generator is named by the
  context's cone rule, up to shift, or else kept as ``cone_of`` its legs,
  a single indecomposable term.  The image of a cone is the cone of the
  images of its legs.  Every step that builds a cone records the defining
  orthogonality of the mutation as a fact: R_E F lies in the left
  orthogonal of E, and L_E F in its right orthogonal.
* ``serre_in``: Serre functor of an admissible complement, computed as the
  ambient Serre action followed by right mutation through the stored
  orthogonal collection (compositions ordered as for mutation through a
  decomposed subcategory).
* semiorthogonality / exceptionality / sphericalness checks.

Contexts are immutable after construction apart from append-only state:
the orthogonality facts, a cache of resolved generator names, which a
builder may fill with its roster up front, the set of generators already
checked exceptional as mutation targets, and one memo table, holding Hom
values and failures under (F, G) keys and single mutation steps under
(E, F, right) keys.  Entries
are only ever added, never invalidated, so a memoized Hom can predate a
fact recorded later.  This state is updated without locks: a context
is not thread-safe.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .errors import (
    Failure,
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


class _HashOnce(Frozen):
    """Holds a subclass's hash, computed on first use; the subclass's
    ``__init__`` sets it to None.

    The slot lives here, outside the subclass's ``__slots__``, so
    ``Value``'s equality, repr and pickling never see it; a copy or an
    unpickled value is built through ``__init__`` and computes its own.
    """

    __slots__ = ("_hash",)


class Sum(_HashOnce):
    """A finite direct sum; ``parts`` are (atom-or-shifted-atom,
    multiplicity) pairs, canonically sorted."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[ObjExpr, int], ...]):
        _set_sum_parts(self, parts)
        _set_hash(self, None)

    # written out: a memo key, where Value's generic methods are ~6x slower
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.parts,))
            _set_hash(self, h)
        return h


class Cone(_HashOnce):
    """The cone on a map ``src -> tgt``, known by its two legs.  The hash
    of a nested cone walks the whole tree, so it is computed once per
    object."""

    __slots__ = ("src", "tgt")

    def __init__(self, src: ObjExpr, tgt: ObjExpr):
        _set_cone_src(self, src)
        _set_cone_tgt(self, tgt)
        _set_hash(self, None)

    # written out: a memo key, where Value's generic methods are ~6x slower
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.src, self.tgt) == (other.src, other.tgt)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.src, self.tgt))
            _set_hash(self, h)
        return h


# slot setters for the constructors, which bypass the raising __setattr__
_set_shift_expr, _set_shift_m = Shift.expr.__set__, Shift.m.__set__
_set_sum_parts = Sum.parts.__set__
_set_cone_src, _set_cone_tgt = Cone.src.__set__, Cone.tgt.__set__
_set_hash = _HashOnce._hash.__set__

ObjExpr = Gen | Shift | Sum | Cone

ZERO = Sum(())

# Hom(E, E) of an exceptional object: C in degree 0
_ENDO_EXCEPTIONAL = GradedDim.point(0, 1)

# the default of a dict lookup that found no entry
_MISS = object()

# longest slice, in characters, in which ``render_chunks`` writes a run of
# equal summands; a summand or a sort key longer than this is never written
# out whole
RUN_SLICE = 1 << 20


def is_zero(e: ObjExpr) -> bool:
    return isinstance(e, Sum) and not e.parts


def render(e: ObjExpr) -> str:
    """The text of an expression, in the grammar the CLI parses.

    Generators and their shifts, the parts of nearly every sum, are
    formatted directly; other terms join ``render_chunks``.  The sort
    keys of ``_sorted_parts`` come from ``_short_text``, which writes no
    key out longer than ``RUN_SLICE``.
    """
    text = _leaf_text(e)
    if text is not None:
        return text
    return "".join(render_chunks(e))


def _leaf_text(e: ObjExpr) -> str | None:
    """The text of a generator or a shifted generator, else None."""
    if e.__class__ is Gen:
        return e.name
    if e.__class__ is Shift and e.expr.__class__ is Gen:
        return f"{e.expr.name}[{e.m}]"
    return None


def render_chunks(e: ObjExpr, compact: bool = False) -> Iterator[str]:
    """The text of ``render(e)`` as consecutive pieces, for streaming.

    A summand of multiplicity m is rendered once, as s, and its run of
    m - 1 units ``s + " + "`` is written in bounded slices: one slice of as
    many units as fit in ``RUN_SLICE`` characters (at least one unit),
    repeated, then the remainder, then s.  A run that fits in one slice is
    one chunk, and no chunk of a run is longer than ``RUN_SLICE`` plus one
    unit, so the memory a run costs does not grow with m.  A summand whose
    own text is longer than ``RUN_SLICE`` is streamed again for each copy
    instead, so neither does the memory a summand costs grow with its text.

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
            s = _short_text(part)
            if s is None:
                for k in range(mult):
                    if k:
                        yield " + "
                    yield from render_chunks(part)
                continue
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


def _short_text(e: ObjExpr) -> str | None:
    """``render(e)`` if it is at most ``RUN_SLICE`` characters long, else
    None, having read at most one chunk past that length."""
    text = _leaf_text(e)
    if text is not None:
        return text
    out: list[str] = []
    size = 0
    for chunk in render_chunks(e):
        size += len(chunk)
        if size > RUN_SLICE:
            return None
        out.append(chunk)
    return "".join(out)


def shift_expr(e: ObjExpr, m: int) -> ObjExpr:
    """Shift a normalized expression by [m], keeping normal form."""
    if m == 0:
        return e
    if e.__class__ is Shift:
        k = e.m + m
        return e.expr if k == 0 else Shift(e.expr, k)
    if e.__class__ is Sum:
        if len(e.parts) == 1:
            # one part: nothing to merge or sort
            (p, r), = e.parts
            return Sum(((Shift(p, m) if p.__class__ is Gen else shift_expr(p, m), r),) if r else ())
        return Sum(_sorted_parts([(shift_expr(p, m), r) for p, r in e.parts]))
    return Shift(e, m)


def _sorted_parts(pairs) -> tuple:
    """Merge equal parts and order them by their text, as ``render`` writes
    it; a zero multiplicity in ``pairs`` is dropped, a merged one kept."""
    acc: dict[ObjExpr, int] = {}
    for p, r in pairs:
        if r:
            acc[p] = acc.get(p, 0) + r
    if len(acc) < 2:
        return tuple(acc.items())
    return tuple(sorted(acc.items(), key=_sort_key))


def _sort_key(item: tuple[ObjExpr, int]):
    """The text of a part, or a ``_TextKey`` when it is longer than
    ``RUN_SLICE``: a cone over a sum of multiplicity 10^9 has gigabytes of
    text."""
    text = _short_text(item[0])
    return _TextKey(item[0]) if text is None else text


class _TextKey:
    """Orders a term by its text against another ``_TextKey`` or a string,
    streaming both only as far as their first difference."""

    __slots__ = ("e",)

    def __init__(self, e: ObjExpr):
        self.e = e

    def _order(self, other) -> int:
        theirs = (other,) if isinstance(other, str) else render_chunks(other.e)
        return _text_order(render_chunks(self.e), theirs)

    def __lt__(self, other):
        return self._order(other) < 0

    # answers ``text < key`` too, which str leaves to the key
    def __gt__(self, other):
        return self._order(other) > 0


def _text_order(a: Iterable[str], b: Iterable[str]) -> int:
    """-1, 0 or 1 as the text streamed by a is below, equal to or above the
    text streamed by b.  Chunks are compared in aligned windows, so memory
    stays within two chunks however long the common prefix runs."""
    a, b = filter(None, a), filter(None, b)
    x = y = ""
    i = j = 0
    while True:
        if i == len(x):
            x, i = next(a, ""), 0
        if j == len(y):
            y, j = next(b, ""), 0
        if not x or not y:
            return bool(x) - bool(y)
        n = min(len(x) - i, len(y) - j)
        u, v = x[i:i + n], y[j:j + n]
        if u != v:
            return -1 if u < v else 1
        i += n
        j += n


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

    A term already in normal form comes back as the same object, so a cone
    or a sum keeps the hash it has computed; a sum of one generator or
    shifted generator, r >= 2 times, is returned at once.

    Cones over (or under) the zero object simplify; otherwise the cone is
    kept intact since a dimension-level calculus cannot prove a map zero.
    A cone absorbs the outer shift of its source, so
    cone(X[s] -> Y) = cone(X -> Y[-s])[s].
    """
    if e.__class__ is Gen:
        return e
    if e.__class__ is Shift:
        inner = normalize(e.expr)
        if e.m and inner is e.expr and isinstance(inner, (Gen, Cone)):
            return e
        return shift_expr(inner, e.m)
    if e.__class__ is Sum:
        if len(e.parts) == 1:
            (p, r), = e.parts
            if r >= 2 and (p.__class__ is Gen or p.__class__ is Shift and p.m and p.expr.__class__ is Gen):
                return e
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
        return e if parts == e.parts else Sum(parts)
    out = cone_of(normalize(e.src), normalize(e.tgt))
    if out.__class__ is Cone and out.src is e.src and out.tgt is e.tgt:
        return e
    return out


def cone_of(src: ObjExpr, tgt: ObjExpr) -> ObjExpr:
    """``normalize(Cone(src, tgt))`` of normalized legs, which it does not
    walk again: only the cone's own rules apply (zero legs, the source's
    outer shift)."""
    if is_zero(src):
        return tgt
    if is_zero(tgt):
        return shift_expr(src, 1)
    s = src.m if src.__class__ is Shift else 0
    if s:
        return Shift(Cone(shift_expr(src, -s), shift_expr(tgt, -s)), s)
    return Cone(src, tgt)


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
    return cone_of(map_gens(e.src, f), map_gens(e.tgt, f))


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


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
    ``resolved`` pre-fills that memo (the context keeps the dict): a
    builder that already holds what ``gen_resolve`` returns for its roster
    hands it over, and ``gen_resolve`` then runs only for other names;
    ``has_resolved`` asks the memo alone.
    ``base_hom(a, b)`` returns the graded Hom between two generators and
    receives them resolved, as ``resolve`` returned them, never as names;
    it may raise UnsupportedPair or IndeterminateHom, or return an
    ``errors.Failure`` record of such an error, which ``_hom`` stores as
    it is and raises from.  ``twist_gen(name, k)`` names the
    generator twisted by k steps of the context line bundle; `twist_expr`
    applies it leafwise, and a relative dualizing twist is one such twist.
    ``serre_action`` sends a generator name to its image under the ambient
    pair-Serre functor.  ``cone_rule(src, tgt)`` names the cone of a probe
    key of ``_identify_cone`` from a family of triangles the context knows
    by rule, at no cost before a probe, or returns None.

    A cone is its two legs; the mutation steps that build cones record
    their orthogonality facts (``_mutate_step``).
    """

    # always empty, read-only: the benchmark's trace path still reads these
    # two names; ROADMAP item 1's benchmark change removes the reads
    _derived_triangles = ()

    def all_triangles(self) -> Iterator:
        return iter(())

    def __init__(
        self,
        name: str,
        generators: tuple[str, ...],
        base_hom: Callable[[object, object], GradedDim | Failure],
        gen_resolve: Callable[[str], object] | None = None,
        twist_gen: Callable[[str, int], str] | None = None,
        serre_action: Callable[[str], ObjExpr] | None = None,
        cone_rule: Callable[[ObjExpr, ObjExpr], ObjExpr | None] | None = None,
        resolved: dict | None = None,
    ):
        self.name = name
        self.generators = generators
        self.base_hom = base_hom
        self.gen_resolve = gen_resolve
        self.twist_gen = twist_gen
        self.serre_action = serre_action
        self.cone_rule = cone_rule
        self._memo: dict = {}
        self._zero_facts: set = set()
        # whether a zero fact joins two generators, see _hom_compute
        self._gen_facts = False
        # name -> resolved generator, filled by resolve
        self._resolved: dict = {} if resolved is None else resolved
        # generators that passed _require_exceptional; a failure is not stored
        self._checked_exceptional: set[Gen] = set()

    def add_zero_fact(self, F: ObjExpr, G: ObjExpr) -> None:
        F, G = _strip_shift(F), _strip_shift(G)
        self._zero_facts.add((F, G))
        self._gen_facts |= F.__class__ is Gen and G.__class__ is Gen

    def has_resolved(self, name: str) -> bool:
        """Whether ``resolve(name)`` reads its memo: true for the roster a
        builder handed over and for every name resolved since.  A lookup
        only; ``gen_resolve`` is not called."""
        return name in self._resolved

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
    return _hom(ctx, F if F.__class__ is Gen else normalize(F),
                G if G.__class__ is Gen else normalize(G))


def _hom(ctx: Context, F: ObjExpr, G: ObjExpr) -> GradedDim:
    """Memoized graded Hom of normalized terms.

    A failure (UnsupportedPair, IndeterminateHom) is memoized too, as an
    ``errors.Failure`` record of its class and ``args``, so nothing stored
    holds a traceback, frame, cause or context; each hit raises a fresh
    instance built from the record, with the same message.  Storing the
    raised exception itself would pin every frame it passed through (with
    their locals) for the life of the context, and each re-raise would
    lengthen its traceback.  A record that ``base_hom`` returns is stored
    as it is: a nodal context keeps one per Hom class (see
    ``nodal._pair_value``), which every pair of that class shares.
    """
    key = (F, G)
    memo = ctx._memo
    val = memo.get(key, _MISS)
    if val is _MISS:
        try:
            val = memo[key] = _hom_compute(ctx, F, G)
        except (UnsupportedPair, IndeterminateHom) as exc:
            memo[key] = Failure(exc)
            raise
    if val.__class__ is Failure:
        raise val.exception()
    return val


def _hom_compute(ctx: Context, F: ObjExpr, G: ObjExpr) -> GradedDim | Failure:
    # dispatched on the exact classes: no term class is subclassed
    fc, gc = F.__class__, G.__class__
    facts = ctx._zero_facts
    if fc is Gen and gc is Gen:
        # mutation cones record facts with a cone on one side: a pair of
        # generators is probed only once add_zero_fact joined two
        if ctx._gen_facts and (F, G) in facts:
            return GradedDim.zero()
        resolved = ctx._resolved
        a, b = resolved.get(F.name, _MISS), resolved.get(G.name, _MISS)
        if a is _MISS or b is _MISS:
            a, b = ctx.resolve(F.name), ctx.resolve(G.name)
        return ctx.base_hom(a, b)
    # a fact holds for the unshifted pair, as add_zero_fact stores it
    if facts and (F.expr if fc is Shift else F, G.expr if gc is Shift else G) in facts:
        return GradedDim.zero()
    if fc is Sum and not F.parts or gc is Sum and not G.parts:
        return GradedDim.zero()
    if fc is Sum:
        out = GradedDim.zero()
        for p, r in F.parts:
            out = out + _hom(ctx, p, G).scale(r)
        return out
    if gc is Sum:
        out = GradedDim.zero()
        for p, r in G.parts:
            out = out + _hom(ctx, F, p).scale(r)
        return out
    if fc is Shift:
        return _hom(ctx, F.expr, G).shift(-F.m)
    if gc is Shift:
        return _hom(ctx, F, G.expr).shift(G.m)
    if gc is Cone:
        try:
            return _solve_covariant(ctx, F, G)
        except IndeterminateHom:
            if fc is Cone:
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

    A zero row forces every degree, since no map between Y and X is left
    unknown: C is Y when X = 0, and X moved by t when Y = 0.
    """
    if not X.entries:
        return Y
    if not Y.entries:
        return X.shift(t)
    y_at, x_at = dict(Y.entries), dict(X.entries)
    # degrees ascending, each with y or x positive: the entries as stored
    entries: list[tuple[int, int]] = []
    bad: list[int] = []
    for k in sorted(y_at.keys() | {j - t for j in x_at}):
        y, x = y_at.get(k, 0), x_at.get(k + t, 0)
        if (y and x_at.get(k + s)) or (x and y_at.get(k + t - s)):
            bad.append(k)
        else:
            entries.append((k, y + x))
    if bad:
        raise IndeterminateHom(bad, label)
    return GradedDim(tuple(entries))


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
    if e.__class__ is not Sum:
        return e.m if e.__class__ is Shift else 0
    low = None
    for p, _ in e.parts:
        m = p.m if p.__class__ is Shift else 0
        low = m if low is None or m < low else low
    return low or 0


def _identify_cone(ctx: Context, src: ObjExpr, tgt: ObjExpr) -> ObjExpr | None:
    """cone(src -> tgt) as the context's cone rule names it, or None.

    The rule is asked on the key (src[-m], tgt[-m]), where m is the
    smallest outer shift of src (of its parts, for a sum), and its hit is
    shifted back by m, so it matches up to a common shift.
    """
    m = src.m if src.__class__ is Shift else _min_shift(src) if src.__class__ is Sum else 0
    key = (shift_expr(src, -m), shift_expr(tgt, -m)) if m else (src, tgt)
    hit = ctx.cone_rule and ctx.cone_rule(*key)
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
    form, so they are sorted directly rather than normalized, and one entry
    needs no sorting.
    """
    if len(V.entries) == 1:
        (k, r), = V.entries
        e = shift_expr(E, sign * k)
        return e if r == 1 else Sum(((e, r),))
    # distinct degrees: at least two distinct parts
    return Sum(_sorted_parts((shift_expr(E, sign * k), r) for k, r in V.entries))


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
    out = F if F.__class__ is Gen else normalize(F)
    checked = ctx._checked_exceptional
    for E in gens if right else reversed(gens):
        if E.__class__ is not Gen or E not in checked:
            E = _as_gen(E)
            _require_exceptional(ctx, E)
        out = _mutate_one(ctx, E, out, right)
    return out


def _mutate_one(ctx: Context, E: Gen, F: ObjExpr, right: bool) -> ObjExpr:
    """One mutation of a normalized F through E, already checked exceptional.

    A step with a nonzero Hom is memoized under ``(E, F, right)``; a hit is
    exactly what a recomputation would return.  The result depends only on
    memoized Homs, which never change once written, on the cone rule, a
    function of its key, and on ``cone_of``, a function of the legs, so a
    recomputation returns the same cone and records the same fact, which
    the first run recorded already: a hit skips nothing.  Steps that
    return F unchanged (zero Hom) and failing steps are not stored: the
    first are free, and the second raise again through the Hom memo's
    stored record.
    """
    if F.__class__ is Shift:
        # mutation commutes with shifts, and Hom(F[m], E) is Hom(F, E) moved
        return shift_expr(_mutate_one(ctx, E, F.expr, right), F.m)
    if F is E or F.__class__ is Sum and not F.parts:
        return ZERO  # the cone on the identity map, or zero
    V = _hom(ctx, F, E) if right else _hom(ctx, E, F)
    if not V.entries:
        return F
    key = (E, F, right)
    out = ctx._memo.get(key)
    if out is None:
        out = ctx._memo[key] = _mutate_step(ctx, E, F, V, right)
    return out


def _mutate_step(ctx: Context, E: Gen, F: ObjExpr, V: GradedDim, right: bool) -> ObjExpr:
    """``_mutate_one`` of an unshifted F with V = Hom(F, E) (right) or
    Hom(E, F) (left) nonzero.  A step that builds a cone records its
    defining orthogonality as a zero fact, Hom(R_E F, E) = 0 or
    Hom(E, L_E F) = 0, whether or not another step built that cone."""
    if F.__class__ is Sum:
        return sum_exprs((_mutate_one(ctx, E, p, right), r) for p, r in F.parts)
    if F.__class__ is Cone:
        # mutation is exact: act on the legs; the connecting arrow of the
        # new cone is nonzero (otherwise the image would decompose), so it
        # stays one indecomposable term
        src = _mutate_one(ctx, E, F.src, right)
        tgt = _mutate_one(ctx, E, F.tgt, right)
        out = cone_of(src, tgt)
        core = _strip_shift(out)
        if core.__class__ is Cone:
            ctx._zero_facts.add((core, E) if right else (E, core))
        return out
    # R_E F = cone(F -> V^dual tensor E)[-1], L_E F = cone(V tensor E -> F)
    W = _tensor(V, E, 1 if right else -1)
    src, tgt = (F, W) if right else (W, F)
    cone = _identify_cone(ctx, src, tgt)
    if cone is None:
        cone = cone_of(src, tgt)
        # neither leg is zero, so core is a cone; a rule hit names a
        # generator, whose orthogonality the base table already gives
        core = _strip_shift(cone)
        ctx._zero_facts.add((core, E) if right else (E, core))
    return shift_expr(cone, -1) if right else cone


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


def serre_in(ctx: Context, perp, F: ObjExpr) -> ObjExpr:
    """Serre functor of A, the left orthogonal of ``perp``: the objects X
    with Hom(X, P) = 0 for every P in ``perp``.

    Ambient Serre action followed by right mutation through the stored
    orthogonal collection, in its semiorthogonal order; the right mutation
    lands in A.  For F outside A the answer is S_A(beta^* F), where beta^*
    is the left adjoint of the inclusion of A; it equals S_A(F) only for F
    in A.
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
