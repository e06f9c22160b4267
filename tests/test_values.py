"""The hand-written value types against the dataclasses they replaced.

``GradedDim``, ``QuadricSheaf``, ``Shift``, ``Sum``, ``Cone`` and ``Triangle``
were frozen dataclasses; the reference copies of those definitions below
fix what the hand-written classes must keep: equality, hashes and reprs
(tags ignored by equality), pickle and copy round trips that keep the
interned ``Gen`` leaves, frozen attributes and keyword construction.
"""

import copy
import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from nodalcat import formalcat, graded, quadric
from nodalcat.formalcat import Gen, normalize

# ---------------------------------------------------------------------------
# references: the old dataclass definitions (fields only; same class names,
# so the generated reprs read the same)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedDim:
    entries: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class QuadricSheaf:
    kind: str
    twist: int = 0

    def __post_init__(self):
        if self.kind not in ("O", "S", "S'", "S''"):
            raise ValueError(f"unknown sheaf kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class Shift:
    expr: object
    m: int


@dataclass(frozen=True, slots=True)
class Sum:
    parts: tuple


@dataclass(frozen=True, slots=True)
class Cone:
    src: object
    tgt: object
    tag: str = field(default="", compare=False)


@dataclass(frozen=True, slots=True)
class Triangle:
    x: object
    y: object
    z: object
    tag: str = field(default="", compare=False)


def _ref(e):
    """The reference copy of a term; ``Gen`` leaves are shared."""
    if isinstance(e, Gen):
        return e
    if isinstance(e, formalcat.Shift):
        return Shift(_ref(e.expr), e.m)
    if isinstance(e, formalcat.Sum):
        return Sum(tuple((_ref(p), r) for p, r in e.parts))
    if isinstance(e, formalcat.Cone):
        return Cone(_ref(e.src), _ref(e.tgt), e.tag)
    if isinstance(e, formalcat.Triangle):
        return Triangle(_ref(e.x), _ref(e.y), _ref(e.z), e.tag)
    if isinstance(e, graded.GradedDim):
        return GradedDim(e.entries)
    return QuadricSheaf(e.kind, e.twist)


def _leaves(e):
    """The generator leaves of a term, in order."""
    if isinstance(e, Gen):
        return [e]
    if isinstance(e, formalcat.Shift):
        return _leaves(e.expr)
    if isinstance(e, formalcat.Sum):
        return [g for p, _ in e.parts for g in _leaves(p)]
    if isinstance(e, formalcat.Cone):
        return _leaves(e.src) + _leaves(e.tgt)
    if isinstance(e, formalcat.Triangle):
        return _leaves(e.x) + _leaves(e.y) + _leaves(e.z)
    return []


# ---------------------------------------------------------------------------
# strategies: normalized terms with cone tags, triangles, graded dims, sheaves
# ---------------------------------------------------------------------------

_tags = st.sampled_from(["", "t", "another tag"])
_terms = st.recursive(
    st.builds(Gen, st.sampled_from(["j*S'", "j*S''(-1)", "j*O", "j*O(2)", "A"])),
    lambda inner: st.one_of(
        st.builds(formalcat.Shift, inner, st.integers(-3, 3)),
        st.builds(formalcat.Cone, inner, inner, _tags),
        st.builds(formalcat.Sum, st.lists(st.tuples(inner, st.integers(0, 4)), max_size=3).map(tuple)),
    ),
    max_leaves=8,
).map(normalize)
_triangles = st.builds(formalcat.Triangle, _terms, _terms, _terms, _tags)
_graded = st.dictionaries(st.integers(-4, 4), st.integers(0, 3), max_size=4).map(graded.GradedDim.from_dict)
_sheaves = st.builds(quadric.QuadricSheaf, st.sampled_from(["O", "S", "S'", "S''"]), st.integers(-3, 3))
_values = st.one_of(_terms, _triangles, _graded, _sheaves)


def _retagged(e, tag):
    """A copy of e with every cone and triangle tag replaced."""
    if isinstance(e, formalcat.Shift):
        return formalcat.Shift(_retagged(e.expr, tag), e.m)
    if isinstance(e, formalcat.Sum):
        return formalcat.Sum(tuple((_retagged(p, tag), r) for p, r in e.parts))
    if isinstance(e, formalcat.Cone):
        return formalcat.Cone(_retagged(e.src, tag), _retagged(e.tgt, tag), tag)
    if isinstance(e, formalcat.Triangle):
        return formalcat.Triangle(_retagged(e.x, tag), _retagged(e.y, tag), _retagged(e.z, tag), tag)
    return e


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_values, _values)
def test_eq_hash_and_repr_match_the_dataclasses(a, b):
    ra, rb = _ref(a), _ref(b)
    assert (a == b) is (ra == rb)
    assert (a != b) is (ra != rb)
    assert hash(a) == hash(ra)
    assert repr(a) == repr(ra)
    assert a.__eq__(object()) is NotImplemented


@settings(max_examples=200, deadline=None)
@given(st.one_of(_terms, _triangles))
def test_tags_are_ignored_by_eq_and_hash(e):
    other = _retagged(e, "renamed")
    assert other == e and hash(other) == hash(e)
    assert repr(other) == repr(_ref(other))


@settings(max_examples=200, deadline=None)
@given(_values)
def test_pickle_and_copy_round_trip(e):
    for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert type(clone) is type(e)
        assert clone == e and hash(clone) == hash(e) and repr(clone) == repr(e)
        assert all(g is h for g, h in zip(_leaves(clone), _leaves(e), strict=True))


_fields = {
    graded.GradedDim: ("entries",),
    quadric.QuadricSheaf: ("kind", "twist"),
    Gen: ("name",),
    formalcat.Shift: ("expr", "m"),
    formalcat.Sum: ("parts",),
    formalcat.Cone: ("src", "tgt", "tag"),
    formalcat.Triangle: ("x", "y", "z", "tag"),
}


@settings(max_examples=100, deadline=None)
@given(_values)
def test_fields_are_frozen(e):
    before = repr(e)
    for name in _fields[type(e)]:
        with pytest.raises(AttributeError):
            setattr(e, name, None)
        with pytest.raises(AttributeError):
            delattr(e, name)
    with pytest.raises(AttributeError):
        e.extra = 1
    assert repr(e) == before


def test_keyword_construction_and_defaults():
    A, B = Gen("A"), Gen("B")
    assert formalcat.Shift(expr=A, m=2) == formalcat.Shift(A, 2)
    assert formalcat.Sum(parts=((A, 2),)).parts == ((A, 2),)
    cone = formalcat.Cone(src=A, tgt=B, tag="f")
    assert (cone.src, cone.tgt, cone.tag) == (A, B, "f")
    assert formalcat.Cone(A, B).tag == ""
    tri = formalcat.Triangle(x=A, y=B, z=cone, tag="t")
    assert (tri.x, tri.y, tri.z, tri.tag) == (A, B, cone, "t")
    assert formalcat.Triangle(A, B, cone).tag == ""
    assert graded.GradedDim(entries=((0, 1),)) == graded.GradedDim.point(0)
    assert graded.GradedDim() == graded.GradedDim.zero()
    assert quadric.QuadricSheaf(kind="S", twist=-1) == quadric.QuadricSheaf("S", -1)
    assert quadric.QuadricSheaf("O").twist == 0


@pytest.mark.parametrize("kind", ["X", "", "s", "O(1)"])
def test_unknown_sheaf_kind_is_rejected(kind):
    with pytest.raises(ValueError, match="unknown sheaf kind"):
        quadric.QuadricSheaf(kind)
    with pytest.raises(ValueError, match="unknown sheaf kind"):
        QuadricSheaf(kind)
