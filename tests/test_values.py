"""The value types against the dataclasses they replaced.

``GradedDim``, ``QuadricSheaf``, ``Shift``, ``Sum`` and ``Cone`` were
frozen dataclasses; the reference copies of those definitions below
fix what the ``graded.Frozen`` subclasses must keep: equality, hashes and
reprs, pickle and copy round trips that keep the
interned ``Gen`` leaves, frozen attributes and keyword construction.  The
records ``ChowClass``, ``MukaiVector``, ``PicClass`` and ``Placed`` subclass
``graded.Value`` and are checked against ``@dataclass(eq=True)`` copies:
equality and repr match, copies round-trip, and the records stay mutable
and unhashable.
"""

import copy
import pickle
from dataclasses import dataclass, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nodalcat import cubic, formalcat, graded, mukai, quadric
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


@dataclass(eq=True)
class ChowClass:
    n: int
    coeffs: tuple


@dataclass(eq=True)
class MukaiVector:
    r: int
    c: int
    s: int


@dataclass(eq=True)
class PicClass:
    a: int
    b: int


@dataclass(eq=True)
class Placed:
    where: str
    sheaf: object
    shift: int = 0


_RECORD_REFS = {mukai.ChowClass: ChowClass, mukai.MukaiVector: MukaiVector,
                cubic.PicClass: PicClass, cubic.Placed: Placed}


def _ref_record(e):
    """The reference copy of a record, field by field."""
    ref = _RECORD_REFS[type(e)]
    return ref(**{f.name: getattr(e, f.name) for f in fields(ref)})


def _ref(e):
    """The reference copy of a term; ``Gen`` leaves are shared."""
    if isinstance(e, Gen):
        return e
    if isinstance(e, formalcat.Shift):
        return Shift(_ref(e.expr), e.m)
    if isinstance(e, formalcat.Sum):
        return Sum(tuple((_ref(p), r) for p, r in e.parts))
    if isinstance(e, formalcat.Cone):
        return Cone(_ref(e.src), _ref(e.tgt))
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
    return []


# ---------------------------------------------------------------------------
# strategies: normalized terms, graded dims, sheaves
# ---------------------------------------------------------------------------

_terms = st.recursive(
    st.builds(Gen, st.sampled_from(["j*S'", "j*S''(-1)", "j*O", "j*O(2)", "A"])),
    lambda inner: st.one_of(
        st.builds(formalcat.Shift, inner, st.integers(-3, 3)),
        st.builds(formalcat.Cone, inner, inner),
        st.builds(formalcat.Sum, st.lists(st.tuples(inner, st.integers(0, 4)), max_size=3).map(tuple)),
    ),
    max_leaves=8,
).map(normalize)
_graded = st.dictionaries(st.integers(-4, 4), st.integers(0, 3), max_size=4).map(graded.GradedDim.from_dict)
_sheaves = st.builds(quadric.QuadricSheaf, st.sampled_from(["O", "S", "S'", "S''"]), st.integers(-3, 3))
_values = st.one_of(_terms, _graded, _sheaves)

_small = st.integers(-1, 1)
_records = st.one_of(
    st.builds(mukai.ChowClass.make, st.integers(1, 2),
              st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]), max_size=3)),
    st.builds(mukai.MukaiVector, _small, _small, _small),
    st.builds(cubic.PicClass, _small, _small),
    st.builds(cubic.Placed, st.sampled_from(["j*", "s*t*", "t*"]),
              st.builds(quadric.QuadricSheaf, st.sampled_from(["O", "S"]), _small), _small),
)


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
    formalcat.Cone: ("src", "tgt"),
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
    cone = formalcat.Cone(src=A, tgt=B)
    assert (cone.src, cone.tgt) == (A, B)
    assert graded.GradedDim(entries=((0, 1),)) == graded.GradedDim.point(0)
    assert graded.GradedDim() == graded.GradedDim.zero()
    assert quadric.QuadricSheaf(kind="S", twist=-1) == quadric.QuadricSheaf("S", -1)
    assert quadric.QuadricSheaf("O").twist == 0


@settings(max_examples=300, deadline=None)
@given(_records, _records)
def test_records_match_the_dataclasses_and_stay_mutable_and_unhashable(a, b):
    ra, rb = _ref_record(a), _ref_record(b)
    assert (a == b) is (ra == rb)
    assert (a != b) is (ra != rb)
    assert repr(a) == repr(ra)
    assert a.__eq__(object()) is NotImplemented
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a and repr(clone) == repr(a)
    for r in (a, ra):
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)
    for f in fields(ra):
        setattr(a, f.name, None)
        setattr(ra, f.name, None)
    assert repr(a) == repr(ra)


@pytest.mark.parametrize("kind", ["X", "", "s", "O(1)"])
def test_unknown_sheaf_kind_is_rejected(kind):
    with pytest.raises(ValueError, match="unknown sheaf kind"):
        quadric.QuadricSheaf(kind)
    with pytest.raises(ValueError, match="unknown sheaf kind"):
        QuadricSheaf(kind)
