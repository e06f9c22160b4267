"""Graded dimension bookkeeping.

Every Hom and cohomology computation in this package returns a
:class:`GradedDim`: a finitely supported map from cohomological degree to
multiplicity.  The convention, fixed once for the whole engine, is that
``C[-a]`` denotes one dimension in degree ``a``.  The bracket acts by

    shift(g, m)(k) = g(k + m)

so that ``Hom^j(A[m], B) = Hom^{j-m}(A, B)`` and
``Hom^j(A, B[m]) = Hom^{j+m}(A, B)``.  Multiplicities are dimensions of
vector spaces: strictly positive where stored, no formal differences.

The module also holds :class:`Value` and :class:`Frozen`, the bases of the
engine's value types.
"""

from __future__ import annotations


class Value:
    """Base of the value types: equality, repr and pickling written once,
    from the fields a subclass names in ``__slots__``.

    Two values are equal when they are of the same class and their fields
    are equal.  The repr is the class called with its fields as keywords.
    Pickle and copy call the class on the fields in slot order, so a
    subclass's ``__init__`` takes them in that order.  Defining ``__eq__``
    leaves instances unhashable; :class:`Frozen` adds the hash.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({args})"

    def __reduce__(self):
        return (self.__class__, self._fields())


class Frozen(Value):
    """Base of the immutable value types: hashed by the field tuple;
    setting or deleting an attribute raises AttributeError.

    A subclass lists its fields in ``__slots__`` and writes them in
    ``__init__`` through the slot descriptors' ``__set__`` (bound once at
    module level), which bypasses the raising ``__setattr__``.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")


class GradedDim(Frozen):
    """A finite formal sum of shifted copies of the ground field C.

    ``entries`` is a sorted tuple of (degree, multiplicity) pairs with all
    multiplicities > 0; absent degrees mean zero.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()):
        _set_entries(self, entries)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "GradedDim":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        for _, v in items:
            if v < 0:
                raise ValueError("multiplicities must be nonnegative")
        return GradedDim(items)

    @staticmethod
    def zero() -> "GradedDim":
        return _ZERO

    @staticmethod
    def point(degree: int = 0, mult: int = 1) -> "GradedDim":
        """The graded dimension of C^mult placed in the given degree."""
        if mult == 0:
            return _ZERO
        return GradedDim(((degree, mult),))

    def dim(self, degree: int) -> int:
        for k, v in self.entries:
            if k == degree:
                return v
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __add__(self, other: "GradedDim") -> "GradedDim":
        d = dict(self.entries)
        for k, v in other.entries:
            d[k] = d.get(k, 0) + v
        return GradedDim.from_dict(d)

    def scale(self, r: int) -> "GradedDim":
        if r < 0:
            raise ValueError("multiplicities must stay nonnegative")
        if r == 0:
            return _ZERO
        return GradedDim(tuple((k, r * v) for k, v in self.entries))

    def shift(self, m: int) -> "GradedDim":
        # entry at degree a moves to degree a - m
        if m == 0:
            return self
        return GradedDim(tuple((k - m, v) for k, v in self.entries))

    def dual(self) -> "GradedDim":
        return GradedDim(tuple(sorted((-k, v) for k, v in self.entries)))

    def euler(self) -> int:
        return sum(v if k % 2 == 0 else -v for k, v in self.entries)

    def tensor(self, other: "GradedDim") -> "GradedDim":
        """Graded tensor product (convolution of dimension vectors)."""
        d: dict[int, int] = {}
        for k1, v1 in self.entries:
            for k2, v2 in other.entries:
                d[k1 + k2] = d.get(k1 + k2, 0) + v1 * v2
        return GradedDim.from_dict(d)

    def render(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for k, v in self.entries:
            s = "C" if v == 1 else f"C^{v}"
            if k != 0:
                s += f"[{-k}]"
            parts.append(s)
        return " + ".join(parts)

    def to_json(self) -> dict[str, int]:
        return {str(k): v for k, v in self.entries}

    def __str__(self) -> str:
        return self.render()


_set_entries = GradedDim.entries.__set__

_ZERO = GradedDim(())


def shift(g: GradedDim, m: int) -> GradedDim:
    """Apply the bracket [m] to a graded dimension vector."""
    return g.shift(m)


def dual(g: GradedDim) -> GradedDim:
    """Graded linear dual: negate all degrees."""
    return g.dual()


def euler(g: GradedDim) -> int:
    """Alternating sum of dimensions."""
    return g.euler()
