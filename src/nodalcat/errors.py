"""Exception types shared across the engine.

The engine never guesses: every situation the calculus cannot decide is a
distinct error so callers (and the CLI exit-code mapping) can tell a wrong
input from an honest "outside the established range".
"""

from __future__ import annotations

from collections.abc import Callable, Iterable


class NodalcatError(Exception):
    """Base class for all engine errors."""


class ParityMismatch(NodalcatError):
    """A spinor sheaf was used on a quadric of the wrong parity."""


class UnsupportedPair(NodalcatError):
    """A Hom pair outside the range the sheaf recursions can reach.

    Raised instead of extrapolating; the established values never license a
    guess for these pairs.
    """


class IndeterminateHom(NodalcatError):
    """A long-exact-sequence degree whose bounding maps are not forced.

    Carries the set of degrees that could not be decided.  An indeterminate
    outcome is always surfaced as this exception, never approximated.

    ``message`` is a string or a thunk: a callable returning the message as
    an iterable of string pieces.  A thunk runs only when the error is
    printed (``str``), so raising, catching and memoizing the error render
    nothing.  The engine's thunks name the Hom arguments in the compact
    notation (``X^m`` for m copies of X), so a message is bounded by the
    size of those objects' trees, not by their multiplicities.
    """

    def __init__(self, degrees, message: str | Callable[[], Iterable[str]] = ""):
        self.degrees = tuple(sorted(degrees))
        self.message = message
        super().__init__(self.degrees, message)

    def __str__(self) -> str:
        text = f"indeterminate degrees {list(self.degrees)}"
        if callable(self.message):
            return f"{text} ({''.join(self.message())})"
        return f"{text} ({self.message})" if self.message else text


class UnknownGenerator(NodalcatError):
    """An object expression mentions a generator the context does not know."""


class NotExceptional(NodalcatError):
    """Mutation was requested through an object that is not exceptional."""


class RuleNotApplicable(NodalcatError):
    """A functor-chain rewrite rule does not fire on the given object."""


class Failure:
    """A raised error kept as data: its class and ``args``.

    A memo stores this in place of the exception, so it pins no traceback,
    frame, cause or context, and each hit raises ``exception()``, a fresh
    instance with the same message, at the depth of the caller's raise.
    """

    __slots__ = ("cls", "args")

    def __init__(self, exc: Exception):
        self.cls, self.args = exc.__class__, exc.args

    def exception(self) -> Exception:
        return self.cls(*self.args)
