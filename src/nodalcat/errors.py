"""Exception types shared across the engine.

The engine never guesses: every situation the calculus cannot decide is a
distinct error so callers (and the CLI exit-code mapping) can tell a wrong
input from an honest "outside the established range".
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator


class NodalcatError(Exception):
    """Base class for all engine errors."""

    def chunks(self) -> Iterator[str]:
        """The text of ``str(self)`` as consecutive pieces, for streaming."""
        yield str(self)


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
    an iterable of string chunks.  A thunk runs only when the error is
    printed (``str`` or ``chunks``), so raising, catching and memoizing the
    error never render the objects it names, which can run to megabytes.
    """

    def __init__(self, degrees, message: str | Callable[[], Iterable[str]] = ""):
        self.degrees = tuple(sorted(degrees))
        self.message = message
        super().__init__(self.degrees, message)

    def chunks(self) -> Iterator[str]:
        yield f"indeterminate degrees {list(self.degrees)}"
        if callable(self.message):
            yield " ("
            yield from self.message()
            yield ")"
        elif self.message:
            yield f" ({self.message})"

    def __str__(self) -> str:
        return "".join(self.chunks())


class UnknownGenerator(NodalcatError):
    """An object expression mentions a generator the context does not know."""


class NotExceptional(NodalcatError):
    """Mutation was requested through an object that is not exceptional."""


class RuleNotApplicable(NodalcatError):
    """A functor-chain rewrite rule does not fire on the given object."""
