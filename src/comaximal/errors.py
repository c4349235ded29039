"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Raised for syntax or semantic errors in a ring expression.

    `position` is the 0-based offset into the source text where the
    problem was detected.
    """

    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        super().__init__(f"{message} (at position {position})")


class TableFormatError(ValueError):
    """Raised when a ring table file is malformed (shape, types, range)."""


class RingAxiomError(ValueError):
    """Raised when operation tables violate a commutative-ring axiom.

    `law` names the broken axiom and `witness` holds the offending
    element indices.
    """

    def __init__(self, law: str, witness: tuple[int, ...]):
        self.law = law
        self.witness = witness
        super().__init__(f"ring axiom violated: {law} at {witness}")


class CapacityError(Exception):
    """Raised when a request exceeds a configured size or solver cap.

    For bounded-but-unsolved quantities the error can carry a
    `(lower, upper)` bracket so callers still learn something.
    """

    def __init__(self, message: str, *, lower: int | None = None, upper: int | None = None):
        self.lower = lower
        self.upper = upper
        super().__init__(message)


class InternalConsistencyError(RuntimeError):
    """Raised when an internal self-check fails: two derivations of the same
    ring or graph fact disagree, or a search returns a witness that does not
    verify.  It signals a bug in the package, never bad input.
    """
