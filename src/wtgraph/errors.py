"""Exception types shared across the package."""


class EmptySequence(ValueError):
    """A degree sequence must contain at least one term."""


class IndexOutOfRange(IndexError):
    """Requested index lies outside the defined range of a quantity."""


class RowOverflow(ValueError):
    """A term is too large for its diagram row."""


class SizeLimit(ValueError):
    """Input exceeds the documented size bound of an exact algorithm."""


class InvalidTransformation(ValueError):
    """Unit transformation not applicable at the given positions."""


class NotGraphic(ValueError):
    """Sequence is not the degree sequence of any simple graph."""


class InvalidOperation(ValueError):
    """Construction operation precondition violated."""


class NotWeaklyThreshold(ValueError):
    """Input lies outside the weakly threshold class."""


class NotExpandable(ValueError):
    """Rational series has no power-series expansion at the origin."""


class OutOfDomain(ValueError):
    """Counting formula queried below its starting order."""


class InvariantViolation(RuntimeError):
    """Two routes to one answer disagree, or a theorem the package rests
    on fails on an input; either way the package has a bug."""
