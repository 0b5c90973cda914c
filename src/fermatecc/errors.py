"""Exception hierarchy shared across the package."""


class GraphError(Exception):
    """Base class for all fermatecc errors."""


class ParseError(GraphError):
    """Malformed input text (edge list or graph6)."""


class ValidationError(GraphError):
    """Structurally invalid graph data: self-loops, duplicates, bad ids."""


class ConnectivityError(GraphError):
    """Graph is not connected where connectivity is required."""


class PreconditionError(GraphError):
    """A check was called on data violating its stated precondition."""


class InternalError(GraphError):
    """An internal invariant failed: a bug in fermatecc, not bad input."""
