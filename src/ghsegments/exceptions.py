"""Error taxonomy shared by the library and the command line tool.

Every failure mode maps to one exception class so the CLI can translate
it into a stable exit code (see the cli module docstring). A bare
ToolkitError is a certificate check that failed, which is a bug.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(ToolkitError):
    """Input that is not even a candidate metric: non-square matrix,
    negative or non-rational entries, unknown labels, unparsable files.

    Distinct from an axiom violation, which gets a ValidationReport.
    """


class MetricValidationError(ToolkitError):
    """A candidate matrix failed the metric axioms.

    Carries the full ValidationReport so callers can show witnesses.
    """

    def __init__(self, report, message: str = "metric axioms violated"):
        super().__init__(message)
        self.report = report


class DomainError(ToolkitError, ValueError):
    """An argument is outside the operation's domain: negative radius,
    t outside [0, 1], a relation that is not a correspondence, an empty
    subset, a label that names no point.
    """


class ResourceLimitError(ToolkitError):
    """The search spent its node budget before proving its incumbent. It
    carries the bounds found, lower <= d_GH <= upper, the node count and
    the witness: the incumbent correspondence, whose distortion is
    2 * upper."""

    def __init__(self, message: str, lower, upper, nodes: int, witness):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes = nodes
        self.witness = witness


class HypothesisError(ToolkitError):
    """The construction's hypothesis does not hold for the given data,
    so no admissible parameters exist: zero distances where positive
    ones are required, a Z outside the segment or at one of its
    endpoints, a graft radius outside the admissible window.
    """
