"""Hausdorff distance between subsets of one finite metric space.

    d_H(A, B) = max( max_{a in A} d(a, B), max_{b in B} d(b, A) )

with d(x, S) = min over s in S of d(x, s). On subsets of a common space
this is a pseudometric; it separates distinct subsets of a finite space
because finite subsets are closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exceptions import DomainError
from .spaces import FiniteMetricSpace, PointSubset

__all__ = ["HausdorffResult", "point_set_distance", "hausdorff_distance"]


@dataclass(frozen=True)
class HausdorffResult:
    """The value plus the two points realizing the outer maxima.

    witness_a is the point of A farthest from B, witness_b the point of
    B farthest from A; ties break to the lowest index.
    """

    value: Fraction
    witness_a: int
    witness_b: int


def _check_subset(X: FiniteMetricSpace, A: PointSubset, name: str) -> None:
    if A.space != X:
        raise DomainError(f"subset {name} belongs to a different space")


def _nearest(X: FiniteMetricSpace, x: int, A: PointSubset) -> int:
    """d(x, A) on X's integer view."""
    row = X.view.rows[x]
    return min(row[a] for a in A.indices)


def point_set_distance(X: FiniteMetricSpace, x: int, A: PointSubset) -> Fraction:
    """d(x, A) = min over a in A of d(x, a)."""
    _check_subset(X, A, "A")
    if not 0 <= x < X.n:
        raise DomainError(f"point {x} out of range")
    return Fraction(_nearest(X, x, A), X.view.den)


def hausdorff_distance(
    X: FiniteMetricSpace, A: PointSubset, B: PointSubset
) -> HausdorffResult:
    _check_subset(X, A, "A")
    _check_subset(X, B, "B")
    best_a, val_a = -1, -1
    for a in sorted(A.indices):
        d = _nearest(X, a, B)
        if d > val_a:
            best_a, val_a = a, d
    best_b, val_b = -1, -1
    for b in sorted(B.indices):
        d = _nearest(X, b, A)
        if d > val_b:
            best_b, val_b = b, d
    return HausdorffResult(
        value=Fraction(max(val_a, val_b), X.view.den), witness_a=best_a, witness_b=best_b
    )
