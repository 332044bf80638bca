"""Interpolated metrics and geodesics between finite metric spaces.

For a correspondence R between X and Y, the interpolated metric on R's
pairs is

    |(x, y)(x', y')|_t = (1 - t) d_X(x, x') + t d_Y(y, y')

which is a genuine metric for 0 < t < 1 because X and Y are genuine
metrics (distinct pairs keep positive distance, so no quotient is
needed in the interior). The curve t -> R_t with R_0 = X and R_1 = Y
realizes a geodesic: for an optimal R, d_GH(R_s, R_t) = |s - t| *
d_GH(X, Y).

Only the constructions live here: R_t, and the projections endpoint_lifts
witnessing d(X, R_t) and d(R_t, Y); segments.geodesic_samples certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .correspondences import Correspondence, _check_shape
from .exceptions import DomainError
from .spaces import FiniteMetricSpace, IntegerView, _fresh_labels, as_fraction, common_rows

__all__ = [
    "InterpolatedSpace",
    "DEFAULT_GRID",
    "interpolate",
    "endpoint_lifts",
]

DEFAULT_GRID: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)


@dataclass(frozen=True)
class InterpolatedSpace:
    """One point of the curve: the pair set, the parameter, the metric space."""

    pairs: tuple[tuple[int, int], ...]
    t: Fraction
    realized: FiniteMetricSpace


def interpolate(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    sigma: Correspondence,
    t,
) -> InterpolatedSpace:
    """The space sigma_t for t in [0, 1].

    sigma's nx and ny must be X.n and Y.n, else DomainError. Interior t
    builds the interpolated metric on sigma's pairs; the endpoints
    return X and Y themselves.
    """
    tt = as_fraction(t)
    if tt < 0 or tt > 1:
        raise DomainError(f"interpolation parameter must be in [0, 1], got {tt}")
    _check_shape(sigma, X, Y)
    pairs = sigma.sorted_pairs()
    if tt == 0 or tt == 1:
        return InterpolatedSpace(pairs, tt, X if tt == 0 else Y)
    # with t = p/q and both views over den, the entry is
    # ((q - p) dx + p dy) / (q den)
    dx, dy, den = common_rows(X, Y)
    p, q = tt.numerator, tt.denominator
    s = q - p
    matrix = [
        [s * dx[a][a2] + p * dy[b][b2] for (a2, b2) in pairs]
        for (a, b) in pairs
    ]
    labels = _fresh_labels([f"({X.labels[a]},{Y.labels[b]})" for a, b in pairs])
    return InterpolatedSpace(
        pairs, tt, FiniteMetricSpace(labels, IntegerView(matrix, q * den))
    )


def endpoint_lifts(R: Correspondence) -> tuple[Correspondence, Correspondence]:
    """The correspondences X <-> R_t and R_t <-> Y induced by projection.

    Points of R_t are R's pairs in sorted order; pair index i relates to
    its own x on the left and its own y on the right. Their distortions
    are at most t * dis R and (1 - t) * dis R, so for an optimal R they
    witness the geodesic identities exactly.
    """
    pairs = R.sorted_pairs()
    left = Correspondence(
        frozenset((a, i) for i, (a, _) in enumerate(pairs)), R.nx, len(pairs)
    )
    right = Correspondence(
        frozenset((i, b) for i, (_, b) in enumerate(pairs)), len(pairs), R.ny
    )
    return left, right
