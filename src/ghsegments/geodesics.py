"""Interpolated metrics and geodesics between finite metric spaces.

For a non-empty relation sigma between X and Y, the interpolated metric
on sigma's pairs is

    |(x, y)(x', y')|_t = (1 - t) d_X(x, x') + t d_Y(y, y')

which is a genuine metric for 0 < t < 1 because X and Y are genuine
metrics (distinct pairs keep positive distance, so no quotient is
needed in the interior). When sigma is a correspondence R, the curve
t -> R_t with R_0 = X and R_1 = Y realizes a geodesic: for an optimal R,
d_GH(R_s, R_t) = |s - t| * d_GH(X, Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondences import Correspondence, Relation, distortion, is_correspondence
from .exceptions import DomainError
from .spaces import FiniteMetricSpace, IntegerView, as_fraction, common_rows

__all__ = [
    "InterpolatedSpace",
    "DEFAULT_GRID",
    "interpolate",
    "geodesic_samples",
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


def _unique_labels(raw: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for lab in raw:
        candidate = lab
        k = 2
        while candidate in seen:
            candidate = f"{lab}_{k}"
            k += 1
        seen.add(candidate)
        out.append(candidate)
    return out


def interpolate(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    sigma: Relation,
    t,
) -> InterpolatedSpace:
    """The space sigma_t for t in [0, 1].

    Interior t builds the interpolated metric on sigma's pairs. The
    endpoints return X and Y themselves, which additionally requires
    sigma to be a correspondence (otherwise the curve would not join X
    to Y).
    """
    tt = as_fraction(t)
    if tt < 0 or tt > 1:
        raise DomainError(f"interpolation parameter must be in [0, 1], got {tt}")
    pairs = sigma.sorted_pairs()
    for a, b in pairs:
        if a >= X.n or b >= Y.n:
            raise DomainError(f"pair ({a}, {b}) out of range for {X.n} x {Y.n}")
    if tt == 0 or tt == 1:
        if not is_correspondence(pairs, X.n, Y.n):
            raise DomainError(
                "endpoint samples need a correspondence, not a bare relation"
            )
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
    labels = _unique_labels([f"({X.labels[a]},{Y.labels[b]})" for a, b in pairs])
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


def geodesic_samples(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    R: Correspondence,
    ts: Sequence | None = None,
    audit: bool = False,
) -> list[InterpolatedSpace]:
    """Sample the curve R_t at the given parameters (default five-point grid).

    With audit=True the optimality of R is re-certified against a fresh
    gh_exact run before sampling; a non-optimal R still yields a curve
    of metric spaces, but not a shortest one, so the audit refuses it.
    """
    if R.nx != X.n or R.ny != Y.n:
        raise DomainError("correspondence shape does not match the spaces")
    if audit:
        from .solver import gh_exact

        reference = gh_exact(X, Y, initial=R)
        if distortion(X, Y, R) != 2 * reference.distance:
            raise DomainError(
                f"correspondence has distortion {distortion(X, Y, R)}, "
                f"but d_GH is {reference.distance}; not a geodesic witness"
            )
    grid = DEFAULT_GRID if ts is None else tuple(as_fraction(t) for t in ts)
    return [interpolate(X, Y, R, t) for t in grid]
