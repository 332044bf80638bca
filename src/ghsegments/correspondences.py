"""Correspondences between two finite index sets.

A correspondence between {0..nx-1} and {0..ny-1} is a non-empty set of
index pairs (i, j) whose two projections are onto: every point of each
side appears in some pair. The distortion of a correspondence sigma
between spaces X and Y measures how far sigma is from an isometry:

    dis sigma = max |d_X(x, x') - d_Y(y, y')|

over all (x, y), (x', y') in sigma. Half the minimal distortion over
correspondences is the Gromov-Hausdorff distance (see solver), and half
the distortion of any one bounds it from above. Both facts need sigma
to be onto exactly X's and Y's points, so every function of the package
that takes sigma together with two spaces first checks, in
_check_shape, that sigma's nx and ny are the spaces' sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .exceptions import DomainError
from .spaces import FiniteMetricSpace, common_rows

__all__ = [
    "Correspondence",
    "is_correspondence",
    "distortion",
    "integer_distortion",
    "minimize_correspondence",
    "preimage",
    "image",
    "full_product",
    "identity_correspondence",
    "transpose",
]


def is_correspondence(pairs: Iterable[tuple[int, int]], nx: int, ny: int) -> bool:
    """True when both projections of the pair set are onto {0..nx-1} and {0..ny-1}."""
    ps = list(pairs)
    if not ps:
        return False
    xs = {a for a, _ in ps}
    ys = {b for _, b in ps}
    return (
        xs == set(range(nx))
        and ys == set(range(ny))
    )


@dataclass(frozen=True)
class Correspondence:
    """A non-empty set of (x, y) index pairs with onto projections;
    nx and ny pin the two index ranges."""

    pairs: frozenset
    nx: int
    ny: int

    def __post_init__(self):
        pairs = frozenset((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not is_correspondence(pairs, self.nx, self.ny):
            raise DomainError(
                f"projections are not onto ({self.nx} x {self.ny} expected)"
            )

    @classmethod
    def of(cls, nx: int, ny: int, *pairs: tuple[int, int]) -> "Correspondence":
        return cls(frozenset(pairs), nx, ny)

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def _check_shape(sigma: Correspondence, X: FiniteMetricSpace, Y: FiniteMetricSpace) -> None:
    """Refuse sigma unless it corresponds exactly X's and Y's points.

    sigma is onto its own nx and ny by construction, so comparing those
    with the spaces' sizes is the whole check.
    """
    if sigma.nx != X.n or sigma.ny != Y.n:
        raise DomainError(
            "correspondence shape does not match the spaces: "
            f"{sigma.nx} x {sigma.ny} against {X.n} x {Y.n}"
        )


def preimage(sigma: Correspondence, y: int) -> frozenset[int]:
    """All x with (x, y) in sigma."""
    return frozenset(a for a, b in sigma.pairs if b == y)


def image(sigma: Correspondence, x: int) -> frozenset[int]:
    """All y with (x, y) in sigma."""
    return frozenset(b for a, b in sigma.pairs if a == x)


def full_product(nx: int, ny: int) -> Correspondence:
    if nx < 1 or ny < 1:
        raise DomainError("spaces must be non-empty")
    return Correspondence(
        frozenset((i, j) for i in range(nx) for j in range(ny)), nx, ny
    )


def identity_correspondence(n: int) -> Correspondence:
    return Correspondence(frozenset((i, i) for i in range(n)), n, n)


def transpose(sigma: Correspondence) -> Correspondence:
    return Correspondence(
        frozenset((b, a) for a, b in sigma.pairs), sigma.ny, sigma.nx
    )


def minimize_correspondence(sigma: Correspondence) -> Correspondence:
    """Drop redundant pairs until every pair is the last cover of a point.

    Removing a pair never increases distortion (the maximum runs over
    fewer pairs), so a minimized optimal correspondence stays optimal.
    Pairs are tried in ascending order, which makes the result
    deterministic; the output has at most nx + ny pairs.
    """
    pairs = set(sigma.pairs)
    deg_x = {x: 0 for x in range(sigma.nx)}
    deg_y = {y: 0 for y in range(sigma.ny)}
    for x, y in pairs:
        deg_x[x] += 1
        deg_y[y] += 1
    # a blocked removal stays blocked after other removals, so one
    # forward pass reaches the canonical minimal sub-correspondence
    for x, y in sorted(pairs):
        if deg_x[x] > 1 and deg_y[y] > 1:
            pairs.remove((x, y))
            deg_x[x] -= 1
            deg_y[y] -= 1
    return Correspondence(frozenset(pairs), sigma.nx, sigma.ny)


def distortion(X: FiniteMetricSpace, Y: FiniteMetricSpace, sigma: Correspondence) -> Fraction:
    """Exact distortion of sigma as a correspondence between X and Y.

    sigma's nx and ny must be X.n and Y.n, else DomainError; the maximum
    runs over all (unordered) pairs of sigma's pairs, a pair with itself
    contributing 0.
    """
    _check_shape(sigma, X, Y)
    dx, dy, scale = common_rows(X, Y)
    return Fraction(integer_distortion(dx, dy, tuple(sigma.pairs)), scale)


def integer_distortion(dx, dy, pairs) -> int:
    """Distortion of a sequence of distinct pairs over rows of one common
    denominator, as an integer over it; shared by distortion and the
    solver's candidate incumbents.

    len(dx) * len(dy) distinct pairs are the full product, whose
    distortion is the larger diameter, read off without the quadratic
    pass: every term is at most it, and the pairs that share a point of
    one side reach the other side's diameter.
    """
    if len(pairs) == len(dx) * len(dy):
        return max(max(map(max, dx)), max(map(max, dy)))
    worst = 0
    for i, (a, b) in enumerate(pairs):
        da = dx[a]
        db = dy[b]
        for a2, b2 in pairs[i + 1 :]:
            gap = da[a2] - db[b2]
            if gap < 0:
                gap = -gap
            if gap > worst:
                worst = gap
    return worst
