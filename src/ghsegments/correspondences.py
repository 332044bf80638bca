"""Relations and correspondences between two finite index sets.

A relation is a non-empty set of index pairs (i, j) with i in X and j
in Y. A correspondence is a relation whose two projections are onto:
every point of X and every point of Y appears in some pair. The
distortion of a relation sigma measures how far sigma is from an
isometry:

    dis sigma = max |d_X(x, x') - d_Y(y, y')|

over all (x, y), (x', y') in sigma. Half the minimal distortion over
correspondences is the Gromov-Hausdorff distance (see solver).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .exceptions import DomainError
from .spaces import FiniteMetricSpace, common_rows

__all__ = [
    "Relation",
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

def _norm_pairs(pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    out = frozenset((int(a), int(b)) for a, b in pairs)
    if not out:
        raise DomainError("relation must be non-empty")
    if not all(a >= 0 and b >= 0 for a, b in out):
        raise DomainError("negative index in relation")
    return out


@dataclass(frozen=True)
class Relation:
    """Non-empty set of (x, y) index pairs."""

    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", _norm_pairs(self.pairs))

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "Relation":
        return cls(frozenset(pairs))

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


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
class Correspondence(Relation):
    """A relation with onto projections; nx and ny pin the two index ranges."""

    nx: int
    ny: int

    def __post_init__(self):
        super().__post_init__()
        if not is_correspondence(self.pairs, self.nx, self.ny):
            raise DomainError(
                f"projections are not onto ({self.nx} x {self.ny} expected)"
            )

    @classmethod
    def of(cls, nx: int, ny: int, *pairs: tuple[int, int]) -> "Correspondence":
        return cls(frozenset(pairs), nx, ny)


def preimage(sigma: Relation, y: int) -> frozenset[int]:
    """All x with (x, y) in sigma."""
    return frozenset(a for a, b in sigma.pairs if b == y)


def image(sigma: Relation, x: int) -> frozenset[int]:
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


def distortion(X: FiniteMetricSpace, Y: FiniteMetricSpace, sigma: Relation) -> Fraction:
    """Exact distortion of sigma as a relation between X and Y.

    Indices in sigma must address points of X on the left and Y on the
    right; the maximum runs over all (unordered) pairs of sigma's pairs,
    a pair with itself contributing 0.
    """
    pairs = sigma.sorted_pairs()
    for a, b in pairs:
        if a >= X.n or b >= Y.n:
            raise DomainError(
                f"pair ({a}, {b}) out of range for {X.n} x {Y.n} spaces"
            )
    dx, dy, scale = common_rows(X, Y)
    return Fraction(integer_distortion(dx, dy, pairs), scale)


def integer_distortion(dx, dy, pairs) -> int:
    """Distortion of a pair list over rows of one common denominator, as
    an integer over it; shared by distortion and the solver's incumbent."""
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
