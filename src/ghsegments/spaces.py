"""Finite metric spaces with exact rational distances.

A space is a label list plus an n x n matrix of fractions.Fraction,
together with its integer view: the same matrix as integer rows over
one least common denominator. Construction always re-checks the metric
axioms, on the integer view, so every FiniteMetricSpace in circulation
is a genuine metric: zero diagonal, symmetric, positive off the
diagonal, triangle inequality. Parsers read raw entries straight into
a view (IntegerView.parse) and build the space from it
(FiniteMetricSpace.from_view), so no entry becomes a Fraction on the way
in. Clearing denominators is exact, so the
check answers exactly as it would in Fraction arithmetic, and its
report still carries Fraction values. Pseudometrics are rejected on
purpose; several constructions in this package rely on distinct points
staying at positive distance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from numbers import Rational
from operator import add
from typing import Iterable, Sequence

from .exceptions import DomainError, MalformedInputError, MetricValidationError

__all__ = [
    "FiniteMetricSpace",
    "IntegerView",
    "PointSubset",
    "ValidationReport",
    "Violation",
    "validate_metric",
    "as_fraction",
    "diameter",
    "closed_ball",
    "covering_number",
    "simplex",
    "isolation_radius",
    "random_metric_space",
]


def as_fraction(value) -> Fraction:
    """Coerce ints, rationals and 'p/q' strings to Fraction; floats are refused.

    A Fraction is returned as is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise MalformedInputError(f"not a rational distance: {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"cannot parse rational from {value!r}") from exc
    raise MalformedInputError(f"not a rational distance: {value!r}")


def _rational_parts(value) -> tuple[int, int]:
    """(p, q) with value == p/q and q > 0, not necessarily in lowest terms.

    An int (not a bool) and an ASCII 'p' or 'p/q' string with q != 0,
    surrounding whitespace stripped, are read with int(); everything else
    goes through as_fraction, so the same values are accepted and the
    same messages raised.
    """
    t = type(value)
    if t is int:
        return value, 1
    if t is str and value.isascii():
        num, slash, den = value.strip().partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isdigit() and (not slash or den.isdigit()):
            try:
                q = int(den) if slash else 1
                if q:
                    return int(num), q
            except ValueError:  # more digits than int() converts
                pass
    f = as_fraction(value)
    return f.numerator, f.denominator


@dataclass(frozen=True)
class Violation:
    """One concrete axiom failure with its witness indices."""

    axiom: str  # "zero_diagonal" | "symmetry" | "positivity" | "triangle"
    witness: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    def describe(self, labels: Sequence[str] | None = None) -> str:
        pts = (
            ", ".join(labels[i] for i in self.witness)
            if labels is not None
            else ", ".join(str(i) for i in self.witness)
        )
        return f"{self.axiom} violated at ({pts}): {self.lhs} vs {self.rhs}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


def _not_square(n: int, length: int) -> MalformedInputError:
    return MalformedInputError(f"matrix is not square: {n} rows but a row of length {length}")


def _coerce_square_matrix(matrix) -> list[list[Fraction]]:
    rows = list(matrix)
    n = len(rows)
    if n == 0:
        raise MalformedInputError("empty matrix")
    out: list[list[Fraction]] = []
    for row in rows:
        entries = [as_fraction(v) for v in row]
        if len(entries) != n:
            raise _not_square(n, len(entries))
        for v in entries:
            if v.numerator < 0:
                raise MalformedInputError(f"negative entry {v}")
        out.append(entries)
    return out


@dataclass(frozen=True)
class IntegerView:
    """An exact matrix as integer rows over one positive denominator.

    Entry (i, j) is rows[i][j] / den, and den is the least common
    denominator of the entries, so a matrix has exactly one view. Views
    are built from checked matrices only, so every entry is >= 0.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int

    @classmethod
    def of(cls, matrix: list[list[Fraction]]) -> "IntegerView":
        dens = {v.denominator for row in matrix for v in row}
        den = math.lcm(*dens)
        factor = {q: den // q for q in dens}
        return cls(
            tuple(tuple(v.numerator * factor[v.denominator] for v in row) for row in matrix),
            den,
        )

    @classmethod
    def parse(cls, matrix) -> "IntegerView":
        """The view of a matrix of raw entries, each read by _rational_parts.

        Every entry is read first, in row-major order; then each row in
        turn is checked for length and for a negative entry, with the
        messages the constructor gives. den is the lcm of the raw
        denominators reduced by its gcd with every numerator, which is the
        least common denominator: "2/4" reads as "1/2".
        """
        seen: dict[str, tuple[int, int]] = {}
        parts = []
        for row in matrix:
            out = []
            for v in row:
                if type(v) is str:
                    pq = seen.get(v)
                    if pq is None:
                        pq = seen[v] = _rational_parts(v)
                else:
                    pq = _rational_parts(v)
                out.append(pq)
            parts.append(out)
        n = len(parts)
        if n == 0:
            raise MalformedInputError("empty matrix")
        dens = {q for row in parts for _, q in row}
        den = math.lcm(*dens)
        factor = {q: den // q for q in dens}
        rows = []
        for row in parts:
            if len(row) != n:
                raise _not_square(n, len(row))
            nums = [p * factor[q] for p, q in row]
            if min(nums) < 0:
                p, q = next(pq for pq in row if pq[0] < 0)
                raise MalformedInputError(f"negative entry {Fraction(p, q)}")
            rows.append(nums)
        g = math.gcd(den, *chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[v // g for v in row] for row in rows]
        return cls(tuple(map(tuple, rows)), den)

    def scaled(self, den: int):
        """The rows over den, a multiple of self.den."""
        f = den // self.den
        return self.rows if f == 1 else [[v * f for v in row] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def validate_metric(matrix) -> ValidationReport:
    """Check the metric axioms, reporting every violation with a witness.

    Takes rows of rationals or an IntegerView. Malformed input
    (non-square, negative or non-rational entries) raises
    MalformedInputError instead of producing a report; a report is only
    about the axioms of a well-formed candidate. The checks run on the
    integer view; violations are listed diagonal first, then each pair
    i < j, then each triangle (i, j, k) by pair {i, k} and middle j.
    """
    if not isinstance(matrix, IntegerView):
        matrix = IntegerView.of(_coerce_square_matrix(matrix))
    a, den = matrix.rows, matrix.den
    n = len(a)
    bad: list[Violation] = []
    for i in range(n):
        if a[i][i] != 0:
            bad.append(
                Violation("zero_diagonal", (i,), Fraction(a[i][i], den), Fraction(0))
            )
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                bad.append(
                    Violation(
                        "symmetry", (i, j), Fraction(a[i][j], den), Fraction(a[j][i], den)
                    )
                )
            elif a[i][j] == 0:
                bad.append(Violation("positivity", (i, j), Fraction(0), Fraction(0)))
    # Triangle over each unordered pair {i, k} through every middle point j.
    # Entries are >= 0, so the middles j = i and j = k never undercut
    # a[i][k] and the screen over all j is exact; only a pair that fails
    # it is walked, to list its witnesses in order.
    cols = list(zip(*a))
    for i in range(n):
        ai = a[i]
        for k in range(i + 1, n):
            ck, aik = cols[k], ai[k]
            if min(map(add, ai, ck)) >= aik:
                continue
            for j in range(n):
                via = ai[j] + ck[j]
                if via < aik:
                    bad.append(
                        Violation(
                            "triangle", (i, j, k), Fraction(aik, den), Fraction(via, den)
                        )
                    )
    return ValidationReport(ok=not bad, violations=tuple(bad))


def _checked_labels(labels, n: int) -> tuple[str, ...]:
    labels = tuple(str(l) for l in labels)
    if len(labels) != n:
        raise MalformedInputError(f"{len(labels)} labels for a {n}-point matrix")
    if len(set(labels)) != n:
        raise MalformedInputError("labels must be unique")
    return labels


def _require_metric(view: IntegerView) -> None:
    report = validate_metric(view)
    if not report.ok:
        raise MetricValidationError(report)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space: unique labels plus an exact distance matrix.

    The constructor normalizes entries to Fraction, builds the integer
    view and validates the axioms on it; from_view starts from a parsed
    view instead. Either way an invalid matrix never yields a space
    object. The view takes no part in equality or hashing.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    view: IntegerView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _coerce_square_matrix(self.dist)
        labels = _checked_labels(self.labels, len(d))
        view = IntegerView.of(d)
        _require_metric(view)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", tuple(tuple(row) for row in d))
        object.__setattr__(self, "view", view)

    @classmethod
    def from_matrix(cls, matrix, labels: Sequence[str] | None = None) -> "FiniteMetricSpace":
        rows = [list(r) for r in matrix]
        if labels is None:
            labels = [f"p{i}" for i in range(len(rows))]
        return cls(tuple(labels), tuple(tuple(r) for r in rows))

    @classmethod
    def from_view(
        cls, view: IntegerView, labels: Sequence[str] | None = None
    ) -> "FiniteMetricSpace":
        """The space of a view built by IntegerView.parse or IntegerView.of.

        Labels are checked as by the constructor and the axioms are always
        validated on the view; dist holds one Fraction per distinct value.
        """
        n = len(view)
        if labels is None:
            labels = [f"p{i}" for i in range(n)]
        labels = _checked_labels(labels, n)
        _require_metric(view)
        den = view.den
        value = {v: Fraction(v, den) for v in set(chain.from_iterable(view.rows))}
        space = object.__new__(cls)
        object.__setattr__(space, "labels", labels)
        object.__setattr__(
            space, "dist", tuple(tuple(map(value.__getitem__, row)) for row in view.rows)
        )
        object.__setattr__(space, "view", view)
        return space

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise MalformedInputError(f"no point labelled {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={self.n}, labels={list(self.labels)!r})"


@dataclass(frozen=True)
class PointSubset:
    """A non-empty subset of a space's points, by index."""

    space: FiniteMetricSpace
    indices: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        idx = frozenset(int(i) for i in self.indices)
        if not idx:
            raise DomainError("subset must be non-empty")
        if not all(0 <= i < self.space.n for i in idx):
            raise DomainError(f"indices out of range for a {self.space.n}-point space")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_labels(cls, space: FiniteMetricSpace, labels: Iterable[str]) -> "PointSubset":
        return cls(space, frozenset(space.index_of(l) for l in labels))

    def labels_sorted(self) -> list[str]:
        return [self.space.labels[i] for i in sorted(self.indices)]

    def __len__(self) -> int:
        return len(self.indices)


def diameter(space: FiniteMetricSpace) -> Fraction:
    """Largest pairwise distance; 0 for the one-point space."""
    n = space.n
    return max(
        (space.dist[i][j] for i in range(n) for j in range(i + 1, n)),
        default=Fraction(0),
    )


def closed_ball(space: FiniteMetricSpace, center: int, r) -> PointSubset:
    """Points at distance <= r from the center point. Requires r >= 0."""
    radius = as_fraction(r)
    if radius < 0:
        raise DomainError(f"ball radius must be >= 0, got {radius}")
    if not 0 <= center < space.n:
        raise DomainError(f"center {center} out of range")
    hits = frozenset(i for i in range(space.n) if space.dist[center][i] <= radius)
    return PointSubset(space, hits)  # never empty: the center is inside


def _min_cover_size(universe: int, sets: list[int]) -> int:
    """Exact minimum number of the given bitmask sets whose union is universe."""
    # Drop dominated sets; a subset of another set never helps a minimum cover.
    keep: list[int] = []
    for s in sorted(set(sets), key=lambda m: -bin(m).count("1")):
        if not any(s & k == s for k in keep):
            keep.append(s)
    # Greedy upper bound, then depth-first search on the least-covered point.
    best = 0
    left = universe
    while left:
        pick = max(keep, key=lambda m: bin(m & left).count("1"))
        left &= ~pick
        best += 1

    cover_of: dict[int, list[int]] = {}
    p = 0
    u = universe
    while u:
        if u & 1:
            cover_of[p] = [s for s in keep if s >> p & 1]
        u >>= 1
        p += 1

    def search(left: int, used: int, best: int) -> int:
        if not left:
            return used
        if used + 1 >= best:
            return best
        # branch on the uncovered point with the fewest candidate sets
        point = min(
            (p for p in cover_of if left >> p & 1),
            key=lambda p: len(cover_of[p]),
        )
        for s in cover_of[point]:
            best = search(left & ~s, used + 1, best)
        return best

    return search(universe, 0, best)


def covering_number(space: FiniteMetricSpace, eps) -> int:
    """Minimum number of open eps-balls with centers in the space that cover it.

    Open balls: {y : d(x, y) < eps}. Centers are the space's own points,
    so the count is intrinsic to the matrix. Requires eps > 0.
    """
    epsilon = as_fraction(eps)
    if epsilon <= 0:
        raise DomainError(f"covering radius must be > 0, got {epsilon}")
    n = space.n
    balls = []
    for c in range(n):
        mask = 0
        for i in range(n):
            if space.dist[c][i] < epsilon:
                mask |= 1 << i
        balls.append(mask)
    return _min_cover_size((1 << n) - 1, balls)


def simplex(n: int, lam) -> FiniteMetricSpace:
    """n points with every off-diagonal distance equal to lam (lam > 0).

    simplex(1, lam) is the one-point space regardless of lam.
    """
    if n < 1:
        raise DomainError(f"simplex needs n >= 1, got {n}")
    side = as_fraction(lam)
    if side <= 0:
        raise DomainError(f"simplex side must be > 0, got {side}")
    zero = Fraction(0)
    matrix = [[zero if i == j else side for j in range(n)] for i in range(n)]
    return FiniteMetricSpace.from_matrix(matrix)


def isolation_radius(space: FiniteMetricSpace, z: int) -> Fraction:
    """Distance from point z to the rest of the space: min over z' != z of d(z, z')."""
    if not 0 <= z < space.n:
        raise DomainError(f"point {z} out of range")
    if space.n == 1:
        raise DomainError("isolation radius is undefined on a one-point space")
    return min(space.dist[z][i] for i in range(space.n) if i != z)


def random_metric_space(n: int, seed: int) -> FiniteMetricSpace:
    """Deterministic random n-point metric space for a given seed.

    Draws a symmetric matrix of small positive rationals, then takes its
    shortest-path closure, which enforces the triangle inequality while
    keeping every off-diagonal entry positive.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    zero = Fraction(0)
    d = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, 24), rng.choice((1, 2, 3, 4, 6)))
            d[i][j] = d[j][i] = v
    # Floyd-Warshall on integers over the least common denominator
    view = IntegerView.of(d)
    a = list(view.rows)
    for k in range(n):
        ak = a[k]
        for i in range(n):
            aik = a[i][k]
            a[i] = list(map(min, a[i], [aik + v for v in ak]))
    return FiniteMetricSpace.from_matrix(
        [[Fraction(v, view.den) for v in row] for row in a]
    )
