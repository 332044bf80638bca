"""Finite metric spaces with exact rational distances.

A space is a label list plus its integer view: the n x n distance matrix
as integer rows over one positive denominator, kept in normal form (the
least common denominator of the entries), so a matrix has exactly one
view. The view is the only matrix a space stores; dist and d(i, j) give
its entries as fractions.Fraction on demand. Raw entries (ints,
Fractions, 'p/q' strings) are read straight into a view by
IntegerView.parse, which from_matrix, validate_metric and the file
parsers share, and the constructions here build their views from their
inputs' views. Construction always re-checks the metric axioms on the
view, so every FiniteMetricSpace in circulation is a genuine metric:
zero diagonal, symmetric, positive off the diagonal, triangle
inequality. The O(n^3) triangle check is a screen over pairs, chosen
from the input: machine-word entries on 9 or more points pack each row
into one int, one field per entry with a guard bit, and test a whole
row per big-int step (SWAR); wider entries or fewer points take a min
over middle points per pair. Either screen is exact, and only the pairs
it flags are walked for witnesses, so a report lists the same
violations in the same order. Clearing denominators is exact, so every
check and comparison answers exactly as it would in Fraction
arithmetic, and a validation report still carries Fraction values.
Pseudometrics are rejected on purpose; several constructions in this
package rely on distinct points staying at positive distance.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from numbers import Rational
from operator import add, or_
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
    "common_rows",
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
    return Fraction(*_rational_parts(value))


def _rational_parts(value) -> tuple[int, int]:
    """(p, q) with value == p/q and q > 0, not necessarily in lowest terms.

    An int (not a bool), a Fraction, and an ASCII 'p' or 'p/q' string
    with q != 0, surrounding whitespace stripped, are read directly;
    any other string goes through fractions.Fraction, which also reads
    decimals such as '0.5', unless its numerator or denominator would
    have more digits than int() converts to a string (see
    _within_digit_limit). Other rationals are accepted; bools, floats
    and everything else are refused.
    """
    t = type(value)
    if t is int:
        return value, 1
    if t is Fraction:
        return value.numerator, value.denominator
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
    if isinstance(value, str):
        try:
            f = Fraction(_within_digit_limit(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"cannot parse rational from {value!r}") from exc
    elif isinstance(value, Rational) and not isinstance(value, bool):
        f = Fraction(value)
    else:
        raise MalformedInputError(f"not a rational distance: {value!r}")
    return f.numerator, f.denominator


def _within_digit_limit(text: str) -> str:
    """text, or ValueError if Fraction(text) would build a numerator or
    denominator with more digits than sys.get_int_max_str_digits().

    Judged from the digit counts and the exponent, before Fraction builds
    a power of ten, so '1e10000000' is refused at once. A limit of 0, or
    a Python without one, refuses nothing.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    try:
        shift = int(exp) if exp else 0
    except ValueError:  # no exponent that Fraction reads either
        return text
    digits = len((whole + frac).lstrip("+-").replace("_", ""))
    if limit and max(digits + shift, len(frac) + 1 - shift) > limit:
        raise ValueError(f"more than {limit} digits")
    return text


@dataclass(frozen=True)
class Violation:
    """One concrete axiom failure with its witness indices."""

    axiom: str  # "zero_diagonal" | "symmetry" | "positivity" | "triangle"
    witness: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


def _not_square(n: int, length: int) -> MalformedInputError:
    return MalformedInputError(f"matrix is not square: {n} rows but a row of length {length}")


@dataclass(frozen=True)
class IntegerView:
    """An exact matrix as integer rows over one positive denominator.

    Entry (i, j) is rows[i][j] / den. Construction checks that the rows
    form a non-empty square of nonnegative integers, row by row, and
    puts the view in normal form: rows and den divided by their gcd, so
    den is the least common denominator of the entries and a matrix has
    exactly one view. Its swap classes are computed when first read.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self):
        rows, den = self.rows, self.den
        n = len(rows)
        if n == 0:
            raise MalformedInputError("empty matrix")
        if den < 1:
            raise MalformedInputError(f"denominator must be >= 1, got {den}")
        for row in rows:
            if len(row) != n:
                raise _not_square(n, len(row))
            if min(row) < 0:
                v = next(v for v in row if v < 0)
                raise MalformedInputError(f"negative entry {Fraction(v, den)}")
        g = math.gcd(den, *chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[v // g for v in row] for row in rows]
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "den", den)

    @classmethod
    def parse(cls, matrix) -> "IntegerView":
        """The view of a matrix of raw entries, each read by _rational_parts.

        Every entry is read first, in row-major order, and only then is
        each row checked for length and sign, so a malformed matrix gives
        the same message through every reader. The entries are put over
        the lcm of their raw denominators and reduced to normal form:
        "2/4" reads as "1/2".
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
        dens = {q for row in parts for _, q in row}
        den = math.lcm(*dens)
        factor = {q: den // q for q in dens}
        return cls([[p * factor[q] for p, q in row] for row in parts], den)

    def scaled(self, den: int):
        """The rows over den, a multiple of self.den."""
        f = den // self.den
        return self.rows if f == 1 else [[v * f for v in row] for row in self.rows]

    @cached_property
    def swap_classes(self) -> tuple[int, ...]:
        """Each point's class of swappable points, numbered by first member.

        r and s are swappable when exchanging them is an isometry: rows r
        and s agree outside columns r and s. On a symmetric matrix with a
        zero diagonal, such as a space's view, that is an equivalence, as
        (r t) = (r s)(s t)(r s), and swappable rows have equal sums; so a
        row is tested only against the first member of each class among
        the rows of its sum. Scaling the rows keeps the classes.
        """
        d = self.rows
        cls: list[int] = []
        firsts: dict[int, list[int]] = {}  # row sum -> first members of its classes
        count = 0
        for r, row in enumerate(d):
            bucket = firsts.setdefault(sum(row), [])
            for s in bucket:
                # rows r and s with the entries at r and s blanked out
                row_r, row_s = list(row), list(d[s])
                row_r[r] = row_r[s] = row_s[r] = row_s[s] = 0
                if row_r == row_s:
                    cls.append(cls[s])
                    break
            else:
                cls.append(count)
                count += 1
                bucket.append(r)
        return tuple(cls)

    def __len__(self) -> int:
        return len(self.rows)


def validate_metric(matrix) -> ValidationReport:
    """Check the metric axioms, reporting every violation with a witness.

    Takes an IntegerView or rows of raw entries, which IntegerView.parse
    reads. Malformed input (non-square, negative or non-rational
    entries) raises MalformedInputError instead of producing a report; a
    report is only about the axioms of a well-formed candidate. The
    checks run on the integer view; violations are listed diagonal
    first, then each pair i < j, then each triangle (i, j, k) by pair
    {i, k} and middle j.

    The triangle inequality is first screened per pair {i, k}, and only
    a pair that fails the screen is walked over j to list its
    witnesses. The input picks one of two exact screens (_field_code):
    with at least _PACKED_MIN_N points and every entry fitting a 64-bit
    field with two bits to spare, the packed screen (_packed_screen)
    tests every k of a row at once with big-int adds and ANDs; otherwise
    the per-pair screen (_pair_screen) takes one min over j per pair.
    Both flag exactly the same pairs, so the report does not depend on
    the screen.
    """
    if not isinstance(matrix, IntegerView):
        matrix = IntegerView.parse(matrix)
    a, den = matrix.rows, matrix.den
    n = len(a)
    bad: list[Violation] = []
    for i in range(n):
        if a[i][i] != 0:
            bad.append(
                Violation("zero_diagonal", (i,), Fraction(a[i][i], den), Fraction(0))
            )
    # A symmetric matrix whose only zeros are on its diagonal fails no
    # pair; bad holds the nonzero diagonal entries so far.
    cols = tuple(zip(*a))
    if cols != a or sum(row.count(0) for row in a) > n - len(bad):
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
    # a[i][k] and a screen over all j is exact; only a pair that fails it
    # is walked, to list its witnesses in order.
    code = _field_code(a)
    for i, k in _packed_screen(a, code) if code else _pair_screen(a, cols):
        ai, aik = a[i], a[i][k]
        for j in range(n):
            via = ai[j] + a[j][k]
            if via < aik:
                bad.append(
                    Violation("triangle", (i, j, k), Fraction(aik, den), Fraction(via, den))
                )
    return ValidationReport(ok=not bad, violations=tuple(bad))


# The packed screen's field widths: array typecodes of 1, 2, 4 and 8 bytes.
_FIELDS = tuple((array(code).itemsize * 8, code) for code in "BHIQ")
# Below this many points the per-pair screen is faster.
_PACKED_MIN_N = 9


def _field_code(a) -> str | None:
    """The typecode of the packed screen's field for rows a, or None.

    A field must hold a[i][j] + a[j][k] - a[i][k] + 2**(w - 1), which
    needs the widest entry's bit length plus 2 bits (a sum up to twice
    the widest entry, and a guard). None, for the per-pair screen, when
    a has fewer than _PACKED_MIN_N rows or no machine word is that wide;
    big-int fields would make each step a multi-digit multiplication.
    """
    if len(a) < _PACKED_MIN_N:
        return None
    bits = max(map(max, a)).bit_length() + 2
    return next((code for w, code in _FIELDS if bits <= w), None)


def _pair_screen(a, cols):
    """The pairs (i, k), i < k in row-major order, with some j where
    a[i][j] + a[j][k] < a[i][k]: one min over j per pair. cols are a's
    columns."""
    n = len(a)
    for i in range(n):
        ai = a[i]
        for k in range(i + 1, n):
            if min(map(add, ai, cols[k])) < ai[k]:
                yield i, k


def _packed_screen(a, code: str):
    """The pairs of _pair_screen, one row i at a time (SWAR).

    Row r packs into one int, a[r][k] in the w-bit field k. For each
    middle j, packed[j] + (guards - packed[i]) + a[i][j] * ones holds
    2**(w - 1) + a[i][j] + a[j][k] - a[i][k] in field k, which never
    leaves [0, 2**w), so its top (guard) bit is set exactly when the
    triangle through j holds. ANDing over every j leaves the guard of k
    cleared exactly when some j fails for the pair (i, k).
    """
    n = len(a)
    w = array(code).itemsize * 8
    packed = [_packed(code, row) for row in a]
    ones = _packed(code, [1] * n)
    guards = ones << (w - 1)
    for i in range(n - 1):
        base = guards - packed[i]  # 2**(w - 1) - a[i][k] in field k
        acc = guards
        for v, p in zip(a[i], packed):
            acc &= p + base + v * ones
        # cleared guards of the fields k > i, lowest first
        shift = (i + 1) * w
        miss = (guards ^ acc) >> shift
        while miss:
            bit = miss & -miss
            yield i, (shift + bit.bit_length() - 1) // w
            miss ^= bit


def _packed(code: str, values) -> int:
    """The int with values[k] in field k, fields of array(code)'s item size."""
    fields = array(code, values)
    if sys.byteorder == "big":
        fields.byteswap()
    return int.from_bytes(fields, "little")


def _checked_labels(labels, n: int) -> tuple[str, ...]:
    if labels is None:
        return tuple(f"p{i}" for i in range(n))
    labels = tuple(str(l) for l in labels)
    if len(labels) != n:
        raise MalformedInputError(f"{len(labels)} labels for a {n}-point matrix")
    if len(set(labels)) != n:
        raise MalformedInputError("labels must be unique")
    return labels


def _fresh_labels(raw) -> list[str]:
    """raw with each repeat primed until it differs from every label before it."""
    seen: set[str] = set()
    out = []
    for label in raw:
        while label in seen:
            label += "'"
        seen.add(label)
        out.append(label)
    return out


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space: unique labels plus its integer view.

    The view is the only matrix a space stores; dist and d read its
    entries as Fractions. The constructor checks the labels (None means
    p0, p1, ...) and validates the axioms on the view, so an invalid
    matrix never yields a space object; from_matrix reads a matrix of
    raw entries into a view first. Equality and hashing are on
    (labels, view); views are in normal form, so two spaces are equal
    exactly when their labels and matrices are.
    """

    labels: tuple[str, ...]
    view: IntegerView

    def __post_init__(self):
        if not isinstance(self.view, IntegerView):
            raise TypeError("a space is built from an IntegerView; use from_matrix for raw entries")
        object.__setattr__(self, "labels", _checked_labels(self.labels, len(self.view)))
        report = validate_metric(self.view)
        if not report.ok:
            raise MetricValidationError(report)

    @classmethod
    def from_matrix(cls, matrix, labels: Sequence[str] | None = None) -> "FiniteMetricSpace":
        """The space of a matrix of raw entries, read by IntegerView.parse."""
        return cls(labels, IntegerView.parse(matrix))

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as Fractions, one per distinct value, built on each call."""
        rows, den = self.view.rows, self.view.den
        value = {v: Fraction(v, den) for v in set(chain.from_iterable(rows))}
        return tuple(tuple(map(value.__getitem__, row)) for row in rows)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return Fraction(self.view.rows[i][j], self.view.den)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise MalformedInputError(f"no point labelled {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={self.n}, labels={list(self.labels)!r})"


def common_rows(X: FiniteMetricSpace, Y: FiniteMetricSpace):
    """X's and Y's integer rows over one common denominator, and that denominator."""
    den = math.lcm(X.view.den, Y.view.den)
    return X.view.scaled(den), Y.view.scaled(den), den


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
    return Fraction(max(map(max, space.view.rows)), space.view.den)


def closed_ball(space: FiniteMetricSpace, center: int, r) -> PointSubset:
    """Points at distance <= r from the center point. Requires r >= 0."""
    radius = as_fraction(r)
    if radius < 0:
        raise DomainError(f"ball radius must be >= 0, got {radius}")
    if not 0 <= center < space.n:
        raise DomainError(f"center {center} out of range")
    # v / den <= p / q, cross-multiplied
    q, bound = radius.denominator, radius.numerator * space.view.den
    hits = frozenset(i for i, v in enumerate(space.view.rows[center]) if v * q <= bound)
    return PointSubset(space, hits)  # never empty: the center is inside


def _min_cover_size(universe: int, sets: list[int]) -> int:
    """Exact minimum number of the given bitmask sets whose union is universe.

    Depth-first search on an explicit stack, with no budget yet. A node is
    pruned once used plus a greedy packing of its uncovered points reaches
    the best cover: no set holds two packed points, so each needs its own.
    """
    # Per point: its candidate sets, largest first. A subset of another set
    # never helps a minimum cover, and every superset of s holds s's lowest
    # point, so s is tested only against the sets kept through that point.
    cover_of = {p: [] for p in range(universe.bit_length()) if universe >> p & 1}
    for s in sorted(set(sets), key=lambda m: -m.bit_count()):
        if s and not any(s & k == s for k in cover_of[(s & -s).bit_length() - 1]):
            rest = s
            while rest:
                cover_of[(rest & -rest).bit_length() - 1].append(s)
                rest &= rest - 1
    # apart[p]: the points sharing no set with p. A set that alone covers
    # some point is in every cover: take it.
    apart, left, forced = {}, universe, 0
    for p, cands in cover_of.items():
        apart[p] = ~reduce(or_, cands, 1 << p)
        if len(cands) == 1 and left >> p & 1:
            left, forced = left & ~cands[0], forced + 1
    order = sorted((p for p in cover_of if left >> p & 1), key=lambda p: len(cover_of[p]))
    best, floor = universe.bit_count() + 1, 0
    stack = [(left, forced)]
    while stack and best > floor:
        left, used = stack.pop()
        # Greedy packing; its first point, the least-covered one, is the branch.
        bound, free, point = used, left, -1
        for p in order:
            if free >> p & 1:
                point = p if point < 0 else point
                bound += 1
                free &= apart[p]
        floor = floor or bound  # the root's bound holds for every cover
        if not left:
            best = min(best, used)
        elif bound < best:
            cands = sorted(cover_of[point], key=lambda s: (s & left).bit_count())
            stack.extend((left & ~s, used + 1) for s in cands)
    return best


def covering_number(space: FiniteMetricSpace, eps) -> int:
    """Minimum number of open eps-balls with centers in the space that cover it.

    Open balls: {y : d(x, y) < eps}. Centers are the space's own points,
    so the count is intrinsic to the matrix. Requires eps > 0.

    The count is exact: a depth-first search on an explicit stack, with no
    budget yet, pruned by packings: points no ball holds two of (points
    2*eps or more apart are one), so each needs a ball of its own.
    """
    epsilon = as_fraction(eps)
    if epsilon <= 0:
        raise DomainError(f"covering radius must be > 0, got {epsilon}")
    # v / den < p / q exactly when the integer v is below ceil(p * den / q)
    lim = -(-epsilon.numerator * space.view.den // epsilon.denominator)
    # bit i of a ball's mask is point i, so each row is read backwards
    balls = [
        int("".join(["1" if v < lim else "0" for v in reversed(row)]), 2)
        for row in space.view.rows
    ]
    return _min_cover_size((1 << space.n) - 1, balls)


def simplex(n: int, lam) -> FiniteMetricSpace:
    """n points with every off-diagonal distance equal to lam (lam > 0).

    simplex(1, lam) is the one-point space regardless of lam.
    """
    if n < 1:
        raise DomainError(f"simplex needs n >= 1, got {n}")
    side = as_fraction(lam)
    if side <= 0:
        raise DomainError(f"simplex side must be > 0, got {side}")
    p = side.numerator
    rows = [[0 if i == j else p for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(None, IntegerView(rows, side.denominator))


def isolation_radius(space: FiniteMetricSpace, z: int) -> Fraction:
    """Distance from point z to the rest of the space: min over z' != z of d(z, z')."""
    if not 0 <= z < space.n:
        raise DomainError(f"point {z} out of range")
    if space.n == 1:
        raise DomainError("isolation radius is undefined on a one-point space")
    row = space.view.rows[z]
    return Fraction(min(v for i, v in enumerate(row) if i != z), space.view.den)


def random_metric_space(n: int, seed: int) -> FiniteMetricSpace:
    """Deterministic random n-point metric space for a given seed.

    Draws a symmetric matrix of small positive rationals, then takes its
    shortest-path closure, which enforces the triangle inequality while
    keeping every off-diagonal entry positive.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    # entries p/q with q in {1, 2, 3, 4, 6}, as integers over lcm 12
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.randint(1, 24)
            a[i][j] = a[j][i] = p * (12 // rng.choice((1, 2, 3, 4, 6)))
    # Floyd-Warshall on the integers
    for k in range(n):
        ak = a[k]
        for i in range(n):
            aik = a[i][k]
            a[i] = list(map(min, a[i], [aik + v for v in ak]))
    return FiniteMetricSpace(None, IntegerView(a, 12))
