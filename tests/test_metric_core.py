from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from ghsegments import (
    Correspondence,
    DomainError,
    FiniteMetricSpace,
    GraftParams,
    MalformedInputError,
    MetricValidationError,
    PointSubset,
    StarParams,
    closed_ball,
    covering_number,
    diameter,
    identity_correspondence,
    interpolate,
    isolation_radius,
    random_metric_space,
    simplex,
    simplex_graft,
    space_from_csv,
    space_from_jsonable,
    star_extension,
    validate_metric,
)
from ghsegments.spaces import IntegerView, _min_cover_size, as_fraction
from tests.conftest import oracle_cover, oracle_validate, rows


def line_space(*coords: int) -> FiniteMetricSpace:
    pts = [Fraction(c) for c in coords]
    return FiniteMetricSpace.from_matrix(
        [[abs(a - b) for b in pts] for a in pts]
    )


class TestValidateMetric:
    def test_two_point_ok(self) -> None:
        rep = validate_metric([[0, 1], [1, 0]])
        assert rep.ok and rep.violations == ()

    def test_triangle_violation_with_witness(self) -> None:
        # 3 > 1 + 1 through the middle point
        rep = validate_metric([[0, 3, 1], [3, 0, 1], [1, 1, 0]])
        assert not rep.ok
        kinds = {v.axiom for v in rep.violations}
        assert kinds == {"triangle"}
        witnesses = {v.witness for v in rep.violations}
        assert (0, 2, 1) in witnesses
        v = next(v for v in rep.violations if v.witness == (0, 2, 1))
        assert v.lhs == Fraction(3) and v.rhs == Fraction(2)

    def test_symmetry_violation(self) -> None:
        rep = validate_metric([[0, 1], [2, 0]])
        assert not rep.ok
        assert rep.violations[0].axiom == "symmetry"
        assert rep.violations[0].witness == (0, 1)

    def test_nonzero_diagonal(self) -> None:
        rep = validate_metric([["1", "1"], ["1", "0"]])
        assert any(v.axiom == "zero_diagonal" for v in rep.violations)

    def test_zero_off_diagonal(self) -> None:
        rep = validate_metric([[0, 0], [0, 0]])
        assert any(v.axiom == "positivity" for v in rep.violations)

    def test_negative_entry_is_malformed(self) -> None:
        # distinct from an axiom violation by contract
        with pytest.raises(MalformedInputError):
            validate_metric([[0, -1], [-1, 0]])

    def test_ragged_matrix_is_malformed(self) -> None:
        with pytest.raises(MalformedInputError):
            validate_metric([[0, 1], [1]])
        for rows, den in (([[0, 1], [1]], 1), ([[0, -1], [-1, 0]], 2), ([[0, 1], [1, 0]], 0), ([], 1)):
            with pytest.raises(MalformedInputError):
                IntegerView(rows, den)

    def test_float_entry_is_malformed(self) -> None:
        with pytest.raises(MalformedInputError):
            validate_metric([[0, 0.5], [0.5, 0]])

    def test_string_fractions_accepted(self) -> None:
        rep = validate_metric([["0", "1/3"], ["1/3", "0"]])
        assert rep.ok
        assert as_fraction(5) == 5 and as_fraction(" 2/4 ") == Fraction(1, 2)
        with pytest.raises(MalformedInputError, match="not a rational distance"):
            as_fraction(True)

    def test_exponent_past_the_digit_limit_is_refused(self) -> None:
        # refused before Fraction builds the power of ten; under the limit,
        # or with the limit off, exponents and decimals read as before
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int digit limit")
        assert as_fraction("1e3") == 1000 and as_fraction("0.5") == Fraction(1, 2)
        assert as_fraction("1e-4299") == Fraction(1, 10**4299)
        for text in ("1e5000", "1e-5000", "1e4300", "1e10000000", " 2.5E-9999 "):
            with pytest.raises(MalformedInputError, match="cannot parse rational from"):
                as_fraction(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert as_fraction("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)


def den6_space() -> FiniteMetricSpace:
    """Entries 1/2, 1/3 and 5/6 (a tight triangle): view denominator 6."""
    return FiniteMetricSpace.from_matrix(
        [["0", "1/2", "5/6"], ["1/2", "0", "1/3"], ["5/6", "1/3", "0"]]
    )


def boundary_radii(X: FiniteMetricSpace) -> list[Fraction]:
    """Every positive entry of X, and each over 7 and 11, denominators
    coprime to the view's."""
    entries = sorted({v for row in rows(X) for v in row if v})
    return entries + [v * Fraction(k, q) for v in entries for k, q in ((5, 7), (13, 11))]


def mixed_metric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A sum of random metrics scaled by 1/7, 1/9 and 1/1000003: a metric."""
    parts = [
        (rows(random_metric_space(n, seed=rng.randrange(10**9))), Fraction(1, q))
        for q in (7, 9, 1000003)
    ]
    return [[sum(d[i][j] * w for d, w in parts) for j in range(n)] for i in range(n)]


def plant(rng: random.Random, d: list[list[Fraction]], axiom: str) -> None:
    """Break one axiom of d in place (n >= 3 for a triangle)."""
    if axiom == "triangle":
        i, j, k = rng.sample(range(len(d)), 3)
        d[i][k] = d[k][i] = d[i][j] + d[j][k] + Fraction(1, 1000003)
        return
    i, j = rng.sample(range(len(d)), 2)
    if axiom == "symmetry":
        d[i][j] += Fraction(1, 9)
    elif axiom == "zero_diagonal":
        d[i][i] = Fraction(rng.randint(1, 5), 7)
    else:  # positivity
        d[i][j] = d[j][i] = Fraction(0)


# Largest entries at the top of each packed-screen field (8, 16, 32 and
# 64 bits, two of them for the guard and the sum), and on both sides of
# the widest field, where the per-pair screen takes over.
EDGE_ENTRIES = (
    2**6 - 1, 2**7 - 1, 2**14 - 1, 2**15 - 1, 2**30 - 1, 2**31 - 1,
    2**60 - 1, 2**60, 2**61, 2**62 - 1, 2**62, 10**400,
)


def band_metric(rng: random.Random, n: int, top: int) -> list[list[Fraction]]:
    """Integer entries in [top/2, top] off the diagonal, top - 1 and top
    among them: a metric whose largest entry is top in its view."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(-(-top // 2), top))
    d[0][1] = d[1][0] = Fraction(top - 1)
    d[0][n - 1] = d[n - 1][0] = Fraction(top)
    return d


def filled_fields(rng: random.Random, n: int, top: int) -> list[list[Fraction]]:
    """Arbitrary entries from {0, 1, 2, top - 1, top}: many a[i][j] and
    a[j][k] both equal top, so a[i][j] + a[j][k] = 2 * top."""
    vals = [0, 1, 2, top - 1, top, top, top]
    return [[Fraction(rng.choice(vals)) for _ in range(n)] for _ in range(n)]


def short_beside_a_full_field(rng: random.Random, n: int, top: int) -> list[list[Fraction]]:
    """A metric with entries in [top/2, 5 top/8], then the triangle over
    {i, k + 1} broken by exactly 1 through a middle j whose sum
    a[i][j] + a[j][k] - a[i][k] exceeds top; j is the only middle that
    breaks it. top is the largest entry."""
    low = -(-top // 2)
    d = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            d[p][q] = d[q][p] = Fraction(rng.randint(low, low + top // 8))
    i, k = sorted(rng.sample(range(n - 1), 2))
    j = rng.choice([m for m in range(n) if m not in (i, k, k + 1)])
    h = top // 2
    for (p, q), v in (((i, j), h), ((j, k + 1), 1), ((i, k + 1), h + 2), ((i, k), 1), ((j, k), top)):
        d[p][q] = d[q][p] = Fraction(v)
    return d


class TestValidationAgainstOracle:
    AXIOMS = ("triangle", "symmetry", "zero_diagonal", "positivity")

    def check(self, d: list[list[Fraction]]) -> tuple:
        rep = validate_metric(d)
        got = tuple((v.axiom, v.witness, v.lhs, v.rhs) for v in rep.violations)
        want = oracle_validate(d)
        assert got == want
        assert all(type(v.lhs) is Fraction and type(v.rhs) is Fraction for v in rep.violations)
        assert rep.ok == (want == ())
        return got

    def test_planted_violations_of_each_axiom(self) -> None:
        rng = random.Random(404)
        for axiom in self.AXIOMS:
            for _ in range(12):
                d = mixed_metric(rng, rng.randint(3, 9))
                plant(rng, d, axiom)
                assert any(v[0] == axiom for v in self.check(d)), axiom
        for axiom in self.AXIOMS:
            for n in (11, 16, 23, 40):
                d = mixed_metric(rng, n)
                plant(rng, d, axiom)
                assert any(v[0] == axiom for v in self.check(d)), axiom
            for top in EDGE_ENTRIES:
                d = band_metric(rng, rng.randint(11, 20), top)
                plant(rng, d, axiom)
                assert any(v[0] == axiom for v in self.check(d)), (axiom, top)

    def test_several_planted_violations(self) -> None:
        rng = random.Random(405)
        for _ in range(20):
            d = mixed_metric(rng, rng.randint(3, 10))
            for axiom in rng.choices(self.AXIOMS, k=rng.randint(2, 6)):
                plant(rng, d, axiom)
            self.check(d)
        for top in EDGE_ENTRIES:
            for n in (9, 11, 20):
                self.check(short_beside_a_full_field(rng, n, top))
        for _ in range(12):
            n = rng.randint(11, 40)
            d = mixed_metric(rng, n) if rng.random() < 0.5 else band_metric(
                rng, n, rng.choice(EDGE_ENTRIES)
            )
            for axiom in rng.choices(self.AXIOMS, k=rng.randint(2, 6)):
                plant(rng, d, axiom)
            self.check(d)

    def test_arbitrary_nonnegative_matrices(self) -> None:
        rng = random.Random(406)
        dens = (1, 7, 9, 1000003)
        for _ in range(40):
            n = rng.randint(1, 8)
            d = [
                [Fraction(rng.randint(0, 12), rng.choice(dens)) for _ in range(n)]
                for _ in range(n)
            ]
            self.check(d)
        # asymmetric, with nonzero diagonals, past the size where the
        # packed screen starts
        for _ in range(12):
            n = rng.randint(11, 40)
            top = rng.choice(EDGE_ENTRIES)
            d = [
                [Fraction(rng.randint(0, top), rng.choice(dens)) for _ in range(n)]
                for _ in range(n)
            ]
            self.check(d)
        for top in EDGE_ENTRIES:
            for n in (9, 12, 17):
                self.check(filled_fields(rng, n, top))
        # one point, and all-equal matrices, whose view is all 0s or all 1s
        for c in (0, 1, 5, 2**61):
            for n in (1, 2, 8, 9, 12):
                self.check([[Fraction(c)] * n for _ in range(n)])

    def test_valid_matrices_report_nothing(self) -> None:
        rng = random.Random(407)
        for _ in range(20):
            assert self.check(mixed_metric(rng, rng.randint(1, 10))) == ()
        for n in (11, 25, 40):
            assert self.check(mixed_metric(rng, n)) == ()
        for top in EDGE_ENTRIES:
            assert self.check(band_metric(rng, rng.randint(9, 30), top)) == ()

    def test_large_planted_violation_is_raised_with_its_witnesses(self) -> None:
        rng = random.Random(409)
        n = 200
        d = rows(random_metric_space(n, seed=409))
        i, j, k = rng.sample(range(n), 3)
        d[i][k] = d[k][i] = d[i][j] + d[j][k] + Fraction(1, 12)
        with pytest.raises(MetricValidationError) as info:
            FiniteMetricSpace.from_matrix(d)
        lo, hi = min(i, k), max(i, k)
        # only the pair {i, k} grew, so every violation is a triangle over it
        want = tuple(
            ("triangle", (lo, m, hi), d[lo][hi], d[lo][m] + d[m][hi])
            for m in range(n)
            if d[lo][m] + d[m][hi] < d[lo][hi]
        )
        got = tuple((v.axiom, v.witness, v.lhs, v.rhs) for v in info.value.report.violations)
        assert got == want and ("triangle", (lo, j, hi), d[i][k], d[i][k] - Fraction(1, 12)) in got

    def test_integer_view_round_trips(self) -> None:
        rng = random.Random(408)
        spaces = [
            FiniteMetricSpace.from_matrix(mixed_metric(rng, rng.randint(1, 8)))
            for _ in range(10)
        ]
        spaces += [simplex(4, Fraction(7, 3)), line_space(0, 2, 5), random_metric_space(6, 9)]
        # one space from every constructor, some where a denominator disappears
        Z = line_space(0, 1, 3)
        # t = 1/2 with every d_X + d_Y even: the sample has integer entries
        even = interpolate(Z, line_space(0, 3, 5), identity_correspondence(3), Fraction(1, 2))
        graft = simplex_graft(Z, GraftParams(0, Fraction(1, 3), 1))  # mu does not occur
        halves = FiniteMetricSpace.from_matrix([["0", "2/4"], ["2/4", "0"]], ["a", "b"])
        spaces += [random_metric_space(n, seed) for n, seed in ((1, 3), (4, 4), (9, 5))]
        spaces += [simplex(1, Fraction(7, 3)), simplex(3, Fraction(4, 2)), den6_space()]
        spaces += [
            graft,
            simplex_graft(Z, GraftParams(0, Fraction(1, 3), 3)),
            simplex_graft(den6_space(), GraftParams(1, Fraction(3, 5), 4)),
            star_extension(Z, StarParams(1, Fraction(1, 2))),
            star_extension(den6_space(), StarParams(0, Fraction(2, 9))),
            even.realized,
            interpolate(Z, den6_space(), Correspondence.of(3, 3, (0, 0), (1, 2), (2, 1)), Fraction(2, 5)).realized,
            halves,
            space_from_jsonable({"dist": [[0, "6/4", "3"], ["3/2", 0, "9/6"], [3, "1.5", 0]]}),
            space_from_csv("a,b\n0,4/6\n2/3,0\n"),
        ]
        for X in spaces:
            view = X.view
            assert view.den == math.lcm(*(v.denominator for row in X.dist for v in row))
            assert [[Fraction(v, view.den) for v in row] for row in view.rows] == rows(X)
            assert view == IntegerView.parse(X.dist)
            Y = FiniteMetricSpace.from_matrix(X.dist, X.labels)
            assert X == Y and hash(X) == hash(Y) and Y.view == view
        assert graft.view == IntegerView(((0, 2, 1), (2, 0, 3), (1, 3, 0)), 1)
        assert even.realized.view == IntegerView(((0, 2, 4), (2, 0, 2), (4, 2, 0)), 1)
        assert halves.view == IntegerView(((0, 1), (1, 0)), 2)


class TestFiniteMetricSpace:
    def test_rejects_bad_matrix(self) -> None:
        with pytest.raises(MetricValidationError) as exc:
            FiniteMetricSpace.from_matrix([[0, 3, 1], [3, 0, 1], [1, 1, 0]])
        assert not exc.value.report.ok
        with pytest.raises(MetricValidationError):
            FiniteMetricSpace(None, IntegerView(((0, 3, 1), (3, 0, 1), (1, 1, 0)), 1))
        with pytest.raises(TypeError):
            FiniteMetricSpace(None, [[0, 1], [1, 0]])  # raw entries go through from_matrix

    def test_auto_labels(self) -> None:
        X = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
        assert X.labels == ("p0", "p1")

    def test_duplicate_labels_rejected(self) -> None:
        with pytest.raises(MalformedInputError):
            FiniteMetricSpace.from_matrix([[0, 1], [1, 0]], labels=["a", "a"])

    def test_exact_rational_entries(self) -> None:
        X = FiniteMetricSpace.from_matrix([["0", "1/3"], ["1/3", "0"]])
        assert X.d(0, 1) == Fraction(1, 3)

    def test_index_of(self) -> None:
        X = simplex(3, Fraction(1))
        assert X.index_of("p2") == 2
        with pytest.raises(MalformedInputError):
            X.index_of("nope")


class TestDiameter:
    def test_unit_simplex(self) -> None:
        assert diameter(simplex(3, Fraction(1))) == 1

    def test_one_point(self) -> None:
        assert diameter(simplex(1, Fraction(1))) == 0

    def test_scaled_simplex(self) -> None:
        assert diameter(simplex(4, Fraction(5, 2))) == Fraction(5, 2)


class TestClosedBall:
    def test_small_radius_is_center_only(self) -> None:
        X = simplex(3, Fraction(1))
        assert closed_ball(X, 0, Fraction(1, 2)).indices == frozenset({0})

    def test_radius_one_includes_boundary(self) -> None:
        X = simplex(3, Fraction(1))
        assert closed_ball(X, 0, Fraction(1)).indices == frozenset({0, 1, 2})
        # radii equal to an entry, and with denominators coprime to the view's
        rng = random.Random(8)
        for X in [den6_space()] + [random_metric_space(5, rng.randrange(10**9)) for _ in range(6)]:
            d = rows(X)
            for r in boundary_radii(X):
                for c in range(X.n):
                    want = frozenset(i for i in range(X.n) if d[c][i] <= r)
                    assert closed_ball(X, c, r).indices == want

    def test_diameter_ball_is_everything(self) -> None:
        rng = random.Random(7)
        X = random_metric_space(5, seed=rng.randrange(10**9))
        ball = closed_ball(X, 2, diameter(X))
        assert ball.indices == frozenset(range(5))

    def test_negative_radius_rejected(self) -> None:
        with pytest.raises(DomainError):
            closed_ball(simplex(2, Fraction(1)), 0, Fraction(-1))


class TestCoveringNumber:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_simplex_at_radius_one(self, n: int) -> None:
        # open balls of radius 1 around simplex vertices are singletons
        assert covering_number(simplex(n, Fraction(1)), Fraction(1)) == n

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_simplex_above_diameter(self, n: int) -> None:
        assert covering_number(simplex(n, Fraction(1)), Fraction(3, 2)) == 1

    def test_matches_set_cover_oracle(self) -> None:
        rng = random.Random(101)
        for _ in range(40):
            X = random_metric_space(rng.randint(1, 6), seed=rng.randrange(10**9))
            d = diameter(X)
            eps = d * Fraction(rng.randint(1, 8), 8) if d else Fraction(1)
            if eps == 0:
                eps = Fraction(1)
            assert covering_number(X, eps) == oracle_cover(rows(X), eps)
        # radii equal to an entry, and with denominators coprime to the view's
        for X in [den6_space(), random_metric_space(6, 13), random_metric_space(5, 14)]:
            for eps in boundary_radii(X) + [Fraction(5, 7)]:
                assert covering_number(X, eps) == oracle_cover(rows(X), eps)
        # lines with gaps 1/2 and 1, whose balls are intervals of varying width
        for _ in range(30):
            coords = [Fraction(0)]
            for _ in range(rng.randint(1, 7)):
                coords.append(coords[-1] + Fraction(rng.randint(1, 2), 2))
            X = line_space(*coords)
            for eps in (Fraction(rng.randint(5, 8), 8), Fraction(rng.randint(9, 16), 8)):
                assert covering_number(X, eps) == oracle_cover(rows(X), eps)
        # grafts at eps = mu/4, the radius of the non-compactness report
        for _ in range(20):
            Z = random_metric_space(rng.randint(2, 4), seed=rng.randrange(10**9))
            z_star = rng.randrange(Z.n)
            mu = 2 * isolation_radius(Z, z_star) * Fraction(rng.randint(1, 8), 8)
            W = simplex_graft(Z, GraftParams(z_star, mu, rng.randint(1, 9 - Z.n)))
            assert covering_number(W, mu / 4) == oracle_cover(rows(W), mu / 4)

    def test_many_forced_sets_do_not_recurse(self) -> None:
        # the balls of a large simplex at eps below its side: each point's
        # only cover is its own singleton, so every set is forced
        n = 1500
        assert _min_cover_size((1 << n) - 1, [1 << i for i in range(n)]) == n
        # forced sets plus a rest that still needs the search: {0, 1, 2}
        # as three pairs takes two of them
        sets = [0b011, 0b110, 0b101] + [1 << i for i in range(3, n)]
        assert _min_cover_size((1 << n) - 1, sets) == n - 1
        # a line of pairs {i, i+1}: only the two end sets are forced, so the
        # search goes 1198 sets deep
        n = 2400
        assert _min_cover_size((1 << n) - 1, [0b11 << i for i in range(n - 1)]) == 1200

    @pytest.mark.parametrize("n, width", [(50, 2), (48, 3)])
    def test_interval_lines_are_pruned_by_packing(self, n: int, width: int) -> None:
        # the sets {i, i+1} or {i-1, i, i+1} of a line: a packing of points
        # width apart meets the first dive's cover, ceil(n / width)
        full = (1 << n) - 1
        sets = [((1 << width) - 1) << i >> (width - 2) & full for i in range(n)]
        assert _min_cover_size(full, sets) == -(-n // width)

    def test_nonpositive_eps_rejected(self) -> None:
        with pytest.raises(DomainError):
            covering_number(simplex(2, Fraction(1)), Fraction(0))


class TestSimplex:
    def test_three_points(self) -> None:
        X = simplex(3, Fraction(1))
        assert X.n == 3 and diameter(X) == 1

    def test_one_point(self) -> None:
        assert simplex(1, Fraction(1)).n == 1

    def test_validates(self) -> None:
        X = simplex(4, Fraction(7, 3))
        rep = validate_metric(rows(X))
        assert rep.ok

    def test_bad_args(self) -> None:
        with pytest.raises(DomainError):
            simplex(0, Fraction(1))
        with pytest.raises(DomainError):
            simplex(2, Fraction(0))


class TestIsolationRadius:
    def test_simplex_vertex(self) -> None:
        assert isolation_radius(simplex(3, Fraction(1)), 0) == 1

    def test_line_middle_point(self) -> None:
        X = line_space(0, 1, 3)
        assert isolation_radius(X, 1) == 1
        rng = random.Random(9)
        for X in [den6_space()] + [random_metric_space(5, rng.randrange(10**9)) for _ in range(6)]:
            d = rows(X)
            for z in range(X.n):
                assert isolation_radius(X, z) == min(d[z][i] for i in range(X.n) if i != z)

    def test_one_point_space_rejected(self) -> None:
        with pytest.raises(DomainError):
            isolation_radius(simplex(1, Fraction(1)), 0)


class TestRandomMetricSpace:
    def test_one_point(self) -> None:
        assert random_metric_space(1, seed=5).n == 1

    def test_deterministic_in_seed(self) -> None:
        assert random_metric_space(5, seed=42) == random_metric_space(5, seed=42)
        assert random_metric_space(5, seed=42) != random_metric_space(5, seed=43)

    def test_postcondition_is_a_metric(self) -> None:
        for seed in range(30):
            X = random_metric_space(6, seed=seed)
            assert validate_metric(rows(X)).ok

    def test_matches_fraction_closure(self) -> None:
        def reference(n: int, seed: int) -> list[list[Fraction]]:
            rng = random.Random(seed)
            d = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(1, 24), rng.choice((1, 2, 3, 4, 6)))
                    d[i][j] = d[j][i] = v
            for k, i, j in itertools.product(range(n), repeat=3):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
            return d

        for n, seed in [(1, 0), (2, 1), (3, 2), (5, 42), (7, 3), (10, 11), (16, 5)]:
            assert rows(random_metric_space(n, seed=seed)) == reference(n, seed)


class TestPointSubset:
    def test_empty_rejected(self) -> None:
        X = simplex(3, Fraction(1))
        with pytest.raises(DomainError):
            PointSubset(X, frozenset())

    def test_out_of_range_rejected(self) -> None:
        X = simplex(3, Fraction(1))
        with pytest.raises(DomainError):
            PointSubset(X, frozenset({3}))

    def test_from_labels(self) -> None:
        X = simplex(3, Fraction(1))
        A = PointSubset.from_labels(X, ["p0", "p2"])
        assert A.indices == frozenset({0, 2})
        assert A.labels_sorted() == ["p0", "p2"]
