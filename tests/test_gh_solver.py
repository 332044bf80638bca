from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from ghsegments import (
    Correspondence,
    FiniteMetricSpace,
    ResourceLimitError,
    SolverLimits,
    build_segment_family,
    diameter,
    distortion,
    geodesic_samples,
    gh_exact,
    gh_lower_bound,
    minimize_correspondence,
    random_metric_space,
    simplex,
)
from ghsegments.solver import _swap_classes
from tests.conftest import (
    oracle_distortion,
    oracle_gh,
    random_correspondence,
    random_space,
    rows,
    run_python,
)


class TestClosedForms:
    def test_space_against_itself(self) -> None:
        rng = random.Random(3)
        for _ in range(10):
            X = random_space(rng, rng.randint(1, 4))
            assert gh_exact(X, X).distance == 0

    def test_one_point_against_anything(self) -> None:
        # only one correspondence exists and its distortion is diam X
        rng = random.Random(4)
        point = simplex(1, Fraction(1))
        for n in range(1, 17):
            X = random_space(rng, n)
            diam = max(max(r) for r in X.dist)
            assert gh_exact(point, X).distance == diam / 2

    def test_two_against_three_point_simplex(self) -> None:
        a = gh_exact(simplex(2, Fraction(1)), simplex(3, Fraction(1)))
        assert a.distance == Fraction(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scaled_simplices(self, n: int) -> None:
        lam, kap = Fraction(5, 3), Fraction(1, 2)
        got = gh_exact(simplex(n, lam), simplex(n, kap))
        assert got.distance == abs(lam - kap) / 2

    def test_scaled_one_point_simplices_coincide(self) -> None:
        got = gh_exact(simplex(1, Fraction(5, 3)), simplex(1, Fraction(1, 2)))
        assert got.distance == 0


class TestOracleEquivalence:
    def test_both_methods_match_subset_enumeration_oracle(self) -> None:
        rng = random.Random(2025)
        for _ in range(40):
            nx = rng.randint(1, 3)
            ny = rng.randint(1, 4)
            X, Y = random_space(rng, nx), random_space(rng, ny)
            assert gh_exact(X, Y).distance == oracle_gh(rows(X), rows(Y))

    def test_frozen_regression_pair(self) -> None:
        # oracle value for this seed pair, pinned
        X = random_metric_space(4, seed=2026)
        Y = random_metric_space(4, seed=816)
        assert gh_exact(X, Y).distance == Fraction(13, 12)

    def test_witness_is_certified_optimal(self) -> None:
        rng = random.Random(99)
        for _ in range(30):
            X, Y = random_space(rng, rng.randint(1, 4)), random_space(rng, 4)
            res = gh_exact(X, Y)
            sigma = res.optimal
            assert isinstance(sigma, Correspondence)
            assert (sigma.nx, sigma.ny) == (X.n, Y.n)
            dis = oracle_distortion(rows(X), rows(Y), sigma.sorted_pairs())
            assert dis == 2 * res.distance

    def test_wrong_witness_raises_under_python_O(self) -> None:
        # -O strips asserts; the check that certifies a witness must stay
        proc = run_python(
            "-O",
            "-c",
            "import sys\n"
            "import ghsegments.solver as s\n"
            "from ghsegments import ToolkitError, random_metric_space as r\n"
            "s.distortion = lambda X, Y, R: -1\n"
            "try:\n"
            "    s.gh_exact(r(3, seed=1), r(3, seed=2))\n"
            "except ToolkitError as exc:\n"
            "    print(sys.flags.optimize, type(exc).__name__)\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1 ToolkitError\n"


class TestLowerBound:
    def test_identical_spaces(self) -> None:
        X = random_metric_space(4, seed=12)
        assert gh_lower_bound(X, X) == 0

    def test_diameter_gap(self) -> None:
        assert gh_lower_bound(simplex(1, Fraction(1)), simplex(2, Fraction(1))) == Fraction(1, 2)

    def test_never_exceeds_exact_value(self) -> None:
        rng = random.Random(500)
        for _ in range(60):
            X, Y = random_space(rng, rng.randint(1, 4)), random_space(rng, rng.randint(1, 4))
            assert gh_lower_bound(X, Y) <= gh_exact(X, Y).distance

    def test_symmetric(self) -> None:
        rng = random.Random(501)
        X, Y = random_space(rng, 4), random_space(rng, 3)
        assert gh_lower_bound(X, Y) == gh_lower_bound(Y, X)


class TestDispatchAndDeterminism:
    def test_same_witness_across_runs(self) -> None:
        rng = random.Random(321)
        for _ in range(20):
            X, Y = random_space(rng, 3), random_space(rng, 4)
            r1 = gh_exact(X, Y)
            r2 = gh_exact(X, Y)
            assert r1.distance == r2.distance
            assert r1.optimal.pairs == r2.optimal.pairs

    def test_methods_agree_under_argument_swap(self) -> None:
        rng = random.Random(17)
        for _ in range(20):
            X, Y = random_space(rng, rng.randint(1, 4)), random_space(rng, rng.randint(1, 4))
            assert gh_exact(X, Y).distance == gh_exact(Y, X).distance


class TestSeeding:
    def test_initial_incumbent_does_not_change_answer(self) -> None:
        rng = random.Random(888)
        for _ in range(25):
            X, Y = random_space(rng, rng.randint(2, 4)), random_space(rng, rng.randint(2, 4))
            want = gh_exact(X, Y).distance
            seed = random_correspondence(rng, X.n, Y.n)
            got = gh_exact(X, Y, initial=seed)
            assert got.distance == want
            assert distortion(X, Y, got.optimal) == 2 * want

    def test_initial_shape_mismatch_rejected(self) -> None:
        X, Y = random_metric_space(3, seed=1), random_metric_space(3, seed=2)
        bad = Correspondence.of(2, 2, (0, 0), (1, 1))
        with pytest.raises(Exception):
            gh_exact(X, Y, initial=bad)


class TestResourceLimits:
    def test_node_budget_refusal(self) -> None:
        for n in (4, 5):
            X, Y = random_metric_space(n, seed=5), random_metric_space(n, seed=6)
            with pytest.raises(ResourceLimitError) as exc:
                gh_exact(X, Y, limits=SolverLimits(node_budget=3))
            assert exc.value.nodes <= 3

    def test_bnb_side_cap(self) -> None:
        # no side is too large to search: an 11-point space against 2 and
        # 3 points answers under the default budget, inside the bounds
        # gh_lower_bound <= d <= max(diam X, diam Y)/2 of the full product
        X = random_metric_space(11, seed=7)
        for ny, bounds, want in (
            (2, (Fraction(3, 4), Fraction(25, 12)), ("4/3", 15)),
            (3, (Fraction(25, 12), Fraction(7, 2)), ("29/12", 1300)),
        ):
            Y = random_metric_space(ny, seed=8)
            res = gh_exact(X, Y)
            assert (str(res.distance), res.nodes_explored) == want
            assert bounds[0] <= res.distance <= bounds[1]
            pairs = res.optimal.sorted_pairs()
            assert oracle_distortion(rows(X), rows(Y), pairs) == 2 * res.distance
        # a one-point side has a single correspondence: a one-node search
        point = simplex(1, Fraction(1))
        assert gh_exact(point, random_metric_space(15, seed=3)).distance == Fraction(7, 4)


def pinned_corpus() -> list:
    """Seeded (X, Y, initial) solves: simplex pairs, random pairs both ways, warm starts."""
    cases = [(simplex(n, 1), simplex(n + 1, 1), None) for n in range(2, 10)]
    rng = random.Random(2)
    for _ in range(10):
        X, Y = random_space(rng, rng.randint(2, 7)), random_space(rng, rng.randint(2, 7))
        cases += [(X, Y, None), (Y, X, None)]
    for _ in range(4):
        X, Y = random_space(rng, rng.randint(2, 5)), random_space(rng, rng.randint(2, 5))
        cases.append((X, Y, random_correspondence(rng, X.n, Y.n)))
    return cases


class TestPinnedSearch:
    """Recorded outcomes of the search on a seeded corpus. Node counts do
    not depend on the hardware, so any change to how the search branches
    or prunes shows up here, and belongs in CHANGES.md."""

    DISTANCES_AND_NODES = [
        ("1/2", 3), ("1/2", 7), ("1/2", 15), ("1/2", 31), ("1/2", 63), ("1/2", 127),
        ("1/2", 255), ("1/2", 511), ("1/6", 3), ("1/6", 3), ("29/24", 77), ("29/24", 77),
        ("7/2", 20), ("7/2", 20), ("11/8", 217), ("11/8", 205), ("35/8", 53), ("35/8", 53),
        ("11/12", 5309), ("11/12", 5309), ("7/6", 37), ("7/6", 795), ("13/6", 3),
        ("13/6", 4), ("13/12", 181), ("13/12", 17), ("5/6", 57), ("5/6", 46), ("11/2", 5),
        ("5/4", 19), ("11/12", 18), ("9/8", 6),
    ]  # fmt: skip
    WITNESS_DIGEST = "4b6ff640a89a0d93"  # sha256 of the repr of every sorted witness

    def test_distances_nodes_and_witnesses(self) -> None:
        results = [gh_exact(X, Y, initial=init) for X, Y, init in pinned_corpus()]
        got = [(str(r.distance), r.nodes_explored) for r in results]
        assert got == self.DISTANCES_AND_NODES
        witnesses = [r.optimal.sorted_pairs() for r in results]
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16] == self.WITNESS_DIGEST

    @pytest.mark.parametrize(
        "sides, seeds, limits, stop",
        [
            ((6, 6), (5, 6), SolverLimits(node_budget=40),
             ("node budget 40 exhausted", 40, Fraction(17, 12), Fraction(61, 24))),
            ((12, 12), (101, 201), SolverLimits(),
             ("node budget 100000 exhausted", 100000, Fraction(1, 2), Fraction(35, 24))),
        ],
    )  # fmt: skip
    def test_stops(self, sides, seeds, limits, stop) -> None:
        X, Y = (random_metric_space(n, seed=s) for n, s in zip(sides, seeds))
        with pytest.raises(ResourceLimitError) as exc:
            gh_exact(X, Y, limits=limits)
        err = exc.value
        assert (str(err), err.nodes, err.lower, err.upper) == stop


def brute_classes(d) -> list[int]:
    """Group points by their set of swap partners, numbered by first member."""
    n = len(d)
    ids: dict[frozenset, int] = {}
    out = []
    for r in range(n):
        partners = frozenset(
            s for s in range(n) if all(d[r][k] == d[s][k] for k in range(n) if k not in (r, s))
        )
        out.append(ids.setdefault(partners, len(ids)))
    return out


class TestSymmetryClasses:
    def test_one_point_against_large_simplex_is_fast(self) -> None:
        point, big = simplex(1, Fraction(1)), simplex(200, Fraction(1))
        started = time.perf_counter()
        res = gh_exact(point, big)
        elapsed = time.perf_counter() - started
        assert res.distance == Fraction(1, 2) and res.nodes_explored == 1
        assert elapsed < 0.1

    def test_classes_match_pairwise_grouping(self) -> None:
        rng = random.Random(77)
        matrices = []
        for _ in range(60):  # few distinct values, so many rows coincide
            n = rng.randint(1, 9)
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d[i][j] = d[j][i] = rng.randint(1, 3)
            matrices.append(d)
        matrices += [simplex(n, Fraction(n, 3)).view.rows for n in range(1, 7)]
        for _ in range(30):  # points copied into small simplices, shuffled
            base = random_metric_space(rng.randint(1, 5), seed=rng.randrange(10**9)).view.rows
            owner = [p for p in range(len(base)) for _ in range(rng.randint(1, 4))]
            rng.shuffle(owner)
            side = min((v for row in base for v in row if v), default=1)
            matrices.append(
                [[0 if r == s else side if p == q else base[p][q] for s, q in enumerate(owner)]
                 for r, p in enumerate(owner)]
            )  # fmt: skip
        for d in matrices:
            assert _swap_classes(d) == brute_classes(d)


class TestNumericRanges:
    def test_huge_denominators_use_exact_arithmetic(self) -> None:
        # joint scaling overflows 64-bit integers here
        a, b = Fraction(1, 999999937), Fraction(1, 999999893)
        X = FiniteMetricSpace.from_matrix([[0, 1 + a], [1 + a, 0]])
        Y = FiniteMetricSpace.from_matrix([[0, 1 + b], [1 + b, 0]])
        res = gh_exact(X, Y)
        assert res.distance == oracle_gh(rows(X), rows(Y))

    def test_mixed_magnitudes(self) -> None:
        X = FiniteMetricSpace.from_matrix([[0, Fraction(1, 10**12)], [Fraction(1, 10**12), 0]])
        Y = simplex(2, Fraction(10**6))
        res = gh_exact(X, Y)
        assert res.distance == oracle_gh(rows(X), rows(Y))


def relabel(X: FiniteMetricSpace, perm: list[int]) -> FiniteMetricSpace:
    """X with its points renumbered: point i of the result is point perm[i] of X."""
    d = X.dist
    return FiniteMetricSpace.from_matrix([[d[a][b] for b in perm] for a in perm])


def scaled(X: FiniteMetricSpace, k: Fraction) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_matrix([[k * v for v in row] for row in X.dist])


class TestMetamorphicRelations:
    """Relations d_GH obeys as a metric on isometry classes, checked with
    no oracle at sides 5-8 and at 11-14 against 2-4, where the search
    branches deeply and the enumerating oracles cannot reach. Each guards
    one step of gh_exact: the argument swap its orientation, relabelling
    the row renumbering, scaling the common denominator, warm starts the
    seed's orientation, and the bounds its budget stops. A pair on which
    any solve hits the budget is counted and skipped."""

    def test_relations_on_seeded_pairs(self) -> None:
        rng = random.Random(2210)
        checked = skipped = 0
        for i in range(20):
            X, Y = random_space(rng, rng.randint(5, 8)), random_space(rng, rng.randint(5, 8))
            p, q = rng.sample(range(X.n), X.n), rng.sample(range(Y.n), Y.n)
            Xp, Yq = relabel(X, p), relabel(Y, q)
            try:
                res = gh_exact(X, Y)
                d = res.distance
                assert gh_exact(Y, X).distance == d
                assert gh_exact(Xp, Yq).distance == d
                assert gh_exact(X, Xp).distance == 0
                k = (Fraction(3), Fraction(2, 5))[i % 2]  # an integer and a rational scale
                assert gh_exact(scaled(X, k), scaled(Y, k)).distance == k * d
                seed = random_correspondence(rng, X.n, Y.n)
                assert gh_exact(X, Y, initial=seed).distance == d
                # res.optimal carried over to the relabelled points of Xp and Yq
                back_p, back_q = {a: j for j, a in enumerate(p)}, {b: j for j, b in enumerate(q)}
                moved = frozenset((back_p[a], back_q[b]) for a, b in res.optimal.pairs)
                warm = Correspondence(moved, X.n, Y.n)
                assert gh_exact(Xp, Yq, initial=warm).distance == d
            except ResourceLimitError:
                skipped += 1
                continue
            assert gh_lower_bound(X, Y) <= d <= distortion(X, Y, seed) / 2
            try:
                assert gh_exact(X, Y, limits=SolverLimits(node_budget=50)).distance == d
            except ResourceLimitError as err:
                assert err.nodes == 50 and err.lower <= d <= err.upper
            checked += 1
        assert checked >= 16 and checked + skipped == 20

    def test_relations_on_wide_pairs(self) -> None:
        # one side of 11-14 points against 2-4: no side is too large to
        # search, and these pairs answer well within the default budget
        rng = random.Random(2614)
        checked = skipped = 0
        for _ in range(8):
            X, Y = random_space(rng, rng.randint(11, 14)), random_space(rng, rng.randint(2, 4))
            p, q = rng.sample(range(X.n), X.n), rng.sample(range(Y.n), Y.n)
            try:
                res = gh_exact(X, Y)
                d = res.distance
                assert gh_exact(Y, X).distance == d
                assert gh_exact(relabel(X, p), relabel(Y, q)).distance == d
            except ResourceLimitError:
                skipped += 1
                continue
            assert gh_lower_bound(X, Y) <= d <= max(diameter(X), diameter(Y)) / 2
            pairs = res.optimal.sorted_pairs()
            assert oracle_distortion(rows(X), rows(Y), pairs) == 2 * d
            checked += 1
        assert (checked, skipped) == (8, 0)

    def test_segment_relations_on_seeded_pairs(self) -> None:
        # the triangle inequality through a random third space, and every
        # lift certificate of a geodesic sample R_t and of a graft member
        # W(mu, m) of at most 8 points against fresh solves: d(X, R_t) =
        # t d_XY, d(R_t, Y) = (1 - t) d_XY, and d_XW + d_WY = d_XY
        rng = random.Random(2311)
        checked = skipped = 0
        grafted = []  # m of each graft member re-solved
        for _ in range(10):
            X, Y = random_space(rng, rng.randint(5, 8)), random_space(rng, rng.randint(5, 8))
            T = random_space(rng, rng.randint(5, 8))
            try:
                res = gh_exact(X, Y)
                d = res.distance
                via_t = gh_exact(X, T).distance
                assert d <= via_t + gh_exact(T, Y).distance
                # a minimal optimal witness keeps the samples R_t small
                R = minimize_correspondence(res.optimal)
                certified = geodesic_samples(X, Y, R, d)
                for sample, cert in certified:
                    Rt, t = sample.realized, sample.t
                    assert gh_exact(X, Rt).distance == t * d == cert.d_xz
                    assert gh_exact(Rt, Y).distance == (1 - t) * d == cert.d_zy
                Z = certified[2][0].realized  # the midpoint, an interior member
                fam = build_segment_family(X, Y, Z, ms=(1, 2))
                for e in fam.entries:
                    if e.points > 8:
                        continue
                    W, cert = e.space, e.certificate
                    assert gh_exact(X, W).distance == cert.d_xz
                    assert gh_exact(W, Y).distance == cert.d_zy
                    assert cert.d_xz + cert.d_zy == cert.d_xy == d
                    grafted.append(e.m)
            except ResourceLimitError:
                skipped += 1
                continue
            checked += 1
        assert checked >= 7 and checked + skipped == 10
        assert len(grafted) >= 8 and grafted.count(2) >= 2
