from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from ghsegments import (
    Correspondence,
    FiniteMetricSpace,
    GraftParams,
    ResourceLimitError,
    SolverLimits,
    build_segment_family,
    diameter,
    distortion,
    full_product,
    geodesic_samples,
    gh_exact,
    gh_lower_bound,
    isolation_radius,
    minimize_correspondence,
    random_metric_space,
    simplex,
    simplex_graft,
)
from ghsegments import solver
from ghsegments.correspondences import integer_distortion
from ghsegments.segments import _pick_z_star
from ghsegments.solver import _swap_classes
from ghsegments.spaces import common_rows
from tests.conftest import (
    count_calls,
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

    def test_distortion_is_taken_of_an_initial_only(self, monkeypatch) -> None:
        # without an initial the incumbent is the full product, whose
        # distortion is the larger diameter, so no pair list is priced
        X, Y = random_metric_space(5, seed=1), random_metric_space(4, seed=2)
        calls = count_calls(monkeypatch, solver, "integer_distortion")
        want = gh_exact(X, Y)
        assert calls["integer_distortion"] == 0
        got = gh_exact(X, Y, initial=full_product(X.n, Y.n))
        assert calls["integer_distortion"] == 1
        assert (got.distance, got.nodes_explored) == (want.distance, want.nodes_explored)


class TestMapPairDescent:
    """The descent that seeds gh_exact on pairs of at least
    _DESCENT_MIN_SIDE points on each side."""

    def test_pairs_are_onto_priced_and_deterministic(self) -> None:
        rng = random.Random(3111)
        cases = [(simplex(n, 1), simplex(n + 1, 1)) for n in range(1, 9)]
        for _ in range(40):
            cases.append((random_space(rng, rng.randint(1, 9)), random_space(rng, rng.randint(1, 9))))
        for X, Y in cases:
            dA, dB, scale = common_rows(X, Y)
            val, pairs = solver._map_pair_descent(dA, dB)
            assert {a for a, _ in pairs} == set(range(X.n))
            assert {b for _, b in pairs} == set(range(Y.n))
            assert val == integer_distortion(dA, dB, pairs)
            assert oracle_distortion(rows(X), rows(Y), pairs) == Fraction(val, scale)
            again = solver._map_pair_descent([r[:] for r in dA], [r[:] for r in dB])
            assert again == (val, pairs)

    def test_seeded_solves_match_the_unseeded_kernel(self) -> None:
        # the seed only prunes: each pair keeps the unseeded kernel's
        # distance and takes no more nodes. A pair the unseeded kernel
        # cannot finish within the budget below is not compared
        rng = random.Random(3110)
        compared = drawn = 0
        while compared < 100 and drawn < 160:
            drawn += 1
            X, Y = random_space(rng, rng.randint(6, 9)), random_space(rng, rng.randint(6, 9))
            dA, dB, scale = common_rows(X, Y)
            if Y.n > X.n:  # gh_exact's orientation, so both run one search
                dA, dB = dB, dA
            val, _, nodes, spent = solver._branch_and_bound(dA, dB, None, 5000)
            if spent:
                continue
            res = gh_exact(X, Y)
            assert res.distance == Fraction(val, 2 * scale)
            assert res.nodes_explored <= nodes
            compared += 1
        assert compared == 100

    def test_descent_runs_only_at_the_gate(self, monkeypatch) -> None:
        calls = count_calls(monkeypatch, solver, "_map_pair_descent")
        for nx, ny in ((5, 5), (5, 9), (9, 5), (3, 12), (1, 8)):
            gh_exact(random_metric_space(nx, seed=nx), random_metric_space(ny, seed=50 + ny))
        assert calls["_map_pair_descent"] == 0
        gh_exact(random_metric_space(6, seed=6), random_metric_space(6, seed=56))
        assert calls["_map_pair_descent"] == 1

    def test_a_better_initial_is_the_seed(self, monkeypatch) -> None:
        # the descent stops above the optimum on this pair, so the optimum
        # given as initial is the seed, and the search keeps it
        X, Y = random_metric_space(8, seed=316), random_metric_space(8, seed=416)
        dA, dB, scale = common_rows(X, Y)
        found, descended = solver._map_pair_descent(dA, dB)
        opt = gh_exact(X, Y)
        assert 2 * opt.distance < Fraction(found, scale)
        seeds = []
        kernel = solver._branch_and_bound

        def spy(dA, dB, seed, budget):
            seeds.append(seed)
            return kernel(dA, dB, seed, budget)

        monkeypatch.setattr(solver, "_branch_and_bound", spy)
        got = gh_exact(X, Y, initial=opt.optimal)
        assert set(seeds[0]) == opt.optimal.pairs
        assert (got.distance, got.optimal) == (opt.distance, opt.optimal)
        # a worse initial gives way to the descent's correspondence
        gh_exact(X, Y, initial=full_product(X.n, Y.n))
        assert seeds[1] == descended


class TestDeepInputs:
    """The search keeps its own stack, so the number of rows bounds
    neither it nor its depth: these solves recurse past Python's limit
    in a search that calls itself once per row."""

    def test_large_simplex_against_three_points(self) -> None:
        res = gh_exact(simplex(300, 1), random_metric_space(3, seed=0))
        assert (res.distance, res.nodes_explored) == (Fraction(35, 24), 1495)

    def test_large_graft_against_three_points(self) -> None:
        Z = random_metric_space(3, seed=33)
        z_star = _pick_z_star(Z)
        W = simplex_graft(Z, GraftParams(z_star, isolation_radius(Z, z_star), 300))
        res = gh_exact(W, random_metric_space(3, seed=13))
        assert (res.distance, res.nodes_explored) == (Fraction(19, 4), 615)


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
        ("7/2", 20), ("7/2", 20), ("11/8", 110), ("11/8", 185), ("35/8", 53), ("35/8", 53),
        ("11/12", 452), ("11/12", 452), ("7/6", 29), ("7/6", 738), ("13/6", 3),
        ("13/6", 4), ("13/12", 181), ("13/12", 17), ("5/6", 36), ("5/6", 37), ("11/2", 5),
        ("5/4", 19), ("11/12", 18), ("9/8", 6),
    ]  # fmt: skip
    WITNESS_DIGEST = "3456f629f9a5bbc0"  # sha256 of the repr of every sorted witness

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
             ("node budget 40 exhausted", 40, Fraction(17, 12), Fraction(35, 24))),
            ((8, 8), (314, 414), SolverLimits(),
             ("node budget 100000 exhausted", 100000, Fraction(5, 6), Fraction(41, 24))),
        ],
    )  # fmt: skip
    def test_stops(self, sides, seeds, limits, stop) -> None:
        X, Y = (random_metric_space(n, seed=s) for n, s in zip(sides, seeds))
        with pytest.raises(ResourceLimitError) as exc:
            gh_exact(X, Y, limits=limits)
        err = exc.value
        assert (str(err), err.nodes, err.lower, err.upper) == stop
        # the stop's witness realises its upper bound and is onto both spaces
        pairs = err.witness.sorted_pairs()
        assert {x for x, _ in pairs} == set(range(X.n))
        assert {y for _, y in pairs} == set(range(Y.n))
        assert oracle_distortion(rows(X), rows(Y), pairs) == 2 * err.upper

    # random 8x8 pairs that search deeply: three solves of 2.7k-22k nodes
    # and one stop at the default budget, whose witness is its incumbent
    DEEP_SEEDS = (16, 34, 25, 14)
    DEEP_OUTCOMES = [
        ("3/4", 2684), ("17/12", 22179), ("7/6", 9431), ("5/6", "41/24", 100000),
    ]  # fmt: skip
    DEEP_WITNESS_DIGEST = "b3ecad3da87e3e38"  # sha256 of the repr of every sorted witness

    def test_deep_searches(self) -> None:
        got, witnesses = [], []
        for s in self.DEEP_SEEDS:
            X, Y = random_metric_space(8, seed=300 + s), random_metric_space(8, seed=400 + s)
            try:
                res = gh_exact(X, Y)
            except ResourceLimitError as err:
                got.append((str(err.lower), str(err.upper), err.nodes))
                witnesses.append(err.witness.sorted_pairs())
            else:
                got.append((str(res.distance), res.nodes_explored))
                witnesses.append(res.optimal.sorted_pairs())
        assert got == self.DEEP_OUTCOMES
        digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16]
        assert digest == self.DEEP_WITNESS_DIGEST

    def test_twelve_point_pair_solves(self) -> None:
        # unseeded, the kernel spends the default budget on this pair and
        # stops with the bracket [1/2, 35/24]; the descent's seed solves it
        X, Y = random_metric_space(12, seed=101), random_metric_space(12, seed=201)
        res = gh_exact(X, Y)
        assert (res.distance, res.nodes_explored) == (Fraction(2, 3), 39076)
        pairs = res.optimal.sorted_pairs()
        assert oracle_distortion(rows(X), rows(Y), pairs) == 2 * res.distance


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
