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
    endpoint_lifts,
    full_product,
    geodesic_samples,
    gh_exact,
    gh_lower_bound,
    interpolate,
    isolation_radius,
    minimize_correspondence,
    random_metric_space,
    simplex,
    simplex_graft,
)
from ghsegments import solver
from ghsegments.correspondences import integer_distortion
from ghsegments.segments import _pick_z_star
from ghsegments.spaces import IntegerView, common_rows
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
    def test_matches_subset_enumeration_oracle(self) -> None:
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
        # -O strips asserts; the check that certifies a witness must stay.
        # The search claims one less than its pairs' distortion
        proc = run_python(
            "-O",
            "-c",
            "import sys\n"
            "import ghsegments.solver as s\n"
            "from ghsegments import ToolkitError, random_metric_space as r\n"
            "real = s._branch_and_bound\n"
            "def wrong(*args):\n"
            "    val, pairs, nodes, spent = real(*args)\n"
            "    return val - 1, pairs, nodes, spent\n"
            "s._branch_and_bound = wrong\n"
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

    def test_agrees_under_argument_swap(self) -> None:
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

    def test_distortion_is_taken_of_an_initial_only(self) -> None:
        # the full product's distortion is the larger diameter, read off
        # its length: a full-length sequence that fails when read or sliced
        # is priced all the same, so no pass over its pairs happens
        X, Y = random_metric_space(5, seed=1), random_metric_space(4, seed=2)
        dx, dy, scale = common_rows(X, Y)

        class Unread:
            def __len__(self):
                return X.n * Y.n

            def __getitem__(self, index):
                raise AssertionError("the full product's pairs were read")

        assert Fraction(integer_distortion(dx, dy, Unread()), scale) == max(diameter(X), diameter(Y))
        want = gh_exact(X, Y)
        got = gh_exact(X, Y, initial=full_product(X.n, Y.n))
        assert (got.distance, got.nodes_explored) == (want.distance, want.nodes_explored)


class TestRootStart:
    """gh_exact prices the candidate starts once; when the best meets the
    root bound it is the answer, and neither search runs."""

    def test_root_tight_seed_answers_below_the_gate(self) -> None:
        # every correspondence of simplex(n) and simplex(n + 1) meets the
        # pigeonhole bound. Unseeded, the search spends nodes all the same;
        # seeded with its witness, the solve spends none, so even a budget
        # of 0 nodes is no stop. A seed above the bound is searched from,
        # and with no node to spend it is the stop's witness
        rng = random.Random(4110)
        cases = [(simplex(n, 1), simplex(n + 1, 1)) for n in range(2, 6)]
        cases += [(random_space(rng, rng.randint(2, 5)), random_space(rng, rng.randint(2, 5))) for _ in range(60)]
        tight = 0
        for X, Y in cases:
            plain, low = gh_exact(X, Y), gh_lower_bound(X, Y)
            assert plain.nodes_explored > 0
            if plain.distance > low:
                with pytest.raises(ResourceLimitError) as exc:
                    gh_exact(X, Y, SolverLimits(node_budget=0), initial=plain.optimal)
                err = exc.value
                assert (err.nodes, err.lower, err.upper) == (0, low, plain.distance)
                assert err.witness == plain.optimal
                continue
            for limits in (None, SolverLimits(node_budget=0)):
                res = gh_exact(X, Y, limits, initial=plain.optimal)
                assert (res.distance, res.nodes_explored, res.optimal) == (low, 0, plain.optimal)
            tight += 1
        assert tight >= 30

    def test_seeded_solves_agree(self) -> None:
        # three kinds of seed on random pairs of 2-6 points: the unseeded
        # witness, the endpoint lifts into a geodesic sample R_t, and a
        # random correspondence above the optimum. Every seeded answer
        # agrees with oracle_gh where it can enumerate, and with the
        # unseeded solve elsewhere, and its witness realises it
        rng = random.Random(4111)
        solves = above = 0
        for _ in range(300):
            X, Y = random_space(rng, rng.randint(2, 6)), random_space(rng, rng.randint(2, 6))
            plain = gh_exact(X, Y)
            R = minimize_correspondence(plain.optimal)
            S = interpolate(X, Y, R, Fraction(rng.randint(1, 3), 4)).realized
            left, right = endpoint_lifts(R)
            seeds = {(X, Y): [plain.optimal], (X, S): [left], (S, Y): [right]}
            for _ in range(5):
                worse = random_correspondence(rng, X.n, Y.n)
                if distortion(X, Y, worse) > 2 * plain.distance:
                    seeds[X, Y].append(worse)
                    above += 1
                    break
            for (A, B), initials in seeds.items():
                want = oracle_gh(rows(A), rows(B)) if A.n * B.n <= 12 else gh_exact(A, B).distance
                for seed in initials:
                    assert gh_exact(A, B, initial=seed).distance == want
                    solves += 1
        assert above >= 250 and solves == 900 + above


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
            pairs = solver._map_pair_descent(dA, dB)
            assert {a for a, _ in pairs} == set(range(X.n))
            assert {b for _, b in pairs} == set(range(Y.n))
            val = integer_distortion(dA, dB, pairs)
            assert oracle_distortion(rows(X), rows(Y), pairs) == Fraction(val, scale)
            again = solver._map_pair_descent([r[:] for r in dA], [r[:] for r in dB])
            assert again == pairs

    def test_descent_runs_only_at_the_gate(self, monkeypatch) -> None:
        calls = count_calls(monkeypatch, solver, "_map_pair_descent")
        for nx, ny in ((5, 5), (5, 9), (9, 5), (3, 12), (1, 8)):
            gh_exact(random_metric_space(nx, seed=nx), random_metric_space(ny, seed=50 + ny))
        assert calls["_map_pair_descent"] == 0
        gh_exact(random_metric_space(6, seed=6), random_metric_space(6, seed=56))
        assert calls["_map_pair_descent"] == 1

    def test_a_better_initial_is_the_seed(self) -> None:
        # with no node to spend, a stop's witness is the incumbent the
        # kernel started from. The descent stops above the optimum on this
        # pair, so the optimum given as initial is that start
        X, Y = random_metric_space(8, seed=316), random_metric_space(8, seed=416)
        dA, dB, scale = common_rows(X, Y)
        descended = solver._map_pair_descent(dA, dB)
        opt = gh_exact(X, Y)
        assert 2 * opt.distance < Fraction(integer_distortion(dA, dB, descended), scale)

        def start(X, Y, initial):
            with pytest.raises(ResourceLimitError) as exc:
                gh_exact(X, Y, SolverLimits(node_budget=0), initial)
            return exc.value.witness

        assert start(X, Y, opt.optimal) == opt.optimal
        assert gh_exact(X, Y, initial=opt.optimal).optimal == opt.optimal
        # a worse initial gives way to the descent's correspondence
        assert start(X, Y, full_product(X.n, Y.n)).pairs == set(descended)
        # every correspondence of simplex(6) and simplex(7) has distortion
        # 1, so the full product as initial ties the descent and wins
        S6, S7 = simplex(6, 1), simplex(7, 1)
        assert gh_exact(S6, S7, initial=full_product(6, 7)).optimal == full_product(6, 7)
        assert gh_exact(S6, S7).optimal != full_product(6, 7)

    # sha256 of the repr of the descent's pairs on the corpus below, as
    # recorded when every placement was priced: the descent skips only
    # placements with a term past the worst, which pricing rejects anyway
    PAIRS_DIGEST = "5a8c47c95ee1feca"

    def test_pairs_are_pinned(self) -> None:
        # random pairs at 6-40 points, graft blow-ups (twins on one side)
        # and simplex pairs (every term ties), both orientations
        rng = random.Random(4300)
        cases = []
        for _ in range(24):
            X, Y = random_space(rng, rng.randint(6, 40)), random_space(rng, rng.randint(6, 40))
            cases += [(X, Y), (Y, X)]
        for _ in range(6):
            Z = random_space(rng, rng.randint(3, 6))
            z = _pick_z_star(Z)
            W = simplex_graft(Z, GraftParams(z, isolation_radius(Z, z), rng.randint(4, 30)))
            Y = random_space(rng, rng.randint(6, 30))
            cases += [(W, Y), (Y, W)]
        cases += [(simplex(n, 1), simplex(n + k, 1)) for n, k in ((6, 1), (9, 4), (20, 1))]
        descents = [solver._map_pair_descent(*common_rows(X, Y)[:2]) for X, Y in cases]
        assert hashlib.sha256(repr(descents).encode()).hexdigest()[:16] == self.PAIRS_DIGEST


class TestThresholdSearch:
    """The clique search gh_exact runs on pairs of at least
    _DESCENT_MIN_SIDE points on each side; _branch_and_bound, which runs
    below that gate, is its reference."""

    def test_matches_the_reference_kernel(self) -> None:
        # seeded 6-9-point pairs, every fifth a graft blow-up with many
        # swappable points; where the reference spends its budget, the
        # answer must lie at or below the reference's upper bound
        rng = random.Random(3410)
        stops = 0
        for i in range(200):
            if i % 5 == 4:
                Z = random_space(rng, rng.randint(3, 5))
                z = _pick_z_star(Z)
                m = rng.randint(7 - Z.n, 10 - Z.n)
                X = simplex_graft(Z, GraftParams(z, isolation_radius(Z, z), m))
            else:
                X = random_space(rng, rng.randint(6, 9))
            Y = random_space(rng, rng.randint(6, 9))
            dA, dB, scale = common_rows(X, Y)
            cA, cB = X.view.swap_classes, Y.view.swap_classes
            if Y.n > X.n:  # gh_exact's orientation
                dA, dB, cA, cB = dB, dA, cB, cA
            start = solver._start(dA, dB, [solver._map_pair_descent(dA, dB)])
            val, _, _, spent = solver._branch_and_bound(dA, dB, cA, cB, start, 20_000)
            res = gh_exact(X, Y)
            want = Fraction(val, 2 * scale)
            assert res.distance <= want if spent else res.distance == want
            stops += spent
            pairs = res.optimal.sorted_pairs()
            assert oracle_distortion(rows(X), rows(Y), pairs) == 2 * res.distance
        assert stops == 30  # the reference answers the other 170

    def test_one_tree_agrees_with_the_references(self) -> None:
        # 330 seeded pairs at 6-10 points: random pairs, graft blow-ups
        # (twins on one side) and simplices (all twins) against random
        # spaces. The search runs from the descent's start, as gh_exact
        # runs it, and from the full product, from which it tightens delta
        # about 8 times a pair in one tree; both give the same value, with
        # witnesses that realise it, and the reference kernel, started at
        # that value, finds nothing below it
        rng = random.Random(4301)
        refuted = 0
        for i in range(330):
            Y = random_space(rng, rng.randint(6, 10))
            if i % 3 == 0:
                X = random_space(rng, rng.randint(6, 10))
            elif i % 3 == 1:
                Z = random_space(rng, rng.randint(3, 5))
                z = _pick_z_star(Z)
                X = simplex_graft(Z, GraftParams(z, isolation_radius(Z, z), rng.randint(7 - Z.n, 11 - Z.n)))
            else:
                X = simplex(rng.randint(6, 10), Fraction(rng.randint(1, 24), 12))
            if Y.n > X.n:  # gh_exact's orientation
                X, Y = Y, X
            dA, dB, scale = common_rows(X, Y)
            cA, cB = X.view.swap_classes, Y.view.swap_classes
            low = solver._root_bound(dA, dB)
            values = set()
            for seeds in ([solver._map_pair_descent(dA, dB)], []):
                # a start that meets the root bound is returned with 0 nodes
                start = solver._start(dA, dB, seeds)
                val, pairs, nodes, spent = solver._threshold_search(dA, dB, cA, cB, start, low, 100_000)
                assert not spent and (start[0] > low or (nodes, val) == (0, start[0]))
                assert oracle_distortion(rows(X), rows(Y), pairs) == Fraction(val, scale)
                values.add(val)
            assert values == {val}
            if val > low:
                ref, _, _, spent = solver._branch_and_bound(dA, dB, cA, cB, (val, pairs), 20_000)
                assert ref == val
                refuted += not spent
        assert refuted == 160  # of 179 pairs above the root bound; 19 spend the 20k nodes

    def test_one_tree_agrees_with_the_oracle(self) -> None:
        # the search from the full product on 2-4-point pairs of at most 12
        # cells, against oracle_gh; one time in three a 4-point side is a
        # graft blow-up with three twins
        rng = random.Random(4302)
        for i in range(300):
            nx, ny = rng.choice([(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
            X, Y = random_space(rng, nx), random_space(rng, ny)
            if i % 3 == 0 and nx == 4:
                Z = random_space(rng, 2)
                X = simplex_graft(Z, GraftParams(0, isolation_radius(Z, 0), 3))
            dA, dB, scale = common_rows(X, Y)
            start = solver._start(dA, dB, [])
            low = solver._root_bound(dA, dB)
            val, pairs, _, _ = solver._threshold_search(
                dA, dB, X.view.swap_classes, Y.view.swap_classes, start, low, None
            )
            assert Fraction(val, 2 * scale) == oracle_gh(rows(X), rows(Y))
            assert oracle_distortion(rows(X), rows(Y), pairs) == Fraction(val, scale)

    def test_twin_rule(self, monkeypatch) -> None:
        # twelve swappable graft points: a cell refuted on one of them is
        # refuted on each twin with the same candidates, and without that
        # exclusion the search spends the default budget
        Z = random_metric_space(6, seed=40)
        W = simplex_graft(Z, GraftParams(0, isolation_radius(Z, 0), 12))
        Y = random_metric_space(7, seed=91)
        res = gh_exact(W, Y)
        assert (res.distance, res.nodes_explored) == (Fraction(7, 6), 1252)
        assert oracle_distortion(rows(W), rows(Y), res.optimal.sorted_pairs()) == Fraction(7, 3)
        # without the root bound, simplex(10) against simplex(9) is all twins
        S10, S9 = simplex(10, 1), simplex(9, 1)
        monkeypatch.setattr(solver, "_root_bound", lambda dA, dB: 0)
        res = gh_exact(S10, S9)
        assert (res.distance, res.nodes_explored) == (Fraction(1, 2), 46)
        monkeypatch.undo()
        # all-singleton classes; a property outranks the classes W and Y
        # already keep from the solve above
        singletons = property(lambda view: tuple(range(len(view))))
        monkeypatch.setattr(IntegerView, "swap_classes", singletons)
        with pytest.raises(ResourceLimitError) as exc:
            gh_exact(W, Y)
        assert exc.value.nodes == 100_000

    def test_root_bound_answers_without_a_node(self) -> None:
        # pigeonhole: simplex(n + 1) sends two points to one of simplex(n),
        # so every correspondence's distortion 1 meets the bound
        for n in range(6, 13):
            X, Y = simplex(n, 1), simplex(n + 1, 1)
            assert gh_lower_bound(X, Y) == Fraction(1, 2)
            res = gh_exact(X, Y)
            assert (res.distance, res.nodes_explored) == (Fraction(1, 2), 0)
        # the descent reaches the eccentricity bound on this probe pair
        X, Y = random_metric_space(9, seed=101), random_metric_space(9, seed=201)
        res = gh_exact(X, Y)
        assert (res.distance, res.nodes_explored) == (Fraction(67, 24), 0)
        assert oracle_distortion(rows(X), rows(Y), res.optimal.sorted_pairs()) == Fraction(67, 12)


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

    def test_no_side_is_too_large_to_search(self) -> None:
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
        ("1/2", 3), ("1/2", 7), ("1/2", 15), ("1/2", 31), ("1/2", 0), ("1/2", 0),
        ("1/2", 0), ("1/2", 0), ("1/6", 3), ("1/6", 3), ("29/24", 77), ("29/24", 77),
        ("7/2", 20), ("7/2", 20), ("11/8", 69), ("11/8", 76), ("35/8", 53), ("35/8", 53),
        ("11/12", 80), ("11/12", 80), ("7/6", 8), ("7/6", 9), ("13/6", 3),
        ("13/6", 4), ("13/12", 181), ("13/12", 17), ("5/6", 21), ("5/6", 20), ("11/2", 5),
        ("5/4", 19), ("11/12", 18), ("9/8", 6),
    ]  # fmt: skip
    WITNESS_DIGEST = "af7e5ea55d4a16e5"  # sha256 of the repr of every sorted witness

    def test_distances_nodes_and_witnesses(self) -> None:
        results = [gh_exact(X, Y, initial=init) for X, Y, init in pinned_corpus()]
        got = [(str(r.distance), r.nodes_explored) for r in results]
        assert got == self.DISTANCES_AND_NODES
        witnesses = [r.optimal.sorted_pairs() for r in results]
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16] == self.WITNESS_DIGEST

    @pytest.mark.parametrize(
        "sides, seeds, limits, stop",
        [
            ((6, 6), (5, 6), SolverLimits(node_budget=5),
             ("node budget 5 exhausted", 5, Fraction(17, 12), Fraction(35, 24))),
            ((8, 8), (314, 414), SolverLimits(node_budget=100),
             ("node budget 100 exhausted", 100, Fraction(5, 6), Fraction(29, 24))),
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

    # random 8x8 pairs on which _branch_and_bound searches deeply: three
    # solves of 2.7k-22k nodes and one stop at the default budget
    DEEP_SEEDS = (16, 34, 25, 14)
    DEEP_OUTCOMES = [("3/4", 131), ("17/12", 51), ("7/6", 80), ("29/24", 108)]
    DEEP_WITNESS_DIGEST = "afc057661a6e946a"  # sha256 of the repr of every sorted witness

    def test_deep_searches(self) -> None:
        results = [
            gh_exact(random_metric_space(8, seed=300 + s), random_metric_space(8, seed=400 + s))
            for s in self.DEEP_SEEDS
        ]
        assert [(str(r.distance), r.nodes_explored) for r in results] == self.DEEP_OUTCOMES
        witnesses = [r.optimal.sorted_pairs() for r in results]
        digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16]
        assert digest == self.DEEP_WITNESS_DIGEST

    def test_twelve_point_pair_solves(self) -> None:
        # unseeded, _branch_and_bound spends the default budget on this pair
        # and stops with the bracket [1/2, 35/24]
        X, Y = random_metric_space(12, seed=101), random_metric_space(12, seed=201)
        res = gh_exact(X, Y)
        assert (res.distance, res.nodes_explored) == (Fraction(2, 3), 214)
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
            assert list(IntegerView(d, 1).swap_classes) == brute_classes(d)

    def test_scaled_rows_keep_the_classes(self) -> None:
        # the solver reads each view's classes but searches common_rows,
        # scaled to the pair's common denominator
        rng = random.Random(78)
        Z = random_metric_space(4, seed=5)
        W = simplex_graft(Z, GraftParams(0, isolation_radius(Z, 0), 5))
        for X in (W, simplex(6, Fraction(1, 7)), random_space(rng, 6)):
            for Y in (FiniteMetricSpace.from_matrix([[0, Fraction(1, 11)], [Fraction(1, 11), 0]]), W):
                dx, dy, _ = common_rows(X, Y)
                assert list(X.view.swap_classes) == brute_classes(dx)
                assert list(Y.view.swap_classes) == brute_classes(dy)

    def test_each_side_is_classified_once(self, monkeypatch) -> None:
        # repeated searched solves of one pair, down each search, read the
        # classes each view computed on its first searched solve; a solve
        # answered at the root reads none
        prop = IntegerView.__dict__["swap_classes"]
        computed = []
        real = prop.func
        monkeypatch.setattr(prop, "func", lambda view: computed.append(view) or real(view))
        for n in (4, 7):
            X, Y = random_metric_space(n, seed=n), random_metric_space(n, seed=70 + n)
            for _ in range(3):
                assert gh_exact(X, Y).nodes_explored > 0
                assert gh_exact(Y, X).nodes_explored > 0
            assert computed == [X.view, Y.view]
            computed.clear()
        # simplex(7) against simplex(8) meets the root bound from the
        # descent's start, simplex(3) against simplex(4) from its seed
        assert gh_exact(simplex(7, 1), simplex(8, 1)).nodes_explored == 0
        assert gh_exact(simplex(3, 1), simplex(4, 1), initial=full_product(3, 4)).nodes_explored == 0
        assert computed == []


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
