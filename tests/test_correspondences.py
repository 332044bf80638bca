from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ghsegments import (
    Correspondence,
    DomainError,
    certify_by_lifts,
    distortion,
    full_product,
    geodesic_samples,
    gh_exact,
    identity_correspondence,
    image,
    interpolate,
    is_correspondence,
    minimize_correspondence,
    preimage,
    random_metric_space,
    simplex,
    transpose,
)
from ghsegments.formats import correspondence_to_jsonable
from tests.conftest import (
    oracle_distortion,
    random_correspondence,
    random_space,
    rows,
    run_python,
)


class TestIsCorrespondence:
    def test_single_pair_between_singletons(self) -> None:
        assert is_correspondence({(0, 0)}, 1, 1)

    def test_missing_left_point(self) -> None:
        assert not is_correspondence({(0, 0)}, 2, 1)

    def test_full_product_always_onto(self) -> None:
        pairs = {(x, y) for x in range(3) for y in range(2)}
        assert is_correspondence(pairs, 3, 2)

    def test_constructor_enforces_onto(self) -> None:
        with pytest.raises(DomainError):
            Correspondence.of(2, 1, (0, 0))


class TestDistortion:
    def test_identity_is_zero(self) -> None:
        X = random_metric_space(4, seed=1)
        assert distortion(X, X, identity_correspondence(4)) == 0

    def test_point_against_space_gives_diameter(self) -> None:
        X = random_metric_space(5, seed=9)
        point = simplex(1, Fraction(1))
        sigma = full_product(1, 5)
        assert distortion(point, X, sigma) == max(max(r) for r in X.dist)

    def test_matches_quadruple_loop_oracle(self) -> None:
        rng = random.Random(77)
        for _ in range(50):
            X = random_space(rng, rng.randint(1, 5))
            Y = random_space(rng, rng.randint(1, 5))
            # the full product's distortion is read off the diameters
            for sigma in (random_correspondence(rng, X.n, Y.n), full_product(X.n, Y.n)):
                got = distortion(X, Y, sigma)
                assert got == oracle_distortion(rows(X), rows(Y), sigma.sorted_pairs())

    def test_out_of_range_pair_rejected(self) -> None:
        X = simplex(2, Fraction(1))
        with pytest.raises(DomainError):
            # onto its own 1 x 6 shape, so only the shape check refuses it
            distortion(X, X, Correspondence.of(1, 6, *((0, j) for j in range(6))))


class TestShapeCheck:
    """Every route that takes a witness with its two spaces refuses one
    whose nx or ny is not the spaces' size, even when all of its pairs
    address points of both spaces."""

    X = random_metric_space(3, seed=41)
    Y = random_metric_space(3, seed=42)
    ROUTES = {
        "distortion": distortion,
        "interpolate": lambda X, Y, R: interpolate(X, Y, R, Fraction(1, 3)),
        "interpolate-endpoint": lambda X, Y, R: interpolate(X, Y, R, 1),
        "gh_exact-initial": lambda X, Y, R: gh_exact(X, Y, initial=R),
        "geodesic_samples": lambda X, Y, R: geodesic_samples(
            X, Y, R, gh_exact(X, Y).distance
        ),
        "certify_by_lifts-xy": lambda X, Y, R: certify_by_lifts(
            X, Y, X, identity_correspondence(3), gh_exact(X, Y).optimal,
            gh_exact(X, Y).distance, R,
        ),
        "correspondence_to_jsonable": lambda X, Y, R: correspondence_to_jsonable(R, X, Y),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "R",
        [
            Correspondence.of(2, 3, (0, 0), (1, 1), (1, 2)),
            Correspondence.of(3, 2, (0, 0), (1, 1), (2, 1)),
        ],
        ids=["nx-short", "ny-short"],
    )
    def test_in_range_witness_of_wrong_shape_refused(self, route, R) -> None:
        with pytest.raises(DomainError, match="shape does not match"):
            self.ROUTES[route](self.X, self.Y, R)

    def test_lifts_do_not_certify_a_nonmember(self) -> None:
        # the 2 x 2 witnesses name only two of W's three points, so their
        # halved distortion 1/2 is no bound on d_XW = 1; under -O as well
        script = """
import sys
from fractions import Fraction
from ghsegments import Correspondence, DomainError, certify_by_lifts, gh_exact, simplex

assert False, "asserts are live"
X, Y, W = simplex(2, Fraction(1)), simplex(2, Fraction(3)), simplex(3, Fraction(2))
two = Correspondence.of(2, 2, (0, 0), (1, 1))
xy = gh_exact(X, Y)
try:
    certify_by_lifts(X, Y, W, two, two, xy.distance, xy.optimal)
except DomainError as exc:
    print(type(exc).__name__, exc)
    sys.exit(0)
print("accepted")
sys.exit(1)
"""
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("DomainError correspondence shape does not match")


class TestRelationAlgebra:
    def test_preimage_of_full_product(self) -> None:
        sigma = full_product(3, 2)
        assert preimage(sigma, 1) == frozenset({0, 1, 2})

    def test_preimage_of_diagonal(self) -> None:
        sigma = identity_correspondence(2)
        assert preimage(sigma, 1) == frozenset({1})

    def test_preimage_union_covers_left(self) -> None:
        rng = random.Random(5)
        for _ in range(20):
            nx, ny = rng.randint(1, 5), rng.randint(1, 5)
            sigma = random_correspondence(rng, nx, ny)
            covered = frozenset().union(*(preimage(sigma, y) for y in range(ny)))
            assert covered == frozenset(range(nx))

    def test_image_mirrors_preimage(self) -> None:
        sigma = Correspondence.of(2, 2, (0, 0), (0, 1), (1, 1))
        assert image(sigma, 0) == frozenset({0, 1})
        assert image(sigma, 1) == frozenset({1})

    def test_transpose_involution(self) -> None:
        rng = random.Random(6)
        sigma = random_correspondence(rng, 4, 3)
        assert transpose(transpose(sigma)).pairs == sigma.pairs
        assert transpose(sigma).pairs == frozenset(
            (y, x) for x, y in sigma.pairs
        )

    def test_transpose_swaps_distortion_sides(self) -> None:
        rng = random.Random(8)
        X, Y = random_space(rng, 3), random_space(rng, 4)
        sigma = random_correspondence(rng, 3, 4)
        assert distortion(X, Y, sigma) == distortion(Y, X, transpose(sigma))

    def test_empty_relation_rejected(self) -> None:
        with pytest.raises(DomainError):
            Correspondence(frozenset(), 0, 0)


class TestMinimize:
    def test_full_product_shrinks_to_star_shape(self) -> None:
        sigma = minimize_correspondence(full_product(3, 4))
        assert is_correspondence(sigma.pairs, 3, 4)
        assert len(sigma) <= 3 + 4
        assert all(
            len(preimage(sigma, y)) == 1 or len(image(sigma, x)) == 1
            for x, y in sigma.pairs
        )

    def test_never_increases_distortion(self) -> None:
        rng = random.Random(313)
        for _ in range(40):
            X, Y = random_space(rng, rng.randint(1, 5)), random_space(rng, rng.randint(1, 5))
            sigma = random_correspondence(rng, X.n, Y.n)
            small = minimize_correspondence(sigma)
            assert small.pairs <= sigma.pairs
            assert distortion(X, Y, small) <= distortion(X, Y, sigma)

    def test_already_minimal_is_unchanged(self) -> None:
        sigma = identity_correspondence(4)
        assert minimize_correspondence(sigma).pairs == sigma.pairs

    def test_deterministic(self) -> None:
        sigma = full_product(4, 4)
        assert (
            minimize_correspondence(sigma).sorted_pairs()
            == minimize_correspondence(sigma).sorted_pairs()
        )
