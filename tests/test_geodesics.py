from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ghsegments import (
    DEFAULT_GRID,
    Correspondence,
    DomainError,
    distortion,
    endpoint_lifts,
    full_product,
    geodesic_samples,
    gh_exact,
    identity_correspondence,
    interpolate,
    minimize_correspondence,
    random_metric_space,
    simplex,
)
from tests.conftest import oracle_distortion, random_space, rows, run_python



class TestInterpolate:
    def test_midpoint_formula(self) -> None:
        X = random_metric_space(3, seed=21)
        Y = random_metric_space(3, seed=22)
        sigma = identity_correspondence(3)
        mid = interpolate(X, Y, sigma, Fraction(1, 2))
        pairs = mid.pairs
        for i, (x, y) in enumerate(pairs):
            for j, (xp, yp) in enumerate(pairs):
                want = (X.d(x, xp) + Y.d(y, yp)) / 2
                assert mid.realized.d(i, j) == want

    def test_identity_relation_collapses_to_x(self) -> None:
        X = random_metric_space(4, seed=23)
        sigma = identity_correspondence(4)
        for t in (Fraction(1, 4), Fraction(2, 3)):
            mid = interpolate(X, X, sigma, t)
            assert [list(r) for r in mid.realized.dist] == [list(r) for r in X.dist]

    def test_endpoints_return_inputs(self) -> None:
        X = random_metric_space(3, seed=24)
        Y = random_metric_space(2, seed=25)
        sigma = full_product(3, 2)
        assert interpolate(X, Y, sigma, Fraction(0)).realized == X
        assert interpolate(X, Y, sigma, Fraction(1)).realized == Y

    def test_out_of_range_t(self) -> None:
        X = random_metric_space(2, seed=26)
        sigma = identity_correspondence(2)
        with pytest.raises(DomainError):
            interpolate(X, X, sigma, Fraction(3, 2))

    def test_interior_point_labels_name_both_sides(self) -> None:
        X = simplex(2, Fraction(1))
        Y = simplex(2, Fraction(2))
        mid = interpolate(X, Y, identity_correspondence(2), Fraction(1, 2))
        assert mid.realized.labels == ("(p0,p0)", "(p1,p1)")

    def test_point_to_pair_midpoint(self) -> None:
        # interpolating a point against a 1-simplex halves the gap
        X = simplex(1, Fraction(1))
        Y = simplex(2, Fraction(1))
        sigma = full_product(1, 2)
        mid = interpolate(X, Y, sigma, Fraction(1, 2)).realized
        assert mid.n == 2 and mid.d(0, 1) == Fraction(1, 2)
        assert gh_exact(X, mid).distance == Fraction(1, 4)


class TestEndpointLifts:
    def test_distortion_split(self) -> None:
        rng = random.Random(650)
        for _ in range(20):
            X, Y = random_space(rng, rng.randint(2, 4)), random_space(rng, rng.randint(2, 4))
            res = gh_exact(X, Y)
            R = res.optimal
            t = Fraction(rng.randint(1, 3), 4)
            mid = interpolate(X, Y, R, t).realized
            left, right = endpoint_lifts(R)
            assert distortion(X, mid, left) == t * 2 * res.distance
            assert distortion(mid, Y, right) == (1 - t) * 2 * res.distance


class TestGeodesicSamples:
    def test_default_grid(self) -> None:
        assert DEFAULT_GRID == (
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(1),
        )

    def test_endpoints_recover_inputs(self) -> None:
        X = random_metric_space(3, seed=31)
        Y = random_metric_space(4, seed=32)
        res = gh_exact(X, Y)
        samples = geodesic_samples(
            X, Y, res.optimal, res.distance, ts=(Fraction(0), Fraction(1))
        )
        assert samples[0][0].realized == X
        assert samples[1][0].realized == Y

    def test_segment_identity_along_samples(self) -> None:
        # every certificate, the endpoints' included, matches fresh solves,
        # and its witnesses have the certified distortions
        rng = random.Random(777)
        for _ in range(10):
            X, Y = random_space(rng, rng.randint(2, 4)), random_space(rng, rng.randint(2, 4))
            res = gh_exact(X, Y)
            R, d = minimize_correspondence(res.optimal), res.distance
            for s, cert in geodesic_samples(X, Y, R, d):
                W = s.realized
                dx = gh_exact(X, W).distance
                dy = gh_exact(W, Y).distance
                assert dx + dy == d
                assert dx == s.t * d
                assert (cert.d_xz, cert.d_zy, cert.d_xy, cert.member) == (dx, dy, d, True)
                for A, B, sigma, value in (
                    (X, W, cert.witness_xz, dx),
                    (W, Y, cert.witness_zy, dy),
                    (X, Y, cert.witness_xy, d),
                ):
                    assert oracle_distortion(rows(A), rows(B), sigma.pairs) == 2 * value

    def test_rejects_non_correspondence_shape(self) -> None:
        X = random_metric_space(3, seed=41)
        Y = random_metric_space(3, seed=42)
        wrong = Correspondence.of(2, 2, (0, 0), (1, 1))
        with pytest.raises(DomainError):
            geodesic_samples(X, Y, wrong, gh_exact(X, Y).distance)

    def test_audit_flags_suboptimal_relation(self) -> None:
        X = simplex(2, Fraction(1))
        Y = simplex(2, Fraction(3))
        sloppy = full_product(2, 2)
        d = gh_exact(X, Y).distance
        # dis = 3 while 2 d_XY = 2, so the samples must be refused
        with pytest.raises(DomainError, match="not a geodesic witness"):
            geodesic_samples(X, Y, sloppy, d)

    def test_refusal_survives_python_O(self) -> None:
        script = """
import sys
from fractions import Fraction
from ghsegments import DomainError, full_product, geodesic_samples, simplex

assert False, "asserts are live"
X, Y = simplex(2, Fraction(1)), simplex(2, Fraction(3))
try:
    geodesic_samples(X, Y, full_product(2, 2), Fraction(1))
except DomainError as exc:
    print(type(exc).__name__, exc)
    sys.exit(0)
print("accepted")
sys.exit(1)
"""
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("DomainError correspondence has distortion 3")
