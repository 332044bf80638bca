from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ghsegments import segments
from ghsegments import (
    DomainError,
    GraftParams,
    HypothesisError,
    RationalInterval,
    StarParams,
    admissible_delta,
    admissible_mu,
    build_segment_family,
    certify_by_lifts,
    covering_number,
    distortion,
    full_product,
    gh_exact,
    interpolate,
    isolation_radius,
    lift_graft,
    lift_star,
    noncompactness_report,
    random_metric_space,
    segment_membership,
    simplex,
    simplex_graft,
    star_extension,
    transpose,
    validate_metric,
)
from tests.conftest import (
    count_calls,
    oracle_cover,
    oracle_distortion,
    random_correspondence,
    random_space,
    rows,
    run_python,
)


def midpoint_instance():
    """X, Y, a certified optimal correspondence, and the geodesic midpoint."""
    X = simplex(3, Fraction(1))
    Y = simplex(3, Fraction(2))
    res = gh_exact(X, Y)
    Z = interpolate(X, Y, res.optimal, Fraction(1, 2)).realized
    return X, Y, res, Z


class TestRationalInterval:
    def test_half_open_contains(self) -> None:
        w = RationalInterval(Fraction(0), Fraction(1, 2), lo_open=True, hi_open=False)
        assert w.contains(Fraction(1, 2))
        assert w.contains(Fraction(1, 100))
        assert not w.contains(Fraction(0))
        assert not w.contains(Fraction(2, 3))

    def test_str(self) -> None:
        w = RationalInterval(Fraction(0), Fraction(1, 2), lo_open=True, hi_open=True)
        assert str(w) == "(0, 1/2)"


class TestSegmentMembership:
    def test_endpoint_is_member(self) -> None:
        X = random_metric_space(3, seed=61)
        Y = random_metric_space(4, seed=62)
        cert = segment_membership(X, Y, X)
        assert cert.member and cert.d_xz == 0 and cert.gap == 0

    def test_geodesic_midpoint_is_member(self) -> None:
        X, Y, res, Z = midpoint_instance()
        cert = segment_membership(X, Y, Z)
        assert cert.member
        assert cert.d_xz == cert.d_zy == res.distance / 2
        assert cert.d_xy == res.distance

    def test_nonmember_reports_exact_gap(self) -> None:
        # a big simplex is far from both tiny endpoints
        X = simplex(2, Fraction(1))
        Y = simplex(2, Fraction(2))
        Z = simplex(2, Fraction(10))
        cert = segment_membership(X, Y, Z)
        assert not cert.member
        assert cert.gap == cert.d_xz + cert.d_zy - cert.d_xy > 0

    def test_witnesses_realize_certified_distances(self) -> None:
        X, Y, _, Z = midpoint_instance()
        cert = segment_membership(X, Y, Z)
        assert oracle_distortion(rows(X), rows(Z), cert.witness_xz.sorted_pairs()) == 2 * cert.d_xz
        assert oracle_distortion(rows(Z), rows(Y), cert.witness_zy.sorted_pairs()) == 2 * cert.d_zy
        assert oracle_distortion(rows(X), rows(Y), cert.witness_xy.sorted_pairs()) == 2 * cert.d_xy


class TestAdmissibleWindows:
    def test_delta_window_is_half_open(self) -> None:
        w = admissible_delta(Fraction(1, 4), Fraction(1, 2))
        assert (w.lo, w.hi, w.lo_open, w.hi_open) == (0, Fraction(1, 2), True, False)
        assert w.contains(w.hi) and not w.contains(Fraction(0))

    def test_delta_zero_distance_is_hypothesis_failure(self) -> None:
        with pytest.raises(HypothesisError):
            admissible_delta(Fraction(0), Fraction(1, 2))

    def test_mu_window_is_open(self) -> None:
        w = admissible_mu(Fraction(1, 4), Fraction(1, 2), Fraction(1))
        assert str(w) == "(0, 1/2)"
        assert not w.contains(w.hi)
        assert w.contains(Fraction(1, 4))

    def test_mu_zero_argument_is_hypothesis_failure(self) -> None:
        with pytest.raises(HypothesisError):
            admissible_mu(Fraction(1, 4), Fraction(0), Fraction(1))


class TestStarExtension:
    def test_small_radius_two_point_case(self) -> None:
        Z = simplex(2, Fraction(1))
        Zs = star_extension(Z, StarParams(z0=0, delta=Fraction(1, 2)))
        # z1 sits outside the closed 1/2-ball around z0
        assert Zs.d(2, 0) == Fraction(1, 2)
        assert Zs.d(2, 1) == Fraction(1)
        assert Zs.labels == ("p0", "p1", "p0*")

    def test_radius_covering_everything(self) -> None:
        Z = simplex(2, Fraction(1))
        Zs = star_extension(Z, StarParams(z0=0, delta=Fraction(1)))
        assert Zs.d(2, 0) == Zs.d(2, 1) == 1

    def test_any_positive_radius_yields_a_metric(self) -> None:
        rng = random.Random(909)
        for _ in range(40):
            Z = random_space(rng, rng.randint(1, 5))
            z0 = rng.randrange(Z.n)
            diam = max(max(r) for r in Z.dist)
            delta = (diam or Fraction(1)) * Fraction(rng.randint(1, 12), 8)
            Zs = star_extension(Z, StarParams(z0=z0, delta=delta))
            assert validate_metric(rows(Zs)).ok
            assert Zs.n == Z.n + 1

    def test_label_freshening(self) -> None:
        Z = simplex(2, Fraction(1))
        Zs = star_extension(Z, StarParams(z0=0, delta=Fraction(1)))
        Zss = star_extension(Zs, StarParams(z0=0, delta=Fraction(1)))
        assert len(set(Zss.labels)) == Zss.n

    def test_nonpositive_radius_rejected(self) -> None:
        with pytest.raises(DomainError):
            star_extension(simplex(2, Fraction(1)), StarParams(z0=0, delta=Fraction(0)))


class TestLiftStar:
    def test_full_product_lifts_to_full_product(self) -> None:
        R = full_product(2, 3)
        Rs = lift_star(R, z0=1)
        assert Rs.pairs == frozenset((x, y) for x in range(2) for y in range(4))

    def test_distortion_never_grows_on_admissible_radius(self) -> None:
        rng = random.Random(4040)
        checked = 0
        while checked < 60:
            X = random_space(rng, rng.randint(2, 4))
            Z = random_space(rng, rng.randint(2, 4))
            d = gh_exact(X, Z).distance
            if d == 0:
                continue
            checked += 1
            window = admissible_delta(d, d)
            delta = window.hi * Fraction(rng.randint(1, 4), 4)
            assert window.contains(delta)
            z0 = rng.randrange(Z.n)
            Zs = star_extension(Z, StarParams(z0=z0, delta=delta))
            R = random_correspondence(rng, X.n, Z.n)
            Rs = lift_star(R, z0=z0)
            assert distortion(X, Zs, Rs) <= distortion(X, Z, R)

    def test_lifted_point_indexes_the_extension(self) -> None:
        R = full_product(2, 2)
        Rs = lift_star(R, z0=0)
        assert Rs.ny == 3 and (0, 2) in Rs.pairs and (1, 2) in Rs.pairs


class TestSimplexGraft:
    def test_two_point_case_table(self) -> None:
        Z = simplex(2, Fraction(1))
        W = simplex_graft(Z, GraftParams(z_star=1, mu=Fraction(1, 2), m=3))
        assert W.n == 4
        assert W.labels == ("p0", "p1#1", "p1#2", "p1#3")
        for v, w in itertools.combinations(range(1, 4), 2):
            assert W.d(v, w) == Fraction(1, 2)
        for v in range(1, 4):
            assert W.d(0, v) == 1

    def test_single_vertex_graft_is_isometric_to_source(self) -> None:
        rng = random.Random(110)
        for _ in range(10):
            Z = random_space(rng, rng.randint(2, 4))
            W = simplex_graft(Z, GraftParams(z_star=rng.randrange(Z.n), mu=Fraction(1, 7), m=1))
            assert W.n == Z.n
            assert gh_exact(W, Z).distance == 0

    def test_graft_vertices_form_scaled_simplex(self) -> None:
        rng = random.Random(111)
        for _ in range(20):
            Z = random_space(rng, rng.randint(2, 4))
            z_star = rng.randrange(Z.n)
            s = isolation_radius(Z, z_star)
            mu = 2 * s * Fraction(rng.randint(1, 4), 5)
            m = rng.randint(2, 5)
            W = simplex_graft(Z, GraftParams(z_star, mu, m))
            base = Z.n - 1
            for v, w in itertools.combinations(range(base, base + m), 2):
                assert W.d(v, w) == mu
            assert validate_metric(rows(W)).ok

    def test_radius_above_twice_isolation_rejected(self) -> None:
        Z = simplex(2, Fraction(1))
        with pytest.raises(DomainError):
            simplex_graft(Z, GraftParams(z_star=0, mu=Fraction(5, 2), m=2))

    def test_boundary_radius_is_accepted(self) -> None:
        Z = simplex(2, Fraction(1))
        W = simplex_graft(Z, GraftParams(z_star=0, mu=Fraction(2), m=2))
        assert validate_metric(rows(W)).ok

    def test_isolation_radius_of_graft_vertices(self) -> None:
        # when mu is below the cross distances, each graft vertex's nearest
        # neighbour is another graft vertex
        Z = simplex(2, Fraction(1))
        W = simplex_graft(Z, GraftParams(z_star=1, mu=Fraction(1, 2), m=4))
        for v in range(1, 5):
            assert isolation_radius(W, v) == Fraction(1, 2)


class TestLiftGraft:
    def test_single_vertex_lift_is_identity(self) -> None:
        rng = random.Random(112)
        R = random_correspondence(rng, 3, 3)
        V = lift_graft(R, z_star=2, m=1)
        assert V.pairs == R.pairs

    def test_distortion_never_grows_on_admissible_radius(self) -> None:
        rng = random.Random(113)
        checked = 0
        while checked < 60:
            X = random_space(rng, rng.randint(2, 4))
            Z = random_space(rng, rng.randint(2, 4))
            d = gh_exact(X, Z).distance
            if d == 0:
                continue
            checked += 1
            z_star = rng.randrange(Z.n)
            s = isolation_radius(Z, z_star)
            window = admissible_mu(d, d, s)
            mu = window.hi * Fraction(rng.randint(1, 4), 5)
            assert window.contains(mu)
            m = rng.randint(1, 4)
            W = simplex_graft(Z, GraftParams(z_star, mu, m))
            R = random_correspondence(rng, X.n, Z.n)
            V = lift_graft(R, z_star=z_star, m=m)
            assert distortion(X, W, V) <= distortion(X, Z, R)

    def test_restriction_away_from_graft_matches_source(self) -> None:
        # pairs not touching the graft keep their exact source distances,
        # so the restricted distortion never exceeds dis R
        rng = random.Random(114)
        for _ in range(20):
            X = random_space(rng, rng.randint(2, 4))
            Z = random_space(rng, rng.randint(2, 4))
            z_star = rng.randrange(Z.n)
            m = rng.randint(2, 4)
            R = random_correspondence(rng, X.n, Z.n)
            V = lift_graft(R, z_star=z_star, m=m)
            mu = isolation_radius(Z, z_star)
            W = simplex_graft(Z, GraftParams(z_star, mu, m))
            base = Z.n - 1
            untouched = [(x, w) for x, w in V.sorted_pairs() if w < base]
            dis_r = distortion(X, Z, R)
            assert oracle_distortion(rows(X), rows(W), untouched) <= dis_r

    def test_fans_graft_point_to_every_vertex(self) -> None:
        R = full_product(2, 2)
        V = lift_graft(R, z_star=0, m=3)
        # old point 1 shifts down to 0; vertices take indices 1..3
        assert V.ny == 4
        assert V.pairs == frozenset(
            [(x, 0) for x in range(2)] + [(x, v) for x in range(2) for v in (1, 2, 3)]
        )


class TestFamilyAndReport:
    def test_family_certificates_all_pass(self) -> None:
        X, Y, _, Z = midpoint_instance()
        fam = build_segment_family(X, Y, Z, ms=(1, 2, 3, 4))
        assert [e.space.n for e in fam.entries] == [3, 4, 5, 6]
        assert all(e.certificate.member for e in fam.entries)

    def test_family_solves_d_xy_once(self, monkeypatch) -> None:
        X, Y, _, Z = midpoint_instance()
        calls = []

        def counting(A, B, **kwargs):
            calls.append((A, B))
            return gh_exact(A, B, **kwargs)

        monkeypatch.setattr(segments, "gh_exact", counting)
        xy = gh_exact(X, Y)
        for ms in ((1, 2, 3), range(1, 41)):
            calls.clear()
            fam = build_segment_family(X, Y, Z, ms=ms)
            # three solves certify Z; every member is certified by its lifts
            assert len(calls) == 3
            assert sum(A is X and B is Y for A, B in calls) == 1
            assert [e.m for e in fam.entries] == list(ms)
            for e in fam.entries:
                assert e.certificate.d_xy == fam.d_xy == xy.distance
                assert distortion(X, Y, e.certificate.witness_xy) == 2 * xy.distance

    def test_lift_certificates_match_fresh_solves(self) -> None:
        # interior midpoints of random pairs: every member's lifted
        # certificate agrees with a from-scratch solve, and its witnesses
        # realize the distances under the independent distortion oracle
        rng = random.Random(1515)
        audited = 0
        while audited < 160:
            X = random_space(rng, rng.randint(2, 4))
            Y = random_space(rng, rng.randint(2, 4))
            res = gh_exact(X, Y)
            if res.distance == 0:
                continue
            Z = interpolate(X, Y, res.optimal, Fraction(1, 2)).realized
            fam = build_segment_family(X, Y, Z, ms=(1, 2, 3, 4))
            for e in fam.entries:
                cert, W = e.certificate, e.space
                assert cert.member and cert.d_xz == cert.d_zy == res.distance / 2
                assert gh_exact(X, W).distance == cert.d_xz
                assert gh_exact(W, Y).distance == cert.d_zy
                xw = oracle_distortion(rows(X), rows(W), cert.witness_xz.sorted_pairs())
                wy = oracle_distortion(rows(W), rows(Y), cert.witness_zy.sorted_pairs())
                assert (xw, wy) == (2 * cert.d_xz, 2 * cert.d_zy)
                audited += 1

    def test_default_limits_family_is_not_capped_by_side(self) -> None:
        # W(mu, 60) has 62 points; only the three base solves are searched,
        # and each member is certified by its lifts
        X, Y, res, Z = midpoint_instance()
        rep = noncompactness_report(X, Y, Z, m_max=60)
        assert [e.m for e in rep.entries] == list(range(1, 61))
        assert rep.entries[-1].space.n == Z.n - 1 + 60
        assert rep.all_members and rep.cov_at_least_m
        for e in rep.entries:
            assert e.certificate.d_xz == e.certificate.d_zy == res.distance / 2
            assert e.cov >= e.m

    def test_uniform_family_matches_materialised_members(self) -> None:
        # the family's numbers come from one check at m <= 3; each member
        # must equal what building W(mu, m), certifying its own lifts and
        # covering it give, at every graft point of random midpoints
        rng = random.Random(1616)
        ms = (1, 2, 3, 4, 7, 15, 60)
        pairs = members = 0
        while pairs < 6:
            X = random_space(rng, rng.randint(2, 5))
            Y = random_space(rng, rng.randint(2, 5))
            res = gh_exact(X, Y)
            if res.distance == 0:
                continue
            pairs += 1
            Z = interpolate(X, Y, res.optimal, Fraction(1, 2)).realized
            base = segment_membership(X, Y, Z)
            for zs in range(Z.n):
                fam = build_segment_family(X, Y, Z, ms=ms, z_star=zs)
                assert [e.m for e in fam.entries] == list(ms)
                for e in fam.entries:
                    W = simplex_graft(Z, GraftParams(zs, fam.mu, e.m))
                    xw = lift_graft(base.witness_xz, zs, e.m)
                    wy = transpose(lift_graft(transpose(base.witness_zy), zs, e.m))
                    cert = certify_by_lifts(X, Y, W, xw, wy, base.d_xy, base.witness_xy)
                    cov = covering_number(W, fam.eps)
                    got = e.certificate
                    assert (got.d_xz, got.d_zy, got.d_xy, e.member, e.cov) == (
                        cert.d_xz, cert.d_zy, cert.d_xy, cert.member, cov
                    )
                    assert e.points == W.n and e.space == W
                    assert (got.witness_xz, got.witness_zy) == (xw, wy)
                    dw = rows(W)
                    assert oracle_distortion(rows(X), dw, got.witness_xz.sorted_pairs()) == 2 * got.d_xz
                    assert oracle_distortion(dw, rows(Y), got.witness_zy.sorted_pairs()) == 2 * got.d_zy
                    if e.m <= 7:
                        assert cov == oracle_cover(dw, fam.eps)
                    members += 1
        assert members >= 6 * 2 * len(ms)

    def test_huge_family_is_sized_without_building_members(self, monkeypatch) -> None:
        X, Y, _, Z = midpoint_instance()
        calls = count_calls(monkeypatch, segments, "simplex_graft", "covering_number")
        rep = noncompactness_report(X, Y, Z, m_max=10_000)
        assert calls["simplex_graft"] <= 2 and calls["covering_number"] == 1
        last = rep.entries[-1]
        cov_z = covering_number(Z, rep.eps)
        assert last.m == 10_000
        assert last.cov == 10_000 + cov_z - 1
        assert last.points == Z.n - 1 + 10_000
        assert rep.all_members and rep.cov_at_least_m
        assert calls["simplex_graft"] <= 2  # reading member and cov built nothing

    def test_untied_lift_is_refused_without_asserts(self) -> None:
        # under python -O a dilating lift must still be refused; an assert
        # would be stripped and let the family through
        script = """
import sys
from fractions import Fraction
from ghsegments import (
    Correspondence, ToolkitError, build_segment_family, gh_exact, interpolate,
    segments, simplex,
)

assert False, "asserts are live"
real = segments.lift_graft

def dilating(R, z_star, m):
    L = real(R, z_star, m)
    extra = min(w for w in range(L.ny) if (0, w) not in L.pairs)
    return Correspondence(L.pairs | {(0, extra)}, L.nx, L.ny)

segments.lift_graft = dilating
X, Y = simplex(3, Fraction(1)), simplex(3, Fraction(2))
Z = interpolate(X, Y, gh_exact(X, Y).optimal, Fraction(1, 2)).realized
try:
    build_segment_family(X, Y, Z, ms=(2,))
except ToolkitError as exc:
    print(type(exc).__name__, exc)
    sys.exit(0)
print("accepted")
sys.exit(1)
"""
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("ToolkitError lifted witnesses give")

    def test_family_on_nonmember_is_hypothesis_failure(self) -> None:
        X = simplex(2, Fraction(1))
        Y = simplex(2, Fraction(2))
        Z = simplex(2, Fraction(10))
        with pytest.raises(HypothesisError):
            build_segment_family(X, Y, Z, ms=(2,))

    def test_family_on_endpoint_is_hypothesis_failure(self) -> None:
        # an endpoint member has d_XZ = 0, so no admissible radius exists
        X, Y, _, _ = midpoint_instance()
        with pytest.raises(HypothesisError):
            build_segment_family(X, Y, X, ms=(2,))

    def test_report_covering_numbers_grow(self) -> None:
        X, Y, _, Z = midpoint_instance()
        rep = noncompactness_report(X, Y, Z, m_max=5)
        assert rep.eps == rep.mu / 4
        assert rep.all_members and rep.cov_at_least_m
        for entry in rep.entries:
            assert entry.cov >= entry.m
            assert entry.cov == oracle_cover(rows(entry.space), rep.eps)

    def test_report_mu_respects_window(self) -> None:
        X, Y, res, Z = midpoint_instance()
        rep = noncompactness_report(X, Y, Z, m_max=2)
        zs = Z.index_of(rep.z_star_label)
        window = admissible_mu(
            res.distance / 2, res.distance / 2, isolation_radius(Z, zs)
        )
        assert window.contains(rep.mu)

    def test_explicit_mu_outside_window_rejected(self) -> None:
        X, Y, _, Z = midpoint_instance()
        with pytest.raises(HypothesisError):
            noncompactness_report(X, Y, Z, m_max=2, mu=Fraction(100))

    def test_custom_graft_point(self) -> None:
        X, Y, _, Z = midpoint_instance()
        rep = noncompactness_report(X, Y, Z, m_max=2, z_star=1)
        assert rep.z_star == 1 and rep.z_star_label == Z.labels[1]
