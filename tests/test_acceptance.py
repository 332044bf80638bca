"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Every criterion is checked at full stated volume with seeded randomness,
so a pass here is reproducible bit for bit. Each test prints a PASS line
summarizing the volume checked (visible with pytest -s).
"""

from __future__ import annotations

import itertools
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

from ghsegments import (
    GraftParams,
    PointSubset,
    StarParams,
    admissible_delta,
    admissible_mu,
    build_segment_family,
    covering_number,
    diameter,
    distortion,
    endpoint_lifts,
    gh_exact,
    hausdorff_distance,
    identity_correspondence,
    interpolate,
    isolation_radius,
    lift_graft,
    lift_star,
    minimize_correspondence,
    random_metric_space,
    simplex,
    simplex_graft,
    star_extension,
    validate_metric,
)
from ghsegments.config import KEYS, RunConfig
from tests.conftest import (
    oracle_cover,
    oracle_gh,
    random_correspondence,
    random_space,
    rows,
)


def test_01_exact_solver_methods_agree_on_200_random_pairs() -> None:
    rng = random.Random(20260816)
    shapes = [(a, b) for a in range(1, 17) for b in range(1, 17) if a * b <= 16]
    started = time.monotonic()
    for _ in range(200):
        nx, ny = rng.choice(shapes)
        X, Y = random_space(rng, nx), random_space(rng, ny)
        res = gh_exact(X, Y)
        assert res.distance == oracle_gh(rows(X), rows(Y))
        assert distortion(X, Y, res.optimal) == 2 * res.distance
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS: 200 random pairs, solver equals the enumeration oracle, {elapsed:.1f}s")


def test_02_gh_symmetry_and_triangle_on_100_random_triples() -> None:
    rng = random.Random(90210)
    for _ in range(100):
        X = random_space(rng, rng.randint(1, 4))
        Y = random_space(rng, rng.randint(1, 4))
        Z = random_space(rng, rng.randint(1, 4))
        dxy = gh_exact(X, Y).distance
        dyx = gh_exact(Y, X).distance
        dyz = gh_exact(Y, Z).distance
        dxz = gh_exact(X, Z).distance
        assert dxy == dyx
        assert dxz <= dxy + dyz
    print("PASS: 100 random triples, symmetry and triangle exact")


def test_03_geodesic_segment_identities_on_50_random_pairs() -> None:
    rng = random.Random(31415)
    grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for _ in range(50):
        X = random_space(rng, rng.randint(2, 4))
        Y = random_space(rng, rng.randint(2, 4))
        res = gh_exact(X, Y)
        R, d = minimize_correspondence(res.optimal), res.distance
        assert distortion(X, Y, R) == 2 * d  # still certified optimal
        realized = {t: interpolate(X, Y, R, t).realized for t in grid}
        left, right = endpoint_lifts(R)
        for t in grid:
            dx = gh_exact(X, realized[t], initial=left).distance
            dy = gh_exact(realized[t], Y, initial=right).distance
            assert dx + dy == d
            assert dx == t * d and dy == (1 - t) * d
        for s, t in itertools.combinations(grid, 2):
            nat = identity_correspondence(realized[s].n)
            dst = gh_exact(realized[s], realized[t], initial=nat).distance
            assert dst == abs(s - t) * d
    print("PASS: 50 random pairs, additivity and proportionality exact at t in {1/4, 1/2, 3/4}")


def test_04_star_extension_inequalities_on_100_random_instances() -> None:
    rng = random.Random(999)
    checked = 0
    while checked < 100:
        X = random_space(rng, rng.randint(2, 5))
        Z = random_space(rng, rng.randint(2, 4))
        res = gh_exact(X, Z)
        if res.distance == 0:
            continue
        checked += 1
        window = admissible_delta(res.distance, res.distance)
        delta = window.hi * Fraction(rng.randint(1, 4), 4)
        assert window.contains(delta)
        z0 = rng.randrange(Z.n)
        Zs = star_extension(Z, StarParams(z0=z0, delta=delta))
        assert validate_metric(rows(Zs)).ok
        R = random_correspondence(rng, X.n, Z.n)
        assert distortion(X, Zs, lift_star(R, z0)) <= distortion(X, Z, R)
        seeded = lift_star(res.optimal, z0)
        d_star = gh_exact(X, Zs, initial=seeded).distance
        assert d_star <= res.distance
    print("PASS: 100 random star extensions, lift never dilates, distance never grows")


def _midpoint_instance():
    X = simplex(3, Fraction(1))
    Y = simplex(3, Fraction(2))
    res = gh_exact(X, Y)
    Z = interpolate(X, Y, res.optimal, Fraction(1, 2)).realized
    return X, Y, res, Z


def test_05_graft_family_membership_and_lift_on_designed_midpoint() -> None:
    X, Y, res, Z = _midpoint_instance()
    fam = build_segment_family(X, Y, Z, ms=(2, 3, 4, 5))
    d_xz = gh_exact(X, Z).distance
    d_zy = gh_exact(Z, Y).distance
    z_star = max(range(Z.n), key=lambda i: (isolation_radius(Z, i), -i))
    mu_window = admissible_mu(d_xz, d_zy, isolation_radius(Z, z_star))
    mu = mu_window.hi / 2
    rng = random.Random(5050)
    lifted_checked = 0
    for e, m in zip(fam.entries, (2, 3, 4, 5)):
        W, cert = e.space, e.certificate
        assert cert.member
        assert cert.d_xz + cert.d_zy == cert.d_xy
        vertices = [i for i, lab in enumerate(W.labels) if "#" in lab]
        assert len(vertices) == m
        for v, w in itertools.combinations(vertices, 2):
            assert W.d(v, w) == mu  # isometric mu-simplex inside W
        for _ in range(30):
            R = random_correspondence(rng, X.n, Z.n)
            V = lift_graft(R, z_star=z_star, m=m)
            assert distortion(X, W, V) <= distortion(X, Z, R)
            lifted_checked += 1
    assert lifted_checked == 120
    print("PASS: m in {2,3,4,5} all segment members with exact mu-simplices, 120 lifted correspondences never dilate")


def test_06_covering_number_blow_up_breaks_uniform_bounds() -> None:
    X, Y, _, Z = _midpoint_instance()
    d_xz = gh_exact(X, Z).distance
    d_zy = gh_exact(Z, Y).distance
    z_star = max(range(Z.n), key=lambda i: (isolation_radius(Z, i), -i))
    mu = admissible_mu(d_xz, d_zy, isolation_radius(Z, z_star)).hi / 2
    eps = mu / 4
    covs = []
    for m in (2, 3, 4, 5):
        W = simplex_graft(Z, GraftParams(z_star, mu, m))
        cov = covering_number(W, eps)
        assert cov == oracle_cover(rows(W), eps)
        assert cov >= m
        covs.append(cov)
    assert covs == sorted(covs)  # grows with m, so no uniform bound exists
    print(f"PASS: cov(W, mu/4) = {covs} >= (2,3,4,5), unbounded in m")


def test_07_known_closed_forms() -> None:
    rng = random.Random(777)
    point = simplex(1, Fraction(1))
    for _ in range(50):
        X = random_space(rng, rng.randint(1, 16))
        assert gh_exact(point, X).distance == diameter(X) / 2
    small = gh_exact(simplex(2, Fraction(1)), simplex(3, Fraction(1)))
    assert small.distance == oracle_gh(rows(simplex(2, Fraction(1))), rows(simplex(3, Fraction(1))))
    assert small.distance == Fraction(1, 2)
    lam, kap = Fraction(7, 2), Fraction(4, 3)
    for n in (2, 3, 4):
        got = gh_exact(simplex(n, lam), simplex(n, kap)).distance
        assert got == abs(lam - kap) / 2
        if n <= 3:
            assert got == oracle_gh(rows(simplex(n, lam)), rows(simplex(n, kap)))
    print("PASS: point-space, unequal simplices, and scaled simplex closed forms all exact")


def test_08_hausdorff_metric_axioms_over_all_subset_triples() -> None:
    for seed in (1251, 3407):
        X = random_metric_space(5, seed=seed)
        subsets = [
            PointSubset(X, frozenset(c))
            for r in range(1, 6)
            for c in itertools.combinations(range(5), r)
        ]
        assert len(subsets) == 31
        table = {}
        for A in subsets:
            for B in subsets:
                res = hausdorff_distance(X, A, B)
                table[A.indices, B.indices] = res.value
        for A in subsets:
            for B in subsets:
                ab = table[A.indices, B.indices]
                assert ab == table[B.indices, A.indices]
                assert (ab == 0) == (A.indices == B.indices)
                for C in subsets:
                    assert table[A.indices, C.indices] <= ab + table[B.indices, C.indices]
    print("PASS: 2 random 5-point spaces, all 31^3 subset triples satisfy the axioms")


def test_09_readme_python_blocks_run() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    print(f"PASS: {len(blocks)} python block(s) of README.md run clean")


def test_10_readme_config_table_matches_runconfig() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | flag | value | default |\n", 1)[1]
    lines = list(itertools.takewhile(lambda line: line.startswith("|"), table.splitlines()))
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines[1:]]
    assert [row[0].strip("`") for row in cells] == list(KEYS)
    defaults = RunConfig().to_jsonable()
    for row in cells:
        key = row[0].strip("`")
        assert json.loads(row[3].strip("`")) == defaults[key], key
    print(f"PASS: README's config table lists the {len(KEYS)} keys with RunConfig's defaults")
