"""Shared oracles and generators.

The oracle functions here are deliberately independent of the package
internals: plain nested loops and subset enumeration over raw Fraction
matrices. Tests compare package output against them exactly.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import ghsegments
from ghsegments import Correspondence, FiniteMetricSpace, random_metric_space

Matrix = list[list[Fraction]]


def rows(space: FiniteMetricSpace) -> Matrix:
    return [list(r) for r in space.dist]


def oracle_distortion(dX: Matrix, dY: Matrix, pairs) -> Fraction:
    """Quadruple loop over related pairs."""
    worst = Fraction(0)
    for (x, y), (xp, yp) in itertools.product(pairs, repeat=2):
        gap = abs(dX[x][xp] - dY[y][yp])
        if gap > worst:
            worst = gap
    return worst


def oracle_gh(dX: Matrix, dY: Matrix) -> Fraction:
    """Enumerate every subset of the cell product, filter correspondences.

    Scales to integers first so the inner loop stays cheap; only usable
    for nx*ny up to about 16.
    """
    nx, ny = len(dX), len(dY)
    scale = lcm(*(v.denominator for row in dX + dY for v in row), 1)
    iX = [[int(v * scale) for v in row] for row in dX]
    iY = [[int(v * scale) for v in row] for row in dY]
    cells = [(x, y) for x in range(nx) for y in range(ny)]
    full_x, full_y = set(range(nx)), set(range(ny))
    best: int | None = None
    for mask in range(1, 1 << len(cells)):
        sub = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if {x for x, _ in sub} != full_x or {y for _, y in sub} != full_y:
            continue
        dis = max(abs(iX[x][xp] - iY[y][yp]) for x, y in sub for xp, yp in sub)
        if best is None or dis < best:
            best = dis
    assert best is not None
    return Fraction(best, 2 * scale)


def oracle_validate(d: Matrix) -> tuple[tuple, ...]:
    """Every axiom failure of a square Fraction matrix, by plain loops.

    Entries are (axiom, witness, lhs, rhs): the diagonal first, then each
    pair i < j, then each pair i < k through every middle point j.
    """
    n = len(d)
    bad = []
    for i in range(n):
        if d[i][i] != 0:
            bad.append(("zero_diagonal", (i,), d[i][i], Fraction(0)))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                bad.append(("symmetry", (i, j), d[i][j], d[j][i]))
            elif d[i][j] == 0:
                bad.append(("positivity", (i, j), Fraction(0), Fraction(0)))
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j != i and j != k and d[i][k] > d[i][j] + d[j][k]:
                    bad.append(("triangle", (i, j, k), d[i][k], d[i][j] + d[j][k]))
    return tuple(bad)


def oracle_hausdorff(d: Matrix, A, B) -> Fraction:
    """max of the two one-sided nested-loop deviations."""
    da = max(min(d[a][b] for b in B) for a in A)
    db = max(min(d[b][a] for a in A) for b in B)
    return max(da, db)


def oracle_cover(d: Matrix, eps: Fraction) -> int:
    """Smallest number of open eps-balls covering everything.

    Tries every center combination of ascending size; fine for n <= 8.
    """
    n = len(d)
    balls = [frozenset(j for j in range(n) if d[i][j] < eps) for i in range(n)]
    everything = frozenset(range(n))
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if frozenset().union(*(balls[c] for c in centers)) == everything:
                return k
    raise AssertionError("unreachable: singleton balls always cover")


def random_correspondence(rng: random.Random, nx: int, ny: int) -> Correspondence:
    """A random onto relation: a covering skeleton plus noise cells."""
    pairs = {(x, rng.randrange(ny)) for x in range(nx)}
    covered = {y for _, y in pairs}
    pairs.update((rng.randrange(nx), y) for y in range(ny) if y not in covered)
    for x in range(nx):
        for y in range(ny):
            if rng.random() < 0.3:
                pairs.add((x, y))
    return Correspondence(frozenset(pairs), nx, ny)


def random_space(rng: random.Random, n: int) -> FiniteMetricSpace:
    return random_metric_space(n, seed=rng.randrange(10**9))


def count_calls(monkeypatch, module, *names: str) -> dict[str, int]:
    """Wrap each named function of module to count its calls; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's ghsegments."""
    env = dict(os.environ)
    src = str(Path(ghsegments.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
