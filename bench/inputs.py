"""Seeded inputs and independent oracles for the benchmark.

Nothing in this module imports ghsegments. Spaces are integer matrices
in units of 1/SCALE; their entries follow the same distribution as
``ghsegments.random_metric_space`` (p/q with p in 1..24 and q in
{1, 2, 3, 4, 6}, then the shortest-path closure), but they are drawn and
closed here, on integers, so a change to the package's generator or
validator cannot change what the benchmark feeds it.

The oracles work on the same integer matrices. Distortions are in units
of 1/SCALE, so d_GH = distortion / (2 * SCALE).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

SCALE = 12  # lcm of the denominators 1, 2, 3, 4, 6
DENOMINATORS = (1, 2, 3, 4, 6)


def rng_for(seed: int, *labels) -> random.Random:
    """Independent stream for one part of one workload; str seeds hash stably."""
    return random.Random(":".join(str(p) for p in (seed,) + labels))


def random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """Symmetric positive integer matrix, closed under shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 24) * (SCALE // rng.choice(DENOMINATORS))
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            dik = di[k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def simplex_matrix(n: int) -> list[list[int]]:
    """simplex(n, 1): every off-diagonal distance is 1."""
    return [[0 if i == j else SCALE for j in range(n)] for i in range(n)]


def fractions(d: list[list[int]], scale: int = SCALE) -> list[list[Fraction]]:
    return [[Fraction(v, scale) for v in row] for row in d]


def to_int(matrix, scale: int = SCALE) -> list[list[int]]:
    """Fraction matrix (a space's dist) back to integers; refuses other scales."""
    out = []
    for row in matrix:
        ints = []
        for v in row:
            s = v * scale
            if s.denominator != 1:
                raise ValueError(f"entry {v} is not a multiple of 1/{scale}")
            ints.append(int(s))
        out.append(ints)
    return out


def digest(*objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        h.update(repr(obj).encode())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------ oracles


def distortion(dx, dy, pairs) -> int:
    pairs = list(pairs)
    worst = 0
    for a, b in pairs:
        ra, rb = dx[a], dy[b]
        for a2, b2 in pairs:
            v = abs(ra[a2] - rb[b2])
            if v > worst:
                worst = v
    return worst


def is_onto(pairs, nx: int, ny: int) -> bool:
    return {a for a, _ in pairs} == set(range(nx)) and {b for _, b in pairs} == set(
        range(ny)
    )


def lower_bound(dx, dy) -> int:
    """Diameter gap and the two eccentricity matchings, as a distortion."""
    ex = [max(r) for r in dx]
    ey = [max(r) for r in dy]
    return max(
        abs(max(ex) - max(ey)),
        max(min(abs(a - b) for b in ey) for a in ex),
        max(min(abs(a - b) for a in ex) for b in ey),
    )


def upper_bound(dx, dy) -> int:
    """Distortion of the full product correspondence."""
    return max(max(max(r) for r in dx), max(max(r) for r in dy))


def brute_force(dx, dy) -> int:
    """Minimum distortion over every subset of the product cells."""
    nx, ny = len(dx), len(dy)
    cells = [(a, b) for a in range(nx) for b in range(ny)]
    c = len(cells)
    cost = [[abs(dx[a][a2] - dy[b][b2]) for (a2, b2) in cells] for (a, b) in cells]
    dis = [0] * (1 << c)
    rows = [0] * (1 << c)
    cols = [0] * (1 << c)
    best = None
    for s in range(1, 1 << c):
        low = s & -s
        i = low.bit_length() - 1
        rest = s ^ low
        m = dis[rest]
        ci = cost[i]
        for j in range(i + 1, c):
            if rest >> j & 1 and ci[j] > m:
                m = ci[j]
        dis[s] = m
        rows[s] = rows[rest] | 1 << cells[i][0]
        cols[s] = cols[rest] | 1 << cells[i][1]
        if rows[s] == (1 << nx) - 1 and cols[s] == (1 << ny) - 1:
            if best is None or m < best:
                best = m
    return best


def optimal_correspondence(dx, dy) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Minimum distortion and a fixed optimal witness.

    Every correspondence contains one of the form graph(f) + graph(g)^T
    with f: X -> Y and g: Y -> X, of no larger distortion, so searching
    those is exact. The witness is the first optimum in lexicographic
    order of (f(0), ..., f(nx-1), g(0), ..., g(ny-1)); only strict
    improvements replace it, so pruning never changes the choice.
    """
    nx, ny = len(dx), len(dy)
    slots = [(a, None) for a in range(nx)] + [(None, b) for b in range(ny)]
    best = [upper_bound(dx, dy) + 1, None]
    chosen: list[tuple[int, int]] = []

    def place(k: int, val: int) -> None:
        if k == len(slots):
            best[0], best[1] = val, list(chosen)
            return
        a0, b0 = slots[k]
        for v in range(ny if a0 is not None else nx):
            a, b = (a0, v) if a0 is not None else (v, b0)
            m = val
            ra, rb = dx[a], dy[b]
            for a2, b2 in chosen:
                w = abs(ra[a2] - rb[b2])
                if w > m:
                    m = w
            if m < best[0]:
                chosen.append((a, b))
                place(k + 1, m)
                chosen.pop()

    place(0, 0)
    return best[0], tuple(sorted(set(best[1])))


def interpolated(dx, dy, pairs, num: int, den: int) -> list[list[int]]:
    """R_t on the given pairs for t = num/den, in units of 1/(SCALE * den)."""
    return [
        [(den - num) * dx[a][a2] + num * dy[b][b2] for (a2, b2) in pairs]
        for (a, b) in pairs
    ]


def triangle_violations(d) -> set[tuple[int, int, int]]:
    """Every (i, j, k), i < k, j outside {i, k}, with d[i][k] > d[i][j] + d[j][k]."""
    n = len(d)
    out = set()
    for i in range(n):
        di = d[i]
        for k in range(i + 1, n):
            dik = di[k]
            for j in range(n):
                if j != i and j != k and dik > di[j] + d[j][k]:
                    out.add((i, j, k))
    return out


def plant_violation(rng: random.Random, d) -> tuple[list[list[int]], tuple[int, int, int]]:
    """Copy of d with one long side: d[i][k] exceeds the path through j."""
    n = len(d)
    i, j, k = rng.sample(range(n), 3)
    i, k = min(i, k), max(i, k)
    bad = [row[:] for row in d]
    bad[i][k] = bad[k][i] = d[i][j] + d[j][k] + 1
    return bad, (i, j, k)


def graft_matrix(d, z_star: int, mu: int, m: int) -> list[list[int]]:
    """W(mu, m): z_star replaced by an m-point simplex of side mu."""
    keep = [i for i in range(len(d)) if i != z_star]
    rows = [[d[i][j] for j in keep] + [d[i][z_star]] * m for i in keep]
    for v in range(m):
        rows.append(
            [d[z_star][j] for j in keep] + [0 if w == v else mu for w in range(m)]
        )
    return rows
