"""Exact Gromov-Hausdorff distance between finite metric spaces.

    d_GH(X, Y) = (1/2) * min { dis R : R a correspondence X <-> Y }

gh_exact is the only step of a solve that sees spaces. It checks the
seed's shape, puts both spaces on integer rows over one common
denominator, orients the solve so rows range over the larger side,
seeds the kernel, runs it, maps its pairs back, re-checks the witness
by distortion and refuses a spent node budget. The node budget is the
one limit on the search, whatever the sides; a stop carries
gh_lower_bound, the best upper bound found, the node count and the
witness of that bound: the kernel's incumbent, re-checked like any
other.

When both sides have at least _DESCENT_MIN_SIDE points, the seed comes
from _map_pair_descent, a deterministic local search over pairs of maps
X -> Y and Y -> X, or from the caller's initial correspondence when that
is no worse. The search prunes against its incumbent, and without a
seed it finds its optimum late: on 43 benchmark pairs of 6-10 points
the descent's seed cuts the nodes 2.8-fold. The kernel prices the seed
itself, so the descent's own bookkeeping never reaches an answer.

The kernel, _branch_and_bound, sees two lists of integer rows, a seed
pair list (None for the full product) and a node budget (None for
none). It returns the best distortion, its pairs, the node count and
whether the budget ran out. It assigns each row, in decreasing
eccentricity order, a non-empty subset of the columns, pruning any
partial assignment whose distortion already ties the incumbent; the
last row takes exactly the columns no earlier row covers, or, when all
are covered, any single column. The search is one loop over an explicit
stack of options: each entry tries one more column on top of a row's
chosen set, and a node that survives its bounds puts the next row on
offer. It calls nothing recursively, so it has no depth limit.

A node's bounds come from a mismatch table: for each open row and each
column, the largest mismatch that pairing them would add to the chosen
pairs. A node closes when some uncovered column is at or above the
incumbent in every open row, or some open row is in every column. The
column test runs first and reads only the cells of the uncovered
columns, so the nodes it closes (about three in four on random 7x7 and
8x8 pairs) never build the table; the others fold their new pairs into
it, test its rows, and offer the next row its columns in increasing
mismatch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .correspondences import Correspondence, _check_shape, distortion, integer_distortion
from .exceptions import ResourceLimitError, ToolkitError
from .spaces import FiniteMetricSpace, common_rows

__all__ = ["SolverLimits", "GhResult", "gh_exact", "gh_lower_bound"]


@dataclass(frozen=True)
class SolverLimits:
    """The search's node budget; None searches without one."""

    node_budget: int | None = 100_000


@dataclass(frozen=True)
class GhResult:
    distance: Fraction
    optimal: Correspondence
    nodes_explored: int


def gh_lower_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> Fraction:
    """Cheap certified lower bound for d_GH(X, Y).

    Maximum of the diameter gap and the two one-sided eccentricity
    bounds: any correspondence matches each point with one whose
    eccentricity differs by at most dis R.
    """
    dx, dy, scale = common_rows(X, Y)
    ecc_x = [max(row) for row in dx]
    ecc_y = [max(row) for row in dy]
    gap = abs(max(ecc_x) - max(ecc_y))
    side_x = max(min(abs(a - b) for b in ecc_y) for a in ecc_x)
    side_y = max(min(abs(a - b) for a in ecc_x) for b in ecc_y)
    return Fraction(max(gap, side_x, side_y), 2 * scale)


def gh_exact(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    limits: SolverLimits | None = None,
    initial: Correspondence | None = None,
) -> GhResult:
    """Exact d_GH(X, Y) with a witness correspondence.

    An optional initial correspondence seeds the search's incumbent; it
    never changes the returned distance, only the amount of search
    needed to certify it. When both sides have at least
    _DESCENT_MIN_SIDE points, the map-pair descent's correspondence is
    the seed instead whenever its distortion is lower than initial's.
    """
    limits = limits or SolverLimits()
    if initial is not None:
        _check_shape(initial, X, Y)
    dx, dy, scale = common_rows(X, Y)
    # rows range over the larger space so each branching step stays narrow
    flip = Y.n > X.n
    if flip:
        dx, dy = dy, dx
    seed = None if initial is None else [(b, a) if flip else (a, b) for a, b in initial.pairs]
    if min(X.n, Y.n) >= _DESCENT_MIN_SIDE:
        found, pairs = _map_pair_descent(dx, dy)
        if seed is None or found < integer_distortion(dx, dy, seed):
            seed = pairs
    val, pairs, nodes, spent = _branch_and_bound(dx, dy, seed, limits.node_budget)
    if flip:
        pairs = [(b, a) for a, b in pairs]
    distance = Fraction(val, 2 * scale)
    witness = Correspondence(frozenset(pairs), X.n, Y.n)
    # the witness must certify the value, or on a stop the upper bound,
    # exactly; a mismatch is a solver bug
    if distortion(X, Y, witness) != 2 * distance:
        raise ToolkitError(f"witness distortion does not certify {distance}")
    if spent:
        message = f"node budget {limits.node_budget} exhausted"
        raise ResourceLimitError(
            message, lower=gh_lower_bound(X, Y), upper=distance, nodes=nodes, witness=witness
        )
    return GhResult(distance, witness, nodes)


# ------------------------------------------------------------------ descent

# Both sides need this many points before gh_exact runs the descent.
# Below it the descent costs about as much as the whole search and
# saves none of it: over 40 random pairs per size (2-core VM, Python
# 3.11), the unseeded search takes 0.12 ms at the median at 4x4 and
# 0.24 ms at 5x5, the descent alone 0.11 and 0.19 ms, and the mean 5x5
# solve goes from 0.65 to 0.69 ms with it. From 6x6 on the mean falls:
# 26 to 24 ms at 6x6, 42 to 26 ms at 7x7, 47 to 32 ms at 8x8, while the
# descent costs 0.3-0.5 ms.
_DESCENT_MIN_SIDE = 6
# Accepted moves before the descent stops. Random pairs accept 7-91
# moves up to 60x60, and 154-189 at 120x120 in 0.4-1.0 s, so the cap
# leaves every measured descent whole. Between two accepted moves the
# descent tries each item's placements at most once, so it prices at
# most (cap + 1) * (na + nb)^2 * max(na, nb) terms.
_DESCENT_MOVES = 500


def _map_pair_descent(dA, dB):
    """(distortion, pairs) of a correspondence found by local search over map pairs.

    2 d_GH = min over maps phi: A -> B and psi: B -> A of
    max(dis phi, dis psi, codis(phi, psi)) (Kalton & Ostrovskii 1999),
    and that maximum is the distortion of the correspondence made of
    the two graphs: na + nb pairs (a, phi a) and (psi b, b), called
    items here. The descent starts from nearest-eccentricity maps, ties
    going to the least-used point, and reassigns one phi(a) or psi(b) at
    a time while that lowers (distortion, number of worst terms). A
    candidate prices only the moved item's na + nb terms; an accepted
    move writes them into the table of all terms, which is scanned for
    the next worst only when the last worst term goes. No restarts and
    no randomness: the result is a function of the rows.
    """
    na, nb = len(dA), len(dB)
    ecc_a = [max(row) for row in dA]
    ecc_b = [max(row) for row in dB]

    def nearest(ecc_from, ecc_to):
        used = [0] * len(ecc_to)
        image = []
        for e in ecc_from:
            t = min(range(len(ecc_to)), key=lambda b: (abs(e - ecc_to[b]), used[b]))
            used[t] += 1
            image.append(t)
        return image

    xs = list(range(na)) + nearest(ecc_b, ecc_a)
    ys = nearest(ecc_a, ecc_b) + list(range(nb))
    n = na + nb

    def terms(x, y):
        # an item at (x, y) against every item; placed at index i, it
        # reads 0 against itself
        ra, rb = dA[x], dB[y]
        return [abs(ra[u] - rb[v]) for u, v in zip(xs, ys)]

    # the full table of terms, kept up to date move by move
    table = [terms(x, y) for x, y in zip(xs, ys)]
    worst = max(map(max, table))
    counts = [row.count(worst) for row in table]
    moves = i = idle = 0
    while worst and moves < _DESCENT_MOVES and idle < n:
        if counts[i]:
            # item i's best reassignment: fewest worst terms, then the
            # lowest largest term; none may exceed the worst
            x0, y0 = xs[i], ys[i]
            best, key = None, (counts[i], worst)
            for x, y in ((x0, b) for b in range(nb)) if i < na else ((a, y0) for a in range(na)):
                xs[i], ys[i] = x, y
                row = terms(x, y)
                top = max(row)
                got = (row.count(worst) if top == worst else 0, top)
                if top <= worst and got < key:
                    best, key, best_row = (x, y), got, row
            xs[i], ys[i] = best or (x0, y0)
            if best is not None:
                for k, t in enumerate(best_row):
                    col = table[k]
                    counts[k] += (t == worst) - (col[i] == worst)
                    col[i] = t
                table[i] = best_row
                counts[i] = key[0]
                if not any(counts):  # the worst term is gone: read off the next
                    worst = max(map(max, table))
                    counts = [row.count(worst) for row in table]
                moves += 1
                idle = 0
                continue
        i = (i + 1) % n
        idle += 1
    return worst, sorted(set(zip(xs, ys)))


# ---------------------------------------------------------- branch and bound


def _swap_classes(d) -> list[int]:
    """Grouping of mutually swappable points.

    Points r, r' are swappable when exchanging them is an isometry:
    d[r][k] == d[r'][k] for every k outside {r, r'}. Members of one
    class are interchangeable in any correspondence, which licenses an
    ordering constraint on their assigned subsets. Swappability is an
    equivalence, since isometric transpositions compose as
    (r t) = (r s)(s t)(r s), so each point is tested against the first
    member of each class only.
    """
    n = len(d)

    def swappable(r, s):
        # rows r and s with the entries at r and s blanked out
        row_r, row_s = list(d[r]), list(d[s])
        row_r[r] = row_r[s] = row_s[r] = row_s[s] = 0
        return row_r == row_s

    cls = [-1] * n
    firsts: list[int] = []
    for r in range(n):
        for ci, first in enumerate(firsts):
            if swappable(r, first):
                cls[r] = ci
                break
        else:
            cls[r] = len(firsts)
            firsts.append(r)
    return cls


def _branch_and_bound(dA, dB, seed, budget):
    """(best value, its pairs, node count, budget spent) over integer rows;
    with no seed the incumbent is the full product, at the larger diameter."""
    na, nb = len(dA), len(dB)
    last = na - 1
    full_cols = (1 << nb) - 1
    if seed is None:
        best_val = max(max(map(max, dA)), max(map(max, dB)))
        best_pairs = [(a, b) for a in range(na) for b in range(nb)]
    else:
        best_val = integer_distortion(dA, dB, seed)
        best_pairs = seed

    ecc = [max(row) for row in dA]
    cls = _swap_classes(dA)
    order = sorted(range(na), key=lambda r: (-ecc[r], cls[r], r))
    # from here on a row is its position in the search order
    dA = [[dA[r][s] for s in order] for r in order]
    cls = [cls[r] for r in order]
    nodes = 0
    # a row on offer is (pos, covered, M, path, prev_mask, options): path
    # links the column sets chosen above it. An entry (row, i, v, members,
    # mask) tries options[i] on top of the columns in members; its pop pushes
    # the sibling, then the extension, then the next row, so entries pop in
    # depth-first pre-order. The first row's mismatch table is all zeros.
    options = [list(range(nb))] if last == 0 else [[b] for b in range(nb)]
    stack = [((0, 0, [[0] * nb for _ in range(na)], None, 0, options), 0, 0, [], 0)]
    while stack:
        row, i, v, members, mask = stack.pop()
        pos, covered, M, path, prev_mask, options = row
        if i + 1 < len(options):
            stack.append((row, i + 1, v, members, mask))
        cols = options[i]
        Mr = M[pos]
        for b in cols:
            if Mr[b] > v:
                v = Mr[b]
            rb = dB[b]
            for b2 in members or cols:  # rb[b] == 0 never raises v
                if rb[b2] > v:
                    v = rb[b2]
        if v >= best_val:
            continue
        members = members + cols
        if pos < last:
            mask |= 1 << cols[0]
            if i + 1 < len(options):
                stack.append((row, i + 1, v, members, mask))
            # consecutive rows of one swap class take non-decreasing masks; the
            # last row is exempt, since the uncovered-set rule fixes its choice
            if mask < prev_mask:
                continue
            covered |= mask
        if budget is not None and nodes >= budget:
            return best_val, best_pairs, nodes, True
        nodes += 1
        path = (members, path)
        if pos == last:
            # a row reaches here only below the incumbent, so this covering
            # relation is the new incumbent
            best_val, best_pairs = v, []
            for p in range(last, -1, -1):
                cols, path = path
                best_pairs += [(order[p], b) for b in cols]
            continue
        # A cell M[q][b2] of an open row q is the largest mismatch between
        # q and b2 over the pairs chosen so far; this row's pairs raise it to
        # at least |dA[q][pos] - dB[b2][b]| for each member b, and a cell at
        # or above the incumbent rules b2 out of row q. Every uncovered
        # column must go to some open row, so the column test comes first,
        # from each such column's cells alone: the first column that every
        # open row rules out closes the node before any table is built (three
        # nodes in four on random 7x7 and 8x8 pairs). dA is symmetric, so
        # da[q] is dA[q][pos].
        da = dA[pos]
        left = lv = full_cols & ~covered
        while lv:
            lb = lv & -lv
            b2 = lb.bit_length() - 1
            rb2 = dB[b2]
            for q in range(pos + 1, na):
                if M[q][b2] >= best_val:
                    continue
                daq = da[q]
                for b in members:
                    d = daq - rb2[b]
                    if d < 0:
                        d = -d
                    if d >= best_val:
                        break
                else:
                    break  # row q can take column b2
            else:
                break  # no open row can: the node closes
            lv ^= lb
        if lv:
            continue
        # fold the new pairs into the table of the open rows; a row that
        # rules out every column closes the node too, and cells already at
        # or above the incumbent are left as they are
        M2 = [None] * na
        for q in range(pos + 1, na):
            daq = da[q]
            new = M[q][:]
            for b2 in range(nb):
                m = new[b2]
                if m >= best_val:
                    continue
                rb2 = dB[b2]
                for b in members:
                    d = daq - rb2[b]
                    if d < 0:
                        d = -d
                    if d > m:
                        m = d
                new[b2] = m
            if min(new) >= best_val:
                break
            M2[q] = new
        if M2[last] is None:
            continue
        Mr = M2[pos + 1]
        if pos + 1 < last:
            options = [[b] for b in sorted(range(nb), key=Mr.__getitem__) if Mr[b] < best_val]
        elif left:  # the last row takes exactly the uncovered columns
            options = [[b for b in range(nb) if left >> b & 1]]
        else:  # or, when every column is covered, any one column
            options = [[b] for b in range(nb)]
        prev = mask if cls[pos + 1] == cls[pos] else 0
        stack.append(((pos + 1, covered, M2, path, prev, options), 0, v, [], 0))
    return best_val, best_pairs, nodes, False
