"""Exact Gromov-Hausdorff distance between finite metric spaces.

    d_GH(X, Y) = (1/2) * min { dis R : R a correspondence X <-> Y }

gh_exact is the only step of a solve that sees spaces. It checks the
seed's shape, puts both spaces on integer rows over one common
denominator, orients the solve so rows range over the larger side,
prices the candidate starts, runs a search unless a start is already
optimal, re-checks the search's witness by its integer distortion, maps
its pairs back and refuses a spent node budget. The node budget is the
one limit on the search, whatever the sides; a stop carries the root
bound, the best upper bound found, the node count and the witness of
that bound: the search's incumbent, re-checked like any other.

The candidate starts are the caller's initial and, when both sides have
at least _DESCENT_MIN_SIDE points, the pairs of _map_pair_descent (a
deterministic local search over pairs of maps X -> Y and Y -> X, which
usually finds the optimum). _start prices each once, and the cheapest,
initial on a tie, is the incumbent. The root check lives in gh_exact
for both searches: when there is a candidate and the incumbent meets
_root_bound, gh_lower_bound's integer form, it is the answer with no
node searched. An unseeded solve below the gate starts from the full
product and is always searched.

Two searches share one seam: each sees two lists of integer rows, the
swap classes of each side, the incumbent as (value, pairs) and a node
budget (None for none), and returns the best distortion, its pairs, the
node count and whether the budget ran out. The classes are the spaces'
own, IntegerView.swap_classes, computed on a space's first searched
solve; neither search computes classes. One gate picks the search: at or
above _DESCENT_MIN_SIDE points a side, _threshold_search, which also
takes the root bound to stop early; below it _branch_and_bound, which is
about twice as fast there. Both call nothing recursively, so neither has
a depth limit, and their node counts count different things.

_threshold_search is one depth-first tree with no rounds: a
correspondence of distortion at most delta = incumbent - 1 is a clique
of cells whose pairwise terms are at most delta. A clique it finds is
the next incumbent, and delta tightens in place, in a new epoch; the
tree ends when it empties, which refutes delta, or when the incumbent
reaches the root bound. It excludes the cells a refuted cell's
swap-class twins would repeat.

_branch_and_bound, the reference kernel, assigns each row, in
decreasing eccentricity order, a non-empty subset of the columns,
pruning any partial assignment whose distortion already ties the
incumbent; the last row takes exactly the columns no earlier row
covers, or, when all are covered, any single column. It is one loop
over an explicit stack of options: each entry tries one more column on
top of a row's chosen set, and a node that survives its bounds puts the
next row on offer. A node's bounds come from a mismatch table: for each
open row and each column, the largest mismatch that pairing them would
add to the chosen pairs. A node closes when some uncovered column is at
or above the incumbent in every open row, or some open row is in every
column. The column test runs first and reads only the cells of the
uncovered columns, so the nodes it closes (about three in four on
random 7x7 and 8x8 pairs) never build the table; the others fold their
new pairs into it, test its rows, and offer the next row its columns in
increasing mismatch order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .correspondences import Correspondence, _check_shape, integer_distortion
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

    Maximum of the diameter gap, the two one-sided eccentricity bounds
    (any correspondence matches each point with one whose eccentricity
    differs by at most dis R) and, when the sides differ in size, half
    the least nonzero distance of the larger side (a correspondence
    relates two of its points to one point).
    """
    dx, dy, scale = common_rows(X, Y)
    return Fraction(_root_bound(dx, dy), 2 * scale)


def _root_bound(dA, dB) -> int:
    """gh_lower_bound over integer rows, as a bound on dis R."""
    ecc_a = sorted(map(max, dA))
    ecc_b = sorted(map(max, dB))
    gap = abs(ecc_a[-1] - ecc_b[-1])
    side = max(_farthest_from(ecc_a, ecc_b), _farthest_from(ecc_b, ecc_a))
    # pigeonhole: a correspondence relates two points of the larger side
    # to one point of the other, so dis R is at least their distance
    big = max(dA, dB, key=len)
    card = min(filter(None, chain.from_iterable(big))) if len(dA) != len(dB) else 0
    return max(gap, side, card)


def _farthest_from(values, ladder) -> int:
    """max over v in values of the gap from v to the nearest of the sorted ladder."""
    last = len(ladder) - 1
    worst = 0
    for v in values:
        # ladder[i] is the least rung at or above v, or the top one; with
        # i = 0, ladder[i - 1] is the top rung, never nearer than ladder[0]
        i = bisect_left(ladder, v, 0, last)
        near = min(abs(ladder[i] - v), abs(ladder[i - 1] - v))
        if near > worst:
            worst = near
    return worst


def gh_exact(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    limits: SolverLimits | None = None,
    initial: Correspondence | None = None,
) -> GhResult:
    """Exact d_GH(X, Y) with a witness correspondence.

    When both sides have at least _DESCENT_MIN_SIDE points, the map-pair
    descent adds a candidate start and the threshold search runs;
    otherwise _branch_and_bound does. An optional initial correspondence
    is a candidate start ahead of the descent's; the search starts from
    the cheaper, initial on a tie, and a start that meets the root bound
    is the answer with no node searched. It never changes the returned
    distance, only the amount of search needed to certify it.
    """
    limits = limits or SolverLimits()
    if initial is not None:
        _check_shape(initial, X, Y)
    dx, dy, scale = common_rows(X, Y)
    # rows range over the larger space so each branching step stays narrow
    flip = Y.n > X.n
    A, B, dx, dy = (Y, X, dy, dx) if flip else (X, Y, dx, dy)
    seeds = [] if initial is None else [[(b, a) if flip else (a, b) for a, b in initial.pairs]]
    gated = min(X.n, Y.n) >= _DESCENT_MIN_SIDE
    if gated:
        seeds.append(_map_pair_descent(dx, dy))
    val, pairs = start = _start(dx, dy, seeds)
    low = _root_bound(dx, dy)
    nodes, spent = 0, False
    # a start priced at the root bound is optimal. An unseeded start, the
    # full product, is searched whatever the bound, so unseeded solves
    # keep their node counts and their budget stops
    if not seeds or val > low:
        # a space is classified on its first searched solve, not before
        cx, cy = A.view.swap_classes, B.view.swap_classes
        if gated:
            val, pairs, nodes, spent = _threshold_search(dx, dy, cx, cy, start, low, limits.node_budget)
        else:
            val, pairs, nodes, spent = _branch_and_bound(dx, dy, cx, cy, start, limits.node_budget)
        # the search's witness must certify its value, or on a stop its
        # upper bound, exactly; a mismatch is a solver bug
        if integer_distortion(dx, dy, pairs) != val:
            raise ToolkitError(f"witness distortion does not certify {Fraction(val, 2 * scale)}")
    distance = Fraction(val, 2 * scale)
    if flip:
        pairs = [(b, a) for a, b in pairs]
    witness = Correspondence(frozenset(pairs), X.n, Y.n)
    if spent:
        message = f"node budget {limits.node_budget} exhausted"
        raise ResourceLimitError(
            message, lower=Fraction(low, 2 * scale), upper=distance, nodes=nodes, witness=witness
        )
    return GhResult(distance, witness, nodes)


# ------------------------------------------------------------------ descent

# Both sides need this many points before gh_exact runs the descent and
# the threshold search. Below it the descent costs about as much as the
# whole search and saves none of it: over 40 random pairs per size
# (2-core VM, Python 3.11), the unseeded _branch_and_bound takes 0.12 ms
# at the median at 4x4 and 0.24 ms at 5x5, the descent alone 0.11 and
# 0.19 ms. The threshold search is slower there too, at the median of 30
# unseeded pairs 69 -> 115 us at 3x3, 168 -> 271 us at 4x4 and 331 -> 544
# us at 5x5; from 6x6 on, seeded, it wins: 466 -> 410 us at the median
# and 16 -> 0.42 ms in the mean at 6x6.
_DESCENT_MIN_SIDE = 6
# Accepted moves before the descent stops. Random pairs accept 7-91
# moves up to 60x60, and 154-189 at 120x120 in 0.4-1.0 s, so the cap
# leaves every measured descent whole. Between two accepted moves the
# descent tries each item's placements at most once, so it prices at
# most (cap + 1) * (na + nb)^2 * max(na, nb) terms.
_DESCENT_MOVES = 500


def _map_pair_descent(dA, dB):
    """The pairs of a correspondence found by local search over map pairs.

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
    no randomness: the result is a function of the rows. Only the pairs
    are returned; _start prices them like any other candidate.
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
    ladders_a, ladders_b = _ladders(dA), _ladders(dB)

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
            # lowest largest term. None may exceed the worst, so only the
            # placements in the window of the sorted row of each other
            # item's point on the moving side are priced
            x0, y0 = xs[i], ys[i]
            if i < na:
                fixed, other, moving, (vals, prefix), ok = dA[x0], xs, ys, ladders_b, (1 << nb) - 1
            else:
                fixed, other, moving, (vals, prefix), ok = dB[y0], ys, xs, ladders_a, (1 << na) - 1
            for k in chain(range(i), range(i + 1, n)):
                v, m = fixed[other[k]], moving[k]
                lo = bisect_left(vals[m], v - worst)
                ok &= prefix[m][bisect_right(vals[m], v + worst, lo)] ^ prefix[m][lo]
            best, key = None, (counts[i], worst)
            while ok:
                t = (ok & -ok).bit_length() - 1
                ok &= ok - 1
                xs[i], ys[i] = x, y = (x0, t) if i < na else (t, y0)
                row = terms(x, y)
                top = max(row)
                got = (row.count(worst) if top == worst else 0, top)
                if got < key:
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
    return sorted(set(zip(xs, ys)))


def _ladders(rows):
    """(vals, prefix): each row's values in increasing order, and the masks
    of its first k indices in that order, so the indices whose value lies
    in [lo, hi] are two bisections away."""
    vals, prefix = [], []
    for row in rows:
        order = sorted(range(len(row)), key=row.__getitem__)
        masks = [0]
        for k in order:
            masks.append(masks[-1] | 1 << k)
        vals.append([row[k] for k in order])
        prefix.append(masks)
    return vals, prefix


# ---------------------------------------------------------- branch and bound


def _start(dA, dB, seeds):
    """(value, pairs) of the candidate in seeds of lowest integer_distortion,
    the first on ties, or of the full product if there is none: the
    incumbent either search starts from."""
    best_pairs = None
    for pairs in seeds or [[(a, b) for a in range(len(dA)) for b in range(len(dB))]]:
        val = integer_distortion(dA, dB, pairs)
        if best_pairs is None or val < best_val:
            best_val, best_pairs = val, pairs
    return best_val, best_pairs


def _branch_and_bound(dA, dB, cA, cB, start, budget):
    """(best value, its pairs, node count, budget spent) over integer rows
    with swap classes cA and cB, starting from the incumbent start, a
    (value, pairs) of _start."""
    na, nb = len(dA), len(dB)
    last = na - 1
    full_cols = (1 << nb) - 1
    best_val, best_pairs = start

    ecc = [max(row) for row in dA]
    order = sorted(range(na), key=lambda r: (-ecc[r], cA[r], r))
    # from here on a row is its position in the search order
    dA = [[dA[r][s] for s in order] for r in order]
    cls = [cA[r] for r in order]
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


# --------------------------------------------------------- threshold search


def _threshold_search(dA, dB, cA, cB, start, low, budget):
    """(best value, its pairs, node count, budget spent) over integer rows
    with swap classes cA and cB, from the incumbent start, a (value, pairs)
    of _start, by one depth-first search for a correspondence of distortion
    at most delta = incumbent - 1; 0 nodes if start meets low, _root_bound.

    dis R <= delta exactly when every two cells of R are delta-compatible
    (Memoli 2007), so the search looks for a clique of compatible cells
    that covers every line, row or column. Cell (a, b) is bit a * nb + b,
    and comp[c] is the mask of the cells compatible with c, built when the
    epoch first picks c. A node holds the cells compatible with all it
    chose and branches on the open line with the fewest of them; a child
    takes one and excludes the siblings tried before it, and a node dies
    when some open line has none left.

    A clique covering every line is the next incumbent. The search returns
    if it meets low; otherwise delta tightens in place and the search
    backtracks, as exact clique branch and bound does (Carraghan & Pardalos
    1990): a new epoch empties comp, and an entry pushed in an older one is
    refiltered by its path before use. A subtree exhausted at a looser
    delta holds no clique at a tighter one, so the exclusions of earlier
    siblings stand. An empty stack refutes delta: the incumbent is optimal.
    """
    na, nb = len(dA), len(dB)
    best_val, best_pairs = start
    nodes, epoch, delta = 0, 0, best_val - 1
    # lines 0..na-1 are the rows, na..na+nb-1 the columns
    lines = [((1 << nb) - 1) << (a * nb) for a in range(na)]
    lines += [sum(1 << (a * nb + b) for a in range(na)) for b in range(nb)]
    shift = [a * nb for a in range(na)] + list(range(nb))
    # the lines of each line's swap class, rows of dA or columns of dB
    cls = [(0, c) for c in cA] + [(1, c) for c in cB]
    classes = {}
    for ln, c in enumerate(cls):
        classes.setdefault(c, []).append(ln)
    mates = [classes[c] for c in cls]
    vals_b, prefix_b = _ladders(dB)
    comp = [None] * (na * nb)

    def compatible(c):
        # the cells delta-compatible with c, built on the epoch's first ask
        a, b = divmod(c, nb)
        vb, pb = vals_b[b], prefix_b[b]
        mask = 0
        for v, sh in zip(dA[a], shift):
            lo = bisect_left(vb, v - delta)
            mask |= (pb[bisect_right(vb, v + delta, lo)] ^ pb[lo]) << sh
        comp[c] = mask
        return mask

    all_cells, all_lines = (1 << na * nb) - 1, (1 << na + nb) - 1
    # an entry (cand, open, path, cells, twins, i, age) takes cells[i] on
    # top of the cells in path, a tuple; age is the epoch it was pushed in.
    # The root entry takes nothing; a start that meets low needs no search
    stack = [(all_cells, all_lines, (), None, None, 0, 0)] if best_val > low else []
    while stack:
        cand, open_, path, cells, twins, i, age = stack.pop()
        if cells is not None:
            if age != epoch:
                # delta tightened since the push: keep the candidates
                # compatible with every path cell now, and drop the entry
                # if two path cells no longer are
                for p in path:
                    cand &= comp[p] or compatible(p)
                if any(not cand >> p & 1 for p in path):
                    continue
            if i + 1 < len(cells):
                stack.append((cand & ~twins[i], open_, path, cells, twins, i + 1, epoch))
            c = cells[i]
            if not cand >> c & 1:  # a tightening dropped it since the listing
                continue
            a, b = divmod(c, nb)
            cand &= comp[c] or compatible(c)
            open_ &= ~(1 << a | 1 << (na + b))
            path += (c,)
        if budget is not None and nodes >= budget:
            return best_val, best_pairs, nodes, True
        nodes += 1
        if not open_:
            best_pairs = [divmod(c, nb) for c in path]
            best_val = integer_distortion(dA, dB, best_pairs)
            if best_val <= low:
                break
            delta, epoch = best_val - 1, epoch + 1
            comp = [None] * (na * nb)
            continue
        line, fewest = None, na * nb + 1
        rest = open_
        while rest:
            low_bit = rest & -rest
            ln = low_bit.bit_length() - 1
            k = (cand & lines[ln]).bit_count()
            if k < fewest:
                line, fewest = ln, k
                if not k:
                    break
            rest ^= low_bit
        if not fewest:
            continue
        # an open line of the same swap class with the same candidates
        # is the branching line's image under a transposition that fixes
        # this node, so a cell refuted here is refuted there too
        own = (cand & lines[line]) >> shift[line]
        images = [
            shift[ln] - shift[line]
            for ln in mates[line]
            if ln != line and open_ >> ln & 1 and (cand & lines[ln]) >> shift[ln] == own
        ]
        cells = []
        while own:
            low_bit = own & -own
            cells.append(shift[line] + low_bit.bit_length() - 1)
            own ^= low_bit
        # each cell with its images on the mates; most lines have none
        twins = [1 << c for c in cells]
        for d in images:
            twins = [t | 1 << (c + d) for t, c in zip(twins, cells)]
        stack.append((cand, open_, path, cells, twins, 0, epoch))
    return best_val, best_pairs, nodes, False
