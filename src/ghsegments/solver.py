"""Exact Gromov-Hausdorff distance between finite metric spaces.

    d_GH(X, Y) = (1/2) * min { dis R : R a correspondence X <-> Y }

gh_exact is the only step of a solve that sees spaces. It checks the
seed's shape, puts both spaces on integer rows over one common
denominator, orients the solve so rows range over the larger side, runs
the kernel, maps its pairs back, refuses a spent node budget and
re-checks the witness by distortion. The node budget is the one limit
on the search, whatever the sides; a stop carries gh_lower_bound, the
best upper bound found and the node count.

The kernel, _branch_and_bound, sees two lists of integer rows, a seed
pair list and a node budget (None for none). It returns the best
distortion, its pairs, the node count and whether the budget ran out.
It assigns each row, in decreasing eccentricity order, a non-empty
subset of the columns, pruning any partial assignment whose distortion
already ties the incumbent; the last row takes exactly the columns no
earlier row covers, or, when all are covered, any single column.
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
    needed to certify it.
    """
    limits = limits or SolverLimits()
    if initial is not None:
        _check_shape(initial, X, Y)
    dx, dy, scale = common_rows(X, Y)
    if initial is None:  # the full product correspondence
        seed = [(a, b) for a in range(X.n) for b in range(Y.n)]
    else:
        seed = list(initial.pairs)
    # rows range over the larger space so each branching step stays narrow
    flip = Y.n > X.n
    if flip:
        dx, dy, seed = dy, dx, [(b, a) for a, b in seed]
    val, pairs, nodes, spent = _branch_and_bound(dx, dy, seed, limits.node_budget)
    if flip:
        pairs = [(b, a) for a, b in pairs]
    distance = Fraction(val, 2 * scale)
    if spent:
        message = f"node budget {limits.node_budget} exhausted"
        raise ResourceLimitError(message, lower=gh_lower_bound(X, Y), upper=distance, nodes=nodes)
    optimal = Correspondence(frozenset(pairs), X.n, Y.n)
    # the witness must certify the value exactly; a mismatch is a solver bug
    if distortion(X, Y, optimal) != 2 * distance:
        raise ToolkitError(f"witness distortion does not certify d_GH = {distance}")
    return GhResult(distance, optimal, nodes)


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


class _BudgetSpent(Exception):
    """Unwinds the kernel's recursion once the node budget runs out."""


def _branch_and_bound(dA, dB, seed, budget):
    """(best value, its pairs, node count, budget spent) over integer rows."""
    na, nb = len(dA), len(dB)
    full_cols = (1 << nb) - 1
    best_pairs = seed
    best_val = integer_distortion(dA, dB, seed)

    ecc = [max(row) for row in dA]
    cls = _swap_classes(dA)
    order = sorted(range(na), key=lambda r: (-ecc[r], cls[r], r))
    # from here on a row is its position in the search order
    dA = [[dA[r][s] for s in order] for r in order]
    cls = [cls[r] for r in order]
    nodes = 0
    chosen_masks = [0] * na
    chosen_cols: list[list[int]] = [[] for _ in range(na)]
    singles = [[b] for b in range(nb)]

    def advance(pos, covered, val, M):
        """Row pos just got chosen_cols[pos]; push bounds and recurse."""
        nonlocal nodes, best_val, best_pairs
        if budget is not None and nodes >= budget:
            raise _BudgetSpent
        nodes += 1
        if pos == na - 1:
            # expand only completes a covering relation that beats the incumbent
            best_val = val
            best_pairs = [(order[p], b) for p in range(na) for b in chosen_cols[p]]
            return
        cols = chosen_cols[pos]
        # fold the new pairs into the mismatch table of the open rows
        M2 = [None] * na
        for q in range(pos + 1, na):
            old = M[q]
            daq = dA[q][pos]
            new = old[:]
            for b2 in range(nb):
                m = new[b2]
                if m >= best_val:
                    continue
                rb2 = dB[b2]
                for b in cols:
                    v = daq - rb2[b]
                    if v < 0:
                        v = -v
                    if v > m:
                        m = v
                new[b2] = m
            M2[q] = new
        bound = val
        for q in range(pos + 1, na):
            m = min(M2[q])
            if m > bound:
                bound = m
        if bound >= best_val:
            return
        lv = full_cols & ~covered
        while lv:
            lb = lv & -lv
            bcol = lb.bit_length() - 1
            m = min(M2[q][bcol] for q in range(pos + 1, na))
            if m > bound:
                bound = m
                if bound >= best_val:
                    return
            lv ^= lb
        expand(pos + 1, covered, val, M2)

    def expand(pos, covered, val, M):
        Mr = M[pos]
        if pos == na - 1:
            # the last row takes exactly the uncovered columns, or else any one column
            left = full_cols & ~covered
            options = [[b for b in range(nb) if left >> b & 1]] if left else singles
            for cols in options:
                v = val
                for b in cols:
                    if Mr[b] > v:
                        v = Mr[b]
                    rb = dB[b]
                    for b2 in cols:  # rb[b] == 0 never raises v
                        if rb[b2] > v:
                            v = rb[b2]
                if v < best_val:
                    chosen_cols[pos] = cols
                    advance(pos, full_cols, v, M)
            return
        feasible = [b for b in range(nb) if Mr[b] < best_val]
        feasible.sort(key=lambda b: Mr[b])
        # consecutive rows of one swap class take non-decreasing masks; the
        # last row is exempt, since the uncovered-set rule fixes its choice
        prev_mask = 0
        if 0 < pos and cls[pos] == cls[pos - 1]:
            prev_mask = chosen_masks[pos - 1]

        def grow(start, mask, v, members):
            for i in range(start, len(feasible)):
                b = feasible[i]
                v2 = v if v > Mr[b] else Mr[b]
                rb = dB[b]
                for b2 in members:
                    if rb[b2] > v2:
                        v2 = rb[b2]
                if v2 >= best_val:
                    continue
                mask2 = mask | (1 << b)
                members.append(b)
                if mask2 >= prev_mask:
                    chosen_masks[pos] = mask2
                    chosen_cols[pos] = members[:]
                    advance(pos, covered | mask2, v2, M)
                grow(i + 1, mask2, v2, members)
                members.pop()

        grow(0, 0, val, [])

    try:
        expand(0, 0, 0, [[0] * nb for _ in range(na)])
    except _BudgetSpent:
        return best_val, best_pairs, nodes, True
    return best_val, best_pairs, nodes, False
