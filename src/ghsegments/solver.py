"""Exact Gromov-Hausdorff distance between finite metric spaces.

    d_GH(X, Y) = (1/2) * min { dis R : R a correspondence X <-> Y }

One certified-exact search, branch and bound: it assigns each row (a
point of the larger space, taken in decreasing eccentricity order) a
non-empty subset of the other space, pruning any partial assignment
whose distortion already ties the incumbent. The last row takes exactly
the columns no earlier row covers, or, when all are covered, any single
column. The incumbent starts at the full product correspondence or at a
caller-supplied one. Both refusals, the side cap and the node budget,
carry gh_lower_bound and the best upper bound known. All arithmetic
is on the spaces' integer views over one common denominator, and every
returned witness is re-checked by distortion, outside the search,
before it leaves gh_exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .correspondences import Correspondence, distortion, integer_distortion
from .exceptions import DomainError, ResourceLimitError, ToolkitError
from .spaces import FiniteMetricSpace, common_rows, diameter

__all__ = ["SolverLimits", "GhResult", "gh_exact", "gh_lower_bound"]


@dataclass(frozen=True)
class SolverLimits:
    """Size cap and budget; both overridable per call."""

    bnb_max_side: int = 10  # max(nx, ny), unless one space is a single point
    node_budget: int | None = None


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


def _refusal(X, Y, message: str, upper: Fraction, nodes: int = 0) -> ResourceLimitError:
    """A stop of the search, carrying gh_lower_bound and the best upper bound."""
    return ResourceLimitError(message, lower=gh_lower_bound(X, Y), upper=upper, nodes=nodes)


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
    if initial is not None and (initial.nx != X.n or initial.ny != Y.n):
        raise DomainError("initial correspondence has the wrong shape")
    result = _solve_bnb(X, Y, limits, initial)
    # the witness must certify the value exactly; a mismatch is a solver bug
    if distortion(X, Y, result.optimal) != 2 * result.distance:
        raise ToolkitError(
            f"witness distortion does not certify d_GH = {result.distance}"
        )
    return result


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


def _solve_bnb(X, Y, limits: SolverLimits, initial: Correspondence | None) -> GhResult:
    # against one point the full product is the only correspondence, and
    # its first row already ties it, so that search is a single node
    if min(X.n, Y.n) > 1 and max(X.n, Y.n) > limits.bnb_max_side:
        message = f"side {max(X.n, Y.n)} above the branch-and-bound cap {limits.bnb_max_side}"
        # the full product correspondence gives the upper bound
        raise _refusal(X, Y, message, max(diameter(X), diameter(Y)) / 2)
    # rows range over the larger space so each branching step stays narrow
    flip = Y.n > X.n
    A, B = (Y, X) if flip else (X, Y)
    dA, dB, scale = common_rows(A, B)
    na, nb = A.n, B.n
    full_cols = (1 << nb) - 1

    if initial is not None:
        inc_pairs = {(b, a) for a, b in initial.pairs} if flip else set(initial.pairs)
    else:
        inc_pairs = {(a, b) for a in range(na) for b in range(nb)}
    best_pairs = frozenset(inc_pairs)
    best_val = integer_distortion(dA, dB, sorted(best_pairs))

    ecc = [max(row) for row in dA]
    cls = _swap_classes(dA)
    order = sorted(range(na), key=lambda r: (-ecc[r], cls[r], r))
    budget = limits.node_budget
    nodes = 0

    M0 = [[0] * nb for _ in range(na)]
    chosen_masks = [0] * na
    chosen_cols: list[list[int]] = [[] for _ in range(na)]
    singles = [[b] for b in range(nb)]

    def advance(pos, covered, val, M):
        """Row at pos just got chosen_cols[pos]; push bounds and recurse."""
        nonlocal nodes, best_val, best_pairs
        if budget is not None and nodes >= budget:
            raise _refusal(
                X, Y, f"node budget {budget} exhausted", Fraction(best_val, 2 * scale), nodes
            )
        nodes += 1
        if pos == na - 1:
            # expand only completes a covering relation that beats the incumbent
            best_val = val
            best_pairs = frozenset((order[p], b) for p in range(na) for b in chosen_cols[p])
            return
        r = order[pos]
        cols = chosen_cols[pos]
        # fold the new pairs into the mismatch table of the open rows
        M2 = [None] * na
        for q in range(pos + 1, na):
            r2 = order[q]
            old = M[r2]
            daq = dA[r2][r]
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
            M2[r2] = new
        bound = val
        for q in range(pos + 1, na):
            m = min(M2[order[q]])
            if m > bound:
                bound = m
        if bound >= best_val:
            return
        lv = full_cols & ~covered
        while lv:
            lb = lv & -lv
            bcol = lb.bit_length() - 1
            m = min(M2[order[q]][bcol] for q in range(pos + 1, na))
            if m > bound:
                bound = m
                if bound >= best_val:
                    return
            lv ^= lb
        expand(pos + 1, covered, val, M2)

    def expand(pos, covered, val, M):
        Mr = M[order[pos]]
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
        if 0 < pos and cls[order[pos]] == cls[order[pos - 1]]:
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

    expand(0, 0, 0, M0)

    if flip:
        out_pairs = frozenset((b, a) for a, b in best_pairs)
    else:
        out_pairs = best_pairs
    return GhResult(
        distance=Fraction(best_val, 2 * scale),
        optimal=Correspondence(out_pairs, X.n, Y.n),
        nodes_explored=nodes,
    )
