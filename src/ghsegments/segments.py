"""Metric segments between finite spaces, and certified members.

Z lies in the segment [X, Y] exactly when

    d_GH(X, Z) + d_GH(Z, Y) = d_GH(X, Y)

and membership here is decided by exact rational equality on certified
gh_exact values, never by tolerance. geodesic_samples certifies every
sample R_t of a geodesic, the endpoints included, from the one X-Y
solve (see certify_by_lifts). Two constructions produce new members
from an interior member Z:

* star extension Z*: one extra point z* whose distance to z is delta
  inside the closed delta-ball around a base point z0 and d(z0, z)
  outside it. Admissible delta in (0, min{2 d_XZ, 2 d_ZY}] keeps Z*
  inside the segment; the correspondence lift R* = R + preimage(z0) x
  {z*} never increases distortion.

* simplex graft W(mu, m): z* is replaced by an m-point simplex of side
  mu glued where z* was. Admissible mu in (0, 2 min{d_XZ, d_ZY, S(z*)})
  with S(z*) the isolation radius of z*. Every W(mu, m) stays in the
  segment while cov(W, mu/4) >= m, so the segment contains spaces of
  unbounded covering number and fails the precompactness criterion: it
  is not compact.

build_segment_family certifies Z once (three solver runs, d_XY among
them) and every W(mu, m) from one finite check, since the simplex
vertices are interchangeable and nothing depends on m beyond 2:

* metric axioms: an axiom instance names at most 3 points; with at most
  two simplex vertices it is one of W(mu, 2) up to a swap of vertices,
  and with three it is mu <= 2 mu, so W(mu, 2) (validated in full) is a
  metric exactly when every W(mu, m >= 2) is;
* membership: the lifts of Z's two witnesses bound d_XW and d_WY from
  above, and when their halved distortions sum to the certified d_XY
  the triangle inequality makes both exact (see certify_by_lifts). A
  distortion looks at pairs of pairs, so every m >= 2 lift has the
  distortion of the 2-lift; the check runs at m = 1 and m = 2 only;
* covering: at eps = mu/4 < S(z*)/2 the open ball of a vertex is the
  vertex alone and no ball centred in Z - z* reaches a vertex, so
  cov(W(mu, m), eps) = m + cov(Z, eps) - 1.

A member's space and lifted witnesses are built only when first read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .correspondences import (
    Correspondence,
    _check_shape,
    distortion,
    identity_correspondence,
    preimage,
    transpose,
)
from .exceptions import DomainError, HypothesisError, ToolkitError
from .formats import frac_str
from .geodesics import DEFAULT_GRID, InterpolatedSpace, endpoint_lifts, interpolate
from .solver import SolverLimits, gh_exact
from .spaces import (
    FiniteMetricSpace,
    IntegerView,
    _fresh_labels,
    as_fraction,
    closed_ball,
    covering_number,
    isolation_radius,
)

__all__ = [
    "SegmentCertificate",
    "StarParams",
    "GraftParams",
    "RationalInterval",
    "segment_membership",
    "certify_by_lifts",
    "geodesic_samples",
    "admissible_delta",
    "admissible_mu",
    "star_extension",
    "lift_star",
    "simplex_graft",
    "lift_graft",
    "build_segment_family",
    "FamilyEntry",
    "NoncompactnessReport",
    "noncompactness_report",
]

# the simplex sizes of a graft family, and the largest m of a report
DEFAULT_MS = (2, 3, 4)
DEFAULT_M_MAX = 5


@dataclass(frozen=True)
class SegmentCertificate:
    """Three certified distances plus the exact membership verdict."""

    d_xz: Fraction
    d_zy: Fraction
    d_xy: Fraction
    member: bool
    witness_xz: Correspondence
    witness_zy: Correspondence
    witness_xy: Correspondence

    @property
    def gap(self) -> Fraction:
        """d_XZ + d_ZY - d_XY; zero exactly for members, positive otherwise."""
        return self.d_xz + self.d_zy - self.d_xy


@dataclass(frozen=True)
class StarParams:
    z0: int
    delta: Fraction


@dataclass(frozen=True)
class GraftParams:
    z_star: int
    mu: Fraction
    m: int


@dataclass(frozen=True)
class RationalInterval:
    """An interval of admissible parameters with explicit end openness."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = True
    hi_open: bool = False

    def contains(self, q) -> bool:
        v = as_fraction(q)
        above = v > self.lo if self.lo_open else v >= self.lo
        below = v < self.hi if self.hi_open else v <= self.hi
        return above and below

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{frac_str(self.lo)}, {frac_str(self.hi)}{right}"


def segment_membership(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    Z: FiniteMetricSpace,
    limits: SolverLimits | None = None,
) -> SegmentCertificate:
    """Certify whether Z is in [X, Y], by three exact solver runs.

    A graft family runs this once, for its base member Z; see
    build_segment_family.
    """
    rxz = gh_exact(X, Z, limits=limits)
    rzy = gh_exact(Z, Y, limits=limits)
    rxy = gh_exact(X, Y, limits=limits)
    return SegmentCertificate(
        d_xz=rxz.distance,
        d_zy=rzy.distance,
        d_xy=rxy.distance,
        member=rxz.distance + rzy.distance == rxy.distance,
        witness_xz=rxz.optimal,
        witness_zy=rzy.optimal,
        witness_xy=rxy.optimal,
    )


def certify_by_lifts(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    W: FiniteMetricSpace,
    witness_xw: Correspondence,
    witness_wy: Correspondence,
    d_xy: Fraction,
    witness_xy: Correspondence,
) -> SegmentCertificate:
    """Certify W as a member of [X, Y] from two correspondences, no solve.

    d_XW <= dis(witness_xw)/2 and d_WY <= dis(witness_wy)/2, and d_XY
    (certified by the caller) is at most d_XW + d_WY. When the two
    halved distortions sum to d_XY, every inequality is tight, so both
    bounds are the exact distances and the correspondences witness them.
    Each witness must be shaped for its two spaces, witness_xy included,
    else DomainError. The callers' lifts always tie, so a miss is a bug
    and raises ToolkitError (an if, not an assert, so it survives
    python -O).
    """
    _check_shape(witness_xy, X, Y)
    d_xw = distortion(X, W, witness_xw) / 2
    d_wy = distortion(W, Y, witness_wy) / 2
    if d_xw + d_wy != d_xy:
        raise ToolkitError(
            f"lifted witnesses give {d_xw} + {d_wy}, not d_XY = {d_xy}; "
            "the lift does not certify membership"
        )
    return SegmentCertificate(
        d_xz=d_xw,
        d_zy=d_wy,
        d_xy=d_xy,
        member=True,
        witness_xz=witness_xw,
        witness_zy=witness_wy,
        witness_xy=witness_xy,
    )


def geodesic_samples(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    R: Correspondence,
    d_xy: Fraction,
    ts: Sequence | None = None,
) -> list[tuple[InterpolatedSpace, SegmentCertificate]]:
    """The samples R_t (default five-point grid), each certified in [X, Y].

    d_xy is the certified d_GH(X, Y), and an R with dis R != 2 d_xy is
    refused (by an if, which python -O keeps). No sample takes a solve:
    certify_by_lifts ties R_0 = X by (identity, R), R_1 = Y by
    (R, identity) and an interior R_t by endpoint_lifts(R).
    """
    dis = distortion(X, Y, R)
    if dis != 2 * d_xy:
        raise DomainError(
            f"correspondence has distortion {dis}, but d_GH is {d_xy}; "
            "not a geodesic witness"
        )
    grid = DEFAULT_GRID if ts is None else tuple(as_fraction(t) for t in ts)
    samples = [interpolate(X, Y, R, t) for t in grid]
    ends = {0: (identity_correspondence(X.n), R), 1: (R, identity_correspondence(Y.n))}
    interior = endpoint_lifts(R)
    return [
        (s, certify_by_lifts(X, Y, s.realized, *ends.get(s.t, interior), d_xy, R))
        for s in samples
    ]


def admissible_delta(d_xz, d_zy) -> RationalInterval:
    """Star radii that keep Z* in the segment: (0, min{2 d_XZ, 2 d_ZY}]."""
    a = as_fraction(d_xz)
    b = as_fraction(d_zy)
    if a <= 0 or b <= 0:
        raise HypothesisError(
            f"star extension needs both distances positive, got {a} and {b}"
        )
    return RationalInterval(Fraction(0), 2 * min(a, b), lo_open=True, hi_open=False)


def admissible_mu(d_xz, d_zy, isolation=None) -> RationalInterval:
    """Graft radii that keep W(mu, m) in the segment, open at both ends.

    isolation is S(z*), the distance from the grafted point to the rest
    of Z; pass None for a one-point Z, where no isolation constraint
    exists.
    """
    vals = [as_fraction(d_xz), as_fraction(d_zy)]
    if isolation is not None:
        vals.append(as_fraction(isolation))
    if min(vals) <= 0:
        raise HypothesisError(
            "graft window needs positive distances and isolation, got "
            + ", ".join(frac_str(v) for v in vals)
        )
    return RationalInterval(Fraction(0), 2 * min(vals), lo_open=True, hi_open=True)


def _over_common_den(Z: FiniteMetricSpace, r: Fraction):
    """(den, Z's rows over den, r * den) for den the lcm of Z's and r's denominators."""
    den = math.lcm(Z.view.den, r.denominator)
    return den, Z.view.scaled(den), r.numerator * (den // r.denominator)


def star_extension(Z: FiniteMetricSpace, params: StarParams) -> FiniteMetricSpace:
    """Z plus one point z*: d(z*, z) is delta on the closed delta-ball
    around z0 and d(z0, z) elsewhere.

    The result is a metric for every delta > 0; admissibility of delta
    (which keeps the extension inside a segment) is a separate check,
    see admissible_delta.
    """
    delta = as_fraction(params.delta)
    if delta <= 0:
        raise DomainError(f"star radius must be > 0, got {delta}")
    if not 0 <= params.z0 < Z.n:
        raise DomainError(f"base point {params.z0} out of range")
    ball = closed_ball(Z, params.z0, delta).indices
    den, rows, radius = _over_common_den(Z, delta)
    star_row = [radius if i in ball else v for i, v in enumerate(rows[params.z0])]
    matrix = [list(row) + [s] for row, s in zip(rows, star_row)]
    matrix.append(star_row + [0])
    labels = _fresh_labels(list(Z.labels) + [Z.labels[params.z0] + "*"])
    return FiniteMetricSpace(labels, IntegerView(matrix, den))


def lift_star(R: Correspondence, z0: int) -> Correspondence:
    """Lift an X <-> Z correspondence to X <-> Z*: the preimage of z0
    additionally covers the new point (index Z.n).

    Never increases distortion when the star radius is admissible.
    """
    if not 0 <= z0 < R.ny:
        raise DomainError(f"base point {z0} out of range")
    pairs = set(R.pairs) | {(x, R.ny) for x in preimage(R, z0)}
    return Correspondence(frozenset(pairs), R.nx, R.ny + 1)


def simplex_graft(Z: FiniteMetricSpace, params: GraftParams) -> FiniteMetricSpace:
    """W(mu, m): remove z*, glue in an m-point simplex of side mu.

    Distances: within Z - z* unchanged; between a simplex vertex and
    w in Z - z*, the old d(z*, w); mu between distinct simplex vertices.
    W(mu, 1) is isometric to Z for any mu. For m >= 2 the triangle
    inequality forces mu <= 2 S(z*), so mu = 2 S(z*) is still a metric;
    whether mu keeps W in a segment is a separate check, see admissible_mu.
    """
    mu = as_fraction(params.mu)
    m = params.m
    if m < 1:
        raise DomainError(f"simplex size must be >= 1, got {m}")
    if mu <= 0:
        raise DomainError(f"graft radius must be > 0, got {mu}")
    if not 0 <= params.z_star < Z.n:
        raise DomainError(f"graft point {params.z_star} out of range")
    if Z.n >= 2 and m >= 2:
        s = isolation_radius(Z, params.z_star)
        if mu > 2 * s:
            raise DomainError(
                f"graft radius {mu} too large for isolation radius {s} "
                f"(needs mu <= {2 * s})"
            )
    keep = [i for i in range(Z.n) if i != params.z_star]
    den, rows, side = _over_common_den(Z, mu)
    cross = [rows[params.z_star][i] for i in keep]
    matrix = [[rows[i][j] for j in keep] + [c] * m for i, c in zip(keep, cross)]
    for v in range(m):
        matrix.append(cross + [side] * v + [0] + [side] * (m - 1 - v))
    star = Z.labels[params.z_star]
    labels = _fresh_labels([Z.labels[i] for i in keep] + [f"{star}#{v + 1}" for v in range(m)])
    return FiniteMetricSpace(labels, IntegerView(matrix, den))


def lift_graft(R: Correspondence, z_star: int, m: int) -> Correspondence:
    """Lift an X <-> Z correspondence to X <-> W(mu, m).

    Pairs through z_star fan out to all m simplex vertices; all other
    pairs keep their partner (reindexed after z_star's removal). Point
    order matches simplex_graft: Z - z* first, then the m vertices.
    """
    if m < 1:
        raise DomainError(f"simplex size must be >= 1, got {m}")
    if not 0 <= z_star < R.ny:
        raise DomainError(f"graft point {z_star} out of range")
    base = R.ny - 1
    pairs: set[tuple[int, int]] = set()
    for x, z in R.pairs:
        if z == z_star:
            pairs.update((x, base + v) for v in range(m))
        else:
            pairs.add((x, z if z < z_star else z - 1))
    return Correspondence(frozenset(pairs), R.nx, base + m)


@dataclass(frozen=True)
class _Graft:
    """What the members of one family share: Z, the graft point and
    radius, and Z's certificate, whose witnesses the members' lifts extend."""

    Z: FiniteMetricSpace
    z_star: int
    mu: Fraction
    base: SegmentCertificate

    def space(self, m: int) -> FiniteMetricSpace:
        return simplex_graft(self.Z, GraftParams(self.z_star, self.mu, m))

    def lifts(self, m: int) -> tuple[Correspondence, Correspondence]:
        """Z's witnesses lifted to X <-> W(mu, m) and W(mu, m) <-> Y."""
        xw = lift_graft(self.base.witness_xz, self.z_star, m)
        wy = transpose(lift_graft(transpose(self.base.witness_zy), self.z_star, m))
        return xw, wy


@dataclass(frozen=True)
class FamilyEntry:
    """One member W(mu, m) of a certified graft family.

    m, points (Z.n - 1 + m) and cov (at eps = mu/4) are plain numbers,
    and member is the verdict certified at min(m, 2). space and the
    certificate's lifted witnesses are built on first read; a space built
    that way is validated by its constructor like any other.
    """

    m: int
    points: int
    cov: int  # covering number of space at eps = mu/4
    _certified: SegmentCertificate = field(repr=False)  # the member at min(m, 2)
    _graft: _Graft = field(repr=False)

    @property
    def member(self) -> bool:
        return self._certified.member

    @cached_property
    def space(self) -> FiniteMetricSpace:
        return self._graft.space(self.m)

    @cached_property
    def certificate(self) -> SegmentCertificate:
        if self.m <= 2:
            return self._certified
        xw, wy = self._graft.lifts(self.m)
        return replace(self._certified, witness_xz=xw, witness_zy=wy)


@dataclass(frozen=True)
class NoncompactnessReport:
    """A certified graft family W(mu, m) with its (m, eps, cov) table.

    cov >= m for every row means no uniform covering bound N(eps) can
    exist across the family, so the precompactness criterion fails.
    """

    z_star: int
    z_star_label: str
    mu: Fraction
    eps: Fraction
    window: RationalInterval  # the admissible graft radii
    d_xz: Fraction
    d_zy: Fraction
    d_xy: Fraction
    entries: tuple[FamilyEntry, ...]

    @property
    def cov_at_least_m(self) -> bool:
        return all(e.cov >= e.m for e in self.entries)

    @property
    def all_members(self) -> bool:
        return all(e.member for e in self.entries)


def _pick_z_star(Z: FiniteMetricSpace) -> int:
    """Default graft point: the most isolated one (lowest index on ties)."""
    if Z.n == 1:
        return 0
    radii = [isolation_radius(Z, z) for z in range(Z.n)]
    best = max(radii)
    return radii.index(best)


def build_segment_family(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    Z: FiniteMetricSpace,
    ms: Sequence[int] = DEFAULT_MS,
    z_star: int | None = None,
    mu=None,
    limits: SolverLimits | None = None,
) -> NoncompactnessReport:
    """Graft W(mu, m) for each m in ms and certify its membership in [X, Y].

    Z must be an interior member of [X, Y] (member with both distances
    positive), otherwise no admissible mu exists. Defaults: the most
    isolated point of Z, and the midpoint radius min{d_XZ, d_ZY, S(z*)}
    of the admissible window; a caller-supplied radius outside the
    window is a hypothesis error.

    Z's certificate takes the family's only three solver runs; every
    member reuses d_XY and its witness, since X and Y never change. The
    rest is one finite check, whatever the sizes in ms:

    * for each value k = min(m, 2), W(mu, k) is built, and so validated
      in full, and certify_by_lifts runs on it and the lifts of Z's two
      witnesses at k; a member at m >= 2 has the 2-lift's distances,
      member flag and d_XY, and is a metric since W(mu, 2) is;
    * cov(Z, mu/4) is taken once, and cov(W(mu, m), mu/4) is
      m + cov(Z, mu/4) - 1.

    No W and no lift at m >= 3 is built here: FamilyEntry builds its
    space and its certificate's witnesses when they are first read.
    """
    ms = list(ms)
    if not ms:
        raise DomainError("need at least one simplex size m >= 1")
    if any(m < 1 for m in ms):
        raise DomainError("simplex sizes must be >= 1")
    base = segment_membership(X, Y, Z, limits=limits)
    if not base.member:
        raise HypothesisError(
            f"Z is not in the segment: gap {frac_str(base.gap)} (d_XZ={frac_str(base.d_xz)}, "
            f"d_ZY={frac_str(base.d_zy)}, d_XY={frac_str(base.d_xy)})"
        )
    if base.d_xz == 0 or base.d_zy == 0:
        raise HypothesisError(
            "Z must be an interior member; an endpoint admits no graft radius"
        )
    zs = _pick_z_star(Z) if z_star is None else z_star
    if not 0 <= zs < Z.n:
        raise DomainError(f"graft point {zs} out of range")
    iso = isolation_radius(Z, zs) if Z.n >= 2 else None
    window = admissible_mu(base.d_xz, base.d_zy, iso)
    if mu is None:
        mu = window.hi / 2
    else:
        mu = as_fraction(mu)
        if not window.contains(mu):
            raise HypothesisError(
                f"graft radius {frac_str(mu)} outside the admissible window {window}"
            )
    eps = mu / 4
    graft = _Graft(Z, zs, mu, base)
    certified = {}
    for k in sorted({min(m, 2) for m in ms}):
        certified[k] = certify_by_lifts(
            X, Y, graft.space(k), *graft.lifts(k), base.d_xy, base.witness_xy
        )
    # mu < 2 S(z*) puts every vertex alone in its eps-ball, out of reach
    # of Z - z*, whose cover is the one in Z less z*'s own ball
    cov_z = covering_number(Z, eps)
    entries = [
        FamilyEntry(m, Z.n - 1 + m, m + cov_z - 1, certified[min(m, 2)], graft)
        for m in ms
    ]
    return NoncompactnessReport(
        z_star=zs,
        z_star_label=Z.labels[zs],
        mu=mu,
        eps=eps,
        window=window,
        d_xz=base.d_xz,
        d_zy=base.d_zy,
        d_xy=base.d_xy,
        entries=tuple(entries),
    )


def noncompactness_report(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    Z: FiniteMetricSpace,
    m_max: int = DEFAULT_M_MAX,
    z_star: int | None = None,
    mu=None,
    limits: SolverLimits | None = None,
) -> NoncompactnessReport:
    """The certified family W(mu, 1..m_max), see build_segment_family.

    Each open eps-ball meets at most one simplex vertex when eps < mu/2,
    so cov(W(mu, m), eps) >= m (at eps = mu/4 it is m + cov(Z, eps) - 1):
    the covering numbers grow without bound along the family while every
    member stays in [X, Y].
    """
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    return build_segment_family(X, Y, Z, range(1, m_max + 1), z_star, mu, limits)
