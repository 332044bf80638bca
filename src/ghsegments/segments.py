"""Metric segments between finite spaces, and certified members.

Z lies in the segment [X, Y] exactly when

    d_GH(X, Z) + d_GH(Z, Y) = d_GH(X, Y)

and membership here is decided by exact rational equality on certified
gh_exact values, never by tolerance. Two constructions produce new
members from an interior member Z:

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
them) and each W(mu, m) with two more, X-W and W-Y: X and Y are the
same for every member, so d_XY and its witness are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondences import Correspondence, preimage, transpose
from .exceptions import DomainError, HypothesisError
from .solver import GhResult, SolverLimits, gh_exact
from .spaces import (
    FiniteMetricSpace,
    IntegerView,
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

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, q) -> bool:
        v = as_fraction(q)
        above = v > self.lo if self.lo_open else v >= self.lo
        below = v < self.hi if self.hi_open else v <= self.hi
        return above and below

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


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
    return _certificate(rxz, rzy, rxy.distance, rxy.optimal)


def _certificate(
    rxz: GhResult, rzy: GhResult, d_xy: Fraction, witness_xy: Correspondence
) -> SegmentCertificate:
    return SegmentCertificate(
        d_xz=rxz.distance,
        d_zy=rzy.distance,
        d_xy=d_xy,
        member=rxz.distance + rzy.distance == d_xy,
        witness_xz=rxz.optimal,
        witness_zy=rzy.optimal,
        witness_xy=witness_xy,
    )


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
            + ", ".join(str(v) for v in vals)
        )
    return RationalInterval(Fraction(0), 2 * min(vals), lo_open=True, hi_open=True)


def _fresh_label(base: str, taken) -> str:
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


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
    labels = list(Z.labels) + [_fresh_label(Z.labels[params.z0] + "*", Z.labels)]
    return FiniteMetricSpace(labels, IntegerView(matrix, den))


def lift_star(R: Correspondence, z0: int) -> Correspondence:
    """Lift an X <-> Z correspondence to X <-> Z*: the preimage of z0
    additionally covers the new point (index Z.n).

    Never increases distortion when the star radius is admissible.
    """
    if not 0 <= z0 < R.ny:
        raise DomainError(f"base point {z0} out of range")
    owners = preimage(R, z0)
    if not owners:
        raise DomainError(f"no pair covers point {z0}; not a correspondence")
    pairs = set(R.pairs) | {(x, R.ny) for x in owners}
    return Correspondence(frozenset(pairs), R.nx, R.ny + 1)


def simplex_graft(
    Z: FiniteMetricSpace, params: GraftParams, strict: bool = False
) -> FiniteMetricSpace:
    """W(mu, m): remove z*, glue in an m-point simplex of side mu.

    Distances: within Z - z* unchanged; between a simplex vertex and
    w in Z - z*, the old d(z*, w); mu between distinct simplex vertices.
    W(mu, 1) is isometric to Z for any mu. For m >= 2 the triangle
    inequality forces mu <= 2 S(z*); the strict flag tightens that to
    the admissibility-style strict bound mu < 2 S(z*).
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
        if mu > 2 * s or (strict and mu >= 2 * s):
            raise DomainError(
                f"graft radius {mu} too large for isolation radius {s} "
                f"(needs mu {'<' if strict else '<='} {2 * s})"
            )
    keep = [i for i in range(Z.n) if i != params.z_star]
    den, rows, side = _over_common_den(Z, mu)
    cross = [rows[params.z_star][i] for i in keep]
    matrix = [[rows[i][j] for j in keep] + [c] * m for i, c in zip(keep, cross)]
    for v in range(m):
        matrix.append(cross + [side] * v + [0] + [side] * (m - 1 - v))
    taken = [Z.labels[i] for i in keep]
    star = Z.labels[params.z_star]
    labels = list(taken)
    for v in range(m):
        lab = _fresh_label(f"{star}#{v + 1}", labels)
        labels.append(lab)
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
    if not preimage(R, z_star):
        raise DomainError(f"no pair covers point {z_star}; not a correspondence")
    base = R.ny - 1
    pairs: set[tuple[int, int]] = set()
    for x, z in R.pairs:
        if z == z_star:
            pairs.update((x, base + v) for v in range(m))
        else:
            pairs.add((x, z if z < z_star else z - 1))
    return Correspondence(frozenset(pairs), R.nx, base + m)


@dataclass(frozen=True)
class FamilyEntry:
    m: int
    space: FiniteMetricSpace
    certificate: SegmentCertificate
    cov: int  # covering number of space at eps = mu/4


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
        return all(e.certificate.member for e in self.entries)


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
    ms: Sequence[int] = (2, 3, 4),
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

    Z's certificate solves d_XY once, and every member reuses that value
    and its witness: X and Y never change. Each W then takes two solver
    runs, X-W and W-Y, seeded with the lifted witnesses of Z but
    certified from scratch. Covering numbers are taken at eps = mu/4.
    """
    ms = list(ms)
    if not ms:
        raise DomainError("need at least one simplex size m >= 1")
    if any(m < 1 for m in ms):
        raise DomainError("simplex sizes must be >= 1")
    base = segment_membership(X, Y, Z, limits=limits)
    if not base.member:
        raise HypothesisError(
            f"Z is not in the segment: gap {base.gap} (d_XZ={base.d_xz}, "
            f"d_ZY={base.d_zy}, d_XY={base.d_xy})"
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
                f"graft radius {mu} outside the admissible window {window}"
            )
    eps = mu / 4
    entries = []
    for m in ms:
        W = simplex_graft(Z, GraftParams(zs, mu, m))
        seed_xw = lift_graft(base.witness_xz, zs, m)
        seed_wy = transpose(lift_graft(transpose(base.witness_zy), zs, m))
        rxw = gh_exact(X, W, limits=limits, initial=seed_xw)
        rwy = gh_exact(W, Y, limits=limits, initial=seed_wy)
        cert = _certificate(rxw, rwy, base.d_xy, base.witness_xy)
        entries.append(FamilyEntry(m, W, cert, covering_number(W, eps)))
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
    m_max: int = 5,
    z_star: int | None = None,
    mu=None,
    limits: SolverLimits | None = None,
) -> NoncompactnessReport:
    """The certified family W(mu, 1..m_max), see build_segment_family.

    Each open eps-ball meets at most one simplex vertex when eps < mu/2,
    so cov(W(mu, m), eps) >= m: the covering numbers grow without bound
    along the family while every member stays in [X, Y].
    """
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    return build_segment_family(X, Y, Z, range(1, m_max + 1), z_star, mu, limits)
