"""Degree thresholds: where nontrivial forms first appear in a configuration ideal.

Two thresholds are tracked.  The first is the least degree of a form that
vanishes on the configuration without being a multiple of the sphere
polynomial (plus, for embedded configurations, the declared linear forms).
That one is decidable by exact linear algebra: build the evaluation matrix
of all monomials up to degree k at the points and compare its nullity
against the dimension of the trivial kernel.  The second is the largest
degree needed to generate the whole ideal; we only ever report upper bounds
for it, tagged with the certificate level they rest on.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .configs import SphericalConfiguration
from .exact import Echelon, Quad, Scalar, dot, is_rational, stride_order
from .poly import SparsePoly, nm_poly
from .verify import DESIGN_STRENGTH, LEVEL_FULL_GROEBNER, LEVEL_PAPER

ENTRY_GUARD = 10**7

Monomial = Tuple[int, ...]


class EntryGuardError(ValueError):
    """The evaluation matrix would exceed the exact-arithmetic budget."""


# ---------------------------------------------------------------------------
# counting bound
# ---------------------------------------------------------------------------


def rk1(m: int, k: int) -> int:
    """Dimension of degree <= k polynomial functions on the (m-1)-sphere.

    Counts monomials of degree k and k-1 in m variables; multiples of the
    sphere polynomial absorb everything below that.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    lower = comb(m + k - 2, m - 1) if m + k >= 2 else 0
    return comb(m + k - 1, m - 1) + lower


def first_k_exceeding(m: int, npoints: int) -> int:
    """Least k with rk1(m, k) > npoints.

    Beyond that degree the evaluation map onto the points cannot be
    injective on sphere functions, so a nontrivial vanishing form exists.
    """
    if npoints < 0:
        raise ValueError("point count must be nonnegative")
    k = 0
    while rk1(m, k) <= npoints:
        k += 1
    return k


# ---------------------------------------------------------------------------
# evaluation matrix
# ---------------------------------------------------------------------------


def monomials_upto(m: int, k: int) -> List[Monomial]:
    """Exponent vectors of degree <= k in a fixed graded order."""

    def fixed_degree(pos: int, left: int) -> Iterator[Monomial]:
        if pos == m - 1:
            yield (left,)
            return
        for e in range(left, -1, -1):
            for rest in fixed_degree(pos + 1, left - e):
                yield (e,) + rest

    out: List[Monomial] = []
    for d in range(k + 1):
        out.extend(fixed_degree(0, d))
    return out


def _column_scaled_points(cfg: SphericalConfiguration) -> List[Tuple[Scalar, ...]]:
    """Points with pure sqrt(d) coordinates divided down to rationals.

    Scaling one coordinate of every point by a fixed nonzero field element
    multiplies each column of the evaluation matrix by a nonzero scalar,
    which never changes its rank.  When a coordinate is a rational multiple
    of sqrt(d) across the whole configuration (the 7-dimensional section is
    the case that matters), dividing it out makes the elimination rational
    and much faster.  Mixed coordinates are left alone.
    """
    pts = cfg.points
    m = cfg.m
    columns: List[List[Scalar]] = []
    for i in range(m):
        vals = [p[i] for p in pts]
        if all(is_rational(v) for v in vals):
            columns.append(vals)
            continue
        pure = all(
            (isinstance(v, Quad) and v.a == 0) or (is_rational(v) and v == 0)
            for v in vals
        )
        if pure:
            columns.append([v.b if isinstance(v, Quad) else Fraction(0) for v in vals])
        else:
            columns.append(vals)
    return [tuple(col[j] for col in columns) for j in range(len(pts))]


def _monomial_row(point: Sequence[Scalar], monos: Sequence[Monomial], k: int) -> List[Scalar]:
    m = len(point)
    powers: List[List[Scalar]] = []
    for x in point:
        col = [1]
        for _ in range(k):
            col.append(col[-1] * x)
        powers.append(col)
    row: List[Scalar] = []
    for alpha in monos:
        v: Scalar = 1
        for i in range(m):
            e = alpha[i]
            if e:
                v = v * powers[i][e]
        row.append(v)
    return row


@dataclasses.dataclass
class EvalRank:
    """Rank data of the degree <= k evaluation matrix at the points."""

    ncols: int
    rank: int
    nullity: int
    complete: bool  # False when the scan stopped at a proven rank ceiling


def evaluation_nullity(
    cfg: SphericalConfiguration,
    k: int,
    guard: int = ENTRY_GUARD,
    stop_rank: Optional[int] = None,
) -> EvalRank:
    """Exact nullity of the monomial evaluation matrix of degree <= k.

    Rows are points, columns are monomials in graded order.  Coefficient
    vectors in the kernel are exactly the degree <= k forms vanishing on the
    configuration.  When ``stop_rank`` is given and the running rank reaches
    it, the scan stops early: the caller promises rank can never exceed that
    value, so equality is already decided.  That scan visits the points in
    :func:`~idealforge.exact.stride_order`, which reaches the ceiling sooner.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    monos = monomials_upto(cfg.m, k)
    ncols = len(monos)
    if cfg.npoints * ncols > guard:
        raise EntryGuardError(
            f"{cfg.npoints} x {ncols} exact entries exceed the guard ({guard})"
        )
    n = cfg.npoints
    order = stride_order(n) if stop_rank is not None else range(n)
    packed = cfg.integer_array()
    ech = Echelon(ncols)
    if packed is not None:
        arr, _den = packed
        for i in order:
            # den-scaled integer coordinates scale each column uniformly
            row = _monomial_row([int(v) for v in arr[i]], monos, k)
            ech.add_row(row)
            if stop_rank is not None and ech.rank >= stop_rank:
                return EvalRank(ncols, ech.rank, ncols - ech.rank, False)
    else:
        pts = _column_scaled_points(cfg)
        for i in order:
            ech.add_row(_monomial_row(pts[i], monos, k))
            if stop_rank is not None and ech.rank >= stop_rank:
                return EvalRank(ncols, ech.rank, ncols - ech.rank, False)
    return EvalRank(ncols, ech.rank, ncols - ech.rank, True)


def trivial_dimension(cfg: SphericalConfiguration, k: int) -> int:
    """Dimension of the known kernel inside degree <= k forms.

    Plain configurations: multiples of the sphere polynomial by degree
    <= k-2 polynomials, which are independent, so the count is a binomial.
    Embedded configurations also contain multiples of the declared linear
    forms by degree <= k-1 polynomials; the products overlap, so the
    dimension is the exact rank of their coefficient matrix.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    m = cfg.m
    plain = comb(m + k - 2, m) if k >= 2 else 0
    if not cfg.embedded:
        return plain

    for form in cfg.trivial_linear:
        for p in cfg.points:
            if dot(form, p) != 0:
                raise ArithmeticError("declared linear form does not vanish on the points")
    monos = monomials_upto(m, k)
    index = {mono: j for j, mono in enumerate(monos)}
    ech = Echelon(len(monos))

    def add_products(base: SparsePoly, max_deg: int) -> None:
        for beta in monomials_upto(m, max_deg):
            prod = base * SparsePoly(m, {beta: 1}, cfg.field_d)
            row: List[Scalar] = [0] * len(monos)
            for mono, c in prod.terms.items():
                row[index[mono]] = c
            ech.add_row(row)

    if k >= 2:
        add_products(nm_poly(m, cfg.r2, cfg.field_d), k - 2)
    if k >= 1:
        for form in cfg.trivial_linear:
            add_products(SparsePoly.linear_form(form, cfg.field_d), k - 1)
    return ech.rank


# ---------------------------------------------------------------------------
# the first threshold
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BoundEntry:
    value: int
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value, "reason": self.reason}


@dataclasses.dataclass
class GammaBounds:
    """Proven two-sided bounds on the first threshold, with provenance."""

    lower: BoundEntry
    uppers: List[BoundEntry]

    @property
    def interval(self) -> Tuple[int, int]:
        return (self.lower.value, min(u.value for u in self.uppers))

    def to_dict(self) -> Dict[str, object]:
        lo, hi = self.interval
        return {
            "interval": [lo, hi],
            "lower": self.lower.to_dict(),
            "uppers": [u.to_dict() for u in self.uppers],
        }


def gamma1_bounds(
    cfg: SphericalConfiguration,
    strength: Optional[int] = None,
    exhibited_degree: Optional[int] = None,
) -> GammaBounds:
    """Bounds from design strength, the product count, and the point count.

    A configuration averaging every degree <= t polynomial admits no
    nontrivial vanishing form of degree <= t/2.  Upward, the number s of
    distinct inner products bounds the threshold by s (antipodal) or s+1,
    and so does the first k where the function-space dimension beats the
    point count.  An exhibited nontrivial generator pins its own degree.
    """
    if strength is None:
        strength = DESIGN_STRENGTH.get(cfg.name)
    if strength is not None:
        lower = BoundEntry(strength // 2 + 1, f"design strength t={strength}")
    else:
        lower = BoundEntry(1, "no design strength recorded")

    if cfg.embedded:
        # the linear-form multiples enlarge the trivial kernel, which voids
        # both the plain counting bound and the product-polynomial argument;
        # count degree <= k forms modulo the full trivial subspace instead
        kc = 1
        while comb(cfg.m + kc, cfg.m) - trivial_dimension(cfg, kc) <= cfg.npoints:
            kc += 1
        count_bound = BoundEntry(
            kc,
            f"{comb(cfg.m + kc, cfg.m)} monomials minus the trivial kernel "
            f"exceed {cfg.npoints} points",
        )
        uppers = [count_bound]
    else:
        s = len(cfg.omegas) - 1
        if cfg.antipodal:
            prod_bound = BoundEntry(s, f"{s} distinct inner products, antipodal")
        else:
            prod_bound = BoundEntry(s + 1, f"{s} distinct inner products")
        kc = first_k_exceeding(cfg.m, cfg.npoints)
        count_bound = BoundEntry(
            kc, f"rk1({cfg.m},{kc})={rk1(cfg.m, kc)} > {cfg.npoints} points"
        )
        uppers = [prod_bound, count_bound]
    if exhibited_degree is not None:
        uppers.append(
            BoundEntry(exhibited_degree, "exhibited nontrivial generator of this degree")
        )
    bounds = GammaBounds(lower, uppers)
    lo, hi = bounds.interval
    if lo > hi:
        raise ArithmeticError(f"bound crossing for {cfg.name}: [{lo}, {hi}]")
    return bounds


def gamma1_exact(
    cfg: SphericalConfiguration,
    kmax: Optional[int] = None,
    guard: int = ENTRY_GUARD,
):
    """Least degree with a nontrivial vanishing form, by evaluation nullity.

    Scans k = 1, 2, ... comparing the exact evaluation-matrix nullity
    against the trivial kernel dimension; the first strict excess is the
    answer.  Degrees whose matrix would blow the entry guard fall back to
    the proven interval from ``gamma1_bounds`` (the value for the big
    lattice is pinned by its bounds anyway).  A ``kmax`` below the proven
    upper bound may end the scan inconclusively, reported as None.
    """
    bounds = gamma1_bounds(cfg)
    _, hi = bounds.interval
    limit = hi if kmax is None else kmax
    for k in range(1, limit + 1):
        trivial = trivial_dimension(cfg, k)
        if comb(cfg.m + k, cfg.m) - cfg.npoints > trivial:
            # rank <= rows, so nullity >= ncols - npoints > trivial: a
            # nontrivial form exists without eliminating (e8 at k=4:
            # 495 - 240 = 255 > 45)
            return k
        try:
            ev = evaluation_nullity(
                cfg, k, guard=guard, stop_rank=ev_stop(cfg, k, trivial)
            )
        except EntryGuardError:
            return bounds.interval
        if ev.nullity > trivial:
            return k
        if ev.nullity < trivial:
            raise ArithmeticError(
                f"{cfg.name}: nullity {ev.nullity} below the trivial dimension "
                f"{trivial} at degree {k}"
            )
    if kmax is not None and kmax < hi:
        return None
    raise ArithmeticError(
        f"{cfg.name}: no nontrivial form up to the proven upper bound {hi}"
    )


def ev_stop(cfg: SphericalConfiguration, k: int, trivial: int) -> int:
    """Rank ceiling of the degree <= k evaluation matrix.

    The trivial kernel always sits inside the full kernel, so the rank can
    never exceed ncols minus the trivial dimension; reaching that ceiling
    decides nullity == trivial without touching the remaining points.
    """
    return comb(cfg.m + k, cfg.m) - trivial


# ---------------------------------------------------------------------------
# the second threshold
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Gamma2Status:
    """Upper bound on the generating degree, tagged by certificate level."""

    upper: int
    level: str
    gamma1: Optional[int] = None
    modulo_linear: bool = False

    @property
    def equality(self) -> str:
        if self.gamma1 is None or self.gamma1 != self.upper:
            return "open"
        return "yes" if self.level == LEVEL_FULL_GROEBNER else "conditional"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "upper": self.upper,
            "level": self.level,
            "equals_first_threshold": self.equality,
        }
        if self.modulo_linear:
            out["modulo_linear_forms"] = True
        return out


def gamma2_status(
    cfg: SphericalConfiguration,
    generated_degree: int,
    certified: bool,
    gamma1: Optional[int] = None,
) -> Gamma2Status:
    """Status of the generating-degree bound for a configuration ideal.

    ``certified`` means a full Groebner certificate equated the candidate
    generators with the vanishing ideal, making the bound unconditional and,
    when the first threshold meets it, an equality.  Without it the bound
    stands at certificate level only.
    """
    level = LEVEL_FULL_GROEBNER if certified else LEVEL_PAPER
    return Gamma2Status(
        upper=generated_degree,
        level=level,
        gamma1=gamma1,
        modulo_linear=cfg.embedded,
    )


# ---------------------------------------------------------------------------
# assembled profile
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class GammaResult:
    """Thresholds, bounds, and the counting table for one configuration."""

    name: str
    gamma1: Optional[int]
    interval: Tuple[int, int]
    bounds: GammaBounds
    rk_table: Dict[int, int]
    gamma2: Optional[Gamma2Status] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "gamma1": self.gamma1,
            "interval": list(self.interval),
            "bounds": self.bounds.to_dict(),
            "rk1": {str(k): v for k, v in sorted(self.rk_table.items())},
        }
        if self.gamma2 is not None:
            out["gamma2"] = self.gamma2.to_dict()
        return out


def gamma_profile(
    cfg: SphericalConfiguration,
    guard: int = ENTRY_GUARD,
    strength: Optional[int] = None,
    exhibited_degree: Optional[int] = None,
    gamma2: Optional[Gamma2Status] = None,
    name: Optional[str] = None,
) -> GammaResult:
    """Full threshold report: exact scan inside proven bounds, plus the table."""
    bounds = gamma1_bounds(cfg, strength=strength, exhibited_degree=exhibited_degree)
    lo, hi = bounds.interval
    value = gamma1_exact(cfg, guard=guard)
    if isinstance(value, tuple):
        interval = value
        exact: Optional[int] = lo if lo == value[1] else None
    else:
        exact = value
        interval = (value, value)
    if exact is not None and not lo <= exact <= hi:
        raise ArithmeticError(
            f"{cfg.name}: computed threshold {exact} escapes the proven [{lo}, {hi}]"
        )
    kc = first_k_exceeding(cfg.m, cfg.npoints)
    table = {k: rk1(cfg.m, k) for k in range(1, kc + 1)}
    if gamma2 is not None and gamma2.gamma1 is None:
        gamma2.gamma1 = exact
    return GammaResult(
        name=name or cfg.name,
        gamma1=exact,
        interval=interval,
        bounds=bounds,
        rk_table=table,
        gamma2=gamma2,
    )
