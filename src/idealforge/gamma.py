"""Degree thresholds: where nontrivial forms first appear in a configuration ideal.

Two thresholds are tracked.  The first is the least degree of a form that
vanishes on the configuration without being a multiple of the sphere
polynomial (plus, for embedded configurations, the declared linear forms).
That one is decidable by exact linear algebra: build the evaluation matrix
of all monomials up to degree k at the points and compare its nullity
against the dimension of the trivial kernel.  Most ranks are proven without
exact elimination, where the rank modulo one prime (a lower bound) meets the
row count, the parity split or the trivial kernel (upper bounds).  The
second is the largest degree needed to generate the whole ideal; we only
ever report upper bounds for it, tagged with the certificate level they
rest on.
"""

from __future__ import annotations

import dataclasses
from itertools import islice
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .configs import SphericalConfiguration
from .exact import (
    RANK_PRIME,
    Echelon,
    Scalar,
    dot,
    rank_mod_p,
    stride_order,
    to_mod_p,
)
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


def _monomial_matrix_mod_p(X: np.ndarray, monos: Sequence[Monomial], k: int) -> np.ndarray:
    """Evaluation matrix mod p at the rows of X, whose entries lie in [0, p).

    Every product is of two values in [0, p), so below 2^40 in int64.
    """
    p = RANK_PRIME
    powers = [np.ones_like(X)]
    for _ in range(k):
        powers.append(powers[-1] * X % p)
    out = np.empty((X.shape[0], len(monos)), dtype=np.int64)
    for j, alpha in enumerate(monos):
        col = powers[0][:, 0]
        for i, e in enumerate(alpha):
            if e:
                col = col * powers[e][:, i] % p
        out[:, j] = col
    return out


def _points_mod_p(cfg: SphericalConfiguration, rows: Optional[Sequence[int]]) -> np.ndarray:
    """Coordinates mod p of the given points (all of them for None).

    Integer configurations reduce their den-scaled array, which scales each
    monomial column by den^degree and so keeps its exact rank; the exact list
    of an array-backed set is never built.  Other coordinates go through
    :func:`~idealforge.exact.to_mod_p`, which raises ZeroDivisionError on a
    denominator divisible by p.
    """
    packed = cfg.integer_array()
    if packed is not None:
        arr = packed[0] if rows is None else packed[0][list(rows)]
        return np.mod(arr, RANK_PRIME).astype(np.int64)
    pts = cfg.points if rows is None else [cfg.points[i] for i in rows]
    return np.array(
        [[to_mod_p(c) for c in pt] for pt in pts], dtype=np.int64
    ).reshape(len(pts), cfg.m)


def sign_classes(cfg: SphericalConfiguration) -> int:
    """Number of classes of the points under x ~ -x, counted from the points."""
    return len({frozenset((p, tuple(-c for c in p))) for p in cfg.points})


def rank_upper_bound(cfg: SphericalConfiguration, k: int) -> int:
    """Proven ceiling on the rank of the degree <= k evaluation matrix.

    The rank is at most the row count.  It is also at most the rank of the
    even-degree columns plus that of the odd-degree ones.  With c the number
    of classes of the points under x ~ -x, an even-degree monomial takes one
    value per class and an odd-degree one takes one value per class up to
    sign, so each block has at most c distinct rows up to sign:
    rank <= min(#even, c) + min(#odd, c), for any point set.  For n distinct
    points c >= n/2, so the split bound can fall below the column count only
    when max(#even, #odd) > n/2, and only then is c counted.
    """
    n = cfg.npoints
    ncols = comb(cfg.m + k, cfg.m)
    even = sum(comb(cfg.m + d - 1, d) for d in range(0, k + 1, 2))
    odd = ncols - even
    if 2 * max(even, odd) <= n:
        return min(n, ncols)
    c = sign_classes(cfg)
    return min(n, min(even, c) + min(odd, c))


def _rank_mod_p(
    cfg: SphericalConfiguration, monos: Sequence[Monomial], k: int, ceiling: int
) -> int:
    """Rank mod p of the evaluation matrix, from a head of the points first.

    The first 2 * ncols points in stride order give a row subset, whose rank
    mod p is still a lower bound; all points are reduced only when that head
    stays below ``ceiling``.  Raises ZeroDivisionError when p divides a
    denominator.
    """
    head = 2 * len(monos)
    if cfg.npoints > head:
        rows = list(islice(stride_order(cfg.npoints), head))
        r = rank_mod_p(_monomial_matrix_mod_p(_points_mod_p(cfg, rows), monos, k))
        if r >= ceiling:
            return r
    return rank_mod_p(_monomial_matrix_mod_p(_points_mod_p(cfg, None), monos, k))


@dataclasses.dataclass
class EvalRank:
    """Rank data of the degree <= k evaluation matrix at the points."""

    ncols: int
    rank: int
    nullity: int
    complete: bool  # False when the rank met a caller's ceiling (stop_rank)


def evaluation_nullity(
    cfg: SphericalConfiguration,
    k: int,
    guard: int = ENTRY_GUARD,
    stop_rank: Optional[int] = None,
) -> EvalRank:
    """Exact nullity of the monomial evaluation matrix of degree <= k.

    Rows are points, columns are monomials in graded order.  Coefficient
    vectors in the kernel are exactly the degree <= k forms vanishing on the
    configuration.  The rank mod p is a lower bound on the rank
    (:func:`~idealforge.exact.rank_mod_p`) and :func:`rank_upper_bound` an
    upper bound; when they meet, the rank is proven without exact
    elimination.  ``stop_rank`` is a further ceiling the caller promises the
    rank never exceeds, so reaching it decides equality too.  Otherwise the
    rows stream through an exact :class:`~idealforge.exact.Echelon`, in
    :func:`~idealforge.exact.stride_order` when ``stop_rank`` is given, which
    reaches that ceiling sooner.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    monos = monomials_upto(cfg.m, k)
    ncols = len(monos)
    if cfg.npoints * ncols > guard:
        raise EntryGuardError(
            f"{cfg.npoints} x {ncols} exact entries exceed the guard ({guard})"
        )

    def result(rank: int) -> EvalRank:
        complete = stop_rank is None or rank < stop_rank
        return EvalRank(ncols, rank, ncols - rank, complete)

    ceiling = rank_upper_bound(cfg, k)
    if stop_rank is not None:
        ceiling = min(ceiling, stop_rank)
    try:
        r = _rank_mod_p(cfg, monos, k, ceiling)
    except ZeroDivisionError:
        r = -1  # a denominator divisible by p: eliminate exactly
    if r > ceiling:
        raise ArithmeticError(f"{cfg.name}: rank mod p {r} above the ceiling {ceiling}")
    if r == ceiling:
        return result(r)

    n = cfg.npoints
    order = stride_order(n) if stop_rank is not None else range(n)
    packed = cfg.integer_array()
    ech = Echelon(ncols)
    for i in order:
        # den-scaled integer coordinates scale each column uniformly
        point = [int(v) for v in packed[0][i]] if packed is not None else cfg.points[i]
        ech.add_row(_monomial_row(point, monos, k))
        if stop_rank is not None and ech.rank >= stop_rank:
            break
    return result(ech.rank)


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

    Scans k = 1, 2, ... comparing the evaluation-matrix nullity against the
    trivial kernel dimension; the first strict excess is the answer.  A
    degree is decided without elimination when ncols minus
    :func:`rank_upper_bound` already exceeds the trivial dimension, or when
    the rank mod p reaches ncols minus it (the rank can go no higher, so the
    nullity is the trivial one); exact elimination runs only when neither
    holds.  Degrees whose matrix would blow the entry guard fall back to
    the proven interval from ``gamma1_bounds`` (the value for the big
    lattice is pinned by its bounds anyway).  A ``kmax`` below the proven
    upper bound may end the scan inconclusively, reported as None.
    """
    bounds = gamma1_bounds(cfg)
    _, hi = bounds.interval
    limit = hi if kmax is None else kmax
    for k in range(1, limit + 1):
        trivial = trivial_dimension(cfg, k)
        if comb(cfg.m + k, cfg.m) - rank_upper_bound(cfg, k) > trivial:
            # nullity >= ncols - (rank ceiling) > trivial: a nontrivial form
            # exists without eliminating (e8 at k=4 by the row count,
            # 495 - 240 = 255 > 45; e7 at k=3 by the parity split,
            # 120 - (29 + 63) = 28 > 8)
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
