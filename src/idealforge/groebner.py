"""Buchberger engine over exact fields for desk-scale configuration ideals.

Normal pair selection with the coprime and chain criteria, content
normalization after every reduction, and a hard budget on reduction work.
The certification route is deliberately blunt: when a reduced basis gives a
quotient dimension equal to the point count and every input generator
vanishes on the points, the candidate ideal can cut out nothing beyond the
points and carries no multiplicity, so it is exactly their vanishing ideal.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .configs import SphericalConfiguration
from .exact import Scalar, _fdiv, _primitive
from .gamma import ENTRY_GUARD, evaluation_nullity
from .generators import GeneratorSet
from .poly import (
    GREVLEX,
    MonomialOrdering,
    SparsePoly,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    poly_to_text,
)
from .verify import LEVEL_FULL_GROEBNER, LEVEL_PAPER

Monomial = Tuple[int, ...]

DEFAULT_BUDGET = 2 * 10**6
STAIRCASE_CAP = 10**6


class BudgetExceededError(RuntimeError):
    """The run needed more reduction steps than the budget allows."""


class InfiniteStaircaseError(ValueError):
    """No pure power of some variable leads the ideal: the quotient is infinite."""


# ---------------------------------------------------------------------------
# reduction with a work meter
# ---------------------------------------------------------------------------


class _WorkMeter:
    __slots__ = ("steps", "budget")

    def __init__(self, budget: int):
        self.steps = 0
        self.budget = budget

    def bump(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceededError(
                f"reduction budget of {self.budget} steps exhausted"
            )


def _normalized(p: SparsePoly) -> SparsePoly:
    """Strip the rational content so coefficients stay near-integral."""
    if p.is_zero():
        return p
    monos = list(p.terms)
    vals = _primitive([p.terms[m] for m in monos])
    out = SparsePoly.zero(p.nvars, p.field_d)
    out.terms = dict(zip(monos, vals))
    return out


def _monic(p: SparsePoly, ordering: MonomialOrdering) -> SparsePoly:
    lc = p.leading_coefficient(ordering)
    if lc == 1:
        return p
    return p * _fdiv(1, lc)


def _reduce(
    f: SparsePoly,
    basis: Sequence[SparsePoly],
    lead: Sequence[Tuple[Monomial, Scalar]],
    ordering: MonomialOrdering,
    work: _WorkMeter,
) -> SparsePoly:
    """Full normal form of f against the basis, counting every step."""
    rem = SparsePoly.zero(f.nvars, f.field_d)
    p = f.copy()
    while not p.is_zero():
        lm = p.leading_monomial(ordering)
        lc = p.terms[lm]
        for g, (gm, gc) in zip(basis, lead):
            if mono_divides(gm, lm):
                work.bump()
                p = p - g * SparsePoly(f.nvars, {mono_div(lm, gm): _fdiv(lc, gc)}, f.field_d)
                break
        else:
            rem.terms[lm] = lc
            del p.terms[lm]
    return rem


def s_polynomial(
    f: SparsePoly, g: SparsePoly, ordering: MonomialOrdering = GREVLEX
) -> SparsePoly:
    """The classical cancellation combination of two leading terms."""
    fm = f.leading_monomial(ordering)
    gm = g.leading_monomial(ordering)
    l = mono_lcm(fm, gm)
    uf = SparsePoly(f.nvars, {mono_div(l, fm): _fdiv(1, f.terms[fm])}, f.field_d)
    ug = SparsePoly(g.nvars, {mono_div(l, gm): _fdiv(1, g.terms[gm])}, g.field_d)
    return uf * f - ug * g


def _as_given(gens) -> List:
    """Generator inputs in their stored form (factored or sparse), in order."""
    if isinstance(gens, GeneratorSet):
        return [p for _label, p in gens]
    return list(gens)


def _collect(gens) -> List[SparsePoly]:
    """Generator inputs as expanded polynomials, in deterministic order."""
    return [p.expand() if hasattr(p, "expand") else p for p in _as_given(gens)]


# ---------------------------------------------------------------------------
# the basis
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class GroebnerBasis:
    """Reduced basis: monic elements, no term divisible by another's lead."""

    polys: List[SparsePoly]
    ordering: MonomialOrdering
    reduced: bool
    reductions: int = 0

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def leading_monomials(self) -> List[Monomial]:
        return [p.leading_monomial(self.ordering) for p in self.polys]

    def normal_form(self, f: SparsePoly, budget: int = DEFAULT_BUDGET) -> SparsePoly:
        lead = [(p.leading_monomial(self.ordering), p.leading_coefficient(self.ordering)) for p in self.polys]
        return _reduce(f, self.polys, lead, self.ordering, _WorkMeter(budget))

    def to_text(self) -> List[str]:
        return [poly_to_text(p, self.ordering) for p in self.polys]


def buchberger(
    gens,
    ordering: MonomialOrdering = GREVLEX,
    budget: int = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced basis of the ideal the generators span.

    Pairs are processed smallest lcm first; pairs with coprime leading
    terms are dropped, as are pairs covered by an already-handled chain
    through a third element.  Every intermediate remainder has its content
    stripped.  Deterministic for a fixed input order and ordering.
    """
    work = _WorkMeter(budget)
    G: List[SparsePoly] = []
    for p in _collect(gens):
        if not p.is_zero():
            G.append(_normalized(p))
    if not G:
        raise ValueError("no nonzero generators")
    lead: List[Tuple[Monomial, Scalar]] = [
        (p.leading_monomial(ordering), p.leading_coefficient(ordering)) for p in G
    ]

    def pair_key(i: int, j: int):
        l = mono_lcm(lead[i][0], lead[j][0])
        return (mono_degree(l), ordering.key(l), i, j)

    heap: List[Tuple] = []
    for i, j in itertools.combinations(range(len(G)), 2):
        heapq.heappush(heap, (*pair_key(i, j), i, j))
    done = set()

    while heap:
        entry = heapq.heappop(heap)
        i, j = entry[-2], entry[-1]
        done.add((i, j))
        fm, gm = lead[i][0], lead[j][0]
        l = mono_lcm(fm, gm)
        if mono_degree(l) == mono_degree(fm) + mono_degree(gm):
            continue  # coprime leading terms cancel nothing new
        covered = any(
            k not in (i, j)
            and mono_divides(lead[k][0], l)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(G))
        )
        if covered:
            continue
        r = _reduce(s_polynomial(G[i], G[j], ordering), G, lead, ordering, work)
        if r.is_zero():
            continue
        r = _normalized(r)
        t = len(G)
        G.append(r)
        lead.append((r.leading_monomial(ordering), r.leading_coefficient(ordering)))
        for i2 in range(t):
            heapq.heappush(heap, (*pair_key(i2, t), i2, t))

    return GroebnerBasis(
        _interreduce(G, ordering, work), ordering, reduced=True, reductions=work.steps
    )


def _interreduce(
    G: List[SparsePoly], ordering: MonomialOrdering, work: _WorkMeter
) -> List[SparsePoly]:
    """Minimal monic basis with every element fully reduced by the others."""
    lts = [p.leading_monomial(ordering) for p in G]
    keep: List[int] = []
    for i, lt in enumerate(lts):
        dominated = any(
            k != i
            and mono_divides(lts[k], lt)
            and (lts[k] != lt or k < i)  # equal leads: first one wins
            for k in range(len(G))
        )
        if not dominated:
            keep.append(i)
    polys = [G[i] for i in keep]
    for _ in range(len(polys)):
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1:]
            if not others:
                continue
            lead = [(p.leading_monomial(ordering), p.leading_coefficient(ordering)) for p in others]
            r = _reduce(polys[i], others, lead, ordering, work)
            if r.is_zero():
                raise ArithmeticError("minimal basis element reduced to zero")
            r = _normalized(r)
            if r != polys[i]:
                polys[i] = r
                changed = True
        if not changed:
            break
    polys = [_monic(p, ordering) for p in polys]
    polys.sort(key=lambda p: ordering.key(p.leading_monomial(ordering)))
    return polys


# ---------------------------------------------------------------------------
# the quotient
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class QuotientData:
    """Monomials outside the leading-term ideal and their degree counts."""

    standard_monomials: List[Monomial]
    dimension: int
    hilbert: Dict[int, int]

    def hilbert_coefficients(self) -> List[int]:
        top = max(self.hilbert) if self.hilbert else 0
        return [self.hilbert.get(d, 0) for d in range(top + 1)]

    def cumulative(self, k: int) -> int:
        return sum(c for d, c in self.hilbert.items() if d <= k)


def quotient_data(basis: GroebnerBasis, cap: int = STAIRCASE_CAP) -> QuotientData:
    """Standard monomials of the basis's leading-term ideal, by degree.

    Zero-dimensional ideals show a pure power of every variable among the
    leading terms; anything else means an infinite staircase.  The cap
    bounds the candidate box scanned below those pure powers.
    """
    lts = basis.leading_monomials()
    if not lts:
        raise ValueError("empty basis")
    nvars = len(lts[0])
    box: List[int] = []
    for i in range(nvars):
        pure = [
            lt[i]
            for lt in lts
            if lt[i] > 0 and all(e == 0 for j, e in enumerate(lt) if j != i)
        ]
        if not pure:
            raise InfiniteStaircaseError(
                f"no pure power of variable {i + 1} leads the ideal"
            )
        box.append(min(pure))
    volume = 1
    for b in box:
        volume *= b
        if volume > cap:
            raise ValueError(f"staircase box beyond {cap} candidates")
    standard = [
        mono
        for mono in itertools.product(*(range(b) for b in box))
        if not any(mono_divides(lt, mono) for lt in lts)
    ]
    standard.sort(key=basis.ordering.key)
    hilbert: Dict[int, int] = {}
    for mono in standard:
        d = mono_degree(mono)
        hilbert[d] = hilbert.get(d, 0) + 1
    return QuotientData(standard, len(standard), hilbert)


def affine_hilbert_by_evaluation(
    cfg: SphericalConfiguration, kmax: int, guard: int = ENTRY_GUARD
) -> List[int]:
    """Rank of the degree <= k evaluation matrix for k = 0..kmax.

    Counts polynomial functions on the points degree by degree, straight
    from the points themselves; the quotient staircase must reproduce these
    numbers cumulatively whenever the basis generates the full vanishing
    ideal.
    """
    return [evaluation_nullity(cfg, k, guard=guard).rank for k in range(kmax + 1)]


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Certification:
    """Outcome of the zero-set / multiplicity-one / generation check."""

    level: str
    expected_points: int
    vanishing_ok: bool
    quotient_dimension: Optional[int]
    detail: str
    basis: Optional[GroebnerBasis] = None
    quotient: Optional[QuotientData] = None

    @property
    def certified(self) -> bool:
        return self.level == LEVEL_FULL_GROEBNER

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "points": self.expected_points,
            "vanishing_ok": self.vanishing_ok,
            "quotient_dimension": self.quotient_dimension,
            "detail": self.detail,
        }


def certify_full(
    cfg: SphericalConfiguration,
    gens,
    ordering: MonomialOrdering = GREVLEX,
    budget: int = DEFAULT_BUDGET,
) -> Certification:
    """Certify that the generators cut out exactly the configuration.

    Two facts suffice: every generator vanishes on the points, and the
    quotient by the computed basis has dimension equal to the point count.
    Together they pin the zero set to the points with all zeros simple,
    which makes the ideal radical and equal to the full vanishing ideal.
    Dimension mismatches downgrade the level and keep the diagnostics;
    budget exhaustion propagates as the resource error it is.
    """
    given = _as_given(gens)
    # a factored generator is evaluated factor by factor; only Buchberger
    # needs the expansion
    vanishing_ok = all(p.eval(x) == 0 for p in given for x in cfg.points)

    basis = buchberger(given, ordering=ordering, budget=budget)
    try:
        quotient = quotient_data(basis)
    except InfiniteStaircaseError as exc:
        return Certification(
            level=LEVEL_PAPER,
            expected_points=cfg.npoints,
            vanishing_ok=vanishing_ok,
            quotient_dimension=None,
            detail=str(exc),
            basis=basis,
        )

    if vanishing_ok and quotient.dimension == cfg.npoints:
        level = LEVEL_FULL_GROEBNER
        detail = (
            f"quotient dimension {quotient.dimension} matches the "
            f"{cfg.npoints} points; all zeros simple"
        )
    else:
        level = LEVEL_PAPER
        if not vanishing_ok:
            detail = "a generator misses the points"
        else:
            detail = (
                f"quotient dimension {quotient.dimension} exceeds the "
                f"{cfg.npoints} points"
                if quotient.dimension > cfg.npoints
                else f"quotient dimension {quotient.dimension} under the "
                f"{cfg.npoints} points"
            )
    return Certification(
        level=level,
        expected_points=cfg.npoints,
        vanishing_ok=vanishing_ok,
        quotient_dimension=quotient.dimension,
        detail=detail,
        basis=basis,
        quotient=quotient,
    )
