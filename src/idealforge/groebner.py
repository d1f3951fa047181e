"""Buchberger engine over exact fields for desk-scale configuration ideals.

Normal pair selection with the coprime and chain criteria, content
normalization after every reduction, and a hard budget on reduction work.
The pass runs fraction-free on integer coefficients (see ``_reduce``); field
coefficients come back only in the final monic basis.
The certification route is deliberately blunt: when a reduced basis gives a
quotient dimension equal to the point count and every input generator
vanishes on the points, the candidate ideal can cut out nothing beyond the
points and carries no multiplicity, so it is exactly their vanishing ideal.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, floordiv, itemgetter, mul
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .configs import SphericalConfiguration
from .exact import FieldMismatchError, Quad, Scalar, _fdiv
from .gamma import evaluation_nullity
from .generators import FactoredPoly, GeneratorSet
from .poly import (
    GREVLEX,
    MonomialOrdering,
    SparsePoly,
    _first_divisor,
    _heap_reduce,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    poly_to_text,
)
from .verify import LEVEL_FULL_GROEBNER, LEVEL_PAPER, _generic_vanishing

Monomial = Tuple[int, ...]

DEFAULT_BUDGET = 2 * 10**6
STAIRCASE_CAP = 10**6


class BudgetExceededError(RuntimeError):
    """The run needed more reduction steps than the budget allows.

    Carries what the budget bought: the steps taken, the basis size reached
    and the pairs still queued.
    """

    def __init__(self, steps: int, basis_size: int, pairs_left: int):
        self.steps = steps
        self.basis_size = basis_size
        self.pairs_left = pairs_left
        super().__init__(
            f"reduction budget of {steps} steps exhausted with "
            f"{basis_size} basis elements and {pairs_left} pairs left"
        )


class InfiniteStaircaseError(ValueError):
    """No pure power of some variable leads the ideal: the quotient is infinite."""


class _WorkMeter:
    """Counts reduction steps; past the budget it raises with the run's state.

    ``basis`` and ``pairs`` are the live basis and pair queue of the run, read
    only for their sizes when the budget runs out.
    """

    __slots__ = ("steps", "budget", "basis", "pairs")

    def __init__(self, budget: int, basis: Sequence = (), pairs: Sequence = ()):
        self.steps = 0
        self.budget = budget
        self.basis = basis
        self.pairs = pairs

    def bump(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceededError(self.budget, len(self.basis), len(self.pairs))


# ---------------------------------------------------------------------------
# integer coefficients
# ---------------------------------------------------------------------------
#
# Inside buchberger a polynomial is a dict monomial -> integer coefficient:
# an int over Q, a pair (x, y) of ints meaning x + y*sqrt(d) over Q(sqrt d).
# Each one stands for a positive rational multiple of the field polynomial
# that the same pass in field arithmetic would hold at that point.  The two
# rings below give the arithmetic; they differ only in the coefficients.


class _Integers:
    """Coefficients of a polynomial over Q, as ints."""

    d = None
    one = 1
    pack = staticmethod(itemgetter(0))
    mul = scaled = staticmethod(mul)
    divided = staticmethod(floordiv)

    @staticmethod
    def parts(x: Scalar) -> Tuple:
        if isinstance(x, Quad):
            if x.b:
                raise FieldMismatchError(f"coefficient in Q(sqrt {x.d}) inside a field-None polynomial")
            return (x.a,)
        return (x,)

    @staticmethod
    def content(coeffs) -> int:
        return gcd(*coeffs)

    @staticmethod
    def positive_factor(c: int) -> int:
        """w with w*c a positive integer."""
        return 1 if c > 0 else -1

    @staticmethod
    def cancel(lc: int, dc: int) -> Tuple[int, int]:
        """a > 0 and b with a*lc == b*dc, both divided by gcd(lc, dc)."""
        h = gcd(lc, dc)
        return (dc // h, lc // h) if dc > 0 else (-dc // h, -lc // h)

    @staticmethod
    def submul(p: Dict, qm: Monomial, b: int, g: Dict, dm, push) -> None:
        """p -= b * qm * (g without its term at dm), calling push(m) for each new monomial m."""
        for t, c in g.items():
            if t == dm:
                continue
            m = tuple(map(add, qm, t))
            old = p.get(m)
            if old is None:
                p[m] = -b * c
                push(m)
            else:
                v = old - b * c
                if v:
                    p[m] = v
                else:
                    del p[m]

    @staticmethod
    def to_field(c: int, lc: int) -> Scalar:
        """c / lc as an exact scalar."""
        return c if lc == 1 else Fraction(c, lc)


class _QuadIntegers:
    """Coefficients of a polynomial over Q(sqrt d), as pairs (x, y) for x + y*sqrt(d)."""

    one = (1, 0)

    def __init__(self, d: int):
        self.d = d

    def parts(self, x: Scalar) -> Tuple:
        if isinstance(x, Quad):
            if x.b and x.d != self.d:
                raise FieldMismatchError(f"coefficient in Q(sqrt {x.d}) inside a field-{self.d} polynomial")
            return (x.a, x.b)
        return (x, 0)

    pack = staticmethod(tuple)

    @staticmethod
    def content(coeffs) -> int:
        return gcd(*itertools.chain.from_iterable(coeffs))

    @staticmethod
    def divided(c: Tuple[int, int], h: int) -> Tuple[int, int]:
        return (c[0] // h, c[1] // h)

    @staticmethod
    def scaled(c: Tuple[int, int], a: int) -> Tuple[int, int]:
        return (c[0] * a, c[1] * a)

    def mul(self, c: Tuple[int, int], e: Tuple[int, int]) -> Tuple[int, int]:
        return (c[0] * e[0] + self.d * c[1] * e[1], c[0] * e[1] + c[1] * e[0])

    def norm(self, c: Tuple[int, int]) -> int:
        """c * conj(c), a nonzero integer for c != 0 since d is not a square."""
        return c[0] * c[0] - self.d * c[1] * c[1]

    def positive_factor(self, c: Tuple[int, int]) -> Tuple[int, int]:
        """w with w*c a positive integer: +-conj(c), with the sign of the norm."""
        return (c[0], -c[1]) if self.norm(c) > 0 else (-c[0], c[1])

    def cancel(self, lc, dc) -> Tuple[int, Tuple[int, int]]:
        """a > 0 and b with a*lc == b*dc: a = |N(dc)|/h, b = sign(N)*lc*conj(dc)/h."""
        n = self.norm(dc)
        x, y = self.mul(lc, (dc[0], -dc[1]))
        if n < 0:
            n, x, y = -n, -x, -y
        h = gcd(n, x, y)
        return n // h, (x // h, y // h)

    def submul(self, p: Dict, qm: Monomial, b, g: Dict, dm, push) -> None:
        """p -= b * qm * (g without its term at dm), calling push(m) for each new monomial m."""
        d = self.d
        bx, by = b
        for t, (u, v) in g.items():
            if t == dm:
                continue
            m = tuple(map(add, qm, t))
            cx = bx * u + d * by * v
            cy = bx * v + by * u
            old = p.get(m)
            if old is None:
                p[m] = (-cx, -cy)
                push(m)
            else:
                x = old[0] - cx
                y = old[1] - cy
                if x or y:
                    p[m] = (x, y)
                else:
                    del p[m]

    def to_field(self, c, lc) -> Quad:
        """c / lc = c * conj(lc) / N(lc) as a Quad."""
        n = self.norm(lc)
        x, y = self.mul(c, (lc[0], -lc[1]))
        return Quad(Fraction(x, n), Fraction(y, n), self.d)


def _ring(d: Optional[int]):
    return _Integers() if d is None else _QuadIntegers(d)


def _no_push(_m: Monomial) -> None:
    pass


def _normalized(p: Dict, ring) -> Dict:
    """p divided by its positive content: the primitive form of every positive multiple of p."""
    h = ring.content(p.values())
    return {m: ring.divided(c, h) for m, c in p.items()}


def _lifted(terms: Dict[Monomial, Scalar], ring) -> Dict:
    """Exact field terms times the positive lcm of their denominators."""
    parts = {m: ring.parts(c) for m, c in terms.items() if c != 0}
    den = lcm(*(q.denominator for ps in parts.values() for q in ps))
    return {
        m: ring.pack([q.numerator * (den // q.denominator) for q in ps])
        for m, ps in parts.items()
    }


def _integer_form(p, ring) -> Dict:
    """Primitive integer dict of a generator, a positive multiple of its expansion.

    A ``FactoredPoly`` is multiplied out factor by factor, each factor
    lifted to integers on its own, so no Fraction is formed.
    """
    if not isinstance(p, FactoredPoly):
        return _normalized(_lifted(p.terms, ring), ring)
    zero = (0,) * p.nvars
    out = {zero: ring.one}
    for vec, c in p.factors:
        lin = {zero: -c}
        for i, v in enumerate(vec):
            e = [0] * p.nvars
            e[i] = 1
            lin[tuple(e)] = v
        prod: Dict = {}
        for t, fc in _lifted(lin, ring).items():
            ring.submul(prod, t, ring.scaled(fc, -1), out, None, _no_push)
        out = prod
    return _normalized(out, ring)


def _lead(p: Dict, ordering: MonomialOrdering) -> Tuple[Monomial, object]:
    m = max(p, key=ordering.key)
    return m, p[m]


def _monic(p: Dict, lead: Tuple[Monomial, object], ring) -> SparsePoly:
    """The field polynomial p / lc, the one place the pass forms fractions again."""
    lm, lc = lead
    out = SparsePoly.zero(len(lm), ring.d)
    out.terms = {m: ring.to_field(c, lc) for m, c in p.items()}
    return out


def _reduce(
    f: Dict,
    basis: Sequence[Dict],
    lead: Sequence[Tuple[Monomial, object]],
    ordering: MonomialOrdering,
    work: _WorkMeter,
    ring,
    first: Optional[Dict[Monomial, Tuple[Optional[int], int]]] = None,
) -> Dict:
    """Fraction-free full normal form of the integer dict f, counting every step.

    The heap loop of ``poly._heap_reduce`` with the same first-divisor
    lookup (``_first_divisor``, whose memo ``first`` buchberger keeps for a
    whole run while ``lead`` only grows by appending); only the coefficient
    update differs.  A lead term lc*lm reduced by a divisor with lead dc*dm
    takes the step P <- a*P - b*(lm/dm)*g with a*lc == b*dc, where a is a
    positive integer (``ring.cancel``: over Q, a = |dc|/h and
    b = sign(dc)*lc/h with h = gcd(lc, dc); over Q(sqrt d), a = |N(dc)|/h and
    b = sign(N)*lc*conj(dc)/h with N(dc) = dc*conj(dc)).

    Why the result is the field one:

    - a*P - b*(lm/dm)*g = a*(P - lc/dc*(lm/dm)*g), so if P is a positive
      rational multiple of the working polynomial of the field loop, it
      stays one.  Its support is the same at every step.
    - So the popped monomials, the first divisors (and the memo), and the
      step count are those of the field loop.
    - A remainder term keeps the multiplier M in force when it was emitted;
      at the end it is scaled once by M_end / M, an integer because M_end is
      M times the later a's.  The remainder returned is M_end times the field
      remainder, and ``_normalized`` divides that positive multiple down to
      the same primitive form as the field remainder's.
    """
    key = ordering.heap_key
    p = dict(f)
    heap = [(key(m), m) for m in p]
    heapq.heapify(heap)

    def push(m: Monomial) -> None:
        heapq.heappush(heap, (key(m), m))

    if first is None:
        first = {}
    rem: Dict[Monomial, Tuple[object, int]] = {}
    mult = 1
    while heap:
        lm = heapq.heappop(heap)[1]
        lc = p.pop(lm, None)
        if lc is None:
            continue
        i = _first_divisor(lm, lead, first)
        if i is None:
            rem[lm] = (lc, mult)
            continue
        work.bump()
        dm, dc = lead[i]
        a, b = ring.cancel(lc, dc)
        if a != 1:
            p = {m: ring.scaled(c, a) for m, c in p.items()}
            mult *= a
        ring.submul(p, mono_div(lm, dm), b, basis[i], dm, push)
    return {m: c if k == mult else ring.scaled(c, mult // k) for m, (c, k) in rem.items()}


def _spair(f: Dict, g: Dict, fl, gl, ring) -> Dict:
    """Integer S-polynomial of f and g, given their leads: a positive multiple of the field one.

    With w*fc = k a positive integer and a*k == b*gc (a > 0), the
    combination a*w*(l/fm)*f - b*(l/gm)*g cancels the lead at l and equals
    a*w*fc*((l/fm)*f/fc - (l/gm)*g/gc) = a*k*s_polynomial(f, g).
    """
    (fm, fc), (gm, gc) = fl, gl
    l = mono_lcm(fm, gm)
    w = ring.positive_factor(fc)
    a, b = ring.cancel(ring.mul(w, fc), gc)
    aw = ring.scaled(w, a)
    uf = mono_div(l, fm)
    p = {tuple(map(add, uf, t)): ring.mul(aw, c) for t, c in f.items() if t != fm}
    ring.submul(p, mono_div(l, gm), b, g, gm, _no_push)
    return p


def s_polynomial(
    f: SparsePoly, g: SparsePoly, ordering: MonomialOrdering = GREVLEX
) -> SparsePoly:
    """The classical cancellation combination of two leading terms, in field arithmetic."""
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


def _integer_inputs(gens):
    """The ring of the generators and their primitive integer forms, in order."""
    given = _as_given(gens)
    if not given:
        raise ValueError("no nonzero generators")
    nvars, d = given[0].nvars, given[0].field_d
    for p in given:
        if p.nvars != nvars:
            raise ValueError("variable count mismatch")
        if p.field_d != d:
            raise FieldMismatchError(f"field tags differ: {d} vs {p.field_d}")
    ring = _ring(d)
    return ring, [_integer_form(p, ring) for p in given]


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
        """Normal form of f in field arithmetic (``poly._heap_reduce``)."""
        lead = [(p.leading_monomial(self.ordering), p.leading_coefficient(self.ordering)) for p in self.polys]
        work = _WorkMeter(budget, self.polys)
        rem = _heap_reduce(dict(f.terms), self.polys, lead, self.ordering, {}, lambda _i, _qm, _qc: work.bump())
        out = SparsePoly.zero(f.nvars, f.field_d)
        out.terms = rem
        return out

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

    The pass runs on primitive integer forms, each a positive multiple of
    the field polynomial, so its pairs, steps and basis are those of the
    field pass (see ``_reduce``); only ``_monic`` forms fractions.
    """
    ring, inputs = _integer_inputs(gens)
    G: List[Dict] = [p for p in inputs if p]
    if not G:
        raise ValueError("no nonzero generators")
    lead = [_lead(p, ordering) for p in G]

    def pair_entry(i: int, j: int):
        # the unique (i, j) breaks every tie, so the lcm is never compared
        l = mono_lcm(lead[i][0], lead[j][0])
        return (mono_degree(l), ordering.key(l), i, j, l)

    heap = [pair_entry(i, j) for i, j in itertools.combinations(range(len(G)), 2)]
    heapq.heapify(heap)
    work = _WorkMeter(budget, G, heap)
    done: List[Set[int]] = [set() for _ in G]  # partners whose pair is done
    # lead only grows by appending below, so one first-divisor memo serves
    # every reduction of the run (see poly._first_divisor)
    first: Dict[Monomial, Tuple[Optional[int], int]] = {}

    while heap:
        degree, _key, i, j, l = heapq.heappop(heap)
        done[i].add(j)
        done[j].add(i)
        if degree == mono_degree(lead[i][0]) + mono_degree(lead[j][0]):
            continue  # coprime leading terms cancel nothing new
        if any(mono_divides(lead[k][0], l) for k in done[i] & done[j]):
            continue  # chain criterion: covered by (i, k) and (j, k), both done
        s = _spair(G[i], G[j], lead[i], lead[j], ring)
        r = _reduce(s, G, lead, ordering, work, ring, first)
        if not r:
            continue
        r = _normalized(r, ring)
        t = len(G)
        G.append(r)
        lead.append(_lead(r, ordering))
        done.append(set())
        for i2 in range(t):
            heapq.heappush(heap, pair_entry(i2, t))

    return GroebnerBasis(
        _interreduce(G, lead, ordering, work, ring), ordering, reduced=True, reductions=work.steps
    )


def _interreduce(
    G: List[Dict],
    lead: List[Tuple[Monomial, object]],
    ordering: MonomialOrdering,
    work: _WorkMeter,
    ring,
) -> List[SparsePoly]:
    """Minimal monic basis with every element fully reduced by the others.

    ``lead`` holds the leading monomial and coefficient of each element of
    G; an element's entry is recomputed only when the element changes.
    """
    lts = [m for m, _c in lead]
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
    leads = [lead[i] for i in keep]
    for _ in range(len(polys)):
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1:]
            if not others:
                continue
            r = _reduce(polys[i], others, leads[:i] + leads[i + 1:], ordering, work, ring)
            if not r:
                raise ArithmeticError("minimal basis element reduced to zero")
            r = _normalized(r, ring)
            if r != polys[i]:
                polys[i] = r
                leads[i] = _lead(r, ordering)
                changed = True
        if not changed:
            break
    order = sorted(range(len(polys)), key=lambda i: ordering.key(leads[i][0]))
    return [_monic(polys[i], leads[i], ring) for i in order]


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


def affine_hilbert_by_evaluation(cfg: SphericalConfiguration, kmax: int) -> List[int]:
    """Rank of the degree <= k evaluation matrix for k = 0..kmax.

    Counts polynomial functions on the points degree by degree, straight
    from the points themselves; the quotient staircase must reproduce these
    numbers cumulatively whenever the basis generates the full vanishing
    ideal.
    """
    return [evaluation_nullity(cfg, k).rank for k in range(kmax + 1)]


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
    # factored generators are checked in one exact product over all their
    # factors (verify._generic_vanishing); only Buchberger needs the expansion
    vanishing_ok = not _generic_vanishing([(None, p) for p in given], cfg.points, 1)

    basis = buchberger(given, budget=budget)
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
