"""Sparse multivariate polynomial arithmetic over exact scalars.

Monomials are dense exponent tuples (variable count is at most 24 here).
Coefficients are int/Fraction for Q or Quad for a quadratic field.  A
polynomial's field is that of its coefficients: a Quad carries its d and
raises FieldMismatchError where it meets a Quad of another field.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import add, le, neg, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact import (
    Quad,
    Scalar,
    _fdiv,
    parse_scalar,
    scalar_to_text,
)

Monomial = Tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


class MonomialOrdering:
    """Total monomial order; bigger key means bigger monomial."""

    def __init__(self, kind: str):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown ordering {kind!r}")
        self.kind = kind

    def key(self, m: Monomial):
        if self.kind == "grevlex":
            return (sum(m), tuple(map(neg, reversed(m))))
        return m

    def heap_key(self, m: Monomial):
        """A key that orders monomials in reverse: the least key is the largest monomial."""
        if self.kind == "grevlex":
            return (-sum(m), tuple(reversed(m)))
        return tuple(-e for e in m)

    def __repr__(self):
        return f"MonomialOrdering({self.kind!r})"

    def __eq__(self, other):
        return isinstance(other, MonomialOrdering) and self.kind == other.kind


GREVLEX = MonomialOrdering("grevlex")
LEX = MonomialOrdering("lex")


class SparsePoly:
    """Map monomial -> nonzero coefficient, with variable count."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Monomial, Scalar]] = None):
        self.nvars = nvars
        clean: Dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError("monomial arity mismatch")
                if c != 0:
                    clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "SparsePoly":
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparsePoly":
        """The variable Y_i, 1-indexed."""
        if not 1 <= i <= nvars:
            raise IndexError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> "SparsePoly":
        """Sum of c_i * Y_i for a coefficient vector."""
        n = len(coeffs)
        terms: Dict[Monomial, Scalar] = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def copy(self) -> "SparsePoly":
        p = SparsePoly.zero(self.nvars)
        p.terms = dict(self.terms)
        return p

    def _check_compat(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Quad)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_compat(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m, 0) + c
            if v == 0:
                terms.pop(m, None)
            else:
                terms[m] = v
        out = SparsePoly.zero(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SparsePoly.zero(self.nvars)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Quad)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "SparsePoly":
        if c == 0:
            return SparsePoly.zero(self.nvars)
        out = SparsePoly.zero(self.nvars)
        out.terms = {m: c * v for m, v in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Quad)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_compat(other)
        terms: Dict[Monomial, Scalar] = {}
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        for m2, c2 in small.items():
            for m1, c1 in big.items():
                m = mono_mul(m1, m2)
                v = terms.get(m, 0) + c1 * c2
                if v == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = v
        out = SparsePoly.zero(self.nvars)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Quad)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(other.terms[m] == c for m, c in self.terms.items())

    # -- calculus and evaluation ----------------------------------------------

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        maxexp = [0] * self.nvars
        for m in self.terms:
            for i, e in enumerate(m):
                if e > maxexp[i]:
                    maxexp[i] = e
        powers: List[List[Scalar]] = []
        for i in range(self.nvars):
            row: List[Scalar] = [1]
            for _ in range(maxexp[i]):
                row.append(row[-1] * point[i])
            powers.append(row)
        total: Scalar = 0
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v = v * powers[i][e]
            total = total + v
        return total

    def partial_derivative(self, i: int) -> "SparsePoly":
        """Formal derivative with respect to Y_i (1-indexed)."""
        if not 1 <= i <= self.nvars:
            raise IndexError(f"variable index {i} out of range")
        idx = i - 1
        terms: Dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                newm = list(m)
                newm[idx] = e - 1
                key = tuple(newm)
                v = terms.get(key, 0) + e * c
                if v == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = v
        out = SparsePoly.zero(self.nvars)
        out.terms = terms
        return out

    def compose_linear(self, rows: Sequence[Sequence[Scalar]], new_nvars: int) -> "SparsePoly":
        """Substitute Y_i := sum_j rows[i][j] * Z_j; result lives in new_nvars variables.

        Used for restricting ambient polynomials to a section's coordinates.
        """
        if len(rows) != self.nvars:
            raise ValueError("need one substitution row per variable")
        lin: List[SparsePoly] = []
        for row in rows:
            if len(row) != new_nvars:
                raise ValueError("substitution row arity mismatch")
            lin.append(SparsePoly.linear_form(row))
        out = SparsePoly.zero(new_nvars)
        cache: Dict[Tuple[int, int], SparsePoly] = {}

        def var_power(i: int, e: int) -> SparsePoly:
            key = (i, e)
            if key not in cache:
                cache[key] = lin[i] ** e
            return cache[key]

        for m, c in self.terms.items():
            piece = SparsePoly.constant(new_nvars, c)
            for i, e in enumerate(m):
                if e:
                    piece = piece * var_power(i, e)
            out = out + piece
        return out

    # -- leading terms ----------------------------------------------------------

    def leading_monomial(self, ordering: MonomialOrdering = GREVLEX) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=ordering.key)

    def leading_coefficient(self, ordering: MonomialOrdering = GREVLEX) -> Scalar:
        return self.terms[self.leading_monomial(ordering)]

    def sorted_terms(
        self, ordering: MonomialOrdering = GREVLEX
    ) -> List[Tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: ordering.key(t[0]), reverse=True)

    def __repr__(self):
        return f"SparsePoly({poly_to_text(self)!r})"


def divide(
    f: SparsePoly,
    divisors: Sequence[SparsePoly],
    ordering: MonomialOrdering = GREVLEX,
) -> Tuple[List[SparsePoly], SparsePoly]:
    """Multivariate division: f = sum(q_i d_i) + r, no r-term divisible by any LT(d_i).

    Deterministic: divisors tried in list order, leading terms peeled in the
    given monomial order.
    """
    if not divisors:
        raise ValueError("empty divisor list")
    for d in divisors:
        if d.is_zero():
            raise ZeroDivisionError("zero divisor in division")
        if d.nvars != f.nvars:
            raise ValueError("divisor arity mismatch")
    lead = [(d.leading_monomial(ordering), d.leading_coefficient(ordering)) for d in divisors]
    quots: List[Dict[Monomial, Scalar]] = [{} for _ in divisors]

    def record(i: int, qm: Monomial, qc: Scalar) -> None:
        quots[i][qm] = qc  # lm falls every step, so qm is new

    rem = _heap_reduce(dict(f.terms), divisors, lead, ordering, {}, record)
    return [SparsePoly(f.nvars, q) for q in quots], SparsePoly(f.nvars, rem)


def _first_divisor(
    lm: Monomial,
    lead: Sequence[Tuple[Monomial, object]],
    first: Dict[Monomial, Tuple[Optional[int], int]],
) -> Optional[int]:
    """Index of the first lead, in list order, whose monomial divides lm; None if none does.

    ``first`` maps a monomial to (index of the first lead dividing it, or
    None; the number of leads scanned).  A caller may keep it across calls
    while ``lead`` only grows by appending: the first divisor among the
    first t leads stays the first one after the list grows, and a monomial
    none of them divides needs only the leads added since scanned.  So the
    divisor picked is always the one the linear scan picks.  A caller whose
    lead list changes in any other way passes a fresh dict.
    """
    i, scanned = first.get(lm, (None, 0))
    n = len(lead)
    if i is None and scanned < n:
        for k in range(scanned, n):
            if mono_divides(lead[k][0], lm):
                i = k
                break
        first[lm] = (i, n)
    return i


def _heap_reduce(
    p: Dict[Monomial, Scalar],
    divisors: Sequence[SparsePoly],
    lead: Sequence[Tuple[Monomial, Scalar]],
    ordering: MonomialOrdering,
    first: Dict[Monomial, Tuple[Optional[int], int]],
    on_step: Callable[[int, Monomial, Scalar], None],
) -> Dict[Monomial, Scalar]:
    """Reduce the term dict p against the divisors in place; return the remainder.

    Each step takes the leading term lc*lm of p and the first divisor i, in
    list order, whose lead dm (coefficient dc) divides lm, calls
    ``on_step(i, lm/dm, lc/dc)`` and subtracts lc/dc * lm/dm * (divisor
    minus its lead) from p; lc itself is cancelled by popping it.  A term no
    lead divides moves to the remainder, whose terms come out falling.  p is
    left empty.

    The leading term of p pops from a heap of ``ordering.heap_key``s (Monagan
    & Pearce, "Sparse polynomial division using a heap", 2011): a monomial is
    pushed when it enters p, and an entry whose term has since cancelled pops
    as a miss.  Every term a step adds is lm/dm * t with t below dm, so it
    lies below lm: the popped monomials fall strictly and each is the
    maximum of p at that moment.  So the steps, quotients and remainder are
    those of rescanning p for its maximum each time.

    ``first`` is the first-divisor memo of :func:`_first_divisor`.
    """
    key = ordering.heap_key
    rem: Dict[Monomial, Scalar] = {}
    heap = [(key(m), m) for m in p]
    heapq.heapify(heap)
    while heap:
        lm = heapq.heappop(heap)[1]
        lc = p.pop(lm, None)
        if lc is None:
            continue
        i = _first_divisor(lm, lead, first)
        if i is None:
            rem[lm] = lc
            continue
        dm, dc = lead[i]
        qm = mono_div(lm, dm)
        qc = _fdiv(lc, dc)
        on_step(i, qm, qc)
        for t, c in divisors[i].terms.items():
            if t == dm:
                continue  # qc * dc cancels lc
            m = tuple(map(add, qm, t))
            v = p.get(m, 0) - qc * c
            if v == 0:
                p.pop(m, None)
            else:
                if m not in p:
                    heapq.heappush(heap, (key(m), m))
                p[m] = v
    return rem


def nm_poly(nvars: int, r2: Scalar) -> SparsePoly:
    """The sphere polynomial: sum of Y_i^2 minus the squared norm."""
    terms: Dict[Monomial, Scalar] = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 2
        terms[tuple(e)] = 1
    terms[tuple([0] * nvars)] = -r2
    return SparsePoly(nvars, terms)


def is_trivial(f: SparsePoly, nm: SparsePoly, ordering: MonomialOrdering = GREVLEX) -> bool:
    """True iff the sphere polynomial divides f (zero counts as trivial)."""
    if f.is_zero():
        return True
    _, rem = divide(f, [nm], ordering)
    return rem.is_zero()


# ---------------------------------------------------------------------------
# text format: `coef * Y1^e1*Y2^e2 + ...`
# ---------------------------------------------------------------------------

_MONO_RE = re.compile(r"Y(\d+)(?:\^(\d+))?")
_TERM_HEAD = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:\((?P<paren>[^()]*(?:\(\d+\)[^()]*)*)\)"
    r"|(?P<plain>\d+(?:/\d+)?(?:\*sqrt\(\d+\))?|sqrt\(\d+\)))?"
)


def poly_to_text(f: SparsePoly, ordering: MonomialOrdering = GREVLEX) -> str:
    if f.is_zero():
        return "0"
    parts: List[str] = []
    for m, c in f.sorted_terms(ordering):
        ct = scalar_to_text(c)
        if ("+" in ct[1:]) or ("-" in ct[1:]):
            ct = f"({ct})"
        mono_bits = [
            f"Y{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(m)
            if e > 0
        ]
        term = ct if not mono_bits else f"{ct} * " + "*".join(mono_bits)
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


def poly_from_text(text: str, nvars: int) -> SparsePoly:
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return SparsePoly.zero(nvars)
    out = SparsePoly.zero(nvars)
    pos = 0
    while pos < len(s):
        m = _TERM_HEAD.match(s, pos)
        if m is None:
            raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef: Scalar = 1
        if m.group("paren") is not None:
            coef = parse_scalar(m.group("paren"))
        elif m.group("plain") is not None:
            coef = parse_scalar(m.group("plain"))
        pos = m.end()
        exps = [0] * nvars
        has_mono = False
        if pos < len(s) and s[pos] == "*":
            pos += 1
        while pos < len(s):
            mm = _MONO_RE.match(s, pos)
            if not mm:
                break
            has_mono = True
            idx = int(mm.group(1))
            if not 1 <= idx <= nvars:
                raise ValueError(f"variable Y{idx} out of range (nvars={nvars})")
            exps[idx - 1] += int(mm.group(2)) if mm.group(2) else 1
            pos = mm.end()
            if pos < len(s) and s[pos] == "*":
                pos += 1
            else:
                break
        if not has_mono and m.group("paren") is None and m.group("plain") is None:
            raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
        out = out + SparsePoly(nvars, {tuple(exps): sign * coef})
        if pos < len(s):
            if s[pos] not in "+-":
                raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
            # sign consumed by the next term's head
    return out
