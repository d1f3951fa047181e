"""Integer lattice bases: extraction from generating sets, unimodularity, enumeration.

All arithmetic is exact.  Enumeration is Fincke-Pohst over an exact LDL^T
factorization, with interval endpoints computed by integer square root; a
deterministic exact lattice-reduction pass keeps the search tree small.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configs import SphericalConfiguration
from .exact import (
    POINT_BLOCK,
    HnfAccumulator,
    Matrix,
    _exact_div,
    det,
    independent_rows,
    int_product,
    ldlt,
)


class RankDeficientError(ValueError):
    """The generating set does not span the ambient space."""


class LatticeBasis:
    """Square integer basis with a declared scale: (1/sqrt(scale)) L is unimodular.

    coord_den maps configuration coordinates to the integer ones (integer
    row = coord_den * configuration vector).
    """

    def __init__(self, rows: Sequence[Sequence[int]], scale: int, coord_den: int = 1, name: str = ""):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        self.m = len(self.rows)
        if any(len(r) != self.m for r in self.rows):
            raise ValueError("basis must be square")
        self.scale = scale
        self.coord_den = coord_den
        self.name = name

    def gram(self) -> Matrix:
        B = self.rows
        return Matrix(
            [[sum(B[i][k] * B[j][k] for k in range(self.m)) for j in range(self.m)] for i in range(self.m)]
        )

    def det_gram(self) -> int:
        return int(det(self.gram()))


class UnimodularityReport:
    def __init__(self, name: str, m: int, scale: int, det_gram: int):
        self.name = name
        self.m = m
        self.scale = scale
        self.det_gram = det_gram
        self.expected = scale**m
        self.unimodular = det_gram == self.expected

    def __repr__(self):
        return (
            f"UnimodularityReport({self.name!r}, det_gram={self.det_gram}, "
            f"expected={self.expected}, unimodular={self.unimodular})"
        )


def unimodularity_check(B: LatticeBasis) -> UnimodularityReport:
    return UnimodularityReport(B.name, B.m, B.scale, B.det_gram())


def basis_from_generators(X: SphericalConfiguration, scale: Optional[int] = None) -> LatticeBasis:
    """Hermite-form Z-basis of the lattice generated by the configuration's points.

    Points must have integer coordinates after clearing denominators; the
    cleared denominator becomes coord_den and multiplies into the scale.
    """
    pair = X.integer_array()
    if pair is None:
        raise ValueError("configuration does not have rational coordinates")
    arr, den = pair
    m = X.m
    if scale is None:
        scale = den * den * X.lattice_scale

    acc = HnfAccumulator(m)
    for i in independent_rows(arr, m):
        acc.add_row(arr[i].tolist())
    if len(acc.pivot_rows) < m:
        raise RankDeficientError(f"generators span rank {len(acc.pivot_rows)} < {m}")

    # add the first point outside the current lattice until none is left;
    # r is in the lattice iff r @ adj = 0 mod det, and reducing adj mod det
    # keeps that test while it shrinks the product bound
    remaining = arr
    while remaining.shape[0]:
        P = acc.normalized_rows()
        dval = math.prod(P[i][i] for i in range(m))
        adj = [[v % dval for v in row] for row in _triangular_adjugate(P, dval)]
        try:  # np.array raises OverflowError, an ArithmeticError, past int64
            A = np.array(adj, dtype=np.int64)
            bad = np.concatenate([
                (int_product(remaining[lo : lo + POINT_BLOCK], A) % dval != 0).any(axis=1)
                for lo in range(0, remaining.shape[0], POINT_BLOCK)
            ])
        except ArithmeticError:  # stay exact beyond the kernel's range
            bad = np.array([not acc.contains(r.tolist()) for r in remaining])
        if not bad.any():
            break
        remaining = remaining[bad]
        acc.add_row(remaining[0].tolist())
        remaining = remaining[1:]

    basis_rows = acc.normalized_rows()
    return LatticeBasis(basis_rows, scale=scale, coord_den=den, name=X.name)


def _triangular_adjugate(P: List[List[int]], dval: int) -> List[List[int]]:
    """det(P) * P^{-1} as integer rows, so that r in rowspan_Z(P) iff r @ A = 0 mod det.

    P is a full-rank Hermite form: upper triangular with pivots on the
    diagonal, so row t of A solves y P = dval * e_t by forward substitution,
    y_c = (dval [c == t] - sum_{k<c} y_k P[k][c]) / P[c][c].  Every y_c is an
    entry of the integral adjugate, so each division is exact in integers;
    ``_exact_div`` raises ArithmeticError if one is not.
    """
    m = len(P)
    out = []
    for target in range(m):
        y = [0] * m
        for c in range(m):
            s = dval if c == target else 0
            for k in range(c):
                s -= y[k] * P[k][c]
            y[c] = _exact_div(s, P[c][c])
        out.append(y)
    return out


# ---------------------------------------------------------------------------
# exact lattice reduction (internal preprocething for enumeration)
# ---------------------------------------------------------------------------

_DELTA = Fraction(99, 100)


def _gso(B: List[List[int]]):
    n = len(B)
    mu = [[Fraction(0)] * n for _ in range(n)]
    star: List[List[Fraction]] = []
    norms: List[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in B[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            proj = sum(Fraction(B[i][k]) * star[j][k] for k in range(n)) / norms[j]
            mu[i][j] = proj
            v = [a - proj * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _lll(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    B = [list(map(int, r)) for r in rows]
    n = len(B)
    mu, norms = _gso(B)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + Fraction(1, 2))
            if q:
                B[k] = [a - q * b for a, b in zip(B[k], B[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if norms[k] >= (_DELTA - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            k += 1
        else:
            B[k], B[k - 1] = B[k - 1], B[k]
            mu, norms = _gso(B)
            k = max(k - 1, 1)
    return B


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration
# ---------------------------------------------------------------------------


class EnumerationResult:
    """Nonzero lattice vectors with squared norm <= bound (configuration units)."""

    def __init__(self, count: int, vectors: Optional[List[Tuple[int, ...]]], coord_den: int):
        self.count = count
        self.vectors = vectors  # integer coordinates (coord_den times config units)
        self.coord_den = coord_den

    def config_points(self) -> List[Tuple]:
        if self.vectors is None:
            raise ValueError("vectors were not collected")
        if self.coord_den == 1:
            return list(self.vectors)
        d = self.coord_den
        return [tuple(Fraction(c, d) for c in v) for v in self.vectors]


_ENV: Dict[str, object] = {}


def _enum_init(lcols, dvals, m):
    _ENV["lcols"] = lcols
    _ENV["dvals"] = dvals
    _ENV["m"] = m


def _search_range(c: Fraction, t: Fraction) -> Tuple[int, int]:
    """All integers x with (x + c)^2 <= t; empty range when t < 0."""
    if t < 0:
        return 1, 0
    p, q = c.numerator, c.denominator
    u, w = t.numerator, t.denominator
    ymax = math.isqrt((u * q * q) // w)
    lo = -((ymax + p) // q)
    hi = (ymax - p) // q
    return lo, hi


def _search(level, rem, sums, zero_prefix, xs, out):
    lcols = _ENV["lcols"]
    dvals = _ENV["dvals"]
    c = sums[level]
    lo, hi = _search_range(c, rem / dvals[level])
    if zero_prefix and lo < 0:
        lo = 0
    col = lcols[level]
    for x in range(lo, hi + 1):
        val = x + c
        rem2 = rem - dvals[level] * val * val
        if rem2 < 0:
            continue
        xs[level] = x
        if level == 0:
            if not (zero_prefix and x == 0):
                out.append(tuple(xs))
        else:
            if x:
                for k, coef in col:
                    sums[k] += coef * x
            _search(level - 1, rem2, sums, zero_prefix and x == 0, xs, out)
            if x:
                for k, coef in col:
                    sums[k] -= coef * x


def _enum_task(args):
    level, rem, sums, zero_prefix, xs = args
    out: List[Tuple[int, ...]] = []
    _search(level, rem, list(sums), zero_prefix, list(xs), out)
    return out


def enumerate_short_vectors(
    B: LatticeBasis,
    bound,
    threads: int = 1,
    collect: bool = True,
) -> EnumerationResult:
    """Count (and optionally list) nonzero vectors of squared norm <= bound.

    bound is in configuration units; integer coordinates scale it by
    coord_den squared.  Enumeration covers a half-space and mirrors, so the
    result is exact and antipodally closed.
    """
    m = B.m
    nbound = Fraction(bound) * B.coord_den**2
    if nbound < 0:
        return EnumerationResult(0, [] if collect else None, B.coord_den)

    reduced = _lll(B.rows)
    gram = Matrix(
        [[sum(reduced[i][k] * reduced[j][k] for k in range(m)) for j in range(m)] for i in range(m)]
    )
    L, D = ldlt(gram)
    dvals = [d if isinstance(d, Fraction) else Fraction(d) for d in D]
    # sums[k] accumulates L[j][k] * x_j over assigned j > k, so the update
    # list for level j holds the pairs (k, L[j][k]) below its diagonal
    lcols: List[List[Tuple[int, Fraction]]] = [[] for _ in range(m)]
    for j in range(m):
        for k in range(j):
            coef = L[j, k]
            if coef != 0:
                lcols[j].append((k, coef if isinstance(coef, Fraction) else Fraction(coef)))

    _enum_init(lcols, dvals, m)
    rem0 = Fraction(nbound)
    sums0 = [Fraction(0)] * m
    xs0 = [0] * m

    tasks = []
    top = m - 1
    if m >= 3:
        # expand the top two levels serially so workers get balanced subtrees
        lo, hi = _search_range(Fraction(0), rem0 / dvals[top])
        lo = max(lo, 0)
        for x1 in range(lo, hi + 1):
            rem1 = rem0 - dvals[top] * x1 * x1
            if rem1 < 0:
                continue
            sums1 = list(sums0)
            if x1:
                for k, coef in lcols[top]:
                    sums1[k] += coef * x1
            z1 = x1 == 0
            c2 = sums1[top - 1]
            lo2, hi2 = _search_range(c2, rem1 / dvals[top - 1])
            if z1 and lo2 < 0:
                lo2 = 0
            for x2 in range(lo2, hi2 + 1):
                val = x2 + c2
                rem2 = rem1 - dvals[top - 1] * val * val
                if rem2 < 0:
                    continue
                sums2 = list(sums1)
                if x2:
                    for k, coef in lcols[top - 1]:
                        sums2[k] += coef * x2
                xs = [0] * m
                xs[top], xs[top - 1] = x1, x2
                tasks.append((top - 2, rem2, sums2, z1 and x2 == 0, xs))
    else:
        tasks.append((top, rem0, sums0, True, xs0))

    half: List[Tuple[int, ...]] = []
    if threads > 1 and len(tasks) > 1:
        import multiprocessing as mp

        with mp.Pool(threads, initializer=_enum_init, initargs=(lcols, dvals, m)) as pool:
            for chunk in pool.imap(_enum_task, tasks, chunksize=1):
                half.extend(chunk)
    else:
        for t in tasks:
            half.extend(_enum_task(t))

    count = 2 * len(half)
    vectors = None
    if collect:
        vectors = []
        if len(half) > 10000:
            coeffs = np.array(half, dtype=np.int64)
            basis_arr = np.array(reduced, dtype=np.int64)
            V = int_product(coeffs, basis_arr)
            for row in V.tolist():
                v = tuple(row)
                vectors.append(v)
                vectors.append(tuple(-c for c in v))
        else:
            for xs in half:
                v = tuple(sum(xs[j] * reduced[j][k] for j in range(m)) for k in range(m))
                vectors.append(v)
                vectors.append(tuple(-c for c in v))
    return EnumerationResult(count, vectors, B.coord_den)
