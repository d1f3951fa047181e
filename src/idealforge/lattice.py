"""Integer lattice bases: extraction from generating sets, unimodularity, enumeration.

All arithmetic is exact.  A basis is found as a Hermite form of the
generating set, and its Gram determinant by Bareiss elimination.  Short
vectors are enumerated on one integral Gram-Schmidt: integral LLL keeps the
leading Gram minors d_i and the integers lam_ij = d_{j+1} mu_ij, and
Fincke-Pohst reads its centres, residuals and intervals off the same integers,
with ``math.isqrt`` for the interval ends.  It runs in one process.

A configuration that declares a lattice scale gets a value-set proof
(``prove_value_set``): its points are the minimal vectors of an even
lattice, which bounds the inner product of every pair at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .exact import (
    ConstructionError,
    HnfAccumulator,
    Matrix,
    _exact_div,
    _max_abs,
    det,
    int_product,
    row_blocks,
    squared_norms,
    stride_order,
)

if TYPE_CHECKING:
    from .configs import SphericalConfiguration


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


def basis_from_generators(X: SphericalConfiguration) -> LatticeBasis:
    """Hermite-form Z-basis of the lattice generated by the configuration's points.

    Points must have integer coordinates after clearing denominators; the
    cleared denominator becomes coord_den, and its square times the
    configuration's ``lattice_scale`` is the basis scale.
    """
    pair = X.integer_array()
    if pair is None:
        raise ValueError("configuration does not have rational coordinates")
    arr, den = pair
    m = X.m

    # rows spread over the set until they span, and at least 5m of them:
    # that usually closes the lattice (Leech: det 2^36 after 5m), so one
    # membership pass finds no row outside
    acc = HnfAccumulator(m)
    for k, i in enumerate(stride_order(arr.shape[0])):
        if k >= 5 * m and len(acc.pivot_rows) == m:
            break
        acc.add_row(arr[i].tolist())
    if len(acc.pivot_rows) < m:
        raise RankDeficientError(f"generators span rank {len(acc.pivot_rows)} < {m}")

    # add the first point outside the current lattice until none is left
    remaining = arr
    while remaining.shape[0]:
        bad = _outside(acc.normalized_rows(), remaining)
        if not bad.any():
            break
        remaining = remaining[bad]
        acc.add_row(remaining[0].tolist())
        remaining = remaining[1:]

    if X.lattice_scale is None:
        raise ValueError(f"{X.name} declares no lattice scale")
    basis_rows = acc.normalized_rows()
    return LatticeBasis(basis_rows, scale=den * den * X.lattice_scale, coord_den=den, name=X.name)


def _outside(P: List[List[int]], rows: np.ndarray) -> np.ndarray:
    """Mask of the integer rows outside rowspan_Z(P), P a full-rank Hermite form.

    r is in the lattice iff r @ adj = 0 mod det.  With g the gcd of det and
    every entry of adj, g x = 0 mod g e iff x = 0 mod e, so the test is
    r @ (adj / g) = 0 mod e for e = det / g, the exponent of Z^m / L (the
    least e with e Z^m in L): 8 on Leech, where det = 2^36.  Reducing
    adj / g mod e keeps that test while it shrinks the product bound to
    m * max|r| * (e - 1), 24 * 4 * 7 = 672 on Leech, inside the float32 range
    of ``int_product``.  When e is a power of two (8 on Leech, 4 on E8),
    x & (e - 1) is x mod e in two's complement, negative x included, and
    cheaper than ``%``.  The product is formed as adj^T r^T, one row block
    at a time, so that the test of each row reduces over a column.  Its
    dtype is the narrowest that holds the block's product bound (int16 on
    Leech, int8 on E8), and the residue is taken in place in that dtype.  A
    k the dtype cannot hold exceeds that bound, so every entry x has
    |x| < e, and x = 0 mod e iff x = 0: such a block is tested as it is
    (numpy would raise OverflowError on k, sending every row to the
    fallback).
    """
    m = len(P)
    dval = math.prod(P[i][i] for i in range(m))
    adj = _triangular_adjugate(P, dval)
    g = math.gcd(dval, *(v for row in adj for v in row))
    e = dval // g
    try:  # np.array raises OverflowError, an ArithmeticError, past int64
        At = np.array([[adj[i][j] // g % e for i in range(m)] for j in range(m)], dtype=np.int64)
        op, k = (np.bitwise_and, e - 1) if e & (e - 1) == 0 else (np.remainder, e)
        out = np.empty(rows.shape[0], dtype=bool)
        for s in row_blocks(rows.shape[0], m):
            prod = int_product(At, rows[s].T)
            if k <= np.iinfo(prod.dtype).max:
                op(prod, k, out=prod)
            out[s] = prod.any(axis=0)
            del prod  # so the next block's product is not formed beside it
        return out
    except ArithmeticError:  # stay exact beyond the kernel's range
        acc = HnfAccumulator(m)
        for r in P:
            acc.add_row(r)
        return np.array([not acc.contains(r.tolist()) for r in rows], dtype=bool)


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
# one integral Gram-Schmidt: LLL, then Fincke-Pohst on the same integers
# ---------------------------------------------------------------------------


def _lll(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int], List[List[int]]]:
    """LLL reduction at delta = 99/100 in integers: (reduced rows, d, lam).

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7).  d[i] is the Gram determinant of the first i rows (d[0] = 1)
    and lam[i][j] = d[j+1] mu_ij for j < i, so |b*_i|^2 = d[i+1] / d[i].
    Both stay integers: size reduction subtracts integer multiples, and a
    swap updates d and one column pair of lam in O(n) with divisions that
    are exact; ``_exact_div`` raises ArithmeticError if one is not.
    Dependent rows raise RankDeficientError.
    """
    B = [[int(x) for x in r] for r in rows]
    n = len(B)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(a * b for a, b in zip(B[i], B[j]))
            for k in range(j):
                u = _exact_div(d[k + 1] * u - lam[i][k] * lam[j][k], d[k])
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise RankDeficientError(f"basis row {i} depends on the rows before it")
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # round(mu_kj), halves up
            if q:
                B[k] = [a - q * b for a, b in zip(B[k], B[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        # Lovasz: |b*_k|^2 >= (delta - mu^2) |b*_{k-1}|^2, times d[k] d[k-1]
        lk = lam[k][k - 1]
        if 100 * (d[k + 1] * d[k - 1] + lk * lk) >= 99 * d[k] * d[k]:
            k += 1
            continue
        B[k - 1], B[k] = B[k], B[k - 1]
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        dk = _exact_div(d[k - 1] * d[k + 1] + lk * lk, d[k])
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = _exact_div(d[k + 1] * lam[i][k - 1] - lk * t, d[k])
            lam[i][k - 1] = _exact_div(dk * t + lk * lam[i][k], d[k + 1])
        d[k] = dk
        k = max(k - 1, 1)
    return B, d, lam


class EnumerationResult:
    """Nonzero lattice vectors with squared norm <= bound (configuration units).

    search_nodes counts the coefficient values the search tried, a
    deterministic measure of its work.
    """

    def __init__(
        self,
        count: int,
        vectors: List[Tuple[int, ...]],
        coord_den: int,
        search_nodes: int,
    ):
        self.count = count
        self.vectors = vectors  # integer coordinates (coord_den times config units)
        self.coord_den = coord_den
        self.search_nodes = search_nodes


def enumerate_short_vectors(B: LatticeBasis, bound) -> EnumerationResult:
    """List the nonzero vectors of squared norm <= bound.

    bound is in configuration units; integer coordinates scale it by
    coord_den squared.  Fincke-Pohst (Fincke & Pohst, 1985) over the integers
    of the LLL-reduced basis: with s_i = sum_{j>i} lam[j][i] x_j and
    y_i = d[i+1] x_i + s_i, the squared norm of sum_i x_i b_i is
    sum_i y_i^2 / (d[i] d[i+1]).  Scaling by M = lcm_i d[i] d[i+1] and by the
    bound's denominator makes every weight w_i and the budget R integers, so
    level i admits exactly the x_i with w_i y_i^2 <= R, |y_i| <= isqrt(R // w_i).
    The search covers the half-space whose last nonzero coefficient is
    positive and mirrors it, so the result is exact and antipodally closed.
    """
    m = B.m
    nbound = Fraction(bound) * B.coord_den**2
    if nbound < 0:
        return EnumerationResult(0, [], B.coord_den, 0)

    reduced, d, lam = _lll(B.rows)
    scale = math.lcm(*(d[i] * d[i + 1] for i in range(m)))
    weights = [nbound.denominator * scale // (d[i] * d[i + 1]) for i in range(m)]
    # choosing x_j adds lam[j][i] x_j to s_i for every i < j
    cols = [[(i, c) for i, c in enumerate(lam[j][:j]) if c] for j in range(m)]
    s = [0] * m
    xs = [0] * m
    half: List[Tuple[int, ...]] = []
    nodes = 0

    def search(level: int, budget: int, zero_above: bool) -> None:
        nonlocal nodes
        w, dl, sl = weights[level], d[level + 1], s[level]
        ymax = math.isqrt(budget // w)
        lo = 0 if zero_above else -((ymax + sl) // dl)
        values = range(lo, (ymax - sl) // dl + 1)
        nodes += len(values)
        for x in values:
            xs[level] = x
            if level == 0:
                if x or not zero_above:
                    half.append(tuple(xs))
                continue
            y = dl * x + sl
            if x:
                for i, c in cols[level]:
                    s[i] += c * x
            search(level - 1, budget - w * y * y, zero_above and not x)
            if x:
                for i, c in cols[level]:
                    s[i] -= c * x

    search(m - 1, scale * nbound.numerator, True)

    coeffs = np.array(half, dtype=np.int64).reshape(-1, m)
    vectors: List[Tuple[int, ...]] = []
    # any dtype: the product's entries are read out as Python ints
    for v in map(tuple, int_product(coeffs, np.array(reduced, dtype=np.int64)).tolist()):
        vectors.append(v)
        vectors.append(tuple(-c for c in v))
    return EnumerationResult(2 * len(half), vectors, B.coord_den, nodes)


# ---------------------------------------------------------------------------
# the value-set proof: minimal vectors of an even lattice
# ---------------------------------------------------------------------------


_KEY_BASE = 0x9E3779B97F4A7C15  # odd, so each power is a unit mod 2^64


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """A 64-bit key of each row of a 2-D integer array: equal rows give equal keys.

    The key is sum_j x_j K^(j+1) mod 2^64 for the odd word K = _KEY_BASE.
    ``einsum`` casts through its buffer and sums in int64, whose products and
    sums wrap mod 2^64 whatever their order, so the key is a function of the
    row.  Distinct rows may share a key; ``_has_repeat`` compares those
    exactly.
    """
    weights = np.array([pow(_KEY_BASE, j + 1, 2**64) for j in range(rows.shape[1])], dtype=np.uint64)
    return np.einsum("ij,j->i", rows, weights.view(np.int64), dtype=np.int64)


def _has_repeat(rows: np.ndarray) -> bool:
    """Whether two rows of a 2-D integer array are equal.

    The keys of ``_row_keys`` are sorted in place.  Equal rows give equal
    keys, so keys that are all distinct prove the rows distinct.  Otherwise
    only the rows whose key is shared are compared exactly: sorted as byte
    strings, a repeat leaves two equal items next to each other (np.sort,
    since np.unique on one axis imports numpy.ma, a cost every process
    would pay).
    """
    keys = _row_keys(rows)
    keys.sort()
    tied = keys[1:] == keys[:-1]
    if not tied.any():
        return False
    shared = rows[np.isin(_row_keys(rows), keys[1:][tied])]
    items = np.sort(shared.view(np.dtype((np.void, shared.itemsize * shared.shape[1]))).ravel())
    return bool((items[1:] == items[:-1]).any())


class LatticeProof:
    """The lattice L the points span, with the proven bound on their inner products.

    Lattice units are configuration units over ``lattice_scale``.
    ``points`` holds the integer rows (coord_den times configuration units)
    the proof covers, read-only: the configuration's own array when it
    already has the proof's dtype (Leech: int8), else a copy (e8: int8 from
    int64); ``values`` are the inner products (configuration units,
    descending) that two of them x != +-y can have; ``norm`` is their norm
    N in lattice units; ``search_nodes`` is the work of the search below N.

    ``reps`` is the first half of ``points``, a read-only view: one point of
    each pair +-x, since the 'antipodal' premise puts -(reps[i]) at row
    i + len(reps).  It keeps the dtype of ``points`` (int8 for e8 and
    Leech), so its consumers multiply it only through ``int_product`` or
    ``squared_norms``.  The sliced-zonal families take it as their
    ``pair_reps``, so a check that finds it there by identity knows the
    rows are the proof's.
    """

    def __init__(
        self, basis: LatticeBasis, points: np.ndarray, norm: int, values: Tuple, search_nodes: int
    ):
        self.basis = basis
        self.points = points
        self.reps = points[: points.shape[0] // 2]
        self.norm = norm
        self.values = values
        self.search_nodes = search_nodes

    def outside(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the integer rows (coord_den times configuration units) outside L."""
        return _outside([list(r) for r in self.basis.rows], rows)


def prove_value_set(X: SphericalConfiguration) -> LatticeProof:
    """Prove the values every inner product of points x != +-y lies in.

    Premises, each checked here; a ConstructionError names the first that
    fails:

    * norm: every point has squared norm r2;
    * antipodal: point i + n/2 is -(point i) for each of the n points, the
      layout ``reps`` reads;
    * distinct: no point repeats, so |X| counts vectors;
    * integral, even: Gram / scale of the Hermite basis of L, the Z-span of
      X (every point lies in L by ``basis_from_generators``), is integral
      with an even diagonal, so every vector of L has an even norm;
    * minimum: Fincke-Pohst finds no nonzero vector of L with norm at most
      N - 2 in lattice units, r2 - 2 lattice_scale in configuration units,
      so no nonzero vector has norm below N (norms are even).

    Then for x != +-y in X, x -+ y is a nonzero vector of L, so
    2N -+ 2<x,y> >= N: <x,y> is an integer (lattice units) with
    |<x,y>| <= N / 2 (Conway & Sloane, *Sphere Packings, Lattices and Groups*,
    ch. 1).  This covers every pair, not a sample.  The proven values are
    those integers, as multiples of lattice_scale in configuration units.
    """
    arr, den = X.integer_array()
    norms = squared_norms(arr)
    bad = np.flatnonzero(norms != X.r2 * den * den)
    if bad.size:
        i = int(bad[0])
        raise ConstructionError(
            f"value-set premise 'norm' fails: point {i} has squared norm "
            f"{Fraction(int(norms[i]), den * den)}, not {X.r2}"
        )
    del norms, bad  # not held beside the points below
    # the points the proof covers, in int8 when it holds them exactly: the
    # configuration's own array when it already has that dtype (Leech), made
    # read-only so that no later write can leave the proof, else a copy (e8)
    points = arr.astype(np.int8 if _max_abs(arr) < 128 else np.int64, copy=False)
    points.flags.writeable = False
    # after 'norm' every entry x has x^2 <= r2 den^2, so |x| < 6 on Leech and
    # |x| < 3 on e8 (den 2): negating a row cannot wrap in int8, nor in
    # int64, whose squared norms ``squared_norms`` proved exact
    n, h = points.shape[0], points.shape[0] // 2
    if n % 2:
        raise ConstructionError(f"value-set premise 'antipodal' fails: {n} points, an odd count")
    for s in row_blocks(h, X.m):
        bad = np.flatnonzero((points[h:][s] != np.negative(points[:h][s])).any(axis=1))
        if bad.size:
            i = s.start + int(bad[0])
            raise ConstructionError(
                f"value-set premise 'antipodal' fails: point {i + h} is not -(point {i})"
            )
    if _has_repeat(points):
        raise ConstructionError("value-set premise 'distinct' fails: a point repeats")

    basis = basis_from_generators(X)
    gram, scale = basis.gram(), basis.scale
    for i in range(X.m):
        for j in range(i, X.m):
            if gram[i, j] % scale:
                raise ConstructionError(
                    f"value-set premise 'integral' fails: Gram entry ({i}, {j}) = "
                    f"{gram[i, j]} is no multiple of the scale {scale}"
                )
        if (gram[i, i] // scale) % 2:
            raise ConstructionError(
                f"value-set premise 'even' fails: Gram diagonal entry {i} / scale "
                f"= {gram[i, i] // scale} is odd"
            )
    # lattice units are configuration units over the lattice scale
    n = Fraction(X.r2) / X.lattice_scale
    found = enumerate_short_vectors(basis, X.r2 - 2 * X.lattice_scale)
    if found.count:
        raise ConstructionError(
            f"value-set premise 'minimum' fails: {found.count} nonzero lattice vectors "
            f"of norm at most {n - 2} in lattice units, below the points' {n}"
        )
    half = int(n) // 2
    values = tuple(v * X.lattice_scale for v in range(half, -half - 1, -1))
    return LatticeProof(basis, points, int(n), values, found.search_nodes)
