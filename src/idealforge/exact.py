"""Exact scalars over Q and Q(sqrt d) for d in {2, 3, 5}, plus exact linear algebra.

Scalars are plain ``int``/``Fraction`` for rational work and :class:`Quad` for
quadratic-field work.  All arithmetic is exact.  The one floating-point step
is :func:`int_product`, the bulk integer matrix product, which multiplies in
float64 only under a bound that makes every value it forms an exactly
representable integer.  The one modular step is :func:`rank_mod_p`, a lower
bound on a rank that proves it only where it meets an upper bound.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

SUPPORTED_D = (2, 3, 5)


class FieldMismatchError(ValueError):
    """Raised when scalars from different fields meet in one operation."""


class NotPositiveDefiniteError(ValueError):
    """Raised by ldlt when a pivot is not strictly positive."""


class Quad:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt d)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 5):
        if d not in SUPPORTED_D:
            raise ValueError(f"unsupported quadratic field Q(sqrt {d})")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Quad is immutable")

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Optional["Quad"]:
        if isinstance(other, Quad):
            if other.d != self.d and self.b != 0 and other.b != 0:
                raise FieldMismatchError(
                    f"cannot mix Q(sqrt {self.d}) with Q(sqrt {other.d})"
                )
            if other.d != self.d:
                # one of the two is actually rational; keep the live tag
                d = self.d if self.b != 0 else other.d
                return Quad(other.a, other.b, d) if other.d != d else other
            return other
        if isinstance(other, (int, Fraction)):
            return Quad(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad(self.a + o.a, self.b + o.b, self.d if self.b or not o.b else o.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b or not o.b else o.d
        return Quad(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "Quad":
        n = self.a * self.a - self.d * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        return Quad(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = Quad(1, 0, self.d)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "Quad":
        return Quad(self.a, -self.b, self.d)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Quad):
            if other.d == self.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(d)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with d*b^2
        lhs, rhs = self.a * self.a, self.d * self.b * self.b
        if self.a > 0:
            return 1 if lhs > rhs else -1 if lhs < rhs else 0
        return -1 if lhs > rhs else 1 if lhs < rhs else 0

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Quad({self.a!r}, {self.b!r}, d={self.d})"

    def __str__(self):
        return scalar_to_text(self)


Scalar = Union[int, Fraction, Quad]


def scalar_field(x: Scalar) -> Optional[int]:
    """Field tag: None for Q, d for Q(sqrt d)."""
    return x.d if isinstance(x, Quad) else None


# ---------------------------------------------------------------------------
# scalar text syntax: `-3`, `7/2`, `1/2+3/2*sqrt(5)`; whitespace-insensitive
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coef>\d+(?:/\d+)?)(?:\*(?=sqrt))?)?"
    r"(?P<root>sqrt\((?P<d>\d+)\))?"
)


def parse_scalar(text: str) -> Scalar:
    """Parse the exact scalar text syntax; returns Fraction or Quad."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty scalar")
    rat = Fraction(0)
    irr: Optional[Tuple[Fraction, int]] = None
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad scalar syntax at {s[pos:]!r} in {text!r}")
        if m.group("coef") is None and m.group("root") is None:
            raise ValueError(f"bad scalar syntax in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        coef *= sign
        if m.group("root"):
            d = int(m.group("d"))
            if irr is not None and irr[1] != d:
                raise FieldMismatchError(f"two different roots in {text!r}")
            prev = irr[0] if irr else Fraction(0)
            irr = (prev + coef, d)
        else:
            rat += coef
        pos = m.end()
    if irr is None:
        return rat
    return Quad(rat, irr[0], irr[1])


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_text(x: Scalar) -> str:
    """Inverse of parse_scalar (round-trips exactly)."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return _frac_text(x)
    if x.b == 0:
        return _frac_text(x.a)
    root = f"sqrt({x.d})"
    if x.b == 1:
        bpart = root
    elif x.b == -1:
        bpart = f"-{root}"
    else:
        bpart = f"{_frac_text(x.b)}*{root}"
    if x.a == 0:
        return bpart
    if not bpart.startswith("-"):
        return f"{_frac_text(x.a)}+{bpart}"
    return f"{_frac_text(x.a)}{bpart}"


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

Vector = Tuple[Scalar, ...]


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    total: Scalar = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Dense row-major matrix of exact scalars."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence[Scalar]], ncols: Optional[int] = None):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)), ncols=self.nrows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [[dot(r, c) for c in cols] for r in self.rows], ncols=other.ncols
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def _row_content(row: Sequence[Scalar]) -> Fraction:
    """Positive rational content of a row (gcd of all rational components)."""
    num = 0
    den = 1
    for x in row:
        parts = (x.a, x.b) if isinstance(x, Quad) else (Fraction(x),)
        for p in parts:
            if p:
                num = gcd(num, abs(p.numerator))
                den = den * p.denominator // gcd(den, p.denominator)
    return Fraction(num, den) if num else Fraction(1)


def _primitive(row: List[Scalar]) -> List[Scalar]:
    c = _row_content(row)
    if c != 1:
        inv = 1 / c
        row = [x * inv for x in row]
    return [
        int(x) if isinstance(x, Fraction) and x.denominator == 1 else x for x in row
    ]


def _fdiv(x: Scalar, y: Scalar) -> Scalar:
    """Exact field division that never falls into float for int/int."""
    if isinstance(x, int):
        x = Fraction(x)
    return x / y


class Echelon:
    """Streaming exact row-echelon accumulator (cross-multiplication + content removal).

    Rows are eliminated against the stored pivots in column order; surviving
    rows are kept primitive.  Supports rank queries while rows stream in,
    which keeps the big evaluation matrices out of memory.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: List[Tuple[int, List[Scalar]]] = []  # (pivot col, row), sorted

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Sequence[Scalar]) -> List[Scalar]:
        """Eliminate row against the pivots; returns the residual row."""
        r = list(row)
        for col, prow in self.pivots:
            if r[col] != 0:
                pc, rc = prow[col], r[col]
                r = [pc * a - rc * b for a, b in zip(r, prow)]
                r = _primitive(r)
        return r

    def add_row(self, row: Sequence[Scalar]) -> bool:
        """Insert a row; True if it increased the rank."""
        r = self.reduce(row)
        for col in range(self.ncols):
            if r[col] != 0:
                self.pivots.append((col, _primitive(r)))
                self.pivots.sort(key=lambda t: t[0])
                return True
        return False


def stride_order(n: int) -> Iterator[int]:
    """All of 0..n-1 in a fixed order that breaks up consecutive runs.

    Structured point streams can dwell in a low-dimensional slice for tens of
    thousands of rows; a coprime stride mixes the families, so a running rank
    reaches its ceiling after a handful of rows.
    """
    if n == 0:
        return iter(())
    step = 104729
    while gcd(step, n) != 1:
        step += 1
    return ((i * step) % n for i in range(n))


def independent_rows(rows: Sequence, limit: int, skip: Iterable[int] = ()) -> List[int]:
    """Indices of up to ``limit`` linearly independent rows, chosen exactly.

    Rows stream through an :class:`Echelon` in :func:`stride_order`; a row is
    kept when it raises the rank, and rows listed in ``skip`` are never kept.
    Fewer than ``limit`` indices (capped at the column count) means the rows
    outside ``skip`` have exactly that rank.
    Numpy rows are converted to Python ints first: the cross-multiplication
    in the elimination could overflow int64.
    """
    if len(rows) == 0:
        return []
    ncols = len(rows[0])
    limit = min(limit, ncols)
    skip = {int(i) for i in skip}
    ech = Echelon(ncols)
    out: List[int] = []
    for i in stride_order(len(rows)):
        if len(out) >= limit:
            break
        if i in skip:
            continue
        row = rows[i]
        if ech.add_row(row.tolist() if hasattr(row, "tolist") else row):
            out.append(i)
    return out


# Bulk products against a whole point set run over blocks of this many
# points: a 64-row base against one block is 8 MB in float64, so no product
# against all 196,560 Leech points is held in float64 and int64 at once.
POINT_BLOCK = 16384


def _max_abs(X: np.ndarray) -> int:
    return max(int(X.max()), -int(X.min())) if X.size else 0


def int_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for integer arrays, exactly, as int64.

    With k the inner dimension, every term a*b of an entry is at most
    max|A| * max|B| in magnitude, and every partial sum of its k terms at
    most k * max|A| * max|B|.  When that bound is below 2^53, every input,
    term and partial sum is an integer that float64 holds exactly (if one
    factor is all zero, so is every term), so each multiply, add or fused
    multiply-add returns the exact value, whatever order BLAS sums in: the
    product runs in float64 BLAS.  Below 2^63 the same argument holds for
    int64, which numpy multiplies without BLAS.  Beyond that the product is
    refused with ArithmeticError before anything is multiplied.
    """
    if A.dtype.kind not in "iu" or B.dtype.kind not in "iu":
        raise TypeError("int_product needs integer arrays")
    bound = A.shape[-1] * _max_abs(A) * _max_abs(B)
    if bound < 2**53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    if bound < 2**63:
        return A.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False)
    raise ArithmeticError(f"integer product bound {bound} leaves the exact int64 range")


# The one prime of the modular rank.  p < 2^20, so entries kept in [0, p)
# multiply to less than 2^40 and a row update a - f*b stays inside int64.
# p = 1 (mod 120), so 2, 3 and 5 are squares mod p; SQRT_MOD_P[d] is a fixed
# root s with s*s = d (mod p), written out so that nothing is searched at import.
RANK_PRIME = 1047961
SQRT_MOD_P = {2: 151033, 3: 58566, 5: 90752}


def to_mod_p(x: Scalar) -> int:
    """Image of x in F_p under the ring map sending sqrt(d) to SQRT_MOD_P[d].

    A fraction a/b maps to a * b^-1; a + b*sqrt(d) maps to a + b*s.  The map
    is defined on the scalars whose denominators are prime to p; a
    denominator divisible by p raises ZeroDivisionError.
    """
    p = RANK_PRIME
    if isinstance(x, int):
        return x % p
    if isinstance(x, Quad):
        a = to_mod_p(x.a)
        return a if x.b == 0 else (a + to_mod_p(x.b) * SQRT_MOD_P[x.d]) % p
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"{x} has no image mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def rank_mod_p(M: np.ndarray) -> int:
    """Rank mod RANK_PRIME of a 2-D integer array.

    A lower bound on the exact rank of the matrix whose entries reduce to M.
    Those entries lie in the ring of field elements with denominators prime
    to p (``to_mod_p`` raises otherwise), and ``to_mod_p`` is a ring map on
    it, so each minor reduces to the same minor of M; a minor nonzero mod p
    is nonzero.  So rank mod p <= rank, and the answer proves the rank only
    where it meets an upper bound.  Per-pivot elimination in int64 on
    entries in [0, p): every product is below 2^40.
    """
    if M.dtype.kind not in "iu":
        raise TypeError("rank_mod_p needs an integer array")
    p = RANK_PRIME
    A = np.mod(M, p).astype(np.int64)
    nrows, ncols = A.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, col])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r, col:] = A[r, col:] * pow(int(A[r, col]), -1, p) % p
        A[r + 1:, col:] = (A[r + 1:, col:] - np.outer(A[r + 1:, col], A[r, col:])) % p
        r += 1
    return r


def rank(M: Matrix) -> int:
    """Exact rank by fraction-free elimination, deterministic pivoting."""
    ech = Echelon(M.ncols)
    for row in M.rows:
        ech.add_row(row)
    return ech.rank


def nullspace_basis(M: Matrix) -> List[Vector]:
    """Exact basis of the right kernel; size = ncols - rank."""
    ech = Echelon(M.ncols)
    for row in M.rows:
        ech.add_row(row)
    pivots = ech.pivots
    pivot_cols = [c for c, _ in pivots]
    free_cols = [c for c in range(M.ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v: List[Scalar] = [0] * M.ncols
        v[fc] = 1
        # back-substitute through the echelon rows, last pivot first
        for col, prow in reversed(pivots):
            s: Scalar = 0
            for j in range(col + 1, M.ncols):
                if v[j] != 0 and prow[j] != 0:
                    s = s + prow[j] * v[j]
            v[col] = _fdiv(-s, prow[col])
        basis.append(tuple(v))
    return basis


def det(M: Matrix) -> Scalar:
    """Exact determinant via Bareiss fraction-free elimination."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = M.nrows
    if n == 0:
        return 1
    a = [list(r) for r in M.rows]
    sign = 1
    prev: Scalar = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0 * prev
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                if isinstance(num, int) and isinstance(prev, int):
                    a[i][j] = _exact_div(num, prev)
                else:
                    a[i][j] = _fdiv(num, prev)
            a[i][k] = 0
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not a multiple of {den}")
    return q


def ldlt(G: Matrix) -> Tuple[Matrix, List[Scalar]]:
    """Exact L·D·L^T of a symmetric positive-definite matrix.

    Returns (L, D) with L unit lower triangular and D the diagonal as a list.
    """
    n = G.nrows
    if n != G.ncols:
        raise ValueError("ldlt needs a square matrix")
    for i in range(n):
        for j in range(i):
            if G.rows[i][j] != G.rows[j][i]:
                raise ValueError("ldlt needs a symmetric matrix")
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    D: List[Scalar] = [Fraction(0)] * n
    for j in range(n):
        d = G.rows[j][j]
        for k in range(j):
            d = d - L[j][k] * L[j][k] * D[k]
        if _sign_of(d) <= 0:
            raise NotPositiveDefiniteError(f"pivot {j} is not positive")
        D[j] = d
        for i in range(j + 1, n):
            s = G.rows[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k] * D[k]
            L[i][j] = _fdiv(s, d)
    return Matrix(L), D


def _sign_of(x: Scalar) -> int:
    if isinstance(x, Quad):
        return x.sign()
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Hermite Normal Form (row style) for integer matrices
# ---------------------------------------------------------------------------


class HnfAccumulator:
    """Incremental row-style HNF over Z; rows stream in, pivots stay reduced."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, List[int]] = {}  # pivot col -> row

    def add_row(self, row: Sequence[int]) -> bool:
        for x in row:
            if isinstance(x, Quad) or (isinstance(x, Fraction) and x.denominator != 1):
                raise ValueError("hnf needs integer entries")
        r = [int(x) for x in row]
        changed = False
        for col in range(self.ncols):
            if r[col] == 0:
                continue
            if col not in self.pivot_rows:
                if r[col] < 0:
                    r = [-x for x in r]
                self.pivot_rows[col] = r
                return True
            p = self.pivot_rows[col]
            if r[col] % p[col] == 0:
                q = r[col] // p[col]
                r = [a - q * b for a, b in zip(r, p)]
            else:
                # replace pivot with the gcd combination, continue with remainder
                g, u, v = _ext_gcd(p[col], r[col])
                new_p = [u * a + v * b for a, b in zip(p, r)]
                q1, q2 = p[col] // g, r[col] // g
                new_r = [q2 * a - q1 * b for a, b in zip(p, r)]
                self.pivot_rows[col] = new_p
                r = new_r
                changed = True
        return changed

    def contains(self, row: Sequence[int]) -> bool:
        """True iff row is in the Z-span of the accumulated rows."""
        r = list(row)
        for col in range(self.ncols):
            if r[col] == 0:
                continue
            p = self.pivot_rows.get(col)
            if p is None or r[col] % p[col] != 0:
                return False
            q = r[col] // p[col]
            r = [a - q * b for a, b in zip(r, p)]
        return True

    def normalized_rows(self) -> List[List[int]]:
        """Rows of the HNF: positive pivots, entries above each pivot in [0, pivot).

        Pivots are reduced first to last: reducing by a later row only touches
        columns from its pivot on, so it keeps the earlier pivot columns
        reduced and the result depends on the lattice alone.
        """
        cols = sorted(self.pivot_rows)
        rows = [list(self.pivot_rows[c]) for c in cols]
        for idx in range(len(rows)):
            col = cols[idx]
            piv = rows[idx][col]
            for above in range(idx):
                q = rows[above][col] // piv
                if q:
                    rows[above] = [a - q * b for a, b in zip(rows[above], rows[idx])]
        return rows


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(M: Matrix) -> Matrix:
    """Row-style Hermite Normal Form; preserves the Z-row-span exactly."""
    acc = HnfAccumulator(M.ncols)
    for row in M.rows:
        for x in row:
            if isinstance(x, Quad) or (isinstance(x, Fraction) and x.denominator != 1):
                raise ValueError("hnf needs integer entries")
        acc.add_row([int(x) for x in row])
    return Matrix(acc.normalized_rows(), ncols=M.ncols)
