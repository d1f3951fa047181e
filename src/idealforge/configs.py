"""Point configurations: Golay code, root-system shells, Leech vectors, gallery sets.

Small configurations keep exact scalar coordinates throughout.  The Leech shell
is assembled in numpy int8, which its proven entry range |x| <= 4 allows,
with exact tuples materialized on demand.  A builder may store a narrower
integer dtype than int64 when it proves the range; consumers multiply such
rows only through ``exact.int_product`` or ``exact.squared_norms``, which
prove their range before they multiply, or upcast them first.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import (
    SUPPORTED_D,
    ConstructionError,
    Quad,
    QuadArray,
    Scalar,
    dot,
    int_product,
    parse_scalar,
    quad_array,
    quad_key,
    quad_operands,
    quad_parts,
    quad_scalar,
    row_blocks,
    scalar_to_text,
    stride_order,
)
from .lattice import LatticeProof, prove_value_set
from .sampling import sample_indices

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)

DEFAULT_SEED = 0xC0DE
DEFAULT_SAMPLE = 64


# ---------------------------------------------------------------------------
# binary codes
# ---------------------------------------------------------------------------


class BinaryCode:
    """Linear code over GF(2); words are ints, bit i = coordinate i."""

    def __init__(self, length: int, generator_rows: Sequence[int]):
        self.length = length
        self.generator_rows = [int(r) for r in generator_rows]
        pivots: Dict[int, int] = {}
        for r in self.generator_rows:
            cur = r
            while cur:
                top = cur.bit_length() - 1
                if top in pivots:
                    cur ^= pivots[top]
                else:
                    pivots[top] = cur
                    break
        self._pivots = pivots
        self.dimension = len(pivots)
        words = [0]
        for g in pivots.values():
            words.extend([w ^ g for w in words])
        self.codewords = words
        self.weight_distribution: Dict[int, int] = {}
        for w in words:
            k = w.bit_count()
            self.weight_distribution[k] = self.weight_distribution.get(k, 0) + 1

    def contains(self, word: int) -> bool:
        cur = word
        while cur:
            top = cur.bit_length() - 1
            if top not in self._pivots:
                return False
            cur ^= self._pivots[top]
        return True

    def min_weight(self) -> int:
        return min(w.bit_count() for w in self.codewords if w)

    def is_self_dual(self) -> bool:
        if 2 * self.dimension != self.length:
            return False
        gens = list(self._pivots.values())
        return all(
            (gi & gj).bit_count() % 2 == 0 for gi in gens for gj in gens
        )


# ---------------------------------------------------------------------------
# spherical configurations
# ---------------------------------------------------------------------------


class SectionMap:
    """Isometric coordinates for a configuration sitting inside a larger ambient one.

    rows[i][j] expresses ambient coordinate i as a linear function of the
    section coordinates, so ambient_point = rows @ section_point.  The columns
    of rows must be orthonormal (rows^T rows = I exactly, else
    ConstructionError): the forward map is then the transpose.
    """

    def __init__(
        self,
        ambient_dim: int,
        dim: int,
        rows: Sequence[Sequence[Scalar]],
        field_d: Optional[int],
    ):
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.rows = tuple(tuple(r) for r in rows)
        self.field_d = field_d
        if len(self.rows) != ambient_dim or any(len(r) != dim for r in self.rows):
            raise ConstructionError(f"section rows must be {ambient_dim} x {dim}")
        for j, k in itertools.combinations_with_replacement(range(dim), 2):
            if sum(r[j] * r[k] for r in self.rows) != int(j == k):
                raise ConstructionError(f"section columns {j} and {k} are not orthonormal")

    def to_section(self, ambient_point: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        return tuple(
            sum(self.rows[i][j] * ambient_point[i] for i in range(self.ambient_dim))
            for j in range(self.dim)
        )

    def to_ambient(self, section_point: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        return tuple(
            sum(self.rows[i][j] * section_point[j] for j in range(self.dim))
            for i in range(self.ambient_dim)
        )


class SphericalConfiguration:
    """Finite point set on a sphere of squared radius r2.

    Big integer sets may be backed by a numpy array, with exact tuples
    materialized lazily.

    The paper's configurations declare its facts about them: the design
    strength t, ``theorem``, the label ("E8", "Leech") their theorem claims
    carry, and ``lattice_scale`` for the two whose points span an even
    lattice, with Gram / lattice_scale its form.  Declaring it runs the
    value-set proof (``lattice.prove_value_set``) once, here, and keeps it
    with the lattice basis as ``lattice``; a failed premise raises
    ConstructionError.  A point set read from a file declares none of them.
    The dimension ``m`` is no declaration, read off the points, and neither
    are the inner products ``omegas`` and antipodality, read off the lattice
    proof or the points.
    """

    def __init__(
        self,
        name: str,
        r2: Scalar,
        points: Optional[Sequence[Tuple[Scalar, ...]]] = None,
        array: Optional[np.ndarray] = None,
        field_d: Optional[int] = None,
        trivial_linear: Sequence[Tuple[Scalar, ...]] = (),
        section: Optional[SectionMap] = None,
        ambient_points: Optional[List[Tuple[Scalar, ...]]] = None,
        lattice_scale: Optional[int] = None,
        design_strength: Optional[int] = None,
        theorem: Optional[str] = None,
    ):
        if points is None and array is None:
            raise ValueError("need points or an array")
        self.name = name
        self.r2 = r2
        self._points = [tuple(p) for p in points] if points is not None else None
        self._array = array
        self._quad: Optional[QuadArray] = None
        self._omegas: Optional[List[Scalar]] = None
        self.field_d = field_d
        self.trivial_linear = [tuple(f) for f in trivial_linear]
        self.section = section
        self.ambient_points = ambient_points
        self.lattice_scale = lattice_scale
        self.design_strength = design_strength
        self.theorem = theorem
        self.lattice: Optional[LatticeProof] = (
            None if lattice_scale is None else prove_value_set(self)
        )

    @property
    def m(self) -> int:
        """The dimension: the row length of the points or the array."""
        return self._array.shape[1] if self._array is not None else len(self._points[0])

    @property
    def omegas(self) -> List[Scalar]:
        """r2, then every other inner product two points can have, descending.

        With the value-set proof (``lattice``) this is r2, the proven values
        and -r2: the proof covers every pair x != +-y, and its 'antipodal'
        premise puts -x in X.  Otherwise it is every product of two points,
        read off ``quad_array()`` on first use (``observed_omegas``) and
        kept beside it.
        """
        if self._omegas is None:
            if self.lattice is not None:
                self._omegas = [self.r2, *self.lattice.values, -self.r2]
            else:
                self._omegas = observed_omegas(self.r2, self.quad_array())
        return self._omegas

    @property
    def embedded(self) -> bool:
        """The points lie in the hyperplanes of declared linear forms (knn)."""
        return bool(self.trivial_linear)

    @property
    def antipodal(self) -> bool:
        """X = -X, read off the lattice proof or the points, never declared.

        A configuration holding a lattice proof is antipodal: the proof's
        'antipodal' premise raised ConstructionError unless point i + n/2 is
        -(point i), so no point list is built (Leech).  Otherwise the set
        {-p : p in X} is compared with the set X itself, which is X = -X as
        written, with point order and repeats left out.  Worked out on each
        read, so a configuration changed after it was built answers for its
        current points.
        """
        if self.lattice is not None:
            return True
        return {tuple(-c for c in p) for p in self.points} == set(self.points)

    @property
    def npoints(self) -> int:
        if self._array is not None:
            return int(self._array.shape[0])
        return len(self._points)

    @property
    def points(self) -> List[Tuple[Scalar, ...]]:
        if self._points is None:
            self._points = [tuple(int(c) for c in row) for row in self._array.tolist()]
        return self._points

    def point(self, k: int) -> Tuple[Scalar, ...]:
        """Point k, without materializing the exact list of an array-backed set."""
        if self._points is not None:
            return self._points[k]
        return tuple(int(c) for c in self._array[k])

    def integer_array(self) -> Optional[Tuple[np.ndarray, int]]:
        """(den * points) as an integer array with den, or None when a coordinate is irrational.

        The array is ``quad_array().A``: int64, or the narrower dtype of an
        array-backed set whose builder proves its range (Leech: int8).
        """
        q = self.quad_array()
        return None if q.B is not None else (q.A, q.den)

    def quad_array(self) -> QuadArray:
        """The points as exact integer arrays (A + B*sqrt(d)) / den, built once.

        The one place exact coordinates become integer arrays: through
        ``exact.quad_array`` (int64), or by wrapping the array of an
        array-backed set in the dtype its builder chose.  Raises
        ArithmeticError when a scaled coordinate leaves int64.
        """
        if self._quad is None:
            if self._array is not None:
                self._quad = QuadArray(self._array, None, 1, None)
            else:
                self._quad = quad_array(self.points)
        return self._quad

    def validate_norms(self):
        for i, p in enumerate(self.points):
            if dot(p, p) != self.r2:
                raise ConstructionError(f"point {i} has wrong squared norm")

    def __repr__(self):
        return f"SphericalConfiguration({self.name!r}, m={self.m}, v={self.npoints})"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _with_negations(reps: Sequence[Tuple[Scalar, ...]]) -> List[Tuple[Scalar, ...]]:
    """One representative of each antipodal pair, then their negations in the same order.

    Point i + n/2 is -(point i), so the first half holds one point of each
    pair +-x: the generator families read their representatives there, and
    the value-set proof's 'antipodal' premise checks the layout.
    """
    return list(reps) + [tuple(-c for c in p) for p in reps]


def build_icosahedron() -> SphericalConfiguration:
    """12 vertices over Q(sqrt 5): cyclic shifts of (±1, ±phi, 0).

    The representatives, one vertex of each pair +-x, are (1, s phi, 0),
    (0, 1, s phi) and (phi, 0, s) for s = 1, then s = -1.
    """
    reps = [p for s in (1, -1) for p in ((1, s * PHI, 0), (0, 1, s * PHI), (PHI, 0, s))]
    cfg = SphericalConfiguration(
        "icosahedron", 2 + PHI, points=_with_negations(reps), field_d=5, design_strength=5
    )
    cfg.validate_norms()
    return cfg


def icosahedron_adjacency() -> List[List[int]]:
    """0/1 adjacency: vertices are adjacent exactly when their inner product is phi.

    The vertices are the cyclic shifts of (s1, s2 phi, 0) for the signs
    (s1, s2) in the order (1, 1), (1, -1), (-1, 1), (-1, -1).  This labelling,
    not the configuration's point order, fixes the coordinates of the Golay
    code and so the Leech points.
    """
    pts = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        a, b = s1, PHI * s2
        pts += [(a, b, 0), (0, a, b), (b, 0, a)]
    return [
        [1 if i != j and dot(pts[i], pts[j]) == PHI else 0 for j in range(12)]
        for i in range(12)
    ]


def build_golay() -> BinaryCode:
    """Binary rowspace of [I | J - A], A the icosahedron adjacency matrix."""
    A = icosahedron_adjacency()
    rows = []
    for i in range(12):
        mask = 1 << i
        for j in range(12):
            if (1 - A[i][j]) % 2 == 1:
                mask |= 1 << (12 + j)
        rows.append(mask)
    code = BinaryCode(24, rows)
    if code.dimension != 12:
        raise ConstructionError(f"expected dimension 12, got {code.dimension}")
    if code.min_weight() != 8:
        raise ConstructionError(f"expected minimum weight 8, got {code.min_weight()}")
    if not code.is_self_dual():
        raise ConstructionError("code is not self-dual")
    return code


def _e8_points(first: Tuple[int, ...] = (1, -1)) -> List[Tuple[Scalar, ...]]:
    """The 240 roots: ±e_i±e_j plus half-integer sign patterns with even minus count.

    ``first`` holds the signs the first nonzero entry takes: (1,) gives the
    120 roots with a positive one, a representative of each pair +-x.
    """
    pts: List[Tuple[Scalar, ...]] = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product(first, (1, -1)):
            v = [0] * 8
            v[i], v[j] = si, sj
            pts.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product(first, *[(1, -1)] * 7):
        if signs.count(-1) % 2 == 0:
            pts.append(tuple(half * s for s in signs))
    return pts


def build_e8() -> SphericalConfiguration:
    """The 240 norm-2 vectors of E8, minimal vectors of an even unimodular lattice."""
    cfg = SphericalConfiguration(
        "e8", 2, points=_with_negations(_e8_points(first=(1,))),
        lattice_scale=1, design_strength=7, theorem="E8",
    )
    if cfg.npoints != 240:
        raise ConstructionError(f"expected 240 points, got {cfg.npoints}")
    return cfg


def _e8_slice(name: str, free: int, expected: int) -> SphericalConfiguration:
    """E8 vectors whose coordinates after the first ``free`` agree, in free + 1 coordinates.

    The section keeps the free coordinates and adds one along the diagonal
    of the t = 8 - free tied ones: each tied coordinate is that one times
    1/sqrt(t), so the map is isometric over Q(sqrt t).
    """
    tied = 8 - free
    inv_sqrt = Quad(0, Fraction(1, tied), tied)  # 1/sqrt(t) = sqrt(t)/t
    rows: List[List[Scalar]] = [[int(i == j) for j in range(free + 1)] for i in range(free)]
    rows += [[0] * free + [inv_sqrt] for _ in range(tied)]
    section = SectionMap(8, free + 1, rows, field_d=tied)
    ambient = [a for a in _e8_points() if len(set(a[free:])) == 1]
    cfg = SphericalConfiguration(
        name,
        2,
        points=[section.to_section(a) for a in ambient],
        field_d=tied,
        section=section,
        ambient_points=ambient,
        design_strength=5,  # both slices are 5-designs
        theorem=name.upper(),
    )
    cfg.validate_norms()
    if cfg.npoints != expected:
        raise ConstructionError(f"expected {expected} points, got {cfg.npoints}")
    return cfg


def build_e7() -> SphericalConfiguration:
    """E8 vectors with equal last two coordinates, in 7-dim section coordinates."""
    return _e8_slice("e7", 6, 126)


def build_e6() -> SphericalConfiguration:
    """E8 vectors with equal last three coordinates, in 6-dim section coordinates."""
    return _e8_slice("e6", 5, 72)


def e7_defining_vectors() -> List[Tuple[Scalar, ...]]:
    """The 56 E8 vectors whose last two coordinates differ by exactly 1."""
    out = [b for b in _e8_points() if b[6] - b[7] == 1]
    if len(out) != 56:
        raise ConstructionError(f"expected 56 vectors, got {len(out)}")
    return out


def _leech_type2(codewords: Sequence[int]) -> np.ndarray:
    """Row 24k+i: the sign pattern s of codeword k, with s_i shifted by -4 s_i, as int8."""
    bits = (np.array(codewords, dtype=np.int64)[:, None] >> np.arange(24)) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    rows = np.repeat(signs, 24, axis=0)
    diag = np.arange(24)
    rows.reshape(len(codewords), 24, 24)[:, diag, diag] -= 4 * signs
    return rows


def build_leech() -> SphericalConfiguration:
    """196560 integer vectors of squared norm 32 (coordinates carry the sqrt-8 scale).

    Three shapes: (±2^8, 0^16) on weight-8 codeword supports with an even
    number of minus signs; (∓3, ±1^23) from a codeword sign pattern with one
    coordinate shifted by ±4; (±4^2, 0^22).  The second shape is checked
    against 32 fixed rows of the first by the mod-8 inner-product rule.
    The value-set proof that declaring the lattice scale runs checks every
    squared norm, that row i + 98280 is -(row i) and that no vector
    repeats, and fixes the values every inner product lies in.

    The first 98280 rows hold one vector of each pair +-x, the second half
    their negations in the same order.  The representatives are the first
    shape with a plus sign on the octad's first coordinate, the second from
    the 2048 codewords with bit 0 clear, and the third with +4 on the pair's
    first coordinate.  The code holds the complement of each codeword, whose
    rows of the second shape are the negations of the codeword's, so the
    second half holds every row of that shape the other codewords give.

    The points are int8 from the first row on: the three shapes have
    entries 0, +-1, +-2, +-3 and +-4, so |x| <= 4 (Conway & Sloane,
    *Sphere Packings, Lattices and Groups*, ch. 4), and every step here
    forms only entries of those shapes or their negations.  An entry that
    wrapped would change its row's squared norm, which the proof's exact
    int64 'norm' premise checks.  Each shape is written into its rows of
    the one point array, so no shape is held beside it.  The proof keeps
    this array as its points and makes it read-only, so a later write to it
    fails at once.
    """
    code = build_golay()
    octads = [w for w in code.codewords if w.bit_count() == 8]
    if len(octads) != 759:
        raise ConstructionError(f"expected 759 weight-8 words, got {len(octads)}")

    sign8 = np.array(
        [(1,) + s for s in itertools.product((1, -1), repeat=7) if s.count(-1) % 2 == 0],
        dtype=np.int8,
    )
    words = [w for w in code.codewords if not w & 1]
    n1, n2, n3 = 759 * 64, 24 * len(words), 276 * 2
    h = n1 + n2 + n3
    arr = np.zeros((2 * h, 24), dtype=np.int8)
    type1, type2, type3 = arr[:n1], arr[n1 : n1 + n2], arr[n1 + n2 : h]
    # rows 64k..64k+63 put 2 * sign8 on the support of octad k, in
    # ascending column order
    support = np.nonzero((np.array(octads)[:, None] >> np.arange(24)) & 1)[1].reshape(759, 8)
    type1[np.arange(n1).reshape(759, 64, 1), support[:, None, :]] = 2 * sign8

    type2[:] = _leech_type2(words)
    probe = type1[list(itertools.islice(stride_order(n1), 32))].T
    # x & 7 is x mod 8 in two's complement, negative x included, in the
    # product's own dtype (int16: the bound is 24 * 3 * 2); one row block at
    # a time, so no product against all type-2 rows is held
    for s in row_blocks(n2, probe.shape[1]):
        if np.any(int_product(type2[s], probe) & 7):
            raise ConstructionError("type-2 rows break the mod-8 rule")

    r = 0
    for i, j in itertools.combinations(range(24), 2):
        for sj in (4, -4):
            type3[r, i], type3[r, j] = 4, sj
            r += 1
    np.negative(arr[:h], out=arr[h:])

    cfg = SphericalConfiguration(
        "leech",
        32,
        array=arr,
        lattice_scale=8,  # coordinates carry the sqrt-8 scale
        design_strength=11,
        theorem="Leech",
    )
    cfg.type_counts = (2 * n1, 2 * n2, 2 * n3)
    return cfg


def build_ngon(n: int, parameters: Optional[Sequence] = None) -> SphericalConfiguration:
    """n rational points on the unit circle from the tangent parameterization."""
    if n < 4 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 4")
    if parameters is None:
        parameters = default_ngon_parameters(n)
    params = [Fraction(t) for t in parameters]
    if len(params) != n:
        raise ValueError(f"need exactly {n} parameters")
    if len(set(params)) != n:
        raise ValueError("duplicate parameters give duplicate points")
    pts = []
    for t in params:
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    cfg = SphericalConfiguration("ngon", Fraction(1), points=pts)
    cfg.validate_norms()
    return cfg


def default_ngon_parameters(n: int) -> List[Fraction]:
    out = [Fraction(0)]
    k = 1
    while len(out) < n:
        out.append(Fraction(k))
        if len(out) < n:
            out.append(Fraction(-k))
        k += 1
    return out


def build_4cube() -> Tuple[SphericalConfiguration, List[Tuple[int, ...]]]:
    """The 16 vertices (±1)^4, plus the 24 permutation vectors (±1, ±1, 0, 0)."""
    reps = [(1,) + s for s in itertools.product((1, -1), repeat=3)]
    cfg = SphericalConfiguration("cube4", 4, points=_with_negations(reps))
    cfg.validate_norms()
    return cfg, cell24_points()


def cell24_points() -> List[Tuple[int, ...]]:
    """The 24 permutation vectors (±1, ±1, 0, 0), the 4-cube's companion gallery."""
    cell24 = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * 4
            v[i], v[j] = si, sj
            cell24.append(tuple(v))
    return cell24


def build_knn(n: int) -> SphericalConfiguration:
    """Rational embedded realization of the K_{n,n} configuration in R^{2n}.

    One part maps to (v_i, v_i), the other to (v_j, -v_j), v_i = e_i - (1/n)1.
    Inner products come out to exactly 2-2/n (equal), 0 (across parts),
    -2/n (distinct within a part); both block coordinate sums vanish on X.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    v = [
        tuple(Fraction(1) - Fraction(1, n) if k == i else -Fraction(1, n) for k in range(n))
        for i in range(n)
    ]
    pts = [vi + vi for vi in v]
    pts += [vj + tuple(-c for c in vj) for vj in v]
    lin1 = tuple([1] * n + [0] * n)
    lin2 = tuple([0] * n + [1] * n)
    cfg = SphericalConfiguration("knn", 2 - Fraction(2, n), points=pts, trivial_linear=[lin1, lin2])
    cfg.validate_norms()
    return cfg


# ---------------------------------------------------------------------------
# pair distributions
# ---------------------------------------------------------------------------


class PairDistribution:
    """Per-base-point inner-product histograms and their closure check."""

    def __init__(
        self,
        name: str,
        mode: str,
        omegas: List[Scalar],
        base_indices: List[int],
        counts: np.ndarray,
        closure_ok: bool,
        witness: Optional[Tuple[int, int, Scalar]],
    ):
        self.name = name
        self.mode = mode
        self.omegas = omegas
        self.base_indices = base_indices
        self.counts = counts  # len(base_indices) × len(omegas)
        self.closure_ok = closure_ok
        self.witness = witness


def _pair_exact(X: SphericalConfiguration, base: List[int], mode: str) -> PairDistribution:
    """The test oracle of ``pair_distribution``: every product by ``dot``, with its own values.

    The values are r2, then every other product of a base point with a
    point, descending; they never come from ``X.omegas``, so the oracle
    stays independent of the numpy pass that derives those.  In full mode
    they are the values of every pair.
    """
    pts = X.points
    products = [[dot(pts[i], q) for q in pts] for i in base]
    values = {v for row in products for v in row}
    values.discard(X.r2)
    omegas = [X.r2] + sorted(values, reverse=True)
    index = {w: i for i, w in enumerate(omegas)}
    counts = np.zeros((len(base), len(omegas)), dtype=np.int64)
    for row, vals in enumerate(products):
        for v in vals:
            counts[row, index[v]] += 1
    return PairDistribution(X.name, mode, omegas, base, counts, True, None)


def _pair_counts(rows: QuadArray, pts: QuadArray, keys: Sequence[Optional[Tuple[int, int]]]):
    """Histogram of each row's inner products with every point over the value keys.

    ``keys`` holds each value as exact integer parts (r, i) over the product
    denominator rows.den * pts.den (``exact.quad_key``); a None key matches
    nothing.  Returns (counts, witness); witness is (row, point, (r, i)) at
    the first point outside the keys of the first row that has one, else
    None: the keys are distinct, so a row whose counts fall short of the
    points seen has one.  The products run in point blocks, one
    ``int_product`` call each.  A key outside the block's range of R cannot
    match and is skipped; a rational block whose R lies in the int8 range
    is compared as int8, which keeps equal values equal and distinct ones
    distinct.  The point blocks come from ``row_blocks``, sized by the
    product rows; a block row counts at most ENTRIES < 2^31 hits, so int32
    sums are exact.  R and I come in the narrowest dtype that holds the
    product bound (int16 on Leech); they are only compared, and a key part
    outside that dtype compares unequal to every entry, as it should.
    """
    left, right = quad_operands(rows, pts)
    counts = np.zeros((len(rows), len(keys)), dtype=np.int64)
    bad: Dict[int, Tuple[int, int, Tuple[int, int]]] = {}

    def hits(R, I, key):
        hit = R == key[0]
        return hit if I is None else hit & (I == key[1])

    for s in row_blocks(len(pts), left.shape[0]):
        lo = s.start
        R, I = quad_parts(int_product(left, right[s].T), len(rows))
        low, high = int(R.min()), int(R.max())
        if I is None and -128 <= low and high < 128:
            R = R.astype(np.int8, copy=False)
        for k, key in enumerate(keys):
            if key is not None and low <= key[0] <= high:
                counts[:, k] += hits(R, I, key).sum(axis=1, dtype=np.int32)
        for r in np.flatnonzero(counts.sum(axis=1) != lo + R.shape[1]).tolist():
            if r not in bad:
                Ir = None if I is None else I[r]
                seen = np.zeros(R.shape[1], dtype=bool)
                for key in filter(None, keys):
                    seen |= hits(R[r], Ir, key)
                j = int(np.argmin(seen))
                bad[r] = (r, lo + j, (int(R[r, j]), 0 if Ir is None else int(Ir[j])))
    return counts, bad[min(bad)] if bad else None


def observed_omegas(r2: Scalar, pts: QuadArray) -> List[Scalar]:
    """r2, then every other inner product of two of the points, descending.

    The values of a configuration without a value-set proof, read off the
    exact (R, I) parts of the products of every point with every point, in
    blocks of 128 rows.  A rational block's R is sorted flat and the first
    entry of each run of equal ones kept: np.unique would import numpy.ma
    for its masked-array check, about 0.8 MB in every process that reads a
    value set, and on these narrow blocks sorting is the faster of the two.
    A block over Q(sqrt d) gives its (R, I) pairs to the set as they are.
    Integral values, r2 among them, are ints.
    """
    seen: set = set()
    for lo in range(0, len(pts), 128):
        rows = pts.take(slice(lo, lo + 128))
        left, right = quad_operands(rows, pts)
        for s in row_blocks(len(pts), left.shape[0]):
            R, I = quad_parts(int_product(left, right[s].T), len(rows))
            if I is None:
                v = np.sort(R, axis=None)
                seen.update((r, 0) for r in v[np.append(True, v[1:] != v[:-1])].tolist())
            else:
                seen.update(zip(R.ravel().tolist(), I.ravel().tolist()))
    values = {quad_scalar(r, i, pts.den * pts.den, pts.d) for r, i in seen}
    values.discard(r2)
    return [
        w.numerator if isinstance(w, Fraction) and w.denominator == 1 else w
        for w in [r2, *sorted(values, reverse=True)]
    ]


def pair_distribution(
    X: SphericalConfiguration,
    mode: str = "full",
    seed: int = DEFAULT_SEED,
    progress: Optional[Callable[[str], None]] = None,
) -> PairDistribution:
    """Inner-product histogram per base point, with the closure check.

    Every configuration, rational or over Q(sqrt d), takes one exact path:
    the points as a ``QuadArray``, blocks of 128 base rows against all of
    them through ``_pair_counts``, values matched as exact integer parts.
    Coordinates or products beyond the exact int64 range raise
    ArithmeticError.  Sampled mode takes DEFAULT_SAMPLE base points; full
    mode reports each finished block to ``progress``.
    """
    if mode not in ("full", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    n = X.npoints
    base = list(range(n)) if mode == "full" else sample_indices(seed, DEFAULT_SAMPLE, n)

    pts = X.quad_array()
    omegas = X.omegas
    keys = [quad_key(w, pts.den * pts.den, pts.d) for w in omegas]
    counts = np.zeros((len(base), len(omegas)), dtype=np.int64)
    witness = None
    for lo in range(0, len(base), 128):
        rows = base[lo : lo + 128]
        counts[lo : lo + len(rows)], w = _pair_counts(pts.take(rows), pts, keys)
        if w is not None and witness is None:
            r, i = w[2]
            witness = (rows[w[0]], w[1], quad_scalar(r, i, pts.den * pts.den, pts.d))
        if progress is not None and mode == "full":
            progress(f"pair pass {lo + len(rows)}/{len(base)} base points")
    return PairDistribution(X.name, mode, omegas, base, counts, witness is None, witness)


# ---------------------------------------------------------------------------
# point-set files
# ---------------------------------------------------------------------------


def field_label(field_d: Optional[int]) -> str:
    return "Q" if field_d is None else f"Q(sqrt {field_d})"


def write_points(X: SphericalConfiguration, path: str):
    with open(path, "w") as fh:
        fh.write(f"dim {X.m} norm {scalar_to_text(X.r2)} field {field_label(X.field_d)}\n")
        for p in X.points:
            fh.write(" ".join(scalar_to_text(c) for c in p) + "\n")


# a plain integer token: ASCII digits with an optional sign.  parse_scalar
# reads it as the same integer, and int() reads it without a Fraction; int()
# alone would also take "1_0", " +3" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def read_points(path: str, name: str = "file") -> SphericalConfiguration:
    """The configuration a point file holds.

    The field must be Q or Q(sqrt d) with d in SUPPORTED_D, every coordinate
    must lie in it, and the file must hold at least one point; otherwise
    ValueError.  Plain integer coordinates are read as ints, every other
    token by ``parse_scalar``.
    """
    fields = {field_label(d): d for d in (None, *SUPPORTED_D)}
    with open(path) as fh:
        header = fh.readline().split(None, 5)
        if len(header) != 6 or header[0] != "dim" or header[2] != "norm" or header[4] != "field":
            raise ValueError("bad point-file header")
        m = int(header[1])
        r2 = parse_scalar(header[3])
        field = header[5].strip()
        if field not in fields:
            raise ValueError(f"unsupported field {field!r}")
        field_d = fields[field]
        pts = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            coords = tuple(
                int(tok) if _INTEGER.fullmatch(tok) else parse_scalar(tok) for tok in line.split()
            )
            if len(coords) != m:
                raise ValueError(f"point with {len(coords)} coordinates, expected {m}")
            for c in coords:
                if isinstance(c, Quad) and c.b != 0 and c.d != field_d:
                    raise ValueError(f"coordinate {scalar_to_text(c)} is not in {field}")
            pts.append(coords)
    if not pts:
        raise ValueError("point file holds no points")
    return SphericalConfiguration(name, r2, points=pts, field_d=field_d)
