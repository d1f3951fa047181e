"""Generator sets for the configuration ideals.

Each configuration gets a named set of polynomials that vanish on all of its
points: the squared-norm relation Nm plus zonal or sliced zonal products, with
a handful of special shapes (cubics for e7, chord products for polygons,
bipartite quadratics, the e7 set restricted to the e6 section).  The zonal
and sliced-zonal families take one representative of each pair +-x: the
first half of the configuration's points, which ``configs`` lists ahead of
their negations.

Products of affine-linear factors are kept factored (FactoredPoly); the big
streamed families only ever need evaluations and gradients, and expansion
stays available for the small sets that feed the Groebner machinery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .configs import (
    ConstructionError,
    SectionMap,
    SphericalConfiguration,
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_icosahedron,
    build_knn,
    build_leech,
    build_ngon,
    e7_defining_vectors,
)
from .exact import Scalar, dot
from .poly import SparsePoly, nm_poly

# label kinds used in exports and reports
LABEL_NM = "NM"
LABEL_ZONAL = "ZONAL"
LABEL_SLICED = "SLICED"
LABEL_CUBIC = "CUBIC"
LABEL_CHORD = "CHORD"
LABEL_BIPARTITE = "BIPARTITE"
LABEL_LINEAR = "LINEAR"


class OrthogonalityError(ValueError):
    """The slicing vector is not orthogonal to the base vector."""


class FactoredPoly:
    """Product of affine-linear factors (v . Y - c), kept in factored form.

    Evaluation, gradients, restriction to a section, and expansion to a
    SparsePoly are all exact.
    """

    __slots__ = ("nvars", "field_d", "factors")

    def __init__(
        self,
        nvars: int,
        factors: Sequence[Tuple[Sequence[Scalar], Scalar]],
        field_d: Optional[int] = None,
    ):
        self.nvars = nvars
        self.field_d = field_d
        fs = []
        for vec, c in factors:
            vec = tuple(vec)
            if len(vec) != nvars:
                raise ValueError("factor vector arity mismatch")
            fs.append((vec, c))
        self.factors = tuple(fs)

    def degree(self) -> int:
        return len(self.factors)

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        out = 1
        for vec, c in self.factors:
            out = out * (dot(vec, point) - c)
            if out == 0:
                return out
        return out

    def factor_values(self, point: Sequence[Scalar]) -> List[Scalar]:
        return [dot(vec, point) - c for vec, c in self.factors]

    def gradient_at(self, point: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        """Exact gradient by the product rule, via prefix/suffix products."""
        vals = self.factor_values(point)
        k = len(vals)
        prefix = [1] * (k + 1)
        for i in range(k):
            prefix[i + 1] = prefix[i] * vals[i]
        suffix = [1] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] * vals[i]
        grad = [0] * self.nvars
        for i, (vec, _) in enumerate(self.factors):
            w = prefix[i] * suffix[i + 1]
            if w == 0:
                continue
            for j, vj in enumerate(vec):
                if vj != 0:
                    grad[j] = grad[j] + w * vj
        return tuple(grad)

    def expand(self) -> SparsePoly:
        out = SparsePoly.constant(self.nvars, Fraction(1), self.field_d)
        for vec, c in self.factors:
            lin = SparsePoly.linear_form(vec, self.field_d)
            if c != 0:
                lin = lin - SparsePoly.constant(self.nvars, c, self.field_d)
            out = out * lin
        return out

    def restrict(
        self,
        rows: Sequence[Sequence[Scalar]],
        new_nvars: int,
        field_d: Optional[int] = None,
    ) -> "FactoredPoly":
        """Compose with Y_i = sum_j rows[i][j] Z_j, factor by factor."""
        if len(rows) != self.nvars:
            raise ValueError("need one substitution row per variable")
        new_factors = []
        for vec, c in self.factors:
            nv = [0] * new_nvars
            for i, vi in enumerate(vec):
                if vi == 0:
                    continue
                row = rows[i]
                for j in range(new_nvars):
                    if row[j] != 0:
                        nv[j] = nv[j] + vi * row[j]
            new_factors.append((tuple(nv), c))
        return FactoredPoly(new_nvars, new_factors, field_d)

    def __repr__(self):
        return f"FactoredPoly(nvars={self.nvars}, degree={self.degree()})"


def as_sparse(p) -> SparsePoly:
    """Expanded view of a generator, whatever its storage form."""
    if isinstance(p, FactoredPoly):
        return p.expand()
    return p


def zonal(a: Sequence[Scalar], roots: Sequence[Scalar], field_d: Optional[int] = None) -> SparsePoly:
    """Expanded product of (a . Y - root) over the given roots."""
    if not any(x != 0 for x in a):
        raise ValueError("base vector must be nonzero")
    if not roots:
        raise ValueError("at least one root is required")
    return FactoredPoly(len(a), [(tuple(a), r) for r in roots], field_d).expand()


def sliced_zonal(
    a: Sequence[Scalar],
    b: Sequence[Scalar],
    interior_roots: Sequence[Scalar],
    field_d: Optional[int] = None,
) -> SparsePoly:
    """Expanded (b . Y) * prod(a . Y - root) for b orthogonal to a."""
    return _sliced_factored(a, b, interior_roots, field_d).expand()


def _sliced_factored(a, b, interior_roots, field_d=None) -> FactoredPoly:
    if not any(x != 0 for x in b):
        raise ValueError("slicing vector must be nonzero")
    if dot(a, b) != 0:
        raise OrthogonalityError("slicing vector must be orthogonal to the base vector")
    factors = [(tuple(b), 0)]
    factors.extend((tuple(a), r) for r in interior_roots)
    return FactoredPoly(len(a), factors, field_d)


def orthogonal_complement_basis(a: Sequence[Scalar]) -> List[Tuple[Scalar, ...]]:
    """Deterministic basis of the hyperplane orthogonal to a.

    With j the first index where a is nonzero, the vectors are
    a_j * e_i - a_i * e_j for each i != j, in increasing i.
    """
    m = len(a)
    j = next((i for i, x in enumerate(a) if x != 0), None)
    if j is None:
        raise ValueError("base vector must be nonzero")
    out = []
    for i in range(m):
        if i == j:
            continue
        v = [0] * m
        v[i] = a[j]
        v[j] = -a[i] if a[i] != 0 else 0
        out.append(tuple(v))
    return out


class GeneratorSet:
    """Labeled generators for one configuration's ideal.

    Small sets are materialized; the Leech family is streamed from indices.
    Iteration yields (label, poly) with poly either SparsePoly or FactoredPoly.
    """

    def __init__(
        self,
        name: str,
        nvars: int,
        r2: Scalar,
        items: Sequence[Tuple[str, object]],
        field_d: Optional[int] = None,
        stream_count: int = 0,
        stream_factory: Optional[Callable[[int], Tuple[str, FactoredPoly]]] = None,
        config: Optional[SphericalConfiguration] = None,
        pair_reps: Optional[np.ndarray] = None,
    ):
        self.name = name
        self.nvars = nvars
        self.r2 = r2
        self.items = list(items)
        self.field_d = field_d
        self.stream_count = stream_count
        self.stream_factory = stream_factory
        self.config = config
        self.pair_reps = pair_reps

    def __len__(self) -> int:
        return len(self.items) + self.stream_count

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        yield from self.items
        for k in range(self.stream_count):
            yield self.stream_factory(k)

    def streamed(self, k: int) -> Tuple[str, FactoredPoly]:
        if not (0 <= k < self.stream_count):
            raise IndexError("stream index out of range")
        return self.stream_factory(k)

    def max_degree(self) -> int:
        best = 0
        for _, p in self.items:
            best = max(best, p.degree())
        if self.stream_count:
            best = max(best, self.stream_factory(0)[1].degree())
        return best


def _icosahedron_set() -> GeneratorSet:
    cfg = build_icosahedron()
    items: List[Tuple[str, object]] = [
        (LABEL_NM, nm_poly(3, cfg.r2, field_d=5))
    ]
    interior = cfg.omegas[1:-1]  # the values of pairs x != +-y
    for p, a in enumerate(cfg.points[: cfg.npoints // 2]):
        for i, b in enumerate(orthogonal_complement_basis(a)):
            items.append(
                (
                    f"{LABEL_SLICED} pair{p} c{i}",
                    _sliced_factored(a, b, interior, field_d=5),
                )
            )
    return GeneratorSet("icosahedron", 3, cfg.r2, items, field_d=5, config=cfg)


def _e8_set() -> GeneratorSet:
    cfg = build_e8()
    items: List[Tuple[str, object]] = [(LABEL_NM, nm_poly(8, cfg.r2))]
    interior = cfg.lattice.values
    for p, a in enumerate(cfg.points[: cfg.npoints // 2]):
        for i, b in enumerate(orthogonal_complement_basis(a)):
            items.append(
                (f"{LABEL_SLICED} pair{p} c{i}", _sliced_factored(a, b, interior))
            )
    return GeneratorSet("e8", 8, cfg.r2, items, config=cfg, pair_reps=cfg.lattice.reps)


def _e7_items(r2: Scalar) -> List[Tuple[str, object]]:
    """Nm and the e7 cubics, in the 8 ambient variables."""
    items: List[Tuple[str, object]] = [(LABEL_NM, nm_poly(8, r2))]
    for j, b in enumerate(e7_defining_vectors()):
        items.append(
            (f"{LABEL_CUBIC} {j}", FactoredPoly(8, [(b, 1), (b, 0), (b, -1)]))
        )
    return items


def _e7_set() -> GeneratorSet:
    cfg = build_e7()
    return GeneratorSet("e7", 8, cfg.r2, _e7_items(cfg.r2), config=cfg)


def _e6_set() -> GeneratorSet:
    """The e7 generators restricted to the e6 section."""
    cfg = build_e6()
    ambient = GeneratorSet("e6", 8, cfg.r2, _e7_items(cfg.r2), config=cfg)
    return restrict_to_section(ambient, cfg.section)


def _leech_set() -> GeneratorSet:
    cfg = build_leech()
    items: List[Tuple[str, object]] = [(LABEL_NM, nm_poly(24, cfg.r2))]
    reps, interior = cfg.lattice.reps, cfg.lattice.values

    def factory(k: int) -> Tuple[str, FactoredPoly]:
        p, i = divmod(k, 23)
        a = tuple(int(x) for x in reps[p])
        b = orthogonal_complement_basis(a)[i]
        return (
            f"{LABEL_SLICED} pair{p} c{i}",
            FactoredPoly(24, [(b, 0)] + [(a, r) for r in interior]),
        )

    return GeneratorSet(
        "leech",
        24,
        cfg.r2,
        items,
        stream_count=reps.shape[0] * 23,
        stream_factory=factory,
        config=cfg,
        pair_reps=reps,
    )


def _cube4_set() -> GeneratorSet:
    cfg, _cell = build_4cube()
    items: List[Tuple[str, object]] = []
    for p, a in enumerate(cfg.points[: cfg.npoints // 2]):
        items.append(
            (f"{LABEL_ZONAL} pair{p}", FactoredPoly(4, [(a, r) for r in cfg.omegas]))
        )
    return GeneratorSet("cube4", 4, cfg.r2, items, config=cfg)


def _angular_sort(points: Sequence[Tuple[Fraction, Fraction]]) -> List[Tuple[Fraction, Fraction]]:
    """Points on the circle in counterclockwise order starting near angle 0."""

    def half(p):
        x, y = p
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    import functools

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = p[0] * q[1] - p[1] * q[0]
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return sorted(points, key=functools.cmp_to_key(cmp))


def _chord_factor(p, q) -> Tuple[Tuple[Fraction, Fraction], Fraction]:
    ux, uy = q[0] - p[0], q[1] - p[1]
    v = (uy, -ux)
    return v, v[0] * p[0] + v[1] * p[1]


def _second_covering(ordered, banned_dirs):
    """First perfect matching (in canonical order) avoiding the banned directions."""
    n = len(ordered)

    def parallel(v, w):
        return v[0] * w[1] - v[1] * w[0] == 0

    def rec(remaining, acc):
        if not remaining:
            return list(acc)
        first = remaining[0]
        for pos in range(1, len(remaining)):
            other = remaining[pos]
            v, _ = _chord_factor(ordered[first], ordered[other])
            if any(parallel(v, w) for w in banned_dirs):
                continue
            acc.append((first, other))
            res = rec(remaining[1:pos] + remaining[pos + 1 :], acc)
            if res is not None:
                return res
            acc.pop()
        return None

    return rec(list(range(n)), [])


def _ngon_set(n: int) -> GeneratorSet:
    cfg = build_ngon(n)
    ordered = _angular_sort(cfg.points)
    half = n // 2
    first_pairs = [(ordered[2 * t], ordered[2 * t + 1]) for t in range(half)]
    f_factors = [_chord_factor(p, q) for p, q in first_pairs]
    second = _second_covering(ordered, [v for v, _ in f_factors])
    if second is None:
        raise ConstructionError(
            "no chord covering avoids the first covering's directions; "
            "choose other parameters"
        )
    g_factors = [_chord_factor(ordered[i], ordered[j]) for i, j in second]
    items: List[Tuple[str, object]] = [
        (LABEL_NM, nm_poly(2, cfg.r2)),
        (f"{LABEL_CHORD} first", FactoredPoly(2, f_factors)),
        (f"{LABEL_CHORD} second", FactoredPoly(2, g_factors)),
    ]
    return GeneratorSet("ngon", 2, cfg.r2, items, config=cfg)


def _knn_set(n: int) -> GeneratorSet:
    cfg = build_knn(n)
    a_side = cfg.points[:n]
    b_side = cfg.points[n:]
    w0 = cfg.r2  # 2 - 2/n
    w2 = -Fraction(2, n)
    items: List[Tuple[str, object]] = [(LABEL_NM, nm_poly(2 * n, cfg.r2))]
    for i, a in enumerate(a_side):
        for j, b in enumerate(b_side):
            s = tuple(x + y for x, y in zip(a, b))
            items.append(
                (f"{LABEL_BIPARTITE} {i},{j}", FactoredPoly(2 * n, [(s, w0), (s, w2)]))
            )
    for t, lin in enumerate(cfg.trivial_linear):
        items.append((f"{LABEL_LINEAR} block{t}", FactoredPoly(2 * n, [(lin, 0)])))
    return GeneratorSet("knn", 2 * n, cfg.r2, items, config=cfg)


class Family(NamedTuple):
    """How one named configuration and its generator set are built.

    Both builders take the family member n, which is None outside the
    parameterized families; ``default_n`` is the member a run gets when it
    names none.
    """

    config: Callable[[Optional[int]], SphericalConfiguration]
    generators: Callable[[Optional[int]], GeneratorSet]
    default_n: Optional[int] = None


# Every configuration the package builds by name, in command-line order.  The
# builders are called through their module names, so a wrapper bound over one
# (a profiler's span, a test's counter) sees every build.
FAMILIES: Dict[str, Family] = {
    "icosahedron": Family(lambda n: build_icosahedron(), lambda n: _icosahedron_set()),
    "e6": Family(lambda n: build_e6(), lambda n: _e6_set()),
    "e7": Family(lambda n: build_e7(), lambda n: _e7_set()),
    "e8": Family(lambda n: build_e8(), lambda n: _e8_set()),
    "leech": Family(lambda n: build_leech(), lambda n: _leech_set()),
    "cube4": Family(lambda n: build_4cube()[0], lambda n: _cube4_set()),
    "ngon": Family(lambda n: build_ngon(n), lambda n: _ngon_set(n), default_n=6),
    "knn": Family(lambda n: build_knn(n), lambda n: _knn_set(n), default_n=3),
}


def build_generator_set(name: str, n: Optional[int] = None) -> GeneratorSet:
    """Named generator set; n selects the member for the parameterized families."""
    if name not in FAMILIES:
        raise ValueError(f"unknown configuration name: {name}")
    row = FAMILIES[name]
    return row.generators(row.default_n if n is None else n)


def restrict_to_section(G: GeneratorSet, S: SectionMap) -> GeneratorSet:
    """Substitute Y = S.rows Z into every generator: S.dim variables, over S's field.

    Only materialized sets are restricted; a streamed set is a ValueError.
    """
    if S.ambient_dim != G.nvars:
        raise ValueError("section ambient dimension does not match the generators")
    if G.stream_count:
        raise ValueError("a streamed generator set cannot be restricted")

    def restrict(p):
        field = S.field_d if S.field_d is not None else p.field_d
        if isinstance(p, FactoredPoly):
            return p.restrict(S.rows, S.dim, field)
        return p.compose_linear(S.rows, S.dim, field)

    return GeneratorSet(
        G.name,
        S.dim,
        G.r2,
        [(label, restrict(p)) for label, p in G.items],
        field_d=S.field_d if S.field_d is not None else G.field_d,
        config=G.config,
    )


def write_generators(G: GeneratorSet, path: str) -> None:
    """Text export, one generator per line, labels as comments."""
    with open(path, "w") as fh:
        fh.write(f"# generator set {G.name}: {len(G)} generators in {G.nvars} variables\n")
        from .poly import poly_to_text

        for label, p in G:
            fh.write(f"# {label}\n")
            fh.write(poly_to_text(as_sparse(p)) + "\n")


def build_e7_identity_witness():
    """Exact decomposition of a degree-five zonal over four of the e7 cubics.

    Returns an object carrying both sides (after the substitution Y8 := Y7)
    plus the pieces, so tests can compare them term by term.
    """
    nv = 8
    c = (1, 1, 0, 0, 0, 0, 0, 0)
    z_raw = FactoredPoly(nv, [(c, r) for r in (2, 1, 0, -1, -2)]).expand()

    b1 = (1, 0, 0, 0, 0, 0, 1, 0)
    b2 = (0, 1, 0, 0, 0, 0, 1, 0)
    b3 = (-1, 0, 0, 0, 0, 0, 1, 0)
    b4 = (0, -1, 0, 0, 0, 0, 1, 0)
    cubics = [
        FactoredPoly(nv, [(b, 1), (b, 0), (b, -1)]).expand() for b in (b1, b2, b3, b4)
    ]

    def lf(coeffs):
        v = [0] * nv
        for i, x in coeffs.items():
            v[i] = x
        return SparsePoly.linear_form(v)

    y1, y2, y7 = 0, 1, 6
    half = Fraction(1, 2)
    q1 = (lf({y1: 1, y2: 1, y7: -4}) * lf({y1: 1, y2: 4, y7: 1})).scale(half)
    q2 = (lf({y1: 1, y2: 1, y7: -4}) * lf({y1: 4, y2: 1, y7: 1})).scale(half)
    q3 = (lf({y1: 1, y2: 1, y7: 4}) * lf({y1: -1, y2: -4, y7: 1})).scale(half)
    q4 = (lf({y1: 1, y2: 1, y7: 4}) * lf({y1: -4, y2: -1, y7: 1})).scale(half)

    def sq(i):
        return SparsePoly.variable(nv, i + 1) * SparsePoly.variable(nv, i + 1)

    two = SparsePoly.constant(nv, Fraction(2))
    r1 = sq(y2).scale(3) + sq(y7).scale(5) - two
    r2 = sq(y1).scale(3) + sq(y7).scale(5) - two

    multipliers = [q1 + r1, q2 + r2, q3 - r1, q4 - r2]
    rhs_raw = SparsePoly.zero(nv)
    for mult, cub in zip(multipliers, cubics):
        rhs_raw = rhs_raw + mult * cub

    # restrict to the subspace Y7 = Y8
    rows = []
    for i in range(nv):
        row = [0] * nv
        row[i if i != 7 else 6] = 1
        rows.append(row)
    lhs = z_raw.compose_linear(rows, nv)
    rhs = rhs_raw.compose_linear(rows, nv)

    class WitnessData:
        pass

    w = WitnessData()
    w.base = c
    w.b_vectors = (b1, b2, b3, b4)
    w.zonal = z_raw
    w.cubics = cubics
    w.multipliers = multipliers
    w.lhs = lhs
    w.rhs = rhs
    w.difference = lhs - rhs
    return w
