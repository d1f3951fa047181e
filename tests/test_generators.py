"""Generator sets: shapes, vanishing, gradients, sections, the e7 identity."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from idealforge.configs import (
    ConstructionError,
    SectionMap,
    SphericalConfiguration,
    build_4cube,
    build_e6,
    build_e7,
    build_icosahedron,
    build_ngon,
)
from idealforge.exact import Quad, dot
from idealforge.generators import (
    FactoredPoly,
    GeneratorSet,
    OrthogonalityError,
    as_sparse,
    build_e7_identity_witness,
    build_generator_set,
    orthogonal_complement_basis,
    restrict_to_section,
    sliced_zonal,
    write_generators,
    zonal,
)
from idealforge.groebner import _coefficients
from idealforge.poly import SparsePoly, poly_from_text, poly_to_text
from idealforge.sampling import sample_indices


def coefficient_fields(G):
    """The d of every generator coefficient with an irrational part."""
    return {c.d for _label, p in G for c in _coefficients(p) if isinstance(c, Quad) and c.b}


def test_zonal_basics():
    y1 = zonal((1, 0, 0), [0])
    assert y1 == SparsePoly.variable(3, 1)
    with pytest.raises(ValueError):
        zonal((1, 0), [])
    with pytest.raises(ValueError):
        zonal((0, 0), [1])


def test_sliced_zonal_requires_orthogonality():
    a = (1, 1, 0)
    with pytest.raises(OrthogonalityError):
        sliced_zonal(a, a, [1, -1])
    with pytest.raises(ValueError):
        sliced_zonal(a, (0, 0, 0), [1])
    f = sliced_zonal(a, (1, -1, 0), [2, -2])
    assert f.degree() == 3


def test_complement_basis_rule():
    assert orthogonal_complement_basis((1, 0, 0)) == [(0, 1, 0), (0, 0, 1)]
    rng = random.Random(909)
    for _ in range(25):
        m = rng.randint(2, 8)
        a = tuple(rng.randint(-4, 4) for _ in range(m))
        if not any(a):
            a = (1,) + a[1:]
        basis = orthogonal_complement_basis(a)
        assert len(basis) == m - 1
        for b in basis:
            assert dot(a, b) == 0
        # together with a they span the whole space
        from idealforge.exact import Matrix, rank

        assert rank(Matrix([list(a)] + [list(b) for b in basis])) == m


def test_factored_eval_matches_expansion():
    rng = random.Random(321)
    for _ in range(20):
        nv = rng.randint(2, 5)
        k = rng.randint(1, 4)
        factors = [
            (tuple(rng.randint(-3, 3) for _ in range(nv)), Fraction(rng.randint(-4, 4)))
            for _ in range(k)
        ]
        if not any(any(v) for v, _ in factors):
            continue
        fp = FactoredPoly(nv, factors)
        sp = fp.expand()
        for _ in range(4):
            pt = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nv))
            assert fp.eval(pt) == sp.eval(pt)


def test_factored_gradient_matches_partials():
    rng = random.Random(654)
    for _ in range(12):
        nv = rng.randint(2, 4)
        k = rng.randint(1, 4)
        factors = [
            (tuple(rng.randint(-3, 3) for _ in range(nv)), Fraction(rng.randint(-3, 3)))
            for _ in range(k)
        ]
        fp = FactoredPoly(nv, factors)
        sp = fp.expand()
        parts = [sp.partial_derivative(i + 1) for i in range(nv)]
        for _ in range(3):
            pt = tuple(Fraction(rng.randint(-5, 5)) for _ in range(nv))
            grad = fp.gradient_at(pt)
            for i in range(nv):
                assert grad[i] == parts[i].eval(pt)


def test_icosahedron_set_vanishes():
    G = build_generator_set("icosahedron")
    assert len(G) == 13
    assert G.max_degree() == 3
    for label, p in G:
        for pt in G.config.points:
            assert p.eval(pt) == 0


def test_e8_set_shape_and_sampled_vanishing():
    G = build_generator_set("e8")
    assert len(G) == 1 + 120 * 7
    assert G.max_degree() == 4
    pts = G.config.points
    rng = random.Random(77)
    for k in [0] + rng.sample(range(1, len(G.items)), 40):
        label, p = G.items[k]
        for pt in pts:
            assert p.eval(pt) == 0


def test_e7_set_vanishes_on_ambient_points():
    G = build_generator_set("e7")
    assert len(G) == 57
    assert G.max_degree() == 3
    amb = G.config.ambient_points
    assert len(amb) == 126
    for label, p in G:
        for pt in amb:
            assert p.eval(pt) == 0


def test_e6_set_is_restriction_and_vanishes():
    G = build_generator_set("e6")
    assert len(G) == 57
    assert G.nvars == 6
    assert coefficient_fields(G) == {3}
    assert G.max_degree() == 3
    for label, p in G:
        for pt in G.config.points:
            assert p.eval(pt) == 0
    # the restricted norm relation is the section's own norm relation
    nm = as_sparse(G.items[0][1])
    pt0 = G.config.points[0]
    assert nm.eval(pt0) == 0
    assert nm.degree() == 2


def test_cube4_zonals_and_24cell_gallery():
    G = build_generator_set("cube4")
    assert len(G) == 8
    assert all(p.degree() == 5 for _, p in G.items)
    for label, p in G:
        for pt in G.config.points:
            assert p.eval(pt) == 0
    _, cell = build_4cube()
    assert len(cell) == 24
    for label, p in G:
        for y in cell:
            assert p.eval(y) == 0


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_ngon_chord_coverings(n):
    G = build_generator_set("ngon", n=n)
    labels = [label for label, _ in G.items]
    assert labels[0] == "NM"
    chords = [p for label, p in G.items if label.startswith("CHORD")]
    assert len(chords) == 2
    assert all(p.degree() == n // 2 for p in chords)
    for label, p in G.items:
        for pt in G.config.points:
            assert p.eval(pt) == 0
    # no chord of the second covering is parallel to any of the first
    for vf, _ in chords[0].factors:
        for vg, _ in chords[1].factors:
            assert vf[0] * vg[1] - vf[1] * vg[0] != 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_knn_quadratics(n):
    G = build_generator_set("knn", n=n)
    assert len(G) == 1 + n * n + 2
    assert G.max_degree() == 2
    for label, p in G:
        for pt in G.config.points:
            assert p.eval(pt) == 0
    linear = [p for label, p in G.items if label.startswith("LINEAR")]
    assert len(linear) == 2 and all(p.degree() == 1 for p in linear)


def test_leech_stream_sampled_vanishing():
    G = build_generator_set("leech")
    assert len(G) == 1 + 98280 * 23
    assert G.max_degree() == 6
    pts = G.config.points
    gi = sample_indices(2024, 30, G.stream_count)
    pi = sample_indices(4048, 25, len(pts))
    for k in gi:
        label, p = G.streamed(k)
        assert p.degree() == 6
        for j in pi:
            assert p.eval(pts[j]) == 0
        a = tuple(int(x) for x in G.pair_reps[k // 23])
        assert p.eval(a) == 0
        assert p.eval(tuple(-x for x in a)) == 0
    nm = G.items[0][1]
    for j in pi:
        assert nm.eval(pts[j]) == 0


@pytest.mark.parametrize("name", ["e8", "leech"])
def test_pair_reps_are_the_proofs_read_only_rows(name):
    G = build_generator_set(name)
    proof = G.config.lattice
    assert G.pair_reps is proof.reps and proof.reps is proof.reps
    assert G.pair_reps.dtype == proof.points.dtype and not G.pair_reps.flags.writeable
    # a view of the first half of the points, whose second half is its negation
    h = len(proof.points) // 2
    assert len(proof.reps) == h and np.shares_memory(proof.reps, proof.points)
    assert np.array_equal(proof.reps, proof.points[:h])
    assert np.array_equal(proof.points[h:], -proof.reps.astype(np.int64))


def test_leech_set_holds_the_points_once():
    # after the build the set keeps the int8 points (4,717,440 bytes), which
    # are the proof's own, and the representatives are a view of their first
    # half: 4,757,639 bytes held in all (tracemalloc, numpy 2.4), below 1.25
    # int8 copies of the 196,560 x 24 points, so not even half a copy more
    bound = 1.25 * 196560 * 24
    tracemalloc.start()
    try:
        G = build_generator_set("leech")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < bound, held
    assert G.config.lattice.points is G.config.integer_array()[0]


def test_leech_stream_is_deterministic():
    G = build_generator_set("leech")
    l1, p1 = G.streamed(123457)
    l2, p2 = G.streamed(123457)
    assert l1 == l2
    assert p1.factors == p2.factors
    with pytest.raises(IndexError):
        G.streamed(len(G))


def test_restriction_identity_section_is_noop():
    G = build_generator_set("icosahedron")
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    R = restrict_to_section(G, SectionMap(identity))
    for (l1, p), (l2, q) in zip(G.items, R.items):
        assert l1 == l2
        assert as_sparse(p) == as_sparse(q)


def test_streamed_set_is_not_restricted():
    G = GeneratorSet(
        build_icosahedron(), 3, [], stream_count=1, stream_factory=lambda k: ("z0", zonal((1, 0, 0), [0]))
    )
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        restrict_to_section(G, SectionMap(identity))


def test_e8_set_restricted_to_e7_section_vanishes():
    G = restrict_to_section(build_generator_set("e8"), build_e7().section)
    assert G.nvars == 7
    assert coefficient_fields(G) == {2}
    e7 = build_e7()
    rng = random.Random(11)
    for k in [0] + rng.sample(range(1, len(G.items)), 20):
        label, p = G.items[k]
        for pt in e7.points:
            assert p.eval(pt) == 0


def test_section_map_must_be_isometric():
    # to_section is the transpose of to_ambient, right only for orthonormal columns
    with pytest.raises(ConstructionError):
        SectionMap([[1], [2]])
    for build, shape in ((build_e7, (8, 7)), (build_e6, (8, 6))):
        S = build().section
        assert (S.ambient_dim, S.dim) == shape
        assert SectionMap(S.rows).rows == S.rows


def test_ragged_section_rows_are_refused():
    with pytest.raises(ConstructionError):
        SectionMap([[1, 0], [0]])


def test_e7_identity_witness():
    w = build_e7_identity_witness()
    assert w.difference.is_zero()
    assert w.lhs.degree() == 5
    amb = build_e7().ambient_points
    for b in w.b_vectors:
        assert b[6] - b[7] == 1
        assert dot(b, b) == 2
    for cub in w.cubics:
        for pt in amb:
            assert cub.eval(pt) == 0


def test_generator_export_roundtrip(tmp_path):
    G = build_generator_set("icosahedron")
    path = tmp_path / "ico_gens.txt"
    write_generators(G, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generator set icosahedron")
    body = [l for l in lines[1:] if not l.startswith("#")]
    labels = [l for l in lines[1:] if l.startswith("#")]
    assert len(body) == 13 and len(labels) == 13
    f = poly_from_text(body[1], 3)
    assert f == as_sparse(G.items[1][1])


def test_unknown_configuration_name():
    with pytest.raises(ValueError):
        build_generator_set("dodecahedron")


def test_e6_set_builds_at_most_three_configurations(monkeypatch):
    # e8 twice (for the e6 shell and the e7 cubics) and e6 itself
    built = []
    init = SphericalConfiguration.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["name"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SphericalConfiguration, "__init__", counting_init)
    G = build_generator_set("e6")
    assert len(built) <= 3 and "e7" not in built
    assert (G.config.name, G.nvars, G.config.field_d) == ("e6", 6, 3)
