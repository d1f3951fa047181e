"""Construction counts, inner-product closure, and file round-trips."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from idealforge import configs
from idealforge.exact import (
    ENTRIES,
    ConstructionError,
    Matrix,
    Quad,
    QuadArray,
    dot,
    int_product,
    parse_scalar,
    quad_key,
    rank,
    scalar_to_text,
)
from idealforge.configs import (
    DEFAULT_SAMPLE,
    PHI,
    _pair_counts,
    _pair_exact,
    SphericalConfiguration,
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_golay,
    build_icosahedron,
    build_knn,
    build_leech,
    build_ngon,
    e7_defining_vectors,
    pair_distribution,
    read_points,
    write_points,
)
from idealforge.generators import FAMILIES, GeneratorSet
from idealforge.sampling import sample_indices, splitmix64


@pytest.fixture(scope="module")
def leech():
    return build_leech()


@pytest.fixture(scope="module")
def e8():
    return build_e8()


def test_golay_weight_distribution():
    code = build_golay()
    assert code.length == 24
    assert code.dimension == 12
    assert len(code.codewords) == 4096
    assert code.weight_distribution == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert code.min_weight() == 8
    assert code.is_self_dual()


def test_golay_membership():
    code = build_golay()
    w1, w2 = code.codewords[5], code.codewords[900]
    assert code.contains(w1 ^ w2)
    assert not code.contains(1)  # a single bit has weight 1 < 8
    assert code.contains(0)


def test_icosahedron_points_and_products():
    ico = build_icosahedron()
    assert ico.npoints == 12
    assert ico.r2 == 2 + PHI
    a = (1, PHI, 0)
    b = (0, 1, PHI)
    assert a in ico.points and b in ico.points
    assert dot(a, b) == PHI
    # normalized inner products are ±1 and ±1/sqrt(5)
    inv_sqrt5 = Quad(0, Fraction(1, 5), 5)
    assert PHI / ico.r2 == inv_sqrt5


@pytest.mark.parametrize("build", [build_icosahedron, lambda: build_4cube()[0]])
def test_antipodal_sets_without_a_lattice_proof_list_each_pair_apart(build):
    # no value-set proof checks these two; their generator families read the
    # representatives off the first half, so point i + n/2 must be -(point i)
    cfg = build()
    h = cfg.npoints // 2
    assert cfg.lattice is None and cfg.npoints == 2 * h
    assert cfg.points[h:] == [tuple(-c for c in p) for p in cfg.points[:h]]
    assert len(set(cfg.points[:h])) == h


def _ngon_values(n):
    pts = build_ngon(n).points
    return [1] + sorted({dot(p, q) for p, q in itertools.combinations(pts, 2)}, reverse=True)


# the dimension and the value list each builder declared before both were
# read off the points or the lattice proof
DECLARED = {
    ("icosahedron", None): (3, lambda: [2 + PHI, PHI, -PHI, -2 - PHI]),
    ("e6", None): (6, lambda: [2, 1, 0, -1, -2]),
    ("e7", None): (7, lambda: [2, 1, 0, -1, -2]),
    ("e8", None): (8, lambda: [2, 1, 0, -1, -2]),
    ("leech", None): (24, lambda: [32, 16, 8, 0, -8, -16, -32]),
    ("cube4", None): (4, lambda: [4, 2, 0, -2, -4]),
    **{("ngon", n): (2, lambda n=n: _ngon_values(n)) for n in (4, 6, 8)},
    **{
        ("knn", n): (2 * n, lambda n=n: [2 - Fraction(2, n), 0, -Fraction(2, n)])
        for n in (2, 3, 4)
    },
}


@pytest.mark.parametrize("name, n", list(DECLARED))
def test_values_and_dimension_are_read_off_as_the_builders_declared_them(name, n):
    cfg = FAMILIES[name].config(n)
    m, values = DECLARED[name, n]
    assert cfg.m == m
    assert cfg.omegas == values()
    rational = [w for w in cfg.omegas if not isinstance(w, Quad)]
    assert all(type(w) is int for w in rational if Fraction(w).denominator == 1)


def test_values_and_dimension_are_no_constructor_options():
    pts = [(1, 0), (-1, 0)]
    for option in ({"m": 2}, {"omegas": [1, -1]}):
        with pytest.raises(TypeError):
            SphericalConfiguration("pair", 1, points=pts, **option)
    with pytest.raises(TypeError):
        GeneratorSet("pair", 2, 1, [], interior_roots=(0,))


def test_pair_distribution_refuses_inexact_numpy_products():
    # more than 2000 points with squared coordinates near 2**62: the int64
    # product of such rows leaves its exact range, the float64 one rounds
    a = 2**31 + 1
    pts = [(a, 0), (-a, 0), (0, a), (0, -a)] * 520
    X = SphericalConfiguration("wide", a * a, points=pts)
    for mode in ("sampled", "full"):
        with pytest.raises(ArithmeticError, match="exact"):
            pair_distribution(X, mode=mode)


def test_sampled_pair_distribution_names_a_point_past_the_first_block(leech):
    # the sampled rows against every point, as the sampled pass forms them,
    # over the Leech values; the moved point lies in the fourth point block
    arr = leech.integer_array()[0].copy()
    bad = 3 * (ENTRIES // DEFAULT_SAMPLE) + 5
    arr[bad, 0] += 1
    pts = QuadArray(arr, None, 1, None)
    base = sample_indices(configs.DEFAULT_SEED, DEFAULT_SAMPLE, leech.npoints)
    keys = [quad_key(w, 1, None) for w in leech.omegas]
    counts, witness = _pair_counts(pts.take(base), pts, keys)
    first = next(k for k, i in enumerate(base) if arr[i, 0] != 0)
    assert witness == (first, bad, (dot(arr[base[first]].tolist(), arr[bad].tolist()), 0))
    assert (counts.sum(axis=1) < leech.npoints).tolist() == [bool(arr[i, 0]) for i in base]


def test_sampled_pair_distribution_peaks_below_one_copy_of_the_points(leech):
    # each point block forms at most ENTRIES product entries, and holds its
    # float32 product beside an int16 result (the Leech bound is 384), so
    # the pass holds less than half the 196,560 x 24 int8 points (4.7 MB)
    tracemalloc.start()
    try:
        assert pair_distribution(leech, mode="sampled").closure_ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak < 196560 * 12, peak


def test_sampled_pair_distribution_multiplies_in_point_blocks(leech, monkeypatch):
    widths = []

    def recording(A, B):
        widths.append(B.shape[1])
        return int_product(A, B)

    monkeypatch.setattr(configs, "int_product", recording)
    pd = pair_distribution(leech, mode="sampled")
    assert pd.closure_ok
    assert sum(widths) == leech.npoints and max(widths) < leech.npoints


def test_pair_distribution_derives_values_without_a_declared_list():
    # a point set without a lattice proof reads its values off the products
    # of every pair of points, here more than 2000 integer points
    g = np.stack(np.meshgrid(*[np.arange(-14, 15)] * 4, indexing="ij"), -1).reshape(-1, 4)
    pts = [tuple(int(v) for v in p) for p in g[(g * g).sum(axis=1) == 210]]
    assert len(pts) == 4608
    X = SphericalConfiguration("z4shell", 210, points=pts)
    pd = pair_distribution(X, mode="sampled")
    assert pd.closure_ok and pd.omegas == X.omegas and len(X.omegas) == 415
    assert X.omegas[0] == 210 and X.omegas[1:] == sorted(X.omegas[1:], reverse=True)
    # the exact oracle reads its own values off the same rows
    exact = _pair_exact(X, pd.base_indices, "sampled")
    assert set(exact.omegas) <= set(X.omegas)
    for row, oracle in zip(pd.counts, exact.counts):
        seen = {w: int(c) for w, c in zip(pd.omegas, row) if c}
        assert seen == {w: int(c) for w, c in zip(exact.omegas, oracle) if c}


@pytest.mark.parametrize("name", ["icosahedron", "e6", "e7", "knn"])
def test_pair_distribution_agrees_with_the_exact_oracle(name):
    builders = {"icosahedron": build_icosahedron, "e6": build_e6, "e7": build_e7,
                "knn": lambda: build_knn(3)}
    X = builders[name]()
    pts = list(X.points)
    pts[3] = tuple(pts[3][::-1])  # a moved point brings values of its own
    # both derive their values: numpy over every pair, the oracle by dot
    for points in (X.points, pts):
        Z = SphericalConfiguration(name, X.r2, points=points)
        pd = pair_distribution(Z)
        exact = _pair_exact(Z, pd.base_indices, "full")
        assert pd.omegas == Z.omegas == exact.omegas
        assert pd.counts.tolist() == exact.counts.tolist()
        assert pd.closure_ok and pd.witness is None
    assert Z.omegas != X.omegas


@pytest.mark.parametrize("edge", [127, 128])
def test_pair_counts_compare_on_int8_only_inside_its_range(edge):
    # products -128 and `edge`: with edge = 128 the block leaves the int8
    # range, where a cast would turn 128 into -128; keys outside the
    # block's range match nothing
    rows = QuadArray(np.array([[1], [0]]), None, 1, None)
    pts = QuadArray(np.array([[-128], [edge], [3]]), None, 1, None)
    keys = [(edge, 0), (3, 0), (-128, 0), (0, 0), (-256, 0), (999, 0), None]
    counts, witness = _pair_counts(rows, pts, keys)
    assert counts.tolist() == [[1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 3, 0, 0, 0]]
    assert witness is None
    counts, witness = _pair_counts(rows, pts, keys[1:])
    assert counts.tolist() == [[1, 1, 0, 0, 0, 0], [0, 0, 3, 0, 0, 0]]
    assert witness == (0, 1, (edge, 0))


@pytest.mark.parametrize("build", [build_e8, build_icosahedron])
def test_pair_counts_are_the_same_at_every_block_budget(build, monkeypatch):
    # one point moved off the shell: budgets down to one point a block give
    # the same histogram and name the same first stray pair
    X = build()
    pts = X.quad_array()
    A = pts.A.copy()
    A[7, 0] += 1
    pts = QuadArray(A, pts.B, pts.den, pts.d)
    rows = pts.take(list(range(0, X.npoints, 3)))
    keys = [quad_key(w, pts.den * pts.den, pts.d) for w in X.omegas]
    counts, witness = _pair_counts(rows, pts, keys)
    assert witness is not None and witness[1] == 7
    for budget in (1, 7 * len(rows), 100, 2**30):
        monkeypatch.setattr("idealforge.exact.ENTRIES", budget)
        again = _pair_counts(rows, pts, keys)
        assert again[0].tolist() == counts.tolist() and again[1] == witness


def test_full_pair_distribution_reports_progress(e8):
    seen = []
    pd = pair_distribution(e8, mode="full", progress=seen.append)
    assert pd.closure_ok
    assert seen == ["pair pass 128/240 base points", "pair pass 240/240 base points"]
    assert pair_distribution(e8, mode="sampled", progress=seen.append).closure_ok
    assert len(seen) == 2


def test_icosahedron_pair_distribution():
    ico = build_icosahedron()
    pd = pair_distribution(ico, mode="full")
    assert pd.closure_ok
    assert (pd.counts == pd.counts[0]).all()
    assert list(pd.counts[0]) == [1, 5, 5, 1]


def test_e8_counts_and_histogram(e8):
    assert e8.npoints == 240
    halves = [p for p in e8.points if isinstance(p[0], Fraction)]
    assert len(halves) == 128
    point_set = set(e8.points)
    assert all(tuple(-c for c in p) in point_set for p in e8.points)
    pd = pair_distribution(e8, mode="full")
    assert pd.closure_ok
    assert (pd.counts == pd.counts[0]).all()
    assert list(pd.counts[0]) == [1, 56, 126, 56, 1]


def test_e7_section(e8):
    e7 = build_e7()
    assert e7.npoints == 126
    assert e7.m == 7
    assert len(e7.ambient_points) == 126
    # the section coordinates are isometric to the ambient ones
    for i in (0, 17, 63, 125):
        for j in (1, 40, 88):
            assert dot(e7.points[i], e7.points[j]) == dot(
                e7.ambient_points[i], e7.ambient_points[j]
            )
    pd = pair_distribution(e7, mode="full")
    assert pd.closure_ok
    assert (pd.counts == pd.counts[0]).all()
    assert int(pd.counts[0].sum()) == 126


def test_e6_section():
    e6 = build_e6()
    assert e6.npoints == 72
    assert e6.m == 6
    for i in (0, 31, 71):
        for j in (2, 50):
            assert dot(e6.points[i], e6.points[j]) == dot(
                e6.ambient_points[i], e6.ambient_points[j]
            )
    pd = pair_distribution(e6, mode="full")
    assert pd.closure_ok
    assert (pd.counts == pd.counts[0]).all()
    assert int(pd.counts[0].sum()) == 72


def test_e7_defining_vector_count():
    bs = e7_defining_vectors()
    assert len(bs) == 56
    assert all(b[6] - b[7] == 1 for b in bs)


def test_leech_counts(leech):
    assert leech.npoints == 196560
    assert leech.type_counts == (97152, 98304, 1104)
    arr, den = leech.integer_array()
    assert den == 1
    assert np.all((arr * arr).sum(axis=1) == 32)


def test_leech_build_holds_no_int64_copy_of_the_points():
    # one int64 copy of the 196,560 x 24 points is 37.7 MB; the build holds
    # them as int8 from the first row on, writes each shape into the one
    # array, which the proof keeps as its points, and runs its whole-set
    # passes in row blocks: it peaks below two int8 copies, the array and
    # the blocks
    two_int8_copies = 2 * 196560 * 24
    tracemalloc.start()
    try:
        cfg = build_leech()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < two_int8_copies, peak
    reps = cfg.lattice.reps
    assert cfg.integer_array()[0].dtype == np.int8 and reps.dtype == np.int8
    assert not reps.flags.writeable and reps.nbytes == 98280 * 24


def test_leech_type2_rows_are_closed_under_negation(leech):
    # the code holds each codeword's complement, so a global sign flip gives
    # the same type-2 rows: the codewords with bit 0 clear give one row of
    # each pair +-x, and their negations in the second half are the rest
    codewords = build_golay().codewords
    rows = configs._leech_type2(codewords)
    assert np.array_equal(np.unique(rows, axis=0), np.unique(-rows, axis=0))
    arr, h = leech.integer_array()[0], leech.npoints // 2
    n1, n2, _ = (n // 2 for n in leech.type_counts)
    reps = arr[n1 : n1 + n2]
    assert np.array_equal(reps, configs._leech_type2([w for w in codewords if not w & 1]))
    assert np.array_equal(arr[h + n1 : h + n1 + n2], -reps)
    assert np.array_equal(np.unique(np.vstack([reps, -reps]), axis=0), np.unique(rows, axis=0))


def test_leech_build_refuses_type2_rows_off_the_mod8_rule(monkeypatch):
    # -3 s_i -> 3 s_i keeps every norm at 32 but breaks the mod-8 rule on
    # the fixed type-1 rows the build checks against
    good = configs._leech_type2

    def wrong(codewords):
        rows = good(codewords)
        diag = np.arange(24)
        rows.reshape(len(codewords), 24, 24)[:, diag, diag] *= -1
        return rows

    monkeypatch.setattr(configs, "_leech_type2", wrong)
    with pytest.raises(ConstructionError, match="mod-8"):
        build_leech()


def test_leech_sampled_histogram(leech):
    pd = pair_distribution(leech, mode="sampled", seed=0xC0DE)
    assert pd.closure_ok
    assert (pd.counts == pd.counts[0]).all()
    assert list(pd.counts[0]) == [1, 4600, 47104, 93150, 47104, 4600, 1]
    assert int(pd.counts[0].sum()) == 196560


def test_leech_antipodal_on_sample(leech):
    arr, _ = leech.integer_array()
    for i in sample_indices(7, 20, arr.shape[0]):
        hits = np.where((arr == -arr[i]).all(axis=1))[0]
        assert hits.size == 1


def test_ngon_basics():
    g4 = build_ngon(4)
    assert g4.npoints == 4
    assert all(dot(p, p) == 1 for p in g4.points)
    g6 = build_ngon(6, [0, 1, -1, 2, -2, 3])
    assert g6.npoints == 6
    assert len(set(g6.points)) == 6
    with pytest.raises(ValueError):
        build_ngon(4, [0, 1, 1, 2])
    with pytest.raises(ValueError):
        build_ngon(5)
    pd = pair_distribution(g6, mode="full")
    assert pd.closure_ok


def test_cube_and_24cell():
    cube, cell24 = build_4cube()
    assert cube.npoints == 16
    assert len(cell24) == 24
    assert len(set(cell24)) == 24
    pd = pair_distribution(cube, mode="full")
    assert pd.closure_ok
    values = set()
    for a in cube.points:
        for b in cube.points:
            values.add(dot(a, b))
    assert values == {4, 2, 0, -2, -4}
    # every 24-cell vertex hits only roots of the cube zonal polynomials
    for a in cube.points:
        for y in cell24:
            assert dot(a, y) in (2, 0, -2)


def test_knn_inner_products():
    for n in range(2, 7):
        knn = build_knn(n)
        assert knn.npoints == 2 * n
        assert knn.embedded
        r2 = 2 - Fraction(2, n)
        assert knn.r2 == r2
        values = set()
        for p, q in itertools.combinations(knn.points, 2):
            values.add(dot(p, q))
        assert values == {Fraction(0), -Fraction(2, n)}
        for form in knn.trivial_linear:
            for p in knn.points:
                assert dot(form, p) == 0
        point_rank = rank(Matrix([list(p) for p in knn.points]))
        assert point_rank == 2 * n - 2
    assert set(pair_distribution(build_knn(2), mode="full").omegas) == {
        Fraction(1),
        Fraction(0),
        Fraction(-1),
    }


def test_point_file_roundtrip(tmp_path):
    ico = build_icosahedron()
    path = tmp_path / "ico.pts"
    write_points(ico, str(path))
    back = read_points(str(path), name="icosahedron")
    assert back.m == 3
    assert back.omegas == ico.omegas
    assert back.r2 == ico.r2
    assert back.field_d == 5
    assert back.points == ico.points

    knn = build_knn(3)
    path2 = tmp_path / "knn.pts"
    write_points(knn, str(path2))
    back2 = read_points(str(path2))
    assert back2.points == knn.points
    assert back2.field_d is None

    bad = tmp_path / "bad.pts"
    bad.write_text("dim 3 r2 1 field Q\n")
    with pytest.raises(ValueError):
        read_points(str(bad))


def test_point_file_reads_integer_fraction_and_sqrt_tokens_as_parse_scalar(tmp_path):
    # plain integers skip parse_scalar; every token reads as parse_scalar
    # reads it, including the forms int() alone would get wrong
    lines = ["3 -2 +7", "007 1/2 -3/4", "1/2+3/2*sqrt(5) sqrt(5) -0", "\u0663 -sqrt(5) 12/4"]
    path = tmp_path / "mixed.pts"
    path.write_text("dim 3 norm 1 field Q(sqrt 5)\n" + "\n".join(lines) + "\n")
    want = [tuple(parse_scalar(tok) for tok in line.split()) for line in lines]
    got = read_points(str(path)).points
    assert got == want
    assert [[scalar_to_text(c) for c in p] for p in got] == [[scalar_to_text(c) for c in p] for p in want]
    assert type(got[0][0]) is int and type(got[3][0]) is Fraction


@pytest.mark.parametrize("token", ["1_0", "1.5", "3/", "/4", "++3", "3x", "0x10", "sqrt(7)", "2*"])
def test_point_file_refuses_malformed_tokens_as_parse_scalar(token, tmp_path):
    with pytest.raises(ValueError) as want:
        parse_scalar(token)
    path = tmp_path / "bad.pts"
    path.write_text(f"dim 2 norm 1 field Q\n1 {token}\n")
    with pytest.raises(ValueError) as got:
        read_points(str(path))
    assert str(got.value) == str(want.value)


def test_splitmix_determinism():
    a = splitmix64(12345)
    b = splitmix64(12345)
    assert [next(a) for _ in range(10)] == [next(b) for _ in range(10)]
    idx = sample_indices(0xC0DE, 64, 196560)
    assert len(idx) == 64 == len(set(idx))
    assert all(0 <= i < 196560 for i in idx)
    assert idx == sample_indices(0xC0DE, 64, 196560)
    assert sample_indices(1, 10, 5) == [0, 1, 2, 3, 4]
