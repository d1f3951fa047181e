"""Lattice basis extraction, unimodularity, and short-vector enumeration."""

import itertools
import math
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from idealforge import configs, lattice
from idealforge.configs import SphericalConfiguration, build_e8, build_knn, build_leech
from idealforge.exact import ConstructionError, HnfAccumulator, Matrix, det, dot, ldlt, stride_order
from idealforge.lattice import (
    LatticeBasis,
    RankDeficientError,
    _lll,
    basis_from_generators,
    enumerate_short_vectors,
    unimodularity_check,
)


@pytest.fixture(scope="module")
def e8_basis():
    return basis_from_generators(build_e8())


@pytest.fixture(scope="module")
def leech_basis():
    return basis_from_generators(build_leech())


def brute_force_norms(rows, bound, box):
    m = len(rows)
    found = set()

    def rec(level, coeffs):
        if level == m:
            v = tuple(
                sum(coeffs[j] * rows[j][k] for j in range(m)) for k in range(m)
            )
            n2 = sum(c * c for c in v)
            if 0 < n2 <= bound:
                found.add(v)
            return
        for c in range(-box, box + 1):
            rec(level + 1, coeffs + [c])

    rec(0, [])
    return found


def test_z2_enumeration():
    B = LatticeBasis([(1, 0), (0, 1)], scale=1)
    res = enumerate_short_vectors(B, 2)
    assert res.count == 8
    assert set(res.vectors) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
    }
    assert enumerate_short_vectors(B, 0).count == 0
    assert enumerate_short_vectors(B, Fraction(99, 100)).count == 0
    assert enumerate_short_vectors(B, 1).count == 4


def test_skewed_z2_same_counts():
    # (1,50),(1,51) is another basis of Z^2, so counts must agree with identity
    B = LatticeBasis([(1, 50), (1, 51)], scale=1)
    res = enumerate_short_vectors(B, 2)
    assert res.count == 8
    assert set(res.vectors) == set(
        enumerate_short_vectors(LatticeBasis([(1, 0), (0, 1)], scale=1), 2).vectors
    )
    assert unimodularity_check(B).unimodular


def test_enumeration_against_brute_force():
    rows = [(2, 0, 1), (1, 2, 0), (0, 1, 3)]
    B = LatticeBasis(rows, scale=1)
    for bound in (5, 9, 14, 20):
        res = enumerate_short_vectors(B, bound)
        expected = brute_force_norms(rows, bound, box=6)
        assert res.count == len(expected)
        assert set(res.vectors) == expected


def test_unimodularity_report_failure():
    B = LatticeBasis([(2, 0), (0, 1)], scale=1, name="stretched")
    rep = unimodularity_check(B)
    assert rep.det_gram == 4
    assert rep.expected == 1
    assert not rep.unimodular
    assert "stretched" in repr(rep)


def test_rank_deficient_generators():
    # the embedded bipartite points span only 2n-2 of the 2n coordinates
    with pytest.raises(RankDeficientError):
        basis_from_generators(build_knn(3))


def test_e8_basis_is_unimodular(e8_basis):
    B = e8_basis
    assert B.coord_den == 2
    assert B.scale == 4
    assert B.det_gram() == 4**8
    assert unimodularity_check(B).unimodular
    assert abs(int(det(Matrix([list(r) for r in B.rows])))) == 2**8


def test_e8_enumeration_recovers_roots(e8_basis):
    cfg = build_e8()
    res = enumerate_short_vectors(e8_basis, 2)
    assert res.count == 240
    assert {tuple(Fraction(c, res.coord_den) for c in v) for v in res.vectors} == set(cfg.points)


def test_leech_basis_determinant(leech_basis):
    B = leech_basis
    assert B.scale == 8
    assert B.coord_den == 1
    assert B.det_gram() == 8**24
    assert unimodularity_check(B).unimodular


def _gram(rows):
    return Matrix([[sum(a * b for a, b in zip(r, t)) for t in rows] for r in rows])


def _hnf(rows):
    acc = HnfAccumulator(len(rows[0]))
    for r in rows:
        acc.add_row(r)
    return acc.normalized_rows()


def _check_integral_lll(rows):
    """_lll against Fractions: its (d, lam) is ldlt of the reduced Gram, the
    basis is size-reduced and Lovasz at 99/100, and spans the same lattice."""
    reduced, d, lam = _lll(rows)
    n = len(rows)
    L, D = ldlt(_gram(reduced))
    assert d[0] == 1
    for i in range(n):
        assert D[i] == Fraction(d[i + 1], d[i])
        for j in range(i):
            assert L[i, j] == Fraction(lam[i][j], d[j + 1])
            assert abs(L[i, j]) <= Fraction(1, 2)
        if i:
            assert D[i] >= (Fraction(99, 100) - L[i, i - 1] ** 2) * D[i - 1]
    assert _hnf(reduced) == _hnf(rows)


def _exponent(P):
    """(g, e): the gcd of det(P) and its adjugate's entries, and det(P) / g."""
    dval = int(np.prod([P[i][i] for i in range(len(P))]))
    g = math.gcd(dval, *(v for row in lattice._triangular_adjugate(P, dval) for v in row))
    return g, dval // g


def _membership_agrees(P, rows):
    """_outside(P, rows) against HnfAccumulator.contains; returns the mask."""
    acc = HnfAccumulator(len(P))
    for r in P:
        acc.add_row(r)
    mask = lattice._outside(P, np.array(rows, dtype=np.int64))
    assert mask.tolist() == [not acc.contains([int(x) for x in r]) for r in rows]
    return mask


def test_membership_on_int8_rows_matches_int64(leech_basis):
    # the Leech points are int8; the same rows as an int64 copy, with some
    # moved off the lattice by +-1 in one coordinate, give the same mask
    rows = build_leech().integer_array()[0][::97].copy()
    rows[::5, 3] += 1
    rows[1::7, 0] -= 1
    P = [list(r) for r in leech_basis.rows]
    mask = lattice._outside(P, rows)
    assert rows.dtype == np.int8 and mask.any() and not mask.all()
    assert np.array_equal(mask, lattice._outside(P, rows.astype(np.int64)))


def _record_contains(monkeypatch):
    """Make ``HnfAccumulator.contains`` record its calls; returns the record."""
    calls = []
    monkeypatch.setattr(HnfAccumulator, "contains", lambda self, row: calls.append(row))
    return calls


@pytest.mark.parametrize("build", [build_e8, build_leech])
def test_membership_pass_never_takes_the_exact_fallback(build, monkeypatch):
    # the build's membership passes (basis and value-set proof) and a pass
    # over every point against the proof's basis all stay in the kernel: an
    # OverflowError from % on a narrow product would send every row to
    # HnfAccumulator.contains, silently
    calls = _record_contains(monkeypatch)
    X = build()
    arr, _ = X.integer_array()
    assert not X.lattice.outside(arr).any()
    assert calls == []


@pytest.mark.parametrize("e", [256, 1000])
def test_membership_modulus_wider_than_the_product_dtype(e, monkeypatch):
    # Z + eZ-cosets of diag(1, e): the product bound of small rows fits
    # int8, which holds neither e nor e - 1, so the residue step is skipped
    # (every entry is below e in magnitude) and no row takes the fallback
    P = [[1, 0], [0, e]]
    rows = [[3, 0], [0, 5], [-7, -3], [2, 0], [1, 1], [0, 0]]
    expected = [False, True, True, False, True, False]
    calls = _record_contains(monkeypatch)
    mask = lattice._outside(P, np.array(rows, dtype=np.int8))
    assert mask.tolist() == expected and calls == []
    monkeypatch.undo()
    assert _membership_agrees(P, rows).tolist() == expected
    # rows that reach e go through the residue in a dtype that holds it
    wide = [[0, e], [0, -e], [0, e + 1], [5, 2 * e]]
    assert _membership_agrees(P, wide).tolist() == [False, False, True, False]


def test_membership_modulo_the_exponent_matches_hnf_contains():
    rng = np.random.default_rng(23)
    # diag(6, 6, 6): g = 36 and the exponent 6 is no power of 2
    forms = [[[6, 0, 0], [0, 6, 0], [0, 0, 6]], [[3, 1, 2], [0, 9, 4], [0, 0, 5]]]
    for _ in range(40):
        m = int(rng.integers(1, 6))
        diag = [int(d) for d in rng.choice([1, 2, 3, 5, 6, 9, 12], size=m)]
        forms.append([
            [diag[i] if j == i else int(rng.integers(0, diag[j])) if j > i else 0 for j in range(m)]
            for i in range(m)
        ])
    seen = set()
    for P in forms:
        m = len(P)
        inside = rng.integers(-3, 4, size=(20, m)) @ np.array(P)
        noise = rng.integers(-20, 21, size=(20, m))
        mask = _membership_agrees(P, np.vstack([inside, noise]))
        assert not mask[:20].any()
        g, e = _exponent(P)
        seen.add((g > 1, e & (e - 1) != 0, bool(mask.any())))
    assert (True, True, True) in seen

    # the first pass of basis_from_generators on E8: a sublattice not yet
    # closed, so some points fall outside it
    arr, _ = build_e8().integer_array()
    acc = HnfAccumulator(8)
    for i in stride_order(len(arr)):
        acc.add_row(arr[i].tolist())
        if len(acc.pivot_rows) == 8:
            break
    assert _membership_agrees(acc.normalized_rows(), arr).sum() == 176

    # p^2 - 1 with p = 2^31 + 11 puts the product bound past int64: the
    # exact fallback decides
    p = 2**31 + 11
    P = [[p, 1], [0, p]]
    assert _exponent(P) == (1, p * p)
    assert _membership_agrees(P, [[p, 1], [0, p], [1, 0], [p, p + 1], [2 * p, 3]]).tolist() == [
        False, False, True, False, True
    ]


def test_integral_lll_on_e8_and_leech(e8_basis, leech_basis):
    _check_integral_lll(e8_basis.rows)
    _check_integral_lll(leech_basis.rows)


def _square_bases(st, n, top):
    return st.lists(
        st.lists(st.integers(-top, top), min_size=n, max_size=n), min_size=n, max_size=n
    ).filter(lambda rows: det(Matrix(rows)) != 0)


def test_integral_lll_on_random_bases():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.integers(1, 6).flatmap(lambda n: _square_bases(st, n, 40)))
    def check(rows):
        _check_integral_lll(rows)

    check()


def test_random_3x3_enumeration_against_brute_force():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(_square_bases(st, 3, 5), st.integers(0, 40))
    def check(rows, bound):
        # |x_i| <= sqrt(bound (G^-1)_ii), and (G^-1)_ii is a principal 2x2 minor over det G
        G = _gram(rows).rows
        dg = det(Matrix(G))
        minors = [
            det(Matrix([[G[a][b] for b in range(3) if b != i] for a in range(3) if a != i]))
            for i in range(3)
        ]
        box = max(isqrt(bound * mi // dg) for mi in minors)
        hyp.assume(box <= 10)
        res = enumerate_short_vectors(LatticeBasis(rows, scale=1), bound)
        expected = brute_force_norms(rows, bound, box)
        assert res.count == len(expected)
        assert set(res.vectors) == expected

    check()


def test_singular_basis_raises():
    for rows in ([(1, 2), (2, 4)], [(1, 0, 1), (0, 1, 1), (1, 1, 2)]):
        with pytest.raises(ValueError):
            enumerate_short_vectors(LatticeBasis(rows, scale=1), 4)


# ---------------------------------------------------------------------------
# the value-set proof
# ---------------------------------------------------------------------------


def test_value_set_proofs_of_e8_and_leech():
    for build, norm, values, nodes, det_gram in (
        (build_e8, 2, (1, 0, -1), 8, 4**8),
        (build_leech, 4, (16, 8, 0, -8, -16), 15223, 8**24),
    ):
        cfg = build()
        proof = cfg.lattice
        assert (proof.norm, proof.values, proof.search_nodes) == (norm, values, nodes)
        assert cfg.omegas == [cfg.r2, *values, -cfg.r2]
        assert proof.basis.det_gram() == det_gram
        arr = cfg.integer_array()[0]
        assert not proof.outside(arr).any()
        assert np.array_equal(proof.points, arr)
        assert not proof.points.flags.writeable
        if build is build_e8:
            # e8's points are int64 exact rows: the proof holds an int8 copy
            assert not np.shares_memory(proof.points, arr)
        else:
            # Leech's are int8 from the build: the proof keeps that array,
            # so no write to the configuration's points can leave it
            assert proof.points is arr
            with pytest.raises(ValueError):
                arr[0, 0] = 0


def test_leech_basis_takes_one_membership_pass(monkeypatch):
    calls = []
    outside = lattice._outside

    def counting(P, rows):
        calls.append(rows.shape[0])
        return outside(P, rows)

    monkeypatch.setattr(lattice, "_outside", counting)
    assert build_leech().lattice.basis.det_gram() == 8**24
    assert calls == [196560]


def _corrupted_leech(monkeypatch, corrupt):
    """build_leech with its point array changed before the configuration is declared."""
    declare = configs.SphericalConfiguration

    def corrupting(*args, array=None, **kwargs):
        if array is not None:
            array = array.copy()
            corrupt(array)
        return declare(*args, array=array, **kwargs)

    monkeypatch.setattr(configs, "SphericalConfiguration", corrupting)
    return build_leech()


LEECH_HALF = 98280  # Leech row i + LEECH_HALF is -(row i)


def _set_pair(a, i, row):
    """Leech row i set to ``row`` and row i + LEECH_HALF to its negation, so the layout holds."""
    a[i], a[i + LEECH_HALF] = row, -np.asarray(row)


CORRUPTIONS = {
    # norm 32 and distinct, but outside the lattice: the lattice the points
    # span is no longer integral (Gram / 8)
    "integral": lambda a: _set_pair(a, 5, [4, 2, 2, 2, 2] + [0] * 19),
    "norm": lambda a: a.__setitem__(5, 2 * a[5]),
    "distinct": lambda a: _set_pair(a, 5, a[6]),
    # the same point set, two negations swapped: row 5 + LEECH_HALF is -(row 6)
    "antipodal": lambda a: a.__setitem__(
        [LEECH_HALF + 5, LEECH_HALF + 6], a[[LEECH_HALF + 6, LEECH_HALF + 5]]
    ),
}


@pytest.mark.parametrize("premise", sorted(CORRUPTIONS))
def test_corrupted_leech_build_names_the_failed_premise(premise, monkeypatch):
    with pytest.raises(ConstructionError, match=f"premise '{premise}' fails"):
        _corrupted_leech(monkeypatch, CORRUPTIONS[premise])


def test_distinct_premise_compares_rows_whose_keys_collide(monkeypatch):
    # every row given the same key: the premise falls back to comparing the
    # rows exactly, so the distinct Leech points still pass and a copied row
    # still fails
    shared = []

    def one_key(rows):
        shared.append(rows.shape[0])
        return np.zeros(rows.shape[0], dtype=np.int64)

    monkeypatch.setattr(lattice, "_row_keys", one_key)
    assert build_leech().lattice.norm == 4
    assert shared == [196560, 196560]
    with pytest.raises(ConstructionError, match="value-set premise 'distinct' fails"):
        _corrupted_leech(monkeypatch, CORRUPTIONS["distinct"])


def test_broken_pair_layout_fails_the_antipodal_premise():
    # e8 with two negations swapped keeps its point set, but row 120 is no
    # longer -(row 0); 239 points cannot pair at all
    pts = build_e8().points
    swapped = pts[:120] + [pts[121], pts[120]] + pts[122:]
    for points, premise in (
        (swapped, r"point 120 is not -\(point 0\)"),
        (pts[:-1], "239 points, an odd count"),
    ):
        with pytest.raises(ConstructionError, match=f"premise 'antipodal' fails: {premise}"):
            SphericalConfiguration("e8", 2, points=points, lattice_scale=1)


def test_odd_lattice_fails_the_evenness_premise():
    # D12+: the half-integer vectors (+-1/2)^12 with an even number of minus
    # signs span an odd integral lattice of minimum 2, one below their norm
    # 3.  The search below the minimum (norm <= 1) finds nothing, yet two
    # points differing in two signs have inner product 2 > 3/2: only the
    # evenness premise keeps the proof from claiming the values 0, +-1
    # 3.  The points come one of each pair +-x first, then the negations
    half = Fraction(1, 2)
    pts = configs._with_negations([
        tuple(half * s for s in signs)
        for signs in itertools.product((1,), *[(1, -1)] * 11)
        if signs.count(-1) % 2 == 0
    ])
    assert dot(pts[0], pts[3]) == 2
    with pytest.raises(ConstructionError, match="premise 'even' fails"):
        SphericalConfiguration("d12+", 3, points=pts, lattice_scale=1)


def test_short_lattice_vector_fails_the_minimum_premise():
    # (+-3, +-1) and (+-1, +-3) span the even lattice x1 = x2 mod 2, which
    # holds (1, 1) of norm 2 below their norm 10
    pts = configs._with_negations([(x, b * y) for x, y in ((3, 1), (1, 3)) for b in (1, -1)])
    with pytest.raises(ConstructionError, match="premise 'minimum' fails: 12 nonzero"):
        SphericalConfiguration("octagon", 10, points=pts, lattice_scale=1)


def test_configuration_without_a_lattice_scale_has_no_proof():
    assert build_knn(3).lattice is None
    assert configs.build_e7().lattice is None
