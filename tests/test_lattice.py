"""Lattice basis extraction, unimodularity, and short-vector enumeration."""

from fractions import Fraction
from math import isqrt

import pytest

from idealforge.configs import build_e8, build_knn, build_leech
from idealforge.exact import HnfAccumulator, Matrix, det, ldlt
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
    assert set(res.config_points()) == set(cfg.points)


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
