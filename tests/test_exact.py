import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from idealforge.exact import (
    RANK_PRIME,
    SQRT_MOD_P,
    SUPPORTED_D,
    FieldMismatchError,
    HnfAccumulator,
    Matrix,
    NotPositiveDefiniteError,
    Quad,
    det,
    dot,
    hnf,
    independent_rows,
    int_product,
    ldlt,
    nullspace_basis,
    parse_scalar,
    rank,
    rank_mod_p,
    scalar_to_text,
    to_mod_p,
)


def gauss_rank_oracle(rows):
    """Independent rank oracle: plain Gauss-Jordan over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def test_rank_identity_and_zero():
    assert rank(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(Matrix([[0] * 7 for _ in range(5)])) == 0


def test_rank_matches_independent_oracle():
    rng = random.Random(20240817)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[random_fraction(rng) for _ in range(nc)] for _ in range(nr)]
        assert rank(Matrix(rows)) == gauss_rank_oracle(rows)


def test_nullspace_trivial_cases():
    assert nullspace_basis(Matrix([[1, 0], [0, 1]])) == []
    basis = nullspace_basis(Matrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    assert v[0] != 0


def test_nullspace_dimension_and_membership():
    rng = random.Random(7)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        M = Matrix(rows)
        basis = nullspace_basis(M)
        assert len(basis) == nc - rank(M)
        for v in basis:
            for row in rows:
                assert dot(row, v) == 0


def test_det_small_cases():
    assert det(Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 1
    assert det(Matrix([[0, 1], [1, 0]])) == -1
    with pytest.raises(ValueError):
        det(Matrix([[1, 2, 3]]))


def test_det_matches_permutation_expansion():
    import itertools

    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= rows[i][perm[i]]
            expected += term
        assert det(Matrix(rows)) == expected


def test_ldlt_reconstructs_exactly():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # make B full rank by adding n*I dominance
        for i in range(n):
            B[i][i] += 7
        G = [[sum(B[i][k] * B[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
        L, D = ldlt(Matrix(G))
        for i in range(n):
            for j in range(n):
                val = sum(L.rows[i][k] * D[k] * L.rows[j][k] for k in range(n))
                assert val == G[i][j]
        assert all(d > 0 for d in D)


def test_ldlt_rejects_non_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        ldlt(Matrix([[-1]]))
    with pytest.raises(NotPositiveDefiniteError):
        ldlt(Matrix([[1, 2], [2, 1]]))


def test_ldlt_diagonal_passthrough():
    L, D = ldlt(Matrix([[3, 0], [0, 5]]))
    assert L.rows[1][0] == 0 and L.rows[0][0] == 1 == L.rows[1][1]
    assert D == [3, 5]


def test_hnf_identity_and_sublattice():
    I3 = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert hnf(I3) == I3
    H = hnf(Matrix([[2, 0], [0, 2], [1, 1]]))
    assert H.rows == [[1, 1], [0, 2]]
    assert det(H) == 2


def test_hnf_span_equivalence():
    rng = random.Random(41)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        H = hnf(Matrix(rows))
        fwd = HnfAccumulator(nc)
        for r in H.rows:
            fwd.add_row(r)
        for r in rows:
            assert fwd.contains(r)
        back = HnfAccumulator(nc)
        for r in rows:
            back.add_row(r)
        for r in H.rows:
            assert back.contains(r)


def test_hnf_is_canonical():
    # entries above each pivot lie in [0, pivot), so the form depends on the
    # lattice alone and not on the order the rows arrive in
    rng = random.Random(43)
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        H = hnf(Matrix(rows)).rows
        for i, r in enumerate(H):
            col = next(j for j, x in enumerate(r) if x)
            assert r[col] > 0
            assert all(0 <= above[col] < r[col] for above in H[:i]), H
        rng.shuffle(rows)
        assert hnf(Matrix(rows)).rows == H


def test_independent_rows_agrees_with_rank():
    rng = random.Random(47)
    for trial in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 5)
        if trial % 2:
            rows = [[Quad(rng.randint(-2, 2), rng.randint(-1, 1), 5) for _ in range(nc)] for _ in range(nr)]
        else:
            # low-rank integer rows: combinations of two generators
            g = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(2)]
            rows = [[rng.randint(-2, 2) * a + rng.randint(-2, 2) * b for a, b in zip(*g)] for _ in range(nr)]
        picks = independent_rows(rows, nc)
        assert len(picks) == rank(Matrix(rows))
        assert rank(Matrix([rows[i] for i in picks])) == len(picks)
        assert len(independent_rows(rows, 1)) == min(1, len(picks))
        skip = set(rng.sample(range(nr), rng.randint(0, nr)))
        kept = independent_rows(rows, nc, skip=skip)
        assert not skip & set(kept)
        rest = [r for i, r in enumerate(rows) if i not in skip]
        assert len(kept) == (rank(Matrix(rest)) if rest else 0)
    assert independent_rows([], 3) == []


def test_hnf_rejects_non_integer():
    with pytest.raises(ValueError):
        hnf(Matrix([[Fraction(1, 2)]]))


def test_quad_norm_identity_randomized():
    rng = random.Random(13)
    for _ in range(100):
        d = rng.choice([2, 3, 5])
        a, b = random_fraction(rng), random_fraction(rng)
        x = Quad(a, b, d)
        assert x * x.conjugate() == a * a - d * b * b


def test_quad_field_mixing_is_an_error():
    with pytest.raises(FieldMismatchError):
        Quad(1, 1, 2) + Quad(1, 1, 5)
    with pytest.raises(FieldMismatchError):
        Quad(0, 1, 3) * Quad(0, 1, 5)
    # rational-valued Quads can cross fields silently
    assert Quad(2, 0, 2) + Quad(3, 0, 5) == 5


def test_quad_arithmetic_and_inverse():
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1  # golden ratio identity
    assert phi * phi.inverse() == 1
    assert (1 / phi) * phi == 1
    assert phi > 1 and (-phi).sign() == -1
    r2 = Quad(0, 1, 2)
    assert r2 * r2 == 2
    assert (r2 - 1).sign() == 1 and (r2 - 2).sign() == -1


def test_scalar_text_roundtrip():
    cases = ["-3", "7/2", "1/2+3/2*sqrt(5)", "sqrt(2)", "-sqrt(3)", "0", "2-sqrt(5)"]
    for text in cases:
        val = parse_scalar(text)
        assert parse_scalar(scalar_to_text(val)) == val
    assert parse_scalar(" 1/2 + 3/2 * sqrt(5) ") == Quad(
        Fraction(1, 2), Fraction(3, 2), 5
    )
    assert parse_scalar("7/2") == Fraction(7, 2)
    with pytest.raises(ValueError):
        parse_scalar("2**3")
    with pytest.raises(ValueError):
        parse_scalar("sqrt(7)")


def test_rank_nullity_sum():
    rng = random.Random(3)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[random_fraction(rng) for _ in range(nc)] for _ in range(nr)]
        M = Matrix(rows)
        assert rank(M) + len(nullspace_basis(M)) == nc


def _bounded_factors(draw, st):
    """Integer factors with k * max|A| * max|B| within a few k*a of 2^53 or 2^63."""
    k = draw(st.integers(1, 5))
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    limit = draw(st.sampled_from([2**53, 2**63]))
    a = draw(st.integers(1, 2**20))
    b = min(max(limit // (k * a) + draw(st.integers(-2, 2)), 1), 2**63 - 1)

    def entries(rows, cols, top):
        vals = [draw(st.integers(-top, top)) for _ in range(rows * cols)]
        vals[draw(st.integers(0, rows * cols - 1))] = draw(st.sampled_from([top, -top]))
        return [vals[i * cols : (i + 1) * cols] for i in range(rows)]

    return k * a * b, entries(n, k, a), entries(k, p, b)


def test_int_product_matches_python_ints_at_the_bounds():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.data())
    def check(data):
        bound, A, B = _bounded_factors(data.draw, st)
        An, Bn = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
        if bound >= 2**63:
            with pytest.raises(ArithmeticError):
                int_product(An, Bn)
            return
        expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]
        got = int_product(An, Bn)
        assert got.dtype == np.int64 and got.tolist() == expected

    check()


def test_int_product_float_path_never_rounds():
    # 2^53 + 1 has no float64 value, so a float product would give 0 here
    A = np.array([[2**53 + 1, -(2**53)]], dtype=np.int64)
    assert int_product(A, np.array([[1], [1]])).tolist() == [[1]]
    assert int_product(np.array([[3, -4]]), np.array([5, 7])).tolist() == [-13]
    with pytest.raises(TypeError):
        int_product(np.ones((2, 2)), np.ones((2, 2)))


def test_rank_prime_constants():
    p = RANK_PRIME
    assert p < 2**20 and p % 120 == 1
    assert all(p % q for q in range(2, isqrt(p) + 1))
    assert sorted(SQRT_MOD_P) == sorted(SUPPORTED_D)
    for d, s in SQRT_MOD_P.items():
        assert s * s % p == d
        assert to_mod_p(Quad(0, 1, d)) == s


def test_to_mod_p_is_a_ring_map_and_refuses_p_denominators():
    p = RANK_PRIME
    x, y = Quad(Fraction(1, 2), 3, 5), Quad(-2, Fraction(5, 7), 5)
    assert to_mod_p(x * y) == to_mod_p(x) * to_mod_p(y) % p
    assert to_mod_p(x + y) == (to_mod_p(x) + to_mod_p(y)) % p
    assert to_mod_p(Fraction(-3, 4)) * 4 % p == p - 3
    for bad in (Fraction(1, p), Fraction(3, 2 * p), Quad(1, Fraction(1, p), 2)):
        with pytest.raises(ZeroDivisionError):
            to_mod_p(bad)
    with pytest.raises(TypeError):
        rank_mod_p(np.ones((2, 2)))


def test_rank_mod_p_bounds_the_exact_rank():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    p = RANK_PRIME

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.data())
    def check(data):
        draw = data.draw
        d = draw(st.sampled_from([None, 5]))
        small = draw(st.booleans())
        if small:
            # every minor stays below p in size (Hadamard; over Q(sqrt 5) its
            # norm does), so a nonzero minor stays nonzero mod p
            nrows = draw(st.integers(1, 5 if d is None else 3))
            part = st.integers(-3, 3) if d is None else st.integers(-1, 1)
        else:
            nrows = draw(st.integers(1, 5))
            part = st.sampled_from([0, 1, -1, 2, p, -p, 2 * p, p + 1, p * p])
        ncols = draw(st.integers(1, 6))
        den = st.sampled_from([1, 2] if d is None or not small else [1])

        def entry():
            a = Fraction(draw(part), draw(den))
            return a if d is None else Quad(a, Fraction(draw(part), draw(den)), d)

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        exact = rank(Matrix(rows))
        got = rank_mod_p(np.array([[to_mod_p(x) for x in row] for row in rows]))
        assert got <= exact
        if small:
            assert got == exact
        if d is None and all(x.denominator == 1 for row in rows for x in row):
            # unreduced integers, negative and beyond p, reduce inside
            ints = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
            assert rank_mod_p(ints) == got

    check()
