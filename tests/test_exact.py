import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from idealforge.exact import (
    RANK_PRIME,
    SQRT_MOD_P,
    SUPPORTED_D,
    Echelon,
    FieldMismatchError,
    HnfAccumulator,
    Matrix,
    NotPositiveDefiniteError,
    Quad,
    QuadArray,
    det,
    dot,
    independent_rows,
    int_product,
    ldlt,
    parse_scalar,
    quad_array,
    quad_key,
    quad_product,
    quad_scalar,
    rank,
    rank_mod_p,
    scalar_to_text,
    squared_norms,
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


def _hnf(rows):
    """The normalized HNF rows of an integer row list."""
    acc = HnfAccumulator(len(rows[0]))
    for r in rows:
        acc.add_row(r)
    return acc.normalized_rows()


def test_hnf_identity_and_sublattice():
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _hnf(I3) == I3
    H = _hnf([[2, 0], [0, 2], [1, 1]])
    assert H == [[1, 1], [0, 2]]
    assert det(Matrix(H)) == 2


def test_hnf_span_equivalence():
    rng = random.Random(41)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        H = _hnf(rows)
        fwd = HnfAccumulator(nc)
        for r in H:
            fwd.add_row(r)
        for r in rows:
            assert fwd.contains(r)
        back = HnfAccumulator(nc)
        for r in rows:
            back.add_row(r)
        for r in H:
            assert back.contains(r)


def test_hnf_is_canonical():
    # entries above each pivot lie in [0, pivot), so the form depends on the
    # lattice alone and not on the order the rows arrive in
    rng = random.Random(43)
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        H = _hnf(rows)
        for i, r in enumerate(H):
            col = next(j for j, x in enumerate(r) if x)
            assert r[col] > 0
            assert all(0 <= above[col] < r[col] for above in H[:i]), H
        rng.shuffle(rows)
        assert _hnf(rows) == H


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


def test_echelon_on_integer_rows_matches_the_fraction_path():
    # the Fraction path is the oracle: integer content taken by gcd must
    # pick the same rows, reach the same rank and keep the same pivots
    rng = random.Random(19)
    for trial in range(80):
        nr, nc = rng.randint(1, 8), rng.randint(1, 6)
        top = rng.choice([1, 3, 50, 2**40])
        rows = [[rng.choice([0, 0, rng.randint(-top, top)]) for _ in range(nc)] for _ in range(nr)]
        if trial % 3 == 0 and nr > 1:
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        fracs = [[Fraction(x) for x in r] for r in rows]
        skip = set(rng.sample(range(nr), rng.randint(0, nr // 2)))
        for limit in (1, nc):
            assert independent_rows(rows, limit, skip) == independent_rows(fracs, limit, skip)
        ints, oracle = Echelon(nc), Echelon(nc)
        for r, f in zip(rows, fracs):
            assert ints.add_row(r) == oracle.add_row(f)
        assert ints.rank == oracle.rank == rank(Matrix(rows))
        assert ints.pivots == oracle.pivots
        assert all(type(x) is int for _, r in ints.pivots for x in r)


def test_hnf_rejects_non_integer():
    with pytest.raises(ValueError):
        _hnf([[Fraction(1, 2)]])


def test_quad_norm_identity_randomized():
    rng = random.Random(13)
    for _ in range(100):
        d = rng.choice([2, 3, 5])
        a, b = random_fraction(rng), random_fraction(rng)
        x = Quad(a, b, d)
        assert x * Quad(a, -b, d) == a * a - d * b * b


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


def _bounded_factors(draw, st):
    """Integer factors with k * max|A| * max|B| within a few k*a of a dtype or float limit.

    The limits are 2^7, 2^15 and 2^31 (the int8, int16 and int32 results),
    2^24 and 2^53 (the float32 and float64 products) and 2^63 (the refusal).

    Each factor holds one entry at +-its bound; sometimes one factor is all
    zero, which makes the product bound 0 whatever the other holds.
    """
    k = draw(st.integers(1, 5))
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    limit = draw(st.sampled_from([2**7, 2**15, 2**24, 2**31, 2**53, 2**63]))
    a = draw(st.integers(1, 2**20))
    b = min(max(limit // (k * a) + draw(st.integers(-2, 2)), 1), 2**63 - 1)

    def entries(rows, cols, top):
        vals = [draw(st.integers(-top, top)) for _ in range(rows * cols)]
        vals[draw(st.integers(0, rows * cols - 1))] = draw(st.sampled_from([top, -top]))
        return [vals[i * cols : (i + 1) * cols] for i in range(rows)]

    A, B = entries(n, k, a), entries(k, p, b)
    zero = draw(st.sampled_from([None, None, "A", "B"]))
    if zero == "A":
        A, a = [[0] * k for _ in range(n)], 0
    elif zero == "B":
        B, b = [[0] * p for _ in range(k)], 0
    return k * a * b, A, B


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
        assert got.dtype == _narrowest(bound) and got.tolist() == expected

    check()


def _narrowest(bound):
    """The narrowest signed integer dtype whose range holds +-bound."""
    tops = [(np.int8, 2**7), (np.int16, 2**15), (np.int32, 2**31), (np.int64, 2**63)]
    return next(np.dtype(t) for t, top in tops if bound < top)


@pytest.mark.parametrize("bound", [2**7 - 1, 2**7, 2**15 - 1, 2**15, 2**31 - 1, 2**31])
def test_int_product_dtype_holds_its_bound_at_the_edges(bound):
    # the product reaches +-bound exactly, with one term (k = 1) or two equal
    # halves (k = 2, even bounds); -2^7 fits int8, but its bound 2^7 does not
    A = [[bound], [-bound], [1], [0]]
    B = [[1, -1]]
    halves = ([[bound // 2] * 2, [-(bound // 2)] * 2], [[1], [1]])
    for A, B in [(A, B)] + ([halves] if bound % 2 == 0 else []):
        An, Bn = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
        expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]
        got = int_product(An, Bn)
        assert got.dtype == _narrowest(bound) and got.tolist() == expected
        assert max(map(max, expected)) == bound and min(map(min, expected)) == -bound
        # the transposed product meets the same bound
        assert int_product(Bn.T, An.T).tolist() == [list(c) for c in zip(*expected)]
    # an all-zero factor makes the bound 0, whatever the other holds
    big = np.array([[bound, -(2**40)]], dtype=np.int64)
    zero = np.zeros((2, 3), dtype=np.int64)
    got = int_product(big, zero)
    assert got.dtype == np.int8 and got.tolist() == [[0, 0, 0]]


def test_int_product_float_path_never_rounds():
    # 2^53 + 1 has no float64 value, so a float product would give 0 here
    A = np.array([[2**53 + 1, -(2**53)]], dtype=np.int64)
    assert int_product(A, np.array([[1], [1]])).tolist() == [[1]]
    # 2^24 + 1 has no float32 value: its bound puts it on the float64 path
    assert int_product(np.array([[2**24 + 1]]), np.array([[1]])).tolist() == [[2**24 + 1]]
    assert int_product(np.array([[1 - 2**12]]), np.array([[2**12 + 1]])).tolist() == [[1 - 2**24]]
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
            if small:
                # the narrow dtypes int_product returns; p fits neither
                # int8 nor int16
                for narrow in (np.int8, np.int16, np.int32):
                    assert rank_mod_p(ints.astype(narrow)) == got

    check()


def test_quad_product_matches_dot():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.data())
    def check(data):
        draw = data.draw
        d = draw(st.sampled_from([None, *SUPPORTED_D]))
        m = draw(st.integers(1, 4))

        def entry():
            a = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3, 4])))
            if d is None or draw(st.booleans()):
                return a
            return Quad(a, Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3]))), d)

        X = [[entry() for _ in range(m)] for _ in range(draw(st.integers(1, 4)))]
        Y = [[entry() for _ in range(m)] for _ in range(draw(st.integers(1, 4)))]
        QX, QY = quad_array(X), quad_array(Y)
        R, I = quad_product(QX, QY)
        assert (I is None) == (QX.d is None and QY.d is None)
        den = QX.den * QY.den
        for i, x in enumerate(X):
            for j, y in enumerate(Y):
                parts = (int(R[i, j]), 0 if I is None else int(I[i, j]))
                assert quad_scalar(*parts, den, d) == dot(x, y)
                assert quad_key(dot(x, y), den, d) == parts

    check()


def test_quad_product_zero_needs_both_parts():
    # sqrt(2) * sqrt(2) - 2 = 0 has R = I = 0; 0 + sqrt(2) has R = 0 but is no zero
    X = quad_array([[Quad(0, 1, 2), -2], [Quad(0, 1, 2), 0]])
    R, I = quad_product(X, quad_array([[Quad(0, 1, 2), 1]]))
    assert R.tolist() == [[0], [2]] and I.tolist() == [[0], [0]]
    R, I = quad_product(X, quad_array([[1, 1]]))
    assert R[1, 0] == 0 and I[1, 0] != 0


def test_quad_key_refuses_values_off_the_grid():
    assert quad_key(Fraction(1, 2), 4, None) == (2, 0)
    assert quad_key(Fraction(1, 8), 4, None) is None
    assert quad_key(Quad(1, Fraction(1, 2), 5), 2, 5) == (2, 1)
    assert quad_key(Quad(1, Fraction(1, 2), 5), 2, 2) is None
    assert quad_key(Quad(1, Fraction(1, 2), 5), 2, None) is None
    assert quad_key(Quad(3, 0, 5), 1, None) == (3, 0)


def test_int8_kernels_stay_exact_at_the_dtype_edges():
    # -128 and 127 are the int8 extremes; an int8 einsum would wrap the
    # squared norm 24 * 127^2 = 387,096, and np.abs(-128) is -128 in int8
    rng = np.random.default_rng(8)
    X = rng.integers(-128, 128, size=(40, 24)).astype(np.int8)
    X[0], X[1], X[2, :12] = -128, 127, -128
    rows = X.tolist()
    assert squared_norms(X).tolist() == [sum(x * x for x in r) for r in rows]
    assert squared_norms(X)[1] == 387096 and squared_norms(X)[0] == 24 * 128**2
    expected = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    assert int_product(X, X.T).tolist() == expected
    assert int_product(X, X.T.astype(np.int64)).tolist() == expected


def test_quad_array_scales_like_the_fraction_formula():
    # reference: den the lcm of every part's denominator, each part int(v * den)
    rng = random.Random(22)
    pool = [0, 3, -7, Fraction(5, 6), Fraction(-9, 4), Quad(Fraction(1, 3), 2, 5),
            Quad(-2, Fraction(-3, 10), 5), Quad(Fraction(7, 2), 0, 5)]
    for _ in range(30):
        rows = [[rng.choice(pool) for _ in range(4)] for _ in range(rng.randint(1, 6))]
        parts = [(x.a, x.b) if isinstance(x, Quad) else (Fraction(x), Fraction(0))
                 for r in rows for x in r]
        den = 1
        for q in (q for ab in parts for q in ab):
            den = den * q.denominator // gcd(den, q.denominator)
        Q = quad_array(rows)
        assert Q.den == den
        assert Q.A.ravel().tolist() == [int(a * den) for a, _ in parts]
        irrational = any(isinstance(x, Quad) and x.b for r in rows for x in r)
        if irrational:
            assert Q.d == 5 and Q.B.ravel().tolist() == [int(b * den) for _, b in parts]
        else:
            assert Q.B is None and Q.d is None
    with pytest.raises(ArithmeticError):
        quad_array([[1, Fraction(2**63)]])
    with pytest.raises(ArithmeticError):
        quad_array([[Fraction(1, 2), 2**62]])
    assert quad_array([[Fraction(1, 2), 2**62 - 1]]).A.tolist() == [[1, 2**63 - 2]]


def test_quad_array_ranges_and_fields():
    Q = quad_array([[1, Fraction(1, 2)], [Quad(0, Fraction(1, 3), 3), 2]])
    assert (Q.A.tolist(), Q.B.tolist(), Q.den, Q.d) == ([[6, 3], [0, 12]], [[0, 0], [2, 0]], 6, 3)
    assert quad_array([[Quad(2, 0, 5), 1]]).B is None
    assert len(Q.take([1])) == 1 and Q.take([1]).B.tolist() == [[2, 0]]
    with pytest.raises(ArithmeticError):
        quad_array([[2**63]])
    with pytest.raises(ArithmeticError):
        quad_array([[Fraction(2**62, 3), Fraction(1, 5)]])
    with pytest.raises(FieldMismatchError):
        quad_array([[Quad(0, 1, 2), Quad(0, 1, 5)]])
    with pytest.raises(FieldMismatchError):
        quad_product(quad_array([[Quad(0, 1, 2)]]), quad_array([[Quad(0, 1, 5)]]))
    big = QuadArray(np.array([[1]]), np.array([[2**62]]), 1, 3)
    with pytest.raises(ArithmeticError):
        quad_product(big, big)
