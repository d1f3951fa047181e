"""Polynomial arithmetic, division, ordering, and text format checks."""

import random
from fractions import Fraction

import pytest

from idealforge.exact import FieldMismatchError, Quad
from idealforge.poly import (
    GREVLEX,
    LEX,
    SparsePoly,
    divide,
    is_trivial,
    mono_divides,
    nm_poly,
    poly_from_text,
    poly_to_text,
)


def rand_frac(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_poly(rng, nvars=3, nterms=5, maxexp=3, d=None):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        if d is None:
            terms[m] = rand_frac(rng)
        else:
            terms[m] = Quad(rand_frac(rng), rand_frac(rng), d)
    return SparsePoly(nvars, terms)


def rand_point(rng, nvars, d=None):
    if d is None:
        return [rand_frac(rng) for _ in range(nvars)]
    return [Quad(rand_frac(rng), rand_frac(rng), d) for _ in range(nvars)]


def test_difference_of_squares():
    y1 = SparsePoly.variable(2, 1)
    f = (y1 - 1) * (y1 + 1)
    assert f == y1 * y1 - 1
    assert poly_to_text(f) == "1 * Y1^2 - 1"


def test_grevlex_degree_two_chain():
    # with Y1 > Y2 > Y3: Y1^2 > Y1*Y2 > Y2^2 > Y1*Y3 > Y2*Y3 > Y3^2
    chain = [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]
    keys = [GREVLEX.key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)
    assert len(set(keys)) == len(keys)


def test_lex_prefers_first_variable():
    assert LEX.key((1, 0, 0)) > LEX.key((0, 5, 5))
    assert GREVLEX.key((1, 0, 0)) < GREVLEX.key((0, 5, 5))


def test_ordering_multiplicative_and_grounded():
    rng = random.Random(1101)
    zero = (0, 0, 0, 0)
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        c = tuple(rng.randint(0, 4) for _ in range(4))
        for order in (GREVLEX, LEX):
            if order.key(a) > order.key(b):
                am = tuple(x + y for x, y in zip(a, c))
                bm = tuple(x + y for x, y in zip(b, c))
                assert order.key(am) > order.key(bm)
            if a != zero:
                assert order.key(a) > order.key(zero)


def test_eval_homomorphism():
    rng = random.Random(2024)
    for trial in range(40):
        d = None if trial % 2 == 0 else 5
        f = rand_poly(rng, d=d)
        g = rand_poly(rng, d=d)
        x = rand_point(rng, 3, d=d)
        assert (f + g).eval(x) == f.eval(x) + g.eval(x)
        assert (f * g).eval(x) == f.eval(x) * g.eval(x)


def test_product_rule():
    rng = random.Random(77)
    for _ in range(25):
        f = rand_poly(rng)
        g = rand_poly(rng)
        for i in (1, 2, 3):
            lhs = (f * g).partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs


def test_gradient_of_sphere_poly_is_twice_point():
    nm = nm_poly(4, 3)
    x = [Fraction(1, 2), Fraction(-3), Fraction(2, 5), Fraction(0)]
    for i in range(1, 5):
        assert nm.partial_derivative(i).eval(x) == 2 * x[i - 1]


def test_division_identity_and_remainder_condition():
    rng = random.Random(4242)
    for trial in range(30):
        order = GREVLEX if trial % 2 == 0 else LEX
        f = rand_poly(rng, nterms=7)
        divisors = [rand_poly(rng, nterms=3) for _ in range(2)]
        divisors = [d for d in divisors if not d.is_zero()]
        if not divisors:
            continue
        quots, rem = divide(f, divisors, order)
        recon = rem
        for q, d in zip(quots, divisors):
            recon = recon + q * d
        assert recon == f
        lead = [d.leading_monomial(order) for d in divisors]
        for m in rem.terms:
            assert not any(mono_divides(lm, m) for lm in lead)


def test_division_cannot_touch_foreign_variable():
    y1 = SparsePoly.variable(2, 1)
    y2 = SparsePoly.variable(2, 2)
    quots, rem = divide(y1, [y2])
    assert quots[0].is_zero()
    assert rem == y1


def test_sphere_multiple_detection():
    rng = random.Random(31337)
    nm = nm_poly(3, Fraction(5, 2))
    for _ in range(10):
        g = rand_poly(rng, nterms=4)
        assert is_trivial(nm * g, nm)
        if not g.is_zero():
            assert not is_trivial(nm * g + SparsePoly.variable(3, 1), nm)
    assert is_trivial(SparsePoly.zero(3), nm)


def test_pow_matches_repeated_product():
    rng = random.Random(9)
    f = rand_poly(rng, nterms=3, maxexp=2)
    assert f ** 0 == SparsePoly.constant(3, 1)
    assert f ** 1 == f
    assert f ** 3 == f * f * f


def test_compose_linear_matches_pointwise():
    rng = random.Random(606)
    f = rand_poly(rng, nvars=3, nterms=5, maxexp=2)
    rows = [[rand_frac(rng) for _ in range(2)] for _ in range(3)]
    restricted = f.compose_linear(rows, 2)
    assert restricted.nvars == 2
    for _ in range(6):
        z = rand_point(rng, 2)
        image = [sum(r[j] * z[j] for j in range(2)) for r in rows]
        assert restricted.eval(z) == f.eval(image)


def test_text_roundtrip_random():
    rng = random.Random(808)
    for trial in range(40):
        d = [None, 2, 3, 5][trial % 4]
        f = rand_poly(rng, d=d)
        for order in (GREVLEX, LEX):
            text = poly_to_text(f, order)
            back = poly_from_text(text, 3)
            assert back == f, text


def test_text_format_examples():
    phi_coef = Quad(Fraction(1, 2), Fraction(3, 2), 5)
    f = SparsePoly(2, {(1, 1): phi_coef})
    assert poly_to_text(f) == "(1/2+3/2*sqrt(5)) * Y1*Y2"
    assert poly_from_text("(1/2+3/2*sqrt(5))*Y1*Y2", 2) == f
    g = poly_from_text("Y1^2 - Y2 + 3", 2)
    assert g == SparsePoly(2, {(2, 0): 1, (0, 1): -1, (0, 0): 3})
    assert poly_from_text("0", 2) == SparsePoly.zero(2)
    assert poly_to_text(SparsePoly.zero(2)) == "0"
    with pytest.raises(ValueError):
        poly_from_text("Y1 ++ Y2", 2)
    with pytest.raises(ValueError):
        poly_from_text("Y9", 2)


def test_two_fields_never_meet():
    # a polynomial's field is its coefficients': sqrt(5) and sqrt(2) meet
    # only inside a Quad operation, which refuses them
    from idealforge.generators import FactoredPoly
    from idealforge.groebner import buchberger

    f = SparsePoly(2, {(1, 0): Quad(0, 1, 5), (0, 0): 1})  # sqrt(5)*Y1 + 1
    g = SparsePoly(2, {(1, 0): Quad(0, 1, 2), (0, 1): 1})  # sqrt(2)*Y1 + Y2
    with pytest.raises(FieldMismatchError):
        f + g
    with pytest.raises(FieldMismatchError):
        f * g
    with pytest.raises(FieldMismatchError):
        f.eval([Quad(0, 1, 2), 0])
    factored = FactoredPoly(2, [((Quad(0, 1, 2), 1), 0)])  # sqrt(2)*Y1 + Y2
    for gens in ([f, g], [g, f], [SparsePoly.variable(2, 2), f, g], [factored, f]):
        with pytest.raises(FieldMismatchError):
            buchberger(gens)
    mixed = SparsePoly(2, {(1, 0): Quad(0, 1, 5), (0, 1): Quad(0, 1, 2)})
    with pytest.raises(FieldMismatchError):
        mixed.eval([1, 1])
    with pytest.raises(FieldMismatchError):
        buchberger([mixed])
    # a rational coefficient written over another field meets both
    h = SparsePoly(2, {(1, 0): Quad(3, 0, 2)})
    assert (f + h).terms[(1, 0)] == Quad(3, 1, 5)


def test_eval_power_cache_correct_on_high_exponents():
    f = poly_from_text("Y1^7 - 2 * Y1^3*Y2^2 + 5", 2)
    x = [Fraction(2), Fraction(-3)]
    expected = Fraction(2) ** 7 - 2 * Fraction(2) ** 3 * Fraction(9) + 5
    assert f.eval(x) == expected
