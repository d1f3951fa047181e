"""Buchberger runs on small frozen instances, quotient counts, and the rank oracle."""

import itertools
import random

import pytest

from idealforge.configs import build_4cube, build_icosahedron, build_knn, build_ngon
from idealforge.generators import FactoredPoly, build_generator_set
from idealforge.groebner import (
    BudgetExceededError,
    InfiniteStaircaseError,
    affine_hilbert_by_evaluation,
    buchberger,
    certify_full,
    quotient_data,
    s_polynomial,
)
from idealforge.poly import (
    GREVLEX,
    LEX,
    SparsePoly,
    mono_divides,
    poly_from_text,
)
from idealforge.verify import LEVEL_FULL_GROEBNER, LEVEL_PAPER


def assert_groebner_and_reduced(basis):
    for f, g in itertools.combinations(basis.polys, 2):
        rem = basis.normal_form(s_polynomial(f, g, basis.ordering))
        assert rem.is_zero()
    for i, p in enumerate(basis.polys):
        assert p.leading_coefficient(basis.ordering) == 1
        for j, q in enumerate(basis.polys):
            if i == j:
                continue
            qlt = q.leading_monomial(basis.ordering)
            assert not any(mono_divides(qlt, mono) for mono in p.terms)


def expanded(gens):
    return [p.expand() if hasattr(p, "expand") else p for _label, p in gens]


def test_two_variable_chain():
    f = poly_from_text("Y1^2 - 1", 2)
    g = poly_from_text("Y2 - Y1", 2)
    basis = buchberger([f, g])
    assert basis.to_text() == ["1 * Y1 - 1 * Y2", "1 * Y2^2 - 1"]
    assert_groebner_and_reduced(basis)
    # feeding the finished basis back in changes nothing
    again = buchberger(basis.polys)
    assert again.to_text() == basis.to_text()


def test_coprime_leads_need_no_work():
    f = poly_from_text("Y1^2 - 1", 2)
    g = poly_from_text("Y2^2 - 2", 2)
    basis = buchberger([f, g])
    assert basis.to_text() == ["1 * Y2^2 - 2", "1 * Y1^2 - 1"]
    assert basis.reductions == 0


def test_s_polynomial_cancels_leads():
    f = poly_from_text("Y1^2 - 1", 2)
    g = poly_from_text("Y1*Y2 - 1", 2)
    s = s_polynomial(f, g)
    assert s == poly_from_text("Y1 - Y2", 2)


def test_icosahedron_certificate():
    cert = certify_full(build_icosahedron(), build_generator_set("icosahedron"))
    assert cert.level == LEVEL_FULL_GROEBNER
    assert cert.certified
    assert cert.quotient_dimension == 12
    assert cert.vanishing_ok
    assert [cert.quotient.cumulative(k) for k in range(4)] == [1, 4, 9, 12]
    assert_groebner_and_reduced(cert.basis)


def test_icosahedron_ordering_independence():
    gens = build_generator_set("icosahedron")
    dim_grevlex = quotient_data(buchberger(gens, ordering=GREVLEX)).dimension
    dim_lex = quotient_data(buchberger(gens, ordering=LEX)).dimension
    assert dim_grevlex == dim_lex == 12


def test_icosahedron_input_order_independence():
    polys = expanded(build_generator_set("icosahedron"))
    forward = buchberger(polys)
    backward = buchberger(list(reversed(polys)))
    assert forward.to_text() == backward.to_text()


def test_knn_family_hilbert():
    for n in (2, 3, 4):
        cfg = build_knn(n)
        cert = certify_full(cfg, build_generator_set("knn", n))
        assert cert.level == LEVEL_FULL_GROEBNER
        assert cert.quotient_dimension == 2 * n
        assert cert.quotient.hilbert_coefficients() == [1, 2 * n - 2, 1]
        ranks = affine_hilbert_by_evaluation(cfg, 3)
        assert [cert.quotient.cumulative(k) for k in range(4)] == ranks


def test_knn22_lex_agrees():
    basis = buchberger(build_generator_set("knn", 2), ordering=LEX)
    assert quotient_data(basis).dimension == 4


def test_ngon_certificates():
    for n in (4, 6):
        cert = certify_full(build_ngon(n), build_generator_set("ngon", n))
        assert cert.level == LEVEL_FULL_GROEBNER
        assert cert.quotient_dimension == n


def test_e7_section_certificate():
    from idealforge.configs import build_e7
    from idealforge.generators import e7_section, restrict_to_section

    gens = restrict_to_section(build_generator_set("e7"), e7_section())
    cert = certify_full(build_e7(), gens)
    assert cert.level == LEVEL_FULL_GROEBNER
    assert cert.quotient_dimension == 126


def test_cube4_certification_fails():
    cube, _cell24 = build_4cube()
    cert = certify_full(cube, build_generator_set("cube4"))
    assert cert.level == LEVEL_PAPER
    assert not cert.certified
    assert cert.vanishing_ok
    assert cert.quotient_dimension == 225
    assert cert.quotient_dimension > 16
    assert "exceeds" in cert.detail


def test_affine_hilbert_oracle_values():
    assert affine_hilbert_by_evaluation(build_icosahedron(), 4) == [1, 4, 9, 12, 12]
    assert affine_hilbert_by_evaluation(build_knn(3), 2) == [1, 5, 6]


def test_normal_form_idempotent():
    basis = buchberger(build_generator_set("icosahedron"))
    rng = random.Random(4101)
    for _ in range(8):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            terms[mono] = rng.randint(-9, 9)
        p = SparsePoly(3, terms, field_d=5)
        nf = basis.normal_form(p)
        assert basis.normal_form(nf) == nf


def test_budget_error_is_loud():
    with pytest.raises(BudgetExceededError):
        buchberger(build_generator_set("knn", 3), budget=5)


def test_infinite_staircase_detected():
    basis = buchberger([poly_from_text("Y1^2 - 1", 2)])
    with pytest.raises(InfiniteStaircaseError):
        quotient_data(basis)


def test_staircase_cap_guard():
    basis = buchberger(build_generator_set("icosahedron"))
    with pytest.raises(ValueError):
        quotient_data(basis, cap=2)


def test_certify_reports_missing_generator():
    gens = [
        poly_from_text("Y1 - 7", 3, field_d=5),
        poly_from_text("Y2", 3, field_d=5),
        poly_from_text("Y3", 3, field_d=5),
    ]
    cert = certify_full(build_icosahedron(), gens)
    assert cert.level == LEVEL_PAPER
    assert not cert.vanishing_ok
    assert "misses" in cert.detail


def test_factored_generator_missing_a_point_fails_certification():
    # one tangent factor (x . Y - r2) per point but the last: the product
    # vanishes on every point except that one
    G = build_generator_set("ngon", 4)
    cfg = G.config
    f = FactoredPoly(2, [(x, cfg.r2) for x in cfg.points[:-1]])
    assert [f.eval(x) == 0 for x in cfg.points] == [True, True, True, False]
    cert = certify_full(cfg, [p for _label, p in G] + [f])
    assert cert.level == LEVEL_PAPER
    assert not cert.vanishing_ok
    assert cert.detail == "a generator misses the points"
