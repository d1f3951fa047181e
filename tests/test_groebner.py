"""Buchberger runs on small frozen instances, quotient counts, and the rank oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from idealforge.configs import build_4cube, build_icosahedron, build_knn, build_ngon
from idealforge.exact import Quad, _fdiv
from idealforge.generators import FactoredPoly, as_sparse, build_generator_set
from idealforge.groebner import (
    BudgetExceededError,
    InfiniteStaircaseError,
    _integer_form,
    _lead,
    _monic,
    _normalized,
    _reduce,
    _ring,
    _spair,
    _WorkMeter,
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
    divide,
    mono_div,
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
    from idealforge.generators import restrict_to_section

    gens = restrict_to_section(build_generator_set("e7"), build_e7().section)
    cert = certify_full(build_e7(), gens)
    assert cert.level == LEVEL_FULL_GROEBNER
    assert cert.quotient_dimension == 126


def test_e7_certificate_checks_vanishing_without_factored_eval(monkeypatch):
    from idealforge.configs import build_e7
    from idealforge.generators import restrict_to_section

    gens = restrict_to_section(build_generator_set("e7"), build_e7().section)

    def refuse(self, point):
        raise AssertionError("per-point factored evaluation ran")

    monkeypatch.setattr(FactoredPoly, "eval", refuse)
    cert = certify_full(build_e7(), gens)
    assert cert.vanishing_ok and cert.level == LEVEL_FULL_GROEBNER


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


def family_id(family):
    return "".join(map(str, family))


def rescanning_normal_form(f, basis, ordering):
    """The textbook loop: rescan for the leading term, try the leads in list order.

    Returns the remainder and the number of steps.
    """
    lead = [(g.leading_monomial(ordering), g.leading_coefficient(ordering)) for g in basis]
    p = f.copy()
    rem = SparsePoly.zero(f.nvars, f.field_d)
    steps = 0
    while not p.is_zero():
        lm = p.leading_monomial(ordering)
        lc = p.terms[lm]
        for g, (gm, gc) in zip(basis, lead):
            if mono_divides(gm, lm):
                steps += 1
                p = p - g * SparsePoly(f.nvars, {mono_div(lm, gm): _fdiv(lc, gc)}, f.field_d)
                break
        else:
            rem.terms[lm] = lc
            del p.terms[lm]
    return rem, steps


@pytest.mark.parametrize("ordering", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("family", [("knn", 3), ("ngon", 6), ("knn", 2)], ids=family_id)
def test_reduction_kernel_against_division_and_rescanning(family, ordering):
    # the integer reducer, with one first-divisor memo serving a basis that
    # grows by appending: every remainder, normalized, equals divide's
    # normalized remainder, and the steps counted equal divide's quotient
    # terms, which in turn match the rescanning loop.  Inputs are the
    # generators and S-polynomials of pairs drawn, with a fixed seed, from
    # the least-lcm-degree pairs not yet reduced.
    gens = [as_sparse(p) for _label, p in build_generator_set(*family)]
    ring = _ring(gens[0].field_d)
    rng = random.Random(f"{family}-{ordering.kind}")
    ints = [_integer_form(gens[0], ring)]
    lead = [_lead(ints[0], ordering)]
    basis = [_monic(ints[0], lead[0], ring)]
    pairs, first = [], {}
    work = _WorkMeter(10**6)

    def reduce_and_append(f):
        before = work.steps
        r = _reduce(_integer_form(f, ring), ints, lead, ordering, work, ring, first)
        quots, rem = divide(f, basis, ordering)
        steps = sum(len(q.terms) for q in quots)
        assert (rem, steps) == rescanning_normal_form(f, basis, ordering)
        assert _normalized(r, ring) == _integer_form(rem, ring)
        assert work.steps - before == steps
        # both heap loops emit remainder terms in descending order: each pop
        # takes the maximum of the working polynomial
        assert list(r) == sorted(r, key=ordering.key, reverse=True)
        assert list(rem.terms) == sorted(rem.terms, key=ordering.key, reverse=True)
        if r:
            r = _normalized(r, ring)
            pairs.extend((i, len(ints)) for i in range(len(ints)))
            ints.append(r)
            lead.append(_lead(r, ordering))
            basis.append(_monic(r, lead[-1], ring))

    for f in gens[1:]:
        reduce_and_append(f)
    for _ in range(24):
        if not pairs:
            break
        pairs.sort(key=lambda ij: sum(max(a, b) for a, b in zip(lead[ij[0]][0], lead[ij[1]][0])))
        i, j = pairs.pop(rng.randrange(min(3, len(pairs))))
        s = s_polynomial(basis[i], basis[j], ordering)
        # the integer S-polynomial is a positive multiple of the field one
        assert _normalized(_spair(ints[i], ints[j], lead[i], lead[j], ring), ring) == _integer_form(s, ring)
        reduce_and_append(s)
    assert len(ints) > len(gens) // 2
    # entries made against a shorter lead list were carried into later calls
    assert any(scanned < len(lead) for _i, scanned in first.values())


def random_scalar(rng, d):
    """A small nonzero exact scalar over Q (d None) or Q(sqrt d), of either sign."""
    while True:
        a = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        if d is None:
            c = a
        else:
            c = Quad(a, Fraction(rng.randint(-4, 4), rng.choice((1, 2))), d)
        if c != 0:
            return c


def random_ideal(rng, d, nvars=3, ngens=3):
    """Seeded generators of degree <= 2 that share a zero; the first one's lead is negative.

    Returns the generators and the common zero.
    """
    point = [random_scalar(rng, d) for _ in range(nvars)]
    polys = []
    while len(polys) < ngens:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = [0] * nvars
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = random_scalar(rng, d)
        p = SparsePoly(nvars, terms, d)
        if p.degree() >= 1:
            polys.append(p - p.eval(point))
    if polys[0].leading_coefficient(GREVLEX) > 0:
        polys[0] = -polys[0]
    return polys, point


@pytest.mark.parametrize("d", [None, 2, 3, 5], ids=["Q", "sqrt2", "sqrt3", "sqrt5"])
def test_integer_engine_against_field_arithmetic(d):
    # the basis the integer engine returns is a reduced Groebner basis by
    # the field-arithmetic normal form, every input reduces to zero by it,
    # and every basis element keeps the inputs' common zero.  Each integer
    # S-polynomial and remainder of two inputs is a positive multiple of
    # the field one, whatever the signs (and norms) of the leads.
    rng = random.Random(f"field-oracle-{d}")
    ring = _ring(d)
    signs = set()
    for _ in range(6):
        polys, point = random_ideal(rng, d)
        signs.update(p.leading_coefficient(GREVLEX) > 0 for p in polys)
        ints = [_integer_form(p, ring) for p in polys]
        for (f, fi), (g, gi) in itertools.combinations(zip(polys, ints), 2):
            s = s_polynomial(f, g)
            leads = [_lead(fi, GREVLEX), _lead(gi, GREVLEX)]
            si = _spair(fi, gi, *leads, ring)
            assert _normalized(si, ring) == _integer_form(s, ring)
            r = _reduce(si, [fi, gi], leads, GREVLEX, _WorkMeter(10**6), ring)
            assert _normalized(r, ring) == _integer_form(divide(s, [f, g])[1], ring)
        for ordering in (GREVLEX, LEX):
            basis = buchberger(polys, ordering=ordering)
            assert_groebner_and_reduced(basis)
            for p in polys:
                assert basis.normal_form(p).is_zero()
            assert all(q.eval(point) == 0 for q in basis)
    assert signs == {True, False}


def test_reduction_counts_are_pinned():
    from idealforge.configs import build_e7
    from idealforge.generators import restrict_to_section

    e7 = restrict_to_section(build_generator_set("e7"), build_e7().section)
    counts = [
        buchberger(gens).reductions
        for gens in (
            e7,
            build_generator_set("knn", 4),
            build_generator_set("cube4"),
            build_generator_set("icosahedron"),
            build_generator_set("e6"),
        )
    ]
    assert counts == [4124, 2364, 593, 71, 2120]


def test_budget_stops_at_the_same_step():
    # the meter raises on the step past the budget, wherever that falls
    gens = build_generator_set("knn", 3)
    steps = buchberger(gens).reductions
    for budget in (steps - 1, 5):
        with pytest.raises(BudgetExceededError):
            buchberger(gens, budget=budget)
    assert buchberger(gens, budget=steps).reductions == steps


def sympy_basis(polys):
    """The reduced grevlex basis sympy computes, as monic term dicts."""
    sympy = pytest.importorskip("sympy")
    Y = sympy.symbols(f"Y1:{polys[0].nvars + 1}")
    exprs = [
        sum(sympy.Rational(str(c)) * sympy.Mul(*[y**e for y, e in zip(Y, m)]) for m, c in p.terms.items())
        for p in polys
    ]
    out = set()
    for q in sympy.groebner(exprs, *Y, order="grevlex").polys:
        lc = q.LC(order="grevlex")
        out.add(frozenset((m, Fraction(str(c / lc))) for m, c in q.terms()))
    return out


@pytest.mark.parametrize("family", [("knn", 3), ("ngon", 6), ("cube4",)], ids=family_id)
def test_reduced_basis_agrees_with_sympy(family):
    polys = [as_sparse(p) for _label, p in build_generator_set(*family)]
    theirs = sympy_basis(polys)
    basis = buchberger(polys, ordering=GREVLEX)
    mine = {frozenset((m, Fraction(c)) for m, c in p.terms.items()) for p in basis}
    assert len(mine) == len(basis) == len(theirs)
    assert mine == theirs
