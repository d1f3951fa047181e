"""Acceptance gate: one test per shipped claim, exact values, no tolerances.

Each test finishes by printing one PASS line (visible under -s or in failure
reports); a failed assert is the FAIL line.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from idealforge.cli import EXIT_OK, run
from idealforge.configs import (
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_golay,
    build_icosahedron,
    build_knn,
    build_leech,
    build_ngon,
)
from idealforge.gamma import first_k_exceeding, gamma1_bounds, gamma1_exact
from idealforge.generators import (
    build_e7_identity_witness,
    build_generator_set,
    restrict_to_section,
)
from idealforge.groebner import (
    affine_hilbert_by_evaluation,
    buchberger,
    certify_full,
    s_polynomial,
)
from idealforge.lattice import (
    basis_from_generators,
    enumerate_short_vectors,
    unimodularity_check,
)
from idealforge.poly import SparsePoly, divide
from idealforge.verify import (
    SAMPLED,
    check_gallery_vanishing,
    check_vanishing,
    design_strength_gegenbauer,
    design_strength_moments,
    jacobian_full_pass,
    jacobian_rank_at,
    nontrivial_generator_check,
)


def _line(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS {text}")


@pytest.fixture(scope="module")
def leech_cfg():
    return build_leech()


@pytest.fixture(scope="module")
def e8_cfg():
    return build_e8()


def test_criterion_01_counts(leech_cfg, e8_cfg):
    t0 = time.time()
    code = build_golay()
    assert len(code.codewords) == 4096
    assert code.weight_distribution[8] == 759
    assert e8_cfg.npoints == 240
    assert build_e7().npoints == 126
    assert build_e6().npoints == 72
    assert leech_cfg.npoints == 196560
    assert tuple(leech_cfg.type_counts) == (97152, 98304, 1104)
    elapsed = time.time() - t0
    assert elapsed < 30
    _line(1, f"Golay 4096/759; 240/126/72/196560 with split 97152/98304/1104; built in {elapsed:.1f}s")


def test_criterion_02_enumeration(leech_cfg, e8_cfg):
    b8 = basis_from_generators(e8_cfg)
    r8 = enumerate_short_vectors(b8, e8_cfg.r2)
    assert r8.count == 240
    arr8, _ = e8_cfg.integer_array()
    assert np.array_equal(
        np.unique(np.array(r8.vectors, dtype=np.int64), axis=0),
        np.unique(arr8, axis=0),
    )
    t0 = time.time()
    b24 = basis_from_generators(leech_cfg)
    r24 = enumerate_short_vectors(b24, leech_cfg.r2)
    elapsed = time.time() - t0
    assert r24.count == 196560
    arr24, _ = leech_cfg.integer_array()
    assert np.array_equal(
        np.unique(np.array(r24.vectors, dtype=np.int64), axis=0),
        np.unique(arr24, axis=0),
    )
    _line(
        2,
        f"enumeration 240 (bound 2) and 196560 (bound 32) set-equal; "
        f"Leech {elapsed:.0f}s, {r24.search_nodes} search nodes in one process",
    )


def test_criterion_03_unimodularity(leech_cfg, e8_cfg):
    u24 = unimodularity_check(basis_from_generators(leech_cfg))
    assert u24.det_gram == 8**24
    assert u24.unimodular
    u8 = unimodularity_check(basis_from_generators(e8_cfg))
    assert u8.det_gram == u8.expected
    assert u8.unimodular
    _line(3, f"det(Gram) = 8^24 for Leech, {u8.det_gram} = scale^8 for E8, exact")


def test_criterion_04_vanishing(leech_cfg):
    full_names = [
        ("icosahedron", None),
        ("e6", None),
        ("e7", None),
        ("e8", None),
        ("knn", 2),
        ("knn", 3),
        ("knn", 4),
        ("ngon", 4),
        ("ngon", 6),
        ("ngon", 8),
    ]
    for name, n in full_names:
        rec = check_vanishing(build_generator_set(name, n))
        assert rec.passed and rec.mode == "full", (name, n)
    g_cube = build_generator_set("cube4")
    assert check_vanishing(g_cube).passed
    _, cell = build_4cube()
    assert check_gallery_vanishing(g_cube, cell).passed

    # every Leech point, by the lattice value-set proof of the build
    g_leech = build_generator_set("leech")
    t0 = time.time()
    rec = check_vanishing(g_leech)
    elapsed = time.time() - t0
    assert rec.passed and rec.mode == "full"
    assert elapsed < 30
    _line(4, f"vanishing full on 11 desk configurations and on all 196560 Leech points ({elapsed:.2f}s)")


def test_criterion_05_simple_zeros(leech_cfg, e8_cfg):
    desk = [
        ("e6", 6, build_generator_set("e6")),
        ("e7", 7, restrict_to_section(build_generator_set("e7"), build_e7().section)),
        ("e8", 8, build_generator_set("e8")),
        ("icosahedron", 3, build_generator_set("icosahedron")),
    ]
    for name, m, gens in desk:
        rec = jacobian_full_pass(gens)
        assert rec.passed, name
        assert f"rank {m}" in rec.detail
    g_leech = build_generator_set("leech")
    t0 = time.time()
    rec24 = jacobian_full_pass(g_leech)
    elapsed = time.time() - t0
    assert rec24.passed and elapsed < 30

    g8 = build_generator_set("e8")
    rng = random.Random(0xC0DE)
    for idx in rng.sample(range(240), 5):
        pt = e8_cfg.points[idx]
        assert jacobian_rank_at(g8, pt, method="closed_form") == 8
        assert jacobian_rank_at(g8, pt, method="symbolic") == 8
    for idx in rng.sample(range(196560), 5):
        assert jacobian_rank_at(g_leech, leech_cfg.points[idx], method="closed_form") == 24
    g_ico = build_generator_set("icosahedron")
    assert jacobian_rank_at(g_ico, g_ico.config.points[0]) == 3
    _line(5, f"Jacobian rank m at every point (Leech full pass {elapsed:.0f}s); methods agree on samples")


def test_criterion_06_design_strengths(leech_cfg, e8_cfg):
    assert design_strength_gegenbauer(build_icosahedron(), 5).passed
    assert design_strength_gegenbauer(build_e7(), 5).passed
    assert design_strength_gegenbauer(build_e6(), 5).passed
    assert design_strength_gegenbauer(e8_cfg, 7).passed
    res8 = design_strength_gegenbauer(e8_cfg, 8)
    assert res8.first_failure() == 8
    res24 = design_strength_gegenbauer(leech_cfg, 11, mode=SAMPLED)
    assert res24.passed and res24.mode == SAMPLED

    checked_e8, fail_e8 = design_strength_moments(e8_cfg, 7)
    assert checked_e8 == 6435 and fail_e8 == []
    checked_ico, fail_ico = design_strength_moments(build_icosahedron(), 5)
    assert checked_ico == 56 and fail_ico == []
    _line(6, "strengths 5/5/5/7(+fail at 8)/11; moments 6435 (E8) and 56 (ico) all exact")


def test_criterion_07_gamma1_exact(leech_cfg, e8_cfg):
    assert gamma1_exact(build_icosahedron()) == 3
    assert gamma1_exact(e8_cfg) == 4
    assert gamma1_exact(build_e7()) == 3
    assert gamma1_exact(build_e6()) == 3

    g_leech = build_generator_set("leech")
    assert nontrivial_generator_check(g_leech, 6).passed
    bounds = gamma1_bounds(leech_cfg, exhibited_degree=6)
    assert bounds.interval == (6, 6)

    for n in (4, 6, 8):
        assert gamma1_exact(build_ngon(n)) == n // 2, n
    _line(7, "gamma1 = 3/4/3/3 by nullity; Leech pinned to [6,6]; n-gon n/2 for n = 4, 6, 8")


def test_criterion_08_counting_thresholds(leech_cfg, e8_cfg):
    assert first_k_exceeding(24, leech_cfg.npoints) == 6
    assert first_k_exceeding(8, e8_cfg.npoints) == 4
    assert first_k_exceeding(6, 72) == 3
    k_e7 = first_k_exceeding(7, 126)
    assert k_e7 == 4
    assert k_e7 > gamma1_exact(build_e7())
    _line(8, "min k with R_k(1) > |X|: 6/4/3 match gamma1; E7 gives 4 > gamma1 = 3")


def test_criterion_09_groebner_certificates():
    cert_ico = certify_full(build_icosahedron(), build_generator_set("icosahedron"))
    assert cert_ico.certified and cert_ico.quotient_dimension == 12

    for n in (2, 3, 4):
        cert = certify_full(build_knn(n), build_generator_set("knn", n))
        assert cert.certified and cert.quotient_dimension == 2 * n, n
        assert cert.quotient.hilbert_coefficients() == [1, 2 * n - 2, 1]

    for n in (4, 6):
        cert = certify_full(build_ngon(n), build_generator_set("ngon", n))
        assert cert.certified and cert.quotient_dimension == n, n

    cube_cfg, _ = build_4cube()
    cert_cube = certify_full(cube_cfg, build_generator_set("cube4"))
    assert not cert_cube.certified
    assert cert_cube.vanishing_ok
    assert cert_cube.quotient_dimension == 225 > 16

    gens7 = restrict_to_section(build_generator_set("e7"), build_e7().section)
    cert_e7 = certify_full(build_e7(), gens7)
    assert cert_e7.certified and cert_e7.quotient_dimension == 126
    _line(9, "FULL_GROEBNER: ico 12, K_nn (1,2n-2,1), n-gon 4/6; cube-4 fails at 225; E7 126")


def test_criterion_10_e7_identity():
    w = build_e7_identity_witness()
    assert w.difference.is_zero()
    assert w.lhs.degree() == 5
    _line(10, "degree-5 zonal equals the cubic combination exactly after Y8 := Y7")


def test_criterion_11_property_suites(tmp_path):
    rng = random.Random(4105)

    def rand_poly(nvars, nterms, deg):
        terms = {}
        for _ in range(nterms):
            mono = tuple(rng.randrange(deg + 1) for _ in range(nvars))
            terms[mono] = Fraction(rng.randrange(-4, 5) or 1)
        return SparsePoly(nvars, terms)

    for _ in range(8):
        f = rand_poly(3, 6, 3)
        divisors = [rand_poly(3, 3, 2) for _ in range(2)]
        divisors = [d for d in divisors if not d.is_zero()]
        if not divisors:
            continue
        quots, rem = divide(f, divisors)
        recombined = rem
        for q, d in zip(quots, divisors):
            recombined = recombined + q * d
        assert recombined == f

        g = rand_poly(3, 4, 2)
        pt = tuple(rng.randrange(-3, 4) for _ in range(3))
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
        assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)

    basis = buchberger(build_generator_set("icosahedron"))
    for i in range(len(basis.polys)):
        for j in range(i + 1, len(basis.polys)):
            s = s_polynomial(basis.polys[i], basis.polys[j])
            assert basis.normal_form(s).is_zero()
    cert = certify_full(build_icosahedron(), build_generator_set("icosahedron"))
    assert [cert.quotient.cumulative(k) for k in range(4)] == affine_hilbert_by_evaluation(
        build_icosahedron(), 3
    )

    docs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run(["verify", "e8", "--sampled", "--seed", "7", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        doc.pop("timings")
        docs.append(json.dumps(doc))
    assert docs[0] == docs[1]
    _line(11, "division identity, evaluation homomorphism, S-poly reduction, Hilbert oracle, deterministic reports")
