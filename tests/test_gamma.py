"""Threshold scans against frozen counting values and known critical degrees."""

import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from idealforge import gamma
from idealforge.configs import (
    SphericalConfiguration,
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_icosahedron,
    build_knn,
    build_leech,
    build_ngon,
    read_points,
    write_points,
)
from idealforge.exact import RANK_PRIME, Echelon, Matrix, rank, rank_mod_p, to_mod_p
from idealforge.gamma import (
    EntryGuardError,
    evaluation_nullity,
    first_k_exceeding,
    gamma1_bounds,
    gamma1_exact,
    gamma2_status,
    gamma_profile,
    monomials_upto,
    rank_upper_bound,
    rk1,
    sign_classes,
    trivial_dimension,
)
from idealforge.generators import FAMILIES
from idealforge.poly import SparsePoly, nm_poly
from idealforge.verify import LEVEL_FULL_GROEBNER, LEVEL_PAPER

# dimension of degree <= k functions on the sphere: two binomial blocks,
# values recomputed by hand and frozen
RK1_FROZEN = {
    (24, 5): 115830,
    (24, 6): 573300,
    (8, 3): 156,
    (8, 4): 450,
    (6, 2): 27,
    (6, 3): 77,
}


def test_rk1_frozen_values():
    for (m, k), expect in RK1_FROZEN.items():
        assert rk1(m, k) == expect


def test_rk1_edge_cases_and_guards():
    assert rk1(1, 0) == 1
    assert rk1(1, 3) == 2
    assert rk1(3, 0) == 1
    with pytest.raises(ValueError):
        rk1(0, 2)
    with pytest.raises(ValueError):
        rk1(4, -1)


def test_rk1_strictly_increasing():
    for m in (2, 3, 6, 8, 24):
        vals = [rk1(m, k) for k in range(12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_first_k_exceeding_known_configs():
    assert first_k_exceeding(24, 196560) == 6
    assert first_k_exceeding(8, 240) == 4
    assert first_k_exceeding(7, 126) == 4
    assert first_k_exceeding(6, 72) == 3


def test_monomials_upto_counts_and_order():
    for m, k in [(2, 5), (3, 4), (6, 2)]:
        monos = monomials_upto(m, k)
        assert len(monos) == comb(m + k, m)
        assert len(set(monos)) == len(monos)
        degrees = [sum(a) for a in monos]
        assert degrees == sorted(degrees)


def test_trivial_dimension_plain():
    ico = build_icosahedron()
    assert trivial_dimension(ico, 0) == 0
    assert trivial_dimension(ico, 1) == 0
    assert trivial_dimension(ico, 2) == 1
    assert trivial_dimension(ico, 3) == comb(4, 3)


def test_trivial_dimension_embedded_counts_products_once():
    knn = build_knn(3)
    # the two block-sum forms themselves
    assert trivial_dimension(knn, 1) == 2
    # sphere polynomial + linear multiples, with the shared product L1*L2
    # counted a single time
    t2 = trivial_dimension(knn, 2)
    assert t2 == 1 + 2 * (knn.m + 1) - 1


def test_icosahedron_threshold():
    ico = build_icosahedron()
    assert gamma1_exact(ico) == 3
    assert gamma1_bounds(ico).interval == (3, 3)


def test_e6_threshold():
    e6 = build_e6()
    assert gamma1_exact(e6) == 3
    assert gamma1_bounds(e6).interval == (3, 3)


def test_e7_threshold_on_section_coordinates():
    e7 = build_e7()
    assert gamma1_bounds(e7).interval == (3, 4)
    assert gamma1_exact(e7) == 3


def test_e8_threshold():
    e8 = build_e8()
    assert gamma1_bounds(e8).interval == (4, 4)
    assert gamma1_exact(e8) == 4


def test_e8_evaluation_matrix_at_the_threshold():
    e8 = build_e8()
    ev = evaluation_nullity(e8, 4)
    assert (e8.npoints, ev.ncols) == (240, 495)
    assert ev.rank == 240
    assert ev.nullity == 255
    assert ev.nullity > trivial_dimension(e8, 4) == 45


def test_e8_threshold_needs_no_elimination_at_degree_4(monkeypatch):
    # 495 monomials of degree <= 4 against 240 points leave a kernel of at
    # least 255 > 45 trivial forms, so degree 4 is decided by counting
    degrees = []

    def recording(cfg, k, **kwargs):
        degrees.append(k)
        return evaluation_nullity(cfg, k, **kwargs)

    monkeypatch.setattr(gamma, "evaluation_nullity", recording)
    assert gamma1_exact(build_e8()) == 4
    assert degrees == [1, 2, 3]


def test_leech_interval_from_bounds():
    leech = build_leech()
    assert gamma1_exact(leech) == (6, 6)
    bounds = gamma1_bounds(leech)
    assert bounds.interval == (6, 6)
    assert bounds.lower.reason == "design strength t=11"
    reasons = [u.reason for u in bounds.uppers]
    assert any("antipodal" in r for r in reasons)
    assert any("573300" in r for r in reasons)


def test_point_set_named_like_a_lattice_declares_no_strength():
    # the 16 cube4 points under the name "e8": the strength belongs to the
    # built E8 configuration, not to its name
    cube = build_4cube()[0]
    X = SphericalConfiguration("e8", cube.r2, points=cube.points)
    bounds = gamma1_bounds(X)
    assert bounds.lower.value == 1
    assert bounds.lower.reason == "no design strength recorded"


def test_leech_entry_guard_trips():
    leech = build_leech()
    with pytest.raises(EntryGuardError):
        evaluation_nullity(leech, 2)


def test_ngon_thresholds():
    for n in (4, 6, 8):
        assert gamma1_exact(build_ngon(n)) == n // 2


def test_knn_threshold_modulo_linear_forms():
    for n in (2, 3, 4):
        knn = build_knn(n)
        assert gamma1_exact(knn) == 2
        lo, hi = gamma1_bounds(knn).interval
        assert lo <= 2 <= hi


def test_nullity_matches_trivial_below_threshold():
    cases = [
        (build_icosahedron(), 3),
        (build_e6(), 3),
        (build_ngon(6), 3),
        (build_knn(3), 2),
        (build_4cube()[0], 2),
    ]
    for cfg, threshold in cases:
        for k in range(1, threshold):
            ev = evaluation_nullity(cfg, k)
            assert ev.complete
            assert ev.nullity == trivial_dimension(cfg, k), (cfg.name, k)


def test_gamma2_status_levels():
    ico = build_icosahedron()
    certified = gamma2_status(ico, 3, certified=True)
    certified.gamma1 = 3
    assert certified.level == LEVEL_FULL_GROEBNER
    assert certified.equality == "yes"

    leech = build_leech()
    bounded = gamma2_status(leech, 6, certified=False)
    bounded.gamma1 = 6
    assert bounded.level == LEVEL_PAPER
    assert bounded.equality == "conditional"

    open_case = gamma2_status(ico, 3, certified=False)
    assert open_case.equality == "open"

    knn = build_knn(3)
    modl = gamma2_status(knn, 2, certified=True)
    modl.gamma1 = 2
    assert modl.to_dict()["modulo_linear_forms"] is True
    assert modl.equality == "yes"


def test_gamma_profile_serializes():
    prof = gamma_profile(build_icosahedron())
    d = prof.to_dict()
    json.dumps(d)
    assert d["gamma1"] == 3
    assert d["interval"] == [3, 3]
    assert sorted(d["rk1"]) == ["1", "2", "3"]
    assert d["rk1"]["3"] == rk1(3, 3)
    assert d["bounds"]["lower"]["reason"] == "design strength t=5"


def test_gamma_profile_leech_reports_pinned_value():
    prof = gamma_profile(build_leech())
    assert prof.gamma1 == 6
    assert prof.interval == (6, 6)
    assert prof.rk_table[5] == 115830
    assert prof.rk_table[6] == 573300


def exact_scan_gamma1(cfg):
    """Oracle: full exact rank of every evaluation matrix, degree by degree."""
    k = 1
    while True:
        monos = monomials_upto(cfg.m, k)
        M = Matrix([gamma._monomial_row(p, monos, k) for p in cfg.points])
        if len(monos) - rank(M) > trivial_dimension(cfg, k):
            return k
        k += 1


def test_gamma1_decided_without_exact_elimination(monkeypatch):
    # mod-p ranks meet the row-count, parity or trivial-kernel ceilings at
    # every degree, so no Fraction elimination runs
    def refuse(self, row):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(Echelon, "add_row", refuse)
    builders = (build_e7, build_e8, build_e6, build_icosahedron)
    assert [gamma1_exact(build()) for build in builders] == [3, 4, 3, 3]


def test_parity_bound_decides_e7_at_degree_3():
    e7 = build_e7()
    assert sign_classes(e7) == 63
    # 29 even and 91 odd monomials of degree <= 3 in 7 variables
    assert rank_upper_bound(e7, 3) == 29 + 63
    assert comb(10, 7) - rank_upper_bound(e7, 3) > trivial_dimension(e7, 3)


def test_parity_bound_counts_classes_from_the_points_not_the_flag():
    # ten rational points of the unit sphere (inverse stereographic images
    # of integer points), no two antipodal, so the set is not antipodal;
    # the sign classes are counted from the points: c = 5, as if they
    # paired up, would cap the degree-2 rank at 5 + 3 = 8 and claim a
    # nontrivial quadric, while the true rank is 9
    pts = []
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 1), (1, 3)]:
        s = a * a + b * b + 1
        pts.append((Fraction(2 * a, s), Fraction(2 * b, s), Fraction(s - 2, s)))
    cfg = SphericalConfiguration("sphere10", 1, points=pts)
    cfg.validate_norms()
    assert sign_classes(cfg) == 10
    assert rank_upper_bound(cfg, 2) == 10
    assert exact_scan_gamma1(cfg) == 3
    assert gamma1_exact(cfg) == 3


def test_leech_gamma1_never_lists_the_points(monkeypatch):
    leech = build_leech()

    def refuse(self):
        raise AssertionError("the exact point list was built")

    monkeypatch.setattr(SphericalConfiguration, "points", property(refuse))
    shapes = []
    rank_mod_p = gamma.rank_mod_p

    def recording(M):
        shapes.append(M.shape)
        return rank_mod_p(M)

    monkeypatch.setattr(gamma, "rank_mod_p", recording)
    assert gamma1_exact(leech) == (6, 6)
    # degree 1 is proven on a head of 2 * 25 points; degree 2 trips the guard
    assert shapes == [(50, 25)]


def test_denominator_divisible_by_p_needs_no_exact_elimination(monkeypatch):
    # the icosahedron shrunk by 1/p: its coordinates have no image mod p, but
    # the den-scaled rows do, so no denominator is inverted, every rank is
    # proven mod p, and ranks are unchanged
    ico = build_icosahedron()
    pts = [tuple(c * Fraction(1, RANK_PRIME) for c in x) for x in ico.points]
    r2 = ico.r2 / RANK_PRIME**2
    cfg = SphericalConfiguration("ico_over_p", r2, points=pts, field_d=5)

    def refuse(self, row):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(Echelon, "add_row", refuse)
    assert [evaluation_nullity(cfg, k).rank for k in range(4)] == [1, 4, 9, 12]


def test_den_free_rows_have_the_rank_of_to_mod_p_rows():
    # reference rows: every coordinate through exact.to_mod_p, denominators
    # inverted mod p; the den-scaled rows are den times them mod p, and must
    # give the same rank mod p
    for name, row in FAMILIES.items():
        if name == "leech":
            continue
        cfg = row.config(row.default_n)
        reference = np.array([[to_mod_p(c) for c in x] for x in cfg.points], dtype=np.int64)
        den_free = gamma._points_mod_p(cfg, None)
        assert np.array_equal(den_free, reference * (cfg.quad_array().den % RANK_PRIME) % RANK_PRIME)
        for k in range(1, 6):
            monos = monomials_upto(cfg.m, k)
            if cfg.npoints * len(monos) > gamma.ENTRY_GUARD:
                break
            got = rank_mod_p(gamma._monomial_matrix_mod_p(den_free, monos, k))
            want = rank_mod_p(gamma._monomial_matrix_mod_p(reference, monos, k))
            assert got == want, (cfg.name, k)


def test_points_mod_p_reduces_int8_rows_exactly():
    # p = 1047961 fits no int8, so a residue formed in the points' own
    # dtype would overflow; the residues are Python's x % p at the extremes
    X = np.array([[-128, 127, 0, -1], [127, -128, 5, 1], [-3, 4, -128, 127]], dtype=np.int8)
    cfg = SphericalConfiguration("edge", 1, array=X)
    expected = [[x % RANK_PRIME for x in row] for row in X.tolist()]
    assert gamma._points_mod_p(cfg, None).tolist() == expected
    assert gamma._points_mod_p(cfg, [2, 0]).tolist() == [expected[2], expected[0]]


def _trivial_dimension_by_elimination(cfg, k):
    # the exact rank of the Nm and linear-form multiples' coefficient rows
    m = cfg.m
    monos = monomials_upto(m, k)
    index = {mono: j for j, mono in enumerate(monos)}
    ech = Echelon(len(monos))

    def add_products(base, max_deg):
        for beta in monomials_upto(m, max_deg):
            row = [0] * len(monos)
            for mono, c in (base * SparsePoly(m, {beta: 1}, cfg.field_d)).terms.items():
                row[index[mono]] = c
            ech.add_row(row)

    if k >= 2:
        add_products(nm_poly(m, cfg.r2, cfg.field_d), k - 2)
    if k >= 1:
        for form in cfg.trivial_linear:
            add_products(SparsePoly.linear_form(form, cfg.field_d), k - 1)
    return ech.rank


@pytest.mark.parametrize(
    "name, n, kmax",
    [
        ("knn", 2, 5),
        ("knn", 3, 4),
        ("knn", 4, 3),
        ("knn", 5, 3),
        ("icosahedron", None, 5),
        ("e8", None, 5),
    ],
)
def test_trivial_dimension_closed_form_matches_elimination(name, n, kmax):
    cfg = FAMILIES[name].config(n)
    for k in range(kmax + 1):
        assert trivial_dimension(cfg, k) == _trivial_dimension_by_elimination(cfg, k), k


def test_gamma_of_a_point_file_reads_its_values_off_the_points(tmp_path):
    path = tmp_path / "ico.pts"
    write_points(build_icosahedron(), str(path))
    cfg = read_points(str(path))
    assert cfg.lattice is None and cfg.omegas == build_icosahedron().omegas
    assert gamma1_exact(cfg) == 3
    assert gamma_profile(cfg).to_dict()["interval"] == [3, 3]
    # and its antipodality off the points too
    assert cfg.antipodal
    prod = gamma1_bounds(cfg).uppers[0]
    assert (prod.value, prod.reason) == (3, "3 distinct inner products, antipodal")


@pytest.mark.parametrize(
    "name, n, antipodal",
    [
        ("icosahedron", None, True),
        ("e6", None, True),
        ("e7", None, True),
        ("e8", None, True),
        ("leech", None, True),
        ("cube4", None, True),
        ("ngon", 4, False),
        ("ngon", 6, False),
        ("ngon", 8, False),
    ],
)
def test_antipodality_is_read_off_each_configuration(name, n, antipodal):
    assert FAMILIES[name].config(n).antipodal is antipodal


def test_antipodality_is_no_constructor_option():
    with pytest.raises(TypeError):
        SphericalConfiguration("pair", 1, points=[(1,), (-1,)], antipodal=True)


def test_tetrahedron_gets_the_plain_product_bound():
    # no vertex of the regular tetrahedron has its negation in the set, so
    # the one inner product -1 bounds gamma1 by s + 1 = 2, which it meets
    pts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    cfg = SphericalConfiguration("tetrahedron", 3, points=pts)
    assert not cfg.antipodal
    prod = gamma1_bounds(cfg).uppers[0]
    assert (prod.value, prod.reason) == (2, "1 distinct inner products")
    assert gamma1_exact(cfg) == 2
    assert gamma_profile(cfg).to_dict()["interval"] == [2, 2]
