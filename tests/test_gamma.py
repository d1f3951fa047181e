"""Threshold scans against frozen counting values and known critical degrees."""

import json
from fractions import Fraction
from math import comb

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
)
from idealforge.exact import RANK_PRIME, Echelon, Matrix, dot, rank
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


def test_gamma1_exact_low_kmax_is_inconclusive():
    assert gamma1_exact(build_e6(), kmax=2) is None


def test_gamma2_status_levels():
    ico = build_icosahedron()
    certified = gamma2_status(ico, 3, certified=True, gamma1=3)
    assert certified.level == LEVEL_FULL_GROEBNER
    assert certified.equality == "yes"

    leech = build_leech()
    bounded = gamma2_status(leech, 6, certified=False, gamma1=6)
    assert bounded.level == LEVEL_PAPER
    assert bounded.equality == "conditional"

    open_case = gamma2_status(ico, 3, certified=False, gamma1=None)
    assert open_case.equality == "open"

    knn = build_knn(3)
    modl = gamma2_status(knn, 2, certified=True, gamma1=2)
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
    # of integer points), no two antipodal, flagged antipodal all the same;
    # c = 5 read off the flag would cap the degree-2 rank at 5 + 3 = 8 and
    # claim a nontrivial quadric, while the true rank is 9
    pts = []
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 1), (1, 3)]:
        s = a * a + b * b + 1
        pts.append((Fraction(2 * a, s), Fraction(2 * b, s), Fraction(s - 2, s)))
    values = sorted({dot(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]}, reverse=True)
    cfg = SphericalConfiguration("sphere10", 3, 1, [1] + values, points=pts, antipodal=True)
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


def test_denominator_divisible_by_p_falls_back_to_exact_elimination(monkeypatch):
    # the icosahedron shrunk by 1/p: its coordinates have no image mod p,
    # so every rank comes from the exact Echelon, and ranks are unchanged
    ico = build_icosahedron()
    pts = [tuple(c * Fraction(1, RANK_PRIME) for c in x) for x in ico.points]
    r2 = ico.r2 / RANK_PRIME**2
    cfg = SphericalConfiguration("ico_over_p", 3, r2, None, points=pts, field_d=5)
    rows = []
    add_row = Echelon.add_row

    def counting(self, row):
        rows.append(row)
        return add_row(self, row)

    monkeypatch.setattr(Echelon, "add_row", counting)
    assert [evaluation_nullity(cfg, k).rank for k in range(4)] == [1, 4, 9, 12]
    assert len(rows) == 4 * 12
