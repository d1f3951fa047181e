"""Threshold scans against frozen counting values and known critical degrees."""

import json
from math import comb

import pytest

from idealforge import gamma
from idealforge.configs import (
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_icosahedron,
    build_knn,
    build_leech,
    build_ngon,
)
from idealforge.gamma import (
    EntryGuardError,
    evaluation_nullity,
    first_k_exceeding,
    gamma1_bounds,
    gamma1_exact,
    gamma2_status,
    gamma_profile,
    monomials_upto,
    rk1,
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
