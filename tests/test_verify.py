"""Verification-pass tests: frozen design sums, Jacobian ranks, vanishing."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from idealforge import exact, lattice, verify
from idealforge.configs import (
    SphericalConfiguration,
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_icosahedron,
    build_leech,
    build_ngon,
    e7_defining_vectors,
    pair_distribution,
)
from idealforge.exact import (
    Echelon,
    FieldMismatchError,
    Quad,
    dot,
    independent_rows,
    int_product,
    quad_array,
    row_blocks,
    stride_order,
)
from idealforge.generators import (
    LABEL_NM,
    FactoredPoly,
    GeneratorSet,
    as_sparse,
    build_generator_set,
    restrict_to_section,
)
from idealforge.poly import SparsePoly, is_trivial, nm_poly
from idealforge.verify import (
    FAIL,
    PASS,
    SAMPLED,
    SKIPPED,
    ClaimRecord,
    DesignStrengthResult,
    MissingCheckError,
    _eval_vanishing,
    _exact_jacobian_rank,
    _generic_vanishing,
    assemble_certificate,
    check_gallery_vanishing,
    check_vanishing,
    design_strength_gegenbauer,
    design_strength_moments,
    gegenbauer_values,
    jacobian_full_pass,
    jacobian_rank_at,
    lattice_jacobian_rows,
    nontrivial_generator_check,
    section_embedding_check,
    spanning_check,
    sphere_moment,
    sphere_witness_point,
)


def series_gegenbauer(k, alpha, s):
    # explicit finite sum, independent of the recurrence under test
    total = 0
    for j in range(k // 2 + 1):
        rising = Fraction(1)
        for i in range(k - j):
            rising *= alpha + i
        coef = Fraction((-1) ** j) * rising / (factorial(j) * factorial(k - 2 * j))
        total = total + coef * (2 * s) ** (k - 2 * j)
    return total


# frozen pair-sum values, derived once from the explicit series and the
# per-point inner-product histograms
ICO_GLOBAL_K6 = Fraction(1584, 25)
E6_GLOBAL_K6 = Fraction(12096)
E7_GLOBAL_K6 = Fraction(257985, 8)
E8_GLOBAL_K8 = Fraction(1555200)


def test_gegenbauer_recurrence_matches_series():
    rng = random.Random(4101)
    for m in (3, 5, 8, 24):
        alpha = Fraction(m - 2, 2)
        for _ in range(6):
            s = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
            vals = gegenbauer_values(m, 9, s)
            for k in range(10):
                assert vals[k] == series_gegenbauer(k, alpha, s)


def test_gegenbauer_guards():
    with pytest.raises(ValueError):
        gegenbauer_values(2, 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        design_strength_gegenbauer(build_icosahedron(), 0)
    with pytest.raises(ValueError):
        design_strength_gegenbauer(build_ngon(4), 1)


def test_icosahedron_design_strength():
    cfg = build_icosahedron()
    res = design_strength_gegenbauer(cfg, 5)
    assert res.passed and res.per_point_ok and res.mode == "full"
    assert all(v == 0 for v in res.k_sums.values())

    res6 = design_strength_gegenbauer(cfg, 6)
    assert not res6.passed
    assert res6.first_failure() == 6
    assert res6.k_sums[6] == ICO_GLOBAL_K6


def test_e8_design_strength_and_failure():
    cfg = build_e8()
    res = design_strength_gegenbauer(cfg, 7)
    assert res.passed and res.base_count == 240

    res8 = design_strength_gegenbauer(cfg, 8)
    assert res8.first_failure() == 8
    assert res8.k_sums[8] == E8_GLOBAL_K8
    assert not res8.per_point_ok


def test_design_detail_names_sums_that_cancel_only_in_total():
    # base points whose own sums are nonzero but add up to zero: the total
    # alone would pass, so the detail says the sums vanish only in total
    res = DesignStrengthResult("x", 2, "sampled", {1: 0, 2: 0}, False, True, 2, None)
    assert not res.passed and res.first_failure() is None
    assert res.detail() == "pair sums zero for k = 1..2 over 2 base points in total, not at each"


def test_design_sums_match_a_row_by_row_loop():
    # point 0 moved onto point 1: the histogram rows no longer all agree, and
    # summing each distinct row once must give the sums of every row
    e8 = build_e8()
    pts = list(e8.points)
    pts[0] = pts[1]
    X = SphericalConfiguration("e8", e8.r2, points=pts)
    counts = pair_distribution(X).counts
    assert 1 < len(np.unique(counts, axis=0)) < len(counts)
    table = [gegenbauer_values(8, 7, Fraction(w) / X.r2) for w in X.omegas]
    sums = {
        k: [sum(int(c) * ck[k] for c, ck in zip(row, table)) for row in counts]
        for k in range(1, 8)
    }
    res = design_strength_gegenbauer(X, 7)
    assert res.k_sums == {k: sum(row_sums) for k, row_sums in sums.items()}
    assert res.per_point_ok == all(v == 0 for row_sums in sums.values() for v in row_sums)
    assert not res.per_point_ok


def test_e7_design_strength():
    res = design_strength_gegenbauer(build_e7(), 5)
    assert res.passed
    res6 = design_strength_gegenbauer(build_e7(), 6)
    assert res6.k_sums[6] == E7_GLOBAL_K6


def test_e6_design_strength():
    res = design_strength_gegenbauer(build_e6(), 5)
    assert res.passed
    res6 = design_strength_gegenbauer(build_e6(), 6)
    assert res6.k_sums[6] == E6_GLOBAL_K6


def test_leech_design_strength_sampled():
    res = design_strength_gegenbauer(build_leech(), 11, mode="sampled")
    assert res.mode == "sampled"
    assert res.base_count == 64
    assert res.passed


def test_moments_e8():
    checked, failures = design_strength_moments(build_e8(), 7)
    assert checked == 6435
    assert failures == []


def test_moments_icosahedron():
    checked, failures = design_strength_moments(build_icosahedron(), 5)
    assert checked == 56
    assert failures == []
    _, fail6 = design_strength_moments(build_icosahedron(), 6)
    assert fail6 and sum(fail6[0][0]) == 6


def test_moments_guard():
    with pytest.raises(ValueError):
        design_strength_moments(build_leech(), 2)
    # sanity on the sphere-average formula itself
    assert sphere_moment(3, (2, 0, 0)) == Fraction(1, 3)
    assert sphere_moment(3, (1, 1, 0)) == 0
    assert sphere_moment(4, (2, 2, 0, 0)) == Fraction(1, 24)


def test_vanishing_small_full():
    for name in ("icosahedron", "e6", "e7", "ngon", "knn"):
        rec = check_vanishing(build_generator_set(name))
        assert rec.passed, (name, rec.witnesses)
        assert rec.witnesses == []


def test_vanishing_cube4_and_gallery():
    G = build_generator_set("cube4")
    assert check_vanishing(G).passed
    _, cell = build_4cube()
    rec = check_gallery_vanishing(G, cell)
    assert rec.passed and "24 gallery points" in rec.detail


def test_vanishing_e8_structured_full():
    G = build_generator_set("e8")
    rec = check_vanishing(G)
    assert rec.passed and "240 points" in rec.detail
    # given points take the same pass
    sub = check_vanishing(G, points=G.config.points[:24])
    assert sub.passed


def test_vanishing_leech_sampled(monkeypatch):
    # the configuration's own points are answered in full by the build's
    # value-set proof, with no pair product
    G = build_generator_set("leech")
    shapes = _record_products(monkeypatch)
    rec = check_vanishing(G)
    assert rec.passed and rec.mode == "full"
    assert rec.detail == "2260441 generators x 196560 points by the lattice value set"
    assert shapes == []


def _record_products(monkeypatch):
    """The (A, B) shapes of every ``int_product`` call of the vanishing and membership passes."""
    shapes = []

    def recording(A, B):
        shapes.append((A.shape, B.shape))
        return int_product(A, B)

    monkeypatch.setattr(verify, "int_product", recording)
    monkeypatch.setattr(lattice, "int_product", recording)
    return shapes


def test_leech_point_list_takes_no_product_against_the_representatives(monkeypatch):
    # 16,384 file points are checked by norm and lattice membership: every
    # product is the m x m membership matrix against a block of points, none
    # is formed against the 98,280 representatives
    G = build_generator_set("leech")
    pts = [G.config.point(i) for i in range(16384)]
    shapes = _record_products(monkeypatch)
    rec = check_vanishing(G, points=pts)
    assert rec.passed and rec.detail == "2260441 generators x 16384 points"
    assert shapes and all(a == (24, 24) and b[0] == 24 for a, b in shapes)


def test_pair_set_points_beyond_int64_take_the_exact_loop():
    G = build_generator_set("e8")
    pts = [G.config.points[0], (2**70,) + (0,) * 7]
    expected = _eval_vanishing(G, pts)
    assert expected and all(w[1] == 1 for w in expected)
    rec = check_vanishing(G, points=pts)
    assert rec.witnesses == expected and rec.detail.endswith("exact evaluation")


def test_pair_set_refuses_irrational_points():
    G = build_generator_set("e8")
    with pytest.raises(FieldMismatchError):
        check_vanishing(G, points=[(Quad(0, 1, 2),) + (0,) * 7])


def test_vanishing_names_a_representative_off_the_shell():
    # 2*e1 has norm 4, not r2 = 2, yet its inner products with the roots are
    # 0, +-1 and +-2 = +-r2, all accepted values: only the norm of the
    # representative shows that a.x = r2 no longer forces x = a
    G = build_generator_set("e8")
    G.pair_reps = G.pair_reps.copy()
    G.pair_reps[5] = [4, 0, 0, 0, 0, 0, 0, 0]
    rec = check_vanishing(G)
    assert rec.status == FAIL
    assert rec.witnesses == [("pair5", "norm", 16)]


def test_vanishing_names_a_point_off_the_sphere():
    # the origin meets every representative at 0, an interior root, so only
    # its squared norm shows that it is no zero of the sphere polynomial
    G = build_generator_set("e8")
    arr, _ = G.config.integer_array()
    arr[3] = 0
    rec = check_vanishing(G)
    assert rec.status == FAIL
    assert rec.witnesses == [("NM", 3, 0)]


def test_vanishing_names_points_outside_the_lattice():
    # (1, 1/2, 1/2, 1/2, 1/2, 0, 0, 0) has norm 2 but mixes integer and
    # half-integer coordinates, so it lies outside E8: the value-set proof
    # does not cover it, as a point or as a representative
    G = build_generator_set("e8")
    stray = [2, 1, 1, 1, 1, 0, 0, 0]
    arr, _ = G.config.integer_array()
    saved = arr[0].copy()
    arr[0] = stray
    assert check_vanishing(G).witnesses == [("outside-lattice", 0)]
    arr[0] = saved
    G.pair_reps = G.pair_reps.copy()
    G.pair_reps[5] = stray
    assert check_vanishing(G).witnesses == [("pair5", "outside-lattice")]


def test_point_blocks_leave_passes_and_witnesses_unchanged(monkeypatch):
    # two points moved off E8 but kept on the shell: the snapshot comparison
    # and the membership pass, run over row blocks of 1 and 7 rows (a budget
    # of that many rows of m entries), name the same two
    G = build_generator_set("e8")
    whole = [check_vanishing(G).witnesses, jacobian_full_pass(G).witnesses]
    assert whole == [[], []]
    arr, _ = G.config.integer_array()
    saved = arr.copy()
    arr[200] = arr[37] = [2, 1, 1, 1, 1, 0, 0, 0]
    whole = [check_vanishing(G).witnesses, jacobian_full_pass(G).witnesses]
    assert whole[0] == whole[1] == [("outside-lattice", 37), ("outside-lattice", 200)]
    steps = []

    def recording(nrows, width):
        blocks = list(row_blocks(nrows, width))
        steps.append(blocks[0].stop)
        return blocks

    monkeypatch.setattr(lattice, "row_blocks", recording)
    for size in (1, 7):
        monkeypatch.setattr(exact, "ENTRIES", size * G.nvars)
        assert [check_vanishing(G).witnesses, jacobian_full_pass(G).witnesses] == whole
    assert steps == [1, 1, 7, 7]  # one membership pass per check
    arr[:] = saved
    assert check_vanishing(G).passed and jacobian_full_pass(G).passed


def test_leech_vanishing_and_jacobian_stay_below_one_copy_of_the_points():
    # the snapshot comparison runs in row blocks: neither pass forms an
    # array the size of the 196,560 x 24 int8 points (4.7 MB)
    G = build_generator_set("leech")
    for check in (check_vanishing, jacobian_full_pass):
        tracemalloc.start()
        try:
            assert check(G).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak < 196560 * 24, (check.__name__, peak)


def test_vanishing_perturbed_point_fails():
    G = build_generator_set("icosahedron")
    pts = [list(p) for p in G.config.points]
    pts[3][0] = pts[3][0] + 1
    rec = check_vanishing(G, points=[tuple(p) for p in pts])
    assert rec.status == FAIL
    assert rec.witnesses and rec.witnesses[0][1] == 3


def test_vanishing_corrupted_array_fails():
    G = build_generator_set("e8")
    arr, den = G.config.integer_array()
    arr[0, 0] += 2 * den
    rec = check_vanishing(G)
    assert rec.status == FAIL
    assert rec.witnesses


def test_vanishing_needs_both_parts_of_a_quadratic_value():
    # x - sqrt(2) at (0, 0) is -sqrt(2): rational part 0, no zero
    root2 = Quad(0, 1, 2)
    gens = [("F", FactoredPoly(2, [((1, 0), root2)])), ("G", FactoredPoly(2, [((0, 1), 0)]))]
    pts = [(root2, 0), (0, 0), (0, root2)]
    expected = [("F", 1, "-sqrt(2)"), ("F", 2, "-sqrt(2)"), ("G", 2, "sqrt(2)")]
    assert _generic_vanishing(gens, pts) == expected
    assert _generic_vanishing(gens, pts) == _eval_vanishing(gens, pts)


def test_vanishing_beyond_int64_takes_the_exact_loop():
    G = build_generator_set("icosahedron")
    pts = list(G.config.points)
    pts[4] = (2**70, 0, 0)
    with pytest.raises(ArithmeticError):
        quad_array(pts)
    expected = _eval_vanishing(G, pts)
    assert expected and all(w[1] == 4 for w in expected)
    assert _generic_vanishing(G, pts) == expected
    assert check_vanishing(G, points=pts).witnesses == expected


@pytest.mark.parametrize("name", ["icosahedron", "e6", "e7", "ngon", "knn", "cube4"])
def test_vanishing_product_agrees_with_the_exact_loop(name):
    G = build_generator_set(name)
    pts = list(verify._eval_points(G))
    assert _generic_vanishing(G, pts) == [] == _eval_vanishing(G, pts)
    pts[1] = tuple(2 * x for x in pts[1])
    pts[2] = (pts[2][0] + 1,) + tuple(pts[2][1:])
    moved = _eval_vanishing(G, pts)
    assert moved and _generic_vanishing(G, pts) == moved
    assert _generic_vanishing(G, pts, max_witnesses=2) == moved[:2]


@pytest.mark.parametrize("name", ["icosahedron", "e6", "e7", "e7-section"])
def test_jacobian_proves_rank_mod_p_without_elimination(name, monkeypatch):
    if name == "e7-section":
        G = restrict_to_section(build_generator_set("e7"), build_e7().section)
    else:
        G = build_generator_set(name)

    def refuse(self, row):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(Echelon, "add_row", refuse)
    rec = jacobian_full_pass(G)
    assert rec.passed and rec.witnesses == []


@pytest.mark.parametrize("name", ["icosahedron", "e6", "e7"])
def test_rank_mod_p_rows_do_not_depend_on_the_product_dtype(name, monkeypatch):
    # _full_rank_mod_p forms prefix and suffix products up to p^2 ~ 2^40
    # from int_product's result, so only an explicit int64 upcast keeps them
    # exact whatever dtype the product comes in: an int64 product and an
    # int32 one reduced mod p (same residues) give the same rows and mask
    G = build_generator_set(name)
    pts = list(verify._eval_points(G))
    p = exact.RANK_PRIME

    def rows_and_mask(product):
        seen = []

        def recording(M):
            seen.append(np.mod(M.astype(np.int64), p))
            return exact.rank_mod_p(M)

        monkeypatch.setattr(verify, "rank_mod_p", recording)
        monkeypatch.setattr(verify, "int_product", product)
        return verify._full_rank_mod_p(G, pts), seen

    mask, rows = rows_and_mask(int_product)
    assert mask.all() and len(rows) == len(pts)
    for product in (
        lambda A, B: int_product(A, B).astype(np.int64),
        lambda A, B: (int_product(A, B).astype(np.int64) % p).astype(np.int32),
    ):
        again, again_rows = rows_and_mask(product)
        assert np.array_equal(again, mask)
        assert all(np.array_equal(a, b) for a, b in zip(again_rows, rows, strict=True))


def test_jacobian_falls_back_to_the_exact_rank(monkeypatch):
    full = build_generator_set("icosahedron")
    # Nm and three sliced cubics: rank 2 at points 4 and 10, (0, 1, -phi) and
    # its negation, as the plain exact elimination over every point finds
    G = GeneratorSet(full.config, 3, full.items[:4])
    expected = [(4, 2), (10, 2)]
    ranks = [_exact_jacobian_rank(G, x) for x in full.config.points]
    assert [(i, r) for i, r in enumerate(ranks) if r != 3] == expected
    assert jacobian_full_pass(G).witnesses == expected
    monkeypatch.setattr(verify, "rank_mod_p", lambda M: M.shape[1] - 1)
    assert jacobian_full_pass(G).witnesses == expected
    assert jacobian_full_pass(full).passed


def test_jacobian_icosahedron():
    G = build_generator_set("icosahedron")
    for pt in G.config.points:
        assert jacobian_rank_at(G, pt) == 3
    assert jacobian_full_pass(G).passed
    with pytest.raises(ValueError):
        jacobian_rank_at(G, G.config.points[0], method="closed_form")


def test_jacobian_e8():
    G = build_generator_set("e8")
    rec = jacobian_full_pass(G)
    assert rec.passed and "240" in rec.detail
    rng = random.Random(88)
    for idx in rng.sample(range(240), 5):
        pt = G.config.points[idx]
        assert jacobian_rank_at(G, pt, method="closed_form") == 8
        assert jacobian_rank_at(G, pt, method="symbolic") == 8
        closed = lattice_jacobian_rows(G, pt, "closed_form")
        assert lattice_jacobian_rows(G, pt, "symbolic") == closed


def _base_points(G):
    """The 2m points +-C, in configuration units: the points the rows over C' cover."""
    base, _ = verify._lattice_bases(G)
    den = G.config.integer_array()[1]
    reps = [G.pair_reps[i].tolist() for i in base]
    return [tuple(Fraction(s * v, den) for v in c) for c in reps for s in (1, -1)]


def _check_second_base_rows(G, pts):
    # at +-c the base vector c meets the point at r2, no interior root, so
    # rows over C would raise: these are the C' rows the m x m check vouches for
    for pt in pts:
        rows = lattice_jacobian_rows(G, pt, "closed_form")
        assert lattice_jacobian_rows(G, pt, "symbolic") == rows
        assert len(independent_rows(rows, G.nvars)) == G.nvars
        assert jacobian_rank_at(G, pt, method="symbolic") == G.nvars


def test_jacobian_rows_at_the_e8_base_points():
    G = build_generator_set("e8")
    pts = _base_points(G)
    assert len(pts) == 16
    _check_second_base_rows(G, pts)


def test_jacobian_rows_at_leech_base_points():
    G = build_generator_set("leech")
    pts = _base_points(G)
    assert len(pts) == 48
    _check_second_base_rows(G, random.Random(24).sample(pts, 4))


def test_jacobian_rank_at_refuses_a_point_the_bases_miss():
    # at the origin every c.x is the root 0 but no slicing vector sees x
    G = build_generator_set("e8")
    with pytest.raises(ArithmeticError):
        jacobian_rank_at(G, (0,) * 8)


def test_jacobian_names_point_moved_off_shell():
    # the premises of the value-set proof name the point before any base
    # vector is read
    G = build_generator_set("e8")
    arr, den = G.config.integer_array()
    arr[37, 0] += 1  # half a unit: off the shell, off every interior root
    rec = jacobian_full_pass(G)
    assert rec.status == FAIL
    assert rec.witnesses[0] == ("NM", 37, 9)
    # the origin meets every base vector at the interior root 0, but no
    # complement vector sees it
    arr[37] = 0
    rec = jacobian_full_pass(G)
    assert rec.status == FAIL
    assert rec.witnesses[0] == ("NM", 37, 0)


def test_jacobian_second_base_sees_exactly_the_pairs():
    # a plain product of every point with both bases: every c.x is interior
    # or +-r2, the points meeting the first base at +-r2 are exactly +-C, and
    # the second base meets them only in interior roots, as the m x m check
    # C C'^T in the pass assumes
    G = build_generator_set("e8")
    arr, den = G.config.integer_array()
    reps, m = G.pair_reps, G.nvars
    interior = [w * den * den for w in G.config.lattice.values]
    extreme = int(G.config.r2 * den * den)
    base = independent_rows(reps, m)
    second = independent_rows(reps, m, skip=base)
    assert len(base) == len(second) == m and not set(base) & set(second)
    V = arr @ reps[base].T
    hit = np.abs(V) == extreme
    assert (np.isin(V, interior) | hit).all()
    paired = hit.any(axis=1)
    on_c = {tuple(s * v) for v in reps[base] for s in (1, -1)}
    assert {tuple(x) for x in arr[paired]} == on_c and paired.sum() == 2 * m
    assert np.isin(arr[paired] @ reps[second].T, interior).all()
    assert jacobian_full_pass(G).passed


def test_jacobian_leech_forms_no_product_against_the_points(monkeypatch):
    G = build_generator_set("leech")
    m = G.nvars
    shapes = []

    def small(A, B):
        assert A.shape[0] <= m and B.shape[0] <= m, "a product against the points"
        shapes.append((A.shape, B.shape))
        return int_product(A, B)

    monkeypatch.setattr(verify, "int_product", small)
    rec = jacobian_full_pass(G)
    assert rec.passed and "196560 points" in rec.detail
    assert shapes == [((m, m), (m, m))]


def test_jacobian_names_a_second_base_vector_equal_to_a_first():
    # the copy stays in the lattice on the shell, so vanishing still holds,
    # but the points +-c meet it at r2, where its rows vanish
    G = build_generator_set("e8")
    G.pair_reps = reps = G.pair_reps.copy()
    m = G.nvars
    base = independent_rows(reps, m)
    second = independent_rows(reps, m, skip=base)
    reps[second[0]] = reps[base[0]]
    assert check_vanishing(G).passed
    rec = jacobian_full_pass(G)
    assert rec.status == FAIL
    assert rec.witnesses == [("second-base", f"pair{base[0]}", f"pair{second[0]}", 8)]


def test_independent_rows_leech_stride_reaches_full_rank_at_once():
    reps = build_generator_set("leech").pair_reps
    assert independent_rows(reps, 24) == list(itertools.islice(stride_order(len(reps)), 24))


def test_jacobian_e7_section():
    G = restrict_to_section(build_generator_set("e7"), build_e7().section)
    rec = jacobian_full_pass(G)
    assert rec.passed, rec.witnesses
    assert "126 points" in rec.detail


def test_jacobian_e6_section():
    G = build_generator_set("e6")
    rec = jacobian_full_pass(G)
    assert rec.passed, rec.witnesses
    assert "72 points" in rec.detail


def test_jacobian_leech_samples():
    G = build_generator_set("leech")
    rng = random.Random(7)
    pts = G.config.points
    for idx in rng.sample(range(len(pts)), 4):
        closed = lattice_jacobian_rows(G, pts[idx], "closed_form")
        assert lattice_jacobian_rows(G, pts[idx], "symbolic") == closed
        assert jacobian_rank_at(G, pts[idx], method="closed_form") == 24


def test_jacobian_ngon_knn():
    for name, m in (("ngon", 2), ("knn", 6)):
        G = build_generator_set(name)
        rec = jacobian_full_pass(G)
        assert rec.passed, (name, rec.witnesses)
        for pt in G.config.points[:3]:
            assert jacobian_rank_at(G, pt) == m


def test_spanning_and_sections():
    for build in (build_icosahedron, build_e8, build_e7, build_e6, build_leech):
        assert spanning_check(build()).passed
    assert section_embedding_check(build_e7()).passed
    assert section_embedding_check(build_e6()).passed
    assert section_embedding_check(build_icosahedron()).status == SKIPPED


def test_nontrivial_generators():
    for name, degree in (
        ("icosahedron", 3),
        ("e7", 3),
        ("e6", 3),
        ("e8", 4),
        ("leech", 6),
    ):
        rec = nontrivial_generator_check(build_generator_set(name), degree)
        assert rec.passed, name
        assert "witness generator" in rec.detail


@pytest.mark.parametrize("name", ["icosahedron", "e7", "e6", "e8"])
def test_sphere_witness_agrees_with_division(name):
    # a generator nonzero at the witness point is no multiple of Nm
    G = build_generator_set(name)
    w = sphere_witness_point(G)
    assert dot(w, w) == G.config.r2
    nm = nm_poly(G.nvars, G.config.r2)
    nonzero = [(label, p) for label, p in G.items if p.eval(w) != 0]
    assert nonzero
    for label, p in nonzero:
        assert not is_trivial(as_sparse(p), nm), label


def test_nontrivial_rejects_a_cubic_trivial_on_the_e7_section():
    # (Y7 - Y8) vanishes on the section hyperplane, so this cubic is trivial there
    cfg = build_e7()
    b = e7_defining_vectors()[0]
    cubic = FactoredPoly(8, [((0,) * 6 + (1, -1), 0), (b, 0), (b, 0)])
    items = [(LABEL_NM, nm_poly(8, cfg.r2)), ("CUBIC 0", cubic)]
    G = GeneratorSet(cfg, 8, items)
    assert nontrivial_generator_check(G, 3).status == FAIL


def test_nontrivial_rejects_multiples_of_nm():
    cfg = build_e8()
    nm = nm_poly(8, cfg.r2)
    y1, y2 = SparsePoly.variable(8, 1), SparsePoly.variable(8, 2)
    for multiple in (nm * y1, nm * y1 * y2):
        G = GeneratorSet(cfg, 8, [("SLICED 0", multiple)])
        assert nontrivial_generator_check(G, multiple.degree()).status == FAIL


def test_certificate_assembly_e8():
    G = build_generator_set("e8")
    components = {
        "vanishing": check_vanishing(G),
        "jacobian": jacobian_full_pass(G),
        "nontrivial": nontrivial_generator_check(G, 4),
        "support.spanning": spanning_check(G.config),
    }
    design = design_strength_gegenbauer(G.config, 7)
    report = assemble_certificate(G.config, 4, components, design)
    ids = [r.claim_id for r in report.records]
    assert ids == ["thmE8.i", "thmE8.ii", "thmE8.iii", "thmE8.iv", "design.E8.t7"]
    assert report.passed
    assert report.certificate_level == "PAPER_CERTIFICATE"
    payload = json.dumps(report.to_dict())
    assert "thmE8.iv" in payload

    upgraded = assemble_certificate(G.config, 4, components, design, groebner_certified=True)
    assert upgraded.certificate_level == "FULL_GROEBNER"


def test_certificate_detail_says_when_the_degree_misses_the_bound():
    # strength 7 forces degree >= 4 on e8; a top degree of 5 fails part iii,
    # and its detail must not claim that the degree meets the bound
    e8 = build_e8()
    components = {
        "vanishing": ClaimRecord("e8.vanishing", PASS),
        "jacobian": ClaimRecord("e8.jacobian", PASS),
        "nontrivial": ClaimRecord("e8.nontrivial-degree-5", PASS),
    }
    design = design_strength_gegenbauer(e8, 7)
    iii = assemble_certificate(e8, 5, components, design).find("thmE8.iii")
    assert iii.status == FAIL
    assert iii.detail == "strength 7 forces degree >= 4; the generators' top degree 5 misses it"
    met = assemble_certificate(e8, 4, components, design).find("thmE8.iii")
    assert met.status == PASS
    assert met.detail == "strength 7 forces degree >= 4; non-trivial generator of degree 4 meets it"
    components["nontrivial"] = ClaimRecord("e8.nontrivial-degree-4", FAIL)
    unmet = assemble_certificate(e8, 4, components, design).find("thmE8.iii")
    assert unmet.status == FAIL
    assert "meets" not in unmet.detail
    # part iv names every part it rests on that fails
    components["jacobian"] = ClaimRecord("e8.jacobian", FAIL)
    iv = assemble_certificate(e8, 4, components, design).find("thmE8.iv")
    assert iv.status == FAIL
    assert iv.detail == "ideal generated in degree <= 4 at level PAPER_CERTIFICATE; fails on parts ii, iii"


def test_certificate_missing_component():
    G = build_generator_set("icosahedron")
    with pytest.raises(MissingCheckError):
        assemble_certificate(
            G.config,
            3,
            {"vanishing": check_vanishing(G)},
            design_strength_gegenbauer(G.config, 5),
        )


def test_certificate_sampled_mode_sticks():
    vanish = ClaimRecord("leech.vanishing", PASS, SAMPLED, detail="sampled run")
    components = {
        "vanishing": vanish,
        "jacobian": ClaimRecord("leech.jacobian", PASS),
        "nontrivial": ClaimRecord("leech.nontrivial-degree-6", PASS),
    }
    leech = build_leech()
    design = design_strength_gegenbauer(leech, 11, mode="sampled")
    report = assemble_certificate(leech, 6, components, design)
    assert report.find("thmLeech.i").mode == "sampled"
    assert report.find("thmLeech.iv").mode == "sampled"
    assert report.find("design.Leech.t11").mode == "sampled"
