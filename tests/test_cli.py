"""Exit codes, report schema, and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from idealforge import cli, verify
from idealforge.cli import EXIT_CHECK, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, run
from idealforge.configs import SphericalConfiguration, read_points
from idealforge.generators import FactoredPoly, build_generator_set

TOP_KEYS = ["config", "mode", "claims", "gamma", "design", "counts", "timings"]

# reports with `timings` removed, and the files the runs write (named by a
# relative `--*-out` argument); a change to how the command line runs its
# stages must reproduce them byte for byte
GOLDEN = Path(__file__).parent / "data"
GOLDEN_RUNS = {
    "report_icosahedron": ["report", "icosahedron"],
    "report_e6": ["report", "e6"],
    "report_e7": ["report", "e7"],
    "report_ngon6": ["report", "ngon", "--n", "6"],
    "report_knn3": ["report", "knn", "--n", "3"],
    "report_cube4": ["report", "cube4"],
    "verify_e8_sampled7": ["verify", "e8", "--sampled", "--seed", "7"],
    "report_leech_sampled2": ["report", "leech", "--sampled", "--seed", "2"],
    "build_e6": ["build", "e6", "--generators-out", "build_e6.generators.txt"],
    "groebner_e7": ["groebner", "e7", "--basis-out", "groebner_e7.basis.txt"],
    "gamma_e8": ["gamma", "e8"],
    "gamma_leech": ["gamma", "leech"],
    "report_e8": ["report", "e8"],
    "enumerate_e8": ["enumerate", "e8"],
    "groebner_icosahedron": ["groebner", "icosahedron", "--basis-out", "groebner_icosahedron.basis.txt"],
    "build_icosahedron": ["build", "icosahedron", "--generators-out", "build_icosahedron.generators.txt"],
    "build_cube4": ["build", "cube4", "--generators-out", "build_cube4.generators.txt"],
    "build_leech": ["build", "leech"],
}


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_gamma_ngon6_text_line(capsys):
    assert run(["gamma", "ngon", "--n", "6", "--format", "text"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "gamma.ngon6.gamma1 = 3" in lines
    assert all(" = " in line for line in lines)


def test_report_schema_keys(tmp_path):
    code, doc = run_json(["verify", "icosahedron"], tmp_path)
    assert code == EXIT_OK
    assert list(doc) == TOP_KEYS
    for claim in doc["claims"]:
        assert {"id", "status", "mode"} <= set(claim)


def test_verify_e8_full_theorem_claims(tmp_path):
    code, doc = run_json(["verify", "e8", "--full"], tmp_path)
    assert code == EXIT_OK
    statuses = {c["id"]: c["status"] for c in doc["claims"]}
    for part in ("i", "ii", "iii", "iv"):
        assert statuses[f"thmE8.{part}"] == "pass"
    assert statuses["design.E8.t7"] == "pass"
    assert all(c["mode"] == "full" for c in doc["claims"])


def test_verify_sampled_labels(tmp_path):
    # part i is full by the lattice value-set proof; the design pass samples,
    # and part iv rests on it
    code, doc = run_json(["verify", "e8", "--sampled", "--seed", "7"], tmp_path)
    assert code == EXIT_OK
    assert doc["mode"] == "sampled"
    modes = {c["id"]: c["mode"] for c in doc["claims"]}
    assert modes["thmE8.i"] == "full"
    assert modes["thmE8.iii"] == modes["thmE8.iv"] == modes["design.E8.t7"] == "sampled"
    assert doc["design"]["mode"] == "sampled"


def test_sampled_flag_samples_only_the_design_pass(tmp_path):
    # e7 vanishing evaluates all 126 points under --sampled, so part i is
    # full; the design pass samples, and parts iii and iv rest on it
    code, doc = run_json(["verify", "e7", "--sampled"], tmp_path)
    assert code == EXIT_OK
    modes = {c["id"]: c["mode"] for c in doc["claims"]}
    assert modes["thmE7.i"] == "full"
    assert modes["thmE7.iii"] == modes["thmE7.iv"] == modes["design.E7.t5"] == "sampled"


def test_usage_errors_exit_64():
    for argv in (
        ["verify", "dodecahedron"],
        ["gamma", "e8", "--n", "5"],
        ["verify", "e8", "--threads", "0"],
        ["enumerate", "e8", "--threads", "0"],
        ["report", "icosahedron", "--budget", "-5"],
        ["groebner", "knn", "--budget", "0"],
        ["verify", "e8", "--full", "--sampled"],
        ["groebner", "leech"],
        ["enumerate", "ngon"],
        ["build", "ngon", "--n", "7"],
        [],
    ):
        assert run(argv) == EXIT_USAGE, argv


def test_point_file_roundtrip_passes(tmp_path):
    # e7 files hold 7 section coordinates; its generators take the 8 ambient ones
    for name, count in (("icosahedron", 12), ("e7", 126)):
        pts = tmp_path / f"{name}.pts"
        assert run(["build", name, "--points-out", str(pts), "--out", str(tmp_path / "b.json")]) == EXIT_OK
        assert read_points(str(pts)).npoints == count
        code, doc = run_json(["verify", name, "--points", str(pts)], tmp_path)
        assert code == EXIT_OK, doc["claims"]


def test_point_file_reports_only_what_it_checked(tmp_path):
    # one icosahedron point: the vanishing check on it is the only claim
    pts = tmp_path / "ico.pts"
    run(["build", "icosahedron", "--points-out", str(pts), "--out", str(tmp_path / "b.json")])
    one = tmp_path / "one.pts"
    one.write_text("\n".join(pts.read_text().splitlines()[:2]) + "\n")
    code, doc = run_json(["verify", "icosahedron", "--points", str(one)], tmp_path)
    assert code == EXIT_OK
    assert [(c["id"], c["status"]) for c in doc["claims"]] == [("icosahedron.vanishing", "pass")]
    assert doc["counts"]["points"] == 1


def test_corrupted_point_value_fails(tmp_path):
    pts = tmp_path / "ico.pts"
    run(["build", "icosahedron", "--points-out", str(pts), "--out", str(tmp_path / "b.json")])
    lines = pts.read_text().splitlines()
    first = lines[1].split()
    first[0] = "7/3"
    lines[1] = " ".join(first)
    bad = tmp_path / "bad.pts"
    bad.write_text("\n".join(lines) + "\n")
    code, doc = run_json(["verify", "icosahedron", "--points", str(bad)], tmp_path)
    assert code == EXIT_CHECK
    assert any(c["status"] == "fail" for c in doc["claims"])


def test_moved_point_names_the_same_witnesses(tmp_path):
    # point 11, (-phi, 0, 1), moved to (0, -phi, 1): still on the sphere, so
    # only sliced cubics miss it; the witnesses are those of the exact loop
    pts = tmp_path / "ico.pts"
    run(["build", "icosahedron", "--points-out", str(pts), "--out", str(tmp_path / "b.json")])
    lines = pts.read_text().splitlines()
    x = lines[12].split()
    lines[12] = " ".join([x[1], x[0], x[2]])
    bad = tmp_path / "moved.pts"
    bad.write_text("\n".join(lines) + "\n")
    code, doc = run_json(["verify", "icosahedron", "--points", str(bad)], tmp_path)
    assert code == EXIT_CHECK
    assert doc["claims"][0]["witness"] == [
        "('SLICED pair0 c0', 11, '-7/2-3/2*sqrt(5)')",
        "('SLICED pair0 c1', 11, '2+sqrt(5)')",
        "('SLICED pair1 c1', 11, '-5-2*sqrt(5)')",
        "('SLICED pair2 c0', 11, '2+sqrt(5)')",
        "('SLICED pair2 c1', 11, '-3/2-1/2*sqrt(5)')",
    ]


def test_unreadable_point_file_fails(tmp_path):
    bad = tmp_path / "junk.pts"
    bad.write_text("dim 3 norm bogus\n1 2 3\n")
    code, doc = run_json(["verify", "icosahedron", "--points", str(bad)], tmp_path)
    assert code == EXIT_CHECK
    assert doc["claims"][0]["id"] == "icosahedron.points_file"
    assert doc["claims"][0]["status"] == "fail"


def test_point_file_arity_mismatch_fails(tmp_path):
    pts = tmp_path / "e8.pts"
    assert run(["build", "e8", "--points-out", str(pts), "--out", str(tmp_path / "b.json")]) == EXIT_OK
    code, doc = run_json(["verify", "icosahedron", "--points", str(pts)], tmp_path)
    assert code == EXIT_CHECK
    assert doc["claims"][0]["id"] == "icosahedron.points_file"
    assert doc["claims"][0]["status"] == "fail"
    assert "8 coordinates" in doc["claims"][0]["detail"]


def test_empty_point_file_fails(tmp_path):
    empty = tmp_path / "empty.pts"
    empty.write_text("dim 3 norm 2 field Q\n")
    code, doc = run_json(["verify", "icosahedron", "--points", str(empty)], tmp_path)
    assert code == EXIT_CHECK
    assert [(c["id"], c["status"]) for c in doc["claims"]] == [("icosahedron.points_file", "fail")]


@pytest.fixture(scope="module")
def built_points(tmp_path_factory):
    out = tmp_path_factory.mktemp("points")
    files = {}
    for name in ("icosahedron", "e8"):
        files[name] = out / f"{name}.pts"
        run(["build", name, "--points-out", str(files[name]), "--out", str(out / "b.json")])
    return files


@pytest.mark.parametrize(
    "name, field",
    [
        ("icosahedron", "Q(sqrt 7)"),
        ("icosahedron", "Q(sqrt 2)"),
        ("icosahedron", "Q"),
        ("e8", "Q(sqrt 0)"),
        ("e8", "Q(sqrt 4)"),
        ("e8", "Q(sqrt -1)"),
    ],
)
def test_point_file_field_is_enforced(name, field, built_points, tmp_path):
    # an unsupported field, or sqrt(5) coordinates outside the declared one
    lines = built_points[name].read_text().splitlines()
    head = lines[0].split(None, 5)
    lines[0] = " ".join(head[:5] + [field])
    bad = tmp_path / "bad.pts"
    bad.write_text("\n".join(lines) + "\n")
    code, doc = run_json(["verify", name, "--points", str(bad)], tmp_path)
    assert code == EXIT_CHECK
    assert [(c["id"], c["status"]) for c in doc["claims"]] == [(f"{name}.points_file", "fail")]


@pytest.fixture(scope="module")
def leech_lines(tmp_path_factory):
    """The header and the first four points of ``build leech --points-out``."""
    out = tmp_path_factory.mktemp("leech")
    full = out / "leech.pts"
    run(["build", "leech", "--points-out", str(full), "--out", str(out / "b.json")])
    return full.read_text().splitlines()[:5]


@pytest.fixture
def lattice_premises_only(monkeypatch):
    """Point files of e8 and Leech take the value-set premises, no exact evaluator."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("an exact evaluator ran on a pair-structured set")

    monkeypatch.setattr(verify, "_generic_vanishing", refuse)
    monkeypatch.setattr(verify, "_eval_vanishing", refuse)


def _verify_lines(name, lines, tmp_path):
    pts = tmp_path / f"{name}.pts"
    pts.write_text("\n".join(lines) + "\n")
    code, doc = run_json(["verify", name, "--points", str(pts)], tmp_path)
    return code, doc["claims"][0]


def test_leech_point_file_takes_the_lattice_premises(leech_lines, lattice_premises_only, tmp_path):
    code, claim = _verify_lines("leech", leech_lines, tmp_path)
    assert code == EXIT_OK, claim
    assert claim["detail"] == "2260441 generators x 4 points"


def test_leech_point_file_report_is_full(leech_lines, tmp_path):
    # every file point is checked, so the report says full, as its claim does
    pts = tmp_path / "leech.pts"
    pts.write_text("\n".join(leech_lines) + "\n")
    code, doc = run_json(["verify", "leech", "--points", str(pts)], tmp_path)
    assert code == EXIT_OK
    assert doc["mode"] == "full"
    assert [(c["id"], c["mode"]) for c in doc["claims"]] == [("leech.vanishing", "full")]


def test_sampled_leech_report_modes(tmp_path):
    # part i is full by the value-set proof; part iv rests on part iii, whose
    # design pass samples
    code, doc = run_json(["report", "leech", "--sampled", "--seed", "3"], tmp_path)
    assert code == EXIT_OK
    modes = {c["id"]: c["mode"] for c in doc["claims"]}
    assert modes == {
        "thmLeech.i": "full",
        "thmLeech.ii": "full",
        "thmLeech.iii": "sampled",
        "thmLeech.iv": "sampled",
        "design.Leech.t11": "sampled",
    }
    assert doc["counts"]["minimum_search_nodes"] == 15223
    assert doc["counts"]["value_set"] == [16, 8, 0, -8, -16]


def test_changed_leech_coordinate_names_a_point_outside_the_lattice(
    leech_lines, lattice_premises_only, tmp_path
):
    # one sign flipped keeps point 1 on the shell, but not in the lattice
    lines = list(leech_lines)
    x = lines[2].split()
    x[0] = str(-int(x[0]))
    lines[2] = " ".join(x)
    code, claim = _verify_lines("leech", lines, tmp_path)
    assert code == EXIT_CHECK
    assert claim["status"] == "fail"
    assert claim["witness"] == ["('outside-lattice', 1)"]


def test_leech_point_off_the_sphere_fails(leech_lines, lattice_premises_only, tmp_path):
    lines = list(leech_lines)
    lines[3] = " ".join(str(2 * int(v)) for v in lines[3].split())
    code, claim = _verify_lines("leech", lines, tmp_path)
    assert code == EXIT_CHECK
    assert claim["witness"] == ["('NM', 2, 128)"]


def test_e8_integer_point_file_takes_the_lattice_premises(
    built_points, lattice_premises_only, tmp_path
):
    # file denominator 1 against the configuration's 2
    lines = built_points["e8"].read_text().splitlines()
    ints = [line for line in lines[1:] if "/" not in line]
    assert len(ints) == 112
    code, claim = _verify_lines("e8", lines[:1] + ints, tmp_path)
    assert code == EXIT_OK, claim
    assert claim["detail"] == "841 generators x 112 points"


def test_e8_points_off_the_lattice_name_themselves(built_points, tmp_path):
    # (5/4, 1/4, ..., 1/4) has denominator 4 and (1, 1/2, 1/2, 1/2, 1/2, 0,
    # 0, 0) mixes integer and half-integer coordinates: both have norm 2 but
    # lie outside E8, and the exact evaluation loop, the oracle, finds a
    # generator that misses each
    lines = built_points["e8"].read_text().splitlines()
    stray = ["5/4 1/4 1/4 1/4 1/4 1/4 1/4 1/4", "1 1/2 1/2 1/2 1/2 0 0 0"]
    code, claim = _verify_lines("e8", lines[:3] + stray[:1] + lines[3:5] + stray[1:], tmp_path)
    assert code == EXIT_CHECK
    assert claim["witness"] == ["('outside-lattice', 2)", "('outside-lattice', 5)"]
    G = build_generator_set("e8")
    for text in stray:
        assert verify._eval_vanishing(G, [tuple(Fraction(v) for v in text.split())])


def test_point_file_over_another_field_fails(tmp_path):
    # sqrt(2) coordinates are valid Q(sqrt 2) input, but not icosahedron (Q(sqrt 5)) points
    pts = tmp_path / "q2.pts"
    pts.write_text("dim 3 norm 2 field Q(sqrt 2)\nsqrt(2) 0 0\n0 sqrt(2) 0\n")
    code, doc = run_json(["verify", "icosahedron", "--points", str(pts)], tmp_path)
    assert code == EXIT_CHECK
    assert [(c["id"], c["status"]) for c in doc["claims"]] == [("icosahedron.points_file", "fail")]
    assert doc["claims"][0]["detail"] == (
        "points are over Q(sqrt 2), the icosahedron configuration over Q(sqrt 5)"
    )


def test_rational_points_under_a_quadratic_header_pass(built_points, tmp_path):
    # the header's field bounds the coordinates; the points' field is read
    # off them, so the rational e8 points under a Q(sqrt 5) header are over Q
    lines = built_points["e8"].read_text().splitlines()
    lines[0] = " ".join(lines[0].split(None, 5)[:5] + ["Q(sqrt 5)"])
    pts = tmp_path / "e8_sqrt5.pts"
    pts.write_text("\n".join(lines) + "\n")
    assert read_points(str(pts)).field_d is None
    code, doc = run_json(["verify", "e8", "--points", str(pts)], tmp_path)
    assert code == EXIT_OK
    assert all(c["status"] == "pass" for c in doc["claims"])


@pytest.mark.parametrize("name", ["icosahedron", "e8"])
def test_points_beyond_int64_reach_the_exact_loop(name, built_points, tmp_path):
    # reading the file's field builds no integer array, so a coordinate past
    # int64 reaches the vanishing check, whose exact loop names the point
    lines = built_points[name].read_text().splitlines()
    m = int(lines[0].split()[1])
    far = " ".join([str(2**70)] + ["0"] * (m - 1))
    code, claim = _verify_lines(name, lines[:2] + [far], tmp_path)
    assert code == EXIT_CHECK
    assert (claim["id"], claim["status"]) == (f"{name}.vanishing", "fail")
    assert claim["detail"].endswith(" x 2 points, exact evaluation")
    assert claim["witness"] and all(", 1, " in w for w in claim["witness"])


def test_report_builds_and_certifies_once(tmp_path, monkeypatch):
    built, certified = [], []
    init, certify = SphericalConfiguration.__init__, cli.certify_full

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["name"])
        init(self, *args, **kwargs)

    def counting_certify(*args, **kwargs):
        certified.append(args[0].name)
        return certify(*args, **kwargs)

    monkeypatch.setattr(SphericalConfiguration, "__init__", counting_init)
    monkeypatch.setattr(cli, "certify_full", counting_certify)
    code, doc = run_json(["report", "icosahedron"], tmp_path)
    assert code == EXIT_OK
    assert built == ["icosahedron"]
    assert certified == ["icosahedron"]
    assert doc["gamma"]["icosahedron"]["gamma2"]["level"] == "FULL_GROEBNER"


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_reports(name, tmp_path, monkeypatch):
    argv = GOLDEN_RUNS[name]
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(argv, tmp_path)
    assert code == EXIT_OK
    timings = doc.pop("timings")
    assert timings and all(v >= 0 for v in timings.values())
    assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / f"{name}.json").read_text()
    for flag, path in zip(argv, argv[1:]):
        if flag.endswith("-out"):
            assert (tmp_path / path).read_text() == (GOLDEN / path).read_text()


def test_claim_iii_reads_the_generators_degree(tmp_path, monkeypatch):
    # a zonal quintic vanishes on E8 (every inner product with a root lies in
    # -2..2) and is nontrivial, but degree 5 misses the bound 7//2 + 1 = 4
    # that the strength forces: part iii fails and part iv states degree 5
    build = cli.build_generator_set

    def with_quintic(name, n=None):
        G = build(name, n)
        a = G.config.points[0]
        G.items.append(("ZONAL quintic", FactoredPoly(8, [(a, r) for r in (2, 1, 0, -1, -2)])))
        return G

    monkeypatch.setattr(cli, "build_generator_set", with_quintic)
    code, doc = run_json(["verify", "e8"], tmp_path)
    assert code == EXIT_CHECK
    claims = {c["id"]: c for c in doc["claims"]}
    assert [claims[k]["status"] for k in ("thmE8.i", "thmE8.ii", "design.E8.t7")] == ["pass"] * 3
    assert claims["thmE8.iii"]["status"] == "fail"
    assert claims["thmE8.iii"]["detail"].endswith("top degree 5 misses it")
    assert "degree <= 5" in claims["thmE8.iv"]["detail"]


def _verify_with(monkeypatch, tmp_path, name, declare):
    """``verify name`` with ``declare`` applied to the built configuration."""
    build = cli.build_generator_set

    def declared(config, n=None):
        G = build(config, n)
        declare(G.config)
        return G

    monkeypatch.setattr(cli, "build_generator_set", declared)
    code, doc = run_json(["verify", name], tmp_path)
    return code, {c["id"]: c for c in doc["claims"]}, doc["design"]


def test_failed_design_claim_names_its_first_nonzero_sum(tmp_path, monkeypatch):
    # E8 is no 8-design: the degree-8 pair sum is the first that is nonzero
    code, claims, design = _verify_with(
        monkeypatch, tmp_path, "e8", lambda cfg: setattr(cfg, "design_strength", 8)
    )
    assert code == EXIT_CHECK
    assert design["k_sums"]["8"] == "1555200"
    assert claims["design.E8.t8"]["status"] == "fail"
    assert claims["design.E8.t8"]["detail"] == "pair sums nonzero first at k = 8: 1555200 over 240 base points"
    assert claims["thmE8.iii"]["detail"].endswith("; design.E8.t8 fails")
    assert claims["thmE8.iv"]["status"] == "fail"
    assert claims["thmE8.iv"]["detail"] == (
        "ideal generated in degree <= 4 at level PAPER_CERTIFICATE; fails on part iii"
    )


def test_design_claim_names_a_point_moved_after_the_build(tmp_path, monkeypatch):
    # e8 reads its values off the lattice proof, which covers the points it
    # was built on; point 3 moved in the configuration's own array to
    # (2, 0, ..., 0) meets points 0 to 2 at r2 and itself at 4
    def move(cfg):
        arr = cfg.integer_array()[0]
        arr[3] = arr[0] + arr[1]

    code, claims, design = _verify_with(monkeypatch, tmp_path, "e8", move)
    assert code == EXIT_CHECK
    # sums over the matched pairs alone would read as a strength failure
    assert design["k_sums"] == {}
    assert design["pass"] is False
    rec = claims["design.E8.t7"]
    assert rec["status"] == "fail"
    assert rec["detail"] == "point 3 meets point 3 at 4, outside the configuration's values"
    assert claims["thmE8.iii"]["detail"] == (
        "strength 7 forces degree >= 4; non-trivial generator of degree 4 meets it; "
        "design.E8.t7 fails"
    )


def test_gamma_times_its_work(tmp_path):
    code, doc = run_json(["gamma", "icosahedron"], tmp_path)
    assert code == EXIT_OK
    assert doc["timings"]["gamma"] > 0


def test_reports_identical_without_timings(tmp_path):
    docs = []
    for name in ("a.json", "b.json"):
        code, doc = run_json(
            ["verify", "e8", "--sampled", "--seed", "7"], tmp_path, name
        )
        assert code == EXIT_OK
        doc.pop("timings")
        docs.append(json.dumps(doc))
    assert docs[0] == docs[1]


def test_build_leech_counts(tmp_path):
    code, doc = run_json(["build", "leech"], tmp_path)
    assert code == EXIT_OK
    counts = doc["counts"]
    assert counts["points"] == 196560
    assert counts["dimension"] == 24
    assert counts["golay_codewords"] == 4096
    assert counts["weight8_words"] == 759
    assert counts["type_split"] == [97152, 98304, 1104]


def test_groebner_cube4_dimension_mismatch(tmp_path):
    code, doc = run_json(["groebner", "cube4"], tmp_path)
    assert code == EXIT_CHECK
    assert doc["claims"][0]["status"] == "fail"
    assert doc["counts"]["quotient_dimension"] == 225


def test_groebner_e6_certifies(tmp_path):
    code, doc = run_json(["groebner", "e6"], tmp_path)
    assert code == EXIT_OK
    assert "FULL_GROEBNER" in doc["claims"][0]["detail"]
    assert doc["counts"]["hilbert"] == [1, 6, 20, 30, 15]
    assert sum(doc["counts"]["hilbert"]) == 72


def test_groebner_budget_exhaustion_exits_3(tmp_path, capsys):
    assert run(["groebner", "knn", "--budget", "5", "--out", str(tmp_path / "x.json")]) == EXIT_RESOURCE
    # the resource line says what the budget bought
    assert capsys.readouterr().err.splitlines() == [
        "idealforge: resource: reduction budget of 5 steps exhausted "
        "with 12 basis elements and 64 pairs left"
    ]


def test_groebner_basis_file(tmp_path):
    basis = tmp_path / "basis.txt"
    code, doc = run_json(["groebner", "icosahedron", "--basis-out", str(basis)], tmp_path)
    assert code == EXIT_OK
    assert len(basis.read_text().splitlines()) == doc["counts"]["basis_size"]


def test_enumerate_e8_matches_construction(tmp_path):
    code, doc = run_json(["enumerate", "e8"], tmp_path)
    assert code == EXIT_OK
    counts = doc["counts"]
    assert counts["enumerated"] == 240
    assert counts["set_equal"] is True
    assert counts["unimodular"] is True


def test_enumerate_runs_in_one_process_whatever_threads(tmp_path):
    # --threads has no effect; two runs repeat the search-node count
    code1, one = run_json(["enumerate", "e8", "--threads", "1"], tmp_path, "one.json")
    code2, two = run_json(["enumerate", "e8", "--threads", "2"], tmp_path, "two.json")
    assert code1 == code2 == EXIT_OK
    assert one.pop("timings") and two.pop("timings")
    assert one == two
    assert one["counts"]["search_nodes"] == 368
    code1, one = run_json(["verify", "e8", "--threads", "1"], tmp_path, "v1.json")
    code2, two = run_json(["verify", "e8", "--threads", "2"], tmp_path, "v2.json")
    assert code1 == code2 == EXIT_OK
    assert one.pop("timings") and two.pop("timings")
    assert one == two


@pytest.mark.parametrize("corrupt", ["changed", "duplicated"])
def test_enumerate_compare_is_a_multiset_test(tmp_path, monkeypatch, corrupt):
    enumerate_short_vectors = cli.enumerate_short_vectors

    def corrupted(basis, bound):
        result = enumerate_short_vectors(basis, bound)
        v = result.vectors
        result.vectors = [v[1] if corrupt == "duplicated" else (v[0][0] + 1,) + v[0][1:]] + v[1:]
        return result

    monkeypatch.setattr(cli, "enumerate_short_vectors", corrupted)
    code, doc = run_json(["enumerate", "e8"], tmp_path)
    assert code == EXIT_CHECK
    assert doc["counts"]["set_equal"] is False
    assert doc["counts"]["enumerated"] == 240
    assert "compare" in doc["timings"]


def test_gamma_leech_interval(tmp_path):
    code, doc = run_json(["gamma", "leech"], tmp_path)
    assert code == EXIT_OK
    entry = doc["gamma"]["leech"]
    assert entry["gamma1"] == 6
    assert entry["interval"] == [6, 6]
    assert entry["gamma2"]["upper"] == 6
    assert entry["gamma2"]["equals_first_threshold"] == "conditional"


def test_gamma_e7_certified_equality(tmp_path):
    code, doc = run_json(["gamma", "e7"], tmp_path)
    assert code == EXIT_OK
    entry = doc["gamma"]["e7"]
    assert entry["gamma1"] == 3
    assert entry["gamma2"]["level"] == "FULL_GROEBNER"
    assert entry["gamma2"]["equals_first_threshold"] == "yes"


def test_report_knn2_combines_sections(tmp_path):
    code, doc = run_json(["report", "knn", "--n", "2"], tmp_path)
    assert code == EXIT_OK
    assert doc["gamma"]["knn2"]["gamma1"] == 2
    assert doc["gamma"]["knn2"]["gamma2"]["modulo_linear_forms"] is True
    assert all(c["status"] in ("pass", "skipped") for c in doc["claims"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "idealforge.cli", "build", "icosahedron"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    doc = json.loads(proc.stdout)
    assert doc["counts"]["points"] == 12
    assert proc.stderr == ""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts the threads of a Linux process on two or more cores",
)
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_pins_one_blas_thread(preset):
    """A fresh import leaves one OpenBLAS thread; an explicit count is kept."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, idealforge.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    threads, value = proc.stdout.split()
    if preset is None:
        assert (threads, value) == ("1", "1")
    else:
        assert value == preset


def test_e8_build_leaves_numpy_ma_unimported():
    """np.unique imports numpy.ma on first use, a cost every process would pay."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    probe = (
        "import sys, idealforge.cli; from idealforge.configs import build_e8; "
        "build_e8(); print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["False"]
