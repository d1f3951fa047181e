"""Command-line front end: build configurations, run the check suites, report.

Every subcommand prints one report to standard output (or ``--out``), JSON by
default, a flat ``path = value`` listing with ``--format text``.  Progress
chatter from the long passes goes to standard error only, so the report
stream stays clean.  Exit codes: 0 all executed checks passed, 2 a check
failed, 3 a resource guard or budget stopped the run, 64 usage errors.

One invocation builds its configuration once: subcommands that need the
generator set take the configuration from it, and one Groebner certificate
serves every stage that reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .configs import (
    DEFAULT_SEED,
    ConstructionError,
    SphericalConfiguration,
    build_golay,
    cell24_points,
    field_label,
    read_points,
    write_points,
)
from .exact import Scalar
from .gamma import EntryGuardError, gamma2_status, gamma_profile
from .generators import (
    FAMILIES,
    GeneratorSet,
    build_generator_set,
    restrict_to_section,
    write_generators,
)
from .groebner import BudgetExceededError, DEFAULT_BUDGET, Certification, certify_full
from .lattice import enumerate_short_vectors, unimodularity_check
from .verify import (
    FAIL,
    FULL,
    PASS,
    SAMPLED,
    SKIPPED,
    assemble_certificate,
    check_gallery_vanishing,
    check_vanishing,
    design_strength_gegenbauer,
    jacobian_full_pass,
    nontrivial_generator_check,
    section_embedding_check,
    spanning_check,
)

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64

CONFIG_NAMES = tuple(FAMILIES)
# a full design pass over more points than this (Leech) takes minutes: verify
# defaults to sampled mode there, and a full pass prints its progress
LONG_PASS_POINTS = 16384
# configurations whose candidate generators submit to desk-scale certification
CERTIFIABLE = ("icosahedron", "e6", "e7", "cube4", "ngon", "knn")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _timed(report: Dict[str, object], key: str) -> Iterator[None]:
    """Record the wall time of the block as ``report["timings"][key]``."""
    t0 = time.perf_counter()
    yield
    report["timings"][key] = round(time.perf_counter() - t0, 3)


def _text_lines(obj, prefix: str = "") -> List[str]:
    if isinstance(obj, dict):
        out: List[str] = []
        for k, v in obj.items():
            out.extend(_text_lines(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for i, v in enumerate(obj):
            out.extend(_text_lines(v, f"{prefix}.{i}"))
        return out
    return [f"{prefix} = {obj}"]


def _finish(report: Dict[str, object], args, ok: bool) -> int:
    """Write the report; exit 0 when ``ok``, else 2."""
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = "\n".join(_text_lines(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CHECK


def _stderr_progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _start(
    args, generators: bool
) -> Tuple[Dict[str, object], SphericalConfiguration, Optional[GeneratorSet]]:
    """An empty full-mode report, the run's configuration, and its generator set if asked for.

    A generator set carries the configuration it was built on, so a run that
    needs both builds the configuration once.
    """
    name, family = args.config, FAMILIES[args.config]
    n = family.default_n if args.n is None else args.n
    report: Dict[str, object] = {
        "config": name if n is None else f"{name}{n}",
        "mode": FULL,
        "claims": [],
        "gamma": {},
        "design": {},
        "counts": {},
        "timings": {},
    }
    with _timed(report, "build"):
        G = build_generator_set(name, n) if generators else None
        cfg = G.config if G is not None else family.config(n)
    return report, cfg, G


def _certificate(args, report: Dict[str, object], G: GeneratorSet) -> Certification:
    """The run's one Groebner certificate.

    Generators in more variables than the configuration has coordinates (e7)
    are restricted to its section first, where the engine can finish.
    """
    with _timed(report, "groebner"):
        gens = G if G.nvars == G.config.m else restrict_to_section(G, G.config.section)
        return certify_full(G.config, gens, budget=args.budget)


def _file_points(path: str, G: GeneratorSet) -> List[Tuple[Scalar, ...]]:
    """The points of a point file, in the variables of the generators.

    The file's field must be Q or the configuration's own.  Points in the
    section coordinates of a configuration whose generators live in the
    ambient space (``build e7 --points-out``) are lifted to it.
    """
    pf = read_points(path)
    if pf.field_d not in (None, G.config.field_d):
        raise ValueError(
            f"points are over {field_label(pf.field_d)}, "
            f"the {G.name} configuration over {field_label(G.config.field_d)}"
        )
    section = G.config.section
    if pf.m == G.nvars:
        return pf.points
    if section is not None and (pf.m, G.nvars) == (section.dim, section.ambient_dim):
        return [section.to_ambient(y) for y in pf.points]
    raise ValueError(
        f"points have {pf.m} coordinates, the {G.name} generators take {G.nvars}"
    )


def _checks(
    args, report: Dict[str, object], G: GeneratorSet
) -> Tuple[bool, Optional[Certification]]:
    """Run the check suite into the report: (all green, the certificate if one ran).

    With ``--points`` only the vanishing check runs, on the file's points:
    the other claims are about the built configuration, which was not read.
    """
    name, cfg, mode = args.config, G.config, report["mode"]
    points = None
    if getattr(args, "points", None):
        try:
            points = _file_points(args.points, G)
        except (OSError, ValueError) as exc:
            report["claims"] = [
                {"id": f"{name}.points_file", "status": FAIL, "mode": mode, "detail": str(exc)}
            ]
            return False, None

    with _timed(report, "vanishing"):
        vanish = check_vanishing(G, points=points)
    if points is not None:
        report["counts"] = {"points": len(points), "generators": len(G)}
        report["claims"] = [vanish.to_dict()]
        return vanish.passed, None
    components = {"vanishing": vanish}
    if not cfg.embedded:
        # embedded points (knn) live inside hyperplanes, so full-rank
        # spanning is the wrong question there
        with _timed(report, "spanning"):
            components["support.spanning"] = spanning_check(cfg)
    if cfg.section is not None:
        with _timed(report, "section"):
            components["support.section"] = section_embedding_check(cfg)
    if name == "cube4":
        components["gallery"] = check_gallery_vanishing(G, cell24_points())
    else:
        with _timed(report, "jacobian"):
            components["jacobian"] = jacobian_full_pass(G)
    report["counts"] = {"points": cfg.npoints, "generators": len(G)}
    if cfg.design_strength is None:
        claims = list(components.values())
        report["claims"] = [rec.to_dict() for rec in claims]
        return all(rec.passed or rec.status == SKIPPED for rec in claims), None

    # the theorem claims: the generators' top degree must meet the lower
    # bound the declared design strength forces
    degree = G.max_degree()
    progress = _stderr_progress if mode == FULL and cfg.npoints > LONG_PASS_POINTS else None
    with _timed(report, "nontrivial"):
        components["nontrivial"] = nontrivial_generator_check(G, degree)
    with _timed(report, "design"):
        design = design_strength_gegenbauer(
            cfg,
            cfg.design_strength,
            mode=mode,
            seed=args.seed,
            progress=progress,
        )
    cert = _certificate(args, report, G) if name in CERTIFIABLE else None
    certified = cert is not None and cert.certified
    assembled = assemble_certificate(cfg, degree, components, design, certified)
    report["claims"] = [rec.to_dict() for rec in assembled.records]
    report["design"] = design.to_dict()
    return assembled.passed, cert


def _gamma_stage(
    args, report: Dict[str, object], G: GeneratorSet, cert: Optional[Certification]
) -> None:
    """The threshold profile into the report.

    Certifiable configurations read the run's certificate: ``cert`` when an
    earlier stage made it, else it is made here.  On a configuration with a
    declared design strength the generators' top degree is an exhibited
    nontrivial degree, which bounds both thresholds.
    """
    cfg, key, degree = G.config, report["config"], G.max_degree()
    theorem = cfg.design_strength is not None
    g2 = None
    if args.config in CERTIFIABLE:
        if cert is None:
            cert = _certificate(args, report, G)
        if cert.certified:
            # the inputs provably generate the ideal, so their top degree
            # bounds the generation threshold; the reduced staircase may climb
            g2 = gamma2_status(cfg, degree, certified=True)
    elif theorem:
        g2 = gamma2_status(cfg, degree, certified=False)
    with _timed(report, "gamma"):
        profile = gamma_profile(
            cfg, exhibited_degree=degree if theorem else None, gamma2=g2, name=key
        )
    report["gamma"] = {key: profile.to_dict()}


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    report, cfg, G = _start(args, generators=bool(args.generators_out))
    counts: Dict[str, object] = {"points": cfg.npoints, "dimension": cfg.m}
    if args.config == "leech":
        code = build_golay()
        counts["golay_codewords"] = len(code.codewords)
        counts["weight8_words"] = code.weight_distribution.get(8, 0)
        counts["type_split"] = list(cfg.type_counts)
    if args.config == "cube4":
        counts["gallery_points"] = len(cell24_points())
    report["counts"] = counts
    with _timed(report, "write"):
        if args.points_out:
            write_points(cfg, args.points_out)
            counts["points_file"] = args.points_out
        if G is not None:
            write_generators(G, args.generators_out)
            counts["generators_file"] = args.generators_out
    return _finish(report, args, True)


def _cmd_verify(args) -> int:
    """``verify`` runs the check suite; ``report`` adds the gamma and lattice sections.

    Points from a file are all checked, so such a run is full.  Otherwise
    the mode, which only the design pass reads, is ``--full``/``--sampled``,
    by default sampled for a configuration of more than LONG_PASS_POINTS
    points (Leech), where a full pass takes minutes.
    """
    report, cfg, G = _start(args, generators=True)
    if not getattr(args, "points", None):
        report["mode"] = args.mode or (SAMPLED if cfg.npoints > LONG_PASS_POINTS else FULL)
    ok, cert = _checks(args, report, G)
    if args.command == "report":
        _gamma_stage(args, report, G, cert)
        if cfg.lattice is not None:
            with _timed(report, "lattice"):
                uni = unimodularity_check(cfg.lattice.basis)
            report["counts"].update(
                det_gram=uni.det_gram,
                det_expected=uni.expected,
                unimodular=uni.unimodular,
                minimum_search_nodes=cfg.lattice.search_nodes,
                value_set=list(cfg.lattice.values),
            )
            ok = ok and uni.unimodular
    return _finish(report, args, ok)


def _cmd_gamma(args) -> int:
    report, _, G = _start(args, generators=True)
    _gamma_stage(args, report, G, None)
    return _finish(report, args, True)


def _cmd_groebner(args) -> int:
    report, cfg, G = _start(args, generators=True)
    if G.stream_count:
        print(
            f"idealforge groebner: {args.config} has a streamed generator set "
            f"({len(G)} generators), out of reach for the engine",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cert = _certificate(args, report, G)
    report["claims"] = [
        {
            "id": f"{report['config']}.groebner",
            "status": PASS if cert.certified else FAIL,
            "mode": FULL,
            "detail": f"level {cert.level}: {cert.detail}",
        }
    ]
    counts: Dict[str, object] = {"points": cfg.npoints, "generators": len(G)}
    counts["quotient_dimension"] = cert.quotient_dimension
    if cert.quotient is not None:
        counts["hilbert"] = cert.quotient.hilbert_coefficients()
    if cert.basis is not None:
        counts["basis_size"] = len(cert.basis)
        counts["reductions"] = cert.basis.reductions
    if args.basis_out and cert.basis is not None:
        with open(args.basis_out, "w") as fh:
            for line in cert.basis.to_text():
                fh.write(line + "\n")
        counts["basis_file"] = args.basis_out
    report["counts"] = counts
    return _finish(report, args, cert.certified)


def _sorted_rows(arr: np.ndarray) -> np.ndarray:
    """The rows of an integer array as sorted byte keys, one void item per row.

    Two arrays with equal sorted keys hold the same rows with the same
    multiplicities, so comparing them is a multiset test.  The rows are
    upcast to int64 first, so equal rows give equal bytes whatever dtype
    each array was built in (Leech points are int8, enumerated vectors int64).
    """
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    return np.sort(arr.view(np.dtype((np.void, arr.dtype.itemsize * arr.shape[1]))).ravel())


def _cmd_enumerate(args) -> int:
    report, cfg, _ = _start(args, generators=False)
    if cfg.lattice is None:
        print(
            f"idealforge enumerate: {args.config} has no integral lattice to enumerate",
            file=sys.stderr,
        )
        return EXIT_USAGE
    with _timed(report, "basis"):
        basis = cfg.lattice.basis
        uni = unimodularity_check(basis)
    with _timed(report, "enumeration"):
        result = enumerate_short_vectors(basis, cfg.r2)
    with _timed(report, "compare"):
        arr, _den = cfg.integer_array()
        found = np.array(result.vectors, dtype=np.int64)
        set_equal = found.shape == arr.shape and bool(
            np.array_equal(_sorted_rows(found), _sorted_rows(arr))
        )
    report["counts"] = {
        "enumerated": result.count,
        "expected": cfg.npoints,
        "search_nodes": result.search_nodes,
        "set_equal": set_equal,
        "det_gram": uni.det_gram,
        "det_expected": uni.expected,
        "unimodular": uni.unimodular,
    }
    ok = result.count == cfg.npoints and set_equal and uni.unimodular
    return _finish(report, args, ok)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_mode: bool = True) -> None:
    sub.add_argument("config", choices=CONFIG_NAMES, help="configuration name")
    sub.add_argument("--n", type=int, help="family member for ngon/knn")
    sub.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=DEFAULT_SEED,
        help="sampling seed (default 0xC0DE)",
    )
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and has no effect: every stage runs in one process",
    )
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="reduction budget")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    if with_mode:
        grp = sub.add_mutually_exclusive_group()
        grp.add_argument(
            "--full", dest="mode", action="store_const", const=FULL, help="check every point"
        )
        grp.add_argument(
            "--sampled",
            dest="mode",
            action="store_const",
            const=SAMPLED,
            help="sample the design pass (seeded by --seed)",
        )
        sub.set_defaults(mode=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="idealforge", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = subs.add_parser("build", help="construct a configuration and count it")
    _add_common(p_build, with_mode=False)
    p_build.add_argument("--points-out", help="write the point set to this file")
    p_build.add_argument("--generators-out", help="write the generator set to this file")
    p_build.set_defaults(func=_cmd_build)

    p_verify = subs.add_parser("verify", help="run the certificate check suite")
    _add_common(p_verify)
    p_verify.add_argument("--points", help="verify generators against this point file")
    p_verify.set_defaults(func=_cmd_verify)

    p_gamma = subs.add_parser("gamma", help="degree-threshold profile")
    _add_common(p_gamma, with_mode=False)
    p_gamma.set_defaults(func=_cmd_gamma)

    p_groebner = subs.add_parser("groebner", help="basis and certification")
    _add_common(p_groebner, with_mode=False)
    p_groebner.add_argument("--basis-out", help="write the reduced basis to this file")
    p_groebner.set_defaults(func=_cmd_groebner)

    p_enum = subs.add_parser("enumerate", help="short-vector enumeration cross-check")
    _add_common(p_enum, with_mode=False)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_report = subs.add_parser("report", help="verify plus thresholds in one report")
    _add_common(p_report)
    p_report.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for option in ("threads", "budget"):
        if getattr(args, option) < 1:
            print(f"idealforge: error: --{option} must be at least 1", file=sys.stderr)
            return EXIT_USAGE
    if args.n is not None and FAMILIES[args.config].default_n is None:
        print("idealforge: error: --n only selects ngon/knn members", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (BudgetExceededError, EntryGuardError) as exc:
        print(f"idealforge: resource: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConstructionError, OSError, ValueError) as exc:
        print(f"idealforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
