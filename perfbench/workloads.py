"""Workloads: the CLI invocations of one pass and the exact values each must certify.

The expected values are the ones the acceptance gate pins (gamma1, design
strength, FULL_GROEBNER quotient dimensions, det 8^24, enumeration counts).
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional, Sequence, Tuple

FULL_GROEBNER = "FULL_GROEBNER"
PAPER = "PAPER_CERTIFICATE"


@dataclasses.dataclass(frozen=True)
class Invocation:
    """One ``idealforge`` command line and what its report must say."""

    argv: Tuple[str, ...]
    config: str
    gamma1: object = None  # int, or [lo, hi] when only the interval is pinned
    gamma2_level: Optional[str] = None  # None: the report has no gamma2 entry
    design_t: Optional[int] = None
    det_gram: Optional[int] = None
    enumerated: Optional[int] = None
    # (level, quotient dimension) of every certify_full call; seen in traced runs
    certificate: Optional[Tuple[str, int]] = None

    def command(self, seed: int) -> List[str]:
        return [a.format(seed=seed) for a in self.argv]


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    invocations: Tuple[Invocation, ...]


def _report(*argv, **expect) -> Invocation:
    return Invocation(("report",) + argv, **expect)


E8_DET = 2**16  # the E8 basis is scaled by 2
LEECH_DET = 8**24

WORKLOADS = {
    # Buchberger and SparsePoly reduction dominate; eight short processes
    # expose start-up and CLI glue; cube4 takes the honest-failure branch
    # (quotient 225 != 16); icosahedron is the only Q(sqrt 5) instance.
    # `enumerate e8` is the desk-scale LLL + Fincke-Pohst pass on the
    # 2-worker pool.  e6 (the e7 generators restricted once more, ~17 s)
    # stays out so that three passes fit in one run.
    "desk_report": Workload(
        "eight short report/enumerate processes: Buchberger and SparsePoly reduction dominate, "
        "start-up and CLI glue show, cube4 takes the honest-failure branch",
        (
            _report("icosahedron", config="icosahedron", gamma1=3, gamma2_level=FULL_GROEBNER,
                    design_t=5, certificate=(FULL_GROEBNER, 12)),
            _report("e7", config="e7", gamma1=3, gamma2_level=FULL_GROEBNER, design_t=5,
                    certificate=(FULL_GROEBNER, 126)),
            _report("cube4", config="cube4", gamma1=2, certificate=(PAPER, 225)),
            _report("ngon", "--n", "6", config="ngon6", gamma1=3, gamma2_level=FULL_GROEBNER,
                    certificate=(FULL_GROEBNER, 6)),
            _report("ngon", "--n", "8", config="ngon8", gamma1=4, gamma2_level=FULL_GROEBNER,
                    certificate=(FULL_GROEBNER, 8)),
            _report("knn", "--n", "3", config="knn3", gamma1=2, gamma2_level=FULL_GROEBNER,
                    certificate=(FULL_GROEBNER, 6)),
            _report("knn", "--n", "4", config="knn4", gamma1=2, gamma2_level=FULL_GROEBNER,
                    certificate=(FULL_GROEBNER, 8)),
            Invocation(("enumerate", "e8", "--threads", "2"), config="e8",
                       det_gram=E8_DET, enumerated=240),
        ),
    ),
    # 196,560-point construction (built several times), int64 numpy bulk
    # passes, 24-variable expansion, Jacobian pass and Bareiss det 8^24;
    # the largest memory footprint.  The only workload that consumes the seed.
    "leech_report": Workload(
        "report leech --sampled --seed: 196,560-point builds, int64 numpy passes, "
        "24-variable nontrivial check, Jacobian pass, det 8^24; largest RSS",
        (
            _report("leech", "--sampled", "--seed", "{seed}", config="leech", gamma1=[6, 6],
                    gamma2_level=PAPER, design_t=11, det_gram=LEECH_DET),
        ),
    ),
}


def check(inv: Invocation, code: int, stdout: str,
          certificates: Optional[Sequence] = None) -> List[str]:
    """Every way the invocation's exit code or report misses its pinned values."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what} = {got!r}, expected {want!r}")

    expect("config", report.get("config"), inv.config)
    for claim in report.get("claims", []):
        expect(f"claim {claim.get('id')}", claim.get("status"), "pass")
    counts = report.get("counts", {})
    if inv.gamma1 is not None:
        entry = report.get("gamma", {}).get(inv.config, {})
        if isinstance(inv.gamma1, list):
            expect("gamma1 interval", entry.get("interval"), inv.gamma1)
        else:
            expect("gamma1", entry.get("gamma1"), inv.gamma1)
        expect("gamma2 level", entry.get("gamma2", {}).get("level"), inv.gamma2_level)
    if inv.design_t is not None:
        design = report.get("design", {})
        expect("design strength", (design.get("t"), design.get("pass")), (inv.design_t, True))
    if inv.det_gram is not None:
        expect("det_gram", counts.get("det_gram"), inv.det_gram)
        expect("det_expected", counts.get("det_expected"), inv.det_gram)
        expect("unimodular", counts.get("unimodular"), True)
    if inv.enumerated is not None:
        expect("enumerated", counts.get("enumerated"), inv.enumerated)
        expect("set_equal", counts.get("set_equal"), True)
    if certificates is not None and inv.certificate is not None:
        if not certificates:
            problems.append("certify_full never ran")
        for cert in certificates:
            expect("certify_full (level, quotient dimension)", tuple(cert), inv.certificate)
    return problems


def timings_total(stdout: str) -> float:
    """Sum of the report's own ``timings`` block (0 when there is no report)."""
    try:
        return float(sum(json.loads(stdout).get("timings", {}).values()))
    except ValueError:
        return 0.0
