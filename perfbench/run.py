"""idealforge benchmark: drive the CLI as its users do and check every certificate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a source checkout.  Each invocation is a fresh
``idealforge`` process (``PYTHONPATH=src``), run one after another from one
client (closed loop, one client).  A pass is one sweep over the workload's
invocations; passes repeat while the next one fits in ``--seconds``, and
every metric is the median over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
under ``perfbench/tracer.py`` and prints the per-layer metrics.  Per-run
records, the spans and the counters land in ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong exit code or
a wrong certified value makes an invocation failed; the run goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of build output

from tracer import LAYERS, span_cost  # noqa: E402
from workloads import WORKLOADS, check, timings_total  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
# import timings at the start of a run and after each pass, so that set-up is
# sampled across the run like the passes are
SETUP_FIRST, SETUP_PER_PASS = 3, 2
CLI_MAIN = "import sys; from idealforge.cli import main; sys.exit(main())"
TRACER = str(Path(__file__).resolve().parent / "tracer.py")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _builds(name: str) -> bool:
    return name.startswith("configs.build_")


def _named(target: str):
    return lambda name: name == target


# per-layer metric -> (span matcher, "s" for inclusive time or "count" for calls);
# nested calls of the same matcher count once, at the outermost span
SPAN_METRICS = {
    "groebner.certify_s": (_named("groebner.certify_full"), "s"),
    "groebner.certify_calls": (_named("groebner.certify_full"), "count"),
    "groebner.buchberger_s": (_named("groebner.buchberger"), "s"),
    "exact.echelon_s": (_named("exact.Echelon.add_row"), "s"),
    "exact.echelon_rows": (_named("exact.Echelon.add_row"), "count"),
    "gamma.gamma1_s": (_named("gamma.gamma1_exact"), "s"),
    "gamma.nullity_calls": (_named("gamma.evaluation_nullity"), "count"),
    "lattice.enumerate_s": (_named("lattice.enumerate_short_vectors"), "s"),
    "lattice.basis_s": (_named("lattice.basis_from_generators"), "s"),
    "lattice.unimodularity_s": (_named("lattice.unimodularity_check"), "s"),
    "exact.det_s": (_named("exact.det"), "s"),
    "verify.vanishing_s": (_named("verify.check_vanishing"), "s"),
    "verify.design_s": (_named("verify.design_strength_gegenbauer"), "s"),
    "verify.jacobian_s": (_named("verify.jacobian_full_pass"), "s"),
    "verify.nontrivial_s": (_named("verify.nontrivial_generator_check"), "s"),
    "generators.expand_s": (_named("generators.FactoredPoly.expand"), "s"),
    "configs.build_s": (_builds, "s"),
    "configs.build_calls": (_builds, "count"),
    "generators.build_calls": (_named("generators.build_generator_set"), "count"),
}
# counters the tracer's result hooks add up
HOOK_COUNTS = ("groebner.reductions", "groebner.basis_size", "lattice.enumerated")
# the exact counts that must repeat between traced runs of the same code
COUNTERS = (*(k for k, (_, kind) in SPAN_METRICS.items() if kind == "count"), *HOOK_COUNTS,
            "trace.spans")


PER_LAYER_UNITS = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER_UNITS.update({k: kind for k, (_, kind) in SPAN_METRICS.items()})
PER_LAYER_UNITS.update({k: "count" for k in HOOK_COUNTS})
PER_LAYER_UNITS.update({"cli.timings_coverage": "ratio", "trace.wall_s": "s",
                        "trace.overhead_s": "s", "trace.spans": "count"})


class RunTimeout(RuntimeError):
    """A child process outlived the run's time limit and was killed."""


class Runner:
    """Spawns CLI processes for one run and keeps its deadline."""

    def __init__(self, seed: int, start: float):
        self.seed = seed
        self.deadline = start + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def spawn(self, argv):
        """Run one process to its end: (exit code, wall s, user+sys s, max RSS MB, stdout)."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                             file_actions=actions, setsid=True)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - t0))
            if not ready:
                os.killpg(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        if not ready:
            raise RunTimeout(f"{' '.join(argv[-6:])} killed after {wall:.0f} s")
        # ru_maxrss (KiB) covers the pool workers the child reaped
        return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out_path.read_text())

    def time_imports(self, count: int, times: list) -> None:
        """Append the times a fresh interpreter takes to import idealforge.cli."""
        for _ in range(count):
            code, wall, *_ = self.spawn(["-c", "import idealforge.cli"])
            if code != 0:
                raise SystemExit(f"perfbench: importing idealforge.cli failed (exit {code})")
            times.append(wall)

    def run_pass(self, workload, traced: bool):
        records = []
        for i, inv in enumerate(workload.invocations):
            cli_args = inv.command(self.seed)
            spans_path = self.tmp / "spans.json"
            if traced:
                argv = [TRACER, str(spans_path), str(i)] + cli_args
            else:
                argv = ["-c", CLI_MAIN] + cli_args
            spans_path.unlink(missing_ok=True)
            code, wall, cpu, rss, stdout = self.spawn(argv)
            trace = json.loads(spans_path.read_text()) if traced and code == 0 else None
            problems = check(inv, code, stdout, trace["certificates"] if trace else None)
            records.append({
                "argv": cli_args, "exit": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                "timings_s": timings_total(stdout) if code == 0 else 0.0,
                "problems": problems, "trace": trace,
            })
        return {
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "timings_s": sum(r["timings_s"] for r in records),
            "invocations": records,
        }


def _ancestor_matches(spans, idx, match) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(traced_pass, per_span_s: float):
    """Per-layer metrics of one traced pass."""
    m = {name: 0 for name in PER_LAYER_UNITS}
    for rec in traced_pass["invocations"]:
        trace = rec["trace"]
        if trace is None:
            continue
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        roots = 0.0
        for idx, (name, start, end, parent, _) in enumerate(spans):
            m[name.split(".")[0] + ".self_s"] += end - start - child[idx]
            if parent < 0:
                roots += end - start
        # start-up, imports and exit belong to the CLI; the tracer's own cost does not
        m["cli.self_s"] += rec["wall_s"] - trace["tracer_s"] - roots
        for metric, (match, kind) in SPAN_METRICS.items():
            for idx, (name, start, end, *_rest) in enumerate(spans):
                if match(name) and not _ancestor_matches(spans, idx, match):
                    m[metric] += (end - start) if kind == "s" else 1
        for key in HOOK_COUNTS:
            m[key] += trace["counts"].get(key, 0)
        m["trace.spans"] += len(spans)
    m["cli.timings_coverage"] = traced_pass["timings_s"] / traced_pass["wall_s"]
    m["trace.wall_s"] = traced_pass["wall_s"]
    # what the tracer added: its install and dump, plus the wrapper cost per span
    m["trace.overhead_s"] = m["trace.spans"] * per_span_s + sum(
        r["trace"]["tracer_s"] for r in traced_pass["invocations"] if r["trace"])
    return m


def tail(values):
    """(percentile, value): the highest percentile with ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(seed: int):
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def check_counters(name: str, meta, counters):
    """Compare with the last traced run of the same code: (status line, matched)."""
    path = OUT / f"counters-{name}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before["src_sha256"] == meta["src_sha256"]:
            diff = {k: (before["counters"].get(k), v) for k, v in counters.items()
                    if before["counters"].get(k) != v}
            if diff:
                return (f"counters differ from the traced run with seed {before['seed']}: "
                        f"{diff}", False)
            return f"counters equal those of the traced run with seed {before['seed']}", True
    path.write_text(json.dumps({"src_sha256": meta["src_sha256"], "seed": meta["seed"],
                                "counters": counters}, indent=1))
    return "counters recorded: first traced run of this code", True


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    """One benchmark run: returns (result line, record)."""
    workload = WORKLOADS[name]
    runner = Runner(seed, time.perf_counter())
    meta = metadata(seed)
    passes, imports, info, timed_out = [], [], [], None
    t_measure = time.perf_counter()
    try:
        if trace:
            passes.append(runner.run_pass(workload, traced=True))
        else:
            runner.time_imports(SETUP_FIRST, imports)
            while True:
                passes.append(runner.run_pass(workload, traced=False))
                runner.time_imports(SETUP_PER_PASS, imports)
                now = time.perf_counter()
                last = passes[-1]["wall_s"]
                if now - t_measure + last > seconds or now + last > runner.deadline:
                    break
    except RunTimeout as exc:
        timed_out = str(exc)

    records = [r for p in passes for r in p["invocations"]]
    notes = [f"{' '.join(r['argv'])}: {msg}" for r in records for msg in r["problems"]]
    attempted, failed = len(records), sum(1 for r in records if r["problems"])
    if timed_out:
        notes.append(timed_out)
        attempted, failed = attempted + 1, failed + 1

    if trace and passes:
        metrics = layer_metrics(passes[0], span_cost())
        status, matched = check_counters(name, meta, {k: metrics[k] for k in COUNTERS})
        (info if matched else notes).append(status)
        units = PER_LAYER_UNITS
    elif not trace and passes:
        metrics = {k: statistics.median(p[k] for p in passes)
                   for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(imports)
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, {}
    correct = not notes and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds, "meta": meta,
        "imports_s": imports, "notes": notes, "info": info, "result": result,
        # spans go to their own file
        "passes": [{**p, "invocations": [{k: v for k, v in r.items() if k != "trace"}
                                         for r in p["invocations"]]} for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace and passes:
        spans = [s for r in passes[0]["invocations"] if r["trace"] for s in r["trace"]["spans"]]
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans))
    return result, record


def summary_lines(name, record):
    meta, result = record["meta"], record["result"]
    out = [
        f"# workload {name}: {WORKLOADS[name].why}",
        "# host nproc={nproc} cpu={cpu_model!r} python={python} numpy={numpy}".format(**meta),
        "# seed={seed} commit={commit} src_sha256={src_sha256:.12} "
        "src_lines={src_lines}".format(**meta),
    ]
    walls = [p["wall_s"] for p in record["passes"]]
    if walls:
        t = tail(walls) if not record["trace"] else None
        tail_text = f"p{t[0]} {t[1]:.3f} s" if t else "no tail percentile (needs >= 11 passes)"
        out.append(f"# passes={len(walls)} pass wall_s={[round(w, 3) for w in walls]}; {tail_text}")
    failed_frac = result["failed"] / result["attempted"]
    out.append(f"# failed_frac = {failed_frac:.4f} "
               f"({result['failed']}/{result['attempted']} invocations)")
    for k, v in result["metrics"].items():
        out.append(f"# {k:28s} {v['value']:14.6f} {v['unit']}")
    out.extend(f"# {line}" for line in record["info"])
    out.extend(f"# FAIL {note}" for note in record["notes"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "idealforge" / "cli.py").is_file():
        print(f"perfbench: no idealforge sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    table = []
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(summary_lines(name, record)), flush=True)
        table.append((name, result))
    if args.workload == "all":
        for name, result in table:
            cells = [f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items()]
            frac = result["failed"] / result["attempted"]
            print(f"{name:14s} failed_frac={frac:.4f} " + " ".join(cells))
        return 0 if all(r["correct"] for _, r in table) else 1
    print(json.dumps(table[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
