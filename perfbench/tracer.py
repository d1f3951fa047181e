"""Span tracer for one idealforge CLI invocation.

``install`` puts a timing wrapper around the public functions of every
idealforge module (and the few methods the per-layer metrics count), then
rebinds each name that callers look up: the module's own global, and every
``from .x import f`` copy in the other modules.  No file of the package
changes.  Spans stay in memory as ``[name, start, end, parent, invocation]``
lists and are written out once ``idealforge.cli.run`` returns.

Run as a script it is the traced stand-in for the ``idealforge`` command::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON INVOCATION_ID ARGS...
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time

# The package modules; each one is a layer.
LAYERS = ("configs", "generators", "exact", "poly", "verify", "gamma", "groebner", "lattice", "cli")

# Per-term helpers, called up to ~870,000 times in one invocation (mono_divides
# in `report e7`).  A span would cost more than their body, so their time
# stays in the caller's self time.
UNTRACED = {
    "poly": {"mono_mul", "mono_divides", "mono_div", "mono_lcm", "mono_degree"},
    "exact": {"dot", "scalar_field", "is_rational"},
}

# Methods traced besides the module-level functions.
METHODS = {
    "exact": ("Echelon.add_row",),
    "generators": ("FactoredPoly.expand",),
}


class Tracer:
    """In-memory span recorder for one process and one invocation id."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.certificates: list = []
        self._stack: list = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, inv = self.spans, self._stack, self.invocation
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, inv]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, out)
            return out

        return traced


def _buchberger_done(tracer: Tracer, basis) -> None:
    tracer.counts["groebner.reductions"] += basis.reductions
    tracer.counts["groebner.basis_size"] += len(basis)


def _certify_done(tracer: Tracer, cert) -> None:
    tracer.certificates.append([cert.level, cert.quotient_dimension])


def _enumerate_done(tracer: Tracer, result) -> None:
    tracer.counts["lattice.enumerated"] += result.count


RESULT_HOOKS = {
    "groebner.buchberger": _buchberger_done,
    "groebner.certify_full": _certify_done,
    "lattice.enumerate_short_vectors": _enumerate_done,
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and rebind every name that refers to them."""
    import idealforge.cli  # noqa: F401  (imports every layer)

    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"idealforge.{layer}"]
        skip = UNTRACED.get(layer, set())
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in skip
            ):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj, RESULT_HOOKS.get(name)))
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{path}", getattr(cls, meth)))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "idealforge" and not mod_name.startswith("idealforge."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def span_cost(calls: int = 50000) -> float:
    """Seconds one traced call adds to a plain call, median of three timings."""

    def noop():
        return None

    traced = Tracer(0).wrap("noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return max(0.0, sorted(costs)[1])


def main(argv) -> int:
    out_path, invocation, cli_args = argv[0], int(argv[1]), argv[2:]
    import idealforge.cli

    t0 = time.perf_counter()
    tracer = Tracer(invocation)
    install(tracer)
    install_s = time.perf_counter() - t0
    code = idealforge.cli.run(cli_args)
    sys.stdout.flush()
    t1 = time.perf_counter()
    spans_text = json.dumps(tracer.spans)
    rest = {
        "counts": dict(tracer.counts),
        "certificates": tracer.certificates,
        # what the tracer itself added to this process's wall time
        "tracer_s": install_s + time.perf_counter() - t1,
    }
    with open(out_path, "w") as fh:
        fh.write('{"spans": ' + spans_text + ", " + json.dumps(rest)[1:])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
