"""Run one ``dshier`` job in-process with spans and counters around each layer.

Usage::

    python3 perfbench/traced_job.py TRACE_FILE SAMPLE_SEED -- <dshier argv...>

The job's standard output is exactly what ``python -m dshierarchy.cli`` would
print, and the exit code is the job's.  The trace goes to TRACE_FILE as JSON:
every span (name, start, end, parent), per-span aggregates (calls and self
time) and the kernel counters.

Spans are recorded by wrapping, from this file, the public functions and
methods at each layer boundary listed in ``SPANS``; nothing in the program
changes.  The ``DiffPoly`` and ``RatFunc`` operations run far too often to
span, so they are counted instead.  After the job, a seeded sample of the
job's own ``DiffPoly`` products is timed again with the counters removed.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time

# (module, attribute path, span name).  A name containing "{kind}" is filled
# in from the Lax operator the method is called on ("borel" or "canonical").
SPANS = [
    ("kacmoody", "build_algebra", "kacmoody.build_algebra"),
    ("kacmoody", "LoopElement.bracket", "kacmoody.bracket"),
    ("kacmoody", "LoopElement.pair", "kacmoody.pair"),
    ("kacmoody", "SimpleLieAlgebra.pair_vec", "kacmoody.pair"),
    ("resolvent", "LaxOperator.dressing", "resolvent.{kind}"),
    ("resolvent", "LaxOperator.resolvent", "resolvent.{kind}"),
    ("gauge", "canonical_form", "gauge.canonical_form"),
    ("gauge", "GaugeHomomorphism.__init__", "gauge.homomorphism"),
    ("gauge", "GaugeHomomorphism.is_invariant", "gauge.is_invariant"),
    ("gauge", "to_invariant_coordinates", "gauge.rewrite"),
    ("hierarchy", "DSHierarchy.__init__", "hierarchy.init"),
    ("hierarchy", "DSHierarchy.flow", "hierarchy.flow"),
    ("hierarchy", "DSHierarchy.omega_table", "hierarchy.omega_table"),
    ("hierarchy", "DSHierarchy.d10_unique_solve", "hierarchy.d10_unique_solve"),
    ("hierarchy", "verify_gauge_invariance", "hierarchy.verify_gauge"),
    ("hierarchy", "verify_tau_symmetry", "hierarchy.verify_tau_symmetry"),
    ("hierarchy", "verify_integrability", "hierarchy.verify_integrability"),
    ("hierarchy", "tau_coordinate_check", "hierarchy.tau_coordinate_check"),
    ("miura", "invert_miura", "miura.invert"),
    ("miura", "reconstruct_flows", "miura.reconstruct"),
    ("solution", "integrate_formal", "solution.integrate"),
    ("solution", "two_point_functions", "solution.two_point"),
    ("solution", "flow_equation_report", "solution.flow_equation"),
    ("discrete", "embed_differential", "discrete.embed"),
    ("discrete", "invert_discrete_miura", "discrete.invert"),
    ("serialize", "dumps", "serialize.dumps"),
    ("render", "render_poly", "render.render"),
    ("render", "render_series", "render.render"),
]

# Verify functions whose returned check records are counted.
CHECK_SPANS = ("hierarchy.verify_gauge", "hierarchy.verify_tau_symmetry",
               "hierarchy.verify_integrability", "hierarchy.tau_coordinate_check")

SAMPLE_SIZE = 64
SAMPLE_REPEATS = 3


class Tracer:
    """Spans kept in memory; self times are worked out from them at the end."""

    def __init__(self):
        self.spans: list[tuple] = []          # (name, start_ns, end_ns, parent)
        self.stack: list[tuple] = []          # (index, start_ns) of the open spans
        self.counts: dict[str, int] = {}
        self.depth: dict[str, int] = {}

    def open(self, name: str) -> tuple:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, 0, 0, parent))
        frame = (len(self.spans) - 1, time.perf_counter_ns())
        self.stack.append(frame)
        return frame

    def close(self, frame: tuple) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        index, start = frame
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def summary(self) -> dict:
        """Calls and self seconds (duration minus child spans) per span name."""
        child: dict[int, int] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0) + end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start - child.get(i, 0)) / 1e9
        return out


def _span_wrapper(tracer: Tracer, fn, name: str):
    dynamic = "{kind}" in name
    counts_checks = name in CHECK_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name.format(kind=args[0].kind) if dynamic else name
        if dynamic:
            depth = args[-1] if len(args) > 1 else kwargs.get("depth", 0)
            tracer.depth[span] = max(tracer.depth.get(span, 0), depth)
        frame = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if counts_checks:
            tracer.count("hierarchy.checks", 1 if isinstance(result, dict) else len(result))
        elif name == "serialize.dumps":
            tracer.count("serialize.output_bytes", len(result.encode()))
        return result

    return wrapper


def _rebind(pkg_modules, owner, old, new) -> None:
    """Replace ``old`` by ``new`` on its owner and wherever it was imported by name."""
    if isinstance(owner, type):
        for key, val in list(vars(owner).items()):
            if val is old:
                setattr(owner, key, new)
        return
    for mod in pkg_modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


class MulSample:
    """Seeded uniform reservoir sample of ``DiffPoly`` product operands."""

    def __init__(self, seed: int, size: int = SAMPLE_SIZE):
        self.rng = random.Random(seed)
        self.size = size
        self.items: list[tuple] = []
        self.seen = 0

    def offer(self, a, b) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append((a, b))
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.items[j] = (a, b)


def _counting(counts: dict, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args)

    return wrapper


def install(tracer: Tracer, sample: MulSample):
    """Wrap every layer boundary; returns the unwrapped ``DiffPoly.__mul__``."""
    from dshierarchy import diffalg, ratfunc

    pkg_modules = [m for n, m in sys.modules.items()
                   if n == "dshierarchy" or n.startswith("dshierarchy.")]
    for mod_name, path, span in SPANS:
        owner = sys.modules[f"dshierarchy.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        old = vars(owner)[attr]
        _rebind(pkg_modules, owner, old, _span_wrapper(tracer, old, span))

    DiffPoly, RatFunc = diffalg.DiffPoly, ratfunc.RatFunc
    counts = tracer.counts
    plain_mul = DiffPoly.__mul__

    def mul(self, other):
        if type(other) is DiffPoly and self.terms and other.terms:
            counts["diffalg.mul_term_products"] = (
                counts.get("diffalg.mul_term_products", 0)
                + len(self.terms) * len(other.terms))
            sample.offer(self, other)
        return plain_mul(self, other)

    for owner, old, inner, key in (
            (DiffPoly, plain_mul, mul, "diffalg.mul_calls"),
            (DiffPoly, DiffPoly.__add__, DiffPoly.__add__, "diffalg.add_calls"),
            (DiffPoly, DiffPoly.dx, DiffPoly.dx, "diffalg.dx_calls"),
            (DiffPoly, DiffPoly.substitute, DiffPoly.substitute, "diffalg.substitute_calls"),
            (RatFunc, RatFunc.__mul__, RatFunc.__mul__, "ratfunc.mul_calls")):
        _rebind(pkg_modules, owner, old, _counting(counts, key, inner))
    return plain_mul


def time_sample(sample: MulSample, mul) -> tuple[int, int]:
    """Best-of-repeats nanoseconds and term products over the sampled pairs."""
    total_ns = 0
    products = 0
    for a, b in sample.items:
        best = None
        for _ in range(SAMPLE_REPEATS):
            t0 = time.perf_counter_ns()
            mul(a, b)
            dt = time.perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        total_ns += best
        products += len(a.terms) * len(b.terms)
    return total_ns, products


def main() -> int:
    trace_file, seed, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_job.py TRACE_FILE SAMPLE_SEED -- ARGV...")
    tracer = Tracer()
    frame = tracer.open("cli.import")
    import dshierarchy.cli as cli
    tracer.close(frame)
    sample = MulSample(int(seed))
    plain_mul = install(tracer, sample)
    frame = tracer.open("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        tracer.close(frame)
        sys.stdout.flush()
    main_end = time.monotonic()
    counts = dict(tracer.counts)
    sample_ns, sample_products = time_sample(sample, plain_mul)
    trace = {
        "argv": argv,
        "main_end": main_end,
        "summary": tracer.summary(),
        "counts": counts,
        "depth": tracer.depth,
        "mul_sample": {"pairs": len(sample.items), "ns": sample_ns,
                       "term_products": sample_products},
        "spans": tracer.spans,
    }
    with open(trace_file, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
