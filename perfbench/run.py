"""End-to-end benchmark of the ``dshier`` command line, with a traced run per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): a closed loop with one client.  Each job is a fresh
``python -m dshierarchy.cli`` process and the jobs run one after another, in
whole passes over the workload, until ``--seconds`` have gone by.  Before
that, each job's set-up (interpreter launch, ``import dshierarchy.cli`` and
construction of the job's ``DSHierarchy``) is timed several times in separate
probe processes.  The metrics are ``wall_s``, ``cpu_s``, ``setup_s`` and
``peak_rss_mb``.  The jobs run pinned to one vCPU, and every time is scaled
to a reference speed of that vCPU measured while the job ran (``SpeedProbe``);
the unscaled figures are kept in the result file.

Traced (``--trace 1``): each job runs once untraced, as above, and once in a
fresh process through ``perfbench/traced_job.py``, which calls
``dshierarchy.cli.main(argv)`` in-process with spans and counters around each
layer.  The two standard outputs must be byte-identical.  The metrics are the
per-layer ones listed in ``BENCHMARK.json``, with each job's times scaled
like the untraced ones.

Every job's output is checked (``perfbench/checks.py``); a job whose output
fails counts as failed.  The negative control (a deliberately corrupted
``verify``) runs once per run, untimed, and must fail.  The last line of
standard output is the result as JSON; the same object is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5          # set-up samples per job; the median is reported
DEADLINE_S = 170.0        # jobs still running then are killed and count as failed
SPEED_INTERVAL_S = 0.05   # how often the speed probe samples the jobs' vCPU
REFERENCE_PROBE_NS = 1_400_000   # CPU time of one probe loop on an uncontended vCPU


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    hierarchy: tuple[str, int, int] | None   # (type, max_flow_k, omega_max_k) as the CLI builds it
    # check(checks_module, stdout, exit_code) -> problems.  The module, which
    # imports sympy, is loaded only after the timed passes: a child's peak RSS
    # as the kernel reports it includes the parent's resident set at launch.
    check: Callable


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The jobs of a workload.  Every option that shapes the work is spelled out."""
    if name == "verify-a2_1":
        return [Job("verify", ("verify", "--type", "a2_1", "--max-k", "1", "--max-a", "2",
                               "--flows", "1:0,1:1,2:0,2:1", "--eps-order", "4",
                               "--jet-depth", "8"),
                    ("a2_1", 1, 1),
                    lambda c, out, rc: c.check_verify(out, rc, {
                        "tau_symmetry": 64, "flow_commutator": 10,
                        "omega_gauge_invariance": 16}))]
    if name == "derive-a2_1":
        labels = [(1, 0), (2, 0), (1, 1), (2, 1)]
        return [Job("derive", ("derive", "--type", "a2_1", "--flows", "1:0,2:0,1:1,2:1",
                               "--max-k", "1", "--eps-order", "4"),
                    ("a2_1", 1, 1),
                    lambda c, out, rc: c.check_derive(out, rc, labels))]
    if name == "omega-a2_2":
        return [Job("omega", ("omega", "--type", "a2_2", "--max-k", "1", "--max-a", "2",
                              "--flows", "1:0,1:1"),
                    ("a2_2", 1, 1),
                    lambda c, out, rc: c.check_omega(
                        out, rc, c.load_type_table(ROOT, "a2_2"), 2, 1))]
    if name == "solve-a1_1":
        labels = [(1, 0), (1, 1), (1, 2)]
        return [Job("solve", ("solve", "--type", "a1_1", "--flows", "1:0,1:1,1:2",
                              "--t-degree", "2", "--eps-order", "2", "--max-k", "1",
                              "--bgw", "1"),
                    ("a1_1", 2, 1),
                    lambda c, out, rc: c.check_solve(
                        out, rc, c.load_type_table(ROOT, "a1_1"), labels, [1])),
                Job("discrete", ("discrete", "--eps-order", "4", "--t-degree", "2",
                                 "--samples", "100", "--seed", str(seed)),
                    None, lambda c, out, rc: c.check_all_pass(out, rc))]
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("verify-a2_1", "derive-a2_1", "omega-a2_2", "solve-a1_1")
NEGATIVE_CONTROL = Job("verify-corrupt", ("verify", "--type", "a1_1", "--max-k", "1",
                                          "--self-test-corrupt"),
                       None, lambda c, out, rc: c.check_corrupt_fails(out, rc))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Done:
    stdout: bytes
    rc: int
    started: float        # time.monotonic() at launch
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: bytes


def run_process(cmd: list[str], env: dict, deadline: float) -> Done:
    """Run to completion; wall time from launch, CPU and peak RSS of the child."""
    with tempfile.TemporaryFile() as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Done(out, proc.returncode, t0, wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0, err.read())


def cli_cmd(job: Job) -> list[str]:
    return [sys.executable, "-m", "dshierarchy.cli", *job.argv]


def probe_setup(job: Job, env: dict, deadline: float) -> tuple[float, float]:
    """From launching an interpreter to a built hierarchy for ``job``: (start, end)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    if job.hierarchy:
        cmd += [str(x) for x in job.hierarchy]
    done = run_process(cmd, env, deadline)
    if done.rc != 0:
        raise RuntimeError(f"set-up probe for {job.name} failed:\n{done.stderr.decode()}")
    return done.started, float(done.stdout)


def _probe_loop() -> Fraction:
    s, x = Fraction(0), Fraction(1, 3)
    for i in range(300):
        s += x * Fraction(i % 7 + 1, i % 11 + 2)
    return s


class SpeedProbe:
    """Samples the speed of the vCPU that runs the jobs, from a thread pinned to it.

    On a shared host, contention slows one vCPU by up to 1.7x for seconds at a
    time, independently of the other vCPU; raw job times then spread by up to
    36 % between runs.  Every SPEED_INTERVAL_S the thread times a fixed loop in its
    own CPU time.  ``scale(t0, t1)`` is the reference loop time over the mean
    loop time measured in [t0, t1]: a time measured in that interval, times
    the scale, is the time at the reference speed.  The loop takes about 3 %
    of the vCPU, the same share in every run.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, int]] = []     # (monotonic end, loop ns)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self.samples:      # so that scale() always has a sample
            time.sleep(SPEED_INTERVAL_S / 5)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(SPEED_INTERVAL_S):
            t = time.thread_time_ns()
            _probe_loop()
            self.samples.append((time.monotonic(), time.thread_time_ns() - t))

    def scale(self, t0: float, t1: float) -> float:
        samples = list(self.samples)
        inside = [ns for t, ns in samples if t0 <= t <= t1]
        if not inside:      # shorter than one sampling interval: take the nearest
            inside = [min(samples, key=lambda s: abs(s[0] - t1))[1]]
        return REFERENCE_PROBE_NS / statistics.mean(inside)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Run:
    """One benchmark run: the jobs attempted, their outputs and their verdicts."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.jobs = workload_jobs(workload, seed)
        self.env = child_env()
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempts: list[tuple[Job, Done]] = []
        self.correct = True

    def untraced(self, job: Job) -> Done:
        """Run ``job`` as a user does; its output is judged later."""
        done = run_process(cli_cmd(job), self.env, self.deadline)
        self.attempts.append((job, done))
        return done

    def judge(self) -> int:
        """Check every attempt, then run the negative control; returns the failures.

        Each job's first output is checked in full; a later attempt must
        print the same bytes and exit with the same code.
        """
        import checks

        def problems_of(job: Job, done: Done) -> list[str]:
            try:
                return job.check(checks, done.stdout, done.rc)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                return [f"output does not have the expected shape: {exc!r}"]

        verdicts: dict[str, tuple[bytes, int, list[str]]] = {}
        failed = 0
        for job, done in self.attempts:
            if job.name not in verdicts:
                verdicts[job.name] = (done.stdout, done.rc, problems_of(job, done))
            ref_out, ref_rc, problems = verdicts[job.name]
            if (done.stdout, done.rc) != (ref_out, ref_rc):
                problems = ["output differs from this job's first attempt in the run"]
            if problems:
                failed += 1
                log(f"job {job.name} failed (exit {done.rc}):\n  "
                    + "\n  ".join(problems[:10]) + "\n" + done.stderr.decode()[-2000:])
        done = run_process(cli_cmd(NEGATIVE_CONTROL), self.env, self.deadline)
        problems = problems_of(NEGATIVE_CONTROL, done)
        if problems:
            self.correct = False
            log("negative control: " + "; ".join(problems))
        return failed

    def passes(self, one_pass: Callable[[], dict]) -> list[dict]:
        """Whole passes over the jobs until ``seconds`` have been measured."""
        out = []
        t0 = time.monotonic()
        while not out or time.monotonic() - t0 < self.seconds:
            if time.monotonic() > self.deadline - 0.1:
                break
            out.append(one_pass())
        return out


@contextlib.contextmanager
def pinned_speed_probe():
    """Pin the main thread, and so every job it launches, to one vCPU, and probe it."""
    home = os.sched_getaffinity(0)
    cpu = min(home)
    os.sched_setaffinity(0, {cpu})
    try:
        with SpeedProbe(cpu) as speed:
            yield speed
    finally:
        os.sched_setaffinity(0, home)


def measure(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, and the raw figures."""
    with pinned_speed_probe() as speed:
        for job in run.jobs:   # warm-up: byte-compiles the package in a fresh checkout
            probe_setup(job, run.env, run.deadline)
        setup = raw_setup = 0.0
        for job in run.jobs:
            spans = [probe_setup(job, run.env, run.deadline) for _ in range(SETUP_PROBES)]
            setup += statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans)
            raw_setup += statistics.median(t1 - t0 for t0, t1 in spans)

        def one_pass() -> dict:
            out = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0}
            for job in run.jobs:
                done = run.untraced(job)
                k = speed.scale(done.started, done.started + done.wall_s)
                out["wall_s"] += done.wall_s * k
                out["cpu_s"] += done.cpu_s * k
                out["raw_wall_s"] += done.wall_s
                out["raw_cpu_s"] += done.cpu_s
            return out

        passes = run.passes(one_pass)
    med = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics = {
        "wall_s": (med["wall_s"], "s"),
        "cpu_s": (med["cpu_s"], "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(done.rss_mb for _, done in run.attempts), "MB"),
    }
    raw = {"wall_s": med["raw_wall_s"], "cpu_s": med["raw_cpu_s"], "setup_s": raw_setup,
           "passes": len(passes), "speed_samples": len(speed.samples)}
    return metrics, raw


# (metric, unit, source): source is ("self", span), ("calls", span),
# ("count", counter) or ("depth", span).
LAYER_METRICS = [
    ("cli.import_s", "s", ("self", "cli.import")),
    ("cli.main_self_s", "s", ("self", "cli.main")),
    ("kacmoody.build_algebra_s", "s", ("self", "kacmoody.build_algebra")),
    ("kacmoody.bracket_calls", "count", ("calls", "kacmoody.bracket")),
    ("kacmoody.bracket_s", "s", ("self", "kacmoody.bracket")),
    ("kacmoody.pair_s", "s", ("self", "kacmoody.pair")),
    ("diffalg.mul_calls", "count", ("count", "diffalg.mul_calls")),
    ("diffalg.mul_term_products", "count", ("count", "diffalg.mul_term_products")),
    ("diffalg.add_calls", "count", ("count", "diffalg.add_calls")),
    ("diffalg.dx_calls", "count", ("count", "diffalg.dx_calls")),
    ("diffalg.substitute_calls", "count", ("count", "diffalg.substitute_calls")),
    ("resolvent.borel_s", "s", ("self", "resolvent.borel")),
    ("resolvent.borel_depth", "levels", ("depth", "resolvent.borel")),
    ("resolvent.canonical_s", "s", ("self", "resolvent.canonical")),
    ("resolvent.canonical_depth", "levels", ("depth", "resolvent.canonical")),
    ("gauge.canonical_form_s", "s", ("self", "gauge.canonical_form")),
    ("gauge.homomorphism_s", "s", ("self", "gauge.homomorphism")),
    ("gauge.is_invariant_s", "s", ("self", "gauge.is_invariant")),
    ("gauge.rewrite_calls", "count", ("calls", "gauge.rewrite")),
    ("gauge.rewrite_s", "s", ("self", "gauge.rewrite")),
    ("hierarchy.init_s", "s", ("self", "hierarchy.init")),
    ("hierarchy.flow_s", "s", ("self", "hierarchy.flow")),
    ("hierarchy.omega_table_s", "s", ("self", "hierarchy.omega_table")),
    ("hierarchy.verify_gauge_s", "s", ("self", "hierarchy.verify_gauge")),
    ("hierarchy.verify_tau_symmetry_s", "s", ("self", "hierarchy.verify_tau_symmetry")),
    ("hierarchy.verify_integrability_s", "s", ("self", "hierarchy.verify_integrability")),
    ("hierarchy.d10_unique_solve_s", "s", ("self", "hierarchy.d10_unique_solve")),
    ("hierarchy.tau_coordinate_check_s", "s", ("self", "hierarchy.tau_coordinate_check")),
    ("hierarchy.checks", "count", ("count", "hierarchy.checks")),
    ("miura.invert_s", "s", ("self", "miura.invert")),
    ("miura.reconstruct_s", "s", ("self", "miura.reconstruct")),
    ("solution.integrate_s", "s", ("self", "solution.integrate")),
    ("solution.two_point_s", "s", ("self", "solution.two_point")),
    ("solution.flow_equation_s", "s", ("self", "solution.flow_equation")),
    ("ratfunc.mul_calls", "count", ("count", "ratfunc.mul_calls")),
    ("discrete.embed_s", "s", ("self", "discrete.embed")),
    ("discrete.invert_s", "s", ("self", "discrete.invert")),
    ("serialize.dumps_s", "s", ("self", "serialize.dumps")),
    ("serialize.output_bytes", "B", ("count", "serialize.output_bytes")),
    ("render.render_s", "s", ("self", "render.render")),
]


def layer_values(traces: list[tuple[dict, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass, summed over its jobs (depths: maximum).

    ``traces`` pairs each job's trace with the speed scale of its process;
    times are scaled by it.
    """
    out: dict[str, float] = {}
    for name, _, (kind, key) in LAYER_METRICS:
        vals = []
        for tr, k in traces:
            if kind == "self":
                vals.append(tr["summary"].get(key, {}).get("self_s", 0.0) * k)
            elif kind == "calls":
                vals.append(tr["summary"].get(key, {}).get("calls", 0))
            elif kind == "count":
                vals.append(tr["counts"].get(key, 0))
            else:
                vals.append(tr["depth"].get(key, 0))
        out[name] = max(vals) if kind == "depth" else sum(vals)
    ns = sum(tr["mul_sample"]["ns"] * k for tr, k in traces)
    products = sum(tr["mul_sample"]["term_products"] for tr, _ in traces)
    out["diffalg.mul_ns_per_term_product"] = ns / products if products else 0.0
    return out


def measure_traced(run: Run, workload: str, seed: int) -> dict:
    """Per-layer metrics; each job also runs untraced, and the outputs must match."""
    trace_dir = OUT_DIR / "traces" / workload
    trace_dir.mkdir(parents=True, exist_ok=True)

    def one_pass() -> dict:
        traces = []
        overhead = 0.0
        for index, job in enumerate(run.jobs):
            plain = run.untraced(job)
            trace_file = trace_dir / f"{job.name}.json"
            cmd = [sys.executable, str(HERE / "traced_job.py"), str(trace_file),
                   str(seed * 100 + index), "--", *job.argv]
            traced = run_process(cmd, run.env, run.deadline)
            if traced.stdout != plain.stdout or traced.rc != plain.rc:
                run.correct = False
                log(f"job {job.name}: traced output differs from the untraced one\n"
                    + traced.stderr.decode()[-2000:])
                continue
            with open(trace_file) as fh:
                trace = json.load(fh)
            k = speed.scale(traced.started, traced.started + traced.wall_s)
            traces.append((trace, k))
            overhead += (trace["main_end"] - traced.started) * k \
                - plain.wall_s * speed.scale(plain.started, plain.started + plain.wall_s)
        values = layer_values(traces)
        values["trace.overhead_s"] = overhead
        return values

    with pinned_speed_probe() as speed:
        passes = run.passes(one_pass)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units.update({"diffalg.mul_ns_per_term_product": "ns", "trace.overhead_s": "s"})
    return {name: (statistics.median(p[name] for p in passes), unit)
            for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dshierarchy" / "cli.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'dshierarchy'} is missing; "
            "run from the root of a checkout")
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    raw = {}
    if args.trace:
        metrics = measure_traced(run, args.workload, args.seed)
    else:
        metrics, raw = measure(run)
    failed = run.judge()
    result = {
        "correct": run.correct,
        "attempted": len(run.attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / "results" / name, "w") as fh:
        json.dump({"result": result, "raw": raw}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
