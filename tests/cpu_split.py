"""Split the CPU time of each benchmark job into start, imports, compiling and engine work.

Usage, from the root of a checkout::

    python3 tests/cpu_split.py

The jobs are those of ``perfbench/run.py``.  The launcher pins itself to one
vCPU, so every child runs there too, and reads each child's CPU time (user +
system) with ``os.wait4``; the figures are unscaled.  Two copies of ``src``
are made in a temporary folder, one compiled to bytecode and one without, and
every child runs with ``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONHASHSEED=0``.
The variants of one round run one after another, and each figure is the
median over the rounds:

- ``bare``: ``python3 -S -c "import site"``, the interpreter without ``.pth`` files;
- ``start``: ``python3 -c pass``; ``start - bare`` is what the ``.pth`` files cost;
- ``cli``: ``import dshierarchy.cli`` from bytecode; ``cli - start`` is the imports;
- ``job`` and ``job_src``: the job from bytecode and from source, so that
  ``job_src - job`` is compiling and ``job - cli`` the engine work, which
  includes loading the engine modules from bytecode.

``job_src`` is how a fresh checkout runs the job when nothing writes bytecode.
The script is a plain tool; pytest does not collect it.
"""

from __future__ import annotations

import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, workload_jobs  # noqa: E402

REPEATS = 15


def cpu_s(cmd: list[str], env: dict) -> float:
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
    _, status, ru = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{cmd} exited with status {status}")
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    py = sys.executable
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for kind in ("bytecode", "source"):
            shutil.copytree(ROOT / "src", Path(tmp, kind), ignore=shutil.ignore_patterns("__pycache__"))
            if kind == "bytecode":
                compileall.compile_dir(Path(tmp, kind), quiet=1)
            envs[kind] = {**os.environ, "PYTHONPATH": str(Path(tmp, kind)),
                          "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
        jobs = {job.name: job.argv for w in WORKLOADS for job in workload_jobs(w, 1)}
        variants = {"bare": ([py, "-S", "-c", "import site"], "bytecode"),
                    "start": ([py, "-c", "pass"], "bytecode"),
                    "cli": ([py, "-c", "import dshierarchy.cli"], "bytecode")}
        for name, argv_ in jobs.items():
            cmd = [py, "-m", "dshierarchy.cli", *argv_]
            variants[name] = (cmd, "bytecode")
            variants[name + "_src"] = (cmd, "source")
        samples: dict[str, list[float]] = {v: [] for v in variants}
        for _ in range(REPEATS):
            for v, (cmd, kind) in variants.items():
                samples[v].append(cpu_s(cmd, envs[kind]))
    ms = {v: 1e3 * statistics.median(s) for v, s in samples.items()}
    print(f"bare {ms['bare']:.1f} ms, start {ms['start']:.1f} ms (.pth files "
          f"{ms['start'] - ms['bare']:.1f}), import dshierarchy.cli {ms['cli']:.1f} ms "
          f"(imports {ms['cli'] - ms['start']:.1f})")
    print("name      job_src  job    compiling  engine   (ms of CPU, unscaled)")
    for name in jobs:
        print(f"{name:9} {ms[name + '_src']:7.1f}  {ms[name]:5.1f}  "
              f"{ms[name + '_src'] - ms[name]:9.1f}  {ms[name] - ms['cli']:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
