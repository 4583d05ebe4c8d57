"""Time each Baseline command-line configuration of ROADMAP.md once.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py

Each configuration runs once as a fresh ``python -m dshierarchy.cli``
process, through the same process runner and vCPU speed probe as
``perfbench/run.py``.  One line per configuration gives its exit code, wall
and CPU time scaled to the reference speed, the unscaled wall time and the
peak RSS.  These are single runs for reference, not benchmark metrics.
"""

import sys
import time

from run import child_env, pinned_speed_probe, run_process

CONFIGS = [
    "verify --type a2_1 --max-k 1",
    "verify --type a2_2 --max-k 1",
    "derive --type a2_1 --flows 1:0,2:0,1:1,2:1",
    "omega --type a2_1 --max-k 1",
    "verify --type a1_1 --max-k 1",
    "verify --type a1_1 --max-k 2",
    "solve --type a1_1",
    "discrete",
]


def main() -> int:
    env = child_env()
    print(f"{'configuration':44} {'exit':>4} {'wall_s':>7} {'cpu_s':>7} "
          f"{'raw_wall_s':>10} {'rss_mb':>6}")
    with pinned_speed_probe() as speed:
        for config in CONFIGS:
            cmd = [sys.executable, "-m", "dshierarchy.cli", *config.split()]
            done = run_process(cmd, env, time.monotonic() + 600)
            k = speed.scale(done.started, done.started + done.wall_s)
            print(f"{config:44} {done.rc:4d} {done.wall_s * k:7.2f} {done.cpu_s * k:7.2f} "
                  f"{done.wall_s:10.2f} {done.rss_mb:6.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
