"""Stdout digests of a fixed set of ``dshier`` commands, to check that output is unchanged.

Usage, from the root of a checkout::

    python3 tests/stdout_digests.py            # re-run every command, name each mismatch
    python3 tests/stdout_digests.py --quick    # only the commands marked quick
    python3 tests/stdout_digests.py --record   # write the digests of this tree

Each command runs as ``python -m dshierarchy.cli`` on this checkout's ``src``
with ``PYTHONHASHSEED=0``; the sha1 of its stdout and its exit code are
compared with ``tests/data/stdout_digests.json``.  The exit status is the
number of mismatches.  The file is a plain script: pytest does not collect it,
and ``tests/test_cli.py`` runs the quick commands.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "stdout_digests.json"


def _commands() -> list[tuple[tuple[str, ...], bool]]:
    """(argv, quick) for every command; the quick ones finish within about 2 s together."""
    out = []
    for name, max_ks in (("a2_2", range(1, 4)), ("a2_1", range(1, 4)), ("a1_1", range(0, 7))):
        for k in max_ks:
            for extra in ((), ("--max-a", "1")):
                argv = ("omega", "--type", name, "--max-k", str(k), *extra)
                out.append((argv, name == "a1_1" and k <= 1))
    for name, k in (("a2_2", 2), ("a2_1", 3), ("a1_1", 6)):
        out.append((("verify", "--type", name, "--max-k", str(k)), False))
    out.append((("verify", "--type", "a1_1", "--max-k", "1", "--self-test-corrupt"), False))
    for name in ("a1_1", "a2_1", "a2_2"):
        out.append((("resolvent", "--type", name), name == "a1_1"))
        out.append((("resolvent", "--type", name, "--depth", "0"), True))
    # the benchmark's jobs, with every option that shapes the work
    bench = [
        ("verify", "--type", "a2_1", "--max-k", "1", "--max-a", "2",
         "--flows", "1:0,1:1,2:0,2:1", "--eps-order", "4", "--jet-depth", "8"),
        ("derive", "--type", "a2_1", "--flows", "1:0,2:0,1:1,2:1", "--max-k", "1",
         "--eps-order", "4"),
        ("omega", "--type", "a2_2", "--max-k", "1", "--max-a", "2", "--flows", "1:0,1:1"),
        ("solve", "--type", "a1_1", "--flows", "1:0,1:1,1:2", "--t-degree", "2",
         "--eps-order", "2", "--max-k", "1", "--bgw", "1"),
    ]
    out += [(argv, False) for argv in bench]
    for name in ("a1_1", "a2_1", "a2_2"):
        out.append((("gauge-fix", "--type", name), name == "a1_1"))
    out += [(argv + ("--format", "text"), False) for argv in bench]
    return out


COMMANDS = _commands()


def run(argv) -> dict:
    """sha1 of the stdout and the exit code of one command."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-m", "dshierarchy.cli", *argv],
                          capture_output=True, env=env)
    return {"sha1": hashlib.sha1(done.stdout).hexdigest(), "exit": done.returncode}


def mismatches(quick_only: bool = False) -> list[str]:
    """One line per command whose digest or exit code differs from the recorded one."""
    recorded = {tuple(item["argv"]): item for item in json.loads(DIGESTS.read_text())}
    out = []
    for argv, quick in COMMANDS:
        if quick_only and not quick:
            continue
        want = recorded.get(argv)
        got = run(argv)
        if want is None:
            out.append(f"{' '.join(argv)}: no recorded digest")
        elif (got["sha1"], got["exit"]) != (want["sha1"], want["exit"]):
            out.append(f"{' '.join(argv)}: sha1 {got['sha1'][:12]} exit {got['exit']}, "
                       f"recorded {want['sha1'][:12]} exit {want['exit']}")
    return out


def record() -> None:
    items = [{"argv": list(argv), **run(argv)} for argv, _ in COMMANDS]
    DIGESTS.write_text(json.dumps(items, indent=1) + "\n")


def main(argv: list[str]) -> int:
    if "--record" in argv:
        record()
        return 0
    bad = mismatches(quick_only="--quick" in argv)
    for line in bad:
        print(line)
    return len(bad)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
