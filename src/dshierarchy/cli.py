"""Batch command line for deriving, verifying and solving the hierarchies.

Subcommands:

  derive     print the evolution equations for the requested flows
  omega      compute the tau-structure table
  verify     run the structural identity suite (exit 0 iff all residuals vanish)
  solve      formal-in-time solution and two-point table
  resolvent  dump a basic resolvent with its residual checks
  gauge-fix  dump the canonical form and the invariant-coordinate dictionary
  discrete   difference-ring checks (embedding, Miura round trip, toy family)

Each subcommand lives in its own module under ``dshierarchy.commands``, and
``main`` imports only the one it runs.

All flags may also be given through a JSON config file (``--config``) whose
keys are the long option names with dashes replaced by underscores; explicit
flags override the file.  JSON output is deterministic: identical
configuration gives byte-identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
from fractions import Fraction

from . import __version__, supported_types
from .commands import ConfigError, flow_labels


def _register_engine_lazily() -> None:
    """Put every engine module into ``sys.modules``, to run on first use.

    ``main`` imports only the module of the subcommand it runs, so a process
    compiles only the engine modules that module imports.  The rest wait
    behind ``importlib.util.LazyLoader``, which runs a module on the first
    read of one of its attributes, so code that looks them up in
    ``sys.modules`` (the benchmark's traced run) still finds them.  Once the
    spans live in the program this helper can go; the command modules stay.
    """
    import importlib.util
    import os
    package = sys.modules[__package__]
    for fname in sorted(os.listdir(os.path.dirname(__file__))):
        stem, ext = os.path.splitext(fname)
        name = f"{__package__}.{stem}"
        if ext != ".py" or stem.startswith("_") or name in sys.modules \
                or name == __spec__.name:  # this module, also as -m's __main__
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        setattr(package, stem, module)  # as an import does
        spec.loader.exec_module(module)


_register_engine_lazily()


JSON_ONLY = ("resolvent", "gauge-fix", "discrete")  # subcommands with no text output


class RunConfig:
    """Resolved run parameters (flags over config file over defaults)."""

    DEFAULTS = {
        "type": "a1_1",
        "vertex": 0,
        "flows": None,  # unset: DEFAULT_FLOWS, or every label for verify
        "eps_order": 4,
        "jet_depth": 8,
        "depth": None,
        "t_degree": 2,
        "bgw": None,
        "format": "json",
        "max_a": None,
        "max_k": 1,
        "exponent": 1,
        "samples": 100,
        "seed": 7,
        "self_test_corrupt": False,
    }

    def __init__(self):
        vars(self).update(self.DEFAULTS)


def _parse_flows(val) -> list:
    """'a:k,a:k' (flag or config file), or a list of [a, k] pairs (config file)."""
    if isinstance(val, str):
        val = [c.strip().partition(":")[::2] for c in val.split(",")] if val.strip() else []
    return [(int(str(a)), int(str(k))) for a, k in val]  # str: refuse 1.5 and true


def _parse_bgw(val) -> list:
    """'C_1,..,C_ell' (flag or config file), or a list of constants (config file)."""
    items = val.split(",") if isinstance(val, str) else val
    return [Fraction(str(c).strip()) for c in items if str(c).strip()]


# RunConfig key -> (the JSON types of its config-file value, the converter
# of that value and of its flag's text)
_OPTIONS = {
    "type": ((str,), str), "format": ((str,), str),
    "flows": ((str, list), _parse_flows),
    "bgw": ((str, list), _parse_bgw),
    "self_test_corrupt": ((bool,), bool),
    **{key: ((int,), int) for key in ("vertex", "eps_order", "jet_depth", "depth",
                                      "t_degree", "max_a", "max_k", "exponent",
                                      "samples", "seed")},
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file (--config) "
                              f"{args.config}: {exc.strerror}") from None
        file_values = json.loads(text)
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file (--config) {args.config} must hold a JSON object")
        for key, val in file_values.items():
            if key not in _OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            types, convert = _OPTIONS[key]
            if val is None and getattr(cfg, key) is None:
                continue
            try:
                if type(val) not in types:
                    raise TypeError(val)
                setattr(cfg, key, convert(val))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"bad value {val!r} for config key {key!r}, which takes "
                    f"{' or '.join(t.__name__ for t in types)}") from None
    for key in vars(cfg):
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    if cfg.format not in ("json", "text"):
        raise ConfigError("format must be 'json' or 'text'")
    for key in ("eps_order", "jet_depth", "t_degree", "max_k", "depth"):
        if (getattr(cfg, key) or 0) < 0:  # depth may be unset
            raise ConfigError(f"{key} (--{key.replace('_', '-')}) must be non-negative")
    if cfg.samples < 1:
        raise ConfigError("samples (--samples) must be positive")
    return cfg


def _build_hierarchy(cfg: RunConfig) -> DSHierarchy:
    from .hierarchy import DSHierarchy
    h = DSHierarchy(cfg.type, cfg.vertex, omega_max_k=cfg.max_k)
    for (a, k) in flow_labels(cfg):
        if not (1 <= a <= h.real.n):
            raise ConfigError(
                f"flow family {a} out of range 1..{h.real.n} for {h.real.name}")
    if cfg.max_a is not None and not 1 <= cfg.max_a <= h.real.n:
        raise ConfigError(
            f"max_a (--max-a) {cfg.max_a} out of range 1..{h.real.n} for {h.real.name}")
    if cfg.bgw is not None and len(cfg.bgw) != h.real.ell:
        raise ConfigError(
            f"--bgw needs {h.real.ell} constants for {h.real.name}")
    return h


def _add_flag(p: argparse.ArgumentParser, key: str, **kw):
    p.add_argument("--" + key.replace("_", "-"), dest=key, type=_OPTIONS[key][1], **kw)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_flag(p, "type", help=f"algebra type, one of {supported_types()} (aliases accepted)")
    _add_flag(p, "vertex", help="marked vertex (default 0)")
    _add_flag(p, "flows", help="comma list a:k, e.g. 1:0,1:1")
    _add_flag(p, "eps_order")
    _add_flag(p, "jet_depth")
    _add_flag(p, "depth", help="principal depth")
    _add_flag(p, "t_degree")
    _add_flag(p, "bgw", help="comma list of initial-data constants C_1,..,C_ell")
    _add_flag(p, "format", choices=["json", "text"])
    _add_flag(p, "max_a")
    _add_flag(p, "max_k")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dshier",
        description="Drinfeld-Sokolov hierarchies: exact flows, tau-structure, "
                    "and mechanical verification of their structural identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand copies the common flags from one parent parser, so
    # each is built (and its help formatter checked) once per process
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    for name, extra in [
        ("derive", []),
        ("omega", []),
        ("verify", ["corrupt"]),
        ("solve", []),
        ("resolvent", ["exponent"]),
        ("gauge-fix", []),
        ("discrete", ["samples"]),
    ]:
        p = sub.add_parser(name, parents=[common])
        if "exponent" in extra:
            _add_flag(p, "exponent", help="exponent index a (1-based)")
        if "samples" in extra:
            _add_flag(p, "samples")
            _add_flag(p, "seed")
        if "corrupt" in extra:
            p.add_argument("--self-test-corrupt", action="store_true",
                           dest="self_test_corrupt", default=None,
                           help="testing aid: corrupt one tau-structure entry "
                                "to exercise the failure path")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if cfg.format == "text" and args.command in JSON_ONLY:
            raise ConfigError(f"format (--format) 'text' is not available for "
                              f"{args.command}, which prints JSON only")
        # only the module of this subcommand is compiled and run
        command = importlib.import_module(
            f".commands.{args.command.replace('-', '_')}", __package__)
        return command.run(cfg, _build_hierarchy)
    except ValueError as exc:  # ConfigError and UnsupportedTypeError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> int:
    """The process entry point (``dshier``, ``python -m dshierarchy.cli``).

    Runs ``main`` on ``sys.argv``, then freezes every object the run still
    holds, so that the interpreter's full collection at exit does not walk
    them.  The exit itself stays the normal one: atexit handlers, flushes and
    the exit code.  ``main`` does not freeze, as callers that run it
    in-process go on collecting.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
