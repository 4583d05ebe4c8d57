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


def _parse_flows(val) -> list:
    """'a:k,a:k' (flag or config file), or a list of [a, k] pairs (config file).

    A label given twice is refused: its rows would collapse in the two-point table.
    """
    pairs = val
    if isinstance(val, str):
        pairs = [c.strip().partition(":")[::2] for c in val.split(",")] if val.strip() else []
    try:
        labels = [(int(str(a)), int(str(k))) for a, k in pairs]  # str: refuse 1.5 and true
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"flows (--flows) takes a comma list of integer pairs a:k, got {val!r}") from None
    for i, (a, k) in enumerate(labels):
        if (a, k) in labels[:i]:
            raise argparse.ArgumentTypeError(f"flows (--flows) name the label {a}:{k} twice")
    return labels


def _parse_bgw(val) -> list:
    """'C_1,..,C_ell' (flag or config file), or a list of constants (config file).

    An empty item is refused, as ``_parse_flows`` refuses one.
    """
    items = val.split(",") if isinstance(val, str) else val
    try:
        return [Fraction(str(c).strip()) for c in items]
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"bgw (--bgw) constants need nonzero denominators, got {val!r}") from None
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"bgw (--bgw) takes a comma list of rational constants, got {val!r}") from None


# RunConfig key -> (default, the JSON types of its config-file value, the
# converter of that value and of its flag's text, the subcommands whose parser
# has the flag (None: every one), further add_argument keywords).  argparse
# prints the message of a converter's ArgumentTypeError as it is.  Flags are
# added in this order, so it is the order of every --help.
_OPTIONS = {
    "type": ("a1_1", (str,), str, None,
             {"help": f"algebra type, one of {supported_types()} (aliases accepted)"}),
    "vertex": (0, (int,), int, None, {"help": "marked vertex (default 0)"}),
    # unset flows: DEFAULT_FLOWS, or every label for verify
    "flows": (None, (str, list), _parse_flows, None, {"help": "comma list a:k, e.g. 1:0,1:1"}),
    "eps_order": (4, (int,), int, None, {}),
    "jet_depth": (8, (int,), int, None, {}),
    "depth": (None, (int,), int, None, {"help": "principal depth"}),
    "t_degree": (2, (int,), int, None, {}),
    "bgw": (None, (str, list), _parse_bgw, None,
            {"help": "comma list of initial-data constants C_1,..,C_ell"}),
    "format": ("json", (str,), str, None, {"choices": ["json", "text"]}),
    "max_a": (None, (int,), int, None, {}),
    "max_k": (1, (int,), int, None, {}),
    "exponent": (1, (int,), int, ("resolvent",), {"help": "exponent index a (1-based)"}),
    "samples": (100, (int,), int, ("discrete",), {}),
    "seed": (7, (int,), int, ("discrete",), {}),
    "self_test_corrupt": (False, (bool,), bool, ("verify",), {
        "action": "store_true", "help": "testing aid: corrupt one tau-structure entry "
                                        "to exercise the failure path"}),
}


class RunConfig:
    """Resolved run parameters (flags over config file over defaults)."""

    def __init__(self):
        for key, (default, *_) in _OPTIONS.items():
            setattr(self, key, default)


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file (--config) "
                              f"{args.config}: {exc.strerror}") from None
        try:
            file_values = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config file (--config) {args.config} is not valid JSON: "
                              f"{exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file (--config) {args.config} must hold a JSON object")
        for key, val in file_values.items():
            if key not in _OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            _, types, convert, _, _ = _OPTIONS[key]
            if val is None and getattr(cfg, key) is None:
                continue
            try:
                if type(val) not in types:
                    raise TypeError(val)
                setattr(cfg, key, convert(val))
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"{exc} (config key {key!r})") from None
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


def _add_flags(p: argparse.ArgumentParser, command: str | None):
    """Add the ``_OPTIONS`` flags of ``command``, or with None those of every subcommand."""
    for key, (_, _, convert, commands, kw) in _OPTIONS.items():
        if (command in commands) if commands else command is None:
            if "action" not in kw:  # a store_true flag takes no converter
                kw = {"type": convert, **kw}
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **kw)


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
    common.add_argument("--config", help="JSON config file; flags override its values")
    _add_flags(common, None)
    for name in ("derive", "omega", "verify", "solve", "resolvent", "gauge-fix", "discrete"):
        _add_flags(sub.add_parser(name, parents=[common]), name)
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
