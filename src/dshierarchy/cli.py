"""Batch command line for deriving, verifying and solving the hierarchies.

Subcommands:

  derive     print the evolution equations for the requested flows
  omega      compute the tau-structure table
  verify     run the structural identity suite (exit 0 iff all residuals vanish)
  solve      formal-in-time solution and two-point table
  resolvent  dump a basic resolvent with its residual checks
  gauge-fix  dump the canonical form and the invariant-coordinate dictionary
  discrete   difference-ring checks (embedding, Miura round trip, toy family)

All flags may also be given through a JSON config file (``--config``) whose
keys are the long option names with dashes replaced by underscores; explicit
flags override the file.  JSON output is deterministic: identical
configuration gives byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, supported_types


def _register_engine_lazily() -> None:
    """Put every engine module into ``sys.modules``, to run on first use.

    The subcommands import what they run inside their functions, so a process
    compiles only those modules.  The rest wait behind
    ``importlib.util.LazyLoader``, which runs a module on the first read of
    one of its attributes, so code that looks them up in ``sys.modules`` (the
    benchmark's traced run) still finds them.  Once the spans live in the
    program this helper can go; the imports inside the functions stay.
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


class ConfigError(ValueError):
    pass


DEFAULT_FLOWS = ((1, 0), (1, 1))
JSON_ONLY = ("resolvent", "gauge-fix", "discrete")  # subcommands with no text output


class RunConfig:
    """Resolved run parameters (flags over config file over defaults)."""

    DEFAULTS = {
        "type": "a1_1",
        "vertex": 0,
        "flows": None,  # unset: DEFAULT_FLOWS, or every label for verify
        "eps_order": 4,
        "jet_depth": 8,
        "lambda_window": None,
        "depth": None,
        "t_degree": 2,
        "gauge": "default",
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


def _parse_window(val) -> tuple:
    """'kmin:kmax' (flag or config file), or a list [kmin, kmax] (config file)."""
    lo, hi = val.split(":") if isinstance(val, str) else val
    return (int(str(lo)), int(str(hi)))  # str: refuse 1.5 and true


def _parse_bgw(val) -> list:
    """'C_1,..,C_ell' (flag or config file), or a list of constants (config file)."""
    items = val.split(",") if isinstance(val, str) else val
    return [Fraction(str(c).strip()) for c in items if str(c).strip()]


# RunConfig key -> (the JSON types of its config-file value, the converter
# of that value and of its flag's text)
_OPTIONS = {
    "type": ((str,), str), "gauge": ((str,), str), "format": ((str,), str),
    "flows": ((str, list), _parse_flows),
    "lambda_window": ((str, list), _parse_window),
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
    if cfg.gauge != "default":
        raise ConfigError(
            f"unknown gauge id {cfg.gauge!r}; shipped gauge tables: ['default']")
    for key in ("eps_order", "jet_depth", "t_degree", "max_k", "depth"):
        if (getattr(cfg, key) or 0) < 0:  # depth may be unset
            raise ConfigError(f"{key} (--{key.replace('_', '-')}) must be non-negative")
    if cfg.samples < 1:
        raise ConfigError("samples (--samples) must be positive")
    return cfg


def _flows(cfg: RunConfig) -> list:
    return list(DEFAULT_FLOWS) if cfg.flows is None else cfg.flows


def _build_hierarchy(cfg: RunConfig) -> DSHierarchy:
    from .hierarchy import DSHierarchy
    max_flow_k = max([k for (_, k) in _flows(cfg)], default=0)
    max_flow_k = max(max_flow_k, cfg.max_k)
    h = DSHierarchy(cfg.type, cfg.vertex, max_flow_k=max_flow_k,
                    omega_max_k=cfg.max_k)
    for (a, k) in _flows(cfg):
        if not (1 <= a <= h.real.n):
            raise ConfigError(
                f"flow family {a} out of range 1..{h.real.n} for {h.real.name}")
    if cfg.max_a is not None and not 1 <= cfg.max_a <= h.real.n:
        raise ConfigError(
            f"max_a (--max-a) {cfg.max_a} out of range 1..{h.real.n} for {h.real.name}")
    if cfg.lambda_window is not None:
        need = h.real.window
        lo, hi = cfg.lambda_window
        if lo > need[0] or hi < need[1]:
            raise ConfigError(
                f"lambda window {cfg.lambda_window} is smaller than the "
                f"depth calculator requires ({need}) for this configuration")
    if cfg.bgw is not None and len(cfg.bgw) != h.real.ell:
        raise ConfigError(
            f"--bgw needs {h.real.ell} constants for {h.real.name}")
    return h


def _flow_obj(h: DSHierarchy, label, eps_order: int) -> dict:
    from .diffalg import EpsSeries
    from .render import default_names, render_series
    from .serialize import series_to_obj
    f = h.flow(tuple(label))
    names = default_names(h.ell)
    comps = []
    for alpha, w in enumerate(f.chars, start=1):
        series = EpsSeries.regrade(w, eps_order, shift=-1)
        comps.append({
            "component": alpha,
            "lhs": f"{names(alpha)}_t",
            "rhs_text": render_series(series, names),
            "rhs": series_to_obj(series),
        })
    return {"label": list(label), "components": comps}


def cmd_derive(cfg: RunConfig) -> int:
    from .serialize import dumps
    h = _build_hierarchy(cfg)
    flows = [_flow_obj(h, l, cfg.eps_order) for l in _flows(cfg)]
    if cfg.format == "text":
        lines = []
        for fo in flows:
            a, k = fo["label"]
            lines.append(f"# flow t[{a},{k}]")
            for c in fo["components"]:
                lines.append(f"{c['lhs']} = {c['rhs_text']}")
        sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        sys.stdout.write(dumps({"algebra": h.real.name, "flows": flows}))
    return 0


def _omega_objs(ell: int, table) -> list[dict]:
    from .render import default_names, render_poly
    from .serialize import poly_to_obj
    names = default_names(ell)
    out = []
    for (i, j), val in sorted(table.entries.items()):
        out.append({
            "i": list(i),
            "j": list(j),
            "value": poly_to_obj(val),
            "value_text": render_poly(val, names),
        })
    return out


def cmd_omega(cfg: RunConfig) -> int:
    from .serialize import dumps
    h = _build_hierarchy(cfg)
    name, ell = h.real.name, h.ell
    max_a = cfg.max_a or h.real.n
    table = h.omega_table(max_a, cfg.max_k)
    # the resolvents' slices and powers are not read from here on; releasing
    # them keeps the output stage's memory off the process peak
    del h
    payload = {
        "algebra": name,
        "max_a": max_a,
        "max_k": cfg.max_k,
        "entries": _omega_objs(ell, table),
        "symmetry": table.symmetry_report(),
    }
    if cfg.format == "text":
        for e in payload["entries"]:
            sys.stdout.write(
                f"Omega[{tuple(e['i'])};{tuple(e['j'])}] = {e['value_text']}\n")
    else:
        sys.stdout.write(dumps(payload))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from .diffalg import DiffPoly
    from .hierarchy import (OmegaTable, tau_coordinate_check, verify_gauge_invariance,
                            verify_integrability, verify_tau_symmetry)
    from .serialize import dumps
    h = _build_hierarchy(cfg)
    real = h.real
    max_a = cfg.max_a or real.n
    table = h.omega_table(max_a, cfg.max_k)
    labels = cfg.flows or table.labels()
    flows = h.flows(labels)
    if cfg.self_test_corrupt:
        # a corrupted copy: the table cached in the hierarchy stays intact
        key = sorted(table.entries)[0]
        entries = {**table.entries, key: table.entries[key] + DiffPoly.var(1, 1)}
        table = OmegaTable(entries, table.max_a, table.max_k, table.depth)
    checks: list[dict] = []
    # translation flow
    f10 = h.flow((1, 0))
    ok_d10 = all(w == -DiffPoly.var(a + 1, 1) for a, w in enumerate(f10.chars))
    checks.append({"check": "d10_is_minus_d", "residual_zero": ok_d10})
    try:
        h.d10_unique_solve()
        checks.append({"check": "d10_unique_solution", "residual_zero": True})
    except RuntimeError as exc:
        checks.append({"check": "d10_unique_solution", "residual_zero": False,
                       "error": str(exc)})
    # resolvent residuals
    for a in range(1, max_a + 1):
        depth = real.exponents[max_a - 1] + \
            2 * cfg.max_k * real.twist_order * real.deg_lambda
        r = h.lax_u.resolvent(a, max(depth, 4))
        checks.append({
            "check": "resolvent_commutator", "exponent_index": a,
            "residual_zero": not r.commutator_residual_slices(),
        })
        for b in range(1, max_a + 1):
            rb = h.lax_u.resolvent(b, max(depth, 4))
            checks.append({
                "check": "resolvent_normalization",
                "pair": [a, b],
                "residual_zero": not r.pairing_residual(rb),
            })
    checks.extend(table.symmetry_report())
    checks.extend(verify_tau_symmetry(flows, table))
    checks.extend(verify_gauge_invariance(h, table))
    checks.extend(verify_integrability(list(flows.values())))
    covered = [l for l in labels if l != (1, 0) and l[1] <= cfg.max_k]
    checks.append(tau_coordinate_check(
        h, table, eps_order=min(cfg.eps_order, cfg.max_k + 1),
        jet_depth=cfg.jet_depth, check_labels=covered[:1] or [(1, 0)]))
    all_pass = all(c.get("residual_zero", False) for c in checks)
    payload = {"algebra": real.name, "all_pass": all_pass, "checks": checks}
    if cfg.format == "text":
        for c in checks:
            status = "ok" if c.get("residual_zero") else "FAIL"
            name = c.get("check", "?")
            extra = {k: v for k, v in c.items()
                     if k not in ("check", "residual_zero")}
            sys.stdout.write(f"{status:4} {name} {extra if extra else ''}\n")
        sys.stdout.write(f"all_pass: {all_pass}\n")
    else:
        sys.stdout.write(dumps(payload))
    return 0 if all_pass else 1


def _ratfunc_obj(r) -> dict:
    return {"num": [str(c) for c in r.num], "den": [str(c) for c in r.den]}


def cmd_solve(cfg: RunConfig) -> int:
    from .hierarchy import verify_integrability
    from .serialize import dumps
    from .solution import (flow_equation_report, gbgw_initial, integrate_formal,
                           two_point_functions)
    h = _build_hierarchy(cfg)
    constants = cfg.bgw or [Fraction(1)] * h.real.ell
    initial = gbgw_initial(h.real, constants)
    flows = [h.flow(tuple(l)) for l in _flows(cfg)]
    commut = verify_integrability(flows)
    if not all(r["residual_zero"] for r in commut):
        sys.stderr.write("flows do not commute; refusing to integrate\n")
        return 1
    sol = integrate_formal(flows, initial, cfg.t_degree, cfg.eps_order,
                           commutativity_checked=True)
    table = h.omega_table(h.real.n, max(k for (_, k) in sol.labels))
    tp = two_point_functions(sol, table)
    flow_eq = flow_equation_report(sol, flows)
    coeff_rows = []
    for (alpha, exps), per_eps in sorted(sol.coeffs.items()):
        for q, v in enumerate(per_eps):
            if v.is_zero():
                continue
            coeff_rows.append({
                "component": alpha,
                "t_exponents": list(exps),
                "eps": q,
                "value": _ratfunc_obj(v),
                "value_text": repr(v),
            })
    two_point_rows = []
    for (i, j), series in sorted(tp["values"].items()):
        entries = []
        for (exps, q), v in sorted(series.data.items()):
            entries.append({"t_exponents": list(exps), "eps": q,
                            "value": _ratfunc_obj(v), "value_text": repr(v)})
        two_point_rows.append({"i": list(i), "j": list(j), "series": entries})
    all_pass = all(r["residual_zero"] for r in tp["cross_derivatives"]) and \
        all(r["residual_zero"] for r in flow_eq)
    payload = {
        "algebra": h.real.name,
        "bgw_constants": [str(c) for c in constants],
        "t_degree": cfg.t_degree,
        "eps_order": cfg.eps_order,
        "coefficients": coeff_rows,
        "two_point": two_point_rows,
        "cross_derivatives": tp["cross_derivatives"],
        "flow_equations": flow_eq,
        "all_pass": all_pass,
    }
    if cfg.format == "text":
        for row in coeff_rows:
            sys.stdout.write(
                f"u{row['component']} t^{tuple(row['t_exponents'])} "
                f"eps^{row['eps']}: {row['value_text']}\n")
        sys.stdout.write(f"all_pass: {all_pass}\n")
    else:
        sys.stdout.write(dumps(payload))
    return 0 if all_pass else 1


def _loop_obj(elt) -> list:
    from .serialize import poly_to_obj
    real = elt.real
    out = []
    for k in elt.lambda_powers():
        vec = elt.coeffs[k]
        coeffs = [{"basis": real.alg.labels[i], "poly": poly_to_obj(c)}
                  for i, c in enumerate(vec) if not c.is_zero()]
        out.append({"lambda": k, "coeffs": coeffs})
    return out


def cmd_resolvent(cfg: RunConfig) -> int:
    from .resolvent import flow_depth
    from .serialize import dumps
    h = _build_hierarchy(cfg)
    real = h.real
    a = cfg.exponent
    if not (1 <= a <= real.n):
        raise ConfigError(f"--exponent must be in 1..{real.n}")
    depth = flow_depth(real, a, cfg.max_k) + 1 if cfg.depth is None else cfg.depth
    r = h.lax_q.resolvent(a, depth)
    slices = [{"degree": r.m_a - j, "element": _loop_obj(r.slice(r.m_a - j))}
              for j in range(0, depth + 1)]
    payload = {
        "algebra": real.name,
        "exponent": r.m_a,
        "depth": depth,
        "slices": slices,
        "checks": [
            {"check": "resolvent_commutator",
             "residual_zero": not r.commutator_residual_slices()},
            {"check": "leading_slice_is_heisenberg",
             "residual_zero": r.leading_is_heisenberg()},
        ],
    }
    sys.stdout.write(dumps(payload))
    return 0


def cmd_gauge_fix(cfg: RunConfig) -> int:
    from .render import default_names, render_poly
    from .serialize import dumps, poly_to_obj
    h = _build_hierarchy(cfg)
    names_q = default_names(h.lax_q.arity, "q")
    payload = {
        "algebra": h.real.name,
        "s_can": _loop_obj(h.canform.s_can),
        "q_can": _loop_obj(h.canform.q_can),
        "invariant_coordinates": [
            {"u": alpha + 1, "expr": poly_to_obj(u),
             "expr_text": render_poly(u, names_q)}
            for alpha, u in enumerate(h.canform.u_exprs)
        ],
    }
    sys.stdout.write(dumps(payload))
    return 0


def cmd_discrete(cfg: RunConfig) -> int:
    import random
    from .diffalg import Derivation, DiffPoly, EpsSeries
    from .discrete import DifferenceRing, embed_differential, invert_discrete_miura
    from .miura import check_miura
    from .serialize import dumps
    k = cfg.eps_order
    rng = random.Random(cfg.seed)
    # the toy family's tau check shifts omega entries (up to u_{2 j_max}) by
    # the characteristics of D_i (up to u_{j_max})
    j_max = 3
    half = max(cfg.t_degree + k + 6, 3 * j_max)
    win = (-half, half)
    ring = DifferenceRing(1, win)
    checks = []
    # embedding intertwines the shift with e^{eps d}
    ok = True
    span = 3
    for _ in range(cfg.samples):
        p = DiffPoly.zero()
        for _ in range(rng.randint(1, 3)):
            mono = DiffPoly.const(Fraction(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 2)):
                mono = mono * DiffPoly.dvar(1, rng.randint(-span, span))
            p = p + mono
        lhs = embed_differential(ring.shift(p, 1), k)
        rhs = embed_differential(p, k).exp_dx()
        if not (lhs - rhs).is_zero():
            ok = False
            break
    checks.append({"check": "embedding_intertwines_shift",
                   "samples": cfg.samples, "eps_order": k,
                   "residual_zero": ok})
    # discrete Miura round trip for V = (u + eps u_{,1})
    v0 = EpsSeries.of_poly(DiffPoly.dvar(1, 0), k) + \
        EpsSeries.of_poly(DiffPoly.dvar(1, 1), k, 1)
    miura_ok, det = check_miura([v0])
    pair = invert_discrete_miura(ring, [v0])
    rt1 = (pair.phi(pair.inverse[0]) - EpsSeries.of_poly(DiffPoly.dvar(1, 0), k)).is_zero()
    rt2 = (pair.psi(pair.phi(DiffPoly.dvar(1, 0))) -
           EpsSeries.of_poly(DiffPoly.dvar(1, 0), k)).is_zero()
    checks.append({"check": "discrete_miura_round_trip",
                   "jacobian_nonzero": miura_ok,
                   "residual_zero": rt1 and rt2})
    # admissibility [D, S] = 0 on a random sample
    ok = True
    for _ in range(10):
        w = DiffPoly.dvar(1, rng.randint(-2, 2)) * Fraction(rng.randint(-3, 3)) + \
            DiffPoly.dvar(1, rng.randint(-2, 2))
        d = Derivation.from_polys([w], k, ring.jet_map)
        p = DiffPoly.dvar(1, rng.randint(-2, 2)) * DiffPoly.dvar(1, rng.randint(-2, 2))
        if not (d(ring.shift(p, 1)) - ring.shift(d(p), 1)).is_zero():
            ok = False
            break
    checks.append({"check": "derivation_commutes_with_shift", "residual_zero": ok})
    # toy translation family: integrable and tau-symmetric
    fam = {j: Derivation.from_polys(
        [DiffPoly.dvar(1, j) - DiffPoly.dvar(1, 0)], k, ring.jet_map)
        for j in range(1, j_max + 1)}
    omega = {(i, j): DiffPoly.dvar(1, i + j) - DiffPoly.dvar(1, i)
             - DiffPoly.dvar(1, j) + DiffPoly.dvar(1, 0)
             for i in range(1, j_max + 1) for j in range(1, j_max + 1)}
    ok_comm = all(fam[i].commutator(fam[j]).is_zero()
                  for i in fam for j in fam)
    ok_sym = all((omega[(i, j)] - omega[(j, i)]).is_zero()
                 for (i, j) in omega)
    ok_tau = True
    for i in fam:
        for j in fam:
            for lab in fam:
                lhs = fam[i](omega[(j, lab)])
                rhs = fam[lab](omega[(i, j)])
                if not (lhs - rhs).is_zero():
                    ok_tau = False
    checks.append({"check": "toy_family_integrable", "residual_zero": ok_comm})
    checks.append({"check": "toy_family_tau_symmetric",
                   "residual_zero": ok_sym and ok_tau})
    all_pass = all(c["residual_zero"] for c in checks)
    payload = {"eps_order": k, "shift_window": list(win),
               "checks": checks, "all_pass": all_pass}
    sys.stdout.write(dumps(payload))
    return 0 if all_pass else 1


def _add_flag(p: argparse.ArgumentParser, key: str, **kw):
    p.add_argument("--" + key.replace("_", "-"), dest=key, type=_OPTIONS[key][1], **kw)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_flag(p, "type", help=f"algebra type, one of {supported_types()} (aliases accepted)")
    _add_flag(p, "vertex", help="marked vertex (default 0)")
    _add_flag(p, "flows", help="comma list a:k, e.g. 1:0,1:1")
    _add_flag(p, "eps_order")
    _add_flag(p, "jet_depth")
    _add_flag(p, "lambda_window",
              help="kmin:kmax override (validated against the depth calculator)")
    _add_flag(p, "depth", help="principal depth")
    _add_flag(p, "t_degree")
    _add_flag(p, "gauge", help="gauge table id (default 'default')")
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
    handlers = {}
    for name, fn, extra in [
        ("derive", cmd_derive, []),
        ("omega", cmd_omega, []),
        ("verify", cmd_verify, ["corrupt"]),
        ("solve", cmd_solve, []),
        ("resolvent", cmd_resolvent, ["exponent"]),
        ("gauge-fix", cmd_gauge_fix, []),
        ("discrete", cmd_discrete, ["samples"]),
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
        handlers[name] = fn
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if cfg.format == "text" and args.command in JSON_ONLY:
            raise ConfigError(f"format (--format) 'text' is not available for "
                              f"{args.command}, which prints JSON only")
        return handlers[args.command](cfg)
    except ValueError as exc:  # ConfigError and UnsupportedTypeError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
