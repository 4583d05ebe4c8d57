"""``dshier solve``: formal-in-time solution and two-point table."""

from __future__ import annotations

import sys
from fractions import Fraction

from ..hierarchy import verify_integrability
from ..serialize import dumps
from ..solution import (flow_equation_report, gbgw_initial, integrate_formal,
                        two_point_functions)
from . import flow_labels


def _ratfunc_obj(r) -> dict:
    return {"num": [str(c) for c in r.num], "den": [str(c) for c in r.den]}


def run(cfg, build) -> int:
    h = build(cfg)
    constants = cfg.bgw or [Fraction(1)] * h.real.ell
    initial = gbgw_initial(h.real, constants)
    flows = [h.flow(tuple(l)) for l in flow_labels(cfg)]
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
