"""``dshier solve``: formal-in-time solution and two-point table."""

from __future__ import annotations

import sys
from fractions import Fraction

from ..ratfunc import rational_text
from ..serialize import dumps
from ..solution import (NonCommutingFlowsError, flow_equation_report, gbgw_initial,
                        integrate_formal, two_point_functions)
from . import flow_labels


def _value_fields(r) -> dict:
    """The JSON ``value`` and the ``value_text`` (``repr``) of r, from one pass."""
    num, den = r.texts()
    return {"value": {"num": num, "den": den}, "value_text": rational_text(num, den)}


def run(cfg, build) -> int:
    h = build(cfg)
    constants = cfg.bgw or [Fraction(1)] * h.real.ell
    initial = gbgw_initial(h.real, constants)
    flows = h.flows(flow_labels(cfg))
    try:
        sol = integrate_formal(flows, initial, cfg.t_degree, cfg.eps_order)
    except NonCommutingFlowsError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    # no flows at all still reaches two_point_functions, which names the missing (1, 0)
    table = h.omega_table(h.real.n, max((k for (_, k) in sol.labels), default=0))
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
                **_value_fields(v),
            })
    two_point_rows = []
    for (i, j), series in sorted(tp["values"].items()):
        entries = []
        for (exps, q), v in sorted(series.items()):
            entries.append({"t_exponents": list(exps), "eps": q, **_value_fields(v)})
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
