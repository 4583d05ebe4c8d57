"""``dshier gauge-fix``: the canonical form and the invariant-coordinate dictionary."""

from __future__ import annotations

import sys

from ..render import default_names, render_poly
from ..serialize import dumps, loop_to_obj, poly_to_obj


def run(cfg, build) -> int:
    h = build(cfg)
    names_q = default_names(h.lax_q.arity, "q")
    payload = {
        "algebra": h.real.name,
        "s_can": loop_to_obj(h.canform.s_can),
        "q_can": loop_to_obj(h.canform.q_can),
        "invariant_coordinates": [
            {"u": alpha + 1, "expr": poly_to_obj(u),
             "expr_text": render_poly(u, names_q)}
            for alpha, u in enumerate(h.canform.u_exprs)
        ],
    }
    sys.stdout.write(dumps(payload))
    return 0
