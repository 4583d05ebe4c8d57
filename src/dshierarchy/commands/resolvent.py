"""``dshier resolvent``: a basic resolvent per principal-degree slice, with its residual checks."""

from __future__ import annotations

import sys

from ..resolvent import flow_depth
from ..serialize import dumps, loop_to_obj
from . import ConfigError


def run(cfg, build) -> int:
    h = build(cfg)
    real = h.real
    a = cfg.exponent
    if not (1 <= a <= real.n):
        raise ConfigError(f"--exponent must be in 1..{real.n}")
    depth = flow_depth(real, a, cfg.max_k) + 1 if cfg.depth is None else cfg.depth
    r = h.lax_q.resolvent(a, depth)
    slices = [{"degree": r.m_a - j, "element": loop_to_obj(r.slice(r.m_a - j))}
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
