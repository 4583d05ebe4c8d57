"""``dshier omega``: the tau-structure table with its symmetry report."""

from __future__ import annotations

import sys

from ..render import default_names, render_poly
from ..serialize import dumps, poly_to_obj


def _omega_objs(ell: int, table) -> list[dict]:
    names = default_names(ell)
    out = []
    for (i, j), val in sorted(table.entries.items()):
        terms = val.sorted_parts()  # one sort for both forms
        out.append({
            "i": list(i),
            "j": list(j),
            "value": poly_to_obj(val, terms),
            "value_text": render_poly(val, names, terms=terms),
        })
    return out


def run(cfg, build) -> int:
    h = build(cfg)
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
