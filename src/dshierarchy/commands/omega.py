"""``dshier omega``: the tau-structure table with its symmetry report."""

from __future__ import annotations

import sys

from ..certify import verify_symmetry
from ..render import default_names, render_poly
from ..serialize import dumps, poly_to_obj


def _omega_objs(ell: int, table) -> list[dict]:
    """One output object per entry; an entry equal to its transpose reuses its forms."""
    names = default_names(ell)
    formatted: dict = {}  # (i, j) -> (value, its obj, its text)
    out = []
    for (i, j), val in sorted(table.items()):
        got = formatted.get((j, i))
        if got is None or got[0] != val:
            terms = val.sorted_parts()  # one sort for both forms
            got = formatted[(i, j)] = (
                val, poly_to_obj(val, terms), render_poly(val, names, terms=terms))
        out.append({"i": list(i), "j": list(j), "value": got[1], "value_text": got[2]})
    return out


def run(cfg, build) -> int:
    h = build(cfg)
    name, ell = h.real.name, h.ell
    max_a = cfg.max_a or h.real.n
    table = h.omega_table(max_a, cfg.max_k)
    # the resolvents' slices are not read from here on; releasing
    # them keeps the output stage's memory off the process peak
    del h
    payload = {
        "algebra": name,
        "max_a": max_a,
        "max_k": cfg.max_k,
        "entries": _omega_objs(ell, table),
        "symmetry": verify_symmetry(table),
    }
    if cfg.format == "text":
        for e in payload["entries"]:
            sys.stdout.write(
                f"Omega[{tuple(e['i'])};{tuple(e['j'])}] = {e['value_text']}\n")
    else:
        sys.stdout.write(dumps(payload))
    return 0
