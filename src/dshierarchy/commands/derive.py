"""``dshier derive``: the evolution equations of the requested flows."""

from __future__ import annotations

import sys

from ..diffalg import EpsSeries
from ..render import default_names, render_series
from ..serialize import dumps, series_to_obj
from . import flow_labels


def _flow_obj(h, label, eps_order: int) -> dict:
    f = h.flow(tuple(label))
    names = default_names(h.ell)
    comps = []
    for alpha, w in enumerate(f.chars, start=1):
        series = EpsSeries.regrade(w, eps_order, shift=-1)
        parts = [c.sorted_parts() for c in series.components]  # one sort for both forms
        comps.append({
            "component": alpha,
            "lhs": f"{names(alpha)}_t",
            "rhs_text": render_series(series, names, parts),
            "rhs": series_to_obj(series, parts),
        })
    return {"label": list(label), "components": comps}


def run(cfg, build) -> int:
    h = build(cfg)
    flows = [_flow_obj(h, l, cfg.eps_order) for l in flow_labels(cfg)]
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
