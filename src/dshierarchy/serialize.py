"""Canonical JSON forms for the engine's values.

A differential polynomial serializes as

    {"terms": [{"coeff": "p/q", "monomial": [[alpha, m, exp], ...]}, ...]}

with terms and monomial factors in canonical (sorted) order, so equal values
produce byte-identical JSON.  An eps-series is a list of such objects with an
``"eps"`` power per component; zero components are omitted.  Difference-ring
values are the same schema with orders allowed to be negative plus a
``"shift_window"`` field where a window applies.  A loop element is a list
``[{"lambda": k, "coeffs": [{"basis": label, "poly": {...}}, ...]}, ...]`` over
its lambda powers, with zero coefficients omitted.
"""

from __future__ import annotations

import json

from .diffalg import DiffPoly, EpsSeries, fraction_text


def poly_to_obj(p: DiffPoly, terms=None) -> dict:
    """``terms``, if given, is ``p.sorted_parts()``, shared with the caller."""
    return {"terms": [{"coeff": fraction_text(num, den),
                       "monomial": [[alpha, m, e] for (alpha, m), e in mono]}
                      for mono, num, den in (p.sorted_parts() if terms is None else terms)]}


def series_to_obj(s: EpsSeries, parts=None) -> list[dict]:
    """``parts``, if given, is the ``sorted_parts()`` of each component."""
    out = []
    for q, comp in enumerate(s.components):
        if comp.is_zero():
            continue
        obj = poly_to_obj(comp, None if parts is None else parts[q])
        obj["eps"] = q
        out.append(obj)
    return out


def loop_to_obj(elt) -> list[dict]:
    labels = elt.real.alg.labels
    powers: dict[int, list[dict]] = {}
    for (k, i), c in sorted(elt.coeffs.items()):
        powers.setdefault(k, []).append({"basis": labels[i], "poly": poly_to_obj(c)})
    return [{"lambda": k, "coeffs": coeffs} for k, coeffs in powers.items()]


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no float content, stable separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
