"""Canonical JSON forms for the engine's values.

A differential polynomial serializes as

    {"terms": [{"coeff": "p/q", "monomial": [[alpha, m, exp], ...]}, ...]}

with terms and monomial factors in canonical (sorted) order, so equal values
produce byte-identical JSON.  An eps-series is a list of such objects with an
``"eps"`` power per component; zero components are omitted.  Difference-ring
values are the same schema with orders allowed to be negative plus a
``"shift_window"`` field where a window applies.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .diffalg import DiffPoly, EpsSeries


def poly_to_obj(p: DiffPoly) -> dict:
    terms = []
    for mono, c in p.sorted_terms():
        terms.append({
            "coeff": str(Fraction(c)),
            "monomial": [[alpha, m, e] for (alpha, m), e in mono],
        })
    return {"terms": terms}


def series_to_obj(s: EpsSeries) -> list[dict]:
    out = []
    for q, comp in enumerate(s.components):
        if comp.is_zero():
            continue
        obj = poly_to_obj(comp)
        obj["eps"] = q
        out.append(obj)
    return out


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no float content, stable separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
