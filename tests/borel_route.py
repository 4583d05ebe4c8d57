"""The Borel-variable route to the flows and the tau-structure, as a reference.

The program computes every flow and every tau-structure entry on the
canonical route, from the resolvents of L_can = d + Lambda + q_u whose
generators are the canonical coordinates.  This module computes the same
objects from the resolvents of the Borel-variable operator
L = d + Lambda + q (one generator per Borel basis vector) and rewrites the
results as polynomials in the u-jets through the certified
``to_invariant_coordinates``.  Resolvents are gauge covariant, so both routes
must agree exactly; the tests assert that they do.
"""

from __future__ import annotations

import copy

from dshierarchy.diffalg import DiffPoly, JetMap, apply_poly_derivation
from dshierarchy.gauge import ad_exp_series, to_invariant_coordinates
from dshierarchy.hierarchy import DSHierarchy
from dshierarchy.resolvent import flow_depth
from reference_ops import lax_can, map_coeffs, project_plus


def pre_flow_chars(h: DSHierarchy, label) -> list[DiffPoly]:
    """D^pre_{a,k}(q) = [(lambda^{kN} R_a)_+, L] on the Borel generators q."""
    a, k = label
    r = h.lax_q.resolvent(a, flow_depth(h.real, a, k) + 1)
    xp = r.shifted_plus(k)
    res = xp.bracket(h.lax_q.lam_plus_q) - xp.dx()
    assert set(res.lambda_powers()) <= {0}
    return h.real.borel_coords(res)


def flow_chars(h: DSHierarchy, label) -> tuple[DiffPoly, ...]:
    """The reduced flow from the Borel resolvent conjugated by S_can.

    X = (lambda^{kN} e^{ad S_can} R_a)_+ + phi(ad S_can)(D^pre S_can); the flow
    [X, L_can] - dX is V-valued at lambda^0 and its V-coordinates, rewritten
    in the u-jets, are the characteristics.
    """
    a, k = label
    real, cf = h.real, h.canform
    r = h.lax_q.resolvent(a, flow_depth(real, a, k) + 1)
    conj = ad_exp_series(cf.s_can, r.element)
    x = project_plus(conj.lambda_shift(k * real.twist_order))
    dpre = JetMap(pre_flow_chars(h, label))
    dpre_s = map_coeffs(cf.s_can, lambda p: apply_poly_derivation(dpre, p))
    x = x + ad_exp_series(cf.s_can, dpre_s, shift=1)
    res = x.bracket(lax_can(cf)) - x.dx()
    assert set(res.lambda_powers()) <= {0}
    coords = real.borel_coords(res)
    assert all(c.is_zero() for c in coords[h.ell:])
    return tuple(to_invariant_coordinates(cf, c) for c in coords[: h.ell])


def omega_entries(h: DSHierarchy, max_a: int, max_k: int) -> dict:
    """Tau-structure entries from the Borel resolvents, rewritten in u-jets.

    The extraction is ``DSHierarchy.omega_table`` itself, run on a copy of
    the hierarchy whose canonical-form operator is replaced by the Borel one.
    """
    borel = copy.copy(h)
    borel.lax_u = h.lax_q
    borel._omega = {}
    table = borel.omega_table(max_a, max_k)
    return {key: to_invariant_coordinates(h.canform, val)
            for key, val in table.entries.items()}
