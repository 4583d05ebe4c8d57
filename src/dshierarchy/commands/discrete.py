"""``dshier discrete``: difference-ring checks (embedding, Miura round trip, toy family)."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from ..diffalg import Derivation, DiffPoly, EpsSeries
from ..discrete import DifferenceRing, embed_differential, invert_discrete_miura
from ..serialize import dumps


def run(cfg, build) -> int:
    k = cfg.eps_order
    rng = random.Random(cfg.seed)
    # the toy family's tau check shifts omega entries (up to u_{2 j_max}) by
    # the characteristics of D_i (up to u_{j_max})
    j_max = 3
    half = max(cfg.t_degree + k + 6, 3 * j_max)
    win = (-half, half)
    ring = DifferenceRing(1, win)
    checks = []
    # embedding intertwines the shift with e^{eps d}
    ok = True
    span = 3
    for _ in range(cfg.samples):
        p = DiffPoly.zero()
        for _ in range(rng.randint(1, 3)):
            mono = DiffPoly.const(Fraction(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 2)):
                mono = mono * DiffPoly.dvar(1, rng.randint(-span, span))
            p = p + mono
        lhs = embed_differential(ring.shift(p, 1), k)
        rhs = embed_differential(p, k).exp_dx()
        if not (lhs - rhs).is_zero():
            ok = False
            break
    checks.append({"check": "embedding_intertwines_shift",
                   "samples": cfg.samples, "eps_order": k,
                   "residual_zero": ok})
    # discrete Miura round trip for V = (u + eps u_{,1})
    v0 = EpsSeries.of_poly(DiffPoly.dvar(1, 0), k) + \
        EpsSeries.of_poly(DiffPoly.dvar(1, 1), k, 1)
    pair = invert_discrete_miura(ring, [v0])
    rt1 = (pair.phi(pair.inverse[0]) - EpsSeries.of_poly(DiffPoly.dvar(1, 0), k)).is_zero()
    rt2 = (pair.psi(pair.phi(DiffPoly.dvar(1, 0))) -
           EpsSeries.of_poly(DiffPoly.dvar(1, 0), k)).is_zero()
    checks.append({"check": "discrete_miura_round_trip",
                   "jacobian_nonzero": not pair.forward.jacobian_det().is_zero(),
                   "residual_zero": rt1 and rt2})
    # admissibility [D, S] = 0 on a random sample
    ok = True
    for _ in range(10):
        w = DiffPoly.dvar(1, rng.randint(-2, 2)) * Fraction(rng.randint(-3, 3)) + \
            DiffPoly.dvar(1, rng.randint(-2, 2))
        d = Derivation.from_polys([w], k, ring.jet_map)
        p = DiffPoly.dvar(1, rng.randint(-2, 2)) * DiffPoly.dvar(1, rng.randint(-2, 2))
        if not (d(ring.shift(p, 1)) - ring.shift(d(p), 1)).is_zero():
            ok = False
            break
    checks.append({"check": "derivation_commutes_with_shift", "residual_zero": ok})
    # toy translation family: integrable and tau-symmetric
    fam = {j: Derivation.from_polys(
        [DiffPoly.dvar(1, j) - DiffPoly.dvar(1, 0)], k, ring.jet_map)
        for j in range(1, j_max + 1)}
    omega = {(i, j): DiffPoly.dvar(1, i + j) - DiffPoly.dvar(1, i)
             - DiffPoly.dvar(1, j) + DiffPoly.dvar(1, 0)
             for i in range(1, j_max + 1) for j in range(1, j_max + 1)}
    ok_comm = all(fam[i].commutator(fam[j]).is_zero()
                  for i in fam for j in fam)
    ok_sym = all((omega[(i, j)] - omega[(j, i)]).is_zero()
                 for (i, j) in omega)
    ok_tau = True
    for i in fam:
        for j in fam:
            for lab in fam:
                lhs = fam[i](omega[(j, lab)])
                rhs = fam[lab](omega[(i, j)])
                if not (lhs - rhs).is_zero():
                    ok_tau = False
    checks.append({"check": "toy_family_integrable", "residual_zero": ok_comm})
    checks.append({"check": "toy_family_tau_symmetric",
                   "residual_zero": ok_sym and ok_tau})
    all_pass = all(c["residual_zero"] for c in checks)
    payload = {"eps_order": k, "shift_window": list(win),
               "checks": checks, "all_pass": all_pass}
    sys.stdout.write(dumps(payload))
    return 0 if all_pass else 1
