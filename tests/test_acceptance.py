"""Acceptance suite: one test per structural criterion, with pass/fail lines.

Every check is an exact symbolic identity (zero residual); tolerances are
pinned here and nowhere else.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines and timings.
"""

import random
import time
from fractions import Fraction

import pytest

from dshierarchy.diffalg import Derivation, DiffPoly, EpsSeries
from dshierarchy.discrete import (DifferenceRing, embed_differential,
                                  invert_discrete_miura)
from dshierarchy.certify import (tau_coordinate_check, verify_integrability, verify_symmetry,
                                 verify_tau_symmetry)
from dshierarchy.hierarchy import DSHierarchy, verify_gauge_invariance
from dshierarchy.miura import MiuraTuple, invert_miura
from dshierarchy.solution import (flow_equation_report, gbgw_initial,
                                  integrate_formal, two_point_functions)

u = DiffPoly.var


def _report(num: int, ok: bool, text: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num:02d}  {text}  ({time.time() - t0:.2f}s)")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_translation_flow_is_minus_d():
    # D_{1,0}(u_a) = -u_{a,1} exactly for (A1^(1), c0) and (A2^(1), c0).
    for type_name in ("a1_1", "a2_1"):
        t0 = time.time()
        h = DSHierarchy(type_name, max_flow_k=0, omega_max_k=0)
        f = h.flow((1, 0))
        ok = list(f.chars) == [-u(a, 1) for a in range(1, h.ell + 1)]
        elapsed = time.time() - t0
        _report(1, ok and elapsed < 10.0,
                f"{type_name}: D_(1,0) = -d, exact, runtime < 10 s", t0)


def test_criterion_02_pairwise_commutators(sl2, sl3):
    t0 = time.time()
    cases = [(sl2, [(1, 0), (1, 1), (1, 2)]),
             (sl3, [(1, 0), (2, 0), (1, 1), (2, 1)])]
    ok = True
    for h, labels in cases:
        flows = h.flows(labels)
        # exact, eps-free
        rep = verify_integrability(flows)
        ok = ok and all(r["residual_zero"] for r in rep)
        # and in the graded form at eps-order 4 (jet depth stays within 8)
        derivs = [f.graded(4) for f in flows.values()]
        for i in range(len(derivs)):
            for j in range(i + 1, len(derivs)):
                ok = ok and derivs[i].commutator(derivs[j]).is_zero()
        ok = ok and all(w.max_order() <= 8 for f in flows.values() for w in f.chars)
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 300.0,
            "all pairwise flow commutators vanish exactly "
            "(eps-order 4, jet depth 8), runtime < 5 min", t0)


def test_criterion_03_omega_symmetry(sl2, sl3):
    t0 = time.time()
    ok = True
    for h, max_k in ((sl2, 2), (sl3, 1)):
        table = h.omega_table(h.real.n, max_k)
        ok = ok and all(r["residual_zero"] for r in verify_symmetry(table.entries))
    _report(3, ok, "Omega_(a,k1;b,k2) = Omega_(b,k2;a,k1) exactly, "
            "every computed entry", t0)


def test_criterion_04_tau_symmetry(sl2, sl3):
    t0 = time.time()
    ok = True
    for h in (sl2, sl3):
        table = h.omega_table(h.real.n, 1)
        labels = [(a, k) for a in range(1, h.real.n + 1) for k in (0, 1)]
        flows = h.flows(labels)
        rep = verify_tau_symmetry(flows, table.entries, verify_integrability(flows))
        ok = ok and all(r["residual_zero"] for r in rep) and len(rep) == len(labels) ** 3
    _report(4, ok, "tau-symmetry D_i(Omega_jk) = D_k(Omega_ij) for all "
            "triples with k <= 1, zero residual", t0)


def test_criterion_05_omega_gauge_invariance(sl2, sl3):
    t0 = time.time()
    ok = True
    for h, max_k in ((sl2, 2), (sl3, 1)):
        table = h.omega_table(h.real.n, max_k)
        rep = verify_gauge_invariance(h, table)
        ok = ok and all(r["residual_zero"] for r in rep) \
            and not any("skipped" in r for r in rep)
    _report(5, ok, "f(Omega) - Omega = 0 identically in the extended "
            "(q, S) ring, every computed entry", t0)


def test_criterion_06_resolvent_residuals(sl2, sl3):
    t0 = time.time()
    ok = True
    for h, max_k in ((sl2, 2), (sl3, 1)):
        real = h.real
        need = real.exponents[-1] + 2 * max_k * real.twist_order
        for lax in (h.lax_q, h.lax_u):
            rs = {a: lax.resolvent(a, need + 1) for a in range(1, real.n + 1)}
            for a, r in rs.items():
                ok = ok and r.depth >= need
                ok = ok and not r.commutator_residual_slices()
                ok = ok and r.leading_is_heisenberg()
                for b, rb in rs.items():
                    ok = ok and not r.pairing_residual(rb)
    _report(6, ok, "[L, R] and (R_a|R_b) - h delta lambda^N vanish exactly "
            "through depth >= m_n + 2 max(k) N", t0)


def test_criterion_07_miura_property_and_reconstruction(sl2, sl3):
    t0 = time.time()
    ok = True
    for h in (sl2, sl3):
        table = h.omega_table(h.real.n, 1)
        rep = tau_coordinate_check(h.flows(table.labels()), table.entries, h.ell,
                                   eps_order=2, jet_depth=6, check_labels=[(1, 1)])
        ok = ok and rep["miura_type"] and rep["residual_zero"]
        ok = ok and rep["inverse_jet_depth"] <= 6
    _report(7, ok, "V = (Omega_(a,0;1,0)) is Miura-type and the "
            "reconstructed (1,1)-flow equals ds_flow (eps <= 2, jets <= 6)", t0)


def test_criterion_08_miura_round_trip_mod_eps5():
    t0 = time.time()
    K = 4
    val = EpsSeries.of_poly(u(1), K) + EpsSeries.of_poly(u(1, 1), K, 1)
    pair = invert_miura(MiuraTuple([val]))
    ok = (pair.phi(pair.psi(u(1))) - EpsSeries.var(1, K)).is_zero()
    ok = ok and (pair.psi(pair.phi(u(1))) - EpsSeries.var(1, K)).is_zero()
    _report(8, ok, "V = (u + eps u_x): phi(psi(u)) = u and psi(phi(v)) = v "
            "modulo eps^5", t0)


def test_criterion_09_twisted_case(a22):
    t0 = time.time()
    real = a22.real
    ok = (real.r, real.h, real.twist_order) == (2, 3, 2)
    ok = ok and real.exponents == [1, 5]
    rh = real.r * real.h
    ok = ok and all(real.exponents[a] + real.exponents[real.n - 1 - a] == rh
                    for a in range(real.n))
    lam1, lam5 = real.heisenberg_element(1), real.heisenberg_element(5)
    ok = ok and lam1.pair(lam5) == {2: DiffPoly.const(3)}  # h lambda^N = 3 lambda^2
    # criterion 1 at the twisted vertex
    f = a22.flow((1, 0))
    ok = ok and list(f.chars) == [-u(1, 1)]
    # criterion 3 at reduced depth (k <= 1)
    table = a22.omega_table(2, 1)
    ok = ok and all(r["residual_zero"] for r in verify_symmetry(table.entries))
    # criterion 6 at reduced depth
    need = real.exponents[-1] + 2 * 1 * real.twist_order
    rs = {a: a22.lax_u.resolvent(a, need + 1) for a in (1, 2)}
    for a, r in rs.items():
        ok = ok and not r.commutator_residual_slices()
        for b, rb in rs.items():
            ok = ok and not r.pairing_residual(rb)
    elapsed = time.time() - t0
    _report(9, ok and elapsed < 120.0,
            "A2^(2) at c0: gradations, exponents, Heisenberg normalization, "
            "and criteria 1/3/6 at reduced depth, runtime < 2 min", t0)


def test_criterion_10_discrete_embedding_and_miura():
    t0 = time.time()
    K = 2  # identities modulo eps^3
    rng = random.Random(20230403)
    ring = DifferenceRing(1, (-10, 10))
    ok = True
    for _ in range(100):
        p = DiffPoly.zero()
        for _ in range(rng.randint(1, 3)):
            mono = DiffPoly.const(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 2)):
                mono = mono * DiffPoly.dvar(1, rng.randint(-3, 3))
            p = p + mono
        lhs = embed_differential(ring.shift(p, 1), K)
        rhs = embed_differential(p, K).exp_dx()
        ok = ok and (lhs - rhs).is_zero()
    val = EpsSeries.of_poly(DiffPoly.dvar(1, 0), K) + \
        EpsSeries.of_poly(DiffPoly.dvar(1, 1), K, 1)
    pair = invert_discrete_miura(ring, [val])
    ok = ok and (pair.phi(pair.inverse[0])
                 - EpsSeries.of_poly(DiffPoly.dvar(1, 0), K)).is_zero()
    ok = ok and (pair.psi(pair.phi(DiffPoly.dvar(1, 0)))
                 - EpsSeries.of_poly(DiffPoly.dvar(1, 0), K)).is_zero()
    _report(10, ok, "embed o shift = e^(eps d) o embed mod eps^3 on 100 "
            "random difference polynomials; discrete Miura round trip exact", t0)


def test_criterion_11_gbgw_two_point_compatibility(sl2):
    t0 = time.time()
    init = gbgw_initial(sl2.real, [Fraction(1)])
    flows = sl2.flows([(1, 0), (1, 1)])
    sol = integrate_formal(flows, init, t_degree=2, eps_order=2)
    table = sl2.omega_table(1, 1)
    tp = two_point_functions(sol, table)
    ok = all(r["residual_zero"] for r in tp["cross_derivatives"])
    ok = ok and all(r["residual_zero"] for r in flow_equation_report(sol, flows))
    elapsed = time.time() - t0
    _report(11, ok and elapsed < 60.0,
            "sl2 gBGW (C=1): two-point cross-derivative residuals vanish "
            "exactly through t-degree 1, runtime < 1 min", t0)
