"""The tau-structure certificates on a system that is not Drinfeld-Sokolov.

The dispersionless KdV (Riemann) hierarchy, written by hand:

    D_k u = -u^k u_x / k!,   h_k = u^{k+1} / (k+1)!,
    Omega_{i;j} = u^{i+j+1} / ((i+j+1) i! j!),

with labels (1, k), so D_(1,0) = -d.  Every flow is of hydrodynamic type in
one variable, so the flows commute, and D_i Omega_{j;k} =
-u^{i+j+k} u_x / (i! j! k!) is symmetric in i, j, k.  The one tau-coordinate
is v = Omega_{(1,0);(1,0)} = u.  Every certificate runs here with no
``DSHierarchy``: this module imports nothing that builds one.
"""

import inspect
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from dshierarchy import certify
from dshierarchy.certify import (tau_coordinate_check, verify_integrability, verify_symmetry,
                                 verify_tau_symmetry)
from dshierarchy.diffalg import Derivation, DiffPoly
from reference_ops import Recording, tau_symmetry_direct

u = DiffPoly.var
ONE = (1, 0)
MAX_K = 3
LABELS = [(1, k) for k in range(MAX_K + 1)]


def riemann_flows() -> dict:
    return {(1, k): Derivation((-u(1) ** k * u(1, 1) * Fraction(1, factorial(k)),))
            for _, k in LABELS}


def riemann_table() -> dict:
    return {((1, i), (1, j)): u(1) ** (i + j + 1)
            * Fraction(1, (i + j + 1) * factorial(i) * factorial(j))
            for _, i in LABELS for _, j in LABELS}


def test_the_hand_written_data_are_a_tau_structure():
    flows, table = riemann_flows(), riemann_table()
    assert flows[ONE].is_minus_d()
    for _, k in LABELS:
        assert table[(1, k), ONE] == u(1) ** (k + 1) * Fraction(1, factorial(k + 1))


def test_every_certificate_passes_on_the_riemann_hierarchy():
    direct, table = riemann_flows(), riemann_table()
    called = set()

    symmetry = verify_symmetry(table)
    called.add("verify_symmetry")
    assert len(symmetry) == len(LABELS) ** 2
    assert all(r["residual_zero"] for r in symmetry)

    seen: list = []
    flows = {l: Recording(l, f, seen) for l, f in direct.items()}
    commutators = verify_integrability(flows)
    called.add("verify_integrability")
    assert len(commutators) == len(LABELS) * (len(LABELS) + 1) // 2
    assert all(r["residual_zero"] for r in commutators)

    seen.clear()
    got = verify_tau_symmetry(flows, table, commutators)
    called.add("verify_tau_symmetry")
    assert got == tau_symmetry_direct(direct, table)
    assert len(got) == len(LABELS) ** 3 and all(r["residual_zero"] for r in got)
    # every premise holds, so the d-lift decides each triple off (i, j, one):
    # D_i is applied to the densities h_j only, and D_one to the entries
    assert seen and {p for l, p in seen if l != ONE} <= {table[j, ONE] for j in LABELS}

    rep = tau_coordinate_check(direct, table, 1, eps_order=2, jet_depth=4,
                               check_labels=LABELS)
    called.add("tau_coordinate_check")
    assert rep["miura_type"] and rep["jacobian_det"] == "1"
    assert rep["reconstruction_matches"] == {str(list(l)): True for l in LABELS}
    assert rep["residual_zero"]

    public = {name for name, obj in vars(certify).items()
              if inspect.isfunction(obj) and obj.__module__ == certify.__name__
              and not name.startswith("_")}
    assert called == public


@pytest.mark.parametrize("delta", [u(1) ** 2, u(1, 1), u(1) * u(1, 1)],
                         ids=["u^2", "u_x", "u*u_x"])
def test_a_density_off_by_a_non_constant_fails_where_it_is_read(delta):
    flows, table = riemann_flows(), riemann_table()
    bad = (1, 2)
    for key in ((bad, ONE), (ONE, bad)):  # h_(1,2), kept symmetric
        table[key] = table[key] + delta
    got = verify_tau_symmetry(flows, table, verify_integrability(flows))
    assert got == tau_symmetry_direct(flows, table)
    corrupted = {(bad, ONE), (ONE, bad)}
    for r in got:
        i, j, k = (tuple(l) for l in r["triple"])
        # a triple that reads h_(1,2) on one side only sees D(delta) != 0
        reads_once = ((j, k) in corrupted) != ((i, j) in corrupted)
        assert r["residual_zero"] is not reads_once, r["triple"]
    assert all(r["residual_zero"] for r in verify_symmetry(table))
    rep = tau_coordinate_check(flows, table, 1, eps_order=2, jet_depth=4,
                               check_labels=LABELS)
    assert rep["reconstruction_matches"] == {str(list(l)): l != bad for l in LABELS}


def test_a_pair_of_flows_that_does_not_commute():
    # D_(1,2) replaced by the heat flow u_xx: it commutes with D_one = -d and
    # with no Riemann flow of k >= 1
    flows, table = riemann_flows(), riemann_table()
    flows[(1, 2)] = Derivation((u(1, 2),))
    commutators = verify_integrability(flows)
    failed = {(tuple(r["pair"][0]), tuple(r["pair"][1]))
              for r in commutators if not r["residual_zero"]}
    assert failed == {((1, 1), (1, 2)), ((1, 2), (1, 3))}
    got = verify_tau_symmetry(flows, table, commutators)
    assert got == tau_symmetry_direct(flows, table)
    assert not all(r["residual_zero"] for r in got)
    rep = tau_coordinate_check(flows, table, 1, eps_order=2, jet_depth=4,
                               check_labels=LABELS)
    assert rep["reconstruction_matches"] == {str(list(l)): l != (1, 2) for l in LABELS}


def test_certify_loads_no_drinfeld_sokolov_module():
    src = Path(__file__).parents[1] / "src"
    code = ("import sys, dshierarchy.certify; "
            "print(sorted(m for m in sys.modules if m.startswith('dshierarchy')))")
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == str(["dshierarchy", "dshierarchy.certify", "dshierarchy.diffalg"])
