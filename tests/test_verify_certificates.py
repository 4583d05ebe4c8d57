"""The certificates of ``verify``: every verdict equals the direct route's.

``verify_tau_symmetry`` certifies a triple (i, j, k) from P(i, j), P(k, j),
the symmetry of Omega and the commutator of (i, k), and
``verify_gauge_invariance`` decides each u-generator once.  The direct
routes, ``reference_ops.tau_symmetry_direct`` and
``reference_ops.gauge_invariance_per_jet``, are the references: on every
type, and on stand-ins built so that one premise fails or the vacuum term is
nonzero.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from dshierarchy.certify import verify_integrability, verify_tau_symmetry
from dshierarchy.diffalg import Derivation, DiffPoly, JetMap
from dshierarchy.gauge import GaugeHomomorphism
from dshierarchy.hierarchy import OmegaTable, verify_gauge_invariance
from reference_ops import Recording, gauge_invariance_per_jet, tau_symmetry_direct

u = DiffPoly.var
ONE = (1, 0)


def _both(flows, table):
    """(certified, direct) reports; the certificate reads the commutator records."""
    commutators = verify_integrability(flows)
    return (verify_tau_symmetry(flows, table, commutators=commutators),
            tau_symmetry_direct(flows, table))


def _verdict(report, triple):
    want = [list(l) for l in triple]
    return next(r["residual_zero"] for r in report if r["triple"] == want)


def _synthetic(chars, entries):
    """Flows (1, k) with the given characteristics, on a symmetric table.

    ``chars`` lists the characteristics of (1, 1), (1, 2), ...; (1, 0) is
    -d.  Entries not given are 0.  The table is a plain map of label pairs.
    """
    arity = len(chars[0])
    labels = [(1, k) for k in range(len(chars) + 1)]
    flows = {ONE: Derivation(tuple(-u(a, 1) for a in range(1, arity + 1)))}
    flows.update({l: Derivation(tuple(c)) for l, c in zip(labels[1:], chars)})
    full = {(i, j): DiffPoly.zero() for i in labels for j in labels}
    for (i, j), val in entries.items():
        full[(i, j)] = full[(j, i)] = val
    return flows, full


# -- tau-symmetry --------------------------------------------------------------

@pytest.mark.parametrize("name, max_k", [("sl2", 4), ("sl3", 2), ("a22", 2)])
def test_tau_symmetry_certificate_matches_direct(request, name, max_k):
    h = request.getfixturevalue(name)
    table = h.omega_table(h.real.n, max_k)
    direct = h.flows(table.labels())
    seen: list = []
    flows = {l: Recording(l, f, seen) for l, f in direct.items()}
    commutators = verify_integrability(flows)
    seen.clear()
    got = verify_tau_symmetry(flows, table.entries, commutators=commutators)
    assert got == tau_symmetry_direct(direct, table.entries)
    assert len(got) == len(table.labels()) ** 3
    assert all(r["residual_zero"] for r in got)
    # every premise holds, so flows are applied only in the triples P(i, j):
    # D_i to the densities h_j, D_(1,0) to the entries
    assert seen and {p for f, p in seen if f != ONE} <= \
        {table.entry(j, ONE) for j in table.labels()}


def _corrupt(table, keys, delta):
    entries = dict(table.entries)
    for key in keys:
        entries[key] = entries[key] + delta
    return entries


@pytest.mark.parametrize("keys", [
    [((1, 1), (1, 1))],                              # on the diagonal
    [((1, 1), (2, 1))],                              # off the diagonal, one side
    [((1, 1), (2, 1)), ((2, 1), (1, 1))],            # off the diagonal, both sides
    [((2, 1), ONE)],                                 # h_(2,1) itself
    [((2, 1), ONE), (ONE, (2, 1))],                  # h_(2,1) and its transpose
    [((1, 0), (2, 0)), ((2, 0), (1, 0))],            # h_(2,0), a tau-coordinate
], ids=["diagonal", "off-diagonal", "off-diagonal-symmetric", "h_j",
        "h_j-symmetric", "h_(2,0)-symmetric"])
@pytest.mark.parametrize("delta", [u(1, 1), u(2, 0), u(1, 0) * u(2, 1)],
                         ids=["u1_x", "u2", "u1*u2_x"])
def test_tau_symmetry_corrupted_entry_matches_direct(sl3, keys, delta):
    table = sl3.omega_table(2, 1)
    got, want = _both(sl3.flows(table.labels()), _corrupt(table, keys, delta))
    assert got == want
    assert not all(r["residual_zero"] for r in want)


def test_tau_symmetry_stand_in_flow_whose_commutator_fails(sl3):
    table = sl3.omega_table(2, 1)
    flows = sl3.flows(table.labels())
    flows[(2, 1)] = Derivation(tuple(w + u(1, 0) ** 2 for w in flows[(2, 1)].chars))
    assert not all(r["residual_zero"] for r in verify_integrability(flows))
    got, want = _both(flows, table.entries)
    assert got == want
    assert not all(r["residual_zero"] for r in want)


def test_tau_symmetry_commutator_premise_is_read_from_the_records(sl3):
    # records that report every commutator failed: every triple is direct
    table = sl3.omega_table(2, 1)
    flows = sl3.flows(table.labels())
    failed = [{**r, "residual_zero": False} for r in verify_integrability(flows)]
    got = verify_tau_symmetry(flows, table.entries, commutators=failed)
    assert got == tau_symmetry_direct(flows, table.entries)


def test_tau_symmetry_noncommuting_flows_with_every_other_premise():
    # D_i = d/du, D_k with characteristic u^2 and h_j = u_x: P(i, j), P(k, j)
    # and the symmetry hold and the vacuum term is 0, but [D_i, D_k] != 0,
    # and the triple fails
    i, k, j = (1, 1), (1, 2), (1, 3)
    flows, table = _synthetic(
        [[DiffPoly.const(1)], [u(1) ** 2], [DiffPoly.zero()]],
        {(j, ONE): u(1, 1), (k, j): -u(1) ** 2})
    got, want = _both(flows, table)
    assert got == want
    assert _verdict(want, (i, j, ONE)) and _verdict(want, (k, j, ONE))
    assert not verify_integrability({i: flows[i], k: flows[k]})[1]["residual_zero"]
    assert _verdict(want, (i, j, k)) is False


def test_tau_symmetry_nonzero_vacuum_term():
    # characteristics with constant terms: D_i = d/du_1, D_k = d/du_2, and
    # h_j = u_1 u_2,x.  Every premise of (i, j, k) holds and the difference
    # D_i(Omega_jk) - D_k(Omega_ij) is the constant 1, read at the vacuum
    i, k, j = (1, 1), (1, 2), (1, 3)
    zero = DiffPoly.zero()
    flows, table = _synthetic(
        [[DiffPoly.const(1), zero], [zero, DiffPoly.const(1)], [zero, zero]],
        {(j, ONE): u(1) * u(2, 1), (i, j): -u(2)})
    got, want = _both(flows, table)
    assert got == want
    assert _verdict(want, (i, j, ONE)) and _verdict(want, (k, j, ONE))
    assert verify_integrability({i: flows[i], k: flows[k]})[1]["residual_zero"]
    assert _verdict(want, (i, j, k)) is False
    assert _verdict(want, (k, j, i)) is False


def test_tau_symmetry_stand_in_characteristic_with_a_constant_term(sl3):
    table = sl3.omega_table(2, 1)
    flows = sl3.flows(table.labels())
    flows[(1, 1)] = Derivation((flows[(1, 1)].chars[0] + Fraction(3, 2),)
                               + flows[(1, 1)].chars[1:])
    got, want = _both(flows, table.entries)
    assert got == want
    assert not all(r["residual_zero"] for r in want)


def test_tau_symmetry_stand_in_translation_flow(sl3):
    # D_(1,0) = -2d: the lift premise fails, and every triple is direct
    table = sl3.omega_table(2, 1)
    flows = sl3.flows(table.labels())
    flows[ONE] = Derivation(tuple(w + w for w in flows[ONE].chars))
    got, want = _both(flows, table.entries)
    assert got == want
    assert not all(r["residual_zero"] for r in want)


def test_tau_symmetry_translation_flow_that_is_not_d():
    # D_(1,0) = 0, so every P(i, j) reads 0 = 0 here, and D_i = D_k = d
    # commute; the triple fails all the same
    i, k, j = (1, 1), (1, 2), (1, 3)
    flows, table = _synthetic([[u(1, 1)], [u(1, 1)], [u(1, 1)]],
                              {(j, k): u(1), (i, j): u(1) ** 2})
    flows[ONE] = Derivation((DiffPoly.zero(),))
    got, want = _both(flows, table)
    assert got == want
    assert _verdict(want, (i, j, ONE)) and _verdict(want, (k, j, ONE))
    assert _verdict(want, (i, j, k)) is False


# -- gauge invariance ----------------------------------------------------------

@pytest.mark.parametrize("name, max_k", [("sl2", 2), ("sl3", 1), ("a22", 1)])
def test_gauge_certificate_matches_per_jet(request, monkeypatch, name, max_k):
    h = request.getfixturevalue(name)
    table = h.omega_table(h.real.n, max_k)
    want = gauge_invariance_per_jet(h, table)
    calls = []
    is_invariant = GaugeHomomorphism.is_invariant
    monkeypatch.setattr(GaugeHomomorphism, "is_invariant",
                        lambda self, w: calls.append(w) or is_invariant(self, w))
    assert verify_gauge_invariance(h, table) == want
    assert all(r["residual_zero"] for r in want)
    # one call per generator the table uses, not one per jet
    assert len(calls) == len({a for val in table.entries.values()
                              for a, _ in val.variables()})


class _Translation:
    """A stand-in gauge map: f(q_1) = q_1 + c, every other generator fixed."""

    def __init__(self, c: DiffPoly, arity: int):
        self.jets = JetMap([u(1) + c] + [u(a) for a in range(2, arity + 1)])

    def apply(self, w: DiffPoly) -> DiffPoly:
        return w.substitute(self.jets)

    def is_invariant(self, w: DiffPoly) -> bool:
        return self.apply(w) == w


@pytest.mark.parametrize("c", [DiffPoly.const(1), DiffPoly.const(Fraction(-2, 3)),
                               u(2), u(2, 1) + 1], ids=["1", "-2/3", "u2", "u2_x+1"])
def test_gauge_stand_in_shift(c):
    # the canonical coordinates are q_1, q_2 themselves and f shifts q_1 by c:
    # by a nonzero constant, f fixes d^m u_1 for m >= 1 only; by anything
    # else, no jet of u_1
    hom = _Translation(c, 2)
    stand_in = SimpleNamespace(canform=SimpleNamespace(jets=JetMap([u(1), u(2)])),
                               gauge_homomorphism=lambda: hom)
    values = [u(1), u(1, 1), u(1, 2) ** 2 + u(2), u(1) * u(1, 1), u(2, 3),
              DiffPoly.const(5), u(1, 1) * u(2) - u(1, 3)]
    labels = [(1, k) for k in range(len(values))]
    entries = {(i, j): values[(i[1] + j[1]) % len(values)]
               for i in labels for j in labels}
    table = OmegaTable(entries, 1, len(values) - 1)
    got = verify_gauge_invariance(stand_in, table)
    assert got == gauge_invariance_per_jet(stand_in, table)
    for r in got:
        jets = table.entry(*(tuple(l) for l in r["pair"])).variables()
        moved = {(1, 0)} if c.is_constant() else {v for v in jets if v[0] == 1}
        assert r["residual_zero"] is not (jets & moved)
    assert 0 < sum(r["residual_zero"] for r in got) < len(got)
