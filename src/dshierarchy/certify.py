"""The tau-structure certificates, on any system of evolutionary PDEs.

The source paper proves that for any system of evolutionary PDEs, a
tau-structure with a non-degeneracy condition implies integrability; the
Drinfeld-Sokolov hierarchy (``hierarchy``) is its worked example.  So no
certificate reads how a system was built.  ``flows`` maps each label (a, k)
to a ``diffalg.Derivation`` over plain ``DiffPoly`` characteristics; the
distinguished flow is one = (1, 0), with densities h_j = Omega_{j;one}.
``omega`` maps every pair of its labels to a ``DiffPoly``.  What each
certificate assumes (its argument is in its docstring):

- ``verify_symmetry`` and ``verify_integrability``: nothing; each pair is
  compared, each commutator [D_i, D_k], i != k, computed.
- ``verify_tau_symmetry``: a triple is certified by the d-lift only where
  D_one = -d, its two triples through one, the symmetry of its entry and the
  commutator of its outer pair all hold; any other is computed directly.
- ``tau_coordinate_check``: the tau-coordinates v_a = Omega_{(a,0);one},
  a = 1..ell, are of Miura type and D_one = -d; then each flow is rebuilt
  from its row of the table.
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .diffalg import Derivation, DiffPoly, EpsSeries

Label = tuple[int, int]
Table = Mapping[tuple[Label, Label], DiffPoly]
ONE: Label = (1, 0)


def verify_symmetry(omega: Table) -> list[dict]:
    """Omega_{i;j} = Omega_{j;i}, compared for every ordered pair of labels."""
    labels = sorted({i for i, _ in omega})
    return [{
        "check": "omega_symmetry",
        "pair": [list(i), list(j)],
        "residual_zero": omega[i, j] == omega[j, i],
    } for i in labels for j in labels]


def verify_integrability(flows: Mapping[Label, Derivation]) -> list[dict]:
    """Pairwise commutators of flows, in the order of ``flows``; exact residuals in the plain ring.

    A pair (i, i) is not computed: [D, D] = 0 for every derivation D."""
    items = list(flows.items())
    return [{
        "check": "flow_commutator",
        "pair": [list(i), list(k)],
        "residual_zero": k == i or fi.commutator(fk).is_zero(),
    } for n, (i, fi) in enumerate(items) for k, fk in items[n:]]


def verify_tau_symmetry(flows: Mapping[Label, Derivation], omega: Table,
                        commutators: Iterable[dict]) -> list[dict]:
    """D_i(Omega_{j;k}) = D_k(Omega_{i;j}) over the table labels in ``flows``.

    Most triples are certified by the d-lift of a few computed directly.
    Write P(i, j) for the triple (i, j, one), that is
    D_i(h_j) = D_one(Omega_{i;j}).  A triple (i, j, k) is certified when

    - flow one has characteristics exactly -u_{a,1}, so D_one = -d;
    - P(i, j) and P(k, j) hold;
    - Omega_{j;k} = Omega_{k;j};
    - the ``flow_commutator`` record of (i, k) among ``commutators`` (the
      records of ``verify_integrability``) passed, so [D_i, D_k] = 0.

    Evolutionary derivations commute with d, so by P(k, j), the symmetry and
    P(i, j), d(D_i Omega_{j;k} - D_k Omega_{i;j}) = [D_k, D_i] h_j = 0.  The
    kernel of d is the constants, so the difference is its value at the
    vacuum, where every jet is 0.  d^m of anything has no constant term for
    m >= 1, so that value is

        sum_a W_{i,a}(0) [u_{a,0}]Omega_{j;k} - sum_a W_{k,a}(0) [u_{a,0}]Omega_{i;j},

    with W_{i,a}(0) the constant term of a characteristic and [u_{a,0}] the
    coefficient of the linear monomial; a certified triple holds iff it is
    zero.  Every P(i, j), and every triple whose premises do not all hold,
    is computed directly.  So each verdict equals the direct route's, which
    the tests keep as the reference.
    """
    labels = [l for l in sorted({i for i, _ in omega}) if l in flows]
    lift = ONE in flows and flows[ONE].is_minus_d()
    # D_i(p) memoised on (i, p): Omega is symmetric, so most values recur,
    # and a corrupted entry never shares a key with its transpose
    applied: dict[tuple[Label, DiffPoly], DiffPoly] = {}

    def apply(label: Label, p: DiffPoly) -> DiffPoly:
        got = applied.get((label, p))
        if got is None:
            got = applied[(label, p)] = flows[label](p)
        return got

    @cache
    def holds(i: Label, j: Label, k: Label) -> bool:
        """The triple (i, j, k), computed directly."""
        return apply(i, omega[j, k]) == apply(k, omega[i, j])

    # the nonzero constant terms W_{i,a}(0) of each flow's characteristics
    consts = {l: [(a, w.constant_term()) for a, w in enumerate(f.chars, 1)
                  if w.constant_term()] for l, f in flows.items()}

    def vacuum(label: Label, p: DiffPoly) -> Fraction:
        """The constant term of D_label(p)."""
        return sum(c * p.terms.get((((a, 0), 1),), 0) for a, c in consts[label])

    commuting = set()
    for c in commutators:
        if c["residual_zero"]:
            i, k = (tuple(l) for l in c["pair"])
            commuting |= {(i, k), (k, i)}
    out = []
    for i, j, k in product(labels, repeat=3):
        if (lift and k != ONE and (i, k) in commuting
                and omega[j, k] == omega[k, j]
                and holds(i, j, ONE) and holds(k, j, ONE)):
            ok = vacuum(i, omega[j, k]) == vacuum(k, omega[i, j])
        else:
            ok = holds(i, j, k)
        out.append({
            "check": "tau_symmetry",
            "triple": [list(i), list(j), list(k)],
            "residual_zero": ok,
        })
    return out


def tau_coordinate_check(flows: Mapping[Label, Derivation], omega: Table, ell: int,
                         eps_order: int = 2, jet_depth: int = 6,
                         check_labels: Sequence[Label] = ((1, 1),)) -> dict:
    """Tau-coordinates, Miura property, and flow reconstruction.

    V = (Omega_{(a,0);one})_{a=1..ell}, as graded series, is of Miura type
    when its dispersionless Jacobian is nonzero; then it inverts order by
    order in eps.  By tau-symmetry D_j(v_b) = D_one(Omega_{j;(b,0)}), so with
    D_one = -d the chain rule through the inverse rebuilds each flow of
    ``check_labels`` from its table row (``miura.reconstruct_flows``), to be
    compared with ``flows[j]``, both graded to ``eps_order``.
    """
    # imported here, its only reader: derive, omega and solve never compile it
    from .miura import MiuraTuple, invert_miura, reconstruct_flows
    tup = MiuraTuple([EpsSeries.regrade(omega[(a, 0), ONE], eps_order, shift=0)
                      for a in range(1, ell + 1)])
    det = tup.jacobian_det()
    ok = not det.is_zero()
    report = {
        "check": "tau_coordinates",
        "miura_type": ok,
        "jacobian_det": repr(det),
    }
    if not ok:
        report["residual_zero"] = False
        report["error"] = "tau-coordinates degenerate"
        return report
    pair = invert_miura(tup, jet_depth=jet_depth)
    if not flows[ONE].is_minus_d():
        report["residual_zero"] = False
        report["error"] = "distinguished flow is not -d"
        return report
    rows = {tuple(j): [EpsSeries.regrade(omega[tuple(j), (b, 0)], eps_order, shift=0)
                       for b in range(1, ell + 1)] for j in check_labels}
    recon = reconstruct_flows(rows, pair, flows[ONE].graded(eps_order))
    report["reconstruction_matches"] = {
        str(list(j)): all((rc - w).is_zero()
                          for rc, w in zip(chars, flows[j].graded(eps_order).chars))
        for j, chars in recon.items()}
    report["residual_zero"] = all(report["reconstruction_matches"].values())
    report["inverse_jet_depth"] = max(u.max_order() for u in pair.inverse)
    return report
