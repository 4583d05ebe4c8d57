"""Miura-type changes of dependent variables and their order-by-order inverses.

A tuple V = (V_1..V_ell) of eps-series in the u-jets is of Miura type when
the Jacobian of its dispersionless part (eps^0, jet order 0) in the u
generators is nondegenerate.  Such a tuple defines the substitution
homomorphism phi_V from the v-jet ring to the u-jet ring (v_{a,m} maps to the
m-th jet of V_a: its m-th total derivative, or its m-th shift when the tuple
lives in a difference ring); its inverse psi_U is computed stage by stage
in eps: the eps^0 stage inverts the dispersionless map, and at stage q the
residual of the partial inverse is corrected through the inverse of the
dispersionless map, which only ever requires linear algebra over Q because
the in-scope dispersionless maps are affine-linear.  Nonlinear leading maps
(for example V = (u^2), whose inverse needs a square root) are reported as
errors rather than approximated.

Derivations transport through a Miura pair by conjugation, and flows can be
reconstructed from a tau-structure written in the new coordinates: when the
coordinates are two-point values of a distinguished flow that commutes with
everything, each flow is recovered from the tau-structure row by the chain
rule through the inverse map, with the jets d^m of the row read from one
``JetMap``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .diffalg import Derivation, DiffPoly, EpsSeries, JetMap
from .linalg import LinearSolver


class LeadingMapError(ValueError):
    """The dispersionless map cannot be inverted over the coefficient field."""


class JetDepthError(ValueError):
    """The inverse needs jet variables beyond the declared depth."""


def _det(mat: list[list[DiffPoly]]) -> DiffPoly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = DiffPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


class MiuraTuple:
    """An ell-tuple of eps-series in the u-jets, with the jet map of its ring.

    ``kind`` makes the jet maps (``JetMap`` for the differential ring,
    ``DifferenceRing.jet_map`` for a difference ring); the inverse of a pair
    uses the same kind.
    """

    def __init__(self, values: Sequence[EpsSeries],
                 kind: Callable[[Sequence], JetMap] = JetMap):
        values = tuple(values)
        if not values:
            raise ValueError("empty tuple")
        order = values[0].order
        for v in values:
            if v.order != order:
                raise ValueError("components disagree on eps truncation")
        self.values = values
        self.arity = len(values)
        self.order = order
        self.kind = kind
        self.jets = kind(values)

    def jacobian(self) -> list[list[DiffPoly]]:
        return [[v.component(0).partial((beta, 0)) for beta in range(1, self.arity + 1)]
                for v in self.values]

    def jacobian_det(self) -> DiffPoly:
        return _det(self.jacobian())


def forward_map(tup: MiuraTuple, p: DiffPoly | EpsSeries) -> EpsSeries:
    """phi_V: substitute v_{a,m} -> J^m(V_a); input lives in the v-jets."""
    return p.substitute(tup.jets)


class MiuraPair:
    """A Miura tuple together with its order-by-order inverse.

    forward holds V (in u-jets); inverse holds U (in v-jets) with
    phi_V(U_a) = u_a modulo eps^{order+1}.  ``jet_depth`` is the validated
    bound on the jet orders appearing in U.
    """

    def __init__(self, forward: MiuraTuple, inverse: Sequence[EpsSeries],
                 jet_depth: int):
        self.forward = forward
        self.inverse = tuple(inverse)
        self.arity = forward.arity
        self.order = forward.order
        self.jet_depth = jet_depth
        self._inverse_jets = forward.kind(self.inverse)

    def phi(self, p: DiffPoly | EpsSeries) -> EpsSeries:
        """v-jet ring -> u-jet ring."""
        return forward_map(self.forward, p)

    def psi(self, p: DiffPoly | EpsSeries) -> EpsSeries:
        """u-jet ring -> v-jet ring."""
        return p.substitute(self._inverse_jets)


def invert_miura(tup: MiuraTuple, jet_depth: int | None = None) -> MiuraPair:
    """Invert a Miura tuple order by order in eps.

    Requires the dispersionless map to be affine-linear with invertible
    linear part; otherwise the inverse would live in an algebraic extension
    of the coefficient field and a LeadingMapError is raised.  The jet orders
    of the inverse are tracked stage by stage and validated against
    ``jet_depth`` when given.
    """
    ell = tup.arity
    order = tup.order
    lin = [[Fraction(0)] * ell for _ in range(ell)]
    const = [Fraction(0)] * ell
    for i, v in enumerate(tup.values):
        lead = v.component(0)
        for mono, c in lead.terms.items():
            if not mono:
                const[i] = c
            elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0][1] == 0:
                lin[i][mono[0][0][0] - 1] = c
            else:
                raise LeadingMapError(
                    "leading map not invertible over coefficient field: "
                    "dispersionless part is not affine-linear")
    solver = LinearSolver(lin)
    if solver.rank != ell:
        raise LeadingMapError(
            "leading map not invertible over coefficient field: "
            "singular dispersionless Jacobian")
    # columns of the inverse matrix: ainv[j][i] = A^{-1}[i][j]
    ainv = [solver.solve([Fraction(int(i == j)) for i in range(ell)])
            for j in range(ell)]
    # u_{beta,m} -> the m-th jet of sum_g A^{-1}[beta][g] (v_g - c_g)
    lin_inverse = tup.kind([
        sum(((DiffPoly.var(g + 1) - const[g]) * ainv[g][beta]
             for g in range(ell) if ainv[g][beta]), DiffPoly.zero())
        for beta in range(ell)])

    inverse = [EpsSeries.zero(order) for _ in range(ell)]
    for stage in range(order + 1):
        for alpha in range(ell):
            residual = forward_map(tup, inverse[alpha]) - EpsSeries.var(alpha + 1, order)
            corr = residual.component(stage)
            if corr.is_zero():
                continue
            corr_v = corr.substitute(lin_inverse)
            inverse[alpha] = inverse[alpha] - EpsSeries.of_poly(corr_v, order, stage)
    depth_seen = max((u.max_order() for u in inverse), default=0)
    if jet_depth is not None and depth_seen > jet_depth:
        raise JetDepthError(
            f"inverse needs jets of order {depth_seen} > declared depth {jet_depth}")
    pair = MiuraPair(tup, inverse, depth_seen if jet_depth is None else jet_depth)
    for alpha in range(1, ell + 1):
        if not (pair.phi(pair.inverse[alpha - 1]) - EpsSeries.var(alpha, order)).is_zero():
            raise RuntimeError("inversion failed to close modulo the truncation")
    return pair


def reconstruct_flows(omega_rows: Mapping[object, Sequence[EpsSeries]],
                      pair: MiuraPair,
                      d_one: Derivation) -> dict[object, tuple[EpsSeries, ...]]:
    """Recover flows from tau-structure rows through the inverse map.

    ``omega_rows[j]`` is the tuple (Omega_{j; i_1}, ..., Omega_{j; i_ell}) in
    the u-jets, where the i_b are the labels whose two-point values with the
    distinguished flow are the new coordinates; ``d_one`` is the
    distinguished derivation (it must commute with every admissible
    derivation).  Returns the characteristic tuples of the reconstructed
    flows in the u-jets, a sum over the variables (b, m) of U_a:

        D_j(u_a) = sum_{b,m} d^m(d_one(Omega_{j; i_b})) phi(dU_a/dv_{b,m}).
    """
    ell = pair.arity
    out: dict[object, tuple[EpsSeries, ...]] = {}
    for j, row in omega_rows.items():
        row = tuple(row)
        if len(row) != ell:
            raise ValueError("tau-structure row length != arity")
        drow = JetMap([d_one(entry) for entry in row])
        out[j] = tuple(
            sum((drow(*v) * pair.phi(u.partial(v)) for v in sorted(u.variables())),
                EpsSeries.zero(pair.order))
            for u in pair.inverse)
    return out
