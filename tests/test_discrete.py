import random
from fractions import Fraction

import pytest

import discrete_route as ref
from dshierarchy import discrete
from dshierarchy.diffalg import Derivation, DiffPoly, EpsSeries
from dshierarchy.discrete import (DifferenceRing, ShiftJetMap, ShiftWindowError,
                                  embed_differential, invert_discrete_miura)
from dshierarchy.miura import LeadingMapError, MiuraTuple
from reference_ops import induce_derivation

v = DiffPoly.dvar


@pytest.fixture
def ring():
    return DifferenceRing(1, (-8, 8))


def _random_dpoly(rng, ring, span=3, terms=3):
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, terms)):
        mono = DiffPoly.const(rng.randint(-4, 4))
        for _ in range(rng.randint(1, 2)):
            mono = mono * v(1, rng.randint(-span, span))
        p = p + mono
    return p


def test_shift_examples(ring):
    assert ring.shift(v(1, 0), 1) == v(1, 1)
    assert ring.shift(v(1, 0) * v(1, 1), 1) == v(1, 1) * v(1, 2)
    p = v(1, 0) ** 2 + v(1, -1)
    assert ring.shift(ring.shift(p, 1), -1) == p


def test_shift_window_overflow(ring):
    with pytest.raises(ShiftWindowError):
        ring.shift(v(1, 8), 1)
    with pytest.raises(ShiftWindowError):
        ring.var(1, 9)


def test_shift_is_multiplicative(ring, rng):
    for _ in range(10):
        p = _random_dpoly(rng, ring)
        q = _random_dpoly(rng, ring)
        assert ring.shift(p * q, 1) == ring.shift(p, 1) * ring.shift(q, 1)


def test_discrete_derivation_examples(ring):
    d = Derivation.from_polys([v(1, 1) - v(1, 0)], 0, ring.jet_map)
    assert d(v(1, 1)).component(0) == v(1, 2) - v(1, 1)
    assert d.commutator(d).is_zero()


def test_derivation_commutes_with_shift(ring, rng):
    for _ in range(10):
        w = _random_dpoly(rng, ring, span=2)
        d = Derivation.from_polys([w], 0, ring.jet_map)
        p = _random_dpoly(rng, ring, span=2)
        assert (d(ring.shift(p, 1)) - ring.shift(d(p), 1)).is_zero()


def test_discrete_miura_identity(ring):
    k = 3
    ident = invert_discrete_miura(
        ring, [EpsSeries.of_poly(v(1, 0), k)])
    assert ident.inverse[0] == EpsSeries.of_poly(v(1, 0), k)


def test_discrete_miura_alternating_series(ring):
    k = 3
    val = EpsSeries.of_poly(v(1, 0), k) + EpsSeries.of_poly(v(1, 1), k, 1)
    assert MiuraTuple([val]).jacobian_det() == DiffPoly.const(1)
    pair = invert_discrete_miura(ring, [val])
    expect = EpsSeries.zero(k)
    for j in range(k + 1):
        expect = expect + EpsSeries.of_poly(v(1, j) * Fraction((-1) ** j), k, j)
    assert pair.inverse[0] == expect
    assert pair.phi(pair.inverse[0]) == EpsSeries.of_poly(v(1, 0), k)
    assert pair.psi(pair.phi(v(1, 0))) == EpsSeries.of_poly(v(1, 0), k)


def test_discrete_miura_degenerate_leading(ring):
    k = 2
    with pytest.raises(LeadingMapError):
        invert_discrete_miura(ring, [EpsSeries.of_poly(v(1, 0) ** 2, k)])
    with pytest.raises(LeadingMapError):
        invert_discrete_miura(ring, [EpsSeries.of_poly(v(1, 1), k)])


def test_induced_derivations_respect_commutators(ring, rng):
    k = 2
    val = EpsSeries.of_poly(v(1, 0), k) + EpsSeries.of_poly(v(1, 1), k, 1)
    pair = invert_discrete_miura(ring, [val])
    for _ in range(4):
        d1 = Derivation.from_polys(
            [_random_dpoly(rng, ring, span=1, terms=2)], k, ring.jet_map)
        d2 = Derivation.from_polys(
            [_random_dpoly(rng, ring, span=1, terms=2)], k, ring.jet_map)
        lhs = induce_derivation(pair, d1).commutator(induce_derivation(pair, d2))
        rhs = induce_derivation(pair, d1.commutator(d2))
        assert all((a - b).is_zero() for a, b in zip(lhs.chars, rhs.chars))


def test_embed_examples():
    k = 2
    got = embed_differential(v(1, 1), k)
    expect = (EpsSeries.of_poly(DiffPoly.var(1, 0), k)
              + EpsSeries.of_poly(DiffPoly.var(1, 1), k, 1)
              + EpsSeries.of_poly(DiffPoly.var(1, 2) * Fraction(1, 2), k, 2))
    assert got == expect
    assert embed_differential(v(1, 0), k) == \
        EpsSeries.of_poly(DiffPoly.var(1, 0), k)


def test_embed_is_algebra_homomorphism(ring, rng):
    k = 2
    for _ in range(10):
        p = _random_dpoly(rng, ring, span=2)
        q = _random_dpoly(rng, ring, span=2)
        lhs = embed_differential(p * q, k)
        rhs = embed_differential(p, k) * embed_differential(q, k)
        assert (lhs - rhs).is_zero()


def test_embed_intertwines_shift(ring, rng):
    k = 2
    for _ in range(20):
        p = _random_dpoly(rng, ring, span=3)
        lhs = embed_differential(ring.shift(p, 1), k)
        rhs = embed_differential(p, k).exp_dx()
        assert (lhs - rhs).is_zero()


def test_embedding_computes_each_image_once(ring, rng, monkeypatch):
    # the embedding's jet map lives for the process: any number of calls at
    # one eps order computes the image of each (a, m) once
    calls = []
    step = discrete._Embedding.step

    def counted(self, alpha, m):
        calls.append((alpha, m, self.order))
        return step(self, alpha, m)

    monkeypatch.setattr(discrete._Embedding, "step", counted)
    discrete._embedding.cache_clear()
    for _ in range(40):
        p = _random_dpoly(rng, ring, span=3)
        lhs = embed_differential(ring.shift(p, 1), 3)
        assert lhs == embed_differential(p, 3).exp_dx()
    assert calls and len(calls) == len(set(calls))
    assert {m for _, m, _ in calls} <= set(range(-3, 5))
    # the memoised shift maps still stop at the window edge
    assert ring.shift(v(1, 7), 1) == v(1, 8)
    for _ in range(2):
        with pytest.raises(ShiftWindowError,
                           match=r"shift by 1 pushes u_\(1,8\) outside \(-8, 8\)"):
            ring.shift(v(1, 7) * v(1, 8), 1)


def test_embedded_derivations_are_admissible(ring, rng):
    # embed(D(p)) = D_hat(embed(p)) with D_hat the evolutionary derivation
    # whose characteristic is the embedded one (such derivations commute
    # with the total derivative by construction).
    k = 2
    for _ in range(6):
        w = _random_dpoly(rng, ring, span=2, terms=2)
        d = Derivation.from_polys([w], 0, ring.jet_map)
        d_hat = Derivation([embed_differential(w, k)])
        p = _random_dpoly(rng, ring, span=2, terms=2)
        lhs = embed_differential(d(p).component(0), k)
        rhs = d_hat(embed_differential(p, k))
        assert (lhs - rhs).is_zero()


def test_toy_translation_family_tau_structure():
    # D_j(u_m) = u_{m+j} - u_m with Omega_{i;j} = u_{i+j} - u_i - u_j + u_0:
    # symmetric, tau-symmetric, and the family is integrable.
    ring = DifferenceRing(1, (-12, 12))
    jmax = 3
    fam = {j: Derivation.from_polys([v(1, j) - v(1, 0)], 0, ring.jet_map)
           for j in range(1, jmax + 1)}
    omega = {(i, j): v(1, i + j) - v(1, i) - v(1, j) + v(1, 0)
             for i in range(1, jmax + 1) for j in range(1, jmax + 1)}
    for i in fam:
        for j in fam:
            assert fam[i].commutator(fam[j]).is_zero()
            assert omega[(i, j)] == omega[(j, i)]
            for k in fam:
                lhs = fam[i](omega[(j, k)])
                rhs = fam[k](omega[(i, j)])
                assert (lhs - rhs).is_zero()
            assert not omega[(i, j)].is_constant()


# -- the shared route against the separate difference-ring route ------------

def _random_tuple(rng, ell, k):
    """A random discrete Miura tuple: invertible affine eps^0 part, shifted tail."""
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(ell)] for _ in range(ell)]
        det = mat[0][0] if ell == 1 else mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det:
            break
    values = []
    for i in range(ell):
        lead = DiffPoly.const(rng.randint(-2, 2))
        for b in range(ell):
            lead = lead + v(b + 1, 0) * mat[i][b]
        val = EpsSeries.of_poly(lead, k)
        for q in range(1, k + 1):
            val = val + EpsSeries.of_poly(_random_tail(rng, ell), k, q)
        values.append(val)
    return values


def _random_tail(rng, ell, terms=2):
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, terms)):
        mono = DiffPoly.const(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            mono = mono * v(rng.randint(1, ell), rng.randint(-1, 1))
        p = p + mono
    return p


def _random_series(rng, ell, k):
    return EpsSeries([_random_tail(rng, ell) for _ in range(k + 1)], k)


CASES = [(ell, k) for ell in (1, 2) for k in (0, 1, 2, 3)]


@pytest.mark.parametrize("ell,k", CASES)
def test_derivations_match_reference(ell, k):
    rng = random.Random(7000 + 10 * ell + k)
    ring = DifferenceRing(ell, (-12, 12))
    for _ in range(3):
        chars = [_random_series(rng, ell, k) for _ in range(ell)]
        d = Derivation(chars, ring.jet_map)
        d_ref = ref.DiscreteDerivation(ring, chars, k)
        p = _random_series(rng, ell, k)
        assert d(p) == d_ref(p)
        other = [_random_series(rng, ell, k) for _ in range(ell)]
        got = d.commutator(Derivation(other, ring.jet_map)).chars
        assert got == d_ref.commutator(ref.DiscreteDerivation(ring, other, k)).chars


@pytest.mark.parametrize("ell,k", CASES)
def test_miura_inverse_matches_reference(ell, k):
    rng = random.Random(8000 + 10 * ell + k)
    ring = DifferenceRing(ell, (-16, 16))
    values = _random_tuple(rng, ell, k)
    pair = invert_discrete_miura(ring, values)
    pair_ref = ref.invert_discrete_miura(ring, values)
    assert pair.inverse == pair_ref.inverse
    for _ in range(2):
        p = _random_tail(rng, ell)
        assert pair.phi(pair.psi(p)) == pair_ref.phi(pair_ref.psi(p)) \
            == EpsSeries.of_poly(p, k)
        assert pair.psi(pair.phi(p)) == pair_ref.psi(pair_ref.phi(p))
    d1, d2 = ([_random_tail(rng, ell, terms=1) for _ in range(ell)] for _ in range(2))
    new = [Derivation.from_polys(w, k, ring.jet_map) for w in (d1, d2)]
    old = [ref.DiscreteDerivation(ring, w, k) for w in (d1, d2)]
    ind = [induce_derivation(pair, d) for d in new]
    ind_ref = [pair_ref.induce(d) for d in old]
    assert [i.chars for i in ind] == [i.chars for i in ind_ref]
    assert ind[0].commutator(ind[1]).chars == ind_ref[0].commutator(ind_ref[1]).chars


def test_window_errors_match_reference():
    ring = DifferenceRing(1, (-3, 3))
    d = Derivation.from_polys([v(1, 2)], 1, ring.jet_map)
    d_ref = ref.DiscreteDerivation(ring, [v(1, 2)], 1)
    assert d(v(1, 1)) == d_ref(v(1, 1))
    for route in (d, d_ref):
        with pytest.raises(ShiftWindowError):
            route(v(1, 2))
    val = [EpsSeries.of_poly(v(1, 0), 1) + EpsSeries.of_poly(v(1, 3), 1, 1)]
    for invert in (invert_discrete_miura, ref.invert_discrete_miura):
        with pytest.raises(ShiftWindowError):
            invert(ring, val)
    with pytest.raises(ShiftWindowError):
        ShiftJetMap(ring, [v(1, -3)])(1, -1)


def test_discrete_miura_with_constant_leading_term():
    # S^m(c) = c: the constant of the eps^0 part enters the linear inverse at
    # every shift, not only at shift 0 as d^m(c) = 0 would have it.
    k = 2
    ring = DifferenceRing(1, (-8, 8))
    val = EpsSeries.of_poly(v(1, 0) - 1, k) - EpsSeries.of_poly(v(1, -1) * v(1, 0), k, 1)
    pair = invert_discrete_miura(ring, [val])
    assert pair.inverse[0].component(1) == (v(1, -1) + 1) * (v(1, 0) + 1)
    for p in (v(1, 0), v(1, 2) * v(1, -1)):
        assert pair.phi(pair.psi(p)) == EpsSeries.of_poly(p, k)
        assert pair.psi(pair.phi(p)) == EpsSeries.of_poly(p, k)
