"""Test helpers for ring homomorphisms given by the images of the jets.

``FunctionJets`` is a jet map whose images come from a function, for tests
that state the image of every jet by a formula; ``memoised_monomials`` reads
the memo of monomial images of a jet map, and ``snapshot`` records a value
so that a later mutation shows.  ``reference_substitute`` is the
monomial-by-monomial evaluation that ``DiffPoly.substitute`` replaced, kept
as an independent reference.
"""

from dshierarchy.diffalg import EpsSeries, JetMap, _monomial


class FunctionJets(JetMap):
    """The jets (alpha, m) -> fn(alpha, m), for every alpha and every m."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__([])
        self.fn = fn

    def step(self, alpha: int, m: int):
        return self.fn(alpha, m)


def memoised_monomials(jets):
    """(monomial, value) for each image in the monomial memo of a jet map."""
    return [(_monomial(m), value) for m, value in jets._monomials.items()]


def snapshot(value):
    """The stored parts of a DiffPoly, EpsSeries or RatFunc, copied."""
    if isinstance(value, EpsSeries):
        return value.order, tuple(snapshot(c) for c in value.components)
    return value._den, tuple(value._num.items())   # DiffPoly and RatFunc alike


def reference_substitute(p, jet, one):
    """sum over the terms c * prod jet(alpha, m) ** e, starting from c * one."""
    out = one * 0
    for mono, c in p.terms.items():
        term = one * c
        for (alpha, m), e in mono:
            term = term * (jet(alpha, m) ** e)
        out = out + term
    return out
