"""Test helpers for ring homomorphisms given by the images of the jets.

``FunctionJets`` is a jet map whose images come from a function, for tests
that state the image of every jet by a formula; ``memoised_powers`` reads
the memo of powers of a jet map.  ``reference_substitute`` is
the monomial-by-monomial evaluation that ``DiffPoly.substitute`` replaced, kept
as an independent reference.
"""

from dshierarchy.diffalg import _VARS, JetMap


class FunctionJets(JetMap):
    """The jets (alpha, m) -> fn(alpha, m), for every alpha and every m."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__([])
        self.fn = fn

    def step(self, alpha: int, m: int):
        return self.fn(alpha, m)


def memoised_powers(jets):
    """(alpha, m, e, value) for each power in the memo of a jet map."""
    return [(*_VARS[f], e, value) for (f, e), value in jets._powers.items()]


def reference_substitute(p, jet, one):
    """sum over the terms c * prod jet(alpha, m) ** e, starting from c * one."""
    out = one * 0
    for mono, c in p.terms.items():
        term = one * c
        for (alpha, m), e in mono:
            term = term * (jet(alpha, m) ** e)
        out = out + term
    return out
