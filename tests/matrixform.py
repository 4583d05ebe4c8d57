"""Loop elements in the defining representation, as sparse matrix forms.

A matrix form is a Laurent polynomial in lambda with matrix coefficients,
stored as {(p, i, j): entry (i, j) of the lambda^p coefficient}.  The type
tables give the basis of the simple Lie algebra by matrices, so every loop
element has one, and products of loop elements in the defining
representation are products of matrix forms.  ``matrix_product`` takes a
whole sum of such products at once: it collects every entry product by
output entry and sums each entry in one ``DiffPoly.dot`` pass, so an entry
is normalized once however many products reach it.  ``matrix_entry`` sums
one entry of such a sum the same way, without forming the others.

The program does not use them: the resolvent recursion needs no matrix.  They
carry the reference route of ``power_route.py`` and the check of the shipped
tables, ``check_cyclic``, that the reference relies on.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from dshierarchy.diffalg import DiffPoly
from dshierarchy.kacmoody import SimpleLieAlgebra

_ZERO_P = DiffPoly.zero()


def identity(size: int) -> dict:
    return {(0, i, i): DiffPoly.const(1) for i in range(size)}


def matrix_form(alg, coeffs: Mapping) -> dict:
    """The matrix form of {lambda power: basis coefficient vector}, without zeros."""
    out: dict[tuple[int, int, int], DiffPoly] = {}
    for p, vec in coeffs.items():
        for t, c in enumerate(vec):
            if not c:
                continue
            for i, row in enumerate(alg.matrices[t]):
                for j, m in enumerate(row):
                    if m:
                        key = (p, i, j)
                        out[key] = out[key] + c * m if key in out else c * m
    return {key: c for key, c in out.items() if c}


def matrix_product(pairs: Iterable[tuple[Mapping, Mapping]]) -> dict:
    """The sum of x y over the pairs (x, y) of matrix forms; cancelled entries stay as zeros."""
    terms: dict[tuple[int, int, int], list] = {}
    for x, y in pairs:
        rows: dict[int, list] = {}
        for (q, j, l), b in y.items():
            rows.setdefault(j, []).append((q, l, b))
        for (p, i, j), a in x.items():
            for q, l, b in rows.get(j, ()):
                terms.setdefault((p + q, i, l), []).append((a, b))
    return {key: DiffPoly.dot(ab) for key, ab in terms.items()}


def matrix_entry(pairs: Iterable[tuple[Mapping, Mapping]], key: tuple[int, int, int]) -> DiffPoly:
    """Entry ``key`` of the sum of x y over the pairs, as one ``DiffPoly.dot``; zero if no product reaches it."""
    p, i, l = key
    return DiffPoly.dot((a, y.get((p - q, j, l), _ZERO_P))
                        for x, y in pairs for (q, r, j), a in x.items() if r == i)


def check_cyclic(alg, deg_lambda: int, cyclic: Mapping, heisenberg: Mapping,
                 exponents: list[int]) -> None:
    """Check the identities that the power route relies on.

    With n the matrix size: the principal degree of lambda is n, Lambda^n =
    lambda Id, every Heisenberg generator is Lambda_m = lambda^{m div n}
    Lambda^{m mod n}, and every k in 1, ..., n - 1 is m mod n for exactly one
    exponent m, so that each power R_1^k, k < n, is a basic resolvent.
    ``cyclic`` and each ``heisenberg[m]`` map lambda powers to coefficient
    vectors.  Raises ValueError naming the identity.
    """
    size = alg.size
    if deg_lambda != size:
        raise ValueError(
            f"principal degree of lambda is {deg_lambda}, not the matrix size {size}")
    lam = matrix_form(alg, cyclic)
    powers = [identity(size)]
    for _ in range(size):
        powers.append(matrix_product([(powers[-1], lam)]))
    if {key: c for key, c in powers[size].items() if c} != \
            {(1, i, i): 1 for i in range(size)}:
        raise ValueError(f"Lambda^{size} != lambda Id in the defining representation")
    for m, base in heisenberg.items():
        s, k = divmod(m, size)
        if matrix_form(alg, base) != {(p + s, i, j): c for (p, i, j), c in powers[k].items() if c}:
            raise ValueError(
                f"Lambda_{m} != lambda^{s} Lambda^{k} in the defining representation")
    residues = [m % size for m in exponents]
    for k in range(1, size):
        if residues.count(k) != 1:
            raise ValueError(
                f"R_1^{k} needs exactly one exponent that is {k} mod {size}, "
                f"found {residues.count(k)} in {exponents}")


def check_table(data: dict) -> None:
    """``check_cyclic`` on a type table as loaded from its JSON."""
    alg = SimpleLieAlgebra(data["name"], [b["matrix"] for b in data["basis"]],
                           [b["label"] for b in data["basis"]])

    def coeffs(mapping: Mapping) -> tuple:
        return tuple(DiffPoly.const(mapping.get(lab, 0)) for lab in alg.labels)

    cyclic = {0: coeffs(data["jm_e"]), 1: coeffs(data["cyclic_lambda_part"])}
    heisenberg = {int(item["exponent"]): {int(k): coeffs(v)
                                          for k, v in item["element"].items()}
                  for item in data["heisenberg"]}
    check_cyclic(alg, (data["r"] * data["coxeter"]) // data["twist_order"], cyclic,
                 heisenberg, data["exponents"])
