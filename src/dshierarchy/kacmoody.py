"""Twisted loop realizations of affine Kac-Moody algebras at desk scale.

A type table (JSON, one file per supported affine type) supplies a basis of
the underlying simple Lie algebra by exact matrices in the defining
representation, the principal degrees, the twist classes, the
Jacobson-Morozov triple (e, rho, f) of the zero-mode subalgebra, the cyclic
element data, the exponents and normalized Heisenberg generators, and the
nilpotent/gauge bases.  Everything else (structure constants, the invariant
form, gradations, the Borel subalgebra b, splittings) is derived at load
time.  Integral matrix entries, structure constants and form values are
stored as ``int``, so the load runs in integer arithmetic.

The Lie algebra identities rest on one premise, which the load checks: the
basis matrices are linearly independent.  Then the bracket is the matrix
commutator read in the basis, so it is alternating and satisfies Jacobi, and
the form is the trace form, so it is symmetric and ad-invariant; none of these
is re-checked.  What the table claims beyond its matrices is checked exactly
at every load, so a wrong table fails to load: ad-rho homogeneity of the
basis, the sigma eigenvalues and the twist classes of brackets and of the
form, the Jacobson-Morozov triple, the exponents, the Heisenberg
normalization, [n, e lambda] = 0 and the splitting b = V (+) [e, n].

Loop elements are Laurent polynomials in the spectral parameter lambda with
differential-polynomial coefficients, stored sparsely as the map from each
basis element lambda^k x_i to its nonzero coefficient; x_i may appear with
lambda^k only if its twist class is k mod N.  This map is the one form of an
algebra element; each vector of the type table is loaded as one.  They are
finite, so every bracket, shift and principal-degree slice is exact.  The
principal degree of ``x_i * lambda^k`` is ``pdeg_i + k * (r h / N)``, so a
slice, a lambda shift and the twist check are filters or re-keyings of the map.
The bracket reads the structure constants ``bracket_table`` directly, and
the load's rational checks use the same bracket on constant elements.

Each slice splits as H (+) im ad Lambda, H the Heisenberg subalgebra, and the
form makes the two orthogonal.  ``LoopRealization.splitter(d).preimage(x)``
solves [Lambda, y] = x for the y in im ad Lambda in one linear solve, with
the form fixing the kernel; a slice x with an H part has no preimage.

Each loop-algebra job has one helper here, which every layer calls:
``LoopRealization.combination`` builds sum_j c_j e_j over loop elements e_j
from coordinates (the Lax operator's q, the nilpotent gauge elements);
``LoopElement.pair`` is the loop pairing, from a floor power up if
asked; ``LoopRealization.heisenberg_index`` is the one period rule that places
the Heisenberg element of a degree, H_d = lambda^s Lambda_m;
``LoopRealization.v_valued`` is the one recursion in the Borel frame that makes
a residual V-valued (the canonical form and each flow's compensator).
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from . import _TYPE_FILES, supported_types
from .diffalg import DiffPoly
from .linalg import InconsistentSystemError, LinearSolver, integral

_ZERO_P = DiffPoly.zero()


class UnsupportedTypeError(ValueError):
    pass


def load_table(type_name: str) -> dict:
    key = type_name.strip().lower().replace("^", "").replace("(", "").replace(")", "")
    key = key.replace("-", "_").replace(" ", "")
    for slug, fname in _TYPE_FILES.items():
        if key in (slug, slug.replace("_", "")):
            raw = resources.files("dshierarchy.data").joinpath(fname).read_text()
            return json.loads(raw)
    # fall back to alias lists declared in the files
    for fname in _TYPE_FILES.values():
        raw = resources.files("dshierarchy.data").joinpath(fname).read_text()
        data = json.loads(raw)
        names = [data["name"]] + data.get("aliases", [])
        if any(type_name == n for n in names):
            return data
    raise UnsupportedTypeError(
        f"unsupported algebra type {type_name!r}; supported: {supported_types()}")


def _exact_matrix(rows) -> tuple[tuple[int | Fraction, ...], ...]:
    return tuple(tuple(integral(Fraction(x)) for x in row) for row in rows)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class SimpleLieAlgebra:
    """Finite-dimensional simple Lie algebra given by exact matrices.

    The matrices must be linearly independent, and the load raises unless
    they are.  Then every commutator has unique coordinates in the basis, so
    ``bracket_table`` is the matrix commutator read in the basis: alternating
    and Jacobi hold because they hold for commutators.  ``gram`` is the trace
    form, tr(XY), which is symmetric and ad-invariant, tr([Z, X] Y) +
    tr(X [Z, Y]) = 0.  With ad-rho homogeneity of the basis (checked by
    ``LoopRealization``), invariance under rho gives (pdeg_i + pdeg_j)
    (x_i|x_j) = 0: the form pairs opposite principal degrees only.
    """

    def __init__(self, name: str, matrices: Sequence, labels: Sequence[str]):
        self.name = name
        self.labels = list(labels)
        self.matrices = [_exact_matrix(m) for m in matrices]
        self.dim = len(self.matrices)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.size = size = len(self.matrices[0])
        # Coordinate solver: columns are the flattened basis matrices.
        rows = []
        for r in range(size):
            for c in range(size):
                rows.append([self.matrices[i][r][c] for i in range(self.dim)])
        self._coords = LinearSolver(rows)
        if self._coords.rank != self.dim:
            raise ValueError(f"{name}: the {self.dim} basis matrices have rank "
                             f"{self._coords.rank}; they must be linearly independent")
        # Structure constants from matrix commutators over the nonzero matrix
        # entries, nonzero[i][r] listing (c, m) for each entry m at (r, c):
        # one commutator and solve per pair i < j, [x_j, x_i] the negated row.
        nonzero = [[[(c, m) for c, m in enumerate(row) if m] for row in mat]
                   for mat in self.matrices]
        upper = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                flat = [0] * (size * size)
                for a, b, sign in ((i, j, 1), (j, i, -1)):
                    for r, row in enumerate(nonzero[a]):
                        for c, m in row:
                            for s, n in nonzero[b][c]:
                                flat[r * size + s] += sign * m * n
                if any(flat):
                    try:
                        coords = self._coords.solve(flat, zero=0)
                    except InconsistentSystemError as exc:
                        raise ValueError("matrix not in the span of the basis") from exc
                    upper[(i, j)] = tuple((k, integral(c)) for k, c in enumerate(coords) if c)
        self.bracket_table: dict[tuple[int, int], tuple[tuple[int, int | Fraction], ...]] = {}
        for i in range(self.dim):
            for j in range(self.dim):
                entries = upper.get((i, j), ()) if i < j else \
                    tuple((k, -c) for k, c in upper.get((j, i), ()))
                if entries:
                    self.bracket_table[(i, j)] = entries
        # Normalized invariant form: trace form in the defining representation.
        self.gram = [[integral(sum(m * mat[c][r] for r, row in enumerate(nonzero[i])
                                   for c, m in row))
                      for mat in self.matrices]
                     for i in range(self.dim)]
        self._gram_rows = [[(j, g) for j, g in enumerate(row) if g] for row in self.gram]

    def pair_vec(self, x: Sequence, y: Sequence, zero=_ZERO_P):
        """(x|y) for coefficient vectors; DiffPoly entries are summed by one ``DiffPoly.dot``."""
        if isinstance(zero, DiffPoly):
            return DiffPoly.dot((xi, y[j] if g == 1 else y[j] * g) for i, xi in enumerate(x)
                                if xi for j, g in self._gram_rows[i] if y[j])
        out = zero
        for i, row in enumerate(self.gram):
            for j, g in enumerate(row):
                if g and x[i] and y[j]:
                    out = out + (x[i] * y[j]) * g
        return out


class LoopElement:
    """Element of the twisted loop algebra: a Laurent polynomial in lambda.

    ``coeffs`` maps a basis element lambda^k x_i, keyed (k, i), to its
    DiffPoly coefficient; only nonzero coefficients are stored.
    """

    __slots__ = ("real", "coeffs")

    def __init__(self, real: "LoopRealization", coeffs: Mapping[tuple[int, int], DiffPoly]):
        self.real = real
        self.coeffs = {key: c for key, c in coeffs.items() if c}

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, real) -> "LoopElement":
        return cls(real, {})

    # -- basics ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def lambda_powers(self) -> list[int]:
        return sorted({k for k, _ in self.coeffs})

    def __add__(self, other: "LoopElement") -> "LoopElement":
        self._same(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return LoopElement(self.real, out)

    def __neg__(self) -> "LoopElement":
        return LoopElement(self.real, {key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def scale(self, c) -> "LoopElement":
        return LoopElement(self.real, {key: x * c for key, x in self.coeffs.items()})

    def _same(self, other: "LoopElement"):
        if other.real is not self.real:
            raise ValueError("loop elements from different realizations")

    # -- structure operations ------------------------------------------------
    def bracket(self, other: "LoopElement") -> "LoopElement":
        self._same(other)
        table = self.real.alg.bracket_table
        out: dict[tuple[int, int], DiffPoly] = {}
        theirs = other.coeffs.items()
        for (k1, i), x in self.coeffs.items():
            for (k2, j), y in theirs:
                entries = table.get((i, j))
                if entries:
                    prod = x * y
                    for t, c in entries:
                        key = (k1 + k2, t)
                        out[key] = out[key] + prod * c if key in out else prod * c
        return LoopElement(self.real, out)

    def pair(self, other: "LoopElement", lo: int | None = None) -> dict[int, DiffPoly]:
        """Invariant bilinear form; a Laurent polynomial in lambda, from lambda^lo up if given.

        ``other`` is indexed by basis element, so only the pairs (x_i, x_j)
        with (x_i|x_j) != 0 are visited; each power is one ``DiffPoly.dot``.
        """
        self._same(other)
        by_index: dict[int, list] = {}
        for (k, j), y in other.coeffs.items():
            by_index.setdefault(j, []).append((k, y))
        rows = self.real.alg._gram_rows
        terms: dict[int, list] = {}
        for (k1, i), x in self.coeffs.items():
            for j, g in rows[i]:
                for k2, y in by_index.get(j, ()):
                    if lo is None or k1 + k2 >= lo:
                        terms.setdefault(k1 + k2, []).append((x, y if g == 1 else y * g))
        out = {k: DiffPoly.dot(t) for k, t in terms.items()}
        return {k: v for k, v in out.items() if v}

    def dx(self) -> "LoopElement":
        return LoopElement(self.real, {key: c.dx() for key, c in self.coeffs.items()})

    def lambda_shift(self, j: int) -> "LoopElement":
        """Multiply by lambda^j; j must be divisible by the twist order."""
        real = self.real
        if j % real.twist_order:
            raise ValueError(
                f"lambda shift by {j} breaks the twist (order {real.twist_order})")
        return LoopElement(real, {(k + j, i): c for (k, i), c in self.coeffs.items()})

    # -- principal grading --------------------------------------------------
    def pdeg_slices(self) -> dict[int, "LoopElement"]:
        real = self.real
        out: dict[int, dict[tuple[int, int], DiffPoly]] = {}
        for (k, i), c in self.coeffs.items():
            out.setdefault(k * real.deg_lambda + real.pdeg[i], {})[(k, i)] = c
        return {d: LoopElement(real, m) for d, m in out.items()}

    def pdeg_slice(self, d: int) -> "LoopElement":
        return self.pdeg_slices().get(d, LoopElement.zero(self.real))

    def principal_degree(self):
        """Common principal degree, or the frozenset of degrees when mixed."""
        degs = self.pdeg_slices().keys()
        if not degs:
            raise ValueError("principal degree undefined for the zero element")
        if len(degs) == 1:
            return next(iter(degs))
        return frozenset(degs)

    def check_twist(self) -> bool:
        n, cls = self.real.twist_order, self.real.twist_class
        return all(cls[i] % n == k % n for k, i in self.coeffs)

    def __repr__(self):
        labels = self.real.alg.labels
        parts: dict[int, list[str]] = {}
        for (k, i), c in sorted(self.coeffs.items()):
            parts.setdefault(k, []).append(f"{labels[i]}:{c!r}")
        return " + ".join(f"lambda^{k}(" + ", ".join(e) + ")" for k, e in parts.items()) or "0"


class _SliceSplitter:
    """The preimage under ad Lambda of one principal-degree slice, in one solve.

    ``preimage(x)`` is the unique y of degree d - 1 with [Lambda, y] = x and y
    in im ad Lambda.  The columns are the ad Lambda images of the slice basis
    at degree d - 1, whose kernel is H_{d-1} where that exists.  There one
    more row, (y | G) = 0 with G the Heisenberg element at degree 1 - d,
    makes y unique: G pairs to zero with im ad Lambda, and (H_{d-1} | G) = h
    (the normalization checked at load).  The pairing lands at lambda^0.  A
    slice with a Heisenberg part has no preimage, and the solve raises
    ``InconsistentSystemError``.
    """

    def __init__(self, real: "LoopRealization", d: int):
        self.real, self.d = real, d
        self.basis_prev = real.slice_basis(d - 1)
        self.index_d = {pair: i for i, pair in enumerate(real.slice_basis(d))}
        # ad Lambda images of the previous slice basis, from the sparse
        # structure constants [x_a, x_i] of the Lambda terms c lambda^lk x_a.
        lam = [(lk, a, c.constant_term()) for (lk, a), c in real.cyclic.coeffs.items()]
        rows = [[Fraction(0)] * len(self.basis_prev) for _ in self.index_d]
        for pos, (k, i) in enumerate(self.basis_prev):
            for lk, a, c in lam:
                for t, b in real.alg.bracket_table.get((a, i), ()):
                    rows[self.index_d[(lk + k, t)]][pos] += c * b
        dual = real.heisenberg_at(1 - d)   # exists exactly where H_{d-1} does
        if dual is not None:
            gram = real.alg.gram
            rows.append([sum(gram[i][j] * c.constant_term()
                             for (p, j), c in dual.coeffs.items() if p == -k)
                         for k, i in self.basis_prev])
        self.solver = LinearSolver(rows)

    def coords(self, elt: LoopElement) -> list[DiffPoly]:
        col = [_ZERO_P] * self.solver.nrows
        for (k, i), c in elt.coeffs.items():
            pos = self.index_d.get((k, i))
            if pos is None:
                raise ValueError(f"lambda^{k} {self.real.alg.labels[i]} is not of "
                                 f"principal degree {self.d}")
            col[pos] = c
        return col

    def preimage(self, elt: LoopElement) -> LoopElement:
        """The y in im ad Lambda with [Lambda, y] = elt; raises InconsistentSystemError
        when elt has a Heisenberg part."""
        y = self.solver.solve(self.coords(elt), zero=_ZERO_P)
        return LoopElement(self.real, dict(zip(self.basis_prev, y)))


class LoopRealization:
    """Validated loop realization of an affine type at a marked vertex."""

    def __init__(self, data: dict):
        self.name = data["name"]
        self.vertex = data["vertex"]
        self.r = data["r"]
        self.h = data["coxeter"]
        self.h_dual = data["dual_coxeter"]
        self.kac_labels = list(data["kac_labels"])
        self.n = data["rank_g"]
        self.ell = data["rank_affine"]
        self.twist_order = data["twist_order"]
        if (self.r * self.h) % self.twist_order:
            raise ValueError("r*h must be divisible by the twist order")
        self.deg_lambda = (self.r * self.h) // self.twist_order

        labels = [b["label"] for b in data["basis"]]
        self.alg = SimpleLieAlgebra(self.name, [b["matrix"] for b in data["basis"]], labels)
        self.pdeg = [int(b["pdeg"]) for b in data["basis"]]
        self.twist_class = [int(b["twist_class"]) for b in data["basis"]]
        self._sigma_J = data.get("sigma_J")

        alg = self.alg
        self.rho, self.e_nil, self.f_jm = (self._table_element({0: data[key]})
                                           for key in ("jm_rho", "jm_e", "jm_f"))
        self.cyclic = self._table_element({0: data["jm_e"], 1: data["cyclic_lambda_part"]})
        self.affine_f = self._table_element({-1: data["affine_f_lambda_part"]})
        self.exponents = list(data["exponents"])
        self._heis_base: dict[int, LoopElement] = {
            int(item["exponent"]): self._table_element(item["element"])
            for item in data["heisenberg"]}
        self.nilpotent_basis = [self._table_element({0: v}) for v in data["nilpotent_basis"]]
        self.v_basis = [self._table_element({0: v}) for v in data["gauge_v_basis"]]
        self.chevalley_e = [alg.index[lab] for lab in data["chevalley_e"]]
        self.chevalley_f = [alg.index[lab] for lab in data["chevalley_f"]]

        self._slice_cache: dict[int, list[tuple[int, int]]] = {}
        self._split_cache: dict[int, _SliceSplitter] = {}
        self._validate()

    # -- helpers -----------------------------------------------------------
    def combination(self, coeffs: Sequence, elements: Sequence[LoopElement]) -> LoopElement:
        """sum_j c_j e_j, for DiffPoly or rational c_j over the loop elements e_j.

        The one constructor of loop elements from basis coordinates: the Lax
        operator's q and the nilpotent gauge elements are built here.
        """
        out: dict[tuple[int, int], DiffPoly] = {}
        for c, e in zip(coeffs, elements, strict=True):
            for key, ec in e.coeffs.items():
                term = ec * c
                out[key] = out[key] + term if key in out else term
        return LoopElement(self, out)

    def _table_element(self, powers: Mapping) -> LoopElement:
        """sum_k v_k lambda^k for the type table's label -> value maps v_k."""
        index = self.alg.index
        return LoopElement(self, {(int(k), index[lab]): DiffPoly.const(c)
                                  for k, v in powers.items() for lab, c in v.items()})

    def slice_basis(self, d: int) -> list[tuple[int, int]]:
        """The basis elements x_i lambda^k of principal degree d, as sorted (k, i)."""
        got = self._slice_cache.get(d)
        if got is None:
            n = self.twist_order
            got = []
            for i, p in enumerate(self.pdeg):
                k, rem = divmod(d - p, self.deg_lambda)
                if not rem and self.twist_class[i] % n == k % n:
                    got.append((k, i))
            got = self._slice_cache[d] = sorted(got)
        return got

    def heisenberg_index(self, d: int) -> tuple[int, int] | None:
        """(m, s) with H_d = lambda^s Lambda_m, or None where H has no element of degree d.

        The principal degree of lambda^N is r h, N the twist order, so H_d
        exists iff d = m + j r h for an exponent m, and then s = j N.
        """
        period = self.r * self.h
        for m in self._heis_base:
            if (d - m) % period == 0:
                return m, (d - m) // period * self.twist_order
        return None

    def heisenberg_at(self, d: int) -> LoopElement | None:
        """The basis element of the Heisenberg subalgebra at principal degree d."""
        index = self.heisenberg_index(d)
        if index is None:
            return None
        m, s = index
        return self._heis_base[m] if s == 0 else self._heis_base[m].lambda_shift(s)

    def heisenberg_element(self, degree: int) -> LoopElement:
        elt = self.heisenberg_at(degree)
        if elt is None:
            raise ValueError(f"{degree} is not an exponent of {self.name}")
        return elt

    def splitter(self, d: int) -> _SliceSplitter:
        got = self._split_cache.get(d)
        if got is None:
            got = _SliceSplitter(self, d)
            self._split_cache[d] = got
        return got

    # -- Borel coordinate frame ----------------------------------------------
    def borel_vectors(self) -> list[LoopElement]:
        """Ordered Borel basis: gauge subspace V first, then [e, n]-images."""
        return self.v_basis + [self.e_nil.bracket(p) for p in self.nilpotent_basis]

    def borel_coords(self, elt: LoopElement) -> list[DiffPoly]:
        """Coordinates of a Borel-valued element in the ordered Borel basis.

        The first ell coordinates are the gauge (V) components, the
        remaining ones are the coefficients of [e, p_j].  Raises
        ``InconsistentSystemError`` off b, on a lambda^k part with k != 0 too.
        """
        col = [_ZERO_P] * len(self._borel_rows)
        for (k, i), c in elt.coeffs.items():
            if (k, i) not in self._borel_rows:
                raise InconsistentSystemError(f"lambda^{k} {self.alg.labels[i]} is not in b")
            col[self._borel_rows[(k, i)]] = c
        return self._borel_solver.solve(col, zero=_ZERO_P)

    def v_valued(self, residual) -> LoopElement:
        """The n-valued x that makes residual(x) V-valued, degree by degree.

        ``residual`` must be triangular: the principal-degree -(k+1) part of x
        moves the degree -k slice of residual(x) by [x, e] and touches no
        higher slice.  So the [e, n] coordinates of slice -k, read in the
        Borel frame, give that part of x, for k = 0, 1, ... in turn.  The
        canonical form of the gauge action and each flow's compensator are
        solved here.
        """
        x = LoopElement.zero(self)
        for k in range(0, -min(self.pdeg) + 1):
            m = residual(x).pdeg_slice(-k)
            if not m.is_zero():
                coords = self.borel_coords(m)
                x = x + self.combination(coords[self.ell:], self.nilpotent_basis)
        return x

    # -- validation ---------------------------------------------------------
    def _validate(self):
        alg = self.alg
        labels = alg.labels
        rho, e, f = self.rho, self.e_nil, self.f_jm
        # basis homogeneity: [rho, x_i] = pdeg_i x_i
        for i in range(alg.dim):
            x = LoopElement(self, {(0, i): DiffPoly.const(1)})
            if rho.bracket(x) != x.scale(self.pdeg[i]):
                raise ValueError(f"basis element {labels[i]} is not ad-rho homogeneous")
        # twist classes: sigma eigenspaces and bracket compatibility
        n = self.twist_order
        if self._sigma_J is not None:
            j = _exact_matrix(self._sigma_J)
            for i in range(alg.dim):
                m = alg.matrices[i]
                mt = tuple(tuple(m[c][r] for c in range(len(m))) for r in range(len(m)))
                sig = tuple(tuple(-x for x in row) for row in _mat_mul(_mat_mul(j, mt), j))
                want = 1 if self.twist_class[i] % 2 == 0 else -1
                target = tuple(tuple(want * x for x in row) for row in m)
                if sig != target:
                    raise ValueError(f"sigma eigenvalue wrong on {alg.labels[i]}")
        for (i, jj), entries in alg.bracket_table.items():
            cls = (self.twist_class[i] + self.twist_class[jj]) % n
            for k, _ in entries:
                if self.twist_class[k] % n != cls:
                    raise ValueError(f"structure constants break the twist grading: "
                                     f"[{labels[i]}, {labels[jj]}] has a {labels[k]} term")
        # form pairs opposite twist classes only (needed for loop pairings)
        for i, row in enumerate(alg.gram):
            for jj, g in enumerate(row):
                if g and (self.twist_class[i] + self.twist_class[jj]) % n:
                    raise ValueError(f"bilinear form mixes twist classes: "
                                     f"({labels[i]}|{labels[jj]}) != 0")
        # JM triple
        if rho.bracket(e) != e:
            raise ValueError("[rho, e] != e")
        if rho.bracket(f) != -f:
            raise ValueError("[rho, f] != -f")
        if e.bracket(f) != rho:
            raise ValueError("[e, f] != rho")
        # cyclic element is homogeneous of principal degree 1
        if self.cyclic.principal_degree() != 1:
            raise ValueError("cyclic element is not of principal degree 1")
        if not self.cyclic.check_twist():
            raise ValueError("cyclic element breaks the twist")
        # affine Chevalley degrees +-1
        for idx in self.chevalley_e:
            if self.pdeg[idx] != 1:
                raise ValueError(f"finite Chevalley raising generator {labels[idx]} "
                                 f"not of degree 1")
        for idx in self.chevalley_f:
            if self.pdeg[idx] != -1:
                raise ValueError(f"finite Chevalley lowering generator {labels[idx]} "
                                 f"not of degree -1")
        if self.affine_f.principal_degree() != -1:
            raise ValueError("affine lowering generator not of degree -1")
        # exponent symmetry m_a + m_{n+1-a} = r h
        ms = self.exponents
        if len(ms) != self.n:
            raise ValueError("wrong number of exponents")
        rh = self.r * self.h
        for a in range(self.n):
            if ms[a] + ms[self.n - 1 - a] != rh:
                raise ValueError("exponents fail m_a + m_{n+1-a} = r h")
        if ms[0] != 1 or ms[-1] != rh - 1:
            raise ValueError("exponents must run from 1 to r h - 1")
        # Heisenberg: twist, degrees, abelian, normalized pairings
        for ma in ms:
            if not self._heis_base[ma].check_twist():
                raise ValueError(f"Heisenberg element Lambda_{ma} breaks the twist")
            if self._heis_base[ma].principal_degree() != ma:
                raise ValueError(f"Heisenberg element Lambda_{ma} is not of principal degree {ma}")
        for a, ma in enumerate(ms):
            ea = self._heis_base[ma]
            for b, mb in enumerate(ms):
                eb = self._heis_base[mb]
                if not ea.bracket(eb).is_zero():
                    raise ValueError(f"Heisenberg is not abelian: [Lambda_{ma}, Lambda_{mb}] != 0")
                pairing = ea.pair(eb)
                want_power = (ma + mb) // self.deg_lambda
                want = {} if a + b != self.n - 1 else \
                    {want_power: DiffPoly.const(self.h)}
                if pairing != want:
                    raise ValueError(
                        f"Heisenberg normalization fails for exponents {ma},{mb}")
        if self._heis_base[ms[0]] != self.cyclic:
            raise ValueError("Lambda_1 must equal the cyclic element")
        # [n, e_m(lambda)] = 0
        lam_tail = LoopElement(self, {key: c for key, c in self.cyclic.coeffs.items()
                                      if key[0] == 1})
        for idx, p in enumerate(self.nilpotent_basis):
            if not p.bracket(lam_tail).is_zero():
                raise ValueError(f"[n, e_m lambda] != 0 fails on nilpotent basis vector {idx}")
        # gauge splitting b = V (+) [e, n], the frame borel_coords solves in;
        # its first ell coordinates are the V part.  b is read off the
        # grading: the lambda^0 basis elements of degree <= 0 and class 0.
        if len(self.v_basis) != self.ell:
            raise ValueError(f"gauge subspace has {len(self.v_basis)} basis vectors, "
                             f"not rank_affine = {self.ell}")
        b = [(0, i) for i in range(alg.dim) if self.pdeg[i] <= 0 and self.twist_class[i] % n == 0]
        self._borel_rows = {key: r for r, key in enumerate(b)}
        cols = self.borel_vectors()
        for c, v in enumerate(cols):
            if not v.coeffs.keys() <= self._borel_rows.keys():
                raise ValueError(f"Borel frame vector {c} is not in b")
        if len(cols) != len(b):
            raise ValueError("dim V + dim [e,n] != dim b")
        self._borel_solver = LinearSolver([[v.coeffs.get(key, _ZERO_P).constant_term()
                                            for v in cols] for key in b])
        if self._borel_solver.rank != len(b):
            raise ValueError("V does not complement [e, n] in the Borel")
        # V degrees are minus the exponents of the zero-mode subalgebra
        self.v_degrees = [v.principal_degree() for v in self.v_basis]
        if any(not isinstance(d, int) or d >= 0 for d in self.v_degrees):
            raise ValueError("gauge subspace basis must be homogeneous of negative degree")


def build_algebra(type_name: str, vertex: int = 0) -> LoopRealization:
    """Load, build and validate the loop realization of an affine type.

    Only the marked vertex stored in the type table (the special vertex,
    labelled 0) is currently shipped; other in-range vertices report a
    missing table rather than an invalid request.
    """
    data = load_table(type_name)
    ell = data["rank_affine"]
    if not (0 <= vertex <= ell):
        raise ValueError(f"vertex {vertex} out of range 0..{ell}")
    if vertex != data["vertex"]:
        raise UnsupportedTypeError(
            f"no table shipped for vertex {vertex} of {data['name']}")
    return LoopRealization(data)
