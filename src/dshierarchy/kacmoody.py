"""Twisted loop realizations of affine Kac-Moody algebras at desk scale.

A type table (JSON, one file per supported affine type) supplies a basis of
the underlying simple Lie algebra by exact matrices in the defining
representation, the principal degrees, the twist classes, the
Jacobson-Morozov triple (e, rho, f) of the zero-mode subalgebra, the cyclic
element data, the exponents and normalized Heisenberg generators, and the
nilpotent/Cartan/gauge bases.  Everything else (structure constants, the
invariant bilinear form, gradations, splittings) is derived from the matrices
at load time and validated exactly.  Integral matrix entries, structure
constants and form values are stored as ``int``, so the load runs in integer
arithmetic, and the Lie algebra identities are checked on every basis triple
through the sparse rows of the structure-constant table.

Loop elements are Laurent windows in the spectral parameter lambda with
differential-polynomial coefficients; the coefficient of lambda^k must lie in
the twist eigenspace of class k mod N.  The principal degree of
``x * lambda^k`` is ``pdeg(x) + k * (r h / N)``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from . import _TYPE_FILES, supported_types
from .diffalg import DiffPoly
from .linalg import InconsistentSystemError, LinearSolver, integral
from .matrixform import check_cyclic

_ZERO_P = DiffPoly.zero()


class UnsupportedTypeError(ValueError):
    pass


class WindowError(ValueError):
    """A lambda window is too small for the requested operation."""


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


class TableShape:
    """The fields of a type table that size depths and lambda windows.

    None of them depends on the window, so a depth can be planned before a
    realization is built.  ``LoopRealization`` carries the same attributes,
    so ``default_window_for_depth``, ``flow_depth`` and ``omega_depth`` take
    either.
    """

    def __init__(self, data: dict):
        self.exponents = tuple(data["exponents"])
        self.pdeg = tuple(int(b["pdeg"]) for b in data["basis"])
        self.twist_order = data["twist_order"]
        self.deg_lambda = (data["r"] * data["coxeter"]) // data["twist_order"]
        # top lambda power of Lambda_m, by m
        self.heisenberg_top = {int(item["exponent"]): max(int(k) for k in item["element"])
                               for item in data["heisenberg"]}


def _exact_matrix(rows) -> tuple[tuple[int | Fraction, ...], ...]:
    return tuple(tuple(integral(Fraction(x)) for x in row) for row in rows)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _trace_of_product(a, b) -> int | Fraction:
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))


class SimpleLieAlgebra:
    """Finite-dimensional simple Lie algebra given by exact matrices."""

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
        # Structure constants from matrix commutators, as sparse rows.
        self.bracket_table: dict[tuple[int, int], tuple[tuple[int, int | Fraction], ...]] = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if i == j:
                    continue
                mi, mj = self.matrices[i], self.matrices[j]
                br = [[x - y for x, y in zip(rij, rji)]
                      for rij, rji in zip(_mat_mul(mi, mj), _mat_mul(mj, mi))]
                coords = self.coordinates_of_matrix(br, zero=0)
                entries = tuple((k, integral(c)) for k, c in enumerate(coords) if c)
                if entries:
                    self.bracket_table[(i, j)] = entries
        # the same table by first operand: row i lists (j, entries)
        self._bracket_rows = [[] for _ in range(self.dim)]
        for (i, j), entries in self.bracket_table.items():
            self._bracket_rows[i].append((j, entries))
        # Normalized invariant form: trace form in the defining representation.
        self.gram = [[integral(_trace_of_product(self.matrices[i], self.matrices[j]))
                      for j in range(self.dim)]
                     for i in range(self.dim)]

    def coordinates_of_matrix(self, mat, zero=Fraction(0)) -> list:
        flat = [mat[r][c] for r in range(self.size) for c in range(self.size)]
        try:
            return self._coords.solve(flat, zero=zero)
        except InconsistentSystemError as exc:
            raise ValueError("matrix not in the span of the basis") from exc

    def vector(self, coeffs: Mapping[str, Fraction]) -> tuple[Fraction, ...]:
        v = [Fraction(0)] * self.dim
        for lab, c in coeffs.items():
            v[self.index[lab]] = Fraction(c)
        return tuple(v)

    def bracket_vec(self, x: Sequence, y: Sequence, zero=_ZERO_P):
        """[x, y] for coefficient vectors with entries in any commutative ring."""
        out = [zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, entries in self._bracket_rows[i]:
                yj = y[j]
                if not yj:
                    continue
                prod = xi * yj
                for k, c in entries:
                    out[k] = out[k] + prod * c
        return out

    def pair_vec(self, x: Sequence, y: Sequence, zero=_ZERO_P):
        out = zero
        for i in range(self.dim):
            xi = x[i]
            if not xi:
                continue
            for j in range(self.dim):
                g = self.gram[i][j]
                if not g or not y[j]:
                    continue
                out = out + (xi * y[j]) * g
        return out

    def validate(self):
        """Alternation, Jacobi and form invariance on all basis triples, and symmetry.

        Works on the sparse rows {k: c} of ``bracket_table``; the error names
        the identity and the basis indices at which it fails.
        """
        dim, gram = self.dim, self.gram
        rows = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j), entries in self.bracket_table.items():
            rows[i][j] = dict(entries)
        for i in range(dim):
            if rows[i][i]:
                raise ValueError(f"bracket not alternating at basis index {i}")
        for i in range(dim):
            for j in range(dim):
                ij = rows[i][j]
                for k in range(dim):
                    # [x_i, [x_j, x_k]] + [x_j, [x_k, x_i]] + [x_k, [x_i, x_j]]
                    jac: dict[int, int | Fraction] = {}
                    for a, inner in ((i, rows[j][k]), (j, rows[k][i]), (k, ij)):
                        outer = rows[a]
                        for m, c in inner.items():
                            for t, d in outer[m].items():
                                jac[t] = jac.get(t, 0) + c * d
                    if any(jac.values()):
                        raise ValueError(f"Jacobi identity fails on triple {i},{j},{k}")
                    # ([x_i, x_j] | x_k) + (x_j | [x_i, x_k])
                    lhs = sum(c * gram[m][k] for m, c in ij.items())
                    rhs = sum(gram[j][m] * c for m, c in rows[i][k].items())
                    if lhs + rhs:
                        raise ValueError(
                            f"bilinear form is not invariant on triple {i},{j},{k}")
        for i in range(dim):
            for j in range(dim):
                if gram[i][j] != gram[j][i]:
                    raise ValueError(f"bilinear form is not symmetric on pair {i},{j}")


def _poly_coeffs(mapping: Mapping[str, str], alg: SimpleLieAlgebra) -> tuple:
    v = [DiffPoly.zero()] * alg.dim
    for lab, c in mapping.items():
        v[alg.index[lab]] = DiffPoly.const(Fraction(c))
    return tuple(v)


class LoopElement:
    """Element of the twisted loop algebra over a lambda window.

    ``coeffs`` maps a lambda power to a coefficient vector over the algebra
    basis with DiffPoly entries.  ``truncated`` records that some bracket or
    shift pushed content outside the window (the stored part is exact).
    """

    __slots__ = ("real", "coeffs", "truncated")

    def __init__(self, real: "LoopRealization", coeffs: Mapping[int, Sequence[DiffPoly]],
                 truncated: bool = False):
        self.real = real
        clean: dict[int, tuple[DiffPoly, ...]] = {}
        for k, vec in coeffs.items():
            vec = tuple(vec)
            if any(vec):
                clean[k] = vec
        self.coeffs = clean
        self.truncated = truncated

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, real) -> "LoopElement":
        return cls(real, {})

    @classmethod
    def from_vector(cls, real, k: int, vec) -> "LoopElement":
        return cls(real, {k: tuple(vec)})

    # -- basics ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.coeffs.items()))

    def vector_at(self, k: int) -> tuple[DiffPoly, ...]:
        got = self.coeffs.get(k)
        if got is None:
            return tuple([_ZERO_P] * self.real.alg.dim)
        return got

    def lambda_powers(self) -> list[int]:
        return sorted(self.coeffs)

    def __add__(self, other: "LoopElement") -> "LoopElement":
        self._same(other)
        out = {k: list(v) for k, v in self.coeffs.items()}
        for k, vec in other.coeffs.items():
            if k in out:
                out[k] = [a + b for a, b in zip(out[k], vec)]
            else:
                out[k] = list(vec)
        return LoopElement(self.real, out, self.truncated or other.truncated)

    def __neg__(self) -> "LoopElement":
        return LoopElement(self.real, {k: [-c for c in v] for k, v in self.coeffs.items()},
                           self.truncated)

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def scale(self, c) -> "LoopElement":
        return LoopElement(self.real, {k: [x * c for x in v] for k, v in self.coeffs.items()},
                           self.truncated)

    def _same(self, other: "LoopElement"):
        if other.real is not self.real:
            raise ValueError("loop elements from different realizations")

    # -- structure operations ------------------------------------------------
    def bracket(self, other: "LoopElement") -> "LoopElement":
        self._same(other)
        real = self.real
        kmin, kmax = real.window
        out: dict[int, list[DiffPoly]] = {}
        clipped = self.truncated or other.truncated
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                br = real.alg.bracket_vec(v1, v2)
                if not any(br):
                    continue
                if k < kmin or k > kmax:
                    clipped = True
                    continue
                if k in out:
                    out[k] = [a + b for a, b in zip(out[k], br)]
                else:
                    out[k] = list(br)
        return LoopElement(real, out, clipped)

    def pair(self, other: "LoopElement") -> dict[int, DiffPoly]:
        """Invariant bilinear form; a Laurent polynomial in lambda."""
        self._same(other)
        out: dict[int, DiffPoly] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                val = self.real.alg.pair_vec(v1, v2)
                if val.is_zero():
                    continue
                k = k1 + k2
                out[k] = out.get(k, _ZERO_P) + val
        return {k: v for k, v in out.items() if not v.is_zero()}

    def dx(self) -> "LoopElement":
        return LoopElement(self.real,
                           {k: [c.dx() for c in v] for k, v in self.coeffs.items()},
                           self.truncated)

    def lambda_shift(self, j: int) -> "LoopElement":
        """Multiply by lambda^j; j must be divisible by the twist order."""
        real = self.real
        if j % real.twist_order:
            raise ValueError(
                f"lambda shift by {j} breaks the twist (order {real.twist_order})")
        kmin, kmax = real.window
        out = {}
        clipped = self.truncated
        for k, v in self.coeffs.items():
            kk = k + j
            if kk < kmin or kk > kmax:
                clipped = True
                continue
            out[kk] = v
        return LoopElement(real, out, clipped)

    # -- principal grading --------------------------------------------------
    def pdeg_slices(self) -> dict[int, "LoopElement"]:
        real = self.real
        out: dict[int, dict[int, list[DiffPoly]]] = {}
        for k, vec in self.coeffs.items():
            base = k * real.deg_lambda
            for i, c in enumerate(vec):
                if c.is_zero():
                    continue
                d = base + real.pdeg[i]
                slot = out.setdefault(d, {}).setdefault(k, [_ZERO_P] * real.alg.dim)
                slot[i] = c
        return {d: LoopElement(real, m, self.truncated) for d, m in out.items()}

    def pdeg_slice(self, d: int) -> "LoopElement":
        real = self.real
        out: dict[int, list[DiffPoly]] = {}
        for k, vec in self.coeffs.items():
            base = k * real.deg_lambda
            for i, c in enumerate(vec):
                if not c.is_zero() and base + real.pdeg[i] == d:
                    out.setdefault(k, [_ZERO_P] * real.alg.dim)[i] = c
        return LoopElement(real, out, self.truncated)

    def principal_degree(self):
        """Common principal degree, or the frozenset of degrees when mixed."""
        degs = set()
        real = self.real
        for k, vec in self.coeffs.items():
            base = k * real.deg_lambda
            for i, c in enumerate(vec):
                if not c.is_zero():
                    degs.add(base + real.pdeg[i])
        if not degs:
            raise ValueError("principal degree undefined for the zero element")
        if len(degs) == 1:
            return next(iter(degs))
        return frozenset(degs)

    def check_twist(self) -> bool:
        real = self.real
        n = real.twist_order
        if n == 1:
            return True
        for k, vec in self.coeffs.items():
            for i, c in enumerate(vec):
                if not c.is_zero() and real.twist_class[i] % n != k % n:
                    return False
        return True

    def __repr__(self):
        real = self.real
        parts = []
        for k in self.lambda_powers():
            vec = self.coeffs[k]
            entries = [f"{real.alg.labels[i]}:{c!r}" for i, c in enumerate(vec)
                       if not c.is_zero()]
            parts.append(f"lambda^{k}(" + ", ".join(entries) + ")")
        return " + ".join(parts) if parts else "0"


class _SliceSplitter:
    """Direct-sum splitting H (+) im ad Lambda inside one principal-degree slice."""

    def __init__(self, real: "LoopRealization", d: int):
        self.real = real
        self.d = d
        self.basis_d = real.slice_basis(d)
        self.basis_prev = real.slice_basis(d - 1)
        self.h_elt = real.heisenberg_at(d)
        self.index_d = {pair: i for i, pair in enumerate(self.basis_d)}
        cols: list[list[Fraction]] = []
        self.n_h = 0
        if self.h_elt is not None:
            cols.append(self._coords_of(self.h_elt))
            self.n_h = 1
        # ad Lambda images of the previous slice basis, from the sparse
        # structure constants [x_a, x_i] of the Lambda terms c lambda^lk x_a.
        lam = [(lk, a, c.constant_term()) for lk, lvec in real.cyclic.coeffs.items()
               for a, c in enumerate(lvec) if c]
        for (k, i) in self.basis_prev:
            img: dict[tuple[int, int], Fraction] = {}
            for lk, a, c in lam:
                for t, b in real.alg.bracket_table.get((a, i), ()):
                    img[(lk + k, t)] = img.get((lk + k, t), 0) + c * b
            col = [Fraction(0)] * len(self.basis_d)
            for (kk, t), c in img.items():
                if c:
                    pos = self.index_d.get((kk, t))
                    if pos is None:
                        raise WindowError(
                            f"window too small to split degree {d}: "
                            f"lambda^{kk} falls outside {real.window}")
                    col[pos] = c
            cols.append(col)
        rows = [[col[r] for col in cols] for r in range(len(self.basis_d))] \
            if cols else [[] for _ in range(len(self.basis_d))]
        self.solver = LinearSolver(rows) if self.basis_d else None

    def _coords_of(self, elt: LoopElement) -> list[Fraction]:
        col = [Fraction(0)] * len(self.basis_d)
        for k, vec in elt.coeffs.items():
            for i, c in enumerate(vec):
                if c.is_zero():
                    continue
                if not c.is_constant():
                    raise ValueError("splitter columns need constant coefficients")
                pos = self.index_d.get((k, i))
                if pos is None:
                    raise WindowError(f"window too small at degree {self.d}")
                col[pos] = c.constant_term()
        return col

    def coords(self, elt: LoopElement) -> list[DiffPoly]:
        col = [_ZERO_P] * len(self.basis_d)
        for k, vec in elt.coeffs.items():
            for i, c in enumerate(vec):
                if not c.is_zero():
                    pos = self.index_d.get((k, i))
                    if pos is None:
                        raise WindowError(
                            f"element sticks out of slice basis at degree {self.d}")
                    col[pos] = c
        return col

    def split(self, elt: LoopElement):
        """elt = h_coeff * Lambda_{(d)} + [Lambda, y]; returns (h_coeff, h_part, y).

        y is the preimage supported on the previous slice (its Heisenberg
        component is NOT removed here; callers canonicalize when required).
        """
        real = self.real
        if not self.basis_d:
            if not elt.is_zero():
                raise WindowError(f"no slice basis at degree {self.d} in window")
            return _ZERO_P, LoopElement.zero(real), LoopElement.zero(real)
        rhs = self.coords(elt)
        try:
            sol = self.solver.solve(rhs, zero=_ZERO_P)
        except InconsistentSystemError as exc:
            raise WindowError(
                f"window too small to solve the degree-{self.d} slice") from exc
        h_coeff = sol[0] if self.n_h else _ZERO_P
        y_map: dict[int, list[DiffPoly]] = {}
        for pos, (k, i) in enumerate(self.basis_prev):
            c = sol[self.n_h + pos]
            if not c.is_zero():
                y_map.setdefault(k, [_ZERO_P] * real.alg.dim)[i] = c
        y = LoopElement(real, y_map)
        if self.n_h and not h_coeff.is_zero():
            h_part = self.h_elt.scale(h_coeff)
        else:
            h_part = LoopElement.zero(real)
        return h_coeff, h_part, y


class LoopRealization:
    """Validated loop realization of an affine type at a marked vertex."""

    def __init__(self, data: dict, window: tuple[int, int]):
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
        self.window = (int(window[0]), int(window[1]))
        if self.window[0] > 0 or self.window[1] < 1:
            raise ValueError("window must contain lambda powers 0 and 1")

        labels = [b["label"] for b in data["basis"]]
        self.alg = SimpleLieAlgebra(self.name, [b["matrix"] for b in data["basis"]], labels)
        self.pdeg = [int(b["pdeg"]) for b in data["basis"]]
        self.twist_class = [int(b["twist_class"]) for b in data["basis"]]
        self._sigma_J = data.get("sigma_J")

        alg = self.alg
        self.rho = tuple(Fraction(x) for x in self._rat_vector(data["jm_rho"]))
        self.e_nil = tuple(Fraction(x) for x in self._rat_vector(data["jm_e"]))
        self.f_jm = tuple(Fraction(x) for x in self._rat_vector(data["jm_f"]))
        cyc = {0: _poly_coeffs(data["jm_e"], alg),
               1: _poly_coeffs(data["cyclic_lambda_part"], alg)}
        self.cyclic = LoopElement(self, cyc)
        self.affine_f = LoopElement(
            self, {-1: _poly_coeffs(data["affine_f_lambda_part"], alg)})
        self.exponents = list(data["exponents"])
        self._heis_base: dict[int, LoopElement] = {}
        for item in data["heisenberg"]:
            elt = LoopElement(self, {
                int(k): _poly_coeffs(v, alg) for k, v in item["element"].items()})
            self._heis_base[int(item["exponent"])] = elt
        self.heisenberg_top = {m: max(elt.lambda_powers())
                               for m, elt in self._heis_base.items()}
        self.nilpotent_basis = [self._rat_vector(v) for v in data["nilpotent_basis"]]
        self.cartan_basis = [self._rat_vector(v) for v in data["cartan_basis"]]
        self.v_basis = [self._rat_vector(v) for v in data["gauge_v_basis"]]
        self.chevalley_e = [alg.index[lab] for lab in data["chevalley_e"]]
        self.chevalley_f = [alg.index[lab] for lab in data["chevalley_f"]]

        self._slice_cache: dict[int, list[tuple[int, int]]] = {}
        self._split_cache: dict[int, _SliceSplitter] = {}
        self._borel_solver: LinearSolver | None = None
        self._validate()

    # -- helpers -----------------------------------------------------------
    def _rat_vector(self, mapping) -> tuple[Fraction, ...]:
        return self.alg.vector({k: Fraction(v) for k, v in mapping.items()})

    def poly_vector(self, vec: Sequence[Fraction]) -> tuple[DiffPoly, ...]:
        return tuple(DiffPoly.const(c) for c in vec)

    def element(self, coeffs: Mapping[int, Sequence]) -> LoopElement:
        out = {}
        for k, vec in coeffs.items():
            out[k] = tuple(c if isinstance(c, DiffPoly) else DiffPoly.const(c)
                           for c in vec)
        return LoopElement(self, out)

    def slice_basis(self, d: int) -> list[tuple[int, int]]:
        got = self._slice_cache.get(d)
        if got is None:
            kmin, kmax = self.window
            got = []
            for k in range(kmin, kmax + 1):
                base = k * self.deg_lambda
                for i in range(self.alg.dim):
                    if self.pdeg[i] + base == d and \
                            self.twist_class[i] % self.twist_order == k % self.twist_order:
                        got.append((k, i))
            self._slice_cache[d] = got
        return got

    def heisenberg_at(self, d: int) -> LoopElement | None:
        """The basis element of the Heisenberg subalgebra at principal degree d."""
        period = self.r * self.h
        for m_a, base in self._heis_base.items():
            if (d - m_a) % period == 0:
                shift = (d - m_a) // period
                if shift == 0:
                    return base
                return base.lambda_shift(shift * self.twist_order)
        return None

    def heisenberg_element(self, degree: int) -> LoopElement:
        elt = self.heisenberg_at(degree)
        if elt is None:
            raise ValueError(f"{degree} is not an exponent of {self.name}")
        if elt.truncated:
            raise WindowError(f"Heisenberg element at degree {degree} exceeds window")
        return elt

    def splitter(self, d: int) -> _SliceSplitter:
        got = self._split_cache.get(d)
        if got is None:
            got = _SliceSplitter(self, d)
            self._split_cache[d] = got
        return got

    # -- public operations -------------------------------------------------
    def split_with_preimage(self, d: int, sl: LoopElement):
        """Slice split returning (h_coeff, h_part, y) with y in im ad Lambda."""
        h_coeff, h_part, y = self.splitter(d).split(sl)
        if not y.is_zero():
            prev = self.splitter(d - 1)
            if prev.n_h:  # else y has no Heisenberg part to remove
                _, h2, _ = prev.split(y)
                if not h2.is_zero():
                    y = y - h2
        return h_coeff, h_part, y

    # -- Borel coordinate frame ----------------------------------------------
    def borel_vectors(self) -> list[tuple[Fraction, ...]]:
        """Ordered Borel basis: gauge subspace V first, then [e, n]-images."""
        out = [tuple(v) for v in self.v_basis]
        zero = Fraction(0)
        for p in self.nilpotent_basis:
            out.append(tuple(self.alg.bracket_vec(self.e_nil, p, zero=zero)))
        return out

    def borel_coords(self, vec: Sequence[DiffPoly]) -> list[DiffPoly]:
        """Coordinates of a Borel-valued vector in the ordered Borel basis.

        The first len(v_basis) coordinates are the gauge (V) components, the
        remaining ones are the coefficients of [e, p_j].  Raises when the
        vector is not in the Borel span.
        """
        if self._borel_solver is None:
            cols = self.borel_vectors()
            rows = [[cols[c][r] for c in range(len(cols))]
                    for r in range(self.alg.dim)]
            self._borel_solver = LinearSolver(rows)
        return self._borel_solver.solve(list(vec), zero=_ZERO_P)

    # -- validation ---------------------------------------------------------
    def _validate(self):
        alg = self.alg
        alg.validate()
        zero = Fraction(0)
        rho = self.rho
        # basis homogeneity: [rho, x_i] = pdeg_i x_i
        for i in range(alg.dim):
            v = [zero] * alg.dim
            v[i] = Fraction(1)
            br = alg.bracket_vec(rho, v, zero=zero)
            for t in range(alg.dim):
                want = self.pdeg[i] * v[t]
                if br[t] != want:
                    raise ValueError(f"basis element {alg.labels[i]} is not ad-rho homogeneous")
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
                    raise ValueError("structure constants break the twist grading")
        # form pairs opposite twist classes only (needed for loop pairings)
        for i in range(alg.dim):
            for jj in range(alg.dim):
                if alg.gram[i][jj] and (self.twist_class[i] + self.twist_class[jj]) % n:
                    raise ValueError("bilinear form mixes twist classes")
        # JM triple
        e, f = self.e_nil, self.f_jm
        if alg.bracket_vec(rho, e, zero=zero) != list(e):
            raise ValueError("[rho, e] != e")
        if alg.bracket_vec(rho, f, zero=zero) != [-c for c in f]:
            raise ValueError("[rho, f] != -f")
        if alg.bracket_vec(e, f, zero=zero) != list(rho):
            raise ValueError("[e, f] != rho")
        # cyclic element is homogeneous of principal degree 1
        if self.cyclic.principal_degree() != 1:
            raise ValueError("cyclic element is not of principal degree 1")
        if not self.cyclic.check_twist():
            raise ValueError("cyclic element breaks the twist")
        # the defining representation carries the resolvent recursion
        check_cyclic(alg, self.deg_lambda, self.cyclic.coeffs,
                     {m: elt.coeffs for m, elt in self._heis_base.items()}, self.exponents)
        # affine Chevalley degrees +-1
        for idx in self.chevalley_e:
            if self.pdeg[idx] != 1:
                raise ValueError("finite Chevalley raising generator not of degree 1")
        for idx in self.chevalley_f:
            if self.pdeg[idx] != -1:
                raise ValueError("finite Chevalley lowering generator not of degree -1")
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
        # Heisenberg: abelian, normalized pairings, twist
        for a, ma in enumerate(ms):
            ea = self._heis_base[ma]
            if not ea.check_twist():
                raise ValueError("Heisenberg element breaks the twist")
            if ea.principal_degree() != ma:
                raise ValueError("Heisenberg element has wrong principal degree")
            for b, mb in enumerate(ms):
                eb = self._heis_base[mb]
                br = ea.bracket(eb)
                if not br.is_zero():
                    raise ValueError("Heisenberg is not abelian")
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
        lam_tail = LoopElement(self, {1: self.cyclic.vector_at(1)})
        for v in self.nilpotent_basis:
            nv = LoopElement.from_vector(self, 0, self.poly_vector(v))
            if not nv.bracket(lam_tail).is_zero():
                raise ValueError("[n, e_m lambda] != 0 fails")
        # gauge splitting b = V (+) [e, n]
        dim_b = len(self.nilpotent_basis) + len(self.cartan_basis)
        cols = [list(v) for v in self.v_basis]
        for p in self.nilpotent_basis:
            cols.append(alg.bracket_vec(self.e_nil, p, zero=zero))
        if len(cols) != dim_b:
            raise ValueError("dim V + dim [e,n] != dim b")
        rows = [[cols[c][r] for c in range(len(cols))] for r in range(alg.dim)]
        if LinearSolver(rows).rank != dim_b:
            raise ValueError("V does not complement [e, n] in the Borel")
        # V degrees are minus the exponents of the zero-mode subalgebra
        for v in self.v_basis:
            elt = LoopElement.from_vector(self, 0, self.poly_vector(v))
            d = elt.principal_degree()
            if not isinstance(d, int) or d >= 0:
                raise ValueError("gauge subspace basis must be homogeneous of negative degree")


def default_window_for_depth(shape: TableShape | LoopRealization, depth: int,
                             k_headroom: int = 2) -> tuple[int, int]:
    """Window covering all principal degrees in [-depth, max exponent + 1]."""
    max_pdeg = max(shape.pdeg)
    kmin = -((depth + max_pdeg) // shape.deg_lambda + 1)
    kmax = (max(shape.exponents) + max_pdeg) // shape.deg_lambda + 1 + k_headroom
    return (kmin, kmax)


def build_algebra(type_name: str, vertex: int = 0,
                  window: tuple[int, int] | None = None,
                  depth_hint: int = 12) -> LoopRealization:
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
    if window is None:
        window = default_window_for_depth(TableShape(data), depth_hint)
    return LoopRealization(data, window)
