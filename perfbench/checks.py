"""Checks of the printed JSON of each benchmark job, recomputed in sympy.

Each checker takes the job's standard output (bytes) and exit code and
returns a list of problems; an empty list means the output passed.  Nothing
here calls the program: the flows, tables and series are rebuilt from the
printed JSON and the identities they must satisfy are recomputed.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import sympy

EPS = sympy.Symbol("eps")
X = sympy.Symbol("x")
_JET = re.compile(r"u(\d+)_(\d+)$")


def jet(alpha: int, order: int) -> sympy.Symbol:
    return sympy.Symbol(f"u{alpha}_{order}")


def load_type_table(root: Path, type_name: str) -> dict:
    """The shipped type table: exponents, r and coxeter number among others."""
    with open(Path(root) / "src" / "dshierarchy" / "data" / f"{type_name}.json") as fh:
        return json.load(fh)


def poly_expr(obj: dict) -> sympy.Expr:
    out = sympy.Integer(0)
    for term in obj["terms"]:
        mono = sympy.Rational(term["coeff"])
        for alpha, order, exp in term["monomial"]:
            mono *= jet(alpha, order) ** exp
        out += mono
    return out


def series_expr(objs: list[dict]) -> sympy.Expr:
    return sum((EPS ** obj["eps"] * poly_expr(obj) for obj in objs), sympy.Integer(0))


def _jets(expr: sympy.Expr) -> list[tuple[int, int]]:
    out = []
    for s in expr.free_symbols:
        m = _JET.match(s.name)
        if m:
            out.append((int(m.group(1)), int(m.group(2))))
    return sorted(out)


def total_dx(expr: sympy.Expr) -> sympy.Expr:
    """d/dx extended by u_{a,m} -> u_{a,m+1}."""
    return sum((sympy.diff(expr, jet(a, m)) * jet(a, m + 1) for a, m in _jets(expr)),
               sympy.Integer(0))


class Evolutionary:
    """The evolutionary derivation with characteristics ``chars`` (u_a -> chars[a-1])."""

    def __init__(self, chars: list[sympy.Expr]):
        self.chars = chars
        self._dx: dict[tuple[int, int], sympy.Expr] = {}

    def char_dx(self, alpha: int, m: int) -> sympy.Expr:
        key = (alpha, m)
        if key not in self._dx:
            self._dx[key] = (self.chars[alpha - 1] if m == 0
                             else sympy.expand(total_dx(self.char_dx(alpha, m - 1))))
        return self._dx[key]

    def __call__(self, expr: sympy.Expr) -> sympy.Expr:
        return sum((sympy.diff(expr, jet(a, m)) * self.char_dx(a, m)
                    for a, m in _jets(expr)), sympy.Integer(0))


def _parse(stdout: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _label(x) -> tuple[int, int]:
    return (int(x[0]), int(x[1]))


def check_derive(stdout: bytes, rc: int, labels: list[tuple[int, int]]) -> list[str]:
    """The printed flows are the requested ones, D_(1,0) = -d, and they commute."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    printed = [_label(f["label"]) for f in out["flows"]]
    if printed != list(labels):
        return problems + [f"flows {printed} printed, {list(labels)} requested"]
    flows = {}
    for f in out["flows"]:
        comps = sorted(f["components"], key=lambda c: c["component"])
        flows[_label(f["label"])] = Evolutionary([series_expr(c["rhs"]) for c in comps])
    for alpha, char in enumerate(flows[(1, 0)].chars, start=1):
        if sympy.expand(char + jet(alpha, 1)) != 0:
            problems.append(f"flow (1,0) component {alpha} is {char}, not -u{alpha}_x")
    for i, j in itertools.combinations(labels, 2):
        di, dj = flows[i], flows[j]
        for alpha in range(1, len(di.chars) + 1):
            resid = sympy.expand(di(dj.chars[alpha - 1]) - dj(di.chars[alpha - 1]))
            if resid != 0:
                problems.append(f"flows {i} and {j} do not commute on u{alpha}")
    return problems


def entry_weight_problems(expr: sympy.Expr, expected: int,
                          exponents: list[int]) -> list[str]:
    """Terms of ``expr`` whose weight is not ``expected``.

    u_c weighs m_c + 1 and each x-derivative adds 1.
    """
    jets = _jets(expr)
    gens = [jet(a, m) for a, m in jets]
    if not gens:
        return [] if expr == 0 or expected == 0 else [f"constant {expr} has weight 0"]
    bad = []
    for mono, coeff in sympy.Poly(expr, *gens).terms():
        w = sum(e * (exponents[a - 1] + 1 + m) for e, (a, m) in zip(mono, jets))
        if w != expected:
            bad.append(f"term {coeff}*{sympy.Mul(*[g ** e for g, e in zip(gens, mono)])} "
                       f"has weight {w}, not {expected}")
    return bad


def check_omega(stdout: bytes, rc: int, table: dict, max_a: int,
                max_k: int) -> list[str]:
    """Symmetry, Omega_(1,0;1,0) = c*u_1 with c != 0, and homogeneity of weight
    m_a + m_b + (k1+k2)*r*h for every entry."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    entries = {(_label(e["i"]), _label(e["j"])): sympy.expand(poly_expr(e["value"]))
               for e in out["entries"]}
    labels = [(a, k) for a in range(1, max_a + 1) for k in range(max_k + 1)]
    want = {(i, j) for i in labels for j in labels}
    if set(entries) != want:
        return problems + [f"entries {sorted(set(entries) ^ want)} missing or extra"]
    for (i, j), val in sorted(entries.items()):
        if i < j and sympy.expand(val - entries[(j, i)]) != 0:
            problems.append(f"Omega[{i};{j}] != Omega[{j};{i}]")
    lead = entries[((1, 0), (1, 0))]
    coeff = lead.coeff(jet(1, 0))
    if coeff == 0 or sympy.expand(lead - coeff * jet(1, 0)) != 0 or coeff.free_symbols:
        problems.append(f"Omega[(1,0);(1,0)] = {lead} is not a non-zero multiple of u1")
    exps, rh = table["exponents"], table["r"] * table["coxeter"]
    for ((a, k1), (b, k2)), val in sorted(entries.items()):
        expected = exps[a - 1] + exps[b - 1] + (k1 + k2) * rh
        for msg in entry_weight_problems(val, expected, exps):
            problems.append(f"Omega[{(a, k1)};{(b, k2)}]: {msg}")
    return problems


def check_verify(stdout: bytes, rc: int, counts: dict[str, int]) -> list[str]:
    """Exit 0, all_pass, nothing skipped, every residual zero, exact check counts."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    if out.get("all_pass") is not True:
        problems.append("all_pass is not true")
    got: dict[str, int] = {}
    for c in out["checks"]:
        got[c["check"]] = got.get(c["check"], 0) + 1
        if "skipped" in c:
            problems.append(f"check {c['check']} skipped: {c['skipped']}")
        if c.get("residual_zero") is not True:
            problems.append(f"check {c} failed")
    for name, n in counts.items():
        if got.get(name, 0) != n:
            problems.append(f"{got.get(name, 0)} {name} checks, expected {n}")
    return problems


def _ratfunc(obj: dict) -> sympy.Expr:
    num = sum(sympy.Rational(c) * X ** i for i, c in enumerate(obj["num"]))
    den = sum(sympy.Rational(c) * X ** i for i, c in enumerate(obj["den"]))
    return num / den


def check_solve(stdout: bytes, rc: int, table: dict, labels: list[tuple[int, int]],
                constants: list[int]) -> list[str]:
    """t = 0 coefficients are the gBGW data C_a/(1-x)^(m_a+1), and
    d_{t_i} Omega_(1,0;j) = d_{t_j} Omega_(1,0;i) through t-degree T-1."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    n = len(labels)
    zero = [0] * n
    at_zero = {}
    for row in out["coefficients"]:
        if row["t_exponents"] == zero:
            at_zero[(row["component"], row["eps"])] = _ratfunc(row["value"])
    want = {(a, 0): sympy.Integer(c) / (1 - X) ** (table["exponents"][a - 1] + 1)
            for a, c in enumerate(constants, start=1)}
    for key in sorted(set(at_zero) | set(want)):
        if sympy.cancel(at_zero.get(key, 0) - want.get(key, 0)) != 0:
            problems.append(f"t=0 coefficient of u{key[0]} at eps^{key[1]} is "
                            f"{at_zero.get(key, 0)}, not {want.get(key, 0)}")
    series: dict[tuple[int, int], dict] = {}
    for row in out["two_point"]:
        if _label(row["i"]) == (1, 0):
            series[_label(row["j"])] = {
                (tuple(e["t_exponents"]), e["eps"]): _ratfunc(e["value"])
                for e in row["series"]}
    if set(series) != set(labels):
        return problems + [f"two-point rows for {sorted(series)}, expected {labels}"]
    eps_powers = {q for s in series.values() for (_, q) in s}
    t_degree = out["t_degree"]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        si, sj = series[labels[a]], series[labels[b]]
        for f in itertools.product(range(t_degree), repeat=n):
            if sum(f) > t_degree - 1:
                continue
            fa = tuple(e + (k == a) for k, e in enumerate(f))
            fb = tuple(e + (k == b) for k, e in enumerate(f))
            for q in eps_powers:
                lhs = (f[a] + 1) * sj.get((fa, q), 0)
                rhs = (f[b] + 1) * si.get((fb, q), 0)
                if sympy.cancel(lhs - rhs) != 0:
                    problems.append(
                        f"d_t{labels[a]} Omega[(1,0);{labels[b]}] != "
                        f"d_t{labels[b]} Omega[(1,0);{labels[a]}] at t^{f} eps^{q}")
    return problems


def check_all_pass(stdout: bytes, rc: int) -> list[str]:
    """Exit 0 and every printed check passed (used for ``discrete``)."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    if out.get("all_pass") is not True:
        problems.append("all_pass is not true")
    problems += [f"check {c} failed" for c in out["checks"]
                 if c.get("residual_zero") is not True]
    return problems


def check_corrupt_fails(stdout: bytes, rc: int) -> list[str]:
    """The failure path: exit 1 with a failing tau_symmetry check."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if rc != 1:
        problems.append(f"exit code {rc}, expected 1")
    if out.get("all_pass") is not False:
        problems.append("all_pass is not false")
    if not any(c["check"] == "tau_symmetry" and c["residual_zero"] is False
               for c in out["checks"]):
        problems.append("no tau_symmetry check failed")
    return problems
