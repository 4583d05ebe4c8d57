"""Human-readable rendering of differential polynomials and eps-series.

The PDE renderer writes jets with x-subscripts (``u_x``, ``u_xx``) and powers
with a caret, e.g. ``-3/2*u*u_x + 1/4*eps^2*u_xxx``.  When the ring has a
single component the index is dropped (``u`` instead of ``u1``).
"""

from __future__ import annotations

from .diffalg import DiffPoly, EpsSeries, Monomial, fraction_text


def default_names(arity: int, base: str = "u"):
    if arity <= 1:
        return lambda alpha: base
    return lambda alpha: f"{base}{alpha}"


def _render_jet(name: str, order: int) -> str:
    if order == 0:
        return name
    if order < 0:
        return f"{name}[{order}]"
    return f"{name}_" + "x" * order


def render_monomial(mono: Monomial, names) -> str:
    parts = []
    for (alpha, order), e in mono:
        v = _render_jet(names(alpha), order)
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def render_poly(p: DiffPoly, names=None, eps_power: int = 0, terms=None) -> str:
    """``terms``, if given, is ``p.sorted_parts()``, shared with the caller."""
    if names is None:
        names = default_names(p.max_alpha())
    if p.is_zero():
        return "0"
    out = []
    for mono, num, den in p.sorted_parts() if terms is None else terms:
        mono_str = render_monomial(mono, names)
        if eps_power:
            eps = "eps" if eps_power == 1 else f"eps^{eps_power}"
            mono_str = f"{eps}*{mono_str}" if mono_str else eps
        mag = fraction_text(abs(num), den)
        if mono_str:
            body = mono_str if mag == "1" else f"{mag}*{mono_str}"
        else:
            body = mag
        if not out:
            out.append(body if num > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if num > 0 else f" - {body}")
    return "".join(out)


def render_series(s: EpsSeries, names=None, parts=None) -> str:
    """``parts``, if given, is the ``sorted_parts()`` of each component."""
    if names is None:
        arity = max((c.max_alpha() for c in s.components), default=1)
        names = default_names(arity)
    chunks = []
    for q, comp in enumerate(s.components):
        if comp.is_zero():
            continue
        chunk = render_poly(comp, names, eps_power=q, terms=None if parts is None else parts[q])
        if not chunks:
            chunks.append(chunk)
        else:
            if chunk.startswith("-"):
                chunks.append(" - " + chunk[1:])
            else:
                chunks.append(" + " + chunk)
    return "".join(chunks) if chunks else "0"
