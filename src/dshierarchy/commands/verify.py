"""``dshier verify``: the structural identity suite; exit 0 iff every residual vanishes."""

from __future__ import annotations

import sys

from ..diffalg import DiffPoly
from ..hierarchy import (OmegaTable, tau_coordinate_check, verify_gauge_invariance,
                         verify_integrability, verify_tau_symmetry)
from ..serialize import dumps
from . import ConfigError


def run(cfg, build) -> int:
    h = build(cfg)
    real = h.real
    max_a = cfg.max_a or real.n
    if max_a < real.ell:
        raise ConfigError(
            f"max_a (--max-a) {max_a} is below ell = {real.ell} for {real.name}: the "
            f"tau-coordinate check reads Omega_(a,0);(1,0) for a = 1..{real.ell}")
    table = h.omega_table(max_a, cfg.max_k)
    labels = cfg.flows or table.labels()
    flows = h.flows(labels)
    if cfg.self_test_corrupt:
        # a corrupted copy: the table cached in the hierarchy stays intact
        key = sorted(table.entries)[0]
        entries = {**table.entries, key: table.entries[key] + DiffPoly.var(1, 1)}
        table = OmegaTable(entries, table.max_a, table.max_k, table.depth)
    checks: list[dict] = []
    # translation flow
    f10 = h.flow((1, 0))
    ok_d10 = all(w == -DiffPoly.var(a + 1, 1) for a, w in enumerate(f10.chars))
    checks.append({"check": "d10_is_minus_d", "residual_zero": ok_d10})
    try:
        h.d10_unique_solve()
        checks.append({"check": "d10_unique_solution", "residual_zero": True})
    except RuntimeError as exc:
        checks.append({"check": "d10_unique_solution", "residual_zero": False,
                       "error": str(exc)})
    # resolvent residuals
    for a in range(1, max_a + 1):
        depth = real.exponents[max_a - 1] + \
            2 * cfg.max_k * real.twist_order * real.deg_lambda
        r = h.lax_u.resolvent(a, max(depth, 4))
        checks.append({
            "check": "resolvent_commutator", "exponent_index": a,
            "residual_zero": not r.commutator_residual_slices(),
        })
        for b in range(1, max_a + 1):
            rb = h.lax_u.resolvent(b, max(depth, 4))
            checks.append({
                "check": "resolvent_normalization",
                "pair": [a, b],
                "residual_zero": not r.pairing_residual(rb),
            })
    checks.extend(table.symmetry_report())
    checks.extend(verify_tau_symmetry(flows, table))
    checks.extend(verify_gauge_invariance(h, table))
    checks.extend(verify_integrability(list(flows.values())))
    covered = [l for l in labels if l != (1, 0) and l[1] <= cfg.max_k]
    checks.append(tau_coordinate_check(
        h, table, eps_order=min(cfg.eps_order, cfg.max_k + 1),
        jet_depth=cfg.jet_depth, check_labels=covered[:1] or [(1, 0)]))
    all_pass = all(c.get("residual_zero", False) for c in checks)
    payload = {"algebra": real.name, "all_pass": all_pass, "checks": checks}
    if cfg.format == "text":
        for c in checks:
            status = "ok" if c.get("residual_zero") else "FAIL"
            name = c.get("check", "?")
            extra = {k: v for k, v in c.items()
                     if k not in ("check", "residual_zero")}
            sys.stdout.write(f"{status:4} {name} {extra if extra else ''}\n")
        sys.stdout.write(f"all_pass: {all_pass}\n")
    else:
        sys.stdout.write(dumps(payload))
    return 0 if all_pass else 1
