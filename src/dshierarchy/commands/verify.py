"""``dshier verify``: the structural identity suite; exit 0 iff every residual vanishes."""

from __future__ import annotations

import sys

from ..certify import (tau_coordinate_check, verify_integrability, verify_symmetry,
                       verify_tau_symmetry)
from ..diffalg import DiffPoly
from ..hierarchy import OmegaTable, verify_gauge_invariance
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
        table = OmegaTable(entries, table.max_a, table.max_k)
    checks: list[dict] = []
    # translation flow
    f10 = h.flow((1, 0))
    checks.append({"check": "d10_is_minus_d", "residual_zero": f10.is_minus_d()})
    try:
        h.d10_unique_solve()
        checks.append({"check": "d10_unique_solution", "residual_zero": True})
    except RuntimeError as exc:
        checks.append({"check": "d10_unique_solution", "residual_zero": False,
                       "error": str(exc)})
    # resolvent residuals on every slice the table reads, and at least 4 deep
    rs = {a: h.lax_u.resolvent(a, max(r.depth, 4))
          for a, r in h.table_resolvents(max_a, cfg.max_k).items()}
    # the form is symmetric (checked at load): one residual per unordered pair
    normalized = {(a, b): not ra.pairing_residual(rs[b])
                  for a, ra in rs.items() for b in rs if a <= b}
    for a, r in rs.items():
        checks.append({
            "check": "resolvent_commutator", "exponent_index": a,
            "residual_zero": not r.commutator_residual_slices(),
        })
        checks.extend({
            "check": "resolvent_normalization",
            "pair": [a, b],
            "residual_zero": normalized[min(a, b), max(a, b)],
        } for b in rs)
    # the commutators come first: tau-symmetry certifies triples from them
    commutators = verify_integrability(flows)
    checks.extend(verify_symmetry(table.entries))
    checks.extend(verify_tau_symmetry(flows, table.entries, commutators=commutators))
    checks.extend(verify_gauge_invariance(h, table))
    checks.extend(commutators)
    # the first flow other than (1, 0) that the table has a row for
    covered = [l for l in labels if l != (1, 0) and l in table.labels()]
    checks.append(tau_coordinate_check(
        {(1, 0): f10, **flows}, table.entries, real.ell,
        eps_order=min(cfg.eps_order, cfg.max_k + 1),
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
