"""The benchmark's output checkers accept real outputs and reject altered ones.

The files in ``data/`` are the outputs of the benchmark's jobs as the program
printed them (``discrete`` with ``--seed 7``).  Run with::

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402

A21_LABELS = [(1, 0), (2, 0), (1, 1), (2, 1)]
VERIFY_COUNTS = {"tau_symmetry": 64, "flow_commutator": 10, "omega_gauge_invariance": 16}


def load(name: str) -> dict:
    with open(HERE / "data" / f"{name}.json") as fh:
        return json.load(fh)


def dump(obj: dict) -> bytes:
    return json.dumps(obj).encode()


def bump(term: dict) -> None:
    """Change one printed coefficient by adding 1 to it."""
    term["coeff"] = str(Fraction(term["coeff"]) + 1)


def derive(obj, rc=0):
    return checks.check_derive(dump(obj), rc, A21_LABELS)


def omega(obj, rc=0):
    return checks.check_omega(dump(obj), rc, checks.load_type_table(ROOT, "a2_2"), 2, 1)


def verify(obj, rc=0):
    return checks.check_verify(dump(obj), rc, VERIFY_COUNTS)


def solve(obj, rc=0):
    return checks.check_solve(dump(obj), rc, checks.load_type_table(ROOT, "a1_1"),
                              [(1, 0), (1, 1), (1, 2)], [1])


def test_real_outputs_pass():
    assert derive(load("derive-a2_1")) == []
    assert omega(load("omega-a2_2")) == []
    assert verify(load("verify-a2_1")) == []
    assert solve(load("solve-a1_1")) == []
    assert checks.check_all_pass(dump(load("discrete")), 0) == []
    assert checks.check_corrupt_fails(dump(load("verify-corrupt")), 1) == []


@pytest.mark.parametrize("flow, component, eps", [(0, 0, 0), (1, 1, 0), (3, 1, 2)])
def test_derive_rejects_changed_coefficient(flow, component, eps):
    out = load("derive-a2_1")
    rhs = out["flows"][flow]["components"][component]["rhs"]
    bump(next(r for r in rhs if r["eps"] == eps)["terms"][0])
    assert derive(out)


def test_derive_rejects_missing_flow():
    out = load("derive-a2_1")
    del out["flows"][2]
    assert derive(out)


@pytest.mark.parametrize("index", [1, 7, 13])
def test_omega_rejects_changed_off_diagonal_coefficient(index):
    out = load("omega-a2_2")
    entry = out["entries"][index]
    assert entry["i"] != entry["j"]
    bump(entry["value"]["terms"][-1])
    assert omega(out)


def test_omega_rejects_wrong_leading_entry():
    out = load("omega-a2_2")
    out["entries"][0]["value"]["terms"][0]["monomial"] = [[1, 1, 1]]
    assert omega(out)


@pytest.mark.parametrize("monomial", [[[1, 0, 3]], [[1, 2, 1]], []])
def test_homogeneity_rejects_off_weight_term(monomial):
    out = load("omega-a2_2")
    for e in out["entries"]:
        if e["i"] == [1, 1] and e["j"] == [1, 1]:
            e["value"]["terms"].append({"coeff": "1", "monomial": monomial})
    problems = omega(out)
    assert any("weight" in p for p in problems)


def test_verify_rejects_failed_skipped_or_missing_checks():
    base = load("verify-a2_1")
    failed = copy.deepcopy(base)
    failed["checks"][-1]["residual_zero"] = False
    assert verify(failed)
    skipped = copy.deepcopy(base)
    skipped["checks"][-1]["skipped"] = "weight budget"
    assert verify(skipped)
    fewer = copy.deepcopy(base)
    fewer["checks"].remove(next(c for c in fewer["checks"] if c["check"] == "tau_symmetry"))
    assert verify(fewer)
    assert verify(base, rc=1)


def test_solve_rejects_changed_initial_coefficient():
    out = load("solve-a1_1")
    row = out["coefficients"][0]
    assert row["t_exponents"] == [0, 0, 0]
    row["value"]["num"][0] = "2"
    assert solve(out)


@pytest.mark.parametrize("j", [1, 2])
def test_solve_rejects_changed_two_point_coefficient(j):
    out = load("solve-a1_1")
    row = next(r for r in out["two_point"] if r["i"] == [1, 0] and r["j"] == [1, j])
    entry = next(e for e in row["series"] if e["t_exponents"] == [1, 0, 0])
    entry["value"]["num"][0] = str(Fraction(entry["value"]["num"][0]) + 1)
    assert solve(out)


def test_discrete_and_negative_control_reject_the_other_verdict():
    disc = load("discrete")
    disc["checks"][0]["residual_zero"] = False
    assert checks.check_all_pass(dump(disc), 0)
    assert checks.check_corrupt_fails(dump(load("verify-a2_1")), 0)
    assert checks.check_corrupt_fails(dump(load("verify-corrupt")), 0)
