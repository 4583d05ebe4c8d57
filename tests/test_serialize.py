from fractions import Fraction

from conftest import random_poly
from dshierarchy.diffalg import DiffPoly, EpsSeries
from dshierarchy.render import default_names, render_poly, render_series
from dshierarchy.serialize import dumps, poly_to_obj, series_to_obj
from reference_ops import miura_pair_to_obj, poly_from_obj, series_from_obj

u = DiffPoly.var


def test_poly_schema_shape():
    p = Fraction(3, 2) * u(1) * u(2, 1) ** 2 - u(1, 3)
    obj = poly_to_obj(p)
    assert set(obj) == {"terms"}
    for t in obj["terms"]:
        assert set(t) == {"coeff", "monomial"}
        for factor in t["monomial"]:
            assert len(factor) == 3
    # canonical ordering: terms sorted by monomial key
    keys = [tuple(map(tuple, t["monomial"])) for t in obj["terms"]]
    assert keys == sorted(keys)


def test_poly_round_trip(rng):
    for _ in range(10):
        p = random_poly(rng)
        assert poly_from_obj(poly_to_obj(p)) == p


def test_series_round_trip(rng):
    K = 3
    s = EpsSeries([random_poly(rng) for _ in range(K + 1)], K)
    objs = series_to_obj(s)
    assert all("eps" in o for o in objs)
    assert series_from_obj(objs, K) == s


def test_series_omits_zero_components():
    s = EpsSeries.of_poly(u(1), 4, 2)
    objs = series_to_obj(s)
    assert [o["eps"] for o in objs] == [2]


def test_dumps_deterministic(rng):
    p = random_poly(rng)
    a = dumps({"value": poly_to_obj(p), "meta": {"b": 1, "a": 2}})
    b = dumps({"meta": {"a": 2, "b": 1}, "value": poly_to_obj(p)})
    assert a == b
    assert a.endswith("\n")


def test_render_pde_examples():
    names = default_names(1)
    assert render_poly(-u(1, 1), names) == "-u_x"
    assert render_poly(Fraction(3, 2) * u(1) * u(1, 1), names) == "3/2*u*u_x"
    assert render_poly(DiffPoly.zero(), names) == "0"
    s = EpsSeries.regrade(Fraction(3, 2) * u(1) * u(1, 1)
                          - Fraction(1, 4) * u(1, 3), 4, -1)
    assert render_series(s, names) == "3/2*u*u_x - 1/4*eps^2*u_xxx"


def test_render_multicomponent():
    names = default_names(2)
    assert render_poly(u(2, 2) ** 2 - 2 * u(1), names) == "-2*u1 + u2_xx^2"


def test_miura_pair_serialization_sides():
    from dshierarchy.miura import MiuraTuple, invert_miura
    K = 2
    val = EpsSeries.of_poly(u(1), K) + EpsSeries.of_poly(u(1, 1), K, 1)
    pair = invert_miura(MiuraTuple([val]))
    obj = miura_pair_to_obj(pair)
    assert all(c["side"] == "u" for c in obj["forward"])
    assert all(c["side"] == "v" for c in obj["inverse"])
    assert obj["eps_order"] == K and obj["arity"] == 1
    got = series_from_obj(obj["inverse"][0]["series"], K)
    assert got == pair.inverse[0]
