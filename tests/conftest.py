import random

import pytest
from hypothesis import settings

from dshierarchy.diffalg import DiffPoly
from dshierarchy.hierarchy import DSHierarchy

# Property tests draw the same examples on every run and have no deadline,
# so the suite is reproducible and a loaded machine cannot fail it.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def sl2():
    return DSHierarchy("a1_1", max_flow_k=2, omega_max_k=2)


@pytest.fixture(scope="session")
def sl3():
    return DSHierarchy("a2_1", max_flow_k=1, omega_max_k=1)


@pytest.fixture(scope="session")
def a22():
    return DSHierarchy("a2_2", max_flow_k=1, omega_max_k=1)


def random_poly(rng: random.Random, arity: int = 2, max_order: int = 3,
                terms: int = 4, degree: int = 3) -> DiffPoly:
    """Small random differential polynomial with integer coefficients."""
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, terms)):
        mono = DiffPoly.const(rng.randint(-5, 5))
        for _ in range(rng.randint(0, degree)):
            mono = mono * DiffPoly.var(rng.randint(1, arity),
                                       rng.randint(0, max_order))
        p = p + mono
    return p


@pytest.fixture
def rng():
    return random.Random(20230116)
