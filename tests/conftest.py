"""Shared fixtures: ring contexts for the discriminants the suite leans on."""

import pytest

from soslab import RingContext

# Squarefree D covering every class of D mod 8 a squarefree D takes, so
# both integral bases and all three ways 2 factors: 2, 3, 6, 7 ramified
# (kappa = 2); 5, 13, 21 inert (D = 5 mod 8) and 17 split (D = 1 mod 8),
# both kappa = 1.  The library keeps only kappa; the rings still cover
# the split and the inert case.
STANDARD_DS = (2, 3, 5, 6, 7, 13, 17, 21)


@pytest.fixture(scope="session")
def contexts() -> dict[int, RingContext]:
    return {d: RingContext(d) for d in STANDARD_DS}


@pytest.fixture(scope="session")
def ctx2(contexts) -> RingContext:
    return contexts[2]


@pytest.fixture(scope="session")
def ctx3(contexts) -> RingContext:
    return contexts[3]


@pytest.fixture(scope="session")
def ctx5(contexts) -> RingContext:
    return contexts[5]


@pytest.fixture(scope="session")
def ctx6(contexts) -> RingContext:
    return contexts[6]
