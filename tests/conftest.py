import os
import random

import pytest

import lyalg as L
from lyalg import io as lyio

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")

# verdict lines recorded by the acceptance suite; echoed after the test run so
# they stay visible even under pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def nilpotent4():
    import families       # which imports fx from here, so not at the top
    A = families.nilpotent4()
    assert L.check_ly_axioms(A).passed
    return A


@pytest.fixture(scope="session")
def adjoint_action():
    return lyio.load_action(fx("nilpotent4_adjoint.json"))


@pytest.fixture(scope="session")
def p3():
    import families
    return families.p3_operator()


@pytest.fixture(scope="session")
def tcomplex(p3):
    return L.TComplex(p3)


@pytest.fixture()
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def oracle_matrices(p3):
    """Dense coboundary matrices from the direct-formula oracle, built once."""
    import oracles
    oc = oracles.OpOracle(p3)
    return {0: oracles.partial_matrix(oc),
            1: oracles.delta1_matrix(oc),
            2: oracles.delta2_matrix(oc)}
