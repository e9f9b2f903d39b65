"""Fixtures shared by the test modules."""

import pytest

from orliczmax.young import Power, PowerLog, Tabulated, complementary

# One Young function of each kind the root finders meet: smooth powers, a
# zero stretch below the first knot, a jump to +inf past the asymptotic
# slope of a complement, and a jump past a domain cap. The Orlicz sweep
# reads the complement of a power as a power, so the complement of a
# PowerLog keeps a numeric complement on its ladder path.
SOLVER_PHIS = [
    Power(2.0),
    PowerLog(1.8, 1.0),
    Tabulated([(0.5, 0.0), (1.0, 0.5), (2.0, 3.0), (8.0, 64.0)]),
    complementary(Power(1.5)),
    Power(2.0, domain_cap=10.0),
    complementary(PowerLog(2.0, 1.0)),
]
SOLVER_IDS = ["power", "power_log", "tabulated", "complement", "capped", "complement_log"]


@pytest.fixture(params=SOLVER_PHIS, ids=SOLVER_IDS)
def solver_phi(request):
    return request.param
