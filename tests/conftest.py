import numpy as np
import pytest
from hypothesis import settings

from edmsphere import DEFAULT_TOL, Graph, require_edm

# A property that fails prints the blob that replays its example (`@reproduce_failure`); the
# example counts, deadlines and the random draws stay hypothesis' defaults.
settings.register_profile("edmsphere", print_blob=True)
settings.load_profile("edmsphere")

# Five points on the unit sphere: two antipodal on the x axis, an antipodal
# pair plus a lone orthogonal point in the y-z space.  The worked example
# used throughout: graph 1-2, 3-4 with node 5 isolated.
EXAMPLE_EDGES = [(1, 2), (3, 4)]
EXAMPLE_EDM = np.array(
    [
        [0.0, 4.0, 2.0, 2.0, 2.0],
        [4.0, 0.0, 2.0, 2.0, 2.0],
        [2.0, 2.0, 0.0, 4.0, 2.0],
        [2.0, 2.0, 4.0, 0.0, 2.0],
        [2.0, 2.0, 2.0, 2.0, 0.0],
    ]
)
EXAMPLE_W = np.array([0.125, 0.125, 0.125, 0.125, 0.0])

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def tol():
    return DEFAULT_TOL


@pytest.fixture
def example_graph():
    return Graph.from_edges(5, EXAMPLE_EDGES)


@pytest.fixture
def example_edm():
    return require_edm(EXAMPLE_EDM)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
