import pytest

from eusearch.puzzle import goal_state
from oracles import bfs_distances


@pytest.fixture(scope="session")
def distances3():
    """True distance of every 3x3 state to the default goal, by BFS."""
    return bfs_distances(goal_state(3))
