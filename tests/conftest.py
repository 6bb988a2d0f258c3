import pytest

import eusearch.minimin as minimin
from eusearch.puzzle import goal_state
from oracles import bfs_distances


@pytest.fixture(scope="session")
def distances3():
    """True distance of every 3x3 state to the default goal, by BFS."""
    return bfs_distances(goal_state(3))


@pytest.fixture
def policy_builds(monkeypatch):
    """(value table rows, level) of each policy table built while the test runs."""
    builds = []
    build = minimin._policy_table

    def spy(rows, h, level):
        builds.append((rows, level))
        return build(rows, h, level)

    monkeypatch.setattr(minimin, "_policy_table", spy)
    return builds
