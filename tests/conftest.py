"""Shared fixtures: standard grids and kernel tables are expensive, so they
are built once per session and reused, as are the two local ground states
(one collocation solve each) that several modules read."""

import numpy as np
import pytest

from choquard_lab.grid import make_grid
from choquard_lab.riesz import kernel_table
from choquard_lab.solver import shoot_local_ground_state


@pytest.fixture(scope="session")
def grid3():
    """Workhorse N=3 grid for Riesz/solver tests."""
    return make_grid(3, 60.0, 1200, 2.0)


@pytest.fixture(scope="session")
def grid3_table2(grid3):
    return kernel_table(grid3, 2.0)


@pytest.fixture(scope="session")
def grid3_wide():
    """Large truncation radius for slowly decaying bubble quotients."""
    return make_grid(3, 1000.0, 3000, 3.0)


@pytest.fixture(scope="session")
def q4_ground():
    return shoot_local_ground_state(3, 4.0)


@pytest.fixture(scope="session")
def q3_ground():
    return shoot_local_ground_state(3, 3.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
