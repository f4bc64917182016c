"""Numerical laboratory for positive solutions of Choquard equations with
combined nonlocal-power and local-power nonlinearities."""

__version__ = "0.1.0"

from .errors import ChoquardLabError
from .grid import RadialField, RadialGrid, integrate, make_grid
from .functional import ProblemParams, energy_breakdown, fiber_profile, nehari_project
from .riesz import convolve, interaction_energy, kernel_value
from .solver import ground_state, normalized_branches, shoot_local_ground_state

__all__ = [
    "ChoquardLabError", "RadialField", "RadialGrid", "integrate", "make_grid",
    "ProblemParams", "energy_breakdown", "fiber_profile", "nehari_project",
    "convolve", "interaction_energy", "kernel_value",
    "ground_state", "normalized_branches", "shoot_local_ground_state",
    "__version__",
]
