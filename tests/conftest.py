"""Session fixtures: shared grids, kernel tables, and converged states.

The expensive self-consistent solves are session-scoped so the unit
tests, behavior tests, and the acceptance suite all share one solve per
physical scenario; where ``radialhf validate`` runs the same scenario,
the fixture takes its solve from the catalogue's :func:`solved`.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from radialhf import (
    Configuration,
    RadialFunction,
    ScfState,
    ShellSpec,
    build_coefficient_table,
    build_kernel_table,
    hydrogenic_matrix,
    lowest_eigenpairs,
    make_grid,
    solve,
    total_energy,
)
from radialhf.validate import solved


# ---------------------------------------------------------------------------
# Small shared grids and tables (cheap, reused across unit tests)


@pytest.fixture(scope="session")
def coeffs4():
    return build_coefficient_table(4)


@pytest.fixture(scope="session")
def grid400():
    return make_grid("uniform", 400, 20.0)


@pytest.fixture(scope="session")
def table400(grid400, coeffs4):
    return build_kernel_table(grid400, coeffs4)


@pytest.fixture(scope="session")
def grid300():
    return make_grid("uniform", 300, 12.0)


@pytest.fixture(scope="session")
def table300(grid300):
    return build_kernel_table(grid300, build_coefficient_table(2))


# ---------------------------------------------------------------------------
# Converged self-consistent states


@pytest.fixture(scope="session")
def he_config():
    return Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))


@pytest.fixture(scope="session")
def he_grid():
    return make_grid("uniform", 2000, 15.0)


@pytest.fixture(scope="session")
def he_table(he_grid):
    return build_kernel_table(he_grid, build_coefficient_table(0))


@pytest.fixture(scope="session")
def he_timing():
    return {}


@pytest.fixture(scope="session")
def he_state(he_timing):
    start = time.perf_counter()
    state, _ = solved(2.0, (ShellSpec(0),), 2000, 15.0)
    he_timing["solve_seconds"] = time.perf_counter() - start
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def he3000_state():
    state, _ = solved(2.0, (ShellSpec(0),), 3000, 15.0)
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def he_wide_grid():
    return make_grid("uniform", 1200, 100.0)


@pytest.fixture(scope="session")
def he_wide_table(he_wide_grid):
    return build_kernel_table(he_wide_grid, build_coefficient_table(0))


@pytest.fixture(scope="session")
def he_wide_state():
    state, _ = solved(2.0, (ShellSpec(0),), 1200, 100.0)
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def depleted_state(he_config, he_wide_grid, he_wide_table):
    """Hand-built non-minimizing state: helium shell at half its mass.

    Norm squared 0.5 with Z = 2 > N - 2(2l+1) = 0, the regime where a
    depleted shell cannot be optimal; the probe tests look for the
    negative second-order direction that witnesses this.
    """
    eps, funcs = lowest_eigenpairs(hydrogenic_matrix(he_wide_grid, 0, 2.0), 1)
    f = RadialFunction(he_wide_grid, funcs[0].values / math.sqrt(2.0))
    return ScfState(
        config=he_config,
        grid=he_wide_grid,
        orbitals=(f,),
        eigenvalues=np.array([float(eps[0])]),
        residuals=np.zeros(1),
        breakdown=total_energy(he_config, [f], he_wide_table),
        energy_trace=(0.0,),
        iterations=0,
        message="depleted fixture",
        rejections=0,
    )


@pytest.fixture(scope="session")
def ne_config():
    return Configuration(
        Z=10.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )


@pytest.fixture(scope="session")
def ne_state(ne_config):
    state, _ = solved(ne_config.Z, ne_config.shells, 1500, 12.0)
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def ne_wide_grid():
    return make_grid("uniform", 1200, 40.0)


@pytest.fixture(scope="session")
def ne_wide_table(ne_wide_grid):
    return build_kernel_table(ne_wide_grid, build_coefficient_table(1))


@pytest.fixture(scope="session")
def ne_wide_state(ne_config, ne_wide_grid, ne_wide_table):
    state = solve(ne_config, ne_wide_grid, ne_wide_table)
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def hminus_state():
    state, _ = solved(1.0, (ShellSpec(0),), 2000, 60.0)
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def fminus_state():
    config = Configuration(
        Z=9.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    state = solve(config, make_grid("uniform", 1500, 20.0))
    assert state.converged, state.message
    return state


@pytest.fixture(scope="session")
def z3_setup():
    """Spinless (single spin channel) UHF lithium-like ion, Z = 3, N = 4."""
    state, table = solved(3.0, (ShellSpec(0, "alpha"), ShellSpec(1, "alpha")), 1600, 40.0)
    assert state.converged, state.message
    return state, table
