"""Independent reference value for the helium ground-state energy.

This script computes the restricted mean-field ground state of helium
without importing the package under test.  It uses the textbook
formulation for a doubly occupied s orbital: after the same-shell
exchange term cancels half of the direct term, the energy of a single
normalized radial function f is

    E[f] = 2 ||f'||^2 - 2 Z <f, f/r> + D[f],
    D[f] = integral of f(r)^2 f(s)^2 / max(r, s) dr ds,

and the stationary condition is the local eigenproblem

    -f'' - (Z/r) f + V(r) f = eps f,
    V(r) = integral of f(s)^2 / max(r, s) ds.

Everything here is deliberately primitive: rectangle-rule quadrature,
a plain three-point Laplacian, and `scipy.linalg.eigh_tridiagonal`.
None of the package's assembly code is involved, so agreement between
the two is evidence, not tautology.

Run as a script to print the extrapolated energy that the check
catalogue freezes as ``radialhf.validate.HELIUM_ORACLE_ENERGY``:

    python3 tests/oracle_helium.py
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

Z = 2.0
R_MAX = 15.0


def mean_field_potential(rho: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """V(r) = integral rho(s) / max(r, s) ds via prefix sums."""
    inner = np.cumsum(rho) * h  # integral of rho over s <= r
    outer_tail = np.cumsum((rho / r)[::-1])[::-1] * h  # integral of rho/s over s >= r
    return inner / r - rho * h / r + outer_tail


def solve_helium(n: int) -> tuple[float, float]:
    h = R_MAX / (n + 1)
    r = h * np.arange(1, n + 1)
    kin_diag = 2.0 / h**2
    kin_off = np.full(n - 1, -1.0 / h**2)

    # hydrogenic start: f ~ r e^{-Z r / 2} (paper-units ground state)
    f = r * np.exp(-0.5 * Z * r)
    f /= np.sqrt(np.sum(f**2) * h)
    rho = f**2

    energy, level = np.inf, np.inf
    for _ in range(200):
        pot = mean_field_potential(rho, r, h)
        diag = kin_diag - Z / r + pot
        val, vec = eigh_tridiagonal(diag, kin_off, select="i", select_range=(0, 0))
        f = vec[:, 0] / np.sqrt(h)
        f /= np.sqrt(np.sum(f**2) * h)
        new_rho = 0.5 * rho + 0.5 * f**2

        edges = np.concatenate(([0.0], f, [0.0]))
        kinetic = np.sum(np.diff(edges) ** 2) / h
        attraction = np.sum(f**2 / r) * h
        direct = np.sum(f**2 * mean_field_potential(f**2, r, h)) * h
        new_energy = 2.0 * kinetic - 2.0 * Z * attraction + direct
        done = abs(new_energy - energy) < 1e-13 * (1.0 + abs(new_energy))
        energy, level = new_energy, float(val[0])
        rho = new_rho
        if done:
            break
    return energy, level


def extrapolated() -> tuple[float, float]:
    e1, l1 = solve_helium(6000)
    e2, l2 = solve_helium(12000)
    # Richardson, O(h^2) scheme
    return e2 + (e2 - e1) / 3.0, l2 + (l2 - l1) / 3.0


if __name__ == "__main__":
    e1, l1 = solve_helium(6000)
    e2, l2 = solve_helium(12000)
    e_lim, l_lim = extrapolated()
    print(f"n=6000 : E = {e1:.10f}   eps = {l1:.10f}")
    print(f"n=12000: E = {e2:.10f}   eps = {l2:.10f}")
    print(f"limit  : E = {e_lim:.10f}   eps = {l_lim:.10f}")
