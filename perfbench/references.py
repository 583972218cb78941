"""References the benchmark checks against, computed apart from ``radialhf``.

Nothing here imports the package under test.

* ``HF_LIMIT``: Hartree-Fock limits of the closed-shell atoms, in radial
  units (Hartree / 2).  They are the numerical HF energies tabulated by
  Bunge, Barrientos & Bunge, At. Data Nucl. Data Tables 53, 113 (1993):
  He -2.8616800, Be -14.5730232, Ne -128.5470981 and Ar -526.8175128
  Hartree.
* ``DISCRETISATION_BOUND``: for each (Z, grid) a solve is checked on, the
  largest ``|E - E_HF|`` allowed.  Each is ``|E(n/2) - E(n)|`` on the same
  box: both grid kinds are second order in the mesh width, so
  ``E(n/2) - E(n)`` is about three times the error at ``n``.  The values
  were measured once and are listed with their two energies in the README.
* ``helium_energy``: a helium solver written without the package, on the
  uniform grid ``r_i = i h``, ``h = r_max / (n + 1)``.  Its quadrature and
  stencil are the textbook ones that the package's uniform grid also
  uses, so the two agree to rounding at the same ``n``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

HF_LIMIT = {2: -1.4308400, 4: -7.2865116, 10: -64.2735491, 18: -263.4087564}

# (Z, grid kind, n, r_max) -> allowed |E - E_HF| in radial units.
DISCRETISATION_BOUND = {
    (2, "exponential", 800, 20.0): 5.6e-5,
    (4, "exponential", 800, 30.0): 3.3e-4,
    (10, "exponential", 800, 20.0): 2.7e-3,
    (18, "exponential", 600, 20.0): 2.1e-2,
    (10, "exponential", 600, 30.0): 4.9e-3,
    (4, "exponential", 600, 30.0): 5.8e-4,
    (2, "uniform", 2600, 15.0): 4.2e-5,
}


def _hartree_potential(rho: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """``V_i = h * sum_j rho_j / max(r_i, r_j)`` in O(n)."""
    below = np.concatenate(([0.0], np.cumsum(rho)[:-1])) * h / r
    at_or_above = np.cumsum((rho / r)[::-1])[::-1] * h
    return below + at_or_above


def helium_energy(n: int, r_max: float, max_iter: int = 300) -> float:
    """Restricted HF energy of helium (radial units) on a uniform grid.

    For one doubly occupied s orbital the exchange cancels half the
    direct term, so ``E[f] = 2 |f'|^2 - 4 <f, f/r> + D[f]`` and the
    orbital is the lowest eigenvector of the local operator
    ``-d2/dr2 - 2/r + V[f^2]``.  The mean field is mixed half and half
    until the energy stops changing.
    """
    Z = 2.0
    h = r_max / (n + 1)
    r = h * np.arange(1, n + 1)
    off = np.full(n - 1, -1.0 / h**2)
    f = r * np.exp(-r)
    rho = f**2 / (np.sum(f**2) * h)
    energy = np.inf
    for _ in range(max_iter):
        diag = 2.0 / h**2 - Z / r + _hartree_potential(rho, r, h)
        _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        f = vec[:, 0] / np.sqrt(np.sum(vec[:, 0] ** 2) * h)
        dens = f**2
        padded = np.concatenate(([0.0], f, [0.0]))
        kinetic = np.sum(np.diff(padded) ** 2) / h
        attraction = np.sum(dens / r) * h
        direct = np.sum(dens * _hartree_potential(dens, r, h)) * h
        new = 2.0 * kinetic - 2.0 * Z * attraction + direct
        if abs(new - energy) < 1e-14 * abs(new):
            return float(new)
        energy = new
        rho = 0.5 * (rho + dens)
    raise RuntimeError(f"helium reference did not converge in {max_iter} iterations")


def decreasing_and_concave(zs, energies) -> bool:
    """Whether E(Z) is strictly decreasing and concave at the given points.

    E(Z) is the minimum over states of functions affine in Z, so it is
    concave; its slope is minus the nuclear attraction, so it decreases.
    Concavity on unevenly spaced points means non-increasing slopes of
    the chords between neighbours.
    """
    pts = sorted(zip(zs, energies))
    slopes = [(e1 - e0) / (z1 - z0) for (z0, e0), (z1, e1) in zip(pts, pts[1:])]
    return all(s < 0 for s in slopes) and all(b <= a for a, b in zip(slopes, slopes[1:]))
