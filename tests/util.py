"""Shared helpers for the test suite: random inputs, references, kernels.

The random orbitals, configurations and bumps, and the dense exchange
energy, are the catalogue's own (:mod:`radialhf.validate`), so the tests
and ``radialhf validate`` draw from one family.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from radialhf import (
    CoefficientTable,
    Configuration,
    FockMatrix,
    KernelTable,
    RadialFunction,
    RadialGrid,
    ShellSpec,
    fock_matrix,
    mean_field,
)
from radialhf.validate import (  # noqa: F401  (re-exported for the tests)
    dense_exchange_energy,
    random_config,
    random_orbital,
    random_orbital_set,
    smooth_bump,
)


def exchange_kernel(
    table: KernelTable,
    l: int,
    shell_ls: list[int],
    orbitals: list[RadialFunction],
) -> np.ndarray:
    """Exchange kernel ``sum_j c_j f_j(r) U_{l l_j}(r,s) f_j(s)`` of restricted shells.

    Read off the Fock matrix: the same operator built without the
    density matrices differs from it by the exchange part alone, in the
    symmetrized representation ``W^(1/2) K W^(1/2)``.
    """
    config = Configuration(
        Z=1.0, model="rhf", shells=tuple(ShellSpec(l_j) for l_j in shell_ls)
    )
    rho, gammas = mean_field(config, orbitals)
    key = (None, l)
    khat = (
        fock_matrix(table, config, key, rho, {}).matrix
        - fock_matrix(table, config, key, rho, gammas).matrix
    )
    sq = np.sqrt(table.grid.weights)
    return khat / np.outer(sq, sq)


def eager_kernel_matrices(
    grid: RadialGrid, coeffs: CoefficientTable, max_l: int
) -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Direct and exchange matrices built whole, all pairs at once.

    The reference arithmetic for the lazy :class:`KernelTable`: every
    element goes through the same operations in the same order.
    """
    r = grid.points
    r_lo = np.minimum.outer(r, r)
    r_hi = np.maximum.outer(r, r)
    direct = 1.0 / r_hi
    ratio = r_lo / r_hi
    ratio2 = ratio * ratio
    exchange = {}
    for l in range(max_l + 1):
        for lp in range(l, max_l + 1):
            acc = np.zeros_like(direct)
            power = ratio ** (lp - l)
            for k in range(lp - l, l + lp + 1, 2):
                acc += coeffs.coeff(l, lp, k) * power
                power = power * ratio2
            exchange[(l, lp)] = acc * direct
    return direct, exchange


def eigh_pairs(fock: FockMatrix, count: int) -> tuple[np.ndarray, list[RadialFunction]]:
    """The ``count`` lowest pairs of ``fock.matrix`` by scipy's dense solver.

    The reference the package's eigensolver is checked against, with the
    same signature as the leading arguments of ``lowest_eigenpairs``;
    eigenvector signs are left as the solver returns them.
    """
    eps, vecs = sla.eigh(fock.matrix, subset_by_index=(0, count - 1))
    inv_sq = 1.0 / np.sqrt(fock.grid.weights)
    return eps, [RadialFunction(fock.grid, vecs[:, j] * inv_sq) for j in range(count)]
