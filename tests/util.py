"""Shared helpers for the test suite: random smooth orbitals and bumps."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from radialhf import (
    ALPHA,
    BETA,
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


def smooth_bump(grid: RadialGrid, center: float, width: float) -> np.ndarray:
    """C^inf bump supported on (center - width, center + width), zero at walls."""
    x = (grid.points - center) / width
    vals = np.zeros_like(grid.points)
    mask = np.abs(x) < 1.0
    vals[mask] = np.exp(-1.0 / (1.0 - x[mask] ** 2))
    return vals


def random_orbital(
    rng: np.random.Generator,
    grid: RadialGrid,
    l: int,
    norm_value: float | None = None,
) -> RadialFunction:
    """Smooth random radial function ~ r^(l+1) e^{-a r} with a wobble."""
    a = rng.uniform(0.5, 2.5)
    wobble = 1.0 + 0.3 * rng.standard_normal() * np.tanh(grid.points)
    vals = grid.points ** (l + 1) * np.exp(-a * grid.points) * wobble
    f = RadialFunction(grid, vals)
    if norm_value is None:
        norm_value = rng.uniform(0.3, 1.0)
    return RadialFunction(grid, vals * (norm_value / f.norm()))


def random_config(
    rng: np.random.Generator,
    max_shells: int = 4,
    max_l: int = 2,
    model: str = "rhf",
    Z: float | None = None,
) -> Configuration:
    n_shells = int(rng.integers(1, max_shells + 1))
    shells = tuple(ShellSpec(int(rng.integers(0, max_l + 1))) for _ in range(n_shells))
    if Z is None:
        Z = float(rng.uniform(1.0, 10.0))
    return Configuration(Z=Z, model=model, shells=shells)


def random_orbital_set(
    rng: np.random.Generator,
    grid: RadialGrid,
    config: Configuration,
    norm_value: float | None = None,
) -> list[RadialFunction]:
    return [
        random_orbital(rng, grid, sh.l, norm_value=norm_value)
        for sh in config.shells
    ]


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


def dense_exchange_energy(
    config: Configuration, orbitals: list[RadialFunction], table: KernelTable
) -> float:
    """Exchange energy from the dense kernel matrices.

    ``(s/2) sum_{j,k same spin} c_j c_k a U_{l_j l_k} conj(a)`` with
    ``a = w conj(f_j) f_k``, one matrix product per ordered pair.
    """
    w = table.grid.weights
    pairs = 0.0
    for spin in (None, ALPHA, BETA):
        idx = [j for j, sh in enumerate(config.shells) if sh.spin == spin]
        for j in idx:
            for k in idx:
                a = w * np.conj(orbitals[j].values) * orbitals[k].values
                u = table.exchange(config.shells[j].l, config.shells[k].l)
                pairs += (
                    config.shell_weight(j)
                    * config.shell_weight(k)
                    * float(np.real(a @ u @ np.conj(a)))
                )
    return 0.5 * config.spin_factor * pairs


def eigh_pairs(fock: FockMatrix, count: int) -> tuple[np.ndarray, list[RadialFunction]]:
    """The ``count`` lowest pairs of ``fock.matrix`` by scipy's dense solver.

    The reference the package's eigensolver is checked against, with the
    same signature as the leading arguments of ``lowest_eigenpairs``;
    eigenvector signs are left as the solver returns them.
    """
    eps, vecs = sla.eigh(fock.matrix, subset_by_index=(0, count - 1))
    inv_sq = 1.0 / np.sqrt(fock.grid.weights)
    return eps, [RadialFunction(fock.grid, vecs[:, j] * inv_sq) for j in range(count)]
