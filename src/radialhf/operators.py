"""Discrete Fock operators on the radial grid.

Matrices here are the *symmetrized* representations: for a grid with
quadrature weights ``w`` the operator matrix is ``B = W^{-1/2} A W^{-1/2}``
where ``A`` is the (Euclidean-symmetric) bilinear-form matrix and
``W = diag(w)``.  Eigenvectors ``u`` of ``B`` with Euclidean norm 1 map
to grid functions ``f = u / sqrt(w)`` with quadrature norm 1, and

    ``(sqrt(w) f)^T B (sqrt(w) g)  ==  <f| H |g>``

matches the energy module's forms exactly because both sides are built
from the same jump stencil and trapezoidal weights.  On a uniform grid
``B`` is literally the familiar second-difference matrix plus diagonal
potentials (minus the dense exchange part).

Channel structure: :func:`mean_field` reduces the shell orbitals to a
density and per-``(spin, l)`` density matrices; :func:`fock_matrix`
builds ``-d^2 + l(l+1)/r^2 - Z/r + s U - K_l`` from any such field, with
spin factor ``s`` (2 restricted, 1 unrestricted: ``U`` carries both
spins and exchange runs over same-spin shells only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, eigsh

from .configuration import ALPHA, BETA, Configuration
from .grid import RadialFunction, RadialGrid
from .kernels import KernelTable, apply_direct_kernel

__all__ = [
    "EigensolverError",
    "FockMatrix",
    "hydrogenic_matrix",
    "mean_field",
    "fock_matrix",
    "lowest_eigenpairs",
    "DENSE_CUTOFF",
]

# Above this size, dense eigendecomposition gives way to shift-invert
# Lanczos with a Cholesky factorization.
DENSE_CUTOFF = 2500

_RESIDUAL_FACTOR = 1e-10


class EigensolverError(RuntimeError):
    """Eigensolver failed to meet its residual contract."""


@dataclass(frozen=True, eq=False)
class FockMatrix:
    """A symmetric one-channel operator matrix with its context.

    ``matrix`` is ``n x n`` real symmetric in the weighted representation
    described in the module docstring.  ``Z`` is kept because it yields a
    rigorous spectral lower bound ``-Z^2/4`` (up to discretization) used
    to place the shift of the iterative eigensolver.
    """

    grid: RadialGrid
    l: int
    Z: float
    matrix: np.ndarray
    label: str = "fock"

    def bilinear(self, p: RadialFunction, q: RadialFunction):
        """``<p| H |q>`` for two grid functions; complex for complex inputs."""
        if not (p.grid.matches(self.grid) and q.grid.matches(self.grid)):
            raise ValueError("function lives on a different grid")
        sq = np.sqrt(self.grid.weights)
        val = np.conj(sq * p.values) @ self.matrix @ (sq * q.values)
        return complex(val) if np.iscomplexobj(val) else float(val)


def _check_positive_charge(Z: float) -> float:
    if not Z > 0:
        raise ValueError(f"Z must be > 0, got {Z}")
    return float(Z)


def hydrogenic_matrix(grid: RadialGrid, l: int, Z: float) -> FockMatrix:
    """Bare one-electron matrix ``-d^2/dr^2 + l(l+1)/r^2 - Z/r``.

    Eigenvalues approximate ``-Z^2/(4 n^2)`` for ``n >= l + 1`` to
    second order in the spacing.
    """
    Z = _check_positive_charge(Z)
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    n = grid.n
    w = grid.weights
    gaps = grid.spacings
    inv = 1.0 / gaps
    diag = (inv[:-1] + inv[1:]) / w
    off = -inv[1:-1] / np.sqrt(w[:-1] * w[1:])
    mat = np.zeros((n, n))
    idx = np.arange(n)
    mat[idx, idx] = diag + l * (l + 1) / grid.points**2 - Z / grid.points
    mat[idx[:-1], idx[:-1] + 1] = off
    mat[idx[:-1] + 1, idx[:-1]] = off
    return FockMatrix(grid=grid, l=l, Z=Z, matrix=mat, label="hydrogenic")


def mean_field(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    drop: int | None = None,
) -> tuple[np.ndarray, dict[tuple[str | None, int], np.ndarray]]:
    """Density ``rho = sum_j c_j |f_j|^2`` and per-channel density matrices.

    ``gammas[(spin, l)] = sum_j c_j u_j u_j^*`` with ``u_j = sqrt(w) f_j``,
    so they are already symmetrized.  ``drop`` leaves shell ``drop`` out,
    giving the mean field of ``config.drop_shell(drop)``.
    """
    if not orbitals or len(orbitals) != config.n_shells:
        raise ValueError(
            f"expected {config.n_shells} orbitals (at least one), got {len(orbitals)}"
        )
    grid = orbitals[0].grid
    sq = np.sqrt(grid.weights)
    rho = np.zeros(grid.n)
    gammas: dict[tuple[str | None, int], np.ndarray] = {}
    for key, shell_idx in config.channels().items():
        kept = [i for i in shell_idx if i != drop]
        if not kept:
            continue
        gamma = 0.0
        for i in kept:
            c = config.shell_weight(i)
            rho += c * np.abs(orbitals[i].values) ** 2
            u = sq * orbitals[i].values
            gamma = gamma + c * np.outer(u, u.conj())
        gammas[key] = gamma
    return rho, gammas


def fock_matrix(
    table: KernelTable,
    config: Configuration,
    key: tuple[str | None, int],
    rho: np.ndarray,
    gammas: Mapping[tuple[str | None, int], np.ndarray],
) -> FockMatrix:
    """Fock matrix of channel ``key = (spin, l)`` in a mean field.

    ``rho`` and ``gammas`` come from :func:`mean_field` or mix such
    fields; exchange takes the density matrices of the channel's spin.
    """
    spin, l = key
    if spin not in ((None,) if config.model == "rhf" else (ALPHA, BETA)):
        raise ValueError(f"channel {key} does not match model {config.model!r}")
    grid = table.grid
    dtype = np.result_type(*gammas.values(), float)
    mat = hydrogenic_matrix(grid, l, config.Z).matrix.astype(dtype, copy=False)
    idx = np.arange(grid.n)
    mat[idx, idx] += config.spin_factor * apply_direct_kernel(grid, rho)
    for (spin_j, l_j), gamma in gammas.items():
        if spin_j == spin:
            mat -= gamma * table.exchange(l, l_j)
    return FockMatrix(grid=grid, l=l, Z=config.Z, matrix=mat, label=spin or "rhf")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    for col in range(vectors.shape[1]):
        j = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[j, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return vectors


def lowest_eigenpairs(
    fock: FockMatrix,
    count: int,
    dense_cutoff: int = DENSE_CUTOFF,
) -> tuple[np.ndarray, list[RadialFunction]]:
    """The ``count`` lowest eigenvalues and eigenfunctions of a Fock matrix.

    Eigenfunctions are returned as grid functions, orthonormal in the
    quadrature inner product; eigenvalues ascend, with degenerate pairs
    ordered by position and their eigenvectors orthonormalized (no
    simplicity assumption).  Below ``dense_cutoff`` a dense symmetric
    solver computes the subset directly; above it, shift-invert Lanczos
    with a Cholesky factorization, shifted safely below the spectrum by
    the ``-Z^2/4`` bound.

    Raises
    ------
    EigensolverError
        If a residual ``|B u - e u|`` exceeds ``1e-10 |B|_inf``.
    """
    n = fock.grid.n
    if not 1 <= count <= n - 2:
        raise ValueError(f"count must be in [1, {n - 2}], got {count}")
    B = fock.matrix
    if n <= dense_cutoff:
        eps, vecs = sla.eigh(B, subset_by_index=(0, count - 1), driver="evr")
    else:
        sigma = -0.25 * fock.Z**2 - 1.0
        shifted = B - sigma * np.eye(n)
        try:
            chol = sla.cho_factor(shifted, lower=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise EigensolverError(
                f"shift {sigma} is not below the spectrum: {exc}"
            ) from exc
        op = LinearOperator(
            (n, n), matvec=lambda x: sla.cho_solve(chol, x, check_finite=False)
        )
        mu, vecs = eigsh(op, k=count, which="LM", v0=np.ones(n))
        eps = sigma + 1.0 / mu
        order = np.argsort(eps)
        eps = eps[order]
        vecs = vecs[:, order]
        # Lanczos orthonormality is only approximate for tight clusters.
        vecs, _ = np.linalg.qr(vecs)

    bound = _RESIDUAL_FACTOR * float(np.linalg.norm(B, np.inf))
    resid = B @ vecs - vecs * eps[np.newaxis, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if worst > bound:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {bound:.3e} "
            f"(n = {n}, count = {count})"
        )
    vecs = _fix_signs(np.array(vecs))
    inv_sqrt_w = 1.0 / np.sqrt(fock.grid.weights)
    funcs = [
        RadialFunction(fock.grid, vecs[:, j] * inv_sqrt_w) for j in range(count)
    ]
    return eps, funcs
