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
potentials (minus the exchange part).

Channel structure: :func:`mean_field` reduces the shell orbitals to a
density and per-``(spin, l)`` density matrices, each kept as factors
``(V, c)`` with ``Gamma = V diag(c) V^H``; :func:`fock_matrix` builds
``-d^2 + l(l+1)/r^2 - Z/r + s U - K_l`` from any such field, with spin
factor ``s`` (2 restricted, 1 unrestricted: ``U`` carries both spins and
exchange runs over same-spin shells only).

A :class:`FockMatrix` never stores ``B``: it keeps the tridiagonal local
part and the exchange factors, and :meth:`FockMatrix.apply` multiplies
by ``B`` in O(n) per factor column through the semiseparable kernel
apply of :mod:`radialhf.kernels`.  :func:`lowest_eigenpairs` runs one
preconditioned LOBPCG for every operator with exchange; the dense
cutoff only selects how it applies ``B``: as one product with the dense
matrix at or below it, through ``apply`` above it.  A solve is
strict by default: each pair converges to the rounding scale of the
product with the tridiagonal part.  Given a warm start and a
``reduction``, it is inexact: each pair may stop once its residual has
fallen by that factor from its start vector's.  The self-consistent loop
asks for inexact solves, since its iterates need not be exact
eigenpairs, and for a strict one at the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg as sla

from .configuration import ALPHA, BETA, Configuration
from .grid import RadialFunction, RadialGrid
from .kernels import KernelTable, apply_direct_kernel, apply_exchange_kernel

__all__ = [
    "EigensolverError",
    "FockMatrix",
    "hydrogenic_matrix",
    "mean_field",
    "fock_matrix",
    "lowest_eigenpairs",
    "DENSE_CUTOFF",
]

# Above this size LOBPCG applies the matrix-free operator instead of
# the dense matrix.
DENSE_CUTOFF = 2500

# A returned pair's residual must be below this fraction of ||T| |x||,
# the rounding scale that LOBPCG targets at _LOBPCG_FACTOR.
_RESIDUAL_FACTOR = 1e-10
# LOBPCG stops when each wanted residual is below this fraction of
# ||T| |x||, the scale of the rounding error of the product with the local
# part, so that iterative and dense eigenpairs drive the self-consistent
# loop alike.  |B|_inf is no such scale on exponential grids: there a
# target of 1e-13 |B|_inf (~1e-6 for argon at n = 600) left the solve
# unconverged after 500 iterations.
_LOBPCG_FACTOR = 1e-13
_LOBPCG_MAXITER = 500
# Extra block vectors beyond the wanted pairs.  On Ne, Ar, F- and H- SCF
# runs (uniform and exponential grids) 5 took 0.55x the time of none and
# 0.75x that of 3, with helium at n = 2600 unchanged; the wanted pairs
# converge with none too, only more slowly.
_GUARD = 5
# Relative singular value below which a new search direction counts as
# dependent on the others.
_DEPENDENT = 1e-10
# The preconditioner shift sits max(_SHIFT_MARGIN |l0|, _SHIFT_FLOOR)
# below l0, the lowest eigenvalue of the tridiagonal part.  Over SCF
# solves of Ne (exponential n = 800), Ar (exponential n = 600), Li UHF
# (exponential n = 600) and Ne (uniform n = 3000), LOBPCG took 250, 341,
# 199 and 157 steps in all with this margin; margins from 0.005 to 0.3
# |l0| stayed within 10 % of that, a margin of 0.001 took up to 31 % more
# (Li: 261), max(|l0|, 0.5) up to 35 % more, and the former shift
# -Z^2/4 - 1, far below the spectrum of multi-shell atoms, 605, 765, 313
# and 270.  Iteration and rejection counts were the same for every margin.
_SHIFT_MARGIN = 0.02
_SHIFT_FLOOR = 0.05

# Bytes of kernel input per chunk of the exchange apply, whose prefix
# sums keep about seven arrays of that size alive.  A helium solve at
# uniform n = 2600 passes at most 1.2 MiB (rank 5 times 12 columns), one
# chunk.  At n = 40000 the same block is 9.2 MiB; applied whole it set
# the solve's traced peak at 71 MiB, in chunks of 2 MiB it gives 47 MiB
# (42.5 MiB is set elsewhere) and the solve runs no slower.
_CHUNK_BYTES = 2 * 2**20

# Density-matrix factors (V, c): Gamma = V diag(c) V^H.
Factors = tuple[np.ndarray, np.ndarray]


class EigensolverError(RuntimeError):
    """Eigensolver failed to meet its residual contract."""


def _exchange_apply(
    table: KernelTable, l: int, lp: int, V: np.ndarray, c: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``(Gamma o U_{l lp}) x`` for ``Gamma = V diag(c) V^H`` and a block ``x``.

    The kernel applies to the ``rank * columns`` products ``conj(V) x``,
    taken ``_CHUNK_BYTES`` at a time.
    """
    n, m = x.shape
    rank = V.shape[1]
    dtype = np.result_type(V, x)
    step = max(1, _CHUNK_BYTES // max(n * rank * dtype.itemsize, 1))
    out = np.empty((n, m), dtype=dtype)
    for j in range(0, m, step):
        xj = x[:, j : j + step]
        z = (np.conj(V)[:, :, None] * xj[:, None, :]).reshape(n, -1)
        uz = apply_exchange_kernel(table, l, lp, z).reshape(n, rank, -1)
        out[:, j : j + step] = np.einsum("na,a,nam->nm", V, c, uz)
    return out


@dataclass(frozen=True, eq=False)
class FockMatrix:
    """A symmetric one-channel operator in the weighted representation.

    ``B = T - sum_{l'} Gamma_{l'} o U_{l l'}``, where ``T`` is
    tridiagonal (``diag``, ``off``: the kinetic stencil, the centrifugal
    and nuclear terms and the direct potential) and each exchange term
    holds the factors ``(V, c)`` of a density matrix.
    """

    grid: RadialGrid
    l: int
    diag: np.ndarray
    off: np.ndarray
    table: KernelTable | None = None
    exchange: tuple[tuple[int, np.ndarray, np.ndarray], ...] = ()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``B x`` for a vector or a block of columns, real or complex."""
        x = np.asarray(x)
        block = x.reshape(self.grid.n, -1)
        off = self.off[:, None]
        y = self.diag[:, None] * block
        y[:-1] += off * block[1:]
        y[1:] += off * block[:-1]
        for lp, V, c in self.exchange:
            y = y - _exchange_apply(self.table, self.l, lp, V, c, block)
        return y.reshape(x.shape)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``n x n`` matrix ``B``, built on each access."""
        n = self.grid.n
        dtype = np.result_type(*(V for _, V, _ in self.exchange), float)
        mat = np.zeros((n, n), dtype=dtype)
        idx = np.arange(n)
        mat[idx, idx] = self.diag
        mat[idx[:-1], idx[:-1] + 1] = self.off
        mat[idx[:-1] + 1, idx[:-1]] = self.off
        for lp, V, c in self.exchange:
            mat -= ((V * c) @ np.conj(V).T) * self.table.exchange(self.l, lp)
        return mat

    def bilinear(self, p: RadialFunction, q: RadialFunction):
        """``<p| H |q>`` for two grid functions; complex for complex inputs."""
        if not (p.grid.matches(self.grid) and q.grid.matches(self.grid)):
            raise ValueError("function lives on a different grid")
        sq = np.sqrt(self.grid.weights)
        val = np.conj(sq * p.values) @ self.apply(sq * q.values)
        return complex(val) if np.iscomplexobj(val) else float(val)


def _check_positive_charge(Z: float) -> float:
    if not Z > 0:
        raise ValueError(f"Z must be > 0, got {Z}")
    return float(Z)


def hydrogenic_matrix(grid: RadialGrid, l: int, Z: float) -> FockMatrix:
    """Bare one-electron operator ``-d^2/dr^2 + l(l+1)/r^2 - Z/r``.

    Eigenvalues approximate ``-Z^2/(4 n^2)`` for ``n >= l + 1`` to
    second order in the spacing.
    """
    Z = _check_positive_charge(Z)
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    w = grid.weights
    inv = 1.0 / grid.spacings
    diag = (inv[:-1] + inv[1:]) / w + l * (l + 1) / grid.points**2 - Z / grid.points
    off = -inv[1:-1] / np.sqrt(w[:-1] * w[1:])
    return FockMatrix(grid=grid, l=l, diag=diag, off=off)


def mean_field(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    drop: int | None = None,
) -> tuple[np.ndarray, dict[tuple[str | None, int], Factors]]:
    """Density ``rho = sum_j c_j |f_j|^2`` and per-channel density matrices.

    ``gammas[(spin, l)] = (V, c)`` factors ``Gamma = sum_j c_j u_j u_j^*
    = V diag(c) V^H`` with columns ``u_j = sqrt(w) f_j``, so the density
    matrices are already symmetrized and never formed.  ``drop`` leaves
    shell ``drop`` out, giving the mean field of
    ``config.drop_shell(drop)``.
    """
    if not orbitals or len(orbitals) != config.n_shells:
        raise ValueError(
            f"expected {config.n_shells} orbitals (at least one), got {len(orbitals)}"
        )
    grid = orbitals[0].grid
    sq = np.sqrt(grid.weights)
    rho = np.zeros(grid.n)
    gammas: dict[tuple[str | None, int], Factors] = {}
    for key, shell_idx in config.channels().items():
        kept = [i for i in shell_idx if i != drop]
        if not kept:
            continue
        for i in kept:
            rho += config.shell_weight(i) * np.abs(orbitals[i].values) ** 2
        gammas[key] = (
            np.column_stack([sq * orbitals[i].values for i in kept]),
            np.array([config.shell_weight(i) for i in kept], dtype=float),
        )
    return rho, gammas


def fock_matrix(
    table: KernelTable,
    config: Configuration,
    key: tuple[str | None, int],
    rho: np.ndarray,
    gammas: Mapping[tuple[str | None, int], Factors],
) -> FockMatrix:
    """Fock operator of channel ``key = (spin, l)`` in a mean field.

    ``rho`` and ``gammas`` come from :func:`mean_field` or mix such
    fields; exchange takes the density matrices of the channel's spin.
    """
    spin, l = key
    if spin not in ((None,) if config.model == "rhf" else (ALPHA, BETA)):
        raise ValueError(f"channel {key} does not match model {config.model!r}")
    bare = hydrogenic_matrix(table.grid, l, config.Z)
    exchange = tuple(
        (l_j, V, c) for (spin_j, l_j), (V, c) in gammas.items() if spin_j == spin
    )
    return FockMatrix(
        grid=table.grid,
        l=l,
        diag=bare.diag + config.spin_factor * apply_direct_kernel(table.grid, rho),
        off=bare.off,
        table=table,
        exchange=exchange,
    )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    for col in range(vectors.shape[1]):
        j = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[j, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return vectors


def _orthonormal_complement(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the part of ``span(Y)`` orthogonal to ``X``.

    ``X`` has orthonormal columns.  Directions that are numerically
    dependent on ``X`` or on each other are dropped.
    """
    for _ in range(2):
        Y = Y - X @ (np.conj(X).T @ Y)
    scale = np.linalg.norm(Y, axis=0)
    Y = Y[:, scale > 0.0] / scale[scale > 0.0]
    if not Y.shape[1]:
        return Y
    U, sv, _ = np.linalg.svd(Y, full_matrices=False)
    U = U[:, sv > _DEPENDENT * sv[0]]
    return U - X @ (np.conj(X).T @ U)


def _rounding_scale(fock: FockMatrix, X: np.ndarray) -> np.ndarray:
    """``||T| |x||`` for each column ``x`` of ``X``: the scale of the rounding
    error of the product with the tridiagonal part ``T``."""
    x = np.abs(X)
    off = np.abs(fock.off)[:, None]
    scale = np.abs(fock.diag)[:, None] * x
    scale[:-1] += off * x[1:]
    scale[1:] += off * x[:-1]
    return np.linalg.norm(scale, axis=0)


def _lobpcg(
    fock: FockMatrix,
    count: int,
    start: np.ndarray | None,
    tol: float | None,
    apply: Callable[[np.ndarray], np.ndarray],
    floor: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest pairs by LOBPCG on ``apply``, a product with ``B``.

    The block carries ``_GUARD`` vectors beyond ``count``, which speed up
    the last wanted pair when the spectrum above it is dense (diffuse or
    unbound levels in a wide box); only the wanted pairs must converge,
    each to ``_LOBPCG_FACTOR`` times the rounding scale ``||T| |x||`` or
    to ``tol``, whichever is smaller, or to its entry of ``floor`` where
    that is larger.  Each step applies the operator to
    the orthonormalized preconditioned residuals and previous directions,
    and a Rayleigh-Ritz step on ``[X, W, P]`` gives the next block.  The
    preconditioner is the tridiagonal part ``T`` shifted just below its
    own lowest eigenvalue.
    """
    n = fock.grid.n
    size = min(count + _GUARD, n)
    lam, X = sla.eigh_tridiagonal(
        fock.diag, fock.off, select="i", select_range=(0, size - 1)
    )
    sigma = lam[0] - max(_SHIFT_MARGIN * abs(lam[0]), _SHIFT_FLOOR)
    banded = np.zeros((2, n))
    banded[0] = fock.diag - sigma
    banded[1, :-1] = fock.off
    try:
        chol = sla.cholesky_banded(banded, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise EigensolverError(
            f"shift {sigma} is not below the spectrum: {exc}"
        ) from exc
    if start is not None:
        X = np.hstack([start, X[:, count:]])
    X = _orthonormal_complement(np.zeros((n, 0)), X)
    BX = apply(X)
    P = np.zeros((n, 0), dtype=X.dtype)
    for _ in range(_LOBPCG_MAXITER):
        theta, C = np.linalg.eigh(np.conj(X).T @ BX)
        X, BX = X @ C, BX @ C
        R = BX - X * theta
        target = _LOBPCG_FACTOR * _rounding_scale(fock, X[:, :count])
        if tol is not None:
            target = np.minimum(target, tol)
        if floor is not None:
            target = np.maximum(target, floor)
        if np.all(np.linalg.norm(R[:, :count], axis=0) <= target):
            break
        W = sla.cho_solve_banded((chol, True), R, check_finite=False)
        Q = _orthonormal_complement(X, np.hstack([W, P]))
        if not Q.shape[1]:
            break  # no new direction: the block cannot improve
        S = np.hstack([X, Q])
        BS = np.hstack([BX, apply(Q)])
        G = np.conj(S).T @ BS
        theta, C = np.linalg.eigh(0.5 * (G + np.conj(G).T))
        C = C[:, :X.shape[1]]
        P = Q @ C[X.shape[1]:]
        X, BX = S @ C, BS @ C
    return theta[:count], X[:, :count]


def lowest_eigenpairs(
    fock: FockMatrix,
    count: int,
    dense_cutoff: int = DENSE_CUTOFF,
    start: Sequence[RadialFunction] | None = None,
    tol: float | None = None,
    reduction: float | None = None,
) -> tuple[np.ndarray, list[RadialFunction]]:
    """The ``count`` lowest eigenvalues and eigenfunctions of a Fock operator.

    Eigenfunctions are returned as grid functions, orthonormal in the
    quadrature inner product; eigenvalues ascend, with degenerate pairs
    ordered by position and their eigenvectors orthonormalized (no
    simplicity assumption).  A tridiagonal operator (no exchange) goes
    to a tridiagonal solver at any size.  Otherwise LOBPCG (Knyazev,
    SIAM J. Sci. Comput. 23, 517, 2001) computes the
    pairs, preconditioned by the tridiagonal part shifted just below its
    lowest eigenvalue and solved in O(n).  ``dense_cutoff`` selects how
    it applies ``B``: at or below it as one product with
    :attr:`FockMatrix.matrix`, built once per call, above it through
    :meth:`FockMatrix.apply` alone.  LOBPCG starts from ``start``
    (``count`` functions, such as the previous iteration's
    eigenfunctions) or else from the tridiagonal part's lowest
    eigenvectors, and stops once each residual is at the rounding scale
    of the product with the tridiagonal part or, when given, below
    ``tol``.  With both ``start`` and ``reduction`` given the solve is
    inexact: pair ``j`` may stop once its residual is below
    ``reduction`` times the residual of start vector ``j`` at its
    Rayleigh quotient, when that floor is looser than the strict target.

    Raises
    ------
    EigensolverError
        If a residual ``|B u - e u|`` is NaN or exceeds both ``1e-10``
        times the rounding scale ``||T| |u||`` of its own vector and, in an
        inexact solve, the pair's floor; or if the shifted tridiagonal part
        is not positive definite.
    """
    n = fock.grid.n
    if not 1 <= count <= n - 2:
        raise ValueError(f"count must be in [1, {n - 2}], got {count}")
    if start is not None and len(start) != count:
        raise ValueError(f"start holds {len(start)} functions, expected {count}")
    sq = np.sqrt(fock.grid.weights)
    floor = None
    if not fock.exchange:
        eps, vecs = sla.eigh_tridiagonal(
            fock.diag, fock.off, select="i", select_range=(0, count - 1)
        )
    else:
        x0 = None if start is None else np.column_stack([sq * f.values for f in start])
        apply = fock.matrix.__matmul__ if n <= dense_cutoff else fock.apply
        if reduction is not None and x0 is not None:
            norms = np.linalg.norm(x0, axis=0)
            u = x0 / np.where(norms > 0.0, norms, 1.0)  # a zero vector: floor 0
            Bu = apply(u)
            rayleigh = np.real(np.sum(np.conj(u) * Bu, axis=0))
            floor = reduction * np.linalg.norm(Bu - u * rayleigh, axis=0)
        eps, vecs = _lobpcg(fock, count, x0, tol, apply, floor)

    resid = np.linalg.norm(fock.apply(vecs) - vecs * eps[np.newaxis, :], axis=0)
    bound = _RESIDUAL_FACTOR * _rounding_scale(fock, vecs)
    if floor is not None:
        bound = np.maximum(bound, floor)
    worst = int(np.argmax(resid / bound))  # a NaN residual is the worst
    if not resid[worst] <= bound[worst]:
        raise EigensolverError(
            f"eigenpair residual {resid[worst]:.3e} exceeds {bound[worst]:.3e} "
            f"(n = {n}, count = {count}, pair {worst})"
        )
    vecs = _fix_signs(np.array(vecs))
    inv_sqrt_w = 1.0 / sq
    funcs = [
        RadialFunction(fock.grid, vecs[:, j] * inv_sqrt_w) for j in range(count)
    ]
    return eps, funcs
