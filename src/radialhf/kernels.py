"""Electron-electron interaction kernels on the radial grid.

Two kernels drive everything:

* the direct kernel ``1/max(r, s)``, the monopole electrostatic
  interaction of two shell densities;
* the exchange kernel for angular momenta ``(l, l')``,

  ``U_{l l'}(r, s) = sum_k w2(l, l', k) * min(r,s)^k / max(r,s)^{k+1}``,

  where ``w2`` are the squared 3j coefficients of :mod:`radialhf.angular`
  and ``k`` runs over ``|l-l'| .. l+l'`` in steps of 2.

Key properties (all tested): symmetry in ``(r, s)`` and in ``(l, l')``;
the bounds ``0 <= U_{l l'} <= 1/max(r,s)`` and ``U_{l l} >=
1/((2l+1) max(r,s))``; and positive semi-definiteness of the sampled
kernel matrices.

The independent oracle evaluates the same kernel as the sphere average

    ``U_{l l'}(r, s) = (1/2) Int_{-1}^{1} P_l(t) P_{l'}(t)
                        (r^2 + s^2 - 2 r s t)^{-1/2} dt``

by Gauss-Legendre quadrature.  The substitution ``t = 1 - u^2`` removes
the inverse-square-root endpoint singularity that appears at ``r = s``,
and the panel layout refines around the near-singular scale
``|r - s| / sqrt(2 r s)``.

A :class:`KernelTable` samples the kernels on a grid as dense matrices,
each built on its first access, so a table holds no n x n array until
something asks for one.  Applying a kernel never needs them: each term
``r_<^k / r_>^(k+1)`` is semiseparable, so two prefix sums give the same
product in O(n) per ``k`` (the ``Y^k`` functions of Froese Fischer,
*The Hartree-Fock Method for Atoms*, 1977).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angular import CoefficientTable, legendre_p
from .grid import RadialGrid

__all__ = [
    "QuadratureAccuracyError",
    "u_kernel",
    "oracle_u_kernel",
    "p_kernel",
    "KernelTable",
    "build_kernel_table",
    "apply_direct_kernel",
    "apply_exchange_kernel",
]


class QuadratureAccuracyError(RuntimeError):
    """Oracle quadrature failed to reach the requested tolerance."""


def _check_radii(*vals: float) -> None:
    for v in vals:
        if not v > 0:
            raise ValueError(f"radii must be > 0, got {v}")


def u_kernel(l: int, lp: int, r: float, s: float, table: CoefficientTable) -> float:
    """Exchange kernel ``U_{l l'}(r, s)`` from the coefficient table.

    Parameters
    ----------
    l, lp : int
        Angular momenta of the two orbitals being exchanged.
    r, s : float
        Radii, both ``> 0``.
    table : CoefficientTable
        Must cover ``max(l, lp)``.

    Returns
    -------
    float
        Kernel value in ``(0, 1/max(r, s)]``.
    """
    _check_radii(r, s)
    lo, hi = (r, s) if r <= s else (s, r)
    ratio = lo / hi
    acc = 0.0
    power = ratio ** abs(l - lp)
    ratio2 = ratio * ratio
    for k in range(abs(l - lp), l + lp + 1, 2):
        acc += table.coeff(l, lp, k) * power
        power *= ratio2
    return acc / hi


def p_kernel(l: int, r: float, s: float, table: CoefficientTable) -> float:
    """Same-shell repulsion kernel ``(2l+1) (2/max(r,s) - U_{l l}(r, s))``.

    Bounded between ``(2l+1)/max(r,s)`` and ``(4l+1)/max(r,s)``.
    """
    _check_radii(r, s)
    return (2 * l + 1) * (2.0 / max(r, s) - u_kernel(l, l, r, s, table))


def _panel_gauss(fn, a: float, b: float, nodes: np.ndarray, wts: np.ndarray) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(wts @ fn(mid + half * nodes))


def oracle_u_kernel(
    l: int,
    lp: int,
    r: float,
    s: float,
    order: int = 96,
    tol: float | None = None,
) -> float:
    """Quadrature oracle for the exchange kernel (independent route).

    Integrates the sphere-averaged Coulomb interaction directly, without
    any 3j input.  The doubled rule, with ``2 * order`` nodes per panel,
    gives the returned value; only when ``tol`` is given is the rule with
    ``order`` nodes run as well, its difference from the doubled rule
    being the error estimate.

    Parameters
    ----------
    l, lp : int
        Angular momenta.
    r, s : float
        Radii, ``> 0``.
    order : int, optional
        Gauss-Legendre nodes per panel.
    tol : float, optional
        When given, raise :class:`QuadratureAccuracyError` if the error
        estimate exceeds it.

    Raises
    ------
    QuadratureAccuracyError
        Error estimate above ``tol``.
    ValueError
        Non-positive radii or order.
    """
    _check_radii(r, s)
    if order < 4:
        raise ValueError(f"order must be >= 4, got {order}")
    gap2 = (r - s) ** 2
    two_rs = 2.0 * r * s

    def integrand(u: np.ndarray) -> np.ndarray:
        t = 1.0 - u * u
        return (
            u
            * legendre_p(l, t)
            * legendre_p(lp, t)
            / np.sqrt(gap2 + two_rs * u * u)
        )

    top = np.sqrt(2.0)
    c = abs(r - s) / np.sqrt(two_rs)
    breaks = [0.0]
    b = c
    while 0.0 < b < top:
        breaks.append(b)
        b *= 4.0
    breaks.append(top)

    def run(m: int) -> float:
        nodes, wts = np.polynomial.legendre.leggauss(m)
        return sum(
            _panel_gauss(integrand, a, b, nodes, wts)
            for a, b in zip(breaks[:-1], breaks[1:])
        )

    fine = run(2 * order)
    if tol is not None:
        est = abs(fine - run(order))
        if est > tol:
            raise QuadratureAccuracyError(
                f"oracle_u_kernel(l={l}, lp={lp}, r={r}, s={s}): estimated "
                f"quadrature error {est:.3e} exceeds tolerance {tol:.3e}"
            )
    return fine


# Rows per block when a dense matrix is filled: the block temporaries
# stay near 1 MiB whatever the grid size.
_BLOCK_ELEMENTS = 1 << 17

# Memory budget for all dense matrices of one kernel table.
MAX_TABLE_BYTES = 4 << 30


def _direct_rows(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows of ``1/max(r, s)`` at radii ``rows``."""
    return 1.0 / np.maximum.outer(rows, r)


def _exchange_rows(
    rows: np.ndarray, r: np.ndarray, coeffs: CoefficientTable, l: int, lp: int
) -> np.ndarray:
    """Rows of ``U_{l lp}`` (``l <= lp``) at radii ``rows``, term by term in ``k``."""
    r_hi = np.maximum.outer(rows, r)
    ratio = np.minimum.outer(rows, r) / r_hi
    ratio2 = ratio * ratio
    acc = np.zeros_like(ratio)
    power = ratio ** (lp - l)
    for k in range(lp - l, l + lp + 1, 2):
        acc += coeffs.coeff(l, lp, k) * power
        power = power * ratio2
    return acc * (1.0 / r_hi)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Interaction kernels on a grid, sampled as dense matrices on demand.

    ``direct[i, j] = 1/max(r_i, r_j)`` and ``exchange(l, lp)[i, j] =
    U_{l lp}(r_i, r_j)``.  The table holds only the grid, ``max_l`` and
    the angular ``coeffs`` (which :func:`apply_exchange_kernel` reads);
    each dense matrix is built on its first access, a block of rows at a
    time, and cached, once per unordered pair ``(l, lp)``.  The first
    access checks that the whole table fits in ``MAX_TABLE_BYTES``.
    """

    grid: RadialGrid
    max_l: int
    coeffs: CoefficientTable = field(repr=False)
    _dense: dict[object, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def direct(self) -> np.ndarray:
        """Sampled direct kernel matrix ``1/max(r, s)``."""
        return self._matrix("direct")

    def exchange(self, l: int, lp: int) -> np.ndarray:
        """Sampled exchange kernel matrix ``U_{l lp}``."""
        if not (0 <= l <= self.max_l and 0 <= lp <= self.max_l):
            raise ValueError(
                f"kernel table built for l <= {self.max_l}, requested "
                f"(l={l}, lp={lp})"
            )
        key = (l, lp) if l <= lp else (lp, l)
        return self._matrix(key)

    def _matrix(self, key) -> np.ndarray:
        try:
            return self._dense[key]
        except KeyError:
            pass
        n = self.grid.n
        n_pairs = (self.max_l + 1) * (self.max_l + 2) // 2
        required = (n_pairs + 1) * n * n * 8
        if required > MAX_TABLE_BYTES:
            raise MemoryError(
                f"kernel table for n = {n}, max_l = {self.max_l} requires "
                f"{required} bytes ({required / 2**30:.2f} GiB), over the "
                f"budget of {MAX_TABLE_BYTES} bytes"
            )
        r = self.grid.points
        mat = np.empty((n, n))
        step = max(1, _BLOCK_ELEMENTS // n)
        for i in range(0, n, step):
            rows = r[i : i + step]
            mat[i : i + step] = (
                _direct_rows(rows, r)
                if key == "direct"
                else _exchange_rows(rows, r, self.coeffs, *key)
            )
        self._dense[key] = mat
        return mat


def build_kernel_table(
    grid: RadialGrid, coeffs: CoefficientTable, max_l: int | None = None
) -> KernelTable:
    """Kernel table for a grid; its dense matrices are built on access.

    Parameters
    ----------
    grid : RadialGrid
    coeffs : CoefficientTable
        Angular coefficients; must cover ``max_l``.
    max_l : int, optional
        Largest angular momentum needed (default: ``coeffs.max_l``).

    Raises
    ------
    ValueError
        If ``max_l`` exceeds the coefficient table's range, or if a
        multipole power ``r**(k+1)``, ``k <= 2 max_l``, overflows or
        underflows to zero at either end of the grid.
    """
    if max_l is None:
        max_l = coeffs.max_l
    if max_l > coeffs.max_l:
        raise ValueError(
            f"coefficient table covers l <= {coeffs.max_l}, requested {max_l}"
        )
    # The highest power is the first to overflow (r > 1) or underflow (r < 1).
    with np.errstate(over="ignore", under="ignore"):
        powers = grid.points[[0, -1]] ** (2 * max_l + 1)
    if not np.all(np.isfinite(powers) & (powers > 0)):
        raise ValueError(
            f"grid with r_max = {grid.r_max} is out of range for the kernels "
            f"with max_l = {max_l}: r**(k+1) overflows or underflows for a "
            f"k <= {2 * max_l}"
        )
    return KernelTable(grid=grid, max_l=max_l, coeffs=coeffs)


def _apply_multipole(r: np.ndarray, k: int, y: np.ndarray) -> np.ndarray:
    """``sum_j r_<^k / r_>^(k+1) y_j`` along axis 0, in O(n) per column.

    Terms with ``r_j <= r_i`` give ``r_i^-(k+1) cumsum(r^k y)``; terms
    with ``r_j > r_i`` give ``r_i^k`` times the strict reverse cumsum
    of ``r^-(k+1) y``.
    """
    shape = (-1,) + (1,) * (y.ndim - 1)
    p = (r**k).reshape(shape)
    s = (r ** (k + 1)).reshape(shape)
    tail = np.cumsum((y / s)[::-1], axis=0)[::-1]
    outside = np.zeros_like(tail)
    outside[:-1] = tail[1:]
    return np.cumsum(p * y, axis=0) / s + p * outside


def apply_direct_kernel(grid: RadialGrid, density: np.ndarray) -> np.ndarray:
    """Electrostatic potential of a radial density in O(n).

    Computes ``V(r_i) = sum_j w_j rho(r_j) / max(r_i, r_j)`` — the same
    trapezoidal sum as a dense ``direct`` matrix-vector product — via two
    cumulative sums: the charge enclosed below ``r_i`` divided by ``r_i``
    plus the ``1/s``-weighted charge above.  A complex density (such as
    an overlap density ``conj(f) g``) gives a complex potential.
    """
    density = np.asarray(density)
    if density.shape != (grid.n,):
        raise ValueError(
            f"density shape {density.shape} does not match grid n = {grid.n}"
        )
    return _apply_multipole(grid.points, 0, grid.weights * density)


def apply_exchange_kernel(
    table: KernelTable, l: int, lp: int, y: np.ndarray
) -> np.ndarray:
    """``table.exchange(l, lp) @ y`` in O(n k) without the dense matrix.

    ``y`` is a vector or a block of columns (axis 0 runs over the grid),
    real or complex.
    """
    if max(l, lp) > table.max_l:
        raise ValueError(
            f"kernel table built for l <= {table.max_l}, requested (l={l}, lp={lp})"
        )
    y = np.asarray(y)
    if y.shape[0] != table.grid.n:
        raise ValueError(
            f"input shape {y.shape} does not match grid n = {table.grid.n}"
        )
    r = table.grid.points
    out = 0.0
    for k in table.coeffs.k_range(l, lp):
        out = out + table.coeffs.coeff(l, lp, k) * _apply_multipole(r, k, y)
    return out
