"""Radial grids, quadrature, and the discrete kinetic form.

The half-line ``(0, r_max)`` is sampled at interior points ``r_1 < ... <
r_n`` with Dirichlet boundary values pinned to zero at ``r_0 = 0`` and
``r_{n+1} = r_max``.  Two grid kinds are supported:

* ``uniform``: ``r_i = i h`` with ``h = r_max / (n + 1)``;
* ``exponential``: ``r(x) = r_max (e^{g x} - 1)/(e^g - 1)`` on a uniform
  ``x`` lattice, clustering points near the origin.

Quadrature is the trapezoidal rule on the extended grid with the zero
boundary values included, which for a uniform grid reduces to weight
``h`` at every interior node.

The kinetic term uses the jump form

    ``|f'|^2  ~  sum_j (f_{j+1} - f_j)^2 / (r_{j+1} - r_j)``

over all ``n + 1`` gaps (boundary values zero).  On a uniform grid this
is algebraically identical to the quadratic form of the standard
(-1, 2, -1)/h^2 second-difference matrix, so energies computed here and
eigenvalues of the operator matrices agree exactly; the operator module
builds its matrices from the same jump form.

Energy units follow the convention in which the kinetic term enters as
``|f'|^2`` with no 1/2 and hydrogenic levels sit at ``-Z^2/(4 n^2)``;
multiply by 2 for Hartree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "make_grid",
    "inner",
    "norm",
    "integrate",
    "radial_expectation",
    "coulomb_expectation",
    "derivative_sq_norm",
    "kinetic_bilinear",
    "kinetic_quadratic_form",
]

_GRID_KINDS = ("uniform", "exponential")


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Immutable radial grid.

    Attributes
    ----------
    kind : str
        ``"uniform"`` or ``"exponential"``.
    n : int
        Number of interior points.
    r_max : float
        Right endpoint (Dirichlet wall).
    points : numpy.ndarray
        Interior nodes ``r_1..r_n``, strictly increasing, excluding 0 and
        ``r_max``.
    weights : numpy.ndarray
        Trapezoidal quadrature weights, all positive.
    spacings : numpy.ndarray
        The ``n + 1`` gaps ``r_{j+1} - r_j`` including both boundary gaps.
    gamma : float or None
        Stretching parameter of an exponential grid; ``None`` for
        uniform grids.
    """

    kind: str
    n: int
    r_max: float
    points: np.ndarray
    weights: np.ndarray
    spacings: np.ndarray
    gamma: float | None = None

    def matches(self, other: "RadialGrid") -> bool:
        """True when the two grids hold the same nodes."""
        if self is other:
            return True
        return (
            self.kind == other.kind
            and self.n == other.n
            and self.r_max == other.r_max
            and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """Values of a reduced radial function on a grid.

    The stored values are samples at the interior nodes; the function is
    implicitly zero at ``r = 0`` and ``r = r_max``.  Real input is kept
    as float64, complex input as complex128.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with "
                f"n = {self.grid.n}"
            )
        dtype = np.complex128 if np.iscomplexobj(vals) else np.float64
        object.__setattr__(self, "values", np.ascontiguousarray(vals, dtype=dtype))

    def norm(self) -> float:
        """L2 norm with respect to the grid quadrature."""
        return norm(self)


def make_grid(kind: str, n: int, r_max: float, gamma: float = 6.0) -> RadialGrid:
    """Build a radial grid.

    Parameters
    ----------
    kind : str
        ``"uniform"`` or ``"exponential"``.
    n : int
        Number of interior points, ``n >= 2``.
    r_max : float
        Extent of the computational box, ``> 0``.
    gamma : float, optional
        Stretching strength of the exponential map (ignored for uniform
        grids), ``> 0``.

    Returns
    -------
    RadialGrid

    Raises
    ------
    ValueError
        On an unknown kind or non-positive sizes, or when the points, the
        weights, the kinetic stencil ``1/(h w)`` or its stiffness
        ``(n^2 max stencil)^2`` overflow or underflow to a non-finite
        value (such as ``r_max = 1e-300``, or ``1e-100`` at ``n = 50``).
    """
    if kind not in _GRID_KINDS:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {_GRID_KINDS}")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not r_max > 0:
        raise ValueError(f"r_max must be > 0, got {r_max}")
    n = int(n)
    r_max = float(r_max)
    if kind == "exponential" and not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if kind == "uniform":
            points = r_max / (n + 1) * np.arange(1, n + 1, dtype=float)
        else:
            x = np.arange(1, n + 1, dtype=float) / (n + 1)
            points = r_max * np.expm1(gamma * x) / np.expm1(gamma)
        extended = np.concatenate(([0.0], points, [r_max]))
        spacings = np.diff(extended)
        weights = 0.5 * (extended[2:] - extended[:-2])
        stencil = (1.0 / spacings[:-1] + 1.0 / spacings[1:]) / weights
        # LAPACK's tridiagonal eigensolver squares the stencil, and its
        # inverse iteration grows vectors of that size by a further power
        # of n: on uniform and exponential grids with n = 50 to 2600 its
        # eigenvectors turned NaN where (n^2 stencil)^2 reached 1e311 to
        # 1e315, so refusing grids on which that square overflows leaves
        # a margin.
        stiffness = (n * n * np.max(stencil)) ** 2
    if not all(np.all(np.isfinite(v)) for v in (points, weights, stiffness)):
        raise ValueError(
            f"{kind} grid with n = {n}, r_max = {r_max}"
            + (f", gamma = {gamma}" if kind == "exponential" else "")
            + " has non-finite points, weights, kinetic stencil or (n^2 stencil)^2"
        )
    return RadialGrid(
        kind=kind,
        n=n,
        r_max=r_max,
        points=points,
        weights=weights,
        spacings=spacings,
        gamma=float(gamma) if kind == "exponential" else None,
    )


def _check_same_grid(f: RadialFunction, g: RadialFunction) -> RadialGrid:
    if not f.grid.matches(g.grid):
        raise ValueError(
            "radial functions live on different grids "
            f"(n={f.grid.n}, r_max={f.grid.r_max} vs "
            f"n={g.grid.n}, r_max={g.grid.r_max})"
        )
    return f.grid


def inner(f: RadialFunction, g: RadialFunction):
    """Quadrature inner product ``<f, g> = Int conj(f) g dr``.

    Returns a float for real inputs, complex otherwise.  Raises
    ``ValueError`` when the functions live on different grids.
    """
    gr = _check_same_grid(f, g)
    val = np.sum(gr.weights * np.conj(f.values) * g.values)
    return complex(val) if np.iscomplexobj(val) else float(val)


def norm(f: RadialFunction) -> float:
    """Quadrature L2 norm of ``f``."""
    return float(np.sqrt(np.sum(f.grid.weights * np.abs(f.values) ** 2)))


def integrate(grid: RadialGrid, values: np.ndarray) -> float:
    """Trapezoidal integral of samples over ``(0, r_max)``.

    The integrand is assumed to vanish at both endpoints; for functions
    that do not, the missing boundary panels contribute an O(h) error.
    """
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {values.shape}")
    return float(np.sum(grid.weights * values))


def radial_expectation(f: RadialFunction, potential: np.ndarray) -> float:
    """``<f, V f>`` for a multiplication operator ``V`` given by samples."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (f.grid.n,):
        raise ValueError(
            f"potential shape {potential.shape} does not match grid n = {f.grid.n}"
        )
    return float(np.sum(f.grid.weights * np.abs(f.values) ** 2 * potential))


def coulomb_expectation(f: RadialFunction) -> float:
    """Nuclear-attraction expectation ``<f, r^{-1} f>`` (positive)."""
    return radial_expectation(f, 1.0 / f.grid.points)


def derivative_sq_norm(f: RadialFunction) -> float:
    """Discrete ``|f'|^2`` as the sum of squared jumps over the gaps.

    Includes the jumps from the zero boundary values at ``0`` and
    ``r_max``, so the form is exactly the quadratic form of the operator
    module's second-difference matrix.
    """
    return _jump_form(f.grid, f.values, f.values).real


def _jump_form(grid: RadialGrid, p: np.ndarray, q: np.ndarray):
    """Bilinear jump form ``sum_j conj(dp_j) dq_j / spacing_j``."""
    dp = np.diff(p, prepend=0.0, append=0.0)
    dq = np.diff(q, prepend=0.0, append=0.0)
    return np.sum(np.conj(dp) * dq / grid.spacings)


def kinetic_bilinear(f: RadialFunction, g: RadialFunction, l: int):
    """Bilinear kinetic-plus-centrifugal form ``<f, (-d^2/dr^2 + l(l+1)/r^2) g>``.

    Evaluated through the jump form so it matches the operator matrices
    exactly.  Returns complex for complex inputs.
    """
    gr = _check_same_grid(f, g)
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    val = _jump_form(gr, f.values, g.values)
    if l:
        val = val + l * (l + 1) * np.sum(
            gr.weights * np.conj(f.values) * g.values / gr.points**2
        )
    return complex(val) if np.iscomplexobj(val) else float(val)


def kinetic_quadratic_form(f: RadialFunction, l: int) -> float:
    """``|f'|^2 + l(l+1) <f, r^{-2} f>``, the radial kinetic energy."""
    val = kinetic_bilinear(f, f, l)
    return val.real if isinstance(val, complex) else val
