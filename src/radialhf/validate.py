"""The catalogue of named self-checks wiring the numerical claims to evidence.

Every check is one function registered under its name, its level and
its tolerance.  It returns the measured error and a note, and passes
when the error is at most the tolerance.  A condition that either holds
or not (a solve converges, a flag is set) counts as an error of 0 or
infinity.  ``radialhf validate`` runs the catalogue, and the test suite
runs every entry at both levels.

Each check is independent of the code path it validates wherever that
is possible: kernel coefficients are compared against direct Legendre
quadrature, energies against closed forms of analytic trial orbitals,
eigenvalues against exact hydrogenic levels, bounds against sampled
random functions.  The ``"quick"`` level covers the algebra and
operator layers in seconds; ``"full"`` adds the self-consistent
scenarios (helium, hydride, neon, the spin-polarized negative ion) and
the far-field probes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .angular import (
    CoefficientTable,
    build_coefficient_table,
    legendre_p,
    legendre_triple_product,
    wigner3j_zero_squared,
)
from .configuration import ALPHA, BETA, Configuration, ShellSpec
from .energy import (
    decompose_shell,
    first_order_coefficient,
    lower_bound,
    rhf_energy,
    second_order_coefficient,
    total_energy,
    uhf_energy,
)
from .grid import (
    RadialFunction,
    RadialGrid,
    coulomb_expectation,
    derivative_sq_norm,
    inner,
    integrate,
    kinetic_quadratic_form,
    make_grid,
    radial_expectation,
)
from .kernels import (
    KernelTable,
    apply_direct_kernel,
    apply_exchange_kernel,
    build_kernel_table,
    oracle_u_kernel,
    p_kernel,
    u_kernel,
)
from .operators import _lobpcg, fock_matrix, hydrogenic_matrix, lowest_eigenpairs, mean_field
from .scf import (
    ScfState,
    corollary_inequalities,
    make_bump,
    occupy,
    probe_shell,
    solve,
    theorem_report,
)

__all__ = ["CATALOGUE", "LEVELS", "Check", "CheckResult", "catalogue", "run_checks"]

LEVELS = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    """The measured error of one check against its bound."""

    name: str
    error: float
    bound: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.error <= self.bound

    @property
    def detail(self) -> str:
        text = f"error {self.error:.3e} (tol {self.bound:.1e})"
        return f"{text}; {self.note}" if self.note else text


@dataclass(frozen=True)
class Check:
    """A named check: ``func(**inputs)`` returns ``(error, note)``."""

    name: str
    level: str
    tol: float
    func: Callable[..., tuple[float, str]]

    def run(self, **inputs) -> CheckResult:
        """Run the check; ``inputs`` replace the defaults of ``func``."""
        error, note = self.func(**inputs)
        return CheckResult(self.name, float(error), self.tol, note)


CATALOGUE: dict[str, Check] = {}


def _check(name: str, tol: float, level: str = "quick"):
    def register(func):
        CATALOGUE[name] = Check(name, level, tol, func)
        return func

    return register


def catalogue(level: str = "quick") -> list[Check]:
    """The checks run at ``level``: ``"full"`` includes the quick ones."""
    if level not in LEVELS:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return [c for c in CATALOGUE.values() if level == "full" or c.level == "quick"]


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the catalogue at ``level`` (``"quick"`` or ``"full"``)."""
    return [c.run() for c in catalogue(level)]


def _error(value, reference) -> float:
    """The larger of the absolute and the relative error of ``value``."""
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.max(np.abs(value - reference) / np.minimum(np.abs(reference), 1.0)))


def _excess(lhs, rhs) -> float:
    """How far ``lhs <= rhs`` fails, measured like :func:`_error`; 0 if it holds."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    return max(0.0, float(np.max((lhs - rhs) / np.minimum(np.abs(rhs), 1.0))))


def _unmet(**conditions: bool) -> str:
    """Names of the conditions that do not hold, comma-separated."""
    return ", ".join(name for name, ok in conditions.items() if not ok)


def _table(kind: str, n: int, r_max: float, max_l: int) -> KernelTable:
    return build_kernel_table(make_grid(kind, n, r_max), build_coefficient_table(max_l))


# ---------------------------------------------------------------------------
# Random inputs, shared with the test suite


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
    rng: np.random.Generator, max_shells: int = 4, max_l: int = 2, Z: float | None = None
) -> Configuration:
    """Restricted configuration of 1 to ``max_shells`` random shells."""
    n_shells = int(rng.integers(1, max_shells + 1))
    shells = tuple(ShellSpec(int(rng.integers(0, max_l + 1))) for _ in range(n_shells))
    if Z is None:
        Z = float(rng.uniform(1.0, 10.0))
    return Configuration(Z=Z, model="rhf", shells=shells)


def random_orbital_set(
    rng: np.random.Generator,
    grid: RadialGrid,
    config: Configuration,
    norm_value: float | None = None,
) -> list[RadialFunction]:
    """One :func:`random_orbital` per shell of ``config``."""
    return [random_orbital(rng, grid, sh.l, norm_value) for sh in config.shells]


# ---------------------------------------------------------------------------
# Angular layer

# Exact rational values from the closed form; (l, l, 0) = 1/(2l+1).
_KNOWN_3J = {
    (0, 0, 0): 1.0,
    (1, 1, 0): 1.0 / 3.0,
    (2, 2, 0): 1.0 / 5.0,
    (3, 3, 0): 1.0 / 7.0,
    (0, 1, 1): 1.0 / 3.0,
    (1, 1, 2): 2.0 / 15.0,
    (2, 2, 2): 2.0 / 35.0,
    (0, 2, 2): 1.0 / 5.0,
    (1, 2, 1): 2.0 / 15.0,
}


@_check("angular/known-values", 1e-14)
def _known_values():
    err = max(abs(wigner3j_zero_squared(*t) - v) for t, v in _KNOWN_3J.items())
    return err, f"{len(_KNOWN_3J)} exact rational values"


@_check("angular/parity-zeros", 0.0)
def _parity_zeros():
    bad = []
    for l1, l2, l3 in itertools.product(range(11), repeat=3):
        v = wigner3j_zero_squared(l1, l2, l3)
        allowed = (l1 + l2 + l3) % 2 == 0 and abs(l1 - l2) <= l3 <= l1 + l2
        if not (v > 0.0 if allowed else v == 0.0):
            bad.append((l1, l2, l3))
    if bad:
        return len(bad), f"violations at {bad[:3]}"
    return 0, "odd-sum and non-triangle entries vanish, the rest are positive, l <= 10"


@_check("angular/orthogonality", 1e-12)
def _orthogonality():
    err = 0.0
    for l, lp in itertools.product(range(7), repeat=2):
        total = sum(
            (2 * k + 1) * wigner3j_zero_squared(l, lp, k) for k in range(l + lp + 1)
        )
        err = max(err, abs(total - 1.0))
    return err, "sum_k (2k+1) w(l, l', k) = 1, l, l' <= 6"


_QUADRATURE_TOL = 1e-12


@_check("angular/quadrature-match", _QUADRATURE_TOL)
def _quadrature_match(table: CoefficientTable | None = None):
    """Every coefficient of ``table`` against Legendre quadrature.

    The note names each ``(l, l', k)`` off by more than the tolerance:
    a corrupted table is not merely rejected but localized.
    """
    if table is None:
        table = build_coefficient_table(5)
    errs = {
        (l, lp, k): abs(table.coeff(l, lp, k) - legendre_triple_product(l, lp, k))
        for l in range(table.max_l + 1)
        for lp in range(l, table.max_l + 1)
        for k in table.k_range(l, lp)
    }
    note = f"{len(errs)} coefficients, l <= {table.max_l}"
    bad = [key for key, e in errs.items() if e > _QUADRATURE_TOL]
    return max(errs.values()), f"{note}; off at {bad}" if bad else note


@_check("angular/legendre-recurrence", 1e-13)
def _legendre_recurrence():
    t = np.linspace(-1.0, 1.0, 41)
    err = 0.0
    for n in range(2, 16):
        lhs = (n + 1) * legendre_p(n + 1, t)
        rhs = (2 * n + 1) * t * legendre_p(n, t) - n * legendre_p(n - 1, t)
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    return err, "three-term recurrence, n <= 15"


# ---------------------------------------------------------------------------
# Grid layer


@_check("grid/quadrature-linear", 1e-14)
def _quadrature_linear():
    # With interior-only sampling the rule misses the right boundary
    # triangle exactly: the discrete sum is 1/2 - h/2 in closed form.
    err = 0.0
    for n in (10, 100, 500, 999):
        g = make_grid("uniform", n, 1.0)
        exact = 0.5 - 0.5 / (n + 1)
        err = max(err, abs(integrate(g, g.points) - exact) / exact)
    return err, "relative; boundary convention exact, n = 10 .. 999"


@_check("grid/hydrogenic-closed-forms", 5e-4)
def _hydrogenic_closed_forms():
    err = 0.0
    for n, r_max in ((3000, 30.0), (2000, 20.0)):
        g = make_grid("uniform", n, r_max)
        for a in (0.8, 1.0, 1.3):
            f = RadialFunction(g, 2.0 * a**1.5 * g.points * np.exp(-a * g.points))
            err = max(
                err,
                abs(f.norm() - 1.0),
                abs(kinetic_quadratic_form(f, 0) - a * a),
                abs(derivative_sq_norm(f) - a * a),
                abs(coulomb_expectation(f) - a),
            )
    return err, "norm, |f'|^2 and <f, f/r> of f = 2 a^1.5 r e^-ar, a = 0.8, 1, 1.3"


def _inequality_samples(bumps: int, seed: int) -> list[RadialFunction]:
    """``bumps`` scaled smooth bumps, then 40 functions ``(c1 r + c2 r^2) e^-ar``."""
    rng = np.random.default_rng(seed)
    g = make_grid("uniform", 1000, 20.0)
    out = []
    for _ in range(bumps):
        center = rng.uniform(2.0, 14.0)
        width = rng.uniform(0.8, min(center - 0.5, 5.0))
        out.append(RadialFunction(g, rng.uniform(0.2, 3.0) * smooth_bump(g, center, width)))
    g = make_grid("uniform", 3000, 30.0)
    for _ in range(40):
        a = rng.uniform(0.4, 2.5)
        c1, c2 = rng.uniform(-1, 1, 2)
        out.append(RadialFunction(g, (c1 * g.points + c2 * g.points**2) * np.exp(-a * g.points)))
    return out


@_check("grid/hardy-inequality", 1e-12)
def _hardy_inequality():
    samples = _inequality_samples(200, seed=11)
    lhs = [radial_expectation(f, f.grid.points**-2.0) for f in samples]
    rhs = [4.0 * derivative_sq_norm(f) for f in samples]
    ratio = max(np.divide(lhs, rhs))
    note = f"<f, r^-2 f> <= 4 |f'|^2 on {len(samples)} samples, largest ratio {ratio:.3f}"
    return _excess(lhs, rhs), note


@_check("grid/coulomb-split-bound", 1e-12)
def _coulomb_split_bound():
    samples = _inequality_samples(50, seed=13)
    lhs, rhs = [], []
    for f in samples:
        for eps in (0.1, 1.0, 10.0):
            lhs.append(coulomb_expectation(f))
            rhs.append(eps * derivative_sq_norm(f) + f.norm() ** 2 / eps)
    note = f"<f, f/r> <= e |f'|^2 + |f|^2 / e on {len(samples)} samples, e = 0.1, 1, 10"
    return _excess(lhs, rhs), note


# ---------------------------------------------------------------------------
# Kernel layer


@_check("kernels/u-special-values", 1e-14)
def _u_special_values():
    coeffs = build_coefficient_table(1)
    specials = [
        (0, 0, 2.0, 3.0, 1.0 / 3.0),
        (0, 1, 1.0, 2.0, 1.0 / 12.0),
        (1, 1, 1.0, 1.0, 7.0 / 15.0),
    ]
    got = [u_kernel(l, lp, r, s, coeffs) for l, lp, r, s, _ in specials]
    err = _error(got, [v for *_, v in specials])
    return err, "U_00(2,3) = 1/3, U_01(1,2) = 1/12, U_11(1,1) = 7/15"


def _random_pairs(seed: int, count: int):
    """``count`` random ``(l, l', r, s)`` with ``l, l' <= 3``, ``r, s in [0.05, 20]``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, s = rng.uniform(0.05, 20.0, 2)
        l, lp = rng.integers(0, 4, 2)
        yield int(l), int(lp), float(r), float(s)


@_check("kernels/u-bounds", 1e-12)
def _u_bounds():
    coeffs = build_coefficient_table(4)
    values, caps, floors = [], [], []  # floors: diagonal points only
    for l, lp, r, s in _random_pairs(11, 200):
        values.append(u_kernel(l, lp, r, s, coeffs))
        caps.append(1.0 / max(r, s))
        if l == lp:
            floors.append((caps[-1] / (2 * l + 1), values[-1]))
    err = max(_excess(values, caps), _excess(*zip(*floors)))
    negative = min(values) < 0.0
    table = _table("uniform", 400, 20.0, 4)
    coulomb = 1.0 / np.maximum.outer(table.grid.points, table.grid.points)
    for l in range(5):
        for lp in range(l, 5):
            mat = table.exchange(l, lp)
            negative |= bool(np.any(mat < 0.0))
            err = max(err, _excess(mat, coulomb))
            if l == lp:
                err = max(err, _excess(coulomb / (2 * l + 1), mat))
    if negative:
        return math.inf, "negative kernel value"
    return err, (
        "0 <= U <= 1/max, diagonal >= 1/((2l+1) max): 200 points, n = 400 matrices"
    )


@_check("kernels/u-symmetry", 0.0)
def _u_symmetry():
    coeffs = build_coefficient_table(4)
    err = 0.0
    for l, lp, r, s in _random_pairs(12, 100):
        u = u_kernel(l, lp, r, s, coeffs)
        err = max(
            err,
            abs(u - u_kernel(lp, l, r, s, coeffs)),
            abs(u - u_kernel(l, lp, s, r, coeffs)),
        )
    table = _table("uniform", 400, 20.0, 4)
    for l in range(5):
        for lp in range(l, 5):
            mat = table.exchange(l, lp)
            err = max(err, float(np.max(np.abs(mat - mat.T))))
    return err, "bitwise in l <-> l' and r <-> s: 100 points, n = 400 matrices"


@_check("kernels/oracle-agreement", 1e-12)
def _oracle_agreement():
    coeffs = build_coefficient_table(4)
    cases = [
        (l, lp, r, s)
        for l, lp in ((0, 0), (0, 1), (1, 1), (2, 3))
        for r in (0.3, 1.0, 4.0)
        for s in (0.5, 1.0, 7.0)
    ]
    cases += [(1, 1, 1.0, 2.0), (2, 4, 0.5, 3.0), (3, 3, 2.0, 2.0)]
    radii = [float(r) for r in np.geomspace(0.05, 20.0, 10)]
    cases += [
        (l, lp, r, s)
        for l, lp in ((0, 0), (1, 1), (0, 2), (2, 3), (4, 4))
        for r in radii
        for s in radii
    ]
    err = max(abs(oracle_u_kernel(*c) - u_kernel(*c, coeffs)) for c in cases)
    err = max(err, abs(oracle_u_kernel(0, 0, 1.0, 2.0) - 0.5))
    return err, f"direct sphere-average quadrature at {len(cases)} points, l <= 4"


@_check("kernels/self-pair-bounds", 1e-14)
def _self_pair_bounds():
    coeffs = build_coefficient_table(3)
    values, lows, highs = [], [], []
    for l, _, r, s in _random_pairs(13, 100):
        values.append(p_kernel(l, r, s, coeffs))
        lows.append((2 * l + 1) / max(r, s))
        highs.append((4 * l + 1) / max(r, s))
    specials = [(0, 1.0, 2.0, 0.5), (0, 1.0, 1.0, 1.0), (1, 1.0, 1.0, 23.0 / 5.0)]
    got = [p_kernel(l, r, s, coeffs) for l, r, s, _ in specials]
    err = max(
        _excess(lows, values),
        _excess(values, highs),
        _error(got, [v for *_, v in specials]),
    )
    return err, (
        "(2l+1)/max <= P_l <= (4l+1)/max on 100 points; "
        "P_0(1,2) = 1/2, P_0(1,1) = 1, P_1(1,1) = 23/5"
    )


@_check("kernels/positive-semidefinite", 1e-10)
def _positive_semidefinite():
    def deficit(m):  # lowest eigenvalue below 0, over the largest entry
        return -float(np.linalg.eigvalsh(m)[0]) / float(np.max(np.abs(m)))

    table = _table("uniform", 160, 10.0, 2)
    worst = max(deficit(table.exchange(l, l)) for l in range(3))
    table = _table("uniform", 400, 20.0, 2)
    g = table.grid
    rng = np.random.default_rng(42)
    for l, lp in ((0, 0), (1, 1), (0, 2), (2, 2)):
        kernel = table.exchange(l, lp)
        for _ in range(20):
            a, c = rng.uniform(0.2, 2.0), rng.uniform(1.0, 15.0)
            v = np.exp(-a * (g.points - c) ** 2) * rng.uniform(0.5, 2.0) * np.sqrt(g.weights)
            worst = max(worst, deficit(v[:, None] * kernel * v[None, :]))
    return worst, "same-channel matrices, and pairs weighted by 20 random Gaussians each"


@_check("kernels/direct-prefix-sums", 1e-13)
def _direct_prefix_sums():
    small = _table("uniform", 160, 10.0, 0)
    cases = [(small, small.grid.points**2 * np.exp(-small.grid.points))]
    table = _table("uniform", 400, 20.0, 0)
    n, decay = table.grid.n, np.exp(-0.3 * table.grid.points)
    cases.append((table, np.abs(np.random.default_rng(5).standard_normal(n)) * decay))
    rng = np.random.default_rng(6)
    cases.append((table, (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay))
    err = 0.0
    for table, rho in cases:
        g = table.grid
        err = max(err, _error(apply_direct_kernel(g, rho), table.direct @ (g.weights * rho)))
    return err, "prefix sums vs dense product, real and complex densities"


@_check("kernels/exchange-apply", 1e-13)
def _exchange_apply():
    err = 0.0
    for kind, n, r_max in (
        ("uniform", 160, 10.0),
        ("uniform", 500, 25.0),
        ("exponential", 500, 25.0),
    ):
        table = _table(kind, n, r_max, 2)
        g = table.grid
        rng = np.random.default_rng(23)
        real = rng.standard_normal((g.n, 3))
        block = real + 1j * rng.standard_normal((g.n, 3))
        decaying = np.exp(-g.points)[:, None] * block[:, :2]
        for l, lp in itertools.product(range(3), repeat=2):
            for y in (real[:, 0], block[:, 1], real, block, decaying):
                dense = table.exchange(l, lp) @ y
                fast = apply_exchange_kernel(table, l, lp, y)
                if fast.shape != dense.shape:
                    return math.inf, f"shape {fast.shape} for input {y.shape}"
                err = max(err, float(np.linalg.norm(fast - dense) / np.linalg.norm(dense)))
    return err, "relative, prefix sums vs dense table, l, l' <= 2, vectors and blocks"


# ---------------------------------------------------------------------------
# Operator layer


def _hydrogen(n: int, r_max: float, l: int, Z: float, count: int):
    h = hydrogenic_matrix(make_grid("uniform", n, r_max), l, Z)
    return h, *lowest_eigenpairs(h, count)


@_check("operators/hydrogen-spectrum", 5e-4)
def _hydrogen_spectrum():
    cases = [  # (n, r_max, l, Z, the lowest levels -Z^2/(4 n^2))
        (2000, 40.0, 0, 1.0, (-0.25, -0.0625)),
        (2000, 40.0, 1, 1.0, (-0.0625,)),
        (1200, 40.0, 0, 1.0, (-0.25, -0.0625)),
        (1200, 40.0, 1, 1.0, (-0.0625,)),
        (1500, 25.0, 0, 2.0, (-1.0, -0.25)),
    ]
    err = 0.0
    for n, r_max, l, Z, levels in cases:
        _, eps, _ = _hydrogen(n, r_max, l, Z, len(levels))
        err = max(err, float(np.max(np.abs(eps - levels))))
    return err, "-Z^2/(4 n^2) levels, s and p, Z = 1, 2"


@_check("operators/eigenvector-orthonormality", 1e-10)
def _eigenvector_orthonormality():
    err = 0.0
    for n, count in ((2000, 2), (1200, 3)):
        _, _, vecs = _hydrogen(n, 40.0, 0, 1.0, count)
        gram = np.array([[inner(a, b) for b in vecs] for a in vecs])
        err = max(err, float(np.max(np.abs(gram - np.eye(count)))))
    return err, "hydrogen s eigenvectors in the quadrature inner product"


@_check("operators/quadratic-form-consistency", 1e-10)
def _quadratic_form_consistency():
    err = 0.0
    for n, count in ((2000, 2), (1200, 3)):
        h, eps, vecs = _hydrogen(n, 40.0, 0, 1.0, count)
        for f, e in zip(vecs, eps):
            q = h.bilinear(f, f)
            assembled = kinetic_quadratic_form(f, 0) - coulomb_expectation(f)
            err = max(err, abs(q - assembled), abs(q - e))
    return err, "matrix form vs assembled integrals vs eigenvalue"


@_check("operators/spectral-floor", 1e-9)
def _spectral_floor():
    worst = 0.0
    for Z in (1.0, 2.0, 5.0):
        _, eps, _ = _hydrogen(500, 25.0, 0, Z, 1)
        worst = max(worst, -(float(eps[0]) + Z * Z))
    return worst, "lowest eigenvalue >= -Z^2 (uniform grid), Z = 1, 2, 5"


@_check("operators/exchange-below-direct", 1e-12)
def _exchange_below_direct():
    table = _table("uniform", 400, 20.0, 2)
    g = table.grid
    _, hydrogen = lowest_eigenpairs(hydrogenic_matrix(g, 0, 2.0), 1)
    cases = []  # (shell l's, their orbitals, probe, probe channel l)
    rng = np.random.default_rng(3)
    for _ in range(30):
        probe = RadialFunction(g, g.points * np.exp(-rng.uniform(0.4, 2.0) * g.points))
        cases.append(([0], hydrogen, probe, 0))
    rng = np.random.default_rng(29)
    for _ in range(50):
        ls = [int(rng.integers(0, 3)) for _ in range(rng.integers(1, 4))]
        orbs = [random_orbital(rng, g, l) for l in ls]
        cases.append((ls, orbs, random_orbital(rng, g, 1, norm_value=1.0), 1))
    worst = 0.0
    for ls, orbs, f, l in cases:
        cfg = Configuration(Z=1.0, model="rhf", shells=tuple(ShellSpec(lj) for lj in ls))
        rho, gammas = mean_field(cfg, orbs)
        # the same operator without exchange; their difference is <f, K f>
        no_exchange = fock_matrix(table, cfg, (None, l), rho, {})
        fock = fock_matrix(table, cfg, (None, l), rho, gammas)
        kq = no_exchange.bilinear(f, f) - fock.bilinear(f, f)
        uq = float(np.sum(g.weights * apply_direct_kernel(g, rho) * f.values**2))
        cap = sum(
            cfg.shell_weight(j) * (derivative_sq_norm(o) + o.norm() ** 2)
            for j, o in enumerate(orbs)
        )
        worst = max(worst, -kq, _excess(kq, uq), _excess(uq, cap))
    return worst, "0 <= <f,Kf> <= <f,Uf> <= sum (2l+1)(|f'|^2 + |f|^2) on 80 samples"


@_check("operators/iterative-vs-dense", 1e-9)
def _iterative_vs_dense():
    table = _table("uniform", 600, 20.0, 1)
    g = table.grid
    _, vecs = lowest_eigenpairs(hydrogenic_matrix(g, 0, 2.0), 1)
    cfg = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    fock = fock_matrix(table, cfg, (None, 0), *mean_field(cfg, vecs))
    applies = (fock.apply, fock.matrix.__matmul__)  # matrix-free and dense
    pairs = [_lobpcg(fock, 2, None, None, apply, None) for apply in applies]
    pairs.append(sla.eigh(fock.matrix, subset_by_index=(0, 1)))
    err = 0.0
    for (eps_a, u_a), (eps_b, u_b) in itertools.combinations(pairs, 2):
        overlaps = np.abs(np.sum(u_a * u_b, axis=0))
        err = max(err, float(np.max(np.abs(eps_a - eps_b))), float(np.max(np.abs(overlaps - 1))))
    return err, "matrix-free and dense-apply LOBPCG vs scipy eigh, with exchange, n = 600"


# ---------------------------------------------------------------------------
# Energy layer

_GRID300 = ("uniform", 300, 12.0)
_SSP = (ShellSpec(0), ShellSpec(0), ShellSpec(1))


@_check("energy/helium-trial-minimum", 2e-4)
def _helium_trial_minimum():
    cfg = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    err = 0.0
    for n, r_max in ((1500, 20.0), (2000, 15.0)):
        table = _table("uniform", n, r_max, 0)
        g = table.grid
        for a in (0.7, 27.0 / 32.0, 1.1):
            f = RadialFunction(g, 2.0 * a**1.5 * g.points * np.exp(-a * g.points))
            exact = 2.0 * a * a - 27.0 * a / 8.0
            err = max(err, abs(rhf_energy(cfg, [f], table).total - exact))
    return err, "closed form 2a^2 - 27a/8, minimum -729/512 at a = 27/32"


@_check("energy/shell-decomposition", 1e-10)
def _shell_decomposition():
    cases = []
    table = _table("uniform", 1500, 20.0, 2)
    cfg = Configuration(Z=5.0, model="rhf", shells=_SSP)
    rng = np.random.default_rng(23)
    for _ in range(5):
        orbs = random_orbital_set(rng, table.grid, cfg)
        cases += [(cfg, orbs, table, i) for i in range(3)]
    table = _table(*_GRID300, 2)
    rng = np.random.default_rng(2026)
    for _ in range(100):
        cfg = random_config(rng, max_shells=4, max_l=2, Z=float(rng.uniform(2, 9)))
        orbs = random_orbital_set(rng, table.grid, cfg)
        cases.append((cfg, orbs, table, int(rng.integers(0, cfg.n_shells))))
    err = 0.0
    for cfg, orbs, table, i in cases:
        total = rhf_energy(cfg, orbs, table).total
        dec = decompose_shell(cfg, orbs, table, i)
        parts = dec.without + dec.single_particle + dec.self_pair
        err = max(err, _error(dec.total, total), _error(parts, total))
    return err, f"without + single particle + self pair = total, {len(cases)} cases"


@_check("energy/second-order-taylor", 1.0 / 7.0)
def _second_order_taylor():
    cfg = Configuration(Z=5.0, model="rhf", shells=_SSP)
    g = make_grid("uniform", 1500, 20.0)
    hv = g.points**2 * np.exp(-1.1 * g.points)
    fixed = RadialFunction(g, hv / np.sqrt(np.sum(g.weights * hv * hv)))
    # (grid, seed, complex direction; None for the fixed real one)
    cases = [(g, 23, None)] + [(make_grid(*_GRID300), 2026 + c, c) for c in (False, True)]
    worst = math.inf
    for g, seed, complex_phase in cases:
        table = build_kernel_table(g, build_coefficient_table(1))
        rng = np.random.default_rng(seed)
        for lam in (0.0, 1.0):
            orbs = random_orbital_set(rng, g, cfg)
            h = fixed
            if complex_phase is not None:
                vals = g.points * np.exp(-rng.uniform(0.8, 1.4) * g.points)
                if complex_phase:
                    vals = vals * np.exp(1j * rng.uniform(0, 2 * np.pi))
                h = RadialFunction(g, vals / RadialFunction(g, vals).norm())
            e0 = rhf_energy(cfg, orbs, table).total
            c1 = first_order_coefficient(cfg, orbs, table, 1, h)
            c2 = second_order_coefficient(cfg, orbs, table, 1, h, lam)
            rema = []
            for d in (1e-2, 5e-3):
                pert = list(orbs)
                scale = math.sqrt(1.0 + lam * d * d)
                pert[1] = RadialFunction(g, (orbs[1].values + d * h.values) / scale)
                e_d = rhf_energy(cfg, pert, table).total
                rema.append(abs(e_d - e0 - d * c1 - d * d * c2))
            worst = min(worst, rema[0] / max(rema[1], 1e-18))
    note = f"remainder ratio at d = 1e-2, 5e-3 at least {worst:.2f} (8 when cubic)"
    return 1.0 / worst, note


@_check("energy/phase-invariance", 1e-12)
def _phase_invariance():
    cases = [  # (table, shells, seed, phases)
        (_table("uniform", 1500, 20.0, 1), _SSP, 23, (0.0, 0.0, 0.77)),
        (_table(*_GRID300, 2), (ShellSpec(0), ShellSpec(2)), 2026, (0.3, -1.9)),
    ]
    err = 0.0
    for table, shells, seed, phases in cases:
        cfg = Configuration(Z=5.0, model="rhf", shells=shells)
        orbs = random_orbital_set(np.random.default_rng(seed), table.grid, cfg)
        e0 = rhf_energy(cfg, orbs, table).total
        rot = [RadialFunction(f.grid, f.values * np.exp(1j * p)) for f, p in zip(orbs, phases)]
        err = max(err, abs(rhf_energy(cfg, rot, table).total - e0) / max(1.0, abs(e0)))
    return err, "relative to max(1, |E|): orbital phase gauge"


def dense_exchange_energy(
    config: Configuration, orbitals: list[RadialFunction], table: KernelTable
) -> float:
    """Exchange energy from the dense kernel matrices.

    ``(s/2) sum_{j,k same spin} c_j c_k a U_{l_j l_k} conj(a)`` with
    ``a = w conj(f_j) f_k``, one matrix product per ordered pair: the
    reference for the prefix sums of :func:`total_energy`.
    """
    w = table.grid.weights
    pairs = 0.0
    for spin in (None, ALPHA, BETA):
        idx = [j for j, sh in enumerate(config.shells) if sh.spin == spin]
        for j, k in itertools.product(idx, repeat=2):
            a = w * np.conj(orbitals[j].values) * orbitals[k].values
            u = table.exchange(config.shells[j].l, config.shells[k].l)
            weight = config.shell_weight(j) * config.shell_weight(k)
            pairs += weight * float(np.real(a @ u @ np.conj(a)))
    return 0.5 * config.spin_factor * pairs


@_check("energy/exchange-apply", 1e-13)
def _exchange_energy():
    table = _table("exponential", 600, 30.0, 1)
    g = table.grid
    cfg = Configuration(Z=10.0, model="rhf", shells=_SSP)
    orbs = random_orbital_set(np.random.default_rng(23), g, cfg)
    orbs[2] = RadialFunction(g, orbs[2].values * np.exp(0.4j * g.points))
    cases = [(cfg, orbs, table)]
    rhf = tuple(ShellSpec(l) for l in (0, 1, 2, 0))
    uhf = tuple(ShellSpec(l, ALPHA) for l in (0, 1, 2))
    uhf += tuple(ShellSpec(l, BETA) for l in (2, 0, 1, 1))
    for kind in ("uniform", "exponential"):
        table = _table(kind, 500, 25.0, 2)
        g = table.grid
        wave = np.tanh(g.points)
        for model, shells in (("rhf", rhf), ("uhf", uhf)):
            cfg = Configuration(Z=6.0, model=model, shells=shells)
            rng = np.random.default_rng(404)
            for _ in range(3):
                orbs = [
                    RadialFunction(g, f.values * np.exp(1j * rng.uniform(-2, 2) * wave))
                    for f in random_orbital_set(rng, g, cfg)
                ]
                cases.append((cfg, orbs, table))
    err = 0.0
    for cfg, orbs, table in cases:
        dense = dense_exchange_energy(cfg, orbs, table)
        if not dense > 0.0:
            return math.inf, f"dense exchange energy {dense} not positive"
        err = max(err, abs(total_energy(cfg, orbs, table).exchange - dense) / dense)
    return err, f"relative, prefix sums vs dense kernel, complex orbitals, {len(cases)} cases"


@_check("energy/pairing-identity", 1e-12)
def _pairing_identity():
    cfg_r = Configuration(Z=4.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1)))
    paired = tuple(ShellSpec(l, spin) for spin in (ALPHA, BETA) for l in (0, 1))
    cfg_u = Configuration(Z=4.0, model="uhf", shells=paired)
    err = 0.0
    for grid, count, seed in ((("uniform", 1500, 20.0), 5, 23), (_GRID300, 10, 2026)):
        table = _table(*grid, 1)
        rng = np.random.default_rng(seed)
        for _ in range(count):
            orbs = random_orbital_set(rng, table.grid, cfg_r)
            e_r = rhf_energy(cfg_r, orbs, table).total
            e_u = uhf_energy(cfg_u, orbs + orbs, table).total
            err = max(err, abs(e_r - e_u) / max(1.0, abs(e_r)))
    return err, "relative to max(1, |E|): spin-paired unrestricted equals restricted"


@_check("energy/kinetic-lower-bound", 1e-10)
def _kinetic_lower_bound():
    cases = []
    g = make_grid("uniform", 1500, 20.0)
    cfg = Configuration(Z=5.0, model="rhf", shells=_SSP)
    rng = np.random.default_rng(23)
    for _ in range(10):
        orbs = random_orbital_set(rng, g, cfg, norm_value=rng.uniform(0.5, 1.0))
        cases.append((cfg, orbs, (0.2, 0.5, 1.0)))
    g = make_grid(*_GRID300)
    rng = np.random.default_rng(2026)
    for _ in range(50):
        cfg = random_config(rng, max_shells=3, max_l=2)
        orbs = random_orbital_set(rng, g, cfg)
        cases.append((cfg, orbs, (0.05, 0.2, 1.0 / cfg.Z, 1.0)))
    worst = 0.0
    for cfg, orbs, epsilons in cases:
        table = build_kernel_table(orbs[0].grid, build_coefficient_table(cfg.max_l))
        e0 = rhf_energy(cfg, orbs, table).total
        worst = max(worst, max(lower_bound(cfg, orbs, eps) for eps in epsilons) - e0)
    return worst, f"bound at or below the energy on {len(cases)} random states"


# ---------------------------------------------------------------------------
# SCF layer

# Values produced by tests/oracle_helium.py, an independent fine-grid
# solver for the same functional; frozen 2026-08-16.
HELIUM_ORACLE_ENERGY = -1.4308396842
HELIUM_ORACLE_LEVEL = -0.4589767241

_HE = (ShellSpec(0),)


@functools.cache
def solved(
    Z: float, shells: tuple[ShellSpec, ...], n: int, r_max: float
) -> tuple[ScfState, KernelTable]:
    """Converged state and kernel table of a scenario on a uniform grid.

    The self-consistent scenarios feed several checks each, and the test
    suite's fixtures; a solve is deterministic, so each one runs once per
    process, and every caller shares the result: read it, never modify it.
    """
    model = "rhf" if shells[0].spin is None else "uhf"
    cfg = Configuration(Z=Z, model=model, shells=shells)
    table = _table("uniform", n, r_max, cfg.max_l)
    return solve(cfg, table.grid, table), table


@_check("scf/helium-smoke", 1e-8)
def _helium_smoke():
    state, _ = solved(2.0, _HE, 600, 12.0)
    eps = state.eigenvalues[0]
    note = f"E = {state.energy:.6f}, eps = {eps:.6f}, {state.iterations} iterations"
    if bad := _unmet(
        converged=state.converged, energy=-1.45 < state.energy < -1.40, bound=eps < 0
    ):
        return math.inf, f"not met: {bad}; {note}; {state.message}"
    return abs(state.norms[0] - 1.0), note


@_check("scf/theorem-smoke", 0.0)
def _theorem_smoke():
    rep = theorem_report(solved(2.0, _HE, 600, 12.0)[0])
    if not rep.all_satisfied:
        return math.inf, "; ".join(rep.notes)
    return 0.0, f"regime {rep.regime}, clauses clean"


@_check("scf/minimality-probe", 1e-6)
def _minimality_probe():
    worst = 0.0
    for n, r_max, radii in ((600, 12.0, [4.0]), (1200, 100.0, [5.0, 10.0, 20.0, 40.0])):
        state, table = solved(2.0, _HE, n, r_max)
        for p in probe_shell(state, 0, radii, 1.0, table):
            worst = max(worst, -p.coefficient)
    return worst, "norm-preserving curvature >= 0 at helium minimizers, R = 4 .. 40"


@_check("scf/bump-profile", 1e-12)
def _bump_profile():
    err = 0.0
    for n, r_max, R in ((600, 12.0, 3.0), (1200, 100.0, 10.0)):
        g = make_grid("uniform", n, r_max)
        profile = make_bump(g, R)
        r, vals = g.points, profile.values
        err = max(err, abs(profile.norm() - 1.0))
        if bad := _unmet(
            support=bool(np.all(vals[(r <= R) | (r >= 2 * R)] == 0.0)),
            positive=bool(np.all(vals[(r > 1.05 * R) & (r < 1.95 * R)] > 0.0)),
        ):
            return math.inf, f"R = {R}: {bad}"
    g = make_grid("uniform", 600, 12.0)
    guards = ((7.0, "need r_max >= 14"), (30.0, "need r_max >= 60"), (-1.0, "R must be > 0"))
    for R, needle in guards:
        try:
            make_bump(g, R)
            return math.inf, f"R = {R} accepted on a grid to r_max = {g.r_max}"
        except ValueError as exc:
            if needle not in str(exc):
                return math.inf, f"R = {R} rejected without naming {needle!r}: {exc}"
    return err, "unit norm, supported in [R, 2R] and positive inside, range guarded"


@_check("scf/occupation-rules", 1e-10)
def _occupation_rules():
    _, _, funcs = _hydrogen(2000, 15.0, 0, 2.0, 2)
    two = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0)))
    one = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    cases = [  # (config, levels, expected norms, expected marginal flags)
        (two, [-1.0, 0.5], [1.0, 0.0], (False, False)),
        (two, [-0.5, 0.4], [1.0, 0.0], (False, False)),
        (two, [-1.0, 1e-12], [1.0, 1.0], (False, True)),
        (one, [5e-9], [1.0], (True,)),
    ]
    err = 0.0
    for cfg, levels, norms, marginal in cases:
        pairs = {(None, 0): (np.array(levels), funcs[: len(levels)])}
        occ = occupy(cfg, pairs)
        dropped = [i for i, v in enumerate(norms) if v == 0.0]
        if occ.marginal != marginal or any(
            occ.norms[i] != 0.0 or np.any(occ.orbitals[i].values != 0.0) for i in dropped
        ):
            return math.inf, f"levels {levels}: marginal {occ.marginal}, or a dropped shell kept"
        err = max(err, float(np.max(np.abs(occ.norms - norms))))
    return err, "positive level dropped; near-zero level kept and flagged"


@_check("scf/helium-reference", 1e-4, level="full")
def _helium_reference():
    state, _ = solved(2.0, _HE, 2000, 15.0)
    if not state.converged:
        return math.inf, f"not converged: {state.message}"
    eps = state.eigenvalues[0]
    err = max(abs(state.energy - HELIUM_ORACLE_ENERGY), abs(eps - HELIUM_ORACLE_LEVEL))
    return err, (
        f"E = {state.energy:.7f}, eps = {eps:.7f} against the independent solver "
        f"({state.iterations} iterations)"
    )


@_check("scf/grid-robustness", 1e-3, level="full")
def _grid_robustness():
    coarse, _ = solved(2.0, _HE, 2000, 15.0)
    fine, _ = solved(2.0, _HE, 3000, 15.0)
    if not (coarse.converged and fine.converged):
        return math.inf, "not converged"
    return abs(fine.energy - coarse.energy), "|E(3000) - E(2000)|"


@_check("scf/hydride-saturation", 1e-8, level="full")
def _hydride_saturation():
    state, _ = solved(1.0, _HE, 2000, 60.0)
    rep = theorem_report(state)
    eps = state.eigenvalues[0]
    if bad := _unmet(
        converged=state.converged,
        bound=-0.05 < eps < -0.005,
        regime=rep.regime == "Z = N-1",
        clause_ii=rep.clause_ii is True,
        clause_iii_vacuous=rep.clause_iii is None,
    ):
        return math.inf, f"not met: {bad}; eps = {eps:.6f}"
    return abs(state.norms[0] - 1.0), f"Z = N-1 shell fills: eps = {eps:.6f}"


@_check("scf/neon-structure", 1e-8, level="full")
def _neon_structure():
    state, _ = solved(10.0, _SSP, 1500, 12.0)
    rep = theorem_report(state)
    eps = state.eigenvalues
    if bad := _unmet(
        converged=state.converged,
        bound=bool(np.all(eps < 0)),
        ordered=eps[0] < eps[1] < eps[2],
        regime=rep.regime == "Z > N-1",
        clauses=bool(rep.clause_i and rep.clause_ii and rep.clause_iii),
        no_notes=rep.notes == (),
        report=rep.all_satisfied,
    ):
        return math.inf, f"not met: {bad}; eps = {eps}, notes {rep.notes}"
    s_orbitals = state.orbitals[:2]
    gram = np.array([[inner(a, b) for b in s_orbitals] for a in s_orbitals])
    err = max(float(np.max(np.abs(state.norms - 1.0))), float(np.max(np.abs(gram - np.eye(2)))))
    levels = ", ".join(f"{e:.4f}" for e in eps)
    return err, f"norms, 1s-2s overlaps; E = {state.energy:.5f}; eps = {levels}"


@_check("scf/spinless-ion-corollary", 1e-8, level="full")
def _spinless_ion_corollary():
    state, table = solved(3.0, (ShellSpec(0, ALPHA), ShellSpec(1, ALPHA)), 1600, 40.0)
    rep = corollary_inequalities(state, table)
    if bad := _unmet(
        converged=state.converged,
        report=rep.all_satisfied,
        charge=rep.charge_matches,
        shell_condition=rep.shell_condition_holds,
    ):
        return math.inf, f"not met: {bad}"
    err = max(
        float(np.max(np.abs(state.norms - 1.0))),
        abs(rep.single_orbital_bound + 2.25),
        abs(rep.remainder_bound + 27.0 / 16.0),
    )
    return err, (
        f"E = {rep.full_energy:.5f} <= {rep.single_orbital_bound}; "
        f"E_without_s = {rep.energy_without_s:.5f} >= {rep.remainder_bound}"
    )


@_check("scf/depleted-shell-probe", 0.0, level="full")
def _depleted_shell_probe():
    # a helium shell at half its mass: self-repulsion dominates near the
    # shell, the unscreened tail of the nuclear attraction wins far out
    state, table = solved(2.0, _HE, 1200, 100.0)
    _, funcs = lowest_eigenpairs(hydrogenic_matrix(table.grid, 0, 2.0), 1)
    f = RadialFunction(table.grid, funcs[0].values / math.sqrt(2.0))
    # the probe reads the configuration, the grid and the orbitals
    depleted = dataclasses.replace(state, orbitals=(f,))
    probes = probe_shell(depleted, 0, [5.0, 10.0, 20.0, 40.0], 0.0, table)
    pr = {p.R: p.coefficient for p in probes}
    note = ", ".join(f"{c:+.3e} at R = {R:g}" for R, c in pr.items())
    return max(0.0, 1e-3 - pr[10.0], pr[40.0] + 1e-3), f"norm-growing curvature {note}"
