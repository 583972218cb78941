"""Radial grid: quadrature, norms, kinetic form, and the inequality layer."""

from __future__ import annotations

import numpy as np
import pytest

from radialhf import (
    RadialFunction,
    coulomb_expectation,
    derivative_sq_norm,
    inner,
    integrate,
    kinetic_bilinear,
    kinetic_quadratic_form,
    make_grid,
    norm,
    radial_expectation,
)
from util import smooth_bump

# ---------------------------------------------------------------------------
# Grid construction


def test_uniform_grid_structure():
    g = make_grid("uniform", 9, 10.0)
    h = 10.0 / 10
    assert g.kind == "uniform"
    assert g.n == 9
    assert g.gamma is None
    np.testing.assert_allclose(g.points, h * np.arange(1, 10))
    np.testing.assert_allclose(g.weights, h)
    assert g.points[0] > 0 and g.points[-1] < g.r_max


def test_exponential_grid_structure():
    g = make_grid("exponential", 50, 30.0, gamma=5.0)
    assert g.kind == "exponential"
    assert g.gamma == 5.0
    assert np.all(np.diff(g.points) > 0)
    assert g.points[0] > 0 and g.points[-1] < 30.0
    # spacing grows outward: resolves the origin more finely
    assert g.spacings[0] < g.spacings[-1]


@pytest.mark.parametrize(
    "kind,n,r_max,gamma",
    [
        ("chebyshev", 10, 5.0, 6.0),
        ("uniform", 1, 5.0, 6.0),
        ("uniform", 10, 0.0, 6.0),
        ("exponential", 10, 5.0, -1.0),
    ],
)
def test_make_grid_rejects_bad_arguments(kind, n, r_max, gamma):
    with pytest.raises(ValueError):
        make_grid(kind, n, r_max, gamma=gamma)


# ---------------------------------------------------------------------------
# Quadrature


def test_linear_integrand_exact_up_to_wall_term():
    # Dirichlet walls drop the outer endpoint: the trapezoid value of the
    # identity function is exactly r_max^2/2 - h*r_max/2 on a uniform grid.
    for n in (10, 100, 999):
        g = make_grid("uniform", n, 1.0)
        h = 1.0 / (n + 1)
        assert integrate(g, g.points) == pytest.approx(0.5 - 0.5 * h, rel=1e-14)


def test_quadrature_second_order_on_vanishing_functions():
    # f = 2 r e^{-r} has unit L^2 norm; halving h must cut the error ~4x.
    errors = []
    for n in (250, 501, 1003):
        g = make_grid("uniform", n, 25.0)
        f = 2.0 * g.points * np.exp(-g.points)
        errors.append(abs(integrate(g, f * f) - 1.0))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_integrate_rejects_wrong_length():
    g = make_grid("uniform", 20, 5.0)
    with pytest.raises(ValueError):
        integrate(g, np.ones(21))


# ---------------------------------------------------------------------------
# Norms, inner products, closed forms


def test_hydrogenic_profile_closed_forms():
    # f = 2 a^{3/2} r e^{-a r}: ||f|| = 1, ||f'||^2 = a^2, <f, f/r> = a.
    g = make_grid("uniform", 2000, 20.0)
    for a in (0.8, 1.0, 1.3):
        f = RadialFunction(g, 2.0 * a**1.5 * g.points * np.exp(-a * g.points))
        assert norm(f) == pytest.approx(1.0, abs=5e-4)
        assert derivative_sq_norm(f) == pytest.approx(a * a, abs=5e-4)
        assert coulomb_expectation(f) == pytest.approx(a, abs=5e-4)


def test_zero_function_has_zero_norm_and_energy():
    g = make_grid("uniform", 50, 5.0)
    z = RadialFunction(g, np.zeros(50))
    assert norm(z) == 0.0
    assert derivative_sq_norm(z) == 0.0
    assert kinetic_quadratic_form(z, 3) == 0.0


def test_disjoint_bumps_are_orthogonal():
    g = make_grid("uniform", 400, 20.0)
    f = RadialFunction(g, smooth_bump(g, 4.0, 1.5))
    h = RadialFunction(g, smooth_bump(g, 14.0, 1.5))
    assert inner(f, h) == 0.0
    assert norm(f) > 0 and norm(h) > 0


def test_inner_is_conjugate_linear_in_first_argument():
    g = make_grid("uniform", 200, 10.0)
    rng = np.random.default_rng(7)
    f = RadialFunction(g, rng.standard_normal(200) + 1j * rng.standard_normal(200))
    h = RadialFunction(g, rng.standard_normal(200))
    z = 0.3 - 0.8j
    lhs = inner(RadialFunction(g, z * f.values), h)
    assert lhs == pytest.approx(np.conj(z) * inner(f, h), abs=1e-12)


def test_inner_rejects_mismatched_grids():
    f = RadialFunction(make_grid("uniform", 20, 5.0), np.ones(20))
    h = RadialFunction(make_grid("uniform", 20, 6.0), np.ones(20))
    with pytest.raises(ValueError):
        inner(f, h)


def test_radial_function_rejects_wrong_shape():
    g = make_grid("uniform", 20, 5.0)
    with pytest.raises(ValueError):
        RadialFunction(g, np.ones(19))


# ---------------------------------------------------------------------------
# Kinetic quadratic form


def test_kinetic_form_combines_derivative_and_centrifugal_parts():
    g = make_grid("uniform", 1500, 20.0)
    f = RadialFunction(g, smooth_bump(g, 8.0, 3.0))
    base = kinetic_quadratic_form(f, 0)
    assert base == pytest.approx(derivative_sq_norm(f), rel=1e-12)
    for l in (1, 2, 3):
        expected = base + l * (l + 1) * radial_expectation(f, g.points**-2.0)
        assert kinetic_quadratic_form(f, l) == pytest.approx(expected, rel=1e-12)


def test_kinetic_bilinear_diagonal_matches_quadratic_form():
    g = make_grid("uniform", 800, 15.0)
    f = RadialFunction(g, smooth_bump(g, 6.0, 2.0))
    for l in (0, 2):
        assert kinetic_bilinear(f, f, l) == pytest.approx(
            kinetic_quadratic_form(f, l), rel=1e-13
        )


def test_kinetic_bilinear_is_symmetric():
    g = make_grid("uniform", 800, 15.0)
    f = RadialFunction(g, smooth_bump(g, 5.0, 2.0))
    h = RadialFunction(g, smooth_bump(g, 7.0, 3.0))
    assert kinetic_bilinear(f, h, 1) == pytest.approx(
        kinetic_bilinear(h, f, 1), rel=1e-13
    )


def test_kinetic_rejects_negative_l():
    g = make_grid("uniform", 50, 5.0)
    f = RadialFunction(g, np.ones(50))
    with pytest.raises(ValueError):
        kinetic_quadratic_form(f, -1)
