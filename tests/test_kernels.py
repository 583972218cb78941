"""Exchange kernels: closed forms, bounds, positivity, oracle, lazy tables, prefix sums."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialhf import (
    QuadratureAccuracyError,
    apply_direct_kernel,
    apply_exchange_kernel,
    build_coefficient_table,
    build_kernel_table,
    kernels,
    make_grid,
    oracle_u_kernel,
    p_kernel,
    u_kernel,
)
from util import eager_kernel_matrices

KERNEL_PAIRS = [(l, lp) for l in range(5) for lp in range(l, 5)]


# ---------------------------------------------------------------------------
# Pointwise closed forms


def test_s_channel_kernel_is_coulomb(coeffs4):
    for r, s in [(1.0, 2.0), (0.5, 0.5), (3.0, 0.1)]:
        assert u_kernel(0, 0, r, s, coeffs4) == pytest.approx(
            1.0 / max(r, s), rel=1e-15
        )


def test_known_kernel_values(coeffs4):
    # U_01(1, 2) = (1/3) * 1/4; U_11(1, 1) = 1/3 + 2/15 = 7/15
    assert u_kernel(0, 1, 1.0, 2.0, coeffs4) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert u_kernel(1, 1, 1.0, 1.0, coeffs4) == pytest.approx(7.0 / 15.0, rel=1e-14)


def test_self_pair_kernel_values(coeffs4):
    # P_l = (2l+1) * (2/max - U_ll); on the diagonal at r = 1:
    # P_0(1,1) = 1, P_1(1,1) = 3 * (2 - 7/15) = 23/5.
    assert p_kernel(0, 1.0, 1.0, coeffs4) == pytest.approx(1.0, rel=1e-14)
    assert p_kernel(1, 1.0, 1.0, coeffs4) == pytest.approx(23.0 / 5.0, rel=1e-14)


def test_kernel_rejects_nonpositive_radius(coeffs4):
    with pytest.raises(ValueError):
        u_kernel(0, 0, 0.0, 1.0, coeffs4)
    with pytest.raises(ValueError):
        u_kernel(0, 0, 1.0, -2.0, coeffs4)


@given(
    l=st.integers(min_value=0, max_value=4),
    lp=st.integers(min_value=0, max_value=4),
    r=st.floats(min_value=0.01, max_value=50.0),
    s=st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=300, deadline=None)
def test_kernel_pointwise_properties(l, lp, r, s):
    table = build_coefficient_table(4)
    val = u_kernel(l, lp, r, s, table)
    assert val == u_kernel(lp, l, s, r, table)  # symmetric, bit for bit
    assert 0.0 <= val <= 1.0 / max(r, s) * (1.0 + 1e-12)
    if l == lp:
        assert val >= 1.0 / ((2 * l + 1) * max(r, s)) * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Matrix bounds on a grid (acceptance criterion 2 re-runs these)


def test_kernel_matrices_symmetric(table400):
    for l, lp in KERNEL_PAIRS:
        mat = table400.exchange(l, lp)
        assert np.array_equal(mat, mat.T)


def test_kernel_matrices_bounded_by_coulomb(table400):
    r = table400.grid.points
    coulomb = 1.0 / np.maximum.outer(r, r)
    for l, lp in KERNEL_PAIRS:
        mat = table400.exchange(l, lp)
        assert np.all(mat >= 0.0)
        assert np.all(mat <= coulomb * (1.0 + 1e-12))


def test_diagonal_pair_kernels_have_coulomb_floor(table400):
    r = table400.grid.points
    coulomb = 1.0 / np.maximum.outer(r, r)
    for l in range(5):
        mat = table400.exchange(l, l)
        floor = coulomb / (2 * l + 1)
        assert np.all(mat >= floor * (1.0 - 1e-12))


def test_kernel_operators_positive_semidefinite(table400):
    g = table400.grid
    rng = np.random.default_rng(42)
    for l, lp in [(0, 0), (1, 1), (0, 2), (2, 2)]:
        kernel = table400.exchange(l, lp)
        for _ in range(20):
            a = rng.uniform(0.2, 2.0)
            c = rng.uniform(1.0, 15.0)
            gv = np.exp(-a * (g.points - c) ** 2) * rng.uniform(0.5, 2.0)
            sym = (gv * np.sqrt(g.weights))[:, None] * kernel * (
                gv * np.sqrt(g.weights)
            )[None, :]
            eigs = np.linalg.eigvalsh(sym)
            assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def test_exchange_accessor_canonicalizes_pair_order(table400):
    assert np.array_equal(table400.exchange(0, 2), table400.exchange(2, 0))


def test_exchange_rejects_out_of_range_pair(table400):
    with pytest.raises(ValueError):
        table400.exchange(0, 5)


# ---------------------------------------------------------------------------
# Quadrature oracle


def test_oracle_coulomb_value():
    assert oracle_u_kernel(0, 0, 1.0, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_oracle_matches_closed_form_at_spot_values(coeffs4):
    for l, lp, r, s in [(1, 1, 1.0, 2.0), (2, 4, 0.5, 3.0), (3, 3, 2.0, 2.0)]:
        assert oracle_u_kernel(l, lp, r, s) == pytest.approx(
            u_kernel(l, lp, r, s, coeffs4), abs=1e-10
        )


def test_oracle_accuracy_guard_trips_on_impossible_tolerance():
    with pytest.raises(QuadratureAccuracyError):
        oracle_u_kernel(4, 4, 1.0, 1.0000001, order=4, tol=1e-15)


def test_oracle_rejects_tiny_order():
    with pytest.raises(ValueError):
        oracle_u_kernel(0, 0, 1.0, 1.0, order=2)


# ---------------------------------------------------------------------------
# Table building and the direct kernel


def test_s_only_table_exchange_equals_direct():
    g = make_grid("uniform", 120, 8.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    assert np.allclose(table.exchange(0, 0), table.direct, rtol=0, atol=1e-15)


def test_direct_matrix_is_coulomb(table400):
    r = table400.grid.points
    np.testing.assert_allclose(table400.direct, 1.0 / np.maximum.outer(r, r))


def test_apply_direct_kernel_matches_matrix(table400):
    g = table400.grid
    rng = np.random.default_rng(5)
    density = np.abs(rng.standard_normal(g.n)) * np.exp(-0.3 * g.points)
    via_matrix = table400.direct @ (g.weights * density)
    np.testing.assert_allclose(
        apply_direct_kernel(g, density), via_matrix, rtol=1e-13, atol=1e-15
    )


def test_apply_direct_kernel_complex_density(table400):
    g = table400.grid
    rng = np.random.default_rng(6)
    density = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)) * np.exp(-0.3 * g.points)
    via_matrix = table400.direct @ (g.weights * density)
    np.testing.assert_allclose(
        apply_direct_kernel(g, density), via_matrix, rtol=1e-13, atol=1e-15
    )


@pytest.mark.parametrize("kind", ["uniform", "exponential"])
def test_exchange_apply_matches_table(kind):
    # prefix sums reproduce the dense product for every pair, on vectors
    # and blocks, real and complex
    g = make_grid(kind, 500, 25.0)
    table = build_kernel_table(g, build_coefficient_table(2))
    rng = np.random.default_rng(23)
    real = rng.standard_normal((g.n, 3))
    block = real + 1j * rng.standard_normal((g.n, 3))
    inputs = [real[:, 0], block[:, 1], real, block]
    for l in range(3):
        for lp in range(3):
            for y in inputs:
                dense = table.exchange(l, lp) @ y
                fast = apply_exchange_kernel(table, l, lp, y)
                assert fast.shape == dense.shape
                assert np.linalg.norm(fast - dense) <= 1e-13 * np.linalg.norm(dense)


def test_exchange_apply_rejects_bad_inputs(table400):
    with pytest.raises(ValueError):
        apply_exchange_kernel(table400, 0, table400.max_l + 1, np.ones(table400.grid.n))
    with pytest.raises(ValueError):
        apply_exchange_kernel(table400, 0, 0, np.ones(table400.grid.n + 1))


def test_build_rejects_memory_overrun(monkeypatch):
    g = make_grid("uniform", 400, 10.0)
    table = build_kernel_table(g, build_coefficient_table(2))
    monkeypatch.setattr(kernels, "MAX_TABLE_BYTES", 10_000)
    with pytest.raises(kernels.KernelBudgetError):
        table.exchange(0, 1)
    with pytest.raises(kernels.KernelBudgetError):
        table.direct
    assert issubclass(kernels.KernelBudgetError, MemoryError)


def test_build_rejects_multipole_powers_out_of_range():
    # r**(k+1) for k <= 2 max_l must stay finite and nonzero at both ends
    g = make_grid("uniform", 50, 1e150)
    assert build_kernel_table(g, build_coefficient_table(0)).max_l == 0  # r**1 fits
    with pytest.raises(ValueError, match="r_max = 1e\\+150 .*max_l = 1"):
        build_kernel_table(g, build_coefficient_table(1))  # r**3 overflows
    tiny = make_grid("exponential", 50, 1e-20, gamma=60.0)
    with pytest.raises(ValueError, match="underflows"):
        build_kernel_table(tiny, build_coefficient_table(4))  # r_1**9 underflows


def test_build_allocates_no_dense_matrix():
    g = make_grid("uniform", 40000, 12.0)
    coeffs = build_coefficient_table(2)
    tracemalloc.start()
    try:
        table = build_kernel_table(g, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.max_l == 2
    assert peak < 5 * 2**20


def test_lazy_exchange_peak_memory():
    # one pair is built a block of rows at a time, never with a dozen
    # n x n temporaries alive
    g = make_grid("uniform", 1500, 12.0)
    table = build_kernel_table(g, build_coefficient_table(2))
    tracemalloc.start()
    try:
        table.exchange(1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * g.n * g.n * 8


@pytest.mark.parametrize("kind", ["uniform", "exponential"])
def test_lazy_matrices_equal_eager_formula(kind):
    g = make_grid(kind, 700, 25.0)
    coeffs = build_coefficient_table(4)
    direct, exchange = eager_kernel_matrices(g, coeffs, 4)
    table = build_kernel_table(g, coeffs)
    for l, lp in KERNEL_PAIRS:
        assert np.array_equal(table.exchange(lp, l), exchange[(l, lp)])
        assert table.exchange(lp, l) is table.exchange(l, lp)  # cached once
    assert np.array_equal(table.direct, direct)
    assert table.direct is table.exchange(0, 0)
