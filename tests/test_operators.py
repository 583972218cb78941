"""Channel operators: hydrogenic matrices, mean-field pieces, eigensolvers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from radialhf import (
    Configuration,
    EigensolverError,
    FockMatrix,
    RadialFunction,
    ShellSpec,
    apply_direct_kernel,
    build_coefficient_table,
    build_kernel_table,
    coulomb_expectation,
    fock_matrix,
    hydrogenic_matrix,
    inner,
    kinetic_quadratic_form,
    lowest_eigenpairs,
    make_grid,
    mean_field,
    operators,
)
from util import eigh_pairs, random_orbital


@pytest.fixture(scope="module")
def coarse_hydrogen():
    g = make_grid("uniform", 1200, 40.0)
    eps, vecs = lowest_eigenpairs(hydrogenic_matrix(g, 0, 1.0), 3)
    return g, eps, vecs


# ---------------------------------------------------------------------------
# Hydrogenic spectra (closed-form eigenvalues -Z^2/(4 n^2))


def test_hydrogen_s_series(coarse_hydrogen):
    _, eps, _ = coarse_hydrogen
    assert eps[0] == pytest.approx(-0.25, abs=5e-4)
    assert eps[1] == pytest.approx(-0.0625, abs=5e-4)


def test_hydrogen_p_ground():
    g = make_grid("uniform", 1200, 40.0)
    eps, _ = lowest_eigenpairs(hydrogenic_matrix(g, 1, 1.0), 1)
    assert eps[0] == pytest.approx(-0.0625, abs=5e-4)


def test_helium_like_second_s_level():
    g = make_grid("uniform", 1500, 25.0)
    eps, _ = lowest_eigenpairs(hydrogenic_matrix(g, 0, 2.0), 2)
    assert eps[1] == pytest.approx(-0.25, abs=5e-4)


def test_accidental_degeneracy_across_channels():
    # the n = 2 level appears in both the l = 0 and l = 1 channels
    g = make_grid("uniform", 1500, 45.0)
    eps_s, _ = lowest_eigenpairs(hydrogenic_matrix(g, 0, 1.0), 2)
    eps_p, _ = lowest_eigenpairs(hydrogenic_matrix(g, 1, 1.0), 1)
    assert eps_s[1] == pytest.approx(eps_p[0], abs=2e-4)


def test_spectral_floor():
    g = make_grid("uniform", 500, 25.0)
    for Z in (1.0, 2.0, 5.0):
        eps, _ = lowest_eigenpairs(hydrogenic_matrix(g, 0, Z), 1)
        assert eps[0] >= -Z * Z - 1e-9


def test_hydrogenic_matrix_rejects_bad_inputs():
    g = make_grid("uniform", 50, 5.0)
    with pytest.raises(ValueError):
        hydrogenic_matrix(g, -1, 1.0)
    with pytest.raises(ValueError):
        hydrogenic_matrix(g, 0, 0.0)


# ---------------------------------------------------------------------------
# Eigenvector quality


def test_eigenvectors_orthonormal(coarse_hydrogen):
    _, _, vecs = coarse_hydrogen
    gram = np.array([[inner(a, b) for b in vecs] for a in vecs])
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_quadratic_form_consistency(coarse_hydrogen):
    g, eps, vecs = coarse_hydrogen
    h0 = hydrogenic_matrix(g, 0, 1.0)
    for rank in range(3):
        f = vecs[rank]
        q = h0.bilinear(f, f)
        assembled = kinetic_quadratic_form(f, 0) - coulomb_expectation(f)
        assert q == pytest.approx(eps[rank], abs=1e-10)
        assert q == pytest.approx(assembled, abs=1e-8)


def test_sign_convention_deterministic(coarse_hydrogen):
    g, _, vecs = coarse_hydrogen
    again = lowest_eigenpairs(hydrogenic_matrix(g, 0, 1.0), 3)[1]
    for a, b in zip(vecs, again):
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values[np.argmax(np.abs(a.values))] > 0


def _assert_pairs_match(pairs, reference, tol=1e-9):
    """Eigenvalues and eigenfunctions (up to sign) agree with a reference."""
    (eps, vecs), (eps_ref, vecs_ref) = pairs, reference
    np.testing.assert_allclose(eps, eps_ref, atol=tol)
    for a, b in zip(vecs, vecs_ref):
        assert abs(abs(inner(a, b)) - 1.0) < tol


def test_iterative_solver_matches_dense():
    # helium-like operator with exchange above the dense cutoff: LOBPCG on
    # the matrix-free apply, cold and warm-started, against LOBPCG on the
    # dense matrix and against scipy's dense solver
    g = make_grid("uniform", 2600, 30.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    _, hydro = lowest_eigenpairs(hydrogenic_matrix(g, 0, 2.0), 2)
    fock = fock_matrix(table, config, (None, 0), *mean_field(config, hydro[:1]))
    reference = eigh_pairs(fock, 2)
    iterative = lowest_eigenpairs(fock, 2)  # above the dense cutoff
    warm = lowest_eigenpairs(fock, 2, start=hydro)
    dense = lowest_eigenpairs(fock, 2, dense_cutoff=4000)
    for pairs in (iterative, warm):
        _assert_pairs_match(pairs, dense)
    for pairs in (iterative, warm, dense):
        _assert_pairs_match(pairs, reference)


def _exponential_helium():
    g = make_grid("exponential", 500, 25.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    _, hydro = lowest_eigenpairs(hydrogenic_matrix(g, 0, 2.0), 3)
    return fock_matrix(table, config, (None, 0), *mean_field(config, hydro[:1])), 3, hydro


def _anion_with_unbound_top_level():
    # two s shells on Z = 1: the second wanted level lies in the box
    # continuum, as for a shell the solver drops
    g = make_grid("uniform", 600, 30.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    config = Configuration(Z=1.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0)))
    _, hydro = lowest_eigenpairs(hydrogenic_matrix(g, 0, 1.0), 2)
    return fock_matrix(table, config, (None, 0), *mean_field(config, hydro)), 2, hydro


@pytest.mark.parametrize(
    "case, top_unbound",
    [(_exponential_helium, False), (_anion_with_unbound_top_level, True)],
    ids=["exponential-helium", "unbound-top-level"],
)
def test_dense_apply_matches_eigh(case, top_unbound):
    # at or below the cutoff LOBPCG runs on the dense matrix; cold and
    # warm starts agree with each other and with scipy's dense solver
    fock, count, start = case()
    reference = eigh_pairs(fock, count)
    if top_unbound:
        assert reference[0][-1] > 0.0
    cold = lowest_eigenpairs(fock, count)
    warm = lowest_eigenpairs(fock, count, start=start)
    _assert_pairs_match(cold, reference)
    _assert_pairs_match(warm, reference)
    _assert_pairs_match(warm, cold)


def test_deep_local_part_solves():
    # a local part far below -Z^2/4 - 1, which a Z-based shift could not
    # precondition: the shift follows the local part's own spectrum
    g = make_grid("uniform", 300, 10.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    bare = hydrogenic_matrix(g, 0, 1.0)
    v = np.sqrt(g.weights) * g.points * np.exp(-g.points)
    fock = FockMatrix(
        grid=g, l=0, diag=bare.diag - 50.0, off=bare.off, table=table,
        exchange=((0, v[:, None], np.ones(1)),),
    )
    lam, vecs = np.linalg.eigh(fock.matrix)
    sq = np.sqrt(g.weights)
    reference = lam[:1], [RadialFunction(g, vecs[:, 0] / sq)]
    for cutoff in (100, 1000):  # matrix-free and dense apply
        _assert_pairs_match(lowest_eigenpairs(fock, 1, dense_cutoff=cutoff), reference)


def test_failed_preconditioner_raises():
    # a coupling of 1e20 swamps the local part's lowest eigenvalue in
    # rounding: the computed one lies above the spectrum, and the banded
    # Cholesky of the shifted local part reports it
    g = make_grid("uniform", 300, 10.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    bare = hydrogenic_matrix(g, 0, 1.0)
    diag, off = bare.diag.copy(), bare.off.copy()
    diag[100:102] += 1e20
    off[100] -= 1e20
    v = np.sqrt(g.weights) * g.points * np.exp(-g.points)
    fock = FockMatrix(
        grid=g, l=0, diag=diag, off=off, table=table,
        exchange=((0, v[:, None], np.ones(1)),),
    )
    for cutoff in (100, 1000):
        with pytest.raises(EigensolverError, match="not below the spectrum"):
            lowest_eigenpairs(fock, 1, dense_cutoff=cutoff)


def test_residual_bound_follows_each_vector(monkeypatch):
    # on this exponential grid |B|_inf (6.9e6) is set by the finest spacing
    # near the origin, far above the rounding scale ||T| |x|| of the orbital
    # (8e4): an eigenvalue off by 1e-4 met a bound of 1e-10 |B|_inf, but
    # not one of 1e-10 ||T| |x||
    fock, count, _ = _exponential_helium()
    real = operators._lobpcg

    def off_by_1e4(*args):
        theta, X = real(*args)
        return theta + 1e-4, X

    assert lowest_eigenpairs(fock, count)  # the true pairs pass
    monkeypatch.setattr(operators, "_lobpcg", off_by_1e4)
    with pytest.raises(EigensolverError, match="exceeds"):
        lowest_eigenpairs(fock, count)


def test_nan_eigenvectors_fail_the_residual_check():
    # LAPACK's tridiagonal solver returns NaN eigenvectors for an operator
    # this stiff; a NaN residual must fail the check, not pass it
    g = make_grid("uniform", 50, 1.0)
    bare = hydrogenic_matrix(g, 0, 2.0)
    fock = FockMatrix(grid=g, l=0, diag=1e150 * bare.diag, off=1e150 * bare.off)
    with pytest.raises(EigensolverError, match="residual nan"):
        lowest_eigenpairs(fock, 1)


def test_inexact_solve_checks_its_loosened_target(monkeypatch):
    # an inexact solve may stop once each residual is 1e-2 of its start
    # vector's, and its check allows that much; a pair left at the start,
    # which misses that target, still raises
    fock, count, start = _exponential_helium()
    for cutoff in (100, 1000):  # matrix-free and dense apply
        assert lowest_eigenpairs(fock, count, cutoff, start=start, reduction=1e-2)

    def no_steps(fock, count, x0, tol, apply, floor):
        return np.sum(x0 * apply(x0), axis=0), x0

    monkeypatch.setattr(operators, "_lobpcg", no_steps)
    with pytest.raises(EigensolverError, match="exceeds"):
        lowest_eigenpairs(fock, count, start=start, reduction=1e-2)


@pytest.fixture(scope="module")
def neon_like_focks(table400):
    g = table400.grid
    rng = np.random.default_rng(43)
    config = Configuration(
        Z=10.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1), ShellSpec(2))
    )
    orbitals = [random_orbital(rng, g, sh.l) for sh in config.shells]
    # a complex 2s gives the s channel complex density-matrix factors
    orbitals[1] = RadialFunction(g, orbitals[1].values * np.exp(0.3j * g.points))
    rho, gammas = mean_field(config, orbitals)
    keys = ((None, 0), (None, 1), (None, 2))
    return [fock_matrix(table400, config, key, rho, gammas) for key in keys]


def test_fock_apply_matches_matrix(neon_like_focks, monkeypatch):
    g = neon_like_focks[0].grid
    rng = np.random.default_rng(47)
    block = rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3))
    # the whole block in one exchange chunk, then one column per chunk
    for chunk_bytes in (operators._CHUNK_BYTES, 1):
        monkeypatch.setattr(operators, "_CHUNK_BYTES", chunk_bytes)
        for fock in neon_like_focks:
            mat = fock.matrix
            for x in (block.real[:, 0], block[:, 1], block.real, block):
                dense = mat @ x
                assert np.linalg.norm(fock.apply(x) - dense) <= 1e-13 * np.linalg.norm(dense)


def test_exchange_apply_peak_memory():
    # helium at uniform n = 40000 with rank-5 exchange factors on a block
    # of 12 columns, the largest block its LOBPCG applies: applied whole,
    # the prefix sums held 96 MiB of traced memory at once, in column
    # chunks 17 MiB (the 3.7 MiB result included)
    n = 40000
    g = make_grid("uniform", n, 15.0)
    table = build_kernel_table(g, build_coefficient_table(0))
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    rng = np.random.default_rng(61)
    gammas = {(None, 0): (rng.standard_normal((n, 5)), np.ones(5))}
    fock = fock_matrix(table, config, (None, 0), np.zeros(n), gammas)
    block = rng.standard_normal((n, 12))
    tracemalloc.start()
    try:
        fock.apply(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_lowest_eigenpairs_rejects_bad_count(coarse_hydrogen):
    g, _, _ = coarse_hydrogen
    fock = hydrogenic_matrix(g, 0, 1.0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(fock, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(fock, g.n)


# ---------------------------------------------------------------------------
# Mean-field pieces


def test_direct_potential_closed_form():
    # source 2 r e^{-r}: U(r) = 1/r - e^{-2r} (1 + 1/r)
    g = make_grid("uniform", 2000, 25.0)
    config = Configuration(Z=1.0, model="rhf", shells=(ShellSpec(0),))
    rho, _ = mean_field(config, [RadialFunction(g, 2.0 * g.points * np.exp(-g.points))])
    u = apply_direct_kernel(g, rho)
    r = g.points
    exact = 1.0 / r - np.exp(-2.0 * r) * (1.0 + 1.0 / r)
    assert np.max(np.abs(u - exact)) <= 5e-4
    far = np.searchsorted(r, 20.0)
    assert u[far] * r[far] == pytest.approx(1.0, abs=1e-3)


def test_direct_potential_zero_source():
    g = make_grid("uniform", 100, 10.0)
    config = Configuration(Z=1.0, model="rhf", shells=(ShellSpec(1),))
    zero = [RadialFunction(g, np.zeros(100))]
    rho, gammas = mean_field(config, zero, drop=0)
    assert gammas == {}
    np.testing.assert_array_equal(apply_direct_kernel(g, rho), np.zeros(100))
    rho, _ = mean_field(config, zero)
    np.testing.assert_array_equal(apply_direct_kernel(g, rho), np.zeros(100))


def test_exchange_matrix_zero_sources(table400):
    # no density matrices: nothing is subtracted from the bare operator
    g = table400.grid
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    fock = fock_matrix(table400, config, (None, 0), np.zeros(g.n), {})
    np.testing.assert_array_equal(fock.matrix, hydrogenic_matrix(g, 0, 2.0).matrix)


def test_exchange_matrix_matches_density_form(table400):
    # exchange from the per-channel density matrices equals the sum over
    # the individual source orbitals
    g = table400.grid
    rng = np.random.default_rng(17)
    f0 = random_orbital(rng, g, 0)
    f1 = random_orbital(rng, g, 1)
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1)))
    rho, gammas = mean_field(config, [f0, f1])
    sq = np.sqrt(g.weights)
    expected = hydrogenic_matrix(g, 2, 2.0).matrix + np.diag(2 * apply_direct_kernel(g, rho))
    for f, l, w in ((f0, 0, 1.0), (f1, 1, 3.0)):
        expected -= w * np.outer(sq * f.values, sq * f.values) * table400.exchange(2, l)
    np.testing.assert_allclose(
        fock_matrix(table400, config, (None, 2), rho, gammas).matrix,
        expected,
        rtol=1e-13,
        atol=1e-15,
    )


def test_mean_field_drop_equals_dropped_configuration(table400):
    g = table400.grid
    rng = np.random.default_rng(41)
    config = Configuration(
        Z=6.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1), ShellSpec(2))
    )
    orbs = [random_orbital(rng, g, sh.l) for sh in config.shells]
    for i in range(config.n_shells):
        rest = [f for j, f in enumerate(orbs) if j != i]
        rho, gammas = mean_field(config, orbs, drop=i)
        rho_ref, gammas_ref = mean_field(config.drop_shell(i), rest)
        np.testing.assert_array_equal(rho, rho_ref)
        assert gammas.keys() == gammas_ref.keys()
        for key in gammas:
            for factor, factor_ref in zip(gammas[key], gammas_ref[key]):
                np.testing.assert_array_equal(factor, factor_ref)


# ---------------------------------------------------------------------------
# Fock assembly


def test_fock_with_zero_orbitals_is_hydrogenic(table400):
    g = table400.grid
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    zero = [RadialFunction(g, np.zeros(g.n))]
    fock = fock_matrix(table400, config, (None, 0), *mean_field(config, zero))
    np.testing.assert_array_equal(fock.matrix, hydrogenic_matrix(g, 0, 2.0).matrix)


def test_paired_spin_channels_reduce_to_restricted(table400):
    g = table400.grid
    rng = np.random.default_rng(31)
    f = random_orbital(rng, g, 0, norm_value=1.0)
    rhf = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    uhf = Configuration(
        Z=2.0, model="uhf", shells=(ShellSpec(0, "alpha"), ShellSpec(0, "beta"))
    )
    mat_r = fock_matrix(table400, rhf, (None, 0), *mean_field(rhf, [f])).matrix
    mat_u = fock_matrix(table400, uhf, ("alpha", 0), *mean_field(uhf, [f, f])).matrix
    np.testing.assert_allclose(mat_r, mat_u, rtol=0, atol=1e-13)


def test_drop_shell_removes_own_mean_field(table400):
    g = table400.grid
    rng = np.random.default_rng(37)
    config = Configuration(Z=5.0, model="rhf", shells=(ShellSpec(0),))
    f = random_orbital(rng, g, 0, norm_value=1.0)
    dropped = fock_matrix(table400, config, (None, 0), *mean_field(config, [f], drop=0))
    np.testing.assert_array_equal(dropped.matrix, hydrogenic_matrix(g, 0, 5.0).matrix)


def test_assemble_fock_validates_channel(table400):
    g = table400.grid
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    zero = [RadialFunction(g, np.zeros(g.n))]
    rho, gammas = mean_field(config, zero)
    with pytest.raises(ValueError):
        fock_matrix(table400, config, ("gamma", 0), rho, gammas)
    with pytest.raises(ValueError):
        fock_matrix(table400, config, ("alpha", 0), rho, gammas)
    with pytest.raises(ValueError):
        mean_field(config, [])


def test_screened_operator_lies_between_bare_and_doubled(table400):
    # adding electrons can only raise s-channel levels; exchange relief
    # keeps the restricted operator below pure double screening
    g = table400.grid
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    eps_bare, vecs = lowest_eigenpairs(hydrogenic_matrix(g, 0, 2.0), 1)
    f = vecs[0]
    fock = fock_matrix(table400, config, (None, 0), *mean_field(config, [f]))
    eps_scr, _ = lowest_eigenpairs(fock, 1)
    assert eps_scr[0] > eps_bare[0]
    assert fock.bilinear(f, f) >= eps_scr[0] - 1e-12
