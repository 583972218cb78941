"""Self-consistent solver: physics anchors, invariants, probes, reports."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from radialhf import (
    Configuration,
    EigensolverError,
    RadialFunction,
    ScfOptions,
    ShellSpec,
    build_coefficient_table,
    build_kernel_table,
    corollary_inequalities,
    first_order_coefficient,
    fock_matrix,
    hydrogenic_matrix,
    inner,
    lowest_eigenpairs,
    make_bump,
    make_default_grid,
    make_grid,
    mean_field,
    occupy,
    probe_shell,
    solve,
    theorem_report,
)
from radialhf import scf
from radialhf.cli import load_config
from radialhf.validate import HELIUM_ORACLE_ENERGY, HELIUM_ORACLE_LEVEL
from util import eigh_pairs, random_orbital

# Exponential-trial minimum 2a^2 - 27a/8 at a = 27/32: the converged
# energy must sit at or below this single-function upper bound.
HELIUM_TRIAL_BOUND = -729.0 / 512.0


# ---------------------------------------------------------------------------
# Helium anchor scenario


def test_helium_energy_matches_independent_solver(he_state):
    # n = 2000 carries an O(h^2) offset ~2e-5 from the extrapolated limit
    assert he_state.converged
    assert he_state.energy == pytest.approx(HELIUM_ORACLE_ENERGY, abs=1e-4)


def test_helium_level_matches_independent_solver(he_state):
    assert he_state.eigenvalues[0] == pytest.approx(HELIUM_ORACLE_LEVEL, abs=1e-4)


def test_helium_below_trial_upper_bound(he_state):
    assert he_state.energy <= HELIUM_TRIAL_BOUND


def test_helium_converges_quickly(he_state):
    assert he_state.iterations < 100
    assert he_state.norms[0] == pytest.approx(1.0, abs=1e-10)
    assert not he_state.marginal[0]


def test_helium_grid_refinement_is_stable(he_state, he3000_state):
    assert abs(he3000_state.energy - he_state.energy) < 1e-3


def test_helium_fixed_point_consistency(he_state, he_table):
    # re-assembling the Fock operator from the converged orbitals and
    # re-diagonalizing must reproduce the stored eigenpair
    config = he_state.config
    fock = fock_matrix(he_table, config, (None, 0), *mean_field(config, he_state.orbitals))
    eps, vecs = lowest_eigenpairs(fock, 1)
    # agreement is limited by tol_residual: the orbitals solve their own
    # Fock equation to 1e-6, so re-assembly shifts the operator by that much
    assert eps[0] == pytest.approx(he_state.eigenvalues[0], abs=1e-6)
    assert abs(abs(inner(vecs[0], he_state.orbitals[0])) - 1.0) < 1e-6


def test_energy_trace_is_monotone(he_state, ne_state):
    for state in (he_state, ne_state):
        trace = np.asarray(state.energy_trace)
        tol = 1e-10 * (1.0 + np.abs(trace).max())
        assert np.all(np.diff(trace) <= tol)


def test_residuals_meet_tolerance(he_state, ne_state, hminus_state):
    for state in (he_state, ne_state, hminus_state):
        assert np.all(state.residuals <= 1e-6)


@pytest.mark.parametrize("fixture", ["he_state", "ne_state", "z3_setup"])
def test_residuals_are_own_fock_equation_residuals(fixture, request):
    # each occupied shell's residual is |F u - e u| with F assembled from
    # the mean field of the state's own orbitals, u = sqrt(w) f
    state = request.getfixturevalue(fixture)
    state = state[0] if isinstance(state, tuple) else state
    config = state.config
    table = build_kernel_table(state.grid, build_coefficient_table(config.max_l))
    field = mean_field(config, state.orbitals)
    sq = np.sqrt(state.grid.weights)
    for key, shell_idx in config.channels().items():
        u = np.column_stack([sq * state.orbitals[i].values for i in shell_idx])
        fu = fock_matrix(table, config, key, *field).apply(u)
        expected = np.linalg.norm(fu - u * state.eigenvalues[shell_idx], axis=0)
        np.testing.assert_allclose(state.residuals[shell_idx], expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Multi-shell structure: neon and the anion scenarios


def test_neon_structure(ne_state):
    assert ne_state.converged
    assert np.all(ne_state.eigenvalues < 0)
    np.testing.assert_allclose(ne_state.norms, 1.0, atol=1e-6)
    # core below valence; s below p within n = 2
    assert ne_state.eigenvalues[0] < ne_state.eigenvalues[1] < ne_state.eigenvalues[2]


def test_neon_same_channel_orbitals_orthonormal(ne_state):
    f1, f2 = ne_state.orbitals[0], ne_state.orbitals[1]
    gram = np.array(
        [[inner(f1, f1), inner(f1, f2)], [inner(f2, f1), inner(f2, f2)]]
    )
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)


def test_neon_report_clean(ne_state):
    rep = theorem_report(ne_state)
    assert rep.regime == "Z > N-1"
    assert rep.clause_i and rep.clause_ii and rep.clause_iii
    assert rep.notes == ()
    assert rep.all_satisfied


def test_norms_never_exceed_one(he_state, ne_state, hminus_state, fminus_state):
    for state in (he_state, ne_state, hminus_state, fminus_state):
        assert np.all(state.norms <= 1.0 + 1e-10)


def test_hydride_saturates(hminus_state):
    # Z = N - 1: the norm fills even though the level is barely bound
    assert hminus_state.converged
    assert hminus_state.norms[0] == pytest.approx(1.0, abs=1e-6)
    rep = theorem_report(hminus_state)
    assert rep.regime == "Z = N-1"
    assert rep.clause_ii
    assert rep.clause_iii is None  # hypothesis Z > N-1 is vacuous here
    print(f"  hydride level (sign reported, not asserted): "
          f"{hminus_state.eigenvalues[0]:+.6f}")


def test_fluoride_analog_saturates(fminus_state):
    assert fminus_state.converged
    np.testing.assert_allclose(fminus_state.norms, 1.0, atol=1e-6)
    rep = theorem_report(fminus_state)
    assert rep.regime == "Z = N-1"
    assert rep.clause_ii
    levels = ", ".join(f"{e:+.6f}" for e in fminus_state.eigenvalues)
    print(f"  fluoride-analog levels (signs reported, not asserted): {levels}")


def test_spinless_ion_corollary(z3_setup):
    state, table = z3_setup
    assert state.converged
    rep = corollary_inequalities(state, table)
    assert rep.charge_matches
    assert rep.full_energy <= rep.single_orbital_bound == pytest.approx(-2.25)
    assert rep.energy_without_s >= rep.remainder_bound == pytest.approx(-27.0 / 16.0)
    assert rep.shell_condition_holds
    assert rep.bounds_separate
    assert rep.all_satisfied
    np.testing.assert_allclose(state.norms, 1.0, atol=1e-8)


def test_corollary_rejects_wrong_model(he_state):
    with pytest.raises(ValueError):
        corollary_inequalities(he_state)


# ---------------------------------------------------------------------------
# Occupation rules


def test_occupy_drops_positive_levels(he_grid):
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0)))
    eps, funcs = lowest_eigenpairs(hydrogenic_matrix(he_grid, 0, 2.0), 2)
    pairs = {(None, 0): (np.array([-0.5, 0.4]), funcs)}
    occ = occupy(config, pairs)
    assert occ.norms[0] == pytest.approx(1.0, abs=1e-10)
    assert occ.norms[1] == 0.0
    assert np.all(occ.orbitals[1].values == 0.0)
    assert occ.marginal == (False, False)


def test_occupy_flags_marginal_levels(he_grid):
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    eps, funcs = lowest_eigenpairs(hydrogenic_matrix(he_grid, 0, 2.0), 1)
    pairs = {(None, 0): (np.array([5e-9]), funcs)}
    occ = occupy(config, pairs)
    assert occ.marginal == (True,)
    assert occ.norms[0] == pytest.approx(1.0, abs=1e-10)


def test_occupy_requires_every_channel(he_grid):
    config = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1)))
    _, funcs = lowest_eigenpairs(hydrogenic_matrix(he_grid, 0, 2.0), 1)
    with pytest.raises(ValueError, match="missing eigenpairs"):
        occupy(config, {(None, 0): (np.array([-0.5]), funcs)})


# ---------------------------------------------------------------------------
# Solver plumbing


def test_default_grid_shape():
    he = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    g = make_default_grid(he)
    assert (g.kind, g.n, g.r_max) == ("uniform", 2000, 15.0)
    ne = Configuration(Z=10.0, model="rhf", shells=(ShellSpec(0),))
    assert (make_default_grid(ne).n, make_default_grid(ne).r_max) == (2000, 12.0)


def test_non_convergence_is_reported_not_raised():
    config = Configuration(
        Z=10.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    state = solve(
        config,
        make_grid("uniform", 400, 10.0),
        options=ScfOptions(max_iter=2),
    )
    assert not state.converged
    assert state.message != ""
    assert len(state.energy_trace) >= 1
    assert np.isfinite(state.energy)


def test_rejected_proposals_keep_the_trace_descending():
    # N = 10 at Z = 8: proposals that raise the energy are rejected and
    # the step halved until the solve converges or stalls at the step
    # floor; either way only accepted energies enter the trace, each at
    # most the acceptance slack of 1e-10 (1 + |E|) above the one before
    config = Configuration(
        Z=8.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    state = solve(config, make_grid("exponential", 600, 30.0))
    if state.converged:
        assert theorem_report(state).all_satisfied
    else:
        assert state.message == "stalled: damping floor reached without energy decrease"
        assert state.rejections >= 1
    trace = np.array(state.energy_trace)
    assert np.all(np.diff(trace) <= 1e-10 * (1.0 + np.abs(trace[:-1])))
    assert state.energy == trace[-1]


def test_factored_mix_equals_dense_mix(table400):
    g = table400.grid
    rng = np.random.default_rng(59)
    config = Configuration(
        Z=6.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )

    def dense(gammas):
        return {key: (V * c) @ V.conj().T for key, (V, c) in gammas.items()}

    field = mean_field(config, [random_orbital(rng, g, sh.l) for sh in config.shells])
    expected = dense(field[1])
    for alpha in (0.3, 0.15, 0.6, 0.45):
        target = mean_field(config, [random_orbital(rng, g, sh.l) for sh in config.shells])
        field = scf._mix(field, target, alpha)
        expected = {
            key: (1 - alpha) * gamma + alpha * dense(target[1])[key]
            for key, gamma in expected.items()
        }
        for key, gamma in dense(field[1]).items():
            assert np.max(np.abs(gamma - expected[key])) <= 1e-13 * np.max(np.abs(expected[key]))


# Neon in RHF and lithium in UHF: exchange in one or two spin channels.
_NEON_AND_LITHIUM = pytest.mark.parametrize(
    "config",
    [
        Configuration(Z=10.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))),
        Configuration(
            Z=3.0,
            model="uhf",
            shells=(ShellSpec(0, "alpha"), ShellSpec(0, "beta"), ShellSpec(0, "alpha")),
        ),
    ],
    ids=["neon-rhf", "lithium-uhf"],
)


@_NEON_AND_LITHIUM
def test_iterative_path_matches_dense_solve(config, monkeypatch):
    # the cutoff lowered below n sends every eigensolve with exchange to the
    # matrix-free apply; both paths match a solve whose every eigensolve is
    # scipy's dense solver
    grid = make_grid("exponential", 400, 30.0)
    dense = solve(config, grid)
    iterative = solve(config, grid, options=ScfOptions(dense_cutoff=100))
    monkeypatch.setattr(
        scf, "lowest_eigenpairs", lambda fock, count, *_, **__: eigh_pairs(fock, count)
    )
    reference = solve(config, grid)
    assert dense.converged and iterative.converged and reference.converged
    for a, b in ((iterative, dense), (iterative, reference), (dense, reference)):
        assert a.energy == pytest.approx(b.energy, rel=1e-10)
        assert (a.iterations, a.rejections) == (b.iterations, b.rejections)


@_NEON_AND_LITHIUM
def test_inexact_eigensolves_match_strict_solve(config, monkeypatch):
    # in-loop eigensolves that stop at a reduction of their warm-start
    # residual take the same steps to the same fixed point as strict ones
    grid = make_grid("exponential", 400, 30.0)
    inexact = solve(config, grid)
    real = scf.lowest_eigenpairs
    monkeypatch.setattr(
        scf, "lowest_eigenpairs", lambda *args, reduction=None, **kw: real(*args, **kw)
    )
    strict = solve(config, grid)
    assert inexact.converged and strict.converged
    assert (inexact.iterations, inexact.rejections) == (strict.iterations, strict.rejections)
    assert inexact.energy == pytest.approx(strict.energy, rel=1e-12)
    for state in (inexact, strict):
        assert state.residuals.max() <= ScfOptions().tol_residual


@pytest.mark.parametrize(
    "name, iterations, rejections",
    [("helium", 13, 0), ("neon", 20, 1), ("lithium_uhf", 22, 0)],
)
def test_example_configs_meet_iteration_gate(name, iterations, rejections):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    config, grid, options, _ = load_config(path)
    state = solve(config, grid, options=options)
    assert state.converged, state.message
    assert state.iterations <= iterations
    assert state.rejections <= rejections


def test_eigensolver_failure_is_reported_not_raised(monkeypatch, he_config):
    grid = make_grid("uniform", 400, 10.0)
    reference = solve(he_config, grid, options=ScfOptions(max_iter=2))
    real = scf.lowest_eigenpairs
    calls = []

    def fail_after(limit):
        def eigenpairs(*args, **kwargs):
            calls.append(1)
            if len(calls) > limit:
                raise EigensolverError("injected failure")
            return real(*args, **kwargs)

        return eigenpairs

    # the hydrogenic start and two iterations run; the third iteration fails
    # and the state accepted by the second is returned
    monkeypatch.setattr(scf, "lowest_eigenpairs", fail_after(3))
    state = solve(he_config, grid)
    assert not state.converged
    assert state.message == "eigensolver failed: injected failure"
    assert state.iterations == 3
    assert state.energy_trace == reference.energy_trace
    np.testing.assert_array_equal(state.orbitals[0].values, reference.orbitals[0].values)

    # a failure at the hydrogenic start leaves the empty state
    calls.clear()
    monkeypatch.setattr(scf, "lowest_eigenpairs", fail_after(0))
    empty = solve(he_config, grid)
    assert not empty.converged
    assert empty.message == "eigensolver failed: injected failure"
    assert empty.energy == 0.0
    assert empty.norms.tolist() == [0.0]


def test_solve_rejects_foreign_table(he_config, he_table):
    with pytest.raises(ValueError):
        solve(he_config, make_grid("uniform", 500, 10.0), he_table)


# ---------------------------------------------------------------------------
# Far-field probe mechanism


def test_bump_profile_shape(he_wide_grid):
    bump = make_bump(he_wide_grid, 10.0)
    r = he_wide_grid.points
    vals = bump.profile.values
    assert np.all(vals[(r <= 10.0) | (r >= 20.0)] == 0.0)
    assert vals[(r > 10.5) & (r < 19.5)].min() > 0.0
    assert bump.profile.norm() == pytest.approx(1.0, rel=1e-12)


def test_bump_requires_room(he_grid):
    with pytest.raises(ValueError, match="need r_max >= 60"):
        make_bump(he_grid, 30.0)  # he_grid extends to 15 only
    with pytest.raises(ValueError):
        make_bump(he_grid, -1.0)


def test_minimizer_probes_nonnegative_helium(he_wide_state, he_wide_table):
    results = probe_shell(
        he_wide_state, 0, [5.0, 10.0, 20.0, 40.0], 1.0, he_wide_table
    )
    for res in results:
        assert res.coefficient >= -1e-6


def test_minimizer_probes_nonnegative_neon(ne_wide_state, ne_wide_table):
    for shell in range(3):
        for res in probe_shell(ne_wide_state, shell, [5.0, 10.0, 20.0], 1.0,
                               ne_wide_table):
            assert res.coefficient >= -1e-6


def test_depleted_shell_admits_descent_direction(depleted_state, he_wide_table):
    results = probe_shell(depleted_state, 0, [5.0, 10.0, 20.0, 40.0], 0.0,
                          he_wide_table)
    coeffs = {res.R: res.coefficient for res in results}
    assert min(coeffs.values()) < -1e-3  # some R exposes the descent
    # structure: self-repulsion dominates near the shell, the unscreened
    # tail of the nuclear attraction wins far out
    assert coeffs[10.0] > 1e-3
    assert coeffs[40.0] < -1e-3


def test_lambda_term_is_exact_on_converged_state(he_state, he_table):
    # the two paths differ only through the -lam * 2 (2l+1) <f|H|f> term,
    # which at an eigenfunction is -lam * 2 (2l+1) eps ||f||^2; the state
    # satisfies its Fock equation to tol_residual, which caps the agreement
    res0 = probe_shell(he_state, 0, [5.0], 0.0, he_table)[0]
    res1 = probe_shell(he_state, 0, [5.0], 1.0, he_table)[0]
    expected = 2.0 * 1.0 * he_state.eigenvalues[0] * he_state.norms[0] ** 2
    assert res0.coefficient - res1.coefficient == pytest.approx(expected, abs=1e-5)


def test_probe_rejects_unrestricted_states(z3_setup):
    state, table = z3_setup
    with pytest.raises(ValueError):
        probe_shell(state, 0, [5.0], 1.0, table)


def test_probe_rejects_bad_shell_index(he_state, he_table):
    with pytest.raises(ValueError):
        probe_shell(he_state, 3, [5.0], 1.0, he_table)


def test_first_order_vanishes_at_minimizer(he_state, he_grid, he_table):
    # the first variation along the orthogonalized bump is zero at a
    # converged minimizer (Euler-Lagrange; the bump is orthogonal to f)
    h_vals = make_bump(he_grid, 5.0).profile.values.copy()
    f = he_state.orbitals[0]
    overlap = float(np.sum(he_grid.weights * f.values * h_vals)) / f.norm() ** 2
    h_vals -= overlap * f.values
    h = RadialFunction(he_grid, h_vals)
    h = RadialFunction(he_grid, h_vals / h.norm())
    c1 = first_order_coefficient(
        he_state.config, list(he_state.orbitals), he_table, 0, h
    )
    assert abs(c1) < 1e-5
