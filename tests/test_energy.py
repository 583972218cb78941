"""Energy functionals: closed forms, exact identities, Taylor structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from radialhf import (
    ALPHA,
    BETA,
    Configuration,
    RadialFunction,
    ShellSpec,
    build_coefficient_table,
    build_kernel_table,
    decompose_shell,
    energy,
    field_energy,
    first_order_coefficient,
    fock_matrix,
    lower_bound,
    mean_field,
    rhf_energy,
    second_order_coefficient,
    total_energy,
    make_grid,
    uhf_energy,
)
from util import (
    dense_exchange_energy,
    random_config,
    random_orbital,
    random_orbital_set,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2026)


# ---------------------------------------------------------------------------
# Closed forms and trivial inputs


def test_helium_exponential_trial_energy(he_config, he_grid, he_table):
    # E(a) = 2 a^2 - (27/8) a for f = 2 a^{3/2} r e^{-a r}; the minimum
    # over a sits at a = 27/32 with value -729/512.
    for a in (0.7, 27.0 / 32.0, 1.1):
        f = RadialFunction(
            he_grid, 2.0 * a**1.5 * he_grid.points * np.exp(-a * he_grid.points)
        )
        expected = 2.0 * a * a - 27.0 * a / 8.0
        assert rhf_energy(he_config, [f], he_table).total == pytest.approx(
            expected, abs=2e-4
        )
    a_best = 27.0 / 32.0
    f_best = RadialFunction(
        he_grid, 2.0 * a_best**1.5 * he_grid.points * np.exp(-a_best * he_grid.points)
    )
    assert rhf_energy(he_config, [f_best], he_table).total == pytest.approx(
        -729.0 / 512.0, abs=2e-4
    )


def test_zero_orbitals_have_zero_energy(grid300, table300):
    # the configuration without shells is what decompose_shell leaves of helium
    for shells in ((ShellSpec(0), ShellSpec(1)), ()):
        config = Configuration(Z=3.0, model="rhf", shells=shells)
        zeros = [RadialFunction(grid300, np.zeros(grid300.n)) for _ in shells]
        bd = rhf_energy(config, zeros, table300)
        assert (bd.kinetic, bd.attraction, bd.direct, bd.exchange) == (0, 0, 0, 0)
        assert bd.total == 0.0


def test_breakdown_signs_and_total(grid300, table300, rng):
    for _ in range(20):
        config = random_config(rng)
        orbs = random_orbital_set(rng, grid300, config)
        bd = rhf_energy(config, orbs, table300)
        assert bd.kinetic > 0
        assert bd.attraction < 0
        assert 0 <= bd.exchange <= bd.direct * (1 + 1e-12)
        assert bd.total == pytest.approx(
            bd.kinetic + bd.attraction + bd.direct - bd.exchange, rel=1e-14
        )


def test_total_energy_dispatches_on_model(grid300, table300, rng):
    cfg_r = Configuration(Z=4.0, model="rhf", shells=(ShellSpec(0),))
    orbs = random_orbital_set(rng, grid300, cfg_r)
    assert total_energy(cfg_r, orbs, table300).total == pytest.approx(
        rhf_energy(cfg_r, orbs, table300).total, rel=1e-15
    )
    cfg_u = Configuration(Z=4.0, model="uhf", shells=(ShellSpec(0, "alpha"),))
    assert total_energy(cfg_u, orbs, table300).total == pytest.approx(
        uhf_energy(cfg_u, orbs, table300).total, rel=1e-15
    )


def test_model_mismatch_rejected(grid300, table300, rng):
    cfg_u = Configuration(Z=4.0, model="uhf", shells=(ShellSpec(0, "alpha"),))
    orbs = random_orbital_set(rng, grid300, cfg_u)
    with pytest.raises(ValueError):
        rhf_energy(cfg_u, orbs, table300)
    cfg_r = Configuration(Z=4.0, model="rhf", shells=(ShellSpec(0),))
    with pytest.raises(ValueError):
        uhf_energy(cfg_r, orbs, table300)


# ---------------------------------------------------------------------------
# Exact identities


def test_spin_paired_unrestricted_equals_restricted(grid300, table300, rng):
    cfg_r = Configuration(Z=4.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1)))
    cfg_u = Configuration(
        Z=4.0,
        model="uhf",
        shells=(
            ShellSpec(0, "alpha"),
            ShellSpec(1, "alpha"),
            ShellSpec(0, "beta"),
            ShellSpec(1, "beta"),
        ),
    )
    for _ in range(10):
        orbs = random_orbital_set(rng, grid300, cfg_r)
        e_r = rhf_energy(cfg_r, orbs, table300).total
        e_u = uhf_energy(cfg_u, orbs + orbs, table300).total
        assert e_u == pytest.approx(e_r, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "exponential"])
@pytest.mark.parametrize("model", ["rhf", "uhf"])
def test_exchange_energy_matches_dense_form(kind, model):
    # the prefix-sum pair sums equal sum w_j w_k a U conj(a) on complex,
    # non-orthogonal orbitals, for every (l, l') <= 2
    rng = np.random.default_rng(404)
    g = make_grid(kind, 500, 25.0)
    table = build_kernel_table(g, build_coefficient_table(2))
    if model == "rhf":
        shells = tuple(ShellSpec(l) for l in (0, 1, 2, 0))
    else:
        shells = tuple(ShellSpec(l, ALPHA) for l in (0, 1, 2)) + tuple(
            ShellSpec(l, BETA) for l in (2, 0, 1, 1)
        )
    config = Configuration(Z=6.0, model=model, shells=shells)
    for _ in range(3):
        orbs = [
            RadialFunction(
                g, f.values * np.exp(1j * rng.uniform(-2, 2) * np.tanh(g.points))
            )
            for f in random_orbital_set(rng, g, config)
        ]
        dense = dense_exchange_energy(config, orbs, table)
        assert dense > 0
        assert abs(total_energy(config, orbs, table).exchange - dense) <= 1e-13 * dense


@pytest.mark.parametrize("model", ["rhf", "uhf"])
def test_field_energy_is_quadratic_along_a_segment(model, monkeypatch):
    # the mixed field (1 - t) A + t B stacks both fields' factors with
    # weights (1 - t, t); its energy is a quadratic in t, priced with one
    # exchange apply per unordered same-spin pair of channels
    rng = np.random.default_rng(17)
    g = make_grid("exponential", 200, 20.0)
    table = build_kernel_table(g, build_coefficient_table(1))
    if model == "rhf":
        shells = (ShellSpec(0), ShellSpec(0), ShellSpec(1))
        pairs = 3  # (0, 0), (0, 1), (1, 1)
    else:
        shells = (ShellSpec(0, ALPHA), ShellSpec(1, ALPHA), ShellSpec(0, BETA))
        pairs = 4  # alpha (0, 0), (0, 1), (1, 1); beta (0, 0)
    config = Configuration(Z=10.0, model=model, shells=shells)
    orbs_a, orbs_b = (random_orbital_set(rng, g, config) for _ in range(2))
    (rho_a, gam_a), (rho_b, gam_b) = mean_field(config, orbs_a), mean_field(config, orbs_b)

    def mixed(t):
        return (1 - t) * rho_a + t * rho_b, {
            key: (np.hstack([V, gam_b[key][0]]), np.concatenate([(1 - t) * c, t * gam_b[key][1]]))
            for key, (V, c) in gam_a.items()
        }

    calls = []
    counted = energy.exchange_apply
    monkeypatch.setattr(energy, "exchange_apply", lambda *a: calls.append(a[1:3]) or counted(*a))
    E = {t: field_energy(config, table, mixed(t)).total for t in (0.0, 0.25, 0.5, 0.75, 1.0)}
    assert len(calls) == 5 * pairs
    assert len(set(calls)) == len({tuple(sorted(c)) for c in calls})  # one order per pair
    monkeypatch.undo()
    for t, orbs in ((0.0, orbs_a), (1.0, orbs_b)):
        assert E[t] == pytest.approx(total_energy(config, orbs, table).total, rel=1e-13)
    # the quadratic through t = 0, 1/2, 1, evaluated at 1/4 and 3/4
    for t, w in ((0.25, (3 / 8, 3 / 4, -1 / 8)), (0.75, (-1 / 8, 3 / 4, 3 / 8))):
        fit = w[0] * E[0.0] + w[1] * E[0.5] + w[2] * E[1.0]
        assert abs(E[t] - fit) <= 1e-12 * abs(E[t])


def test_global_phase_invariance(grid300, table300, rng):
    config = Configuration(Z=5.0, model="rhf", shells=(ShellSpec(0), ShellSpec(2)))
    orbs = random_orbital_set(rng, grid300, config)
    e0 = rhf_energy(config, orbs, table300).total
    rotated = [
        RadialFunction(grid300, f.values * np.exp(1j * phi))
        for f, phi in zip(orbs, (0.3, -1.9))
    ]
    assert rhf_energy(config, rotated, table300).total == pytest.approx(
        e0, rel=1e-12
    )


def test_unitary_mixing_invariance(grid300, table300, rng):
    # mixing orbitals of equal angular momentum by any unitary leaves the
    # restricted energy unchanged
    config = Configuration(
        Z=6.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    worst = 0.0
    for _ in range(50):
        orbs = random_orbital_set(rng, grid300, config, norm_value=1.0)
        e0 = rhf_energy(config, orbs, table300).total
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        mixed = list(orbs)
        mixed[0] = RadialFunction(
            grid300, u[0, 0] * orbs[0].values + u[0, 1] * orbs[1].values
        )
        mixed[1] = RadialFunction(
            grid300, u[1, 0] * orbs[0].values + u[1, 1] * orbs[1].values
        )
        e1 = rhf_energy(config, mixed, table300).total
        worst = max(worst, abs(e1 - e0) / max(1.0, abs(e0)))
    assert worst <= 1e-10


def test_shell_decomposition_identity(grid300, table300, rng):
    # without + single_particle + self_pair reproduces the total exactly
    for _ in range(100):
        config = random_config(rng, max_shells=4, max_l=2, Z=float(rng.uniform(2, 9)))
        orbs = random_orbital_set(rng, grid300, config)
        total = rhf_energy(config, orbs, table300).total
        i = int(rng.integers(0, config.n_shells))
        dec = decompose_shell(config, orbs, table300, i)
        assert dec.total == pytest.approx(total, rel=1e-10, abs=1e-12)
        assert dec.without + dec.single_particle + dec.self_pair == pytest.approx(
            total, rel=1e-10, abs=1e-12
        )


def test_decomposition_of_empty_shell(grid300, table300, rng):
    config = Configuration(Z=4.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1)))
    orbs = random_orbital_set(rng, grid300, config)
    orbs[1] = RadialFunction(grid300, np.zeros(grid300.n))
    full = rhf_energy(config, orbs, table300).total
    dec = decompose_shell(config, orbs, table300, 1)
    assert dec.without == pytest.approx(full, rel=1e-12)
    assert dec.single_particle == 0.0
    assert dec.self_pair == 0.0


# ---------------------------------------------------------------------------
# Taylor structure of shell perturbations


def _normalized_direction(grid, rng, l=0, complex_phase=False):
    vals = grid.points ** (l + 1) * np.exp(-rng.uniform(0.8, 1.4) * grid.points)
    if complex_phase:
        vals = vals * np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = RadialFunction(grid, vals)
    return RadialFunction(grid, vals / f.norm())


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("complex_phase", [False, True])
def test_second_order_taylor_remainder(grid300, table300, rng, lam, complex_phase):
    config = Configuration(
        Z=5.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    orbs = random_orbital_set(rng, grid300, config)
    h = _normalized_direction(grid300, rng, l=0, complex_phase=complex_phase)
    e0 = rhf_energy(config, orbs, table300).total
    c1 = first_order_coefficient(config, orbs, table300, 1, h)
    c2 = second_order_coefficient(config, orbs, table300, 1, h, lam)
    remainders = []
    for d in (1e-2, 5e-3):
        scale = math.sqrt(1.0 + lam * d * d)
        pert = list(orbs)
        pert[1] = RadialFunction(grid300, (orbs[1].values + d * h.values) / scale)
        e_d = rhf_energy(config, pert, table300).total
        remainders.append(abs(e_d - e0 - d * c1 - d * d * c2))
    assert remainders[0] / max(remainders[1], 1e-18) >= 7.0


@pytest.mark.parametrize("complex_phase", [False, True])
def test_self_pair_terms_match_dense_kernel(grid300, table300, rng, complex_phase):
    # the O(n) kernel apply against the sampled P = (2l+1)(2/max - U_ll)
    config = Configuration(
        Z=5.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1), ShellSpec(1))
    )
    orbs = random_orbital_set(rng, grid300, config)
    w = grid300.weights
    for i, lam in ((0, 1.0), (2, 0.0)):
        l_i, c_i, f_i = config.shells[i].l, config.shell_weight(i), orbs[i]
        h = _normalized_direction(grid300, rng, l=l_i, complex_phase=complex_phase)
        pmat = c_i * (2.0 * table300.direct - table300.exchange(l_i, l_i))
        v = w * np.conj(h.values) * f_i.values
        a = w * np.abs(f_i.values) ** 2
        fock_i = fock_matrix(table300, config, (None, l_i), *mean_field(config, orbs, drop=i))
        fock = fock_matrix(table300, config, (None, l_i), *mean_field(config, orbs))
        expected = 2.0 * c_i * (
            fock_i.bilinear(h, h).real
            - lam * fock.bilinear(f_i, f_i).real
            + (v @ pmat @ v).real
            + (a @ pmat @ (w * np.abs(h.values) ** 2)).real
            + (v @ pmat @ np.conj(v)).real
        )
        got = second_order_coefficient(config, orbs, table300, i, h, lam)
        assert got == pytest.approx(expected, rel=1e-12)
        self_pair = decompose_shell(config, orbs, table300, i).self_pair
        assert self_pair == pytest.approx(c_i * (a @ pmat @ a), rel=1e-12)


def test_second_order_with_zero_direction(grid300, table300, rng):
    # h = 0: the norm-correction part alone survives,
    # -lam * 2 (2 l_i + 1) <f_i| H^(i) |f_i> with H^(i) the shell-dropped operator
    config = Configuration(Z=5.0, model="rhf", shells=(ShellSpec(0), ShellSpec(1)))
    orbs = random_orbital_set(rng, grid300, config)
    zero = RadialFunction(grid300, np.zeros(grid300.n))
    assert second_order_coefficient(config, orbs, table300, 0, zero, 0.0) == 0.0
    val = second_order_coefficient(config, orbs, table300, 0, zero, 1.0)
    d = 1e-4
    e0 = rhf_energy(config, orbs, table300).total
    pert = list(orbs)
    pert[0] = RadialFunction(grid300, orbs[0].values / math.sqrt(1.0 + d * d))
    e_d = rhf_energy(config, pert, table300).total
    assert e_d - e0 == pytest.approx(d * d * val, rel=1e-4, abs=1e-12)


def test_first_order_vanishes_at_scaling_optimum(he_config, he_grid, he_table):
    # at the optimal exponential trial the derivative along the profile
    # family direction is zero up to discretization
    a = 27.0 / 32.0
    vals = 2.0 * a**1.5 * he_grid.points * np.exp(-a * he_grid.points)
    f = RadialFunction(he_grid, vals)
    # direction: d/da of the trial family, normalized
    dvals = (1.5 / a - he_grid.points) * vals
    h = RadialFunction(he_grid, dvals)
    h = RadialFunction(he_grid, dvals / h.norm())
    c1 = first_order_coefficient(he_config, [f], he_table, 0, h)
    assert abs(c1) < 5e-4


# ---------------------------------------------------------------------------
# Variational lower bound


def test_lower_bound_sits_below_energy(grid300, table300, rng):
    for _ in range(50):
        config = random_config(rng, max_shells=3, max_l=2)
        orbs = random_orbital_set(rng, grid300, config)
        e0 = rhf_energy(config, orbs, table300).total
        for eps in (0.05, 0.2, 1.0 / config.Z, 1.0):
            assert lower_bound(config, orbs, eps) <= e0 + 1e-10


def test_lower_bound_of_zero_orbitals(grid300, rng):
    config = Configuration(Z=3.0, model="rhf", shells=(ShellSpec(0),))
    zeros = [RadialFunction(grid300, np.zeros(grid300.n))]
    assert lower_bound(config, zeros, 0.5) == 0.0


def test_lower_bound_rejects_bad_eps(grid300, rng):
    config = Configuration(Z=3.0, model="rhf", shells=(ShellSpec(0),))
    orbs = random_orbital_set(rng, grid300, config)
    with pytest.raises(ValueError):
        lower_bound(config, orbs, 0.0)
