"""Named self-checks wiring the numerical claims to runnable evidence.

Every check is independent of the code path it validates wherever that
is possible: kernel coefficients are compared against direct Legendre
quadrature, energies against closed forms of analytic trial orbitals,
eigenvalues against exact hydrogenic levels, bounds against sampled
random functions.  ``run_checks("quick")`` covers the algebra and
operator layers in well under a minute; ``"full"`` adds the
self-consistent scenarios (helium, hydride, neon, the spin-polarized
negative ion) and the far-field probes.

The tamper check deliberately corrupts one angular coefficient and
demands that the quadrature cross-check localize the damaged ``(l, l',
k)`` triple — evidence the validation would actually catch a wrong
table, not merely agree with it.
"""

from __future__ import annotations

import math
import os
import tempfile
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
from .configuration import ALPHA, Configuration, ShellSpec
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
    coulomb_expectation,
    derivative_sq_norm,
    kinetic_quadratic_form,
    make_grid,
    radial_expectation,
)
from .kernels import (
    apply_direct_kernel,
    apply_exchange_kernel,
    build_kernel_table,
    load_kernel_table,
    oracle_u_kernel,
    p_kernel,
    save_kernel_table,
    u_kernel,
)
from .operators import fock_matrix, hydrogenic_matrix, lowest_eigenpairs, mean_field
from .scf import (
    ScfState,
    corollary_inequalities,
    make_bump,
    occupy,
    probe_shell,
    solve,
    theorem_report,
)

__all__ = ["CheckResult", "run_checks", "scan_coefficient_table"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _ok(name: str, detail: str = "") -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _bounded(name: str, err: float, tol: float, note: str = "") -> CheckResult:
    detail = f"max error {err:.3e} (tol {tol:.1e})"
    if note:
        detail += f"; {note}"
    return CheckResult(name, err <= tol, detail)


# ---------------------------------------------------------------------------
# Angular layer


def scan_coefficient_table(
    table: CoefficientTable, tol: float = 1e-10
) -> list[tuple[int, int, int, float]]:
    """Cross-check every stored coefficient against Legendre quadrature.

    Returns the offending ``(l, l', k, |difference|)`` entries, empty
    when the table is sound.  This is the detection routine behind the
    tamper check.
    """
    bad = []
    for l in range(table.max_l + 1):
        for lp in range(l, table.max_l + 1):
            for k in table.k_range(l, lp):
                stored = table.coeff(l, lp, k)
                ref = legendre_triple_product(l, lp, k)
                if abs(stored - ref) > tol:
                    bad.append((l, lp, k, abs(stored - ref)))
    return bad


def _angular_checks() -> list[CheckResult]:
    out = []

    known = {
        (0, 0, 0): 1.0,
        (1, 1, 0): 1.0 / 3.0,
        (0, 1, 1): 1.0 / 3.0,
        (3, 3, 0): 1.0 / 7.0,
        (1, 1, 2): 2.0 / 15.0,
        (2, 2, 2): 2.0 / 35.0,
    }
    err = max(abs(wigner3j_zero_squared(*t) - v) for t, v in known.items())
    out.append(_bounded("angular/known-values", err, 1e-13))

    bad = []
    for l1 in range(11):
        for l2 in range(11):
            for l3 in range(11):
                v = wigner3j_zero_squared(l1, l2, l3)
                violates = (l1 + l2 + l3) % 2 == 1 or not (
                    abs(l1 - l2) <= l3 <= l1 + l2
                )
                if violates and v != 0.0:
                    bad.append((l1, l2, l3))
                if not violates and v <= 0.0:
                    bad.append((l1, l2, l3))
    out.append(
        _ok("angular/parity-zeros", "odd-sum and non-triangle entries vanish, l <= 10")
        if not bad
        else _fail("angular/parity-zeros", f"violations at {bad[:3]}")
    )

    err = 0.0
    for l in range(7):
        for lp in range(7):
            total = sum(
                (2 * k + 1) * wigner3j_zero_squared(l, lp, k)
                for k in range(abs(l - lp), l + lp + 1)
            )
            err = max(err, abs(total - 1.0))
    out.append(_bounded("angular/orthogonality", err, 1e-12, "sum (2k+1) w = 1"))

    err = 0.0
    for l in range(6):
        for lp in range(6):
            for k in range(abs(l - lp), l + lp + 1, 2):
                err = max(
                    err,
                    abs(
                        wigner3j_zero_squared(l, lp, k)
                        - legendre_triple_product(l, lp, k)
                    ),
                )
    out.append(
        _bounded("angular/quadrature-match", err, 1e-12, "closed form vs quadrature")
    )

    t = np.linspace(-1.0, 1.0, 41)
    err = 0.0
    for n in range(2, 16):
        lhs = (n + 1) * legendre_p(n + 1, t)
        rhs = (2 * n + 1) * t * legendre_p(n, t) - n * legendre_p(n - 1, t)
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    out.append(_bounded("angular/legendre-recurrence", err, 1e-13))

    return out


# ---------------------------------------------------------------------------
# Grid layer


def _grid_checks() -> list[CheckResult]:
    out = []

    g = make_grid("uniform", 500, 1.0)
    h = g.r_max / (g.n + 1)
    total = float(np.sum(g.weights * g.points))
    # With interior-only sampling the rule misses the right boundary
    # triangle exactly: the discrete sum is 1/2 - h/2 in closed form.
    out.append(
        _bounded(
            "grid/quadrature-linear",
            abs(total - (0.5 - 0.5 * h)),
            1e-14,
            "boundary convention exact",
        )
    )

    g = make_grid("uniform", 3000, 30.0)
    a = 1.3
    f = RadialFunction(g, 2.0 * a**1.5 * g.points * np.exp(-a * g.points))
    errs = [
        abs(f.norm() - 1.0),
        abs(kinetic_quadratic_form(f, 0) - a * a),
        abs(coulomb_expectation(f) - a),
    ]
    out.append(
        _bounded("grid/hydrogenic-closed-forms", max(errs), 5e-4, "norm, kinetic, 1/r")
    )

    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(40):
        aa = rng.uniform(0.4, 2.5)
        c1, c2 = rng.uniform(-1, 1, 2)
        vals = (c1 * g.points + c2 * g.points**2) * np.exp(-aa * g.points)
        f = RadialFunction(g, vals)
        lhs = radial_expectation(f, 1.0 / g.points**2)
        rhs = 4.0 * derivative_sq_norm(f)
        worst = max(worst, lhs - rhs * (1 + 1e-12))
    out.append(
        _ok("grid/hardy-inequality", "<f, r^-2 f> <= 4 |f'|^2 on 40 samples")
        if worst <= 1e-12
        else _fail("grid/hardy-inequality", f"violated by {worst:.3e}")
    )

    worst = -np.inf
    for _ in range(40):
        aa = rng.uniform(0.4, 2.5)
        vals = g.points * np.exp(-aa * g.points)
        f = RadialFunction(g, vals)
        for eps in (0.1, 1.0, 10.0):
            lhs = coulomb_expectation(f)
            rhs = eps * derivative_sq_norm(f) + f.norm() ** 2 / eps
            worst = max(worst, lhs - rhs)
    out.append(
        _ok("grid/coulomb-split-bound", "<f, f/r> <= e|f'|^2 + |f|^2/e")
        if worst <= 1e-12
        else _fail("grid/coulomb-split-bound", f"violated by {worst:.3e}")
    )

    return out


# ---------------------------------------------------------------------------
# Kernel layer


def _kernel_checks() -> list[CheckResult]:
    out = []
    coeffs = build_coefficient_table(3)

    specials = [
        (0, 0, 2.0, 3.0, 1.0 / 3.0),
        (0, 1, 1.0, 2.0, 1.0 / 12.0),
        (1, 1, 1.0, 1.0, 7.0 / 15.0),
    ]
    err = max(abs(u_kernel(l, lp, r, s, coeffs) - v) for l, lp, r, s, v in specials)
    out.append(_bounded("kernels/u-special-values", err, 1e-13))

    rng = np.random.default_rng(11)
    bad = None
    for _ in range(200):
        r, s = rng.uniform(0.05, 20.0, 2)
        l, lp = rng.integers(0, 4, 2)
        v = u_kernel(int(l), int(lp), r, s, coeffs)
        hi = max(r, s)
        if not (-1e-15 <= v <= 1.0 / hi + 1e-12):
            bad = f"U({l},{lp},{r:.3f},{s:.3f}) = {v}"
            break
        if l == lp and v < 1.0 / ((2 * l + 1) * hi) - 1e-12:
            bad = f"diagonal floor violated at ({l},{r:.3f},{s:.3f})"
            break
    out.append(
        _ok("kernels/u-bounds", "0 <= U <= 1/max; diagonal >= 1/((2l+1) max)")
        if bad is None
        else _fail("kernels/u-bounds", bad)
    )

    err = 0.0
    for _ in range(100):
        r, s = rng.uniform(0.05, 20.0, 2)
        l, lp = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        err = max(
            err,
            abs(u_kernel(l, lp, r, s, coeffs) - u_kernel(lp, l, r, s, coeffs)),
            abs(u_kernel(l, lp, r, s, coeffs) - u_kernel(l, lp, s, r, coeffs)),
        )
    out.append(_bounded("kernels/u-symmetry", err, 1e-15, "l<->l' and r<->s"))

    err = 0.0
    for l, lp in ((0, 0), (0, 1), (1, 1), (2, 3)):
        for r in (0.3, 1.0, 4.0):
            for s in (0.5, 1.0, 7.0):
                err = max(
                    err,
                    abs(
                        u_kernel(l, lp, r, s, coeffs)
                        - oracle_u_kernel(l, lp, r, s)
                    ),
                )
    out.append(
        _bounded("kernels/oracle-agreement", err, 1e-9, "direct sphere-average quadrature")
    )

    bad = None
    err = abs(p_kernel(0, 1.0, 2.0, coeffs) - 0.5)
    for _ in range(100):
        r, s = rng.uniform(0.05, 20.0, 2)
        l = int(rng.integers(0, 4))
        v = p_kernel(l, r, s, coeffs)
        hi = max(r, s)
        if not ((2 * l + 1) / hi - 1e-12 <= v <= (4 * l + 1) / hi + 1e-12):
            bad = f"P({l},{r:.3f},{s:.3f}) = {v} outside [(2l+1)/max, (4l+1)/max]"
            break
    err = max(err, abs(p_kernel(1, 1.0, 1.0, coeffs) - 23.0 / 5.0))
    out.append(
        _bounded("kernels/self-pair-bounds", err, 1e-13)
        if bad is None
        else _fail("kernels/self-pair-bounds", bad)
    )

    g = make_grid("uniform", 160, 10.0)
    table = build_kernel_table(g, coeffs, max_l=2)
    worst = 0.0
    for l in range(3):
        m = table.exchange(l, l)
        lam = float(np.linalg.eigvalsh(m)[0])
        worst = min(worst, lam / float(np.max(np.abs(m))))
    out.append(
        _ok("kernels/positive-semidefinite", "same-channel kernel matrices PSD")
        if worst >= -1e-10
        else _fail("kernels/positive-semidefinite", f"relative eigenvalue {worst:.3e}")
    )

    rho = g.points**2 * np.exp(-g.points)
    fast = apply_direct_kernel(g, rho)
    dense = table.direct @ (g.weights * rho)
    out.append(
        _bounded(
            "kernels/direct-prefix-sums",
            float(np.max(np.abs(fast - dense))),
            1e-12 * float(np.max(np.abs(dense))),
            "prefix sums vs dense product",
        )
    )

    y = np.exp(-g.points)[:, None] * rng.standard_normal((g.n, 2)) * np.array([1.0, 1.0j])
    err = 0.0
    for l in range(3):
        for lp in range(3):
            dense = table.exchange(l, lp) @ y
            fast = apply_exchange_kernel(table, l, lp, y)
            err = max(err, float(np.linalg.norm(fast - dense) / np.linalg.norm(dense)))
    out.append(
        _bounded(
            "kernels/exchange-apply", err, 1e-13, "prefix sums vs dense table, l, l' <= 2"
        )
    )

    fd, path = tempfile.mkstemp(suffix=".ktbl")
    os.close(fd)
    try:
        save_kernel_table(table, path)
        loaded = load_kernel_table(path, g)
        err = float(np.max(np.abs(loaded.exchange(1, 2) - table.exchange(1, 2))))
        err = max(err, float(np.max(np.abs(loaded.direct - table.direct))))
        other = make_grid("uniform", 160, 11.0)
        try:
            load_kernel_table(path, other)
            out.append(_fail("kernels/cache-roundtrip", "grid mismatch not rejected"))
        except ValueError:
            out.append(
                _bounded("kernels/cache-roundtrip", err, 0.0, "bitwise; mismatch rejected")
            )
    finally:
        os.unlink(path)

    # Tamper detection: corrupt one angular coefficient and require the
    # quadrature scan to localize exactly that triple.
    tampered = dict(coeffs._data)
    target = (1, 1, 2)
    tampered[target] = tampered[target] * 1.02
    bad_table = CoefficientTable(max_l=coeffs.max_l, _data=tampered)
    clean_hits = scan_coefficient_table(coeffs)
    tampered_hits = scan_coefficient_table(bad_table)
    if clean_hits:
        out.append(
            _fail("kernels/tamper-detection", f"false positives on clean table: {clean_hits[:2]}")
        )
    elif len(tampered_hits) == 1 and tampered_hits[0][:3] == target:
        l, lp, k, d = tampered_hits[0]
        out.append(
            _ok(
                "kernels/tamper-detection",
                f"seeded corruption localized at (l={l}, l'={lp}, k={k}), off by {d:.2e}",
            )
        )
    else:
        out.append(
            _fail(
                "kernels/tamper-detection",
                f"expected exactly {target}, scan returned {tampered_hits[:3]}",
            )
        )

    return out


# ---------------------------------------------------------------------------
# Operator layer


def _operator_checks() -> list[CheckResult]:
    out = []

    g = make_grid("uniform", 2000, 40.0)
    h0 = hydrogenic_matrix(g, 0, 1.0)
    eps0, vecs0 = lowest_eigenpairs(h0, 2)
    h1 = hydrogenic_matrix(g, 1, 1.0)
    eps1, _ = lowest_eigenpairs(h1, 1)
    err = max(
        abs(eps0[0] + 0.25),
        abs(eps0[1] + 0.0625),
        abs(eps1[0] + 0.0625),
    )
    out.append(
        _bounded("operators/hydrogen-spectrum", err, 5e-4, "-Z^2/(4 n^2) levels")
    )

    gram = np.array(
        [
            [float(np.sum(g.weights * a.values * b.values)) for b in vecs0]
            for a in vecs0
        ]
    )
    out.append(
        _bounded(
            "operators/eigenvector-orthonormality",
            float(np.max(np.abs(gram - np.eye(2)))),
            1e-10,
        )
    )

    err = 0.0
    for rank in range(2):
        f = vecs0[rank]
        q = h0.bilinear(f, f)
        direct = kinetic_quadratic_form(f, 0) - radial_expectation(
            f, 1.0 / g.points
        )
        err = max(err, abs(q - direct), abs(q - eps0[rank]))
    out.append(
        _bounded(
            "operators/quadratic-form-consistency",
            err,
            1e-8,
            "matrix form vs assembled integrals vs eigenvalue",
        )
    )

    worst = 0.0
    gz = make_grid("uniform", 500, 25.0)
    for Z in (1.0, 2.0, 5.0):
        eps, _ = lowest_eigenpairs(hydrogenic_matrix(gz, 0, Z), 1)
        worst = min(worst, float(eps[0]) + Z * Z)
    out.append(
        _ok("operators/spectral-floor", "lowest eigenvalue >= -Z^2 (uniform grid)")
        if worst >= -1e-9
        else _fail("operators/spectral-floor", f"floor violated by {worst:.3e}")
    )

    gk = make_grid("uniform", 400, 20.0)
    coeffs = build_coefficient_table(1)
    table = build_kernel_table(gk, coeffs, max_l=1)
    epsk, vecsk = lowest_eigenpairs(hydrogenic_matrix(gk, 0, 2.0), 1)
    cfg = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    rho, gammas = mean_field(cfg, vecsk)
    # The same operator without exchange; their difference is <f, K f>.
    no_exchange = fock_matrix(table, cfg, (None, 0), rho, {})
    fock = fock_matrix(table, cfg, (None, 0), rho, gammas)
    vmat = apply_direct_kernel(gk, rho)
    bad = None
    rng = np.random.default_rng(3)
    for _ in range(30):
        aa = rng.uniform(0.4, 2.0)
        f = RadialFunction(gk, gk.points * np.exp(-aa * gk.points))
        kq = no_exchange.bilinear(f, f) - fock.bilinear(f, f)
        vq = float(np.sum(gk.weights * vmat * f.values**2))
        if not (-1e-12 <= kq <= vq + 1e-12):
            bad = f"<f,Kf> = {kq:.3e} outside [0, <f,Uf> = {vq:.3e}]"
            break
    out.append(
        _ok("operators/exchange-below-direct", "0 <= <f,Kf> <= <f,Uf> on 30 samples")
        if bad is None
        else _fail("operators/exchange-below-direct", bad)
    )

    gi = make_grid("uniform", 600, 20.0)
    ti = build_kernel_table(gi, coeffs, max_l=1)
    _, vecsi = lowest_eigenpairs(hydrogenic_matrix(gi, 0, 2.0), 1)
    focki = fock_matrix(ti, cfg, (None, 0), *mean_field(cfg, vecsi))
    eps_d, vecs_d = lowest_eigenpairs(focki, 2)
    eps_i, vecs_i = lowest_eigenpairs(focki, 2, dense_cutoff=100)
    sqi = np.sqrt(gi.weights)
    iterative = eps_i, np.column_stack([sqi * f.values for f in vecs_i])
    dense = eps_d, np.column_stack([sqi * f.values for f in vecs_d])
    reference = sla.eigh(focki.matrix, subset_by_index=(0, 1))
    err = 0.0
    for (eps_a, u_a), (eps_b, u_b) in (
        (iterative, dense), (iterative, reference), (dense, reference)
    ):
        overlaps = np.abs(np.sum(u_a * u_b, axis=0))
        err = max(
            err, float(np.max(np.abs(eps_a - eps_b))), float(np.max(np.abs(overlaps - 1.0)))
        )
    out.append(
        _bounded(
            "operators/iterative-vs-dense",
            err,
            1e-9,
            "matrix-free and dense-apply LOBPCG vs scipy eigh, with exchange, n = 600",
        )
    )

    return out


# ---------------------------------------------------------------------------
# Energy layer


def _random_orbitals(config, g, rng, norm_scale=1.0):
    orbs = []
    for sh in config.shells:
        aa = rng.uniform(0.5, 2.0)
        vals = g.points ** (sh.l + 1) * np.exp(-aa * g.points) * (
            1.0 + 0.3 * rng.standard_normal() * g.points
        )
        f = RadialFunction(g, vals)
        orbs.append(RadialFunction(g, vals * (norm_scale / f.norm())))
    return orbs


def _energy_checks() -> list[CheckResult]:
    out = []
    g = make_grid("uniform", 1500, 20.0)
    coeffs = build_coefficient_table(2)
    table = build_kernel_table(g, coeffs, max_l=2)
    rng = np.random.default_rng(23)

    cfg_he = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    a = 27.0 / 32.0
    f = RadialFunction(g, 2.0 * a**1.5 * g.points * np.exp(-a * g.points))
    e = rhf_energy(cfg_he, [f], table).total
    out.append(
        _bounded(
            "energy/helium-trial-minimum",
            abs(e - (-729.0 / 512.0)),
            2e-4,
            "closed form 2a^2 - 27a/8 at a = 27/32",
        )
    )

    cfg = Configuration(
        Z=5.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    err = 0.0
    for _ in range(5):
        orbs = _random_orbitals(cfg, g, rng)
        total = rhf_energy(cfg, orbs, table).total
        for i in range(3):
            dec = decompose_shell(cfg, orbs, table, i)
            err = max(err, abs(dec.total - total) / max(1.0, abs(total)))
    out.append(
        _bounded("energy/shell-decomposition", err, 1e-10, "exact split, 15 cases")
    )

    orbs = _random_orbitals(cfg, g, rng)
    hv = g.points**2 * np.exp(-1.1 * g.points)
    hf = RadialFunction(g, hv / np.sqrt(np.sum(g.weights * hv * hv)))
    bad = None
    for lam in (0.0, 1.0):
        e0 = rhf_energy(cfg, orbs, table).total
        c1 = first_order_coefficient(cfg, orbs, table, 1, hf)
        c2 = second_order_coefficient(cfg, orbs, table, 1, hf, lam)
        rema = []
        for d in (1e-2, 5e-3):
            scale = math.sqrt(1.0 + lam * d * d)
            pert = list(orbs)
            pert[1] = RadialFunction(g, (orbs[1].values + d * hf.values) / scale)
            e_d = rhf_energy(cfg, pert, table).total
            rema.append(abs(e_d - e0 - d * c1 - d * d * c2))
        ratio = rema[0] / max(rema[1], 1e-18)
        if ratio < 6.0:
            bad = f"lam={lam}: remainder ratio {ratio:.2f} not cubic"
            break
    out.append(
        _ok("energy/second-order-taylor", "remainder scales as d^3 for lam in {0,1}")
        if bad is None
        else _fail("energy/second-order-taylor", bad)
    )

    orbs = _random_orbitals(cfg, g, rng)
    e0 = rhf_energy(cfg, orbs, table).total
    rot = list(orbs)
    rot[2] = RadialFunction(g, orbs[2].values * np.exp(1j * 0.77))
    e1 = rhf_energy(cfg, rot, table).total
    out.append(
        _bounded("energy/phase-invariance", abs(e1 - e0), 1e-10, "orbital phase gauge")
    )

    # Exchange energy by prefix sums against the dense kernel matrices:
    # (s/2) sum_{j,k} c_j c_k a U conj(a) with a = w conj(f_j) f_k.
    g_ne = make_grid("exponential", 600, 30.0)
    t_ne = build_kernel_table(g_ne, build_coefficient_table(1))
    cfg_ne = Configuration(
        Z=10.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    orbs = _random_orbitals(cfg_ne, g_ne, rng)
    orbs[2] = RadialFunction(g_ne, orbs[2].values * np.exp(0.4j * g_ne.points))
    dense = 0.0
    for j, sh_j in enumerate(cfg_ne.shells):
        for k, sh_k in enumerate(cfg_ne.shells):
            a = g_ne.weights * np.conj(orbs[j].values) * orbs[k].values
            u = t_ne.exchange(sh_j.l, sh_k.l)
            dense += (
                cfg_ne.shell_weight(j)
                * cfg_ne.shell_weight(k)
                * float(np.real(a @ u @ np.conj(a)))
            )
    dense *= 0.5 * cfg_ne.spin_factor
    fast = rhf_energy(cfg_ne, orbs, t_ne).exchange
    out.append(
        _bounded(
            "energy/exchange-apply",
            abs(fast - dense) / dense,
            1e-13,
            "prefix sums vs dense kernel, Ne at n = 600",
        )
    )

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
    err = 0.0
    for _ in range(5):
        orbs = _random_orbitals(cfg_r, g, rng)
        e_r = rhf_energy(cfg_r, orbs, table).total
        e_u = uhf_energy(cfg_u, orbs + orbs, table).total
        err = max(err, abs(e_r - e_u) / max(1.0, abs(e_r)))
    out.append(
        _bounded(
            "energy/pairing-identity",
            err,
            1e-12,
            "spin-paired unrestricted equals restricted",
        )
    )

    bad = None
    for _ in range(10):
        orbs = _random_orbitals(cfg, g, rng, norm_scale=rng.uniform(0.5, 1.0))
        e0 = rhf_energy(cfg, orbs, table).total
        for eps in (0.2, 0.5, 1.0):
            lb = lower_bound(cfg, orbs, eps)
            if lb > e0 + 1e-10:
                bad = f"bound {lb:.6f} above energy {e0:.6f} at eps={eps}"
                break
        if bad:
            break
    out.append(
        _ok("energy/kinetic-lower-bound", "holds on 10 random states x 3 eps")
        if bad is None
        else _fail("energy/kinetic-lower-bound", bad)
    )

    return out


# ---------------------------------------------------------------------------
# SCF layer


def _scf_quick_checks() -> list[CheckResult]:
    out = []

    g = make_grid("uniform", 600, 12.0)
    cfg = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    coeffs = build_coefficient_table(0)
    table = build_kernel_table(g, coeffs)
    state = solve(cfg, g, table)
    ok = (
        state.converged
        and -1.45 < state.energy < -1.40
        and abs(state.norms[0] - 1.0) < 1e-8
        and state.eigenvalues[0] < 0
    )
    out.append(
        _ok(
            "scf/helium-smoke",
            f"E = {state.energy:.6f}, eps = {state.eigenvalues[0]:.6f}, "
            f"{state.iterations} iterations",
        )
        if ok
        else _fail(
            "scf/helium-smoke",
            f"converged={state.converged} E={state.energy:.6f} message={state.message!r}",
        )
    )

    rep = theorem_report(state)
    out.append(
        _ok("scf/theorem-smoke", f"regime {rep.regime}, clauses clean")
        if rep.all_satisfied
        else _fail("scf/theorem-smoke", "; ".join(rep.notes))
    )

    probes = probe_shell(state, 0, [4.0], lam=1.0, table=table)
    out.append(
        _ok(
            "scf/minimality-probe",
            f"norm-preserving curvature {probes[0].coefficient:+.4e} at R = 4",
        )
        if probes[0].coefficient >= -1e-6
        else _fail(
            "scf/minimality-probe",
            f"negative curvature {probes[0].coefficient:.4e} at a minimizer",
        )
    )

    bump = make_bump(g, 3.0)
    nrm = bump.profile.norm()
    support_ok = bool(
        np.all(bump.profile.values[(g.points < 3.0) | (g.points > 6.0)] == 0.0)
    )
    try:
        make_bump(g, 7.0)
        range_ok = False
    except ValueError as exc:
        range_ok = "r_max" in str(exc)
    out.append(
        _ok("scf/bump-profile", "unit norm, supported in [R, 2R], range guarded")
        if abs(nrm - 1.0) < 1e-12 and support_ok and range_ok
        else _fail(
            "scf/bump-profile",
            f"norm={nrm}, support_ok={support_ok}, range_ok={range_ok}",
        )
    )

    gsm = make_grid("uniform", 50, 5.0)
    cfg2 = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0)))
    f1 = RadialFunction(gsm, gsm.points * np.exp(-gsm.points))
    f1 = RadialFunction(gsm, f1.values / f1.norm())
    pairs = {(None, 0): (np.array([-1.0, 0.5]), [f1, f1])}
    occ = occupy(cfg2, pairs)
    drop_ok = occ.norms[1] == 0.0 and not occ.marginal[1] and occ.norms[0] > 0.99
    pairs = {(None, 0): (np.array([-1.0, 1e-12]), [f1, f1])}
    occ = occupy(cfg2, pairs)
    marginal_ok = occ.marginal[1] and occ.norms[1] > 0.99
    out.append(
        _ok("scf/occupation-rules", "positive level dropped; near-zero level flagged")
        if drop_ok and marginal_ok
        else _fail(
            "scf/occupation-rules", f"drop_ok={drop_ok} marginal_ok={marginal_ok}"
        )
    )

    return out


def _scf_full_checks() -> list[CheckResult]:
    out = []

    cfg = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    g = make_grid("uniform", 2000, 15.0)
    state = solve(cfg, g)
    out.append(
        _ok(
            "scf/helium-reference",
            f"E = {state.energy:.7f} vs -1.4308700 +/- 2e-3 "
            f"({state.iterations} iterations)",
        )
        if state.converged and abs(state.energy - (-1.43087)) <= 2e-3
        else _fail(
            "scf/helium-reference",
            f"converged={state.converged}, E = {state.energy:.7f}",
        )
    )

    g3 = make_grid("uniform", 3000, 15.0)
    state3 = solve(cfg, g3)
    out.append(
        _ok(
            "scf/grid-robustness",
            f"|E(3000) - E(2000)| = {abs(state3.energy - state.energy):.2e}",
        )
        if state3.converged and abs(state3.energy - state.energy) < 1e-3
        else _fail(
            "scf/grid-robustness",
            f"converged={state3.converged}, drift {abs(state3.energy - state.energy):.2e}",
        )
    )

    gh = make_grid("uniform", 2000, 60.0)
    cfg_h = Configuration(Z=1.0, model="rhf", shells=(ShellSpec(0),))
    sh = solve(cfg_h, gh)
    ok = (
        sh.converged
        and abs(sh.norms[0] - 1.0) < 1e-8
        and -0.05 < sh.eigenvalues[0] < -0.005
    )
    out.append(
        _ok(
            "scf/hydride-saturation",
            f"Z = N-1 shell fills: norm 1, eps = {sh.eigenvalues[0]:.6f}",
        )
        if ok
        else _fail(
            "scf/hydride-saturation",
            f"converged={sh.converged} norm={sh.norms[0]:.8f} eps={sh.eigenvalues[0]:.6f}",
        )
    )

    cfg_ne = Configuration(
        Z=10.0, model="rhf", shells=(ShellSpec(0), ShellSpec(0), ShellSpec(1))
    )
    gn = make_grid("uniform", 1500, 12.0)
    sn = solve(cfg_ne, gn)
    rep = theorem_report(sn)
    ok = (
        sn.converged
        and bool(np.all(sn.eigenvalues < 0))
        and bool(np.all(np.abs(sn.norms - 1.0) < 1e-8))
        and rep.all_satisfied
    )
    out.append(
        _ok(
            "scf/neon-structure",
            f"E = {sn.energy:.5f}; eps = "
            + ", ".join(f"{e:.4f}" for e in sn.eigenvalues),
        )
        if ok
        else _fail(
            "scf/neon-structure",
            f"converged={sn.converged} eps={sn.eigenvalues} notes={rep.notes}",
        )
    )

    cfg_c = Configuration(
        Z=3.0, model="uhf", shells=(ShellSpec(0, ALPHA), ShellSpec(1, ALPHA))
    )
    gc = make_grid("uniform", 1600, 40.0)
    tc = build_kernel_table(gc, build_coefficient_table(1))
    sc = solve(cfg_c, gc, tc)
    crep = corollary_inequalities(sc, tc)
    ok = sc.converged and crep.all_satisfied and crep.charge_matches
    out.append(
        _ok(
            "scf/spinless-ion-corollary",
            f"E = {crep.full_energy:.5f} <= {crep.single_orbital_bound}; "
            f"E_without_s = {crep.energy_without_s:.5f} >= {crep.remainder_bound}",
        )
        if ok
        else _fail(
            "scf/spinless-ion-corollary",
            f"converged={sc.converged} full={crep.full_energy:.5f} "
            f"without={crep.energy_without_s:.5f}",
        )
    )

    gd = make_grid("uniform", 1200, 100.0)
    cfg_d = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))
    td = build_kernel_table(gd, build_coefficient_table(0))
    eps, funcs = lowest_eigenpairs(hydrogenic_matrix(gd, 0, 2.0), 1)
    f_dep = RadialFunction(gd, funcs[0].values / math.sqrt(2.0))
    fixture = ScfState(
        config=cfg_d,
        grid=gd,
        orbitals=(f_dep,),
        eigenvalues=np.array([float(eps[0])]),
        norms=np.array([f_dep.norm()]),
        residuals=np.zeros(1),
        marginal=(False,),
        breakdown=total_energy(cfg_d, [f_dep], td),
        energy_trace=(0.0,),
        iterations=0,
        converged=True,
        message="depleted fixture",
        rejections=0,
    )
    pr = {p.R: p.coefficient for p in probe_shell(fixture, 0, [10.0, 40.0], 0.0, td)}
    ok = pr[10.0] > 1e-3 and pr[40.0] < -1e-3
    out.append(
        _ok(
            "scf/depleted-shell-probe",
            f"norm-growing curvature {pr[10.0]:+.3e} at R=10, {pr[40.0]:+.3e} at R=40",
        )
        if ok
        else _fail(
            "scf/depleted-shell-probe",
            f"coefficients {pr} lack the near-positive/far-negative pattern",
        )
    )

    return out


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the named self-checks; ``level`` is ``"quick"`` or ``"full"``."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results: list[CheckResult] = []
    results += _angular_checks()
    results += _grid_checks()
    results += _kernel_checks()
    results += _operator_checks()
    results += _energy_checks()
    results += _scf_quick_checks()
    if level == "full":
        results += _scf_full_checks()
    return results
