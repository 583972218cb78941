"""Energy functionals for radial restricted and unrestricted Hartree-Fock.

All expressions live in the reduced-radial convention: orbitals are
functions on ``(0, inf)`` vanishing at 0, the kinetic term is ``|f'|^2``
without a 1/2, and hydrogenic levels sit at ``-Z^2/(4n^2)``.  Multiply
energies by 2 for Hartree.

Restricted model, shells ``f_1..f_s`` with weights ``c_j = 2 l_j + 1``::

    E = 2 sum_j c_j [ |f_j'|^2 + l_j(l_j+1) <f_j, r^-2 f_j> - Z <f_j, r^-1 f_j> ]
        + 2 sum_{j,k} c_j c_k Int |f_j(r)|^2 |f_k(s)|^2 / max(r,s)
        -   sum_{j,k} c_j c_k Int conj(f_j)(r) conj(f_k)(s)
                               U_{l_j l_k}(r,s) f_k(r) f_j(s)

Unrestricted model: each spin's shells carry weight ``c_j`` once, the
direct term couples the full (both-spin) density with itself with a 1/2,
and exchange acts within each spin only.  Occupying identical shells and
orbitals in both spin channels reproduces the restricted energy exactly
— an identity the tests pin down.

Every energy is the :func:`field_energy` of a mean field ``(rho,
gammas)``, the one the Fock operators are built from, with exchange
through the same apply as :meth:`FockMatrix.apply`; it is therefore
exactly quadratic along a segment of fields.

The one-shell decomposition and the second-order expansion below are the
workhorses of the variational analysis: the energy splits exactly into
(everything without shell i) + (shell i in the field of the others) +
(shell i's self-repulsion through the kernel ``P_i = c_i (2/max(r,s) -
U_{l_i l_i})``), and perturbing ``f_i -> (f_i + d*h)/sqrt(1 + lam*d^2)``
expands in ``d`` with coefficients assembled from the same pieces.  Both
identities hold exactly in the discrete quadrature, not just in the
continuum limit, because every term shares one trapezoidal rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .configuration import Configuration, ShellSpec
from .grid import RadialFunction, kinetic_quadratic_form
from .kernels import KernelTable, apply_direct_kernel, apply_exchange_kernel
from .operators import Factors, exchange_apply, fock_matrix, mean_field

__all__ = [
    "ShellSpec",
    "Configuration",
    "EnergyBreakdown",
    "ShellDecomposition",
    "rhf_energy",
    "uhf_energy",
    "field_energy",
    "total_energy",
    "decompose_shell",
    "first_order_coefficient",
    "second_order_coefficient",
    "lower_bound",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into physical parts.

    ``exchange`` is stored as the non-negative magnitude of the exchange
    integral; it enters the total with a minus sign:

        ``total = kinetic + attraction + direct - exchange``

    so that the tested invariants ``0 <= exchange <= direct`` read off
    directly.
    """

    kinetic: float
    attraction: float
    direct: float
    exchange: float

    @property
    def total(self) -> float:
        return self.kinetic + self.attraction + self.direct - self.exchange


class ShellDecomposition(NamedTuple):
    """Exact split of the restricted energy around one shell."""

    without: float
    single_particle: float
    self_pair: float

    @property
    def total(self) -> float:
        return self.without + self.single_particle + self.self_pair


def _check_inputs(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
) -> None:
    if len(orbitals) != config.n_shells:
        raise ValueError(
            f"expected {config.n_shells} orbitals, got {len(orbitals)}"
        )
    for i, f in enumerate(orbitals):
        if not f.grid.matches(table.grid):
            raise ValueError(f"orbital {i} does not live on the kernel table's grid")
    if config.max_l > table.max_l:
        raise ValueError(
            f"kernel table covers l <= {table.max_l}, configuration needs "
            f"{config.max_l}"
        )


def field_energy(
    config: Configuration,
    table: KernelTable,
    field: tuple[np.ndarray, Mapping[tuple[str | None, int], Factors]],
) -> EnergyBreakdown:
    """Energy breakdown of a field ``(rho, gammas)``, from :func:`mean_field` or mixed.

    With ``s`` the spin factor and ``(V, c)`` each channel's factors of
    functions ``f_a = V_a / sqrt(w)``, kinetic is ``s sum_a c_a`` times the
    jump form of ``f_a`` (the tridiagonal operator's quadratic form would
    cancel terms of size ``|f|^2 / h^2``), attraction ``-s Z <rho, 1/r>``,
    direct ``s^2/2 <rho, U rho>``, and exchange ``s/2 sum_a c_a Re <V_a|
    K V_a>``, each unordered same-spin pair of channels applied once.
    """
    rho, gammas = field
    grid = table.grid
    s = config.spin_factor
    attraction = -s * config.Z * float(np.sum(grid.weights * rho / grid.points))
    direct = 0.5 * s * s * float(np.sum(grid.weights * rho * apply_direct_kernel(grid, rho)))
    sq = np.sqrt(grid.weights)[:, None]
    kinetic = pairs = 0.0
    channels = list(gammas.items())
    for j, ((spin, l), (V, c)) in enumerate(channels):
        funcs = (RadialFunction(grid, f) for f in (V / sq).T)
        kinetic += s * float(sum(c_a * kinetic_quadratic_form(f, l) for c_a, f in zip(c, funcs)))
        for (spin_k, lp), (W, d) in channels[j:]:
            if spin_k == spin:  # the (lp, l) term equals this one
                KV = exchange_apply(table, l, lp, W, d, V)
                pairs += (1 if lp == l else 2) * float(c @ np.real(np.sum(np.conj(V) * KV, axis=0)))
    return EnergyBreakdown(kinetic, attraction, direct, 0.5 * s * pairs)


def total_energy(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
) -> EnergyBreakdown:
    """:func:`field_energy` of the orbitals' :func:`mean_field`, for either model.

    Orbitals need not be normalized or orthogonal, and may be complex; a
    configuration without shells has energy 0.
    """
    _check_inputs(config, orbitals, table)
    if not config.shells:
        return EnergyBreakdown(kinetic=0.0, attraction=0.0, direct=0.0, exchange=0.0)
    return field_energy(config, table, mean_field(config, orbitals))


def rhf_energy(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
) -> EnergyBreakdown:
    """Restricted energy of the given shell orbitals (see :func:`total_energy`)."""
    if config.model != "rhf":
        raise ValueError("rhf_energy needs a restricted configuration")
    return total_energy(config, orbitals, table)


def uhf_energy(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
) -> EnergyBreakdown:
    """Unrestricted energy of the given shell orbitals (see :func:`total_energy`)."""
    if config.model != "uhf":
        raise ValueError("uhf_energy needs an unrestricted configuration")
    return total_energy(config, orbitals, table)


def _self_pair_apply(table: KernelTable, l: int, dens: np.ndarray) -> np.ndarray:
    """``P (w dens)`` for ``P = (2l+1) (2/max(r,s) - U_{ll})``, in O(n)."""
    grid = table.grid
    return (2 * l + 1) * (
        2.0 * apply_direct_kernel(grid, dens)
        - apply_exchange_kernel(table, l, l, grid.weights * dens)
    )


def decompose_shell(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
    i: int,
) -> ShellDecomposition:
    """Exact split of the restricted energy around shell ``i``.

    Returns ``(without, single_particle, self_pair)`` with

    * ``without``: the energy of the configuration with shell ``i``
      deleted;
    * ``single_particle``: ``2 c_i <f_i| H^(i) |f_i>`` where ``H^(i)`` is
      the Fock operator without shell ``i``'s own mean field;
    * ``self_pair``: ``c_i <f_i x f_i| P_i |f_i x f_i>``, the shell's
      repulsion against itself through ``P_i = c_i (2/max - U_{l_i l_i})``.

    The three parts sum to the full energy exactly on the grid (same
    quadrature everywhere), which the tests verify to near machine
    precision.
    """
    if config.model != "rhf":
        raise ValueError("decompose_shell applies to the restricted model")
    _check_inputs(config, orbitals, table)
    if not 0 <= i < config.n_shells:
        raise ValueError(f"shell index {i} out of range")
    grid = table.grid
    c_i = config.shell_weight(i)
    f_i = orbitals[i]
    field = mean_field(config, orbitals, drop=i)
    without = field_energy(config, table, field).total
    fock = fock_matrix(table, config, (None, config.shells[i].l), *field)
    single = 2.0 * c_i * np.real(fock.bilinear(f_i, f_i))

    dens = np.abs(f_i.values) ** 2
    self_pair = c_i * float(
        np.sum(grid.weights * dens * _self_pair_apply(table, config.shells[i].l, dens))
    )
    return ShellDecomposition(
        without=float(without), single_particle=float(single), self_pair=float(self_pair)
    )


def first_order_coefficient(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
    i: int,
    h: RadialFunction,
) -> float:
    """Coefficient of ``d`` in ``E(.., (f_i + d h)/sqrt(1 + lam d^2), ..)``.

    Equals ``4 c_i Re <h| H_{l_i} |f_i>`` with the full Fock operator; it
    vanishes when ``f_i`` is a Fock eigenfunction and ``h`` is orthogonal
    to it.  (The normalization factor contributes nothing at first
    order.)
    """
    if config.model != "rhf":
        raise ValueError("the expansion applies to the restricted model")
    _check_inputs(config, orbitals, table)
    c_i = config.shell_weight(i)
    key = (None, config.shells[i].l)
    fock = fock_matrix(table, config, key, *mean_field(config, orbitals))
    return 4.0 * c_i * float(np.real(fock.bilinear(h, orbitals[i])))


def second_order_coefficient(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    table: KernelTable,
    i: int,
    h: RadialFunction,
    lam: float = 0.0,
) -> float:
    """Coefficient of ``d^2`` in ``E(.., (f_i + d h)/sqrt(1 + lam d^2), ..)``.

    The value is ``2 c_i`` times

        ``<h| H^(i) |h>  -  lam <f_i| H_{l_i} |f_i>
          + Re <h x h| P_i |f_i x f_i>
          + <f_i x h| P_i |f_i x h>  +  <h x f_i| P_i |f_i x h>``

    where ``<p x q| P |u x v> = Int conj(p)(r) conj(q)(s) P(r,s) u(r) v(s)``.
    With ``lam = 1``, ``|h| = 1`` and ``h`` orthogonal to ``f_i``, the
    perturbation preserves the norm through second order, so this is the
    curvature of a feasible path: non-negative at a minimizer.  With
    ``lam = 0`` the path grows the norm, which is only feasible for
    shells with ``|f_i| < 1`` — the mechanism that detects depleted
    shells far from the nucleus.
    """
    if config.model != "rhf":
        raise ValueError("the expansion applies to the restricted model")
    _check_inputs(config, orbitals, table)
    if not h.grid.matches(table.grid):
        raise ValueError("perturbation h does not live on the kernel table's grid")
    grid = table.grid
    c_i = config.shell_weight(i)
    l_i = config.shells[i].l
    f_i = orbitals[i]
    w = grid.weights

    fock_i = fock_matrix(table, config, (None, l_i), *mean_field(config, orbitals, drop=i))
    fock = fock_matrix(table, config, (None, l_i), *mean_field(config, orbitals))
    h_hi_h = np.real(fock_i.bilinear(h, h))
    f_h_f = np.real(fock.bilinear(f_i, f_i))

    d = np.conj(h.values) * f_i.values
    v = w * d
    pv = _self_pair_apply(table, l_i, d)
    hh_ff = np.real(v @ pv)
    fh_fh = np.real(
        (w * np.abs(f_i.values) ** 2) @ _self_pair_apply(table, l_i, np.abs(h.values) ** 2)
    )
    hf_fh = np.real(v @ np.conj(pv))

    return 2.0 * c_i * float(h_hi_h - lam * f_h_f + hh_ff + fh_fh + hf_fh)


def lower_bound(
    config: Configuration,
    orbitals: Sequence[RadialFunction],
    eps: float,
) -> float:
    """Kinetic-controlled lower bound on the restricted energy.

    For any ``eps > 0``,

        ``E >= 2 sum_j c_j [ (1 - Z eps) |f_j'|^2 - (Z/eps) |f_j|^2 ]``

    because the repulsion terms are non-negative and the attraction obeys
    ``<f, r^-1 f> <= eps |f'|^2 + (1/eps) |f|^2``.
    """
    if config.model != "rhf":
        raise ValueError("lower_bound applies to the restricted model")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if len(orbitals) != config.n_shells:
        raise ValueError(f"expected {config.n_shells} orbitals, got {len(orbitals)}")
    total = 0.0
    for j, (sh, f) in enumerate(zip(config.shells, orbitals)):
        c = config.shell_weight(j)
        deriv = kinetic_quadratic_form(f, 0)
        total += 2.0 * c * (
            (1.0 - config.Z * eps) * deriv - (config.Z / eps) * f.norm() ** 2
        )
    return float(total)
