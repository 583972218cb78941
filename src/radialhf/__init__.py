"""Radial Hartree-Fock for atoms: restricted and unrestricted shells.

The package solves the radial self-consistent field problem for an atom
whose state is a list of ``(l, spin)`` shells with relaxed norm
constraints (each radial orbital has norm at most 1; at a minimizer with
``Z >= N - 1`` every norm is 0 or 1, while below that a fractional norm
can lower the energy).  It exposes the energy functionals, the radial
Fock operators with exact angular exchange kernels, an SCF solver that
mixes the mean field toward each Roothaan proposal and halves its step
whenever a proposal raises the energy, far-field probes of minimality,
and structural reports checking the bound-state guarantees.

Radial units: kinetic energy is ``|f'|^2`` without the 1/2, so the
one-electron levels sit at ``-Z^2/(4 n^2)``; multiply totals by 2 for
Hartree.
"""

from .angular import (
    CoefficientTable,
    build_coefficient_table,
    legendre_p,
    legendre_triple_product,
    wigner3j_zero_squared,
)
from .configuration import ALPHA, BETA, Configuration, ShellSpec
from .energy import (
    EnergyBreakdown,
    ShellDecomposition,
    decompose_shell,
    field_energy,
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
    kinetic_bilinear,
    kinetic_quadratic_form,
    make_grid,
    norm,
    radial_expectation,
)
from .kernels import (
    KernelTable,
    QuadratureAccuracyError,
    apply_direct_kernel,
    apply_exchange_kernel,
    build_kernel_table,
    oracle_u_kernel,
    p_kernel,
    u_kernel,
)
from .operators import (
    EigensolverError,
    FockMatrix,
    fock_matrix,
    hydrogenic_matrix,
    lowest_eigenpairs,
    mean_field,
)
from .scf import (
    CorollaryReport,
    Occupation,
    ProbeResult,
    ScfOptions,
    ScfState,
    ShellVerdict,
    TheoremReport,
    corollary_inequalities,
    make_bump,
    make_default_grid,
    occupy,
    probe_shell,
    solve,
    theorem_report,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "CoefficientTable",
    "Configuration",
    "CorollaryReport",
    "EigensolverError",
    "EnergyBreakdown",
    "FockMatrix",
    "KernelTable",
    "Occupation",
    "ProbeResult",
    "QuadratureAccuracyError",
    "RadialFunction",
    "RadialGrid",
    "ScfOptions",
    "ScfState",
    "ShellDecomposition",
    "ShellSpec",
    "ShellVerdict",
    "TheoremReport",
    "apply_direct_kernel",
    "apply_exchange_kernel",
    "build_coefficient_table",
    "build_kernel_table",
    "corollary_inequalities",
    "coulomb_expectation",
    "decompose_shell",
    "derivative_sq_norm",
    "field_energy",
    "first_order_coefficient",
    "fock_matrix",
    "hydrogenic_matrix",
    "inner",
    "integrate",
    "kinetic_bilinear",
    "kinetic_quadratic_form",
    "legendre_p",
    "legendre_triple_product",
    "lower_bound",
    "lowest_eigenpairs",
    "make_bump",
    "make_default_grid",
    "make_grid",
    "mean_field",
    "norm",
    "occupy",
    "oracle_u_kernel",
    "p_kernel",
    "probe_shell",
    "radial_expectation",
    "rhf_energy",
    "second_order_coefficient",
    "solve",
    "theorem_report",
    "total_energy",
    "u_kernel",
    "uhf_energy",
    "wigner3j_zero_squared",
]
