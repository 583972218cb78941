"""Self-consistent minimization of the shell energies.

The solver is a damped Roothaan fixed point.  State consists of the
accepted shell orbitals plus a mean field (a density vector for the
direct potential and per-channel density matrices for exchange, kept as
low-rank factors).  Each
iteration diagonalizes the channel Fock matrices built from the mean
field (less its directions lighter than ``_LIGHT_CUTOFF`` of their
channel's heaviest), occupies the lowest eigenfunctions, and evaluates
the exact energy functional and the mean field of the proposed orbitals.  The
start is the same evaluation in the empty field, whose Fock operator is
the bare hydrogenic one.  One step rule follows:

* a proposal whose energy does not increase is accepted; one whose
  energy increases is rejected and the step ``a`` is halved;
* either way the mean field relaxes toward the proposal:
  ``mf <- (1 - a) mf + a mf(proposal)``;
* ``a`` grows after four accepted proposals in a row, and the iteration
  stalls once it falls below ``1e-5``.

The energy trace therefore only ever records accepted (non-increasing)
values.  Convergence requires both a relative energy change below
``tol_energy`` and every occupied orbital to satisfy its own Fock
equation (built from the accepted orbitals, undamped) to ``tol_residual``.
A final undamped pass polishes the converged orbitals into genuine
eigenfunctions of their self-consistent Fock matrices; unless it keeps
every shell occupied or dropped and does not raise the energy beyond the
acceptance slack, the solve ends ``not self-consistent:`` at the accepted
point (below ``Z = N - 1`` a dropped shell may refill in the empty field).

Constraint handling follows the relaxed feasible set: orbital norms may
be 0 or 1, never fractional.  Within each ``(spin, l)`` channel the
``k`` lowest eigenfunctions are assigned to the ``k`` shells in input
order; an eigenfunction whose eigenvalue is above ``+TOL_ZERO`` is
replaced by the zero orbital (dropping the shell lowers the energy), and
one within ``TOL_ZERO`` of zero is kept but marginal, since at exactly
zero the theory does not decide the norm.  Shells never migrate between
channels.  One rule, read by the residual check, the polish, the probe and
the structural report, says which shells are occupied: those whose norm
exceeds ``_NORM_TOL``.  A state stores what the solve decided; its
``marginal`` (occupied with a level within ``TOL_ZERO`` of zero) and
``converged`` (the message is ``"converged"``) are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .angular import build_coefficient_table
from .configuration import Configuration
from .energy import EnergyBreakdown, field_energy, second_order_coefficient, total_energy
from .grid import RadialFunction, RadialGrid, make_grid
from .kernels import KernelTable, build_kernel_table
from . import operators
from .operators import (
    EigensolverError,
    Factors,
    fock_matrix,
    lowest_eigenpairs,
    mean_field,
)

__all__ = [
    "ScfOptions",
    "Occupation",
    "ScfState",
    "ProbeResult",
    "ShellVerdict",
    "TheoremReport",
    "CorollaryReport",
    "make_default_grid",
    "occupy",
    "solve",
    "make_bump",
    "probe_shell",
    "theorem_report",
    "corollary_inequalities",
]

ChannelKey = tuple[str | None, int]
MeanField = tuple[np.ndarray, dict[ChannelKey, Factors]]

# The band around zero inside which an eigenvalue is marginal; the
# occupation and the structural report judge by this one band.
TOL_ZERO = 1e-8

# A shell is occupied when its orbital's norm exceeds this; the structural
# report also allows a full norm this much slack.
_NORM_TOL = 1e-6

# Points of the default grid.
_DEFAULT_N = 2000


@dataclass(frozen=True)
class ScfOptions:
    """Solver knobs; the defaults suit well-posed atomic configurations.

    ``tol_energy`` is relative (scaled by ``1 + |E|``); ``tol_residual``
    bounds ``|H f - e f|`` per occupied orbital.
    """

    tol_energy: float = 1e-9
    tol_residual: float = 1e-6
    max_iter: int = 500

    @property
    def dense_cutoff(self) -> int:
        """The largest grid on which the dense product may be chosen,
        ``operators.DENSE_CUTOFF``.  Up to it the eigensolver builds an
        operator's dense matrix when its exchange rank makes the matrix-free
        apply dearer; above it every apply is matrix-free and no n x n array
        is formed.  Read-only."""
        return operators.DENSE_CUTOFF


class _Shells:
    """What shell orbitals and their levels imply, derived on each read."""

    orbitals: tuple[RadialFunction, ...]
    eigenvalues: np.ndarray

    @property
    def norms(self) -> np.ndarray:
        """Each shell's occupation: its orbital's norm."""
        return np.array([f.norm() for f in self.orbitals])

    @property
    def occupied(self) -> np.ndarray:
        """The one occupation rule: a shell's norm exceeds ``_NORM_TOL``."""
        return self.norms > _NORM_TOL

    @property
    def marginal(self) -> tuple[bool, ...]:
        """Occupied shells whose level lies within ``TOL_ZERO`` of zero."""
        return tuple(map(bool, self.occupied & (np.abs(self.eigenvalues) <= TOL_ZERO)))


@dataclass(frozen=True)
class Occupation(_Shells):
    """Channel eigenfunctions assigned to shells; ``marginal`` derives from them."""

    orbitals: tuple[RadialFunction, ...]
    eigenvalues: np.ndarray


@dataclass(eq=False)
class ScfState(_Shells):
    """Converged (or final) state of the self-consistent iteration.

    The fields hold what the solve decided; ``norms``, ``occupied``,
    ``marginal``, ``energy`` and ``converged`` are derived from them.
    ``residuals`` belong to the returned ``orbitals``: after a converged
    solve those are the polished ones, while the convergence check read
    the accepted point before the polish, so a stored residual may exceed
    ``tol_residual`` slightly.
    """

    config: Configuration
    grid: RadialGrid
    orbitals: tuple[RadialFunction, ...]
    eigenvalues: np.ndarray
    residuals: np.ndarray
    breakdown: EnergyBreakdown
    energy_trace: tuple[float, ...]
    iterations: int
    message: str
    rejections: int

    @property
    def energy(self) -> float:
        return self.breakdown.total

    @property
    def converged(self) -> bool:
        """Whether the solve ended with the message ``"converged"``."""
        return self.message == "converged"


def make_default_grid(config: Configuration) -> RadialGrid:
    """Default uniform grid of ``_DEFAULT_N`` points for a configuration.

    The box extent shrinks with the nuclear charge (tighter atoms) but
    never below 12 so diffuse valence shells keep room to decay.
    """
    r_max = max(12.0, 30.0 / max(config.Z, 1.0))
    return make_grid("uniform", _DEFAULT_N, r_max)


def _zero_function(grid: RadialGrid) -> RadialFunction:
    return RadialFunction(grid, np.zeros(grid.n))


def occupy(
    config: Configuration,
    channel_pairs: Mapping[ChannelKey, tuple[np.ndarray, Sequence[RadialFunction]]],
) -> Occupation:
    """Assign channel eigenfunctions to shells under the relaxed constraints.

    ``channel_pairs`` maps ``(spin, l)`` to ascending eigenvalues and
    matching eigenfunctions.  The ``k`` shells of a channel take the
    ``k`` lowest pairs in order; a pair with eigenvalue above
    ``+TOL_ZERO`` yields the zero orbital instead (norm 0), and one
    within ``TOL_ZERO`` of zero is occupied but marginal.
    """
    n_shells = config.n_shells
    orbitals: list[RadialFunction | None] = [None] * n_shells
    eigenvalues = np.zeros(n_shells)
    for key, shell_idx in config.channels().items():
        if key not in channel_pairs:
            raise ValueError(f"missing eigenpairs for channel {key}")
        eps, funcs = channel_pairs[key]
        if len(eps) < len(shell_idx):
            raise ValueError(
                f"channel {key}: need {len(shell_idx)} eigenpairs, got {len(eps)}"
            )
        for rank, i in enumerate(shell_idx):
            eigenvalues[i] = e = float(eps[rank])
            orbitals[i] = _zero_function(funcs[rank].grid) if e > TOL_ZERO else funcs[rank]
    return Occupation(tuple(orbitals), eigenvalues)  # type: ignore[arg-type]


# Each eigensolve inside the loop stops once every wanted residual is this
# fraction of its warm-start residual (or meets the strict target, if that
# is looser).  Over the SCF solves of He, Be, Ne and Ar (exponential
# n = 800, 800, 800, 600), N = 10 ions at Z = 8..12 and Li, Be and the
# Z = 3 spinless ion in UHF (exponential n = 600), He at uniform n = 2600
# and configs/{helium,neon,lithium_uhf}.json, LOBPCG took 1104 steps in
# all against 3276 with strict in-loop solves (Ar: 101 against 311), and
# its time fell from 9.2 to 5.1 s (one run each, one BLAS thread).
# Iteration and rejection counts were the same for 1e-3, 1e-2 and 3e-2,
# and converged energies within 4e-15 relative of the strict ones; at 1e-1
# the ion at Z = 11 took 17 iterations and 1 rejection instead of 14 and 0.
_INEXACT_REDUCTION = 1e-2

# The first step ``a`` of the mean field toward a proposal.
_STEP_START = 0.3

# A proposal may exceed the accepted energy E by this times 1 + |E|.
_ACCEPT_SLACK = 1e-10


@dataclass(frozen=True)
class _Point:
    """Channel eigenpairs, their occupation, its energy and its own mean field."""

    pairs: Mapping[ChannelKey, tuple[np.ndarray, list[RadialFunction]]]
    occupation: Occupation
    breakdown: EnergyBreakdown
    field: MeanField

    @property
    def energy(self) -> float:
        return self.breakdown.total


def _evaluate(
    table: KernelTable,
    config: Configuration,
    field: MeanField,
    options: ScfOptions,
    start: _Point | None,
    reduction: float | None,
) -> _Point:
    """Diagonalize each channel's Fock operator in ``field``, occupy and price."""
    # The iterative eigensolver, warm-started from ``start``'s pairs,
    # targets half the residual tolerance, so that on fine grids, where its
    # rounding-scale target grows as 1/h^2, it does not keep the
    # convergence check from passing.  Inside the loop a ``reduction`` makes
    # each eigensolve inexact: a pair may stop once its residual has fallen
    # by that factor from the warm start's, since only the fixed point
    # needs exact eigenpairs; the start and the polish pass None.  Those
    # inexact solves also build their operators from ``_light(field)``.
    tol = 0.5 * options.tol_residual
    operator_field = field if reduction is None else _light(field)
    pairs = {
        key: lowest_eigenpairs(
            fock_matrix(table, config, key, *operator_field),
            len(shell_idx),
            start=None if start is None else start.pairs[key][1],
            tol=tol,
            reduction=reduction,
        )
        for key, shell_idx in config.channels().items()
    }
    occ = occupy(config, pairs)
    energy = total_energy(config, occ.orbitals, table)
    return _Point(pairs, occ, energy, mean_field(config, occ.orbitals))


# Mixed density-matrix factors keep the directions whose weight exceeds
# this fraction of the largest.
_COMPRESS_CUTOFF = 1e-14

# The in-loop eigensolves leave out the mixed directions whose weight is
# below this fraction of their channel's heaviest.  Mixing piles up light
# directions, and an operator's cost grows with its rank: over the SCF
# solves of configs/*.json and of perfbench's four workloads (15 solves),
# the exchange columns per operator fell from 3.9 to 2.4 for He, from 8.2
# to 4.6 for Be and from 19.2 to 11.3 for Ar.  Only the inexact solves see
# the drop; the mix, the start, the polish, the residuals and every energy
# keep the exact field.  On those 18 solves iterations, rejections and
# messages stayed the same, converged energies within 3e-15 relative and
# the two stalled N = 10 ions (Z = 8.0, 8.5) within 5e-10.
_LIGHT_CUTOFF = 1e-8


def _compress(V: np.ndarray, c: np.ndarray) -> Factors:
    """Orthonormal factors of ``V diag(c) V^H`` by QR and a small ``eigh``."""
    Q, R = np.linalg.qr(V)
    lam, W = np.linalg.eigh((R * c) @ np.conj(R).T)
    keep = lam > _COMPRESS_CUTOFF * lam.max(initial=0.0)
    return Q @ W[:, keep], lam[keep]


def _light(field: MeanField) -> MeanField:
    """``field`` without the directions lighter than ``_LIGHT_CUTOFF`` of
    their channel's heaviest."""
    rho, gammas = field
    light = {}
    for key, (V, c) in gammas.items():
        keep = c >= _LIGHT_CUTOFF * c.max(initial=0.0)
        light[key] = V[:, keep], c[keep]
    return rho, light


def _mix(field: MeanField, target: MeanField, alpha: float) -> MeanField:
    """``(1 - alpha) field + alpha target``, density and density matrices alike.

    The mixed density matrices stay factored: the two fields' factors
    are stacked and compressed, so their rank is that of the mixture.
    """
    (rho, gammas), (rho_t, gammas_t) = field, target
    mixed = {}
    for key, (V, c) in gammas.items():
        V_t, c_t = gammas_t[key]
        mixed[key] = _compress(
            np.hstack([V, V_t]), np.concatenate([(1.0 - alpha) * c, alpha * c_t])
        )
    return (1.0 - alpha) * rho + alpha * rho_t, mixed


def _residuals(table: KernelTable, config: Configuration, point: _Point) -> np.ndarray:
    """Per-shell ``|H f - e f|`` against the point's own mean field."""
    occ = point.occupation
    orbitals, eigenvalues, is_occupied = occ.orbitals, occ.eigenvalues, occ.occupied
    sq = np.sqrt(table.grid.weights)
    res = np.zeros(config.n_shells)
    for key, shell_idx in config.channels().items():
        occupied = [i for i in shell_idx if is_occupied[i]]
        if not occupied:
            continue
        u = np.column_stack([sq * np.real(orbitals[i].values) for i in occupied])
        fock = fock_matrix(table, config, key, *point.field)
        res[occupied] = np.linalg.norm(fock.apply(u) - u * eigenvalues[occupied], axis=0)
    return res


def _polish_failure(config: Configuration, point: _Point, polished: _Point) -> str:
    """Why the polish shows that a converged ``point`` is no fixed point, or ""."""
    before, after = point.occupation.occupied, polished.occupation.occupied
    for i, sh in enumerate(config.shells):
        if before[i] != after[i]:
            verb = "drops" if before[i] else "occupies"
            return f"not self-consistent: the polish {verb} shell {i} (l={sh.l})"
    rise = polished.energy - point.energy
    if rise > _ACCEPT_SLACK * (1.0 + abs(point.energy)):
        return f"not self-consistent: the polish raises the energy by {rise:.3e}"
    return ""


def solve(
    config: Configuration,
    grid: RadialGrid | None = None,
    table: KernelTable | None = None,
    options: ScfOptions | None = None,
) -> ScfState:
    """Run the damped self-consistent iteration for a configuration.

    Returns the final state whether or not it converged; ``message``
    reports the outcome (``converged`` reads it), never an exception, so
    callers can inspect a stalled state.  An eigensolver failure ends the
    iteration with the last accepted state and the message
    ``eigensolver failed: <detail>``.  Convergence is judged on the
    accepted point; the returned orbitals are its polish, and the state's
    ``residuals`` are theirs, so they may exceed ``tol_residual`` slightly
    (1.04e-6 against 1e-6 for the N = 10 ion at Z = 8.6, exponential
    n = 600, r_max 30).
    """
    if not config.shells:
        raise ValueError("configuration has no shells")
    options = options or ScfOptions()
    if grid is None:
        grid = make_default_grid(config)
    if table is None:
        table = build_kernel_table(grid, build_coefficient_table(config.max_l))
    if not table.grid.matches(grid):
        raise ValueError("kernel table was built for a different grid")

    rejections = iterations = 0
    message = ""
    trace: list[float] = []
    empty_field = (np.zeros(grid.n), {})
    point = None
    try:
        # Start in the empty field, whose Fock operator is the bare
        # hydrogenic one: exact in the one-electron limit, deterministic.
        point = proposal = _evaluate(table, config, empty_field, options, None, None)
        trace.append(point.energy)
        field = point.field
        alpha = _STEP_START
        streak = 0

        for iterations in range(1, options.max_iter + 1):
            # The previous proposal's eigenfunctions warm-start the solver.
            proposal = _evaluate(table, config, field, options, proposal, _INEXACT_REDUCTION)
            energy = point.energy
            if proposal.energy <= energy + _ACCEPT_SLACK * (1.0 + abs(energy)):
                point = proposal
                trace.append(point.energy)
                streak += 1
                if abs(energy - point.energy) <= options.tol_energy * (1.0 + abs(point.energy)):
                    if _residuals(table, config, point).max(initial=0.0) <= options.tol_residual:
                        message = "converged"
                        break
            else:
                rejections += 1
                streak = 0
                alpha *= 0.5
                if alpha < 1e-5:
                    message = "stalled: damping floor reached without energy decrease"
                    break
            # A rejected proposal is mixed in too, by the halved step:
            # re-proposing from an unchanged field would just reproduce the
            # rejection, whereas bisecting the segment between the accepted
            # field and the proposal finds a step whose energy does descend.
            field = _mix(field, proposal.field, alpha)
            if streak >= 4:
                alpha = min(0.9, 1.5 * alpha)
        else:
            message = f"did not converge in {options.max_iter} iterations"

        if message == "converged":
            # Undamped polish: make the occupied orbitals eigenfunctions of
            # the Fock matrices built from the converged state itself.
            polished = _evaluate(table, config, point.field, options, point, None)
            message = _polish_failure(config, point, polished) or message
            if message == "converged":
                point = polished
                trace.append(point.energy)
    except EigensolverError as exc:
        # Report the last accepted point; before the start is evaluated
        # that is the empty state.
        message = f"eigensolver failed: {exc}"
        if point is None:
            empty = tuple(_zero_function(grid) for _ in config.shells)
            occ = Occupation(empty, np.zeros(config.n_shells))
            point = _Point({}, occ, total_energy(config, empty, table), empty_field)
            trace.append(point.energy)

    occ = point.occupation
    return ScfState(
        config=config,
        grid=grid,
        orbitals=occ.orbitals,
        eigenvalues=occ.eigenvalues,
        residuals=_residuals(table, config, point),
        breakdown=point.breakdown,
        energy_trace=tuple(trace),
        iterations=iterations,
        message=message,
        rejections=rejections,
    )


# ---------------------------------------------------------------------------
# Far-field probes


def _bump_shape(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = (x > 1.0) & (x < 2.0)
    xm = x[mask]
    out[mask] = np.exp(-1.0 / ((xm - 1.0) * (2.0 - xm)))
    return out


def make_bump(grid: RadialGrid, R: float) -> RadialFunction:
    """A smooth unit-norm bump supported in ``[R, 2R]``.

    The reference shape is ``exp(-1/((x-1)(2-x)))`` on ``(1, 2)``; the
    scaled profile is ``J_R(r) = J(r/R)/sqrt(R)``, renormalized on the
    grid so the discrete norm is exactly 1.

    Raises
    ------
    ValueError
        If the support ``[R, 2R]`` does not fit inside the grid, naming
        the required ``r_max``, or if the grid is too coarse to resolve
        the bump.
    """
    if not R > 0:
        raise ValueError(f"R must be > 0, got {R}")
    if 2.0 * R > grid.r_max:
        raise ValueError(
            f"bump support [{R}, {2 * R}] exceeds the grid extent "
            f"r_max = {grid.r_max}; need r_max >= {2 * R}"
        )
    vals = _bump_shape(grid.points / R) / math.sqrt(R)
    nrm = float(np.sqrt(np.sum(grid.weights * vals**2)))
    if nrm < 1e-12:
        raise ValueError(
            f"grid too coarse to resolve a bump on [{R}, {2 * R}] "
            f"(no interior samples)"
        )
    return RadialFunction(grid, vals / nrm)


@dataclass(frozen=True)
class ProbeResult:
    R: float
    coefficient: float


def probe_shell(
    state: ScfState,
    i: int,
    R_values: Sequence[float],
    lam: float = 1.0,
    table: KernelTable | None = None,
) -> list[ProbeResult]:
    """Second-order response of the energy to a far-field bump on shell ``i``.

    For each scale ``R`` the bump is orthogonalized against the occupied
    orbitals of shell ``i``'s channel, renormalized, and the coefficient
    of ``d^2`` in ``E(.., (f_i + d h)/sqrt(1 + lam d^2), ..)`` is
    evaluated.  With ``lam = 1`` this is the curvature along a
    norm-preserving path — non-negative at a converged minimizer.  With
    ``lam = 0`` the path grows the shell's norm, and a negative
    coefficient certifies that a depleted shell (norm < 1) can lower the
    energy by binding amplitude far out — the mechanism behind the
    guarantee that shells of a not-too-negative ion fill up completely.

    Restricted states only.
    """
    config = state.config
    if config.model != "rhf":
        raise ValueError("probe_shell applies to restricted states")
    if not 0 <= i < config.n_shells:
        raise ValueError(f"shell index {i} out of range")
    if table is None:
        table = build_kernel_table(state.grid, build_coefficient_table(config.max_l))
    key = (config.shells[i].spin, config.shells[i].l)
    occupied = state.occupied
    channel_orbitals = [state.orbitals[j] for j in config.channels()[key] if occupied[j]]
    results = []
    for R in R_values:
        h_vals = make_bump(state.grid, R).values.copy()
        for f in channel_orbitals:
            overlap = np.sum(state.grid.weights * np.conj(f.values) * h_vals) / (
                f.norm() ** 2
            )
            h_vals = h_vals - overlap * f.values
        nrm = float(np.sqrt(np.sum(state.grid.weights * h_vals**2)))
        if nrm < 1e-8:
            raise ValueError(
                f"probe bump at R = {R} lies in the span of the occupied "
                "channel orbitals"
            )
        h = RadialFunction(state.grid, h_vals / nrm)
        coeff = second_order_coefficient(
            config, list(state.orbitals), table, i, h, lam
        )
        results.append(ProbeResult(R=float(R), coefficient=coeff))
    return results


# ---------------------------------------------------------------------------
# Structural reports


@dataclass(frozen=True)
class ShellVerdict:
    index: int
    l: int
    spin: str | None
    eigenvalue: float
    norm: float
    marginal: bool
    nonzero_guaranteed: bool
    full_norm_guaranteed: bool


@dataclass(frozen=True)
class TheoremReport:
    """How a converged state sits against the structural guarantees.

    For each shell the guarantees say: (i) an occupied shell has a
    non-positive eigenvalue, and a strictly negative eigenvalue forces a
    full norm; (ii) a shell is non-empty whenever the nucleus dominates
    the other electrons' charge (restricted: ``Z > N - 2(2l+1)``;
    unrestricted: ``Z > N - (2l+1)``), and for ``Z >= N - 1`` norms are
    full (unrestricted: guaranteed for ``l != 0`` shells); (iii) for
    ``Z > N - 1`` every eigenvalue is strictly negative and every norm
    full.  Clauses whose hypotheses are vacuous report ``None``.
    """

    model: str
    Z: float
    N: int
    regime: str
    shells: tuple[ShellVerdict, ...]
    clause_i: bool
    clause_ii: bool | None
    clause_iii: bool | None
    notes: tuple[str, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c is not False for c in (self.clause_i, self.clause_ii, self.clause_iii))


# The energy slack of the corollary's inequalities.
_COROLLARY_TOL = 1e-9


def theorem_report(state: ScfState) -> TheoremReport:
    """Check the structural guarantees on a state (reports, never raises)."""
    config = state.config
    norms, occupied, marginal = state.norms, state.occupied, state.marginal
    full = np.abs(norms - 1.0) <= _NORM_TOL
    N = config.electron_count
    Z = config.Z
    if Z - (N - 1) > 1e-9:
        regime = "Z > N-1"
    elif abs(Z - (N - 1)) <= 1e-9:
        regime = "Z = N-1"
    else:
        regime = "Z < N-1"

    shells = []
    notes: list[str] = []
    clause_i = True
    ii_applicable = []
    for i, sh in enumerate(config.shells):
        eps = float(state.eigenvalues[i])
        nrm = float(norms[i])
        hypothesis = Z > N - config.spin_factor * (2 * sh.l + 1)
        full_norm_hyp = Z >= N - 1 - 1e-9 and (config.model == "rhf" or sh.l != 0)
        shells.append(
            ShellVerdict(
                index=i,
                l=sh.l,
                spin=sh.spin,
                eigenvalue=eps,
                norm=nrm,
                marginal=marginal[i],
                nonzero_guaranteed=hypothesis,
                full_norm_guaranteed=full_norm_hyp,
            )
        )
        # (i): occupied => eps <= 0 (within tol); eps < 0 => full norm.
        if occupied[i] and eps > TOL_ZERO:
            clause_i = False
            notes.append(f"shell {i}: occupied with positive eigenvalue {eps:.3e}")
        if eps < -TOL_ZERO and occupied[i] and not full[i]:
            clause_i = False
            notes.append(f"shell {i}: negative eigenvalue but norm {nrm:.8f}")
        if hypothesis:
            ii_applicable.append(occupied[i])
            if not occupied[i]:
                notes.append(f"shell {i}: guaranteed non-empty but norm {nrm:.3e}")
        if full_norm_hyp:
            ii_applicable.append(full[i])
            if not full[i]:
                notes.append(f"shell {i}: guaranteed full norm but norm {nrm:.8f}")

    clause_ii = all(ii_applicable) if ii_applicable else None
    clause_iii = None
    if regime == "Z > N-1":
        clause_iii = bool(np.all((state.eigenvalues < 0) & full))
        if not clause_iii:
            notes.append("positive-ion regime but not all shells bound and full")
    return TheoremReport(
        model=config.model,
        Z=Z,
        N=N,
        regime=regime,
        shells=tuple(shells),
        clause_i=clause_i,
        clause_ii=clause_ii,
        clause_iii=clause_iii,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Energy inequalities for the one-spin negative ion with an s shell.

    For a spin-polarized configuration ``(s, l_2.., l_s)`` with
    ``l_1 = 0``, nuclear charge matching the non-s electrons and one
    extra electron, the converged energy must fall below the bare
    one-electron ground energy ``-Z^2/4``, while removing the s shell
    must cost enough to stay above ``-(Z^2/4) sum (2l_i+1)/(l_i+1)^2`` —
    which exceeds ``-Z^2/4`` exactly when the shell condition
    ``s < 2 + sum (l_i/(l_i+1))^2`` holds.  Together these force the s
    shell of the minimizer to be fully occupied.
    """

    full_energy: float
    energy_without_s: float
    single_orbital_bound: float
    remainder_bound: float
    shell_condition_holds: bool
    charge_matches: bool
    full_below_single: bool
    remainder_above_bound: bool
    bounds_separate: bool

    @property
    def all_satisfied(self) -> bool:
        return self.full_below_single and self.remainder_above_bound and self.bounds_separate


def corollary_inequalities(
    state: ScfState, table: KernelTable | None = None
) -> CorollaryReport:
    """Evaluate the negative-ion energy inequalities on a converged state."""
    config = state.config
    if config.model != "uhf":
        raise ValueError("the corollary applies to unrestricted states")
    spins = {sh.spin for sh in config.shells}
    if len(spins) != 1:
        raise ValueError("the corollary applies to spin-polarized (one-spin) states")
    if config.shells[0].l != 0 or any(sh.l == 0 for sh in config.shells[1:]):
        raise ValueError(
            "the corollary needs shells (l=0, l_2.., l_s) with l_i >= 1 beyond the first"
        )
    if table is None:
        table = build_kernel_table(state.grid, build_coefficient_table(config.max_l))
    Z = config.Z
    s0 = config.n_shells
    tail = config.shells[1:]
    charge_matches = abs(Z - sum(2 * sh.l + 1 for sh in tail)) <= 1e-9
    condition = s0 < 2 + sum((sh.l / (sh.l + 1)) ** 2 for sh in tail)

    full = total_energy(config, state.orbitals, table).total
    without = field_energy(config, table, mean_field(config, state.orbitals, drop=0)).total

    single_bound = -0.25 * Z * Z
    remainder_bound = -0.25 * Z * Z * sum(
        (2 * sh.l + 1) / (sh.l + 1) ** 2 for sh in tail
    )
    return CorollaryReport(
        full_energy=full,
        energy_without_s=without,
        single_orbital_bound=single_bound,
        remainder_bound=remainder_bound,
        shell_condition_holds=condition,
        charge_matches=charge_matches,
        full_below_single=full <= single_bound + _COROLLARY_TOL,
        remainder_above_bound=without >= remainder_bound - _COROLLARY_TOL,
        bounds_separate=remainder_bound > single_bound,
    )
