"""The four atomic workloads and the checks on their outputs.

Every workload has a fixed list of solves.  A round runs each of them once
and times each solve alone; checks run between solves, outside the timed
calls.  The seed only sets the order of the solves within a round (and
of the probe radii on ``large-grid``); no input value depends on it.
Every solve must converge, except the two ``neon-like-scan`` solves that
stall today (``STALLS``); a solve that fails otherwise fails the run.

The package is called through module attributes (``scf.solve``,
``cli.main``) at call time, so that a tracer wrapping those attributes
sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

from radialhf import angular, cli, energy, grid as grids, kernels, scf
from radialhf.configuration import ALPHA, BETA, Configuration, ShellSpec

import references
from accounting import LargeSpeedProbe, SpeedProbe, openblas_threads

NORM_TOL = 1e-6
clock = time.perf_counter


def _rhf(*ls):
    return tuple(ShellSpec(l) for l in ls)


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, blas_threads: int):
        self.workdir = workdir
        self.blas_threads = blas_threads
        self.rng = random.Random(seed)
        self.errors: list[str] = []
        self.hf_errors: list[float] = []
        self.probe = self.make_probe()

    def make_probe(self) -> SpeedProbe:
        return SpeedProbe()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def check_hf_limit(self, label: str, Z: int, grid, E: float) -> None:
        err = abs(E - references.HF_LIMIT[Z])
        bound = references.DISCRETISATION_BOUND[(Z, grid.kind, grid.n, grid.r_max)]
        self.hf_errors.append(err)
        self.check(err <= bound, f"{label}: |E - E_HF| = {err:.3e} exceeds the bound {bound:.1e}")

    def check_converged(self, label: str, converged: bool, message: str) -> None:
        self.check(converged, f"{label}: did not converge: {message}")

    def check_norms(self, label: str, norms) -> None:
        self.check(all(abs(x - 1.0) <= NORM_TOL for x in norms), f"{label}: norms {list(norms)} not all 1")

    def timed(self, fn):
        """``(fn(), wall seconds)``, then a speed probe outside the timing.

        The BLAS thread count is checked after every call, since a package
        that changed it would also change the probe's speed.
        """
        t0 = clock()
        result = fn()
        seconds = clock() - t0
        threads = openblas_threads()
        self.check(all(t == self.blas_threads for t in threads.values()),
                   f"BLAS thread count {threads} is not {self.blas_threads}")
        self.probe.measure()
        return result, seconds

    def timed_solve(self, tally, config, grid, table=None):
        state, dt = self.timed(lambda: scf.solve(config, grid, table))
        tally.record(config.Z, state.converged, dt, state.message, state.iterations, state.rejections)
        return state, dt

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tally) -> dict:
        """Run every solve once; return attributes for the round's span."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every round (run after the last one)."""

    def check_trace(self, metrics: dict) -> None:
        """Checks on the traced run's per-layer metrics: dense eigensolves only."""
        self.check(metrics["operators.eigensolve_shift_invert_calls"] == 0, f"{self.name}: a shift-invert eigensolve")


class AtomsExp(Workload):
    """He, Be, Ne and Ar in RHF through ``radialhf solve``, one table each."""

    name = "atoms-exp"
    ATOMS = (
        ("He", 2, (0,), 800, 20.0),
        ("Be", 4, (0, 0), 800, 30.0),
        ("Ne", 10, (0, 0, 1), 800, 20.0),
        ("Ar", 18, (0, 0, 1, 0, 1), 600, 20.0),
    )

    def __init__(self, workdir, seed, blas_threads):
        super().__init__(workdir, seed, blas_threads)
        self.order = self.rng.sample(range(len(self.ATOMS)), len(self.ATOMS))

    def setup(self):
        self.paths = []
        for label, Z, ls, n, r_max in self.ATOMS:
            doc = {
                "Z": Z,
                "model": "rhf",
                "shells": [{"l": l} for l in ls],
                "grid": {"kind": "exponential", "n": n, "r_max": r_max},
            }
            cfg = self.workdir / f"{label}.json"
            cfg.write_text(json.dumps(doc) + "\n")
            self.paths.append((cfg, self.workdir / f"{label}.result.json", self.workdir / f"{label}.csv"))

    def run_round(self, tally):
        solve_s = 0.0
        result_bytes = 0
        for idx in self.order:
            label, Z, ls, n, r_max = self.ATOMS[idx]
            cfg, res, csv = self.paths[idx]
            res.unlink(missing_ok=True)
            csv.unlink(missing_ok=True)

            def call():
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(["solve", str(cfg), "--out", str(res), "--orbitals", str(csv)])
            code, dt = self.timed(call)
            if code not in (0, 1):
                raise RuntimeError(f"radialhf solve {cfg.name} exited {code}")
            solve_s += dt
            doc = json.loads(res.read_text())
            tally.record(Z, doc["converged"], dt, doc["message"], doc["iterations"], doc["rejections"])
            result_bytes += res.stat().st_size + csv.stat().st_size
            self.check(code == 0, f"{label}: radialhf solve exited {code}")
            self.check_converged(label, doc["converged"], doc["message"])
            if not doc["converged"]:
                continue
            grid = grids.make_grid("exponential", n, r_max)
            self.check_hf_limit(label, Z, grid, doc["energy"])
            self.check(all(e < 0 for e in doc["eigenvalues"]), f"{label}: a level is not negative")
            self.check_norms(label, doc["norms"])
            self.check(doc["theorem"]["clause_iii"] is True, f"{label}: clause iii is {doc['theorem']['clause_iii']}")
            with open(csv) as fh:
                rows = sum(1 for _ in fh) - 1
            self.check(rows == n, f"{label}: CSV has {rows} data rows, expected {n}")
        return {"solve_s": solve_s, "result_bytes": result_bytes}


class NeonLikeScan(Workload):
    """N = 10 RHF (1s 2s 2p) across Z on one shared grid and table."""

    name = "neon-like-scan"
    ZS = (8.0, 8.5, 9.0, 10.0, 11.0, 12.0)
    # Solves that stop today at the damping floor; each may fail only so.
    STALLS = (8.0, 8.5)
    STALL_MESSAGE = "stalled: damping floor reached without energy decrease"

    def __init__(self, workdir, seed, blas_threads):
        super().__init__(workdir, seed, blas_threads)
        self.order = self.rng.sample(self.ZS, len(self.ZS))

    def setup(self):
        self.grid = grids.make_grid("exponential", 600, 30.0)
        self.table = kernels.build_kernel_table(self.grid, angular.build_coefficient_table(1))

    def run_round(self, tally):
        solve_s = 0.0
        energies = {}
        for Z in self.order:
            config = Configuration(Z=Z, model="rhf", shells=_rhf(0, 0, 1))
            state, dt = self.timed_solve(tally, config, self.grid, self.table)
            solve_s += dt
            if not state.converged:
                self.check(
                    Z in self.STALLS and state.message == self.STALL_MESSAGE,
                    f"Z={Z}: did not converge: {state.message}",
                )
                continue
            energies[Z] = state.energy
            report = scf.theorem_report(state)
            self.check(report.all_satisfied, f"Z={Z}: theorem report fails: {report.notes}")
            if Z == 9.0:
                self.check_norms("Z=9", state.norms)
            if Z == 10.0:
                self.check_hf_limit("Z=10", 10, self.grid, state.energy)
        zs = sorted(energies)
        self.check(
            references.decreasing_and_concave(zs, [energies[z] for z in zs]),
            f"E(Z) is not strictly decreasing and concave: {energies}",
        )
        return {"solve_s": solve_s}


class OpenShellUhf(Workload):
    """Li in UHF, Be in UHF beside Be in RHF, and the spinless Z=3 ion."""

    name = "open-shell-uhf"

    def __init__(self, workdir, seed, blas_threads):
        super().__init__(workdir, seed, blas_threads)
        self.order = self.rng.sample(range(4), 4)

    def setup(self):
        self.wide = grids.make_grid("exponential", 600, 40.0)
        self.be_grid = grids.make_grid("exponential", 600, 30.0)
        self.solves = (
            ("Li", Configuration(Z=3.0, model="uhf", shells=(ShellSpec(0, ALPHA), ShellSpec(0, ALPHA), ShellSpec(0, BETA))), self.wide),
            ("Be-uhf", Configuration(Z=4.0, model="uhf", shells=(ShellSpec(0, ALPHA), ShellSpec(0, ALPHA), ShellSpec(0, BETA), ShellSpec(0, BETA))), self.be_grid),
            ("Be-rhf", Configuration(Z=4.0, model="rhf", shells=_rhf(0, 0)), self.be_grid),
            ("Z=3 spinless", Configuration(Z=3.0, model="uhf", shells=(ShellSpec(0, ALPHA), ShellSpec(1, ALPHA))), self.wide),
        )

    def run_round(self, tally):
        solve_s = 0.0
        states = {}
        for idx in self.order:
            label, config, grid = self.solves[idx]
            state, dt = self.timed_solve(tally, config, grid)
            solve_s += dt
            self.check_converged(label, state.converged, state.message)
            if state.converged:
                states[label] = state
        if "Li" in states:
            report = scf.theorem_report(states["Li"])
            self.check(report.all_satisfied, f"Li: theorem report fails: {report.notes}")
        for label in ("Be-uhf", "Be-rhf"):
            if label in states:
                self.check_hf_limit(label, 4, self.be_grid, states[label].energy)
        if "Be-uhf" in states and "Be-rhf" in states:
            e_u, e_r = states["Be-uhf"].energy, states["Be-rhf"].energy
            tol = scf.ScfOptions().tol_energy * (1.0 + abs(e_r))
            self.check(abs(e_u - e_r) <= tol, f"Be: UHF {e_u!r} and RHF {e_r!r} differ by more than {tol:.1e}")
        if "Z=3 spinless" in states:
            ion = states["Z=3 spinless"]
            self.check_norms("Z=3 spinless", ion.norms)
            self.check(scf.corollary_inequalities(ion).all_satisfied, "Z=3 spinless: corollary inequalities fail")
        return {"solve_s": solve_s}


class LargeGrid(Workload):
    """Helium on a uniform grid above the dense eigensolver cutoff."""

    name = "large-grid"
    N, R_MAX = 2600, 15.0
    RADII = (1.0, 2.0, 4.0, 7.0)

    def __init__(self, workdir, seed, blas_threads):
        super().__init__(workdir, seed, blas_threads)
        self.radii = self.rng.sample(self.RADII, len(self.RADII))
        self.energies: list[float] = []

    def make_probe(self):
        return LargeSpeedProbe(self.N)

    def setup(self):
        self.grid = grids.make_grid("uniform", self.N, self.R_MAX)
        self.table = kernels.build_kernel_table(self.grid, angular.build_coefficient_table(0))

    def run_round(self, tally):
        config = Configuration(Z=2.0, model="rhf", shells=_rhf(0))
        self.check(self.grid.n > scf.ScfOptions().dense_cutoff, "large-grid: n is not above the dense cutoff")
        state, dt = self.timed_solve(tally, config, self.grid, self.table)
        self.check_converged("He", state.converged, state.message)
        if state.converged:
            E = state.energy
            self.energies.append(E)
            self.check_hf_limit("He", 2, self.grid, E)
            parts = energy.decompose_shell(config, list(state.orbitals), self.table, 0)
            self.check(abs(parts.total - E) <= 1e-10 * abs(E), f"He: decomposition sums to {parts.total!r}, energy {E!r}")
            probes = scf.probe_shell(state, 0, self.radii, lam=1.0, table=self.table)
            self.check(all(p.coefficient >= -1e-6 for p in probes), f"He: negative probe coefficient {probes}")
        return {"solve_s": dt}

    def finish(self):
        ref = references.helium_energy(self.N, self.R_MAX)
        for E in self.energies:
            self.check(abs(E - ref) <= 1e-10 * abs(ref), f"He: E = {E!r}, independent solver {ref!r}")

    def check_trace(self, metrics):
        self.check(metrics["operators.eigensolve_dense_calls"] == 0, "large-grid: a dense eigensolve")
        self.check(metrics["operators.eigensolve_shift_invert_calls"] > 0, "large-grid: no shift-invert eigensolve")


WORKLOADS = {w.name: w for w in (AtomsExp, NeonLikeScan, OpenShellUhf, LargeGrid)}
