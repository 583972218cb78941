"""Per-run accounting: solves attempted and failed, and the machine they ran on."""

from __future__ import annotations

import ctypes
import os
import statistics
import time
from collections import Counter

import numpy as np
import scipy
import scipy.linalg as sla


class Tally:
    """Counts solves and their wall time; a failed solve adds time but no solve.

    ``end_round`` closes a round.  Every round attempts the same solves,
    so ``per_round`` gives figures that do not depend on how many rounds
    fitted in a run.
    """

    def __init__(self):
        self.attempted = 0
        self.converged = 0
        self.seconds = 0.0
        self.failures: Counter = Counter()
        self.rounds: list[tuple[int, int]] = []
        self._mark = (0, 0)

    def record(self, Z: float, converged: bool, seconds: float, message: str = "",
               iterations: int = 0, rejections: int = 0) -> None:
        self.attempted += 1
        self.seconds += seconds
        if converged:
            self.converged += 1
        else:
            self.failures[(float(Z), message, int(iterations), int(rejections))] += 1

    @property
    def failed(self) -> int:
        return self.attempted - self.converged

    def end_round(self) -> None:
        attempted, failed = self._mark
        self.rounds.append((self.attempted - attempted, self.failed - failed))
        self._mark = (self.attempted, self.failed)

    def per_round(self) -> tuple[int, int]:
        """Solves a round attempts and the most that failed in any round."""
        return max(a for a, _ in self.rounds), max(f for _, f in self.rounds)

    def solves_per_s(self, speed_factor: float = 1.0) -> float:
        """Converged solves per second of solve time multiplied by ``speed_factor``."""
        return self.converged / (self.seconds * speed_factor) if self.seconds > 0 else 0.0

    def failure_list(self) -> list[dict]:
        return [
            {"Z": z, "message": msg, "iterations": it, "rejections": rej, "times": n}
            for (z, msg, it, rej), n in sorted(self.failures.items())
        ]


def openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": openblas_threads(),
    }


class SpeedProbe:
    """Tracks the machine's speed with a fixed task timed through the run.

    On a shared machine the same solve can take twice as long from one
    minute to the next, with CPU time equal to wall time, so the slowdown
    is in the hardware the neighbours share, not in scheduling.  The probe
    is a fixed piece of LAPACK and memory-bound NumPy work, sized like a
    Fock build and eigensolve at n = 600 and independent of radialhf.  The
    benchmark times it after the imports, after the set-ups and after
    every solve; ``factor`` is ``REF_S`` over the median of those timings,
    and multiplying a wall time by it gives the time at the probe's
    reference speed.
    """

    # A fixed normalisation constant of the probe's order of magnitude,
    # not a measured speed: the probe's median on the 2-core machine the
    # README's figures come from was 0.11-0.14 s.
    REF_S = 0.1

    def __init__(self, n: int = 600, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n))
        self.sym = a + a.T
        self.g = rng.standard_normal((n, n))
        self.u = rng.standard_normal((n, n))
        self.k = np.empty((n, n))
        self.clock = clock
        self.timings: list[float] = []

    def work(self) -> None:
        for _ in range(3):
            sla.eigh(self.sym, subset_by_index=(0, 2), driver="evr")
        for _ in range(60):
            np.multiply(self.g, self.u, out=self.k)
            np.add(self.k, self.g, out=self.k)

    def measure(self) -> float:
        t0 = self.clock()
        self.work()
        self.timings.append(self.clock() - t0)
        return self.timings[-1]

    def factor(self) -> float:
        """Reference time over the median of the probe's timings so far."""
        return self.REF_S / statistics.median(self.timings)


class LargeSpeedProbe(SpeedProbe):
    """The probe for work on n x n arrays far larger than the cache.

    At n = 2600 each array is 54 MB, so the solve's speed is set by
    memory bandwidth and by mapping fresh pages, which the small probe,
    whose arrays stay in cache, does not follow.  This probe does the
    steps of one shift-invert iteration on fresh arrays: build a
    symmetric positive definite matrix, factor it by Cholesky, solve with
    the factor, and make two elementwise passes.  It keeps no array
    between timings, so it adds nothing to the resident memory the solves
    find.
    """

    # A fixed normalisation constant, as for the small probe; this probe's
    # median on the same machine was 0.58-0.78 s.
    REF_S = 0.5

    def __init__(self, n: int = 2600, clock=time.perf_counter):
        self.n = n
        self.rng = np.random.default_rng(0)
        self.rhs = self.rng.standard_normal(n)
        self.clock = clock
        self.timings = []

    def work(self) -> None:
        n = self.n
        m = self.rng.standard_normal((n, n))
        m += m.T
        # Off-diagonal entries have variance 2, so the spectrum of m lies
        # within about 2 sqrt(2n) of 0; this shift makes it positive.
        m.flat[:: n + 1] += 4.0 * np.sqrt(n)
        factor = sla.cho_factor(m, overwrite_a=True)
        sla.cho_solve(factor, self.rhs)
        k = m * m
        k += m
