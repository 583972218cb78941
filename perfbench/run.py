"""Solve benchmark for radialhf.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload atoms-exp --seed 1 --seconds 18 --trace 0

The package is imported from ``src/`` of that checkout and nothing else;
without it the run exits 1 and prints no result.  A run sets up its
workload three times, then repeats whole rounds of the workload's solves
until the timed solves add up to ``--seconds``.  It prints one JSON
accounting line (failures, machine, check errors) and, last, one JSON
result line, whose
``attempted`` and ``failed`` count one round: every round attempts the
same solves, and ``failed`` is the most that failed in any round.  The
totals over all rounds are in the accounting line.  With ``--trace 1``
the package's public functions are wrapped and the result holds the
per-layer metrics instead of the end-to-end ones; the spans are written
to ``.perfbench_work/spans-<workload>-<seed>.json``.  The exit code is 0
when every check passed and 1 otherwise.

``setup_s`` is the median time of the imports, taken in this process and
in ``IMPORT_REPEATS`` fresh interpreters, plus the median of the three
set-ups; every one of these times is in the accounting line.  It and ``solves_per_s``
are reported at the reference speed of ``accounting.SpeedProbe``: the
wall times are multiplied by the probe's reference time over the median
of its timings in the run, which removes most of the drift a shared
machine adds.  The raw wall times are in the accounting line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Fresh interpreters whose imports are timed besides this process's own.
IMPORT_REPEATS = 4
IMPORTS = ("import time; t0 = time.perf_counter(); import sys; sys.path[:0] = sys.argv[1:]; "
           "import radialhf, accounting, tracing, workloads; print(time.perf_counter() - t0)")
# One BLAS thread: at these matrix sizes a second thread made solves
# slower on a 2-core machine, and the figures spread less without it.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "hf_limit_error": "radial",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "kernels.build_kernel_table_s": "s",
    "kernels.build_kernel_table_calls": "count",
    "kernels.table_mb": "MiB",
    "operators.lowest_eigenpairs_s": "s",
    "operators.eigensolve_dense_calls": "count",
    "operators.eigensolve_shift_invert_calls": "count",
    "energy.total_energy_s": "s",
    "energy.total_energy_calls": "count",
    "energy.analysis_s": "s",
    "scf.solve_s": "s",
    "scf.self_s": "s",
    "scf.iterations": "count",
    "scf.rejections": "count",
    "scf.accept_ratio": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.result_bytes": "bytes",
    "trace.round_solve_s": "s",
}


def _table_bytes(args, kwargs, table):
    pairs = [(l, lp) for l in range(table.max_l + 1) for lp in range(l, table.max_l + 1)]
    return {"bytes": table.direct.nbytes + sum(table.exchange(l, lp).nbytes for l, lp in pairs)}


def _eigensolve_path(args, kwargs, result):
    from radialhf import operators

    fock = args[0] if args else kwargs["fock"]
    cutoff = args[2] if len(args) > 2 else kwargs.get("dense_cutoff", operators.DENSE_CUTOFF)
    return {"path": "dense" if fock.grid.n <= cutoff else "shift-invert"}


def _solve_counts(args, kwargs, state):
    return {"iterations": state.iterations, "rejections": state.rejections}


# Span name, the modules whose attribute of that name callers look up, and
# what to record from each call.
WRAPS = (
    ("kernels.build_kernel_table", ("radialhf.kernels", "radialhf.scf", "radialhf.cli"), _table_bytes),
    ("operators.lowest_eigenpairs", ("radialhf.scf",), _eigensolve_path),
    ("energy.total_energy", ("radialhf.scf", "radialhf.cli"), None),
    ("energy.decompose_shell", ("radialhf.energy",), None),
    ("energy.second_order_coefficient", ("radialhf.scf",), None),
    ("scf.probe_shell", ("radialhf.scf",), None),
    ("scf.corollary_inequalities", ("radialhf.scf",), None),
    ("scf.solve", ("radialhf.scf", "radialhf.cli"), _solve_counts),
    ("cli.main", ("radialhf.cli",), None),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> int:
    """Import radialhf from this checkout's ``src/``; return the BLAS thread count it runs on."""
    src = ROOT / "src"
    if not (src / "radialhf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no radialhf source under {src}")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    import radialhf

    if Path(radialhf.__file__).resolve().parent != (src / "radialhf").resolve():
        raise SystemExit(f"perfbench: imported radialhf from {radialhf.__file__}, not {src}")
    return threads


def import_times(own_s: float) -> list[float]:
    """``own_s`` and the import time of ``IMPORT_REPEATS`` fresh interpreters.

    A single import time spread by about 20 % from one interpreter to the
    next on an idle machine; the median of several follows the imports'
    cost more steadily.
    """
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    times = [own_s]
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORTS, *paths], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = import_package()
    import accounting
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    import_s = import_times(time.perf_counter() - T_START)
    clock = time.perf_counter

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed, blas_threads)
        tracer = tracing.Tracer(clock) if args.trace else None
        if tracer:
            for name, modules, describe in WRAPS:
                for module in modules:
                    tracer.wrap(module, name.rsplit(".", 1)[1], name, describe)

        def span(name):
            return tracer.span(name) if tracer else nullcontext()

        wl.probe.measure()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            with span("setup"):
                wl.setup()
            setup_s.append(clock() - t0)
        wl.probe.measure()

        tally = accounting.Tally()
        while True:
            with span("round") as root:
                attrs = wl.run_round(tally)
            tally.end_round()
            if root is not None:
                root.attrs.update(attrs)
            if tally.seconds >= args.seconds:
                break
        wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        tracer.unwrap_all()
        metrics = tracing.layer_metrics(tracer.spans)
        wl.errors.extend(tracing.nesting_errors(tracer.spans))
        wl.check(metrics["scf.self_s"] >= 0, f"scf.self_s = {metrics['scf.self_s']} is negative")
        wl.check_trace(metrics)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
        units = PER_LAYER_UNITS
    else:
        wl.check(bool(wl.hf_errors), "no solve with a known HF limit converged")
        metrics = {
            "setup_s": (statistics.median(import_s) + statistics.median(setup_s)) * wl.probe.factor(),
            "solves_per_s": tally.solves_per_s(wl.probe.factor()),
            "hf_limit_error": max(wl.hf_errors, default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(tally.rounds),
        "attempted_total": tally.attempted,
        "failed_total": tally.failed,
        "failures": tally.failure_list(),
        "machine": accounting.machine_info(),
        "import_s_each": import_s,
        "setup_s_each": setup_s,
        "solve_wall_s": tally.seconds,
        "wall_solves_per_s": tally.solves_per_s(),
        "probe_s_median": statistics.median(wl.probe.timings),
        "speed_factor": wl.probe.factor(),
        "missing": tracer.missing if tracer else [],
        "errors": wl.errors,
    }))
    correct = not wl.errors
    attempted, failed = tally.per_round()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
