"""The package as the benchmark in ``perfbench/`` sees it.

The benchmark wraps the package's functions by name and reads a few of
its attributes; a change that deletes or renames one of them fails here,
in the test suite, rather than in a benchmark run.  Nothing under
``perfbench/`` is edited.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from radialhf import Configuration, ShellSpec, angular, cli, kernels, operators, scf
from radialhf import grid as grids

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Top-level modules of the benchmark, loaded from its directory.
BENCH_MODULES = ("accounting", "references", "tracing", "workloads")


def test_traced_round_sees_both_eigensolve_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run_interface", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        import tracing
        import workloads

        large = grids.make_grid("uniform", workloads.LargeGrid.N, workloads.LargeGrid.R_MAX)
        table = kernels.build_kernel_table(large, angular.build_coefficient_table(0))
        cfg = tmp_path / "He.json"
        cfg.write_text(json.dumps({
            "Z": 2, "model": "rhf", "shells": [{"l": 0}],
            "grid": {"kind": "exponential", "n": 200, "r_max": 20.0},
        }))
        helium = Configuration(Z=2.0, model="rhf", shells=(ShellSpec(0),))

        tracer = tracing.Tracer()
        try:
            for name, modules, describe in run.WRAPS:
                for module in modules:
                    tracer.wrap(module, name.rsplit(".", 1)[1], name, describe)
            with tracer.span("round"):
                code = cli.main(["solve", str(cfg), "--out", str(tmp_path / "He.result.json"),
                                 "--orbitals", str(tmp_path / "He.csv")])
                state = scf.solve(helium, large, table)
        finally:
            tracer.unwrap_all()
    finally:
        for name in set(sys.modules) - loaded:
            if name in BENCH_MODULES or name == "perfbench_run_interface":
                del sys.modules[name]
    capsys.readouterr()

    assert code == 0 and state.converged
    # the CLI never imports total_energy; every other wrapped name exists
    assert tracer.missing == ["radialhf.cli.total_energy"]
    assert tracing.nesting_errors(tracer.spans) == []
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["operators.eigensolve_dense_calls"] > 0
    assert metrics["operators.eigensolve_shift_invert_calls"] > 0
    assert metrics["kernels.build_kernel_table_calls"] == 1
    assert metrics["energy.total_energy_calls"] > 0
    assert metrics["scf.iterations"] == state.iterations + json.loads(
        (tmp_path / "He.result.json").read_text())["iterations"]
    # the eigensolve label falls back on operators.DENSE_CUTOFF when a
    # caller passes no cutoff
    assert operators.DENSE_CUTOFF == scf.ScfOptions().dense_cutoff < workloads.LargeGrid.N
