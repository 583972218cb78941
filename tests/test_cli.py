"""Command-line interface: config validation, file contracts, exit codes."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from radialhf import EigensolverError, ScfOptions, scf, validate
from radialhf.cli import ConfigError, load_config, main

HELIUM = {
    "Z": 2,
    "model": "rhf",
    "shells": [{"l": 0}],
    "grid": {"kind": "uniform", "n": 700, "r_max": 12.0},
}

NEON = {
    "Z": 10,
    "model": "rhf",
    "shells": [{"l": 0}, {"l": 0}, {"l": 1}],
    "grid": {"kind": "uniform", "n": 400, "r_max": 10.0},
}


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH,
    so that subprocesses import the package under test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Config parsing


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, HELIUM)
    config, grid, options, output = load_config(path)
    assert config.Z == 2.0 and config.model == "rhf"
    assert (grid.kind, grid.n, grid.r_max) == ("uniform", 700, 12.0)
    assert options.max_iter == 500  # defaults fill in
    assert output == {}


def test_load_config_reads_scf_and_output_sections(tmp_path):
    doc = dict(
        HELIUM,
        scf={"max_iter": 50, "tol_residual": 1e-7},
        output={"result": "res.json", "orbitals_csv": "orb.csv"},
    )
    _, _, options, output = load_config(write_config(tmp_path, doc))
    assert options.max_iter == 50 and options.tol_residual == 1e-7
    assert output == {"result": "res.json", "orbitals_csv": "orb.csv"}


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("Z"), "Z"),
        (lambda d: d.update(Z=-2), "Z"),
        (lambda d: d.update(model="ghf"), "model"),
        (lambda d: d.update(shells=[]), "shells"),
        (lambda d: d.update(shells=[{"l": -1}]), "shells[0].l"),
        (lambda d: d.update(shells=[{"l": 0, "spin": "alpha"}]), "spin"),
        (lambda d: d.update(grid={"kind": "log", "n": 100, "r_max": 5.0}), "grid.kind"),
        (lambda d: d.update(grid={"kind": "uniform", "n": 1, "r_max": 5.0}), "grid.n"),
        (
            lambda d: d.update(
                grid={"kind": "uniform", "n": 100, "r_max": 5.0, "gamma": 2.0}
            ),
            "gamma",
        ),
        (lambda d: d.update(scf={"tol_residual": 0}), "scf.tol_residual"),
        (lambda d: d.update(scf={"cycles": 3}), "scf"),
        (lambda d: d.update(output={"result": 7}), "output.result"),
        (lambda d: d.update(extra=1), "extra"),
    ],
)
def test_load_config_rejects_and_names_field(tmp_path, mutate, needle):
    doc = json.loads(json.dumps(HELIUM))
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    assert needle in str(err.value)


def test_load_config_uhf_requires_spin(tmp_path):
    doc = dict(HELIUM, model="uhf")
    with pytest.raises(ConfigError, match="spin"):
        load_config(write_config(tmp_path, doc))
    doc["shells"] = [{"l": 0, "spin": "up"}]
    with pytest.raises(ConfigError, match="spin"):
        load_config(write_config(tmp_path, doc))


def test_load_config_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="no such file"):
        load_config(tmp_path / "absent.json")


def test_readme_schema_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
    path = tmp_path / "schema.json"
    path.write_text(re.sub(r"//.*", "", block))
    config, grid, options, output = load_config(path)
    assert (config.Z, config.n_shells, grid.n) == (10.0, 3, 1500)
    assert options == ScfOptions()
    assert output["result"] == "neon.result.json"


# ---------------------------------------------------------------------------
# solve command


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-helium")
    path = write_config(tmp_path, HELIUM)
    code = main(["solve", str(path)])
    assert code == 0
    return tmp_path, path


def test_solve_writes_result_files(solved, capsys):
    tmp_path, path = solved
    result = json.loads((tmp_path / "config.result.json").read_text())
    assert result["converged"] is True
    assert result["model"] == "rhf"
    assert result["energy"] < -1.40
    assert len(result["eigenvalues"]) == 1
    assert result["grid"] == {"kind": "uniform", "n": 700, "r_max": 12.0}
    assert (tmp_path / "config.orbitals.csv").exists()


def test_orbitals_csv_contract(solved):
    tmp_path, _ = solved
    with open(tmp_path / "config.orbitals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "f0_l0", "density"]
    assert len(rows) == 1 + 700
    radii = [float(row[0]) for row in rows[1:]]
    assert radii == sorted(radii)
    dens = [float(row[2]) for row in rows[1:]]
    assert min(dens) >= 0.0


def test_solve_summary_output(tmp_path, capsys):
    path = write_config(tmp_path, HELIUM)
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert "energy" in out
    assert "radial" in out


def test_solve_hartree_units_double_display_only(tmp_path, capsys):
    path = write_config(tmp_path, HELIUM)
    assert main(["solve", str(path), "--units", "hartree"]) == 0
    out = capsys.readouterr().out
    shown = float(next(l for l in out.splitlines() if l.startswith("energy")).split()[2])
    stored = json.loads((tmp_path / "config.result.json").read_text())["energy"]
    assert shown == pytest.approx(2.0 * stored, abs=1e-9)  # display rounds to 10 places


def test_solve_respects_output_section_and_flags(tmp_path):
    doc = dict(HELIUM, output={"result": str(tmp_path / "a.json"),
                               "orbitals_csv": str(tmp_path / "a.csv")})
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path)]) == 0
    assert (tmp_path / "a.json").exists() and (tmp_path / "a.csv").exists()
    # explicit flags win over the config section
    assert main(["solve", str(path), "--out", str(tmp_path / "b.json"),
                 "--orbitals", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.json").exists() and (tmp_path / "b.csv").exists()


def test_solve_exit_2_on_bad_config(tmp_path, capsys):
    doc = dict(HELIUM, model="xyz")
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "update",
    [
        {"grid": {"n": 2}},
        {"shells": [{"l": 0}, {"l": 0}], "grid": {"n": 3}},
    ],
    ids=["one-shell-n2", "two-shells-n3"],
)
def test_solve_exit_2_on_grid_too_small_for_a_channel(tmp_path, capsys, update):
    # the eigensolver needs two points beyond a channel's shells
    path = write_config(tmp_path, dict(HELIUM, **update))
    with pytest.raises(ConfigError, match="grid.n"):
        load_config(path)
    assert main(["solve", str(path)]) == 2
    assert "grid.n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        {"kind": "uniform", "n": 700, "r_max": 1e-300},
        {"kind": "exponential", "n": 700, "r_max": 12.0, "gamma": 700},
        {"kind": "exponential", "n": 700, "r_max": 12.0, "gamma": 800},
        {"kind": "exponential", "n": 700, "r_max": 1e-300},
        {"kind": "uniform", "n": 50, "r_max": 1e-150},
        {"kind": "uniform", "n": 50, "r_max": 1e-100},
    ],
    ids=[
        "uniform-tiny-box",
        "exponential-gamma700",
        "exponential-gamma800",
        "exponential-tiny-box",
        "uniform-n50-1e-150",
        "uniform-n50-1e-100",
    ],
)
def test_solve_exit_2_on_overflowing_grid(tmp_path, capsys, grid):
    # points, weights, the kinetic stencil 1/(h w) or the square the
    # tridiagonal eigensolver forms of it leave double range
    path = write_config(tmp_path, dict(HELIUM, grid=grid))
    with pytest.raises(ConfigError, match="^grid: .*non-finite"):
        load_config(path)
    assert main(["solve", str(path)]) == 2
    assert "config error: grid:" in capsys.readouterr().err


def test_solve_exit_2_on_kernel_overflow(tmp_path, capsys):
    # r**3, the multipole power of the s-p exchange, overflows at r = 1e150
    doc = dict(
        HELIUM,
        shells=[{"l": 0}, {"l": 1}],
        grid={"kind": "uniform", "n": 50, "r_max": 1e150},
    )
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid: ")
    assert "r_max = 1e+150" in err and "max_l = 1" in err


def test_solve_converges_on_uniform_grid_n40000(tmp_path, capsys):
    # above the dense cutoff nothing builds an n x n array (one would take
    # 12.8 GB here), so a fine grid solves in O(n) memory
    doc = dict(HELIUM, grid={"kind": "uniform", "n": 40000, "r_max": 12.0})
    path = write_config(tmp_path, doc, "fine.json")
    assert main(["solve", str(path)]) == 0
    assert "converged" in capsys.readouterr().out
    result = json.loads((tmp_path / "fine.result.json").read_text())
    assert result["converged"] is True


def test_non_convergence_exits_1_with_diagnostics(tmp_path, capsys):
    doc = dict(NEON, scf={"max_iter": 2})
    path = write_config(tmp_path, doc, "stuck.json")
    assert main(["solve", str(path)]) == 1
    out = capsys.readouterr().out
    assert "NOT converged" in out
    result = json.loads((tmp_path / "stuck.result.json").read_text())
    assert result["converged"] is False
    assert result["message"]
    assert len(result["energy_trace"]) >= 1
    # the orbital snapshot is still written, with one column per shell
    with open(tmp_path / "stuck.orbitals.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["r", "f0_l0", "f1_l0", "f2_l1", "density"]


def test_eigensolver_failure_exits_1_with_diagnostics(tmp_path, capsys, monkeypatch):
    real = scf.lowest_eigenpairs
    calls = []

    def fail_on_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise EigensolverError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(scf, "lowest_eigenpairs", fail_on_third)
    path = write_config(tmp_path, HELIUM, "broken.json")
    assert main(["solve", str(path)]) == 1
    assert "NOT converged" in capsys.readouterr().out
    result = json.loads((tmp_path / "broken.result.json").read_text())
    assert result["converged"] is False
    assert result["message"] == "eigensolver failed: injected failure"
    assert (tmp_path / "broken.orbitals.csv").is_file()


def test_cli_byte_determinism(tmp_path):
    path = write_config(tmp_path, HELIUM)
    cmd = [sys.executable, "-m", "radialhf.cli", "solve", str(path)]
    blobs = []
    for run in range(2):
        subprocess.run(cmd, check=True, capture_output=True, env=src_env())
        blobs.append(
            (
                (tmp_path / "config.result.json").read_bytes(),
                (tmp_path / "config.orbitals.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# probe command


@pytest.fixture(scope="module")
def solved_wide(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-probe")
    doc = dict(HELIUM, grid={"kind": "uniform", "n": 600, "r_max": 50.0})
    path = write_config(tmp_path, doc, "wide.json")
    assert main(["solve", str(path)]) == 0
    return tmp_path / "wide.result.json", tmp_path / "wide.orbitals.csv"


def test_probe_reports_nonnegative_curvature_at_minimizer(solved_wide, capsys):
    result, orbitals = solved_wide
    code = main(["probe", str(result), str(orbitals),
                 "--shell", "0", "--radii", "5,10,20", "--lam", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "norm-preserving" in out
    values = [float(line.split()[1]) for line in out.splitlines()
              if line.strip() and line.split()[0].replace(".", "").isdigit()]
    assert len(values) == 3
    assert all(v >= -1e-6 for v in values)


def test_probe_rejects_bad_inputs(solved_wide, capsys):
    result, orbitals = solved_wide
    assert main(["probe", str(result), str(orbitals),
                 "--shell", "5", "--radii", "5"]) == 2
    assert main(["probe", str(result), str(orbitals),
                 "--shell", "0", "--radii", "nope"]) == 2
    assert main(["probe", str(result), str(orbitals),
                 "--shell", "0", "--radii", "40"]) == 2  # 2R exceeds the box
    err = capsys.readouterr().err
    assert "input error" in err


def test_probe_rejects_mismatched_files(solved_wide, tmp_path, capsys):
    result, _ = solved_wide
    bad_csv = tmp_path / "other.csv"
    bad_csv.write_text("r,f0_l0,density\n1.0,0.5,0.5\n")
    assert main(["probe", str(result), str(bad_csv),
                 "--shell", "0", "--radii", "5"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: [1, 2], "(top level)"),
        (lambda d: dict(d, shells=[0]), "shells[0]"),
        (lambda d: {k: v for k, v in d.items() if k != "grid"}, "rows"),
        (lambda d: dict(d, breakdown=[]), "malformed"),
        (lambda d: {k: v for k, v in d.items() if k != "eigenvalues"}, "eigenvalues"),
    ],
)
def test_probe_rejects_malformed_result_document(solved_wide, tmp_path, capsys, mutate, needle):
    result, orbitals = solved_wide
    bad = tmp_path / "bad.result.json"
    bad.write_text(json.dumps(mutate(json.loads(result.read_text()))))
    assert main(["probe", str(bad), str(orbitals), "--shell", "0", "--radii", "5"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and needle in err


# ---------------------------------------------------------------------------
# validate command


def test_validate_exits_3_when_a_check_fails(monkeypatch, capsys):
    failing = validate.Check("demo/always-off", "quick", 0.0, lambda: (1.0, "off by one"))
    monkeypatch.setattr(validate, "CATALOGUE", {failing.name: failing})
    assert main(["validate", "--level", "quick"]) == 3
    out = capsys.readouterr().out
    assert "FAIL  demo/always-off" in out
    assert "0/1 checks passed (quick)" in out


def test_package_runs_as_module():
    cmd = [sys.executable, "-m", "radialhf", "validate", "--help"]
    done = subprocess.run(cmd, env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: radialhf validate")
