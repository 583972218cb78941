"""Command-line interface: solve, validate, probe.

``radialhf solve config.json`` runs the SCF solver described by a JSON
configuration and writes a result document plus an orbital table.  Both
output files are deterministic: byte-identical inputs give byte-identical
outputs (sorted keys, fixed float formatting, no timestamps).

``radialhf validate --level quick|full`` runs the named self-check suite
and reports one line per check.

``radialhf probe result.json orbitals.csv --shell I --radii R,...``
reloads a solved state and evaluates the far-field second-order response
of the energy on one shell.

Exit codes: 0 success; 1 the iteration did not converge; 2 invalid
configuration or input files; 3 validation failures.

Stored quantities are always in radial units (kinetic term ``|f'|^2``,
hydrogenic levels at ``-Z^2/(4 n^2)``); ``--units hartree`` converts
*displayed* energies by the factor 2, never the files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .angular import build_coefficient_table
from .configuration import ALPHA, BETA, Configuration, ShellSpec
from .energy import EnergyBreakdown
from .grid import RadialFunction, RadialGrid, make_grid
from .kernels import build_kernel_table
from .scf import (
    ScfOptions,
    ScfState,
    make_default_grid,
    probe_shell,
    solve,
    theorem_report,
)

__all__ = ["main", "ConfigError", "load_config", "load_state", "state_to_document"]

_SPINS = (ALPHA, BETA)


class ConfigError(ValueError):
    """A configuration file problem, reported with its field path."""


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_keys(obj: dict, path: str, allowed: set[str]) -> None:
    unknown = sorted(set(obj) - allowed)
    _expect(not unknown, path, f"unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _parse_shells(raw: Any, model: str) -> tuple[ShellSpec, ...]:
    _expect(isinstance(raw, list) and raw, "shells", "must be a non-empty list")
    shells = []
    for idx, entry in enumerate(raw):
        path = f"shells[{idx}]"
        _expect(isinstance(entry, dict), path, "must be an object")
        _check_keys(entry, path, {"l", "spin"})
        _expect("l" in entry, path, "missing required key 'l'")
        l = entry["l"]
        _expect(
            isinstance(l, int) and not isinstance(l, bool) and l >= 0,
            f"{path}.l",
            "must be a non-negative integer",
        )
        spin = entry.get("spin")
        if model == "rhf":
            _expect(spin is None, f"{path}.spin", "restricted shells carry no spin label")
        else:
            _expect(
                spin in _SPINS,
                f"{path}.spin",
                f"unrestricted shells need spin 'alpha' or 'beta', got {spin!r}",
            )
        shells.append(ShellSpec(l=l, spin=spin))
    return tuple(shells)


def _parse_grid(raw: Any, config: Configuration) -> RadialGrid:
    default = make_default_grid(config)
    if raw is None:
        return default
    _expect(isinstance(raw, dict), "grid", "must be an object")
    _check_keys(raw, "grid", {"kind", "n", "r_max", "gamma"})
    kind = raw.get("kind", "uniform")
    _expect(kind in ("uniform", "exponential"), "grid.kind", "must be 'uniform' or 'exponential'")
    n = raw.get("n", default.n)
    _expect(
        isinstance(n, int) and not isinstance(n, bool) and 2 <= n <= 100_000,
        "grid.n",
        "must be an integer in [2, 100000]",
    )
    # The eigensolver needs two points beyond the shells of each channel.
    need = max(len(idx) for idx in config.channels().values()) + 2
    _expect(n >= need, "grid.n", f"must be at least {need} for a channel of {need - 2} shells")
    r_max = raw.get("r_max", default.r_max)
    _expect(_is_number(r_max) and r_max > 0, "grid.r_max", "must be a positive number")
    gamma = raw.get("gamma", 6.0)
    if kind == "uniform":
        _expect("gamma" not in raw, "grid.gamma", "only applies to exponential grids")
    else:
        _expect(_is_number(gamma) and gamma > 0, "grid.gamma", "must be a positive number")
    try:
        return make_grid(kind, n, float(r_max), gamma=float(gamma))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")


def _parse_scf(raw: Any) -> ScfOptions:
    if raw is None:
        return ScfOptions()
    _expect(isinstance(raw, dict), "scf", "must be an object")
    _check_keys(raw, "scf", {"tol_energy", "tol_residual", "max_iter"})
    kw: dict[str, Any] = {}
    for key in ("tol_energy", "tol_residual"):
        if key in raw:
            _expect(_is_number(raw[key]) and raw[key] > 0, f"scf.{key}", "must be > 0")
            kw[key] = float(raw[key])
    if "max_iter" in raw:
        v = raw["max_iter"]
        _expect(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1,
            "scf.max_iter",
            "must be a positive integer",
        )
        kw["max_iter"] = v
    return ScfOptions(**kw)


def _parse_output(raw: Any) -> dict[str, str]:
    if raw is None:
        return {}
    _expect(isinstance(raw, dict), "output", "must be an object")
    _check_keys(raw, "output", {"result", "orbitals_csv"})
    out = {}
    for key in ("result", "orbitals_csv"):
        if key in raw:
            _expect(
                isinstance(raw[key], str) and raw[key],
                f"output.{key}",
                "must be a non-empty path string",
            )
            out[key] = raw[key]
    return out


def _read_json_object(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    _expect(isinstance(raw, dict), "(top level)", "must be a JSON object")
    return raw


def _parse_configuration(raw: dict) -> Configuration:
    _expect("Z" in raw, "Z", "missing required key")
    _expect(_is_number(raw["Z"]) and raw["Z"] > 0, "Z", "must be a positive number")
    model = raw.get("model")
    _expect(model in ("rhf", "uhf"), "model", "must be 'rhf' or 'uhf'")
    shells = _parse_shells(raw.get("shells"), model)
    try:
        return Configuration(Z=float(raw["Z"]), model=model, shells=shells)
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(
    path: str | Path,
) -> tuple[Configuration, RadialGrid, ScfOptions, dict[str, str]]:
    """Parse and validate a configuration file.

    Returns the configuration, grid, solver options, and any output
    paths given in the file.  Raises :class:`ConfigError` with the
    offending field path on any problem; never returns a partially valid
    setup.
    """
    raw = _read_json_object(Path(path))
    _check_keys(raw, "(top level)", {"Z", "model", "shells", "grid", "scf", "output"})
    config = _parse_configuration(raw)
    grid = _parse_grid(raw.get("grid"), config)
    options = _parse_scf(raw.get("scf"))
    output = _parse_output(raw.get("output"))
    return config, grid, options, output


# ---------------------------------------------------------------------------
# Result documents


def _shell_dicts(config: Configuration) -> list[dict]:
    return [{"l": sh.l, "spin": sh.spin} for sh in config.shells]


def state_to_document(state: ScfState, options: ScfOptions) -> dict:
    """JSON-ready result document (radial units, deterministic layout)."""
    rep = theorem_report(state)
    grid_doc: dict[str, Any] = {
        "kind": state.grid.kind,
        "n": state.grid.n,
        "r_max": state.grid.r_max,
    }
    if state.grid.gamma is not None:
        grid_doc["gamma"] = state.grid.gamma
    return {
        "model": state.config.model,
        "Z": state.config.Z,
        "shells": _shell_dicts(state.config),
        "grid": grid_doc,
        "options": {
            "tol_energy": options.tol_energy,
            "tol_residual": options.tol_residual,
            "max_iter": options.max_iter,
        },
        "converged": state.converged,
        "iterations": state.iterations,
        "rejections": state.rejections,
        "message": state.message,
        "energy": state.energy,
        "breakdown": {
            "kinetic": state.breakdown.kinetic,
            "attraction": state.breakdown.attraction,
            "direct": state.breakdown.direct,
            "exchange": state.breakdown.exchange,
        },
        "eigenvalues": [float(x) for x in state.eigenvalues],
        "norms": [float(x) for x in state.norms],
        "residuals": [float(x) for x in state.residuals],
        "marginal": list(state.marginal),
        "energy_trace": [float(x) for x in state.energy_trace],
        "theorem": {
            "regime": rep.regime,
            "clause_i": rep.clause_i,
            "clause_ii": rep.clause_ii,
            "clause_iii": rep.clause_iii,
            "notes": list(rep.notes),
            "shells": [
                {
                    "index": s.index,
                    "l": s.l,
                    "spin": s.spin,
                    "eigenvalue": s.eigenvalue,
                    "norm": s.norm,
                    "marginal": s.marginal,
                    "nonzero_guaranteed": s.nonzero_guaranteed,
                    "full_norm_guaranteed": s.full_norm_guaranteed,
                }
                for s in rep.shells
            ],
        },
    }


def _orbital_label(config: Configuration, i: int) -> str:
    sh = config.shells[i]
    tag = f"f{i}_l{sh.l}"
    if sh.spin is not None:
        tag += f"_{sh.spin}"
    return tag


def _write_orbitals_csv(path: Path, state: ScfState) -> None:
    config = state.config
    labels = [_orbital_label(config, i) for i in range(config.n_shells)]
    density = np.zeros(state.grid.n)
    for i in range(config.n_shells):
        density += (
            config.spin_factor
            * config.shell_weight(i)
            * np.abs(state.orbitals[i].values) ** 2
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r"] + labels + ["density"])
        for row in range(state.grid.n):
            writer.writerow(
                [f"{state.grid.points[row]:.16e}"]
                + [f"{np.real(state.orbitals[i].values[row]):.16e}" for i in range(config.n_shells)]
                + [f"{density[row]:.16e}"]
            )


def _read_orbitals_csv(path: Path, grid: RadialGrid, n_shells: int) -> list[RadialFunction]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != n_shells + 2 or header[0] != "r":
            raise ConfigError(f"{path}: not an orbital table for {n_shells} shells")
        rows = list(reader)
    if len(rows) != grid.n:
        raise ConfigError(f"{path}: {len(rows)} rows, grid has {grid.n} points")
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"{path}: every row needs {len(header)} columns")
    data = np.array([[float(x) for x in row] for row in rows])
    if not np.allclose(data[:, 0], grid.points, rtol=0, atol=1e-12):
        raise ConfigError(f"{path}: radii do not match the grid in the result document")
    return [RadialFunction(grid, data[:, 1 + i].copy()) for i in range(n_shells)]


def load_state(result_path: str | Path, csv_path: str | Path) -> ScfState:
    """Rebuild a solved state from the two files ``radialhf solve`` writes.

    The configuration and grid are parsed from the result document with
    the same rules as a configuration file; the orbitals come from the
    table.  Raises :class:`ConfigError` on any malformed or mismatched
    input (and ``OSError`` if the orbital table cannot be read).
    """
    path = Path(result_path)
    raw = _read_json_object(path)
    config = _parse_configuration(raw)
    grid = _parse_grid(raw.get("grid"), config)
    orbitals = _read_orbitals_csv(Path(csv_path), grid, config.n_shells)
    try:
        return ScfState(
            config=config,
            grid=grid,
            orbitals=tuple(orbitals),
            eigenvalues=np.array(raw["eigenvalues"], dtype=float),
            norms=np.array([f.norm() for f in orbitals]),
            residuals=np.array(raw["residuals"], dtype=float),
            marginal=tuple(bool(x) for x in raw["marginal"]),
            breakdown=EnergyBreakdown(
                *(float(raw["breakdown"][k])
                  for k in ("kinetic", "attraction", "direct", "exchange"))
            ),
            energy_trace=tuple(float(x) for x in raw["energy_trace"]),
            iterations=int(raw["iterations"]),
            converged=bool(raw["converged"]),
            message=str(raw["message"]),
            rejections=int(raw["rejections"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed result document ({exc!r})")


# ---------------------------------------------------------------------------
# Commands


def _unit_scale(units: str) -> tuple[float, str]:
    return (2.0, "hartree") if units == "hartree" else (1.0, "radial")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        config, grid, options, output = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        table = build_kernel_table(grid, build_coefficient_table(config.max_l))
    except ValueError as exc:  # the kernels' multipole powers leave double range
        print(f"config error: grid: {exc}", file=sys.stderr)
        return 2
    state = solve(config, grid, table, options)
    scale, unit_name = _unit_scale(args.units)

    default_json = output.get("result") or Path(args.config).with_suffix(".result.json")
    default_csv = output.get("orbitals_csv") or Path(args.config).with_suffix(".orbitals.csv")
    out_json = Path(args.out) if args.out else Path(default_json)
    out_csv = Path(args.orbitals) if args.orbitals else Path(default_csv)
    doc = state_to_document(state, options)
    out_json.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _write_orbitals_csv(out_csv, state)

    status = "converged" if state.converged else f"NOT converged ({state.message})"
    print(f"{config.model} Z={config.Z:g} shells={len(config.shells)}: {status} "
          f"in {state.iterations} iterations")
    print(f"energy = {scale * state.energy:.10f} {unit_name}")
    for i in range(config.n_shells):
        sh = config.shells[i]
        spin = f" {sh.spin}" if sh.spin else ""
        flag = " (marginal)" if state.marginal[i] else ""
        print(
            f"  shell {i}: l={sh.l}{spin}  eps = {scale * state.eigenvalues[i]:+.8f}"
            f"  norm = {state.norms[i]:.8f}  residual = {state.residuals[i]:.2e}{flag}"
        )
    rep = theorem_report(state)
    clauses = ", ".join(
        f"{name}={'n/a' if val is None else val}"
        for name, val in (("i", rep.clause_i), ("ii", rep.clause_ii), ("iii", rep.clause_iii))
    )
    print(f"structure: regime {rep.regime}; clauses {clauses}")
    for note in rep.notes:
        print(f"  note: {note}")
    print(f"wrote {out_json} and {out_csv}")
    return 0 if state.converged else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from .validate import run_checks

    results = run_checks(args.level)
    width = max(len(c.name) for c in results)
    for c in results:
        mark = "PASS" if c.passed else "FAIL"
        line = f"{mark}  {c.name:<{width}}"
        if c.detail:
            line += f"  {c.detail}"
        print(line)
    passed = sum(c.passed for c in results)
    print(f"{passed}/{len(results)} checks passed ({args.level})")
    return 0 if passed == len(results) else 3


def cmd_probe(args: argparse.Namespace) -> int:
    try:
        state = load_state(args.result, args.orbitals)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        radii = [float(x) for x in args.radii.split(",") if x.strip()]
        if not radii:
            raise ValueError("empty list")
    except ValueError:
        print(f"input error: --radii expects comma-separated numbers, got {args.radii!r}",
              file=sys.stderr)
        return 2
    scale, unit_name = _unit_scale(args.units)
    try:
        results = probe_shell(state, args.shell, radii, lam=args.lam)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    kind = "norm-preserving" if args.lam else "norm-growing"
    print(f"shell {args.shell} second-order response, {kind} path "
          f"(lam = {args.lam:g}), {unit_name} units")
    print(f"{'R':>10}  {'coefficient':>16}")
    for pr in results:
        print(f"{pr.R:>10.3f}  {scale * pr.coefficient:>+16.8e}")
    if args.lam == 0.0 and any(pr.coefficient < 0 for pr in results):
        print("negative far-field response: the shell can lower the energy "
              "by growing its norm (not a minimizer with this norm)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="radialhf",
        description="Radial restricted/unrestricted Hartree-Fock for atomic shell configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the SCF solver on a JSON configuration")
    p_solve.add_argument("config", help="configuration JSON file")
    p_solve.add_argument("--out", help="result JSON path (default: <config>.result.json)")
    p_solve.add_argument("--orbitals", help="orbital CSV path (default: <config>.orbitals.csv)")
    p_solve.add_argument("--units", choices=("radial", "hartree"), default="radial",
                         help="display units for energies (files always use radial units)")
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate", help="run the numerical self-check suite")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick")
    p_val.set_defaults(func=cmd_validate)

    p_probe = sub.add_parser("probe", help="far-field minimality probe on a solved state")
    p_probe.add_argument("result", help="result JSON from 'solve'")
    p_probe.add_argument("orbitals", help="orbital CSV from 'solve'")
    p_probe.add_argument("--shell", type=int, required=True, help="shell index to probe")
    p_probe.add_argument("--radii", required=True, help="comma-separated bump scales R")
    p_probe.add_argument("--lam", type=float, default=1.0,
                         help="path normalization: 1 = norm-preserving (default), 0 = norm-growing")
    p_probe.add_argument("--units", choices=("radial", "hartree"), default="radial")
    p_probe.set_defaults(func=cmd_probe)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
