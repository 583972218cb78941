"""Outside-in tracing: spans around calls into the package's public functions.

A ``Tracer`` replaces a module attribute with a wrapper that records one
span per call: name, start, end, the index of the enclosing span and any
attributes a describe function takes from the call.  Each function is
wrapped under the name its caller looks it up by (``radialhf.scf.solve``
and ``radialhf.cli.solve`` both become ``scf.solve`` spans), so the spans
see every call without a change to the package.  A name that no longer
exists is skipped and listed in ``missing``.

Spans are kept in memory; ``layer_metrics`` reduces them to the per-layer
metrics and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself (set-up, round)."""
        span = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module_name: str, attr: str, span_name: str, describe=None) -> None:
        """Wrap ``module_name.attr``; ``describe(args, kwargs, result)`` adds attributes."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return

        def traced(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        doc = {"missing": self.missing, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n")


def children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out[s.parent].append(i)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans' durations.

    The tracer's stack nests children one after another inside their
    parent; ``nesting_errors`` reports any span that does not.
    """
    kids = children(spans)
    return [s.duration - sum(spans[k].duration for k in kids[i]) for i, s in enumerate(spans)]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    errors = []
    for i, s in enumerate(spans):
        if not s.end >= s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) lies outside its parent {s.parent} ({p.name})")
    return errors


ANALYSIS = ("energy.decompose_shell", "scf.probe_shell", "scf.corollary_inequalities")


def _root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def _has_ancestor(spans: list[Span], i: int, names) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def _group_metrics(spans: list[Span], members: list[int], self_s: list[float]) -> dict[str, float]:
    def named(name):
        return [i for i in members if spans[i].name == name]

    def total(idx):
        return sum(spans[i].duration for i in idx)

    tables = named("kernels.build_kernel_table")
    eig = named("operators.lowest_eigenpairs")
    energy = named("energy.total_energy")
    solves = named("scf.solve")
    mains = named("cli.main")
    iterations = sum(spans[i].attrs.get("iterations", 0) for i in solves)
    rejections = sum(spans[i].attrs.get("rejections", 0) for i in solves)
    analysis = [
        i for i in members
        if spans[i].name in ANALYSIS and not _has_ancestor(spans, i, ANALYSIS)
    ]
    return {
        "kernels.build_kernel_table_s": total(tables),
        "kernels.build_kernel_table_calls": len(tables),
        "kernels.table_mb": max((spans[i].attrs.get("bytes", 0) for i in tables), default=0) / MIB,
        "operators.lowest_eigenpairs_s": total(eig),
        "operators.eigensolve_dense_calls": sum(spans[i].attrs.get("path") == "dense" for i in eig),
        "operators.eigensolve_shift_invert_calls": sum(
            spans[i].attrs.get("path") == "shift-invert" for i in eig
        ),
        "energy.total_energy_s": total(energy),
        "energy.total_energy_calls": len(energy),
        "energy.analysis_s": total(analysis),
        "scf.solve_s": total(solves),
        "scf.self_s": sum(self_s[i] for i in solves),
        "scf.iterations": iterations,
        "scf.rejections": rejections,
        "scf.accept_ratio": (iterations - rejections) / iterations if iterations else 0.0,
        "cli.main_s": total(mains),
        "cli.self_s": sum(self_s[i] for i in mains),
        "cli.result_bytes": sum(spans[r].attrs.get("result_bytes", 0) for r in members if spans[r].parent is None),
        "trace.round_solve_s": sum(spans[r].attrs.get("solve_s", 0.0) for r in members if spans[r].parent is None),
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics for one set-up and one round.

    The benchmark opens a root span ``setup`` for each set-up and
    ``round`` for each round.  The result is the first set-up's figures
    plus the mean over rounds, so it does not depend on how many rounds
    the run length allowed.  ``scf.accept_ratio`` and
    ``kernels.table_mb`` are taken over all rounds, not summed.
    """
    self_s = self_times(spans)
    groups: dict[int, list[int]] = {}
    for i in range(len(spans)):
        groups.setdefault(_root_of(spans, i), []).append(i)
    setups = [members for r, members in groups.items() if spans[r].name == "setup"]
    rounds = [members for r, members in groups.items() if spans[r].name == "round"]
    if not rounds:
        raise ValueError("no round spans to reduce")
    setup = _group_metrics(spans, setups[0], self_s) if setups else None
    per_round = [_group_metrics(spans, members, self_s) for members in rounds]
    out = {}
    for key in per_round[0]:
        mean = sum(m[key] for m in per_round) / len(per_round)
        out[key] = mean + (setup[key] if setup else 0.0)
    every = [i for members in rounds for i in members]
    pooled = _group_metrics(spans, every, self_s)
    out["scf.accept_ratio"] = pooled["scf.accept_ratio"]
    out["kernels.table_mb"] = max(pooled["kernels.table_mb"], setup["kernels.table_mb"] if setup else 0.0)
    return out
