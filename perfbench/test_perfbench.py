"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m pytest perfbench
"""

import types

import pytest

import accounting
import references
import tracing
from tracing import Span


def _spans():
    # round [0, 10]: solve [1, 9] with eigensolves [2, 4] and [5, 8]
    return [
        Span("round", 0.0, 10.0, None, {"solve_s": 8.0}),
        Span("scf.solve", 1.0, 9.0, 0, {"iterations": 4, "rejections": 1}),
        Span("operators.lowest_eigenpairs", 2.0, 4.0, 1, {"path": "dense"}),
        Span("operators.lowest_eigenpairs", 5.0, 8.0, 1, {"path": "shift-invert"}),
    ]


def test_self_time_subtracts_children():
    assert tracing.self_times(_spans()) == [2.0, 3.0, 2.0, 3.0]


def test_nesting_errors():
    assert tracing.nesting_errors(_spans()) == []
    bad = _spans()
    bad[3].end = 9.5
    assert len(tracing.nesting_errors(bad)) == 1


def test_layer_metrics_one_setup_plus_mean_round():
    setup = [Span("setup", 0.0, 1.0, None), Span("kernels.build_kernel_table", 0.1, 0.6, 0, {"bytes": 2 << 20})]
    again = [Span("setup", 1.0, 2.0, None), Span("kernels.build_kernel_table", 1.1, 1.6, 2, {"bytes": 2 << 20})]
    first = [Span(s.name, s.start + 10, s.end + 10, None if s.parent is None else s.parent + 4, dict(s.attrs)) for s in _spans()]
    second = [Span(s.name, s.start + 30, s.end + 30, None if s.parent is None else s.parent + 8, dict(s.attrs)) for s in _spans()]
    second[1].attrs = {"iterations": 6, "rejections": 0}
    m = tracing.layer_metrics(setup + again + first + second)
    assert m["kernels.build_kernel_table_calls"] == 1
    assert m["kernels.build_kernel_table_s"] == pytest.approx(0.5)
    assert m["kernels.table_mb"] == 2.0
    assert m["operators.eigensolve_dense_calls"] == 1
    assert m["operators.eigensolve_shift_invert_calls"] == 1
    assert m["operators.lowest_eigenpairs_s"] == pytest.approx(5.0)
    assert m["scf.solve_s"] == pytest.approx(8.0)
    assert m["scf.self_s"] == pytest.approx(3.0)
    assert m["scf.iterations"] == 5
    assert m["scf.rejections"] == pytest.approx(0.5)
    assert m["scf.accept_ratio"] == pytest.approx(9 / 10)
    assert m["trace.round_solve_s"] == 8.0
    assert m["cli.main_s"] == 0.0


def test_analysis_time_is_not_counted_twice():
    spans = [
        Span("round", 0.0, 10.0, None),
        Span("scf.probe_shell", 1.0, 4.0, 0),
        Span("energy.second_order_coefficient", 2.0, 3.0, 1),
        Span("energy.decompose_shell", 5.0, 6.0, 0),
    ]
    assert tracing.layer_metrics(spans)["energy.analysis_s"] == pytest.approx(4.0)


def test_wrap_records_spans_and_skips_missing_names(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap("fake_layer", "outer", "layer.outer", lambda a, k, r: {"result": r})
    tracer.wrap("fake_layer", "inner", "layer.inner")
    tracer.wrap("fake_layer", "renamed_away", "layer.gone")
    tracer.wrap("no_such_module_here", "f", "layer.f")
    assert module.outer(1) == 4
    assert tracer.missing == ["fake_layer.renamed_away", "no_such_module_here.f"]
    assert [(s.name, s.parent) for s in tracer.spans] == [("layer.outer", None), ("layer.inner", 0)]
    assert tracer.spans[0].attrs == {"result": 4}
    assert tracing.nesting_errors(tracer.spans) == []
    tracer.unwrap_all()
    module.outer(1)
    assert len(tracer.spans) == 2


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("round"):
            raise RuntimeError("boom")
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_failure_counting():
    tally = accounting.Tally()
    for _ in range(2):
        tally.record(9.0, True, 2.0)
        tally.record(8.0, False, 1.0, "stalled", 21, 16)
        tally.end_round()
    assert (tally.attempted, tally.failed, tally.converged) == (4, 2, 2)
    assert tally.rounds == [(2, 1), (2, 1)]
    assert tally.per_round() == (2, 1)
    assert tally.seconds == 6.0
    assert tally.solves_per_s() == pytest.approx(2 / 6.0)
    assert tally.solves_per_s(0.5) == pytest.approx(2 / 3.0)
    assert tally.failure_list() == [
        {"Z": 8.0, "message": "stalled", "iterations": 21, "rejections": 16, "times": 2}
    ]


def test_per_round_failures_take_the_worst_round():
    tally = accounting.Tally()
    tally.record(8.0, True, 1.0)
    tally.record(8.5, False, 1.0)
    tally.end_round()
    tally.record(8.0, False, 1.0)
    tally.record(8.5, False, 1.0)
    tally.end_round()
    assert tally.per_round() == (2, 2)


def test_speed_factor_is_reference_over_median_probe():
    probe = accounting.SpeedProbe(n=8)
    probe.timings = [0.1, 0.5, 0.25]
    assert probe.factor() == pytest.approx(probe.REF_S / 0.25)
    assert probe.measure() > 0 and len(probe.timings) == 4


def test_large_probe_keeps_no_array_between_timings():
    probe = accounting.LargeSpeedProbe(n=32)
    assert probe.measure() > 0 and probe.measure() > 0
    assert [k for k, v in vars(probe).items() if getattr(v, "ndim", 0) > 1] == []
    assert len(probe.timings) == 2
    assert probe.factor() == pytest.approx(probe.REF_S / (sum(probe.timings) / 2))


def test_concavity():
    zs = [9.0, 10.0, 11.0, 12.0]
    assert references.decreasing_and_concave(zs, [-z * z / 2 for z in zs])
    assert not references.decreasing_and_concave(zs, [z * z / 2 - 20 * z for z in zs])  # convex
    assert not references.decreasing_and_concave(zs, [-1.0, -2.0, -2.0, -3.0])  # flat step
    # unevenly spaced points: chord slopes -1, -1.5, -3 are decreasing
    assert references.decreasing_and_concave([8.0, 9.0, 11.0, 12.0], [0.0, -1.0, -4.0, -7.0])


def test_helium_reference_is_near_the_hf_limit():
    E = references.helium_energy(400, 15.0)
    assert abs(E - references.HF_LIMIT[2]) < 2e-3
