"""Tests of the benchmark itself: inputs, reference gate, spans and counts.

    python -m pytest perfbench/tests -q

The traced tests run real ops (about a minute in all, most of it one
round of CLI figure commands and one cold selftest process).
"""

import copy
import random

import numpy as np
import pytest

from perfbench import gate, run, spans, workloads

# Traced names that must be called on each workload.
PREDICTED = {
    "cli-figures": [
        "filtercorr.sweep_point", "filtercorr.filtered_g2", "qmath.Propagator",
        "instrument.irf_convolve", "instrument.spectral_irf_convolve",
        "spectrum.emission_spectrum", "spectrum.filtered_fractions",
        "dynamics.steady_state", "dynamics.two_time_correlator",
    ],
    "sweep-irf": [
        "filtercorr.sweep_point", "filtercorr.calibrate_background",
        "filtercorr.eta_convergence", "filtercorr.SensorPipeline", "filtercorr.filtered_g2",
        "system.build_liouvillian", "qmath.steady_vector", "qmath.Propagator",
        "qmath.Propagator.apply_grid", "instrument.irf_convolve",
    ],
    "sweep-zero": [
        "filtercorr.sweep_point", "filtercorr.calibrate_background",
        "filtercorr.eta_convergence", "filtercorr.SensorPipeline",
        "system.build_liouvillian", "qmath.steady_vector",
    ],
}
EXACT = ("calls", "halvings", "pipelines_per_point", "apply_grid.taus", "bytes_computed",
         "irf_convolve.taus")


def first_rounds(name, seed, n=3):
    workload = workloads.get(name)
    rounds = workload.rounds(random.Random(seed))
    return [next(rounds) for _ in range(n)]


def traced_metrics(name, tmp_path, ops=None, seed=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    workload = workloads.get(name)
    if workload.in_process:
        workload.set_up()
    ops = ops or workload.trace_ops(seed)
    loop = run.Loop(workload, workload.load_references(), tmp_path)
    span_list, marks = run.record_spans(workload, loop, ops, tmp_path)
    assert loop.failures == []
    return spans.layer_metrics(span_list, marks)


# --- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert first_rounds(name, 7) == first_rounds(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_order_or_subset(name):
    assert first_rounds(name, 7) != first_rounds(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pool_op_has_a_reference(name):
    workload = workloads.get(name)
    assert set(workload.load_references()) == set(workload.pool)


# --- reference gate ---------------------------------------------------------------


def test_perturbed_sweep_output_fails_gate_and_raises_failed_ratio(tmp_path):
    workload = workloads.get("sweep-zero")
    references = workload.load_references()
    op_id = workload.warm_up_op
    shifted = copy.deepcopy(references)
    shifted[op_id]["g2_hi"] += 1e-6  # the size of a documented exact-limit shift
    loop = run.Loop(workload, shifted, tmp_path)
    loop.run_op(op_id)
    assert loop.failed == 0

    perturbed = copy.deepcopy(references)
    perturbed[op_id]["g2_hi"] += 1e-4
    loop = run.Loop(workload, perturbed, tmp_path)
    loop.run_op(op_id)
    loop.run_op(op_id)
    assert loop.failed == 2 and loop.failed / loop.attempted == 1.0
    assert "g2_hi" in loop.failures[0]


def test_perturbed_artifacts_fail_gate():
    references = workloads.get("cli-figures").load_references()
    trace = copy.deepcopy(references["g2-trace-irf-band:w0.29"])
    gate.check_artifact("trace", trace, references["g2-trace-irf-band:w0.29"])
    trace["columns"]["g2_hi"] = np.asarray(trace["columns"]["g2_hi"]) + 2e-5
    with pytest.raises(gate.Mismatch, match="g2_hi"):
        gate.check_artifact("trace", trace, references["g2-trace-irf-band:w0.29"])

    spectrum = copy.deepcopy(references["spectrum:r2"])
    spectrum["columns"]["s_per_ueV"] = np.asarray(spectrum["columns"]["s_per_ueV"]) * (1.0 + 1e-5)
    with pytest.raises(gate.Mismatch, match="s_per_ueV"):
        gate.check_artifact("spectrum", spectrum, references["spectrum:r2"])

    grid = copy.deepcopy(references["g2-trace:w0.29"])
    grid["columns"]["tau_ps"] = np.asarray(grid["columns"]["tau_ps"]) * 1.001
    with pytest.raises(gate.Mismatch, match="tau_ps"):
        gate.check_artifact("grid", grid, references["g2-trace:w0.29"])


def test_selftest_gate_wants_exactly_criteria_5_6_8_failing():
    reference = workloads.get("cli-figures").load_references()["selftest"]
    lines = [f"[{'FAIL' if i in (5, 6, 8) else 'PASS'}] criterion {i:2d} (x): y" for i in range(1, 13)]
    gate.check_selftest(gate.parse_selftest(3, "\n".join(lines)), reference)
    with pytest.raises(gate.Mismatch, match="exit code"):
        gate.check_selftest(gate.parse_selftest(0, "\n".join(lines)), reference)
    lines[0] = lines[0].replace("PASS", "FAIL")
    with pytest.raises(gate.Mismatch, match="failing"):
        gate.check_selftest(gate.parse_selftest(3, "\n".join(lines)), reference)


# --- spans --------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 12.0])
    recorder = spans.Recorder(clock=lambda: next(ticks))
    outer = recorder.open("outer")
    child = recorder.open("child")
    grandchild = recorder.open("grand")
    recorder.close(grandchild)
    recorder.close(child)
    second = recorder.open("second")
    recorder.close(second)
    recorder.close(outer)
    span_list, _ = recorder.records()
    selfs = dict(zip((s[3] for s in span_list), spans.self_times(span_list)))
    # outer [0, 12] holds child [1, 5] and second [6, 10]; child holds grand [2, 4]
    assert selfs == {"grand": 2.0, "child": 2.0, "second": 4.0, "outer": 4.0}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(18) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(9999) == 90.0
    assert run.tail_percentile(10000) == 99.9


# --- traced runs ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_by_workload(tmp_path_factory):
    return {
        name: traced_metrics(name, tmp_path_factory.mktemp(name))
        for name in sorted(workloads.WORKLOADS)
    }


@pytest.mark.parametrize("name", sorted(PREDICTED))
def test_predicted_layers_are_called(traced_by_workload, name):
    metrics = traced_by_workload[name]
    missing = [n for n in PREDICTED[name] if metrics[f"{n}.calls"] == 0]
    assert missing == []
    assert all(metrics[f"{n}.errors"] == 0 for n in spans.TRACED_NAMES)


def test_sweep_zero_never_propagates(traced_by_workload):
    metrics = traced_by_workload["sweep-zero"]
    assert metrics["qmath.Propagator.calls"] == 0
    assert metrics["qmath.Propagator.apply_grid.calls"] == 0
    assert metrics["instrument.irf_convolve.calls"] == 0


def test_cli_trace_times_cli_main_and_criteria(traced_by_workload):
    metrics = traced_by_workload["cli-figures"]
    assert metrics["cli.main.self_ms"] > 0.0
    assert metrics["acceptance.criterion_02.ms"] > 0.0
    assert metrics["acceptance.criteria_other.ms"] > 0.0


@pytest.mark.parametrize("name,ops", [
    ("sweep-zero", None),
    ("sweep-irf", None),
    ("cli-figures", ["g2-sweep-band", "g2-trace-irf-band:w0.85"]),
])
def test_exact_counts_repeat(tmp_path, name, ops):
    first = traced_metrics(name, tmp_path / "a", ops, seed=3)
    second = traced_metrics(name, tmp_path / "b", ops, seed=3)
    exact = {k: v for k, v in first.items() if k.endswith(EXACT)}
    assert exact and exact == {k: second[k] for k in exact}
    assert first["filtercorr.sweep_point.calls"] > 0
