"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Functions each workload must reach, per layer.
EXERCISED = {
    "cli_cold": ("cli.load_config", "cli.run", "metrology.parity_curve_ideal", "metrology.cfi_of_curve"),
    "sensing_precision": (
        "estimation.bootstrap_precision", "estimation.fit_displacement_curve",
        "metrology.maximize_fisher", "metrology.cfi_of_curve", "metrology.parity_curve_ideal",
    ),
    "open_system": ("noise.lindblad_evolve", "noise.perturbation_first_order", "noise.toy_model"),
    "fock_tomography": (
        "fockspace.displacement", "fockspace.wigner_value", "fockspace.coherent_state",
        "composite.prepare_fock", "composite.resolve_photon_cascade",
    ),
}


def same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def one_op(request):
    """Operation 0 of a workload, untraced and traced, with the tracer's record."""
    wl = workloads.WORKLOADS[request.param](seed=3)
    try:
        plain = wl.run(0)
        tracer = tracing.Tracer()
        traced = worker.run_op(wl, 0, tracer)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    return request.param, plain, traced, tracer


def test_tracing_leaves_outputs_identical(one_op):
    _, plain, traced, _ = one_op
    assert same(plain, traced)


def test_each_layer_is_called_on_its_workload(one_op):
    name, _, _, tracer = one_op
    layers = tracing.summarize(tracer, traced_ops=1, traced_wall=1.0)
    for function in EXERCISED[name]:
        assert layers[f"{function}.calls"] > 0, function


def test_tracer_patches_are_restored():
    import fockmet
    from fockmet import cli, estimation, fockspace, metrology

    before = (fockmet.wigner_value, cli.wigner_value, estimation.maximize_fisher, metrology.cfi_of_curve)
    tracer = tracing.Tracer()
    with tracer.recording(0):
        assert cli.wigner_value is not before[1]
        assert estimation.maximize_fisher is metrology.maximize_fisher
    assert (fockmet.wigner_value, cli.wigner_value, estimation.maximize_fisher,
            metrology.cfi_of_curve) == before
    assert fockspace.wigner_value is before[0]


def test_tracer_counts_every_call_across_threads():
    from fockmet import composite, metrology, noise

    threads, calls = 4, 300
    tracer = tracing.Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.recording(7):
            def hammer():
                for _ in range(calls):
                    metrology.parity_curve_ideal(3, 0.1)
                    noise.toy_model(3, composite.DeviceParams())

            pool = [threading.Thread(target=hammer) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    spans = [s for s in tracer.spans if s.name == "noise.toy_model"]
    root = next(s for s in tracer.spans if s.name == tracing.ROOT_NAME)
    assert tracer.counts["metrology.parity_curve_ideal"] == threads * calls
    assert len(spans) == threads * calls
    assert len({s.span_id for s in tracer.spans}) == len(tracer.spans)
    assert all(s.parent_id == root.span_id and s.op_id == 7 for s in spans)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, None, "op", 0, 0.0, 10.0, True),
        tracing.Span(2, 1, "a", 0, 1.0, 4.0, True),
        tracing.Span(3, 1, "b", 0, 3.0, 6.0, True),  # overlaps a: another thread
        tracing.Span(4, 1, "c", 0, 8.0, 12.0, True),  # clipped at the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (20.0, "max of 20")
    value, label = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and label == "p75 of 40"


def test_metric_names_are_well_formed():
    tracer = tracing.Tracer()
    produced = list(tracing.summarize(tracer, 1, 1.0)) + list(workloads.DIAGNOSTICS)
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names = produced + declared + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(declared) == len(set(declared))
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS) >= {w["name"] for w in SPEC["workloads"]}


def test_every_declared_per_layer_metric_is_produced():
    produced = set(tracing.summarize(tracing.Tracer(), 1, 1.0)) | set(workloads.DIAGNOSTICS)
    produced |= {"cli.import.fockmet_s", "cli.import.estimation_s", "trace.overhead_s", "trace.overhead_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_smoke_runs_one_operation_per_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == list(run.WORKLOADS)
    assert all("ok=True" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
