"""Tests of the benchmark itself: `python3 -m pytest perfbench -q` from the
repository root. The last test runs every workload once, traced, and takes
about a minute."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402
import workloads  # noqa: E402


def load(name):
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json" else os.path.join(HERE, name),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    bench = load("BENCHMARK.json")
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == workloads.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(load("manifest.json")["workloads"]) == set(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        spans.Span("a", 0.0, 10.0, None, "r"),
        spans.Span("b", 1.0, 4.0, 0, "r"),
        spans.Span("c", 2.0, 3.0, 1, "r"),
        spans.Span("d", 5.0, 6.0, 0, "r"),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_each_step_is_scaled_by_the_reference_runs_around_it():
    ref = workloads.REF_NOMINAL_S
    steps = [
        workloads.Step("train parent", "train", 4.0, [2 * ref, 2 * ref]),  # host at half speed
        workloads.Step("morph alg1", "morph", 5.0, [ref]),  # median of 2, 2, 1 reference times
        workloads.Step("evaluate", "other", 1.0, [ref, ref, ref]),  # median of 1, 1, 1, 1
    ]
    assert workloads.scaled_s(steps, "train") == pytest.approx(2.0)
    assert workloads.scaled_s(steps, "morph") == pytest.approx(2.5)
    assert workloads.scaled_s(steps) == pytest.approx(5.5)


def test_install_wraps_every_binding_and_uninstall_restores():
    import morphkit
    import morphkit.sparse

    tracer = spans.Tracer()
    original = morphkit.sparse.iilasso_residual
    bound = tracer.install()
    try:
        # re-imported names are wrapped where they are bound, and
        # `morphkit.morph` the package attribute is the function
        for binding in ("morphkit.sparse.iilasso_residual", "morphkit.morph.iilasso_residual",
                        "morphkit.verify.iilasso_residual", "morphkit.iilasso_residual",
                        "morphkit.morph", "morphkit.morph.morph", "morphkit.cli.morph",
                        "morphkit.cli.cmd_train", "morphkit.io.save_model"):
            assert binding in bound
        assert sys.modules["morphkit.morph"].iilasso_residual is not original
        assert len(bound) == len(set(bound))
    finally:
        tracer.uninstall()
    assert sys.modules["morphkit.morph"].iilasso_residual is original
    assert morphkit.morph is sys.modules["morphkit.morph"].morph


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_calls_every_function_its_workload_exercises(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    spans_file = next(json.loads(l)["spans_file"] for l in lines if l.startswith('{"spans_file"'))
    with open(os.path.join(ROOT, spans_file), encoding="utf-8") as fh:
        recorded = json.load(fh)["spans"]
    calls = {}
    for span in recorded:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    expected = load("manifest.json")["workloads"][workload]
    silent = [name for name in expected["exercises"] if not calls.get(name)]
    assert not silent, f"{workload}: wrapped functions recorded no calls: {silent}"
    called = [name for name in expected["never_calls"] if calls.get(name)]
    assert not called, f"{workload}: functions predicted idle were called: {called}"
    metrics = result["metrics"]
    assert metrics["sparse.iilasso_diag.calls"]["value"] == calls.get("sparse.iilasso_diag", 0)
