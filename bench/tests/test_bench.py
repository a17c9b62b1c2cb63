"""Tests of the benchmark itself: tracer coverage, gates and the result contract.

Run from the repository root:  python -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from inducoh import model, validation  # noqa: E402

# ops per pass, small enough to keep the suite quick; the oracle seed
# gives at least one certified and one refused draw in its first ops
SMALL_OPS = {"sweep": 20, "duality": 8, "oracle": 4}
ORACLE_SEED = 3


def _modules():
    return [importlib.import_module(tracer.PACKAGE)] + [
        importlib.import_module(f"{tracer.PACKAGE}.{name}") for name in tracer.MODULES
    ]


def _traced_functions():
    found = set()
    for layer in tracer.LAYERS:
        for qualname in layer.functions:
            module, attr = qualname.split(".")
            found.add(getattr(importlib.import_module(f"inducoh.{module}"), attr))
    return found


def _bindings_of(functions):
    return {
        (module, attr): value
        for module in _modules()
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType) and value in functions
    }


def test_tracer_patches_every_binding_and_restores_it():
    functions = _traced_functions()
    before = _bindings_of(functions)
    bound = {f"{module.__name__}.{attr}" for module, attr in before}
    for name in (
        "inducoh.compose",
        "inducoh.model.compose",
        "inducoh.model.moments_from_map",
        "inducoh.model.number_mean",
        "inducoh.moments.validate",
    ):
        assert name in bound
    with tracer.Tracer():
        for (module, attr), original in before.items():
            assert getattr(module, attr).__wrapped__ is original
    for (module, attr), original in before.items():
        assert getattr(module, attr) is original


def _passes(name: str):
    """Untraced then traced pass over the workload's first SMALL_OPS inputs."""
    workload = workloads.WORKLOADS[name]()
    seed = ORACLE_SEED if name == "oracle" else 1
    active = tracer.Tracer()
    untraced, traced = worker.traced_passes(workload, seed, SMALL_OPS[name], active)
    return workload, active, traced, untraced


@pytest.fixture(scope="module")
def runs():
    return {name: _passes(name) for name in workloads.WORKLOADS}


def test_traced_and_untraced_answers_are_bit_identical(runs):
    for _, _, traced, untraced in runs.values():
        assert traced["failed"] == untraced["failed"] == 0
        assert traced["fingerprints"] == untraced["fingerprints"]
        assert len(traced["fingerprints"]) == len(untraced["fingerprints"]) > 0


def test_each_layer_is_called_on_its_workload(runs):
    for layer in tracer.LAYERS:
        for name in layer.workloads:
            calls, self_s = runs[name][1].layer_totals()[layer.name]
            assert calls > 0 and self_s > 0.0, (layer.name, name)


def test_per_layer_metrics_match_benchmark_json(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for workload, active, traced, untraced in runs.values():
        metrics = worker.per_layer(active, traced, untraced, workload)
        assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_oracle_refusals_are_split_by_reason(runs):
    _, active, traced, _ = runs["oracle"]
    refused = sum(fingerprint is None for fingerprint in traced["fingerprints"])
    assert 0 < refused < len(traced["fingerprints"])
    outcomes = active.stats["fock.simulate_network"].outcomes
    assert outcomes["LeakageError"] + outcomes["unreliable"] == refused
    assert sum(traced["useful"]) == len(traced["fingerprints"]) - refused


def test_hard_leakage_is_counted_as_an_exception():
    params = model.SetupParams(va=4.0, vb=4.0, t=1.0)
    with tracer.Tracer() as active:
        active.recording = True
        assert validation.oracle_residual(params, 3) is None
        active.recording = False
    assert active.stats["fock.simulate_network"].outcomes["LeakageError"] == 1


def test_nothing_is_recorded_outside_ops():
    with tracer.Tracer() as active:
        model.engine_observables(model.SetupParams(va=1.0, vb=1.0, t=0.5))
    assert all(stats.calls == 0 for stats in active.stats.values())


@pytest.mark.parametrize("name", ["sweep", "duality", "oracle"])
def test_inputs_depend_only_on_the_seed(name):
    def first(seed):
        return list(itertools.islice(workloads.WORKLOADS[name]().inputs(seed), 20))

    assert first(5) == first(5)
    assert first(5) != first(6)


def test_duality_draws_the_stated_share_of_five_mode_configs():
    drawn = list(itertools.islice(workloads.Duality.inputs(2), 400))
    assert sum(params.t2 < 1.0 for params in drawn) == 400 // workloads.DUALITY_T2_EVERY


def test_gates_reject_wrong_answers():
    sweep = workloads.Sweep()
    argv = sweep.pool(1)[0]
    code, text = sweep.run(argv)
    assert sweep.check(argv, (code, text)).error is None
    tampered = text.replace(text.splitlines()[5], text.splitlines()[6], 1)
    assert sweep.check(argv, (code, tampered)).error is not None
    fresh = workloads.Sweep()
    assert fresh.check(argv, (code, tampered)).error is not None

    params = workloads.Duality.warmup_input()
    assert workloads.Duality.check(params, 1e-8).error is not None
    assert workloads.Duality.check(params, math.nan).error is not None
    assert workloads.Oracle.check(params, 1e-5).error is not None
    refused = workloads.Oracle.check(params, None)
    assert refused.error is None and not refused.useful


def _run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_result_line_has_every_end_to_end_metric():
    done = _run_bench(ROOT, "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_SAMPLES
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {entry["name"] for entry in spec["end_to_end"]}
    for entry in spec["end_to_end"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert result["metrics"][entry["name"]]["value"] > 0
    assert "sweep error_ratio = 0 " in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
