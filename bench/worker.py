"""Benchmark child process: one fresh interpreter per set-up probe or run.

    python3 bench/worker.py setup   --workload NAME
    python3 bench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1

`run.py` starts it with `src` on PYTHONPATH and the BLAS thread count
set in its environment, and reads the JSON object it prints last.

`setup` imports inducoh, runs the workload's fixed warm-up op once and
checks it; `run.py` times the whole process from outside.

`measure` runs one client in a closed loop: the next op starts when the
previous one has returned and been checked.  Only the op itself is
timed.  With `--trace 0` it measures for `--seconds` and at least
MIN_SAMPLES ops, and ends on a whole block of inputs (`workload.block`)
so that every run sees the same mix.  With `--trace 1` it runs the
workload's first TRACE_OPS inputs twice, untraced and traced, block by
block, so that call counts are exact for a seed, and requires both
passes to agree bit for bit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import inducoh
from tracer import Tracer
from workloads import WORKLOADS, Outcome

# enough samples that the 90th percentile has at least ten beyond it
MIN_SAMPLES = 110
# the untraced loop stops here even short of MIN_SAMPLES, so a run ends in time
LOOP_CAP_S = 120.0
# ops per pass of a traced run; about 5-10 s per pass at the baseline
TRACE_OPS = {"sweep": 540, "duality": 1200, "oracle": 32}  # whole blocks


def versions() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": blas,
        "inducoh": inducoh.__version__,
        "inducoh_path": os.path.dirname(inducoh.__file__),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_loop(workload, items, seconds: float, min_samples: int, tracer=None) -> dict:
    """Closed loop over `items` for `seconds` and `min_samples` ops,
    ending on a whole block of inputs."""
    latencies = []
    fingerprints = []
    useful = []
    failed = 0
    errors = []
    start = time.perf_counter()
    for item in items:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (
            elapsed >= seconds
            and len(latencies) >= min_samples
            and len(latencies) % workload.block == 0
        ):
            break
        if tracer is not None:
            tracer.recording = True
        crash = None
        t0 = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception:  # a crashing op is a failed op; keep measuring
            crash = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.recording = False
        outcome = Outcome(False, crash, None) if crash else workload.check(item, result)
        fingerprints.append(outcome.fingerprint)
        useful.append(outcome.useful)
        if outcome.error is not None:
            failed += 1
            errors.append(outcome.error)
    return {
        "latencies": latencies,
        "fingerprints": fingerprints,
        "useful": useful,
        "failed": failed,
        "errors": errors[:5],
    }


def merge(loops: list[dict]) -> dict:
    """One loop's record from several consecutive ones."""
    return {
        "latencies": [t for loop in loops for t in loop["latencies"]],
        "fingerprints": [f for loop in loops for f in loop["fingerprints"]],
        "useful": [u for loop in loops for u in loop["useful"]],
        "failed": sum(loop["failed"] for loop in loops),
        "errors": [e for loop in loops for e in loop["errors"]][:5],
    }


def summarize(loop: dict, block: int) -> dict:
    """End-to-end metrics of one loop.

    `ops_per_s` is the median over the loop's whole input blocks of
    useful ops per second of op time in the block: each block holds the
    full input mix, and the median keeps stretches of unusual machine
    speed from moving it more than they move `op_p50_ms`.
    """
    lat, useful = loop["latencies"], loop["useful"]
    rates = [
        sum(useful[i : i + block]) / sum(lat[i : i + block])
        for i in range(0, len(lat) - block + 1, block)
    ]
    return {
        "attempted": len(lat),
        "failed": loop["failed"],
        "ops_per_s": statistics.median(rates),
        "ops_per_s_pooled": sum(useful) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "errors": loop["errors"],
    }


def per_layer(tracer, traced: dict, untraced: dict, workload) -> dict:
    """Per-layer metrics of the traced pass, as name -> (value, unit)."""
    metrics = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    network = tracer.stats["fock.simulate_network"].outcomes
    draws = tracer.stats["validation.oracle_residual"].calls
    refused_leakage = network["LeakageError"]
    refused_unreliable = network["unreliable"]
    metrics["fock.draws"] = (draws, "count")
    metrics["fock.refused_leakage"] = (refused_leakage, "count")
    metrics["fock.refused_unreliable"] = (refused_unreliable, "count")
    certified = draws - refused_leakage - refused_unreliable
    metrics["fock.certified_ratio"] = (certified / draws if draws else 0.0, "ratio")
    metrics["fock.state_bytes"] = (workload.state_bytes() if draws else 0, "bytes")
    # both passes ran the same ops, so this is traced over untraced ops_per_s
    metrics["trace_overhead"] = (sum(untraced["latencies"]) / sum(traced["latencies"]), "ratio")
    metrics["traced_op_s"] = (sum(traced["latencies"]), "s")
    return metrics


def traced_passes(workload, seed: int, ops: int, tracer) -> tuple[dict, dict]:
    """Run the first `ops` inputs untraced and traced, alternating block
    by block so that both passes see the same stretches of machine speed."""
    items = list(itertools.islice(workload.inputs(seed), ops))
    untraced, traced = [], []
    for start in range(0, ops, workload.block):
        block = items[start : start + workload.block]
        untraced.append(run_loop(workload, block, math.inf, 0))
        with tracer:
            traced.append(run_loop(workload, block, math.inf, 0, tracer))
    return merge(untraced), merge(traced)


def warm_up(workload) -> str | None:
    """Run the workload's fixed warm-up op; the gate's complaint, if any."""
    warmup = workload.warmup_input()
    outcome = workload.check(warmup, workload.run(warmup))
    if outcome.error is None and not outcome.useful:
        return "warm-up op gave no useful answer"
    return outcome.error


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]()
    report = {
        "versions": versions(),
        "generator": workload.params,
        "warmup_error": warm_up(workload),
    }
    if not trace:
        loop = run_loop(workload, workload.inputs(seed), seconds, MIN_SAMPLES)
        report["run"] = summarize(loop, workload.block)
    else:
        tracer = Tracer()
        untraced, traced = traced_passes(workload, seed, TRACE_OPS[workload_name], tracer)
        mismatched = sum(
            bool(a != b) for a, b in zip(traced["fingerprints"], untraced["fingerprints"])
        )
        report["run"] = summarize(traced, workload.block)
        report["run"]["failed"] += mismatched
        if mismatched:
            report["run"]["errors"].append(f"{mismatched} traced answers differ from untraced")
        report["layers"] = per_layer(tracer, traced, untraced, workload)
        report["inclusive_s"] = {name: stats.total_s for name, stats in tracer.stats.items()}
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def setup_probe(workload_name: str) -> int:
    error = warm_up(WORKLOADS[workload_name]())
    if error is not None:
        sys.stderr.write(f"warm-up op failed: {error}\n")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup_probe(args.workload)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
