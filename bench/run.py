"""inducoh benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep|duality|oracle --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package under
`src/` and builds nothing.  Every op runs in a child interpreter
(`worker.py`) whose BLAS thread count is set in its environment.

With `--trace 0` it reports the end-to-end metrics: `setup_s` (median
over SETUP_PROBES fresh interpreters that import inducoh and run one
warm-up op), `ops_per_s`, `op_p50_ms`, `op_p90_ms` and `peak_rss_mb`.
With `--trace 1` it reports the per-layer metrics of a traced run.
Human-readable lines come first, including `error_ratio` and the
environment; the last line of stdout is the JSON result.  The exit code
is 0 only when every op passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "duality", "oracle")
SETUP_PROBES = 7
# One BLAS thread: the package's arrays are small enough that a second
# thread doubles CPU time without shortening an op.  Never above nproc.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    return env


def host_info(root: Path, threads: int) -> dict:
    """Commit, CPU model and cache sizes of the machine running the benchmark."""
    info = {"commit": "unknown (not a git checkout)", "nproc": len(os.sched_getaffinity(0)), "blas_threads": threads}
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        if done.returncode == 0:
            info["commit"] = done.stdout.strip()
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
    except OSError:
        lscpu = ""
    for key, label in (("cpu_model", "Model name"), ("l2", "L2 cache"), ("l3", "L3 cache")):
        match = re.search(rf"^{label}:\s*(.+)$", lscpu, re.MULTILINE)
        if match:
            info[key] = match.group(1).strip()
    if "cpu_model" not in info:
        try:
            cpuinfo = Path("/proc/cpuinfo").read_text()
        except OSError:
            cpuinfo = ""
        match = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.MULTILINE)
        info["cpu_model"] = match.group(1).strip() if match else "unknown"
        match = re.search(r"^cache size\s*:\s*(.+)$", cpuinfo, re.MULTILINE)
        info.setdefault("l2", "unknown")
        info.setdefault("l3", match.group(1).strip() if match else "unknown")
    return info


def run_child(args: list[str], root: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be > 0")
    root = Path.cwd()
    if not (root / "src" / "inducoh" / "__init__.py").is_file():
        return fail(f"no inducoh sources under {root / 'src'}; run from the repository root")

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = child_env(root, threads)
    metrics = {}
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            done = run_child(["setup", "--workload", args.workload], root, env)
            setup_times.append(time.perf_counter() - start)
            if done.returncode != 0:
                # the measuring process repeats the warm-up op and counts it as failed
                sys.stderr.write(f"bench: set-up probe failed:\n{done.stderr}")
        metrics["setup_s"] = (statistics.median(setup_times), "s")

    done = run_child(
        [
            "measure",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ],
        root,
        env,
    )
    if done.returncode != 0 or not done.stdout.strip():
        return fail(f"measurement process failed (exit {done.returncode}):\n{done.stderr}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(report["versions"]["inducoh_path"]).resolve().is_relative_to(root.resolve()):
        return fail(f"imported inducoh from {report['versions']['inducoh_path']}, not this checkout")

    run = report["run"]
    # the untimed warm-up op is checked too
    failed = run["failed"] + (report["warmup_error"] is not None)
    attempted = run["attempted"] + 1
    if args.trace:
        metrics.update((name, tuple(pair)) for name, pair in report["layers"].items())
    else:
        metrics["ops_per_s"] = (run["ops_per_s"], "1/s")
        metrics["op_p50_ms"] = (run["op_p50_ms"], "ms")
        metrics["op_p90_ms"] = (run["op_p90_ms"], "ms")
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")

    env_record = {
        **host_info(root, threads),
        **report["versions"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "generator": report["generator"],
    }
    print(f"environment {json.dumps(env_record, sort_keys=True)}")
    print(f"workload {args.workload}: closed loop, one client, {run['attempted']} timed ops")
    if setup_times:
        print("setup probes s: " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  (ops_per_s is a median over input blocks; pooled over the run: "
              f"{run['ops_per_s_pooled']:.6g} 1/s)")
    print(f"{args.workload} error_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if args.trace:
        busy = report["layers"]["traced_op_s"][0]
        print("share of traced op time: self, then inclusive per function")
        for name, (value, unit) in report["layers"].items():
            if name.endswith(".self_s") and value > 0:
                print(f"  {name:42s} {100.0 * value / busy:6.2f} %")
        for name, value in report["inclusive_s"].items():
            if value > 0:
                print(f"  {name:42s} {100.0 * value / busy:6.2f} % inclusive")
        state_bytes = report["layers"]["fock.state_bytes"][0]
        if state_bytes:
            print(f"fock.state_bytes = {state_bytes} B, computed as 16*(cutoff+1)^modes; "
                  f"L2 cache {env_record.get('l2')}")
    for error in report["run"]["errors"]:
        sys.stderr.write(f"bench: failed op: {error}\n")
    if report["warmup_error"] is not None:
        sys.stderr.write(f"bench: warm-up op failed: {report['warmup_error']}\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
