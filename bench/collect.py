"""Repeat `bench/run.py` over several seeds and summarise each metric.

    python3 bench/collect.py --workload oracle --seeds 1 2 3 4 5 [--trace 0|1] [--out FILE]

Run from the repository root.  For every metric it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`),
and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  With `--out`, the summary is merged into FILE under
"<workload>" / "trace<0|1>", together with the environment line of the
first run; `bench/baseline.json` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed for seed {seed} (exit {done.returncode}):\n{done.stderr}")
    environment = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), {}
    )
    return json.loads(lines[-1]), environment


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    environment = {}
    for seed in args.seeds:
        result, env = run_once(args.workload, seed, seconds, args.trace)
        environment = environment or env
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            if not name.endswith((".calls", ".self_s"))
        ), flush=True)

    summary = {}
    for name, metric in runs[0]["metrics"].items():
        stats = summarise([run["metrics"][name]["value"] for run in runs])
        stats["unit"] = metric["unit"]
        summary[name] = stats
        bound = bounds.get(name)
        if bound is not None and stats["spread"] is not None:
            print(f"{name:12s} median {stats['median']:.6g} {metric['unit']}  "
                  f"spread {stats['spread']:.4f}  bound {bound}  "
                  f"({stats['spread'] / bound:.2f} of bound)")
    record = {
        "seeds": args.seeds,
        "seconds": seconds,
        "attempted": [run["attempted"] for run in runs],
        "failed": [run["failed"] for run in runs],
        "environment": environment,
        "metrics": summary,
    }
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.setdefault(args.workload, {})[f"trace{args.trace}"] = record
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
