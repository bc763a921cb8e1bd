"""The benchmark command: each workload runs in its own fresh process.

    python3 perfbench/run.py --workload mid-train --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 3 --seconds 40     # all three workloads in turn

Each workload process is ``perfbench/bench.py`` with one BLAS thread pinned
before NumPy loads; it imports the program from the checkout's ``src/``.
``--seconds`` is the measured length of each workload's run; the benchmark
is specified with the ``run_seconds`` of ``BENCHMARK.json``.  The last stdout
line is the result as JSON; with several workloads its metrics are keyed
``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-converge", "mid-train", "mid-eval")
WORKLOAD_TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Run one workload process; echo its report and return its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fashiongraph" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'fashiongraph'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
