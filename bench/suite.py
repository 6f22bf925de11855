#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric by name
with its unit, and write the results to one JSON file.

    python3 bench/suite.py --seed 1

The end-to-end metrics come from the untraced runs only. The traced runs
give the per-layer metrics and the tracing overhead, reported as traced
``ops_per_s`` against untraced ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} (trace {trace}) exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return {"result": json.loads(lines[-1]), "detail": json.loads(detail[len("detail "):])}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--out", default=None, help="results file (default .bench_results/suite-seed<seed>.json)")
    args = parser.parse_args()
    out = Path(args.out) if args.out else ROOT / ".bench_results" / f"suite-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)

    results = {}
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        e2e = plain["result"]["metrics"]
        layers = traced["result"]["metrics"]
        overhead = layers["trace.ops_per_s"]["value"] / e2e["ops_per_s"]["value"]
        results[workload] = {"untraced": plain, "traced": traced, "traced_over_untraced_ops_per_s": overhead}

        res, detail = plain["result"], plain["detail"]
        print(f"== {workload}: correct {res['correct']}, {res['failed']} of {res['attempted']} ops failed")
        for name, m in e2e.items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'op_ms_p50':28s} {detail['op_ms_p50']:14.6g} ms (not gated)")
        p90 = detail["op_ms_p90"]
        print(f"  {'op_ms_p90':28s} " + (f"{p90:14.6g} ms (not gated)" if p90 is not None
                                         else f"{'omitted':>14s} ({detail['ops']} ops < 100)"))
        print(f"  {'fail_ratio':28s} {detail['fail_ratio']:14.6g} ratio (not gated)")
        for failure in detail["failures"][:3]:
            print(f"    failed op {failure['op']} ({failure['label']}): {failure['reason']}")
        print(f"  tracing overhead: traced ops_per_s / untraced = {overhead:.3f}")
        print(f"  per layer, per op (traced run, {traced['result']['attempted']} ops):")
        for name, m in layers.items():
            print(f"    {name:44s} {m['value']:14.6g} {m['unit']}")
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
