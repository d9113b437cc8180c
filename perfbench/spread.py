#!/usr/bin/env python3
"""Run a workload over several seeds and report each end-to-end metric's
median and quartile spread (IQR / median) against its bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload mixed-churn --seeds 1-10 [--json out.json]

A spread above a third of the bound is flagged; setup_s is reported but,
like the acceptance rule, not held to its bound. Exits 1 on a failed run,
an incorrect run, or a spread above its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--json", help="also write every value and summary here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {done.stdout.strip().splitlines()[-2]}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        summary["workloads"][workload] = {}
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary["workloads"][workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "ok"
            if spread > bounds[name] / 3:
                flag = "WIDE"
            if spread > bounds[name] and name != "setup_s":
                flag = "OVER"
                ok = False
            print(f"  {workload:13s} {name:15s} median {med:10.4g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}  {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
