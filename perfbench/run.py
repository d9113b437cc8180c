#!/usr/bin/env python3
"""Build elsdb and the serve benchmark from source, then run one workload.

    python3 perfbench/run.py --workload estimate-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it carries the workload facts.
Open-loop rates and the default and held-out seeds live in workloads.json;
the run length defaults to run_seconds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
STATE = os.path.join(ROOT, ".perfbench")
TIMEOUT_S = 170


def build():
    """Build the server and the benchmark; exit 1 when the sources are missing."""
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", "./bin/elsdb.exe", "./perfbench/elsbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if done.returncode != 0:
        sys.exit("run.py: build failed")
    return (os.path.join(BUILD, "default", "bin", "elsdb.exe"),
            os.path.join(BUILD, "default", "perfbench", "elsbench.exe"))


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd):
    """Run the benchmark in its own process group and stop every process
    left in that group when it ends."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if not args.self_test and args.workload not in config["workloads"]:
        p.error(f"--workload must be one of {sorted(config['workloads'])}")
    elsdb, bench = build()

    os.makedirs(STATE, exist_ok=True)
    # Relative paths keep the server's socket path short.
    rundir = os.path.relpath(os.path.join(STATE, f"run-{os.getpid()}"), ROOT)
    shutil.rmtree(os.path.join(ROOT, rundir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, rundir))
    cmd = [bench, "--elsdb", elsdb, "--dir", rundir]
    if args.self_test:
        cmd.append("--self-test")
    else:
        seed = config["default_seed"] if args.seed is None else args.seed
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        cmd += ["--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--rate", str(config["workloads"][args.workload]["rate_per_s"]),
                "--trace-out", os.path.join(STATE, f"trace-{args.workload}.json")]
    try:
        code, out = run(cmd)
    finally:
        shutil.rmtree(os.path.join(ROOT, rundir), ignore_errors=True)
    if code != 0 or out is None:
        sys.stderr.write(out or "")
        sys.exit(f"run.py: benchmark exited with {code}")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        if line.startswith('{"facts":'):
            facts = json.loads(line)
            facts["facts"]["git_revision"] = git_revision()
            facts["facts"]["source_digest"] = source_digest()
            line = json.dumps(facts, separators=(",", ":"))
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
