#!/usr/bin/env python3
"""Build and run one fleet benchmark run.

    python3 perfbench/run.py --workload fleet_steady --seed 1
                             --seconds 20 --trace 0

Run from the repository root. The benchmark is its own CMake project
(perfbench/CMakeLists.txt) over the repository's sources; it is configured
and built (Release) under .bench_build/perfbench on first use, and rebuilt
incrementally afterwards. Build output goes to stderr, so the last line of
stdout is the run's JSON result. Durable stores, span traces and per-run
result files (with the host and build facts) land under .bench_build too.

Exit status: the benchmark's own (0 = every correctness gate passed), or 1
when the build fails or the run prints no valid result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet_steady", "fleet_churn", "durable_ctl")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir: Path, target: str = "perfbench_fleet") -> Path:
    """Configure (once) and build `target`; return the binary's path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = sys.stderr
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return build_dir / target


def parse_result(stdout: str):
    """The last stdout line as a result object, or None when malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds like Ctrl-C: subprocess.run then kills and reaps the
    # build or benchmark process it is waiting on before run.py exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd() / ".bench_build" / "perfbench"
    try:
        binary = build(root / "build")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = root / "work"
    results = root / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", str(work),
         "--results", str(results / f"{tag}.json")],
        stdout=subprocess.PIPE, text=True)
    res = parse_result(proc.stdout)
    if res is None:
        sys.stderr.write(proc.stdout)
        print("perfbench: run printed no valid result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
