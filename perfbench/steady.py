#!/usr/bin/env python3
"""Steadiness check: run each workload k times on one build and summarise.

    python3 perfbench/steady.py --runs 10 [--workloads fleet_steady,...]
                                [--seconds 20] [--seed-base 1]
                                [--save runs.json] [--compare earlier.json]

Run from the repository root. Each run uses its own seed (seed-base, +1, ...).
For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and
flags a metric whose spread exceeds its BENCHMARK.json bound ("OVER"), a
third of it ("WIDE", the target for a steady benchmark), or a tenth
("NOT-TENTH": does not repeat within a tenth). setup_s is exempt from the
spread rule but not from --compare, which checks that each median is not
worse than the saved set's by more than the bound. Exit 1 when any run fails
or any check is flagged OVER / WORSE.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = list(BENCH["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not res.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, "
                           f"result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved, bad = {}, False
    for wl in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            runs.append(run_once(wl, seed, args.seconds))
            print(f"  {wl} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        saved[wl] = runs
        print(f"\n{wl}: {args.runs} runs")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  flag")
        for m in BENCH["end_to_end"]:
            name = m["name"]
            vals = [r[name] for r in runs]
            med, q1, q3, spread = summarise(vals)
            bound = m["bound"]
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag, bad = "OVER", True
                elif spread > bound / 3:
                    flag = "WIDE"
            if not flag and spread > 0.1:
                flag = "NOT-TENTH"
            if wl in earlier:
                old = statistics.median(r[name] for r in earlier[wl])
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                if worse > bound:
                    flag, bad = (flag + " WORSE").strip(), True
            print(f"  {name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bound:>6}  "
                  f"{flag}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
