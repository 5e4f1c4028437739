#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 e2ebench/spread.py --workload serve-zipf --seeds 1-5 --seconds 20

Runs run.py once per seed (untraced), checks that each result line holds
exactly the end-to-end metrics of BENCHMARK.json in their units, and prints,
per metric, the median of the runs and the distance between their first and
third quartiles as a share of that median (statistics.quantiles(values,
n=4)), next to the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for s in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {s}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != units:
            print(f"seed {s}: metrics {got} do not match BENCHMARK.json {units}", file=sys.stderr)
            sys.exit(1)
        print(f"seed {s}: {wall:.1f} s correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, v in sorted(values.items()):
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{k:24s} median {med:12.6g}  spread {spread:7.4f}  bound {bounds.get(k, '-')}")


if __name__ == "__main__":
    main()
