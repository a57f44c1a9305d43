#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
its spread: the distance between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json, and then the value of every run in seed order.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10 [--trace 0]

Run from the repository root after building the benchmark once.
"""
import argparse
import json
import statistics
import subprocess
import time


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        start = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - start
        if p.returncode != 0:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            continue
        r = json.loads(p.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f}s correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:32} median {med:14.4f} spread {spread:7.3f} bound {bound}{flag}")
        print("    " + " ".join(f"{x:.5g}" for x in v))


if __name__ == "__main__":
    main()
