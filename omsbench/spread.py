#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 omsbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs omsbench/run.py once per (workload, seed) from the checkout root, in
sequence, and prints for every metric its median and its spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. With --trace 0 each spread is compared
with a third of the metric's bound (setup_s is exempt, as its bound only
limits the change of its median). Raw results go to --json when given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    steady = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, "omsbench/run.py", "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if res.returncode != 0:
                print("%s seed %d: exit %d" % (wl, seed, res.returncode))
                steady = False
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (wl, seed, result["correct"], result["failed"]))
                steady = False
            runs.append(result)
        raw[wl] = runs
        if len(runs) < 4:
            continue
        print("%s (%d runs)" % (wl, len(runs)))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if args.trace == "0" and name != "setup_s":
                ok = spread < bounds[name] / 3
                steady = steady and ok
                flag = "ok" if ok else "WIDE (bound %g)" % bounds[name]
            print("  %-32s median %-14.6g spread %6.3f %s" %
                  (name, med, spread, flag))
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
