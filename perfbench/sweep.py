#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py --workload fleet-zipf --seeds 1-10

Each run is `bash perfbench/run.sh` at the run_seconds of BENCHMARK.json.
For every metric it prints the median over the runs, the first and third
quartiles (statistics.quantiles(values, n=4)) and the distance between them
as a share of the median. It marks each end-to-end metric whose spread is
at or above a third of its bound in BENCHMARK.json, and it fails if a run
is not correct or reports other metric names or units than BENCHMARK.json
declares. Untraced runs also give the op phase's host timings, which are
not gated: each run's median over its repetitions, from the `op_times` of
its run line, is summarized the same way.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["bash", "perfbench/run.sh"]
BENCHMARK = "BENCHMARK.json"


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info = next((json.loads(l[4:]) for l in lines if l.startswith("run ")), {})
    return json.loads(lines[-1]), info.get("op_times", {})


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    share = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return statistics.median(values), q1, q3, share


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, times = [], []
    for seed in a.seeds:
        res, op_times = run_once(a.workload, seed, bench["run_seconds"], a.trace)
        runs.append(res)
        times.append(op_times)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)

    declared = {m["name"]: m["unit"] for m in bench["per_layer" if a.trace else "end_to_end"]}
    ok = all(r["correct"] for r in runs)
    for seed, r in zip(a.seeds, runs):
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != declared:
            print(f"seed {seed}: metrics differ from {BENCHMARK}: "
                  f"{sorted(set(got.items()) ^ set(declared.items()))}", file=sys.stderr)
            ok = False

    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(runs[0]["metrics"]):
        med, q1, q3, share = summarize([r["metrics"][name]["value"] for r in runs])
        flag = ""
        if name in bounds and share >= bounds[name] / 3:
            flag = f"  >= bound/3 ({bounds[name]}/3)"
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f}{flag}")
    for name in sorted(times[0]):
        med, q1, q3, share = summarize([t[name][1] for t in times])
        print(f"{'op_times.' + name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f}  not gated")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
