#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json once per seed (--trace 0), ten seeds
per workload, repeated for --sets sets with new seeds each time. For each
metric and set it reports the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
plus how much worse each later set's median is than the first set's.
Beside each workload it records the share of CPU time the host took away
from this machine's CPUs (steal, from /proc/stat) during each run, so a
run slowed by the host can be told from one slowed by the program.

A metric passes when every later set is no worse than the first by more
than its bound and, for every metric but setup_s, every set's spread is
within its bound. setup_s is held to the drift check only: its spread is
not checked because the acceptance rule for set-up time is that later
changes must not make it worse, not that it repeats run to run.

Writes the table as JSON with --out. Run from the repository root:

    python3 perfbench/steadiness.py --sets 2 --out perfbench/steadiness.json
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def cpu_ticks():
    """(steal, total) ticks of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already counted in user and nice).
    return fields[7], sum(fields[:8])


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    steal0, total0 = cpu_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    steal1, total1 = cpu_ticks()
    elapsed = time.time() - start
    steal = (steal1 - steal0) / max(total1 - total0, 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {result}")
    return result["metrics"], elapsed, steal


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def worse(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "runs_per_set": RUNS, "sets": []}
    seed = 1
    for s in range(args.sets):
        started = datetime.datetime.now(datetime.timezone.utc)
        table = {"started": started.strftime("%Y-%m-%dT%H:%MZ")}
        for w in workloads:
            samples, steals = {}, []
            for _ in range(RUNS):
                values, elapsed, steal = run_once(w, seed, seconds)
                for name, m in values.items():
                    samples.setdefault(name, []).append(m["value"])
                steals.append(round(steal, 4))
                print(f"set {s + 1} {w} seed {seed}: {elapsed:.1f} s wall, "
                      f"steal {steal:.1%}", file=sys.stderr)
                seed += 1
            table[w] = {name: summarize(v) for name, v in samples.items()}
            table[w]["host_steal_share"] = steals
        report["sets"].append(table)

    passed = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = [t[w][name] for t in report["sets"]]
            first = cells[0]["median"]
            drift = max(worse(first, c["median"], m["better"]) for c in cells)
            spreads = " ".join(f"{c['spread']:.3f}" for c in cells)
            ok = drift <= bound and (
                name == "setup_s" or all(c["spread"] <= bound for c in cells))
            passed &= ok
            print(f"{w:14} {name:16} median {first:12.5g} spread {spreads} "
                  f"worse {drift:+.3f} bound {bound} {'ok' if ok else 'OVER'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
