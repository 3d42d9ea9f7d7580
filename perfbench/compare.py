#!/usr/bin/env python3
"""Report-only comparison of benchmark result sets.

Each set is a directory of result files written by the benchmark
(`<out>/results/<workload>-seed<N>-trace<0|1>.json`). With one set, the
report gives, per workload row, each end-to-end metric's median,
quartiles and spread (quartile distance over the median) against the
metric's bound. With two sets A (before) and B (after), it adds B's
figures, the fraction of seed-paired runs B wins, and a verdict:

  worse       B's median is worse than A's by more than the bound
  better      B wins at least 9 in 10 pairs and the medians differ by
              more than A's own quartile distance
  same        neither
  unresolved  a set's spread exceeds the bound (unless every B run beats
              every A run, or the reverse)

It never gates: the exit code is 0 whenever the inputs could be read.

    python3 perfbench/compare.py .bench_out/A/results [.bench_out/B/results]
        [--spec BENCHMARK.json] [--trace 0|1]
"""

import argparse
import json
import os
import statistics
import sys


def load(directory, trace):
    """{workload: {seed: metrics}} for the result files of one set."""
    rows = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            r = json.load(f)
        if r.get("trace") != trace:
            continue
        values = {k: m["value"] for k, m in r["metrics"].items()}
        rows.setdefault(r["workload"], {})[r["seed"]] = values
    return rows


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(a, b, bound, higher):
    sign = 1 if higher else -1
    am, aq1, aq3, aspread = summary(a)
    bm, _, _, bspread = summary(b)
    if max(aspread, bspread) > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    worse_by = sign * (am - bm) / abs(am) if am else 0.0
    if worse_by > bound:
        return "worse"
    return None  # decided from the paired wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="one or two result directories")
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two result directories")
    with open(args.spec) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    sets = [load(d, args.trace) for d in args.sets]
    workloads = [w["name"] for w in spec["workloads"]]

    for wl in workloads:
        runs = [s.get(wl, {}) for s in sets]
        if not any(runs):
            continue
        print(f"== {wl} ({' / '.join(str(len(r)) + ' runs' for r in runs)})")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            bound = m.get("bound")
            cols = []
            per_set = []
            for r in runs:
                vals = [v[name] for v in r.values() if v.get(name) is not None]
                per_set.append(vals)
                if vals:
                    med, q1, q3, spread = summary(vals)
                    cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
                else:
                    cols.append("-")
            line = f"  {name:<34} {m['unit']:<10} " + " | ".join(cols)
            if bound is not None:
                line += f" | bound {bound}"
                if len(runs) == 1 and per_set[0]:
                    spread = summary(per_set[0])[3]
                    line += " ok" if spread <= bound else " TOO WIDE"
            if len(runs) == 2 and all(per_set):
                a, b = runs
                pairs = [(a[s][name], b[s][name]) for s in sorted(set(a) & set(b))
                         if a[s].get(name) is not None and b[s].get(name) is not None]
                sign = 1 if higher else -1
                wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
                win_frac = wins / len(pairs) if pairs else float("nan")
                line += f" | B wins {wins}/{len(pairs)}"
                if bound is not None:
                    v = verdict(per_set[0], per_set[1], bound, higher)
                    if v is None:
                        am, aq1, aq3, _ = summary(per_set[0])
                        bm = summary(per_set[1])[0]
                        gain = sign * (bm - am) > 0 and abs(bm - am) > (aq3 - aq1)
                        v = "better" if gain and win_frac >= 0.9 else "same"
                    line += f" | {v}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
