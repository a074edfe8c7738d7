#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds per workload and
summarise each end-to-end metric as median, quartiles and spread, the
quartile distance as a share of the median, against the metric's bound
in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--against 11-20]
                                [--seconds S]

With --against, a second set of runs on other seeds is made alongside the
first, the runs of the two sets alternating (A B B A A B ...) so a drift
of the host's speed falls on both alike.  Each set gets its own table,
and a third table compares the sets' medians in both directions: by how
much the second is worse than the first and the first worse than the
second, each against the bound.

Run from the root of a gqkg checkout.  Prints markdown tables and writes
one summary record per workload and set (workload, tier, parameters,
host, number of runs, median and spread of each metric) plus the raw
values to perfbench/runs/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, seconds):
    t0 = time.time()
    r = subprocess.run(spec["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines() if r.returncode == 0 else []
    out = json.loads(lines[-1]) if lines else {}
    rec = json.loads(lines[-2]) if len(lines) > 1 else {}
    print("%s seed %d: exit %d, correct %s, %.0f s" % (workload, seed, r.returncode,
                                                     out.get("correct"), time.time() - t0),
          file=sys.stderr, flush=True)
    return {"seed": seed, "exit": r.returncode, "wall_s": time.time() - t0,
            "correct": out.get("correct"), "failed": out.get("failed"),
            "metrics": {k: v["value"] for k, v in out.get("metrics", {}).items()},
            "params": rec.get("params"), "host": rec.get("host")}


def summarise(workload, runs, spec, seconds):
    ok = [r for r in runs if r["metrics"]]
    summary = {"schema": "gqkg-bench-summary/1", "workload": workload, "tier": "standard",
               "params": ok[0]["params"] if ok else None,
               "host": ok[0]["host"] if ok else None, "seconds": seconds,
               "seeds": [r["seed"] for r in ok], "runs": len(ok), "metrics": {},
               "bad_seeds": [r["seed"] for r in runs
                             if r["exit"] != 0 or not r["correct"] or r["failed"]]}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in ok if m["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / med, "bound": m["bound"],
                                         "values": values}
    return summary


def print_spreads(title, summaries):
    print("\n## %s\n" % title)
    print("| workload | metric | median | q1 | q3 | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|---|---|")
    for s in summaries:
        for m, v in s["metrics"].items():
            print("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f | %.2f |"
                  % (s["workload"], m, v["median"], v["q1"], v["q3"], v["spread"], v["bound"],
                     v["spread"] / v["bound"]))
        if s["bad_seeds"]:
            print("| %s | failed or incorrect seeds: %s | | | | | | |"
                  % (s["workload"], s["bad_seeds"]))


def worse(first, second, better):
    """By how much `second` is worse than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def print_comparison(spec, set_a, set_b):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print("\n## Between the sets\n")
    print("| workload | metric | A median | B median | B worse than A by | A worse than B by "
          "| bound | within |")
    print("|---|---|---|---|---|---|---|---|")
    for a, b in zip(set_a, set_b):
        for m, va in a["metrics"].items():
            vb = b["metrics"][m]
            ab = worse(va["median"], vb["median"], better[m])
            ba = worse(vb["median"], va["median"], better[m])
            print("| %s | %s | %.4g | %.4g | %+.3f | %+.3f | %.2f | %s |"
                  % (a["workload"], m, va["median"], vb["median"], ab, ba, va["bound"],
                     "yes" if max(ab, ba) <= va["bound"] else "NO"))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--against", default=None, help="seeds of a second, alternating set")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    seeds_a = seeds_of(a.seeds)
    seeds_b = seeds_of(a.against) if a.against else []
    if seeds_b and len(seeds_b) != len(seeds_a):
        ap.error("--against needs as many seeds as --seeds")
    raw_a, raw_b = {}, {}
    for w in a.workloads.split(","):
        raw_a[w], raw_b[w] = [], []
        for k, seed in enumerate(seeds_a):
            pair = [(raw_a, seed)] + ([(raw_b, seeds_b[k])] if seeds_b else [])
            if k % 2 == 1:
                pair.reverse()
            for raw, s in pair:
                raw[w].append(run_once(spec, w, s, a.seconds))
    set_a = [summarise(w, runs, spec, a.seconds) for w, runs in raw_a.items()]
    print_spreads("Set A (seeds %s)" % a.seeds, set_a)
    set_b = []
    if seeds_b:
        set_b = [summarise(w, runs, spec, a.seconds) for w, runs in raw_b.items()]
        print_spreads("Set B (seeds %s)" % a.against, set_b)
        print_comparison(spec, set_a, set_b)
    os.makedirs(os.path.join(BENCH, "runs"), exist_ok=True)
    with open(os.path.join(BENCH, "runs", "steady-%d.json" % int(time.time())), "w") as f:
        json.dump({"set_a": set_a, "set_b": set_b, "raw_a": raw_a, "raw_b": raw_b}, f, indent=1)


if __name__ == "__main__":
    main()
