#!/usr/bin/env python3
"""Steadiness command: runs perfbench repeatedly and prints, per workload and
metric, the median, the quartiles and the spread (Q3 - Q1) / median, against
the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --seed0 100 --out .bench_build/set1.json
    python3 perfbench/steady.py --runs 10 --seed0 200 --out .bench_build/set2.json --compare .bench_build/set1.json
    python3 perfbench/steady.py --workloads hotspot --runs 5 --trace 1

Run it from the root of the checkout. Quartiles are those of
statistics.quantiles(values, n=4). A spread is marked "ok" below a third of
its bound; with --compare, a median is marked "worse" when it moved against
its metric's direction by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    rep = json.loads(p.stdout.strip().splitlines()[-1])
    if not rep["correct"]:
        sys.stdout.write(p.stderr)
    return rep, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="run i uses seed seed0 + i")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the raw results here (JSON)")
    ap.add_argument("--compare", help="raw results of an earlier set to compare medians with")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = json.load(open(args.compare)) if args.compare else {}

    raw = {}
    for w in names:
        runs = []
        for i in range(args.runs):
            rep, wall = run_once(w, args.seed0 + i, seconds, args.trace)
            rep["wall_s"] = wall
            runs.append(rep)
            print(f"# {w} seed {args.seed0 + i}: {wall:.1f}s correct={rep['correct']} "
                  f"attempted={rep['attempted']} failed={rep['failed']}", flush=True)
        raw[w] = runs

        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n== {w}: {len(runs)} runs, failed share {shares}, "
              f"all correct {all(r['correct'] for r in runs)}, "
              f"wall median {statistics.median(r['wall_s'] for r in runs):.1f}s")
        print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in runs]
            med, q1, q3 = summary(vals)
            spread = (q3 - q1) / med if med else float("inf")
            s = spec.get(m, {})
            bound = s.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            if m in earlier.get(w, {}).get("medians", {}) and bound is not None:
                old = earlier[w]["medians"][m]
                change = (med - old) / old if old else 0.0
                worse = change > bound if s.get("better") == "lower" else -change > bound
                flag += f" vs {old:.6g} ({change:+.1%}){' WORSE' if worse else ''}"
            bstr = f"{bound:.2f}" if bound is not None else ""
            print(f"{m:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bstr:>6} {flag}")
        raw[w] = {"runs": runs, "medians": {m: summary([r["metrics"][m]["value"] for r in runs])[0]
                                            for m in runs[0]["metrics"]}}
        print(flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
