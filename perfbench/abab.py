#!/usr/bin/env python3
"""Interleaved two-set steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json on every workload with seeds
1..RUNS, twice per (seed, workload) cell: once for set A and once for set B
of the same code, back to back. The order alternates from cell to cell
(AB, BA, AB, ...), so host drift hits both sets alike and favours neither.
For every workload x end-to-end metric it prints each set's median and
quartile spread (IQR / median, with statistics.quantiles(n=4)) and how far
B's median is from A's, after one line per run with its metrics and host
diagnostics. It exits 1 when a spread or the distance between the
two medians exceeds the metric's bound.

Run it from the repository root:

    python3 perfbench/abab.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(args)}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    diag = [l for l in lines if l.startswith("# host")]
    return json.loads(lines[-1]), diag


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS per set")
    a = ap.parse_args()
    if a.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {(w, s): [] for w in workloads for s in "AB"}
    cell = 0
    for seed in range(1, a.runs + 1):
        for w in workloads:
            for s in ("AB" if cell % 2 == 0 else "BA"):
                out, diag = run_once(bench["command"], w, seed, seconds)
                if not out["correct"] or out["failed"]:
                    sys.exit(f"{w} seed {seed}: incorrect run: {out}")
                results[(w, s)].append(out["metrics"])
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
                print(f"{w} seed={seed} set={s} {values} " + " ".join(diag), flush=True)
            cell += 1

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = [f"  {name:16s}"]
            meds = {}
            for s in "AB":
                med, sp = spread([r[name]["value"] for r in results[(w, s)]])
                meds[s] = med
                row.append(f"{s}: median={med:.6g} spread={sp:.3f}")
                if sp > bound:
                    ok = False
                    row.append("SPREAD>BOUND")
                elif sp > bound / 3:
                    row.append("(spread>bound/3)")
            d = (meds["B"] - meds["A"]) / meds["A"]
            row.append(f"B vs A {d:+.3f} (bound {bound})")
            if abs(d) > bound:
                ok = False
                row.append("DISAGREE")
            print("  ".join(row))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
