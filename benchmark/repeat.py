#!/usr/bin/env python3
"""Repeatability check: the acceptance test the driver applies, run by hand.

Runs every workload of BENCHMARK.json in two sets of --runs untraced runs,
each run with another seed, on the same commit and machine. For every
end-to-end metric x workload it prints

  spread  the distance between the first and third quartile of a set's
          values (statistics.quantiles(values, n=4)) as a share of the
          set's median; it must stay within the metric's bound, except
          for setup_s;
  shift   how much worse the second set's median is than the first's, as
          a share of the first; it must stay within the bound, setup_s too;

and exits non-zero on any breach, on any failed operation and on any
proof_bytes that differs between two runs of a workload.

    python3 benchmark/repeat.py                 # from the repository root
    python3 benchmark/repeat.py --runs 4 --workloads matmul_spartan
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return {k: v["value"] for k, v in res["metrics"].items()}, time.time() - start


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    breaches = 0
    print(f"{'workload':16} {'metric':18} {'median A':>14} {'median B':>14} {'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>6}")
    for wi, workload in enumerate(names):
        sets, wall = [], 0.0
        for s in range(2):
            runs = []
            for r in range(args.runs):
                values, took = run_once(spec, workload, 1000 * wi + 100 * s + r + 1)
                runs.append(values)
                wall += took
            sets.append(runs)
        for m in spec["end_to_end"]:
            a, b = ([run[m["name"]] for run in runs] for runs in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            bad = worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
            if m["name"] == "proof_bytes":
                bad = bad or len(set(a + b)) != 1
            breaches += bad
            print(f"{workload:16} {m['name']:18} {ma:14.6g} {mb:14.6g} {sa:9.4f} {sb:9.4f} {worse:+8.4f} {m['bound']:6.3f}"
                  + ("  BREACH" if bad else ""))
        print(f"{workload:16} {2 * args.runs} runs, {wall / (2 * args.runs):.1f} s per run including the build check")
        sys.stdout.flush()
    if breaches:
        sys.exit(f"{breaches} metric x workload pairings outside their bounds")
    print("every end-to-end metric x workload pairing is within its bound")


if __name__ == "__main__":
    main()
