"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --runs 10 --sets 2
    python3 perfbench/spread.py --workloads cli --runs 5 --sets 1

Runs the command of BENCHMARK.json from the repository root, one run at a
time, `--runs` seeds per set and workload (set k uses seeds
first + k * runs ...).  For every end-to-end metric it prints the median
and the spread (q3 - q1) / median of each set, with the quartiles of
statistics.quantiles(values, n=4), and with two sets the change of the
second median against the first, as a share of the first.  It also
prints the failed share of each set.  Raw results go to
perfbench/_out/spread.json.
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


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), res.stderr[-2000:]))
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["info"] = json.loads(lines[-2])["info"]
    out["wall_s"] = wall
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    results = {}
    for name in names:
        for k in range(args.sets):
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                r = run_once(bench, name, seed, bench["run_seconds"])
                results.setdefault(name, [[] for _ in range(args.sets)])[k].append(r)
                print("%s set %d seed %d: wall %.1fs %s" % (
                    name, k, seed, r["wall_s"],
                    {m: round(v["value"], 4) for m, v in r["metrics"].items()}),
                    file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with open(os.path.join(HERE, "_out", "spread.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print("| workload | metric | bound | " + " | ".join(
        "set %d median | set %d spread" % (k + 1, k + 1) for k in range(args.sets))
        + (" | median change |" if args.sets > 1 else ""))
    print("|---" * (3 + 2 * args.sets + (args.sets > 1)) + "|")
    for name in names:
        sets = results[name]
        for e in bench["end_to_end"]:
            cells, medians = [], []
            for runs in sets:
                med, sp = spread([r["metrics"][e["name"]]["value"] for r in runs])
                medians.append(med)
                cells.append("%.4g | %.1f%%" % (med, 100 * sp))
            row = "| %s | %s | %.0f%% | %s" % (name, e["name"], 100 * e["bound"],
                                              " | ".join(cells))
            if args.sets > 1:
                row += " | %+.1f%%" % (100 * (medians[1] - medians[0]) / medians[0])
            print(row + " |")
        shares = ["%d/%d" % (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        print("| %s | failed/attempted | | %s |" % (name, " | ".join(shares)))


if __name__ == "__main__":
    main()
