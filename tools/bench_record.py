"""Benchmark a parent checkout against a changed one and record the medians.

    python tools/bench_record.py PARENT CHANGE OUT.json --pairs 10 --seconds 20 --seed 1

Runs perfbench/run.py of each checkout, on that checkout's own sources,
for every workload that BENCHMARK.json of CHANGE declares.  Runs come in
pairs, and the side that runs first alternates from pair to pair.  OUT
gets, per workload and side, the median and quartiles of each
end-to-end metric, the operations attempted and failed, and every run's
metrics; per workload and metric, the number of pairs the change won.
Before the pairs, the Tier-1 test command runs once in each checkout;
OUT gets its wall seconds, exit code and counts of passed and failed
tests per side.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

# The Tier-1 command of ROADMAP.md, run in the checkout with its src first on PYTHONPATH.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def revision(checkout):
    """The commit a checkout is at ("+dirty" with local changes), or None."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    if head is None:
        return None
    return head + ("+dirty" if git("status", "--porcelain") else "")


def run(checkout, workload, seed, seconds):
    """The result object that perfbench/run.py prints last, or None if it printed none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{checkout} {workload}: exit {proc.returncode}, no result\n"
                         f"{proc.stderr[-2000:]}\n")
        return None


def tier1(checkout):
    """Wall seconds, exit code and outcome counts of one Tier-1 run in checkout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src") + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)s?\b", last)}
    return {"wall_s": wall, "exit": proc.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0), "summary": last}


def summary(results, metrics):
    """Median, quartiles and values of each metric, and the operation counts."""
    out = {"runs": len(results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "metrics": {}}
    for name in metrics:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "values": vals}
    return out


def wins(pairs, metric):
    """Pairs in which the change is better on metric (ties count for neither)."""
    name, lower = metric["name"], metric["better"] == "lower"
    count = 0
    for parent, change in pairs:
        a, b = parent["metrics"][name]["value"], change["metrics"][name]["value"]
        count += (b < a) if lower else (b > a)
    return count


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("out", type=pathlib.Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    record = {
        "parent": revision(args.parent),
        "change": revision(args.change),
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "tier1": {"command": "python " + " ".join(TIER1),
                  "parent": tier1(args.parent), "change": tier1(args.change)},
        "workloads": {},
    }
    sys.stderr.write("tier-1 runs done\n")
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.pairs):
            order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
            got = {side: run(side, workload, args.seed, args.seconds) for side in order}
            sys.stderr.write(f"{workload} pair {i + 1}/{args.pairs} done\n")
            if None not in got.values():
                pairs.append((got[args.parent], got[args.change]))
        record["workloads"][workload] = {
            "pairs": len(pairs),
            "parent": summary([p for p, _ in pairs], [m["name"] for m in metrics]),
            "change": summary([c for _, c in pairs], [m["name"] for m in metrics]),
            "change_wins": {m["name"]: wins(pairs, m) for m in metrics},
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
