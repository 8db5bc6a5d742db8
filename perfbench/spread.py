"""Runs one workload with several seeds and prints, per metric, the
median and the spread (distance between the first and third quartile,
as a share of the median) the benchmark is judged by.

    python3 perfbench/spread.py WORKLOAD [RUNS] [FIRST_SEED] [--trace]

Run from the root of the repository.
"""
import json
import statistics
import subprocess
import sys

args = [a for a in sys.argv[1:] if a != "--trace"]
workload = args[0]
runs = int(args[1]) if len(args) > 1 else 5
first = int(args[2]) if len(args) > 2 else 1
trace = "1" if "--trace" in sys.argv else "0"
bench = json.load(open("BENCHMARK.json"))
seconds = str(bench["run_seconds"])
bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

values = {}
for seed in range(first, first + runs):
    out = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", seconds, "--trace", trace],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print("seed", seed, "correct", result["correct"], "failed", result["failed"])
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])
    print("seed", seed, " ".join(
        "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
        flush=True)

for name, vs in values.items():
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    spread = (q3 - q1) / med if med else 0.0
    bound = bounds.get(name)
    note = "" if bound is None else "  bound %.2f (third %.3f)" % (bound, bound / 3)
    print("%-28s median %-12.6g spread %.3f%s" % (name, med, spread, note))
