"""Median and quartile spread of the end-to-end metrics over recorded runs.

    python3 perfbench/spread.py [perfbench/out/runs.jsonl]

Reads the records run.py appends, keeps the untraced ones, and prints for
each workload and metric the number of runs, the median and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main(path):
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    }
    values = defaultdict(list)
    seeds = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"]:
            continue
        seeds[rec["workload"]].append(rec["seed"])
        for name, m in rec["result"]["metrics"].items():
            values[rec["workload"], name].append(m["value"])
    print("workload        metric        runs  median      spread  bound")
    for (workload, name), vals in sorted(values.items()):
        med = statistics.median(vals)
        spread = ""
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        print(f"{workload:15} {name:12} {len(vals):5}  {med:<10.4f}  {spread:6}  {bounds[name]}")
    for workload, s in sorted(seeds.items()):
        print(f"{workload} seeds: {s}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "perfbench/out/runs.jsonl")
