#!/usr/bin/env python3
"""Runs the benchmark ten times per workload, each time with another seed, and
prints for every end-to-end metric the interquartile distance of its ten
values as a share of their median, next to the metric's bound. This is the
driver's acceptance check; a spread should stay below a third of the bound.

    python3 benchmark/spread.py [first_seed] [workload ...]
"""
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
worst = {}
for name in names:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + 10):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"{name} seed {seed}: {res['failed']} of {res['attempted']} failed")
        for metric, v in res["metrics"].items():
            values[metric].append(v["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q[2] - q[0]) / med
        worst[m["name"]] = max(worst.get(m["name"], 0), share)
        flag = "" if share < m["bound"] / 3 or m["name"] == "setup_s" else "  <-- over a third of the bound"
        print(f"{name:22s} {m['name']:10s} median {med:12.4f} {m['unit']:4s} spread {100*share:5.2f}%  bound {100*m['bound']:.0f}%{flag}", flush=True)
print("worst spread per metric:", {k: f"{100*v:.2f}%" for k, v in worst.items()})
