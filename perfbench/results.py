#!/usr/bin/env python3
"""Compare two perfbench result sets side by side.

A result set is a JSON-lines file that `run.py --out FILE` appends to,
one line per run (GLOSSARY.md shows the loop that collects ten seeds).

    python3 perfbench/results.py base.jsonl new.jsonl

For every metric it prints one row per workload: each side's median and
quartiles, and the change of the median. Quartiles are Python's
statistics.quantiles(values, n=4). Rows whose median moved the wrong way
by more than the metric's bound in BENCHMARK.json are marked WORSE.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path):
    """{(workload, metric): [values]} plus the host stamps seen."""
    values = defaultdict(list)
    hosts = set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            hosts.add(json.dumps(record.get("host", {}), sort_keys=True))
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values, hosts


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    return specs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    base, base_hosts = load_set(args.base)
    new, new_hosts = load_set(args.new)
    specs = metric_specs()
    for host in sorted(base_hosts):
        print(f"base host {host}")
    for host in sorted(new_hosts):
        print(f"new  host {host}")
    names = sorted({name for _, name in base} | {name for _, name in new})
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for name in names:
        spec = specs.get(name, {})
        print(f"\n{name} ({spec.get('unit', '?')}, "
              f"{spec.get('better', '?')} is better, "
              f"bound {spec.get('bound', '-')})")
        print(f"  {'workload':<12} {'base median [q1, q3]':>36} "
              f"{'new median [q1, q3]':>36} {'change':>8}")
        for workload in workloads:
            b = base.get((workload, name))
            n = new.get((workload, name))
            if not b or not n:
                continue
            bq = quartiles(b)
            nq = quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = -change if spec.get("better") == "higher" else change
            flag = ("  WORSE" if "bound" in spec and worse > spec["bound"]
                    else "")
            print(f"  {workload:<12} "
                  f"{bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]".ljust(51) +
                  f"{nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}]".ljust(37) +
                  f"{change:>+8.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
