"""Compare two sets of benchmark records.

    python bench/compare.py A.jsonl B.jsonl

Each file holds one or more suite records, one JSON object a line, as
``bench/run.py --out`` appends them; A is the parent commit, B the
change.  For every workload and end-to-end metric it prints both
medians and quartiles and a verdict (choosing-metrics, section 6.5):

* ``unresolved`` - either side's inter-quartile spread exceeds the
  metric's bound, and not every B sample beats every A sample;
* ``worse`` - B's median is worse than A's by more than the bound;
* ``better`` - B beats A in at least nine tenths of the pairs (rep i of
  A against rep i of B, ties count for neither) and the medians differ
  by more than A's inter-quartile distance;
* ``same`` - otherwise.

Simulated results must be identical on both sides.  Per-layer deltas of
the traced runs follow, for diagnosis only.  Exits 1 when a verdict is
``worse``, a simulated result differs, or B failed more runs than A.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from summary import quartiles, spread

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def merged(records: list[dict], workload: str) -> dict:
    """One side's samples of a workload, its records concatenated."""
    results = [r["workloads"][workload] for r in records
               if workload in r["workloads"]]
    samples: dict[str, list] = {}
    layers: dict[str, list] = {}
    for result in results:
        for name, d in result["metrics"].items():
            samples.setdefault(name, []).extend(d["samples"])
        for name, value in result["layers"].items():
            layers.setdefault(name, []).append(value)
    return {"samples": samples,
            "layers": {k: statistics.median(v) for k, v in layers.items()},
            "exact": results[0]["exact"] if results else {},
            "failed": sum(r["failed"] for r in results)}


def beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(a: list, b: list, bound: float, better: str) -> str:
    """The rule the module docstring states, for one metric."""
    _, median_a, _ = qa = quartiles(a)
    median_b = quartiles(b)[1]
    if spread(a) > bound or spread(b) > bound:
        if all(beats(x, y, better) for x in b for y in a):
            return "better"
        return "unresolved"
    worse_by = (median_b - median_a) / abs(median_a)
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x, better))
    if (worse_by < 0 and wins >= 0.9 * len(pairs)
            and abs(median_b - median_a) > qa[2] - qa[0]):
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="records of the parent commit")
    parser.add_argument("b", help="records of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    side_a, side_b = load(args.a), load(args.b)
    workloads = [w["name"] for w in spec["workloads"]]

    bad = False
    print(f"{'workload':17s} {'metric':12s} {'unit':8s} "
          f"{'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
          f"{'change':>8s}  verdict")
    for name in workloads:
        a, b = merged(side_a, name), merged(side_b, name)
        if not a["samples"] or not b["samples"]:
            print(f"{name:17s} missing on one side")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            xa, xb = a["samples"][key], b["samples"][key]
            qa, qb = quartiles(xa), quartiles(xb)
            result = verdict(xa, xb, metric["bound"], metric["better"])
            bad |= result == "worse"
            print(f"{name:17s} {key:12s} {metric['unit']:8s} "
                  f"{qa[1]:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{qb[1]:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] "
                  f"{100 * (qb[1] / qa[1] - 1):+7.2f}%  {result}")
        same = a["exact"] == b["exact"]
        bad |= not same
        print(f"{name:17s} simulated results "
              f"{'identical' if same else 'DIFFERENT'}: {b['exact']}")
        if b["failed"] > a["failed"]:
            bad = True
            print(f"{name:17s} failed runs: A {a['failed']}, B {b['failed']}")

    print("\nper-layer (traced runs, median over records), for diagnosis:")
    for name in workloads:
        a, b = merged(side_a, name), merged(side_b, name)
        for metric in spec["per_layer"]:
            key = metric["name"]
            va, vb = a["layers"].get(key), b["layers"].get(key)
            if va is None or vb is None or va == vb == 0:
                continue
            delta = f"{100 * (vb / va - 1):+8.2f}%" if va else "     new"
            print(f"  {name:17s} {key:30s} {va:12.5g} {vb:12.5g} {delta} "
                  f"{metric['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
