#!/usr/bin/env python3
"""Reads the result lines `run.sh --aa` / `--spread` collected and judges
them against the bounds in BENCHMARK.json.

--aa:      <dir>/<workload>.A<k>.json and .B<k>.json; prints
           workload · metric · median of A · median of B · diff · bound;
           exit 1 when the medians differ by more than the bound (in either
           direction: neither side is the parent), or a run is incorrect or
           had failures.
--spread:  <dir>/<workload>.<1..10>.json; prints each metric's median and
           (Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives
           them; exit 1 when a spread other than setup_s's exceeds its
           bound. A spread above a third of the bound is flagged `!`.
"""
import glob
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        line = f.read().strip().splitlines()[-1]
    return json.loads(line)


def main():
    mode, manifest_path, out = sys.argv[1:4]
    with open(manifest_path) as f:
        manifest = json.load(f)
    metrics = manifest["end_to_end"]
    bad = False
    for w in (x["name"] for x in manifest["workloads"]):
        if mode == "--aa":
            pairs = len(glob.glob(f"{out}/{w}.A*.json"))
            tags = [f"{side}{k}" for side in "AB" for k in range(1, pairs + 1)]
        else:
            tags = [str(i) for i in range(1, 11)]
        runs = [load(f"{out}/{w}.{t}.json") for t in tags]
        for tag, r in zip(tags, runs):
            if not r["correct"] or r["failed"]:
                print(f"{w} · run {tag}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
                bad = True
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            if mode == "--aa":
                a = statistics.median(values[: len(values) // 2])
                b = statistics.median(values[len(values) // 2 :])
                diff = abs(b - a) / a if a else 0.0
                breach = diff > bound
                print(f"{w} · {name} · {a:.6g} · {b:.6g} · {diff:.4f} · {bound}{'  BREACH' if breach else ''}")
            else:
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med if med else 0.0
                breach = spread > bound and name != "setup_s"
                flag = "  BREACH" if breach else ("  !" if spread > bound / 3 else "")
                print(f"{w} · {name} · median {med:.6g} · spread {spread:.4f} · bound {bound}{flag}")
            bad |= breach
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
