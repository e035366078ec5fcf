#!/usr/bin/env python3
"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

A result set is a directory of the records perfbench/run.py writes
(.bench_build/results by default, or --results): one JSON file per run,
carrying the workload, seed, run length, host facts and metrics. Both sets
should hold several seeds per workload.

The sets are compared only when every record in both carries the same host
facts (nproc, ISA, CPU, build type, compiler) and run length; otherwise the
tool refuses, so numbers from different machines or settings never mix.

For every (end-to-end metric, workload) pair it prints both medians and
quartile spreads, and a verdict:

  regressed   the new median is worse than the base median by more than
              the metric's bound
  unresolved  the run-to-run spread (IQR / median) of either set exceeds the
              bound, so a change within it cannot be told from noise --
              unless every new run is better than every base run
  improved    the new median is better by more than the base set's spread
  unchanged   none of the above

Per-layer metrics from traced records are listed side by side, without
verdicts (they have no bounds). Exit status: 0, or 1 when any pair
regressed, or 2 when the sets cannot be compared.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "isa", "cpu", "build_type", "compiler")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit(f"compare: no result records in {directory}")
    return records


def facts(record):
    return tuple(record["host"].get(k) for k in HOST_KEYS) + (record["seconds"],)


def values(records, traced):
    """{(workload, metric): [value per run]} of the records with `traced`."""
    out = {}
    for r in records:
        if r["trace"] != traced:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def spread(v):
    med = statistics.median(v)
    if len(v) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(v, n=4)
    return med, (q[2] - q[0]) / abs(med)


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    bmed, bspread = spread(base)
    nmed, nspread = spread(new)
    worse = sign * (nmed - bmed) / abs(bmed)  # > 0: the new set is worse
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(bspread, nspread) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bspread:
        return "improved", worse
    return "unchanged", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)

    base, new = load(args.base), load(args.new)
    seen = {facts(r) for r in base + new}
    if len(seen) != 1:
        print("compare: refusing to compare result sets whose host facts or "
              "run lengths differ:", file=sys.stderr)
        for s in sorted(seen, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in
                                   zip(HOST_KEYS + ("seconds",), s)), file=sys.stderr)
        sys.exit(2)

    regressed = False
    bv, nv = values(base, 0), values(new, 0)
    print(f"{'workload':<10} {'metric':<12} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'spread b/n':>13} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in bv or key not in nv:
                print(f"{w['name']:<10} {m['name']:<12} {'(missing in one set)':>40}")
                continue
            v, worse = verdict(bv[key], nv[key], m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{w['name']:<10} {m['name']:<12} "
                  f"{statistics.median(bv[key]):>12.4g} {statistics.median(nv[key]):>12.4g} "
                  f"{worse:>+9.3f} {spread(bv[key])[1]:>6.3f}/{spread(nv[key])[1]:<6.3f} "
                  f"{m['bound']:>6.2f}  {v}  (n={len(bv[key])}/{len(nv[key])})")

    bl, nl = values(base, 1), values(new, 1)
    if bl and nl:
        print("\nper-layer medians (traced runs; no bounds):")
        for key in sorted(set(bl) & set(nl)):
            print(f"  {key[0]:<10} {key[1]:<36} {statistics.median(bl[key]):>12.4g} "
                  f"{statistics.median(nl[key]):>12.4g}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
