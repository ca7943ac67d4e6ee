#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric, per workload.

    python3 perfbench/compare.py --base base/*.out --new new/*.out

Each file holds the stdout of one `run.py` invocation (the "# fingerprint"
line and the final JSON line are read). Each metric's direction and bound
come from BENCHMARK.json: a metric is "better" or "worse" when its median
moved past the bound in that direction, "unchanged" when it stayed within
the bound, and "unresolved" when either side's run-to-run spread
(interquartile range over median) exceeds the bound, unless every run of
one side beats every run of the other. Runs whose host fingerprints (CPU,
nproc, Montgomery backend, pool threads) differ are not compared.

Traced runs (--trace 1) also contribute the end-to-end figures they print
on "# e2e" lines, so `--base <untraced runs> --new <traced runs>` of one
commit prints the tracing overhead of every end-to-end metric.
"""
import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
HOST_KEYS = ("cpu", "nproc", "mont_backend", "pool_threads")


def load_run(path):
    """(fingerprint, result JSON, end-to-end values from the "# e2e" lines)."""
    fingerprint, result, e2e = None, None, {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("# fingerprint "):
                fingerprint = json.loads(line[len("# fingerprint "):])
            elif line.startswith("# e2e "):
                _, _, name, value, _unit = line.split()
                e2e[name] = float(value)
            elif line.startswith("{"):
                result = json.loads(line)
    if fingerprint is None or result is None:
        raise ValueError(f"{path}: no fingerprint or result line")
    return fingerprint, result, e2e


def summarize(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base, new, better, bound):
    bm, bq1, bq3 = summarize(base)
    nm, nq1, nq3 = summarize(new)
    if bm == 0:
        return "unresolved", 0.0
    change = (nm - bm) / abs(bm)
    gain = change if better == "higher" else -change
    spread = max((bq3 - bq1) / abs(bm), (nq3 - nq1) / abs(nm) if nm else 0.0)
    if better == "higher":
        dominates = min(new) > max(base) or max(new) < min(base)
    else:
        dominates = max(new) < min(base) or min(new) > max(base)
    if spread > bound and not dominates:
        return "unresolved", change
    if gain > bound:
        return "better", change
    if gain < -bound:
        return "worse", change
    return "unchanged", change


def group(paths):
    """workload -> (host fingerprint, {metric: [values]}, attempted, failed)."""
    out = {}
    for path in paths:
        fp, res, e2e = load_run(path)
        host = tuple(fp.get(k) for k in HOST_KEYS)
        wl = fp["workload"]
        entry = out.setdefault(wl, {"host": host, "metrics": {}, "attempted": 0,
                                    "failed": 0})
        if entry["host"] != host:
            raise ValueError(f"{path}: host fingerprint differs within one set")
        entry["attempted"] += res["attempted"]
        entry["failed"] += res["failed"]
        values = {name: m["value"] for name, m in res["metrics"].items()}
        if fp.get("trace"):
            # A traced run's end-to-end figures: against an untraced set
            # they give the tracing overhead.
            values.update(e2e)
        for name, value in values.items():
            entry["metrics"].setdefault(name, []).append(value)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    base, new = group(args.base), group(args.new)
    status = 0
    for wl in sorted(set(base) & set(new)):
        b, n = base[wl], new[wl]
        if b["host"] != n["host"]:
            print(f"{wl}: host changed ({b['host']} vs {n['host']}), re-baseline; not compared")
            status = 2
            continue
        print(f"== {wl}: base {len(next(iter(b['metrics'].values()), []))} runs, "
              f"failed {b['failed']}/{b['attempted']}; new "
              f"{len(next(iter(n['metrics'].values()), []))} runs, "
              f"failed {n['failed']}/{n['attempted']}")
        print(f"{'metric':30s} {'base median [q1, q3]':34s} {'new median [q1, q3]':34s} "
              f"{'change':>8s}  verdict")
        for name in sorted(set(b["metrics"]) & set(n["metrics"])):
            kind = kinds.get(name)
            if kind is None:
                continue
            bound = kind.get("bound")
            bv, nv = b["metrics"][name], n["metrics"][name]
            bm, bq1, bq3 = summarize(bv)
            nm, nq1, nq3 = summarize(nv)
            if bound is None:  # per-layer: no bound, report the movement only
                v, change = "-", ((nm - bm) / abs(bm) if bm else 0.0)
            else:
                v, change = verdict(bv, nv, kind["better"], bound)
                if v == "worse":
                    status = max(status, 1)
            print(f"{name:30s} {bm:11.5g} [{bq1:9.5g}, {bq3:9.5g}]  "
                  f"{nm:11.5g} [{nq1:9.5g}, {nq3:9.5g}]  {change * 100:+7.1f}%  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
