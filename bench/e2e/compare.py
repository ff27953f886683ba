#!/usr/bin/env python3
"""Compares two bench_e2e result files against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BASE.json NEW.json [--benchmark BENCHMARK.json]

Prints one row per (metric, workload): improved, regressed, unchanged or
unresolved. A metric `<name>_at_<rate>` (e.g. latency_p99_ms_at_500) is
judged with the bound of `<name>`. The rules:

  * spread = the wider of the two sides' (q3 - q1) / median over their
    repetitions, with the quartiles bench_e2e writes (Python's
    statistics.quantiles(method='inclusive')); 0 for modelled numbers,
    which repeat exactly;
  * unresolved: spread wider than the bound, unless every new repetition
    beats every base repetition (then improved);
  * regressed: the new median is worse than the base median by more than
    the bound, or error_rate rose at all;
  * improved: the new median is better by more than the spread;
  * unchanged: anything else.

Exits 1 when any row is regressed or unresolved. Standard library only.
"""

import argparse
import json
import os
import re
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                            "BENCHMARK.json")


def spread(m):
    med = m["value"]
    return 0.0 if med == 0 else abs(m["q3"] - m["q1"]) / abs(med)


def judge(base, new, better, bound):
    """Returns (verdict, signed relative change with positive = worse, spread)."""
    b, n = base["value"], new["value"]
    if b == 0:
        worse = 0.0 if n == b else (1.0 if (n > b) == (better == "lower") else -1.0)
    else:
        worse = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    s = max(spread(base), spread(new))
    if s > bound:
        bv, nv = base.get("values", [b]), new.get("values", [n])
        beats = max(nv) < min(bv) if better == "lower" else min(nv) > max(bv)
        return ("improved" if beats else "unresolved"), worse, s
    if worse > bound:
        return "regressed", worse, s
    if -worse > s and worse < 0:
        return "improved", worse, s
    return "unchanged", worse, s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=DEFAULT_SPEC)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    rows = []
    for wname in sorted(set(base["workloads"]) & set(new["workloads"])):
        bm = base["workloads"][wname]["metrics"]
        nm = new["workloads"][wname]["metrics"]
        for name in sorted(set(bm) & set(nm)):
            key = re.sub(r"_at_\d+$", "", name)
            if name == "error_rate":
                verdict = "regressed" if nm[name]["value"] > bm[name]["value"] else "unchanged"
                rows.append((name, wname, verdict, bm[name]["value"], nm[name]["value"], 0, 0, 0))
                continue
            if key not in bounds:
                continue
            better, bound = bounds[key]
            verdict, worse, s = judge(bm[name], nm[name], better, bound)
            rows.append((name, wname, verdict, bm[name]["value"], nm[name]["value"], worse, s,
                         bound))
        for name in sorted(set(bounds) - set(nm)):
            rows.append((name, wname, "unresolved", 0, 0, 0, 0, bounds[name][1]))

    print("%-24s %-12s %-10s %14s %14s %9s %8s %6s" %
          ("metric", "workload", "verdict", "base", "new", "worse", "spread", "bound"))
    for name, wname, verdict, b, n, worse, s, bound in rows:
        print("%-24s %-12s %-10s %14.6g %14.6g %+8.2f%% %7.2f%% %5.1f%%" %
              (name, wname, verdict, b, n, 100 * worse, 100 * s, 100 * bound))
    bad = [r for r in rows if r[2] in ("regressed", "unresolved")]
    counts = {}
    for r in rows:
        counts[r[2]] = counts.get(r[2], 0) + 1
    print("summary: " + ", ".join("%d %s" % (v, k) for k, v in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
