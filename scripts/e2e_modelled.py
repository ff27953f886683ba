#!/usr/bin/env python3
"""Prints the modelled metrics of a bench_e2e result file, one per line.

    python3 scripts/e2e_modelled.py BENCH_e2e.smoke.json > e2e_smoke.txt

Each line is `<workload> <metric> <repr(value)>`, sorted, for every metric
whose kind is "modelled" in hot_session, many_users and notes_rw. Modelled
numbers (virtual cycles, accounted bytes, counts) repeat bit for bit, so CI
diffs this output of `bench_e2e --smoke` against bench/figures/e2e_smoke.txt.

open_loop is left out: its Poisson arrival times go through std::log, whose
last bit may differ between libm builds, and every one of its modelled
numbers follows from those times.

Standard library only.
"""

import json
import sys

WORKLOADS = ("hot_session", "many_users", "notes_rw")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        results = json.load(f)
    for workload in WORKLOADS:
        metrics = results["workloads"][workload]["metrics"]
        for name in sorted(metrics):
            if metrics[name]["kind"] == "modelled":
                print("%s %s %r" % (workload, name, metrics[name]["value"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
