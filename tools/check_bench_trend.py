#!/usr/bin/env python3
"""Gate an A/B result from tools/bench_ab.py against BENCHMARK.json.

    python3 tools/check_bench_trend.py BENCH_<n>.json

Exits nonzero when the file is not a full run (fewer than 10 pairs, a run
length other than BENCHMARK.json's run_seconds, or a workload missing),
or when any workload had an incorrect run, fails a larger share of its
operations on the change side, or has an end-to-end metric whose
change/base ratio of medians is worse than that metric's BENCHMARK.json
bound. Without failing, it reports two more verdicts that the PR carrying
the file must state as such:

  UNRESOLVED  the base runs spread wider than the bound ((q3 - q1) / median
              of the base exceeds it) and not every change run beats every
              base run, so the data cannot tell whether the bound holds;
  FLAG        the change lost in at least 9 of every 10 pairs.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worse_by(ratio, better):
    """How much worse the change is, as a fraction of the base (<0: better)."""
    return ratio - 1 if better == "lower" else 1 - ratio


def unresolved(r, bound):
    """Base spread wider than the bound, unless the change won every run."""
    b, c = r["base"], r["change"]
    if b["median"] == 0 or (b["q3"] - b["q1"]) / abs(b["median"]) <= bound:
        return False
    if r["better"] == "lower":
        return max(c["runs"]) >= min(b["runs"])
    return min(c["runs"]) <= max(b["runs"])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("result", help="JSON written by tools/bench_ab.py")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    a = p.parse_args()
    with open(a.result) as f:
        doc = json.load(f)
    with open(a.benchmark) as f:
        bench = json.load(f)

    failures = flags = unknown = 0
    pairs = doc["pairs"]
    if pairs < 10 or doc["seconds"] != bench["run_seconds"]:
        print(f"FAIL not a full run: {pairs} pairs of {doc['seconds']} s "
              f"(need >= 10 pairs of {bench['run_seconds']} s)")
        failures += 1
    for w in bench["workloads"]:
        if w["name"] not in doc["workloads"]:
            print(f"FAIL {w['name']}: workload missing")
            failures += 1
    for w, res in doc["workloads"].items():
        if not res["correct"]:
            print(f"FAIL {w}: a run was incorrect or exited nonzero")
            failures += 1
            continue
        share = res["failed_share"]
        if share["change"] > share["base"]:
            print(f"FAIL {w}: failed share {share['change']:.3g} "
                  f"> base {share['base']:.3g}")
            failures += 1
        for m in bench["end_to_end"]:
            r = res["metrics"][m["name"]]
            worse = worse_by(r["ratio"], m["better"])
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "FAIL"
                failures += 1
            elif unresolved(r, m["bound"]):
                verdict = "UNRESOLVED"
                unknown += 1
            elif r["pairs_lost"] * 10 >= 9 * pairs:
                verdict = "FLAG"
                flags += 1
            base_iqr = r["base"]["q3"] - r["base"]["q1"]
            print(f"{verdict:10} {w:14} {m['name']:17} "
                  f"base {r['base']['median']:12.6g} "
                  f"(IQR {base_iqr:.3g}) "
                  f"change {r['change']['median']:12.6g} "
                  f"ratio {r['ratio']:.3f} (bound {m['bound']:.2f}, "
                  f"{m['better']} is better) "
                  f"won {r['pairs_won']}/{pairs} lost {r['pairs_lost']}/{pairs}")
    print(f"check_bench_trend: {failures} failing, {unknown} unresolved, "
          f"{flags} flagged")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
