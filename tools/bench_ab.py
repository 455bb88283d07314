#!/usr/bin/env python3
"""A/B-run the perfbench workloads: a base revision against the working tree.

    python3 tools/bench_ab.py --base HEAD~1 --pairs 10 --out BENCH_<n>.json

Exports the base revision with `git archive` and copies the working tree
(tracked plus untracked, not ignored files) as the change, each into its
own directory under --workdir. Each side is built through its own
perfbench/run.py (a 1 s kv_read run) before the first measured run, so
no build overlaps a measurement. Then, for every BENCHMARK.json workload,
it runs --pairs pairs of BENCHMARK.json's run_seconds each, in ABBA order
(base first in even pairs, change first in odd ones), each pair on a
fresh seed that both sides share. `--pairs 1` is a smoke of the harness.

The output JSON records, per workload and end-to-end metric of
BENCHMARK.json, the base and change medians and quartiles, the
change/base ratio and the pairs the change won, plus every run's metrics,
failure counts and "# meta" noise lines. It names the measured change by
the git tree ids of the copied tree and of each top-level directory in
it; `git rev-parse <commit>:src` tells whether a commit holds the
measured sources. tools/check_bench_trend.py gates the result against the
BENCHMARK.json bounds.
"""
import argparse
import datetime
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "moir-bench-ab-v1"


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def export_base(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"bench_ab: git archive {rev} failed")


def copy_working_tree(dest):
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    for rel in filter(None, files):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def tree_ids():
    """Git tree ids of the working tree as copy_working_tree() sees it."""
    with tempfile.TemporaryDirectory() as d:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(d, "index"))

        def idx(*args):
            return subprocess.run(["git", "-C", ROOT] + list(args), env=env,
                                  check=True, stdout=subprocess.PIPE,
                                  text=True).stdout

        idx("read-tree", "HEAD")
        idx("add", "-A")
        tree = idx("write-tree").strip()
        dirs = {}
        for line in idx("ls-tree", tree).splitlines():
            mode_kind_oid, name = line.split("\t", 1)
            _, kind, oid = mode_kind_oid.split()
            if kind == "tree":
                dirs[name] = oid
    return tree, dirs


def run_side(side_dir, workload, seed, seconds):
    """One perfbench run; returns its result line, parsed, plus meta lines."""
    cmd = [sys.executable, os.path.join(side_dir, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    meta = [json.loads(l[len("# meta "):]) for l in lines
            if l.startswith("# meta ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 0,
                  "metrics": {}}
    return {
        "exit": r.returncode,
        "correct": bool(result.get("correct")) and r.returncode == 0,
        "attempted": result.get("attempted", 1),
        "failed": result.get("failed", 0),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "meta": meta,
    }


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, base_runs, change_runs):
    name, better = metric["name"], metric["better"]
    b = [r["metrics"][name] for r in base_runs]
    c = [r["metrics"][name] for r in change_runs]
    won = lost = 0
    for x, y in zip(b, c):
        if y == x:
            continue
        if (y < x) == (better == "lower"):
            won += 1
        else:
            lost += 1
    bq1, bq3 = quartiles(b)
    cq1, cq3 = quartiles(c)
    bmed, cmed = statistics.median(b), statistics.median(c)
    return {
        "unit": metric["unit"], "better": better, "bound": metric["bound"],
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "runs": b},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": c},
        "ratio": cmed / bmed if bmed else None,
        "pairs_won": won, "pairs_lost": lost,
        # The gain test: is the median shift wider than the base's IQR?
        "shift_exceeds_base_iqr": abs(cmed - bmed) > bq3 - bq1,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--seed", type=int, default=0,
                   help="first pair's seed; pair i uses seed+i "
                        "(default: drawn at random)")
    p.add_argument("--workdir", default="",
                   help="where both sides are built (default: a temp dir, "
                        "removed afterwards)")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seed0 = a.seed or random.SystemRandom().randrange(1, 1 << 30)

    workdir = a.workdir or tempfile.mkdtemp(prefix="bench_ab.")
    sides = {"base": os.path.join(workdir, "base"),
             "change": os.path.join(workdir, "change")}
    for d in sides.values():
        if os.path.exists(d):
            shutil.rmtree(d)
    export_base(a.base, sides["base"])
    copy_working_tree(sides["change"])
    tree, dir_trees = tree_ids()
    for side, d in sides.items():
        print(f"bench_ab: building {side} in {d}", file=sys.stderr)
        if not run_side(d, "kv_read", 1, 1)["correct"]:
            sys.exit(f"bench_ab: {side} build or smoke run failed")

    doc = {
        "schema": SCHEMA,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "kernel": platform.release()},
        "base": {"rev": a.base, "commit": git("rev-parse", a.base).strip()},
        "change": {"rev": "working tree",
                   "head": git("rev-parse", "HEAD").strip(),
                   "dirty": bool(git("status", "--porcelain").strip()),
                   "tree": tree, "dir_trees": dir_trees},
        "pairs": a.pairs, "seconds": seconds,
        "workloads": {},
    }
    for w in names:
        runs = {"base": [], "change": []}
        log = []
        for i in range(a.pairs):
            seed = seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                r = run_side(sides[side], w, seed, seconds)
                r.update({"side": side, "pair": i, "seed": seed})
                runs[side].append(r)
                log.append(r)
                print(f"bench_ab: {w} pair {i} {side} seed {seed}: "
                      f"{'ok' if r['correct'] else 'FAILED'} "
                      f"{json.dumps(r['metrics'])}", file=sys.stderr)
        ok = all(r["correct"] for r in log)
        doc["workloads"][w] = {
            "seeds": [seed0 + i for i in range(a.pairs)],
            "correct": ok,
            "failed_share": {
                side: sum(r["failed"] for r in rs) /
                      max(1, sum(r["attempted"] for r in rs))
                for side, rs in runs.items()},
            "metrics": {m["name"]: summarize(m, runs["base"], runs["change"])
                        for m in bench["end_to_end"]} if ok else {},
            "runs": log,
        }
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    if not a.workdir:
        shutil.rmtree(workdir)
    print(f"bench_ab: wrote {a.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
