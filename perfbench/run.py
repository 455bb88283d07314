#!/usr/bin/env python3
"""Build and run the KvService benchmark.

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library sources it needs from src/) with CMake
into .bench_build/perfbench, then runs the kvbench program. Its
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Traced runs (--trace 1) also write their
span dump to .bench_build/perfbench/spans/<workload>-<seed>.jsonl.

--selftest builds, runs the latency recorder's self-check, and checks that
a violation planted in either of each workload's two checkers makes it
exit nonzero while a clean short run of each exits 0.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("kv_read", "kv_churn_feed", "txn_bank")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "service.hpp")):
        sys.exit("perfbench: library sources (src/) not found beside perfbench/")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", "2"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")


def kvbench(args, timeout):
    cmd = [os.path.join(BUILD, "kvbench")] + [str(a) for a in args]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)


def selftest():
    proc = subprocess.run([os.path.join(BUILD, "latency_selftest")])
    ok = proc.returncode == 0
    for w in WORKLOADS:
        for plant in (0, 1, 2):
            r = kvbench(["--workload", w, "--seed", 7, "--seconds", 1,
                         "--trace", 0, "--plant", plant], RUN_TIMEOUT_S)
            want = 3 if plant else 0
            line = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            good = r.returncode == want
            if good and not plant:
                good = json.loads(line)["correct"] is True
            print(f"{w} plant={plant}: exit {r.returncode} "
                  f"({'ok' if good else 'UNEXPECTED'})")
            ok = ok and good
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant", type=int, choices=(0, 1, 2), default=0,
                   help="inject one violation into checker 1 or 2")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    build()
    if a.selftest:
        return selftest()

    args = ["--workload", a.workload, "--seed", a.seed,
            "--seconds", a.seconds, "--trace", a.trace, "--plant", a.plant]
    if a.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--span-out",
                 os.path.join(spans, f"{a.workload}-{a.seed}.jsonl")]
    start = time.monotonic()
    try:
        r = kvbench(args, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: kvbench timed out")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        print(f"perfbench: kvbench exited {r.returncode} after "
              f"{time.monotonic() - start:.1f}s", file=sys.stderr)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
