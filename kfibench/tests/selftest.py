#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 kfibench/tests/selftest.py [--workload smoke_abc]

Runs reduced (one-process) benchmark runs at seed 2003 and checks that
  1. the untraced run prints every end-to-end metric of BENCHMARK.json
     with its unit and verifies every record;
  2. the traced run prints every per-layer metric with its unit, and
     its traced folds equal the untraced fold at the same seed;
  3. a copy of the references with one record mutated makes the run
     report verified_share < 1 and exit non-zero.
Exit code 0 when all pass.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (the benchmark's own module: build paths)

FAILURES = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def bench(workload, trace, refs=None):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", "2003", "--seconds", "1",
           "--trace", str(trace)]
    if refs is not None:
        cmd += ["--refs", refs]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    context = json.loads(lines[-2]) if len(lines) > 1 else {}
    return proc.returncode, result, context


def check_metrics(result, specs, label):
    metrics = result.get("metrics", {})
    for spec in specs:
        got = metrics.get(spec["name"])
        check(got is not None and got.get("unit") == spec["unit"] and
              isinstance(got.get("value"), (int, float)),
              f"{label}: {spec['name']} reported in {spec['unit']}")
    extra = set(metrics) - {s["name"] for s in specs}
    check(not extra, f"{label}: no metric outside BENCHMARK.json {sorted(extra)}")


def main():
    parser = argparse.ArgumentParser(description="campaign benchmark self-test")
    parser.add_argument("--workload", default="smoke_abc",
                        choices=["smoke_abc", "smoke_def"])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    code, result, context = bench(args.workload, 0)
    check(code == 0 and result.get("correct") is True,
          "untraced run passes verification")
    check_metrics(result, spec["end_to_end"], "untraced")
    share = result.get("metrics", {}).get("verified_share", {}).get("value")
    check(share == 1.0, f"untraced verified_share is 1.0 (got {share})")
    # The untraced run's first process runs seed 2003, as every traced
    # process does.
    untraced_fold = (context.get("folds") or [None])[0]

    code, result, context = bench(args.workload, 1)
    check(code == 0 and result.get("correct") is True,
          "traced run passes verification")
    check_metrics(result, spec["per_layer"], "traced")
    traced_folds = set(context.get("folds", []))
    check(traced_folds == {untraced_fold},
          f"traced folds {sorted(traced_folds)} equal the untraced "
          f"{untraced_fold}")

    # One mutated reference record must fail the run.
    refs = os.path.join(run.build_root(), "selftest-refs")
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(run.WORKLOADS[args.workload]["refs"], refs)
    victim = sorted(name for name in os.listdir(refs)
                    if name.startswith("campaign_" +
                                       ("A" if args.workload == "smoke_abc"
                                        else "D")))[0]
    path = os.path.join(refs, victim)
    binary = os.path.join(run.build_root(), "kfibench", "kfibench")
    mutated = subprocess.run([binary, "mutate", "--in", path, "--out", path,
                              "--index", "7"], cwd=ROOT).returncode
    check(mutated == 0, f"mutated record 7 of {victim}")
    code, result, _ = bench(args.workload, 0, refs=refs)
    share = result.get("metrics", {}).get("verified_share", {}).get("value")
    check(code != 0, f"mutated reference exits non-zero (exit {code})")
    check(share is not None and share < 1.0,
          f"mutated reference reports verified_share < 1 (got {share})")
    check(result.get("correct") is False and result.get("failed", 0) >= 1,
          "mutated reference reports correct=false and failed >= 1")
    shutil.rmtree(refs, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
