#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about half a minute).

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
on a seed that was never used while the benchmark was developed, and checks:

  * the run exits 0 and its last stdout line is exactly
    {"correct", "attempted", "failed", "metrics"} with no failed operation;
  * every metric BENCHMARK.json names is printed, with its unit, and no other;
  * the sweep's template shares are equal;
  * the daemon's cache-hit share is the planned one in 5;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FRESH_SEED = 4242424242
PLANNED_HIT_SHARE = 0.2

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(FRESH_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s --trace %d" % (workload, trace)
            code, lines = run(workload, trace)
            check(code == 0 and len(lines) >= 2, tag + ": exits 0 with a detail and a result line")
            if len(lines) < 2:
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["perfbench"]
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  tag + ": result has exactly correct/attempted/failed/metrics")
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1, tag + ": every operation passed its check")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            check(got == want, tag + ": prints every %s metric with its unit" % key)
            check(all(isinstance(m.get("value"), (int, float))
                      for m in result.get("metrics", {}).values()), tag + ": values are numbers")
            if workload == "sweep":
                shares = detail.get("template_ops", {})
                check(len(shares) == 7 and len(set(shares.values())) == 1
                      and min(shares.values()) > 0, tag + ": template shares are equal")
            if workload == "daemon":
                check(abs(float(detail.get("hit_share", -1)) - PLANNED_HIT_SHARE) < 1e-9,
                      tag + ": untraced hit share is the planned 1 in 5")
                if trace == 1:
                    share = result["metrics"]["svc.cache_hit_share"]["value"]
                    check(abs(share - PLANNED_HIT_SHARE) < 1e-9,
                          tag + ": svc.cache_hit_share is the planned 1 in 5")

    # Without the program's sources the benchmark must refuse, printing no result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(bench["workloads"][0]["name"], 0, cwd=bare)
    check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
          "without src/: exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
