"""Self-check of the benchmark harness at a tiny size.

    python3 benchmarks/selfcheck.py

Checks that
* every metric BENCHMARK.json names is emitted with its unit, on every
  workload, in plain and in traced runs;
* per-layer counts are identical across two traced runs;
* tasks made to fail on purpose land in the failure count and mark the
  run incorrect, without ending it;
* in a directory holding only BENCHMARK.json and the benchmark, with no
  package source, the benchmark exits non-zero without a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"),
         "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(*args) -> dict:
    code, lines, err = bench(*args)
    if code != 0:
        raise SystemExit(f"benchmark {args} exited {code}:\n{err}")
    return json.loads(lines[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        base = ["--workload", workload, "--seed", "1"]
        plain = result(*base, "--trace", "0")
        check(set(plain) == {"correct", "attempted", "failed", "metrics"}
              and plain["correct"] and plain["attempted"] >= 1,
              f"{workload}: plain run is correct")
        check({k: v["unit"] for k, v in plain["metrics"].items()}
              == {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              f"{workload}: every end-to-end metric with its unit")
        traced = [result(*base, "--trace", "1") for _ in range(2)]
        check({k: v["unit"] for k, v in traced[0]["metrics"].items()}
              == {m["name"]: m["unit"] for m in SPEC["per_layer"]},
              f"{workload}: every per-layer metric with its unit")
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] == "count"} for t in traced]
        check(counts[0] == counts[1],
              f"{workload}: per-layer counts repeat across traced runs")

    injected = result("--workload", "points", "--seed", "1", "--trace", "0",
                      "--inject-fail")
    # two failing tasks in every pass, the other tasks unaffected
    check(injected["failed"] >= 2 and injected["failed"] % 2 == 0
          and not injected["correct"]
          and injected["attempted"] > injected["failed"],
          "deliberately failing tasks are counted and the run completes "
          f"({injected['failed']} of {injected['attempted']} failed)")

    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("--workload", "points", "--seed", "1",
                           "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the package source the benchmark fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
