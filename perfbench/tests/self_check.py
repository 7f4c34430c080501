#!/usr/bin/env python3
"""Self-check of the synccount benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/tests/self_check.py

Builds the benchmark through run.py, then makes one tiny-size run of every
workload in BENCHMARK.json with tracing off and one with tracing on
(`--self-check --seed 0`), and asserts that:

  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct is true and failed is 0
    (the runs themselves enforce the default-seed digests, refuse a
    margin-cliff workload, and fail unless the decorated traced replay is
    bit-identical to the untraced Engine::run);
  * the metrics are exactly BENCHMARK.json's end_to_end names (trace 0) or
    per_layer names (trace 1), each with its unit, end-to-end values > 0;
  * every per-layer metric is non-zero on the workloads perfbench/layers.json
    says it is measured on, and layers.json names exactly the per-layer
    metrics of BENCHMARK.json;
  * the benchmark's C++ sources are clean under synccount-lint;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args: list[str], cwd: str = ".") -> tuple[int, str, str]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout, p.stderr


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(bench: dict, layers: dict, workload: str, trace: int,
              errors: list[str]) -> None:
    where = f"{workload} --trace {trace}"
    rc, out, err = run_bench(["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace), "--self-check"])
    result = last_json(out)
    if rc != 0 or result is None:
        errors.append(f"{where}: exit {rc}, no result\n{err[-2000:]}")
        return
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}\n{err[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} - set(metrics)
        extra = set(metrics) - {m["name"] for m in wanted}
        errors.append(f"{where}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)):
            errors.append(f"{where}: {m['name']} value {value!r}")
            continue
        if not trace and not value > 0:
            errors.append(f"{where}: end-to-end {m['name']} = {value}")
        if trace and workload in layers[m["name"]]["measured_on"] and value == 0:
            errors.append(f"{where}: {m['name']} is 0 on a workload that crosses its layer")


def check_stripped_checkout(errors: list[str]) -> None:
    """Only BENCHMARK.json + perfbench/: the build must fail, with no result."""
    tmp = os.path.join(".bench_work", "stripped-check")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out, _ = run_bench(["--workload", "table_sweep", "--seed", "0", "--seconds", "1",
                                "--trace", "0"], cwd=tmp)
        if rc == 0 or last_json(out) is not None:
            errors.append(f"stripped checkout: exit {rc}, stdout {out[-200:]!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_lint(errors: list[str]) -> None:
    lint = os.path.join("tools", "lint", "synccount_lint.py")
    if not os.path.exists(lint):
        return
    files = sorted(glob.glob("perfbench/src/*.cpp") + glob.glob("perfbench/src/*.hpp"))
    p = subprocess.run([sys.executable, lint, "--root", ".", "--files", *files],
                       capture_output=True, text=True)
    if p.returncode != 0:
        errors.append(f"synccount-lint findings:\n{p.stdout}{p.stderr}")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "layers.json"), encoding="utf-8") as f:
        layers = json.load(f)["metrics"]
    errors: list[str] = []
    if set(layers) != {m["name"] for m in bench["per_layer"]}:
        errors.append("perfbench/layers.json and BENCHMARK.json per_layer differ: "
                      f"{sorted(set(layers) ^ {m['name'] for m in bench['per_layer']})}")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(bench, layers, workload, trace, errors)
            print(f"self-check: {workload} --trace {trace} done", file=sys.stderr)
    check_lint(errors)
    check_stripped_checkout(errors)
    for e in errors:
        print(f"FAIL: {e}")
    print(f"self-check: {'FAILED' if errors else 'ok'} ({len(errors)} problem(s))")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
