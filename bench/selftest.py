"""Self-test of the benchmark at the tiny scale.

    python3 bench/selftest.py

For every workload, two seeds (the default seed, whose outputs are pinned,
and one other) and both trace settings, it runs ``bench/run.py`` and checks
that the last stdout line is a result with 0 failed operations and every
metric BENCHMARK.json names, with its unit. It also checks that two traced
runs of one seed report identical simulated ``occsim.*`` counts, and that
the benchmark fails without a result when the program's sources are absent.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
SIMULATED = ("occsim.attempts", "occsim.aborts", "occsim.commit_ratio", "occsim.wasted_gas_frac", "occsim.slot_busy_frac")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: list[dict]) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("failed") != 0 or result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        if got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got['unit']!r}, expected {spec['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{spec['name']}: value {got['value']!r}")
        elif "bound" in spec and got["value"] <= 0:
            problems.append(f"{spec['name']}: end-to-end value {got['value']} is not positive")
    return problems, metrics


def main() -> int:
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in SEEDS:
            for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                problems, metrics = check_result(run(workload, seed, trace), expected)
                if trace == 1 and not problems:
                    _, again = check_result(run(workload, seed, trace), expected)
                    for name in SIMULATED:
                        if again.get(name) != metrics.get(name):
                            problems.append(f"{name} differs between two runs of one seed")
                label = f"{workload} seed {seed} trace {trace}"
                print(("FAIL " if problems else "ok   ") + label)
                failures += [f"{label}: {p}" for p in problems]

    # Without the program's sources the benchmark must fail and print no result.
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(SPEC["workloads"][0]["name"], SEEDS[0], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    print(("ok   " if proc.returncode else "FAIL ") + "bare directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAILED " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
