"""txpar benchmark: host throughput of each CLI command on a seeded workload.

Run from the repository root (no install needed; it imports ``src/txpar``):

    python3 bench/run.py --workload mixed_blocks --seed 1 --seconds 20 --trace 0

One process measures one workload, single-threaded, and starts no other
process. It builds the workload from the seed and writes it as trace files
(set-up), computes reference facts with the library (warm-up, untimed), then
repeats rounds until ``--seconds`` have passed. A round invokes every
measured command once, in-process through ``txpar.cli.main`` on all of the
workload's traces, plus the library ``replay_check`` on every
deterministic-mode run. Each invocation is one operation; it fails on a
non-zero exit code, on output that differs from the first round's or from
the pinned digest of the default seed, or on a failed content check.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over rounds of a time scaled to a reference host speed (see
``calibrate``). With ``--trace 1`` untraced and traced rounds alternate: the
line reports per-layer metrics from the traced rounds, and the tracing
overhead is the slowdown of traced rounds against untraced ones.
Details go to ``.bench_out/<workload>/s<seed>-<scale>/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pinned.json"

DEFAULT_SEED = 1
#: Seconds the calibration loop takes on a quiet 2-vCPU host (CPython 3.11).
#: Every timing is scaled to this host speed, see ``calibrate``.
REFERENCE_CALIBRATION_S = 0.002
#: Set-up is repeated and its median reported, so a slow first import does
#: not decide the figure.
SETUP_REPEATS = 7
MIN_ROUNDS = 3

#: The thread counts in COMMANDS, which the output checks expect.
SIM_THREADS = (8, 32)
ANALYZE_THREADS = (2, 8, 32)
COMMANDS = (
    ("analyze", ["analyze", "--threads", "2,8,32", "--format", "both"]),
    ("simulate_da", ["simulate", "--mode", "occ-da", "--threads", "8,32"]),
    ("simulate_dep_graph", ["simulate", "--mode", "occ-da", "--policy", "dep_graph", "--threads", "8,32"]),
    ("simulate_det_commit", ["simulate", "--mode", "occ-det-commit", "--threads", "8,32"]),
    ("simulate_classic", ["simulate", "--mode", "occ-classic", "--threads", "8,32"]),
    ("probe", ["probe", "--threads", "8", "--trials", "20"]),
)
REPLAY = "replay_check"
REPLAY_MODES = ("occ-da", "occ-det-commit")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help="record this run's output digests as the pins of the default seed",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_pins and args.seed != DEFAULT_SEED:
        parser.error(f"pins are kept for the default seed {DEFAULT_SEED} only")
    return args


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Best of 5 timings of a fixed pure-Python loop doing the dict, set,
    tuple, list and sort work txpar does.

    The host is shared, and its speed drifts by up to 40% over periods of
    seconds, for all code alike. Timing this loop just before and just
    after each measured call tracks that drift. The loop is not part of
    txpar, so no change to the program moves it.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(2000):
            table[(i, i & 7)] = [i] * 3
        latest = -1
        for _ in range(4):
            for j, i in frozenset(table):
                if i == 3 and j > latest:
                    latest = j
        sorted(table.items(), key=lambda item: -item[0][0])
        best = min(best, time.perf_counter() - start)
    return best


class Stopwatch:
    """Times calls in host seconds and in reference seconds: host seconds
    scaled by REFERENCE_CALIBRATION_S over the mean calibration time just
    before and just after the call."""

    def __init__(self):
        self.calibration = calibrate()

    def scaled(self, host_s: float) -> float:
        before, self.calibration = self.calibration, calibrate()
        return host_s * REFERENCE_CALIBRATION_S / ((before + self.calibration) / 2)


# ---------------------------------------------------------------------------
# Set-up and reference facts
# ---------------------------------------------------------------------------


def import_txpar():
    """Import ``txpar`` and its CLI from this checkout's ``src``, dropping
    any copy already imported, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "txpar" or m.startswith("txpar.")]:
        del sys.modules[name]
    importlib.import_module("txpar.cli")
    txpar = sys.modules["txpar"]
    if Path(txpar.__file__).resolve().parent != (SRC / "txpar").resolve():
        raise RuntimeError(f"imported txpar from {txpar.__file__}, not from {SRC}")
    return txpar


def set_up(args, trace_dir: Path, tracer):
    """Import txpar, build the workload and write its traces, SETUP_REPEATS
    times; the last repetition is traced when a tracer is given. Returns the
    median set-up time in reference seconds."""
    times = []
    stopwatch = Stopwatch()
    for rep in range(SETUP_REPEATS):
        for stale in trace_dir.glob("*.trace"):
            stale.unlink()
        span = tracer.span if tracer is not None and rep == SETUP_REPEATS - 1 else None
        start = time.perf_counter()
        txpar = import_txpar()
        blocks = workloads.build(txpar, args.workload, args.seed, args.scale, span=span)
        paths = []
        for label, block in blocks:
            path = trace_dir / f"{label}.trace"
            path.write_bytes(txpar.emit_trace(block))
            paths.append(path)
        times.append(stopwatch.scaled(time.perf_counter() - start))
    return txpar, paths, statistics.median(times)


def reference(txpar, paths, cadd_aware: bool) -> list[dict]:
    """Per-block facts the checks compare against, computed with the
    library from the written traces: the serial digest, both edge counts and
    the deterministic-mode runs that replay_check is timed on."""
    refs = []
    for path in paths:
        block = txpar.parse_trace(path.read_bytes())
        runs = {}
        for t in SIM_THREADS:
            runs[("occ-da", t)] = txpar.run_occ_da(block, t, None, cadd_aware)
            runs[("occ-det-commit", t)] = txpar.run_occ_det_commit(block, t, cadd_aware)
        refs.append(
            {
                "label": path.stem,
                "block": block,
                "n": len(block),
                "serial": block.serial_gas(),
                "digest": txpar.run_serial(block),
                "edges_plain": len(txpar.build_graph(block, False).edges),
                "edges_cadd": len(txpar.build_graph(block, True).edges),
                "runs": runs,
            }
        )
    return refs


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without starting git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, refs, paths) -> dict:
    inputs = hashlib.sha256()
    for path in paths:
        inputs.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "cadd_aware": args.workload in workloads.CADD_AWARE,
        "blocks": len(refs),
        "tx": sum(ref["n"] for ref in refs),
        "edges_plain": sum(ref["edges_plain"] for ref in refs),
        "edges_cadd": sum(ref["edges_cadd"] for ref in refs),
        "inputs_sha256": inputs.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        digest.update(file.name.encode() + b"\0" + file.read_bytes() + b"\0")
    return digest.hexdigest()


def check_analyze(out: Path, refs, cadd_aware) -> list[str]:
    rows = json.loads((out / "analyze.json").read_text())
    if [row["workload"] for row in rows] != [ref["label"] for ref in refs]:
        return ["analyze.json rows do not match the blocks"]
    problems = []
    for row, ref in zip(rows, refs):
        label = ref["label"]
        edges = ref["edges_cadd"] if cadd_aware else ref["edges_plain"]
        if (row["n"], row["serial"], row["edges"]) != (ref["n"], ref["serial"], edges):
            problems.append(f"{label}: n/serial/edges differ from the library")
        path_weight = sum(ref["block"][i].gas for i in row["critical_path"])
        if path_weight != row["critical_weight"] or not 0 < row["critical_weight"] <= row["serial"]:
            problems.append(f"{label}: critical path weight is inconsistent")
        if sorted(row["bounds"], key=int) != [str(t) for t in ANALYZE_THREADS]:
            problems.append(f"{label}: bound thread counts differ")
            continue
        for t in ANALYZE_THREADS:
            bound = row["bounds"][str(t)]
            floor = max(row["critical_weight"], -(-row["serial"] // t))
            if not floor <= bound["makespan"] <= row["serial"]:
                problems.append(f"{label}: makespan at {t} threads outside [{floor}, {row['serial']}]")
    csv_lines = (out / "analyze.csv").read_text().splitlines()
    if len(csv_lines) != 1 + len(ANALYZE_THREADS) * len(refs):
        problems.append("analyze.csv row count differs")
    return problems


def check_simulate(out: Path, refs, cadd_aware, mode: str) -> list[str]:
    rows = json.loads((out / "runs.json").read_text())
    expected = [(ref["label"], t) for ref in refs for t in SIM_THREADS]
    if [(row["workload"], row["threads"]) for row in rows] != expected:
        return ["runs.json rows do not match the blocks and thread counts"]
    if not (out / "aggregate.csv").is_file():
        return ["aggregate.csv missing"]
    problems = []
    for row, ref in zip(rows, [ref for ref in refs for _ in SIM_THREADS]):
        label, n = ref["label"], ref["n"]
        if row["mode"] == "occ-classic":
            # Classic replay_check is no oracle yet: only the commit order is checked.
            if sorted(row["committed_order"]) != list(range(n)):
                problems.append(f"{label}: classic commit order is not a permutation of the block")
            continue
        if row["committed_order"] != list(range(n)):
            problems.append(f"{label}: commits are not in block order")
        if row["digest"] != ref["digest"]:
            problems.append(f"{label}: replayed state differs from the serial state")
        if row["policy"] == "dep_graph":
            continue
        library = ref["runs"][(row["mode"], row["threads"])]
        if row["aborts"] != [[a.tx_id, a.attempt, a.sv] for a in library.aborted()]:
            problems.append(f"{label}: aborts differ from the library run")
    if any(row["mode"] != mode for row in rows):
        problems.append(f"runs.json holds another mode than {mode}")
    return problems


def check_probe(out: Path, refs, cadd_aware) -> list[str]:
    payload = json.loads((out / "probe.json").read_text())
    problems = []
    if [run["workload"] for run in payload["runs"]] != [ref["label"] for ref in refs]:
        problems.append("probe.json runs do not match the blocks")
    if payload["da_violations"] != 0 or not all(run["da_deterministic"] for run in payload["runs"]):
        problems.append("probe reports deterministic-abort violations")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "simulate_da": functools.partial(check_simulate, mode="occ-da"),
    "simulate_dep_graph": functools.partial(check_simulate, mode="occ-da"),
    "simulate_det_commit": functools.partial(check_simulate, mode="occ-det-commit"),
    "simulate_classic": functools.partial(check_simulate, mode="occ-classic"),
    "probe": check_probe,
}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class Runner:
    """Runs the measured operations and keeps the operation counts."""

    def __init__(self, txpar, args, paths, refs, run_dir: Path, pins: dict):
        self.txpar = txpar
        self.refs = refs
        self.cadd_aware = args.workload in workloads.CADD_AWARE
        self.run_dir = run_dir
        self.inputs = [str(path) for path in paths]
        self.pins = pins
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tx = sum(ref["n"] for ref in refs)
        self.replay_tx = self.tx * len(REPLAY_MODES) * len(SIM_THREADS)

    def fail(self, name: str, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{name}: {p}" for p in problems)

    def command(self, name: str, argv: list[str], tracer) -> float:
        out = self.run_dir / "out" / name
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        argv = argv + ["--input", *self.inputs, "--out", str(out)]
        if self.cadd_aware:
            argv.append("--cadd-aware")
        cli = self.txpar.cli
        captured = io.StringIO()
        gc.collect()
        with redirect_stdout(io.StringIO()), redirect_stderr(captured):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.command = name
                    with tracer.span("cli.main"):
                        code = cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crashed benchmark
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.fail(name, [f"exit {code}: {captured.getvalue().strip()}"])
            return elapsed
        digest = dir_digest(out)
        if name not in self.digests:
            self.digests[name] = digest
            problems = CHECKS[name](out, self.refs, self.cadd_aware)
            pin = self.pins.get(name)
            if pin is not None and pin != digest:
                problems.append("output differs from the pinned digest of the default seed")
            if problems:
                self.fail(name, problems)
        elif digest != self.digests[name]:
            self.fail(name, ["output differs from the first round's"])
        return elapsed

    def replay_checks(self, tracer) -> float:
        replay_check = self.txpar.replay_check
        results = []
        gc.collect()
        if tracer is not None:
            tracer.command = REPLAY
        start = time.perf_counter()
        for ref in self.refs:
            block = ref["block"]
            for mode in REPLAY_MODES:
                for t in SIM_THREADS:
                    if tracer is None:
                        ok = replay_check(block, ref["runs"][(mode, t)])
                    else:
                        with tracer.span("storagevm.replay_check"):
                            ok = replay_check(block, ref["runs"][(mode, t)])
                    results.append((ref["label"], mode, t, ok))
        elapsed = time.perf_counter() - start
        for label, mode, t, ok in results:
            self.attempted += 1
            if not ok:
                self.fail(REPLAY, [f"{label}: {mode} at {t} threads fails replay_check"])
        return elapsed

    def round(self, tracer) -> dict[str, dict[str, float]]:
        """One invocation of each command and the replay checks:
        ``{"host_s": {name: seconds}, "scaled_s": {name: reference seconds}}``."""
        stopwatch = Stopwatch()
        host, scaled = {}, {}
        for name, argv in COMMANDS:
            host[name] = self.command(name, argv, tracer)
            scaled[name] = stopwatch.scaled(host[name])
        host[REPLAY] = self.replay_checks(tracer)
        scaled[REPLAY] = stopwatch.scaled(host[REPLAY])
        return {"host_s": host, "scaled_s": scaled}

    def throughput(self, name: str, seconds: float) -> float:
        return (self.replay_tx if name == REPLAY else self.tx) / seconds


def measure(runner: Runner, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Rounds until ``seconds`` have passed. With a tracer, untraced and
    traced rounds alternate; returns (untraced rounds, traced rounds)."""
    untraced, traced = [], []
    min_rounds = 2 * MIN_ROUNDS if tracer is not None else MIN_ROUNDS
    start = time.perf_counter()
    while len(untraced) + len(traced) < min_rounds or time.perf_counter() - start < seconds:
        if tracer is not None and len(untraced) > len(traced):
            tracer.install(tracing.txpar_targets(runner.txpar))
            try:
                traced.append(runner.round(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.round(None))
    return untraced, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, rounds: list[dict], setup_s: float) -> dict:
    metrics = {}
    for name in [name for name, _ in COMMANDS] + [REPLAY]:
        rates = [runner.throughput(name, r["scaled_s"][name]) for r in rounds]
        metrics[f"{name}_tx_per_s"] = metric(statistics.median(rates), "tx/s")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = metric(setup_s, "s")
    return metrics


def _per_round(value, rounds: int):
    share = value / rounds
    return int(share) if isinstance(value, int) and value % rounds == 0 else share


def per_layer(tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics: seconds and counts per traced round, summed over
    the round's commands; transform times are per set-up."""
    layers: dict[str, dict] = {}
    for (command, name), row in tracer.layer_table().items():
        if command == "setup":
            name = "setup:" + name
        total = layers.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for field in total:
            total[field] += row[field]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    def seconds(name, field="self_s"):
        return metric(get(name, field) / rounds, "s")

    def count(name):
        return metric(_per_round(get(name, "count"), rounds), "count")

    attempts = get("occsim.attempts", "count")
    engine_self = sum(get(name, "self_s") for name in tracing.ENGINE_SPANS)
    return {
        "graph.build_graph_s": seconds("graph.build_graph"),
        "graph.build_graph_calls": count("graph.build_graph"),
        "graph.edges": count("graph.edges"),
        "graph.dependents_calls": count("graph.dependents"),
        "graph.dependents_s": seconds("graph.dependents"),
        "graph.heaviest_from_s": seconds("graph.heaviest_from"),
        "graph.critical_path_self_s": seconds("graph.critical_path"),
        "bound.bound_schedule_self_s": seconds("bound.bound_schedule"),
        "bound.bound_schedule_calls": count("bound.bound_schedule"),
        "occsim.storage_version_calls": count("occsim.storage_version"),
        "occsim.storage_version_s": seconds("occsim.storage_version"),
        "occsim.run_occ_classic_self_s": seconds("occsim.run_occ_classic"),
        "occsim.run_occ_da_self_s": seconds("occsim.run_occ_da"),
        "occsim.run_occ_det_commit_self_s": seconds("occsim.run_occ_det_commit"),
        "occsim.determinism_probe_self_s": seconds("occsim.determinism_probe"),
        "occsim.host_us_per_attempt": metric(1e6 * engine_self / attempts if attempts else 0.0, "us"),
        "storagevm.replay_final_state_self_s": seconds("storagevm.replay_final_state"),
        "storagevm.replay_final_state_calls": count("storagevm.replay_final_state"),
        "storagevm.run_serial_s": seconds("storagevm.run_serial", "total_s"),
        "storagevm.run_serial_calls": count("storagevm.run_serial"),
        "storagevm.write_value_calls": count("storagevm.write_value"),
        "workload.parse_trace_s": seconds("workload.parse_trace"),
        "workload.parse_trace_calls": count("workload.parse_trace"),
        "transforms.split_senders_s": metric(get("setup:transforms.split_senders", "total_s"), "s"),
        "transforms.partition_counters_s": metric(get("setup:transforms.partition_counters", "total_s"), "s"),
        "transforms.cadd_rewrite_s": metric(get("setup:transforms.cadd_rewrite", "total_s"), "s"),
        "cli.self_s": seconds("cli.main"),
        "report.write_s": metric(sum(get(name, "self_s") for name in tracing.REPORT_SPANS) / rounds, "s"),
        "report.bytes_written": metric(_per_round(get("report.bytes_written", "count"), rounds), "bytes"),
        "occsim.attempts": count("occsim.attempts"),
        "occsim.aborts": count("occsim.aborts"),
        "occsim.commit_ratio": metric(
            (attempts - get("occsim.aborts", "count")) / attempts if attempts else 0.0, "ratio"
        ),
        "occsim.wasted_gas_frac": metric(
            get("occsim.wasted_gas", "count") / max(1, get("occsim.executed_gas", "count")), "ratio"
        ),
        "occsim.slot_busy_frac": metric(
            get("occsim.busy_time", "count") / max(1, get("occsim.slot_time", "count")), "ratio"
        ),
        "trace.overhead_pct": metric(overhead_pct, "%"),
    }


def overhead(untraced: list[dict], traced: list[dict]) -> dict:
    """Median reference seconds per command with and without tracing, and
    the slowdown in percent."""
    table = {}
    for name in untraced[0]["scaled_s"]:
        plain = statistics.median(r["scaled_s"][name] for r in untraced)
        with_trace = statistics.median(r["scaled_s"][name] for r in traced)
        table[name] = {"untraced_s": plain, "traced_s": with_trace, "pct": 100 * (with_trace - plain) / plain}
    plain = statistics.median(sum(r["scaled_s"].values()) for r in untraced)
    with_trace = statistics.median(sum(r["scaled_s"].values()) for r in traced)
    table["round"] = {"untraced_s": plain, "traced_s": with_trace, "pct": 100 * (with_trace - plain) / plain}
    return table


def trace_report(tracer, traced_rounds: int) -> dict:
    """Per command, each layer's count, total and self seconds per traced
    round (set-up: per set-up)."""
    report: dict[str, dict] = {}
    for (command, name), row in sorted(tracer.layer_table().items()):
        rounds = 1 if command == "setup" else traced_rounds
        report.setdefault(command, {})[name] = {
            "count": _per_round(row["count"], rounds),
            "total_s": row["total_s"] / rounds,
            "self_s": row["self_s"] / rounds,
        }
    return report


def print_trace_report(report: dict, overhead_table: dict) -> None:
    err = sys.stderr
    for command, layers in report.items():
        slowdown = overhead_table.get(command)
        print(f"[{command}]" + (f"  tracing overhead {slowdown['pct']:+.1f}%" if slowdown else ""), file=err)
        for name, row in sorted(layers.items(), key=lambda item: (-item[1]["total_s"], item[0])):
            if row["total_s"]:
                print(f"  {name:34s} self {row['self_s']:10.6f} s  total {row['total_s']:10.6f} s  n {row['count']}", file=err)
            else:
                print(f"  {name:34s} n {row['count']}", file=err)
    print(f"round tracing overhead {overhead_table['round']['pct']:+.1f}%", file=err)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "txpar" / "__init__.py").is_file():
        print(f"error: {SRC / 'txpar'} not found; run from a txpar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = OUT / args.workload / f"s{args.seed}-{args.scale}"
    trace_dir = run_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    txpar, paths, setup_s = set_up(args, trace_dir, tracer)
    refs = reference(txpar, paths, args.workload in workloads.CADD_AWARE)
    facts = manifest(args, refs, paths)
    (run_dir / "manifest.json").write_text(json.dumps(facts, indent=2, sort_keys=True) + "\n")
    print("manifest " + json.dumps(facts, sort_keys=True), file=sys.stderr)

    all_pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins = {}
    if args.seed == DEFAULT_SEED and not args.write_pins:
        pins = all_pins.get(args.scale, {}).get(args.workload, {})
    runner = Runner(txpar, args, paths, refs, run_dir, pins)
    untraced, traced = measure(runner, args.seconds, tracer)

    for problem in runner.problems[:20]:
        print("FAILED " + problem, file=sys.stderr)
    if args.write_pins and runner.failed == 0:
        all_pins.setdefault(args.scale, {})[args.workload] = dict(sorted(runner.digests.items()))
        PINS.write_text(json.dumps(all_pins, indent=2, sort_keys=True) + "\n")

    if tracer is None:
        metrics = end_to_end(runner, untraced, setup_s)
        details = {"manifest": facts, "metrics": metrics, "rounds": untraced}
        (run_dir / "e2e.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    else:
        overhead_table = overhead(untraced, traced)
        metrics = per_layer(tracer, len(traced), overhead_table["round"]["pct"])
        report = trace_report(tracer, len(traced))
        details = {
            "manifest": facts,
            "rounds": {"untraced": len(untraced), "traced": len(traced)},
            "overhead": overhead_table,
            "layers": report,
            "metrics": metrics,
        }
        (run_dir / "trace_report.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
        print_trace_report(report, overhead_table)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
