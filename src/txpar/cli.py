"""Command-line front end: workload generation, bound analysis, OCC
simulation, transform pipelines, determinism probes, and histogram export.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 invariant
violation (a determinism probe failing is a first-class failure).
All outputs are byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import report
from .bound import bound_schedule
from .errors import InvariantViolation, ValidationError
from .graph import DependencyGraph, build_graph, critical_path
from .occsim import (
    MODE_CLASSIC,
    MODE_DA,
    MODE_DET_COMMIT,
    SvPolicy,
    determinism_probe,
    run_occ_classic,
    run_occ_da,
    run_occ_det_commit,
)
from .transforms import PartitionSpec, cadd_rewrite, partition_counters, prune_edges_probabilistic, split_senders
from .workload import GENERATORS, StorageKey, Workload, emit_trace, gen_mixed, parse_trace

MODES = (MODE_DA, MODE_DET_COMMIT, MODE_CLASSIC, "bound")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors, not I/O
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------


def _parse_json(text: str | bytes, source: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ValidationError(f"{source}: not valid JSON: {exc}") from None


def _load_json_file(path: str):
    with open(path, "rb") as handle:
        return _parse_json(handle.read(), path)


def _load_trace(path: str) -> Workload:
    with open(path, "rb") as handle:
        try:
            return parse_trace(handle)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _generator_workloads(spec: dict) -> list[tuple[str, Workload]]:
    if "pattern" not in spec:
        raise ValidationError("generator spec needs a 'pattern' field")
    pattern = spec["pattern"]
    n = int(spec.get("n", 0))
    count = int(spec.get("count", 1))
    seed = int(spec.get("seed", 0))
    if count < 1:
        raise ValidationError(f"generator count must be >= 1, got {count}")
    out = []
    for i in range(count):
        label = f"{pattern}-s{seed}-{i:04d}"
        if pattern == "mixed":
            mix = [(entry[0], entry[1], entry[2]) for entry in spec.get("spec", [])]
            w = gen_mixed(mix, n, seed=seed + i)
        elif pattern in GENERATORS:
            params = dict(spec.get("params", {}))
            if isinstance(params.get("gas"), list):
                params["gas"] = tuple(params["gas"])
            w = GENERATORS[pattern](n, seed=seed + i, **params)
        else:
            raise ValidationError(f"unknown pattern {pattern!r}")
        out.append((label, w))
    return out


def _resolve_workloads(args) -> list[tuple[str, Workload]]:
    config = getattr(args, "config_data", {})
    inputs = list(getattr(args, "input", None) or [])
    gen_spec = getattr(args, "gen", None)
    if not inputs and not gen_spec:
        cfg_input = config.get("input", {})
        if "trace" in cfg_input:
            inputs = [cfg_input["trace"]]
        elif "traces" in cfg_input:
            inputs = list(cfg_input["traces"])
        elif "generator" in cfg_input:
            return _generator_workloads(cfg_input["generator"])
    if gen_spec:
        spec = _parse_json(gen_spec, "--gen") if gen_spec.lstrip().startswith("{") else _load_json_file(gen_spec)
        return _generator_workloads(spec)
    if not inputs:
        raise ValidationError("no input: pass --input TRACE..., --gen SPEC, or a config with an 'input' field")
    return [(Path(path).stem, _load_trace(path)) for path in inputs]


def _parse_key_set(raw, workload: Workload) -> frozenset[StorageKey]:
    if raw == "bottleneck":
        keys = workload.meta.get("bottleneck_keys", [])
        if not keys:
            raise ValidationError("workload meta carries no bottleneck_keys to target")
        return frozenset(StorageKey.parse(k) for k in keys)
    if isinstance(raw, str):
        raw = [raw]
    return frozenset(StorageKey.parse(k) for k in raw)


#: The fields each transform step must carry.
_STEP_FIELDS = {
    "split_senders": ("hot_sender", "m", "sender_balance_key"),
    "partition_counters": ("target_keys", "length"),
    "cadd_rewrite": ("target_keys",),
    "prune_edges": ("target_keys", "p"),
}


def _split_chain(chain: list[dict]) -> tuple[list[dict], list[dict]]:
    """Validate every step up front. Workload rewrites apply in order; edge
    pruning applies when graphs are built."""
    workload_steps, prune_steps = [], []
    for step in chain:
        kind = step.get("transform") if isinstance(step, dict) else None
        if kind not in _STEP_FIELDS:
            raise ValidationError(f"unknown transform {kind!r}")
        for name in _STEP_FIELDS[kind]:
            if name not in step:
                raise ValidationError(f"transform step {kind!r} needs a {name!r} field")
        (prune_steps if kind == "prune_edges" else workload_steps).append(step)
    return workload_steps, prune_steps


def _apply_workload_transforms(workload: Workload, steps: list[dict]) -> Workload:
    for step in steps:
        kind = step["transform"]
        if kind == "split_senders":
            workload = split_senders(
                workload,
                hot_sender=step["hot_sender"],
                m=int(step["m"]),
                sender_balance_key=StorageKey.parse(step["sender_balance_key"]),
            )
        elif kind == "partition_counters":
            spec = PartitionSpec(
                target_keys=_parse_key_set(step["target_keys"], workload),
                length=int(step["length"]),
                routing=step.get("routing", "sender"),
            )
            workload = partition_counters(workload, spec)
        else:
            workload = cadd_rewrite(workload, _parse_key_set(step["target_keys"], workload))
    return workload


def _apply_prunes(graph: DependencyGraph, workload: Workload, steps: list[dict], seed: int) -> DependencyGraph:
    for step in steps:
        graph = prune_edges_probabilistic(
            graph,
            _parse_key_set(step["target_keys"], workload),
            step["p"],
            seed=int(step.get("seed", seed)),
        )
    return graph


def _transform_chain(args) -> tuple[list[dict], list[dict]]:
    chain = []
    if getattr(args, "transforms", None):
        chain = _load_json_file(args.transforms)
    elif args.config_data.get("transforms"):
        chain = args.config_data["transforms"]
    if not isinstance(chain, list):
        raise ValidationError("transform chain must be a JSON array")
    return _split_chain(chain)


def _threads_list(args, default=(32,)) -> tuple[int, ...]:
    raw = getattr(args, "threads", None)
    if raw is None:
        raw = args.config_data.get("threads", list(default))
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part]
    threads = tuple(int(t) for t in raw)
    if not threads or any(t < 1 for t in threads):
        raise ValidationError(f"thread counts must be positive, got {raw!r}")
    return threads


def _setting(args, name, default):
    value = getattr(args, name, None)
    if value is None:
        value = args.config_data.get(name, default)
    return value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = {
        "pattern": args.pattern,
        "n": args.n,
        "count": args.count,
        "seed": args.seed or 0,
    }
    if args.pattern == "mixed":
        if not args.mixed_spec:
            raise ValidationError("--pattern mixed needs --mixed-spec FILE")
        spec["spec"] = _load_json_file(args.mixed_spec)
    else:
        params = {}
        if args.senders is not None:
            params["senders"] = args.senders
        if args.traders is not None:
            params["traders"] = args.traders
        if args.track_total_supply:
            params["track_total_supply"] = True
        if args.gas is not None:
            params["gas"] = args.gas
        spec["params"] = params
    workloads = _generator_workloads(spec)
    out = Path(args.out)
    if len(workloads) == 1:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(emit_trace(workloads[0][1]))
        print(f"wrote {out}")
    else:
        out.mkdir(parents=True, exist_ok=True)
        for label, workload in workloads:
            (out / f"{label}.trace").write_bytes(emit_trace(workload))
        print(f"wrote {len(workloads)} traces to {out}")
    return 0


def cmd_analyze(args) -> int:
    workload_steps, prune_steps = _transform_chain(args)
    threads = _threads_list(args)
    cadd_aware = bool(_setting(args, "cadd_aware", False))
    seed = int(_setting(args, "seed", 0) or 0)
    rows = []
    flat = []
    for label, workload in _resolve_workloads(args):
        workload = _apply_workload_transforms(workload, workload_steps)
        graph = build_graph(workload, cadd_aware)
        graph = _apply_prunes(graph, workload, prune_steps, seed)
        path = critical_path(graph)
        bounds = {}
        for t in threads:
            result = bound_schedule(graph, t)
            bounds[str(t)] = {"makespan": result.makespan, "speedup": result.speedup}
            flat.append((label, len(workload), result.serial_cost, path.critical_weight, t, result.makespan, result.speedup))
        rows.append(
            {
                "workload": label,
                "n": len(workload),
                "serial": path.total_weight,
                "critical_weight": path.critical_weight,
                "critical_path": list(path.critical_path),
                "edges": len(graph.edges),
                "bounds": bounds,
            }
        )
    out_dir = Path(_setting(args, "out", "out"))
    fmt = _setting(args, "format", "json")
    if fmt in ("json", "both"):
        report.write_json(out_dir / "analyze.json", rows)
    if fmt in ("csv", "both"):
        csv_text = report.render_csv(
            ["workload", "n", "serial", "critical_weight", "threads", "makespan", "speedup"], flat
        )
        report.write_text(out_dir / "analyze.csv", csv_text)
    print(f"analyzed {len(rows)} workload(s) -> {out_dir}")
    return 0


def cmd_bound(args) -> int:
    workload_steps, prune_steps = _transform_chain(args)
    threads = _threads_list(args)
    cadd_aware = bool(_setting(args, "cadd_aware", False))
    seed = int(_setting(args, "seed", 0) or 0)
    rows = []
    for label, workload in _resolve_workloads(args):
        workload = _apply_workload_transforms(workload, workload_steps)
        graph = build_graph(workload, cadd_aware)
        graph = _apply_prunes(graph, workload, prune_steps, seed)
        for t in threads:
            result = bound_schedule(graph, t)
            row = {
                "workload": label,
                "threads": t,
                "makespan": result.makespan,
                "serial": result.serial_cost,
                "speedup": result.speedup,
            }
            if args.timeline:
                row["timeline"] = [list(map(list, lane)) for lane in result.per_thread]
            rows.append(row)
    out_dir = Path(_setting(args, "out", "out"))
    fmt = _setting(args, "format", "json")
    if fmt in ("json", "both"):
        report.write_json(out_dir / "bound.json", rows)
    if fmt in ("csv", "both"):
        flat = [(r["workload"], r["threads"], r["makespan"], r["serial"], r["speedup"]) for r in rows]
        report.write_text(
            out_dir / "bound.csv",
            report.render_csv(["workload", "threads", "makespan", "serial", "speedup"], flat),
        )
    print(f"bounded {len(rows)} run(s) -> {out_dir}")
    return 0


def cmd_simulate(args) -> int:
    workload_steps, prune_steps = _transform_chain(args)
    threads = _threads_list(args)
    cadd_aware = bool(_setting(args, "cadd_aware", False))
    seed = int(_setting(args, "seed", 0) or 0)
    mode = _setting(args, "mode", MODE_DA)
    policy_name = _setting(args, "policy", "minus_one")
    if mode not in (MODE_DA, MODE_DET_COMMIT, MODE_CLASSIC):
        raise ValidationError(f"unknown mode {mode!r}")

    rows = []
    events = []
    per_thread_stats: dict[int, dict] = {
        t: {"serial": 0, "makespan": 0, "speedups": [], "aborts": 0, "wasted": 0, "identical": 0, "runs": 0}
        for t in threads
    }
    workloads = _resolve_workloads(args)
    for label, workload in workloads:
        workload = _apply_workload_transforms(workload, workload_steps)
        policy = SvPolicy.minus_one()
        if mode == MODE_DA and policy_name == "dep_graph":
            if prune_steps:  # a pruned graph is normative: its edges set the table
                graph = _apply_prunes(build_graph(workload, cadd_aware), workload, prune_steps, seed)
                policy = SvPolicy.from_graph(graph)
            else:
                policy = SvPolicy.from_workload(workload, cadd_aware)
        for t in threads:
            if mode == MODE_DA:
                result = run_occ_da(workload, t, policy, cadd_aware)
            elif mode == MODE_DET_COMMIT:
                result = run_occ_det_commit(workload, t, cadd_aware)
            else:
                result = run_occ_classic(workload, t, interleaving_seed=seed)
            row = {
                "workload": label,
                "mode": result.mode,
                "threads": t,
                "policy": result.policy,
                "serial": result.serial_cost,
                "makespan": result.makespan,
                "speedup": result.speedup,
                "wasted_gas": result.wasted_gas,
                "aborts": [[a.tx_id, a.attempt, a.sv] for a in result.aborted()],
                "committed_order": list(result.committed_order),
                "digest": result.digest,
            }
            stats = per_thread_stats[t]
            stats["serial"] += result.serial_cost
            stats["makespan"] += result.makespan
            stats["speedups"].append(result.speedup)
            stats["aborts"] += len(result.aborted())
            stats["wasted"] += result.wasted_gas
            stats["runs"] += 1
            if mode == MODE_DA:
                baseline = run_occ_det_commit(workload, t, cadd_aware, with_digest=False)
                row["identical_to_det_commit"] = (
                    result.makespan == baseline.makespan and result.abort_pattern() == baseline.abort_pattern()
                )
                stats["identical"] += int(row["identical_to_det_commit"])
            rows.append(row)
            if args.events:
                for a in result.attempts:
                    events.append((label, result.mode, t, a.tx_id, a.attempt, a.sv, a.start, a.end, a.outcome))

    out_dir = Path(_setting(args, "out", "out"))
    report.write_json(out_dir / "runs.json", rows)
    agg_rows = []
    for t in threads:
        stats = per_thread_stats[t]
        agg_rows.append(
            (
                mode,
                t,
                stats["runs"],
                report.mean(stats["speedups"]),
                report.overall_speedup(stats["serial"], stats["makespan"]),
                min(stats["speedups"]),
                max(stats["speedups"]),
                stats["aborts"],
                stats["wasted"],
                (stats["identical"] / stats["runs"]) if mode == MODE_DA else "",
            )
        )
    header = [
        "mode",
        "threads",
        "workloads",
        "mean_speedup",
        "overall_speedup",
        "min_speedup",
        "max_speedup",
        "total_aborts",
        "total_wasted_gas",
        "fraction_identical_to_det_commit",
    ]
    report.write_text(out_dir / "aggregate.csv", report.render_csv(header, agg_rows))
    if args.events:
        report.write_text(
            out_dir / "events.csv",
            report.render_csv(
                ["workload", "mode", "threads", "tx", "attempt", "sv", "start", "end", "outcome"], events
            ),
        )
    print(f"simulated {len(rows)} run(s) -> {out_dir}")
    return 0


def cmd_transform(args) -> int:
    workload = _load_trace(args.input)
    chain = _load_json_file(args.chain)
    workload_steps, prune_steps = _split_chain(chain)
    if prune_steps:
        raise ValidationError("prune_edges rewrites graphs, not traces; use it with analyze/bound/simulate")
    workload = _apply_workload_transforms(workload, workload_steps)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(emit_trace(workload))
    print(f"wrote {out}")
    return 0


def cmd_probe(args) -> int:
    threads = _threads_list(args, default=(8,))
    cadd_aware = bool(_setting(args, "cadd_aware", False))
    seed = int(_setting(args, "seed", 0) or 0)
    trials = int(_setting(args, "trials", 20))
    rows = []
    violations = 0
    for label, workload in _resolve_workloads(args):
        for t in threads:
            probe = determinism_probe(workload, t, trials=trials, seed=seed, cadd_aware=cadd_aware)
            rows.append(
                {
                    "workload": label,
                    "threads": t,
                    "trials": probe.trials,
                    "da_deterministic": probe.da_deterministic,
                    "da_distinct_patterns": probe.da_distinct_patterns,
                    "da_makespan_min": probe.da_makespan_min,
                    "da_makespan_max": probe.da_makespan_max,
                    "det_commit_deterministic": probe.det_commit_deterministic,
                    "det_commit_distinct_patterns": probe.det_commit_distinct_patterns,
                }
            )
            if not probe.da_deterministic:
                violations += 1
    out_dir = Path(_setting(args, "out", "out"))
    payload = {"runs": rows, "da_violations": violations}
    report.write_json(out_dir / "probe.json", payload)
    print(f"probed {len(rows)} run(s) -> {out_dir}; deterministic-abort violations: {violations}")
    if violations:
        raise InvariantViolation(f"{violations} probe run(s) observed timing-dependent abort patterns")
    return 0


def cmd_histogram(args) -> int:
    edges = report.DEFAULT_SPEEDUP_EDGES
    if args.buckets:
        edges = tuple(float(x) for x in args.buckets.split(","))
    series: dict[str, list[float]] = {}
    for path in args.input:
        rows = _load_json_file(path)
        if not isinstance(rows, list):
            raise ValidationError(f"{path}: expected a JSON array of result rows")
        for row in rows:
            if "speedup" not in row:
                raise ValidationError(f"{path}: rows need a 'speedup' field")
            key = f"{Path(path).stem}/t{row.get('threads', '?')}"
            series.setdefault(key, []).append(float(row["speedup"]))
    if not series:
        raise ValidationError("no result rows to bucket")
    names = sorted(series)
    histograms = {name: report.speedup_histogram(series[name], edges) for name in names}
    bounds = [(lo, hi) for lo, hi, _ in histograms[names[0]]]
    out_rows = []
    for idx, (lo, hi) in enumerate(bounds):
        out_rows.append([lo, hi] + [histograms[name][idx][2] for name in names])
    out = Path(args.out)
    report.write_text(out, report.render_csv(["bucket_lo", "bucket_hi"] + names, out_rows))
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_input_flags(sub):
    sub.add_argument("--input", nargs="+", help="trace file(s)")
    sub.add_argument("--gen", help="generator spec: JSON file or inline JSON")
    sub.add_argument("--config", help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", choices=["json", "csv", "both"], default=None)
    sub.add_argument("--cadd-aware", dest="cadd_aware", action="store_const", const=True, default=None)
    sub.add_argument("--transforms", help="transform chain JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="txpar", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="emit synthetic workload traces")
    gen.add_argument("--pattern", required=True, choices=sorted(GENERATORS) + ["mixed"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=int, default=1, help="number of workloads (seeds seed..seed+count-1)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--senders", type=int, default=None)
    gen.add_argument("--traders", type=int, default=None)
    gen.add_argument("--track-total-supply", action="store_true")
    gen.add_argument("--gas", type=int, default=None)
    gen.add_argument("--mixed-spec", help="JSON file with [[pattern, params, weight], ...]")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate, config_data={})

    analyze = subs.add_parser("analyze", help="dependency graph, critical path, speedup bounds")
    _add_input_flags(analyze)
    analyze.add_argument("--threads", default=None, help="comma-separated thread counts")
    analyze.set_defaults(func=cmd_analyze)

    bound = subs.add_parser("bound", help="abort-free schedule per workload and thread count")
    _add_input_flags(bound)
    bound.add_argument("--threads", default=None)
    bound.add_argument("--timeline", action="store_true", help="include per-thread timelines in JSON")
    bound.set_defaults(func=cmd_bound)

    simulate = subs.add_parser("simulate", help="run an OCC scheduler over the workloads")
    _add_input_flags(simulate)
    simulate.add_argument("--threads", default=None)
    simulate.add_argument("--mode", choices=[MODE_DA, MODE_DET_COMMIT, MODE_CLASSIC], default=None)
    simulate.add_argument("--policy", choices=["minus_one", "dep_graph"], default=None)
    simulate.add_argument("--events", action="store_true", help="also write a per-attempt event log CSV")
    simulate.set_defaults(func=cmd_simulate)

    transform = subs.add_parser("transform", help="rewrite a trace through a transform chain")
    transform.add_argument("--input", required=True)
    transform.add_argument("--chain", required=True, help="JSON array of transform steps")
    transform.add_argument("--out", required=True)
    transform.set_defaults(func=cmd_transform, config_data={})

    probe = subs.add_parser("probe", help="check abort determinism under randomized timing")
    _add_input_flags(probe)
    probe.add_argument("--threads", default=None)
    probe.add_argument("--trials", type=int, default=None)
    probe.set_defaults(func=cmd_probe)

    histogram = subs.add_parser("histogram", help="bucket speedups from result JSON files")
    histogram.add_argument("--input", nargs="+", required=True)
    histogram.add_argument("--buckets", help="comma-separated bucket edges")
    histogram.add_argument("--out", required=True)
    histogram.set_defaults(func=cmd_histogram, config_data={})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args.config_data = _load_json_file(args.config)
        elif not hasattr(args, "config_data"):
            args.config_data = {}
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
