"""Command-line front end: workload generation, bound analysis, OCC
simulation, transform pipelines, determinism probes, and histogram export.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 invariant
violation (a determinism probe failing, or a simulated run that does not
replay to the serial state, is a first-class failure).
All outputs are byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import itemgetter
from pathlib import Path

from . import report
from .bound import bound_schedule, speedup
from .errors import InvariantViolation, ValidationError
from .graph import DependencyGraph, build_graph, critical_path, schedule_graph
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
from .storagevm import replay_digest, run_serial
from .transforms import PartitionSpec, cadd_rewrite, partition_counters, probability, prune_edges_probabilistic
from .transforms import split_senders
from .workload import GENERATORS, StorageKey, Workload, emit_trace, gen_mixed, generator_params, parse_trace

MODES = (MODE_DA, MODE_DET_COMMIT, MODE_CLASSIC)
FORMATS = ("json", "csv", "both")
POLICIES = ("minus_one", "dep_graph")
#: An aborted `ExecAttempt`'s (tx_id, attempt, sv) row in `runs.json`.
_ABORT_ROW = itemgetter(0, 1, 2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors, not I/O
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# Settings, inputs, transform steps and the block pipeline
# ---------------------------------------------------------------------------


def _expect(what: str, accepts):
    """A parser of a named field: it returns a value that `accepts` takes and rejects any other."""

    def parse(name: str, value):
        if not accepts(value):
            raise ValidationError(f"{name} must be {what}, got {value!r}")
        return value

    return parse


def _is_strings(value) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


def _refuse_unread(what: str, obj: dict, fields) -> None:
    """Refuse the first field of `obj` that is not in `fields`, the ones that `what` reads."""
    for name, value in obj.items():
        if name not in fields:
            raise ValidationError(f"{what} reads no field {name!r}, got {value!r}")


def _thread_counts(name: str, raw) -> tuple[int, ...]:
    threads = [int(p) if p.strip().isdecimal() else p for p in raw.split(",") if p] if type(raw) is str else raw
    if type(threads) is not list or not threads or any(type(t) is not int or t < 1 for t in threads):
        raise ValidationError(f"{name} must be positive thread counts such as 2,8 or [2, 8], got {raw!r}")
    if len(set(threads)) < len(threads):
        raise ValidationError(f"{name} repeats a thread count: {raw!r}")
    return tuple(threads)


_INT = _expect("an integer", lambda v: type(v) is int)
_STR = _expect("a string", lambda v: type(v) is str)
_BOOL = _expect("true or false", lambda v: type(v) is bool)
_OBJECT = _expect("a JSON object", lambda v: type(v) is dict)
_PATH = _expect("a path", lambda v: type(v) is str and "\0" not in v)
_PATHS = _expect("a list of paths", lambda v: _is_strings(v) and not any("\0" in path for path in v))
_KEYS = _expect("a storage key or a list of them", lambda v: type(v) is str or _is_strings(v))
_POSITIVE = _expect("a positive integer", lambda v: type(v) is int and v > 0)

#: Every setting a flag or a config key can give, with its default and parser. A command resolves those it has
#: a flag for: the flag beats the config, and the config beats the default (a config value of null is absent).
_SETTINGS = {
    "seed": (0, _INT),
    "out": (Path("out"), lambda name, value: Path(_PATH(name, value))),
    "format": ("json", _expect(f"one of {', '.join(FORMATS)}", lambda v: v in FORMATS)),
    "cadd_aware": (False, _BOOL),
    "mode": (MODE_DA, _expect(f"one of {', '.join(MODES)}", lambda v: v in MODES)),
    "policy": ("minus_one", _expect(f"one of {', '.join(POLICIES)}", lambda v: v in POLICIES)),
    "trials": (20, _INT),
    "threads": ((32,), _thread_counts),
}


def _resolve_settings(args) -> None:
    args.flags_given = {name for name in _SETTINGS if getattr(args, name, None) is not None}
    for name, (default, parse) in _SETTINGS.items():
        if not hasattr(args, name):
            continue
        value, source = getattr(args, name), "--" + name.replace("_", "-")
        if value is None:
            value, source = args.config_data.get(name), f"config {name!r}"
        # a command may carry its own default, such as probe's threads
        setattr(args, name, getattr(args, "default_" + name, default) if value is None else parse(source, value))


def _parse_json(text: str | bytes, source: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed JSON, bytes that are not UTF-8, or too deep a nesting
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


#: The generator params `generate` has a flag for: every param the generators take but n, seed and _instance.
_GENERATOR_FLAGS = ("senders", "traders", "track_total_supply", "gas")


def _generator_workloads(spec):
    """Check a generator spec's fields, count and seed; return an iterator over its (label, workload) blocks, each
    generated in its turn. A spec holds only the fields its pattern reads: pattern, n, count, seed, and spec for
    "mixed" or params for any other pattern. The generator checks n and its param values, and gen_mixed a mixed
    spec's entries and weights, when the first block is generated, before any output is written."""
    pattern = _OBJECT("generator spec", spec).get("pattern")
    extra = "spec" if pattern == "mixed" else "params"
    _refuse_unread(f"generator spec of pattern {pattern!r}", spec, ("pattern", "n", "count", "seed", extra))
    count = _POSITIVE("generator 'count'", spec.get("count", 1))
    seed = _INT("generator 'seed'", spec.get("seed", 0))
    if pattern == "mixed":
        if "spec" not in spec:
            raise ValidationError("pattern 'mixed' needs its entries: a 'spec' field, or generate's --mixed-spec FILE")
        generate = functools.partial(gen_mixed, spec["spec"], spec.get("n"))
    else:
        params = generator_params(pattern, spec.get("params"))
        generate = functools.partial(GENERATORS[pattern], spec.get("n"), **params)
    return ((f"{pattern}-s{seed}-{i:04d}", generate(seed=seed + i)) for i in range(count))


def _resolve_workloads(args):
    """Check where the inputs come from; return an iterator over their (label, workload) blocks, each read in turn."""
    if args.gen:
        spec = _parse_json(args.gen, "--gen") if args.gen.lstrip().startswith("{") else _load_json_file(args.gen)
        return _generator_workloads(spec)
    inputs = args.input
    if not inputs:
        config_input = _OBJECT("config 'input'", args.config_data.get("input", {}))
        if len(config_input) > 1 or config_input.keys() - {"trace", "traces", "generator"}:
            sources = "one of 'trace', 'traces' and 'generator'"
            raise ValidationError(f"config 'input' must hold {sources}, got {list(config_input)}")
        if "generator" in config_input:
            return _generator_workloads(config_input["generator"])
        traces = [config_input["trace"]] if "trace" in config_input else config_input.get("traces")
        inputs = _PATHS("config input 'trace'/'traces'", [] if traces is None else traces)
    if not inputs:
        raise ValidationError("no input: pass --input TRACE..., --gen SPEC, or a config with an 'input' field")
    return ((Path(path).stem, _load_trace(path)) for path in inputs)


def _key_set(raw, workload: Workload) -> frozenset[StorageKey]:
    if raw == "bottleneck":
        raw = workload.bottleneck_keys
        if not raw:
            raise ValidationError("workload meta carries no bottleneck_keys to target")
    return frozenset(StorageKey.parse(k) for k in ([raw] if isinstance(raw, str) else raw))


def _partition_counters(workload: Workload, step: dict) -> Workload:
    spec = PartitionSpec(_key_set(step["target_keys"], workload), step["length"], step.get("routing", "sender"))
    return partition_counters(workload, spec)


def _prune_edges(graph: DependencyGraph, workload: Workload, step: dict, args) -> DependencyGraph:
    keys = _key_set(step["target_keys"], workload)
    return prune_edges_probabilistic(graph, workload, keys, step["p"], step.get("seed", args.seed), args.cadd_aware)


#: Each step kind: the parsers of its required fields, and how it rewrites the workload. prune_edges rewrites
#: none: it prunes the dependency graph that `_graph` schedules on, after the chain's workload steps.
_STEPS = {
    "split_senders": (
        {"hot_sender": _STR, "m": _INT, "sender_balance_key": _STR},
        lambda w, step: split_senders(w, step["hot_sender"], step["m"], StorageKey.parse(step["sender_balance_key"])),
    ),
    "partition_counters": ({"target_keys": _KEYS, "length": _INT}, _partition_counters),
    "cadd_rewrite": ({"target_keys": _KEYS}, lambda w, step: cadd_rewrite(w, _key_set(step["target_keys"], w))),
    "prune_edges": ({"target_keys": _KEYS, "p": probability}, None),
}
#: The optional fields of each step kind that has any: a step carries no others but its required ones.
_OPTIONAL_STEP_FIELDS = {"partition_counters": {"routing": _STR}, "prune_edges": {"seed": _INT}}


def _schedules_on_graph(args) -> bool:
    """Whether the command schedules on a dependency graph, the only thing a prune_edges step applies to."""
    return args.command in ("analyze", "bound") or (
        args.command == "simulate" and args.mode == MODE_DA and args.policy == "dep_graph"
    )


def _load_chain(args) -> tuple[list[dict], list[dict]]:
    """Check every step of the chain, and its shape, before any input is read; split it into the workload rewrites
    and the graph prunes that follow them. Steps apply in the order written, so a rewrite after a prune is refused,
    and so is a prune in a command that schedules on no graph."""
    path = getattr(args, "transforms", None)
    chain = _load_json_file(path) if path else args.config_data.get("transforms")
    if type(chain) is not list and chain is not None:
        raise ValidationError(f"transform chain must be a JSON array, got {chain!r}")
    rewrites, prunes = [], []
    for index, step in enumerate(chain or []):
        kind = step.get("transform") if type(step) is dict else None
        if type(kind) is not str or kind not in _STEPS:
            raise ValidationError(f"unknown transform {kind!r}")
        required = _STEPS[kind][0]
        fields = {"transform": _STR, **required, **_OPTIONAL_STEP_FIELDS.get(kind, {})}
        _refuse_unread(f"transform step {kind!r}", step, fields)
        for name, value in step.items():
            fields[name](f"transform step {kind!r} field {name!r}", value)
        for name in required:
            if name not in step:
                raise ValidationError(f"transform step {kind!r} needs a {name!r} field")
        if kind == "prune_edges":
            prunes.append(step)
        elif prunes:
            raise ValidationError(f"transform step {index} ({kind!r}) rewrites the workload after a prune_edges step")
        else:
            rewrites.append(step)
    if prunes and not _schedules_on_graph(args):
        raise ValidationError(
            "prune_edges prunes a dependency graph; only analyze, bound and simulate --mode occ-da --policy dep_graph"
            " schedule on one"
        )
    return rewrites, prunes


def _rewrite(workload: Workload, steps: list[dict]) -> Workload:
    for step in steps:
        workload = _STEPS[step["transform"]][1](workload, step)
    return workload


def _graph(workload: Workload, args) -> tuple[DependencyGraph, int]:
    """The graph to schedule on, with its edge count. A chain that prunes edges needs the full, normative graph;
    otherwise the compact schedule graph gives the same schedules, and the count is the full conflicting pairs."""
    if not args.prunes:
        return schedule_graph(workload, args.cadd_aware)
    graph = build_graph(workload, args.cadd_aware)
    for step in args.prunes:
        graph = _prune_edges(graph, workload, step, args)
    return graph, len(graph.edges)


def _blocks(args):
    """Yield (label, workload) per input, the workload rewritten by the chain's workload steps. Each block is read
    when its turn comes, and the caller drops its block before it asks for the next one, so one block, with the
    tables its workload derives, is held at a time."""
    for label, workload in _resolve_workloads(args):
        yield label, _rewrite(workload, args.rewrites)
        del workload


def _write_table(args, name: str, rows: list, header: list[str], flat: list) -> None:
    """Write `rows` to <name>.json and/or `flat` to <name>.csv, as the format says."""
    if args.format in ("json", "both"):
        report.write_json(args.out / f"{name}.json", rows)
    if args.format in ("csv", "both"):
        report.write_text(args.out / f"{name}.csv", report.render_csv(header, flat))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    # every flag given goes into the spec, whose field check refuses a flag that the pattern does not read
    spec = {"pattern": args.pattern, "n": args.n, "count": args.count, "seed": args.seed}
    params = {name: getattr(args, name) for name in _GENERATOR_FLAGS}
    params = {name: value for name, value in params.items() if value is not None and value is not False}
    if params:
        spec["params"] = params
    if args.mixed_spec is not None:
        spec["spec"] = _load_json_file(args.mixed_spec)
    # one block is written to --out itself, several into it as a directory, each as soon as it is generated
    for label, workload in _generator_workloads(spec):
        path = args.out if args.count == 1 else args.out / f"{label}.trace"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(emit_trace(workload))
        del workload  # before the next block is generated
    print(f"wrote {args.out}" if args.count == 1 else f"wrote {args.count} traces to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    rows = []
    flat = []
    for label, workload in _blocks(args):
        schedule, edges = _graph(workload, args)
        path = critical_path(schedule)
        bounds = {}
        for t in args.threads:
            result = bound_schedule(schedule, t)
            bounds[str(t)] = {"makespan": result.makespan, "speedup": result.speedup}
            flat.append((label, len(workload), result.serial_cost, path.critical_weight, t, result.makespan, result.speedup))
        rows.append(
            {
                "workload": label,
                "n": len(workload),
                "serial": path.total_weight,
                "critical_weight": path.critical_weight,
                "critical_path": list(path.critical_path),
                "edges": edges,
                "bounds": bounds,
            }
        )
        del workload  # before the next block is read
    header = ["workload", "n", "serial", "critical_weight", "threads", "makespan", "speedup"]
    _write_table(args, "analyze", rows, header, flat)
    print(f"analyzed {len(rows)} workload(s) -> {args.out}")
    return 0


def cmd_bound(args) -> int:
    if args.timeline and args.format == "csv":
        raise ValidationError("--timeline writes timelines only to bound.json, and --format csv writes no JSON")
    rows = []
    for label, workload in _blocks(args):
        schedule = _graph(workload, args)[0]
        for t in args.threads:
            result = bound_schedule(schedule, t)
            row = {
                "workload": label,
                "threads": t,
                "makespan": result.makespan,
                "serial": result.serial_cost,
                "speedup": result.speedup,
            }
            if args.timeline:
                lanes = [list(map(list, lane)) for lane in result.per_thread]
                row["timeline"] = lanes + [[]] * (t - len(lanes))  # one shared empty lane per idle thread
            rows.append(row)
        del workload  # before the next block is read
    header = ["workload", "threads", "makespan", "serial", "speedup"]
    _write_table(args, "bound", rows, header, [[row[name] for name in header] for row in rows])
    print(f"bounded {len(rows)} run(s) -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    if "policy" in args.flags_given and args.mode != MODE_DA:  # a config's policy is ignored by other modes
        raise ValidationError(f"--policy is read only by --mode {MODE_DA}, got mode {args.mode}")
    dep_graph = _schedules_on_graph(args)
    rows = []
    events = []
    diverged = []  # the runs whose replay does not end in the serial state
    for label, workload in _blocks(args):
        if not dep_graph:
            policy = SvPolicy.minus_one()
        elif args.prunes:  # the pruned graph's edges are normative
            policy = SvPolicy.from_graph(_graph(workload, args)[0])
        else:
            policy = SvPolicy.from_workload(workload, args.cadd_aware)
        for t in args.threads:
            if args.mode == MODE_DA:
                result = run_occ_da(workload, t, policy, args.cadd_aware)
            elif args.mode == MODE_DET_COMMIT:
                result = run_occ_det_commit(workload, t, args.cadd_aware)
            else:
                result = run_occ_classic(workload, t, interleaving_seed=args.seed)
            row = {
                "workload": label,
                "mode": result.mode,
                "threads": t,
                "policy": result.policy,
                "serial": result.serial_cost,
                "makespan": result.makespan,
                "speedup": result.speedup,
                "wasted_gas": result.wasted_gas,
                "aborts": list(map(_ABORT_ROW, result.aborted())),
                "committed_order": list(result.committed_order),
                "digest": replay_digest(workload, result),
            }
            # classic's replay re-runs its commit order, which need not be the block's serial order
            if args.mode != MODE_CLASSIC and row["digest"] != run_serial(workload):
                diverged.append(f"{label} at {t} threads")
            if args.mode == MODE_DA:
                baseline = run_occ_det_commit(workload, t, args.cadd_aware)
                row["identical_to_det_commit"] = (
                    result.makespan == baseline.makespan and result.abort_pattern() == baseline.abort_pattern()
                )
            rows.append(row)
            if args.events:
                for a in result.attempts:
                    events.append((label, result.mode, t, a.tx_id, a.attempt, a.sv, a.start, a.end, a.outcome))
        del workload  # before the next block is read
    report.write_json(args.out / "runs.json", rows)
    agg_rows = []
    for t in args.threads:
        runs = [row for row in rows if row["threads"] == t]
        speedups = [row["speedup"] for row in runs]
        serial, makespan = (sum(row[key] for row in runs) for key in ("serial", "makespan"))
        identical = sum(row["identical_to_det_commit"] for row in runs) / len(runs) if args.mode == MODE_DA else ""
        agg_rows.append(
            {
                "mode": args.mode,
                "threads": t,
                "workloads": len(runs),
                "mean_speedup": report.mean(speedups),
                "overall_speedup": speedup(serial, makespan),
                "min_speedup": min(speedups),
                "max_speedup": max(speedups),
                "total_aborts": sum(len(row["aborts"]) for row in runs),
                "total_wasted_gas": sum(row["wasted_gas"] for row in runs),
                "fraction_identical_to_det_commit": identical,
            }
        )
    csv_text = report.render_csv(list(agg_rows[0]), [list(row.values()) for row in agg_rows])
    report.write_text(args.out / "aggregate.csv", csv_text)
    if args.events:
        header = ["workload", "mode", "threads", "tx", "attempt", "sv", "start", "end", "outcome"]
        report.write_text(args.out / "events.csv", report.render_csv(header, events))
    print(f"simulated {len(rows)} run(s) -> {args.out}")
    if diverged:
        raise InvariantViolation(f"{len(diverged)} run(s) do not replay to the serial digest: {', '.join(diverged)}")
    return 0


def cmd_transform(args) -> int:
    workload = _rewrite(_load_trace(args.input), args.rewrites)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_bytes(emit_trace(workload))
    print(f"wrote {args.out}")
    return 0


def cmd_probe(args) -> int:
    rows = []
    for label, workload in _blocks(args):
        for t in args.threads:
            probe = determinism_probe(workload, t, trials=args.trials, seed=args.seed, cadd_aware=args.cadd_aware)
            row = {"workload": label, **vars(probe)}
            del row["da_patterns"], row["det_commit_patterns"]  # the raw patterns stay out of probe.json
            rows.append(row)
        del workload  # before the next block is read
    violations = sum(not row["da_deterministic"] for row in rows)
    report.write_json(args.out / "probe.json", {"runs": rows, "da_violations": violations})
    print(f"probed {len(rows)} run(s) -> {args.out}; deterministic-abort violations: {violations}")
    if violations:
        raise InvariantViolation(f"{violations} probe run(s) observed timing-dependent abort patterns")
    return 0


def cmd_histogram(args) -> int:
    edges = report.DEFAULT_SPEEDUP_EDGES
    if args.buckets:
        try:
            edges = tuple(float(x) for x in args.buckets.split(","))
            report.speedup_histogram((), edges)  # checks the edges before any input is read
        except ValueError as exc:
            raise ValidationError(f"--buckets must be sorted finite numbers, got {args.buckets!r}") from exc
    series: dict[str, list[float]] = {}
    for path in args.input:
        rows = _load_json_file(path)
        if not isinstance(rows, list):
            raise ValidationError(f"{path}: expected a JSON array of result rows")
        for row in rows:
            speedup = row.get("speedup") if type(row) is dict else None
            # JSON admits NaN and Infinity, and a float from an int may overflow
            if type(speedup) not in (int, float) or not -sys.float_info.max <= speedup <= sys.float_info.max:
                raise ValidationError(f"{path}: rows need a finite numeric 'speedup' field, got {speedup!r}")
            key = f"{Path(path).stem}/t{row.get('threads', '?')}"
            series.setdefault(key, []).append(float(speedup))
    if not series:
        raise ValidationError("no result rows to bucket")
    names = sorted(series)
    histograms = {name: report.speedup_histogram(series[name], edges) for name in names}
    buckets = enumerate(histograms[names[0]])
    out_rows = [[lo, hi] + [histograms[name][idx][2] for name in names] for idx, (lo, hi, _) in buckets]
    report.write_text(args.out, report.render_csv(["bucket_lo", "bucket_hi"] + names, out_rows))
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_input_flags(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--input", nargs="+", help="trace file(s)")
    source.add_argument("--gen", help="generator spec: JSON file or inline JSON")
    sub.add_argument("--config", help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--cadd-aware", dest="cadd_aware", action="store_const", const=True, default=None)
    sub.add_argument("--transforms", help="transform chain JSON file")
    sub.add_argument("--threads", default=None, help="comma-separated thread counts")


@functools.cache  # built once per process: parsing arguments does not change it
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
    gen.set_defaults(func=cmd_generate)

    analyze = subs.add_parser("analyze", help="dependency graph, critical path, speedup bounds")
    _add_input_flags(analyze)
    analyze.add_argument("--format", choices=FORMATS, default=None)
    analyze.set_defaults(func=cmd_analyze)

    bound = subs.add_parser("bound", help="abort-free schedule per workload and thread count")
    _add_input_flags(bound)
    bound.add_argument("--format", choices=FORMATS, default=None)
    bound.add_argument("--timeline", action="store_true", help="include per-thread timelines in JSON")
    bound.set_defaults(func=cmd_bound)

    simulate = subs.add_parser("simulate", help="run an OCC scheduler over the workloads")
    _add_input_flags(simulate)
    simulate.add_argument("--mode", choices=MODES, default=None)
    simulate.add_argument("--policy", choices=POLICIES, default=None)
    simulate.add_argument("--events", action="store_true", help="also write a per-attempt event log CSV")
    simulate.set_defaults(func=cmd_simulate)

    transform = subs.add_parser("transform", help="rewrite a trace through a transform chain")
    transform.add_argument("--input", required=True)
    transform.add_argument(
        "--chain", dest="transforms", metavar="CHAIN", required=True, help="JSON array of transform steps"
    )
    transform.add_argument("--out", required=True)
    transform.set_defaults(func=cmd_transform)

    probe = subs.add_parser("probe", help="check abort determinism under randomized timing")
    _add_input_flags(probe)
    probe.add_argument("--trials", type=int, default=None)
    probe.set_defaults(func=cmd_probe, default_threads=(8,))

    histogram = subs.add_parser("histogram", help="bucket speedups from result JSON files")
    histogram.add_argument("--input", nargs="+", required=True)
    histogram.add_argument("--buckets", help="comma-separated bucket edges")
    histogram.add_argument("--out", required=True)
    histogram.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = getattr(args, "config", None)
        args.config_data = _OBJECT(config, _load_json_file(config)) if config else {}
        _resolve_settings(args)
        args.rewrites, args.prunes = _load_chain(args)
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
