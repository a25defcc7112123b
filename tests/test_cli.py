"""CLI behavior: subcommands, output determinism, and exit codes."""

import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from txpar import SvPolicy, StorageKey, build_graph, parse_trace, prune_edges_probabilistic, replay_digest, run_occ_da
from txpar import cli
from txpar.cli import main
from txpar.workload import GENERATORS


def run(argv):
    return main(argv)


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "txpar", "--help"], env=env, capture_output=True, text=True, timeout=60, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: txpar")


def test_generate_single_trace(tmp_path):
    out = tmp_path / "w.trace"
    assert run(["generate", "--pattern", "payments", "--n", "10", "--seed", "3", "--out", str(out)]) == 0
    w = parse_trace(out.read_bytes())
    assert len(w) == 10
    assert w.meta["pattern"] == "payments"


def test_generate_many_traces(tmp_path):
    out = tmp_path / "corpus"
    assert (
        run(
            [
                "generate",
                "--pattern",
                "defi_fee",
                "--n",
                "6",
                "--traders",
                "3",
                "--count",
                "4",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    traces = sorted(out.glob("*.trace"))
    assert len(traces) == 4
    assert all(len(parse_trace(p.read_bytes())) == 6 for p in traces)


def test_analyze_outputs_and_determinism(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "token_distribution", "--n", "12", "--senders", "1", "--seed", "5", "--out", str(trace)])
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert (
            run(
                [
                    "analyze",
                    "--input",
                    str(trace),
                    "--threads",
                    "2,8",
                    "--format",
                    "both",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert (out1 / "analyze.json").read_bytes() == (out2 / "analyze.json").read_bytes()
    assert (out1 / "analyze.csv").read_bytes() == (out2 / "analyze.csv").read_bytes()
    rows = json.loads((out1 / "analyze.json").read_text())
    assert rows[0]["critical_path"] == list(range(12))  # single-sender chain
    assert rows[0]["bounds"]["2"]["speedup"] == pytest.approx(1.0)


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "12", "--traders", "2", "--seed", "4", "--out", str(trace)])
    analyze = ["analyze", "--input", str(trace), "--threads", "2,8", "--format", "both", "--out"]
    simulate = ["simulate", "--input", str(trace), "--mode", "occ-da", "--threads", "4", "--events", "--out"]

    def outputs(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert cli.build_parser() is cli.build_parser()
    assert run(analyze + [str(tmp_path / "a1")]) == 0
    assert run(simulate + [str(tmp_path / "s1")]) == 0
    assert run(["simulate", "--input", str(trace), "--mode", "bogus"]) == 1
    assert run(analyze + [str(tmp_path / "a2")]) == 0
    cli.build_parser.cache_clear()  # the next call builds a fresh parser
    assert run(analyze + [str(tmp_path / "fresh")]) == 0
    assert outputs(tmp_path / "a2") == outputs(tmp_path / "fresh") == outputs(tmp_path / "a1")
    assert outputs(tmp_path / "s1")


def test_bound_json(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "payments", "--n", "8", "--seed", "2", "--out", str(trace)])
    out = tmp_path / "res"
    assert run(["bound", "--input", str(trace), "--threads", "4", "--out", str(out)]) == 0
    rows = json.loads((out / "bound.json").read_text())
    assert rows[0]["threads"] == 4
    assert rows[0]["speedup"] == pytest.approx(4.0)


def test_bound_timeline_lists_every_thread_idle_ones_too(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "payments", "--n", "3", "--gas", "5", "--out", str(trace)])
    assert run(["bound", "--input", str(trace), "--threads", "5", "--timeline", "--out", str(tmp_path / "o")]) == 0
    [row] = json.loads((tmp_path / "o" / "bound.json").read_text())
    assert row["timeline"] == [[[0, 0, 5]], [[1, 0, 5]], [[2, 0, 5]], [], []]


def test_simulate_occ_da_reports_identical_fraction(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "token_distribution", "--n", "10", "--senders", "2", "--seed", "4", "--out", str(trace)])
    out = tmp_path / "sim"
    assert (
        run(
            [
                "simulate",
                "--input",
                str(trace),
                "--mode",
                "occ-da",
                "--threads",
                "2,4",
                "--events",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = json.loads((out / "runs.json").read_text())
    assert {row["threads"] for row in rows} == {2, 4}
    assert all("identical_to_det_commit" in row for row in rows)
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("mode,threads,workloads,mean_speedup,overall_speedup")
    assert len(agg) == 3
    # aggregates are recomputable from the per-run rows
    header = agg[0].split(",")
    for line in agg[1:]:
        cells = dict(zip(header, line.split(",")))
        t = int(cells["threads"])
        runs = [r for r in rows if r["threads"] == t]
        speedups = [r["speedup"] for r in runs]
        # cells carry 6 decimals; the full-precision invariant is min<=mean<=max
        assert min(speedups) - 1e-6 <= float(cells["mean_speedup"]) <= max(speedups) + 1e-6
        assert float(cells["mean_speedup"]) == pytest.approx(sum(speedups) / len(speedups), abs=1e-6)
        overall = sum(r["serial"] for r in runs) / sum(r["makespan"] for r in runs)
        assert float(cells["overall_speedup"]) == pytest.approx(overall, abs=1e-6)
        assert float(cells["min_speedup"]) == pytest.approx(min(speedups), abs=1e-6)
        assert float(cells["max_speedup"]) == pytest.approx(max(speedups), abs=1e-6)
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "workload,mode,threads,tx,attempt,sv,start,end,outcome"
    assert len(events) > 1


def test_simulate_classic_and_det_commit(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "payments", "--n", "6", "--seed", "8", "--out", str(trace)])
    for mode in ("occ-classic", "occ-det-commit"):
        out = tmp_path / mode
        assert run(["simulate", "--input", str(trace), "--mode", mode, "--threads", "2", "--out", str(out)]) == 0
        rows = json.loads((out / "runs.json").read_text())
        assert rows[0]["mode"] == mode
        assert rows[0]["aborts"] == []


def test_transform_chain_rewrites_trace(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "8", "--traders", "8", "--seed", "6", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "cadd_rewrite", "target_keys": "bottleneck"}]))
    out = tmp_path / "rewritten.trace"
    assert run(["transform", "--input", str(trace), "--chain", str(chain), "--out", str(out)]) == 0
    w = parse_trace(out.read_bytes())
    assert build_graph(w, cadd_aware=True).edges == frozenset()
    assert build_graph(w, cadd_aware=False).edges != frozenset()


def test_transform_rejects_prune(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "payments", "--n", "4", "--seed", "0", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "prune_edges", "target_keys": [], "p": 1}]))
    assert run(["transform", "--input", str(trace), "--chain", str(chain), "--out", str(tmp_path / "x.trace")]) == 1


def test_analyze_with_prune_step(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "10", "--traders", "10", "--seed", "9", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "prune_edges", "target_keys": "bottleneck", "p": 1, "seed": 1}]))
    out = tmp_path / "res"
    assert run(["analyze", "--input", str(trace), "--transforms", str(chain), "--threads", "4", "--out", str(out)]) == 0
    rows = json.loads((out / "analyze.json").read_text())
    assert rows[0]["edges"] == 0


def test_probe_command(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "token_distribution", "--n", "12", "--senders", "3", "--seed", "2", "--out", str(trace)])
    out = tmp_path / "probe"
    assert run(["probe", "--input", str(trace), "--threads", "4", "--trials", "8", "--out", str(out)]) == 0
    payload = json.loads((out / "probe.json").read_text())
    assert payload["da_violations"] == 0
    assert payload["runs"][0]["da_deterministic"] is True


def test_probe_invariant_violation_exits_3(tmp_path, monkeypatch):
    import txpar.cli as cli_module
    from txpar.occsim import ProbeReport

    def fake_probe(workload, threads, policy=None, trials=20, seed=0, cadd_aware=False):
        return ProbeReport(
            trials=trials,
            threads=threads,
            da_deterministic=False,
            da_distinct_patterns=2,
            da_makespan_min=0,
            da_makespan_max=0,
            det_commit_deterministic=False,
            det_commit_distinct_patterns=2,
            da_patterns=(),
            det_commit_patterns=(),
        )

    monkeypatch.setattr(cli_module, "determinism_probe", fake_probe)
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "payments", "--n", "4", "--seed", "0", "--out", str(trace)])
    assert run(["probe", "--input", str(trace), "--threads", "2", "--trials", "4", "--out", str(tmp_path / "p")]) == 3


def test_histogram_command(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "payments", "--n", "16", "--seed", "1", "--out", str(trace)])
    res = tmp_path / "res"
    run(["bound", "--input", str(trace), "--threads", "2,8", "--out", str(res)])
    out = tmp_path / "hist.csv"
    assert run(["histogram", "--input", str(res / "bound.json"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bucket_lo,bucket_hi,bound/t2,bound/t8"
    # 16 independent payments: speedup 2 on 2 threads, 8 on 8 threads
    assert any(line.startswith("2.000000,4.000000,1,0") for line in lines)
    assert any(line.startswith("8.000000,16.000000,0,1") for line in lines)


def test_missing_input_file_exits_2(tmp_path):
    assert run(["analyze", "--input", str(tmp_path / "nope.trace"), "--out", str(tmp_path / "o")]) == 2


def test_bad_flags_exit_1(tmp_path):
    assert run(["simulate", "--mode", "warp-drive", "--out", str(tmp_path / "o")]) == 1
    assert run(["analyze", "--out", str(tmp_path / "o")]) == 1  # no input at all


def test_config_file_drives_simulation(tmp_path):
    config = {
        "input": {
            "generator": {
                "pattern": "mixed",
                "spec": [["payments", {}, 3], ["defi_fee", {"traders": 50}, 1]],
                "n": 24,
                "count": 2,
                "seed": 12,
            }
        },
        "threads": [4],
        "mode": "occ-da",
        "seed": 12,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out1 / "runs.json").read_bytes() == (out2 / "runs.json").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    rows = json.loads((out1 / "runs.json").read_text())
    assert len(rows) == 2  # two generated workloads, one thread count


def test_simulate_dep_graph_without_prune_step_builds_no_graph(tmp_path, monkeypatch):
    import txpar.cli as cli_module

    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "16", "--traders", "4", "--seed", "3", "--out", str(trace)])
    argv = ["simulate", "--input", str(trace), "--policy", "dep_graph", "--threads", "2,8", "--out"]
    assert run(argv + [str(tmp_path / "plain")]) == 0

    def no_graph(*args, **kwargs):
        raise AssertionError("simulate --policy dep_graph built a graph")

    monkeypatch.setattr(cli_module, "schedule_graph", no_graph)
    monkeypatch.setattr(cli_module, "build_graph", no_graph)
    assert run(argv + [str(tmp_path / "patched")]) == 0
    assert (tmp_path / "patched" / "runs.json").read_bytes() == (tmp_path / "plain" / "runs.json").read_bytes()


def test_simulate_dep_graph_with_prune_step_uses_the_pruned_graph(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "16", "--traders", "16", "--seed", "3", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "prune_edges", "target_keys": "bottleneck", "p": "1/2", "seed": 5}]))
    out = tmp_path / "sim"
    argv = ["simulate", "--input", str(trace), "--policy", "dep_graph", "--transforms", str(chain)]
    assert run(argv + ["--threads", "2,8", "--out", str(out)]) == 0
    rows = json.loads((out / "runs.json").read_text())

    w = parse_trace(trace.read_bytes())
    full = build_graph(w)
    pruned = prune_edges_probabilistic(full, w, {StorageKey.parse(k) for k in w.meta["bottleneck_keys"]}, 0.5, seed=5)
    assert 0 < len(pruned.edges) < len(full.edges)
    policy = SvPolicy.from_graph(pruned)
    assert policy != SvPolicy.from_workload(w)
    for row in rows:
        expected = run_occ_da(w, row["threads"], policy)
        assert row["policy"] == "dep_graph"
        assert row["aborts"] == [[a.tx_id, a.attempt, a.sv] for a in expected.aborted()]
        assert (row["makespan"], row["digest"]) == (expected.makespan, replay_digest(w, expected))


def test_non_utf8_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(b'{"sender":"a","gas":5,"reads":[],"writes":[],"cadds":[]}\n\xff\xfe\n')
    assert run(["analyze", "--input", str(trace), "--out", str(tmp_path / "o")]) == 1
    assert "bad.trace: line 2: not valid UTF-8" in capsys.readouterr().err


def test_transform_step_missing_field_exits_1(tmp_path, capsys):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "token_distribution", "--n", "6", "--senders", "1", "--seed", "0", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "split_senders", "m": 2, "sender_balance_key": "tok:bal:s0"}]))
    assert run(["transform", "--input", str(trace), "--chain", str(chain), "--out", str(tmp_path / "x.trace")]) == 1
    assert "'split_senders' needs a 'hot_sender' field" in capsys.readouterr().err


CADD_REWRITE = {"transform": "cadd_rewrite", "target_keys": "bottleneck"}
PARTITION = {"transform": "partition_counters", "target_keys": "bottleneck", "length": 2}
#: The defi_fee trace's bottleneck key: its fee account.
FEE_KEY = "dex38132760:feeBalance"
PARTITION_FEE = {**PARTITION, "target_keys": FEE_KEY}
_BAD_BOTTLENECK = "meta 'bottleneck_keys' must be a storage key or a list of them"

#: (meta field, its malformed value, command, chain step, text the error must contain) for a trace whose meta
#: line carries that value.
BAD_META = {
    "key_tags_cadd_rewrite": ("key_tags", [1], "transform", CADD_REWRITE, "meta 'key_tags' must be a JSON"),
    "key_tags_partition": ("key_tags", [1], "analyze", PARTITION, "meta 'key_tags' must be a JSON"),
    "transforms_not_array": ("transforms", 5, "transform", CADD_REWRITE, "meta 'transforms' must be a JSON"),
    "bottleneck_keys_cadd_rewrite": ("bottleneck_keys", 5, "transform", CADD_REWRITE, _BAD_BOTTLENECK),
    "bottleneck_keys_partition": ("bottleneck_keys", [FEE_KEY, 3], "analyze", PARTITION, _BAD_BOTTLENECK),
    # a renaming step reads the field to rename in it, even when its targets are given
    "bottleneck_keys_partition_fee": ("bottleneck_keys", {FEE_KEY: 1}, "transform", PARTITION_FEE, _BAD_BOTTLENECK),
}
for _name, _tag in {"bool": True, "float": 2.5, "string": "x", "list": [1], "null": None}.items():
    BAD_META[f"key_tag_{_name}_cadd_rewrite"] = ("key_tags", {FEE_KEY: _tag}, "transform", CADD_REWRITE, repr(FEE_KEY))
    BAD_META[f"key_tag_{_name}_partition"] = ("key_tags", {FEE_KEY: _tag}, "analyze", PARTITION, repr(FEE_KEY))


@pytest.mark.parametrize("case", sorted(BAD_META))
def test_malformed_meta_field_exits_1_and_names_it(case, tmp_path, capsys):
    field, value, command, step, message = BAD_META[case]
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "8", "--traders", "8", "--seed", "6", "--out", str(trace)])
    lines = trace.read_text().splitlines(keepends=True)
    (at,) = [i for i, line in enumerate(lines) if line.startswith("# meta ")]
    meta = json.loads(lines[at][len("# meta ") :])
    assert FEE_KEY in meta["bottleneck_keys"]
    meta[field] = value
    lines[at] = "# meta " + json.dumps(meta) + "\n"
    trace.write_text("".join(lines))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([step]))
    flag = "--chain" if command == "transform" else "--transforms"
    argv = [command, "--input", str(trace), flag, str(chain), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(argv) == 1
    assert message in capsys.readouterr().err


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threads": [4],')
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"{cfg}: not valid JSON" in capsys.readouterr().err
    assert run(["simulate", "--gen", '{"pattern": ', "--out", str(tmp_path / "o")]) == 1
    cfg.write_bytes(b'{"threads": [4], "mode": "\xff"}')
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


SPLIT_M_ABC = {"transform": "split_senders", "hot_sender": "s", "m": "abc", "sender_balance_key": "tok:bal:s"}
PRUNE_P_HIGH = {"transform": "prune_edges", "target_keys": "bottleneck", "p": "high"}
PRUNE_P_TRUE = {**PRUNE_P_HIGH, "p": True}  # Fraction(True) is 1
MIXED = {"pattern": "mixed", "n": 4}
MIX = [["payments", {}, 1]]
PAYMENTS = {"pattern": "payments", "n": 4}
CADD = {"transform": "cadd_rewrite", "target_keys": "bottleneck"}
PARTITION = {"transform": "partition_counters", "target_keys": "bottleneck", "length": 2}

#: (argv, JSON payload, text the error must contain). In argv, "{trace}" is a
#: small trace, "{json}" a file holding the payload and "{rows}" a bound.json.
BAD_INPUTS = {
    "chain_m": (["analyze", "--input", "{trace}", "--transforms", "{json}"], [SPLIT_M_ABC], "'m' must be an integer"),
    "chain_p": (["bound", "--input", "{trace}", "--transforms", "{json}"], [PRUNE_P_HIGH], "'p' must be a number"),
    "chain_p_bool": (["bound", "--input", "{trace}", "--transforms", "{json}"], [PRUNE_P_TRUE], "'p' must be a number"),
    "gen_n": (["analyze", "--gen", "{json}"], {"pattern": "payments", "n": "x"}, "n must be an integer"),
    "gen_param": (["simulate", "--gen", "{json}"], {"pattern": "payments", "n": 4, "params": {"to": 2}}, "param 'to'"),
    "gen_pattern_unknown": (["analyze", "--gen", "{json}"], {"pattern": "bogus", "n": 4}, "unknown pattern 'bogus'"),
    "gen_pattern_missing": (["analyze", "--gen", "{json}"], {"n": 4}, "unknown pattern None"),
    "gen_pattern_list": (["simulate", "--gen", "{json}"], {"pattern": ["x"], "n": 4}, "unknown pattern ['x']"),
    "gen_gas": (["simulate", "--gen", "{json}"], {"pattern": "payments", "n": 4, "params": {"gas": "x"}}, "gas must be"),
    "gen_mixed_weight": (["analyze", "--gen", "{json}"], {**MIXED, "spec": [["payments", {}, "x"]]}, "weight must be"),
    "gen_mixed_spec": (["analyze", "--gen", "{json}"], {**MIXED, "spec": 5}, "mixed spec must be"),
    "gen_count_typo": (["analyze", "--gen", "{json}"], {**PAYMENTS, "cout": 3}, "no field 'cout'"),
    "gen_mixed_params": (["analyze", "--gen", "{json}"], {**MIXED, "spec": MIX, "params": {}}, "no field 'params'"),
    "gen_payments_spec": (["simulate", "--gen", "{json}"], {**PAYMENTS, "spec": MIX}, "no field 'spec'"),
    "gen_mixed_without_spec": (["analyze", "--gen", "{json}"], MIXED, "a 'spec' field"),
    "generate_mixed_without_spec": (["generate", "--pattern", "mixed", "--n", "4"], None, "--mixed-spec"),
    "generate_mixed_senders": (
        ["generate", "--pattern", "mixed", "--n", "4", "--senders", "3"],
        None,
        "'mixed' reads no field 'params', got {'senders': 3}",
    ),
    "generate_payments_mixed_spec": (
        ["generate", "--pattern", "payments", "--n", "4", "--mixed-spec", "{json}"],
        MIX,
        "'payments' reads no field 'spec'",
    ),
    "chain_foreign_routing": (
        ["analyze", "--input", "{trace}", "--transforms", "{json}"],
        [{**CADD, "routing": "sender"}],
        "'cadd_rewrite' reads no field 'routing'",
    ),
    "chain_foreign_seed": (
        ["bound", "--input", "{trace}", "--transforms", "{json}"],
        [{**CADD, "seed": 1}],
        "'cadd_rewrite' reads no field 'seed'",
    ),
    "chain_bottleneck_payments": (
        ["analyze", "--input", "{trace}", "--transforms", "{json}"],
        [CADD],
        "carries no bottleneck_keys to target",
    ),
    "chain_not_an_array": (
        ["analyze", "--input", "{trace}", "--transforms", "{json}"],
        CADD,
        "transform chain must be a JSON array",
    ),
    "chain_rooting": (
        ["analyze", "--input", "{trace}", "--transforms", "{json}"],
        [{**PARTITION, "rooting": "tx_id"}],
        "'partition_counters' reads no field 'rooting', got 'tx_id'",
    ),
    "input_and_gen": (["analyze", "--input", "{trace}", "--gen", "{json}"], {**MIXED, "spec": MIX}, "--gen: not allowed"),
    "config_input_two_sources": (
        ["simulate", "--config", "{json}"],
        {"input": {"trace": "w.trace", "generator": {**MIXED, "spec": MIX}}},
        "one of 'trace', 'traces' and 'generator', got ['trace', 'generator']",
    ),
    "config_input_typo": (
        ["analyze", "--config", "{json}"],
        {"input": {"trace": "w.trace", "generater": {**MIXED, "spec": MIX}}},
        "config 'input' reads no field 'generater'",
    ),
    "config_key_typo": (  # refused before the input, which does not exist, is read
        ["analyze", "--input", "missing.trace", "--config", "{json}"],
        {"threds": [2]},
        "payload.json reads no field 'threds', got [2]",
    ),
    "simulate_threads_8_8": (["simulate", "--input", "{trace}", "--threads", "8,8"], None, "--threads repeats"),
    "analyze_threads_8_8": (
        ["analyze", "--input", "{trace}", "--format", "both", "--config", "{json}"],
        {"threads": [8, 8]},
        "config 'threads' repeats",
    ),
    "threads_flag": (["analyze", "--input", "{trace}", "--threads", "a,b"], None, "--threads must be"),
    "buckets_flag": (["histogram", "--input", "{rows}", "--buckets", "x"], None, "--buckets must be"),
    "buckets_nan": (["histogram", "--input", "{rows}", "--buckets", "nan,1"], None, "--buckets must be"),
    "buckets_inf": (["histogram", "--input", "{rows}", "--buckets=-inf,0"], None, "--buckets must be"),
    "histogram_object": (["histogram", "--input", "{json}"], {"speedup": 1.5}, "payload.json: expected a JSON array"),
    "histogram_no_rows": (["histogram", "--input", "{json}"], [], "no result rows to bucket"),
    "config_seed": (["simulate", "--input", "{trace}", "--config", "{json}"], {"seed": "x"}, "config 'seed' must be"),
    "config_input": (["analyze", "--config", "{json}"], {"input": 0}, "config 'input' must be"),
    "config_threads": (["bound", "--input", "{trace}", "--config", "{json}"], {"threads": 1.5}, "config 'threads'"),
    "config_format": (["analyze", "--input", "{trace}", "--config", "{json}"], {"format": "x"}, "config 'format'"),
    "config_policy": (["simulate", "--input", "{trace}", "--config", "{json}"], {"policy": "bogus"}, "config 'policy'"),
    "config_cadd_aware": (["probe", "--input", "{trace}", "--config", "{json}"], {"cadd_aware": "no"}, "'cadd_aware'"),
    "policy_classic": (
        ["simulate", "--input", "{trace}", "--mode", "occ-classic", "--policy", "minus_one"],
        None,
        "--policy is read only by --mode occ-da, got mode occ-classic",
    ),
    "policy_det_commit": (
        ["simulate", "--input", "{trace}", "--config", "{json}", "--policy", "dep_graph"],
        {"mode": "occ-det-commit"},
        "--policy is read only by --mode occ-da, got mode occ-det-commit",
    ),
    "timeline_csv": (["bound", "--input", "{trace}", "--timeline", "--format", "csv"], None, "only to bound.json"),
    "timeline_config_csv": (
        ["bound", "--input", "{trace}", "--timeline", "--config", "{json}"],
        {"format": "csv"},
        "only to bound.json",
    ),
    "simulate_format": (["simulate", "--input", "{trace}", "--format", "csv"], None, "unrecognized arguments: --format csv"),
    "probe_format": (["probe", "--input", "{trace}", "--format", "csv"], None, "unrecognized arguments: --format csv"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_and_names_its_field(case, tmp_path, capsys):
    argv, payload, expected = BAD_INPUTS[case]
    files = {"trace": tmp_path / "w.trace", "json": tmp_path / "payload.json", "rows": tmp_path / "bound.json"}
    run(["generate", "--pattern", "payments", "--n", "4", "--seed", "0", "--out", str(files["trace"])])
    files["json"].write_text(json.dumps(payload))
    files["rows"].write_text(json.dumps([{"threads": 2, "speedup": 1.5}]))
    argv = [str(files[arg[1:-1]]) if arg[1:-1] in files else arg for arg in argv]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_out_of_range_p_is_refused_before_any_input_is_read(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{**PRUNE_P_HIGH, "p": 2}]))
    argv = ["analyze", "--input", str(tmp_path / "missing.trace"), "--transforms", str(chain)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "'p' must be in [0, 1], got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
def test_a_null_gas_means_the_patterns_default(mixed, tmp_path):
    def runs_json(params, out):
        spec = {"pattern": "mixed", "spec": [["nft_mint", params, 1]]} if mixed else {"pattern": "defi_fee", "params": params}
        assert run(["simulate", "--gen", json.dumps({**spec, "n": 6, "seed": 2}), "--threads", "2", "--out", str(out)]) == 0
        return (out / "runs.json").read_bytes()

    assert runs_json({"gas": None}, tmp_path / "a") == runs_json({}, tmp_path / "b")


def test_generate_has_a_flag_for_every_generator_param():
    params = {name for make in GENERATORS.values() for name in inspect.signature(make).parameters}
    assert set(cli._GENERATOR_FLAGS) == params - {"n", "seed", "_instance"}


@pytest.mark.parametrize(
    "speedup", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400], ids=["nan", "inf", "minus_inf", "1e999", "big_int"]
)
def test_histogram_refuses_a_non_finite_speedup(speedup, tmp_path, capsys):
    rows = tmp_path / "bound.json"
    rows.write_text(f'[{{"threads": 2, "speedup": {speedup}}}, {{"threads": 2, "speedup": 3.0}}]')
    out = tmp_path / "hist.csv"
    assert run(["histogram", "--input", str(rows), "--out", str(out)]) == 1
    assert f"{rows}: rows need a finite numeric 'speedup' field" in capsys.readouterr().err
    assert not out.exists()


def _probe_json(argv, out):
    argv = ["probe", *argv, "--cadd-aware", "--threads", "2,4", "--trials", "4", "--seed", "3"]
    assert run(argv + ["--out", str(out)]) == 0
    return (out / "probe.json").read_bytes()


def test_probe_applies_the_transform_chain(tmp_path):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "12", "--traders", "12", "--seed", "6", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "cadd_rewrite", "target_keys": "bottleneck"}]))
    rewritten = tmp_path / "rewritten" / "w.trace"  # the same stem, so the same workload label
    assert run(["transform", "--input", str(trace), "--chain", str(chain), "--out", str(rewritten)]) == 0

    with_chain = _probe_json(["--input", str(trace), "--transforms", str(chain)], tmp_path / "a")
    assert with_chain == _probe_json(["--input", str(rewritten)], tmp_path / "b")
    assert with_chain != _probe_json(["--input", str(trace)], tmp_path / "c")  # the chain has an effect
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": {"trace": str(trace)}, "transforms": json.loads(chain.read_text())}))
    assert with_chain == _probe_json(["--config", str(config)], tmp_path / "d")


NO_GRAPH = [["probe"], ["simulate"], ["simulate", "--mode", "occ-det-commit"]]


@pytest.mark.parametrize("argv", NO_GRAPH + [["simulate", "--policy", "dep_graph", "--mode", "occ-classic"]])
def test_prune_steps_need_a_command_that_uses_a_graph(argv, tmp_path, capsys):
    trace = tmp_path / "w.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "6", "--traders", "6", "--seed", "1", "--out", str(trace)])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "prune_edges", "target_keys": "bottleneck", "p": 1}]))
    capsys.readouterr()
    assert run(argv + ["--input", str(trace), "--transforms", str(chain), "--out", str(tmp_path / "o")]) == 1
    assert "prune_edges" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--threads", "2,8", "--format", "both"],
        ["bound", "--threads", "2", "--transforms", "{chain}"],
        ["simulate", "--mode", "occ-da", "--policy", "dep_graph", "--threads", "2,4", "--events"],
        ["simulate", "--mode", "occ-classic", "--threads", "2", "--transforms", "{chain}"],
        ["probe", "--threads", "2", "--trials", "2"],
    ],
)
def test_a_run_over_several_inputs_holds_one_parsed_block_at_a_time(argv, tmp_path, monkeypatch):
    traces = []
    for seed in range(3):
        traces.append(str(tmp_path / f"fee{seed}.trace"))
        run(["generate", "--pattern", "defi_fee", "--n", "12", "--traders", "3", "--seed", str(seed), "--out", traces[-1]])
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"transform": "cadd_rewrite", "target_keys": "bottleneck"}]))
    parsed = []
    load_trace = cli._load_trace

    def load_one(path):
        assert not [ref for ref in parsed if ref() is not None], "an earlier block is still held"
        workload = load_trace(path)
        parsed.append(weakref.ref(workload))
        return workload

    monkeypatch.setattr(cli, "_load_trace", load_one)
    argv = [str(chain) if arg == "{chain}" else arg for arg in argv]
    assert run([*argv, "--input", *traces, "--out", str(tmp_path / "out")]) == 0
    assert len(parsed) == 3


def test_a_chain_applies_in_the_order_written(tmp_path, capsys):
    trace = tmp_path / "fee.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "12", "--traders", "12", "--seed", "3", "--out", str(trace)])
    prune = {"transform": "prune_edges", "target_keys": "bottleneck", "p": 1, "seed": 1}
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([PARTITION, prune]))
    argv = ["analyze", "--input", str(trace), "--transforms", str(chain), "--threads", "2,4"]
    assert run(argv + ["--out", str(tmp_path / "ok")]) == 0
    report = (tmp_path / "ok" / "analyze.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == "ff5027e5aa446681d9ce0e0b86179257b7800055d7746d8829a8db9e09db1f45"
    # the prune targets the fee key's sub-counters, the bottleneck keys as the partition left them
    assert json.loads(report)[0]["edges"] == 0

    # a workload step after a prune is refused before any input is read
    chain.write_text(json.dumps([prune, PARTITION]))
    argv = ["analyze", "--input", str(tmp_path / "missing.trace"), "--transforms", str(chain)]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "transform step 1 ('partition_counters')" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _below_the_floor(result):
    """`result` with the last tx's committed storage version moved to -1, below the floor of a tx that reads a key
    its predecessor wrote."""
    last = len(result.committed_order) - 1
    attempts = [a._replace(sv=-1) if a.tx_id == last and a.outcome == "committed" else a for a in result.attempts]
    return dataclasses.replace(result, attempts=tuple(attempts))


@pytest.mark.parametrize("mode, engine", [("occ-da", "run_occ_da"), ("occ-det-commit", "run_occ_det_commit")])
def test_simulate_exits_3_when_a_run_misses_the_serial_digest(mode, engine, tmp_path, monkeypatch, capsys):
    trace = tmp_path / "fee.trace"
    run(["generate", "--pattern", "defi_fee", "--n", "6", "--traders", "6", "--seed", "1", "--out", str(trace)])
    argv = ["simulate", "--input", str(trace), "--mode", mode, "--threads", "2,4"]
    assert run(argv + ["--out", str(tmp_path / "ok")]) == 0
    real = getattr(cli, engine)
    monkeypatch.setattr(cli, engine, lambda workload, threads, *rest: _below_the_floor(real(workload, threads, *rest)))
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "bad")]) == 3
    assert "2 run(s) do not replay to the serial digest: fee at 2 threads, fee at 4 threads" in capsys.readouterr().err
    ok, bad = (json.loads((tmp_path / out / "runs.json").read_text()) for out in ("ok", "bad"))
    assert [row["digest"] for row in ok] != [row["digest"] for row in bad]  # the outputs are written all the same
    assert (tmp_path / "bad" / "aggregate.csv").exists()


def test_generate_holds_one_block_at_a_time(tmp_path, monkeypatch):
    made = []
    make = GENERATORS["payments"]

    def make_one(*args, **kwargs):
        assert not [ref for ref in made if ref() is not None], "an earlier block is still held"
        workload = make(*args, **kwargs)
        made.append(weakref.ref(workload))
        return workload

    monkeypatch.setitem(GENERATORS, "payments", make_one)
    out = tmp_path / "out"
    assert run(["generate", "--pattern", "payments", "--n", "8", "--count", "3", "--out", str(out)]) == 0
    assert len(made) == len(list(out.glob("*.trace"))) == 3
