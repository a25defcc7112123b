"""Golden-bytes oracle for CLI outputs that `bench/pinned.json` does not pin.

Each case runs one or more `txpar` invocations on small generated traces
and hashes every file they write. The digests were recorded from the CLI
as it was before its settings, transform steps and per-command pipelines
were merged into one of each; `simulate_classic_hot`, whose `runs.json`
holds thousands of abort triples, was recorded before `report.render_json`
stopped calling `json.dumps`. `analyze_csv_split_cadd`,
`transform_partition` and `transform_split_cadd` were recorded again when
a transform began to put a replaced key's replacements in its place among
the bottleneck keys. Any change to them is a change to the output bytes.
"""

import hashlib
import json

import pytest

from txpar.cli import main

TRACES = {
    "tok": ["--pattern", "token_distribution", "--n", "12", "--senders", "1", "--track-total-supply"] + ["--seed", "5"],
    "tok2": ["--pattern", "token_distribution", "--n", "10", "--senders", "2", "--seed", "4"],
    "fee": ["--pattern", "defi_fee", "--n", "14", "--traders", "14", "--seed", "3"],
    "nft": ["--pattern", "nft_mint", "--n", "10", "--seed", "2"],
    "pay": ["--pattern", "payments", "--n", "16", "--seed", "1"],
    "hot": ["--pattern", "token_distribution", "--n", "160", "--senders", "1", "--track-total-supply"] + ["--seed", "8"],
}

CHAINS = {
    "partition": [
        {"transform": "partition_counters", "target_keys": "bottleneck", "length": 3, "routing": "sender"}
    ],
    "split_cadd": [
        {
            "transform": "split_senders",
            "hot_sender": "seaef3e9b-0",
            "m": 3,
            "sender_balance_key": "tokeaef3e9b:bal:seaef3e9b-0",
        },
        {"transform": "cadd_rewrite", "target_keys": "bottleneck"},
    ],
    "prune": [{"transform": "prune_edges", "target_keys": "bottleneck", "p": "1/2", "seed": 3}],
}

MIXED_GEN = {
    "pattern": "mixed",
    "spec": [
        ["payments", {}, 3],
        ["defi_fee", {"traders": 6}, 1],
        ["token_distribution", {"senders": 1, "gas": [50000, 90000]}, 1],
    ],
    "n": 20,
    "count": 2,
    "seed": 12,
}

CONFIGS = {
    "sim_cfg": {
        "input": {"generator": MIXED_GEN},
        "threads": [2, 4],
        "mode": "occ-det-commit",
        "seed": 3,
        "cadd_aware": True,
        "transforms": [{"transform": "cadd_rewrite", "target_keys": "bottleneck"}],
    },
    "analyze_cfg": {
        "input": {"traces": ["{d}/fee.trace", "{d}/nft.trace"]},
        "threads": "2,8",
        "format": "both",
        "transforms": CHAINS["prune"],
        "seed": 9,
    },
    "bound_cfg": {"input": {"trace": "{d}/tok2.trace"}, "threads": [2], "format": "csv"},
    "probe_cfg": {"input": {"trace": "{d}/tok2.trace"}, "threads": [2, 4], "trials": 4, "seed": 7},
    "da_cfg": {"input": {"trace": "{d}/fee.trace"}, "threads": [2], "policy": "dep_graph", "mode": "occ-classic"},
}

CASES = {
    "bound_timeline_both": [
        ["bound", "--input", "{d}/tok2.trace", "{d}/pay.trace", "--threads", "2,4", "--timeline", "--format", "both"]
    ],
    "analyze_csv_partition": [
        ["analyze", "--input", "{d}/fee.trace", "{d}/nft.trace", "--threads", "2,8", "--format", "csv"]
        + ["--transforms", "{d}/partition.json"]
    ],
    "analyze_csv_split_cadd": [
        ["analyze", "--input", "{d}/tok.trace", "--threads", "2,4", "--format", "csv", "--cadd-aware"]
        + ["--transforms", "{d}/split_cadd.json"]
    ],
    "analyze_csv_prune": [
        ["analyze", "--input", "{d}/fee.trace", "--threads", "2,4", "--format", "csv", "--seed", "4"]
        + ["--transforms", "{d}/prune.json"]
    ],
    "bound_prune_json": [["bound", "--input", "{d}/fee.trace", "--threads", "3", "--transforms", "{d}/prune.json"]],
    "simulate_events_da": [
        ["simulate", "--input", "{d}/tok2.trace", "{d}/fee.trace", "--mode", "occ-da", "--threads", "2,4", "--events"]
    ],
    "simulate_events_da_dep_graph_prune": [
        ["simulate", "--input", "{d}/fee.trace", "--mode", "occ-da", "--policy", "dep_graph", "--threads", "2,4"]
        + ["--events", "--transforms", "{d}/prune.json"]
    ],
    "simulate_events_det_commit": [
        ["simulate", "--input", "{d}/tok2.trace", "--mode", "occ-det-commit", "--threads", "3", "--events"]
        + ["--cadd-aware"]
    ],
    "simulate_events_classic": [
        ["simulate", "--input", "{d}/tok2.trace", "{d}/nft.trace", "--mode", "occ-classic", "--threads", "2,4"]
        + ["--events", "--seed", "11"]
    ],
    "simulate_classic_hot": [["simulate", "--input", "{d}/hot.trace", "--mode", "occ-classic", "--threads", "8,32"]],
    "simulate_config": [["simulate", "--config", "{d}/sim_cfg.json"]],
    "analyze_config": [["analyze", "--config", "{d}/analyze_cfg.json"]],
    "bound_config_flag_beats_config": [
        ["bound", "--config", "{d}/bound_cfg.json", "--threads", "4", "--format", "json"]
    ],
    "probe_config": [["probe", "--config", "{d}/probe_cfg.json"]],
    "simulate_config_classic_ignores_policy": [["simulate", "--config", "{d}/da_cfg.json"]],
    "simulate_gen_inline": [["simulate", "--gen", json.dumps(MIXED_GEN), "--threads", "4", "--policy", "dep_graph"]],
    "transform_split_cadd": [
        ["transform", "--input", "{d}/tok.trace", "--chain", "{d}/split_cadd.json", "--out", "{out}/t.trace"]
    ],
    "transform_partition": [
        ["transform", "--input", "{d}/fee.trace", "--chain", "{d}/partition.json", "--out", "{out}/t.trace"]
    ],
    "histogram_buckets": [
        ["bound", "--input", "{d}/pay.trace", "{d}/tok2.trace", "--threads", "2,8"],
        ["histogram", "--input", "{out}/bound.json", "--buckets", "0,1.5,3,6", "--out", "{out}/hist.csv"],
    ],
}

GOLDEN = {
    "analyze_config": "018e1d6f0330cc23781d60571002e70a08dadafacd9038258dbd7a92f7fb8501",
    "analyze_csv_partition": "7511b0201cfcf56dd3b22cc0ff214f48b6cad5282e262d3a6bbc6eb76c9108dd",
    "analyze_csv_prune": "c8c142e062257506ccde1d35c9ff167c3f0043a72c7e3d816250bfc521c9ab34",
    "analyze_csv_split_cadd": "c377b0f34cbbf5d9558018c11f539a5488d8b0359839fe03b58621469bc4ffe8",
    "bound_config_flag_beats_config": "eeb2e14fd170208f6c7ef41759f7d5811c1c5fb67c882511d7f602311e1aaf8f",
    "bound_prune_json": "2d1d837bb9adb383dc4691c07ac50ed0f56b399ffb435be0e274d3614778dc03",
    "bound_timeline_both": "8c5b08951ca1336e03b8e809f2f7ebf2d4d3b4f32bb67a622ec1dd839eeda97d",
    "histogram_buckets": "f58aa784349d9cca9401913434f9c14aadbec78ecefb5611ef3a2e742b11d2ef",
    "probe_config": "c6658581a987310fb9db6a0c87c65b25b1ecae2f9d8c7418b39ccea4462718fd",
    "simulate_config": "5a304c7714a45004c9fd79d904883ef05a8d658393c1263713427cb4654cf2db",
    "simulate_classic_hot": "d5312c60547a75be8894918996dc3d8f206e84c06913a6bd577b66decf6e367b",
    "simulate_config_classic_ignores_policy": "338936aa58f581e3c49082b0d35c3e1b1905d9c2e4580589e357fbe3a9a4d5f5",
    "simulate_events_classic": "25f6f744670cf94a35cb860e60accf56b71185189e834145e353a4b9ef48ed10",
    "simulate_events_da": "8eb872e86ed25a97c1c8aa0c66e9f3d3c823aa2b08c7270a25077b48b2382137",
    "simulate_events_da_dep_graph_prune": "454020101f22f5263219c7366c4710226ae34e63eed2e9005536854f13f9b226",
    "simulate_events_det_commit": "5d8090e22576332377d2616abc211358ad261ca3dc99a649b122252c4ef64309",
    "simulate_gen_inline": "318b3a619970939231f8468fe9c355be10b6be2ea4e51b26b29284d1e67ef27e",
    "transform_partition": "f46e1848228cf86537acfd9f3c4108f18b189c26dd01a665cf516051d6f9f9fd",
    "transform_split_cadd": "ee5a4ca56b21d9edfeb2ae5c08957af71bfdc30945addd51e78f7ffe8b3c88f6",
}


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, flags in TRACES.items():
        assert main(["generate", *flags, "--out", str(root / f"{name}.trace")]) == 0
    for name, chain in CHAINS.items():
        (root / f"{name}.json").write_text(json.dumps(chain))
    for name, config in CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(config).replace("{d}", str(root)))
    return root


def run_case(name, trace_dir, out):
    """Run a case's invocations; return the sha256 over every file written."""
    for argv in CASES[name]:
        argv = [arg.replace("{d}", str(trace_dir)).replace("{out}", str(out)) for arg in argv]
        if argv[0] not in ("transform", "histogram"):
            argv += ["--out", str(out)]
        assert main(argv) == 0
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_match_golden(name, trace_dir, tmp_path):
    assert run_case(name, trace_dir, tmp_path / "out") == GOLDEN[name]
