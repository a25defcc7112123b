"""Fuzzing of the input boundaries: trace bytes and CLI configs and chains.

Malformed input must map to a documented exit code, never to a traceback:
`parse_trace` raises only ValidationError, and `cli.main` returns 0, 1 or 2.
`parse_trace` must also agree with the plain parser kept in
`oracles.oracle_parse_trace`: the same workload and meta, or the same error;
`emit_trace` must write the bytes of the plain emitter in
`oracles.oracle_emit_trace`.
The inputs are tiny and the example counts bounded, so these run in seconds.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from txpar import AccessSet, PartitionSpec, StorageKey, Transaction, ValidationError, Workload, emit_trace, parse_trace
from txpar.cli import main
from txpar.transforms import cadd_rewrite, partition_counters
from txpar.workload import VALUE_DEPENDENT

from corpus_util import corpus_workload
from oracles import oracle_emit_trace, oracle_parse_trace

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

scalars = st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-2, 8, allow_nan=False) | st.text(max_size=6)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6
)


def maybe(strategy):
    """Mostly the given strategy, sometimes any JSON value instead."""
    return strategy | json_values


keys = st.sampled_from(["c:s", "c:t", "tok:bal:s0", "no-colon", ":x"])
records = st.fixed_dictionaries(
    {},
    optional={
        "id": maybe(st.integers(-1, 4)),
        "sender": maybe(st.sampled_from(["a", "b", ""])),
        "gas": maybe(st.integers(-1, 30)),
        "reads": maybe(st.lists(maybe(keys), max_size=3)),
        "writes": maybe(st.lists(maybe(keys), max_size=3)),
        "cadds": maybe(st.lists(maybe(st.tuples(maybe(keys), maybe(st.integers(-2, 2))).map(list)), max_size=2)),
    },
)
trace_lines = st.one_of(
    st.binary(max_size=40),
    records.map(lambda r: json.dumps(r).encode()),
    st.sampled_from([b"# txpar-trace v1", b"# meta {", b"", b"#"]),
    json_values.map(lambda v: b"# meta " + json.dumps(v).encode()),
    st.tuples(
        st.sampled_from([b"", b" ", b"\t ", b"\xc2\xa0"]),
        records.map(lambda r: json.dumps(r).encode()),
        st.sampled_from([b"", b" ", b" 5", b"}", b" {}", b"\xc2\xa0"]),
    ).map(b"".join),
)


@FUZZ
@given(st.lists(trace_lines, max_size=6).map(b"\n".join))
@example(b"[" * 100_000)
@example(b'{"sender": "a", "gas": ' + b"1" * 5000 + b"}")
@example(b"# meta " + b"[" * 100_000)
@example(b'{"sender": "a", "gas": 5}\n\xff\xfe')
def test_parse_trace_raises_only_validation_errors(data):
    try:
        parse_trace(data)
    except ValidationError:
        pass


def parse_outcome(parse, data):
    """(workload, meta) on success, else (error type, message, line number)."""
    try:
        workload = parse(data)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return workload, workload.meta


@FUZZ
@given(st.lists(trace_lines, max_size=6).map(b"\n".join))
@example(b'{"sender": "a", "gas": 5, "reads": ["c:s", 1]}\n{"sender": "b", "gas": 5, "reads": ["c:s", "c:s"]}')
@example(b'{"sender": "a", "gas": 5, "reads": ["c:s"], "writes": [["c:s"]], "cadds": [["c:s", 1], ["c:t", 2]]}')
@example(b'{"id": 1, "sender": "a", "gas": 5}\n{"id": 0, "sender": "b", "gas": 6, "cadds": [["c:s", true]]}')
@example(b'{"sender": "a", "gas": 5, "cadds": [["c:s", 1]]}\n{"sender": "a", "gas": 5, "cadds": [["no-colon", 1]]}')
@example(b'{"sender": "a", "gas": true}')
@example(b'{"id": false, "sender": "a", "gas": 3}')
@example(b'{"sender": "a", "gas": 5, "writes": ["c:s"]}\n{"sender": "a", "gas": 5, "reads": ["c:s", ""]}')
@example(b'{"sender":"a","gas":1} 5')
@example(b'{"sender": "a", "gas": 5}\n{')
@example(b'\xc2\xa0{"sender": "a", "gas": 5, "reads": ["c:s"]}\xc2\xa0')
@example(b'\xef\xbb\xbf{"sender": "a", "gas": 5}')
@example(b'{"sender": "a", "gas": 5}\n\xef\xbb\xbf{"sender": "b", "gas": 5}')
@example(b'{"sender": "a", "gas": 5, "reads": ["c:s", "no-colon"], "writes": ["c:s", "no-colon"]}')
@example(b'{"sender": "a", "gas": 5, "reads": ["c:s", 1], "writes": ["c:s", 1]}')
@example(b'{"sender": ' + b"[" * 100_000)
def test_parse_trace_agrees_with_the_plain_parser(data):
    assert parse_outcome(parse_trace, data) == parse_outcome(oracle_parse_trace, data)


def test_parse_trace_agrees_with_the_plain_parser_on_corpus_traces():
    for index in range(20):
        workload = corpus_workload(index)
        counters = {StorageKey.parse(k) for k in workload.meta["bottleneck_keys"]} - {
            StorageKey.parse(k) for k, tag in workload.key_tags.items() if tag == VALUE_DEPENDENT
        }
        for data in (emit_trace(workload), emit_trace(cadd_rewrite(workload, counters))):
            ours, plain = parse_trace(data), oracle_parse_trace(data)
            assert ours == plain and ours.meta == plain.meta


#: Characters whose JSON text differs from their own: a quote, a backslash,
#: control characters, non-ASCII (`\u00e9` sorts above `~`, its escape below),
#: a line separator, an astral character and a lone surrogate.
texts = st.text(st.sampled_from(list('ab~ ":\\\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800')), min_size=1, max_size=4)
storage_keys = st.builds(StorageKey, texts.filter(lambda t: ":" not in t), texts)
deltas = st.integers(-5, 5) | st.integers(-(10**40), 10**40)
emit_rows = st.tuples(
    texts,  # sender
    st.integers(1, 10**30),  # gas
    st.frozensets(storage_keys, max_size=3),  # reads
    st.frozensets(storage_keys, max_size=3),  # writes, unless the tx read-modify-writes
    st.lists(st.tuples(storage_keys, deltas), max_size=3),
    st.sampled_from(["own", "shared", "equal"]),  # writes: its own set, the reads object, an equal copy
)


def _emit_workload(rows, meta) -> Workload:
    txs = []
    for i, (sender, gas, reads, writes, cadds, rmw) in enumerate(rows):
        if rmw != "own":
            writes = reads if rmw == "shared" else frozenset(list(reads))
        txs.append(Transaction(i, sender, gas, AccessSet(reads, writes, cadds)))
    return Workload(transactions=txs, meta=meta)


TILDE_AND_ACUTE = [("s", 5, frozenset({StorageKey("c", "a~"), StorageKey("c", "a\u00e9")}), frozenset(), [], "shared")]


@FUZZ
@given(st.lists(emit_rows, max_size=5), st.dictionaries(texts, texts | deltas, max_size=2))
@example(TILDE_AND_ACUTE, {})
@example(
    [("\u00e9\"", 1, frozenset(), frozenset({StorageKey("\\", "\x00")}), [(StorageKey("a~", "a\u00e9"), -(10**40))], "own")],
    {"~": "\u00e9"},
)
def test_emit_trace_agrees_with_the_plain_emitter(rows, meta):
    w = _emit_workload(rows, meta)
    data = emit_trace(w)
    assert data == oracle_emit_trace(w)
    assert parse_trace(data) == w


def test_emit_sorts_key_texts_before_quoting_them():
    data = emit_trace(_emit_workload(TILDE_AND_ACUTE, {}))
    assert b'"reads":["c:a~","c:a\\u00e9"],"writes":["c:a~","c:a\\u00e9"]' in data


def test_emit_trace_agrees_with_the_plain_emitter_on_corpus_traces_and_transform_chains():
    for index in range(20):
        workload = corpus_workload(index)
        counters = frozenset(StorageKey.parse(k) for k in workload.meta["bottleneck_keys"]) - {
            StorageKey.parse(k) for k, tag in workload.key_tags.items() if tag == VALUE_DEPENDENT
        }
        chains = [workload]
        if counters:
            rewritten = cadd_rewrite(workload, counters)
            chains += [
                rewritten,
                partition_counters(workload, PartitionSpec(counters, 4)),
                partition_counters(rewritten, PartitionSpec(counters, 3, "tx_id")),
            ]
        for w in chains:
            assert emit_trace(w) == oracle_emit_trace(w)


patterns = st.sampled_from(["payments", "token_distribution", "defi_fee", "nft_mint", "mixed", "bogus"])
params = st.dictionaries(
    st.sampled_from(["senders", "traders", "track_total_supply", "gas", "other"]),
    maybe(st.integers(1, 3) | st.lists(st.integers(1, 60000), max_size=3)),
    max_size=3,
)
generators = st.fixed_dictionaries(
    {"pattern": maybe(patterns), "n": maybe(st.integers(-1, 8))},
    optional={
        "count": maybe(st.integers(-1, 2)),
        "seed": maybe(st.integers(0, 3)),
        "params": maybe(params),
        "spec": maybe(st.lists(maybe(st.tuples(maybe(patterns), maybe(params), maybe(st.integers(-1, 3))).map(list)))),
    },
)
steps = st.fixed_dictionaries(
    {"transform": maybe(st.sampled_from(["split_senders", "partition_counters", "cadd_rewrite", "prune_edges"]))},
    optional={
        "hot_sender": maybe(st.sampled_from(["s", "a"])),
        "m": maybe(st.integers(0, 3)),
        "sender_balance_key": maybe(keys),
        "target_keys": maybe(st.sampled_from(["bottleneck"]) | st.lists(keys, max_size=2) | keys),
        "length": maybe(st.integers(0, 3)),
        "routing": maybe(st.sampled_from(["sender", "tx_id", "other"])),
        "p": maybe(st.sampled_from([0, 1, 0.5, "1/2", "8/9", "1/0", "high", "1e400"])),
        "seed": maybe(st.integers(0, 3)),
    },
)
chains = maybe(st.lists(maybe(steps), max_size=3))
configs = st.fixed_dictionaries(
    {},
    optional={
        "input": maybe(
            st.fixed_dictionaries(
                {}, optional={"generator": maybe(generators), "trace": maybe(st.just("<trace>")), "traces": json_values}
            )
        ),
        "threads": maybe(st.lists(maybe(st.integers(0, 4)), max_size=3) | st.sampled_from(["2,4", "a,b", ",", "0"])),
        "seed": maybe(st.integers(0, 3)),
        "trials": maybe(st.integers(0, 4)),
        "mode": maybe(st.sampled_from(["occ-da", "occ-det-commit", "occ-classic", "bogus"])),
        "policy": maybe(st.sampled_from(["minus_one", "dep_graph", "bogus"])),
        "format": maybe(st.sampled_from(["json", "csv", "both", "x"])),
        "cadd_aware": maybe(st.booleans()),
        "out": st.sampled_from(["<out>", 0, [], "bad\0path", True]),
        "transforms": chains,
        "threds": json_values,  # a key no command reads
    },
)


@FUZZ
@given(
    command=st.sampled_from(["analyze", "bound", "simulate", "probe"]),
    config=configs,
    chain=st.none() | chains,
)
def test_cli_configs_and_chains_exit_0_1_or_2(command, config, chain):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trace = tmp / "w.trace"
        assert main(["generate", "--pattern", "defi_fee", "--n", "6", "--traders", "3", "--out", str(trace)]) == 0
        text = json.dumps(config).replace('"<trace>"', json.dumps(str(trace)))
        (tmp / "cfg.json").write_text(text.replace('"<out>"', json.dumps(str(tmp / "cfg-out"))))
        argv = [command, "--config", str(tmp / "cfg.json")]
        if "out" not in config:  # with no out in the config, the flag keeps outputs in the scratch directory
            argv += ["--out", str(tmp / "out")]
        if "input" not in config:
            argv += ["--input", str(trace)]
        if chain is not None:
            (tmp / "chain.json").write_text(json.dumps(chain))
            argv += ["--transforms", str(tmp / "chain.json")]
        assert main(argv) in (0, 1, 2)
