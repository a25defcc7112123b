"""Trace format and synthetic generator tests."""

import inspect
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpar import (
    AccessSet,
    StorageKey,
    TraceParseError,
    Transaction,
    ValidationError,
    Workload,
    build_graph,
    critical_path,
    emit_trace,
    gen_defi_fee,
    gen_mixed,
    gen_nft_mint,
    gen_payments,
    gen_token_distribution,
    parse_trace,
)
from txpar.transforms import cadd_rewrite
from txpar.workload import VALUE_DEPENDENT

from corpus_util import corpus_workload
from oracles import assert_built_like_public, oracle_edges


def test_parse_empty_stream():
    w = parse_trace(b"")
    assert len(w) == 0


def test_parse_single_record():
    line = b'{"id":0,"sender":"a","gas":21000,"reads":[],"writes":[],"cadds":[]}'
    w = parse_trace(line)
    assert len(w) == 1
    assert w[0].sender == "a"
    assert w[0].gas == 21000
    assert w[0].access == AccessSet()


def test_parse_three_lines_conflict_edge():
    # tx 1 writes K, tx 2 reads K: the only conflict is the pair (2, 1).
    text = "\n".join(
        [
            '{"sender":"a","gas":10,"reads":[],"writes":["c:x"],"cadds":[]}',
            '{"sender":"b","gas":10,"reads":[],"writes":["c:K"],"cadds":[]}',
            '{"sender":"c","gas":10,"reads":["c:K"],"writes":[],"cadds":[]}',
        ]
    )
    w = parse_trace(text)
    assert oracle_edges(w) == {(2, 1)}
    assert build_graph(w).edges == frozenset({(2, 1)})


def test_parse_comments_and_blank_lines():
    text = "# header\n\n# note\n" + '{"sender":"a","gas":5,"reads":[],"writes":[],"cadds":[]}\n'
    assert len(parse_trace(text)) == 1


def test_parse_malformed_line_names_line_number():
    text = '{"sender":"a","gas":5,"reads":[],"writes":[],"cadds":[]}\nnot json\n'
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace(text)


def test_parse_bad_key_format_names_line_number():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace('{"sender":"a","gas":5,"reads":["noslot"],"writes":[],"cadds":[]}')


_RECORD = {"sender": "a", "gas": 5}


@pytest.mark.parametrize(
    "record, message",
    [
        ([_RECORD], "line 1: record must be a JSON object"),
        ({**_RECORD, "reads": "c:s"}, "line 1: reads must be an array"),
        ({**_RECORD, "writes": {"c:s": 1}}, "line 1: writes must be an array"),
        ({**_RECORD, "cadds": {"c:s": 1}}, "line 1: cadds must be an array"),
        ({**_RECORD, "cadds": [["c:s"]]}, r"line 1: cadds entries must be \[key, delta\] pairs"),
    ],
    ids=["array", "reads_string", "writes_object", "cadds_object", "cadd_pair_of_one"],
)
def test_parse_names_a_record_or_access_field_of_the_wrong_shape(record, message):
    with pytest.raises(TraceParseError, match=message):
        parse_trace(json.dumps(record))


def test_parse_duplicate_id_rejected():
    text = (
        '{"id":0,"sender":"a","gas":5,"reads":[],"writes":[],"cadds":[]}\n'
        '{"id":0,"sender":"b","gas":5,"reads":[],"writes":[],"cadds":[]}'
    )
    with pytest.raises(ValidationError, match="duplicate id"):
        parse_trace(text)


def test_parse_gas_below_one_rejected():
    with pytest.raises(ValidationError, match="gas"):
        parse_trace('{"sender":"a","gas":0,"reads":[],"writes":[],"cadds":[]}')


def test_parse_noncontiguous_ids_rejected():
    text = (
        '{"id":0,"sender":"a","gas":5,"reads":[],"writes":[],"cadds":[]}\n'
        '{"id":2,"sender":"b","gas":5,"reads":[],"writes":[],"cadds":[]}'
    )
    with pytest.raises(ValidationError, match="contiguous"):
        parse_trace(text)


def test_parse_mixed_id_presence_rejected():
    text = (
        '{"id":0,"sender":"a","gas":5,"reads":[],"writes":[],"cadds":[]}\n'
        '{"sender":"b","gas":5,"reads":[],"writes":[],"cadds":[]}'
    )
    with pytest.raises(ValidationError, match="every record"):
        parse_trace(text)


def test_parse_ids_define_block_order():
    # Records shuffled on disk; declared ids win, then get renumbered from 0.
    text = (
        '{"id":7,"sender":"late","gas":5,"reads":[],"writes":[],"cadds":[]}\n'
        '{"id":5,"sender":"first","gas":5,"reads":[],"writes":[],"cadds":[]}\n'
        '{"id":6,"sender":"mid","gas":5,"reads":[],"writes":[],"cadds":[]}'
    )
    w = parse_trace(text)
    assert [tx.sender for tx in w] == ["first", "mid", "late"]
    assert [tx.id for tx in w] == [0, 1, 2]


def test_emit_empty_workload_header_only():
    data = emit_trace(Workload())
    assert data.decode().startswith("# txpar-trace v1")
    assert len(parse_trace(data)) == 0


def test_round_trip_generators():
    workloads = [
        gen_payments(17, seed=1),
        gen_token_distribution(13, senders=3, track_total_supply=True, seed=2),
        gen_defi_fee(9, traders=4, seed=3),
        gen_nft_mint(11, seed=4),
        gen_mixed([("payments", {}, 2), ("defi_fee", {"traders": 2}, 1)], 20, seed=5),
    ]
    for w in workloads:
        again = parse_trace(emit_trace(w))
        assert again == w
        # meta survives our own emitter's comment line
        assert again.meta == w.meta


def test_parsed_keys_are_interned_across_collections_and_txs():
    workload = corpus_workload(4)  # nft mints and an exchange fee key, the one cadd_rewrite takes
    counters = {StorageKey.parse(k) for k in workload.meta["bottleneck_keys"]} - {
        StorageKey.parse(k) for k, tag in workload.key_tags.items() if tag == VALUE_DEPENDENT
    }
    rewritten = cadd_rewrite(workload, counters)
    assert counters and any(tx.access.cadds for tx in rewritten)
    for source in (workload, rewritten):
        parsed = parse_trace(emit_trace(source))
        first: dict[StorageKey, StorageKey] = {}
        uses = 0
        for tx in parsed:
            access = tx.access
            for key in [*access.reads, *access.writes, *(key for key, _ in access.cadds)]:
                assert first.setdefault(key, key) is key, key
                uses += 1
        assert uses > len(first)  # some keys recur, so the identity check bites


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "cc"]),
            st.integers(min_value=1, max_value=10**9),
            st.lists(st.sampled_from(["k:0", "k:1", "k:2:x"]), max_size=3),
            st.lists(st.sampled_from(["k:0", "k:3"]), max_size=2),
            st.lists(st.tuples(st.sampled_from(["k:4", "k:5"]), st.integers(-5, 5)), max_size=2),
        ),
        max_size=12,
    )
)
def test_round_trip_property(rows):
    txs = tuple(
        Transaction(
            id=i,
            sender=sender,
            gas=gas,
            access=AccessSet(
                reads=frozenset(StorageKey.parse(k) for k in reads),
                writes=frozenset(StorageKey.parse(k) for k in writes),
                cadds=tuple((StorageKey.parse(k), d) for k, d in cadds),
            ),
        )
        for i, (sender, gas, reads, writes, cadds) in enumerate(rows)
    )
    w = Workload(transactions=txs)
    assert parse_trace(emit_trace(w)) == w


def test_emit_deterministic_on_large_workload():
    w = gen_mixed([("payments", {}, 3), ("token_distribution", {"senders": 2}, 1)], 1000, seed=11)
    assert emit_trace(w) == emit_trace(w)
    rebuilt = gen_mixed([("payments", {}, 3), ("token_distribution", {"senders": 2}, 1)], 1000, seed=11)
    assert emit_trace(rebuilt) == emit_trace(w)


def test_generator_determinism_and_seed_sensitivity():
    a = gen_token_distribution(20, senders=4, seed=9)
    b = gen_token_distribution(20, senders=4, seed=9)
    c = gen_token_distribution(20, senders=4, seed=10)
    assert a == b
    assert a != c


def test_token_distribution_single_sender_is_fully_serial():
    w = gen_token_distribution(5, senders=1, seed=0)
    edges = oracle_edges(w)
    # every pair shares the sender balance key
    assert edges == {(j, i) for j in range(5) for i in range(j)}
    report = critical_path(build_graph(w))
    assert report.critical_path == (0, 1, 2, 3, 4)
    assert report.critical_weight == report.total_weight


def test_token_distribution_three_senders_three_chains():
    w = gen_token_distribution(6, senders=3, seed=0)
    assert oracle_edges(w) == {(3, 0), (4, 1), (5, 2)}


def test_token_distribution_supply_serializes_everything():
    w = gen_token_distribution(4, senders=4, track_total_supply=True, seed=0)
    assert oracle_edges(w) == {(j, i) for j in range(4) for i in range(j)}
    assert len(critical_path(build_graph(w)).critical_path) == 4


def test_defi_fee_chains_through_fee_key():
    w = gen_defi_fee(3, traders=3, seed=0)
    assert oracle_edges(w) == {(1, 0), (2, 0), (2, 1)}
    assert len(critical_path(build_graph(w)).critical_path) == 3


def test_defi_fee_single_tx_has_no_edges():
    assert oracle_edges(gen_defi_fee(1, traders=1, seed=0)) == set()


def test_nft_mint_structure():
    assert oracle_edges(gen_nft_mint(2, seed=0)) == {(1, 0)}
    assert oracle_edges(gen_nft_mint(1, seed=0)) == set()
    w = gen_nft_mint(10, seed=0)
    report = critical_path(build_graph(w))
    assert report.critical_weight == report.total_weight


def test_nft_length_key_tagged_value_dependent():
    w = gen_nft_mint(3, seed=0)
    tags = w.key_tags
    length_keys = [k for k, v in tags.items() if v == VALUE_DEPENDENT]
    assert len(length_keys) == 1
    assert length_keys[0].endswith("items.length")


def test_mixed_all_payments_no_edges():
    w = gen_mixed([("payments", {}, 1)], 32, seed=0)
    assert oracle_edges(w) == set()


def test_mixed_half_single_sender_distribution_critical_path():
    spec = [("payments", {"gas": 100}, 1), ("token_distribution", {"senders": 1, "gas": 100}, 1)]
    w = gen_mixed(spec, 16, seed=3)
    report = critical_path(build_graph(w))
    assert report.critical_weight == 8 * 100


def test_mixed_same_seed_identical():
    spec = [("payments", {}, 1), ("nft_mint", {}, 1)]
    assert gen_mixed(spec, 30, seed=4) == gen_mixed(spec, 30, seed=4)


def test_mixed_empty_spec_rejected():
    with pytest.raises(ValidationError):
        gen_mixed([], 10, seed=0)


def test_mixed_nonpositive_weight_rejected():
    with pytest.raises(ValidationError):
        gen_mixed([("payments", {}, 0)], 10, seed=0)


def test_mixed_instances_have_disjoint_keys():
    spec = [("defi_fee", {"traders": 2}, 1), ("defi_fee", {"traders": 2}, 1)]
    w = gen_mixed(spec, 12, seed=6)
    fee_contracts = {k.contract for tx in w for k in tx.access.touched()}
    assert len(fee_contracts) == 2  # two separate exchange instances


def test_generator_validation():
    with pytest.raises(ValidationError):
        gen_payments(0)
    with pytest.raises(ValidationError):
        gen_token_distribution(5, senders=0)
    with pytest.raises(ValidationError):
        gen_defi_fee(5, traders=-1)


@pytest.mark.parametrize("value", [2.5, 1.0, True, "3"])
def test_generator_counts_must_be_exact_ints(value):
    # `range(2.5)` raised a bare TypeError, and True made a 1-tx block.
    for make, name in (
        (gen_payments, "n"),
        (gen_nft_mint, "n"),
        (lambda v: gen_mixed([("payments", {}, 1)], v), "n"),
        (lambda v: gen_token_distribution(5, senders=v), "senders"),
        (lambda v: gen_defi_fee(5, traders=v), "traders"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            make(value)


def test_workload_rejects_non_contiguous_ids():
    tx = Transaction(id=1, sender="a", gas=5)
    with pytest.raises(ValidationError):
        Workload(transactions=(tx,))


def test_workload_names_the_first_offending_transaction():
    good = AccessSet(reads={StorageKey("c", "s")})
    bad_write = AccessSet(writes={StorageKey("a:b", "s")})
    bad_cadd = AccessSet(cadds=[(StorageKey("c", ""), 1)])
    for last in (2, 3):  # with contiguous ids, and with a later id out of place
        txs = [Transaction(0, "x", 5, good), Transaction(1, "x", 5, bad_write), Transaction(last, "x", 5)]
        with pytest.raises(ValidationError, match=r"^tx 1: malformed storage key StorageKey\(contract='a:b'"):
            Workload(transactions=txs)
    with pytest.raises(ValidationError, match="position 1 holds id 2"):
        Workload(transactions=[Transaction(0, "x", 5, good), Transaction(2, "x", 5, bad_write)])
    for last in (1, 2):
        with pytest.raises(ValidationError, match=r"^tx 0: malformed storage key StorageKey\(contract='c', slot=''\)"):
            Workload(transactions=[Transaction(0, "x", 5, bad_cadd), Transaction(last, "x", 5)])


def test_access_set_rewraps_only_what_is_not_canonical():
    k1, k2 = StorageKey("c", "a"), StorageKey("c", "b")
    reads = frozenset({k1})
    access = AccessSet(reads=reads, writes=[k2], cadds=[(k2, 2), [k1, 1]])
    assert access.reads is reads
    assert type(access.writes) is frozenset and access.writes == {k2}
    assert access.cadds == ((k1, 1), (k2, 2)) and type(access.cadds[0][1]) is int
    assert AccessSet(cadds=((k2, 2), (k1, 1))).cadds == ((k1, 1), (k2, 2))
    assert AccessSet(cadds=iter([(k1, 1)])).cadds == ((k1, 1),)
    assert AccessSet() == AccessSet(reads=set(), writes=(), cadds=[])


def test_workload_meta_excluded_from_equality():
    w1 = gen_payments(3, seed=0)
    w2 = Workload(transactions=w1.transactions, meta={"other": True})
    assert w1 == w2


def test_random_trace_order_without_ids_is_line_order():
    lines = []
    for sender in ["x", "y", "z"]:
        lines.append('{"sender":"%s","gas":7,"reads":[],"writes":[],"cadds":[]}' % sender)
    rng = random.Random(5)
    rng.shuffle(lines)
    w = parse_trace("\n".join(lines))
    assert [tx.sender for tx in w] == [l.split('"')[3] for l in lines]


@pytest.mark.parametrize("field", ["id", "gas"])
@pytest.mark.parametrize("value", [2.5, 1.0, True])
def test_transaction_requires_exact_int_id_and_gas(field, value):
    # A float or bool id or gas would run through the engines as time units.
    fields = {"id": 1, "sender": "a", "gas": 5, field: value}
    with pytest.raises(ValidationError, match=field):
        Transaction(**fields)


# ---------------------------------------------------------------------------
# Exact types at the model boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [1.5, True, "7", None])
def test_access_set_refuses_a_cadd_delta_that_is_not_an_int(delta):
    with pytest.raises(ValidationError, match="integer delta"):
        AccessSet(cadds=[(StorageKey("c", "s"), delta)])
    with pytest.raises(ValidationError, match="integer delta"):
        AccessSet(cadds=[(StorageKey("c", "s"), 1, delta)])


def test_access_set_refuses_cadd_keys_that_do_not_compare():
    with pytest.raises(ValidationError, match="cadd keys must be StorageKeys"):
        AccessSet(cadds=[("c:s", 1), (StorageKey("c", "t"), 2)])


@pytest.mark.parametrize("key", ["c:s", StorageKey(1, 2), StorageKey("a", 3), StorageKey(b"a", "s"), ("c", "s")])
@pytest.mark.parametrize("field", ["reads", "writes", "cadds"])
def test_workload_refuses_a_key_that_is_not_a_storage_key_of_two_strings(key, field):
    access = AccessSet(cadds=[(key, 1)]) if field == "cadds" else AccessSet(**{field: {key}})
    with pytest.raises(ValidationError, match=r"^tx 1: malformed storage key"):
        Workload(transactions=(Transaction(0, "a", 5), Transaction(1, "a", 5, access)))


def test_workload_refuses_an_entry_that_is_not_a_transaction():
    with pytest.raises(ValidationError, match="position 1 holds 'tx', not a Transaction"):
        Workload(transactions=(Transaction(0, "a", 5), "tx"))


@pytest.mark.parametrize("sender", [5, "", None, b"a"])
def test_transaction_refuses_a_sender_that_is_not_a_non_empty_string(sender):
    with pytest.raises(ValidationError, match="^tx 0: sender must be a non-empty string"):
        Transaction(0, sender, 5)


def test_transaction_refuses_an_access_that_is_not_an_access_set():
    with pytest.raises(ValidationError, match="^tx 0: access must be an AccessSet"):
        Transaction(0, "a", 5, access=None)


_fields = st.one_of(st.text(max_size=3), st.integers(-1, 1), st.none(), st.binary(max_size=1))


@settings(max_examples=150, deadline=None)
@given(
    sender=_fields,
    contract=_fields,
    slot=_fields,
    delta=st.one_of(st.integers(-2, 2), st.floats(allow_nan=False), st.booleans(), st.text(max_size=1)),
)
def test_every_workload_that_constructs_round_trips(sender, contract, slot, delta):
    key = StorageKey(contract, slot)
    try:
        w = Workload(transactions=(Transaction(0, sender, 5, AccessSet(reads={key}, writes={key}, cadds=[(key, delta)])),))
    except ValidationError:
        return
    assert parse_trace(emit_trace(w)) == w


@pytest.mark.parametrize("gas", [(3, 1), "x", (1,), 2.5, (1.5, 3), (1, 2, 3), True, (1, "2"), (True, 2)])
def test_generators_refuse_a_malformed_gas(gas):
    for make in (gen_payments, gen_nft_mint, gen_defi_fee, gen_token_distribution):
        with pytest.raises(ValidationError, match="gas must be an integer or a"):
            make(3, gas=gas)
    assert [tx.gas for tx in gen_payments(3, gas=[7, 7])] == [7, 7, 7]


def test_token_distribution_refuses_a_track_total_supply_that_is_not_a_bool():
    with pytest.raises(ValidationError, match="track_total_supply must be true or false"):
        gen_token_distribution(3, track_total_supply="yes")


@pytest.mark.parametrize(
    "spec, message",
    [
        ([("payments", {}, "x")], "weight must be positive and finite"),
        ([("payments", {}, float("nan"))], "weight must be positive and finite"),
        ([("payments", {}, float("inf"))], "weight must be positive and finite"),
        ([("payments", {}, True)], "weight must be positive and finite"),
        ([("payments", {}, 0)], "weight must be positive and finite"),
        ([("payments", {"to": 2}, 1)], "takes no param 'to'"),
        ([("payments", {"seed": 2}, 1)], "takes no param 'seed'"),
        ([("payments", {"senders": 2}, 1)], "takes no param 'senders'"),
        ([("payments", [("gas", 5)], 1)], "params must be a dict"),
        ([("payments", {}, 1, 2)], "triples"),
        ([("payments", {})], "triples"),
        (["payments"], "triples"),
        ([(["payments"], {}, 1)], "unknown pattern"),
        ([("payments", {"gas": (1.5, 3)}, 1)], "gas must be"),
        ([("payments", {}, 1e308), ("nft_mint", {}, 1e308)], "is not finite"),
        ([("payments", {}, 1e308)], "is not finite"),
        (5, "mixed spec must be a non-empty list"),
        ({"a": 1}, "mixed spec must be a non-empty list"),
        ([], "mixed spec must be a non-empty list"),
        # an entry whose weight gets it no tx still has its params checked
        ([("payments", {}, 1), ("defi_fee", {"traders": 0}, 1e-9)], "traders must be >= 1"),
    ],
)
def test_gen_mixed_refuses_a_malformed_spec(spec, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        gen_mixed(spec, 10)


def test_gen_mixed_takes_a_gas_range_as_a_list_or_a_tuple():
    as_list = gen_mixed([("payments", {"gas": [5, 9]}, 1), ("nft_mint", None, 1)], 20, seed=3)
    as_tuple = gen_mixed([("payments", {"gas": (5, 9)}, 1), ("nft_mint", None, 1)], 20, seed=3)
    assert as_list == as_tuple and emit_trace(as_list) == emit_trace(as_tuple)


def test_only_the_workload_module_touches_the_memo():
    src = Path(__file__).resolve().parents[1] / "src" / "txpar"
    assert [path.name for path in sorted(src.glob("*.py")) if "_memo" in path.read_text(encoding="utf-8")] == ["workload.py"]


def test_derived_builds_once_per_name_and_per_object():
    w = gen_payments(3)
    built = []
    build = lambda w: built.append(w) or len(w)  # noqa: E731
    assert w.derived("n", build) == w.derived("n", build) == 3
    assert w.derived(("n", 2), build) == 3 and len(built) == 2
    copy = replace(w)
    assert copy == w and copy.derived("n", build) == 3
    assert built == [w, w, copy] and built[2] is copy


def test_parsed_objects_match_public_ones_on_corpus_traces():
    for index in range(8):
        workload = corpus_workload(index)
        counters = {StorageKey.parse(k) for k in workload.meta["bottleneck_keys"]} - {
            StorageKey.parse(k) for k, tag in workload.key_tags.items() if tag == VALUE_DEPENDENT
        }
        for source in (workload, cadd_rewrite(workload, counters)):
            parsed = parse_trace(emit_trace(source))
            assert parsed == source
            assert_built_like_public(parsed)


_valid_keys = st.sampled_from(["c:s", "c:t", "tok:bal:s0", "d:x:y"])
_valid_records = st.tuples(
    st.fixed_dictionaries(
        {"sender": st.sampled_from(["a", "b", "cc"]), "gas": st.integers(1, 10**30)},
        optional={
            "reads": st.lists(_valid_keys, max_size=3),
            "writes": st.lists(_valid_keys, max_size=3),
            "cadds": st.lists(st.tuples(_valid_keys, st.integers(-5, 5)).map(list), max_size=3),
        },
    ),
    st.booleans(),  # a read-modify-write: writes the list it reads
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_valid_records, max_size=8), st.integers(0, 3), st.randoms(use_true_random=False))
def test_parsed_objects_match_public_ones(rows, first_id, rnd):
    records = [dict(record, writes=record.get("reads", [])) if rmw else record for record, rmw in rows]
    if first_id:  # declared ids, in shuffled line order
        ids = list(range(first_id, first_id + len(records)))
        rnd.shuffle(ids)
        records = [dict(record, id=i) for record, i in zip(records, ids)]
    parsed = parse_trace("\n".join(map(json.dumps, records)))
    assert len(parsed) == len(records)
    assert_built_like_public(parsed)


def test_parsed_objects_keep_every_check_of_replace():
    w = gen_defi_fee(4, traders=2, seed=1)
    parsed = parse_trace(emit_trace(cadd_rewrite(w, {StorageKey.parse(w.meta["bottleneck_keys"][0])})))
    tx = parsed[1]
    assert tx.access.cadds
    with pytest.raises(ValidationError, match="gas must be an integer >= 1"):
        replace(tx, gas=0)
    with pytest.raises(ValidationError, match="sender must be a non-empty string"):
        replace(tx, sender="")
    with pytest.raises(ValidationError, match="cadds must be"):
        replace(tx.access, cadds=[(tx.access.cadds[0][0], 1.5)])
    with pytest.raises(ValidationError, match="meta must be a dict"):
        replace(parsed, meta=[1])
    with pytest.raises(ValidationError, match="contiguous"):
        replace(parsed, transactions=parsed.transactions[1:])


def test_each_parse_gets_its_own_empty_memo():
    trace = emit_trace(gen_payments(5, seed=2))
    first, second = parse_trace(trace), parse_trace(trace)
    assert first._memo == {} and second._memo == {} and first._memo is not second._memo
    assert first.derived("n", len) == 5
    assert second._memo == {}


@pytest.mark.parametrize("meta", [[1], None, "x", ({"a": 1},)])
def test_workload_refuses_a_meta_that_is_not_a_dict(meta):
    with pytest.raises(ValidationError, match="^meta must be a dict"):
        Workload(meta=meta)


@pytest.mark.parametrize("meta", [{"x": {1}}, {"key_tags": {"c:s": b"1"}}, {"x": object()}])
def test_emit_refuses_a_meta_that_is_not_json(meta):
    with pytest.raises(ValidationError, match="^meta is not JSON-able"):
        emit_trace(Workload(transactions=gen_payments(2).transactions, meta=meta))


@pytest.mark.parametrize(
    "meta",
    [
        {1: 2, 2: (3, 4)},
        {"x": (3, 4)},
        {"x": [1, {"y": (2,)}]},
        {"x": {1: "a"}},
        {"x": {True: "a"}},
        {"x": [float("nan")]},
        {"spec": [["payments", {"gas": (5, 9)}, 1]]},
    ],
)
def test_emit_refuses_a_meta_that_does_not_round_trip(meta):
    with pytest.raises(ValidationError, match="^meta does not round-trip through the trace format"):
        emit_trace(Workload(transactions=gen_payments(2).transactions, meta=meta))


_meta_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2) | st.integers(0, 2) | st.booleans(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=3) | st.integers(0, 2), _meta_values, max_size=3))
def test_every_meta_that_emits_reads_back_equal(meta):
    w = Workload(transactions=gen_payments(1).transactions, meta=meta)
    try:
        data = emit_trace(w)
    except ValidationError:
        return
    assert parse_trace(data).meta == meta


_generated = [
    lambda: gen_payments(17, seed=1),
    lambda: gen_payments(5, seed=2, gas=(1, 3)),
    lambda: gen_token_distribution(13, senders=3, track_total_supply=True, seed=2, gas=[4, 9]),
    lambda: gen_token_distribution(4, seed=5),
    lambda: gen_defi_fee(9, traders=4, seed=3),
    lambda: gen_defi_fee(6, traders=10, seed=3, gas=7),
    lambda: gen_nft_mint(11, seed=4),
    lambda: gen_mixed([("payments", {}, 2), ("defi_fee", {"traders": 2}, 1)], 20, seed=5),
    lambda: gen_mixed([("payments", {"gas": (5, 9)}, 1), ("nft_mint", None, 1)], 20, seed=3),
    lambda: corpus_workload(3),
    lambda: corpus_workload(7),
]


@pytest.mark.parametrize("make", _generated)
def test_generated_objects_match_public_ones(make):
    w = make()
    assert_built_like_public(w)
    again = parse_trace(emit_trace(w))
    assert again == w and again.meta == w.meta


def test_each_generated_workload_gets_its_own_empty_memo():
    built = [make() for make in _generated] + [make() for make in _generated[:3]]
    assert len({id(w._memo) for w in built}) == len(built)
    assert built[0].derived("n", len) == 17
    assert all(w._memo == {} for w in built[1:])


def test_gen_mixed_records_a_tuple_gas_range_as_the_list_it_reads_back_as():
    spec = [("payments", {"gas": (5, 9)}, 1), ("nft_mint", None, 1)]
    w = gen_mixed(spec, 20, seed=3)
    assert w.meta["spec"] == [["payments", {"gas": [5, 9]}, 1], ["nft_mint", {}, 1]]
    assert spec[0][1]["gas"] == (5, 9)  # the caller's spec is untouched
    assert parse_trace(emit_trace(w)).meta == w.meta


@pytest.mark.parametrize("gas", [0, -3, (0, 5), [0, 0]])
def test_generators_refuse_a_gas_below_one(gas):
    for make in (gen_payments, gen_nft_mint, gen_defi_fee, gen_token_distribution):
        with pytest.raises(ValidationError, match="gas must be an integer or a .* all >= 1"):
            make(3, gas=gas)


#: (generator, args, kwargs) for each generator; the `gen_mixed` spec's nft_mint entry gets no tx.
_SCHEMA_CASES = {
    "payments": (gen_payments, (5,), {"seed": 1}),
    "token_distribution": (gen_token_distribution, (6,), {"senders": 2, "track_total_supply": True, "gas": 7}),
    "defi_fee": (gen_defi_fee, (6,), {"traders": 3, "seed": 2}),
    "nft_mint": (gen_nft_mint, (4,), {"gas": (1, 3)}),
    "mixed": (gen_mixed, ([("payments", {}, 100), ("nft_mint", {}, 1)], 2), {"seed": 4}),
}


@pytest.mark.parametrize("pattern", sorted(_SCHEMA_CASES))
def test_every_generator_writes_one_meta_schema(pattern):
    make, args, kwargs = _SCHEMA_CASES[pattern]
    w = make(*args, **kwargs)
    call = inspect.signature(make).bind(*args, **kwargs)
    call.apply_defaults()
    # a generator's own params, as `generator_params` reads them, less gas
    params = set(inspect.signature(make).parameters) - {"n", "seed", "_instance", "gas"}
    assert set(w.meta) == {"pattern", "seed", "n", "key_tags", "bottleneck_keys"} | params
    assert (w.meta["pattern"], w.meta["seed"], w.meta["n"]) == (pattern, call.arguments["seed"], len(w))
    given = {name: call.arguments[name] for name in params}
    assert {name: w.meta[name] for name in params} == json.loads(json.dumps(given))  # a tuple reads back a list
    assert set(w.meta["bottleneck_keys"]) <= set(w.meta["key_tags"])
    if pattern == "mixed":
        assert len(w) == 2 and all(tx.sender.startswith("p") for tx in w)  # the nft_mint entry got no tx


@pytest.mark.parametrize("value, keys", [(None, []), ([], []), ("c:a", ["c:a"]), (["c:a", "c:b"], ["c:a", "c:b"])])
def test_bottleneck_keys_reads_one_key_or_a_list_of_them(value, keys):
    meta = {} if value is None else {"bottleneck_keys": value}
    assert Workload(meta=meta).bottleneck_keys == keys


@pytest.mark.parametrize("value", [5, {"c:a": 1}, ["c:a", 3], [["c:a"]]])
def test_bottleneck_keys_refuses_anything_else_and_names_the_field(value):
    with pytest.raises(ValidationError, match=f"meta 'bottleneck_keys' must be .*, got {re.escape(repr(value))}$"):
        Workload(meta={"bottleneck_keys": value}).bottleneck_keys
