"""Conflict-elimination transform tests."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpar import (
    AccessSet,
    DependencyGraph,
    PartitionSpec,
    SoundnessError,
    StorageKey,
    ValidationError,
    Transaction,
    Workload,
    build_graph,
    cadd_rewrite,
    critical_path,
    emit_trace,
    gen_defi_fee,
    gen_nft_mint,
    gen_token_distribution,
    parse_trace,
    partition_counters,
    prune_edges_probabilistic,
    route_hash,
    serial_final_state,
    split_senders,
    sub_counter_key,
)

from txpar.workload import VALUE_DEPENDENT

from corpus_util import corpus_workload, counter_bottleneck_workload
from oracles import CADD_MODES, assert_built_like_public, edges_only_on, oracle_edges, oracle_prune, random_workload


def _sender_balance_key(w: Workload) -> StorageKey:
    return StorageKey.parse(w.meta["bottleneck_keys"][0])


def _fee_key(w: Workload) -> StorageKey:
    return StorageKey.parse(w.meta["bottleneck_keys"][0])


# ---------------------------------------------------------------------------
# split_senders
# ---------------------------------------------------------------------------


def test_split_senders_breaks_chain_into_thirds():
    w = gen_token_distribution(6, senders=1, seed=0, gas=100)
    hot = w[0].sender
    before = critical_path(build_graph(w))
    assert before.critical_weight == 600
    out = split_senders(w, hot, 3, _sender_balance_key(w))
    assert oracle_edges(out) == {(3, 0), (4, 1), (5, 2)}
    after = critical_path(build_graph(out))
    assert after.critical_weight == 200  # a third of the original chain


def test_split_senders_identity_when_m_is_one():
    w = gen_token_distribution(4, senders=1, seed=0)
    assert split_senders(w, w[0].sender, 1, _sender_balance_key(w)) is w


@pytest.mark.parametrize("m", [2.5, True, "2"])
def test_split_senders_needs_an_exact_int_m(m):
    w = gen_token_distribution(4, senders=1, seed=0)
    with pytest.raises(ValidationError):
        split_senders(w, w[0].sender, m, _sender_balance_key(w))


def test_split_senders_missing_sender_rejected():
    w = gen_token_distribution(4, senders=1, seed=0)
    with pytest.raises(ValidationError):
        split_senders(w, "nobody", 2, _sender_balance_key(w))


def test_split_senders_supply_key_keeps_everything_connected():
    # The shared supply key is untouched, so the critical path survives:
    # exactly the situation that needs the more general counter partitioning.
    w = gen_token_distribution(6, senders=1, track_total_supply=True, seed=0, gas=100)
    out = split_senders(w, w[0].sender, 3, _sender_balance_key(w))
    assert critical_path(build_graph(out)).critical_weight == 600
    assert oracle_edges(out) == {(j, i) for j in range(6) for i in range(j)}


def test_split_senders_preserves_ids_gas_and_counts():
    w = gen_token_distribution(9, senders=1, seed=3)
    out = split_senders(w, w[0].sender, 4, _sender_balance_key(w))
    assert len(out) == len(w)
    assert [tx.id for tx in out] == [tx.id for tx in w]
    assert [tx.gas for tx in out] == [tx.gas for tx in w]


# ---------------------------------------------------------------------------
# partition_counters
# ---------------------------------------------------------------------------


def _two_writer_workload(senders):
    # Increment-shaped writers: read-modify-write on a counter tagged
    # increment-only, the trace form of `cnt[slot] += n`.
    key = StorageKey("c", "counter")
    from txpar import AccessSet, Transaction

    txs = tuple(
        Transaction(
            id=i,
            sender=s,
            gas=10,
            access=AccessSet(reads=frozenset({key}), writes=frozenset({key})),
        )
        for i, s in enumerate(senders)
    )
    return Workload(transactions=txs, meta={"key_tags": {str(key): 1}}), key


def _senders_routed_apart(length=2):
    """Find two sender names the routing hash places on different sub-counters."""
    base = "alice"
    slot = route_hash(base) % length
    for i in range(1000):
        other = f"bob{i}"
        if route_hash(other) % length != slot:
            return base, other
    raise AssertionError("no routing counterexample found")


def test_partition_separates_writers_with_distinct_routing():
    a, b = _senders_routed_apart()
    w, key = _two_writer_workload([a, b])
    out = partition_counters(w, PartitionSpec(target_keys=frozenset({key}), length=2))
    assert oracle_edges(out) == set()


def test_partition_same_sender_same_subcounter_conflict_preserved():
    w, key = _two_writer_workload(["alice", "alice"])
    out = partition_counters(w, PartitionSpec(target_keys=frozenset({key}), length=2))
    assert oracle_edges(out) == {(1, 0)}


def test_partition_reader_conflicts_with_every_writer():
    # A value reader fans out to all sub-counters and so conflicts with all
    # writers, whatever their routing; the apart-routed writers themselves
    # stop conflicting.
    from txpar import AccessSet, Transaction

    key = StorageKey("c", "counter")
    a, b = _senders_routed_apart()
    txs = (
        Transaction(id=0, sender=a, gas=10, access=AccessSet(reads=frozenset({key}), writes=frozenset({key}))),
        Transaction(id=1, sender=b, gas=10, access=AccessSet(reads=frozenset({key}), writes=frozenset({key}))),
        Transaction(id=2, sender="carol", gas=10, access=AccessSet(reads=frozenset({key}))),
    )
    w = Workload(transactions=txs, meta={"key_tags": {str(key): 1}})
    out = partition_counters(w, PartitionSpec(target_keys=frozenset({key}), length=2))
    assert oracle_edges(out) == {(2, 0), (2, 1)}


def test_partition_writer_routing_is_stable_and_documented():
    w, key = _two_writer_workload(["alice", "dave"])
    out = partition_counters(w, PartitionSpec(target_keys=frozenset({key}), length=3))
    for tx in out:
        expected = sub_counter_key(key, route_hash(tx.sender) % 3)
        assert tx.access.writes == frozenset({expected})


def test_partition_value_preservation_on_cadd_counters():
    # Run the counter as commutative adds so values are deltas rather than
    # synthetic write hashes; the sub-counter sum must equal the original
    # counter's final value.
    w = gen_defi_fee(12, traders=12, seed=5)
    fee = _fee_key(w)
    w = cadd_rewrite(w, {fee})
    spec = PartitionSpec(target_keys=frozenset({fee}), length=3)
    out = partition_counters(w, spec)
    original_value = serial_final_state(w).latest(fee)
    state = serial_final_state(out)
    assert sum(state.latest(sub_counter_key(fee, j)) for j in range(3)) == original_value == 12


def test_partition_edge_monotonicity_with_reader_fanout_exception():
    # New edges may appear only between target readers and target writers
    # (the fan-out read); everything else must be a subset of the original
    # edges not caused purely by target keys.
    from txpar import AccessSet, Transaction

    rng = random.Random(404)
    key = StorageKey("c", "hot")
    for trial in range(30):
        txs = []
        for i in range(rng.randint(2, 14)):
            reads, writes = set(), set()
            if rng.random() < 0.5:
                writes.add(key)
                reads.add(key)
            elif rng.random() < 0.3:
                reads.add(key)
            own = StorageKey("c", f"own{i % 4}")
            if rng.random() < 0.4:
                writes.add(own)
                reads.add(own)
            txs.append(
                Transaction(id=i, sender=f"s{rng.randint(0, 5)}", gas=10, access=AccessSet(frozenset(reads), frozenset(writes)))
            )
        w = Workload(transactions=tuple(txs))
        g_before = build_graph(w)
        out = partition_counters(w, PartitionSpec(target_keys=frozenset({key}), length=2))
        g_after = build_graph(out)
        non_target_edges = g_before.edges - edges_only_on(w, {key})
        readers = {tx.id for tx in w if key in tx.access.reads}
        writers = {tx.id for tx in w if key in tx.access.writes}
        fanout = {(max(r, x), min(r, x)) for r in readers for x in writers if r != x}
        allowed = (g_before.edges & non_target_edges) | fanout
        assert g_after.edges <= allowed, trial


def test_partition_spec_validation():
    key = StorageKey("c", "x")
    with pytest.raises(ValidationError):
        PartitionSpec(target_keys=frozenset({key}), length=1)
    with pytest.raises(ValidationError):
        PartitionSpec(target_keys=frozenset(), length=2)
    with pytest.raises(ValidationError):
        PartitionSpec(target_keys=frozenset({key}), length=2, routing="phase-of-moon")
    for length in (2.5, True, "2"):
        with pytest.raises(ValidationError):
            PartitionSpec(target_keys=frozenset({key}), length=length)


def test_partition_deterministic():
    w = gen_defi_fee(10, traders=5, seed=1)
    spec = PartitionSpec(target_keys=frozenset({_fee_key(w)}), length=4)
    assert partition_counters(w, spec) == partition_counters(w, spec)


# ---------------------------------------------------------------------------
# prune_edges_probabilistic
# ---------------------------------------------------------------------------


def _hot_key_clique(n_writers: int):
    from txpar import AccessSet, Transaction

    hot = StorageKey("c", "hot")
    txs = []
    for i in range(n_writers):
        own = StorageKey("c", f"own{i}")
        txs.append(
            Transaction(
                id=i,
                sender=f"s{i}",
                gas=10,
                access=AccessSet(reads=frozenset({hot, own}), writes=frozenset({hot, own})),
            )
        )
    return Workload(transactions=tuple(txs)), hot


def test_prune_p0_is_identity_and_p1_removes_all_target_edges():
    w, hot = _hot_key_clique(12)
    g = build_graph(w)
    assert prune_edges_probabilistic(g, w, {hot}, 0, seed=1).edges == g.edges
    assert prune_edges_probabilistic(g, w, {hot}, 1, seed=1).edges == frozenset()


def test_prune_keeps_edges_with_non_target_causes():
    from txpar import AccessSet, Transaction

    hot = StorageKey("c", "hot")
    other = StorageKey("c", "other")
    txs = (
        Transaction(id=0, sender="a", gas=10, access=AccessSet(reads=frozenset({hot, other}), writes=frozenset({hot, other}))),
        Transaction(id=1, sender="b", gas=10, access=AccessSet(reads=frozenset({hot, other}), writes=frozenset({hot, other}))),
    )
    w = Workload(transactions=txs)
    g = build_graph(w)
    # the edge is justified by both keys, so it survives even p=1
    assert prune_edges_probabilistic(g, w, {hot}, 1, seed=0).edges == g.edges


def test_prune_eight_ninths_within_binomial_tolerance():
    # 142 writers on one hot key: 10011 target-only edges.
    w, hot = _hot_key_clique(142)
    g = build_graph(w)
    assert len(g.edges) == 142 * 141 // 2
    pruned = prune_edges_probabilistic(g, w, {hot}, Fraction(8, 9), seed=2024)
    removed = 1 - len(pruned.edges) / len(g.edges)
    assert abs(removed - 8 / 9) <= 0.01


def test_prune_deterministic_and_validated():
    w, hot = _hot_key_clique(10)
    g = build_graph(w)
    a = prune_edges_probabilistic(g, w, {hot}, 0.5, seed=7)
    b = prune_edges_probabilistic(g, w, {hot}, 0.5, seed=7)
    assert a.edges == b.edges
    assert prune_edges_probabilistic(g, w, {hot}, 0.5, seed=8).edges != a.edges
    with pytest.raises(ValidationError):
        prune_edges_probabilistic(g, w, {hot}, 1.5, seed=0)
    for flag in (True, False):  # Fraction(True) is 1
        with pytest.raises(ValidationError):
            prune_edges_probabilistic(g, w, {hot}, flag, seed=0)
    assert prune_edges_probabilistic(g, w, {hot}, "1/2", seed=7) == a


@pytest.mark.parametrize("p", ["x", None, [0.5], "1/0"])
def test_prune_names_a_malformed_probability(p):
    w, hot = _hot_key_clique(4)
    with pytest.raises(ValidationError, match=f"removal probability must be a number, got {re.escape(repr(p))}$"):
        prune_edges_probabilistic(build_graph(w), w, {hot}, p, seed=0)


def test_prune_without_attribution_keeps_edges():
    from txpar import AccessSet, Transaction

    # The txs only read the hot key, so the workload gives these edges no cause.
    hot = StorageKey("c", "hot")
    reader = AccessSet(reads=frozenset({hot}))
    w = Workload(transactions=tuple(Transaction(id=i, sender=f"s{i}", gas=1, access=reader) for i in range(3)))
    g = DependencyGraph(n=3, edges=frozenset({(1, 0), (2, 1)}), weights=(1, 1, 1))
    assert prune_edges_probabilistic(g, w, {hot}, 1, seed=0).edges == g.edges


_POOL = [StorageKey("c", f"k{i}") for i in range(5)]  # random_workload's keys at key_pool=5
_prune_steps = st.tuples(st.frozensets(st.sampled_from(_POOL)), st.sampled_from([0, Fraction(1, 2), 1]), st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(CADD_MODES), st.lists(_prune_steps, min_size=2, max_size=2))
def test_prune_matches_the_annotated_oracle(seed, cadd_aware, steps):
    w = random_workload(random.Random(seed), max_n=12, key_pool=5)
    g = expected = build_graph(w, cadd_aware)
    for targets, p, step_seed in steps:  # the second step prunes a pruned graph
        g = prune_edges_probabilistic(g, w, targets, p, step_seed, cadd_aware)
        expected, prunable = oracle_prune(expected, w, targets, p, step_seed, cadd_aware)
        assert g == expected
        assert edges_only_on(w, targets, cadd_aware) == prunable


@pytest.mark.parametrize("cadd_aware", CADD_MODES)
def test_prune_matches_the_annotated_oracle_above_30_ids(cadd_aware):
    # Blocks of 60 to 120 txs, so the per-tx bitsets span several int digits: three fee-bottleneck blocks, and a
    # corpus block whose total supply pairs also conflict on a sender's balance, so those pairs are not prunable.
    blocks = [counter_bottleneck_workload(index)[0] for index in range(3)] + [corpus_workload(12)]
    for w in blocks:
        bottlenecks = frozenset(map(StorageKey.parse, w.meta["bottleneck_keys"]))
        first = frozenset(key for key in bottlenecks if key.slot in ("feeBalance", "totalSupply"))
        g = expected = build_graph(w, cadd_aware)
        for seed, (targets, p) in enumerate([(first, Fraction(1, 2)), (bottlenecks, 1)]):
            g = prune_edges_probabilistic(g, w, targets, p, seed, cadd_aware)
            expected, prunable = oracle_prune(expected, w, targets, p, seed, cadd_aware)
            assert g == expected
            assert edges_only_on(w, targets, cadd_aware) == prunable
            assert any(i >= 30 for _, i in prunable)


def test_prune_keeps_an_edge_a_write_vs_cadd_overlap_also_causes():
    from txpar import AccessSet, Transaction

    # tx1's write of c meets tx0's cadd of c: a second cause, which is not a target.
    hot, c = StorageKey("c", "hot"), StorageKey("c", "c")
    txs = (
        Transaction(id=0, sender="a", gas=10, access=AccessSet(writes=frozenset({hot}), cadds=((c, 1),))),
        Transaction(id=1, sender="b", gas=10, access=AccessSet(writes=frozenset({hot, c}))),
    )
    w = Workload(transactions=txs)
    g = build_graph(w, cadd_aware=True)
    assert g.edges == {(1, 0)}
    assert prune_edges_probabilistic(g, w, {hot}, 1, cadd_aware=True).edges == g.edges


def test_prune_rejects_a_graph_of_another_workload():
    w3 = gen_token_distribution(3, seed=0)
    w5 = gen_token_distribution(5, seed=0)
    targets = w5[0].access.touched()
    with pytest.raises(ValidationError):
        prune_edges_probabilistic(build_graph(w3), w5, targets, 1)
    g = build_graph(w3)
    other_gas = DependencyGraph(n=g.n, edges=g.edges, weights=tuple(weight + 1 for weight in g.weights))
    with pytest.raises(ValidationError):
        prune_edges_probabilistic(other_gas, w3, targets, 1)


# ---------------------------------------------------------------------------
# cadd_rewrite
# ---------------------------------------------------------------------------


def test_cadd_rewrite_clears_fee_conflicts():
    w = gen_defi_fee(8, traders=8, seed=0)
    fee = _fee_key(w)
    out = cadd_rewrite(w, {fee})
    assert oracle_edges(out, cadd_aware=True) == set()
    assert build_graph(out, cadd_aware=True).edges == frozenset()
    # plain mode still sees the fee key as a conflict
    assert build_graph(out, cadd_aware=False).edges != frozenset()


def test_cadd_rewrite_leaves_pure_reads_alone():
    from txpar import AccessSet, Transaction

    key = StorageKey("c", "counter")
    txs = (
        Transaction(id=0, sender="a", gas=10, access=AccessSet(reads=frozenset({key}))),
    )
    w = Workload(transactions=txs)
    out = cadd_rewrite(w, {key})
    assert out[0].access.reads == frozenset({key})
    assert out[0].access.cadds == ()


def test_cadd_rewrite_refuses_value_dependent_keys():
    w = gen_nft_mint(4, seed=0)
    length = StorageKey.parse(w.meta["bottleneck_keys"][0])
    with pytest.raises(SoundnessError):
        cadd_rewrite(w, {length})


def test_cadd_rewrite_uses_tagged_delta_and_serial_sum():
    w = gen_defi_fee(7, traders=7, seed=2)
    fee = _fee_key(w)
    out = cadd_rewrite(w, {fee})
    for tx in out:
        assert (fee, 1) in tx.access.cadds
        assert fee not in tx.access.reads and fee not in tx.access.writes
    assert serial_final_state(out).latest(fee) == 7


def test_cadd_rewrite_untagged_key_defaults_to_plus_one():
    from txpar import AccessSet, Transaction

    key = StorageKey("c", "counter")
    txs = tuple(
        Transaction(id=i, sender="a", gas=10, access=AccessSet(reads=frozenset({key}), writes=frozenset({key})))
        for i in range(3)
    )
    out = cadd_rewrite(Workload(transactions=txs), {key})
    assert serial_final_state(out).latest(key) == 3


def test_transforms_preserve_counts_ids_gas():
    w = gen_defi_fee(10, traders=3, seed=4)
    fee = _fee_key(w)
    for out in (
        cadd_rewrite(w, {fee}),
        partition_counters(w, PartitionSpec(target_keys=frozenset({fee}), length=2)),
    ):
        assert [(tx.id, tx.gas) for tx in out] == [(tx.id, tx.gas) for tx in w]


def test_rewrite_then_partition_compose():
    # The composed pipeline: commutative adds on sub-counters. Writer-only
    # txs stop conflicting entirely in cadd-aware mode.
    w = gen_defi_fee(10, traders=10, seed=6)
    fee = _fee_key(w)
    out = partition_counters(cadd_rewrite(w, {fee}), PartitionSpec(target_keys=frozenset({fee}), length=2))
    assert build_graph(out, cadd_aware=True).edges == frozenset()
    total = sum(serial_final_state(out).latest(sub_counter_key(fee, j)) for j in range(2))
    assert total == 10


# ---------------------------------------------------------------------------
# Target keys are StorageKeys: a string would match no key, so a transform
# given one would do nothing, or fail with an AttributeError
# ---------------------------------------------------------------------------

_NOT_KEYS = ["dexfee:feeBalance", ("c", "t"), StorageKey("c", 1)]


@pytest.mark.parametrize("bad", _NOT_KEYS)
def test_cadd_rewrite_refuses_a_target_that_is_not_a_storage_key(bad):
    w = gen_defi_fee(6, traders=3, seed=0)
    assert cadd_rewrite(w, {_fee_key(w)}) != w
    with pytest.raises(ValidationError, match=f"target_keys must hold StorageKeys, got {re.escape(repr(bad))}$"):
        cadd_rewrite(w, {_fee_key(w), bad})
    with pytest.raises(ValidationError, match="target_keys must be a collection of StorageKeys"):
        cadd_rewrite(w, str(_fee_key(w)))


@pytest.mark.parametrize("bad", _NOT_KEYS)
def test_prune_refuses_a_target_that_is_not_a_storage_key(bad):
    w = gen_defi_fee(6, traders=3, seed=0)
    g = build_graph(w)
    assert len(prune_edges_probabilistic(g, w, {_fee_key(w)}, 1).edges) < len(g.edges)
    with pytest.raises(ValidationError, match=f"target_keys must hold StorageKeys, got {re.escape(repr(bad))}$"):
        prune_edges_probabilistic(g, w, {bad}, 1)
    with pytest.raises(ValidationError, match="target_keys must be a collection of StorageKeys"):
        prune_edges_probabilistic(g, w, _fee_key(w), 1)


@pytest.mark.parametrize("bad", _NOT_KEYS)
def test_partition_spec_refuses_a_target_that_is_not_a_storage_key(bad):
    with pytest.raises(ValidationError, match=f"partition target_keys must hold StorageKeys, got {re.escape(repr(bad))}$"):
        PartitionSpec(frozenset({StorageKey("c", "s"), bad}), 2)
    with pytest.raises(ValidationError, match="partition target_keys must be a collection of StorageKeys"):
        PartitionSpec("c:s", 2)


@pytest.mark.parametrize("bad", _NOT_KEYS)
def test_split_senders_refuses_a_balance_key_that_is_not_a_storage_key(bad):
    w = gen_token_distribution(4, senders=1, seed=0)
    with pytest.raises(ValidationError, match=f"sender_balance_key must be a StorageKey, got {re.escape(repr(bad))}$"):
        split_senders(w, w[0].sender, 2, bad)


# ---------------------------------------------------------------------------
# Transforms build their output trusted: it must equal what the public
# constructors build, with cadds sorted and a memo of its own
# ---------------------------------------------------------------------------


def _rewrites(w: Workload):
    """`w` through each transform and through chains of them, on its own bottleneck keys."""
    tags = w.key_tags
    keys = [StorageKey.parse(k) for k in w.meta["bottleneck_keys"]]
    counters = frozenset(k for k in keys if tags.get(str(k)) != VALUE_DEPENDENT)
    outs = []
    distributor = next((k for k in keys if k.slot.startswith("bal:")), None)
    if distributor is not None:
        outs.append(split_senders(w, distributor.slot[len("bal:") :], 3, distributor))
    if counters:
        for routing in ("sender", "tx_id"):
            outs.append(partition_counters(w, PartitionSpec(counters, 4, routing)))
        outs.append(cadd_rewrite(w, counters))
        outs.append(partition_counters(cadd_rewrite(w, counters), PartitionSpec(counters, 3)))
        outs.append(cadd_rewrite(partition_counters(w, PartitionSpec(counters, 3)), counters))
        if distributor is not None:
            split = split_senders(w, distributor.slot[len("bal:") :], 2, distributor)
            outs.append(cadd_rewrite(partition_counters(split, PartitionSpec(counters, 2)), counters))
    return outs


def test_transformed_objects_match_public_ones_on_corpus_blocks():
    rewritten = 0
    for index in range(16):
        w = corpus_workload(index)
        w.derived("n", len)  # a memo shared with the outputs would show
        for out in _rewrites(w):
            assert out != w
            assert_built_like_public(out)
            assert parse_trace(emit_trace(out)) == out
            rewritten += 1
    assert rewritten > 40


K = StorageKey("c", "a")


@pytest.mark.parametrize(
    "transform",
    [
        lambda w: partition_counters(w, PartitionSpec(frozenset({K}), 2)),
        lambda w: split_senders(w, "s", 2, K),
        lambda w: cadd_rewrite(w, {StorageKey("c", "a!")}),
    ],
    ids=["partition_counters", "split_senders", "cadd_rewrite"],
)
def test_transforms_keep_cadds_sorted_when_a_rewritten_key_moves(transform):
    # `c:a#i` sorts after `c:a!`, and a new cadd on `c:a!` after one on `c:a`.
    rmw = {StorageKey("c", "a!")}
    access = AccessSet(reads=rmw, writes=rmw, cadds=[(K, 1), (StorageKey("c", "a#"), 2)])
    txs = [Transaction(i, "s", 5, access) for i in range(3)]
    out = transform(Workload(transactions=txs, meta={"key_tags": {str(K): 1}}))
    assert all(list(tx.access.cadds) == sorted(tx.access.cadds) for tx in out)
    assert any(tx.access.cadds != access.cadds for tx in out)
    assert_built_like_public(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sets(st.integers(0, 7), min_size=1))
def test_transformed_random_workloads_match_public_ones(seed, picked):
    w = random_workload(random.Random(seed))
    targets = frozenset(StorageKey("c", f"k{i}") for i in picked)
    sender = w[0].sender
    for out in (
        partition_counters(w, PartitionSpec(targets, 3)),
        cadd_rewrite(w, targets),
        split_senders(w, sender, 2, min(targets)),
        partition_counters(cadd_rewrite(w, targets), PartitionSpec(targets, 2, "tx_id")),
    ):
        assert_built_like_public(out)


def test_pruned_graphs_are_built_like_public_ones():
    w = gen_token_distribution(30, senders=1, seed=1)
    g = build_graph(w)
    pruned = prune_edges_probabilistic(g, w, {_sender_balance_key(w)}, "1/2", seed=3)
    public = DependencyGraph(n=pruned.n, edges=pruned.edges, weights=pruned.weights)
    assert g.edges > pruned.edges
    assert pruned == public and repr(pruned) == repr(public) and list(vars(pruned)) == list(vars(public))


@pytest.mark.parametrize(
    "transform",
    [
        lambda w, keys: split_senders(w, w[0].sender, 3, keys[0]),
        lambda w, keys: partition_counters(w, PartitionSpec(frozenset(keys), 4)),
        lambda w, keys: cadd_rewrite(w, keys),
    ],
    ids=["split_senders", "partition_counters", "cadd_rewrite"],
)
def test_transforms_read_the_key_tags_once(monkeypatch, transform):
    # `Workload.key_tags` checks every tag on each read, so a transform reads it once.
    w = gen_token_distribution(40, senders=1, track_total_supply=True, seed=3)
    keys = [StorageKey.parse(k) for k in w.meta["bottleneck_keys"]]
    bad = Workload(transactions=w.transactions, meta={**w.meta, "key_tags": {**w.meta["key_tags"], "c:x": "x"}})
    expected = transform(w, keys)
    checked = Workload.key_tags
    reads = []
    monkeypatch.setattr(Workload, "key_tags", property(lambda self: reads.append(self) or checked.fget(self)))
    out = transform(w, keys)
    assert reads == [w]
    assert out == expected and out.meta == expected.meta
    assert out.meta["key_tags"] != w.meta["key_tags"] or out.meta["transforms"][-1]["transform"] == "cadd_rewrite"
    reads.clear()
    with pytest.raises(ValidationError, match="meta 'key_tags': key 'c:x' has tag 'x'"):
        transform(bad, keys)
    assert reads == [bad]


# ---------------------------------------------------------------------------
# Metadata follows renames: the keys that replace a key take its tag and its
# place among the bottleneck keys
# ---------------------------------------------------------------------------


def test_partition_counters_puts_the_sub_counters_in_the_fee_keys_place():
    w = gen_defi_fee(12, traders=12, seed=3)
    fee = _fee_key(w)
    out = partition_counters(w, PartitionSpec(frozenset({fee}), 3))
    subs = [str(sub_counter_key(fee, j)) for j in range(3)]
    assert out.meta["bottleneck_keys"] == subs
    assert all(out.meta["key_tags"][key] == w.key_tags[str(fee)] for key in subs)


def test_split_senders_puts_the_derived_balances_in_the_sender_keys_place():
    w = gen_token_distribution(12, senders=1, track_total_supply=True, seed=2)
    balance, supply = w.meta["bottleneck_keys"]
    out = split_senders(w, w[0].sender, 3, StorageKey.parse(balance))
    assert out.meta["bottleneck_keys"] == [f"{balance}#{j}" for j in range(3)] + [supply]
    assert set(out.meta["bottleneck_keys"]) <= {str(key) for tx in out for key in tx.access.touched()}
    assert all(out.meta["key_tags"][f"{balance}#{j}"] == w.key_tags[balance] for j in range(3))


def test_cadd_rewrite_after_a_split_reaches_the_derived_balances():
    w = gen_token_distribution(12, senders=1, seed=2)
    split = split_senders(w, w[0].sender, 3, _sender_balance_key(w))
    out = cadd_rewrite(split, {StorageKey.parse(key) for key in split.meta["bottleneck_keys"]})
    assert out.meta["bottleneck_keys"] == split.meta["bottleneck_keys"]  # cadd_rewrite renames nothing
    assert all(len(tx.access.cadds) == 1 and len(tx.access.writes) == 1 for tx in out)


@pytest.mark.parametrize("bad", [5, {"c:a": 1}, ["c:a", 3]])
@pytest.mark.parametrize(
    "transform",
    [
        lambda w, key: split_senders(w, w[0].sender, 2, key),
        lambda w, key: partition_counters(w, PartitionSpec(frozenset({key}), 2)),
    ],
    ids=["split_senders", "partition_counters"],
)
def test_a_renaming_transform_refuses_malformed_bottleneck_keys(transform, bad):
    w = gen_token_distribution(4, senders=1, seed=0)
    key = _sender_balance_key(w)
    bad_w = Workload(transactions=w.transactions, meta={**w.meta, "bottleneck_keys": bad})
    with pytest.raises(ValidationError, match=f"meta 'bottleneck_keys' must be .*, got {re.escape(repr(bad))}$"):
        transform(bad_w, key)
    one = Workload(transactions=w.transactions, meta={**w.meta, "bottleneck_keys": str(key)})  # one key string
    assert transform(one, key).meta["bottleneck_keys"] == transform(w, key).meta["bottleneck_keys"]
