"""Conflict rule and dependency graph tests, checked against the
pairwise and path-enumeration oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpar import (
    AccessSet,
    DependencyGraph,
    StorageKey,
    Transaction,
    ValidationError,
    Workload,
    bound_schedule,
    build_graph,
    cadd_rewrite,
    critical_path,
    gen_payments,
    gen_token_distribution,
    heaviest_from,
    schedule_graph,
)
from txpar.graph import CADD, READ, WRITE, _abort_rule, _accesses, _kind_conflicts, _walk, latest_conflict, latest_writer
from txpar.workload import VALUE_DEPENDENT

from corpus_util import build_corpus
from oracles import (
    CADD_MODES,
    _aborting_keys,
    _written_in_window,
    edges_only_on,
    oracle_conflict,
    oracle_critical_weight,
    oracle_edges,
    oracle_heaviest_from,
    random_dag,
    random_workload,
)

K = StorageKey("c", "K")


def _tx(i, reads=(), writes=(), cadds=(), gas=10):
    return Transaction(
        id=i,
        sender=f"s{i}",
        gas=gas,
        access=AccessSet(frozenset(reads), frozenset(writes), tuple(cadds)),
    )


def _pair(first, second):
    """A two-tx block whose txs have these access sets, in this order."""
    return Workload((Transaction(0, "a", 10, first), Transaction(1, "b", 10, second)))


def _edges(first, second, cadd_aware=False):
    return build_graph(_pair(first, second), cadd_aware).edges


EDGE = {(1, 0)}


def test_write_read_conflicts_in_both_modes():
    a, b = AccessSet(writes={K}), AccessSet(reads={K})
    assert _edges(a, b) == _edges(a, b, cadd_aware=True) == EDGE


def test_disjoint_key_sets_never_conflict():
    a, b = AccessSet(writes={StorageKey("c", "x")}), AccessSet(reads={StorageKey("c", "y")})
    assert _edges(a, b) == _edges(a, b, cadd_aware=True) == set()


def test_cadd_vs_cadd_exempt_only_in_cadd_aware_mode():
    a, b = AccessSet(cadds=[(K, 1)]), AccessSet(cadds=[(K, 2)])
    assert _edges(a, b) == EDGE
    assert _edges(a, b, cadd_aware=True) == set()


def test_cadd_vs_read_conflicts_in_both_modes():
    # Reordering the pair changes the read result, so this must stay an edge.
    a, b = AccessSet(cadds=[(K, 1)]), AccessSet(reads={K})
    assert _edges(a, b) == _edges(a, b, cadd_aware=True) == EDGE
    assert _edges(b, a, cadd_aware=True) == EDGE


def test_write_vs_cadd_conflicts_in_cadd_aware_mode():
    a, b = AccessSet(writes={K}), AccessSet(cadds=[(K, 1)])
    assert _edges(a, b, cadd_aware=True) == _edges(b, a, cadd_aware=True) == EDGE


def test_build_graph_single_sender_clique():
    w = gen_token_distribution(5, senders=1, seed=0)
    g = build_graph(w)
    assert g.edges == frozenset((j, i) for j in range(5) for i in range(j))


def test_build_graph_payments_empty():
    assert build_graph(gen_payments(12, seed=0)).edges == frozenset()


def test_build_graph_four_tx_example_single_edge():
    # 4 txs; tx0 writes an entry read by tx2, others disjoint.
    w = Workload(
        transactions=(
            _tx(0, writes={K}, gas=30),
            _tx(1, writes={StorageKey("c", "a")}, gas=10),
            _tx(2, reads={K}, writes={StorageKey("c", "l")}, gas=10),
            _tx(3, writes={StorageKey("c", "b")}, gas=10),
        )
    )
    g = build_graph(w)
    assert g.edges == frozenset({(2, 0)})
    assert edges_only_on(w, {K}) == {(2, 0)}  # K alone causes the edge
    assert edges_only_on(w, {StorageKey("c", "l")}) == set()


def test_edge_orientation_validated():
    with pytest.raises(ValidationError):
        DependencyGraph(n=3, edges=frozenset({(0, 2)}), weights=(1, 1, 1))


@pytest.mark.parametrize(
    "n, edges, weights",
    [
        (2, {(1.7, 0)}, (3, 1)),
        (2, {(1, 0.0)}, (3, 1)),
        (2, {("1", 0)}, (3, 1)),
        (2, {(1, False)}, (3, 1)),
        (2, {(1, 0)}, (3.9, 1)),
        (2, {(1, 0)}, (3, True)),
        (2, {(1, 0)}, ("3", 1)),
        (2.0, {(1, 0)}, (3, 1)),
        (True, set(), (3,)),
        ("2", {(1, 0)}, (3, 1)),
    ],
)
def test_constructor_refuses_non_integer_ids_and_weights(n, edges, weights):
    with pytest.raises(ValidationError):
        DependencyGraph(n=n, edges=edges, weights=weights)


@pytest.mark.parametrize(
    "data",
    [
        {"n": "x", "weights": [1], "edges": []},
        {"n": 2, "weights": [1, 1], "edges": [[0, 1]]},
        {"n": 2.9, "weights": [1, 1], "edges": []},
        {"n": "2", "weights": [1, 1], "edges": []},
        {"n": True, "weights": [1], "edges": []},
        {"n": 2, "weights": ["3", 1], "edges": []},
        {"n": 2, "weights": [3, True], "edges": []},
        {"n": 2, "weights": [1, 1.5], "edges": []},
        {"n": 2, "weights": [1, 1], "edges": [[1.7, 0]]},
        {"n": 2, "weights": [1, 1], "edges": [[1, False]]},
    ],
    ids=[
        "n_not_an_int",
        "edge_points_forward",
        "n_float",
        "n_numeric_string",
        "n_bool",
        "weight_string",
        "weight_bool",
        "weight_float",
        "edge_end_float",
        "edge_end_bool",
    ],
)
def test_malformed_graph_json_is_a_validation_error(data):
    # Values as json.loads gives them (lists, bools, floats, strings), with
    # each edge pair made a tuple: the constructor refuses every such graph.
    with pytest.raises(ValidationError):
        DependencyGraph(
            n=data["n"],
            edges=frozenset(tuple(e) for e in data["edges"]),
            weights=data["weights"],
        )


def test_constructor_keeps_frozen_inputs_and_freezes_the_rest():
    edges, weights = frozenset({(1, 0)}), (3, 1)
    g = DependencyGraph(n=2, edges=edges, weights=weights)
    assert g.edges is edges and g.weights is weights
    g = DependencyGraph(n=2, edges={(1, 0)}, weights=[3, 1])
    assert (g.edges, g.weights) == (edges, weights)
    assert (type(g.edges), type(g.weights)) == (frozenset, tuple)


def test_critical_path_no_edges_max_vertex():
    g = DependencyGraph(n=3, edges=frozenset(), weights=(5, 7, 3))
    report = critical_path(g)
    assert report.critical_weight == 7
    assert report.critical_path == (1,)
    assert report.total_weight == 15


def test_critical_path_chain():
    g = DependencyGraph(n=3, edges=frozenset({(1, 0), (2, 1)}), weights=(10, 10, 10))
    report = critical_path(g)
    assert report.critical_weight == 30
    assert report.critical_path == (0, 1, 2)


DIAMOND = DependencyGraph(
    n=4,
    edges=frozenset({(1, 0), (2, 0), (3, 1), (3, 2)}),
    weights=(1, 2, 3, 1),
)


def test_critical_path_diamond_matches_enumeration():
    assert oracle_critical_weight(DIAMOND) == 5
    report = critical_path(DIAMOND)
    assert report.critical_weight == 5
    assert report.critical_path == (0, 2, 3)


def test_heaviest_from_examples():
    g = DependencyGraph(n=3, edges=frozenset(), weights=(5, 7, 3))
    assert heaviest_from(g) == (5, 7, 3)
    chain = DependencyGraph(n=3, edges=frozenset({(1, 0), (2, 1)}), weights=(10, 10, 10))
    assert heaviest_from(chain) == (30, 20, 10)
    # Enumeration gives (5, 3, 4, 1) on the diamond: tx1 heads only 1->3.
    assert oracle_heaviest_from(DIAMOND) == [5, 3, 4, 1]
    assert heaviest_from(DIAMOND) == (5, 3, 4, 1)


def test_build_graph_matches_pairwise_oracle():
    rng = random.Random(20240)
    for trial in range(120):
        w = random_workload(rng, max_n=20)
        for cadd_aware in CADD_MODES:
            assert build_graph(w, cadd_aware).edges == frozenset(oracle_edges(w, cadd_aware)), (trial, cadd_aware)


def test_build_graph_matches_oracle_on_wider_instances():
    rng = random.Random(77)
    for _ in range(15):
        w = random_workload(rng, max_n=64, key_pool=12)
        assert build_graph(w).edges == frozenset(oracle_edges(w))


def test_critical_weight_matches_enumeration_on_small_dags():
    rng = random.Random(99)
    from oracles import random_dag

    for _ in range(200):
        g = random_dag(rng, max_n=12 if rng.random() < 0.2 else 7)
        assert critical_path(g).critical_weight == oracle_critical_weight(g)
        assert list(heaviest_from(g)) == oracle_heaviest_from(g)


def test_critical_path_is_a_real_path_with_matching_weight():
    rng = random.Random(123)
    from oracles import random_dag

    for _ in range(100):
        g = random_dag(rng, max_n=10)
        report = critical_path(g)
        assert list(report.critical_path) == sorted(report.critical_path)
        assert sum(g.weights[i] for i in report.critical_path) == report.critical_weight
        for a, b in zip(report.critical_path, report.critical_path[1:]):
            assert (b, a) in g.edges


def test_removing_an_edge_never_increases_critical_weight():
    rng = random.Random(7)
    from oracles import random_dag

    for _ in range(100):
        g = random_dag(rng, max_n=9)
        if not g.edges:
            continue
        drop = rng.choice(sorted(g.edges))
        smaller = DependencyGraph(n=g.n, edges=g.edges - {drop}, weights=g.weights)
        assert critical_path(smaller).critical_weight <= critical_path(g).critical_weight


def test_cadd_aware_edges_subset_of_plain():
    rng = random.Random(55)
    for _ in range(80):
        w = random_workload(rng, max_n=16)
        assert build_graph(w, True).edges <= build_graph(w, False).edges


# ---------------------------------------------------------------------------
# Per-key access index
# ---------------------------------------------------------------------------

_KEYS = [StorageKey("c", f"k{i}") for i in range(5)]
_key_sets = st.frozensets(st.sampled_from(_KEYS), max_size=3)
_access_sets = st.builds(
    AccessSet,
    reads=_key_sets,
    writes=_key_sets,
    cadds=st.lists(st.tuples(st.sampled_from(_KEYS), st.integers(-3, 3)), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_access_sets, _access_sets)
def test_conflicts_matches_the_per_key_oracle(x, y):
    """`build_graph` draws a two-tx block's one edge exactly when the per-key
    oracle finds a conflict, in both modes and both orders."""
    for first, second in ((x, y), (y, x)):
        for cadd_aware in CADD_MODES:
            expected = EDGE if oracle_conflict(*_pair(first, second), cadd_aware) else set()
            assert _edges(first, second, cadd_aware) == expected, cadd_aware


def _one_key_tx(i, mask):
    """A tx touching only K, with the accesses of kind mask `mask`."""
    return _tx(i, reads={K} if mask & READ else (), writes={K} if mask & WRITE else (), cadds=[(K, 1)] if mask & CADD else ())


@pytest.mark.parametrize("cadd_aware", CADD_MODES)
def test_kind_tables_match_the_oracles_on_every_pair_of_masks(cadd_aware):
    conflict, abort = _kind_conflicts(cadd_aware), _abort_rule(cadd_aware)
    for later in range(1, 8):
        for earlier in range(1, 8):
            a, b = _one_key_tx(0, earlier), _one_key_tx(1, later)
            assert conflict[later][earlier] == oracle_conflict(b, a, cadd_aware), (later, earlier)
            # b aborts on a commit of a inside its window (-1, 1)
            aborts = _written_in_window(Workload(transactions=(a, b)), _aborting_keys(b, cadd_aware), -1, 1)
            assert abort[later][earlier] == aborts, (later, earlier)


def test_key_index_matches_the_access_sets():
    rng = random.Random(31)
    for _ in range(40):
        w = random_workload(rng, max_n=20)
        accesses = _accesses(w)
        assert _accesses(w) is accesses is w._memo["accesses"]  # one pass per workload
        assert set(accesses) == set().union(*(tx.access.touched() for tx in w))
        for key, kinds in accesses.items():
            assert [i for i, kind in kinds if kind & READ] == [tx.id for tx in w if key in tx.access.reads]
            assert [i for i, kind in kinds if kind & WRITE] == [tx.id for tx in w if key in tx.access.writes]
            assert [i for i, kind in kinds if kind & CADD] == [tx.id for tx in w if key in tx.access.cadd_keys]
            expected = [
                (tx.id, READ * (key in tx.access.reads) | WRITE * (key in tx.access.writes) | CADD * (key in tx.access.cadd_keys))
                for tx in w
            ]
            assert kinds == [(i, kind) for i, kind in expected if kind]


def test_adjacency_is_cached_sorted_and_immutable():
    rng = random.Random(8)
    for _ in range(50):
        g = random_dag(rng, max_n=12)
        deps = g.dependents()
        assert deps == tuple(tuple(sorted(j for j, i in g.edges if i == x)) for x in range(g.n))
        assert g.dependents() is deps
        assert g == DependencyGraph(n=g.n, edges=g.edges, weights=g.weights)
    with pytest.raises(TypeError):
        deps[0] = (1,)
    with pytest.raises(AttributeError):
        g.dependents()[0].append(0)


# ---------------------------------------------------------------------------
# Compact schedule graph: the same reachability, schedules and pair count
# ---------------------------------------------------------------------------


def _reachable(g):
    """Per id, the bitset of every id it transitively depends on."""
    below = [0] * g.n
    for j, i in sorted(g.edges):  # every id below j is final by then
        below[j] |= below[i] | 1 << i
    return below


def _max_predecessor(g):
    out = [-1] * g.n
    for j, i in g.edges:
        out[j] = max(out[j], i)
    return tuple(out)


def _assert_schedule_graph_matches(w):
    for cadd_aware in CADD_MODES:
        full = build_graph(w, cadd_aware)
        compact, pairs = schedule_graph(w, cadd_aware)
        assert compact.edges <= full.edges, cadd_aware
        assert _reachable(compact) == _reachable(full), cadd_aware
        assert _max_predecessor(compact) == _max_predecessor(full), cadd_aware
        assert latest_conflict(w, _kind_conflicts(cadd_aware)) == _max_predecessor(full), cadd_aware
        assert critical_path(compact) == critical_path(full), cadd_aware
        for threads in (1, 2, 3, 8):
            assert bound_schedule(compact, threads) == bound_schedule(full, threads), (cadd_aware, threads)
        assert pairs == len(full.edges), cadd_aware


weighted_workloads = st.lists(st.tuples(_access_sets, st.integers(1, 6)), min_size=1, max_size=16).map(
    lambda txs: Workload(
        transactions=tuple(Transaction(id=i, sender="s", gas=gas, access=a) for i, (a, gas) in enumerate(txs))
    )
)


@settings(max_examples=300, deadline=None)
@given(weighted_workloads)
def test_schedule_graph_matches_build_graph(w):
    _assert_schedule_graph_matches(w)


def test_schedule_graph_matches_build_graph_on_corpus_and_cadd_variants():
    for w in build_corpus(40):
        _assert_schedule_graph_matches(w)
        tags = w.key_tags
        for key in w.meta.get("bottleneck_keys", []):
            if tags.get(key) != VALUE_DEPENDENT:
                _assert_schedule_graph_matches(cadd_rewrite(w, {StorageKey.parse(key)}))


def _kind(tx, key):
    access = tx.access
    return READ * (key in access.reads) | WRITE * (key in access.writes) | CADD * (key in access.cadd_keys)


def _scanned_pairs(w, rule):
    """Per tx, the bitset of earlier txs it pairs with under `rule` on some
    shared key, scanned pair by pair from the access sets."""
    txs = list(w)
    out = [0] * len(txs)
    for later in txs:
        for earlier in txs[: later.id]:
            shared = later.access.touched() & earlier.access.touched()
            if any(rule[_kind(later, key)][_kind(earlier, key)] for key in shared):
                out[later.id] |= 1 << earlier.id
    return out


def _graph_of(w, bitsets):
    edges = frozenset((j, i) for j, mask in enumerate(bitsets) for i in range(j) if mask >> i & 1)
    return DependencyGraph(n=len(w), edges=edges, weights=tuple(tx.gas for tx in w))


def _assert_walk_under_the_abort_rule(w):
    """The walk under the engines' read-after-write rule, which is not
    symmetric: its full bitsets are the pair scan's, its kept ones reach the
    same ids, and each tx's highest kept bit is its latest writer."""
    for cadd_aware in CADD_MODES:
        rule = _abort_rule(cadd_aware)
        full, kept = _walk(_accesses(w).values(), len(w), rule)
        assert full == _scanned_pairs(w, rule), cadd_aware
        assert all(k & ~f == 0 for k, f in zip(kept, full)), cadd_aware
        assert _reachable(_graph_of(w, kept)) == _reachable(_graph_of(w, full)), cadd_aware
        assert tuple(mask.bit_length() - 1 for mask in kept) == latest_writer(w, cadd_aware), cadd_aware


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_walk_under_the_abort_rule_matches_a_pair_scan(seed):
    _assert_walk_under_the_abort_rule(random_workload(random.Random(seed)))


def test_walk_under_the_abort_rule_on_corpus_blocks():
    for w in build_corpus(12):  # n 27 to 189
        _assert_walk_under_the_abort_rule(w)


def _assert_graph_built_like_public(g):
    """`g` equals, hashes and prints like the graph the public constructor
    builds from its fields, with its fields in the same order."""
    public = DependencyGraph(n=g.n, edges=g.edges, weights=g.weights)
    assert type(g.edges) is frozenset and type(g.weights) is tuple and type(g.n) is int
    assert g == public and hash(g) == hash(public) and repr(g) == repr(public)
    assert list(vars(g).items()) == list(vars(public).items())


@settings(max_examples=100, deadline=None)
@given(weighted_workloads)
def test_graphs_are_built_like_public_ones(w):
    for cadd_aware in CADD_MODES:
        _assert_graph_built_like_public(build_graph(w, cadd_aware))
        _assert_graph_built_like_public(schedule_graph(w, cadd_aware)[0])


def test_graphs_of_corpus_blocks_are_built_like_public_ones():
    for w in build_corpus(10) + [gen_token_distribution(50, senders=1, track_total_supply=True, seed=3)]:
        for cadd_aware in CADD_MODES:
            full = build_graph(w, cadd_aware)
            assert full.edges
            _assert_graph_built_like_public(full)
            _assert_graph_built_like_public(schedule_graph(w, cadd_aware)[0])
            assert full.dependents() == DependencyGraph(full.n, full.edges, full.weights).dependents()


def _alternating_block(n):
    """Even ids read one key and odd ids cadd it: cadd-aware, each reader
    conflicts with every earlier cadder and each cadder with every earlier
    reader, so half of all pairs conflict."""
    return Workload(
        transactions=tuple(
            Transaction(id=i, sender="s", gas=1, access=AccessSet(cadds=((K, 1),)) if i % 2 else AccessSet(reads={K}))
            for i in range(n)
        )
    )


@pytest.mark.parametrize(
    "block, cadd_aware, n, expected_pairs",
    [
        (lambda n: gen_token_distribution(n, senders=1, track_total_supply=True, seed=0), False, 2000, 2000 * 1999 // 2),
        (_alternating_block, True, 200, 200 * 200 // 4),
    ],
    ids=["token_distribution", "alternating_read_cadd"],
)
def test_schedule_graph_of_a_hot_key_block_is_linear(block, cadd_aware, n, expected_pairs):
    compact, pairs = schedule_graph(block(n), cadd_aware)
    assert len(compact.edges) < 2 * n
    assert pairs == expected_pairs  # token_distribution: every pair shares the sender's balance
    assert critical_path(compact).critical_path == tuple(range(n))
