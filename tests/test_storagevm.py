"""Versioned storage engine and serial-oracle tests."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpar import (
    AccessSet,
    ExecAttempt,
    InvariantViolation,
    JitterTiming,
    OccRunResult,
    StorageKey,
    StorageState,
    SvPolicy,
    Transaction,
    TxVm,
    ValidationError,
    Workload,
    cadd_rewrite,
    commit,
    exec_abstract,
    gen_defi_fee,
    gen_token_distribution,
    replay_check,
    replay_digest,
    replay_final_state,
    run_occ_classic,
    run_occ_da,
    run_occ_det_commit,
    run_serial,
    serial_final_state,
    storagevm,
    write_value,
)
from txpar.workload import VALUE_DEPENDENT

from corpus_util import build_corpus

K = StorageKey("c", "K")
L = StorageKey("c", "L")


def _tx(i, reads=(), writes=(), cadds=(), gas=10):
    return Transaction(
        id=i,
        sender=f"s{i}",
        gas=gas,
        access=AccessSet(frozenset(reads), frozenset(writes), tuple(cadds)),
    )


def test_plain_write_uses_published_value_function():
    state = StorageState()
    tx = _tx(0, writes={K})
    effect = exec_abstract(tx, -1, state)
    assert effect.read_log == []
    assert effect.write_buffer == {K: write_value(0, K, [])}


def test_double_cadd_accumulates_and_commits_sum():
    state = StorageState()
    tx = _tx(0, cadds=[(K, 5), (K, 5)])
    effect = exec_abstract(tx, -1, state)
    assert effect.pending_cadds == {K: [5, 5]}
    commit(effect, 0, state)
    assert state.latest(K) == 10


def test_store_erases_pending_cadds():
    # Op-sequence semantics: a later store overwrites buffered adds.
    vm = TxVm(StorageState(), -1)
    vm.cadd(K, 3)
    vm.store(K, 7)
    assert vm.effect.pending_cadds == {}
    assert vm.effect.write_buffer == {K: 7}


def test_load_folds_pending_cadds_and_reclassifies():
    state = StorageState()
    commit_tx(state, 0, {K: 40})
    vm = TxVm(state, 0)
    vm.cadd(K, 2)
    vm.cadd(K, 3)
    assert vm.load(K) == 45
    # pending adds became a read+write with the folded value
    assert vm.effect.pending_cadds == {}
    assert vm.effect.write_buffer == {K: 45}
    assert vm.effect.read_log == [(K, 45, 0)]


def commit_tx(state, version, values):
    effect = exec_abstract(_tx(version), version - 1, state)
    effect.write_buffer.update(values)
    commit(effect, version, state)


def test_read_your_own_write_skips_snapshot():
    vm = TxVm(StorageState(), -1)
    vm.store(K, 9)
    assert vm.load(K) == 9
    assert vm.effect.read_log == []


def test_snapshot_reads_respect_version():
    state = StorageState()
    commit_tx(state, 0, {K: 10})
    commit_tx(state, 1, {K: 20})
    assert state.read(K, -1) == (0, -1)
    assert state.read(K, 0) == (10, 0)
    assert state.read(K, 1) == (20, 1)
    assert state.read(K, 5) == (20, 1)


def test_commit_version_regression_rejected():
    state = StorageState()
    commit_tx(state, 1, {K: 10})
    with pytest.raises(InvariantViolation):
        commit_tx(state, 0, {K: 5})


def test_two_cadders_commute_across_execution_order():
    # Same commit versions, either internal execution order: same final sum.
    txs = [_tx(0, cadds=[(K, 1)]), _tx(1, cadds=[(K, 1)])]
    digests = set()
    for order in itertools.permutations(txs):
        state = StorageState()
        effects = {tx.id: exec_abstract(tx, -1, state) for tx in order}
        for version in sorted(effects):
            commit(effects[version], version, state)
        assert state.latest(K) == 2
        digests.add(state.digest())
    assert len(digests) == 1


def test_cadd_permutations_match_serial_sum():
    deltas = [3, -1, 5, 2]
    txs = [_tx(i, cadds=[(K, d)]) for i, d in enumerate(deltas)]
    for order in itertools.permutations(range(len(txs))):
        state = StorageState()
        effects = {}
        for idx in order:
            effects[idx] = exec_abstract(txs[idx], -1, state)
        for version in sorted(effects):
            commit(effects[version], version, state)
        assert state.latest(K) == sum(deltas)


def test_write_then_cadd_final_value():
    state = StorageState()
    w = _tx(0, writes={K})
    commit(exec_abstract(w, -1, state), 0, state)
    written = state.latest(K)
    adder = _tx(1, cadds=[(K, 4)])
    commit(exec_abstract(adder, 0, state), 1, state)
    assert state.latest(K) == written + 4


def test_empty_effect_commit_is_noop():
    state = StorageState()
    commit_tx(state, 0, {K: 1})
    before = state.digest()
    commit(exec_abstract(_tx(1), 0, state), 1, state)
    assert state.digest() == before


def test_run_serial_empty_and_digest_stability():
    assert run_serial(Workload()) == run_serial(Workload())
    assert run_serial(Workload()) != run_serial(gen_token_distribution(1, seed=0))


def test_serial_digest_equals_occ_da_digest():
    w = gen_token_distribution(5, senders=2, track_total_supply=True, seed=2)
    result = run_occ_da(w, 2)
    assert replay_digest(w, result) == run_serial(w)
    assert replay_check(w, result)


def test_defi_fee_cadd_rewrite_counts_n_deltas():
    w = gen_defi_fee(6, traders=6, seed=1)
    fee = StorageKey.parse(w.meta["bottleneck_keys"][0])
    rewritten = cadd_rewrite(w, {fee})
    state = serial_final_state(rewritten)
    assert state.latest(fee) == 6  # tagged delta is +1 per trade


def test_replay_check_edge_free_classic():
    from txpar import run_occ_classic

    w = gen_token_distribution(6, senders=6, seed=4)
    result = run_occ_classic(w, 3, interleaving_seed=11)
    assert replay_check(w, result)


def test_replay_check_detects_corrupted_sv():
    # tx1 reads K (written by tx0) and writes L. Forging its snapshot back to
    # -1 makes it observe the pre-block K, so its written L value diverges.
    w = Workload(
        transactions=(
            _tx(0, writes={K}),
            _tx(1, reads={K}, writes={L}),
        )
    )
    honest = run_occ_da(w, 1)
    assert replay_check(w, honest)
    committed = {a.tx_id: a for a in honest.attempts if a.outcome == "committed"}
    forged_attempts = tuple(
        ExecAttempt(a.tx_id, a.attempt, -1 if a.tx_id == 1 else a.sv, a.start, a.end, a.outcome)
        for a in honest.attempts
    )
    forged = OccRunResult(
        mode=honest.mode,
        threads=honest.threads,
        policy=honest.policy,
        attempts=forged_attempts,
        makespan=honest.makespan,
        committed_order=honest.committed_order,
        wasted_gas=honest.wasted_gas,
        serial_cost=honest.serial_cost,
        speedup=honest.speedup,
    )
    assert committed[1].sv == 0  # honest run saw tx0's write
    assert replay_check(w, forged) is False


def test_replay_check_rejects_dangling_attempts():
    w = Workload(transactions=(_tx(0, writes={K}),))
    result = run_occ_da(w, 1)
    bad = OccRunResult(
        mode=result.mode,
        threads=result.threads,
        policy=result.policy,
        attempts=(ExecAttempt(5, 0, -1, 0, 10, "committed"),),
        makespan=result.makespan,
        committed_order=(5,),
        wasted_gas=0,
        serial_cost=result.serial_cost,
        speedup=result.speedup,
    )
    with pytest.raises(ValidationError):
        replay_check(w, bad)


def _committed_run(workload, mode, svs=(), order=()):
    """A run committing each tx once: at `svs[i]` in id order, or, for
    classic, in `order`."""
    n = len(workload)
    if mode == "occ-classic":
        attempts = tuple(ExecAttempt(tx_id, 0, pos - 1, pos, pos + 1, "committed") for pos, tx_id in enumerate(order))
        committed_order = tuple(order)
    else:
        attempts = tuple(ExecAttempt(i, 0, sv, 0, 1, "committed") for i, sv in enumerate(svs))
        committed_order = tuple(range(n))
    return OccRunResult(
        mode=mode,
        threads=1,
        policy="test",
        attempts=attempts,
        makespan=n,
        committed_order=committed_order,
        wasted_gas=0,
        serial_cost=n,
        speedup=1.0,
    )


def test_replay_check_rejects_snapshots_at_or_after_own_commit():
    # A committed attempt may only observe commits of lower ids.
    w = Workload(transactions=(_tx(0, writes={K}), _tx(1, reads={K}, writes={L})))
    assert replay_check(w, _committed_run(w, "occ-da", svs=[-1, 0]))
    for svs in ([-1, 1], [0, 0], [1, -1]):
        with pytest.raises(ValidationError, match="storage version"):
            replay_check(w, _committed_run(w, "occ-da", svs=svs))


def test_snapshot_discipline_no_read_above_sv():
    rng = random.Random(88)
    from oracles import random_workload

    for _ in range(40):
        w = random_workload(rng, max_n=16, with_cadds=False)
        result = run_occ_da(w, 3)
        state = StorageState()
        committed = sorted(
            (a for a in result.attempts if a.outcome == "committed"), key=lambda a: a.tx_id
        )
        for attempt in committed:
            effect = exec_abstract(w[attempt.tx_id], attempt.sv, state)
            for _, _, version in effect.read_log:
                assert version <= attempt.sv
            commit(effect, attempt.tx_id, state)


# ---------------------------------------------------------------------------
# The compiled replay plan against the interpreter (`exec_abstract` + `commit`)
# ---------------------------------------------------------------------------


def _interpreted(workload, steps):
    """The normative path: one `exec_abstract` + `commit` per (tx, sv,
    version) step."""
    state = StorageState()
    for tx_id, sv, version in steps:
        commit(exec_abstract(workload[tx_id], sv, state), version, state)
    return state


def _contents(state):
    """Every committed (version, value) per key, and the last version."""
    return state.max_version, {key: (list(versions), list(values)) for key, (versions, values) in state._committed.items()}


def _text_digest(state):
    """`StorageState.digest` as specified: sha256 over `key value` lines in
    key order, with each key in its text form."""
    lines = "\n".join(f"{key} {value}" for key, value in state.items())
    return hashlib.sha256(lines.encode()).hexdigest()


def _assert_plan_matches_interpreter(workload, svs, order):
    n = len(workload)
    serial = _interpreted(workload, [(i, i - 1, i) for i in range(n)])
    assert _contents(serial_final_state(workload)) == _contents(serial)
    assert run_serial(workload) == serial.digest() == _text_digest(serial)
    cases = [
        ("occ-da", [(i, sv, i) for i, sv in enumerate(svs)]),
        ("occ-classic", [(tx_id, pos - 1, pos) for pos, tx_id in enumerate(order)]),
    ]
    for mode, steps in cases:
        expected = _interpreted(workload, steps)
        replayed = replay_final_state(workload, _committed_run(workload, mode, svs=svs, order=order))
        assert _contents(replayed) == _contents(expected), mode
        assert replayed.digest() == _text_digest(expected), mode


# Contracts "c" and "c-d" sort one way as tuples and the other way as text.
_KEYS = [K, L, StorageKey("c-d", "K"), StorageKey("d", "x:y")]
_key_sets = st.frozensets(st.sampled_from(_KEYS))
_accesses = st.builds(
    AccessSet,
    reads=_key_sets,
    writes=_key_sets,
    cadds=st.lists(st.tuples(st.sampled_from(_KEYS), st.integers(-5, 5)), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_plan_matches_interpreter(data):
    # Keys land in reads and cadds, writes and cadds, and repeat among a
    # tx's cadds; snapshots and classic commit orders are arbitrary.
    accesses = data.draw(st.lists(_accesses, max_size=12))
    w = Workload(transactions=tuple(Transaction(i, "s", 1, a) for i, a in enumerate(accesses)))
    svs = [data.draw(st.integers(-1, i - 1)) for i in range(len(w))]
    order = data.draw(st.permutations(range(len(w))))
    _assert_plan_matches_interpreter(w, svs, order)


def test_replay_plan_matches_interpreter_on_corpus_and_cadd_variants():
    rng = random.Random(6)
    for w in build_corpus(20):
        variants = [w]
        for key in w.meta.get("bottleneck_keys", []):
            if w.key_tags.get(key) != VALUE_DEPENDENT:
                variants.append(cadd_rewrite(w, {StorageKey.parse(key)}))
        for v in variants:
            n = len(v)
            order = list(range(n))
            rng.shuffle(order)
            _assert_plan_matches_interpreter(v, [rng.randint(-1, i - 1) for i in range(n)], order)
            for result in (run_occ_da(v, 8, cadd_aware=True), run_occ_det_commit(v, 8), run_occ_classic(v, 8)):
                steps = [(tx_id, pos - 1, pos) for pos, tx_id in enumerate(result.committed_order)]
                if result.mode != "occ-classic":
                    steps = sorted((a.tx_id, a.sv, a.tx_id) for a in result.attempts if a.outcome == "committed")
                assert replay_digest(v, result) == _interpreted(v, steps).digest(), result.mode


def test_serial_digest_is_memoized_per_object(monkeypatch):
    w1 = gen_defi_fee(12, traders=3, seed=5)
    w2 = Workload(transactions=w1.transactions)
    assert w1 == w2 and w1 is not w2
    expected = _interpreted(w1, [(i, i - 1, i) for i in range(len(w1))]).digest()
    executed = []
    serial = storagevm.serial_final_state
    monkeypatch.setattr(storagevm, "serial_final_state", lambda w: executed.append(w) or serial(w))
    assert run_serial(w1) == expected
    assert run_serial(w1) == expected
    assert len(executed) == 1 and executed[0] is w1
    # An equal but distinct object keeps its own memo and executes once.
    assert run_serial(w2) == expected
    assert len(executed) == 2 and executed[1] is w2

    # The version floors live in the serial table with the serial digest:
    # w1's came with its `run_serial` above, and a `replace` copy, whose memo
    # starts empty, builds both once.
    result = run_occ_da(w1, 4)
    assert replay_check(w1, result) and replay_check(w1, result)
    assert len(executed) == 2
    w3 = dataclasses.replace(w1)
    assert replay_check(w3, result)
    assert len(executed) == 3 and executed[2] is w3
    assert _kept(w3, "serial") == _kept(w1, "serial")
    assert _kept(w3, "replay_plan") is storagevm._plan(w3) is not storagevm._plan(w1)


def _kept(workload, name):
    """The table `name` that `workload` has already derived; fails if it was never built."""
    return workload.derived(name, lambda w: pytest.fail(f"{name} was never built"))


# ---------------------------------------------------------------------------
# `replay_digest`: the version-floor proof against the full replay
# ---------------------------------------------------------------------------


def _full_replay_digest(workload, svs):
    """The digest of replaying every attempt, without the floor proof."""
    return storagevm._replay(zip(storagevm._plan(workload), svs, range(len(workload)))).digest()


def _assert_floor_digest_matches_replay(workload, svs):
    for mode in ("occ-da", "occ-det-commit"):
        run = _committed_run(workload, mode, svs=svs)
        assert replay_digest(workload, run) == _full_replay_digest(workload, svs), (mode, svs)


def test_floor_counts_cadd_versions_and_read_keys_the_tx_writes():
    # tx0 cadds K; tx1 reads K and writes L; tx2 reads and writes L. A stale
    # tx1 misses a cadd version, a stale tx2 a key it also writes.
    w = Workload(
        transactions=(
            _tx(0, cadds=[(K, 3)]),
            _tx(1, reads={K}, writes={L}),
            _tx(2, reads={L}, writes={L}),
        )
    )
    assert storagevm._serial_reference(w)[1] == [-1, 0, 1]
    for svs in ([-1, 0, 1], [-1, -1, 1], [-1, 0, 0], [-1, -1, -1]):
        _assert_floor_digest_matches_replay(w, svs)
    assert replay_check(w, _committed_run(w, "occ-da", svs=[-1, 0, 1]))
    assert not replay_check(w, _committed_run(w, "occ-da", svs=[-1, -1, 1]))
    assert not replay_check(w, _committed_run(w, "occ-da", svs=[-1, 0, 0]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_digest_matches_full_replay(data):
    # Arbitrary storage versions, so most runs diverge from serial; keys land
    # in one tx's cadds and a later tx's reads, and in a tx's reads and writes.
    accesses = data.draw(st.lists(_accesses, max_size=12))
    w = Workload(transactions=tuple(Transaction(i, "s", 1, a) for i, a in enumerate(accesses)))
    svs = [data.draw(st.integers(-1, i - 1)) for i in range(len(w))]
    _assert_floor_digest_matches_replay(w, svs)


def _corpus_variants(count):
    for w in build_corpus(count):
        yield w
        for key in w.meta.get("bottleneck_keys", []):
            if w.key_tags.get(key) != VALUE_DEPENDENT:
                yield cadd_rewrite(w, {StorageKey.parse(key)})


def test_replay_digest_matches_full_replay_on_corpus_and_cadd_variants():
    rng = random.Random(16)
    for v in _corpus_variants(20):
        n = len(v)
        _assert_floor_digest_matches_replay(v, [rng.randint(-1, i - 1) for i in range(n)])
        # Stale by one version on a random tx that reads: these mostly diverge.
        _assert_floor_digest_matches_replay(v, [max(-1, i - 2) if rng.random() < 0.2 else i - 1 for i in range(n)])
        for cadd_aware in (False, True):
            for result in (run_occ_da(v, 8, cadd_aware=cadd_aware), run_occ_det_commit(v, 8, cadd_aware)):
                svs = [a.sv for a in sorted(a for a in result.attempts if a.outcome == "committed")]
                assert replay_digest(v, result) == _full_replay_digest(v, svs) == run_serial(v), result.mode
        # Classic runs take no proof: their digest is the commit-order replay's.
        for seed in (0, 1):
            result = run_occ_classic(v, 8, seed)
            assert replay_digest(v, result) == replay_final_state(v, result).digest()


def test_correct_deterministic_runs_never_replay(monkeypatch):
    # A check that is too strict only falls back, and the fallback keeps every
    # digest equal; so correct runs must take the proof, never the replay.
    variants = list(_corpus_variants(20))
    for v in variants:
        run_serial(v)

    def replay(workload, result):
        raise AssertionError(f"{result.mode} run fell back to the full replay")

    monkeypatch.setattr(storagevm, "replay_final_state", replay)
    for index, v in enumerate(variants):
        for cadd_aware in (False, True):
            runs = [
                run_occ_da(v, 8, SvPolicy.minus_one(), cadd_aware),
                run_occ_da(v, 8, SvPolicy.from_workload(v, cadd_aware), cadd_aware),
                run_occ_da(v, 3, SvPolicy.from_workload(v, cadd_aware), cadd_aware, timing=JitterTiming(index)),
                run_occ_det_commit(v, 8, cadd_aware),
                run_occ_det_commit(v, 3, cadd_aware, timing=JitterTiming(index)),
            ]
            for result in runs:
                assert replay_digest(v, result) == run_serial(v), result.mode
                assert replay_check(v, result), result.mode
