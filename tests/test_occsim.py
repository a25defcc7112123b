"""OCC scheduler tests: the three determinism levels, the deterministic-abort
invariant, and serial equivalence."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpar import (
    AccessSet,
    FixedTiming,
    JitterTiming,
    StorageKey,
    SvPolicy,
    Timing,
    Transaction,
    ValidationError,
    Workload,
    bound_schedule,
    brute_force_makespan,
    build_graph,
    cadd_rewrite,
    determinism_probe,
    gen_defi_fee,
    gen_mixed,
    gen_nft_mint,
    gen_payments,
    gen_token_distribution,
    replay_check,
    replay_digest,
    run_occ_classic,
    run_occ_da,
    run_occ_det_commit,
)

from corpus_util import build_corpus
from oracles import oracle_occ_classic, oracle_occ_da_outcomes, oracle_run_in_order, random_workload
from txpar import occsim, storagevm
from txpar.graph import _abort_rule, latest_conflict, latest_writer
from txpar.workload import VALUE_DEPENDENT

K = StorageKey("c", "K")
L = StorageKey("c", "L")


def _tx(i, gas, reads=(), writes=(), cadds=()):
    return Transaction(
        id=i,
        sender=f"s{i}",
        gas=gas,
        access=AccessSet(frozenset(reads), frozenset(writes), tuple(cadds)),
    )


def four_tx_example(gas0=30):
    """tx0 writes an entry that tx2 reads; tx2 also writes a private key so
    order divergence shows up in state digests. tx1/tx3 are independent."""
    return Workload(
        transactions=(
            _tx(0, gas0, writes={K}),
            _tx(1, 10, writes={StorageKey("c", "a")}),
            _tx(2, 10, reads={K}, writes={L}),
            _tx(3, 10, writes={StorageKey("c", "b")}),
        )
    )


def chain_workload(n, gas=10):
    shared = StorageKey("c", "x")
    return Workload(
        transactions=tuple(_tx(i, gas, reads={shared}, writes={shared}) for i in range(n))
    )


# ---------------------------------------------------------------------------
# OCC-DA
# ---------------------------------------------------------------------------


def test_occ_da_four_tx_example_single_deterministic_abort():
    w = four_tx_example()
    result = run_occ_da(w, 2)
    assert result.outcome_multiset() == (
        (0, 0, -1, "committed"),
        (1, 0, -1, "committed"),
        (2, 0, -1, "aborted"),
        (2, 1, 1, "committed"),
        (3, 0, -1, "committed"),
    )
    assert result.makespan == 40
    assert result.wasted_gas == 10
    assert result.committed_order == (0, 1, 2, 3)
    assert replay_check(w, result)


def test_occ_da_abort_pattern_survives_any_pool_timing():
    w = four_tx_example()
    baseline = run_occ_da(w, 2).outcome_multiset()
    for trial in range(30):
        jittered = run_occ_da(w, 2, timing=JitterTiming(seed=trial))
        assert jittered.outcome_multiset() == baseline


def test_occ_da_edge_free_no_aborts():
    w = gen_payments(12, seed=0)
    for threads in (1, 3, 32):
        result = run_occ_da(w, threads)
        assert result.aborted() == ()
        assert result.committed_order == tuple(range(12))


def test_single_thread_chain_det_commit_degenerates_to_serial():
    # One slot means every dispatch already sees all earlier commits.
    w = chain_workload(5)
    result = run_occ_det_commit(w, 1)
    assert result.aborted() == ()
    assert result.makespan == w.serial_gas()
    assert replay_check(w, result)


def test_occ_da_minus_one_aborts_do_not_depend_on_thread_count():
    # Under the pre-block-snapshot policy a dependent tx aborts once even on
    # one thread: its first attempt must not observe committed writes above
    # its assigned storage version. The full outcome multiset is identical
    # for every pool size; only the makespan varies.
    w = chain_workload(5)
    single = run_occ_da(w, 1)
    assert len(single.aborted()) == 4  # every tx after the first retries once
    assert replay_check(w, single)
    for threads in (2, 8, 32):
        assert run_occ_da(w, threads).outcome_multiset() == single.outcome_multiset()


def test_occ_da_perfect_graph_policy_avoids_all_aborts():
    w = chain_workload(3)
    policy = SvPolicy.from_graph(build_graph(w))
    for threads in (1, 2, 4):
        result = run_occ_da(w, threads, policy)
        assert result.aborted() == ()
        assert result.makespan == w.serial_gas()  # each tx waits for its snapshot
        assert replay_check(w, result)


def test_occ_da_at_most_two_attempts_under_minus_one():
    rng = random.Random(5)
    from oracles import oracle_occ_classic, random_workload

    for _ in range(40):
        w = random_workload(rng, max_n=20)
        result = run_occ_da(w, rng.randint(1, 4))
        per_tx = {}
        for a in result.attempts:
            per_tx.setdefault(a.tx_id, []).append(a)
        for tx_id, attempts in per_tx.items():
            attempts.sort(key=lambda a: a.attempt)
            assert len(attempts) <= 2
            assert [a.attempt for a in attempts] == list(range(len(attempts)))
            # all but the last aborted; the last committed
            assert all(a.outcome == "aborted" for a in attempts[:-1])
            assert attempts[-1].outcome == "committed"
            if len(attempts) == 2:
                assert attempts[1].sv == tx_id - 1


def test_occ_da_wasted_gas_accounting():
    rng = random.Random(6)
    from oracles import oracle_occ_classic, random_workload

    for _ in range(30):
        w = random_workload(rng, max_n=20)
        result = run_occ_da(w, 3)
        total_attempt_gas = sum(w[a.tx_id].gas for a in result.attempts)
        committed_gas = sum(w[a.tx_id].gas for a in result.attempts if a.outcome == "committed")
        assert result.wasted_gas + committed_gas == total_attempt_gas
        assert committed_gas == w.serial_gas()


@pytest.mark.parametrize(
    "table",
    [
        (-1, 1, 0),  # sv >= id
        (-1, 0, -2),  # sv < -1
        (-1, 0.0, 1),  # a float
        (-1, False, 1),  # a bool
    ],
)
def test_policy_table_is_checked_at_construction(table):
    with pytest.raises(ValidationError):
        SvPolicy(table)


def test_workload_and_graph_built_policies_agree():
    rng = random.Random(12)
    for w in build_corpus(20) + [random_workload(rng, max_n=24) for _ in range(60)]:
        for cadd_aware in (False, True):
            fast = SvPolicy.from_workload(w, cadd_aware)
            normative = SvPolicy.from_graph(build_graph(w, cadd_aware))
            assert fast.variant == normative.variant == "dep_graph"
            for tx in w:
                for attempt in range(3):
                    assert fast.storage_version(tx.id, attempt) == normative.storage_version(tx.id, attempt)


def test_policy_must_cover_the_workload():
    w = chain_workload(3)
    policy = SvPolicy.from_workload(chain_workload(2))
    with pytest.raises(ValidationError):
        run_occ_da(w, 2, policy)


def test_key_index_window_check_matches_naive_scan():
    rng = random.Random(41)
    for _ in range(40):
        w = random_workload(rng, max_n=20)
        for cadd_aware in (False, True):
            latest = latest_writer(w, cadd_aware)
            equal_rule = tuple(tuple(list(row)) for row in _abort_rule(cadd_aware))  # equal, not the same object
            assert latest_writer(w, cadd_aware) is latest is latest_conflict(w, equal_rule)
            for tx in w:
                keys = tx.access.reads if cadd_aware else tx.access.reads | tx.access.cadd_keys
                for sv in range(-1, tx.id):
                    naive = any(keys & (w[i].access.writes | w[i].access.cadd_keys) for i in range(sv + 1, tx.id))
                    assert (latest[tx.id] > sv) == naive


class _ConstantTiming(Timing):
    """A user's timing that gives every attempt `duration`, valid or not."""

    def __init__(self, duration):
        self.duration = duration

    def draw(self, tx_id, attempt, gas):
        return self.duration, tx_id


@pytest.mark.parametrize("duration", [0, -100])
def test_engines_reject_non_positive_durations(duration):
    w = four_tx_example()
    with pytest.raises(ValidationError, match="duration"):
        run_occ_da(w, 2, timing=_ConstantTiming(duration))
    with pytest.raises(ValidationError, match="duration"):
        run_occ_det_commit(w, 2, timing=_ConstantTiming(duration))


@pytest.mark.parametrize("duration", [0, -100, 2.5, True, "3", None])
def test_fixed_timing_rejects_a_duration_that_is_not_a_positive_integer(duration):
    with pytest.raises(ValidationError, match="tx 3"):
        FixedTiming({0: 2, 3: duration})


class _CountingTiming(Timing):
    """Pure-gas timing that counts its calls."""

    def __init__(self):
        self.calls = 0

    def draw(self, tx_id, attempt, gas):
        self.calls += 1
        return gas, tx_id


def test_engines_draw_the_timing_once_per_attempt():
    w = gen_token_distribution(40, senders=1, seed=3)
    retries = 0
    for threads in (1, 4, 32):
        for policy in (SvPolicy.minus_one(), SvPolicy.from_workload(w), None):
            timing = _CountingTiming()
            if policy is None:
                result = run_occ_det_commit(w, threads, timing=timing)
            else:
                result = run_occ_da(w, threads, policy, timing=timing)
            assert timing.calls == len(result.attempts), (policy and policy.variant, threads)
            retries += len(result.attempts) - len(w)
    assert retries > 0  # retried attempts draw too


def test_in_order_engines_reuse_a_key_index_of_the_same_workload():
    w = gen_mixed([("payments", {}, 1), ("token_distribution", {"senders": 1}, 1)], 30, seed=4)
    for cadd_aware in (False, True):
        run_occ_det_commit(w, 4, cadd_aware)
        assert w._memo  # the access index, window table and replay plan stay on the workload
        for run in (
            lambda w: run_occ_da(w, 4, SvPolicy.from_workload(w, cadd_aware), cadd_aware),
            lambda w: run_occ_det_commit(w, 4, cadd_aware),
        ):
            cold = replace(w)
            assert not cold._memo
            assert run(w) == run(cold)


def test_occ_da_snapshot_gate_waits_for_commit():
    # tx1's assigned snapshot (tx0) must commit before tx1 may start.
    w = chain_workload(2, gas=10)
    policy = SvPolicy.from_graph(build_graph(w))
    result = run_occ_da(w, 2, policy)
    start_1 = next(a.start for a in result.attempts if a.tx_id == 1)
    end_0 = next(a.end for a in result.attempts if a.tx_id == 0)
    assert start_1 >= end_0


def test_occ_da_parked_tx_lets_a_later_ready_tx_take_its_slot():
    # tx1 waits for tx0's commit, so tx2 (sv -1) takes the second slot at
    # clock 0, and tx1 starts only when tx0 commits at clock 10.
    w = Workload(transactions=(_tx(0, 10, writes={K}), _tx(1, 5, reads={K}), _tx(2, 7)))
    policy = SvPolicy((-1, 0, -1))
    result = run_occ_da(w, 2, policy)
    assert result.attempts == (
        (0, 0, -1, 0, 10, "committed"),
        (1, 0, 0, 10, 15, "committed"),
        (2, 0, -1, 0, 7, "committed"),
    )
    assert result.makespan == 15
    assert result == oracle_run_in_order(w, 2, policy)


# ---------------------------------------------------------------------------
# det-commit
# ---------------------------------------------------------------------------


def test_det_commit_outcome_depends_on_node_timing():
    w = four_tx_example()
    slow_writer = run_occ_det_commit(w, 2)  # gas timing: tx0 finishes last
    fast_writer = run_occ_det_commit(w, 2, timing=FixedTiming({0: 8}))
    assert len(slow_writer.aborted()) == 1
    assert fast_writer.aborted() == ()
    assert slow_writer.outcome_multiset() != fast_writer.outcome_multiset()
    # both still commit in block order and replay to the serial digest
    assert slow_writer.committed_order == (0, 1, 2, 3)
    assert fast_writer.committed_order == (0, 1, 2, 3)
    assert replay_check(w, slow_writer) and replay_check(w, fast_writer)


def test_occ_da_identical_across_the_same_two_timings():
    w = four_tx_example()
    a = run_occ_da(w, 2)
    b = run_occ_da(w, 2, timing=FixedTiming({0: 8}))
    assert a.outcome_multiset() == b.outcome_multiset()


def test_det_commit_edge_free_no_aborts():
    w = gen_payments(10, seed=1)
    result = run_occ_det_commit(w, 4)
    assert result.aborted() == ()


def test_det_commit_single_sender_distribution():
    w = gen_token_distribution(5, senders=1, seed=0, gas=10)
    result = run_occ_det_commit(w, 2)
    assert len(result.aborted()) >= 1
    assert result.committed_order == (0, 1, 2, 3, 4)
    assert replay_check(w, result)


# ---------------------------------------------------------------------------
# classic
# ---------------------------------------------------------------------------

# Frozen dispatch seeds reproducing the two node schedules of the 4-tx
# example: identity order vs the conflicting pair racing ahead.
CLASSIC_SEED_IN_ORDER = 9
CLASSIC_SEED_RACED = 64


def test_classic_commit_orders_diverge_across_seeds():
    w = four_tx_example(gas0=10)  # equal gas: dispatch order decides commits
    a = run_occ_classic(w, 2, CLASSIC_SEED_IN_ORDER)
    b = run_occ_classic(w, 2, CLASSIC_SEED_RACED)
    assert a.committed_order == (0, 1, 2, 3)
    assert b.committed_order == (2, 1, 0, 3)
    # neither aborts (the conflicting pair never ran concurrently), yet the
    # end states diverge: level-1 determinism is insufficient.
    assert a.aborted() == () and b.aborted() == ()
    assert replay_digest(w, a) != replay_digest(w, b)


def test_classic_edge_free_any_seed_no_aborts():
    w = gen_payments(9, seed=2)
    for seed in range(6):
        result = run_occ_classic(w, 3, seed)
        assert result.aborted() == ()
        assert replay_check(w, result)


def test_classic_concurrent_conflicting_pair_one_abort():
    # Both read-modify-write the same key and run concurrently: the later
    # committer fails validation, retries, and commits.
    w = chain_workload(2, gas=10)
    result = run_occ_classic(w, 2, 0)
    assert len(result.aborted()) == 1
    assert sorted(result.committed_order) == [0, 1]


def test_classic_serializes_to_achieved_order():
    w = four_tx_example(gas0=10)
    result = run_occ_classic(w, 2, CLASSIC_SEED_RACED)
    # achieved order 2-1-0-3 is a valid serialization of the run, but it is
    # not the block order, so it does not match the serial digest.
    assert replay_check(w, result) is False


_KEYS = [StorageKey("c", f"k{i}") for i in range(4)]
_key_sets = st.frozensets(st.sampled_from(_KEYS), max_size=2)
_accesses = st.builds(
    AccessSet,
    reads=_key_sets,
    writes=_key_sets,
    cadds=st.lists(st.tuples(st.sampled_from(_KEYS), st.integers(-3, 3)), max_size=2),
)
# With equal gas, attempts end in lockstep, so commits land at exactly the
# start of the attempts dispatched after them.
classic_blocks = st.tuples(st.lists(st.tuples(_accesses, st.integers(1, 6)), min_size=1, max_size=20), st.booleans()).map(
    lambda spec: Workload(
        transactions=tuple(
            Transaction(id=i, sender="s", gas=1 if spec[1] else gas, access=a) for i, (a, gas) in enumerate(spec[0])
        )
    )
)


def _assert_classic_matches_oracle(w, thread_counts):
    for threads in thread_counts:
        for seed in (0, 1, 5):
            assert run_occ_classic(w, threads, seed) == oracle_occ_classic(w, threads, seed), (threads, seed)


@settings(max_examples=150, deadline=None)
@given(classic_blocks)
def test_classic_matches_the_quadratic_oracle(w):
    _assert_classic_matches_oracle(w, range(1, 9))


def test_classic_matches_the_quadratic_oracle_on_the_corpus():
    for w in build_corpus(20):
        _assert_classic_matches_oracle(w, (1, 2, 8, 32))


def _hot_key_block():
    """The benchmark's hot-key block shape: every tx read-modify-writes one
    sender balance and the total supply."""
    return gen_token_distribution(160, senders=1, track_total_supply=True)


def test_classic_matches_the_quadratic_oracle_on_a_hot_key_block():
    w = _hot_key_block()
    result = run_occ_classic(w, 32)
    assert len(result.attempts) > 10 * len(w)  # the regime where classic aborts most
    _assert_classic_matches_oracle(w, (8, 32))


@pytest.mark.parametrize("targets", [1, 2])
def test_classic_matches_the_quadratic_oracle_on_a_cadd_rewritten_block(targets):
    w = _hot_key_block()
    keys = [StorageKey.parse(key) for key in w.meta["bottleneck_keys"]][-targets:]
    rewritten = cadd_rewrite(w, keys)
    # Classic validates a cadd as a read and a write: every tx's read-like
    # and written sets hold the cadd keys.
    assert all({key for key, _ in tx.access.cadds} == set(keys) for tx in rewritten)
    assert all(not set(keys) & (tx.access.reads | tx.access.writes) for tx in rewritten)
    _assert_classic_matches_oracle(rewritten, (8, 32))


@settings(max_examples=100, deadline=None)
@given(classic_blocks, st.integers(1, 8), st.integers(0, 2**16), st.booleans())
def test_wasted_gas_is_the_gas_of_the_aborted_attempts(w, threads, seed, cadd_aware):
    runs = (
        run_occ_classic(w, threads, seed),
        run_occ_da(w, threads, None, cadd_aware, timing=JitterTiming(seed)),
        run_occ_da(w, threads, SvPolicy.from_workload(w, cadd_aware), cadd_aware, timing=JitterTiming(seed)),
        run_occ_det_commit(w, threads, cadd_aware, timing=JitterTiming(seed)),
    )
    for result in runs:
        assert result.wasted_gas == sum(w[a.tx_id].gas for a in result.aborted()), result.mode


# ---------------------------------------------------------------------------
# in-order engines against the original loop
# ---------------------------------------------------------------------------


def _timings(w, seed):
    """Factories for the three timing models; each run needs a fresh
    `JitterTiming`, whose draws are consumed as the run goes."""
    rng = random.Random(seed)
    durations = {tx.id: rng.randint(1, 2 * tx.gas) for tx in w}
    return (Timing, lambda: JitterTiming(seed), lambda: FixedTiming(durations))


def _assert_in_order_matches_oracle(w, seed, thread_counts=(1, 4, 32)):
    rng = random.Random(seed)
    random_policy = SvPolicy(tuple(rng.randint(-1, tx.id - 1) for tx in w))
    for cadd_aware in (False, True):
        policies = (SvPolicy.minus_one(), SvPolicy.from_workload(w, cadd_aware), random_policy, None)
        for policy in policies:
            for timing in _timings(w, seed):
                for threads in thread_counts:
                    if policy is None:
                        fast = run_occ_det_commit(w, threads, cadd_aware, timing=timing())
                    else:
                        fast = run_occ_da(w, threads, policy, cadd_aware, timing=timing())
                    expected = oracle_run_in_order(w, threads, policy, cadd_aware, timing())
                    assert fast == expected, (policy and policy.variant, cadd_aware, threads)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_accesses, st.integers(1, 50)), min_size=1, max_size=20), st.integers(0, 2**16))
def test_in_order_engines_match_the_original_loop(spec, seed):
    w = Workload(transactions=tuple(Transaction(id=i, sender="s", gas=gas, access=a) for i, (a, gas) in enumerate(spec)))
    _assert_in_order_matches_oracle(w, seed)


def test_in_order_engines_match_the_original_loop_on_the_corpus():
    for index, w in enumerate(build_corpus(4)):
        _assert_in_order_matches_oracle(w, index)
        tags = w.key_tags
        keys = {StorageKey.parse(key) for key in w.meta.get("bottleneck_keys", []) if tags.get(key) != VALUE_DEPENDENT}
        if keys:
            _assert_in_order_matches_oracle(cadd_rewrite(w, keys), index)


def test_probe_equals_the_closed_form_occ_da_outcomes():
    for index, w in enumerate(build_corpus(300)):
        threads = (2, 8, 32)[index % 3]
        for cadd_aware in (False, True):
            for policy in (SvPolicy.minus_one(), SvPolicy.from_workload(w, cadd_aware)):
                probe = determinism_probe(w, threads, policy, trials=2, seed=index, cadd_aware=cadd_aware)
                assert probe.da_patterns == (oracle_occ_da_outcomes(w, policy, cadd_aware),), (index, cadd_aware)


class _WideTiming(Timing):
    """Seeded timing far outside `JitterTiming`'s band: each attempt takes from 1 to 20 x its gas, drawn below a
    cap of 1, gas or 20 x gas, and draws its tie-break from four values, so that completions often tie."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def draw(self, tx_id, attempt, gas):
        rng = self._rng
        return rng.randint(1, rng.choice((1, gas, 20 * gas))), rng.randrange(4)


def _most_in_flight(result) -> int:
    """The most attempts of `result` running at one instant; an attempt runs over [start, end)."""
    ends_first = sorted([(a.end, -1) for a in result.attempts] + [(a.start, 1) for a in result.attempts])
    return max(itertools.accumulate(step for _, step in ends_first), default=0)


def _assert_in_order_runs_hold(w, timings, seed, thread_counts=(1, 2, 3, 8)):
    """Run occ-da (minus_one, the workload's table and a random one) and det-commit on `w` in both cadd modes at
    each thread count, with a fresh timing from each factory in `timings`: every occ-da run gives the closed-form
    outcome multiset, every run replays to the serial digest, and none has more attempts in flight than threads."""
    rng = random.Random(seed)
    random_table = SvPolicy(tuple(rng.randint(-1, tx.id - 1) for tx in w))
    for cadd_aware in (False, True):
        for policy in (SvPolicy.minus_one(), SvPolicy.from_workload(w, cadd_aware), random_table, None):
            expected = policy and oracle_occ_da_outcomes(w, policy, cadd_aware)
            for timing, threads in itertools.product(timings, thread_counts):
                if policy is None:
                    result = run_occ_det_commit(w, threads, cadd_aware, timing=timing())
                else:
                    result = run_occ_da(w, threads, policy, cadd_aware, timing=timing())
                    assert result.outcome_multiset() == expected, (policy.variant, cadd_aware, threads)
                assert replay_check(w, result), (policy and policy.variant, cadd_aware, threads)
                assert _most_in_flight(result) <= threads


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_in_order_engines_hold_under_wide_timing(block_seed, timing_seed):
    w = random_workload(random.Random(block_seed))
    _assert_in_order_runs_hold(w, [lambda: _WideTiming(timing_seed)], timing_seed)


#: One tx's accesses over two keys: a read, a blind write, a read-modify-write, a cadd, and two that touch both.
_TINY_SHAPES = [
    {"reads": {K}},
    {"writes": {K}},
    {"reads": {K}, "writes": {K}},
    {"cadds": [(K, 1)]},
    {"reads": {K}, "writes": {L}},
    {"reads": {L}, "cadds": [(K, 2)]},
]


def test_in_order_engines_hold_under_every_small_timing_of_tiny_blocks():
    # Every per-tx duration in {1, 2, 3} on blocks of up to 4 txs: durations this small tie often.
    rng = random.Random(5)
    blocks = [four_tx_example(), chain_workload(3)]
    for n in (2, 3, 3, 4, 4, 4, 4, 4, 4):
        txs = [_tx(i, rng.randint(1, 3), **rng.choice(_TINY_SHAPES)) for i in range(n)]
        blocks.append(Workload(transactions=tuple(txs)))
    for seed, w in enumerate(blocks):
        durations = itertools.product((1, 2, 3), repeat=len(w))
        _assert_in_order_runs_hold(w, [lambda d=d: FixedTiming(dict(enumerate(d))) for d in durations], seed)


@pytest.mark.parametrize("seed", [0, 1, 7_000_021, 2**40 + 3])
def test_jitter_draws_match_random_uniform(seed):
    timing = JitterTiming(seed)
    r = random.Random(seed)
    for step in range(200):
        gas = 1 + 997 * step
        expected = (max(1, round(gas * (1.0 + r.uniform(-0.5, 0.5)))), r.random())
        assert timing.draw(step, 0, gas) == expected


def test_jitter_duration_floor_is_one():
    # Gas 1 at the lowest factor, 0.5, rounds half to even to 0.
    timing = JitterTiming(0)
    timing._random = lambda: 0.0
    assert timing.draw(0, 0, 1) == (1, 0.0)


def _patterns_by_attribute(result):
    attempts = result.attempts
    return (
        tuple(sorted((a.tx_id, a.attempt, a.sv, a.outcome) for a in attempts)),
        tuple(sorted((a.tx_id, a.attempt, a.outcome) for a in attempts)),
        tuple(a for a in attempts if a.outcome == "aborted"),
    )


def test_outcome_patterns_match_their_attribute_definitions():
    unsorted_classic_runs = aborting_runs = 0
    for index, w in enumerate(build_corpus(12)):
        threads = (2, 8, 32)[index % 3]
        runs = [run_occ_classic(w, threads, seed) for seed in (0, 1)]
        unsorted_classic_runs += sum(list(r.attempts) != sorted(r.attempts) for r in runs)
        for trial in range(3):
            runs.append(run_occ_da(w, threads, timing=JitterTiming(trial)))
            runs.append(run_occ_det_commit(w, threads, timing=JitterTiming(trial)))
        for r in runs:
            assert (r.outcome_multiset(), r.abort_pattern(), r.aborted()) == _patterns_by_attribute(r), (index, r.mode)
            aborting_runs += bool(r.aborted())
    assert unsorted_classic_runs and aborting_runs


# ---------------------------------------------------------------------------
# determinism probe
# ---------------------------------------------------------------------------


def test_probe_reports_da_invariant_and_det_commit_divergence():
    # Near-equal gas so the +/-50% jitter can flip which of tx0/tx1
    # finishes first; that decides whether tx2 is dispatched before or after
    # tx0 commits under det-commit.
    w = four_tx_example(gas0=12)
    probe = determinism_probe(w, 2, trials=40, seed=3)
    assert probe.da_deterministic
    assert probe.da_distinct_patterns == 1
    # the same timing perturbations flip the det-commit outcome for tx2
    assert not probe.det_commit_deterministic
    assert probe.det_commit_distinct_patterns >= 2


def test_probe_edge_free_identical_everywhere():
    w = gen_payments(8, seed=3)
    probe = determinism_probe(w, 4, trials=10, seed=1)
    assert probe.da_deterministic
    assert probe.det_commit_deterministic


def test_negative_seeds_are_accepted():
    w = gen_payments(6, seed=0)
    assert run_occ_classic(w, 2, -3) == run_occ_classic(w, 2, -3)
    assert determinism_probe(w, 2, trials=2, seed=-1).da_deterministic
    assert JitterTiming(-7).draw(0, 0, 10) == JitterTiming(-7).draw(0, 0, 10)


def test_engines_and_probe_call_nothing_in_storagevm(monkeypatch):
    """The engines schedule and the storage VM replays: no engine run and no
    probe reaches a digest, a replay or the serial executor."""
    w = build_corpus(1)[0]

    def called(*args, **kwargs):
        raise AssertionError("an engine called into storagevm")

    for name in ("replay_digest", "replay_final_state", "run_serial", "_replay"):
        monkeypatch.setattr(storagevm, name, called)
    monkeypatch.setattr(occsim, "replay_final_state", called)
    runs = [run_occ_da(w, 4), run_occ_da(w, 4, SvPolicy.from_workload(w)), run_occ_det_commit(w, 4), run_occ_classic(w, 4)]
    assert any(run.aborted() for run in runs)
    assert determinism_probe(w, 4, trials=3).da_deterministic


def test_probe_requires_two_trials():
    with pytest.raises(ValidationError):
        determinism_probe(gen_payments(2, seed=0), 2, trials=1)


_COUNT_ENTRY_POINTS = {
    "run_occ_da": lambda bad: run_occ_da(gen_payments(12), bad),
    "run_occ_det_commit": lambda bad: run_occ_det_commit(gen_payments(12), bad),
    "run_occ_classic": lambda bad: run_occ_classic(gen_payments(12), bad),
    "bound_schedule": lambda bad: bound_schedule(build_graph(gen_payments(4)), bad),
    "brute_force_makespan": lambda bad: brute_force_makespan(build_graph(gen_payments(4)), bad),
    "determinism_probe trials": lambda bad: determinism_probe(gen_payments(4), 2, trials=bad),
    # Seeds may be negative, but only exact ints: `random.Random(None)` would
    # seed from the OS, and a float or a string seeds silently or fails late.
    "run_occ_classic seed": lambda bad: run_occ_classic(gen_payments(12), 4, interleaving_seed=bad),
    "determinism_probe seed": lambda bad: determinism_probe(gen_payments(4), 2, trials=2, seed=bad),
    "JitterTiming seed": lambda bad: JitterTiming(seed=bad),
    "gen_mixed seed": lambda bad: gen_mixed([("payments", {}, 1)], 4, seed=bad),
}
for _make in (gen_payments, gen_token_distribution, gen_defi_fee, gen_nft_mint):
    _COUNT_ENTRY_POINTS[f"{_make.__name__} seed"] = lambda bad, make=_make: make(4, seed=bad)


@pytest.mark.parametrize("bad", [2.5, True, "2", None])
@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_thread_and_trial_counts_must_be_exact_ints(entry, bad):
    with pytest.raises(ValidationError):
        _COUNT_ENTRY_POINTS[entry](bad)


def test_probe_makespan_spread_reported():
    w = gen_mixed([("payments", {}, 1), ("token_distribution", {"senders": 1}, 1)], 20, seed=9)
    probe = determinism_probe(w, 4, trials=12, seed=7)
    assert probe.da_makespan_min <= probe.da_makespan_max
    assert probe.da_deterministic


# ---------------------------------------------------------------------------
# cross-mode properties
# ---------------------------------------------------------------------------


def test_serial_equivalence_random_corpus():
    rng = random.Random(77)
    from oracles import oracle_occ_classic, random_workload

    for trial in range(60):
        w = random_workload(rng, max_n=24)
        threads = rng.randint(1, 4)
        da = run_occ_da(w, threads)
        dc = run_occ_det_commit(w, threads)
        assert replay_check(w, da), trial
        assert replay_check(w, dc), trial
        assert da.committed_order == tuple(range(len(w)))
        assert dc.committed_order == tuple(range(len(w)))


def test_cadd_aware_abort_exempts_cadd_only_keys():
    # two txs cadd the same key; plain mode aborts the later one, cadd-aware
    # commits both first try.
    w = Workload(
        transactions=(
            _tx(0, 10, cadds=[(K, 1)]),
            _tx(1, 10, cadds=[(K, 1)]),
        )
    )
    plain = run_occ_da(w, 2, cadd_aware=False)
    aware = run_occ_da(w, 2, cadd_aware=True)
    assert len(plain.aborted()) == 1
    assert aware.aborted() == ()
    assert replay_check(w, plain) and replay_check(w, aware)


def test_occ_empty_workload():
    w = Workload()
    result = run_occ_da(w, 2)
    assert result.makespan == 0 and result.attempts == ()
