"""Optimistic concurrency control simulators at three determinism levels.

All engines run a single-threaded event loop over virtual gas time;
"threads" are simulated slots. The three levels:

- classic: commit at execution completion, first-come-first-served dispatch;
  the achieved serialization order depends on timing.
- det-commit: commits strictly in block order; each dispatch snapshots the
  highest committed id at that moment, so commit/abort outcomes still depend
  on timing.
- deterministic aborts (da): every execution attempt gets its storage
  version assigned up front, the policy's for a first attempt and id-1 for
  a retry; outcomes are invariant under any timing perturbation.

A transaction with storage version sv may only observe commits with id <=
sv. At its commit turn it aborts iff some tx in (sv, id) wrote or cadded a
key it reads; an aborted tx re-enters the queue with storage version id-1,
whose empty conflict window guarantees the retry commits.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Mapping, NamedTuple

from .bound import speedup
from .errors import InvariantViolation, ValidationError, _check_int
from .graph import DependencyGraph, _kind_conflicts, latest_conflict, latest_writer
# Nothing here calls `replay_final_state`: bench/tracing.py wraps it under
# this module's name, and tests/test_bench_tracing.py requires that it resolves.
from .storagevm import replay_final_state  # noqa: F401
from .workload import StorageKey, Workload

MODE_CLASSIC = "occ-classic"
MODE_DET_COMMIT = "occ-det-commit"
MODE_DA = "occ-da"

# Field pickers over `ExecAttempt` tuples, so the outcome patterns are built
# by C-level `map` instead of attribute reads per attempt.
_OUTCOME = itemgetter(5)
_TX_ATTEMPT_SV_OUTCOME = itemgetter(0, 1, 2, 5)
_TX_ATTEMPT_OUTCOME = itemgetter(0, 1, 5)


class ExecAttempt(NamedTuple):
    """One execution attempt: the i-th run of a transaction, its snapshot
    version, its span in virtual time, and whether it committed. A named
    tuple, because the engines build one per attempt; both build it with
    `tuple.__new__`, skipping the Python-level `__new__`."""

    tx_id: int
    attempt: int
    sv: int
    start: int
    end: int
    outcome: str  # "committed" | "aborted"


@dataclass(frozen=True)
class OccRunResult:
    mode: str
    threads: int
    policy: str
    attempts: tuple[ExecAttempt, ...]
    makespan: int
    committed_order: tuple[int, ...]
    wasted_gas: int
    serial_cost: int
    speedup: float

    def aborted(self) -> tuple[ExecAttempt, ...]:
        return tuple(compress(self.attempts, map("aborted".__eq__, map(_OUTCOME, self.attempts))))

    def outcome_multiset(self) -> tuple[tuple[int, int, int, str], ...]:
        """Sorted (tx, attempt, sv, outcome) tuples; the determinism invariant
        is stated over this multiset."""
        return tuple(sorted(map(_TX_ATTEMPT_SV_OUTCOME, self.attempts)))

    def abort_pattern(self) -> tuple[tuple[int, int, str], ...]:
        """Sorted (tx, attempt, outcome) tuples: the observable commit/abort
        decisions, without storage versions. Used to compare schedulers whose
        sv assignment bases differ (det-commit assigns svs at runtime by
        design, so only its decisions are expected to be stable)."""
        return tuple(sorted(map(_TX_ATTEMPT_OUTCOME, self.attempts)))


@dataclass(frozen=True)
class SvPolicy:
    """Pre-execution storage version assignment: one table of first-attempt
    versions, which depend only on static inputs, never on runtime timing.

    `minus_one` has no table (`first_sv=None`) and starts every tx at the
    pre-block state; `dep_graph` starts each tx at its highest estimated
    dependency, `first_sv[id]`, from `from_workload` or `from_graph`. Every
    retry runs at id-1, whose empty conflict window means it can never abort
    again. The table is checked once, here: each entry is an exact int in
    [-1, id-1].
    """

    first_sv: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.first_sv is None:
            return
        first_sv = tuple(self.first_sv)
        for tx_id, sv in enumerate(first_sv):
            if type(sv) is not int or not -1 <= sv < tx_id:
                raise ValidationError(f"tx {tx_id}: a first storage version must be an int in [-1, {tx_id - 1}], got {sv!r}")
        object.__setattr__(self, "first_sv", first_sv)

    @property
    def variant(self) -> str:
        """`minus_one` without a table, `dep_graph` with one."""
        return "minus_one" if self.first_sv is None else "dep_graph"

    @classmethod
    def minus_one(cls) -> "SvPolicy":
        return cls()

    @classmethod
    def from_graph(cls, graph: DependencyGraph) -> "SvPolicy":
        """Start each tx at its highest predecessor in `graph`. The CLI uses it
        only for a graph that a chain has pruned, whose edges are normative."""
        first_sv = [-1] * graph.n
        for j, i in graph.edges:
            if i > first_sv[j]:
                first_sv[j] = i
        return cls(tuple(first_sv))

    @classmethod
    def from_workload(cls, workload: Workload, cadd_aware: bool = False) -> "SvPolicy":
        """The `from_graph(build_graph(workload, cadd_aware))` policy, built
        with no graph: each tx's highest conflicting earlier id, from one pass
        over the workload's access index (`graph.latest_conflict`)."""
        return cls(latest_conflict(workload, _kind_conflicts(cadd_aware)))

    def storage_version(self, tx_id: int, attempt: int) -> int:
        """The version attempt `attempt` of tx `tx_id` reads at: the table's
        entry (or -1) for the first attempt, id-1 for a retry."""
        if attempt:
            return tx_id - 1
        return -1 if self.first_sv is None else self.first_sv[tx_id]


class Timing:
    """Virtual execution timing. The engines call `draw` once per execution
    attempt, at dispatch, for the attempt's duration (an integer >= 1) and
    its completion tie-break key. The default is pure gas: an attempt takes
    exactly its transaction's gas, and completion ties break by tx id."""

    def draw(self, tx_id: int, attempt: int, gas: int) -> tuple[int, object]:
        return gas, tx_id


class JitterTiming(Timing):
    """Seeded per-attempt timing noise: an attempt takes its gas times a
    factor drawn uniformly from [0.5, 1.5), rounded, at least 1, and its
    completion tie is a second draw. Simulates nodes whose wall-clock speeds
    diverge from the gas estimate.

    The factor is `0.5 + u` for a draw `u` of `random()`, the same float as
    `1.0 + Random.uniform(-0.5, 0.5)` from the same state: `uniform` gives
    `-0.5 + 1.0 * u`, which is `u - 0.5` exactly (`u` is a multiple of 2**-53
    in [0, 1)), so both sides round the one real number `0.5 + u` once. The
    product with gas >= 1 is at least 0.5, so `round(...) or 1` is
    `max(1, round(...))`."""

    def __init__(self, seed: int):
        _check_int("seed", seed)
        self._random = random.Random(seed).random

    def draw(self, tx_id: int, attempt: int, gas: int) -> tuple[int, float]:
        r = self._random
        return round(gas * (0.5 + r())) or 1, r()


class FixedTiming(Timing):
    """Explicit per-transaction durations (attempt-independent); models one
    concrete node-timing scenario."""

    def __init__(self, durations: Mapping[int, int]):
        self._durations = dict(durations)
        for tx_id, duration in self._durations.items():
            if type(duration) is not int or duration < 1:
                raise ValidationError(f"tx {tx_id}: a fixed duration must be an integer >= 1, got {duration!r}")

    def draw(self, tx_id: int, attempt: int, gas: int) -> tuple[int, int]:
        return self._durations.get(tx_id, gas), tx_id


def _finalize(
    gas: list[int],
    mode: str,
    threads: int,
    policy_name: str,
    attempts: list[ExecAttempt],
    committed_order: list[int] | range,
    makespan: int,
    wasted: int,
) -> OccRunResult:
    """Package an engine's run. `wasted` is the gas of the aborted attempts,
    which each engine sums as its attempts abort."""
    serial = sum(gas)
    return OccRunResult(
        mode=mode,
        threads=threads,
        policy=policy_name,
        attempts=tuple(attempts),
        makespan=makespan,
        committed_order=tuple(committed_order),
        wasted_gas=wasted,
        serial_cost=serial,
        speedup=speedup(serial, makespan),
    )


def _run_in_order(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None,
    cadd_aware: bool,
    timing: Timing,
) -> OccRunResult:
    """Shared engine for the two in-order-commit modes.

    With a policy, a first attempt waits until its assigned storage version
    has committed. Without one (det-commit), every first attempt is ready
    immediately and snapshots the highest committed id at dispatch. In both
    modes an aborted tx retries once, at id-1, which cannot abort again.

    Loop stages per iteration: admit ready txs into free pool slots, lowest
    id first; retire the pool's earliest completion; then drain in-order
    commits. An attempt costs O(log threads), for the pool; a tx parked
    until its storage version commits costs O(log n) more.
    """
    _check_int("threads", threads, 1)
    n = len(workload)
    mode = MODE_DA if policy is not None else MODE_DET_COMMIT
    policy_name = policy.variant if policy is not None else "runtime"
    if policy is not None and policy.first_sv is not None and len(policy.first_sv) != n:
        raise ValidationError(f"policy covers {len(policy.first_sv)} txs, the workload has {n}")
    if n == 0:
        return _finalize([], mode, threads, policy_name, [], [], 0, 0)

    latest = latest_writer(workload, cadd_aware)
    gas = [tx.gas for tx in workload]
    heappush, heappop = heapq.heappush, heapq.heappop
    draw = timing.draw
    new_attempt = tuple.__new__
    storage_version = policy.storage_version if policy is not None else None

    # First attempts leave in id order from `cursor`. With a policy, one whose
    # storage version has not committed waits in `parked` as (sv, id) and
    # moves to `released` as (id, sv) once it has: one policy call per tx.
    # A retry's id waits in `retry`; there is at most one, since only tx
    # `next_commit` can abort and its retry cannot abort again. Dispatching
    # the retry, then `released`, then the cursor is lowest-ready-id-first:
    # the retry's id is the lowest uncommitted one and every released id is
    # below the cursor.
    cursor = 0
    parked: list[tuple[int, int]] = []
    released: list[tuple[int, int]] = []
    retry: int | None = None

    pool: list[tuple[int, object, int, int, int, int]] = []  # (end, tie, id, sv, start, attempt)
    free = threads  # threads - len(pool)
    # Per id, its one completed attempt awaiting its commit turn: (sv, start,
    # end, attempt). The extra None slot stops stage 3 at n.
    finished: list[tuple[int, int, int, int] | None] = [None] * (n + 1)
    clock = 0
    next_commit = 0
    attempts: list[ExecAttempt] = []
    wasted = 0

    while next_commit < n:
        # Stage 1: admission. Parked txs whose storage version has committed
        # are released; ready txs fill free pool slots lowest id first.
        while parked and parked[0][0] < next_commit:
            sv, tx_id = heappop(parked)
            heappush(released, (tx_id, sv))
        while free:
            att = 0
            if retry is not None:
                tx_id, sv, att = retry, retry - 1, 1
                retry = None
            elif released:
                tx_id, sv = heappop(released)
            elif cursor < n:
                tx_id = cursor
                cursor += 1
                if storage_version is None:
                    sv = next_commit - 1
                else:
                    sv = storage_version(tx_id, 0)
                    if sv >= next_commit:
                        heappush(parked, (sv, tx_id))
                        continue
            else:
                break
            duration, tie = draw(tx_id, att, gas[tx_id])
            if duration < 1:
                raise ValidationError(f"timing gave tx {tx_id} attempt {att} duration {duration}; it must be >= 1")
            heappush(pool, (clock + duration, tie, tx_id, sv, clock, att))
            free -= 1

        # The next tx to commit is always admissible, so an empty pool is a stall.
        if not pool:
            raise InvariantViolation("scheduler stalled with uncommitted transactions")

        # Stage 2: retire exactly one completion, advancing the clock.
        clock, _, tx_id, sv, start, att = heappop(pool)
        free += 1
        finished[tx_id] = (sv, start, clock, att)

        # Stage 3: commit strictly in id order. An attempt aborts iff a tx in
        # its window (sv, id) writes or cadds a key it reads.
        while finished[next_commit] is not None:
            tx_id = next_commit
            sv, start, end, att = finished[tx_id]
            finished[tx_id] = None
            if latest[tx_id] > sv:
                attempts.append(new_attempt(ExecAttempt, (tx_id, att, sv, start, end, "aborted")))
                wasted += gas[tx_id]
                if retry is not None:
                    raise InvariantViolation(f"tx {tx_id} aborted while the retry of tx {retry} is pending")
                retry = tx_id
            else:
                attempts.append(new_attempt(ExecAttempt, (tx_id, att, sv, start, end, "committed")))
                next_commit += 1

    # Commits are strictly in id order, so the committed order is the block.
    return _finalize(gas, mode, threads, policy_name, attempts, range(n), clock, wasted)


def run_occ_da(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None = None,
    cadd_aware: bool = False,
    *,
    timing: Timing | None = None,
) -> OccRunResult:
    """OCC with deterministic aborts: storage versions fixed per (tx,
    attempt) before execution, so the commit/abort outcome of every attempt
    is independent of execution timing."""
    return _run_in_order(
        workload,
        threads,
        policy if policy is not None else SvPolicy.minus_one(),
        cadd_aware,
        timing or Timing(),
    )


def run_occ_det_commit(
    workload: Workload,
    threads: int,
    cadd_aware: bool = False,
    *,
    timing: Timing | None = None,
) -> OccRunResult:
    """OCC with deterministic commit order only: commits follow block order,
    but each dispatch snapshots the highest committed id at that moment, so
    abort patterns vary with timing."""
    return _run_in_order(workload, threads, None, cadd_aware, timing or Timing())


def run_occ_classic(
    workload: Workload,
    threads: int,
    interleaving_seed: int = 0,
) -> OccRunResult:
    """Classic OCC: first-come-first-served dispatch, commit at execution
    completion, backward validation against txs that committed during the
    attempt. The achieved serialization order is recorded; the seed perturbs
    dispatch order to model arrival timing on different nodes.

    Commutative adds are treated as plain read+writes (the instruction
    post-dates this scheduler). The recorded sv is the highest id among the
    commits at or before the attempt's start, found in O(log commits); for
    out-of-order commits it only approximates the observed snapshot.

    An attempt costs O(log threads) for the pool, the sv search and one dict
    lookup per read-like key. Attempts are built with `tuple.__new__`, as
    the in-order engine builds them, and each aborted attempt's gas is
    added to the run's wasted gas as it aborts.
    """
    _check_int("threads", threads, 1)
    _check_int("interleaving_seed", interleaving_seed)
    n = len(workload)
    if n == 0:
        return _finalize([], MODE_CLASSIC, threads, "fcfs", [], [], 0, 0)

    order = list(range(n))
    random.Random(interleaving_seed).shuffle(order)
    queue = deque(order)  # popleft() = FCFS

    accesses = [tx.access for tx in workload]
    # A cadd counts as a read and a write; most txs have none, and keep their sets.
    read_like = [a.reads | a.cadd_keys if a.cadds else a.reads for a in accesses]
    written = [a.writes | a.cadd_keys if a.cadds else a.writes for a in accesses]
    gas = [tx.gas for tx in workload]
    heappush, heappop = heapq.heappush, heapq.heappop
    new_attempt = tuple.__new__
    last_write: dict[StorageKey, int] = {}  # key -> latest commit time writing it
    last_write_at = last_write.get
    # Per commit, in commit order: its time (never decreasing) and the
    # highest id committed so far (`top`). The leading -1s stand for the
    # pre-block state.
    commit_times = [-1]
    max_committed = [-1]
    top = -1
    attempt_no = [0] * n
    pool: list[tuple[int, int, int, int]] = []  # (end, dispatch_seq, id, start)
    free = threads  # threads - len(pool)
    dispatch_seq = 0
    clock = 0
    attempts: list[ExecAttempt] = []
    committed_order: list[int] = []
    wasted = 0

    while queue or pool:
        while free and queue:
            tx_id = queue.popleft()
            heappush(pool, (clock + gas[tx_id], dispatch_seq, tx_id, clock))
            dispatch_seq += 1
            free -= 1
        clock, _, tx_id, start = heappop(pool)
        free += 1
        att = attempt_no[tx_id]
        # bisect_right: a commit at exactly `start` precedes the attempt.
        sv = max_committed[bisect_right(commit_times, start) - 1]
        # Backward validation: reads against writes committed strictly after
        # this attempt started.
        for key in read_like[tx_id]:
            if last_write_at(key, -1) > start:
                attempts.append(new_attempt(ExecAttempt, (tx_id, att, sv, start, clock, "aborted")))
                wasted += gas[tx_id]
                attempt_no[tx_id] = att + 1
                queue.append(tx_id)  # back of the FCFS queue
                break
        else:
            attempts.append(new_attempt(ExecAttempt, (tx_id, att, sv, start, clock, "committed")))
            committed_order.append(tx_id)
            commit_times.append(clock)
            if tx_id > top:
                top = tx_id
            max_committed.append(top)
            for key in written[tx_id]:
                last_write[key] = clock

    return _finalize(gas, MODE_CLASSIC, threads, "fcfs", attempts, committed_order, clock, wasted)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of re-running a workload under randomized timing.

    `da_deterministic` is the flagship invariant: the (tx, attempt, sv,
    outcome) multiset of the deterministic-abort scheduler must not vary
    with timing. The det-commit scheduler is probed identically and is
    expected to diverge whenever conflicts exist.
    """

    trials: int
    threads: int
    da_deterministic: bool
    da_distinct_patterns: int
    da_makespan_min: int
    da_makespan_max: int
    det_commit_deterministic: bool
    det_commit_distinct_patterns: int
    da_patterns: tuple[tuple[tuple[int, int, int, str], ...], ...]
    det_commit_patterns: tuple[tuple[tuple[int, int, str], ...], ...]


def determinism_probe(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None = None,
    trials: int = 20,
    seed: int = 0,
    *,
    cadd_aware: bool = False,
) -> ProbeReport:
    """Run both in-order schedulers `trials` times under `JitterTiming`
    (per-attempt duration jitter and randomized completion ties), collecting
    the distinct outcome multisets of each. Trial `t` seeds its timing with
    `seed * 1_000_003 + t`, the same for both schedulers."""
    _check_int("trials", trials, 2)
    _check_int("seed", seed)
    policy = policy if policy is not None else SvPolicy.minus_one()
    da_patterns: list = []
    dc_patterns: list = []
    makespans: list[int] = []
    for trial in range(trials):
        timing = JitterTiming(seed=seed * 1_000_003 + trial)
        da = run_occ_da(workload, threads, policy, cadd_aware, timing=timing)
        makespans.append(da.makespan)
        pattern = da.outcome_multiset()
        if pattern not in da_patterns:
            da_patterns.append(pattern)
        timing = JitterTiming(seed=seed * 1_000_003 + trial)
        dc = run_occ_det_commit(workload, threads, cadd_aware, timing=timing)
        dc_pattern = dc.abort_pattern()
        if dc_pattern not in dc_patterns:
            dc_patterns.append(dc_pattern)
    return ProbeReport(
        trials=trials,
        threads=threads,
        da_deterministic=len(da_patterns) == 1,
        da_distinct_patterns=len(da_patterns),
        da_makespan_min=min(makespans),
        da_makespan_max=max(makespans),
        det_commit_deterministic=len(dc_patterns) == 1,
        det_commit_distinct_patterns=len(dc_patterns),
        da_patterns=tuple(da_patterns),
        det_commit_patterns=tuple(dc_patterns),
    )
