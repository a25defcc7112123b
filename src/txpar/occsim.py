"""Optimistic concurrency control simulators at three determinism levels.

All engines run a single-threaded event loop over virtual gas time;
"threads" are simulated slots. The three levels:

- classic: commit at execution completion, first-come-first-served dispatch;
  the achieved serialization order depends on timing.
- det-commit: commits strictly in block order; each dispatch snapshots the
  highest committed id at that moment, so commit/abort outcomes still depend
  on timing.
- deterministic aborts (da): every execution attempt gets its storage
  version assigned up front by a pure function of (tx, attempt); outcomes
  are invariant under any timing perturbation.

A transaction with storage version sv may only observe commits with id <=
sv. At its commit turn it aborts iff some tx in (sv, id) wrote a key it
reads; an aborted tx re-enters the queue with storage version id-1, whose
empty conflict window guarantees the retry commits.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from .errors import InvariantViolation, ValidationError
from .graph import DependencyGraph, _kind_conflicts, latest_conflict, latest_writer
from .storagevm import replay_final_state
from .workload import StorageKey, Workload

MODE_CLASSIC = "occ-classic"
MODE_DET_COMMIT = "occ-det-commit"
MODE_DA = "occ-da"


class ExecAttempt(NamedTuple):
    """One execution attempt: the i-th run of a transaction, its snapshot
    version, its span in virtual time, and whether it committed. A named
    tuple, because the engines build one per attempt; the in-order engine
    builds it with `tuple.__new__`, skipping the Python-level `__new__`."""

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
    digest: str | None

    def aborted(self) -> tuple[ExecAttempt, ...]:
        return tuple(a for a in self.attempts if a.outcome == "aborted")

    def outcome_multiset(self) -> tuple[tuple[int, int, int, str], ...]:
        """Sorted (tx, attempt, sv, outcome) tuples; the determinism invariant
        is stated over this multiset."""
        return tuple(sorted((a.tx_id, a.attempt, a.sv, a.outcome) for a in self.attempts))

    def abort_pattern(self) -> tuple[tuple[int, int, str], ...]:
        """Sorted (tx, attempt, outcome) tuples: the observable commit/abort
        decisions, without storage versions. Used to compare schedulers whose
        sv assignment bases differ (det-commit assigns svs at runtime by
        design, so only its decisions are expected to be stable)."""
        return tuple(sorted((a.tx_id, a.attempt, a.outcome) for a in self.attempts))


@dataclass(frozen=True)
class SvPolicy:
    """Pre-execution storage version assignment.

    The version for (tx, attempt) must depend only on static inputs, never
    on runtime timing. Variants: `minus_one` starts every tx at the
    pre-block state; `dep_graph` starts at the highest estimated dependency,
    precomputed per tx in `first_sv`; `custom` reads a user table. All
    variants fall back to id-1 for retries, which can never abort again.
    """

    variant: str
    first_sv: tuple[int, ...] | None = None
    table: Mapping[tuple[int, int], int] | None = None

    @classmethod
    def minus_one(cls) -> "SvPolicy":
        return cls(variant="minus_one")

    @classmethod
    def from_graph(cls, graph: DependencyGraph) -> "SvPolicy":
        """Start each tx at its highest predecessor in `graph`. The CLI uses it
        only for a graph that a chain has pruned, whose edges are normative."""
        first_sv = [-1] * graph.n
        for j, i in graph.edges:
            if i > first_sv[j]:
                first_sv[j] = i
        return cls(variant="dep_graph", first_sv=tuple(first_sv))

    @classmethod
    def from_workload(cls, workload: Workload, cadd_aware: bool = False) -> "SvPolicy":
        """The `from_graph(build_graph(workload, cadd_aware))` policy, built
        with no graph: each tx's highest conflicting earlier id, from one pass
        over the workload's access index (`graph.latest_conflict`)."""
        return cls(variant="dep_graph", first_sv=latest_conflict(workload, _kind_conflicts(cadd_aware)))

    @classmethod
    def custom(cls, table: Mapping[tuple[int, int], int]) -> "SvPolicy":
        return cls(variant="custom", table=dict(table))

    def storage_version(self, tx_id: int, attempt: int) -> int:
        if self.variant == "minus_one":
            sv = -1 if attempt == 0 else tx_id - 1
        elif self.variant == "dep_graph":
            sv = self.first_sv[tx_id] if attempt == 0 else tx_id - 1
        elif self.variant == "custom":
            sv = self.table.get((tx_id, attempt), tx_id - 1)
        else:
            raise ValidationError(f"unknown sv policy variant {self.variant!r}")
        if sv >= tx_id:
            raise ValidationError(
                f"policy assigned sv {sv} to tx {tx_id}: a tx cannot wait on its own or later commits"
            )
        if sv < -1:
            raise ValidationError(f"policy assigned sv {sv} < -1 to tx {tx_id}")
        return sv


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
    diverge from the gas estimate."""

    def __init__(self, seed: int):
        self._random = random.Random(seed).random

    def draw(self, tx_id: int, attempt: int, gas: int) -> tuple[int, float]:
        r = self._random
        # `Random.uniform(-0.5, 0.5)`'s expression, inline: the same floats.
        return max(1, round(gas * (1.0 + (-0.5 + 1.0 * r())))), r()


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
    workload: Workload,
    gas: list[int],
    mode: str,
    threads: int,
    policy_name: str,
    attempts: list[ExecAttempt],
    committed_order: list[int],
    makespan: int,
    with_digest: bool,
) -> OccRunResult:
    serial = sum(gas)
    wasted = sum([gas[a.tx_id] for a in attempts if a.outcome == "aborted"])
    result = OccRunResult(
        mode=mode,
        threads=threads,
        policy=policy_name,
        attempts=tuple(attempts),
        makespan=makespan,
        committed_order=tuple(committed_order),
        wasted_gas=wasted,
        serial_cost=serial,
        speedup=serial / makespan if makespan else 1.0,
        digest=None,
    )
    if with_digest:
        result = replace(result, digest=replay_final_state(workload, result).digest())
    return result


def _run_in_order(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None,
    cadd_aware: bool,
    timing: Timing,
    with_digest: bool,
) -> OccRunResult:
    """Shared engine for the two in-order-commit modes.

    With a policy, storage versions gate admission: a tx waits until its
    assigned version has committed. Without one (det-commit), every tx is
    ready immediately and snapshots the highest committed id at dispatch.

    Loop stages per iteration: admit ready txs into free pool slots, lowest
    id first; retire the pool's earliest completion; then drain in-order
    commits. An attempt costs O(log threads), for the pool; a tx parked
    until its storage version commits costs O(log n) more.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    n = len(workload)
    mode = MODE_DA if policy is not None else MODE_DET_COMMIT
    policy_name = policy.variant if policy is not None else "runtime"
    if policy is not None and policy.first_sv is not None and len(policy.first_sv) != n:
        raise ValidationError(f"policy covers {len(policy.first_sv)} txs, the workload has {n}")
    if n == 0:
        return _finalize(workload, [], mode, threads, policy_name, [], [], 0, with_digest)

    latest = latest_writer(workload, cadd_aware)
    gas = [tx.gas for tx in workload]
    attempt_no = [0] * n
    heappush, heappop = heapq.heappush, heapq.heappop
    draw = timing.draw
    new_attempt = tuple.__new__
    storage_version = policy.storage_version if policy is not None else None

    # First attempts leave in id order from `cursor`. With a policy, one whose
    # storage version has not committed waits in `parked` as (sv, id) and
    # moves to `released` as (id, sv) once it has: one policy call per
    # attempt. A retry waits in `retry` as (id, sv); there is at most one,
    # since only tx `next_commit` can abort and it cannot abort again before
    # its retry runs. Dispatching the retry, then `released`, then the
    # cursor is lowest-ready-id-first: the retry's id is the lowest
    # uncommitted one and every released id is below the cursor.
    cursor = 0
    parked: list[tuple[int, int]] = []
    released: list[tuple[int, int]] = []
    retry: tuple[int, int] | None = None

    pool: list[tuple[int, object, int, int, int]] = []  # (end, tie, id, sv, start)
    # Per id, its one completed attempt awaiting its commit turn: (sv, start,
    # end). The extra None slot stops stage 3 at n.
    finished: list[tuple[int, int, int] | None] = [None] * (n + 1)
    clock = 0
    next_commit = 0
    attempts: list[ExecAttempt] = []
    committed_order: list[int] = []

    while next_commit < n:
        # Stage 1: admission. Parked txs whose storage version has committed
        # are released; ready txs fill free pool slots lowest id first.
        while parked and parked[0][0] < next_commit:
            sv, tx_id = heappop(parked)
            heappush(released, (tx_id, sv))
        while len(pool) < threads:
            if retry is not None:
                tx_id, sv = retry
                retry = None
            elif released:
                tx_id, sv = heappop(released)
            elif cursor < n:
                tx_id = cursor
                cursor += 1
                if storage_version is not None:
                    sv = storage_version(tx_id, 0)
                    if sv >= next_commit:
                        heappush(parked, (sv, tx_id))
                        continue
            else:
                break
            if storage_version is None:
                sv = next_commit - 1
            att = attempt_no[tx_id]
            duration, tie = draw(tx_id, att, gas[tx_id])
            if duration < 1:
                raise ValidationError(f"timing gave tx {tx_id} attempt {att} duration {duration}; it must be >= 1")
            heappush(pool, (clock + duration, tie, tx_id, sv, clock))

        # The next tx to commit is always admissible, so an empty pool is a stall.
        if not pool:
            raise InvariantViolation("scheduler stalled with uncommitted transactions")

        # Stage 2: retire exactly one completion, advancing the clock.
        clock, _, tx_id, sv, start = heappop(pool)
        finished[tx_id] = (sv, start, clock)

        # Stage 3: commit strictly in id order. An attempt aborts iff a tx in
        # its window (sv, id) writes or cadds a key it reads.
        while finished[next_commit] is not None:
            tx_id = next_commit
            sv, start, end = finished[tx_id]
            finished[tx_id] = None
            att = attempt_no[tx_id]
            if latest[tx_id] > sv:
                attempts.append(new_attempt(ExecAttempt, (tx_id, att, sv, start, end, "aborted")))
                attempt_no[tx_id] = att + 1
                if retry is not None:
                    raise InvariantViolation(f"tx {tx_id} aborted while the retry of tx {retry[0]} is pending")
                retry = (tx_id, storage_version(tx_id, att + 1) if storage_version is not None else -1)
            else:
                attempts.append(new_attempt(ExecAttempt, (tx_id, att, sv, start, end, "committed")))
                committed_order.append(tx_id)
                next_commit += 1

    return _finalize(workload, gas, mode, threads, policy_name, attempts, committed_order, clock, with_digest)


def run_occ_da(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None = None,
    cadd_aware: bool = False,
    *,
    timing: Timing | None = None,
    with_digest: bool = True,
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
        with_digest,
    )


def run_occ_det_commit(
    workload: Workload,
    threads: int,
    cadd_aware: bool = False,
    *,
    timing: Timing | None = None,
    with_digest: bool = True,
) -> OccRunResult:
    """OCC with deterministic commit order only: commits follow block order,
    but each dispatch snapshots the highest committed id at that moment, so
    abort patterns vary with timing."""
    return _run_in_order(workload, threads, None, cadd_aware, timing or Timing(), with_digest)


def run_occ_classic(
    workload: Workload,
    threads: int,
    interleaving_seed: int = 0,
    *,
    with_digest: bool = True,
) -> OccRunResult:
    """Classic OCC: first-come-first-served dispatch, commit at execution
    completion, backward validation against txs that committed during the
    attempt. The achieved serialization order is recorded; the seed perturbs
    dispatch order to model arrival timing on different nodes.

    Commutative adds are treated as plain read+writes (the instruction
    post-dates this scheduler). The recorded sv is the highest id among the
    commits at or before the attempt's start, found in O(log commits); for
    out-of-order commits it only approximates the observed snapshot.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    n = len(workload)
    if n == 0:
        return _finalize(workload, [], MODE_CLASSIC, threads, "fcfs", [], [], 0, with_digest)

    order = list(range(n))
    random.Random(interleaving_seed).shuffle(order)
    queue = deque(order)  # popleft() = FCFS

    read_like = [tx.access.reads | tx.access.cadd_keys for tx in workload]
    written = [tx.access.writes | tx.access.cadd_keys for tx in workload]
    gas = [tx.gas for tx in workload]
    last_write: dict[StorageKey, int] = {}  # key -> latest commit time writing it
    # Per commit, in commit order: its time (never decreasing) and the
    # highest id committed so far. The leading -1s stand for the pre-block state.
    commit_times = [-1]
    max_committed = [-1]
    attempt_no = [0] * n
    pool: list[tuple[int, int, int, int]] = []  # (end, dispatch_seq, id, start)
    dispatch_seq = 0
    clock = 0
    attempts: list[ExecAttempt] = []
    committed_order: list[int] = []

    while queue or pool:
        while len(pool) < threads and queue:
            tx_id = queue.popleft()
            heapq.heappush(pool, (clock + gas[tx_id], dispatch_seq, tx_id, clock))
            dispatch_seq += 1
        end, _, tx_id, start = heapq.heappop(pool)
        clock = end
        att = attempt_no[tx_id]
        # bisect_right: a commit at exactly `start` precedes the attempt.
        sv = max_committed[bisect_right(commit_times, start) - 1]
        # Backward validation: reads against writes committed strictly after
        # this attempt started.
        conflict = False
        for key in read_like[tx_id]:
            if last_write.get(key, -1) > start:
                conflict = True
                break
        if conflict:
            attempts.append(ExecAttempt(tx_id, att, sv, start, end, "aborted"))
            attempt_no[tx_id] += 1
            queue.append(tx_id)  # back of the FCFS queue
        else:
            attempts.append(ExecAttempt(tx_id, att, sv, start, end, "committed"))
            committed_order.append(tx_id)
            commit_times.append(clock)
            max_committed.append(max(tx_id, max_committed[-1]))
            for key in written[tx_id]:
                last_write[key] = clock

    return _finalize(workload, gas, MODE_CLASSIC, threads, "fcfs", attempts, committed_order, clock, with_digest)


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
    if trials < 2:
        raise ValidationError(f"trials must be >= 2, got {trials}")
    policy = policy if policy is not None else SvPolicy.minus_one()
    da_patterns: list = []
    dc_patterns: list = []
    makespans: list[int] = []
    for trial in range(trials):
        timing = JitterTiming(seed=seed * 1_000_003 + trial)
        da = run_occ_da(workload, threads, policy, cadd_aware, timing=timing, with_digest=False)
        makespans.append(da.makespan)
        pattern = da.outcome_multiset()
        if pattern not in da_patterns:
            da_patterns.append(pattern)
        timing = JitterTiming(seed=seed * 1_000_003 + trial)
        dc = run_occ_det_commit(workload, threads, cadd_aware, timing=timing, with_digest=False)
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
