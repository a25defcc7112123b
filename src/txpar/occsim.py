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
from .graph import DependencyGraph, KeyIndex, max_dependency
from .storagevm import replay_final_state
from .workload import StorageKey, Workload

MODE_CLASSIC = "occ-classic"
MODE_DET_COMMIT = "occ-det-commit"
MODE_DA = "occ-da"


class ExecAttempt(NamedTuple):
    """One execution attempt: the i-th run of a transaction, its snapshot
    version, its span in virtual time, and whether it committed. A named
    tuple, because the engines build one per attempt."""

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
        """Start each tx at its highest predecessor in `graph`, for graphs
        whose edges are normative (a pruned graph, say)."""
        return cls(variant="dep_graph", first_sv=tuple(deps[-1] if deps else -1 for deps in graph.dependencies()))

    @classmethod
    def from_workload(cls, workload: Workload, cadd_aware: bool = False, *, index: KeyIndex | None = None) -> "SvPolicy":
        """The `from_graph(build_graph(workload, cadd_aware))` policy, derived
        from the per-key access index without building the graph. `index`
        is the workload's `KeyIndex`, built here when not given."""
        index = _checked_index(workload, index)
        return cls(variant="dep_graph", first_sv=max_dependency(index, cadd_aware))

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
    """Virtual execution timing. The default is pure gas: an attempt takes
    exactly its transaction's gas, and completion ties break by tx id."""

    def duration(self, tx_id: int, attempt: int, gas: int) -> int:
        return gas

    def tiebreak(self, tx_id: int, attempt: int):
        return tx_id


class JitterTiming(Timing):
    """Seeded per-attempt duration jitter within +/- `spread` of the gas
    cost, with randomized completion tie-breaking. Simulates nodes whose
    wall-clock speeds diverge from the gas estimate."""

    def __init__(self, seed: int, spread: float = 0.5):
        if not 0 <= spread < 1:
            raise ValidationError(f"jitter spread must be in [0, 1), got {spread}")
        self._rng = random.Random(seed)
        self._spread = spread

    def duration(self, tx_id: int, attempt: int, gas: int) -> int:
        factor = 1.0 + self._rng.uniform(-self._spread, self._spread)
        return max(1, round(gas * factor))

    def tiebreak(self, tx_id: int, attempt: int):
        return self._rng.random()


class FixedTiming(Timing):
    """Explicit per-transaction durations (attempt-independent); models one
    concrete node-timing scenario."""

    def __init__(self, durations: Mapping[int, int]):
        self._durations = dict(durations)

    def duration(self, tx_id: int, attempt: int, gas: int) -> int:
        return self._durations.get(tx_id, gas)


def _finalize(
    workload: Workload,
    mode: str,
    threads: int,
    policy_name: str,
    attempts: list[ExecAttempt],
    committed_order: list[int],
    makespan: int,
    with_digest: bool,
) -> OccRunResult:
    serial = workload.serial_gas()
    wasted = sum(workload[a.tx_id].gas for a in attempts if a.outcome == "aborted")
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


def _checked_index(workload: Workload, index: KeyIndex | None) -> KeyIndex:
    """`index`, or a new one when None; one built for another workload is
    rejected."""
    if index is None:
        return KeyIndex(workload)
    if index.workload is not workload and index.workload != workload:
        raise ValidationError("the key index was built for another workload")
    return index


def _run_in_order(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None,
    cadd_aware: bool,
    timing: Timing,
    with_digest: bool,
    index: KeyIndex | None,
) -> OccRunResult:
    """Shared engine for the two in-order-commit modes.

    With a policy, storage versions gate admission: a tx waits until its
    assigned version has committed. Without one (det-commit), every tx is
    ready immediately and snapshots the highest committed id at dispatch.

    Loop stages per iteration: admit ready txs into free pool slots, retire
    the pool's earliest completion, then drain in-order commits.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    n = len(workload)
    mode = MODE_DA if policy is not None else MODE_DET_COMMIT
    policy_name = policy.variant if policy is not None else "runtime"
    if policy is not None and policy.first_sv is not None and len(policy.first_sv) != n:
        raise ValidationError(f"policy covers {len(policy.first_sv)} txs, the workload has {n}")
    index = _checked_index(workload, index)
    if n == 0:
        return _finalize(workload, mode, threads, policy_name, [], [], 0, with_digest)

    read_keys = index.read_keys(cadd_aware)
    gas = [tx.gas for tx in workload]
    attempt_no = [0] * n

    waiting: list[tuple[int, int]] = []  # (sv, id); admission-gated txs (policy mode)
    ready: list[int] = []  # ids ready for a pool slot
    if policy is not None:
        waiting = [(policy.storage_version(i, 0), i) for i in range(n)]
        heapq.heapify(waiting)
    else:
        ready = list(range(n))
        heapq.heapify(ready)

    pool: list[tuple[int, object, int, int, int]] = []  # (end, tie, id, sv, start)
    commit_queue: list[tuple[int, int, int, int]] = []  # (id, sv, start, end)
    clock = 0
    next_commit = 0
    attempts: list[ExecAttempt] = []
    committed_order: list[int] = []

    while next_commit < n:
        # Stage 1: admission. Txs whose storage version has committed become
        # ready; ready txs fill free pool slots lowest-id first.
        while waiting and waiting[0][0] <= next_commit - 1:
            _, tx_id = heapq.heappop(waiting)
            heapq.heappush(ready, tx_id)
        while len(pool) < threads and ready:
            tx_id = heapq.heappop(ready)
            att = attempt_no[tx_id]
            sv = policy.storage_version(tx_id, att) if policy is not None else next_commit - 1
            duration = timing.duration(tx_id, att, gas[tx_id])
            if duration < 1:
                raise ValidationError(f"timing gave tx {tx_id} attempt {att} duration {duration}; it must be >= 1")
            heapq.heappush(pool, (clock + duration, timing.tiebreak(tx_id, att), tx_id, sv, clock))

        if not pool and not commit_queue:
            raise InvariantViolation("scheduler stalled with uncommitted transactions")

        # Stage 2: retire exactly one completion, advancing the clock.
        if pool:
            end, _, tx_id, sv, start = heapq.heappop(pool)
            clock = end
            heapq.heappush(commit_queue, (tx_id, sv, start, end))

        # Stage 3: commit strictly in id order.
        while commit_queue and commit_queue[0][0] == next_commit:
            tx_id, sv, start, end = heapq.heappop(commit_queue)
            att = attempt_no[tx_id]
            if index.written_between(read_keys[tx_id], sv + 1, tx_id - 1):
                attempts.append(ExecAttempt(tx_id, att, sv, start, end, "aborted"))
                attempt_no[tx_id] += 1
                if policy is not None:
                    heapq.heappush(waiting, (policy.storage_version(tx_id, att + 1), tx_id))
                else:
                    heapq.heappush(ready, tx_id)
            else:
                attempts.append(ExecAttempt(tx_id, att, sv, start, end, "committed"))
                committed_order.append(tx_id)
                next_commit += 1

    return _finalize(workload, mode, threads, policy_name, attempts, committed_order, clock, with_digest)


def run_occ_da(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None = None,
    cadd_aware: bool = False,
    *,
    timing: Timing | None = None,
    with_digest: bool = True,
    index: KeyIndex | None = None,
) -> OccRunResult:
    """OCC with deterministic aborts: storage versions fixed per (tx,
    attempt) before execution, so the commit/abort outcome of every attempt
    is independent of execution timing. `index` is the workload's
    `KeyIndex`, built here when not given."""
    return _run_in_order(
        workload,
        threads,
        policy if policy is not None else SvPolicy.minus_one(),
        cadd_aware,
        timing or Timing(),
        with_digest,
        index,
    )


def run_occ_det_commit(
    workload: Workload,
    threads: int,
    cadd_aware: bool = False,
    *,
    timing: Timing | None = None,
    with_digest: bool = True,
    index: KeyIndex | None = None,
) -> OccRunResult:
    """OCC with deterministic commit order only: commits follow block order,
    but each dispatch snapshots the highest committed id at that moment, so
    abort patterns vary with timing. `index` is as for `run_occ_da`."""
    return _run_in_order(workload, threads, None, cadd_aware, timing or Timing(), with_digest, index)


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
        return _finalize(workload, MODE_CLASSIC, threads, "fcfs", [], [], 0, with_digest)

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

    return _finalize(workload, MODE_CLASSIC, threads, "fcfs", attempts, committed_order, clock, with_digest)


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
    jitter: float = 0.5,
) -> ProbeReport:
    """Run both in-order schedulers `trials` times under randomized
    completion tie-breaking and per-attempt duration jitter, collecting the
    distinct outcome multisets of each."""
    if trials < 2:
        raise ValidationError(f"trials must be >= 2, got {trials}")
    policy = policy if policy is not None else SvPolicy.minus_one()
    index = KeyIndex(workload)  # shared by every trial of both engines
    da_patterns: list = []
    dc_patterns: list = []
    makespans: list[int] = []
    for trial in range(trials):
        timing = JitterTiming(seed=seed * 1_000_003 + trial, spread=jitter)
        da = run_occ_da(workload, threads, policy, cadd_aware, timing=timing, with_digest=False, index=index)
        makespans.append(da.makespan)
        pattern = da.outcome_multiset()
        if pattern not in da_patterns:
            da_patterns.append(pattern)
        timing = JitterTiming(seed=seed * 1_000_003 + trial, spread=jitter)
        dc = run_occ_det_commit(workload, threads, cadd_aware, timing=timing, with_digest=False, index=index)
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
