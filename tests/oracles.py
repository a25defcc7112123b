"""Independent oracles used to derive expected values in tests.

These deliberately re-implement the contract definitions along different
code paths than the library (per-key kind classification instead of set
algebra; exhaustive path enumeration instead of DP) so the two sides can
check each other.
"""

from __future__ import annotations

import heapq
import random

from txpar import AccessSet, DependencyGraph, ExecAttempt, OccRunResult, StorageKey, Transaction, Workload
from txpar.occsim import MODE_CLASSIC, _finalize


def _kinds(tx: Transaction, key: StorageKey) -> set[str]:
    kinds = set()
    if key in tx.access.reads:
        kinds.add("r")
    if key in tx.access.writes:
        kinds.add("w")
    if key in tx.access.cadd_keys:
        kinds.add("c")
    return kinds


def oracle_conflict(a: Transaction, b: Transaction, cadd_aware: bool = False, write_cadd_conflicts: bool = True) -> bool:
    """Per-key conflict check: same storage entry, at least one write-like
    access, with the cadd-only exemption in cadd-aware mode."""
    for key in a.access.touched() | b.access.touched():
        ka, kb = _kinds(a, key), _kinds(b, key)
        if not ka or not kb:
            continue
        if not cadd_aware:
            if "w" in ka or "c" in ka or "w" in kb or "c" in kb:
                return True
            continue
        for x, y in ((ka, kb), (kb, ka)):
            if "w" in x and ("r" in y or "w" in y or ("c" in y and write_cadd_conflicts)):
                return True
            if "c" in x and "r" in y:
                return True
    return False


def oracle_edges(workload: Workload, cadd_aware: bool = False, write_cadd_conflicts: bool = True) -> set[tuple[int, int]]:
    """Normative O(n^2) pairwise scan."""
    edges = set()
    txs = list(workload)
    for j in range(len(txs)):
        for i in range(j):
            if oracle_conflict(txs[i], txs[j], cadd_aware, write_cadd_conflicts):
                edges.add((j, i))
    return edges


def all_paths(g: DependencyGraph):
    """Every directed path in the DAG (single vertices included), following
    edges from earlier to later ids."""
    dependents = g.dependents()

    def extend(path):
        yield path
        for j in dependents[path[-1]]:
            yield from extend(path + [j])

    for i in range(g.n):
        yield from extend([i])


def oracle_critical_weight(g: DependencyGraph) -> int:
    return max((sum(g.weights[i] for i in path) for path in all_paths(g)), default=0)


def oracle_heaviest_from(g: DependencyGraph) -> list[int]:
    best = [0] * g.n
    for path in all_paths(g):
        weight = sum(g.weights[i] for i in path)
        if weight > best[path[0]]:
            best[path[0]] = weight
    return best


def random_dag(rng: random.Random, max_n: int = 8, max_weight: int = 20, edge_p: float = 0.3) -> DependencyGraph:
    n = rng.randint(1, max_n)
    edges = {(j, i) for j in range(n) for i in range(j) if rng.random() < edge_p}
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    return DependencyGraph(n=n, edges=frozenset(edges), weights=weights)


def random_workload(rng: random.Random, max_n: int = 24, key_pool: int = 8, with_cadds: bool = True) -> Workload:
    n = rng.randint(1, max_n)
    pool = [StorageKey("c", f"k{i}") for i in range(key_pool)]
    txs = []
    for i in range(n):
        reads = {k for k in pool if rng.random() < 0.25}
        writes = {k for k in pool if rng.random() < 0.2}
        cadds = []
        if with_cadds:
            for k in pool:
                if k not in writes and rng.random() < 0.1:
                    cadds.append((k, rng.randint(-3, 5)))
        txs.append(
            Transaction(
                id=i,
                sender=f"s{rng.randint(0, 4)}",
                gas=rng.randint(1, 1000),
                access=AccessSet(frozenset(reads), frozenset(writes), tuple(cadds)),
            )
        )
    return Workload(transactions=tuple(txs))


def oracle_occ_classic(workload: Workload, threads: int, interleaving_seed: int = 0, *, with_digest: bool = True) -> OccRunResult:
    """The original quadratic classic-OCC loop: every attempt rescans all
    commits for its sv, and retries are inserted at the head of a reversed
    list. The library engine must return an equal result."""
    n = len(workload)
    if n == 0:
        return _finalize(workload, MODE_CLASSIC, threads, "fcfs", [], [], 0, with_digest)

    order = list(range(n))
    random.Random(interleaving_seed).shuffle(order)
    queue = list(reversed(order))  # pop() from the tail = FCFS

    write_commit_times: dict[StorageKey, list[int]] = {}
    committed_at: list[tuple[int, int]] = []  # (commit_time, id) in commit order
    attempt_no = [0] * n
    pool: list[tuple[int, int, int, int]] = []  # (end, dispatch_seq, id, start)
    dispatch_seq = 0
    clock = 0
    attempts: list[ExecAttempt] = []
    committed_order: list[int] = []

    def max_committed_before(time: int) -> int:
        best = -1
        for commit_time, tx_id in committed_at:
            if commit_time <= time and tx_id > best:
                best = tx_id
        return best

    while queue or pool:
        while len(pool) < threads and queue:
            tx_id = queue.pop()
            heapq.heappush(pool, (clock + workload[tx_id].gas, dispatch_seq, tx_id, clock))
            dispatch_seq += 1
        end, _, tx_id, start = heapq.heappop(pool)
        clock = end
        att = attempt_no[tx_id]
        sv = max_committed_before(start)
        # Backward validation: reads against writes committed strictly after
        # this attempt started.
        access = workload[tx_id].access
        read_like = access.reads | access.cadd_keys
        conflict = False
        for key in read_like:
            times = write_commit_times.get(key)
            if times and times[-1] > start:
                conflict = True
                break
        if conflict:
            attempts.append(ExecAttempt(tx_id, att, sv, start, end, "aborted"))
            attempt_no[tx_id] += 1
            queue.insert(0, tx_id)  # back of the FCFS queue
        else:
            attempts.append(ExecAttempt(tx_id, att, sv, start, end, "committed"))
            committed_order.append(tx_id)
            committed_at.append((clock, tx_id))
            for key in access.writes | access.cadd_keys:
                write_commit_times.setdefault(key, []).append(clock)

    return _finalize(workload, MODE_CLASSIC, threads, "fcfs", attempts, committed_order, clock, with_digest)
