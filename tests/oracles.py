"""Independent oracles used to derive expected values in tests.

These deliberately re-implement the contract definitions along different
code paths than the library (per-key kind classification instead of set
algebra; exhaustive path enumeration instead of DP) so the two sides can
check each other.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import replace
from fractions import Fraction
from typing import Iterator

from txpar import (
    AccessSet,
    DependencyGraph,
    ExecAttempt,
    InvariantViolation,
    OccRunResult,
    StorageKey,
    SvPolicy,
    TraceParseError,
    Timing,
    Transaction,
    ValidationError,
    Workload,
    build_graph,
    prune_edges_probabilistic,
)
from txpar.occsim import MODE_CLASSIC, MODE_DA, MODE_DET_COMMIT, _finalize
from txpar.workload import _META_PREFIX

#: Both conflict modes, as cadd_aware.
CADD_MODES = [False, True]


def _kinds(tx: Transaction, key: StorageKey) -> set[str]:
    kinds = set()
    if key in tx.access.reads:
        kinds.add("r")
    if key in tx.access.writes:
        kinds.add("w")
    if key in tx.access.cadd_keys:
        kinds.add("c")
    return kinds


def oracle_conflict_keys(a: Transaction, b: Transaction, cadd_aware: bool = False) -> frozenset[StorageKey]:
    """The keys on which the pair conflicts, checked key by key: same storage
    entry, at least one write-like access, with the cadd-only exemption in
    cadd-aware mode."""
    causes = set()
    for key in a.access.touched() | b.access.touched():
        ka, kb = _kinds(a, key), _kinds(b, key)
        if not ka or not kb:
            continue
        if not cadd_aware:
            if "w" in ka or "c" in ka or "w" in kb or "c" in kb:
                causes.add(key)
            continue
        for x, y in ((ka, kb), (kb, ka)):
            if "w" in x and ("r" in y or "w" in y or "c" in y):
                causes.add(key)
            if "c" in x and "r" in y:
                causes.add(key)
    return frozenset(causes)


def oracle_conflict(a: Transaction, b: Transaction, cadd_aware: bool = False) -> bool:
    """Per-key conflict check: the pair conflicts iff some key causes it."""
    return bool(oracle_conflict_keys(a, b, cadd_aware))


def oracle_edges(workload: Workload, cadd_aware: bool = False) -> set[tuple[int, int]]:
    """Normative O(n^2) pairwise scan."""
    edges = set()
    txs = list(workload)
    for j in range(len(txs)):
        for i in range(j):
            if oracle_conflict(txs[i], txs[j], cadd_aware):
                edges.add((j, i))
    return edges


def oracle_prune(
    g: DependencyGraph,
    workload: Workload,
    target_keys,
    removal_probability,
    seed: int = 0,
    cadd_aware: bool = False,
) -> tuple[DependencyGraph, set[tuple[int, int]]]:
    """The annotated prune: every pair of the workload carries the keys it
    conflicts on (`oracle_conflict_keys`), and a pair is prunable iff those
    keys are non-empty and all targets. The edges of `g` are visited in
    sorted order, with one uniform draw per prunable edge. Returns the pruned
    graph and the workload's prunable pairs."""
    p = float(Fraction(removal_probability))
    target_keys = frozenset(target_keys)
    txs = list(workload)
    prunable = set()
    for j in range(len(txs)):
        for i in range(j):
            causes = oracle_conflict_keys(txs[j], txs[i], cadd_aware)
            if causes and causes <= target_keys:
                prunable.add((j, i))
    rng = random.Random(seed)
    kept = {edge for edge in sorted(g.edges) if edge not in prunable or rng.random() >= p}
    return DependencyGraph(n=g.n, edges=frozenset(kept), weights=g.weights), prunable


def edges_only_on(workload: Workload, keys, cadd_aware: bool = False) -> set[tuple[int, int]]:
    """The library's side of `oracle_prune`'s prunable set: the edges that
    `prune_edges_probabilistic` removes at p=1 from `build_graph`'s graph,
    those whose two txs conflict on some of `keys` and on no other key."""
    g = build_graph(workload, cadd_aware)
    return set(g.edges - prune_edges_probabilistic(g, workload, keys, 1, cadd_aware=cadd_aware).edges)


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


def _wasted_gas(workload: Workload, attempts: list[ExecAttempt]) -> int:
    """The gas of the aborted attempts, summed from the attempts themselves,
    so the engines' running sums are checked against an independent count."""
    return sum(workload[a.tx_id].gas for a in attempts if a.outcome == "aborted")


def oracle_occ_classic(workload: Workload, threads: int, interleaving_seed: int = 0) -> OccRunResult:
    """The original quadratic classic-OCC loop: every attempt rescans all
    commits for its sv, and retries are inserted at the head of a reversed
    list. The library engine must return an equal result."""
    n = len(workload)
    if n == 0:
        return _finalize([], MODE_CLASSIC, threads, "fcfs", [], [], 0, 0)

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

    wasted = _wasted_gas(workload, attempts)
    return _finalize([tx.gas for tx in workload], MODE_CLASSIC, threads, "fcfs", attempts, committed_order, clock, wasted)


def _written_in_window(workload: Workload, keys: frozenset, sv: int, tx_id: int) -> bool:
    """Naive commit-window check: does any tx with id in (sv, tx_id) write or
    cadd one of `keys`? Scans the window's access sets one by one."""
    return any(keys & (workload[i].access.writes | workload[i].access.cadd_keys) for i in range(sv + 1, tx_id))


def _aborting_keys(tx: Transaction, cadd_aware: bool) -> frozenset:
    """The keys whose writes in its commit window abort `tx`: its reads, plus
    its cadd keys unless commutative adds are honoured."""
    return tx.access.reads if cadd_aware else tx.access.reads | tx.access.cadd_keys


def oracle_run_in_order(
    workload: Workload,
    threads: int,
    policy: SvPolicy | None,
    cadd_aware: bool = False,
    timing: Timing | None = None,
) -> OccRunResult:
    """The original in-order engine loop (occ-da with a policy, det-commit
    without): storage versions are recomputed at dispatch, completed attempts
    wait in a commit-queue heap, and each commit turn scans its window's
    access sets. The library engine must return an equal result."""
    timing = timing or Timing()
    n = len(workload)
    mode = MODE_DA if policy is not None else MODE_DET_COMMIT
    policy_name = policy.variant if policy is not None else "runtime"
    if n == 0:
        return _finalize([], mode, threads, policy_name, [], [], 0, 0)

    read_keys = [_aborting_keys(tx, cadd_aware) for tx in workload]
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
        while waiting and waiting[0][0] <= next_commit - 1:
            _, tx_id = heapq.heappop(waiting)
            heapq.heappush(ready, tx_id)
        while len(pool) < threads and ready:
            tx_id = heapq.heappop(ready)
            att = attempt_no[tx_id]
            sv = policy.storage_version(tx_id, att) if policy is not None else next_commit - 1
            duration, tie = timing.draw(tx_id, att, workload[tx_id].gas)
            if duration < 1:
                raise ValidationError(f"timing gave tx {tx_id} attempt {att} duration {duration}")
            heapq.heappush(pool, (clock + duration, tie, tx_id, sv, clock))

        if not pool and not commit_queue:
            raise InvariantViolation("scheduler stalled with uncommitted transactions")

        if pool:
            end, _, tx_id, sv, start = heapq.heappop(pool)
            clock = end
            heapq.heappush(commit_queue, (tx_id, sv, start, end))

        while commit_queue and commit_queue[0][0] == next_commit:
            tx_id, sv, start, end = heapq.heappop(commit_queue)
            att = attempt_no[tx_id]
            if _written_in_window(workload, read_keys[tx_id], sv, tx_id):
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

    wasted = _wasted_gas(workload, attempts)
    return _finalize([tx.gas for tx in workload], mode, threads, policy_name, attempts, committed_order, clock, wasted)


def oracle_occ_da_outcomes(workload: Workload, policy: SvPolicy, cadd_aware: bool = False) -> tuple:
    """The closed-form occ-da outcome multiset: sorted (tx, attempt, sv,
    outcome) tuples, with no scheduler at all. Each tx walks its attempts
    k = 0, 1, ... with sv = policy(tx, k); an attempt aborts iff a tx with id
    in (sv, id) writes or cadds a key it reads, and the first attempt with an
    empty window commits. The window check scans each key's writer list,
    built here from the access sets."""
    writers: dict[StorageKey, list[int]] = {}  # key -> ids that write or cadd it, ascending
    for tx in workload:
        for key in tx.access.writes | tx.access.cadd_keys:
            writers.setdefault(key, []).append(tx.id)
    outcomes = []
    for tx in workload:
        keys = _aborting_keys(tx, cadd_aware)
        attempt = 0
        while True:
            sv = policy.storage_version(tx.id, attempt)
            if any(sv < i < tx.id for key in keys for i in writers.get(key, ())):
                outcomes.append((tx.id, attempt, sv, "aborted"))
                attempt += 1
            else:
                outcomes.append((tx.id, attempt, sv, "committed"))
                break
    return tuple(sorted(outcomes))


def _oracle_iter_lines(stream) -> Iterator[tuple[int, str]]:
    text = stream if isinstance(stream, (bytes, str)) else stream.read()  # else file-like
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            raise TraceParseError(line_no, f"not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        yield line_no, line


def _oracle_parse_key_list(raw, line_no: int, field_name: str, cache: dict) -> list[StorageKey]:
    if not isinstance(raw, list):
        raise TraceParseError(line_no, f"{field_name} must be an array")
    keys = []
    for item in raw:
        if not isinstance(item, str):
            raise TraceParseError(line_no, f"{field_name} entries must be strings")
        try:
            key = cache.get(item)
            if key is None:
                key = cache[item] = StorageKey.parse(item)
        except ValidationError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        keys.append(key)
    return keys


def oracle_parse_trace(stream) -> Workload:
    """The plain path that the scanning `parse_trace` is checked against:
    `json.loads` on every record line, `StorageKey.parse` on every key entry,
    and `reads` and `writes` each walked and checked on their own. It keeps
    every check, message and line number of the trace format.

    Ids are renumbered contiguously from 0; all keys are interned so equal
    keys share one object.
    """
    meta: dict = {}
    key_cache: dict[str, StorageKey] = {}
    records: list[tuple[int | None, int, Transaction]] = []  # (declared id, line, tx-with-dummy-id)
    seen_ids: set[int] = set()
    with_ids: bool | None = None

    for line_no, line in _oracle_iter_lines(stream):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.startswith(_META_PREFIX.strip() + " "):
                try:
                    parsed = json.loads(stripped[len(_META_PREFIX.strip()) :].strip())
                    if isinstance(parsed, dict):
                        meta = parsed
                except (ValueError, RecursionError):
                    pass  # foreign comment that merely resembles a meta line
            continue
        try:
            obj = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # also an over-long number or too deep a nesting
            raise TraceParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
        if not isinstance(obj, dict):
            raise TraceParseError(line_no, "record must be a JSON object")

        declared_id = obj.get("id")
        if declared_id is not None and (isinstance(declared_id, bool) or not isinstance(declared_id, int)):
            raise TraceParseError(line_no, "id must be an integer")
        has_id = declared_id is not None
        if with_ids is None:
            with_ids = has_id
        elif with_ids != has_id:
            raise ValidationError(f"line {line_no}: either every record carries an id or none does")
        if has_id:
            if declared_id in seen_ids:
                raise ValidationError(f"line {line_no}: duplicate id {declared_id}")
            seen_ids.add(declared_id)

        sender = obj.get("sender")
        if not isinstance(sender, str) or not sender:
            raise TraceParseError(line_no, "sender must be a non-empty string")
        gas = obj.get("gas")
        if isinstance(gas, bool) or not isinstance(gas, int):
            raise TraceParseError(line_no, "gas must be an integer")
        if gas < 1:
            raise ValidationError(f"line {line_no}: gas must be >= 1, got {gas}")

        reads = _oracle_parse_key_list(obj.get("reads", []), line_no, "reads", key_cache)
        writes = _oracle_parse_key_list(obj.get("writes", []), line_no, "writes", key_cache)
        raw_cadds = obj.get("cadds", [])
        if not isinstance(raw_cadds, list):
            raise TraceParseError(line_no, "cadds must be an array")
        cadds = []
        for entry in raw_cadds:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
                raise TraceParseError(line_no, "cadds entries must be [key, delta] pairs")
            if isinstance(entry[1], bool) or not isinstance(entry[1], int):
                raise TraceParseError(line_no, "cadd delta must be an integer")
            (key,) = _oracle_parse_key_list([entry[0]], line_no, "cadds", key_cache)
            cadds.append((key, entry[1]))

        access = AccessSet(reads=frozenset(reads), writes=frozenset(writes), cadds=tuple(cadds))
        records.append((declared_id, line_no, Transaction(id=0, sender=sender, gas=gas, access=access)))

    if with_ids and records:
        ids = sorted(seen_ids)
        if ids[-1] - ids[0] + 1 != len(ids):
            raise ValidationError(f"ids must be contiguous, got range {ids[0]}..{ids[-1]} for {len(ids)} records")
        records.sort(key=lambda rec: rec[0])

    txs = tuple(replace(tx, id=pos) for pos, (_, _, tx) in enumerate(records))
    return Workload(transactions=txs, meta=meta)


def oracle_emit_trace(workload: Workload) -> bytes:
    """The plain emitter that the templated `emit_trace` is checked against:
    each record a dict written by `json.dumps`, its key lists sorted by the
    keys' `contract:slot` text. It does not check the meta."""
    out = ["# txpar-trace v1"]
    if workload.meta:
        out.append(_META_PREFIX + json.dumps(workload.meta, sort_keys=True, separators=(",", ":")))
    for tx in workload:
        record = {
            "id": tx.id,
            "sender": tx.sender,
            "gas": tx.gas,
            "reads": sorted(str(k) for k in tx.access.reads),
            "writes": sorted(str(k) for k in tx.access.writes),
            "cadds": [[str(k), delta] for k, delta in tx.access.cadds],
        }
        out.append(json.dumps(record, separators=(",", ":")))
    return ("\n".join(out) + "\n").encode("utf-8")


def assert_built_like_public(workload: Workload) -> None:
    """Each object of `workload`, however txpar built it, equals, hashes and
    prints like the one the public constructors build from its fields, with
    its fields in the same order; the public `Workload` also checks its ids
    and keys."""
    for tx in workload:
        access = tx.access
        public_access = AccessSet(access.reads, access.writes, access.cadds)
        public_tx = Transaction(tx.id, tx.sender, tx.gas, public_access)
        for ours, public in ((access, public_access), (tx, public_tx)):
            assert type(ours) is type(public)
            assert ours == public and hash(ours) == hash(public) and repr(ours) == repr(public)
            assert list(vars(ours).items()) == list(vars(public).items())
    public = Workload(transactions=[replace(tx) for tx in workload], meta=dict(workload.meta))
    assert type(workload) is Workload
    assert workload == public and hash(workload) == hash(public) and repr(workload) == repr(public)
    assert list(vars(workload)) == list(vars(public))
    assert workload._memo == {}
