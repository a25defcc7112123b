"""Miniature versioned key-value storage engine with snapshot reads and a
pending commutative-add buffer. Provides the serial reference executor used
as the correctness oracle for every scheduler and transform.

Traces carry no values, so written values are synthesized with a published
function of the writer id, the key, and the values the writer observed.
Folding the observed reads into written values makes any serialization or
snapshot divergence propagate into the final-state digest.

`TxVm`, `exec_abstract` and `commit` are the normative interpreter. The
serial executor and the replay of OCC runs take a fast path with the same
semantics: each workload object compiles its transactions once into a
replay plan (sorted reads and writes, commutative adds folded per key), and
one loop executes the plan against a versioned store.
The plan and the serial digest with the version floors are two tables kept
by `Workload.derived`, so each is built once per workload object and freed
with it. Tests compare the plan with the interpreter, state for state.

A deterministic run that observed only serial versions need not be
replayed. The version floors give, per tx, the newest serial version
among the keys it reads; an attempt whose storage version is at or above its
floor saw what serial execution sees, so if every attempt passes, the run
ends in the serial state. `replay_digest`, and `replay_check` through it,
take that proof and fall back to the full replay on the first attempt that
fails it, so their answers are the replay's.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import ge
from typing import TYPE_CHECKING

from .errors import InvariantViolation, ValidationError
from .workload import StorageKey, Transaction, Workload

if TYPE_CHECKING:  # pragma: no cover
    from .occsim import OccRunResult


def write_value(tx_id: int, key: StorageKey, read_log) -> int:
    """Published synthetic value function: sha256 of the writer id, the key,
    and the sorted (key, value, version) observations, truncated to 64 bits."""
    return _hash_write(tx_id, key, _observed(read_log))


def _observed(read_log) -> str:
    """`write_value`'s text of the observations, which every write of one
    transaction shares."""
    return ";".join(f"{k}={v}@{ver}" for k, v, ver in sorted(read_log))


def _hash_write(tx_id: int, key: StorageKey | str, observed: str) -> int:
    """`write_value` of a key (or its `contract:slot` text) given the
    observations' text."""
    digest = hashlib.sha256(f"w|{tx_id}|{key}|{observed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class TxEffect:
    """Buffered effects of one transaction execution.

    `read_log` records snapshot observations as (key, value, version)
    triples. A key never sits in both `write_buffer` and `pending_cadds`: a
    store erases pending adds, and a load folds pending adds into a
    read+write.
    """

    read_log: list[tuple[StorageKey, int, int]] = field(default_factory=list)
    write_buffer: dict[StorageKey, int] = field(default_factory=dict)
    pending_cadds: dict[StorageKey, list[int]] = field(default_factory=dict)


class StorageState:
    """Multi-version store: per key, an append-only list of (version, value)
    with strictly increasing versions. Version -1 is the pre-block state and
    unwritten keys default to 0."""

    __slots__ = ("_committed", "_max_version")

    def __init__(self):
        self._committed: dict[StorageKey, tuple[list[int], list[int]]] = {}
        self._max_version = -1

    @property
    def max_version(self) -> int:
        return self._max_version

    def read(self, key: StorageKey, snapshot_sv: int) -> tuple[int, int]:
        """Value and version of the newest commit with version <= snapshot_sv,
        or (0, -1) if none."""
        entry = self._committed.get(key)
        if entry is None:
            return 0, -1
        versions, values = entry
        idx = bisect_right(versions, snapshot_sv)
        if idx == 0:
            return 0, -1
        return values[idx - 1], versions[idx - 1]

    def latest(self, key: StorageKey) -> int:
        entry = self._committed.get(key)
        if entry is None:
            return 0
        return entry[1][-1]

    def _append(self, key: StorageKey, version: int, value: int) -> None:
        versions, values = self._committed.setdefault(key, ([], []))
        versions.append(version)
        values.append(value)

    def items(self) -> list[tuple[StorageKey, int]]:
        """Final value per key, sorted by key."""
        return sorted((key, values[-1]) for key, (_, values) in self._committed.items())

    def digest(self) -> str:
        """Canonical state digest: sha256 over sorted `key value` lines."""
        # `contract:slot` is StorageKey's text form, spelled out to skip a
        # method call per key.
        rows = sorted(self._committed.items())  # keys are distinct: values are never compared
        lines = "\n".join(f"{contract}:{slot} {values[-1]}" for (contract, slot), (_, values) in rows)
        return hashlib.sha256(lines.encode()).hexdigest()


class TxVm:
    """Executes storage operations against a fixed snapshot, buffering
    effects. Implements the commutative-add rules: a store erases pending
    adds on its key, and a load first folds pending adds into the snapshot
    value, reclassifying the key as read+write."""

    def __init__(self, state: StorageState, snapshot_sv: int):
        self.state = state
        self.snapshot_sv = snapshot_sv
        self.effect = TxEffect()

    def load(self, key: StorageKey) -> int:
        buffered = self.effect.write_buffer.get(key)
        if buffered is not None:
            return buffered  # read-your-own-write; not a snapshot observation
        value, version = self.state.read(key, self.snapshot_sv)
        pending = self.effect.pending_cadds.pop(key, None)
        if pending is not None:
            value += sum(pending)
            self.effect.write_buffer[key] = value
        self.effect.read_log.append((key, value, version))
        return value

    def store(self, key: StorageKey, value: int) -> None:
        self.effect.pending_cadds.pop(key, None)
        self.effect.write_buffer[key] = value

    def cadd(self, key: StorageKey, delta: int) -> None:
        if key in self.effect.write_buffer:
            # The buffered value is transaction-local; folding eagerly keeps
            # the write-buffer/pending exclusivity invariant.
            self.effect.write_buffer[key] += delta
        else:
            self.effect.pending_cadds.setdefault(key, []).append(delta)


def exec_abstract(tx: Transaction, snapshot_sv: int, state: StorageState) -> TxEffect:
    """Interpret a trace-level transaction against a snapshot.

    Trace access sets are post-normalization, so the execution order is
    reads, then commutative adds, then writes; a write to a key erases that
    key's pending adds.
    """
    vm = TxVm(state, snapshot_sv)
    for key in sorted(tx.access.reads):
        vm.load(key)
    for key, delta in tx.access.cadds:
        vm.cadd(key, delta)
    if tx.access.writes:
        # Cadds and stores log no reads, so every write sees the same observations.
        observed = _observed(vm.effect.read_log)
        for key in sorted(tx.access.writes):
            vm.store(key, _hash_write(tx.id, key, observed))
    return vm.effect


def commit(effect: TxEffect, as_version: int, state: StorageState) -> StorageState:
    """Atomically apply an effect at `as_version`.

    Buffered writes are appended as-is; pending adds fold onto each key's
    latest committed value (not the snapshot), which is what makes them
    commutative across concurrent transactions.
    """
    if as_version <= state.max_version:
        raise InvariantViolation(
            f"version regression: committing {as_version} after {state.max_version}"
        )
    for key in sorted(effect.write_buffer):
        state._append(key, as_version, effect.write_buffer[key])
    for key in sorted(effect.pending_cadds):
        state._append(key, as_version, state.latest(key) + sum(effect.pending_cadds[key]))
    state._max_version = as_version
    return state


def _plan(workload: Workload) -> list[tuple]:
    """The workload's replay plan: its storage program, compiled once from
    its access sets and kept by `Workload.derived`.

    Per tx in id order, what `exec_abstract` + `commit` do with it: (id,
    reads, writes, cadds). Reads and writes are key tuples in sorted order;
    reads are kept only when the tx writes, because its read log feeds
    nothing but its write values. Cadds are folded to one (key, total delta)
    per key, without the keys the tx also writes, whose pending adds its
    stores erase. Key texts are not stored: formatting them per replay is
    cheap, and storing them would double the plan's memory.
    """
    return workload.derived("replay_plan", _compile_plan)


def _compile_plan(workload: Workload) -> list[tuple]:
    plan = []
    for tx in workload:
        access = tx.access
        writes = tuple(sorted(access.writes))
        cadds: dict[StorageKey, int] = {}
        for key, delta in access.cadds:
            if key not in access.writes:
                cadds[key] = cadds.get(key, 0) + delta
        if not writes:
            reads = ()
        elif access.reads == access.writes:  # a read-modify-write shares one tuple
            reads = writes
        else:
            reads = tuple(sorted(access.reads))
        plan.append((tx.id, reads, writes, tuple(cadds.items())))
    return plan


def _replay(schedule) -> StorageState:
    """Execute (plan entry, snapshot sv, commit version) steps in order on a
    fresh store, exactly as `exec_abstract` followed by `commit`: reads see
    the newest version <= sv, writes hash the observations through
    `_hash_write`, and cadds fold onto each key's latest committed value."""
    state = StorageState()
    committed = state._committed
    for (tx_id, reads, writes, cadds), sv, version in schedule:
        if version <= state._max_version:
            raise InvariantViolation(f"version regression: committing {version} after {state._max_version}")
        if writes:
            observed = []
            for key in reads:
                entry = committed.get(key)
                idx = bisect_right(entry[0], sv) if entry is not None else 0
                contract, slot = key  # the key text is `contract:slot`
                if idx:
                    observed.append(f"{contract}:{slot}={entry[1][idx - 1]}@{entry[0][idx - 1]}")
                else:
                    observed.append(f"{contract}:{slot}=0@-1")
            observed = ";".join(observed)
            for key in writes:
                contract, slot = key
                value = _hash_write(tx_id, f"{contract}:{slot}", observed)
                entry = committed.get(key)
                if entry is None:
                    committed[key] = ([version], [value])
                else:
                    entry[0].append(version)
                    entry[1].append(value)
        for key, delta in cadds:
            entry = committed.get(key)
            if entry is None:
                committed[key] = ([version], [delta])
            else:
                entry[0].append(version)
                entry[1].append(entry[1][-1] + delta)
        state._max_version = version
    return state


def serial_final_state(workload: Workload) -> StorageState:
    """Ground-truth serial executor: tx i reads snapshot i-1 and commits at i."""
    return _replay((entry, entry[0] - 1, entry[0]) for entry in _plan(workload))


def _serial_reference(workload: Workload) -> tuple[str, list[int]]:
    """The serial digest and the version floors, one table. A tx's floor is
    the newest serial version among its read keys: the highest lower id that
    writes or cadds one of them, or -1. Taken from the plan, not from
    `graph`'s access index, so the proof stays independent of the engines'
    abort table. Non-writers keep no reads, so their floor is -1."""
    last: dict[StorageKey, int] = {}
    floors = []
    for tx_id, reads, writes, cadds in _plan(workload):
        floors.append(max([last.get(key, -1) for key in reads], default=-1))
        for key in writes:
            last[key] = tx_id
        for key, _ in cadds:
            last[key] = tx_id
    return serial_final_state(workload).digest(), floors


def run_serial(workload: Workload) -> str:
    """Digest of `serial_final_state`, computed once per workload object."""
    return workload.derived("serial", _serial_reference)[0]


def _deterministic_svs(workload: Workload, result: "OccRunResult") -> list[int] | None:
    """Validate a run's attempts and return each tx's committed storage
    version in id order, or None for a classic run, whose commit order is
    validated instead."""
    n = len(workload)
    for attempt in result.attempts:
        if not 0 <= attempt.tx_id < n:
            raise ValidationError(f"attempt references unknown tx {attempt.tx_id}")

    if result.mode == "occ-classic":
        if sorted(result.committed_order) != list(range(n)):
            raise ValidationError("classic run must commit every tx exactly once")
        return None

    committed = [a for a in result.attempts if a.outcome == "committed"]
    by_id = {a.tx_id: a for a in committed}
    if sorted(by_id) != list(range(n)) or len(committed) != n:
        raise ValidationError("deterministic run must commit every tx exactly once")
    svs = [by_id[tx_id].sv for tx_id in range(n)]
    for tx_id, sv in enumerate(svs):
        if not -1 <= sv < tx_id:
            raise ValidationError(f"tx {tx_id}: storage version {sv} outside [-1, {tx_id - 1}]")
    return svs


def replay_final_state(workload: Workload, result: "OccRunResult") -> StorageState:
    """Re-execute the committed attempts of an OCC run.

    Deterministic modes replay in id order with each attempt's recorded
    storage version, which must lie in [-1, id - 1]. Classic OCC has no
    prefix storage versions, so it is replayed as the serial execution in
    its achieved commit order, which is the serialization its validation
    rule guarantees.
    """
    svs = _deterministic_svs(workload, result)
    txs = _plan(workload)
    if svs is None:
        return _replay((txs[tx_id], position - 1, position) for position, tx_id in enumerate(result.committed_order))
    return _replay(zip(txs, svs, range(len(txs))))


def replay_digest(workload: Workload, result: "OccRunResult") -> str:
    """`replay_final_state(workload, result).digest()`, validated the same
    way. A deterministic run whose every storage version is at or above its
    tx's version floor observed only serial (value, version) pairs, so by
    induction on the id it ends in the serial state and its digest is
    `run_serial`'s. Any other run is replayed."""
    if result.mode != "occ-classic":
        svs = _deterministic_svs(workload, result)
        digest = run_serial(workload)  # builds the version floors with it
        if all(map(ge, svs, workload.derived("serial", _serial_reference)[1])):
            return digest
    return replay_final_state(workload, result).digest()


def replay_check(workload: Workload, result: "OccRunResult") -> bool:
    """True iff replaying the run's committed attempts reproduces the fully
    serial execution digest."""
    return replay_digest(workload, result) == run_serial(workload)
