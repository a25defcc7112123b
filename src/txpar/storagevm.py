"""Miniature versioned key-value storage engine with snapshot reads and a
pending commutative-add buffer. Provides the serial reference executor used
as the correctness oracle for every scheduler and transform.

Traces carry no values, so written values are synthesized with a published
function of the writer id, the key, and the values the writer observed.
Folding the observed reads into written values makes any serialization or
snapshot divergence propagate into the final-state digest.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
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


def _hash_write(tx_id: int, key: StorageKey, observed: str) -> int:
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
        lines = "\n".join(f"{key} {value}" for key, value in self.items())
        return hashlib.sha256(lines.encode()).hexdigest()

    def dump(self) -> str:
        """Sorted `key value version` lines for golden-file comparisons."""
        rows = sorted((key, values[-1], versions[-1]) for key, (versions, values) in self._committed.items())
        return "\n".join(f"{key} {value} {version}" for key, value, version in rows) + ("\n" if rows else "")


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


def serial_final_state(workload: Workload) -> StorageState:
    """Ground-truth serial executor: tx i reads snapshot i-1 and commits at i."""
    state = StorageState()
    for tx in workload:
        effect = exec_abstract(tx, tx.id - 1, state)
        commit(effect, tx.id, state)
    return state


def run_serial(workload: Workload) -> str:
    return serial_final_state(workload).digest()


def replay_final_state(workload: Workload, result: "OccRunResult") -> StorageState:
    """Re-execute the committed attempts of an OCC run.

    Deterministic modes replay in id order with each attempt's recorded
    storage version. Classic OCC has no prefix storage versions, so it is
    replayed as the serial execution in its achieved commit order, which is
    the serialization its validation rule guarantees.
    """
    n = len(workload)
    committed = [a for a in result.attempts if a.outcome == "committed"]
    for attempt in result.attempts:
        if not 0 <= attempt.tx_id < n:
            raise ValidationError(f"attempt references unknown tx {attempt.tx_id}")

    state = StorageState()
    if result.mode == "occ-classic":
        if sorted(result.committed_order) != list(range(n)):
            raise ValidationError("classic run must commit every tx exactly once")
        for position, tx_id in enumerate(result.committed_order):
            effect = exec_abstract(workload[tx_id], position - 1, state)
            commit(effect, position, state)
        return state

    by_id = {a.tx_id: a for a in committed}
    if sorted(by_id) != list(range(n)) or len(committed) != n:
        raise ValidationError("deterministic run must commit every tx exactly once")
    for tx_id in range(n):
        attempt = by_id[tx_id]
        if not -1 <= attempt.sv < n:
            raise ValidationError(f"tx {tx_id}: storage version {attempt.sv} out of range")
        effect = exec_abstract(workload[tx_id], attempt.sv, state)
        commit(effect, tx_id, state)
    return state


def replay_check(workload: Workload, result: "OccRunResult") -> bool:
    """True iff replaying the run's committed attempts reproduces the fully
    serial execution digest."""
    return replay_final_state(workload, result).digest() == run_serial(workload)
