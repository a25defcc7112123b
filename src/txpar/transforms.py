"""Conflict-elimination rewrites: multi-sender splitting, partitioned
counters, probabilistic edge pruning, and commutative-add rewriting.

All workload transforms preserve transaction count, ids, and gas; they only
rewrite senders and access sets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
import random

from .errors import SoundnessError, ValidationError
from .graph import DependencyGraph, edges_only_on
from .workload import VALUE_DEPENDENT, AccessSet, StorageKey, Transaction, Workload


def route_hash(attribute: str) -> int:
    """Published routing hash: 64-bit blake2b of the attribute bytes.

    Stands in for the low-address-bits trick used when routing by sender on
    chain; our identifiers are opaque strings, so a documented hash keeps
    sub-counter assignment reproducible across implementations.
    """
    return int.from_bytes(hashlib.blake2b(attribute.encode(), digest_size=8).digest(), "big")


def sub_counter_key(key: StorageKey, index: int) -> StorageKey:
    return StorageKey(key.contract, f"{key.slot}#{index}")


@dataclass(frozen=True)
class PartitionSpec:
    """How to split counters: which keys, how many sub-counters, and which
    transaction attribute routes writers."""

    target_keys: frozenset[StorageKey]
    length: int
    routing: str = "sender"  # "sender" | "tx_id"

    def __post_init__(self):
        object.__setattr__(self, "target_keys", frozenset(self.target_keys))
        if self.length < 2:
            raise ValidationError(f"partition length must be >= 2, got {self.length}")
        if not self.target_keys:
            raise ValidationError("partition target_keys must not be empty")
        if self.routing not in ("sender", "tx_id"):
            raise ValidationError(f"routing must be 'sender' or 'tx_id', got {self.routing!r}")

    def route(self, tx: Transaction) -> int:
        attribute = tx.sender if self.routing == "sender" else str(tx.id)
        return route_hash(attribute) % self.length


def _with_meta_note(workload: Workload, txs: tuple[Transaction, ...], note: dict, extra_tags: dict) -> Workload:
    meta = dict(workload.meta)
    if extra_tags:
        meta["key_tags"] = {**workload.key_tags, **extra_tags}
    done = meta.get("transforms", [])
    if type(done) is not list:
        raise ValidationError(f"meta 'transforms' must be a JSON array, got {done!r}")
    meta["transforms"] = done + [note]
    return Workload(transactions=txs, meta=meta)


def split_senders(
    workload: Workload,
    hot_sender: str,
    m: int,
    sender_balance_key: StorageKey,
) -> Workload:
    """Reassign a hot sender's transactions round-robin across m derived
    senders, rewriting its balance key to the matching derived key. m=1 is
    the identity."""
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if not any(tx.sender == hot_sender for tx in workload):
        raise ValidationError(f"sender {hot_sender!r} does not appear in the workload")
    if m == 1:
        return workload

    derived_senders = [f"{hot_sender}#{idx}" for idx in range(m)]
    derived_keys = [sub_counter_key(sender_balance_key, idx) for idx in range(m)]

    def rewrite_keys(keys: frozenset[StorageKey], idx: int) -> frozenset[StorageKey]:
        if sender_balance_key not in keys:
            return keys
        return (keys - {sender_balance_key}) | {derived_keys[idx]}

    txs = []
    occurrence = 0
    for tx in workload:
        if tx.sender != hot_sender:
            txs.append(tx)
            continue
        idx = occurrence % m
        occurrence += 1
        access = AccessSet(
            reads=rewrite_keys(tx.access.reads, idx),
            writes=rewrite_keys(tx.access.writes, idx),
            cadds=tuple(
                (derived_keys[idx] if key == sender_balance_key else key, delta)
                for key, delta in tx.access.cadds
            ),
        )
        txs.append(replace(tx, sender=derived_senders[idx], access=access))

    tag = workload.key_tags.get(str(sender_balance_key))
    extra_tags = {str(k): tag for k in derived_keys} if tag is not None else {}
    note = {
        "transform": "split_senders",
        "hot_sender": hot_sender,
        "m": m,
        "sender_balance_key": str(sender_balance_key),
    }
    return _with_meta_note(workload, tuple(txs), note, extra_tags)


def partition_counters(workload: Workload, spec: PartitionSpec) -> Workload:
    """Split each target counter into `spec.length` sub-entries.

    Writers (plain writes and commutative adds) route to a single sub-key
    chosen by the routing attribute. An increment (a read-modify-write on a
    key tagged increment-only) touches nothing but its own sub-counter, so
    its read routes together with its write. A value read fans out to every
    sub-key, since the counter's value is the sum of all sub-entries; value
    readers therefore keep conflicting with every writer. Reads of untagged
    target keys fan out conservatively.
    """
    tags = workload.key_tags
    txs = []
    for tx in workload:
        hit = spec.target_keys & tx.access.touched()
        if not hit:
            txs.append(tx)
            continue
        idx = spec.route(tx)
        reads = set(tx.access.reads)
        writes = set(tx.access.writes)
        cadds = list(tx.access.cadds)
        for key in hit:
            if key in reads:
                reads.discard(key)
                is_increment = isinstance(tags.get(str(key)), int) and key in tx.access.writes
                if is_increment:
                    reads.add(sub_counter_key(key, idx))
                else:
                    reads.update(sub_counter_key(key, j) for j in range(spec.length))
            if key in writes:
                writes.discard(key)
                writes.add(sub_counter_key(key, idx))
        cadds = [
            (sub_counter_key(key, idx) if key in spec.target_keys else key, delta)
            for key, delta in cadds
        ]
        txs.append(replace(tx, access=AccessSet(frozenset(reads), frozenset(writes), tuple(cadds))))

    extra_tags = {}
    for key in spec.target_keys:
        tag = tags.get(str(key))
        if tag is not None:
            for j in range(spec.length):
                extra_tags[str(sub_counter_key(key, j))] = tag
    note = {
        "transform": "partition_counters",
        "target_keys": sorted(str(k) for k in spec.target_keys),
        "length": spec.length,
        "routing": spec.routing,
    }
    return _with_meta_note(workload, tuple(txs), note, extra_tags)


def prune_edges_probabilistic(
    g: DependencyGraph,
    workload: Workload,
    target_keys: frozenset[StorageKey] | set[StorageKey],
    removal_probability,
    seed: int = 0,
    cadd_aware: bool = False,
) -> DependencyGraph:
    """Remove, with the given probability, each edge of `g` whose two txs
    conflict in `workload` on target keys and on no other key; every other
    edge is kept. `g` must be the graph of `workload` in the cadd mode given:
    in either mode a write-vs-cadd overlap on another key keeps the edge.

    Models the expected effect of partitioning the targets without
    rewriting the workload. Accepts the probability as a float, int, or
    Fraction. Deterministic for a fixed seed: candidate edges are visited
    in sorted order and one uniform draw decides each.
    """
    p = float(Fraction(removal_probability)) if not isinstance(removal_probability, float) else removal_probability
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"removal probability must be in [0, 1], got {removal_probability}")
    if g.weights != tuple(tx.gas for tx in workload):
        raise ValidationError(f"the graph's {g.n} vertex weights are not the gas of the workload's {len(workload)} txs")
    prunable = edges_only_on(workload, target_keys, cadd_aware)
    rng = random.Random(seed)
    removed = [edge for edge in sorted(g.edges & prunable) if rng.random() < p]
    return DependencyGraph(n=g.n, edges=g.edges.difference(removed), weights=g.weights)


def cadd_rewrite(workload: Workload, target_keys: frozenset[StorageKey] | set[StorageKey]) -> Workload:
    """Turn read-modify-write accesses on increment-only counters into
    commutative adds.

    Only sound when the read value feeds nothing but the increment; the
    workload's key tags assert that. A key tagged value-dependent is refused
    outright, because the storage trace alone cannot prove independence. The
    per-transaction delta comes from the key's tag (default +1 when
    untagged). Keys that are read without being written are untouched.
    """
    target_keys = frozenset(target_keys)
    tags = workload.key_tags
    for key in sorted(target_keys):
        if tags.get(str(key)) == VALUE_DEPENDENT:
            raise SoundnessError(
                f"key {key} is tagged value-dependent; rewriting it into a commutative add would change semantics"
            )
    txs = []
    for tx in workload:
        rmw = target_keys & tx.access.reads & tx.access.writes
        if not rmw:
            txs.append(tx)
            continue
        reads = set(tx.access.reads)
        writes = set(tx.access.writes)
        cadds = list(tx.access.cadds)
        for key in sorted(rmw):
            delta = tags.get(str(key), 1)
            reads.discard(key)
            writes.discard(key)
            cadds.append((key, delta))
        txs.append(replace(tx, access=AccessSet(frozenset(reads), frozenset(writes), tuple(cadds))))

    note = {"transform": "cadd_rewrite", "target_keys": sorted(str(k) for k in target_keys)}
    return _with_meta_note(workload, tuple(txs), note, {})
