"""Conflict-elimination rewrites: multi-sender splitting, partitioned
counters, probabilistic edge pruning, and commutative-add rewriting.

All workload transforms preserve transaction count, ids, and gas; they only
rewrite senders and access sets. They take a checked workload and checked
target keys, so they build their output trusted (see `Workload`), sorting
cadds as `_canon_cadds` does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
import random

from .errors import SoundnessError, ValidationError, _check_int
from .graph import DependencyGraph, _graph, _pairs_only_on
from .workload import VALUE_DEPENDENT, StorageKey, Transaction, Workload, _malformed_key
from .workload import _access, _key, _transaction, _workload


def route_hash(attribute: str) -> int:
    """Published routing hash: 64-bit blake2b of the attribute bytes.

    Stands in for the low-address-bits trick used when routing by sender on
    chain; our identifiers are opaque strings, so a documented hash keeps
    sub-counter assignment reproducible across implementations.
    """
    return int.from_bytes(hashlib.blake2b(attribute.encode(), digest_size=8).digest(), "big")


def sub_counter_key(key: StorageKey, index: int) -> StorageKey:
    return _key((key.contract, f"{key.slot}#{index}"))


def _target_keys(name: str, keys) -> frozenset[StorageKey]:
    """`keys` as a frozenset, refusing a lone key or string and any entry that is not a StorageKey: a string
    would match no key, so the transform would silently do nothing."""
    if type(keys) in (str, StorageKey):
        raise ValidationError(f"{name} must be a collection of StorageKeys, got {keys!r}")
    keys = frozenset(keys)
    for key in keys:
        if _malformed_key(key):
            raise ValidationError(f"{name} must hold StorageKeys, got {key!r}")
    return keys


@dataclass(frozen=True)
class PartitionSpec:
    """How to split counters: which keys, how many sub-counters, and which
    transaction attribute routes writers."""

    target_keys: frozenset[StorageKey]
    length: int
    routing: str = "sender"  # "sender" | "tx_id"

    def __post_init__(self):
        object.__setattr__(self, "target_keys", _target_keys("partition target_keys", self.target_keys))
        _check_int("partition length", self.length, 2)
        if not self.target_keys:
            raise ValidationError("partition target_keys must not be empty")
        if self.routing not in ("sender", "tx_id"):
            raise ValidationError(f"routing must be 'sender' or 'tx_id', got {self.routing!r}")

    def route(self, tx: Transaction) -> int:
        attribute = tx.sender if self.routing == "sender" else str(tx.id)
        return route_hash(attribute) % self.length


def _with_meta_note(workload: Workload, txs: tuple[Transaction, ...], note: dict, tags: dict, renamed: dict) -> Workload:
    """`txs` under `workload`'s meta, with `note` appended to its transforms.
    `renamed` maps each key the transform replaced to the keys that replace
    it, in order: each of those takes the replaced key's tag in `tags` (the
    `key_tags` the caller read), and they stand in its place among the
    bottleneck keys."""
    meta = dict(workload.meta)
    if renamed:
        renamed = {str(key): list(map(str, keys)) for key, keys in renamed.items()}
        new_tags = {new: tags[key] for key, keys in renamed.items() if key in tags for new in keys}
        if new_tags:
            meta["key_tags"] = {**tags, **new_tags}
        bottleneck = workload.bottleneck_keys
        moved = [new for key in bottleneck for new in renamed.get(key, (key,))]
        if moved != bottleneck:
            meta["bottleneck_keys"] = moved
    done = meta.get("transforms", [])
    if type(done) is not list:
        raise ValidationError(f"meta 'transforms' must be a JSON array, got {done!r}")
    meta["transforms"] = done + [note]
    return _workload(txs, meta)


def _rewritten(tx: Transaction, sender: str, reads, writes, cadds: list) -> Transaction:
    """`tx` with this sender and these key sets and cadds, trusted: equal
    `reads` and `writes` share one frozenset, and the cadds are sorted."""
    reads = frozenset(reads)
    writes = reads if writes == reads else frozenset(writes)
    return _transaction(tx.id, sender, tx.gas, _access(reads, writes, tuple(sorted(cadds))))


def split_senders(
    workload: Workload,
    hot_sender: str,
    m: int,
    sender_balance_key: StorageKey,
) -> Workload:
    """Reassign a hot sender's transactions round-robin across m derived
    senders, rewriting its balance key to the matching derived key. m=1 is
    the identity."""
    _check_int("m", m, 1)
    if _malformed_key(sender_balance_key):
        raise ValidationError(f"sender_balance_key must be a StorageKey, got {sender_balance_key!r}")
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
        access = tx.access
        reads, writes = rewrite_keys(access.reads, idx), rewrite_keys(access.writes, idx)
        cadds = [(derived_keys[idx] if key == sender_balance_key else key, delta) for key, delta in access.cadds]
        txs.append(_rewritten(tx, derived_senders[idx], reads, writes, cadds))

    note = {
        "transform": "split_senders",
        "hot_sender": hot_sender,
        "m": m,
        "sender_balance_key": str(sender_balance_key),
    }
    return _with_meta_note(workload, tuple(txs), note, workload.key_tags, {sender_balance_key: derived_keys})


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
        txs.append(_rewritten(tx, tx.sender, reads, writes, cadds))

    renamed = {key: [sub_counter_key(key, j) for j in range(spec.length)] for key in spec.target_keys}
    note = {
        "transform": "partition_counters",
        "target_keys": sorted(str(k) for k in spec.target_keys),
        "length": spec.length,
        "routing": spec.routing,
    }
    return _with_meta_note(workload, tuple(txs), note, tags, renamed)


def probability(name: str, value) -> float:
    """`value` as a probability: a float, int, Fraction or fraction string
    such as "1/2" (not a bool) in [0, 1]."""
    try:
        p = float(Fraction(value)) if not isinstance(value, float) else value
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        p = None
    if p is None or type(value) is bool:  # Fraction(True) is 1
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return p


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
    rewriting the workload. Accepts the probability in any form `probability`
    does. Deterministic for a fixed seed: candidate edges are visited in
    sorted order and one uniform draw decides each.
    """
    p = probability("removal probability", removal_probability)
    if g.weights != tuple(tx.gas for tx in workload):
        raise ValidationError(f"the graph's {g.n} vertex weights are not the gas of the workload's {len(workload)} txs")
    prunable = _pairs_only_on(workload, _target_keys("target_keys", target_keys), cadd_aware)
    rng = random.Random(seed)
    # the prunable pairs in sorted order: bit i of tx j's mask is digit i of its reversed binary string
    bits = ((j, enumerate(bin(mask)[:1:-1])) for j, mask in enumerate(prunable))
    removed = [(j, i) for j, digits in bits for i, bit in digits if bit == "1" and (j, i) in g.edges and rng.random() < p]
    return _graph(g.n, g.edges.difference(removed), g.weights)


def cadd_rewrite(workload: Workload, target_keys: frozenset[StorageKey] | set[StorageKey]) -> Workload:
    """Turn read-modify-write accesses on increment-only counters into
    commutative adds.

    Only sound when the read value feeds nothing but the increment; the
    workload's key tags assert that. A key tagged value-dependent is refused
    outright, because the storage trace alone cannot prove independence. The
    per-transaction delta comes from the key's tag (default +1 when
    untagged). Keys that are read without being written are untouched.
    """
    target_keys = _target_keys("target_keys", target_keys)
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
        txs.append(_rewritten(tx, tx.sender, reads, writes, cadds))

    note = {"transform": "cadd_rewrite", "target_keys": sorted(str(k) for k in target_keys)}
    return _with_meta_note(workload, tuple(txs), note, tags, {})
