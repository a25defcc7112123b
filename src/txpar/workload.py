"""Transaction workload model, the line-oriented trace format, and seeded
synthetic generators for the common bottleneck application patterns
(token distributions, exchange fee accounts, collectible mints).

All types are immutable after construction; operations are pure.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

from .errors import TraceParseError, ValidationError

TRACE_HEADER = "# txpar-trace v1"
_META_PREFIX = "# meta "

#: Tag value marking a key whose read result feeds into non-additive logic;
#: such keys must never be rewritten into commutative adds.
VALUE_DEPENDENT = "value-dependent"

#: Default (constant) gas cost per generator pattern. Roughly sized like the
#: real operations they mimic, but the unit is abstract.
DEFAULT_GAS = {
    "payments": 21_000,
    "token_distribution": 51_000,
    "defi_fee": 100_000,
    "nft_mint": 150_000,
}


class StorageKey(NamedTuple):
    """One storage entry, addressed by (contract, slot).

    Equality is exact: two keys name the same entry iff both fields match.
    The canonical text form is ``contract:slot``; contracts must not contain
    a colon, slots may.
    """

    contract: str
    slot: str

    def __str__(self) -> str:
        return f"{self.contract}:{self.slot}"

    @classmethod
    def parse(cls, text: str) -> "StorageKey":
        contract, sep, slot = text.partition(":")
        if not sep or not contract or not slot:
            raise ValidationError(f"storage key must look like 'contract:slot': {text!r}")
        return cls(contract, slot)


def _malformed_key(key: StorageKey) -> bool:
    return not key.contract or ":" in key.contract or not key.slot


def _canon_cadds(cadds: Iterable[tuple[StorageKey, int]]) -> tuple[tuple[StorageKey, int], ...]:
    return tuple(sorted((key, int(delta)) for key, delta in cadds))


@dataclass(frozen=True)
class AccessSet:
    """Storage footprint of one transaction.

    A key may appear in several collections at once: a read-modify-write
    shows up in both `reads` and `writes`. `cadds` holds commutative
    increments as (key, delta) pairs, kept as a sorted multiset. A key held
    in both `writes` and `cadds` means a plain store later overwrote the
    pending adds; generators never emit that shape.
    """

    reads: frozenset[StorageKey] = frozenset()
    writes: frozenset[StorageKey] = frozenset()
    cadds: tuple[tuple[StorageKey, int], ...] = ()

    def __post_init__(self):
        # Re-wrap only what is not canonical yet: the parser and the generators
        # pass frozensets and, mostly, no cadds.
        if type(self.reads) is not frozenset:
            object.__setattr__(self, "reads", frozenset(self.reads))
        if type(self.writes) is not frozenset:
            object.__setattr__(self, "writes", frozenset(self.writes))
        if self.cadds or type(self.cadds) is not tuple:
            object.__setattr__(self, "cadds", _canon_cadds(self.cadds))

    @property
    def cadd_keys(self) -> frozenset[StorageKey]:
        return frozenset(key for key, _ in self.cadds)

    def touched(self) -> frozenset[StorageKey]:
        return self.reads | self.writes | self.cadd_keys


@dataclass(frozen=True)
class Transaction:
    """A block transaction: position, sender, gas cost, and access sets."""

    id: int
    sender: str
    gas: int
    access: AccessSet = AccessSet()

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError(f"transaction id must be >= 0, got {self.id}")
        if self.gas < 1:
            raise ValidationError(f"tx {self.id}: gas must be >= 1, got {self.gas}")


@dataclass(frozen=True)
class Workload:
    """One execution unit (a block or a batch of blocks).

    `meta` is a free-form JSON-able label map (generator name, seed, key
    tags); it is excluded from equality so parse(emit(w)) == w holds
    regardless of provenance labels. `_memo` holds tables derived from this
    object's transactions: the per-key access index (`graph._accesses`), one
    `graph.latest_conflict` table per kind rule (the engines' `latest_writer`
    per cadd mode and the `dep_graph` policy's first versions) and the
    storage VM's replay plan. It is per object, excluded from equality, and
    starts empty in every copy `replace` makes.
    """

    transactions: tuple[Transaction, ...] = ()
    meta: dict = field(default_factory=dict, compare=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        txs = tuple(self.transactions)
        object.__setattr__(self, "transactions", txs)
        keys: set[StorageKey] = set()
        for tx in txs:
            access = tx.access
            keys.update(access.reads)
            keys.update(access.writes)
            if access.cadds:
                keys.update([key for key, _ in access.cadds])
        if [tx.id for tx in txs] == list(range(len(txs))) and not any(map(_malformed_key, keys)):
            return
        # Something is wrong: find the first offending tx, in order, for the message.
        for pos, tx in enumerate(txs):
            if tx.id != pos:
                raise ValidationError(
                    f"transaction ids must be contiguous from 0; position {pos} holds id {tx.id}"
                )
            for key in tx.access.touched():
                if _malformed_key(key):
                    raise ValidationError(f"tx {tx.id}: malformed storage key {key!r}")

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, tx_id: int) -> Transaction:
        return self.transactions[tx_id]

    @property
    def key_tags(self) -> dict:
        """Per-key rewrite tags: canonical key string -> integer delta or 'value-dependent'."""
        tags = self.meta.get("key_tags", {})
        if type(tags) is not dict:
            raise ValidationError(f"meta 'key_tags' must be a JSON object, got {tags!r}")
        for key, tag in tags.items():
            if type(tag) is not int and tag != VALUE_DEPENDENT:
                raise ValidationError(f"meta 'key_tags': key {key!r} has tag {tag!r}, not an integer or {VALUE_DEPENDENT!r}")
        return tags

    def serial_gas(self) -> int:
        return sum(tx.gas for tx in self.transactions)


# ---------------------------------------------------------------------------
# Trace format
#
# UTF-8, one JSON record per line:
#   {"id":0,"sender":"a","gas":21000,"reads":["c:s",...],"writes":[...],
#    "cadds":[["c:s",5],...]}
# Lines starting with '#' are comments. If ids are present they must be
# unique and contiguous and they define the block order; otherwise line
# order does. Parsed workloads are always renumbered from 0.
# ---------------------------------------------------------------------------


def _decode(stream) -> str:
    text = stream if isinstance(stream, (bytes, str)) else stream.read()  # else file-like
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            raise TraceParseError(line_no, f"not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    return text


#: The scanner behind `json.loads` (C code in CPython), called directly: it
#: takes a string and an index and returns (value, end index).
_scan_once = json.decoder.JSONDecoder().scan_once


def _decode_record(stripped: str, line_no: int):
    """Decode one record line; `stripped` has no surrounding whitespace.

    The scanner's result is taken only when it ends the line. Anything else
    (no value, malformed or too deep JSON, trailing data) goes through
    `json.loads`, so an error is worded by `json.loads` itself.
    """
    try:
        obj, end = _scan_once(stripped, 0)
        if end == len(stripped):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # also an over-long number or too deep a nesting
        raise TraceParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None


def _parse_key_list(raw, line_no: int, field_name: str, cache: dict) -> list[StorageKey]:
    if type(raw) is not list:
        raise TraceParseError(line_no, f"{field_name} must be an array")
    keys = []
    get = cache.get
    try:
        for item in raw:
            key = get(item)
            if key is None:  # a new key string, or an entry that is not a string
                if type(item) is not str:
                    raise TraceParseError(line_no, f"{field_name} entries must be strings")
                try:
                    key = cache[item] = StorageKey.parse(item)
                except ValidationError as exc:
                    raise TraceParseError(line_no, str(exc)) from None
            keys.append(key)
    except TypeError:  # an unhashable entry: an array or an object
        raise TraceParseError(line_no, f"{field_name} entries must be strings") from None
    return keys


def parse_trace(stream) -> Workload:
    """Parse a trace (bytes, text, or a file-like object) into a Workload.

    Ids are renumbered contiguously from 0; all keys are interned so equal
    keys share one object. Each record line is decoded by the scanner behind
    `json.loads`, and any line the scanner does not take whole goes through
    `json.loads` itself, so invalid JSON is reported in `json.loads`'s words.
    A `writes` list equal to its record's `reads` list (a read-modify-write)
    shares the reads frozenset, which has already been checked. JSON yields
    exact types only, so the type checks compare types rather than call
    isinstance.
    """
    meta: dict = {}
    key_cache: dict[str, StorageKey] = {}
    records: list[tuple[int | None, str, int, AccessSet]] = []  # (declared id, sender, gas, access)
    seen_ids: set[int] = set()
    with_ids: bool | None = None

    for line_no, line in enumerate(_decode(stream).splitlines(), start=1):
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
        obj = _decode_record(stripped, line_no)
        if type(obj) is not dict:
            raise TraceParseError(line_no, "record must be a JSON object")

        declared_id = obj.get("id")
        has_id = declared_id is not None
        if has_id and type(declared_id) is not int:
            raise TraceParseError(line_no, "id must be an integer")
        if with_ids is None:
            with_ids = has_id
        elif with_ids != has_id:
            raise ValidationError(f"line {line_no}: either every record carries an id or none does")
        if has_id:
            if declared_id in seen_ids:
                raise ValidationError(f"line {line_no}: duplicate id {declared_id}")
            seen_ids.add(declared_id)

        sender = obj.get("sender")
        if type(sender) is not str or not sender:
            raise TraceParseError(line_no, "sender must be a non-empty string")
        gas = obj.get("gas")
        if type(gas) is not int:
            raise TraceParseError(line_no, "gas must be an integer")
        if gas < 1:
            raise ValidationError(f"line {line_no}: gas must be >= 1, got {gas}")

        raw_reads = obj.get("reads", [])
        reads = frozenset(_parse_key_list(raw_reads, line_no, "reads", key_cache))
        raw_writes = obj.get("writes", [])
        if raw_writes == raw_reads:  # a read-modify-write: every entry is a key string checked above
            writes = reads
        else:
            writes = frozenset(_parse_key_list(raw_writes, line_no, "writes", key_cache))
        raw_cadds = obj.get("cadds", [])
        if type(raw_cadds) is not list:
            raise TraceParseError(line_no, "cadds must be an array")
        cadds = []
        for entry in raw_cadds:
            if not (type(entry) is list and len(entry) == 2 and type(entry[0]) is str):
                raise TraceParseError(line_no, "cadds entries must be [key, delta] pairs")
            if type(entry[1]) is not int:
                raise TraceParseError(line_no, "cadd delta must be an integer")
            (key,) = _parse_key_list([entry[0]], line_no, "cadds", key_cache)
            cadds.append((key, entry[1]))

        records.append((declared_id, sender, gas, AccessSet(reads, writes, tuple(cadds))))

    if with_ids and records:
        ids = sorted(seen_ids)
        if ids[-1] - ids[0] + 1 != len(ids):
            raise ValidationError(f"ids must be contiguous, got range {ids[0]}..{ids[-1]} for {len(ids)} records")
        records.sort(key=lambda rec: rec[0])

    txs = tuple(Transaction(pos, sender, gas, access) for pos, (_, sender, gas, access) in enumerate(records))
    return Workload(transactions=txs, meta=meta)


def emit_trace(workload: Workload) -> bytes:
    """Serialize a Workload to the trace format; deterministic byte-for-byte."""
    out = [TRACE_HEADER]
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


# ---------------------------------------------------------------------------
# Synthetic generators
#
# Each generator derives a namespace from (pattern, seed, instance) so that
# independent instances never share keys or senders by accident. Counter-like
# keys are tagged in meta["key_tags"] with their per-transaction delta, or
# with VALUE_DEPENDENT when the read value feeds non-additive logic.
# ---------------------------------------------------------------------------


def _namespace(pattern: str, seed: int, instance: int) -> str:
    digest = hashlib.blake2b(f"{pattern}|{seed}|{instance}".encode(), digest_size=4)
    return digest.hexdigest()


def _resolve_gas(gas, pattern: str, rng: random.Random) -> int:
    if gas is None:
        return DEFAULT_GAS[pattern]
    if isinstance(gas, int):
        return gas
    lo, hi = gas
    return rng.randint(int(lo), int(hi))


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")


def gen_payments(n: int, seed: int = 0, *, gas=None, _instance: int = 0) -> Workload:
    """n independent value transfers: every tx touches its own pair of balance keys."""
    _check_count("n", n)
    ns = _namespace("payments", seed, _instance)
    contract = f"native{ns}"
    rng = random.Random(seed + 0x9E3779B9 * (_instance + 1))
    txs = []
    tags: dict[str, int] = {}
    for i in range(n):
        sender = f"p{ns}-{i}"
        src = StorageKey(contract, f"bal:{sender}")
        dst = StorageKey(contract, f"bal:q{ns}-{i}")
        tags[str(src)] = -1
        tags[str(dst)] = 1
        txs.append(
            Transaction(
                id=i,
                sender=sender,
                gas=_resolve_gas(gas, "payments", rng),
                access=AccessSet(reads=frozenset({src, dst}), writes=frozenset({src, dst})),
            )
        )
    meta = {"pattern": "payments", "seed": seed, "n": n, "key_tags": tags, "bottleneck_keys": []}
    return Workload(transactions=tuple(txs), meta=meta)


def gen_token_distribution(
    n: int,
    senders: int = 1,
    track_total_supply: bool = False,
    seed: int = 0,
    *,
    gas=None,
    _instance: int = 0,
) -> Workload:
    """Token transfers fanned out from a small set of distributor accounts.

    Every tx read-modify-writes its sender's balance key plus a distinct
    recipient balance key; with `track_total_supply` all txs additionally
    read-modify-write one shared supply key. Senders are assigned
    round-robin.
    """
    _check_count("n", n)
    _check_count("senders", senders)
    ns = _namespace("token_distribution", seed, _instance)
    contract = f"tok{ns}"
    rng = random.Random(seed + 0x9E3779B9 * (_instance + 1))
    supply = StorageKey(contract, "totalSupply")
    tags: dict[str, int] = {}
    bottleneck = []
    sender_keys = []
    for j in range(senders):
        key = StorageKey(contract, f"bal:s{ns}-{j}")
        sender_keys.append(key)
        tags[str(key)] = -1
        bottleneck.append(str(key))
    if track_total_supply:
        tags[str(supply)] = 1
        bottleneck.append(str(supply))
    txs = []
    for i in range(n):
        j = i % senders
        recipient = StorageKey(contract, f"bal:r{ns}-{i}")
        tags[str(recipient)] = 1
        keys = {sender_keys[j], recipient}
        if track_total_supply:
            keys.add(supply)
        txs.append(
            Transaction(
                id=i,
                sender=f"s{ns}-{j}",
                gas=_resolve_gas(gas, "token_distribution", rng),
                access=AccessSet(reads=frozenset(keys), writes=frozenset(keys)),
            )
        )
    meta = {
        "pattern": "token_distribution",
        "seed": seed,
        "n": n,
        "senders": senders,
        "track_total_supply": track_total_supply,
        "key_tags": tags,
        "bottleneck_keys": bottleneck,
    }
    return Workload(transactions=tuple(txs), meta=meta)


def gen_defi_fee(n: int, traders: int = 1, seed: int = 0, *, gas=None, _instance: int = 0) -> Workload:
    """Exchange trades that all credit one shared fee-account key.

    Each tx read-modify-writes the fee key plus two keys owned by its
    trader (assigned round-robin).
    """
    _check_count("n", n)
    _check_count("traders", traders)
    ns = _namespace("defi_fee", seed, _instance)
    contract = f"dex{ns}"
    rng = random.Random(seed + 0x9E3779B9 * (_instance + 1))
    fee = StorageKey(contract, "feeBalance")
    tags: dict[str, int] = {str(fee): 1}
    txs = []
    for i in range(n):
        j = i % traders
        maker = StorageKey(contract, f"bal0:t{ns}-{j}")
        taker = StorageKey(contract, f"bal1:t{ns}-{j}")
        tags[str(maker)] = -1
        tags[str(taker)] = 1
        keys = frozenset({fee, maker, taker})
        txs.append(
            Transaction(
                id=i,
                sender=f"t{ns}-{j}",
                gas=_resolve_gas(gas, "defi_fee", rng),
                access=AccessSet(reads=keys, writes=keys),
            )
        )
    meta = {
        "pattern": "defi_fee",
        "seed": seed,
        "n": n,
        "traders": traders,
        "key_tags": tags,
        "bottleneck_keys": [str(fee)],
    }
    return Workload(transactions=tuple(txs), meta=meta)


def gen_nft_mint(n: int, seed: int = 0, *, gas=None, _instance: int = 0) -> Workload:
    """Collectible mints: every tx bumps the shared array-length key and
    writes a distinct element key. The new element's location is derived
    from the length read, so the length key is tagged value-dependent and
    can never be turned into a commutative add."""
    _check_count("n", n)
    ns = _namespace("nft_mint", seed, _instance)
    contract = f"nft{ns}"
    rng = random.Random(seed + 0x9E3779B9 * (_instance + 1))
    length = StorageKey(contract, "items.length")
    txs = []
    for i in range(n):
        element = StorageKey(contract, f"items.{i}")
        txs.append(
            Transaction(
                id=i,
                sender=f"u{ns}-{i}",
                gas=_resolve_gas(gas, "nft_mint", rng),
                access=AccessSet(
                    reads=frozenset({length}),
                    writes=frozenset({length, element}),
                ),
            )
        )
    meta = {
        "pattern": "nft_mint",
        "seed": seed,
        "n": n,
        "key_tags": {str(length): VALUE_DEPENDENT},
        "bottleneck_keys": [str(length)],
    }
    return Workload(transactions=tuple(txs), meta=meta)


GENERATORS = {
    "payments": gen_payments,
    "token_distribution": gen_token_distribution,
    "defi_fee": gen_defi_fee,
    "nft_mint": gen_nft_mint,
}


def gen_mixed(spec: list[tuple[str, dict, float]], n: int, seed: int = 0) -> Workload:
    """Blend several patterns into one workload of n transactions.

    `spec` lists (pattern, params, weight) triples; counts are allocated
    proportionally to weight (largest remainder) and the combined list is
    shuffled deterministically by seed. Key spaces of distinct instances
    are disjoint by construction.
    """
    if not spec:
        raise ValidationError("mixed spec must not be empty")
    _check_count("n", n)
    for pattern, _, weight in spec:
        if pattern not in GENERATORS:
            raise ValidationError(f"unknown pattern {pattern!r}")
        if weight <= 0:
            raise ValidationError(f"pattern {pattern!r}: weight must be positive, got {weight}")

    total = sum(weight for _, _, weight in spec)
    raw = [n * weight / total for _, _, weight in spec]
    counts = [int(x) for x in raw]
    remainders = sorted(range(len(spec)), key=lambda idx: (-(raw[idx] - counts[idx]), idx))
    for idx in remainders[: n - sum(counts)]:
        counts[idx] += 1

    rng = random.Random(seed)
    instance_seeds = [rng.randrange(2**31) for _ in spec]
    merged_tags: dict = {}
    bottleneck: list[str] = []
    combined: list[Transaction] = []
    for idx, (pattern, params, _) in enumerate(spec):
        if counts[idx] == 0:
            continue
        params = dict(params or {})
        if isinstance(params.get("gas"), list):
            params["gas"] = tuple(params["gas"])
        sub = GENERATORS[pattern](counts[idx], seed=instance_seeds[idx], _instance=idx, **params)
        merged_tags.update(sub.key_tags)
        bottleneck.extend(sub.meta.get("bottleneck_keys", []))
        combined.extend(sub.transactions)

    rng.shuffle(combined)
    txs = tuple(replace(tx, id=pos) for pos, tx in enumerate(combined))
    meta = {
        "pattern": "mixed",
        "seed": seed,
        "n": n,
        "spec": [[pattern, dict(params or {}), weight] for pattern, params, weight in spec],
        "key_tags": merged_tags,
        "bottleneck_keys": bottleneck,
    }
    return Workload(transactions=txs, meta=meta)
