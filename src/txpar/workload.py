"""Transaction workload model, the line-oriented trace format, and seeded
synthetic generators for the common bottleneck application patterns
(token distributions, exchange fee accounts, collectible mints).

All types are immutable after construction; operations are pure.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import TraceParseError, ValidationError, _check_int

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


def _malformed_key(key) -> bool:
    """Whether `key` is not a StorageKey of two strings whose text form
    parses back to it."""
    return (
        type(key) is not StorageKey
        or type(key.contract) is not str
        or type(key.slot) is not str
        or not key.contract
        or ":" in key.contract
        or not key.slot
    )


def _canon_cadds(cadds: Iterable[tuple[StorageKey, int]]) -> tuple[tuple[StorageKey, int], ...]:
    pairs = tuple(cadds)
    for pair in pairs:
        if type(pair) not in (tuple, list) or len(pair) != 2 or type(pair[1]) is not int:
            raise ValidationError(f"cadds must be (key, integer delta) pairs, got {pair!r}")
    try:
        return tuple(sorted(map(tuple, pairs)))
    except TypeError:  # keys that do not compare; `Workload` names any other malformed key
        raise ValidationError(f"cadd keys must be StorageKeys of two strings, got {pairs!r}") from None


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
        object.__setattr__(self, "reads", frozenset(self.reads))
        object.__setattr__(self, "writes", frozenset(self.writes))
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
        if type(self.id) is not int or self.id < 0:
            raise ValidationError(f"transaction id must be an integer >= 0, got {self.id!r}")
        if type(self.gas) is not int or self.gas < 1:
            raise ValidationError(f"tx {self.id}: gas must be an integer >= 1, got {self.gas!r}")
        if type(self.sender) is not str or not self.sender:
            raise ValidationError(f"tx {self.id}: sender must be a non-empty string, got {self.sender!r}")
        if type(self.access) is not AccessSet:
            raise ValidationError(f"tx {self.id}: access must be an AccessSet, got {self.access!r}")


@dataclass(frozen=True)
class Workload:
    """One execution unit (a block or a batch of blocks).

    `meta` is a free-form label map (generator name, seed, key tags), a
    dict; it is excluded from equality so parse(emit(w)) == w holds
    regardless of provenance labels. Transactions, senders, keys and cadd
    deltas are checked for their exact types, so a workload that constructs
    round-trips through the trace format when JSON reads its `meta` back
    equal; `emit_trace` refuses one that it would not.

    The public constructors check every field. The objects txpar makes
    itself are built trusted instead (`_access`, `_transaction`,
    `_workload`: fields set in declaration order, without `__post_init__`),
    and skip only checks their maker has already made: `parse_trace` checks
    every field of the trace; the generators draw keys from a hex namespace
    and fixed slot templates, senders from the same namespace, gas from
    `_gas_draw` and ids from a counter; the transforms take a checked
    workload and checked target keys, keep its ids and gas, and sort cadds
    as `_canon_cadds` does. A trusted object equals, hashes and prints like
    the one the public constructors build from its fields.

    `derived` owns the tables built from the transactions: the per-key
    access index (`graph._accesses`), one `graph.latest_conflict` table per
    kind rule, and the storage VM's replay plan, serial digest and version
    floors. It keeps each, built on first use, in `_memo`, which nothing
    else touches: per object, excluded from equality, empty in every copy
    `replace` makes, and freed with the object.
    """

    transactions: tuple[Transaction, ...] = ()
    meta: dict = field(default_factory=dict, compare=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.meta) is not dict:
            raise ValidationError(f"meta must be a dict, got {self.meta!r}")
        txs = tuple(self.transactions)
        object.__setattr__(self, "transactions", txs)
        if set(map(type, txs)) <= {Transaction}:
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
            if type(tx) is not Transaction:
                raise ValidationError(f"position {pos} holds {tx!r}, not a Transaction")
            if tx.id != pos:
                raise ValidationError(
                    f"transaction ids must be contiguous from 0; position {pos} holds id {tx.id}"
                )
            for key in tx.access.touched():
                if _malformed_key(key):
                    raise ValidationError(f"tx {tx.id}: malformed storage key {key!r}")

    def derived(self, name, build):
        """`build(self)`, built on the first call with this hashable `name` and kept with the object."""
        memo = self._memo
        if name not in memo:
            memo[name] = build(self)
        return memo[name]

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


_new, _set_field = object.__new__, object.__setattr__

#: A trusted StorageKey, from a (contract, slot) pair of checked strs,
#: without NamedTuple's Python-level `__new__`.
_key = partial(tuple.__new__, StorageKey)


def _access(reads: frozenset, writes: frozenset, cadds: tuple = ()) -> AccessSet:
    """A trusted AccessSet: `reads` and `writes` are frozensets of
    well-formed keys (one shared frozenset for a read-modify-write), `cadds`
    a tuple of (key, int) pairs sorted as `_canon_cadds` sorts them."""
    access = _new(AccessSet)
    _set_field(access, "reads", reads)
    _set_field(access, "writes", writes)
    _set_field(access, "cadds", cadds)
    return access


def _transaction(id: int, sender: str, gas: int, access: AccessSet) -> Transaction:
    """A trusted Transaction: an int id >= 0, a non-empty str sender, an int
    gas >= 1 and an AccessSet."""
    tx = _new(Transaction)
    _set_field(tx, "id", id)
    _set_field(tx, "sender", sender)
    _set_field(tx, "gas", gas)
    _set_field(tx, "access", access)
    return tx


def _workload(transactions: tuple, meta: dict) -> Workload:
    """A trusted Workload: a tuple of Transactions with ids 0, 1, ... in
    order, a dict meta, and its own empty `_memo`."""
    workload = _new(Workload)
    _set_field(workload, "transactions", transactions)
    _set_field(workload, "meta", meta)
    _set_field(workload, "_memo", {})
    return workload


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
    """Decode a record line that the scanner did not take whole (no value,
    malformed or too deep JSON, trailing data) through `json.loads`, so an
    error is worded by `json.loads` itself; `stripped` has no surrounding
    whitespace."""
    try:
        return json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # also an over-long number or too deep a nesting
        raise TraceParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None


class _KeyTable(dict):
    """Key string -> its interned StorageKey, for one trace.

    Looking up a string not seen yet checks it as `StorageKey.parse` does
    (a ValidationError in the same words) and interns the new key; looking
    up an entry that is not a string raises TypeError.
    """

    __slots__ = ()

    def __missing__(self, text):
        if type(text) is not str:
            raise TypeError(text)
        contract, sep, slot = text.partition(":")
        if not sep or not contract or not slot:
            StorageKey.parse(text)  # raises, in its words
        key = self[text] = _key((contract, slot))
        return key


def _key_set(raw, line_no: int, field_name: str, keys: _KeyTable) -> frozenset[StorageKey]:
    """The keys of one key list, checked entry by entry in order, or the
    error of its first bad entry. The parser's fast lookups fall back to it
    to word an error."""
    if type(raw) is not list:
        raise TraceParseError(line_no, f"{field_name} must be an array")
    for item in raw:
        if type(item) is not str:
            raise TraceParseError(line_no, f"{field_name} entries must be strings")
        try:
            keys[item]
        except ValidationError as exc:
            raise TraceParseError(line_no, str(exc)) from None
    return frozenset(map(keys.__getitem__, raw))


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

    Every field is checked here, so the AccessSets, Transactions and the
    Workload are built trusted (see `Workload`), without the constructors'
    checks, which would only repeat these.
    """
    meta: dict = {}
    keys = _KeyTable()
    lookup = keys.__getitem__
    records: list[tuple[int | None, str, int, AccessSet]] = []  # (declared id, sender, gas, access)
    seen_ids: set[int] = set()
    with_ids: bool | None = None

    for line_no, line in enumerate(_decode(stream).splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] == "#":
            if stripped.startswith(_META_PREFIX.strip() + " "):
                try:
                    parsed = json.loads(stripped[len(_META_PREFIX.strip()) :].strip())
                    if isinstance(parsed, dict):
                        meta = parsed
                except (ValueError, RecursionError):
                    pass  # foreign comment that merely resembles a meta line
            continue
        try:
            obj, end = _scan_once(stripped, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(stripped):
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
        raw_writes = obj.get("writes", [])
        try:
            if type(raw_reads) is not list or type(raw_writes) is not list:
                raise TypeError
            reads = frozenset(map(lookup, raw_reads))
            # A read-modify-write: every entry is a key string checked above.
            writes = reads if raw_writes == raw_reads else frozenset(map(lookup, raw_writes))
        except (TypeError, ValidationError):  # a bad list or entry: word its error
            reads = _key_set(raw_reads, line_no, "reads", keys)
            writes = _key_set(raw_writes, line_no, "writes", keys)
        raw_cadds = obj.get("cadds", [])
        if type(raw_cadds) is not list:
            raise TraceParseError(line_no, "cadds must be an array")
        cadds = ()
        if raw_cadds:
            pairs = []
            for entry in raw_cadds:
                if not (type(entry) is list and len(entry) == 2 and type(entry[0]) is str):
                    raise TraceParseError(line_no, "cadds entries must be [key, delta] pairs")
                if type(entry[1]) is not int:
                    raise TraceParseError(line_no, "cadd delta must be an integer")
                try:
                    pairs.append((keys[entry[0]], entry[1]))
                except ValidationError as exc:
                    raise TraceParseError(line_no, str(exc)) from None
            cadds = tuple(sorted(pairs))  # what `_canon_cadds` makes of checked pairs

        records.append((declared_id, sender, gas, _access(reads, writes, cadds)))

    if with_ids and records:
        ids = sorted(seen_ids)
        if ids[-1] - ids[0] + 1 != len(ids):
            raise ValidationError(f"ids must be contiguous, got range {ids[0]}..{ids[-1]} for {len(ids)} records")
        records.sort(key=itemgetter(0))

    txs = tuple([_transaction(pos, sender, gas, access) for pos, (_, sender, gas, access) in enumerate(records)])
    return _workload(txs, meta)


#: JSON's text for a str, as `json.dumps` writes it: quoted, with every
#: non-ASCII character escaped (so no record holds a line break).
_quote = json.encoder.encode_basestring_ascii

#: The types whose values JSON reads back equal to themselves. A float is one
#: too, unless it is NaN.
_JSON_EXACT = frozenset({str, int, bool, type(None)})


def _round_trips(value) -> bool:
    """Whether `json.loads` reads `value`'s JSON text back equal to it: a
    dict with str keys, a list, a str, int, bool or None, or a float that is
    not NaN, nested. A tuple would come back a list and a non-str key a
    str."""
    kind = type(value)
    if kind is dict:
        if set(map(type, value)) - {str}:
            return False
        value = value.values()
    elif kind is not list:
        return kind in _JSON_EXACT or kind is float and value == value
    return set(map(type, value)) <= _JSON_EXACT or all(map(_round_trips, value))


def _key_list(keys: frozenset[StorageKey]) -> str:
    # Sort the raw `contract:slot` texts and only then quote them: escaping
    # can change the order. `a~` sorts before `a` + U+00E9, but quoted it
    # sorts after `"a\u00e9"`, since `\` is below `~`.
    return ",".join(map(_quote, sorted(map(":".join, keys))))


def emit_trace(workload: Workload) -> bytes:
    """Serialize a Workload to the trace format; deterministic byte-for-byte.

    Each record is written from one template, in the bytes
    `json.dumps(record, separators=(",", ":"))` gives: strs through JSON's
    own quoting, ints through repr, key lists sorted by raw text. A meta that
    JSON cannot encode, or would not read back equal, is refused.
    """
    out = [TRACE_HEADER]
    meta = workload.meta
    if meta:
        try:
            out.append(_META_PREFIX + json.dumps(meta, sort_keys=True, separators=(",", ":")))
        except (TypeError, ValueError) as exc:  # a value JSON has no form for, or a cycle
            raise ValidationError(f"meta is not JSON-able: {exc}") from None
        if not _round_trips(meta):
            key = next(key for key, value in meta.items() if type(key) is not str or not _round_trips(value))
            raise ValidationError(
                f"meta does not round-trip through the trace format: entry {key!r}: {meta[key]!r} would read back"
                " changed (JSON has str keys only, no tuples and no NaN)"
            )
    for tx in workload.transactions:
        access = tx.access
        reads = _key_list(access.reads)
        writes = reads if access.writes is access.reads else _key_list(access.writes)
        cadds = ",".join([f"[{_quote(':'.join(key))},{delta!r}]" for key, delta in access.cadds])
        out.append(
            f'{{"id":{tx.id!r},"sender":{_quote(tx.sender)},"gas":{tx.gas!r},'
            f'"reads":[{reads}],"writes":[{writes}],"cadds":[{cadds}]}}'
        )
    out.append("")
    return "\n".join(out).encode("utf-8")


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


def _gas_draw(gas, pattern: str, rng: random.Random):
    """A generator's gas param, checked once, as a function that gives each
    tx's gas in turn: None for the pattern's default, an int, or a (low,
    high) pair of ints drawn from uniformly by `rng`; every gas is >= 1."""
    if gas is None:
        gas = DEFAULT_GAS[pattern]
    if type(gas) is int and gas >= 1:
        return lambda: gas
    if type(gas) in (tuple, list) and list(map(type, gas)) == [int, int] and 1 <= gas[0] <= gas[1]:
        low, high = gas
        return lambda: rng.randint(low, high)
    raise ValidationError(f"gas must be an integer or a (low, high) pair of integers, all >= 1 and low <= high, got {gas!r}")


# The generators build trusted objects (see `Workload`): each contract is a
# fixed prefix plus the hex namespace, each slot a fixed template, each
# sender the namespace plus a counter, and gas comes from `_gas_draw`.


def gen_payments(n: int, seed: int = 0, *, gas=None, _instance: int = 0) -> Workload:
    """n independent value transfers: every tx touches its own pair of balance keys."""
    _check_int("n", n, 1)
    ns = _namespace("payments", seed, _instance)
    contract = f"native{ns}"
    draw_gas = _gas_draw(gas, "payments", random.Random(seed + 0x9E3779B9 * (_instance + 1)))
    txs = []
    tags: dict[str, int] = {}
    for i in range(n):
        sender = f"p{ns}-{i}"
        src, dst = f"bal:{sender}", f"bal:q{ns}-{i}"
        tags[f"{contract}:{src}"] = -1
        tags[f"{contract}:{dst}"] = 1
        keys = frozenset({_key((contract, src)), _key((contract, dst))})
        txs.append(_transaction(i, sender, draw_gas(), _access(keys, keys)))
    meta = {"pattern": "payments", "seed": seed, "n": n, "key_tags": tags, "bottleneck_keys": []}
    return _workload(tuple(txs), meta)


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
    _check_int("n", n, 1)
    _check_int("senders", senders, 1)
    if type(track_total_supply) is not bool:
        raise ValidationError(f"track_total_supply must be true or false, got {track_total_supply!r}")
    ns = _namespace("token_distribution", seed, _instance)
    contract = f"tok{ns}"
    draw_gas = _gas_draw(gas, "token_distribution", random.Random(seed + 0x9E3779B9 * (_instance + 1)))
    supply = _key((contract, "totalSupply"))
    tags: dict[str, int] = {}
    bottleneck = []
    sender_keys = []
    for j in range(senders):
        key = _key((contract, f"bal:s{ns}-{j}"))
        sender_keys.append(key)
        tags[str(key)] = -1
        bottleneck.append(str(key))
    if track_total_supply:
        tags[str(supply)] = 1
        bottleneck.append(str(supply))
    txs = []
    for i in range(n):
        j = i % senders
        slot = f"bal:r{ns}-{i}"
        tags[f"{contract}:{slot}"] = 1
        keys = {sender_keys[j], _key((contract, slot))}
        if track_total_supply:
            keys.add(supply)
        keys = frozenset(keys)
        txs.append(_transaction(i, f"s{ns}-{j}", draw_gas(), _access(keys, keys)))
    meta = {
        "pattern": "token_distribution",
        "seed": seed,
        "n": n,
        "senders": senders,
        "track_total_supply": track_total_supply,
        "key_tags": tags,
        "bottleneck_keys": bottleneck,
    }
    return _workload(tuple(txs), meta)


def gen_defi_fee(n: int, traders: int = 1, seed: int = 0, *, gas=None, _instance: int = 0) -> Workload:
    """Exchange trades that all credit one shared fee-account key.

    Each tx read-modify-writes the fee key plus two keys owned by its
    trader (assigned round-robin).
    """
    _check_int("n", n, 1)
    _check_int("traders", traders, 1)
    ns = _namespace("defi_fee", seed, _instance)
    contract = f"dex{ns}"
    draw_gas = _gas_draw(gas, "defi_fee", random.Random(seed + 0x9E3779B9 * (_instance + 1)))
    fee = _key((contract, "feeBalance"))
    tags: dict[str, int] = {str(fee): 1}
    txs = []
    for i in range(n):
        trader = f"t{ns}-{i % traders}"
        maker, taker = f"bal0:{trader}", f"bal1:{trader}"
        tags[f"{contract}:{maker}"] = -1
        tags[f"{contract}:{taker}"] = 1
        keys = frozenset({fee, _key((contract, maker)), _key((contract, taker))})
        txs.append(_transaction(i, trader, draw_gas(), _access(keys, keys)))
    meta = {
        "pattern": "defi_fee",
        "seed": seed,
        "n": n,
        "traders": traders,
        "key_tags": tags,
        "bottleneck_keys": [str(fee)],
    }
    return _workload(tuple(txs), meta)


def gen_nft_mint(n: int, seed: int = 0, *, gas=None, _instance: int = 0) -> Workload:
    """Collectible mints: every tx bumps the shared array-length key and
    writes a distinct element key. The new element's location is derived
    from the length read, so the length key is tagged value-dependent and
    can never be turned into a commutative add."""
    _check_int("n", n, 1)
    ns = _namespace("nft_mint", seed, _instance)
    contract = f"nft{ns}"
    draw_gas = _gas_draw(gas, "nft_mint", random.Random(seed + 0x9E3779B9 * (_instance + 1)))
    length = _key((contract, "items.length"))
    reads = frozenset({length})  # the same for every tx
    txs = [
        _transaction(i, f"u{ns}-{i}", draw_gas(), _access(reads, frozenset({length, _key((contract, f"items.{i}"))})))
        for i in range(n)
    ]
    meta = {
        "pattern": "nft_mint",
        "seed": seed,
        "n": n,
        "key_tags": {str(length): VALUE_DEPENDENT},
        "bottleneck_keys": [str(length)],
    }
    return _workload(tuple(txs), meta)


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
    _check_int("n", n, 1)
    for entry in spec:
        if type(entry) not in (tuple, list) or len(entry) != 3:
            raise ValidationError(f"mixed spec entries must be (pattern, params, weight) triples, got {entry!r}")
        pattern, params, weight = entry
        if type(pattern) is not str or pattern not in GENERATORS:
            raise ValidationError(f"unknown pattern {pattern!r}")
        if params is not None and type(params) is not dict:
            raise ValidationError(f"pattern {pattern!r}: params must be a dict, got {params!r}")
        for name in params or {}:
            if name in ("n", "seed", "_instance") or name not in inspect.signature(GENERATORS[pattern]).parameters:
                raise ValidationError(f"pattern {pattern!r} takes no param {name!r}")
        if type(weight) not in (int, float) or not 0 < weight < math.inf:
            raise ValidationError(f"pattern {pattern!r}: weight must be positive and finite, got {weight!r}")

    total = sum(weight for _, _, weight in spec)
    if not math.isfinite(n * total):  # then no count below overflows
        raise ValidationError(f"mixed spec: {n} txs times the weights' sum {total} is not finite")
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
        sub = GENERATORS[pattern](counts[idx], seed=instance_seeds[idx], _instance=idx, **(params or {}))
        merged_tags.update(sub.meta["key_tags"])
        bottleneck.extend(sub.meta["bottleneck_keys"])
        combined.extend(sub.transactions)

    rng.shuffle(combined)
    # Renumber in the shuffled order: each tx keeps its checked fields.
    txs = tuple([_transaction(pos, tx.sender, tx.gas, tx.access) for pos, tx in enumerate(combined)])
    meta = {
        "pattern": "mixed",
        "seed": seed,
        "n": n,
        # A gas range given as a tuple is kept as the list JSON reads back.
        "spec": [
            [pattern, {name: list(v) if type(v) is tuple else v for name, v in (params or {}).items()}, weight]
            for pattern, params, weight in spec
        ],
        "key_tags": merged_tags,
        "bottleneck_keys": bottleneck,
    }
    return _workload(txs, meta)
