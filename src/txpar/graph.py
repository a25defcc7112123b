"""Conflict predicate, transaction dependency graph, and heaviest-path
metrics. Two transactions conflict when they touch a common storage key and
at least one side writes it; commutative-add-only overlaps are exempt in
cadd-aware mode."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache

from .errors import ValidationError
from .workload import AccessSet, StorageKey, Transaction, Workload, _new, _set_field

#: Access kinds of one transaction on one key, as bits of a kind mask.
READ, WRITE, CADD = 1, 2, 4


@dataclass(frozen=True)
class DependencyGraph:
    """DAG over block-ordered transactions.

    Edges are (later_id, earlier_id) pairs: the later transaction depends on
    the earlier one. Acyclic by construction since every edge points from a
    higher id to a strictly lower one.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[int, ...]
    _dependents: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        # Exact ints only: a float, string or bool is refused, never coerced.
        if type(self.edges) is not frozenset:
            object.__setattr__(self, "edges", frozenset(self.edges))
        if type(self.weights) is not tuple:
            object.__setattr__(self, "weights", tuple(self.weights))
        n = self.n
        if type(n) is not int:
            raise ValidationError(f"vertex count must be an integer, got {n!r}")
        if len(self.weights) != n:
            raise ValidationError(f"expected {n} weights, got {len(self.weights)}")
        for w in self.weights:
            if type(w) is not int or w < 1:
                raise ValidationError(f"vertex weights must be positive integers, got {w!r}")
        for j, i in self.edges:
            if type(j) is not int or type(i) is not int or not 0 <= i < j < n:
                raise ValidationError(f"edge ({j!r},{i!r}) must point from a later integer id to an earlier one")

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def dependents(self) -> tuple[tuple[int, ...], ...]:
        """For each id, the sorted ids that depend on it. Computed once."""
        if self._dependents is None:
            out: list[list[int]] = [[] for _ in range(self.n)]
            # Sorted (j, i) edges list every id's dependents in ascending order.
            for j, i in sorted(self.edges):
                out[i].append(j)
            object.__setattr__(self, "_dependents", tuple(map(tuple, out)))
        return self._dependents


def _graph(n: int, edges: frozenset[tuple[int, int]], weights: tuple[int, ...]) -> DependencyGraph:
    """A trusted DependencyGraph, built as the trusted workload objects are
    (see `Workload`): its maker has made `edges` (later, earlier) pairs of
    ids below `n` from a workload's ids, and `weights` its txs' gas."""
    g = _new(DependencyGraph)
    _set_field(g, "n", n)
    _set_field(g, "edges", edges)
    _set_field(g, "weights", weights)
    return g  # `_dependents` is the class default, None, as after `__init__`


@dataclass(frozen=True)
class PathReport:
    critical_weight: int
    critical_path: tuple[int, ...]
    total_weight: int


@cache
def _kind_conflicts(cadd_aware: bool) -> tuple[tuple[bool, ...], ...]:
    """`[later][earlier]`: whether two accesses to one key with these kind
    masks conflict. This table is the conflict rule. Plain mode treats a cadd
    as a read+write, so a pair conflicts if either side writes or cadds. In
    cadd-aware mode a write conflicts with every access, a cadd conflicts
    with a read, and two cadds commute."""

    def one_way(x: int, y: int) -> bool:  # x's access against y's, both possibly empty
        if not cadd_aware:
            return bool(x & (WRITE | CADD) and y)
        return bool(x & WRITE and y or x & CADD and y & READ)

    return tuple(tuple(one_way(later, earlier) or one_way(earlier, later) for earlier in range(8)) for later in range(8))


def _masks(access: AccessSet) -> dict[StorageKey, int]:  # each key touched, to its kind mask
    reads, writes, cadds = access.reads, access.writes, access.cadd_keys
    return {key: READ * (key in reads) | WRITE * (key in writes) | CADD * (key in cadds) for key in reads | writes | cadds}


def conflicts(a: Transaction, b: Transaction, cadd_aware: bool = False) -> bool:
    """True iff the two transactions have a storage conflict.

    Plain mode treats commutative adds as ordinary read+write accesses. In
    cadd-aware mode a key conflicts unless both sides touch it with cadds
    only: a plain write on one side still conflicts with a cadd on the other.
    """
    if a.id == b.id:
        raise ValidationError("conflicts() requires two distinct transactions")
    rule = _kind_conflicts(cadd_aware)
    x, y = _masks(a.access), _masks(b.access)
    return any(rule[kind][y[key]] for key, kind in x.items() if key in y)


def _accesses(workload: Workload) -> dict[StorageKey, list[tuple[int, int]]]:
    """Each key, to (id, kind mask) of every tx touching it, by id: the one
    per-key access index, kept by `Workload.derived` so that both graphs and
    `latest_conflict` share it."""
    return workload.derived("accesses", _index_accesses)


def _index_accesses(workload: Workload) -> dict[StorageKey, list[tuple[int, int]]]:
    # One pass in id order. A key a tx reads and writes takes one lookup; only a cadd key meets an entry of its own tx.
    touched: dict[StorageKey, list[tuple[int, int]]] = {}
    for tx in workload:
        i, access = tx.id, tx.access
        reads, writes = access.reads, access.writes
        for key in reads:
            touched.setdefault(key, []).append((i, READ | WRITE) if key in writes else (i, READ))
        for key in writes:
            if key not in reads:
                touched.setdefault(key, []).append((i, WRITE))
        for key, _ in access.cadds:  # (key, delta) pairs; one key may repeat
            by_id = touched.setdefault(key, [])
            if by_id and by_id[-1][0] == i:  # this tx touches the key in another way too
                by_id[-1] = (i, by_id[-1][1] | CADD)
            else:
                by_id.append((i, CADD))
    return touched


def latest_conflict(workload: Workload, rule: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    """Per tx, the highest earlier id on a shared key whose kind mask
    `rule[its kind][that kind]` pairs with its own, or -1. One pass over the
    access index: each key keeps the latest id of each kind mask seen so far,
    and keys with one access are skipped. Kept by `Workload.derived` under
    the rule's value, so every engine run on the workload reuses it."""

    def build(workload: Workload) -> tuple[int, ...]:
        latest = [-1] * len(workload)
        for accesses in _accesses(workload).values():
            if len(accesses) < 2:
                continue
            last: dict[int, int] = {}  # kind mask -> the latest id with it so far
            for j, kind in accesses:
                row = rule[kind]
                for b, i in last.items():
                    if row[b] and i > latest[j]:
                        latest[j] = i
                last[kind] = j
        return tuple(latest)

    return workload.derived(("latest_conflict", rule), build)


@cache
def _abort_rule(cadd_aware: bool) -> tuple[tuple[bool, ...], ...]:
    """`[later][earlier]`: whether a tx with the later kind mask reads a key
    that one with the earlier mask writes or cadds. Its cadds count as reads
    unless commutative adds are honoured."""
    reads = READ if cadd_aware else READ | CADD
    return tuple(tuple(bool(later & reads and earlier & (WRITE | CADD)) for earlier in range(8)) for later in range(8))


def latest_writer(workload: Workload, cadd_aware: bool) -> tuple[int, ...]:
    """Per tx, the highest earlier id that writes or cadds a key it reads, or
    -1. A commit window (sv, id) always ends at id - 1, so an attempt with
    storage version sv aborts iff `latest_writer[id] > sv`."""
    return latest_conflict(workload, _abort_rule(cadd_aware))


def _pairs(per_key, conflict: tuple[tuple[bool, ...], ...]) -> set[tuple[int, int]]:
    """Every (later, earlier) pair that conflicts on one of the given keys,
    each given as its (id, kind mask) accesses in id order. Each key emits
    each of its pairs once, so the cost follows the conflicting pairs."""
    edges: set[tuple[int, int]] = set()
    for accesses in per_key:
        if len(accesses) < 2:
            continue
        by_kind: dict[int, list[int]] = {}  # kind mask -> earlier ids with it
        for j, kind in accesses:
            row = conflict[kind]
            for earlier, ids in by_kind.items():
                if row[earlier]:
                    edges.update([(j, i) for i in ids])
            by_kind.setdefault(kind, []).append(j)
    return edges


def build_graph(workload: Workload, cadd_aware: bool = False) -> DependencyGraph:
    """Build the dependency graph from the per-key access index.

    Produces exactly the edge set of the naive pairwise conflicts() scan
    (the normative oracle), in O(sum of per-key conflicting pairs).
    """
    edges = _pairs(_accesses(workload).values(), _kind_conflicts(cadd_aware))
    return _graph(len(workload), frozenset(edges), tuple(tx.gas for tx in workload))


def edges_only_on(workload: Workload, keys, cadd_aware: bool = False) -> set[tuple[int, int]]:
    """The (later, earlier) pairs of `build_graph` in the same mode whose two
    txs conflict on some of `keys` and on no other key. Other keys are
    searched for pairs only among the txs that touch `keys`."""
    keys = frozenset(keys)
    touched = _accesses(workload)
    conflict = _kind_conflicts(cadd_aware)
    on = _pairs((touched[key] for key in keys if key in touched), conflict)
    ids = {i for key in keys for i, _ in touched.get(key, ())}
    shared = (accesses for key, accesses in touched.items() if len(accesses) > 1 and key not in keys)
    elsewhere = _pairs(([access for access in accesses if access[0] in ids] for accesses in shared), conflict)
    return on - elsewhere


def schedule_graph(workload: Workload, cadd_aware: bool = False) -> tuple[DependencyGraph, int]:
    """A subgraph of `build_graph`'s edges with the same reachability, and the
    number of conflicting pairs `build_graph` would emit.

    Each key's pairs are reduced transitively (Aho, Garey and Ullman, SIAM J.
    Comput. 1(2), 1972). On one key, the earlier accesses of a kind b that an
    access reaches through the key's pairs are downward closed: if the last
    hop is k -> i, then k conflicts with every earlier b too, as conflicts
    depend only on kinds. So a reach table, for each kind the highest id
    reached, describes them all, and the latest access of a kind reaches
    what any earlier one of that kind does. An access keeps its pairs with
    the earlier b above the highest b reached by the latest access of a kind
    it conflicts with; a kept pair is reached no other way. Both graphs have
    the same transitive closure, and with positive weights every heaviest
    path and list-schedule ready time is the same in both: `critical_path`
    and `bound_schedule` give equal results on either. On a hot key the graph is
    a chain, so its cost follows the number of accesses, not of pairs; the
    pairs are counted as per-tx bitsets.
    """
    conflict = _kind_conflicts(cadd_aware)
    edges: set[tuple[int, int]] = set()
    earlier = [0] * len(workload)  # per tx, the earlier ids it conflicts with, as a bitset
    for accesses in _accesses(workload).values():
        if len(accesses) < 2:
            continue
        ids: dict[int, list[int]] = {}  # kind mask -> the ids with it so far, ascending
        bits: dict[int, int] = {}  # kind mask -> the same ids, as a bitset
        reach: dict[int, dict[int, int]] = {}  # kind mask -> its latest access's reach table
        for j, kind in accesses:
            row = conflict[kind]
            near = [b for b in ids if row[b]]  # the present kinds j conflicts with
            table: dict[int, int] = {}
            for c in near:
                for b, i in reach[c].items():
                    if i > table.get(b, -1):
                        table[b] = i
            for b in near:
                older = ids[b]
                earlier[j] |= bits[b]
                for i in older[bisect_right(older, table.get(b, -1)) :]:
                    edges.add((j, i))
                table[b] = older[-1]
            reach[kind] = table
            if kind in ids:
                ids[kind].append(j)
                bits[kind] |= 1 << j
            else:
                ids[kind] = [j]
                bits[kind] = 1 << j
    graph = _graph(len(workload), frozenset(edges), tuple(tx.gas for tx in workload))
    return graph, sum(mask.bit_count() for mask in earlier)


def heaviest_from(g: DependencyGraph) -> tuple[int, ...]:
    """For each tx, the weight of the heaviest dependency chain it heads:
    its own gas plus the heaviest chain among its dependents."""
    hf = list(g.weights)
    dependents = g.dependents()
    for i in range(g.n - 1, -1, -1):
        best = 0
        for j in dependents[i]:
            if hf[j] > best:
                best = hf[j]
        hf[i] += best
    return tuple(hf)


def critical_path(g: DependencyGraph) -> PathReport:
    """Vertex-weighted longest path, computed exactly by DP over reverse-id
    order. Ties are broken toward the lowest id so the reported path is
    deterministic."""
    if g.n == 0:
        return PathReport(critical_weight=0, critical_path=(), total_weight=0)
    hf = heaviest_from(g)
    dependents = g.dependents()
    best = max(hf)
    start = min(i for i in range(g.n) if hf[i] == best)
    path = [start]
    current = start
    while hf[current] > g.weights[current]:
        target = hf[current] - g.weights[current]
        current = min(j for j in dependents[current] if hf[j] == target)
        path.append(current)
    return PathReport(critical_weight=best, critical_path=tuple(path), total_weight=g.total_weight)


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def graph_to_json_dict(g: DependencyGraph) -> dict:
    return {
        "n": g.n,
        "weights": list(g.weights),
        "edges": sorted([j, i] for j, i in g.edges),
    }


def graph_from_json_dict(data: dict) -> DependencyGraph:
    try:
        return DependencyGraph(n=data["n"], edges=frozenset((j, i) for j, i in data["edges"]), weights=data["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from None


def graph_to_edgelist(g: DependencyGraph) -> str:
    """Edge-list text: a weights header comment, then one `j i` line per edge."""
    lines = ["# weights " + " ".join(str(w) for w in g.weights)]
    for j, i in sorted(g.edges):
        lines.append(f"{j} {i}")
    return "\n".join(lines) + "\n"
