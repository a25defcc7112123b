"""Conflict predicate, transaction dependency graph, and heaviest-path
metrics. Two transactions conflict when they touch a common storage key and
at least one side writes it; commutative-add-only overlaps are exempt in
cadd-aware mode."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable

from .errors import ValidationError
from .workload import AccessSet, StorageKey, Transaction, Workload

#: Access kinds of one transaction on one key, as bits of a kind mask.
READ, WRITE, CADD = 1, 2, 4


@dataclass(frozen=True)
class DependencyGraph:
    """DAG over block-ordered transactions.

    Edges are (later_id, earlier_id) pairs: the later transaction depends on
    the earlier one. Acyclic by construction since every edge points from a
    higher id to a strictly lower one. `edge_keys` annotates each edge with
    the storage keys that justify it; it is derived data and excluded from
    equality.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[int, ...]
    edge_keys: dict = field(default_factory=dict, compare=False, repr=False)
    _adjacency: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(j), int(i)) for j, i in self.edges))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.weights) != self.n:
            raise ValidationError(f"expected {self.n} weights, got {len(self.weights)}")
        for w in self.weights:
            if w < 1:
                raise ValidationError(f"vertex weights must be positive, got {w}")
        for j, i in self.edges:
            if not 0 <= i < j < self.n:
                raise ValidationError(f"edge ({j},{i}) must point from a later id to an earlier id")

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def dependents(self) -> tuple[tuple[int, ...], ...]:
        """For each id, the sorted ids that depend on it. Computed once."""
        return self._neighbours(1, 0)

    def dependencies(self) -> tuple[tuple[int, ...], ...]:
        """For each id, the sorted ids it depends on. Computed once."""
        return self._neighbours(0, 1)

    def _neighbours(self, src: int, dst: int) -> tuple[tuple[int, ...], ...]:
        cached = self._adjacency.get(src)
        if cached is None:
            out: list[list[int]] = [[] for _ in range(self.n)]
            # Sorted (j, i) edges list every id's neighbours in ascending order.
            for edge in sorted(self.edges):
                out[edge[src]].append(edge[dst])
            cached = self._adjacency[src] = tuple(map(tuple, out))
        return cached


@dataclass(frozen=True)
class PathReport:
    critical_weight: int
    critical_path: tuple[int, ...]
    total_weight: int


def _pair_conflict(x: AccessSet, y: AccessSet, cadd_aware: bool, write_cadd_conflicts: bool) -> bool:
    if not cadd_aware:
        # Commutative adds degrade to plain read+write accesses.
        x_write = x.writes | x.cadd_keys
        y_write = y.writes | y.cadd_keys
        return bool(x_write & (y.reads | y_write)) or bool(y_write & (x.reads | x_write))
    x_cadds = x.cadd_keys
    y_cadds = y.cadd_keys
    y_vs_write = y.reads | y.writes | (y_cadds if write_cadd_conflicts else frozenset())
    x_vs_write = x.reads | x.writes | (x_cadds if write_cadd_conflicts else frozenset())
    if x.writes & y_vs_write or y.writes & x_vs_write:
        return True
    return bool(x_cadds & y.reads) or bool(y_cadds & x.reads)


def conflicts(
    a: Transaction,
    b: Transaction,
    cadd_aware: bool = False,
    *,
    write_cadd_conflicts: bool = True,
) -> bool:
    """True iff the two transactions have a storage conflict.

    Plain mode treats commutative adds as ordinary read+write accesses. In
    cadd-aware mode a key conflicts unless both sides touch it with cadds
    only; `write_cadd_conflicts=False` additionally exempts a plain write on
    one side against a cadd on the other (sound under in-order commits, kept
    behind a flag because the conservative default is the baseline).
    """
    if a.id == b.id:
        raise ValidationError("conflicts() requires two distinct transactions")
    return _pair_conflict(a.access, b.access, cadd_aware, write_cadd_conflicts)


def _accesses(workload: Workload) -> Iterable[tuple[StorageKey, list[tuple[int, int]]]]:
    """Each key, with (id, kind mask) of every tx touching it, by id: one
    pass over the workload in id order."""
    touched: dict[StorageKey, list[tuple[int, int]]] = {}
    for tx in workload:
        i, access = tx.id, tx.access
        for kind, keys in ((READ, access.reads), (WRITE, access.writes), (CADD, access.cadds)):
            for key in keys:
                if kind == CADD:
                    key = key[0]  # a (key, delta) pair; one key may repeat
                by_id = touched.get(key)
                if by_id is None:
                    touched[key] = [(i, kind)]
                elif by_id[-1][0] == i:  # this tx touches the key in another way too
                    by_id[-1] = (i, by_id[-1][1] | kind)
                else:
                    by_id.append((i, kind))
    return touched.items()


class KeyIndex:
    """The one access index of a workload: `accesses()` gives every access
    to each key, by id. The dependency graphs, the `dep_graph`
    storage-version table (`max_dependency`) and the OCC engines'
    commit-window table (`latest_writer`) are all derived from it.
    `build_graph` and `schedule_graph` read the per-key accesses
    (`_accesses`) directly, so they skip the engines' table."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.n = len(workload)
        self._by_key = _accesses(workload)  # one pass, shared by every table below
        self._latest_writer: dict[bool, tuple[int, ...]] = {}

    def accesses(self) -> Iterable[tuple[StorageKey, list[tuple[int, int]]]]:
        """Each key, with (id, kind mask) of every tx touching it, by id."""
        return self._by_key

    def latest_writer(self, cadd_aware: bool) -> tuple[int, ...]:
        """Per tx, the highest earlier id that writes or cadds a key it reads,
        or -1. Its cadd keys count as reads unless commutative adds are
        honoured. A commit window (sv, id) always ends at id - 1, so an
        attempt with storage version sv aborts iff `latest_writer[id] > sv`.
        Built in O(accesses) once per mode, so every engine run sharing this
        index reuses it."""
        table = self._latest_writer.get(cadd_aware)
        if table is None:
            aborts_on = READ if cadd_aware else READ | CADD
            latest = [-1] * self.n
            for _, accesses in self.accesses():
                writer = -1  # the latest id so far that writes or cadds this key
                for j, kind in accesses:
                    if kind & aborts_on and writer > latest[j]:
                        latest[j] = writer
                    if kind & (WRITE | CADD):
                        writer = j
            table = self._latest_writer[cadd_aware] = tuple(latest)
        return table


@cache
def _kind_conflicts(cadd_aware: bool, write_cadd_conflicts: bool) -> tuple[tuple[bool, ...], ...]:
    """`[later][earlier]`: whether accesses to one key with these kind masks
    conflict. Derived from `_pair_conflict` on single-key access sets, so
    both stay one rule."""
    key = StorageKey("k", "k")
    access = [
        AccessSet(
            reads={key} if kind & READ else (),
            writes={key} if kind & WRITE else (),
            cadds=((key, 1),) if kind & CADD else (),
        )
        for kind in range(8)
    ]
    return tuple(
        tuple(_pair_conflict(access[later], access[earlier], cadd_aware, write_cadd_conflicts) for earlier in range(8))
        for later in range(8)
    )


def max_dependency(index: KeyIndex, cadd_aware: bool, write_cadd_conflicts: bool = True) -> tuple[int, ...]:
    """For each tx, the highest earlier id it conflicts with, or -1: the
    highest predecessor in `build_graph`'s edge set, in O(accesses)."""
    conflict = _kind_conflicts(cadd_aware, write_cadd_conflicts)
    dep = [-1] * index.n
    for _, accesses in index.accesses():
        latest: dict[int, int] = {}  # kind mask -> the latest id so far with it
        for j, kind in accesses:
            row = conflict[kind]
            for earlier, i in latest.items():
                if row[earlier] and i > dep[j]:
                    dep[j] = i
            latest[kind] = j
    return tuple(dep)


def build_graph(
    workload: Workload,
    cadd_aware: bool = False,
    *,
    write_cadd_conflicts: bool = True,
) -> DependencyGraph:
    """Build the dependency graph from the per-key access index.

    Produces exactly the edge set of the naive pairwise conflicts() scan
    (the normative oracle), in O(sum of per-key conflicting pairs): each
    key emits each of its (later, earlier) pairs once.
    """
    conflict = _kind_conflicts(cadd_aware, write_cadd_conflicts)
    edge_keys: dict[tuple[int, int], set[StorageKey]] = {}
    for key, accesses in _accesses(workload):
        by_kind: dict[int, list[int]] = {}  # kind mask -> earlier ids with it
        for j, kind in accesses:
            row = conflict[kind]
            for earlier, ids in by_kind.items():
                if not row[earlier]:
                    continue
                for i in ids:
                    edge_keys.setdefault((j, i), set()).add(key)
            by_kind.setdefault(kind, []).append(j)

    frozen = {edge: frozenset(keys) for edge, keys in edge_keys.items()}
    return DependencyGraph(
        n=len(workload),
        edges=frozenset(frozen),
        weights=tuple(tx.gas for tx in workload),
        edge_keys=frozen,
    )


@cache
def _schedule_rules(
    cadd_aware: bool, write_cadd_conflicts: bool
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """`[later]`: each earlier kind mask the later one conflicts with, and its
    blocker kinds, which conflict with both (the later kind after the
    blocker, the blocker after the earlier kind). Derived from
    `_kind_conflicts`, so every mode gets its rule from one table."""
    conflict = _kind_conflicts(cadd_aware, write_cadd_conflicts)
    kinds = range(1, 8)
    return tuple(
        tuple((b, tuple(c for c in kinds if conflict[a][c] and conflict[c][b])) for b in kinds if conflict[a][b])
        for a in range(8)
    )


def schedule_graph(
    workload: Workload,
    cadd_aware: bool = False,
    *,
    write_cadd_conflicts: bool = True,
) -> tuple[DependencyGraph, int]:
    """A subgraph of `build_graph`'s edges with the same reachability, and the
    number of conflicting pairs `build_graph` would emit.

    On each key, the pair (j, i) is left out when some access between them
    conflicts with both: (j, k) and (k, i) are pairs of that key, so by
    induction on j - i a kept path joins j to i. Both graphs therefore
    contain the transitive reduction, and with positive weights every
    heaviest path and every list-schedule ready time is the same in both:
    `critical_path` and `bound_schedule` give equal results on either. On a
    hot key the graph is a chain, so its cost follows the number of
    accesses, not of pairs; the pairs are counted as per-tx bitsets.
    """
    rules = _schedule_rules(cadd_aware, write_cadd_conflicts)
    edges: set[tuple[int, int]] = set()
    earlier = [0] * len(workload)  # per tx, the earlier ids it conflicts with, as a bitset
    for _, accesses in _accesses(workload):
        if len(accesses) < 2:
            continue
        ids: dict[int, list[int]] = {}  # kind mask -> the ids with it so far, ascending
        bits: dict[int, int] = {}  # kind mask -> the same ids, as a bitset
        for j, kind in accesses:
            for b, blockers in rules[kind]:
                older = ids.get(b)
                if older is None:
                    continue
                earlier[j] |= bits[b]
                floor = max([ids[c][-1] for c in blockers if c in ids], default=0)
                for i in older[bisect_left(older, floor) :]:
                    edges.add((j, i))
            if kind in ids:
                ids[kind].append(j)
                bits[kind] |= 1 << j
            else:
                ids[kind] = [j]
                bits[kind] = 1 << j
    graph = DependencyGraph(n=len(workload), edges=frozenset(edges), weights=tuple(tx.gas for tx in workload))
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
        return DependencyGraph(
            n=int(data["n"]),
            edges=frozenset((int(j), int(i)) for j, i in data["edges"]),
            weights=tuple(int(w) for w in data["weights"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from None


def graph_to_edgelist(g: DependencyGraph) -> str:
    """Edge-list text: a weights header comment, then one `j i` line per edge."""
    lines = ["# weights " + " ".join(str(w) for w in g.weights)]
    for j, i in sorted(g.edges):
        lines.append(f"{j} {i}")
    return "\n".join(lines) + "\n"
