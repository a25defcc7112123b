"""Abort-free speedup bounds: a non-preemptive priority list scheduler over
virtual gas time and an exact brute-force makespan oracle for small
instances.

The list scheduler dispatches, whenever a thread is idle and ready
transactions exist, the ready transaction heading the heaviest dependency
chain. This realizes the best-case schedule in which no transaction ever
aborts; its makespan lower-bounds what any optimistic scheduler can achieve
on the same graph. List schedules are not optimal in general, which is what
the brute-force oracle quantifies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import SizeLimitError, _check_int
from .graph import DependencyGraph, heaviest_from


@dataclass(frozen=True)
class ScheduleResult:
    """A complete abort-free schedule on virtual threads.

    `per_thread` holds one tuple of (tx_id, start, end) triples per thread,
    in dispatch order; times are gas units.
    """

    makespan: int
    per_thread: tuple[tuple[tuple[int, int, int], ...], ...]
    serial_cost: int
    speedup: float
    threads: int


def bound_schedule(g: DependencyGraph, threads: int) -> ScheduleResult:
    """Event-driven list scheduling in virtual gas time.

    Priorities are heaviest-chain weights; ties break toward the lowest tx
    id, thread choice toward the lowest thread index. Deterministic.
    """
    _check_int("threads", threads, 1)
    n = g.n
    serial = g.total_weight
    if n == 0:
        return ScheduleResult(0, ((),) * threads, 0, 1.0, threads)

    priority = heaviest_from(g)
    dependents = g.dependents()
    indegree = [0] * n
    for j, _ in g.edges:
        indegree[j] += 1

    ready: list[tuple[int, int]] = [(-priority[i], i) for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    # A dispatch takes the lowest idle thread, whose index is at most the
    # number of running txs and so below n: threads from n on stay idle.
    lanes = min(threads, n)
    idle = list(range(lanes))
    running: list[tuple[int, int, int]] = []  # (end, thread, tx)
    timeline: list[list[tuple[int, int, int]]] = [[] for _ in range(lanes)]
    clock = 0
    finished = 0

    while finished < n:
        while ready and idle:
            _, tx = heapq.heappop(ready)
            thread = heapq.heappop(idle)
            end = clock + g.weights[tx]
            timeline[thread].append((tx, clock, end))
            heapq.heappush(running, (end, thread, tx))
        # No further dispatch possible; advance to the next completion batch.
        end, thread, tx = heapq.heappop(running)
        clock = end
        completed = [(thread, tx)]
        while running and running[0][0] == clock:
            _, thread, tx = heapq.heappop(running)
            completed.append((thread, tx))
        for thread, tx in completed:
            heapq.heappush(idle, thread)
            finished += 1
            for j in dependents[tx]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    heapq.heappush(ready, (-priority[j], j))

    makespan = clock
    return ScheduleResult(
        makespan=makespan,
        per_thread=tuple(map(tuple, timeline)) + ((),) * (threads - lanes),
        serial_cost=serial,
        speedup=serial / makespan if makespan else 1.0,
        threads=threads,
    )


def brute_force_makespan(g: DependencyGraph, threads: int) -> int:
    """Exact minimal makespan over all dependency-respecting non-preemptive
    schedules, by memoized search over start/advance decisions at event
    times. Exponential; refuses instances beyond n=10 or 4 threads."""
    _check_int("threads", threads, 1)
    if g.n > 10 or threads > 4:
        raise SizeLimitError(f"brute force limited to n <= 10 and threads <= 4 (got n={g.n}, threads={threads})")
    n = g.n
    if n == 0:
        return 0
    pred_mask = [0] * n
    for j, i in g.edges:
        pred_mask[j] |= 1 << i
    weights = g.weights
    full = (1 << n) - 1
    memo: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}

    def solve(done_mask: int, running: tuple[tuple[int, int], ...]) -> int:
        if done_mask == full and not running:
            return 0
        key = (done_mask, running)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = None
        running_mask = 0
        for _, tx in running:
            running_mask |= 1 << tx
        if len(running) < threads:
            for tx in range(n):
                bit = 1 << tx
                if done_mask & bit or running_mask & bit:
                    continue
                if pred_mask[tx] & done_mask != pred_mask[tx]:
                    continue
                nxt = tuple(sorted(running + ((weights[tx], tx),)))
                value = solve(done_mask, nxt)
                if best is None or value < best:
                    best = value
        if running:
            # Deliberately idling free threads until the next completion is a
            # legal (and sometimes optimal) move, so it is always explored.
            delta = min(rem for rem, _ in running)
            new_done = done_mask
            remaining = []
            for rem, tx in running:
                if rem == delta:
                    new_done |= 1 << tx
                else:
                    remaining.append((rem - delta, tx))
            value = delta + solve(new_done, tuple(remaining))
            if best is None or value < best:
                best = value
        assert best is not None
        memo[key] = best
        return best

    return solve(0, ())
