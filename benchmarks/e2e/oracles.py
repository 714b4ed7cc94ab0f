"""Independent pure-Python oracles for the benchmark's queries.

Nothing here imports the program under test: each function recomputes a
library query's answer from the raw edge list with a textbook algorithm,
so a wrong engine result cannot also be a wrong oracle result.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

_MASK = (1 << 64) - 1


def checksum(rows) -> int:
    """Order-independent 64-bit checksum of a row collection.

    Rows are tuples of ints/floats, whose hashes do not depend on
    ``PYTHONHASHSEED``; summing makes duplicates count (XOR would cancel
    them).
    """
    return sum(map(hash, rows)) & _MASK


def _adjacency(edges) -> dict:
    adjacency = defaultdict(list)
    for edge in edges:
        adjacency[edge[0]].append(edge[1])
    return adjacency


def cc_min_label_count(edges) -> int:
    """Answer of the library ``cc`` query: ``count(distinct CmpId)``.

    The query propagates labels along *directed* edges — every vertex
    with an out-edge starts labelled with itself, and a vertex keeps the
    minimum label that reaches it — so on a directed graph this is not
    the weakly-connected-component count a union-find would give.
    Visiting sources in ascending id and flooding only unlabelled
    vertices gives each vertex its minimum reaching label in O(V + E):
    whatever a later, larger source could reach through an already
    labelled vertex was flooded by that vertex's smaller label first.
    """
    adjacency = _adjacency(edges)
    label: dict = {}
    for source in sorted(adjacency):
        if source in label:
            continue
        label[source] = source
        stack = [source]
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in label:
                    label[nxt] = source
                    stack.append(nxt)
    return len(set(label.values()))


def sssp_rows(edges, source) -> list[tuple]:
    """Dijkstra: ``(vertex, min cost)`` for every vertex reachable from
    ``source`` (non-negative weights), the source itself at cost 0."""
    adjacency = defaultdict(list)
    for src, dst, cost in edges:
        adjacency[src].append((dst, cost))
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        cost, vertex = heapq.heappop(heap)
        if cost > best[vertex]:
            continue
        for nxt, weight in adjacency.get(vertex, ()):
            candidate = cost + weight
            known = best.get(nxt)
            if known is None or candidate < known:
                best[nxt] = candidate
                heapq.heappush(heap, (candidate, nxt))
    return list(best.items())


def tc_rows(edges) -> list[tuple]:
    """Per-source BFS closure: every ``(s, d)`` joined by a path of at
    least one edge (so ``(s, s)`` appears only when ``s`` lies on a
    cycle)."""
    adjacency = {src: set(dsts) for src, dsts in _adjacency(edges).items()}
    nothing: set = set()
    rows = []
    for source, first in adjacency.items():
        reached = set(first)
        frontier = first
        while frontier:
            step = set()
            for vertex in frontier:
                step |= adjacency.get(vertex, nothing)
            frontier = step - reached
            reached |= frontier
        rows.extend((source, dst) for dst in reached)
    return rows


def same_rows(actual, expected) -> bool:
    """Multiset equality with exact value *and type* agreement (``1`` and
    ``1.0`` hash and compare equal in Python; a bit-exact check must not
    let them pass for each other)."""
    if len(actual) != len(expected):
        return False
    ordered_a, ordered_e = sorted(actual), sorted(expected)
    if ordered_a != ordered_e:
        return False
    return all(type(x) is type(y)
               for a, e in zip(ordered_a, ordered_e) for x, y in zip(a, e))
