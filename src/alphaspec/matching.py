"""Maximum matching and the Tutte-Berge deficiency witness.

``matching_number`` runs augmenting-path search with blossom contraction
and works on any graph.  ``tutte_berge_witness`` reads the Gallai-Edmonds
set A(G), a minimizer of n - (o(G-S) - |S|), from the same search: it
certifies the matching number and supplies the parameters s and q of the
extremal families.  Both read their neighbour lists from the bytes of
the graph's bit rows.  ``matching_numbers`` gives the matching numbers
of one batch of graphs of one order, as each slice of the exhaustive
scan needs them: up to order ``_SUBSET_DP_MAX_ORDER`` by one subset DP
stacked over the batch, above it by the blossom search per graph.  The
exhaustive oracles the three are checked against live in
``tests/reference.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, row_component_masks, row_edges, stack_rows

# Largest order whose matching numbers come from the stacked subset DP;
# each graph above it takes the blossom search.  Per graph, over 2,000
# seeded random graphs of each order with p in {0.1, 0.3, 0.5} (2 cores,
# Python 3.11, numpy 2.4), the DP took 2.3, 5.0, 19 and 41 us at n = 9,
# 11, 13 and 14 against 26, 32, 43 and 39 us for the blossom search.
# Orders 10 to 13 reach the scan only from a graph6 file.
_SUBSET_DP_MAX_ORDER = 13


@dataclass(frozen=True)
class TutteBergeWitness:
    """A minimizing set for the deficiency formula.

    ``beta = (n - (odd_components - s)) / 2`` and no other subset gives a
    smaller value; at the optimum ``q = n + s - 2*beta`` equals the odd
    component count.
    """

    witness_set: tuple[int, ...]
    s: int
    odd_components: int
    beta: int
    q: int


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (blossom search)."""
    return (g.n - _match(_neighbor_lists(g.n, g.rows)).count(-1)) // 2


def matching_numbers(n: int, rows_list: Sequence[Sequence[int]]) -> np.ndarray:
    """The matching numbers of graphs of order n given by their bit rows,
    as a sequence or as a ``stack_rows`` array (an exhaustive-scan slice).

    Up to ``_SUBSET_DP_MAX_ORDER`` the whole batch is solved by one
    subset DP: f[S] = max(f[S - v], 1 + f[S - v - u] for u in N(v) and
    S), v the least vertex of S, and beta = f[all vertices].  The sets
    with least vertex v read only sets whose vertices all exceed v, so
    one vertex pair (v, u) updates every set and graph at once through
    views of the (2**n, graphs) uint8 table.  The caller bounds the batch
    (the exhaustive scan's slices keep the table below 2**22 entries).
    Above that order each graph takes the blossom search.
    """
    rows = stack_rows(n, rows_list)
    if n > _SUBSET_DP_MAX_ORDER:
        return np.array([matching_number(Graph._from_valid_rows(n, tuple(r))) for r in rows.tolist()], dtype=int)
    f = np.zeros((1 << n, len(rows)), dtype=np.uint8)
    for v in range(n - 1, -1, -1):
        low = f.reshape(1 << (n - v - 1), 2, 1 << v, -1)
        low[:, 1, 0] = low[:, 0, 0]
        for u in range(v + 1, n):
            # [above u, u in S, between v and u, v in S, below v]; f
            # grows with S, so where u is no neighbour of v the term
            # f[S - v - u] + 0 is at most f[S - v] and changes nothing
            t = f.reshape(1 << (n - u - 1), 2, 1 << (u - v - 1), 2, 1 << v, -1)
            edge = ((rows[:, v] >> u) & 1).astype(np.uint8)
            np.maximum(t[:, 1, :, 1, 0], t[:, 0, :, 0, 0] + edge, out=t[:, 1, :, 1, 0])
    return f[-1].astype(int)


def tutte_berge_witness(g: Graph) -> TutteBergeWitness:
    """The Gallai-Edmonds set A(G) = N(D) minus D, where D holds the vertices
    some maximum matching leaves exposed.  Once the matching is maximum, a
    blossom search from each exposed vertex finds no augmenting path, and D
    is the union of their outer vertices (Lovasz & Plummer, *Matching
    Theory*, 1986, ch. 3)."""
    n = g.n
    adj = _neighbor_lists(n, g.rows)
    state = _search_state(n)
    match = _match(adj, state)
    outer: set[int] = set()
    for root in [v for v in range(n) if match[v] == -1]:
        _augment_from(root, adj, match, state, outer)
    witness = sorted({u for v in outer for u in adj[v]} - outer)
    odd = sum(c.bit_count() % 2 for c in row_component_masks(n, g.rows, sum(1 << v for v in witness)))
    beta = (n - match.count(-1)) // 2
    q = n + len(witness) - 2 * beta
    assert q == odd, "deficiency bookkeeping out of sync"
    return TutteBergeWitness(tuple(witness), len(witness), odd, beta, q)


def _neighbor_lists(n: int, rows: Sequence[int]) -> list[list[int]]:
    """The ascending neighbours of each vertex: the edges of
    ``row_edges``, in row-major order, cut at the cumulative degrees."""
    v, u = row_edges(n, rows)
    cols = u.tolist()
    ends = np.cumsum(np.bincount(v, minlength=n)).tolist()
    return [cols[a:b] for a, b in zip([0] + ends, ends)]


def _search_state(n: int) -> tuple[list[bool], list[int], list[int]]:
    """The ``used``, ``parent`` and ``base`` arrays of an alternating-tree
    search over n vertices, clean: no vertex outer, none with a parent,
    each its own base.  One set serves every search on a graph."""
    return [False] * n, [-1] * n, list(range(n))


def _match(adj: list[list[int]], state: tuple[list[bool], list[int], list[int]] | None = None) -> list[int]:
    """Mate of each vertex (-1 if exposed) in a maximum matching: a greedy
    seed, then one augmenting search from each exposed vertex, all in
    ``state``, made here when a vertex is left exposed and none is given."""
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for root in range(n):
        if match[root] == -1:
            state = state or _search_state(n)
            _augment_from(root, adj, match, state)
    return match


def _augment_from(
    root: int,
    adj: list[list[int]],
    match: list[int],
    state: tuple[list[bool], list[int], list[int]],
    outer: set[int] | None = None,
) -> bool:
    """Grow an alternating tree from the exposed ``root``, contracting
    blossoms.  Augment ``match`` along the first augmenting path and
    return True; when there is none, return False and add the tree's
    outer vertices to ``outer`` if given.

    ``state`` comes from ``_search_state`` and is left clean again: the
    search lists every vertex it writes and resets only those, so a
    search that stays small costs no O(n) set-up.  A contraction likewise
    costs the size of the blossom, not n: ``members`` lists the vertices
    contracted into each base, and they are relabelled in ascending
    order, as a scan of all n vertices would meet them.
    """
    used, parent, base = state
    touched = [root]
    used[root] = True
    queue = deque([root])
    members: dict[int, set[int]] = {}

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: set[int]) -> None:
        while base[v] != b:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    try:
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    cur = lca(v, to)
                    in_blossom: set[int] = set()
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    blossom = sorted(i for b in in_blossom for i in members.pop(b, (b,)))
                    members.setdefault(cur, {cur}).update(blossom)
                    for i in blossom:
                        base[i] = cur
                        touched.append(i)
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        # augment along the alternating path back to the root
                        while to != -1:
                            pv = parent[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    touched.append(match[to])
                    queue.append(match[to])
        if outer is not None:
            outer.update(v for v in touched if used[v])
        return False
    finally:
        for v in touched:
            used[v] = False
            parent[v] = -1
            base[v] = v
