"""Maximum matching and the Tutte-Berge deficiency witness.

``matching_number`` runs augmenting-path search with blossom contraction
and works on any graph.  ``tutte_berge_witness`` reads the Gallai-Edmonds
set A(G), a minimizer of n - (o(G-S) - |S|), from the same search: it
certifies the matching number and supplies the parameters s and q of the
extremal families.  The exhaustive oracles both are checked against live
in ``tests/reference.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress

from .graphs import Graph, _bits, row_component_masks


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


def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """A maximum matching as a sorted edge list.

    Deterministic: the greedy seed and every augmentation scan vertices
    in ascending order, so the returned edge set (not just its size) is
    reproducible.
    """
    match = _match([list(_bits(r)) for r in g.rows])
    return sorted((v, match[v]) for v in range(g.n) if match[v] > v)


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (blossom search)."""
    return len(maximum_matching(g))


def tutte_berge_witness(g: Graph) -> TutteBergeWitness:
    """The Gallai-Edmonds set A(G) = N(D) minus D, where D holds the vertices
    some maximum matching leaves exposed.  Once the matching is maximum, a
    blossom search from each exposed vertex finds no augmenting path, and D
    is the union of their outer vertices (Lovasz & Plummer, *Matching
    Theory*, 1986, ch. 3)."""
    n = g.n
    adj = [list(_bits(r)) for r in g.rows]
    match = _match(adj)
    outer: set[int] = set()
    for root in [v for v in range(n) if match[v] == -1]:
        outer.update(compress(range(n), _augment_from(root, adj, match, n)))
    witness = sorted({u for v in outer for u in adj[v]} - outer)
    odd = sum(c.bit_count() % 2 for c in row_component_masks(n, g.rows, sum(1 << v for v in witness)))
    beta = (n - match.count(-1)) // 2
    q = n + len(witness) - 2 * beta
    assert q == odd, "deficiency bookkeeping out of sync"
    return TutteBergeWitness(tuple(witness), len(witness), odd, beta, q)


def _match(adj: list[list[int]]) -> list[int]:
    """Mate of each vertex (-1 if exposed) in a maximum matching: a greedy
    seed, then one augmenting search from each exposed vertex."""
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
            _augment_from(root, adj, match, n)
    return match


def _augment_from(root: int, adj: list[list[int]], match: list[int], n: int) -> bool | list[bool]:
    """Grow an alternating tree from the exposed ``root``, contracting
    blossoms.  Augment ``match`` along the first augmenting path and
    return True; when there is none, return the ``used`` flags, which
    then mark the tree's outer vertices."""
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom to its base
                cur = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
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
                queue.append(match[to])
    return used


