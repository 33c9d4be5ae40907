"""Maximum matching and the Tutte-Berge deficiency witness.

``matching_number`` runs augmenting-path search with blossom contraction
and works on any graph; the exhaustive edge-subset oracle it is
cross-checked against lives in ``tests/reference.py``.
``tutte_berge_witness`` scans every vertex subset S and returns the
minimizer of n - (o(G-S) - |S|), which both certifies the matching
number and supplies the parameters s and q used by the extremal-family
machinery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, row_component_masks

WITNESS_ORDER_CAP = 24


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
    n = g.n
    adj = [list(g.neighbors(v)) for v in range(n)]
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
    return sorted((v, match[v]) for v in range(n) if match[v] > v)


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (blossom search)."""
    return len(maximum_matching(g))


def _augment_from(root: int, adj: list[list[int]], match: list[int], n: int) -> bool:
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
    return False


def tutte_berge_witness(g: Graph) -> TutteBergeWitness:
    """Scan all 2^n subsets S for the deficiency minimizer.

    Ties are broken by smallest |S|, then lexicographically smallest
    vertex list, so reports are deterministic.  Hard cap of
    WITNESS_ORDER_CAP vertices: the scan is exhaustive by design.
    """
    n = g.n
    if n > WITNESS_ORDER_CAP:
        raise ValueError(f"witness scan supports at most {WITNESS_ORDER_CAP} vertices, got {n}")
    best_key = None
    best = None
    for mask in range(1 << n):
        s = mask.bit_count()
        odd = sum(1 for comp in row_component_masks(n, g.rows, mask) if comp.bit_count() % 2)
        value = n - (odd - s)
        vertices = tuple(v for v in range(n) if (mask >> v) & 1)
        key = (value, s, vertices)
        if best_key is None or key < best_key:
            best_key = key
            best = (vertices, s, odd, value)
    vertices, s, odd, value = best
    beta = value // 2
    q = n + s - 2 * beta
    assert q == odd, "deficiency bookkeeping out of sync"
    return TutteBergeWitness(vertices, s, odd, beta, q)
