"""Isomorphism-class enumeration for small graphs.

Classes are produced by vertex augmentation and deduplicated by an exact
canonical form.  Only the lower half is generated, graphs with at most
floor(M/2) edges (M = n(n-1)/2); the upper half is the complements of
the lower classes with 2m < M.  A child (a lower-half parent of order
n-1 plus a new vertex with neighborhood ``mask``) is canonicalized only
when the new vertex has maximum degree in it.  Every lower-half graph G
arises so: deleting a vertex of maximum degree Δ leaves m - Δ <=
m(n-2)/n edges, a lower-half graph of order n-1 isomorphic to some
parent, and that vertex's neighborhood is one of the masks tried.  Masks
in one orbit of the parent's automorphism group give isomorphic
children, so only the first mask of each orbit is canonicalized (McKay,
*J. Algorithms* 26, 1998): at order 7, 687 children instead of 1,597;
at order 8, 10,296 instead of 18,752.  Class counts are checked against
the known census (1, 2, 4, 11, 34, 156, 1044, 12346 for n = 1..8) every
time a level is built, so a canonicalization or generation bug cannot
pass silently.

The canonical graph relabels the input by the vertex ordering with the
minimum adjacency bit-string, column by column, among the orderings
compatible with the stable color refinement (degree, then sorted neighbor
colors, iterated to a fixed point).  The search prunes on bit-string
prefixes and explores one representative per interchangeable-twin class;
refinement classes are canonically ordered, so the restriction keeps the
form exact while making unions of cliques and other symmetric graphs
cheap instead of factorial.  The same search yields generators of the
automorphism group: the leaves that tie with the best ordering and the
twin transpositions.  A graph with 2m > M takes the complement of its
complement's canonical graph, so the search only runs on graphs with at
most half the edges.

``map_chunks`` is the one place a worker pool is started, for building a
level here and for the scan slices of ``verify``; it checks the worker
count with ``resolve_jobs`` first.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from .graphs import Graph, _complement_rows

KNOWN_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
BUILTIN_ORDER_CAP = 8

_LEVELS: dict[int, list[tuple[int, ...]]] = {0: [()]}


def resolve_jobs(jobs: int) -> int:
    """The worker count ``jobs`` for the scans, checked to lie in
    [1, os.cpu_count()]; ValueError otherwise."""
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise ValueError(f"jobs must be between 1 and {limit} (the CPU count), got {jobs}")
    return jobs


def map_chunks(func: Callable, chunks: Sequence, jobs: int, *args) -> list:
    """``func(chunk, *args)`` for each of ``chunks``, in chunk order.

    With ``jobs`` > 1 and more than one chunk they run in a pool of at
    most ``jobs`` worker processes, otherwise here in turn.  The count is
    checked by ``resolve_jobs`` before any pool is asked for.
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(chunks) < 2:
        return [func(chunk, *args) for chunk in chunks]
    from multiprocessing import Pool

    with Pool(min(jobs, len(chunks))) as pool:
        return pool.starmap(func, [(chunk, *args) for chunk in chunks])


def _wl_colors(n: int, rows: tuple[int, ...]) -> list[int]:
    """Stable, label-independent vertex colors (iterated refinement),
    ranked 0, 1, ... in sorted order."""
    colors = [rows[v].bit_count() for v in range(n)]
    while True:
        sigs = []
        for v in range(n):
            neigh = []
            m = rows[v]
            while m:
                neigh.append(colors[(m & -m).bit_length() - 1])
                m &= m - 1
            neigh.sort()
            sigs.append((colors[v], tuple(neigh)))
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _twin_ids(n: int, rows: tuple[int, ...]) -> list[int]:
    """Group vertices whose transposition is an automorphism.

    u and v are interchangeable iff their rows agree outside {u, v};
    the relation is transitive, so a first-representative sweep groups
    correctly.
    """
    ids = list(range(n))
    for u in range(n):
        if ids[u] != u:
            continue
        for v in range(u + 1, n):
            if ids[v] != v:
                continue
            drop = ~((1 << u) | (1 << v))
            if rows[u] & drop == rows[v] & drop:
                ids[v] = u
    return ids


def _canonical_search(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Bit rows of the canonical graph and automorphism generators of it.

    The best ordering has the least column bit-string (entry d holds the
    d bits of column d), and canonical vertex i is the vertex at position
    i of it.  Each other leaf with the best columns gives the automorphism
    best -> leaf, and each twin pair its transposition; every automorphism
    maps the best ordering to a leaf with the best columns, and twin swaps
    sort that leaf into one the search visits, so the generators generate
    the whole group.  A generator is a tuple of images: vertex i maps to
    g[i].  A graph with 2m > M takes the complement of its complement's
    canonical graph and its generators: complementing keeps isomorphism
    and automorphisms.
    """
    if n <= 1:
        return tuple(rows), []
    if sum(r.bit_count() for r in rows) > n * (n - 1) // 2:
        canon, gens = _canonical_search(n, _complement_rows(n, rows))
        return _complement_rows(n, canon), gens
    colors = _wl_colors(n, rows)
    if len(set(colors)) == n:
        # discrete refinement: the ordering is forced, vertex v to place
        # colors[v], and only the identity preserves the colors
        return _relabel(rows, colors), []
    pos_color = sorted(colors)
    twin = _twin_ids(n, rows)
    best: list[int] | None = None
    best_perm: list[int] = []
    leaves: list[list[int]] = []
    perm = [0] * n
    used = [False] * n
    cols = [0] * n

    def dfs(d: int) -> None:
        nonlocal best, best_perm, leaves
        if d == n:
            if best is None or cols < best:
                best, best_perm, leaves = cols[:], perm[:], []
            elif cols == best:
                leaves.append(perm[:])
            return
        want = pos_color[d]
        seen = set()
        cands = []
        for v in range(n):
            if used[v] or colors[v] != want:
                continue
            if twin[v] in seen:
                continue
            seen.add(twin[v])
            rv = rows[v]
            c = 0
            for i in range(d):
                c = (c << 1) | ((rv >> perm[i]) & 1)
            cands.append((c, v))
        cands.sort()
        for c, v in cands:
            cols[d] = c
            if best is not None and cols[: d + 1] > best[: d + 1]:
                break  # candidates are sorted; the rest only grow
            perm[d] = v
            used[v] = True
            dfs(d + 1)
            used[v] = False
        cols[d] = 0

    dfs(0)
    place = [0] * n
    for i, v in enumerate(best_perm):
        place[v] = i
    gens = [tuple(place[v] for v in leaf) for leaf in leaves]
    for v in range(n):
        if twin[v] != v:
            swap = list(range(n))
            a, b = place[v], place[twin[v]]
            swap[a], swap[b] = b, a
            gens.append(tuple(swap))
    return _relabel(rows, place), gens


def _relabel(rows: tuple[int, ...], place: list[int]) -> tuple[int, ...]:
    """The bit rows of the graph ``rows`` with vertex v renamed ``place[v]``."""
    out = [0] * len(rows)
    for v, m in enumerate(rows):
        r = 0
        while m:
            low = m & -m
            r |= 1 << place[low.bit_length() - 1]
            m ^= low
        out[place[v]] = r
    return tuple(out)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g: equal for isomorphic graphs
    only, so it serves as the class key and as the certificate."""
    return Graph._from_valid_rows(g.n, _canonical_search(g.n, g.rows)[0])


def _half_edges(n: int) -> int:
    """floor(M/2), M = n(n-1)/2: the most edges of a lower-half graph of order n."""
    return n * (n - 1) // 4


def _extend_level(parents: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """Rows of the order-n canonical graphs with at most ``_half_edges(n)``
    edges, from the lower-half order-(n-1) ``parents``, canonical each.

    A child (parent plus a new vertex with neighborhood ``mask``) is
    canonicalized only when the new vertex has maximum degree: no
    parent vertex reaches more than ``popcount(mask)`` in the child.
    Masks in one orbit of the parent's automorphism group give
    isomorphic children, and the test above depends only on the mask's
    size and whether it meets the parent's top-degree set, both kept by
    an automorphism; so the masks are walked in ascending order and only
    the first of each orbit is tried.  The parent's generators come from
    its own canonical search, in its own labeling since it is canonical.
    """
    out: set[tuple[int, ...]] = set()
    new_bit = 1 << (n - 1)
    limit = _half_edges(n)
    for prows in parents:
        degrees = [r.bit_count() for r in prows]
        top = max(degrees, default=0)
        at_top = sum(1 << v for v, d in enumerate(degrees) if d == top)
        room = limit - sum(degrees) // 2
        images = [_mask_images(g) for g in _canonical_search(n - 1, prows)[1]]
        tried = bytearray(1 << (n - 1))
        for mask in range(1 << (n - 1)):
            k = mask.bit_count()
            if tried[mask] or k < top or k > room or (k == top and mask & at_top):
                continue
            tried[mask] = 1
            orbit = [mask]
            for m in orbit:
                for image in images:
                    t = image[m]
                    if not tried[t]:
                        tried[t] = 1
                        orbit.append(t)
            rows = list(prows)
            rows.append(mask)
            m = mask
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                rows[v] |= new_bit
            out.add(_canonical_search(n, tuple(rows))[0])
    return out


def _mask_images(g: tuple[int, ...]) -> list[int]:
    """The image under the vertex permutation ``g`` of every vertex
    subset of its order, indexed by the subset's bitmask."""
    images = [0] * (1 << len(g))
    for mask in range(1, len(images)):
        low = mask & -mask
        images[mask] = images[mask ^ low] | (1 << g[low.bit_length() - 1])
    return images


def _build_level(n: int, jobs: int = 1) -> None:
    if n in _LEVELS:
        return
    if n - 1 not in _LEVELS:
        _build_level(n - 1, jobs)
    parent_limit = _half_edges(n - 1)
    parents = [rows for rows in _LEVELS[n - 1] if sum(r.bit_count() for r in rows) // 2 <= parent_limit]
    chunks = [parents[i::jobs] for i in range(jobs)] if len(parents) >= 4 * jobs else [parents]
    lower = set().union(*map_chunks(_extend_level, chunks, jobs, n))
    # a lower-half class with 2m < M (2m row bits) has its complement in the upper half
    pairs = n * (n - 1) // 2
    reps = sorted(lower.union(_complement_rows(n, rows) for rows in lower if sum(r.bit_count() for r in rows) < pairs))
    if n in KNOWN_CLASS_COUNTS and len(reps) != KNOWN_CLASS_COUNTS[n]:
        raise RuntimeError(
            f"enumeration produced {len(reps)} classes of order {n}, "
            f"expected {KNOWN_CLASS_COUNTS[n]}"
        )
    _LEVELS[n] = reps


def isomorphism_classes(n: int, jobs: int = 1) -> list[Graph]:
    """One representative per isomorphism class of order n (n <= 8).

    ``jobs`` is checked by ``resolve_jobs`` even when the order is
    already built.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > BUILTIN_ORDER_CAP:
        raise ValueError(
            f"built-in enumeration stops at n = {BUILTIN_ORDER_CAP}; "
            "supply a graph6 file for larger orders"
        )
    _build_level(n, jobs=resolve_jobs(jobs))
    # the cached rows are relabeled or complemented rows of valid graphs
    return [Graph._from_valid_rows(n, rows) for rows in _LEVELS[n]]
