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
that swaps of parent twins (vertices whose transposition is an
automorphism) carry to one another give isomorphic children, so of each
such set only the mask that meets every twin class in its lowest
members is canonicalized: at order 7, 934 children instead of 1,597;
at order 8, 12,992 instead of 18,752.  Class counts are checked against
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
cheap instead of factorial.  A graph with 2m > M takes the complement
of its complement's canonical graph, so the search only runs on graphs
with at most half the edges.

Each census level is one (m, n) uint16 array of row words (bit u of
word [i, v] is the edge uv of class i), its rows ascending as tuples.
The children of all of a level's parents are one such array, unpacked
and canonicalized in slices of a fixed number of matrix entries
(``_canonical_matrices``); the canonical children and the complements
of those with 2m < M, each row XORed with all of its other vertices,
are deduplicated and sorted by one ``np.lexsort``.  ``_canonical_forms``
runs the same search on a stream of bit rows of any order, read in the
same slices.  The refinement, the twin classes and the ordering search
run in numpy on the stacked adjacency matrices of a slice: each
refinement round one ``np.bincount`` of packed neighbor-color counts
and one ``np.lexsort``,
the twin classes one sort of the open and one of the closed rows, and
the search (``_ordering_search``) one iterative, depth-by-depth pass
over all graphs whose ordering is not forced by the refinement and the
twin classes, its frontier cut into pieces of bounded size.
``canonical_graph`` is the batch of one.

``map_chunks`` is the one place a worker pool is started, for building a
level here (from order 8 on, see ``_build_level``) and for the scan
slices of ``verify``; it checks the worker count with ``resolve_jobs``
first.
"""

from __future__ import annotations

import operator
import os
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, bit_matrices, matrix_rows, row_words, stack_rows

KNOWN_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
BUILTIN_ORDER_CAP = 8

# Adjacency-matrix entries canonicalized as one batch: the slice's
# matrices and its int64 refinement keys stay below a few megabytes, and
# the ordering search expands at most this many // n orderings at once.
CANONICAL_BATCH_ENTRIES = 1 << 18

# Each built census level: its classes' row words, uint16 (m, n), ascending
# as tuples.
_LEVELS: dict[int, np.ndarray] = {0: np.zeros((1, 0), dtype=np.uint16)}


def resolve_jobs(jobs: int) -> int:
    """The worker count ``jobs`` for the scans, checked to be an integer
    in [1, os.cpu_count()]; ValueError otherwise."""
    limit = os.cpu_count() or 1
    try:
        jobs = operator.index(jobs)
    except TypeError:
        raise ValueError(f"jobs must be an integer between 1 and {limit} (the CPU count), got {jobs!r}") from None
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


def _runs(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The stable ``np.lexsort`` order of ``keys`` (last key primary) and,
    along it, whether each entry starts a run of equal keys."""
    order = np.lexsort(keys)
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return order, starts


def _starts(key: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted ``key`` starts a run of equal values."""
    starts = np.ones(len(key), dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    return starts


def _refined_colors(mats: np.ndarray) -> np.ndarray:
    """The stable color refinement of each of the (m, n, n) adjacency
    matrices ``mats``, as an (m, n) array of colors ranked 0, 1, ... per
    graph.

    The colors start as the degrees; each round ranks the vertices of a
    graph by (color, sorted tuple of neighbor colors) until no color
    changes.  Vertices of one color have one degree, so among them the
    lexicographic order of the sorted tuples is the reverse order of the
    neighbor-color count vectors read from color 0 up.  Each vector is
    packed into base-n digits, colors 0, 1, ... from the most significant
    place, as many colors a digit as keep it below 2**53, so the float
    sums of ``np.bincount`` are exact; up to order 13 that is one digit.
    Once a graph's colors are stable another round keeps them.
    """
    m, n, _ = mats.shape
    graph, vertex, neighbor = np.nonzero(mats)
    source = graph * n + vertex
    neighbor += graph * n
    per_digit = 1
    while per_digit < n and n ** (per_digit + 1) <= 1 << 53:
        per_digit += 1
    digit_of = np.arange(n) // per_digit
    weight = np.array([float(n ** (per_digit - 1 - p % per_digit)) for p in range(n)])
    graph_key = np.repeat(np.arange(m), n)
    colors = mats.sum(axis=2, dtype=np.int64).ravel()
    while True:
        seen = colors[neighbor]
        keys = [colors, graph_key]
        for d in range(-(-n // per_digit)):
            counts = np.bincount(source, weights=np.where(digit_of[seen] == d, weight[seen], 0.0), minlength=m * n)
            keys.insert(0, -counts.astype(np.int64))
        order, starts = _runs(keys)
        new = np.empty_like(colors)
        new[order] = (np.cumsum(starts.reshape(m, n), axis=1) - 1).ravel()
        if np.array_equal(new, colors):
            return colors.reshape(m, n)
        colors = new


def _twin_classes(mats: np.ndarray) -> np.ndarray:
    """Group the vertices of each of the (m, n, n) adjacency matrices
    ``mats`` whose transposition is an automorphism, as an (m, n) array:
    each vertex's entry is the least vertex of its class.

    u and v are interchangeable iff their rows agree outside {u, v}, that
    is iff their open rows N(u) = N(v) are equal (u, v not adjacent) or
    their closed rows N[u] = N[v] are (adjacent).  The relation is
    transitive, so no vertex has both an open and a closed twin, and the
    least vertex with an equal open or closed row is the class's least
    member.  Rows are grouped by one stable sort per kind.
    """
    m, n, _ = mats.shape
    graph_key = np.repeat(np.arange(m), n)
    vertex = np.tile(np.arange(n), m)
    twin = vertex.copy()
    for rows in (mats, mats | np.eye(n, dtype=np.uint8)):
        order, starts = _runs([*row_words(rows).T, graph_key])
        first = np.maximum.accumulate(np.where(starts, np.arange(len(order)), 0))
        least = np.empty_like(vertex)
        least[order] = vertex[order[first]]
        np.minimum(twin, least, out=twin)
    return twin.reshape(m, n)


def _previous_twins(twin: np.ndarray) -> np.ndarray:
    """Each vertex's previous member of its twin class, for the (m, n)
    classes ``twin`` of ``_twin_classes``, as an (m, n) array; n for a
    class's least member."""
    m, n = twin.shape
    flat = (np.arange(m)[:, None] * n + twin).ravel()
    order = np.argsort(flat, kind="stable")
    tied = flat[order[1:]] == flat[order[:-1]]
    prev = np.full(m * n, n)
    prev[order[1:][tied]] = order[:-1][tied] % n
    return prev.reshape(m, n)


def _ordering_search(mats: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The canonical place of each vertex of each of the (m, n, n)
    adjacency matrices ``mats``, as an (m, n) array, over the orderings
    compatible with their refined ``colors`` (position d holds a vertex of
    the d-th least color), one vertex of each twin class a step.

    The best ordering has the least column bit-string (column d holds the
    d bits of A[v, perm[0..d-1]], the first one most significant), and
    canonical vertex i is the vertex at position i of it; of the orderings
    with the least columns it is the first in vertex order.

    Where every color class is one twin class (or one vertex, as in a
    discrete refinement) the ordering is forced, the colors ascending and
    each class's vertices ascending, and the graph is not searched.  The
    search runs depth by depth on all other graphs at once, with no
    recursion.  An entry is (graph, prefix ordering); at depth d it
    expands to each unused vertex of the d-th color that is the least
    unused member of its twin class, that is whose previous class member
    is used or that has none.  Each graph keeps only its expansions with
    the least new column, so its entries share their columns and stay
    sorted by prefix, in the order a depth-first search meets them.  The
    frontier is cut into contiguous pieces of at most
    ``CANONICAL_BATCH_ENTRIES // n`` expansions (counted by the most
    candidates each entry can have), taken depth-first from a stack, so
    memory stays bounded where ties multiply with depth, as on cycles.
    Each graph's best leaf so far is carried from piece to piece: an
    expansion whose columns exceed the best leaf's is dropped, and a
    strictly smaller leaf replaces it.  Columns are compared as
    big-endian uint64 words, ceil(n / 64) a column, kept once per graph
    of a piece.
    """
    m, n, _ = mats.shape
    words = -(-n // 64)
    top = np.iinfo(np.uint64).max
    vertex = np.arange(n)
    twin = _twin_classes(mats)
    pos_color = np.sort(colors, axis=1)
    wanted = colors[:, None, :] == pos_color[:, :, None]  # [g, d, v]: v has the d-th color
    prev = _previous_twins(twin)  # n, always used, for none
    # bound[g, d]: the candidates an entry can have at depth d, the unused
    # vertices and the twin classes of the d-th color, whichever are fewer
    by_color = (np.arange(m)[:, None] * n + colors).ravel()
    left = np.bincount(by_color, minlength=m * n).reshape(m, n).cumsum(axis=1)
    left = np.take_along_axis(left, pos_color, axis=1) - vertex
    classes = np.bincount(by_color, weights=(twin == vertex).ravel(), minlength=m * n).reshape(m, n)
    bound = np.minimum(left, np.take_along_axis(classes, pos_color, axis=1).astype(np.int64))
    budget = max(1, CANONICAL_BATCH_ENTRIES // n)

    best = np.zeros((m, n, words), dtype=np.uint64)
    best_perm = np.argsort(colors, axis=1, kind="stable")  # the forced orderings
    has_best = np.zeros(m, dtype=bool)
    perm_type = np.min_scalar_type(n)
    stack: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def push(d: int, graph: np.ndarray, perm: np.ndarray, cols: np.ndarray) -> None:
        candidates = bound[graph, d]
        if candidates.sum() <= budget:
            stack.append((d, graph, perm, cols))
            return
        piece = (np.cumsum(candidates) - 1) // budget
        cuts = np.flatnonzero(piece[1:] != piece[:-1]) + 1
        local = np.cumsum(_starts(graph)) - 1
        for lo, hi in reversed(list(zip([0, *cuts.tolist()], [*cuts.tolist(), len(graph)]))):
            stack.append((d, graph[lo:hi], perm[lo:hi], cols[local[lo] : local[hi - 1] + 1]))

    searched = np.flatnonzero((bound > 1).any(axis=1))
    k = len(searched)
    push(0, searched, np.zeros((k, n), dtype=perm_type), np.zeros((k, n, words), dtype=np.uint64))
    while stack:
        d, graph, perm, cols = stack.pop()
        entry = np.arange(len(graph))[:, None]
        used = np.zeros((len(graph), n + 1), dtype=bool)
        used[:, n] = True
        used[entry, perm[:, :d]] = True
        free = wanted[graph, d] & ~used[:, :n] & used[entry, prev[graph]]
        e, v = np.nonzero(free)
        g = graph[e]
        code = np.zeros((len(e), 8 * words), dtype=np.uint8)
        code[:, : (d + 7) // 8] = np.packbits(mats[g[:, None], v[:, None], perm[e, :d]], axis=1)
        code = code.view(">u8").astype(np.uint64)
        head = _starts(g)
        group = np.cumsum(head) - 1
        head = np.flatnonzero(head)
        keep = np.ones(len(e), dtype=bool)
        cols = cols.copy()
        for w in range(-(-d // 64)):  # the words a d-bit column can fill
            cols[:, d, w] = np.minimum.reduceat(np.where(keep, code[:, w], top), head)
            keep &= code[:, w] == cols[group, d, w]
        ids = g[head]
        # each graph's columns against its best leaf's, where it has one
        alive = below = ~has_best[ids]
        if not below.all():
            alive = below.copy()
            has = np.flatnonzero(~below)
            mine = cols[has, : d + 1].reshape(len(has), -1)
            theirs = best[ids[has], : d + 1].reshape(len(has), -1)
            at = np.arange(len(has)), (mine != theirs).argmax(axis=1)
            below[has] = mine[at] < theirs[at]
            alive[has] = mine[at] <= theirs[at]
        keep &= alive[group]
        if not keep.any():
            continue
        e, v, g = e[keep], v[keep], g[keep]
        perm = perm[e]
        perm[:, d] = v
        if d + 1 < n:
            push(d + 1, g, perm, cols[alive])
            continue
        # leaves: a graph's first leaf below its best leaf replaces it
        first = _starts(g) & below[group[keep]]
        ids = g[first]
        best[ids] = cols[below]
        best_perm[ids] = perm[first]
        has_best[ids] = True

    place = np.empty_like(best_perm)
    place[np.arange(m)[:, None], best_perm] = vertex
    return place


def _canonical_matrices(mats: np.ndarray) -> np.ndarray:
    """The canonical graphs of the (m, n, n) 0/1 matrices ``mats`` (n >= 2),
    as stacked matrices; ``mats`` is reused.

    A graph with 2m > M is complemented first: complementing keeps
    isomorphism, so it takes the complement of its complement's canonical
    graph.  The color refinement and the ordering search
    (``_ordering_search``) run on the whole stack at once, and the
    relabeling is one gather over it.
    """
    m, n, _ = mats.shape
    off_diagonal = 1 - np.eye(n, dtype=np.uint8)
    flipped = mats.sum(axis=(1, 2)) > n * (n - 1) // 2
    mats[flipped] ^= off_diagonal
    at = np.argsort(_ordering_search(mats, _refined_colors(mats)), axis=1)
    canon = mats[np.arange(m)[:, None, None], at[:, :, None], at[:, None, :]]
    canon[flipped] ^= off_diagonal
    return canon


def _batch_size(n: int) -> int:
    """Graphs of order n canonicalized as one stack: ``CANONICAL_BATCH_ENTRIES``
    matrix entries, at least one graph."""
    return max(1, CANONICAL_BATCH_ENTRIES // (n * n))


def _canonical_forms(n: int, rows_iter: Iterable[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Bit rows of the canonical graph of each of the graphs of order n
    whose bit rows ``rows_iter`` yields, in order.

    The graphs are read and answered ``_batch_size(n)`` at a time, one
    ``_canonical_matrices`` stack each, so neither the inputs nor the
    forms of a long stream are held at once.
    """
    if n <= 1:
        yield from (tuple(rows) for rows in rows_iter)
        return
    rows_iter = iter(rows_iter)
    while chunk := list(islice(rows_iter, _batch_size(n))):
        yield from matrix_rows(_canonical_matrices(bit_matrices(n, chunk)))


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g: equal for isomorphic graphs
    only, so it serves as the class key and as the certificate."""
    return Graph._from_valid_rows(g.n, next(_canonical_forms(g.n, [g.rows])))


def _half_edges(n: int) -> int:
    """floor(M/2), M = n(n-1)/2: the most edges of a lower-half graph of order n."""
    return n * (n - 1) // 4


def _edge_counts(level: np.ndarray) -> np.ndarray:
    """The edge count of each graph of a level's (m, n) row words."""
    return bit_matrices(level.shape[1], level).sum(axis=(1, 2), dtype=np.int64) // 2


def _sorted_unique(words: np.ndarray) -> np.ndarray:
    """The distinct rows of the (m, n) row words ``words``, ascending as
    tuples (row 0 first): one ``np.lexsort`` (``np.unique`` would import
    numpy.ma)."""
    order, starts = _runs(list(words.T[::-1]))
    return words[order[starts]]


def _extend_level(parents: np.ndarray, n: int) -> np.ndarray:
    """The row words of the canonical graphs of the children of the
    lower-half order-(n-1) ``parents`` (row words), one per child, with
    repeats.

    A child (parent plus a new vertex with neighborhood ``mask``) is
    canonicalized only when the new vertex has maximum degree: no
    parent vertex reaches more than ``popcount(mask)`` in the child.
    Swapping two twins of the parent is an automorphism, and the test
    above depends only on the mask's size and whether it meets the
    parent's top-degree set, both kept by it; so of the masks that twin
    swaps carry to one another only the one that meets each twin class
    in its lowest members is tried.  The children of all parents are one
    array, unpacked and canonicalized ``_batch_size(n)`` at a time.
    """
    children = _children(parents, n)
    if n <= 1:
        return children
    forms = np.empty_like(children)
    step = _batch_size(n)
    for first in range(0, len(children), step):
        canon = _canonical_matrices(bit_matrices(n, children[first : first + step]))
        forms[first : first + step] = row_words(canon)[:, 0].reshape(-1, n)
    return forms


def _children(parents: np.ndarray, n: int) -> np.ndarray:
    """The row words of the children ``_extend_level`` canonicalizes, as one
    (c, n) uint16 array, the parents in order and each parent's masks
    ascending.

    The masks of all parents are tested at once, on the parents' stacked
    matrices: a mask passes when its size is at least the parent's top
    degree (more, if it meets a top-degree vertex), the child stays in
    the lower half, and each vertex it holds has its previous twin-class
    member in it too.
    """
    new_bit = 1 << (n - 1)
    parents = stack_rows(n - 1, parents)
    mats = bit_matrices(n - 1, parents)
    degrees = mats.sum(axis=2, dtype=np.int64)
    top = degrees.max(axis=1, initial=0)[:, None]
    room = _half_edges(n) - degrees.sum(axis=1)[:, None] // 2
    # held[v, mask]: mask | new_bit holds v; held[n - 1], the new vertex,
    # is all true, and is the previous member of each class's least one
    held = (np.arange(new_bit, 2 * new_bit) >> np.arange(n)[:, None] & 1).astype(bool)
    k = held.sum(axis=0) - 1
    above = k > top
    tried = (k >= top) & (k <= room)
    prev = _previous_twins(_twin_classes(mats))
    for v in range(n - 1):
        # a held v needs its previous twin held, and a degree below the
        # top unless the mask is larger than the top
        tried &= ~held[v] | held[prev[:, v]] & (above | (degrees[:, v, None] < top))
    parent, mask = np.nonzero(tried)
    children = np.empty((len(mask), n), dtype=np.uint16)
    children[:, : n - 1] = parents[parent] | held[: n - 1, mask].T.astype(np.uint16) << (n - 1)
    children[:, n - 1] = mask
    return children


def _build_level(n: int, jobs: int = 1) -> None:
    """Build the census levels up to order n, sharding a level's parents
    among ``jobs`` workers only when their children, every mask as an
    n x n matrix, exceed one canonical batch (from order 8 on).  The
    canonical children and their complements are deduplicated and sorted
    in one pass."""
    if n in _LEVELS:
        return
    if n - 1 not in _LEVELS:
        _build_level(n - 1, jobs)
    level = _LEVELS[n - 1]
    parents = level[_edge_counts(level) <= _half_edges(n - 1)]
    shard = len(parents) * n * n << (n - 1) > CANONICAL_BATCH_ENTRIES
    chunks = [parents[i::jobs] for i in range(jobs)] if shard else [parents]
    lower = np.concatenate(map_chunks(_extend_level, chunks, jobs, n))
    # a lower-half class with 2m < M has its complement in the upper half:
    # each row XORed with all of its other vertices
    others = np.uint16((1 << n) - 1) ^ (np.uint16(1) << np.arange(n, dtype=np.uint16))
    upper = lower[2 * _edge_counts(lower) < n * (n - 1) // 2] ^ others
    reps = _sorted_unique(np.concatenate([lower, upper]))
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
    level = _LEVELS[n]
    # the level's columns zipped into row tuples, with no list per class;
    # they are relabeled or complemented rows of valid graphs
    rows = zip(*level.T.tolist()) if n else [()] * len(level)
    return [Graph._from_valid_rows(n, r) for r in rows]
