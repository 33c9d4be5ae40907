"""Reference implementations the tests check alphaspec against.

None of these is on a path the CLI or a verdict takes.  The graph
queries (``has_edge``, ``neighbors``, ``degree_sequence``), the small
graph constructors (path, cycle, star, disjoint union), the isomorphism
test, the edge list of a maximum matching and the shift-monotonicity
check build test inputs and read results.  ``augment_from_full_scan`` is
the blossom search with the O(n) contraction it had before, against
which the matchings are compared.  The oracles
re-derive a value by a slower, independent route (a whole-matrix
``eigvalsh``, one ``eigh`` per component, the component blocks of a
batch by one bit walk per graph, the family search's candidate table
by one slice copy per piece, an exhaustive edge-subset
search, the family search with every candidate's radius solved
(``full_solve_search``), the secular function at one point in exact
rational arithmetic, an exhaustive vertex-subset deficiency scan, every neighbourhood
of a census parent, every ordering within the color classes for the
canonical graph, the refinement colors of one graph by sorted tuples,
its twin classes by a pairwise sweep and its ordering search by the
recursive one-graph search ``ordering_search``, the complete split
graph's radius in closed form); the formulas are the paper's own forms of the family
radius, evaluated as written, which the tests tie to
``spectral._secular_terms``, the one builder of the secular function
h(lam) = lam - c - sum_p w_p / (lam - d_p).

pytest collects only ``test_*.py``, so this module holds no tests.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import permutations, product
from math import inf, isqrt, sqrt

import numpy as np

from alphaspec import (
    JoinFamily,
    TutteBergeWitness,
    as_fraction,
    case2_applicable,
    classify_regime,
    family_radius,
    one_clique_family,
)
from alphaspec.enumeration import _canonical_forms, _half_edges, canonical_graph
from alphaspec.graphs import Graph, _bits, complete_graph, empty_graph, from_edges, join, row_component_masks
from alphaspec.matching import _match
from alphaspec.spectral import SpectralResult, alpha_matrices
from alphaspec.verify import FamilySearchResult, _candidate_batches, _core_counts

ORACLE_ORDER_CAP = 64
ORACLE_EDGE_CAP = 24
WITNESS_ORDER_CAP = 24


def has_edge(g, u: int, v: int) -> bool:
    return bool((g.rows[u] >> v) & 1)


def neighbors(g, v: int) -> list[int]:
    """The neighbours of v, ascending."""
    return _bits(g.rows[v])


def degree_sequence(g) -> tuple[int, ...]:
    """Degrees sorted descending (the usual comparison form)."""
    return tuple(sorted(g.degrees(), reverse=True))


def disjoint_union(g1, g2):
    """Vertices of ``g2`` are relabeled by offset ``g1.n``; no cross edges."""
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return Graph._from_valid_rows(g1.n + g2.n, tuple(rows))


def cycle_graph(n: int):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int):
    """Star with a center (vertex 0) and ``leaves`` pendant vertices."""
    return join(complete_graph(1), empty_graph(leaves))


def are_isomorphic(g1, g2) -> bool:
    return canonical_graph(g1) == canonical_graph(g2)


def maximum_matching(g) -> list[tuple[int, int]]:
    """The blossom search's maximum matching as a sorted edge list.

    Deterministic: the greedy seed and every augmentation scan vertices
    in ascending order, so the returned edge set (not just its size) is
    reproducible.
    """
    match = _match([_bits(r) for r in g.rows])
    return sorted((v, match[v]) for v in range(g.n) if match[v] > v)


def augment_from_full_scan(root, adj, match, state, outer=None) -> bool:
    """``matching._augment_from`` as it was with an O(n) blossom
    contraction: the common base is found with an n-length ``seen`` list,
    and each contraction marks the blossom's bases in an n-length list and
    scans every vertex in ascending order for those to relabel.  Patched
    in for ``_augment_from``, it gives the matchings to compare with."""
    used, parent, base = state
    n = len(adj)
    touched = [root]
    used[root] = True
    queue = deque([root])

    def lca(a, b):
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

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
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
                    cur = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            touched.append(i)
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
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


def shifted(family):
    """``family`` with two vertices moved from the second-largest part to
    the largest."""
    if family.q < 2:
        raise ValueError("need at least two parts to shift")
    parts = list(family.parts)
    if parts[-2] < 3:
        raise ValueError("second-largest part must have at least 3 vertices")
    parts[-2] -= 2
    parts[-1] += 2
    return JoinFamily.of_parts(family.s, sorted(parts))


def shift_monotonicity_check(family, alpha) -> bool:
    """True iff moving two vertices from the second-largest part to the
    largest strictly raises the radius (evaluated on both quotients);
    ``shifted`` rejects a family that has no such move."""
    af = float(as_fraction(alpha))
    return family_radius(shifted(family), af) > family_radius(family, af)


def spectral_radius_oracle(g, alpha: float) -> float:
    """Radius of the whole matrix by ``eigvalsh``, without the component
    split, the Perron vector or the residual check."""
    alpha = float(as_fraction(alpha))
    if g.n > ORACLE_ORDER_CAP:
        raise ValueError(f"oracle supports at most {ORACLE_ORDER_CAP} vertices, got {g.n}")
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(alpha_matrices(g.n, [g.rows], alpha)[0])[-1])


def eigh_spectral_radius(g, alpha: float, tol: float = 1e-10) -> SpectralResult:
    """``spectral_radius`` by one ``eigh`` per component block, which builds
    every eigenvector to keep the top one: the first component attaining
    the maximum, its top eigenvector scaled to sup-norm 1 and the
    residual of that pair (above ``tol`` it raises ValueError)."""
    if g.n == 0:
        return SpectralResult(0.0, None, (), 0.0)
    mat = alpha_matrices(g.n, [g.rows], alpha)[0]
    best = None
    for mask in row_component_masks(g.n, g.rows):
        verts = tuple(_bits(mask))
        if len(verts) == 1:
            cand = SpectralResult(0.0, (1.0,) if alpha > 0 else None, verts, 0.0)
        else:
            block = mat[np.ix_(verts, verts)]
            values, vectors = np.linalg.eigh(block)
            lam = float(values[-1])
            x = vectors[:, -1]
            x = x / x[np.argmax(np.abs(x))]
            res = float(np.max(np.abs(block @ x - lam * x)))
            if res > tol:
                raise ValueError(f"eigenpair residual {res:.3e} exceeds tolerance {tol:g}")
            cand = SpectralResult(lam, tuple(x.tolist()), verts, res)
        if best is None or cand.rho > best.rho:
            best = cand
    return best


def component_groups_walk(n: int, rows_list) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The component blocks of two or more vertices of graphs of order n
    given by their bit rows, by size k: (owner, verts) arrays, block i of
    graph ``owner[i]`` covering its vertices ``verts[i]``, ascending, in
    walk order (graph by graph, each graph's components by smallest
    member), from one bit walk per graph (``row_component_masks``)."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i, rows in enumerate(rows_list):
        for mask in row_component_masks(n, rows):
            if mask.bit_count() > 1:
                owner, verts = groups.setdefault(mask.bit_count(), ([], []))
                owner.append(i)
                verts.extend(_bits(mask))
    return {k: (np.array(owner), np.array(verts).reshape(-1, k)) for k, (owner, verts) in groups.items()}


def extend_level_all_masks(parents, n: int) -> set:
    """``enumeration._extend_level`` without the twin-class pruning: every
    neighbourhood ``mask`` of a new vertex of maximum degree is tried on
    every lower-half parent, and the rows of the canonical graphs, taken
    as one batch, are collected."""
    limit = _half_edges(n)

    def children():
        for prows in parents:
            degrees = [r.bit_count() for r in prows]
            top = max(degrees, default=0)
            at_top = sum(1 << v for v, d in enumerate(degrees) if d == top)
            room = limit - sum(degrees) // 2
            for mask in range(1 << (n - 1)):
                k = mask.bit_count()
                if k < top or k > room or (k == top and mask & at_top):
                    continue
                rows = [r | (((mask >> v) & 1) << (n - 1)) for v, r in enumerate(prows)]
                yield tuple(rows + [mask])

    return set(_canonical_forms(n, children()))


def wl_colors(n: int, rows: tuple[int, ...]) -> list[int]:
    """Stable, label-independent vertex colors (iterated refinement),
    ranked 0, 1, ... in sorted order: ``enumeration._refined_colors`` of
    one graph, by sorting each vertex's (color, sorted neighbor colors)."""
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


def twin_ids(n: int, rows: tuple[int, ...]) -> list[int]:
    """Group vertices whose transposition is an automorphism:
    ``enumeration._twin_classes`` of one graph, by a pairwise sweep.

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


def ordering_search(n: int, rows: tuple[int, ...], colors: list[int], twin: list[int]) -> list[int]:
    """The canonical place of each vertex of one graph, by the recursive
    prefix-pruned search over the orderings compatible with the refined
    ``colors``, one vertex of each ``twin`` class a step:
    ``enumeration._ordering_search`` of one graph, one ordering at a
    time.

    The best ordering has the least column bit-string (entry d holds the
    d bits of column d), and canonical vertex i is the vertex at position
    i of it; of the orderings with the least columns it is the first the
    search visits.
    """
    pos_color = sorted(colors)
    best: list[int] | None = None
    best_perm: list[int] = []
    perm = [0] * n
    used = [False] * n
    cols = [0] * n

    def dfs(d: int) -> None:
        nonlocal best, best_perm
        if d == n:
            if best is None or cols < best:
                best, best_perm = cols[:], perm[:]
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
    return place


def canonical_rows_oracle(g) -> tuple[int, ...]:
    """The rows of the canonical graph of ``g`` by the certificate's
    definition, without the search's pruning or twin classes.

    Every ordering that lists the vertices by ascending ``wl_colors``
    color, with every permutation within each color class, is compared by
    its columns (column d holds the adjacencies of its vertex d to
    vertices 0..d-1), and the least one is returned as the rows of that
    ordering.  A graph with 2m > M returns the complement of its
    complement's value.
    """
    n = g.n
    if 2 * g.num_edges > n * (n - 1) // 2:
        co = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if not has_edge(g, u, v)])
        rows = canonical_rows_oracle(co)
        return tuple(((1 << n) - 1) & ~r & ~(1 << v) for v, r in enumerate(rows))
    colors = wl_colors(n, g.rows)
    classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in product(*(permutations(c) for c in classes)):
        order = [v for part in parts for v in part]
        cols = tuple(tuple(has_edge(g, order[d], order[i]) for i in range(d)) for d in range(n))
        if best is None or cols < best[0]:
            best = (cols, order)
    order = best[1]
    return from_edges(n, [(i, j) for i in range(n) for j in range(i) if has_edge(g, order[i], order[j])]).rows


def matching_number_oracle(g) -> int:
    """Exact matching number by exhausting independent edge subsets.

    Complete search, no heuristics; enforced cap of ORACLE_EDGE_CAP edges.
    """
    edges = list(g.edges())
    m = len(edges)
    if m > ORACLE_EDGE_CAP:
        raise ValueError(f"oracle supports at most {ORACLE_EDGE_CAP} edges, got {m}")
    best = 0

    def extend(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == m or size + (m - i) <= best:
            return
        u, v = edges[i]
        pair = (1 << u) | (1 << v)
        if not used & pair:
            extend(i + 1, used | pair, size + 1)
        extend(i + 1, used, size)

    extend(0, 0, 0)
    return best


def tutte_berge_witness_oracle(g) -> TutteBergeWitness:
    """Scan all 2^n subsets S for the deficiency minimizer.

    Ties are broken by smallest |S|, then lexicographically smallest
    vertex list, so the result is deterministic.  Hard cap of
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


def candidate_table_by_pieces(n: int, beta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidate table of the family search for (n, beta) as uint8
    (half, count, core, parts) arrays, built one (t, v) piece at a time
    by slice copies: row i has core size ``core[i]`` and ``parts[i]``
    parts of size 3 or more, ``count[i, j]`` of size 2 * ``half[i, j]``
    + 1, right-aligned with halves ascending in W columns (half 0, count
    0 where empty).

    Block s holds the partitions of t = beta - s in decreasing
    lexicographic order; those with largest half v are v prepended to a
    suffix of block s + v, whose rows with largest half v take one more
    part in their last cell while every later row shifts one column left
    and ends with (v, 1).  Where q = n + s - 2*beta <= t the source rows
    with q parts or more are dropped.
    """
    counts = list(_core_counts(n, beta))[::-1]
    start = np.concatenate(([0], np.cumsum(counts))).tolist()
    width = (isqrt(8 * beta + 1) - 1) // 2
    half = np.zeros((start[-1], width), dtype=np.uint8)
    count = np.zeros((start[-1], width), dtype=np.uint8)
    parts = np.zeros(start[-1], dtype=np.uint8)
    # tails[t][v]: the first row of block beta - t whose largest half is
    # at most v, relative to the block (v = 0: the block's end)
    tails: list[list[int]] = [[0]]
    for t in range(1, beta + 1):
        s = beta - t
        limit = n + s - 2 * beta
        row = start[s]
        tail = [0] * (t + 1)
        for v in range(t, 0, -1):
            tail[v] = row - start[s]
            base, tail_v = start[s + v], tails[t - v]
            lo, hi = base + tail_v[min(v, t - v)], start[s + v + 1]
            sub_half, sub_count, sub_parts = half[lo:hi], count[lo:hi], parts[lo:hi]
            same = tail_v[min(v - 1, t - v)] - (lo - base)  # rows whose largest half is v
            if limit <= t:
                keep = sub_parts < limit
                same = int(np.count_nonzero(keep[:same]))
                sub_half, sub_count, sub_parts = sub_half[keep], sub_count[keep], sub_parts[keep]
            mid, end = row + same, row + len(sub_parts)
            half[row:mid] = sub_half[:same]
            count[row:mid] = sub_count[:same]
            count[row:mid, -1] += 1
            half[mid:end, :-1] = sub_half[same:, 1:]
            count[mid:end, :-1] = sub_count[same:, 1:]
            half[mid:end, -1] = v
            count[mid:end, -1] = 1
            parts[row:end] = sub_parts + 1
            row = end
        tail[0] = row - start[s]
        tails.append(tail)
    core = np.repeat(np.arange(beta + 1, dtype=np.uint8), counts)
    return half, count, core, parts


def full_solve_search(n: int, beta: int, alpha) -> FamilySearchResult:
    """The family search with no floor: every candidate's radius solved,
    one batch at a time, and the first maximum in candidate order kept,
    recorded as ``verify.family_search`` records it."""
    a = as_fraction(alpha)
    best_rho, best, scanned = -inf, None, 0
    for batch in _candidate_batches(n, beta):
        radii = family_radius(batch, a)
        i = int(np.argmax(radii))
        if radii[i] > best_rho:
            best_rho, best = float(radii[i]), batch.family(i)
        scanned += len(radii)
    verdict = classify_regime(n, beta, a)
    return FamilySearchResult(
        n=n,
        beta=beta,
        alpha=a,
        best=best,
        rho=best_rho,
        families_scanned=scanned,
        canonical_shape=best == one_clique_family(n, beta, best.s),
        matches_prediction=best in verdict.extremal_families and best_rho == verdict.predicted_rho,
    )


def secular_value_exact(c: float, d, w, lam: float) -> Fraction:
    """h(lam) = lam - c - sum_p w_p / (lam - d_p) of one row of secular
    terms, its floats taken as the rationals they are, in exact
    arithmetic; lam must differ from every d_p."""
    lam = Fraction(lam)
    return lam - Fraction(c) - sum(Fraction(w_p) / (lam - Fraction(d_p)) for d_p, w_p in zip(d, w))


def split_graph_coefficients(n: int, beta: int, alpha):
    """(B, C) of the quadratic lam^2 - B*lam + C whose larger root is the
    radius of the complete split graph K_beta v bar(K_{n-beta}):

    B = alpha*n + (alpha+1)*beta - (alpha+1)
    C = (alpha^2-1)*beta*n + (alpha+1)*beta^2 - alpha*(alpha+1)*beta

    in the arithmetic of ``alpha``, so a Fraction gives them exactly."""
    b = alpha * n + (alpha + 1) * beta - (alpha + 1)
    c = (alpha * alpha - 1) * beta * n + (alpha + 1) * beta * beta - alpha * (alpha + 1) * beta
    return b, c


def split_graph_quadratic(lam: float, n: int, beta: int, alpha: float) -> float:
    """The complete-split quadratic lam^2 - B*lam + C at ``lam``."""
    b, c = split_graph_coefficients(n, beta, float(as_fraction(alpha)))
    return lam * lam - b * lam + c


def closed_form_complete_split(n: int, beta: int, alpha: float) -> float:
    """Radius of K_beta v bar(K_{n-beta}) in closed form, the larger root
    B/2 + sqrt(B^2 - 4C)/2 of the complete-split quadratic."""
    if not n > beta >= 1:
        raise ValueError(f"need n > beta >= 1, got n={n}, beta={beta}")
    b, c = split_graph_coefficients(n, beta, float(as_fraction(alpha)))
    return 0.5 * b + 0.5 * sqrt(b * b - 4.0 * c)


def cubic_f(lam, n, beta, s, alpha: float):
    """Characteristic cubic of the one-big-clique family, evaluated as
    written (elementwise on arrays):

    (lam - alpha*n - s + alpha + 1)(lam - alpha*s)[lam - 2(alpha+1)beta + (alpha+2)s]
      - s(n + s - 2*beta - 1)[lam - 2(alpha+1)beta + (alpha+2)s]
      - s(2*beta - 2*s + 1)(lam - alpha*s)

    For s >= 1 it is (lam - d_1)(lam - d_2) h(lam) for the family's two
    cells, so its largest root is the family radius.
    """
    alpha = float(as_fraction(alpha))
    t1 = lam - alpha * n - s + alpha + 1
    t2 = lam - alpha * s
    t3 = lam - 2.0 * (alpha + 1) * beta + (alpha + 2) * s
    return t1 * t2 * t3 - s * (n + s - 2 * beta - 1) * t3 - s * (2 * beta - 2 * s + 1) * t2


def case2_probe(n, beta, alpha: float):
    """The probe value
    alpha*n + (alpha+2)/(alpha+1)*beta - alpha*(alpha+2)/(alpha+1)
    at which the cubic is claimed positive in the sampled region."""
    return alpha * n + (alpha + 2.0) / (alpha + 1.0) * beta - alpha * (alpha + 2.0) / (alpha + 1.0)


def case2_sample_check(beta: int, alpha: float, s: int, n: int) -> bool:
    """Evaluate the cubic at the probe value and report whether it is
    strictly positive (the claimed sign)."""
    if not case2_applicable(beta, alpha, s, n):
        raise ValueError(
            f"(beta={beta}, alpha={alpha}, s={s}, n={n}) is outside the sampled region"
        )
    return cubic_f(case2_probe(n, beta, alpha), n, beta, s, alpha) > 0.0


def shift_function_f(delta: float, lam: float, family: JoinFamily, alpha: float) -> float:
    """Secular function tracking a transfer of ``delta`` vertices from the
    second-largest part to the largest, at spectral parameter ``lam``.

    Defined for lam >= (alpha+1)(n_q + s - 1) and 0 <= delta <= 2; at
    delta = 0 its zero is the family radius.  A denominator may still
    vanish inside the window for small cores; the pole is the caller's
    lookout and surfaces as ZeroDivisionError.
    """
    alpha = float(as_fraction(alpha))
    if family.q < 2:
        raise ValueError("shift function needs at least two parts")
    if family.s < 1:
        raise ValueError("shift function is defined for a nonempty core")
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    s = family.s
    n = family.order
    floor_lam = (alpha + 1) * (family.parts[-1] + s - 1)
    if lam < floor_lam:
        raise ValueError(f"lambda {lam} below the domain bound {floor_lam}")
    total = (lam - alpha * n - s + alpha + 1) / s
    for part in family.parts[:-2]:
        total -= part / (lam - (alpha + 1) * (part - 1) - alpha * s)
    p1, p2 = family.parts[-2], family.parts[-1]
    total -= (p1 - delta) / (lam - (alpha + 1) * (p1 - delta - 1) - alpha * s)
    total -= (p2 + delta) / (lam - (alpha + 1) * (p2 + delta - 1) - alpha * s)
    return total
