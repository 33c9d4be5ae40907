"""Simple undirected graphs as immutable bit-row adjacency, plus the
constructors (complete graph, complement, disjoint union, join) and the
graph6 / edge-list text formats.

Vertices are dense 0-based integers.  Row ``rows[v]`` is an int whose bit
``u`` is set iff ``uv`` is an edge; Python ints make the representation
word-sized for n <= 64 and still exact for larger graphs.  Graph values
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, symmetric adjacency."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"row {v} out of range")
        for v in range(self.n):
            m = self.rows[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not (self.rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted descending (the usual comparison form)."""
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    def neighbors(self, v: int) -> Iterator[int]:
        m = self.rows[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            yield u

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            m = self.rows[v] >> (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                yield (v, v + 1 + u)

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


@dataclass(frozen=True)
class ComponentDecomposition:
    """Partition of the vertex set into maximal connected parts."""

    components: tuple[tuple[int, ...], ...]
    odd_count: int
    even_count: int

    @property
    def count(self) -> int:
        return len(self.components)


# -- constructors ------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on ``n`` vertices with the given edge list (loops rejected)."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Vertices of ``g2`` are relabeled by offset ``g1.n``; no cross edges."""
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return Graph(g1.n + g2.n, tuple(rows))


def union_all(graphs: Sequence[Graph]) -> Graph:
    out = empty_graph(0)
    for g in graphs:
        out = disjoint_union(out, g)
    return out


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all n1*n2 cross edges (g1 vertices come first)."""
    n1, n2 = g1.n, g2.n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [r | mask2 for r in g1.rows] + [(r << n1) | mask1 for r in g2.rows]
    return Graph(n1 + n2, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(g.rows)))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on ``keep``, relabeled 0..|keep|-1 in sorted vertex order."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(kept)}
    rows = [0] * len(kept)
    for v in kept:
        m = g.rows[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return Graph(len(kept), tuple(rows))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with a center (vertex 0) and ``leaves`` pendant vertices."""
    return join(complete_graph(1), empty_graph(leaves))


# -- connectivity ------------------------------------------------------


def component_masks(g: Graph, removed: int = 0) -> list[int]:
    """Bitmasks of the connected components of ``g`` minus the ``removed``
    vertex set, ordered by smallest member."""
    alive = ((1 << g.n) - 1) & ~removed
    out = []
    while alive:
        start = alive & -alive
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = g.rows[v] & alive & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        alive &= ~comp
    return out


def components(g: Graph) -> ComponentDecomposition:
    masks = component_masks(g)
    parts = tuple(tuple(_bits(m)) for m in masks)
    odd = sum(1 for m in masks if m.bit_count() % 2 == 1)
    return ComponentDecomposition(parts, odd, len(masks) - odd)


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_masks(g)) == 1


def _bits(mask: int) -> Iterator[int]:
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        yield v


# -- graph6 format -----------------------------------------------------
#
# Standard encoding: printable bytes 63..126 carrying 6 bits each; the
# order byte(s) first (n+63 for n <= 62, otherwise a 126-prefixed long
# form), then the upper triangle read column by column, zero-padded to a
# multiple of 6 bits.


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = chr(126) + "".join(chr(((n >> k) & 63) + 63) for k in (12, 6, 0))
    elif n <= 68719476735:
        head = chr(126) + chr(126) + "".join(
            chr(((n >> k) & 63) + 63) for k in (30, 24, 18, 12, 6, 0)
        )
    else:
        raise ValueError("graph too large for graph6")
    bits = []
    for col in range(1, n):
        r = g.rows[col]
        for row in range(col):
            bits.append((r >> row) & 1)
    while len(bits) % 6:
        bits.append(0)
    payload = []
    for i in range(0, len(bits), 6):
        b = 0
        for j in range(6):
            b = (b << 1) | bits[i + j]
        payload.append(chr(b + 63))
    return head + "".join(payload)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; rejects malformed input with a byte offset."""
    # A non-ASCII character encodes to bytes >= 128, which the range check
    # below rejects at the character's offset.
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else bytes(text)
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside the graph6 range 63..126", i)
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form order", len(data))
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form order", len(data))
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        pos = 8
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"payload length {len(data) - pos} != expected {nbytes} for n={n}",
            pos,
        )
    rows = [0] * n
    col, row = 1, 0  # the upper triangle is read column by column
    for k in range(pos, len(data)):
        b = data[k] - 63
        for j in range(5, -1, -1):
            if col >= n:
                if (b >> j) & 1:
                    raise Graph6Error("nonzero padding bit", k)
                continue
            if (b >> j) & 1:
                rows[col] |= 1 << row
                rows[row] |= 1 << col
            row += 1
            if row == col:
                col += 1
                row = 0
    return Graph(n, tuple(rows))


def read_graph6_file(path) -> Iterator[Graph]:
    """Yield graphs from a one-per-line graph6 file (blank lines skipped)."""
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield parse_graph6(line)


# -- edge-list text format ---------------------------------------------
#
# First line "n m", then m lines "u v" with 0-based endpoints.  Blank
# lines and "#" comments are ignored.

# Largest order an edge-list header may declare.  The header's n is
# allocated before any edge is read, and a radius builds a dense n x n
# float matrix (0.8 GB at this order).
EDGE_LIST_MAX_ORDER = 10_000


def parse_edge_list(text: str) -> Graph:
    """Decode edge-list text; malformed input raises ValueError naming its line."""
    tokens: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append((lineno, line))
    if not tokens:
        raise ValueError("edge list is empty: expected a header line 'n m'")
    lineno, header = tokens[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {lineno}: header must be two integers") from None
    if n < 0 or m < 0:
        raise ValueError(f"line {lineno}: header n and m must be nonnegative, got n={n} m={m}")
    if n > EDGE_LIST_MAX_ORDER:
        raise ValueError(f"line {lineno}: order n={n} exceeds the edge-list limit {EDGE_LIST_MAX_ORDER}")
    edges: dict[tuple[int, int], int] = {}  # edge -> its line
    for lineno, line in tokens[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge must be 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: endpoint out of range for n={n}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop {u} {v} not allowed")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ValueError(f"line {lineno}: repeated edge {u} {v} (first on line {edges[edge]})")
        edges[edge] = lineno
    if len(edges) != m:
        raise ValueError(f"edge count {len(edges)} does not match header m={m}")
    return from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
