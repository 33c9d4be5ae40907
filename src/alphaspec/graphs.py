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

import numpy as np

# Largest order a graph6 or edge-list input may declare.  It is checked
# as soon as the header is read, before anything of size n is allocated;
# a radius builds a dense n x n float matrix (0.8 GB at this order).
MAX_ORDER = 10_000


class Graph6Error(ValueError):
    """Malformed graph6 input.  ``offset`` is the byte position of the
    fault within its line; ``line`` is the 1-based line of a file, or
    None for a single string."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset
        self.line = line


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
        for v, row in enumerate(self.rows):
            if row >> self.n:  # also catches a negative row
                raise ValueError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            m = self.rows[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not (self.rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")

    # -- bit rows <-> 0/1 matrix -----------------------------------------

    @classmethod
    def from_bit_matrix(cls, mat) -> Graph:
        """Graph whose adjacency is the square 0/1 array ``mat``.

        The invariants of ``__post_init__`` are checked on the array, with
        the same messages naming the first bad row or pair in row-major
        order, and the rows are then packed without a second check.
        """
        a = np.asarray(mat)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency row count does not match vertex count")
        bad_rows = np.flatnonzero(((a != 0) & (a != 1)).any(axis=1))
        if len(bad_rows):
            raise ValueError(f"row {bad_rows[0]} has an entry other than 0 or 1")
        a = a.astype(np.uint8)
        loops = np.flatnonzero(a.diagonal())
        if len(loops):
            raise ValueError(f"self-loop at vertex {loops[0]}")
        one_sided = np.argwhere(a > a.T)
        if len(one_sided):
            v, u = one_sided[0]
            raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        return cls._from_valid_matrix(a)

    @classmethod
    def _from_valid_matrix(cls, mat: np.ndarray) -> Graph:
        """Pack a square 0/1 matrix already known to be symmetric with a
        zero diagonal; ``__post_init__`` is bypassed, not repeated."""
        n = len(mat)
        width = (n + 7) // 8
        packed = np.packbits(mat, axis=1, bitorder="little").tobytes()
        rows = tuple([int.from_bytes(packed[v * width : (v + 1) * width], "little") for v in range(n)])
        return cls._from_valid_rows(n, rows)

    @classmethod
    def _from_valid_rows(cls, n: int, rows: tuple[int, ...]) -> Graph:
        """The graph of bit rows already known to be valid, such as those of
        an existing ``Graph``; ``__post_init__`` is bypassed, not repeated."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    def bit_matrix(self) -> np.ndarray:
        """The n x n uint8 adjacency matrix, the inverse of ``from_bit_matrix``."""
        return bit_matrices(self.n, [self.rows])[0]

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

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def bit_matrices(n: int, rows_list: Sequence[Sequence[int]]) -> np.ndarray:
    """The (m, n, n) uint8 adjacency matrices of m graphs of order n given
    by their bit rows, unpacked from the rows' little-endian bytes in one
    step, so rows of any width convert alike."""
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for rows in rows_list for r in rows)
    packed = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows_list), n, width)
    return np.unpackbits(packed, axis=2, count=n, bitorder="little")


# -- constructors ------------------------------------------------------


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")


# The constructors below build rows that are symmetric and loop-free by
# construction, so they skip ``Graph.__post_init__``'s per-bit check.


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on ``n`` vertices with the given edge list (loops rejected)."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._from_valid_rows(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    _check_order(n)
    return Graph._from_valid_rows(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph._from_valid_rows(n, tuple(full ^ (1 << v) for v in range(n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Vertices of ``g2`` are relabeled by offset ``g1.n``; no cross edges."""
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return Graph._from_valid_rows(g1.n + g2.n, tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all n1*n2 cross edges (g1 vertices come first)."""
    n1, n2 = g1.n, g2.n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [r | mask2 for r in g1.rows] + [(r << n1) | mask1 for r in g2.rows]
    return Graph._from_valid_rows(n1 + n2, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_valid_rows(g.n, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(g.rows)))


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


def row_component_masks(n: int, rows: Sequence[int], removed: int = 0) -> list[int]:
    """Bitmasks of the connected components of the graph of order n with
    bit rows ``rows``, minus the ``removed`` vertex set, ordered by
    smallest member."""
    alive = ((1 << n) - 1) & ~removed
    out = []
    while alive:
        start = alive & -alive
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = rows[v] & alive & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        alive &= ~comp
    return out


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

_GRAPH6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)  # bit -> its weight in a byte


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
    # Row v of the lower triangle is column v of the upper one.
    bits = g.bit_matrix()[np.tri(n, n, -1, dtype=bool)]
    groups = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)]).reshape(-1, 6)
    payload = groups @ _GRAPH6_WEIGHTS + 63
    return head + payload.tobytes().decode("ascii")


_GRAPH6_BYTES = bytes(range(63, 127))
_GRAPH6_VALUES = bytes((b - 63) % 256 for b in range(256))  # byte -> the 6 bits it carries


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; rejects malformed input with a byte offset.

    The inverse of ``to_graph6``: the payload's 6-bit groups fill the
    lower triangle row by row (the upper one column by column), the
    matrix is ORed with its transpose, and the bit rows are packed from
    that.  The decode holds about 3 n^2 bytes at its peak.
    """
    # A non-ASCII character encodes to bytes >= 128, which the range check
    # below rejects at the character's offset.
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else bytes(text)
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    if data.translate(None, _GRAPH6_BYTES):
        i, b = next((i, b) for i, b in enumerate(data) if not 63 <= b <= 126)
        raise Graph6Error(f"byte {b} outside the graph6 range 63..126", i)
    if data[0] != 126:
        order, pos = data[:1], 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form order", len(data))
        order, pos = data[1:4], 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form order", len(data))
        order, pos = data[2:8], 8
    n = 0
    for b in order:
        n = (n << 6) | (b - 63)
    if n > MAX_ORDER:
        raise Graph6Error(f"order n={n} exceeds the graph6 limit {MAX_ORDER}", pos - len(order))
    m = n * (n - 1) // 2
    nbytes = (m + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"payload length {len(data) - pos} != expected {nbytes} for n={n}",
            pos,
        )
    if n < 2:
        return empty_graph(n)
    # The padding, under 6 bits, sits at the bottom of the last byte.
    if (data[-1] - 63) & ((1 << (6 * nbytes - m)) - 1):
        raise Graph6Error("nonzero padding bit", len(data) - 1)
    values = np.frombuffer(data[pos:].translate(_GRAPH6_VALUES), dtype=np.uint8)
    mat = np.tri(n, n, -1, dtype=bool)
    # a byte carries a value below 64: its top two unpacked bits are 0
    mat[mat] = np.unpackbits(values[:, None], axis=1)[:, 2:].reshape(-1)[:m]
    mat |= mat.T
    return Graph._from_valid_matrix(mat)


def read_graph6_file(path) -> Iterator[tuple[int, Graph]]:
    """Yield (line number, graph) from a one-per-line graph6 file, lines
    counted from 1 and blank lines skipped.  A malformed line raises
    Graph6Error naming its line and the byte offset within it."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(exc.reason, exc.offset, line_no) from None
            yield line_no, g


# -- edge-list text format ---------------------------------------------
#
# First line "n m", then m lines "u v" with 0-based endpoints.  Blank
# lines and "#" comments are ignored.

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
    if n > MAX_ORDER:
        raise ValueError(f"line {lineno}: order n={n} exceeds the edge-list limit {MAX_ORDER}")
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

