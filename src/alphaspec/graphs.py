"""Simple undirected graphs as immutable bit-row adjacency, plus the
constructors (empty and complete graph, complement, join) and the
graph6 / edge-list text formats.

Vertices are dense 0-based integers.  Row ``rows[v]`` is an int whose bit
``u`` is set iff ``uv`` is an edge; Python ints make the representation
word-sized for n <= 64 and still exact for larger graphs.  Graph values
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest order a graph6 or edge-list input may declare.  It is checked
# as soon as the header is read, before anything of size n is allocated;
# a radius builds a dense n x n float matrix (0.8 GB at this order).
MAX_ORDER = 10_000


class Graph6Error(ValueError):
    """Malformed graph6 input.  ``offset`` is the byte position of the
    fault within its line, counted from the line's first byte (leading
    blanks and a ``>>graph6<<`` header included); ``line`` is the 1-based
    line of a file, or None for a single string."""

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
        rows = tuple(map(operator.index, self.rows))  # numpy integers become ints
        object.__setattr__(self, "rows", rows)
        for v, row in enumerate(rows):
            if row >> self.n:  # also catches a negative row
                raise ValueError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # each edge (v, u), row-major, needs bit v of row u: one gather
        # from the packed rows, so time and memory follow the row bytes
        # and the edges, not n**2 matrix entries
        packed = row_bytes(self.n, [rows])[0]
        v, u = _set_bits(packed)
        one_sided = np.flatnonzero(packed[u, v >> 3] >> (v & 7) & 1 == 0)
        if len(one_sided):
            i = one_sided[0]
            raise ValueError(f"adjacency not symmetric at ({v[i]}, {u[i]})")

    # -- bit rows <-> 0/1 matrix -----------------------------------------

    @classmethod
    def from_bit_matrix(cls, mat) -> Graph:
        """Graph whose adjacency is the square 0/1 array ``mat``.

        The shape and the entries are checked on the array; the packed
        rows then pass ``__post_init__``, so a loop or a one-sided pair
        gets the message it gets as bit rows.
        """
        a = np.asarray(mat)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency row count does not match vertex count")
        bad_rows = np.flatnonzero(((a != 0) & (a != 1)).any(axis=1))
        if len(bad_rows):
            raise ValueError(f"row {bad_rows[0]} has an entry other than 0 or 1")
        return cls(len(a), matrix_rows(a[None].astype(np.uint8))[0])

    @classmethod
    def _from_valid_matrix(cls, mat: np.ndarray) -> Graph:
        """Pack a square 0/1 matrix already known to be symmetric with a
        zero diagonal; ``__post_init__`` is bypassed, not repeated."""
        return cls._from_valid_rows(len(mat), matrix_rows(mat[None])[0])

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

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, row in enumerate(self.rows):
            for u in _bits(row >> (v + 1)):
                yield (v, v + 1 + u)

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def row_bytes(n: int, rows_list: Sequence[Sequence[int]]) -> np.ndarray:
    """The (m, n, ceil(n/8)) uint8 little-endian bytes of the bit rows of
    m graphs of order n, so rows of any width convert alike."""
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for rows in rows_list for r in rows)
    return np.frombuffer(packed, dtype=np.uint8).reshape(len(rows_list), n, width)


def stack_rows(n: int, rows_list: Sequence[Sequence[int]]) -> np.ndarray:
    """The bit rows of m graphs of order n as one (m, n) array, returned
    as it is if it is one already: uint16 words up to order 16 (the
    census levels among them), Python ints beyond."""
    dtype = np.uint16 if n <= 16 else object
    return np.asarray(rows_list, dtype=dtype).reshape(len(rows_list), n)


def bit_matrices(n: int, rows_list: Sequence[Sequence[int]]) -> np.ndarray:
    """The (m, n, n) uint8 adjacency matrices of m graphs of order n given
    by their bit rows, as a sequence or as a ``stack_rows`` array:
    shifted and masked from the uint16 words up to order 16, unpacked
    from ``row_bytes`` beyond."""
    if n > 16:
        return np.unpackbits(row_bytes(n, rows_list), axis=2, count=n, bitorder="little")
    words = stack_rows(n, rows_list)
    return (words[:, :, None] >> np.arange(n, dtype=np.uint16) & 1).astype(np.uint8)


def row_edges(n: int, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The edges (v, u) of the graph of order n with bit rows ``rows``,
    one per set bit u of row v, in row-major order."""
    return _set_bits(row_bytes(n, [rows])[0])


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, u) for each set bit u of row v of the (n, ceil(n/8)) row bytes
    ``packed``, in row-major order.  The bytes are read as little-endian
    words and only the nonzero words are unpacked, so a sparse graph
    costs its n**2 / 8 row bytes and its edges, not n**2 matrix
    entries."""
    words = np.zeros(-(-packed.size // 8), dtype="<u8")
    words.view(np.uint8)[: packed.size] = packed.ravel()
    at = np.flatnonzero(words)
    bit = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little").view(bool))
    # each bit's place in the row bytes, whose rows are 8 * width bits long
    return np.divmod(at[bit >> 6] * 64 + (bit & 63), max(8 * packed.shape[1], 1))


def row_words(mats: np.ndarray) -> np.ndarray:
    """The rows of the (m, n, n) 0/1 matrices ``mats`` as (m * n, w)
    little-endian uint64 words, w = ceil(n / 64): bit u of row v of
    graph g is bit u % 64 of word u // 64 of entry g * n + v."""
    m, n, _ = mats.shape
    words = -(-n // 64)
    packed = np.zeros((m * n, 8 * words), dtype=np.uint8)
    packed[:, : (n + 7) // 8] = np.packbits(mats, axis=2, bitorder="little").reshape(m * n, (n + 7) // 8)
    return packed.view("<u8")


def matrix_rows(mats: np.ndarray) -> list[tuple[int, ...]]:
    """The bit rows of each of the (m, n, n) 0/1 matrices ``mats``, the inverse
    of ``bit_matrices``: ``row_words`` up to 64 bits a row, packed bytes beyond."""
    m, n, _ = mats.shape
    if n == 0:  # no row, so no word to read
        return [()] * m
    if n <= 64:
        flat = row_words(mats)[:, 0].tolist()
    else:
        width = (n + 7) // 8
        packed = np.packbits(mats, axis=2, bitorder="little").tobytes()
        flat = [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]
    return list(zip(*[iter(flat)] * n))  # each graph's n rows in turn


# -- constructors ------------------------------------------------------


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")


# The constructors below build rows that are symmetric and loop-free by
# construction, so they skip ``Graph.__post_init__``'s checks.


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


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all n1*n2 cross edges (g1 vertices come first)."""
    n1, n2 = g1.n, g2.n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [r | mask2 for r in g1.rows] + [(r << n1) | mask1 for r in g2.rows]
    return Graph._from_valid_rows(n1 + n2, tuple(rows))


def complement(g: Graph) -> Graph:
    return Graph._from_valid_rows(g.n, _complement_rows(g.n, g.rows))


def _complement_rows(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    """The bit rows of the complement of the loop-free graph of order n
    with bit rows ``rows``."""
    full = (1 << n) - 1
    return tuple(full ^ r ^ (1 << v) for v, r in enumerate(rows))


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


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


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
    # offsets count from the start of the line: the leading blanks and
    # the optional header come before the graph's first byte
    skip = len(data) - len(data.lstrip())
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
        skip += len(b">>graph6<<")
    if not data:
        raise Graph6Error("empty graph6 input", skip)
    if data.translate(None, _GRAPH6_BYTES):
        i, b = next((i, b) for i, b in enumerate(data) if not 63 <= b <= 126)
        raise Graph6Error(f"byte {b} outside the graph6 range 63..126", skip + i)
    if data[0] != 126:
        order, pos = data[:1], 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form order", skip + len(data))
        order, pos = data[1:4], 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form order", skip + len(data))
        order, pos = data[2:8], 8
    n = 0
    for b in order:
        n = (n << 6) | (b - 63)
    if n > MAX_ORDER:
        raise Graph6Error(f"order n={n} exceeds the graph6 limit {MAX_ORDER}", skip + pos - len(order))
    m = n * (n - 1) // 2
    nbytes = (m + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(f"payload length {len(data) - pos} != expected {nbytes} for n={n}", skip + pos)
    # The padding, under 6 bits, sits at the bottom of the last byte.
    if (data[-1] - 63) & ((1 << (6 * nbytes - m)) - 1):
        raise Graph6Error("nonzero padding bit", skip + len(data) - 1)
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
            if line.isspace():
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

