import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspec import (
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    empty_graph,
    from_edges,
    join,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from alphaspec.graphs import MAX_ORDER, bit_matrices, matrix_rows, read_graph6_file, row_component_masks
from reference import are_isomorphic, cycle_graph, degree_sequence, disjoint_union, has_edge, path_graph, star_graph


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [p for p, f in zip(pairs, flags) if f])


def path_rows(n):
    """The bit rows of the path 0 - 1 - ... - (n - 1)."""
    return tuple(sum(1 << u for u in (v - 1, v + 1) if 0 <= u < n) for v in range(n))


def edge_list_text(g):
    """``g`` in the edge-list format that ``parse_edge_list`` reads."""
    return f"{g.n} {g.num_edges}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


class TestConstruction:
    def test_complete_small(self):
        assert complete_graph(1).num_edges == 0
        g = complete_graph(4)
        assert g.num_edges == 6
        assert g.degrees() == [3, 3, 3, 3]

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        # a path on 10,000 vertices with one one-sided pair added
        rows = list(path_rows(10_000))
        rows[9_998] |= 1 << 17
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(9998, 17\)$"):
            Graph(10_000, tuple(rows))

    def test_symmetry_check_memory_follows_the_row_bytes(self):
        # the check reads the 12.5 MB of row bytes and the path's edges,
        # never a 10,000 x 10,000 matrix (100 MB as uint8)
        import tracemalloc

        rows = path_rows(10_000)
        tracemalloc.start()
        try:
            g = Graph(10_000, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.num_edges == 9_999
        assert peak < 40 * 2**20

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError, match="row 0 has bits beyond vertex range"):
            Graph(2, (-2, 1))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("build", [empty_graph, complete_graph, lambda n: from_edges(n, [])])
    def test_negative_order_rejected(self, build):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            build(-1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_constructors_build_valid_rows(self, data):
        # the constructors skip Graph's validation, so the validating path
        # must accept every graph they build, as the same value
        def random_edges(n):
            if n < 2:
                return []
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
            return data.draw(st.lists(pair, max_size=30))

        n1, n2 = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
        g1, g2 = from_edges(n1, random_edges(n1)), from_edges(n2, random_edges(n2))
        built = [g1, g2, empty_graph(n1), complete_graph(n1), disjoint_union(g1, g2), join(g1, g2), complement(g1)]
        for g in built:
            assert Graph(g.n, g.rows) == g

    def test_order_zero_is_legal(self):
        g = empty_graph(0)
        assert join(g, complete_graph(3)) == complete_graph(3)
        assert disjoint_union(g, g).n == 0

    def test_union_counts_add(self):
        g = disjoint_union(complete_graph(3), empty_graph(2))
        assert (g.n, g.num_edges) == (5, 3)

    def test_union_of_singletons(self):
        g = disjoint_union(empty_graph(1), empty_graph(1))
        assert g == empty_graph(2)

    def test_union_gives_odd_clique_plus_isolates(self):
        # beta=2, n=8 shape: K_5 with three isolated vertices
        g = disjoint_union(complete_graph(5), empty_graph(3))
        assert degree_sequence(g) == (4, 4, 4, 4, 4, 0, 0, 0)

    def test_join_star(self):
        g = join(complete_graph(1), empty_graph(3))
        assert sorted(g.degrees()) == [1, 1, 1, 3]

    def test_join_complete_split_degrees(self):
        # beta=2, n=6: two clique vertices of degree n-1, four of degree beta
        g = join(complete_graph(2), empty_graph(4))
        assert g.degrees() == [5, 5, 2, 2, 2, 2]

    def test_join_one_big_clique_family(self):
        # s=1, beta=2, n=6, q=3: core joined to K_3 and two isolated vertices
        g = join(complete_graph(1), disjoint_union(complete_graph(3), empty_graph(2)))
        assert g.n == 6
        assert Graph.from_bit_matrix(g.bit_matrix()[1:4, 1:4]) == complete_graph(3)

    def test_join_edge_count(self):
        g1, g2 = cycle_graph(4), path_graph(3)
        g = join(g1, g2)
        assert g.num_edges == g1.num_edges + g2.num_edges + g1.n * g2.n


class TestComplement:
    def test_complete(self):
        assert complement(complete_graph(6)) == empty_graph(6)

    def test_involution(self):
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert complement(complement(g)) == g

    def test_cycle5_self_complementary(self):
        c5 = cycle_graph(5)
        assert are_isomorphic(c5, complement(c5))


class TestComponents:
    @staticmethod
    def masks(g):
        return row_component_masks(g.n, g.rows)

    def test_clique_plus_isolates(self):
        g = disjoint_union(complete_graph(5), empty_graph(3))
        sizes = [m.bit_count() for m in self.masks(g)]
        assert sorted(sizes) == [1, 1, 1, 5]
        assert sum(size % 2 for size in sizes) == 4

    def test_connected_clique(self):
        assert len(self.masks(complete_graph(7))) == 1

    def test_two_even_parts(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        masks = self.masks(g)
        assert len(masks) == 2
        assert all(m.bit_count() % 2 == 0 for m in masks)

    def test_parts_cover_and_are_disjoint(self):
        g = from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        masks = self.masks(g)
        full = (1 << 7) - 1
        assert sum(m.bit_count() for m in masks) == 7
        assert sum(masks) == full
        for m in masks:
            # the part alone, the rest removed, is one component
            assert row_component_masks(g.n, g.rows, full & ~m) == [m]


class TestGraph6:
    def test_known_decode(self):
        # 'D' gives n=5; payload bits 000000 111100 set exactly the
        # column-4 entries, so this is the star with center 4
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]
        assert all(has_edge(g, v, 4) for v in range(4))

    def test_single_vertex(self):
        assert to_graph6(empty_graph(1)) == "@"
        assert parse_graph6("@") == empty_graph(1)

    def test_header_skip(self):
        assert parse_graph6(">>graph6<<@") == empty_graph(1)

    def test_bad_byte_offset(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6(b"D?\x19")
        assert err.value.offset == 2

    def test_wrong_payload_length(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D?")

    def test_nonzero_padding_rejected(self):
        # n=2 needs 1 adjacency bit; the remaining 5 must be zero
        with pytest.raises(Graph6Error):
            parse_graph6(chr(63 + 2) + chr(63 + 1))

    def test_long_form_order(self):
        g = empty_graph(70)
        assert parse_graph6(to_graph6(g)) == g

    def test_long_form_random_round_trip(self):
        import random

        g = random_graph(random.Random(300), 300, 0.1)
        assert to_graph6(g)[0] == "~"
        assert parse_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize(
        "text, offset, reason",
        [
            ("  A\x01", 3, "byte 1 outside"),
            (">>graph6<<A\x01", 11, "byte 1 outside"),
            (">>graph6<<B~", 11, "nonzero padding bit"),
            (b" \t>>graph6<<D?", 13, "payload length 1"),
            ("  >>graph6<<  ", 12, "empty graph6 input"),
        ],
    )
    def test_offsets_count_from_the_start_of_the_line(self, text, offset, reason):
        with pytest.raises(Graph6Error, match=reason) as err:
            parse_graph6(text)
        assert err.value.offset == offset

    def test_non_ascii_rejected_at_offset(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("A\u00e9")
        assert err.value.offset == 1

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=40), st.text(max_size=40)))
    def test_arbitrary_input_round_trips_or_raises(self, data):
        try:
            g = parse_graph6(data)
        except Graph6Error:
            return
        assert parse_graph6(to_graph6(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12))
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_round_trip_thousand_random(self):
        import random

        rng = random.Random(2024)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            assert parse_graph6(to_graph6(g)) == g


def bit_loop_parse_graph6(text):
    """The per-bit decoder that ``parse_graph6`` replaced, kept as the
    reference its output and error offsets are checked against."""
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else bytes(text)
    start = len(data) - len(data.lstrip())  # offsets count from the start of the line
    end = len(data.rstrip())
    if data.startswith(b">>graph6<<", start):
        start += len(b">>graph6<<")
    if start >= end:
        raise Graph6Error("empty graph6 input", start)
    for i in range(start, end):
        if not 63 <= data[i] <= 126:
            raise Graph6Error(f"byte {data[i]} outside the graph6 range 63..126", i)
    if data[start] != 126:
        n, pos = data[start] - 63, start + 1
    elif end - start >= 2 and data[start + 1] != 126:
        if end - start < 4:
            raise Graph6Error("truncated long-form order", end)
        n, pos = 0, start + 4
        for b in data[start + 1 : start + 4]:
            n = (n << 6) | (b - 63)
    else:
        if end - start < 8:
            raise Graph6Error("truncated very-long-form order", end)
        n, pos = 0, start + 8
        for b in data[start + 2 : start + 8]:
            n = (n << 6) | (b - 63)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if end - pos != nbytes:
        raise Graph6Error(f"payload length {end - pos} != expected {nbytes} for n={n}", pos)
    rows = [0] * n
    col, row = 1, 0
    for k in range(pos, end):
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


def decode_both(data):
    """(graph, None) or (None, (message, offset)) from each decoder."""
    out = []
    for decode in (parse_graph6, bit_loop_parse_graph6):
        try:
            out.append((decode(data), None))
        except Graph6Error as exc:
            out.append((None, (str(exc), exc.offset)))
    return out


def padding_bits(n):
    return 6 * ((n * (n - 1) // 2 + 5) // 6) - n * (n - 1) // 2


ORDERS = list(range(71)) + [100, 300, 400]


class TestGraph6AgainstBitLoop:
    @pytest.mark.parametrize("n", ORDERS)
    def test_same_graph_at_every_density(self, n):
        import random

        rng = random.Random(n)
        for p in (0.0, 0.05, 0.5, 0.95, 1.0):
            text = to_graph6(random_graph(rng, n, p))
            g = parse_graph6(text)
            assert g == bit_loop_parse_graph6(text)
            assert g.rows == bit_loop_parse_graph6(text).rows
            assert to_graph6(g) == text

    @pytest.mark.parametrize("n", [n for n in ORDERS if padding_bits(n)])
    def test_same_offset_for_each_nonzero_padding_bit(self, n):
        text = to_graph6(complete_graph(n))
        for j in range(padding_bits(n)):
            bad = text[:-1] + chr(((ord(text[-1]) - 63) | (1 << j)) + 63)
            (g, err), (ref_g, ref_err) = decode_both(bad)
            assert g is None and ref_g is None
            assert err == ref_err
            assert err[1] == len(text) - 1

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=40), st.text(max_size=40)))
    def test_arbitrary_input_matches(self, data):
        new, ref = decode_both(data)
        assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(63, 65), st.integers(63, 126)),
        st.lists(st.integers(63, 126), min_size=2, max_size=2),
        st.binary(max_size=80),
    )
    def test_long_form_header_with_random_payload(self, first, rest, payload):
        data = b"~" + bytes([first, *rest]) + payload
        n = ((first - 63) << 12) | ((rest[0] - 63) << 6) | (rest[1] - 63)
        new, ref = decode_both(data)
        if n > MAX_ORDER and ref[1] is not None and ref[1][0].startswith("payload length"):
            # the order cap is checked before the payload length
            assert new[1] == (f"order n={n} exceeds the graph6 limit {MAX_ORDER} (byte offset 1)", 1)
        else:
            assert new == ref

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_long_form_payload_of_the_declared_length(self, data):
        # Orders 63..100 need the long form; the payload is random graph6
        # bytes of exactly the right length, so the padding bits decide.
        n = data.draw(st.integers(63, 100))
        nbytes = (n * (n - 1) // 2 + 5) // 6
        payload = bytes(63 + (b & 63) for b in data.draw(st.binary(min_size=nbytes, max_size=nbytes)))
        text = b"~" + bytes(((n >> k) & 63) + 63 for k in (12, 6, 0)) + payload
        (g, err), ref = decode_both(text)
        assert (g, err) == ref
        if g is not None:
            assert to_graph6(g).encode() == text


def bit_loop_to_graph6(g):
    """The per-bit encoder that ``to_graph6`` replaced, kept as the
    reference its output is checked against (short and long form)."""
    n = g.n
    head = chr(n + 63) if n <= 62 else chr(126) + "".join(chr(((n >> k) & 63) + 63) for k in (12, 6, 0))
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


ENCODE_ORDERS = [0, 1, 2, 62, 63, 64, 300]
ENCODE_DENSITIES = (0.0, 0.05, 0.5, 1.0)


class TestGraph6Encoder:
    @pytest.mark.parametrize("n", ENCODE_ORDERS)
    def test_same_text_as_bit_loop(self, n):
        import random

        rng = random.Random(n)
        for p in ENCODE_DENSITIES:
            g = random_graph(rng, n, p)
            assert to_graph6(g) == bit_loop_to_graph6(g)

    @pytest.mark.parametrize("n", ENCODE_ORDERS)
    def test_same_text_as_networkx(self, n):
        import random

        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        for p in ENCODE_DENSITIES:
            g = random_graph(rng, n, p)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            assert to_graph6(g) == nx.to_graph6_bytes(h, nodes=range(n), header=False).decode("ascii").strip()

    def test_every_class_up_to_seven(self):
        # the certificates in reports are these strings of canonical forms
        from alphaspec import isomorphism_classes

        for n in range(8):
            for g in isomorphism_classes(n):
                assert to_graph6(g) == bit_loop_to_graph6(g)


class TestGraph6OrderCap:
    @staticmethod
    def long_form(n, payload=b""):
        return b"~" + bytes(((n >> k) & 63) + 63 for k in (12, 6, 0)) + payload

    def test_cap_error_wins_over_payload_length(self, monkeypatch):
        from alphaspec import graphs as graphs_module

        def refuse(*args, **kwargs):
            raise AssertionError("decoder allocated before the order check")

        monkeypatch.setattr(graphs_module.np, "unpackbits", refuse)
        with pytest.raises(Graph6Error, match=f"order n={MAX_ORDER + 1} exceeds the graph6 limit {MAX_ORDER}") as err:
            parse_graph6(self.long_form(MAX_ORDER + 1, b"??"))
        assert err.value.offset == 1

    def test_very_long_form_capped(self):
        data = b"~~" + bytes(((MAX_ORDER + 1 >> k) & 63) + 63 for k in (30, 24, 18, 12, 6, 0))
        with pytest.raises(Graph6Error, match="exceeds the graph6 limit") as err:
            parse_graph6(data)
        assert err.value.offset == 2

    def test_order_at_cap_reaches_the_length_check(self):
        with pytest.raises(Graph6Error, match=f"payload length 2 != expected .* for n={MAX_ORDER}") as err:
            parse_graph6(self.long_form(MAX_ORDER, b"??"))
        assert err.value.offset == 4


class TestGraph6DecodeMemory:
    def test_peak_below_four_bytes_per_matrix_entry(self):
        import random
        import tracemalloc

        n = 2000
        text = to_graph6(random_graph(random.Random(n), n, 0.005))
        tracemalloc.start()
        try:
            parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n


class TestBitMatrix:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=20))
    def test_round_trip(self, g):
        mat = g.bit_matrix()
        assert mat.dtype == np.uint8 and mat.shape == (g.n, g.n)
        assert Graph.from_bit_matrix(mat) == g
        assert Graph.from_bit_matrix(mat.astype(bool)) == g
        assert Graph.from_bit_matrix(mat.astype(float)) == g

    def test_round_trip_wide_rows(self):
        # every width boundary of the packer: no row word at n = 0, one
        # partial or full word up to 64, packed bytes beyond
        import random

        rng = random.Random(7)
        for n in (0, 1, 7, 8, 9, 63, 64, 65, 130):
            stack = [random_graph(rng, n, p) for p in (0.3, 0.5, 1.0)]
            rows_list = [g.rows for g in stack]
            mats = bit_matrices(n, rows_list)
            assert matrix_rows(mats) == matrix_rows(mats.astype(bool)) == rows_list, n
            for g in stack:
                assert matrix_rows(g.bit_matrix()[None]) == matrix_rows(g.bit_matrix()[None].astype(bool)) == [g.rows], n
                assert Graph.from_bit_matrix(g.bit_matrix()) == g

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="adjacency row count does not match vertex count"):
            Graph.from_bit_matrix(np.zeros(shape, dtype=np.uint8))

    def test_rejects_loop(self):
        mat = np.zeros((3, 3), dtype=np.uint8)
        mat[2, 2] = 1
        with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
            Graph.from_bit_matrix(mat)

    def test_rejects_asymmetric(self):
        mat = np.zeros((4, 4), dtype=np.uint8)
        mat[3, 1] = mat[2, 0] = 1
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(2, 0\)$"):
            Graph.from_bit_matrix(mat)

    def test_rejects_entry_of_two(self):
        mat = np.zeros((3, 3), dtype=np.int64)
        mat[0, 1] = mat[1, 0] = 1
        mat[1, 2] = mat[2, 1] = 2
        with pytest.raises(ValueError, match=r"^row 1 has an entry other than 0 or 1$"):
            Graph.from_bit_matrix(mat)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    def test_same_message_as_the_row_constructor(self, flags):
        n = int(len(flags) ** 0.5)
        mat = np.array(flags, dtype=np.uint8).reshape(n, n)
        rows = tuple(sum(int(b) << u for u, b in enumerate(row)) for row in mat)
        try:
            expected = Graph(n, rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                Graph.from_bit_matrix(mat)
            assert str(err.value) == str(exc)
        else:
            assert Graph.from_bit_matrix(mat) == expected


class TestGraph6File:
    def test_lines_are_numbered_from_one(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("@\n\nA_\n")
        assert list(read_graph6_file(path)) == [(1, empty_graph(1)), (3, complete_graph(2))]

    def test_bad_payload_names_its_line(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(to_graph6(complete_graph(5)) + "\n" + to_graph6(cycle_graph(5)) + "\nD\x19{\n")
        with pytest.raises(Graph6Error, match=r"^line 3: byte 25 outside the graph6 range 63..126 \(byte offset 1\)$") as err:
            list(read_graph6_file(path))
        assert (err.value.line, err.value.offset) == (3, 1)

    def test_padding_fault_names_its_line(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("\n  A`\n")
        with pytest.raises(Graph6Error, match="^line 2: nonzero padding bit") as err:
            list(read_graph6_file(path))
        assert err.value.offset == 3  # the two leading blanks count

    @pytest.mark.parametrize("line, offset", [("  A\x01", 3), ("\t>>graph6<<B~", 12), (" D?\x19", 3)])
    def test_offsets_count_from_the_start_of_the_line(self, tmp_path, line, offset):
        path = tmp_path / "g.g6"
        path.write_text("A_\n" + line + "\n")
        with pytest.raises(Graph6Error) as err:
            list(read_graph6_file(path))
        assert (err.value.line, err.value.offset) == (2, offset)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = from_edges(5, [(0, 1), (1, 4), (2, 3)])
        assert parse_edge_list(edge_list_text(g)) == g

    def test_comments_and_blanks(self):
        text = "# a graph\n3 2\n\n0 1  # first\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_endpoint(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("3 1\n0 7\n")

    @pytest.mark.parametrize("text,line", [("3 2\n0 1\n0 1\n", 3), ("3 2\n0 1\n\n1 0\n", 4)])
    def test_repeated_edge_rejected(self, text, line):
        with pytest.raises(ValueError, match=rf"line {line}: repeated edge .* \(first on line 2\)"):
            parse_edge_list(text)

    @pytest.mark.parametrize("header", ["-1 0", "3 -2"])
    def test_negative_header_rejected(self, header):
        with pytest.raises(ValueError, match="line 2: header n and m must be nonnegative"):
            parse_edge_list("# comment\n" + header + "\n")

    def test_order_above_cap_rejected_before_allocation(self, monkeypatch):
        from alphaspec import graphs as graphs_module

        def refuse(*args):
            raise AssertionError("from_edges reached")

        monkeypatch.setattr(graphs_module, "from_edges", refuse)
        with pytest.raises(ValueError, match="line 1: order .* exceeds the edge-list limit"):
            parse_edge_list(f"{MAX_ORDER + 1} 0\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("10" + "0" * 30 + " 0\n")

    def test_order_at_cap_accepted(self):
        g = parse_edge_list(f"{MAX_ORDER} 1\n0 {MAX_ORDER - 1}\n")
        assert (g.n, g.num_edges) == (MAX_ORDER, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=60), st.text(alphabet="0123456789 -#\n", max_size=60)))
    def test_arbitrary_text_round_trips_or_raises(self, text):
        try:
            g = parse_edge_list(text)
        except ValueError:
            return
        assert parse_edge_list(edge_list_text(g)) == g


class TestInvariants:
    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=10))
    def test_degree_sum_is_even(self, g):
        assert sum(g.degrees()) == 2 * g.num_edges

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=10))
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g
