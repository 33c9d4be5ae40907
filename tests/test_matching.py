import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspec import (
    complete_graph,
    empty_graph,
    from_edges,
    isomorphism_classes,
    join,
    matching_number,
    matching_numbers,
    to_graph6,
    tutte_berge_witness,
)
from alphaspec.cli import main
from alphaspec.graphs import _bits
from alphaspec.spectral import JoinFamily
from reference import (
    ORACLE_EDGE_CAP,
    augment_from_full_scan,
    cycle_graph,
    disjoint_union,
    has_edge,
    matching_number_oracle,
    maximum_matching,
    neighbors,
    path_graph,
    star_graph,
    tutte_berge_witness_oracle,
)


@st.composite
def sparse_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, f in zip(pairs, flags) if f]
    if len(edges) > 24:
        edges = edges[:24]
    return from_edges(n, edges)


class TestMatchingNumber:
    def test_even_clique(self):
        assert matching_number(complete_graph(4)) == 2

    def test_five_cycle(self):
        # frozen from the edge-subset oracle
        assert matching_number(cycle_graph(5)) == 2
        assert matching_number_oracle(cycle_graph(5)) == 2

    def test_odd_clique_plus_isolates(self):
        g = disjoint_union(complete_graph(5), empty_graph(3))
        assert matching_number(g) == 2

    def test_path(self):
        assert matching_number(path_graph(5)) == 2
        assert matching_number_oracle(path_graph(5)) == 2

    def test_needs_blossom(self):
        # two triangles bridged: greedy bipartite-style search fails
        # without contraction
        g = from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
        assert matching_number(g) == 3
        assert matching_number_oracle(g) == 3

    def test_petersen(self):
        g = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
        assert matching_number(g) == 5

    def test_matching_is_reproducible(self):
        g = cycle_graph(6)
        assert maximum_matching(g) == maximum_matching(g) == [(0, 1), (2, 3), (4, 5)]

    def test_matching_edges_are_independent(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 12)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.4])
            edges = maximum_matching(g)
            used = [v for e in edges for v in e]
            assert len(used) == len(set(used))
            assert all(has_edge(g, u, v) for u, v in edges)


class TestOracle:
    def test_empty(self):
        assert matching_number_oracle(empty_graph(6)) == 0

    def test_single_edge(self):
        assert matching_number_oracle(from_edges(2, [(0, 1)])) == 1

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            matching_number_oracle(complete_graph(8))  # 28 edges

    @settings(max_examples=120, deadline=None)
    @given(sparse_graphs())
    def test_agrees_with_blossom(self, g):
        assert matching_number(g) == matching_number_oracle(g)


def seeded_graph(rng, n, p):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestMatchingNumbers:
    """The stacked subset DP up to order ``_SUBSET_DP_MAX_ORDER``, the
    blossom search above it."""

    def test_every_class_to_order_eight(self, classes_to_eight):
        assert len(classes_to_eight) == 13_599
        for n in range(9):
            classes = [g for g in classes_to_eight if g.n == n]
            assert matching_numbers(n, [g.rows for g in classes]).tolist() == [matching_number(g) for g in classes], n

    @pytest.mark.parametrize("n", range(16))
    def test_seeded_graphs_against_the_oracle(self, n, monkeypatch):
        from alphaspec import matching

        blossom = []
        real = matching.matching_number
        monkeypatch.setattr(matching, "matching_number", lambda g: blossom.append(g) or real(g))
        rng = random.Random(100 + n)
        graphs = [empty_graph(n), complete_graph(n)]
        while len(graphs) < 40:
            g = seeded_graph(rng, n, rng.choice((0.1, 0.3, 0.5)))
            if g.num_edges <= ORACLE_EDGE_CAP:
                graphs.append(g)
        expected = [0, n // 2] + [matching_number_oracle(g) for g in graphs[2:]]
        assert matching_numbers(n, [g.rows for g in graphs]).tolist() == expected
        assert len(blossom) == (len(graphs) if n > matching._SUBSET_DP_MAX_ORDER else 0)
        if complete_graph(n).num_edges <= ORACLE_EDGE_CAP:
            assert matching_number_oracle(complete_graph(n)) == n // 2

    @pytest.mark.parametrize("n", [0, 1, 5, 9, 10])
    def test_no_graphs(self, n):
        out = matching_numbers(n, [])
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("n", [0, 1])
    def test_orders_below_two_are_zero(self, n):
        assert matching_numbers(n, [empty_graph(n).rows] * 3).tolist() == [0, 0, 0]


class TestNeighborLists:
    """The blossom search's neighbour lists, read from the row bytes, are
    the ascending lists ``reference.neighbors`` gives."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 400])
    def test_equal_to_neighbors(self, n):
        from alphaspec.matching import _neighbor_lists

        rng = random.Random(n)
        for g in (empty_graph(n), complete_graph(n), seeded_graph(rng, n, 0.05), seeded_graph(rng, n, 0.5)):
            assert _neighbor_lists(n, g.rows) == [neighbors(g, v) for v in range(n)]

    def test_witness_records_unchanged(self, capsys, monkeypatch):
        from alphaspec import matching

        rng = random.Random(500)
        texts = [to_graph6(seeded_graph(rng, n, p / n)) for n in (10, 60, 200, 500) for p in (0.5, 1.5, 4)]

        def records():
            for text in texts:
                assert main(["matching", "--graph6", text, "--witness", "--format", "json-lines"]) == 0
            return capsys.readouterr().out.splitlines()

        ours = records()
        monkeypatch.setattr(matching, "_neighbor_lists", lambda n, rows: [_bits(r) for r in rows])
        assert ours == records()
        assert len(ours) == len(texts)


class TestTutteBerge:
    def test_star(self):
        w = tutte_berge_witness(star_graph(3))
        assert w.witness_set == (0,)
        assert (w.s, w.odd_components, w.beta, w.q) == (1, 3, 1, 3)

    def test_odd_clique_plus_isolates(self):
        w = tutte_berge_witness(disjoint_union(complete_graph(5), empty_graph(3)))
        assert w.witness_set == ()
        assert (w.s, w.odd_components, w.beta) == (0, 4, 2)

    def test_perfect_matching_deficiency_zero(self):
        w = tutte_berge_witness(complete_graph(4))
        assert (w.witness_set, w.odd_components, w.beta) == ((), 0, 2)

    def test_path_takes_the_middle_vertex(self):
        # A(P_3) is the middle vertex; the oracle's smallest-set tie rule
        # picks the empty set, of the same deficiency
        w = tutte_berge_witness(path_graph(3))
        assert (w.witness_set, w.s, w.odd_components, w.beta, w.q) == ((1,), 1, 2, 1, 2)
        assert tutte_berge_witness_oracle(path_graph(3)).witness_set == ()

    @pytest.mark.parametrize("n", [25, 40, 400])
    def test_seeded_gnp_above_the_oracle_cap(self, n):
        # sparse enough that some vertices stay exposed and A(G) is nonempty
        rng = random.Random(n)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n])
        w = tutte_berge_witness(g)
        assert w.beta == matching_number(g)
        assert w.q == w.odd_components == n + w.s - 2 * w.beta
        assert w.s > 0 and 2 * w.beta < n

    def test_consistency_random_n10(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.45])
            w = tutte_berge_witness(g)
            assert w.beta == matching_number(g)
            assert w.s <= w.beta


def gallai_edmonds_set(g):
    """A(G) = N(D) minus D from the definition: D holds the vertices v with
    beta(G - v) = beta(G), each beta by the blossom search."""
    beta = matching_number(g)
    d = set()
    for v in range(g.n):
        sub = from_edges(g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)])
        if matching_number(sub) == beta:
            d.add(v)
    return tuple(sorted({u for v in d for u in neighbors(g, v)} - d))


@pytest.fixture(scope="module")
def classes_to_eight():
    return [g for n in range(9) for g in isomorphism_classes(n)]


@pytest.fixture(scope="module")
def classes_to_seven(classes_to_eight):
    return [g for g in classes_to_eight if g.n < 8]


class TestWitnessOnEveryClass:
    def test_witness_is_the_gallai_edmonds_set(self, classes_to_seven):
        assert len(classes_to_seven) == 1253
        for g in classes_to_seven:
            assert tutte_berge_witness(g).witness_set == gallai_edmonds_set(g), g.rows

    def test_deficiency_is_the_oracle_minimum(self, classes_to_seven):
        for g in classes_to_seven:
            w, best = tutte_berge_witness(g), tutte_berge_witness_oracle(g)
            assert g.n + w.s - w.q == g.n + best.s - best.q, g.rows
            assert w.beta == best.beta, g.rows


class TestSearchState:
    """Every search on a graph shares one set of ``used``, ``parent`` and
    ``base`` arrays, and leaves them clean for the next."""

    GRAPHS = {
        "edgeless": empty_graph(50),
        "star": star_graph(49),
        "blossoms": from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]),
        "petersen": from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                               + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        "odd cliques": disjoint_union(complete_graph(5), disjoint_union(complete_graph(3), empty_graph(2))),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_one_state_per_graph(self, name, monkeypatch):
        from alphaspec import matching

        g = self.GRAPHS[name]
        states = []
        real = matching._search_state
        monkeypatch.setattr(matching, "_search_state", lambda n: states.append(real(n)) or states[-1])
        witness = tutte_berge_witness(g)
        assert len(states) == 1 and states[0] == real(g.n)
        assert witness.witness_set == gallai_edmonds_set(g)
        assert witness.beta == matching_number(g)

    def test_searches_leave_the_state_clean(self):
        from alphaspec.graphs import _bits
        from alphaspec.matching import _augment_from, _match, _search_state

        for g in isomorphism_classes(6):
            adj = [_bits(r) for r in g.rows]
            state = _search_state(g.n)
            match = _match(adj, state)
            assert state == _search_state(g.n)
            outer = set()
            for root in [v for v in range(g.n) if match[v] == -1]:
                assert _augment_from(root, adj, match, state, outer) is False
                assert state == _search_state(g.n)


def disjoint_triangles(n):
    return from_edges(n, [e for i in range(n // 3) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2))])


def benchmark_gnp():
    """The six seeded G(n, p) of the benchmark's ``graphs`` workload at seed 1."""
    rng = random.Random(1)
    out = []
    for n, p in ((160, 0.5), (200, 0.02), (240, 0.25), (280, 0.05), (320, 0.1), (400, 0.05)):
        out.append(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    return out


class TestBlossomContraction:
    """A contraction relabels only the blossom's vertices, in ascending
    order, so every matching and witness is the one the O(n) scan gave."""

    def test_same_matchings_as_the_full_scan(self, monkeypatch):
        from alphaspec import matching

        graphs = [g for n in range(1, 9) for g in isomorphism_classes(n)]
        graphs += benchmark_gnp() + [disjoint_triangles(3000)]
        assert len(graphs) == 13_598 + 7
        ours = [(maximum_matching(g), tutte_berge_witness(g)) for g in graphs]
        monkeypatch.setattr(matching, "_augment_from", augment_from_full_scan)
        assert ours == [(maximum_matching(g), tutte_berge_witness(g)) for g in graphs]

    def test_triangles_are_linear(self):
        # with the O(n) contraction 1,000 disjoint triangles took 0.18 s
        # and 3,000 took 1.85 s (2-core x86 host, Python 3.11); relabelling
        # only the blossom takes 0.012 and 0.05 s
        g = disjoint_triangles(9000)
        assert matching_number(g) == 3000
        assert tutte_berge_witness(g).witness_set == ()


class TestPerfectMatching:
    # a perfect matching covers every vertex: 2 * beta == n
    def test_even_clique(self):
        assert 2 * matching_number(complete_graph(4)) == 4

    def test_odd_order(self):
        assert 2 * matching_number(complete_graph(3)) < 3

    def test_even_cycle(self):
        assert 2 * matching_number(cycle_graph(6)) == 6


class TestMonotonicity:
    def test_edge_addition_never_decreases(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            g = from_edges(n, edges)
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not has_edge(g, u, v)]
            if not non_edges:
                continue
            extra = rng.choice(non_edges)
            assert matching_number(from_edges(n, edges + [extra])) >= matching_number(g)

    def test_vertex_removal_drops_at_most_one(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 9)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.4])
            beta = matching_number(g)
            v = rng.randrange(n)
            # G - v, the vertices above v shifted down by one
            sub = from_edges(n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)])
            assert beta - 1 <= matching_number(sub) <= beta


class TestFamilyAgreement:
    def test_one_big_clique_families(self):
        for beta in range(1, 4):
            for s in range(0, beta + 1):
                for n in range(2 * beta + 1, 2 * beta + 6):
                    q = n + s - 2 * beta
                    parts = tuple(sorted([1] * (q - 1) + [2 * beta - 2 * s + 1]))
                    fam = JoinFamily.of_parts(s, parts)
                    assert matching_number(fam.graph()) == beta

    def test_complete_split(self):
        for beta in range(1, 5):
            for n in range(2 * beta, 2 * beta + 5):
                assert matching_number(join(complete_graph(beta), empty_graph(n - beta))) == beta
