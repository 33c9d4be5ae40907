import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspec import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    has_perfect_matching,
    matching_number,
    matching_number_oracle,
    maximum_matching,
    path_graph,
    star_graph,
    tutte_berge_witness,
)
from alphaspec.spectral import JoinFamily, complete_split_graph


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
            assert all(g.has_edge(u, v) for u, v in edges)


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

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            tutte_berge_witness(empty_graph(25))

    def test_consistency_random_n10(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.45])
            w = tutte_berge_witness(g)
            assert w.beta == matching_number(g)
            assert w.s <= w.beta


class TestPerfectMatching:
    def test_even_clique(self):
        assert has_perfect_matching(complete_graph(4))

    def test_odd_order(self):
        assert not has_perfect_matching(complete_graph(3))

    def test_even_cycle(self):
        assert has_perfect_matching(cycle_graph(6))


class TestMonotonicity:
    def test_edge_addition_never_decreases(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            g = from_edges(n, edges)
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not g.has_edge(u, v)]
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
            from alphaspec import induced_subgraph

            sub = induced_subgraph(g, [u for u in range(n) if u != v])
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
                assert matching_number(complete_split_graph(n, beta)) == beta
