import hashlib
import multiprocessing
import os
import random

import numpy as np
import pytest

from alphaspec import (
    KNOWN_CLASS_COUNTS,
    Graph,
    canonical_graph,
    complement,
    complete_graph,
    empty_graph,
    from_edges,
    isomorphism_classes,
    join,
    to_graph6,
)
from reference import (
    are_isomorphic,
    canonical_rows_oracle,
    cycle_graph,
    disjoint_union,
    extend_level_all_masks,
    ordering_search,
    path_graph,
    twin_ids,
    wl_colors,
)


def relabel(g, perm):
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return from_edges(g.n, edges)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.5])
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_graph(g) == canonical_graph(relabel(g, perm))

    def test_distinguishes_nonisomorphic(self):
        assert canonical_graph(path_graph(4)) != canonical_graph(star_like())
        assert canonical_graph(cycle_graph(6)) != canonical_graph(
            disjoint_union(cycle_graph(3), cycle_graph(3))
        )

    def test_canonical_graph_is_isomorphic_fixed_point(self):
        g = from_edges(6, [(0, 2), (2, 4), (4, 0), (1, 3)])
        c = canonical_graph(g)
        assert are_isomorphic(g, c)
        assert canonical_graph(c) == c

    def test_canonical_graph_equals_the_validating_constructor(self):
        # canonical_graph skips Graph.__post_init__: its rows, from every
        # class of order <= 7 and from their complements (whose canonical
        # graphs the search complements), must pass the validating
        # constructor unchanged
        for n in range(8):
            for g in isomorphism_classes(n):
                for h in (g, complement(g)):
                    built = canonical_graph(h)
                    assert built == Graph(n, built.rows)
                    assert are_isomorphic(built, h)

    def test_symmetric_worst_cases_terminate(self):
        for g in (complete_graph(8), empty_graph(8),
                  join(complete_graph(4), empty_graph(4)),
                  disjoint_union(complete_graph(4), complete_graph(4)),
                  cycle_graph(8)):
            assert are_isomorphic(g, canonical_graph(g))


class TestCertificateDefinition:
    # the certificates are the canonical graphs: these pin them to the
    # definition by an exhaustive oracle, apart from the search itself
    @pytest.mark.parametrize("n", range(7))
    def test_canonical_graph_equals_the_oracle(self, n):
        rng = random.Random(200 + n)
        for g in isomorphism_classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                assert canonical_graph(h).rows == canonical_rows_oracle(h), to_graph6(h)

    @pytest.mark.parametrize("n", range(8))
    def test_every_class_is_its_own_canonical_graph(self, n):
        for g in isomorphism_classes(n):
            assert canonical_graph(g) == g, to_graph6(g)


def star_like():
    return from_edges(4, [(0, 1), (0, 2), (0, 3)])


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_known_counts(self, n, count):
        assert len(isomorphism_classes(n)) == count

    def test_order_seven(self):
        assert len(isomorphism_classes(7)) == KNOWN_CLASS_COUNTS[7] == 1044

    def test_classes_are_pairwise_nonisomorphic(self):
        classes = isomorphism_classes(5)
        keys = {canonical_graph(g) for g in classes}
        assert len(keys) == len(classes)

    def test_every_small_graph_is_represented(self):
        rng = random.Random(43)
        keys = {canonical_graph(g) for g in isomorphism_classes(5)}
        for _ in range(50):
            g = from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                               if rng.random() < 0.5])
            assert canonical_graph(g) in keys

    def test_cap_error_without_file(self):
        with pytest.raises(ValueError):
            isomorphism_classes(9)


def all_masks_levels(top):
    """Reference generator: each class of order n-1 extended by a new vertex
    with every neighbourhood, deduplicated by canonical graph (each level's
    children one batch), its rows sorted."""
    from alphaspec.enumeration import _canonical_forms

    levels = {0: [()]}
    for n in range(1, top + 1):
        children = (
            tuple([r | (((mask >> v) & 1) << (n - 1)) for v, r in enumerate(prows)] + [mask])
            for prows in levels[n - 1]
            for mask in range(1 << (n - 1))
        )
        levels[n] = sorted(set(_canonical_forms(n, children)))
    return levels


@pytest.fixture(scope="module")
def reference_levels():
    return all_masks_levels(7)


class TestAgainstAllMasks:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_levels_equal_reference(self, reference_levels, monkeypatch, jobs):
        from alphaspec import enumeration

        # jobs=2 must be accepted on a 1-CPU host too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(enumeration, "_LEVELS", {0: np.zeros((1, 0), dtype=np.uint16)})
        # a smaller budget shards orders 6 and 7 as order 8 is sharded
        monkeypatch.setattr(enumeration, "CANONICAL_BATCH_ENTRIES", 1 << 14)
        isomorphism_classes(7, jobs=jobs)
        for n in range(1, 8):
            assert list(map(tuple, enumeration._LEVELS[n].tolist())) == reference_levels[n], n


def level_sha256(level):
    """SHA-256 of a census level: one line per class, its bit rows as
    decimal integers joined by spaces, the lines in ``_LEVELS`` order."""
    text = "\n".join(" ".join(str(r) for r in rows) for rows in level)
    return hashlib.sha256(text.encode()).hexdigest()


# Pinned hashes of the census levels.  The all-masks reference above
# derives its levels from the same canonical search, so it would follow
# a consistent change of the canonical form; these pin the form itself,
# and with it every printed certificate.
LEVEL_SHA256 = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "07cc935b65c3c311616d15c4320292d857eac4689e9d9094e665cfeb1bf33411",
    3: "3d983f8fc30a3e92ddfea17a26a3c38b211e98ac1d7fddac2718d2d1474a1a07",
    4: "6880ea1404ea9bb0dfda3f6d15dc2b1b6dd082c3d2b90b60072ed39656cf8736",
    5: "d4debf9ca6cb07536a6ca1e0df5e37f3c1dfb2f181dd2d1b52d8be42c53d8e58",
    6: "47977fe763800f4b19f47028792dd4d7f450266c3fc469bec724cf37b8fdf853",
    7: "115c45fcf76d81410a196138d73af04451572db69b1935831c700cacbff8d76c",
    8: "f314f298f7c21768fe9142b2acd1aed405ccc441fc3179397311ae00b2a840d3",
}


class TestCensusFingerprint:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_levels_match_pinned_hashes(self, monkeypatch, jobs):
        from alphaspec import enumeration

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(enumeration, "_LEVELS", {0: np.zeros((1, 0), dtype=np.uint16)})
        isomorphism_classes(8, jobs=jobs)
        assert {n: level_sha256(enumeration._LEVELS[n]) for n in range(9)} == LEVEL_SHA256

    def test_levels_are_word_arrays(self):
        # one uint16 row word per vertex, one row per class
        from alphaspec import enumeration

        isomorphism_classes(8)
        for n in range(9):
            level = enumeration._LEVELS[n]
            assert level.dtype == np.uint16 and level.shape == (KNOWN_CLASS_COUNTS[n], n), n


def random_graph(rng, n, p):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def order70_graphs():
    """The two order-70 graphs of the graph6 test in test_verify.py, rows
    wider than int64, and a dense one."""
    rng = random.Random(70)
    sparse = random_graph(rng, 70, 0.03)
    cliques = disjoint_union(complete_graph(5), disjoint_union(cycle_graph(7), empty_graph(58)))
    return [sparse, cliques, random_graph(random.Random(71), 70, 0.5)]


class TestBatchedRefinement:
    # the batch's colors and twin classes against the one-graph oracles
    # they replaced: sorted neighbor-color tuples and the pairwise sweep
    @staticmethod
    def assert_batch_equals_oracles(n, graphs):
        from alphaspec.enumeration import _refined_colors, _twin_classes
        from alphaspec.graphs import bit_matrices

        mats = bit_matrices(n, [g.rows for g in graphs])
        assert _refined_colors(mats).tolist() == [wl_colors(n, g.rows) for g in graphs]
        assert _twin_classes(mats).tolist() == [twin_ids(n, g.rows) for g in graphs]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_census_classes_and_relabelled_copies(self, n):
        rng = random.Random(300 + n)
        graphs = []
        for g in isomorphism_classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
        self.assert_batch_equals_oracles(n, graphs)

    @pytest.mark.parametrize("n", range(9, 21))
    def test_random_graphs(self, n):
        # from order 14 on a count vector takes two base-n digits
        rng = random.Random(900 + n)
        graphs = [random_graph(rng, n, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(4)]
        graphs += [disjoint_union(complete_graph(n // 3), empty_graph(n - n // 3)),
                   join(empty_graph(n // 2), complete_graph(n - n // 2))]
        self.assert_batch_equals_oracles(n, graphs)

    @pytest.mark.parametrize("n", [9, 12, 17, 20])
    def test_many_refinement_rounds(self, n):
        # the degrees give a path two colors, and each round splits one
        # more off from its ends inwards up to ceil(n/2): at n >= 9 that
        # is three or more rounds that change the colors
        from alphaspec.enumeration import _refined_colors

        tail = disjoint_union(path_graph(n - 4), complete_graph(4))
        tail = from_edges(n, list(tail.edges()) + [(n - 5, n - 4)])
        graphs = [path_graph(n), tail, cycle_graph(n)]
        self.assert_batch_equals_oracles(n, graphs)
        assert len(set(_refined_colors(path_graph(n).bit_matrix()[None]).ravel().tolist())) == (n + 1) // 2

    def test_rows_wider_than_int64(self):
        rng = random.Random(72)
        graphs = order70_graphs()
        for g in list(graphs):
            perm = list(range(70))
            rng.shuffle(perm)
            graphs.append(relabel(g, perm))
        self.assert_batch_equals_oracles(70, graphs)


class TestBatchedSearch:
    # the batched ordering search against the recursive one-graph search
    # it replaced: the same places, with each depth's frontier in one
    # piece and again cut into pieces of ``split`` expansions (every set
    # below splits but the census classes of order 3 or less, which have
    # too few orderings)
    @staticmethod
    def assert_search_equals_oracle(monkeypatch, n, graphs, split):
        from alphaspec import enumeration
        from alphaspec.enumeration import _canonical_forms, _ordering_search, _refined_colors
        from alphaspec.graphs import bit_matrices

        searched = [complement(g) if edge_excess(g) > 0 else g for g in graphs]
        places, forms = [], []
        for g, h in zip(graphs, searched):
            place = ordering_search(n, h.rows, wl_colors(n, h.rows), twin_ids(n, h.rows))
            canon = relabel(h, place)
            places.append(place)
            forms.append((complement(canon) if h is not g else canon).rows)
        assert list(_canonical_forms(n, [g.rows for g in graphs])) == forms
        mats = bit_matrices(n, [h.rows for h in searched])
        for entries in (enumeration.CANONICAL_BATCH_ENTRIES, split * n):
            monkeypatch.setattr(enumeration, "CANONICAL_BATCH_ENTRIES", entries)
            assert _ordering_search(mats, _refined_colors(mats)).tolist() == places

    @pytest.mark.parametrize("n", range(1, 9))
    def test_census_classes_and_relabelled_copies(self, monkeypatch, n):
        rng = random.Random(500 + n)
        graphs = []
        for g in isomorphism_classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
        self.assert_search_equals_oracle(monkeypatch, n, graphs, 256 if n == 8 else 4)

    @pytest.mark.parametrize("n", range(9, 17))
    def test_random_graphs(self, monkeypatch, n):
        rng = random.Random(1600 + n)
        graphs = [random_graph(rng, n, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(3)]
        self.assert_search_equals_oracle(monkeypatch, n, graphs, 4)

    @pytest.mark.parametrize("n", range(9, 15))
    def test_cycles(self, monkeypatch, n):
        # one color and no twins: the tied prefixes multiply with depth
        perm = list(range(n))
        random.Random(n).shuffle(perm)
        self.assert_search_equals_oracle(monkeypatch, n, [cycle_graph(n), relabel(cycle_graph(n), perm)], 256)

    def test_rows_wider_than_int64(self, monkeypatch):
        rng = random.Random(73)
        graphs = order70_graphs()
        for g in list(graphs):
            perm = list(range(70))
            rng.shuffle(perm)
            graphs.append(relabel(g, perm))
        self.assert_search_equals_oracle(monkeypatch, 70, graphs, 4)

    def test_pieces_bound_the_memory(self):
        # C_15 has one color and no twins, so its tied prefixes multiply
        # with depth: its frontier expanded in one piece a depth peaks at
        # about 55 MB, the pieces of CANONICAL_BATCH_ENTRIES // 15
        # expansions at about 2 MB
        import tracemalloc

        tracemalloc.start()
        try:
            canonical_graph(cycle_graph(15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestCanonicalBatch:
    def test_batch_equals_one_graph_at_a_time(self, monkeypatch):
        from alphaspec import enumeration

        rng = random.Random(44)
        for n in (9, 13, 20, 70):
            graphs = order70_graphs() if n == 70 else [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8)]
            rows_list = []
            for g in graphs:
                perm = list(range(n))
                rng.shuffle(perm)
                rows_list += [g.rows, relabel(g, perm).rows, complement(g).rows]
            alone = [next(enumeration._canonical_forms(n, [rows])) for rows in rows_list]
            assert list(enumeration._canonical_forms(n, rows_list)) == alone
            for i in range(0, len(rows_list), 3):
                assert alone[i] == alone[i + 1]
            # slices of two graphs each give the same forms
            monkeypatch.setattr(enumeration, "CANONICAL_BATCH_ENTRIES", 2 * n * n)
            assert list(enumeration._canonical_forms(n, iter(rows_list))) == alone
            monkeypatch.undo()


class TestOrbitPruning:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_extend_level_equals_all_masks(self, n):
        from alphaspec.enumeration import _extend_level, _half_edges

        parents = [g.rows for g in isomorphism_classes(n - 1) if g.num_edges <= _half_edges(n - 1)]
        assert set(map(tuple, _extend_level(parents, n).tolist())) == extend_level_all_masks(parents, n)

    def test_one_child_per_orbit(self, monkeypatch):
        # the edgeless parent of order 4: its group S_4 has one orbit per
        # mask size on the 16 masks, and each gives its own star plus
        # isolated vertices, so 5 children are tried, not 16
        from alphaspec import enumeration

        seen = []
        real = enumeration._canonical_matrices

        def recording(mats):
            seen.extend([mats.shape[1]] * len(mats))
            return real(mats)

        monkeypatch.setattr(enumeration, "_canonical_matrices", recording)
        forms = set(map(tuple, enumeration._extend_level([empty_graph(4).rows], 5).tolist()))
        assert seen.count(5) == len(forms) == 5

    def test_twin_prefix_masks_of_a_cycle(self):
        # C_4 plus an isolated vertex: twin classes {0, 2}, {1, 3} and
        # {4}, and the rotations of C_4 are automorphisms but not twin
        # swaps.  Only masks of size 3 pass the max-degree test (the
        # cycle has degree 2, and a lower-half child of order 6 has room
        # for 3 more edges); five of them meet each twin class in its
        # lowest members, in three orbits of the whole group
        from alphaspec.enumeration import _children, _extend_level, _half_edges

        parent = disjoint_union(cycle_graph(4), empty_graph(1))
        n = 6
        twin = twin_ids(5, parent.rows)
        classes = [[v for v in range(5) if twin[v] == t] for t in sorted(set(twin))]
        degrees = parent.degrees()
        top = max(degrees)
        room = _half_edges(n) - parent.num_edges
        expected = []
        for mask in range(1 << 5):
            k = mask.bit_count()
            if k < top or k > room or (k == top and any(mask >> v & 1 for v in range(5) if degrees[v] == top)):
                continue
            if all(all(mask >> u & 1 for u in c[: sum(mask >> v & 1 for v in c)]) for c in classes):
                expected.append(mask)
        assert expected == [0b00111, 0b01011, 0b10011, 0b10101, 0b11010]
        assert [rows[-1] for rows in _children([parent.rows], n)] == expected
        assert set(map(tuple, _extend_level([parent.rows], n).tolist())) == extend_level_all_masks([parent.rows], n)


def edge_excess(g):
    """2m - M: positive exactly for the upper half."""
    return 2 * g.num_edges - g.n * (g.n - 1) // 2


class TestComplementClosedForm:
    # a graph with 2m > M takes the complement of its complement's
    # canonical graph, so the census's upper half is the complements of
    # its lower half
    @pytest.mark.parametrize("n", range(8))
    def test_form_of_complement_is_complement_of_form(self, n):
        for g in isomorphism_classes(n):
            if edge_excess(g) != 0:
                assert canonical_graph(complement(g)) == complement(canonical_graph(g)), to_graph6(g)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_upper_half_keys_survive_relabeling(self, n):
        rng = random.Random(100 + n)
        for g in isomorphism_classes(n):
            if edge_excess(g) > 0:
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_graph(relabel(g, perm)) == canonical_graph(g), to_graph6(g)

    def test_build_searches_no_upper_half_graph(self, monkeypatch):
        # building order 8 from order 7: 12,992 children, not the 5,350
        # complements more the build ran before
        from alphaspec import enumeration

        isomorphism_classes(7)
        monkeypatch.setattr(enumeration, "_LEVELS", {n: enumeration._LEVELS[n] for n in range(8)})
        excess = []
        real = enumeration._canonical_matrices

        def recording(mats):
            n = mats.shape[1]
            excess.extend((mats.sum(axis=(1, 2), dtype=np.int64) - n * (n - 1) // 2).tolist())
            return real(mats)

        monkeypatch.setattr(enumeration, "_canonical_matrices", recording)
        assert len(isomorphism_classes(8)) == 12346
        assert len(excess) == 12992
        assert max(excess) <= 0


class TestPoolGuard:
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        from alphaspec import enumeration

        requested = []

        def refuse(*args, **kwargs):
            requested.append(args)
            raise AssertionError("a worker pool was requested")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        # force a rebuild of order 6, sharded under a smaller budget, so
        # an unchecked count would reach the pool
        monkeypatch.delitem(enumeration._LEVELS, 6, raising=False)
        monkeypatch.setattr(enumeration, "CANONICAL_BATCH_ENTRIES", 1 << 14)
        self.requested = requested

    @pytest.mark.parametrize("excess", [1, 7])
    def test_above_cpu_count_rejected(self, excess):
        jobs = (os.cpu_count() or 1) + excess
        with pytest.raises(ValueError, match="jobs must be between 1 and"):
            isomorphism_classes(6, jobs=jobs)
        assert self.requested == []

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be between 1 and"):
            isomorphism_classes(6, jobs=jobs)
        assert self.requested == []

    def test_checked_when_order_already_built(self):
        isomorphism_classes(5)
        with pytest.raises(ValueError, match="jobs"):
            isomorphism_classes(5, jobs=0)

    def test_helper_checks_count(self):
        from alphaspec.enumeration import map_chunks

        with pytest.raises(ValueError, match="jobs"):
            map_chunks(sorted, [list(range(100))] * 2, (os.cpu_count() or 1) + 1)
        assert map_chunks(sorted, [[3, 1, 2]], 1) == [[1, 2, 3]]
        assert self.requested == []


class TestBuildShards:
    def test_pool_only_where_children_exceed_a_batch(self, monkeypatch):
        from alphaspec import enumeration

        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was requested")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(enumeration, "_LEVELS", {0: np.zeros((1, 0), dtype=np.uint16)})
        assert len(isomorphism_classes(7, jobs=2)) == 1044
        # order 8's children, 4,276,224 matrix entries, still shard
        with pytest.raises(AssertionError, match="worker pool"):
            isomorphism_classes(8, jobs=2)


class TestGraph6Certificates:
    def test_representatives_round_trip(self):
        from alphaspec import parse_graph6

        for g in isomorphism_classes(6)[:40]:
            assert parse_graph6(to_graph6(g)) == g
