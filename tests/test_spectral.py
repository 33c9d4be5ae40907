import functools
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspec import (
    FamilyBatch,
    Graph,
    JoinFamily,
    as_fraction,
    candidate_families,
    case2_applicable,
    classify_regime,
    complete_graph,
    empty_graph,
    family_count,
    family_radius,
    family_search,
    from_edges,
    isomorphism_classes,
    join,
    one_clique_family,
    spectral_radii,
    spectral_radius,
    to_graph6,
)
from alphaspec import spectral, theorem
from alphaspec.graphs import _bits, bit_matrices, row_component_masks, stack_rows
from alphaspec.spectral import (
    _FLOOR_MARGIN,
    DEFAULT_TOL,
    SpectralResult,
    _below_floor,
    _secular_roots,
    _secular_terms,
    alpha_matrices,
)
from alphaspec.theorem import case2_region_bounds
from alphaspec.verify import _candidate_batches
from reference import (
    case2_probe,
    closed_form_complete_split,
    component_groups_walk,
    cubic_f,
    cycle_graph,
    disjoint_union,
    eigh_spectral_radius,
    has_edge,
    path_graph,
    secular_value_exact,
    shift_function_f,
    spectral_radius_oracle,
    split_graph_quadratic,
    star_graph,
)

SQRT3 = math.sqrt(3.0)
# Allowed gap, in units of the reference's last place, between a family
# radius and the top ``eigvalsh`` eigenvalue of its quotient: at most 8
# over every core candidate of (64, 24) at alpha in {0, 1/2, 1, 2}, and
# the gap is the eigensolver's rounding (the secular root was within
# half a unit of the exact root on the widest gaps checked).
ORACLE_ULPS = 8


def random_connected(rng, n, p=0.4):
    while True:
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])
        if len(row_component_masks(n, g.rows)) == 1:
            return g


class TestAlphaMatrix:
    def test_k2_adjacency(self):
        assert np.array_equal(alpha_matrices(2, [complete_graph(2).rows], 0.0)[0], [[0, 1], [1, 0]])

    def test_k2_signless_laplacian(self):
        assert np.array_equal(alpha_matrices(2, [complete_graph(2).rows], 1.0)[0], [[1, 1], [1, 1]])

    def test_edgeless_is_zero(self):
        assert not alpha_matrices(3, [empty_graph(3).rows], 2.5)[0].any()

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            alpha_matrices(2, [complete_graph(2).rows], -0.1)


P4 = path_graph(4)
CLIQUE_SHAPED = one_clique_family(10, 3, 0)
# each entry of the module that takes an alpha, on a fixed graph or family
ALPHA_ENTRIES = {
    "spectral_radius": lambda alpha: spectral_radius(P4, alpha),
    "spectral_radii": lambda alpha: spectral_radii(4, [P4.rows], alpha),
    "alpha_matrices": lambda alpha: alpha_matrices(4, [P4.rows], alpha),
    "family_radius": lambda alpha: family_radius(one_clique_family(12, 4, 2), alpha),
    "family_radius_clique": lambda alpha: family_radius(CLIQUE_SHAPED, alpha),
    "family_radius_batch": lambda alpha: family_radius(FamilyBatch.of(CLIQUE_SHAPED), alpha),
}


class TestAlphaCheck:
    # ``as_fraction`` is the one check of an alpha; the numerics take
    # its float
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ALPHA_ENTRIES)
    def test_non_finite_refused_before_any_matrix(self, entry, alpha, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a matrix or solved at a non-finite alpha")

        for name in ("bit_matrices", "_secular_terms"):
            monkeypatch.setattr(spectral, name, unreachable)
        with pytest.raises(ValueError, match="alpha must be finite"):
            ALPHA_ENTRIES[entry](alpha)

    @pytest.mark.parametrize(
        "alpha, value",
        [(np.float32(0.5), 0.5), (np.int64(2), 2.0), ("1/2", 0.5), (Fraction(1, 3), 1 / 3)],
        ids=["float32", "int64", "string", "fraction"],
    )
    @pytest.mark.parametrize("entry", ALPHA_ENTRIES)
    def test_accepted_types_give_the_float_radii(self, entry, alpha, value):
        same = ALPHA_ENTRIES[entry](alpha), ALPHA_ENTRIES[entry](value)
        if isinstance(same[0], np.ndarray):
            assert np.array_equal(*same)
        else:
            assert same[0] == same[1]

    def test_exact_views(self):
        assert as_fraction(0.1) == Fraction(0.1)
        assert as_fraction(np.float32(0.1)) == Fraction(float(np.float32(0.1)))
        assert as_fraction("1/2") == Fraction(1, 2) and as_fraction(np.int64(3)) == 3
        assert theorem.as_fraction is spectral.as_fraction is as_fraction
        with pytest.raises(ValueError, match="alpha must be nonnegative, got -1/2"):
            as_fraction("-1/2")


class TestSpectralRadius:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete(self, n, alpha):
        assert spectral_radius(complete_graph(n), alpha).rho == pytest.approx(
            (alpha + 1) * (n - 1), abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    def test_edgeless(self, alpha):
        assert spectral_radius(empty_graph(6), alpha).rho == 0.0

    def test_star_adjacency(self):
        assert spectral_radius(star_graph(3), 0.0).rho == pytest.approx(SQRT3, abs=1e-10)

    def test_residual_contract(self):
        result = spectral_radius(cycle_graph(7), 0.5, tol=1e-11)
        assert result.residual <= 1e-11
        assert max(abs(x) for x in result.perron_vector) == pytest.approx(1.0)
        assert all(x > 0 for x in result.perron_vector)

    def test_disconnected_takes_max_component(self):
        g = disjoint_union(complete_graph(4), cycle_graph(5))
        result = spectral_radius(g, 0.0)
        assert result.rho == pytest.approx(3.0, abs=1e-9)
        assert result.component == (0, 1, 2, 3)
        assert len(result.perron_vector) == 4

    def test_singleton_vector_rules(self):
        assert spectral_radius(empty_graph(1), 0.0).perron_vector is None
        assert spectral_radius(empty_graph(1), 1.0).perron_vector == (1.0,)

    def test_order_zero(self):
        assert spectral_radius(empty_graph(0), 1.0).rho == 0.0

    def test_residual_above_tol_raises(self):
        # no float eigenpair of P_6 has a residual below 1e-300
        with pytest.raises(ValueError, match="residual"):
            spectral_radius(path_graph(6), 0.0, tol=1e-300)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            spectral_radius(complete_graph(2), -1.0)
        with pytest.raises(ValueError):
            spectral_radius(complete_graph(2), 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN or infinite tolerance would pass any residual
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            spectral_radius(path_graph(6), 1e6, tol=tol)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            spectral_radii(6, [path_graph(6).rows], 1e6, tol=tol)


def component_loop_spectral_radius(g, alpha, tol=1e-10):
    """``spectral_radius`` as one ``_top_eigenpairs`` call per component
    block, the reference that the stacked solves must match bit for bit."""
    if g.n == 0:
        return SpectralResult(0.0, None, (), 0.0)
    mat = g.bit_matrix().astype(float)
    mat[np.diag_indices(g.n)] = alpha * mat.sum(axis=1)
    best = None
    for mask in row_component_masks(g.n, g.rows):
        verts = tuple(_bits(mask))
        if len(verts) == 1:
            cand = SpectralResult(0.0, (1.0,) if alpha > 0 else None, verts, 0.0)
        else:
            block = mat[np.ix_(verts, verts)]
            rho, vectors, residual = spectral._top_eigenpairs(block[None], tol)
            lam, x, res = float(rho[0]), vectors[0], float(residual[0])
            if res > tol:
                raise ValueError(f"eigenpair residual {res:.3e} exceeds tolerance {tol:g}")
            cand = SpectralResult(lam, tuple(x.tolist()), verts, res)
        if best is None or cand.rho > best.rho:
            best = cand
    return best


def hex_list(values):
    return [float(v).hex() for v in values]


class TestSpectralRadii:
    """``spectral_radii`` stacks the component blocks of many graphs; its
    radii must be the batch-of-one radii bit for bit."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(8))
    def test_every_class_up_to_seven(self, n, alpha):
        classes = isomorphism_classes(n)
        radii = spectral_radii(n, [g.rows for g in classes], alpha)
        assert radii.shape == (len(classes),) and radii.dtype == np.float64
        assert hex_list(radii) == hex_list(spectral_radius(g, alpha).rho for g in classes)
        assert hex_list(radii) == hex_list(component_loop_spectral_radius(g, alpha).rho for g in classes)

    def test_every_class_of_order_eight(self):
        classes = isomorphism_classes(8)
        radii = spectral_radii(8, [g.rows for g in classes], 1.0)
        assert len(radii) == 12346
        assert hex_list(radii) == hex_list(spectral_radius(g, 1.0).rho for g in classes)

    DISCONNECTED = {
        "isolated vertices": disjoint_union(empty_graph(2), disjoint_union(cycle_graph(5), empty_graph(1))),
        "edgeless": empty_graph(6),
        "two equal cycles": disjoint_union(cycle_graph(5), cycle_graph(5)),
        "path then triangle": disjoint_union(path_graph(3), complete_graph(3)),
        "triangle then path": disjoint_union(complete_graph(3), path_graph(3)),
        "single vertex": empty_graph(1),
        "order zero": empty_graph(0),
    }

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("name", sorted(DISCONNECTED))
    def test_disconnected(self, name, alpha):
        g = self.DISCONNECTED[name]
        expected = component_loop_spectral_radius(g, alpha)
        assert spectral_radius(g, alpha) == expected
        radii = spectral_radii(g.n, [g.rows, g.rows], alpha)
        assert hex_list(radii) == [expected.rho.hex()] * 2

    def test_disconnected_winners(self):
        # the first component attaining the maximum is reported
        assert spectral_radius(self.DISCONNECTED["two equal cycles"], 1.0).component == (0, 1, 2, 3, 4)
        assert spectral_radius(self.DISCONNECTED["path then triangle"], 0.0).component == (3, 4, 5)
        assert spectral_radius(self.DISCONNECTED["isolated vertices"], 0.0).component == (2, 3, 4, 5, 6)
        assert spectral_radius(self.DISCONNECTED["edgeless"], 1.0).component == (0,)

    def test_mixed_component_sizes_in_one_batch(self):
        k2 = complete_graph(2)
        graphs = [
            empty_graph(6),
            disjoint_union(complete_graph(3), path_graph(3)),
            cycle_graph(6),
            disjoint_union(k2, disjoint_union(k2, k2)),
            disjoint_union(empty_graph(2), complete_graph(4)),
        ]
        radii = spectral_radii(6, [g.rows for g in graphs], 0.5)
        assert hex_list(radii) == hex_list(spectral_radius(g, 0.5).rho for g in graphs)

    def test_empty_batches(self):
        assert spectral_radii(0, [(), ()], 1.0).tolist() == [0.0, 0.0]
        assert spectral_radii(1, [(0,)], 1.0).tolist() == [0.0]
        assert spectral_radii(5, [], 1.0).shape == (0,)

    def test_rows_wider_than_int64(self):
        rng = random.Random(70)
        graphs = [from_edges(70, [(u, v) for u in range(70) for v in range(u + 1, 70) if rng.random() < p])
                  for p in (0.03, 0.3)]
        radii = spectral_radii(70, [g.rows for g in graphs], 2.0)
        assert hex_list(radii) == hex_list(component_loop_spectral_radius(g, 2.0).rho for g in graphs)

    def test_residual_above_tol_raises(self):
        # no float eigenpair has a residual below 1e-300
        with pytest.raises(ValueError, match=r"^eigenpair residual .* exceeds tolerance 1e-300$") as err:
            spectral_radii(6, [path_graph(6).rows], 0.0, tol=1e-300)
        with pytest.raises(ValueError) as ref:
            component_loop_spectral_radius(path_graph(6), 0.0, tol=1e-300)
        assert str(err.value) == str(ref.value)

    def test_residual_names_the_first_failing_block(self):
        classes = isomorphism_classes(5)
        for tol in (1e-300, 1e-15):
            with pytest.raises(ValueError) as ref:
                for g in classes:
                    component_loop_spectral_radius(g, 1.0, tol=tol)
            with pytest.raises(ValueError) as err:
                spectral_radii(5, [g.rows for g in classes], 1.0, tol=tol)
            assert str(err.value) == str(ref.value)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            spectral_radii(2, [complete_graph(2).rows], -1.0)
        with pytest.raises(ValueError):
            spectral_radii(2, [complete_graph(2).rows], 1.0, tol=0.0)


def solved_groups(n, rows_list):
    """The (owner, verts) of the blocks ``spectral._solve_components`` solves,
    by block size."""
    return {b.verts.shape[1]: (b.owner, b.verts) for b in spectral._solve_components(n, rows_list, 1.0, DEFAULT_TOL)}


def assert_same_groups(got, want):
    # the sizes, and per size the owners and vertices of every block in
    # walk order; the solves of different sizes are independent
    assert sorted(got) == sorted(want)
    for k, (owner, verts) in want.items():
        assert got[k][0].tolist() == owner.tolist(), k
        assert got[k][1].tolist() == verts.tolist(), k


def threshold_graph(rng, n, shape):
    """A seeded graph of order n, relabelled at random: edgeless, disjoint
    cliques of 1 to 6 vertices (isolated vertices among them), a path
    (the longest distance a closure must cover), G(n, 1/n) or G(n, 0.3)."""
    if shape == "edgeless":
        return empty_graph(n)
    order = list(range(n))
    rng.shuffle(order)
    if shape == "path":
        return from_edges(n, zip(order, order[1:]))
    if shape == "cliques":
        edges, start = [], 0
        while start < n:
            part = order[start : start + rng.randint(1, 6)]
            edges += itertools.combinations(part, 2)
            start += len(part)
        return from_edges(n, edges)
    p = 1 / n if shape == "sparse" else 0.3
    return from_edges(n, [(order[u], order[v]) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestComponentGroups:
    """The census's blocks come from the reachability closure of the whole
    slice; they must be the blocks of one bit walk per graph, the oracle."""

    @pytest.mark.parametrize("n", range(9))
    def test_closure_blocks_of_every_class(self, n):
        from alphaspec import enumeration

        isomorphism_classes(n)
        level = enumeration._LEVELS[n]
        want = component_groups_walk(n, [tuple(rows) for rows in level.tolist()])
        mats = bit_matrices(n, level)
        if n:
            assert_same_groups(spectral._component_groups(spectral._closure_labels(mats)), want)
        assert_same_groups(solved_groups(n, level), want)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([spectral._CLOSURE_MAX_ORDER, spectral._CLOSURE_MAX_ORDER + 1]),
        st.sampled_from(["edgeless", "cliques", "path", "sparse", "dense"]),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_at_and_above_the_threshold(self, n, shape, seed):
        # the closure at the threshold order, the walk one order above
        rng = random.Random(seed)
        rows_list = [threshold_graph(rng, n, shape).rows for _ in range(3)]
        want = component_groups_walk(n, rows_list)
        if shape == "edgeless":
            assert want == {}
        assert_same_groups(solved_groups(n, rows_list), want)
        assert_same_groups(solved_groups(n, stack_rows(n, rows_list)), want)

    @pytest.mark.parametrize("n", [2, 8, 16, 17, 32])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_one_graph_takes_the_walk(self, n, alpha, monkeypatch):
        # a batch of one, as bit rows or as a word array, is grouped by
        # the walk and gets the radius it has in a closure batch, bit for bit
        rng = random.Random(n)
        graphs = [threshold_graph(rng, n, shape) for shape in ("cliques", "path", "sparse", "dense")]
        batched = spectral_radii(n, [g.rows for g in graphs], alpha)

        def refuse(*args, **kwargs):
            raise AssertionError("a batch of one must not take the closure")

        monkeypatch.setattr(spectral, "_closure_labels", refuse)
        for g, rho in zip(graphs, batched.tolist()):
            assert spectral_radii(n, [g.rows], alpha)[0].hex() == rho.hex()
            assert spectral_radii(n, stack_rows(n, [g.rows]), alpha)[0].hex() == rho.hex()
            assert spectral_radius(g, alpha).rho.hex() == rho.hex()
            assert_same_groups(solved_groups(n, [g.rows]), component_groups_walk(n, [g.rows]))


class TestBlockPick:
    """``spectral_radius`` reports the block of largest radius, the one with
    the smallest vertex among equal radii, which is the reference loop's
    first maximum in walk order.  Repeated copies of a piece tie exactly."""

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_disjoint_unions(self, seed):
        rng = random.Random(seed)
        pieces = [
            from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p])
            for k, p in zip(rng.sample(range(1, 8), 3), (0.0, 0.4, 0.8))
        ]
        order = [rng.randrange(3) for _ in range(rng.randint(4, 7))]  # some piece repeats
        g = functools.reduce(disjoint_union, [pieces[i] for i in order])
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert spectral_radius(g, alpha) == component_loop_spectral_radius(g, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_later_copy_loses_the_tie(self, alpha):
        c5, k4 = cycle_graph(5), complete_graph(4)
        g = functools.reduce(disjoint_union, [empty_graph(1), c5, k4, c5, k4])
        result = spectral_radius(g, alpha)
        assert result == component_loop_spectral_radius(g, alpha)
        assert result.component == (6, 7, 8, 9)

    # regular pieces of different sizes, whose radii often round to one
    # float (K_3 and C_4 at 1/2, C_4 and C_5 at 1, C_6 and C_7 at 2 with
    # numpy 2.4's LAPACK): the tie is then decided across block sizes
    @pytest.mark.parametrize("alpha, sizes", [(0.5, (3, 4)), (1.0, (5, 4)), (1.0, (4, 5)), (2.0, (7, 6))])
    def test_tie_across_block_sizes(self, alpha, sizes):
        pieces = [complete_graph(3) if k == 3 else cycle_graph(k) for k in sizes]
        g = disjoint_union(*pieces)
        radii = [spectral_radius(p, alpha).rho for p in pieces]
        first = radii.index(max(radii))
        result = spectral_radius(g, alpha)
        assert result == component_loop_spectral_radius(g, alpha)
        assert result.component[0] == (0 if first == 0 else sizes[0])


class TestBatchOfOneUnchanged:
    """``spectral_radius`` gives the reference loop's rho, Perron vector,
    component and residual, bit for bit, on seeded G(n, p) graphs of the
    benchmark's six shapes."""

    SHAPES = ((160, 0.5), (200, 0.02), (240, 0.25), (280, 0.05), (320, 0.1), (400, 0.05))

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_gnp(self, n, p):
        rng = random.Random(n)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for alpha in (0.0, 2.0):
            assert spectral_radius(g, alpha) == component_loop_spectral_radius(g, alpha)

    def test_residual_above_tol_raises(self):
        # an irregular graph: on a regular one the solve can return the
        # exact constant vector, whose residual is 0
        with pytest.raises(ValueError, match=r"^eigenpair residual .* exceeds tolerance 1e-300$"):
            spectral_radius(path_graph(6), 0.5, tol=1e-300)


# Allowed gap, in units of the oracle's last place, between a radius and
# the one-``eigh``-per-component oracle: ``eigvalsh`` and ``eigh`` run
# different LAPACK paths, and over the census (n <= 8, four alpha) the
# radii differ by at most 16 units.
EIGH_ULPS = 32


def within_eigh_ulps(value, reference):
    return abs(value - reference) <= EIGH_ULPS * np.spacing(reference)


class TestAgainstEighOracle:
    """Every radius stays within ``EIGH_ULPS`` of the ``eigh`` loop it
    replaced."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_every_class_up_to_seven(self, alpha):
        for n in range(8):
            classes = isomorphism_classes(n)
            radii = spectral_radii(n, [g.rows for g in classes], alpha)
            for g, rho in zip(classes, radii.tolist()):
                assert within_eigh_ulps(rho, eigh_spectral_radius(g, alpha).rho), to_graph6(g)

    @pytest.mark.parametrize("n,p", TestBatchOfOneUnchanged.SHAPES)
    def test_gnp(self, n, p):
        rng = random.Random(n)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for alpha in (0.0, 0.5, 1.0, 2.0):
            result = spectral_radius(g, alpha)
            expected = eigh_spectral_radius(g, alpha)
            assert within_eigh_ulps(result.rho, expected.rho)
            assert result.component == expected.component
            assert result.residual <= 1e-10


class TestPerronPairEdgeCases:
    """The shifted solve, and for the large star Lanczos's Ritz vector,
    gives a strictly positive Perron vector with a small residual where
    the spectrum is awkward for it."""

    GRAPHS = {
        # bipartite: at alpha = 0, -rho is an eigenvalue too
        "path": (path_graph(7), 0.0),
        "even cycle": (cycle_graph(8), 0.0),
        "complete bipartite": (join(empty_graph(3), empty_graph(4)), 0.0),
        # the second eigenvalue is repeated n - 1 times
        "complete": (complete_graph(7), 0.0),
        "complete, alpha 2": (complete_graph(7), 2.0),
        "star": (star_graph(6), 0.0),
        "star, alpha 1": (star_graph(6), 1.0),
        "large star": (star_graph(299), 0.0),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_positive_vector_small_residual(self, name):
        g, alpha = self.GRAPHS[name]
        result = spectral_radius(g, alpha)
        assert result.component == tuple(range(g.n))
        assert min(result.perron_vector) > 0 and max(result.perron_vector) == 1.0
        assert result.residual <= DEFAULT_TOL
        assert within_eigh_ulps(result.rho, eigh_spectral_radius(g, alpha).rho)

    @pytest.mark.parametrize("alpha", [1e4, 1e5, 3e5])
    def test_large_alpha_takes_another_step(self, alpha, monkeypatch):
        # at alpha = 1e5 one step leaves P_6 a residual of 6.3e-10
        steps = []
        real = spectral._inverse_step
        monkeypatch.setattr(spectral, "_inverse_step", lambda *args: steps.append(1) or real(*args))
        g = path_graph(6)
        result = spectral_radius(g, alpha)
        assert result.residual <= DEFAULT_TOL and min(result.perron_vector) > 0
        # the eigh loop's own residual exceeds 1e-10 at alpha = 3e5
        assert within_eigh_ulps(result.rho, eigh_spectral_radius(g, alpha, tol=1.0).rho)
        assert len(steps) == (1 if alpha < 1e5 else 2)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_equal_size_components_in_one_solve(self, alpha):
        parts = [cycle_graph(6), join(empty_graph(3), empty_graph(3)), path_graph(6), complete_graph(6), star_graph(5)]
        g = functools.reduce(disjoint_union, parts)
        solves = spectral._solve_components(g.n, [g.rows], alpha, DEFAULT_TOL)
        assert [b.verts[:, 0].tolist() for b in solves] == [[0, 6, 12, 18, 24]]
        block = solves[0]
        assert (block.vectors > 0).all() and (block.vectors.max(axis=1) == 1.0).all()
        assert (block.residual <= DEFAULT_TOL).all()
        for i, part in enumerate(parts):
            assert block.rho[i].hex() == component_loop_spectral_radius(part, alpha).rho.hex()

    def test_sigma_below_the_top_eigenvalue(self):
        # sigma just under rho = 2 of K_3: the solve returns the Perron
        # vector negated, and the signed scaling turns it back
        k3 = alpha_matrices(3, [complete_graph(3).rows], 0.0)
        x = spectral._inverse_step(k3, np.array([2.0 - 2.0**-40]), np.ones((1, 3)), spectral._PERRON_SHIFT)
        assert x.tolist() == [[1.0, 1.0, 1.0]]

    def test_exactly_singular_solve_widens_the_shift(self):
        # with rho one shift below the top eigenvalue 1 of K_2, sigma is
        # exactly 1 and sigma*I - B exactly singular
        k2 = alpha_matrices(2, [complete_graph(2).rows], 0.0)
        rho = np.array([1.0 - spectral._PERRON_SHIFT])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(2) - k2[0], np.ones(2))
        ones = np.ones((2, 2))
        assert spectral._inverse_step(k2, rho, ones[:1], spectral._PERRON_SHIFT).tolist() == [[1.0, 1.0]]
        # in a stack, the other blocks keep the floats they get alone
        blocks = np.concatenate([alpha_matrices(2, [complete_graph(2).rows], 2.0), k2])
        rho = np.array([3.0, rho[0]])
        stacked = spectral._inverse_step(blocks, rho, ones, spectral._PERRON_SHIFT)
        alone = [spectral._inverse_step(blocks[i : i + 1], rho[i : i + 1], ones[:1], spectral._PERRON_SHIFT)[0]
                 for i in range(2)]
        assert hex_list(stacked.ravel()) == hex_list(np.concatenate(alone))
        assert stacked.tolist() == [[1.0, 1.0], [1.0, 1.0]]


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every array passed to ``np.linalg.eigvalsh``."""
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: shapes.append(a.shape) or real(a, *args, **kw))
    return shapes


@pytest.fixture
def inverse_steps(monkeypatch):
    """The shape of the block stack of every ``_inverse_step`` call."""
    shapes = []
    real = spectral._inverse_step
    monkeypatch.setattr(spectral, "_inverse_step", lambda b, *args: shapes.append(b.shape) or real(b, *args))
    return shapes


def within_one_matvec(value, reference, k):
    """|value - reference| within k * 2**-52 * reference, the rounding of
    one product of a k-vertex block with a vector, whose entries each sum
    up to k terms."""
    return abs(value - reference) <= k * 2.0**-52 * reference


def lollipop(clique, tail):
    """K_clique with a path of ``tail`` vertices hung from its last vertex."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    return from_edges(clique + tail, edges + [(v, v + 1) for v in range(clique - 1, clique + tail - 1)])


class TestKrylovPath:
    """Blocks of order ``_KRYLOV_MIN_ORDER`` and above take their top
    eigenvalue from Lanczos, and ``eigvalsh`` only where it does not
    converge; the Perron vector is the converged Ritz vector where that
    is positive with a residual within the tolerance, and otherwise comes
    from the same shifted solve as below that order."""

    ALPHAS = [0.0, 0.5, 1.0, 2.0]

    def check_pair(self, g, alpha, reference):
        result = spectral_radius(g, alpha)
        assert result.component == tuple(range(g.n))
        assert within_one_matvec(result.rho, reference, g.n), (result.rho, reference)
        assert min(result.perron_vector) > 0 and max(result.perron_vector) == 1.0
        assert result.residual <= DEFAULT_TOL
        return result

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("name", ["cycle", "complete", "complete bipartite"])
    def test_regular_blocks_stop_at_the_first_step(self, name, alpha, monkeypatch, eigvalsh_shapes):
        # the ones vector is the Perron vector: beta_0 vanishes, so the
        # only tridiagonal solved is 1 x 1; at alpha = 0, -rho is an
        # eigenvalue of the bipartite K_{150,150} too
        g = {"cycle": cycle_graph(300), "complete": complete_graph(300),
             "complete bipartite": join(empty_graph(150), empty_graph(150))}[name]
        reference = eigh_spectral_radius(g, alpha).rho
        tridiagonal = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: tridiagonal.append(a.shape) or real(a, *args))
        self.check_pair(g, alpha, reference)
        assert tridiagonal == [(1, 1)] and eigvalsh_shapes == []

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_star_against_its_closed_form(self, alpha, eigvalsh_shapes):
        # K_{1,299} = K_1 v bar(K_299), whose Krylov space from the ones
        # vector is two-dimensional
        self.check_pair(star_graph(299), alpha, closed_form_complete_split(300, 1, alpha))
        assert eigvalsh_shapes == []

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_lollipop_vector_stays_positive(self, alpha, eigvalsh_shapes):
        # the tail's Perron entries fall to about 1e-15, within the Ritz
        # vector's rounding: at alpha 0, 1 and 2 about 130 of its tail
        # entries are nonpositive, so the block falls back to the shifted
        # solve (at alpha 1/2 they all stay positive and the Ritz vector is
        # kept)
        g = lollipop(60, 140)
        result = self.check_pair(g, alpha, eigh_spectral_radius(g, alpha).rho)
        assert min(result.perron_vector) < 1e-12
        assert eigvalsh_shapes == []

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_path_falls_back_to_eigvalsh(self, alpha, eigvalsh_shapes):
        g = path_graph(300)
        reference = eigh_spectral_radius(g, alpha).rho
        block = alpha_matrices(g.n, [g.rows], alpha)[0]
        theta, ritz = spectral._lanczos_top(block)
        assert math.isnan(theta) and ritz is None
        eigvalsh_shapes.clear()
        result = self.check_pair(g, alpha, reference)
        assert eigvalsh_shapes == [(1, 300, 300)]
        assert within_eigh_ulps(result.rho, reference)

    def test_overflowing_block_falls_back_to_eigvalsh(self, eigvalsh_shapes):
        # at alpha = 1e160, |B q|^2 overflows; eigvalsh, which scales the
        # block, takes it, and no overflow warning escapes
        g = random_connected(random.Random(200), 200, 0.1)
        reference = eigh_spectral_radius(g, 1e160, tol=1e300).rho
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, ritz = spectral._lanczos_top(alpha_matrices(g.n, [g.rows], 1e160)[0])
            assert math.isnan(theta) and ritz is None
            result = spectral_radius(g, 1e160, tol=1e300)
        assert eigvalsh_shapes == [(1, 200, 200)]
        assert within_eigh_ulps(result.rho, reference)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_random_block_needs_no_eigvalsh(self, alpha, eigvalsh_shapes):
        g = random_connected(random.Random(400), 400, 0.05)
        self.check_pair(g, alpha, eigh_spectral_radius(g, alpha).rho)
        assert eigvalsh_shapes == []

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_random_block_keeps_its_ritz_vector(self, alpha, inverse_steps):
        g = random_connected(random.Random(400), 400, 0.05)
        result = spectral_radius(g, alpha)
        assert inverse_steps == []
        assert result.residual <= DEFAULT_TOL and min(result.perron_vector) > 0
        block = alpha_matrices(g.n, [g.rows], alpha)
        solved = spectral._inverse_step(block, np.array([result.rho]), np.ones((1, g.n)), spectral._PERRON_SHIFT)
        assert np.abs(solved[0] - result.perron_vector).max() <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nonpositive_ritz_vector_takes_the_shifted_solve(self, alpha, inverse_steps, monkeypatch):
        # one Ritz entry negated: whatever sign the vector came with, it
        # has entries of both signs, so the block takes the shifted solve
        # from the ones vector, bit for bit as if Lanczos gave no vector
        g = random_connected(random.Random(400), 400, 0.05)
        block = alpha_matrices(g.n, [g.rows], alpha)
        real = spectral._lanczos_top
        theta = real(block[0])[0]
        x = spectral._inverse_step(block, np.array([theta]), np.ones((1, g.n)), spectral._PERRON_SHIFT)
        residual = spectral._residuals(block, np.array([theta]), x)
        inverse_steps.clear()

        def negated(b):
            theta, ritz = real(b)
            ritz[0] = -ritz[0]
            return theta, ritz

        monkeypatch.setattr(spectral, "_lanczos_top", negated)
        result = spectral_radius(g, alpha)
        assert inverse_steps == [(1, g.n, g.n)]
        assert result.rho.hex() == theta.hex()
        assert hex_list(result.perron_vector) == hex_list(x[0])
        assert result.residual.hex() == residual[0].hex()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equal_components_first_wins(self, alpha):
        k = spectral._KRYLOV_MIN_ORDER
        part = random_connected(random.Random(k), k, 0.05)
        result = spectral_radius(disjoint_union(part, part), alpha)
        assert result == spectral_radius(part, alpha)
        assert result.component == tuple(range(k))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("per_slice", [1, 4])
    def test_stacked_blocks_match_single_graphs(self, alpha, per_slice):
        k = spectral._KRYLOV_MIN_ORDER
        n = k + 40
        graphs = [
            random_connected(random.Random(n), n, 0.05),
            disjoint_union(random_connected(random.Random(k), k, 0.1), cycle_graph(40)),
            path_graph(n),
            disjoint_union(random_connected(random.Random(k - 1), k - 1, 0.1), complete_graph(41)),
            complete_graph(n),
        ]
        expected = [spectral_radius(g, alpha).rho for g in graphs]
        rows = [g.rows for g in graphs]
        radii = [r for i in range(0, len(rows), per_slice) for r in spectral_radii(n, rows[i : i + per_slice], alpha)]
        assert hex_list(radii) == hex_list(expected)


class TestOracle:
    def test_k4_signless(self):
        assert spectral_radius_oracle(complete_graph(4), 1.0) == pytest.approx(6.0)

    def test_star_signless(self):
        assert spectral_radius_oracle(star_graph(3), 1.0) == pytest.approx(4.0, abs=1e-10)

    def test_agrees_with_spectral_radius(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.5])
            alpha = rng.choice([0.0, 0.5, 1.0, 2.0])
            assert spectral_radius(g, alpha).rho == pytest.approx(
                spectral_radius_oracle(g, alpha), abs=1e-8
            )

    def test_order_cap(self):
        with pytest.raises(ValueError):
            spectral_radius_oracle(empty_graph(65), 0.0)


class TestPerronFrobenius:
    def test_positive_vector_on_connected(self):
        rng = random.Random(19)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 9))
            result = spectral_radius(g, rng.choice([0.0, 1.0]))
            assert all(x > 0 for x in result.perron_vector)

    def test_strict_monotonicity_under_edge_addition(self):
        rng = random.Random(23)
        checked = 0
        while checked < 25:
            n = rng.randint(3, 9)
            g = random_connected(rng, n)
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not has_edge(g, u, v)]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            bigger = from_edges(n, list(g.edges()) + [(u, v)])
            alpha = rng.choice([0.0, 0.5, 1.0, 2.0])
            lo = spectral_radius(g, alpha, tol=1e-12).rho
            hi = spectral_radius(bigger, alpha, tol=1e-12).rho
            assert hi > lo + 1e-9
            checked += 1


class TestJoinFamily:
    def test_rejects_even_part(self):
        with pytest.raises(ValueError):
            JoinFamily.of_parts(1, (2,))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            JoinFamily.of_parts(1, (3, 1))

    def test_rejects_core_larger_than_part_count(self):
        # K_3 v K_1 is K_4 with matching 2, not 3: the declared count
        # would be wrong, so the family is invalid
        with pytest.raises(ValueError):
            JoinFamily.of_parts(3, (1,))

    @pytest.mark.parametrize(
        "s, cells, reason",
        [
            (1, ((1, 1), (1, 2)), "strictly ascending"),
            (1, ((1, 0),), "counts must be positive"),
            (1, ((3, 1), (1, 1)), "strictly ascending"),
            (1, ((2, 1),), "odd and positive"),
            (3, ((1, 1), (3, 1)), "exceeds part count 2"),
            (0, (), "at least one part"),
        ],
        ids=["repeated-size", "zero-count", "descending-sizes", "even-size", "core-above-part-count", "no-cells"],
    )
    def test_rejects_invalid_cells(self, s, cells, reason):
        with pytest.raises(ValueError, match=reason):
            JoinFamily(s, cells)

    def test_cells_and_parts(self):
        fam = JoinFamily.of_parts(2, (1, 1, 3, 5, 5, 5))
        assert fam == JoinFamily(2, ((1, 2), (3, 1), (5, 3)))
        assert fam.parts == (1, 1, 3, 5, 5, 5)

    def test_realized_invariants(self):
        fam = JoinFamily.of_parts(2, (1, 3, 5))
        assert fam.order == 11
        assert fam.beta == 2 + 0 + 1 + 2
        assert fam.q == 3

    def test_graph_has_core_first(self):
        fam = JoinFamily.of_parts(2, (1, 3))
        g = fam.graph()
        assert g.degrees()[:2] == [g.n - 1, g.n - 1]

    def test_graph_equals_from_bit_matrix(self):
        # seeded random families, some wider than 64 vertices: the packed
        # graph equals the checked conversion of a block matrix built
        # here, and passes the constructor's own checks
        rng = random.Random(421)
        for _ in range(60):
            parts = sorted(rng.choice((1, 1, 3, 5, 7, 31)) for _ in range(rng.randint(1, 9)))
            fam = JoinFamily.of_parts(rng.randint(0, len(parts)), parts)
            mat = np.zeros((fam.order, fam.order), dtype=np.uint8)
            mat[: fam.s, :] = mat[:, : fam.s] = 1
            start = fam.s
            for p in fam.parts:
                mat[start : start + p, start : start + p] = 1
                start += p
            np.fill_diagonal(mat, 0)
            g = fam.graph()
            assert g == Graph.from_bit_matrix(mat), fam
            assert Graph(g.n, g.rows) == g

    def test_graph_equals_the_union_fold(self):
        for n in range(1, 21):
            for beta in range(0, (n - 1) // 2 + 1):
                for fam in candidate_families(n, beta):
                    union = functools.reduce(disjoint_union, [complete_graph(p) for p in fam.parts], empty_graph(0))
                    fold = join(complete_graph(fam.s), union)
                    assert fam.graph() == fold, fam


def quotient_matrices(batch, alpha):
    """The reference for ``family_radius``: symmetrised equitable quotients
    of a batch of join families, stacked as (m, k + 1, k + 1), one cell
    per column of the batch and the core last (a cell of count 0 is cut
    off from the core, and its eigenvalue d_p lies below the radius).  Cell p has
    diagonal (alpha+1)(p-1) + alpha*s, the core alpha*(n-1) + s - 1, and
    sqrt(s * m_p * p) joins cell p to the core; the top ``eigvalsh``
    eigenvalue is the radius."""
    s, p, m = batch.s, batch.sizes, batch.counts
    if not np.all(s >= 1):
        raise ValueError("quotient collapse is defined for a nonempty core (s >= 1)")
    rows, k = p.shape
    cell = np.arange(k)
    core = s[:, None]
    mat = np.zeros((rows, k + 1, k + 1))
    mat[:, cell, cell] = (alpha + 1) * (p - 1) + alpha * core
    mat[:, cell, k] = mat[:, k, cell] = np.sqrt(core * m * p)
    order = s + (p * m).sum(axis=1)
    mat[:, k, k] = alpha * (order - 1) + s - 1
    return mat


def oracle_radii(batch, alpha):
    return np.linalg.eigvalsh(quotient_matrices(batch, alpha))[:, -1]


def one_quotient(family, alpha):
    return quotient_matrices(FamilyBatch.of(family), alpha)[0]


class TestQuotient:
    def test_star_quotient(self):
        assert family_radius(JoinFamily(1, ((1, 3),)), 0.0) == pytest.approx(SQRT3, abs=1e-12)

    def test_all_ones_matches_closed_form(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for beta in (1, 2, 3):
                for n in (2 * beta + 1, 2 * beta + 4):
                    fam = one_clique_family(n, beta, beta)
                    assert family_radius(fam, alpha) == pytest.approx(
                        closed_form_complete_split(n, beta, alpha), abs=1e-10
                    )

    def test_matches_full_graph(self):
        fam = JoinFamily.of_parts(2, (1, 1, 3))
        rho = spectral_radius(fam.graph(), 0.5).rho
        assert family_radius(fam, 0.5) == pytest.approx(rho, abs=1e-8)

    def test_shape_and_rows(self):
        fam = JoinFamily.of_parts(2, (1, 3))
        sym = one_quotient(fam, 1.0)
        n = fam.order
        assert sym.shape == (3, 3)
        assert np.array_equal(sym, sym.T)
        # undo the symmetrisation by the cell sizes (part 1, part 3, core)
        root = np.sqrt([1.0, 3.0, 2.0])
        mat = sym / root[:, None] * root[None, :]
        # part rows: (alpha+1)(n_i - 1) + alpha*s diagonal, s in core column
        # (the square roots leave rounding in the last bits, hence abs=1e-12)
        assert mat[0, 0] == pytest.approx(2.0)
        assert mat[1, 1] == pytest.approx(2 * 2 + 2.0)
        assert mat[0, 1] == mat[1, 0] == 0.0
        assert [mat[0, 2], mat[1, 2]] == pytest.approx([2.0, 2.0], abs=1e-12)
        # core row: part sizes, then alpha*(n-1) + s - 1
        assert mat[2] == pytest.approx([1.0, 3.0, (n - 1) + 1.0], abs=1e-12)

    def test_equal_parts_share_a_cell(self):
        fam = JoinFamily.of_parts(2, (1, 1, 3, 3))
        mat = one_quotient(fam, 0.5)
        assert mat.shape == (3, 3)
        assert family_radius(fam, 0.5) == pytest.approx(
            spectral_radius(fam.graph(), 0.5).rho, abs=1e-10
        )

    def test_requires_core(self):
        with pytest.raises(ValueError):
            one_quotient(JoinFamily(0, ((3, 2),)), 1.0)

    def test_family_radius_disconnected(self):
        fam = JoinFamily.of_parts(0, (1, 3, 5))
        assert family_radius(fam, 1.0) == pytest.approx(8.0)

    def test_one_part_is_a_clique(self):
        # K_1 v K_9 = K_10 takes the clique radius; at alpha = 1e16 its
        # core and cell diagonals round to one float, where the secular
        # start would sit on the pole
        for alpha in (0.0, 0.5, 1.0, 1e16):
            assert family_radius(JoinFamily(1, ((9, 1),)), alpha) == (alpha + 1) * 9

    def test_order_limit(self):
        with pytest.raises(ValueError, match=r"1e\+155 exceeds the limit 2e\+154"):
            family_radius(one_clique_family(100000, 10, 10), 1e150)
        assert math.isfinite(family_radius(one_clique_family(10000, 4000, 4000), 1e150))

    @pytest.mark.parametrize(
        "s, rho_hex",
        [
            (1, "0x1.869fe555556e3p+20"),
            (1000, "0x1.8638035b23bf1p+20"),
            (200000, "0x1.609ee4f3021aep+20"),
            (400000, "0x1.869fe49249828p+20"),
        ],
    )
    def test_radius_at_a_million_vertices(self, s, rho_hex):
        # two cells (one at s = beta) whatever n, so the quotient is at most 3 x 3
        fam = one_clique_family(10**6, 4 * 10**5, s)
        assert len(fam.cells) == (1 if s == 4 * 10**5 else 2)
        rho = family_radius(fam, 1)
        assert rho.hex() == rho_hex
        oracle = oracle_radii(FamilyBatch.of(fam), 1.0)[0]
        assert abs(rho - oracle) <= ORACLE_ULPS * np.spacing(oracle)


def oracle_search(n, beta, alpha):
    """(winner, radius) of the first maximum in candidate order, every
    core radius from the stacked ``eigvalsh`` oracle."""
    rho = np.empty(family_count(n, beta))
    offset = 0
    for batch in _candidate_batches(n, beta):
        radii = (alpha + 1) * (batch.sizes[:, -1] - 1)
        core = batch.s >= 1
        if core.any():
            radii[core] = oracle_radii(FamilyBatch(batch.s[core], batch.sizes[core], batch.counts[core]), alpha)
        rho[offset : offset + len(radii)] = radii
        offset += len(radii)
    best = int(np.argmax(rho))  # the first of equal maxima
    return next(itertools.islice(candidate_families(n, beta), best, None)), float(rho[best])


class TestSecularSolve:
    @pytest.mark.parametrize("n, beta, rows", [(64, 24, 5735), (9, 3, 4)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_every_core_candidate_near_the_oracle(self, n, beta, rows, alpha):
        seen = 0
        for batch in _candidate_batches(n, beta):
            core = batch.s >= 1
            if not core.any():
                continue
            batch = FamilyBatch(batch.s[core], batch.sizes[core], batch.counts[core])
            rho, oracle = family_radius(batch, alpha), oracle_radii(batch, alpha)
            assert np.all(np.abs(rho - oracle) <= ORACLE_ULPS * np.spacing(oracle))
            seen += len(rho)
        assert seen == rows

    @pytest.mark.parametrize("alpha", ["0", "1/2", "1", "3/2", "2", "5/2", "1/3", "7/3"])
    def test_search_verdicts_match_the_oracle(self, alpha):
        a = as_fraction(alpha)
        for n in range(3, 31):
            for beta in range(1, (n - 1) // 2 + 1):
                best, rho = oracle_search(n, beta, float(a))
                result = family_search(n, beta, a)
                verdict = classify_regime(n, beta, a)
                assert result.best == best, (n, beta)
                assert result.canonical_shape == (best == one_clique_family(n, beta, best.s))
                assert result.matches_prediction == (best in verdict.extremal_families)
                if result.matches_prediction:
                    assert abs(rho - verdict.predicted_rho) <= ORACLE_ULPS * np.spacing(rho), (n, beta)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 1 / 3, 7 / 3])
    def test_complete_split_rows_match_the_closed_form(self, alpha):
        for n in list(range(3, 61)) + [10**3, 10**6]:
            for beta in sorted({*range(1, min((n - 1) // 2, 30) + 1), n // 3, (n - 1) // 2}):
                exact = closed_form_complete_split(n, beta, alpha)
                rho = family_radius(one_clique_family(n, beta, beta), alpha)
                assert abs(rho - exact) <= ORACLE_ULPS * np.spacing(exact), (n, beta)

    def test_step_bound_raises(self, monkeypatch):
        fam = JoinFamily.of_parts(2, (1, 3, 5))
        assert family_radius(fam, 0.5) > 0
        monkeypatch.setattr(spectral, "_SECULAR_STEPS", 1)
        with pytest.raises(ValueError, match="did not settle within 1 steps"):
            family_radius(fam, 0.5)


SWEEP_ALPHAS = ["0", "1/3", "1/2", "1", "2", "7/5", "10"]


def sweep_batches(n_max, alphas=SWEEP_ALPHAS):
    """(alpha, batch) for every batch of every search (n, beta) with
    n <= ``n_max`` at each of ``alphas``."""
    for alpha in alphas:
        a = as_fraction(alpha)
        for n in range(1, n_max + 1):
            for beta in range(0, (n - 1) // 2 + 1):
                for batch in _candidate_batches(n, beta):
                    yield a, batch


def secular_rows(batch):
    """The rows of ``batch`` whose radius is a secular root."""
    secular = (batch.s >= 1) & (batch.counts.sum(axis=1) > 1)
    return FamilyBatch(batch.s[secular], batch.sizes[secular], batch.counts[secular])


def ulps_from(values, steps):
    """``values`` moved ``steps`` floats up (down where negative)."""
    out = values.copy()
    for _ in range(abs(steps)):
        out = np.nextafter(out, math.inf if steps > 0 else -math.inf)
    return out


class TestFloorCertificate:
    """``family_radius(batch, alpha, floor)`` drops only rows certified
    below the floor, and every other row keeps its float."""

    def test_own_float_as_floor_keeps_every_row(self):
        # each secular row of the sweep, tested at its own float as the
        # floor: the point family_radius tests, one row at a time, is its
        # float less the margin, and none is certified there
        rows = 0
        for a, batch in sweep_batches(40):
            rows_batch = secular_rows(batch)
            if not len(rows_batch.s):
                continue
            c, d, w = _secular_terms(rows_batch, float(a))
            rho = _secular_roots(c, d, w)
            assert not _below_floor(c, d, w, rho * (1 - _FLOOR_MARGIN)).any()
            rows += len(rho)
        assert rows > 100_000

    def test_floors_from_the_batch(self):
        # family_radius at floors taken from the batch's own floats: no row
        # at or above the floor is dropped, and the rows kept have their
        # floats bit for bit
        dropped = 0
        for a, batch in sweep_batches(40):
            radii = family_radius(batch, a)
            distinct = np.unique(radii)
            for floor in {distinct[-1], distinct[-min(3, len(distinct))], distinct[len(distinct) // 2]}:
                got = family_radius(batch, a, float(floor))
                kept = got > -math.inf
                assert np.all(kept[radii >= floor])
                assert np.array_equal(got[kept], radii[kept])
                dropped += int(np.count_nonzero(~kept))
        assert dropped > 100_000

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_rows_within_the_margin_are_solved(self, alpha):
        # a floor 2**-42 above a row's float is within the 2**-40 margin:
        # the row is not certified below it and keeps its float
        for n, beta in [(20, 6), (23, 7), (30, 11)]:
            for family in candidate_families(n, beta):
                rho = family_radius(family, alpha)
                floor = rho * (1 + 2.0**-42)
                secular = family.s >= 1 and family.q > 1
                assert family_radius(family, alpha, floor) == (rho if secular else -math.inf), family

    def test_clique_rows_compare_their_float(self):
        for family in [one_clique_family(10, 3, 0), JoinFamily(1, ((5, 1),)), JoinFamily(0, ((1, 2), (3, 2)))]:
            rho = family_radius(family, "1/3")
            assert family_radius(family, "1/3", rho) == rho
            assert family_radius(family, "1/3", float(np.nextafter(rho, math.inf))) == -math.inf

    def test_no_floor_makes_no_test(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sign test ran")

        batch = next(_candidate_batches(64, 24))
        radii = family_radius(batch, 1)
        monkeypatch.setattr(spectral, "_below_floor", refuse)
        assert np.array_equal(family_radius(batch, 1), radii)
        assert np.array_equal(family_radius(batch, 1, -math.inf), radii)

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_sign_test_is_exact(self, alpha):
        # near each root, on either side, and between or at the cell
        # diagonals, a row certified below f has f above its diagonals and
        # h(f) > 0 in exact arithmetic; 2**-40 above its float every row
        # is certified
        certified = 0
        for a, batch in sweep_batches(24, [alpha]):
            rows_batch = secular_rows(batch)
            if not len(rows_batch.s):
                continue
            c, d, w = _secular_terms(rows_batch, float(a))
            rho = _secular_roots(c, d, w)
            top = d.max(axis=0)
            below_top = np.where(d < top, d, -math.inf).max(axis=0)
            probes = [ulps_from(rho, j) for j in (-2, -1, 0, 1, 2, 4, 16, 64, 256)]
            probes += [top, top * (1 - 2.0**-30), np.where(below_top > -math.inf, (top + below_top) / 2, top)]
            for f in probes:
                for i in np.flatnonzero(_below_floor(c, d, w, f)).tolist():
                    assert f[i] > top[i]
                    assert secular_value_exact(c[i], d[:, i], w[:, i], f[i]) > 0, (batch, i, f[i])
                    certified += 1
            assert _below_floor(c, d, w, rho * (1 + _FLOOR_MARGIN)).all()
        assert certified > 1000


class TestClosedForm:
    def test_alpha_zero_reduction(self):
        for beta in range(1, 6):
            for n in range(beta + 1, 20):
                direct = 0.5 * (beta - 1 + math.sqrt((beta - 1) ** 2 + 4 * beta * (n - beta)))
                assert closed_form_complete_split(n, beta, 0.0) == pytest.approx(direct, abs=1e-12)

    def test_alpha_one_star(self):
        assert closed_form_complete_split(4, 1, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_beta2_n10(self):
        assert closed_form_complete_split(10, 2, 0.0) == pytest.approx(
            (1 + math.sqrt(65)) / 2, abs=1e-12
        )

    def test_is_root_of_quadratic(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, 5.0):
            for beta in (1, 3, 7):
                for n in (beta + 1, 2 * beta + 3, 35):
                    if n <= beta:
                        continue
                    rho = closed_form_complete_split(n, beta, alpha)
                    assert abs(split_graph_quadratic(rho, n, beta, alpha)) <= 1e-9

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            closed_form_complete_split(4, 4, 1.0)


class TestCubic:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_value_at_alpha_s(self, alpha):
        for beta in range(1, 8):
            for s in range(0, beta + 1):
                for n in (2 * beta + 1, 2 * beta + 5, 33):
                    expected = 2 * s * (1 + alpha) * (beta - s) * (n + s - 2 * beta - 1)
                    assert cubic_f(alpha * s, n, beta, s, alpha) == pytest.approx(
                        expected, abs=1e-8
                    )
                    assert expected >= 0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_value_at_upper_bracket(self, alpha):
        for beta in range(1, 8):
            for s in range(0, beta + 1):
                for n in (2 * beta + 1, 2 * beta + 5, 33):
                    lam = 2 * (alpha + 1) * beta - (alpha + 1) * s
                    expected = s * (alpha + 1) * (2 * alpha * beta - 2 * alpha * s + s) * (
                        2 * beta - n - s + 1
                    )
                    assert cubic_f(lam, n, beta, s, alpha) == pytest.approx(expected, abs=1e-8)
                    assert expected <= 0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_sign_pattern_full_grid(self, alpha):
        # one root in each of the three windows: negative far left,
        # nonnegative at alpha*s, nonpositive at the plateau point,
        # positive far right
        for beta in range(1, 11):
            for s in range(1, beta + 1):
                for n in range(2 * beta + 1, 41):
                    assert cubic_f(-1e6, n, beta, s, alpha) < 0
                    assert cubic_f(alpha * s, n, beta, s, alpha) >= -1e-9
                    plateau = 2 * (alpha + 1) * beta - (alpha + 1) * s
                    assert cubic_f(plateau, n, beta, s, alpha) <= 1e-9
                    assert cubic_f(1e6, n, beta, s, alpha) > 0

    def test_s_zero_factorization(self):
        alpha, n, beta = 1.5, 12, 3
        for root in (0.0, alpha * n - alpha - 1, 2 * (alpha + 1) * beta):
            assert cubic_f(root, n, beta, 0, alpha) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5, 2.0, 7 / 3, 3.0, 5.0])
    def test_is_the_secular_function_on_the_sampled_region(self, alpha):
        # Every (n, beta, s) with beta < 40 of the region where
        # ``case2_applicable`` holds: s up to its cap, n strictly inside
        # ``case2_region_bounds``.  There the one-clique family has two
        # cells, and the cubic is (lam - d_1)(lam - d_2) h(lam) with h
        # built by ``_secular_terms``; at the probe value both are positive.
        points = []
        for beta in range(1, 40):
            cap = (alpha * alpha + alpha - 1.0) * beta / ((1.0 + alpha) ** 2)
            for s in range(1, math.floor(cap) + 1):
                low, high = case2_region_bounds(beta, alpha, s)
                window = range(math.floor(low) + 1, math.ceil(high))
                if window:
                    assert case2_applicable(beta, alpha, s, window[0]) and case2_applicable(beta, alpha, s, window[-1])
                    assert not case2_applicable(beta, alpha, s, window[0] - 1)
                    assert not case2_applicable(beta, alpha, s, window[-1] + 1)
                points.extend((n, beta, s) for n in window)
        rows = [FamilyBatch.of(one_clique_family(n, beta, s)) for n, beta, s in points]
        batch = FamilyBatch(*(np.concatenate([getattr(r, f) for r in rows]) for f in ("s", "sizes", "counts")))
        assert batch.sizes.shape == (len(points), 2)
        c, (d1, d2), (w1, w2) = _secular_terms(batch, alpha)
        n, beta, s = np.array(points, dtype=float).T
        lam = case2_probe(n, beta, alpha)
        secular = (lam - d1) * (lam - d2) * (lam - c - w1 / (lam - d1) - w2 / (lam - d2))
        cubic = cubic_f(lam, n, beta, s, alpha)
        assert np.all(np.abs(cubic - secular) <= 64 * np.finfo(float).eps * np.abs(cubic))
        assert np.all(cubic > 0) and np.all(secular > 0)


class TestLargestRoot:
    # the one-big-clique radius, once the bracketed root of the cubic, is
    # now the family radius of ``one_clique_family``
    def test_full_core_equals_closed_form(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for beta in (1, 2, 4):
                n = 2 * beta + 3
                assert family_radius(one_clique_family(n, beta, beta), alpha) == pytest.approx(
                    closed_form_complete_split(n, beta, alpha), abs=1e-9
                )

    def test_against_dense_small(self):
        g = join(complete_graph(1), disjoint_union(complete_graph(3), empty_graph(4)))
        assert family_radius(one_clique_family(8, 2, 1), 0.0) == pytest.approx(
            spectral_radius(g, 0.0).rho, abs=1e-8
        )

    def test_against_dense_medium(self):
        g = join(complete_graph(2), disjoint_union(complete_graph(3), empty_graph(7)))
        assert family_radius(one_clique_family(12, 3, 2), 1.0) == pytest.approx(
            spectral_radius(g, 1.0).rho, abs=1e-8
        )

    def test_s_zero_path(self):
        assert family_radius(one_clique_family(9, 2, 0), 1.0) == pytest.approx(8.0)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            family_radius(one_clique_family(10, 2, 3), 1.0)


class TestShiftFunction:
    def test_zero_at_family_radius(self):
        fam = JoinFamily(1, ((3, 2),))
        rho = family_radius(fam, 0.0)
        assert shift_function_f(0.0, rho, fam, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_negative_at_two_when_pole_free(self):
        # large core keeps every denominator positive across delta in [0,2]
        fam = JoinFamily.of_parts(5, (3, 3, 5, 7, 9))
        alpha = 1.0
        rho = family_radius(fam, alpha)
        assert rho > (alpha + 1) * (fam.parts[-1] + 1) + alpha * fam.s
        assert shift_function_f(2.0, rho, fam, alpha) < 0.0

    def test_monotone_decrease_in_delta(self):
        fam = JoinFamily.of_parts(5, (3, 3, 5, 7, 9))
        alpha = 1.0
        lam = family_radius(fam, alpha) + 0.75
        values = [shift_function_f(d, lam, fam, alpha) for d in (0.0, 1.0, 2.0)]
        assert values[0] > values[1] > values[2]

    def test_domain_guards(self):
        fam = JoinFamily(1, ((3, 2),))
        with pytest.raises(ValueError):
            shift_function_f(0.0, 1.0, fam, 0.0)  # lambda below bound
        with pytest.raises(ValueError):
            shift_function_f(2.5, 10.0, fam, 0.0)
        with pytest.raises(ValueError):
            shift_function_f(1.0, 10.0, JoinFamily(1, ((5, 1),)), 0.0)


class TestBoundFloor:
    def test_family_radius_at_least_biggest_clique(self):
        rng = random.Random(29)
        for _ in range(25):
            s = rng.randint(1, 4)
            q = rng.randint(max(2, s), 6)
            parts = tuple(sorted(2 * rng.randint(0, 3) + 1 for _ in range(q)))
            fam = JoinFamily.of_parts(s, parts)
            alpha = rng.choice([0.0, 0.5, 1.0, 2.0])
            floor = (alpha + 1) * (fam.parts[-1] + fam.s - 1)
            assert family_radius(fam, alpha) >= floor - 1e-9
