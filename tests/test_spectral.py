import functools
import itertools
import math
import random

import numpy as np
import pytest

from alphaspec import (
    FamilyBatch,
    JoinFamily,
    alpha_matrix,
    as_fraction,
    candidate_families,
    case2_applicable,
    classify_regime,
    closed_form_complete_split,
    complete_graph,
    complete_split_family,
    cycle_graph,
    disjoint_union,
    empty_graph,
    family_count,
    family_radius,
    family_search,
    from_edges,
    isomorphism_classes,
    join,
    path_graph,
    one_clique_family,
    spectral_radii,
    spectral_radius,
    star_graph,
)
from alphaspec import spectral
from alphaspec.graphs import _bits, row_component_masks
from alphaspec.spectral import SpectralResult, _secular_terms
from alphaspec.theorem import case2_region_bounds
from alphaspec.verify import FAMILY_MATCH_TOL, _candidate_batches
from reference import (
    case2_probe,
    cubic_f,
    shift_function_f,
    spectral_radius_oracle,
    split_graph_quadratic,
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
        assert np.array_equal(alpha_matrix(complete_graph(2), 0.0), [[0, 1], [1, 0]])

    def test_k2_signless_laplacian(self):
        assert np.array_equal(alpha_matrix(complete_graph(2), 1.0), [[1, 1], [1, 1]])

    def test_edgeless_is_zero(self):
        assert not alpha_matrix(empty_graph(3), 2.5).any()

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            alpha_matrix(complete_graph(2), -0.1)


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


def component_loop_spectral_radius(g, alpha, tol=1e-10):
    """The one-``eigh``-per-component loop that ``spectral_radius``
    replaced, kept as the reference its results are checked against."""
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

    @pytest.mark.parametrize("per_slice", [1, 7])
    def test_slices(self, monkeypatch, per_slice):
        classes = isomorphism_classes(6)  # 156 classes, not a multiple of 7
        rows = [g.rows for g in classes]
        whole = spectral_radii(6, rows, 0.5)
        monkeypatch.setattr(spectral, "RADII_BATCH_ENTRIES", per_slice * 36)
        assert hex_list(spectral_radii(6, rows, 0.5)) == hex_list(whole)

    def test_slice_stays_within_the_entry_budget(self, monkeypatch):
        sizes = []
        real = spectral._solve_components

        def recording(n, rows_list, alpha, tol):
            sizes.append(len(rows_list))
            return real(n, rows_list, alpha, tol)

        monkeypatch.setattr(spectral, "_solve_components", recording)
        spectral_radii(70, [cycle_graph(70).rows] * 100, 1.0)
        spectral_radii(256, [empty_graph(256).rows] * 2, 1.0)
        assert sizes == [13] * 7 + [9, 1, 1]

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
        with pytest.raises(ValueError, match=r"^eigenpair residual .* exceeds tolerance 1e-300$"):
            spectral_radius(cycle_graph(9), 0.5, tol=1e-300)


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
                         if not g.has_edge(u, v)]
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
    per distinct part size (ascending) and the core last.  Cell p has
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
                    fam = complete_split_family(n, beta)
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
    for indices, batch in _candidate_batches(n, beta):
        radii = (alpha + 1) * (batch.sizes[:, -1] - 1)
        core = batch.s >= 1
        if core.any():
            radii[core] = oracle_radii(FamilyBatch(batch.s[core], batch.sizes[core], batch.counts[core]), alpha)
        rho[indices] = radii
    best = int(np.argmax(rho))  # the first of equal maxima
    return next(itertools.islice(candidate_families(n, beta), best, None)), float(rho[best])


class TestSecularSolve:
    @pytest.mark.parametrize("n, beta, rows", [(64, 24, 5735), (9, 3, 4)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_every_core_candidate_near_the_oracle(self, n, beta, rows, alpha):
        seen = 0
        for _, batch in _candidate_batches(n, beta):
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
                assert result.matches_prediction == (
                    abs(rho - verdict.predicted_rho) <= FAMILY_MATCH_TOL and best in verdict.extremal_families
                )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 1 / 3, 7 / 3])
    def test_complete_split_rows_match_the_closed_form(self, alpha):
        for n in list(range(3, 61)) + [10**3, 10**6]:
            for beta in sorted({*range(1, min((n - 1) // 2, 30) + 1), n // 3, (n - 1) // 2}):
                exact = closed_form_complete_split(n, beta, alpha)
                rho = family_radius(complete_split_family(n, beta), alpha)
                assert abs(rho - exact) <= ORACLE_ULPS * np.spacing(exact), (n, beta)

    def test_step_bound_raises(self, monkeypatch):
        fam = JoinFamily.of_parts(2, (1, 3, 5))
        assert family_radius(fam, 0.5) > 0
        monkeypatch.setattr(spectral, "_SECULAR_STEPS", 1)
        with pytest.raises(ValueError, match="did not settle within 1 steps"):
            family_radius(fam, 0.5)


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
