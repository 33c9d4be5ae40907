import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from alphaspec import (
    COMPLETE,
    COMPLETE_SPLIT,
    ODD_CLIQUE_PLUS_ISOLATES,
    THRESHOLD,
    FamilyBatch,
    Graph,
    JoinFamily,
    as_fraction,
    candidate_families,
    case2_applicable,
    classify_regime,
    complete_graph,
    empty_graph,
    family_radius,
    family_search,
    from_edges,
    isomorphism_classes,
    join,
    matching_number,
    one_clique_family,
    spectral_radii,
    to_graph6,
    tutte_berge_witness,
    verify_order,
)
from alphaspec.enumeration import canonical_graph
from alphaspec.graphs import row_component_masks, stack_rows
from alphaspec.matching import _SUBSET_DP_MAX_ORDER, matching_numbers
from alphaspec.spectral import _FLOOR_MARGIN, _blocks_below_floor, _relaxed_terms, _secular_terms, one_clique_batch
from alphaspec.theorem import EXTREMAL_GRAPHS, case2_region_bounds
from alphaspec.verify import (
    DEFAULT_REPORT_TOL,
    FAMILY_MAX_CANDIDATES,
    REPORT_FIELDS,
    _candidate_batches,
    _candidate_table,
    _check_cap,
    _reports,
    _scan_order,
    _Scan,
    family_count,
    resolve_jobs,
)
from reference import (
    are_isomorphic,
    candidate_table_by_pieces,
    case2_sample_check,
    cycle_graph,
    degree_sequence,
    disjoint_union,
    full_solve_search,
    secular_value_exact,
    shift_monotonicity_check,
)


def table_graph(descriptor, n, beta):
    return EXTREMAL_GRAPHS[descriptor][1](n, beta).graph()


def scan_record(n, beta, alpha, **kwargs):
    """The beta record of ``verify_order``'s scan of order n."""
    (record,) = [r for r in verify_order(n, alpha, **kwargs) if r.beta == beta]
    return record


class TestExhaustiveMax:
    # the exhaustive maximum over the classes of one (n, beta): one record
    # of verify_order's scan
    def test_full_case(self):
        r = scan_record(5, 2, 0)
        assert r.observed_max == pytest.approx(4.0, abs=1e-9)
        assert r.passed
        assert r.argmax_certificates == (to_graph6(complete_graph(5)),)

    def test_below_case(self):
        r = scan_record(7, 2, 0)
        assert r.observed_max == pytest.approx(4.0, abs=1e-9)
        expected = canonical_graph(disjoint_union(complete_graph(5), empty_graph(2)))
        assert r.argmax_certificates == (to_graph6(expected),)
        assert r.passed

    def test_above_case_star(self):
        r = scan_record(7, 1, 0)
        assert r.observed_max == pytest.approx(math.sqrt(6), abs=1e-9)
        assert r.passed

    def test_threshold_tie_has_two_classes(self):
        r = scan_record(7, 2, "1/2")
        assert len(r.argmax_certificates) == 2
        assert r.observed_max == pytest.approx(6.0, abs=1e-9)
        assert r.passed

    @pytest.mark.parametrize("n, certificate", [(1, "@"), (2, "A?"), (3, "B?")])
    def test_edgeless_orders(self, n, certificate):
        # verify_order reports beta >= 1 only; the record of beta = 0 from
        # the same scan predicts the one edgeless class
        for alpha in (0, "1/2", 2):
            a = as_fraction(alpha)
            (r,) = _reports(_scan_order(n, a), [classify_regime(n, 0, a)], DEFAULT_REPORT_TOL, 0.0)
            assert r.passed
            assert r.predicted_certificates == (certificate,)
            assert r.argmax_certificates == (certificate,)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tolerance_checked_before_the_scan(self, tol, monkeypatch):
        import alphaspec.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("the order was scanned")

        monkeypatch.setattr(verify, "_scan_order", refuse)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify_order(5, 0, tol=tol)

    def test_scan_counts_whole_order(self):
        r = scan_record(6, 1, 1)
        assert r.graphs_scanned == 156

    def test_infeasible_beta(self):
        assert [r.beta for r in verify_order(5, 0)] == [1, 2]
        with pytest.raises(ValueError):
            classify_regime(5, 3, 0)

    def test_value_and_structure_recorded_independently(self):
        r = scan_record(6, 2, 1)
        assert isinstance(r.value_pass, bool)
        assert isinstance(r.structure_pass, bool)

    def test_graph6_ingestion_source(self, tmp_path):
        path = tmp_path / "order5.g6"
        path.write_text("\n".join(to_graph6(g) for g in isomorphism_classes(5)) + "\n")
        r = scan_record(5, 2, 0, source=str(path))
        assert r.observed_max == pytest.approx(4.0, abs=1e-9)
        assert r.graphs_scanned == 34
        assert r.passed


def write_order5_file_with_bad_line_3(path, line3):
    """Line 1 holds K_5, line 2 is blank, line 3 is ``line3``."""
    path.write_text(to_graph6(complete_graph(5)) + "\n\n" + line3 + "\n")
    return str(path)


class TestGraph6FileErrors:
    def test_bad_payload_names_line_and_offset(self, tmp_path):
        from alphaspec import Graph6Error

        source = write_order5_file_with_bad_line_3(tmp_path / "bad.g6", "D\x19{")
        with pytest.raises(Graph6Error, match=r"^line 3: byte 25 .* \(byte offset 1\)$") as err:
            verify_order(5, 0, source=source)
        assert (err.value.line, err.value.offset) == (3, 1)

    def test_wrong_order_names_its_line(self, tmp_path):
        source = write_order5_file_with_bad_line_3(tmp_path / "mixed.g6", to_graph6(complete_graph(4)))
        with pytest.raises(ValueError, match=r"^line 3: graph has order 4, expected 5$"):
            verify_order(5, 0, source=source)


class TestVerifyOrder:
    def test_order_six_all_alphas(self):
        for alpha in (0, "1/2", 1, 2):
            reports = verify_order(6, alpha)
            assert [r.beta for r in reports] == [1, 2, 3]
            assert all(r.passed for r in reports)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_alpha_refused_before_the_scan(self, alpha, monkeypatch):
        import alphaspec.verify as verify

        def unreachable(*args, **kwargs):
            raise AssertionError("scanned an order at a non-finite alpha")

        monkeypatch.setattr(verify, "_scan_order", unreachable)
        with pytest.raises(ValueError, match="alpha must be finite"):
            verify_order(6, alpha)

    def test_graph6_source_is_read_once(self, tmp_path, monkeypatch):
        import alphaspec.verify as verify

        path = tmp_path / "order6.g6"
        path.write_text("\n".join(to_graph6(g) for g in isomorphism_classes(6)) + "\n")
        reads = []
        real = verify.read_graph6_file

        def counting(source):
            reads.append(source)
            return real(source)

        monkeypatch.setattr(verify, "read_graph6_file", counting)
        reports = verify_order(6, 2, source=str(path))
        assert reads == [str(path)]
        assert [r.beta for r in reports] == [1, 2, 3]
        assert all(r.passed and r.graphs_scanned == 156 for r in reports)

    def test_census_reached_through_the_module_attribute(self, monkeypatch):
        # the benchmark tracer wraps enumeration.isomorphism_classes there;
        # a name imported into verify would bypass its wrapper
        import alphaspec.enumeration as enumeration

        calls = []
        real = enumeration.isomorphism_classes

        def counting(n, jobs=1):
            calls.append((n, jobs))
            return real(n, jobs=jobs)

        monkeypatch.setattr(enumeration, "isomorphism_classes", counting)
        reports = verify_order(5, 0)
        assert calls == [(5, 1)]
        assert [r.graphs_scanned for r in reports] == [34, 34]

    def test_graph6_rows_wider_than_int64(self, tmp_path):
        import random

        from alphaspec import from_edges, spectral_radius

        rng = random.Random(70)
        sparse = from_edges(70, [(u, v) for u in range(70) for v in range(u + 1, 70) if rng.random() < 0.03])
        cliques = disjoint_union(complete_graph(5), disjoint_union(cycle_graph(7), empty_graph(58)))
        path = tmp_path / "order70.g6"
        path.write_text(to_graph6(sparse) + "\n" + to_graph6(cliques) + "\n")
        reports = verify_order(70, 1, source=str(path))
        by_beta = {matching_number(g): g for g in (sparse, cliques)}
        assert len(by_beta) == 2 and [r.beta for r in reports] == sorted(by_beta)
        for r in reports:
            assert r.graphs_scanned == 2
            assert r.observed_max == spectral_radius(by_beta[r.beta], 1).rho

    @pytest.mark.parametrize("alpha", [0, 2])
    def test_radius_slices_leave_reports_unchanged(self, monkeypatch, alpha):
        import dataclasses

        import alphaspec.verify as verify

        def untimed():
            return [dataclasses.replace(r, wall_time=0.0) for r in verify_order(6, alpha)]

        whole = untimed()
        monkeypatch.setattr(verify, "RADII_BATCH_ENTRIES", 7 * 36)  # 7 graphs a slice
        assert untimed() == whole

    def test_wall_time_covers_the_scan(self, monkeypatch):
        import time

        import alphaspec.verify as verify

        real = verify._scan_order

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "_scan_order", slow)
        reports = verify_order(5, 1)
        assert [r.beta for r in reports] == [1, 2]
        assert all(r.wall_time >= 0.05 for r in reports)


class TestScanSlices:
    """``_scan_order`` cuts a scan into contiguous slices of
    ``RADII_BATCH_ENTRIES // n**2`` classes, one ``_scan_chunk`` each."""

    @staticmethod
    def recorded_slices(monkeypatch):
        import alphaspec.verify as verify

        sizes = []
        real = verify._scan_chunk

        def recording(rows_list, n, alpha):
            sizes.append(len(rows_list))
            return real(rows_list, n, alpha)

        monkeypatch.setattr(verify, "_scan_chunk", recording)
        return sizes

    def test_matching_slices_agree_with_single_graphs(self, tmp_path, monkeypatch):
        from alphaspec.verify import RADII_BATCH_ENTRIES

        n = 9
        per_slice = RADII_BATCH_ENTRIES // (n * n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng = random.Random(9)
        graphs = []
        for _ in range(2 * per_slice + 5):
            # each pair an edge with probability 1/2, 1/4, 1/8 or 1/16
            mask = ~0
            for _ in range(rng.randint(1, 4)):
                mask &= rng.getrandbits(len(pairs))
            graphs.append(from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1]))
        path = tmp_path / "order9.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        sizes = self.recorded_slices(monkeypatch)
        together = _scan_order(n, as_fraction(1), source=str(path)).beta.tolist()
        assert sizes == [per_slice, per_slice, 5]
        assert set(together) == {0, 1, 2, 3, 4}
        assert together == [matching_number(g) for g in graphs]
        boundary = [i for k in (1, 2) for i in range(k * per_slice - 2, k * per_slice + 2)] + [len(graphs) - 1]
        assert [together[i] for i in boundary] == [int(matching_numbers(n, [graphs[i].rows])[0]) for i in boundary]

    @pytest.mark.parametrize("per_slice", [1, 7])
    def test_radius_slices(self, monkeypatch, per_slice):
        import alphaspec.verify as verify

        rows = [g.rows for g in isomorphism_classes(6)]  # 156 classes, not a multiple of 7
        whole = spectral_radii(6, rows, 0.5)
        monkeypatch.setattr(verify, "RADII_BATCH_ENTRIES", per_slice * 36)
        sliced = _scan_order(6, as_fraction("1/2")).rho
        assert [r.hex() for r in sliced.tolist()] == [r.hex() for r in whole.tolist()]

    def test_slice_stays_within_the_entry_budget(self, tmp_path, monkeypatch):
        cycles, edgeless = tmp_path / "cycles.g6", tmp_path / "edgeless.g6"
        cycles.write_text((to_graph6(cycle_graph(70)) + "\n") * 100)
        edgeless.write_text((to_graph6(empty_graph(256)) + "\n") * 2)
        sizes = self.recorded_slices(monkeypatch)
        _scan_order(70, as_fraction(1), source=str(cycles))
        _scan_order(256, as_fraction(1), source=str(edgeless))
        assert sizes == [13] * 7 + [9, 1, 1]

    @pytest.mark.parametrize("n", range(_SUBSET_DP_MAX_ORDER + 1))
    def test_subset_dp_table_of_a_slice_stays_below_two_to_the_22(self, monkeypatch, n):
        # a batch one graph larger than 2**22 entries allow, of one empty
        # graph repeated; the solvers are stubbed, as only the cut is read
        import alphaspec.enumeration as enumeration
        import alphaspec.verify as verify

        count = (1 << 22 >> n) + 1
        monkeypatch.setattr(enumeration, "isomorphism_classes", lambda n, jobs: [empty_graph(n)] * count)
        sizes = []

        def matching_stub(n, rows_list):
            sizes.append(len(rows_list))
            return np.zeros(len(rows_list), dtype=int)

        monkeypatch.setattr(verify, "matching_numbers", matching_stub)
        monkeypatch.setattr(verify, "spectral_radii", lambda n, rows_list, alpha: np.zeros(len(rows_list)))
        assert len(_scan_order(n, as_fraction(1)).beta) == count == sum(sizes)
        assert max(sizes) << n <= 1 << 22


class TestResolveJobs:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def test_default_is_one(self, monkeypatch):
        # the environment sets nothing: only jobs= does
        import alphaspec.verify as verify

        monkeypatch.setenv("ALPHASPEC_JOBS", "3")
        counts = []
        real = verify.map_chunks

        def recording(func, items, jobs, *args):
            counts.append(jobs)
            return real(func, items, jobs, *args)

        monkeypatch.setattr(verify, "map_chunks", recording)
        verify_order(5, 0)
        assert counts == [1]

    @pytest.mark.parametrize("value", [0, -1, 5, 2.0])
    def test_bad_explicit_rejected(self, value):
        with pytest.raises(ValueError, match="between 1 and 4"):
            resolve_jobs(value)

    def test_checked_before_any_scan(self, monkeypatch, tmp_path):
        import alphaspec.enumeration as enumeration
        import alphaspec.verify as verify

        def no_scan(*args, **kwargs):
            raise AssertionError("scan started before the worker count was checked")

        monkeypatch.setattr(enumeration, "isomorphism_classes", no_scan)
        monkeypatch.setattr(verify, "read_graph6_file", no_scan)
        path = tmp_path / "order6.g6"
        path.write_text(to_graph6(complete_graph(6)) + "\n")
        for jobs in (5, 2.0):
            for source in (None, str(path)):
                with pytest.raises(ValueError, match="^jobs"):
                    verify_order(6, 0, jobs=jobs, source=source)


class TestReportSerialization:
    def test_json_round_trip(self):
        r = scan_record(5, 1, "1/2")
        assert json.loads(json.dumps(r.record())) == r.record()

    def test_csv_field_order(self):
        import io

        from alphaspec.cli import _write

        r = scan_record(5, 1, 0)
        out = io.StringIO()
        _write("csv", [r.record()], [], REPORT_FIELDS, out)
        header, row = out.getvalue().splitlines()
        assert header.split(",") == list(REPORT_FIELDS) == list(r.record())
        assert len(row.split(",")) == len(REPORT_FIELDS)
        assert row.startswith("5,1,0,")

    def test_human_line_mentions_pass(self):
        r = scan_record(5, 1, 0)
        assert "[PASS]" in r.to_human()


class TestFamilySearch:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_alpha_refused_before_the_table(self, alpha, monkeypatch):
        import alphaspec.verify as verify

        def unreachable(*args, **kwargs):
            raise AssertionError("built a candidate table at a non-finite alpha")

        monkeypatch.setattr(verify, "_candidate_table", unreachable)
        with pytest.raises(ValueError, match="alpha must be finite"):
            family_search(10, 3, alpha)

    def test_above_case(self):
        result = family_search(10, 2, 0)
        assert result.best.s == 2
        assert result.best.parts == (1,) * 8
        assert result.rho == pytest.approx((1 + math.sqrt(65)) / 2, abs=1e-9)
        assert result.canonical_shape and result.matches_prediction

    def test_structure_at_alpha_one(self):
        result = family_search(12, 3, 1)
        expected = [1] * (result.best.q - 1) + [2 * 3 - 2 * result.best.s + 1]
        assert list(result.best.parts) == sorted(expected)
        assert result.canonical_shape

    def test_minimal_order_degenerates_to_clique(self):
        for alpha in (0, 1, 2):
            result = family_search(7, 3, alpha)
            assert result.best.s == 0
            assert result.best.parts == (7,)
            assert result.rho == pytest.approx(2 * (float(alpha) + 1) * 3, abs=1e-9)
            assert result.matches_prediction

    def test_agrees_with_exhaustive(self):
        for n, beta, alpha in [(6, 2, 0), (7, 2, 1), (7, 3, "1/2"), (5, 2, 2)]:
            result = family_search(n, beta, alpha)
            report = scan_record(n, beta, alpha)
            assert result.rho == pytest.approx(report.observed_max, abs=1e-8)

    def test_candidate_space_is_complete_and_valid(self):
        fams = list(candidate_families(9, 3))
        assert len(fams) == len(set(fams))
        for fam in fams:
            assert fam.order == 9
            assert fam.beta == 3
            assert matching_number(fam.graph()) == 3

    def test_cells_round_trip_through_parts(self):
        for n in range(1, 21):
            for beta in range(0, (n - 1) // 2 + 1):
                for f in candidate_families(n, beta):
                    assert JoinFamily.of_parts(f.s, f.parts) == f

    def test_infeasible(self):
        with pytest.raises(ValueError):
            family_search(6, 3, 0)


# -- the one-family-at-a-time search, kept as the reference ----------------


def _old_partitions_at_most(total, slots):
    def rec(remaining, cap, left, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        if left == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, left - 1, prefix)
            prefix.pop()

    yield from rec(total, total if total else 1, slots, [])


def _old_candidate_families(n, beta):
    for s in range(0, beta + 1):
        q = n + s - 2 * beta
        for mparts in _old_partitions_at_most(beta - s, q):
            parts = tuple(sorted([2 * m + 1 for m in mparts] + [1] * (q - len(mparts))))
            yield JoinFamily.of_parts(s, parts)


def _old_family_search(n, beta, alpha):
    """(best, rho, families scanned): the first maximum in candidate order,
    each radius from its own batch of one."""
    af = float(as_fraction(alpha))
    best, best_rho, scanned = None, -math.inf, 0
    for family in _old_candidate_families(n, beta):
        rho = family_radius(family, af)
        scanned += 1
        if rho > best_rho:
            best, best_rho = family, rho
    return best, best_rho, scanned


def numbered_batches(n, beta):
    """(candidate index of the first row, batch) for every batch of the
    search: the batches follow candidate order, so the index is a running
    offset."""
    offset = 0
    for batch in _candidate_batches(n, beta):
        yield offset, batch
        offset += len(batch.s)


THRESHOLD_POINTS = [
    (n, beta, alpha)
    for n in range(3, 31)
    for beta in range(1, (n - 1) // 2 + 1)
    for alpha in ("0", "1/2", "1", "3/2", "2", "5/2")
    if classify_regime(n, beta, alpha).case_id == THRESHOLD
]


class TestFamilySearchAgainstLoop:
    @staticmethod
    def check(n, beta, alpha):
        best, rho, scanned = _old_family_search(n, beta, alpha)
        result = family_search(n, beta, alpha)
        assert (result.best.s, result.best.parts) == (best.s, best.parts)
        assert result.rho == rho
        assert result.families_scanned == scanned
        expected = one_clique_family(n, beta, best.s)
        verdict = classify_regime(n, beta, alpha)
        assert result.canonical_shape == (best.parts == expected.parts)
        assert result.matches_prediction == (best in verdict.extremal_families)

    @pytest.mark.parametrize("alpha", ["0", "1/2", "1", "2"])
    def test_every_pair_to_order_24(self, alpha):
        for n in range(3, 25):
            for beta in range(1, (n - 1) // 2 + 1):
                self.check(n, beta, alpha)

    def test_ties_go_to_the_first_candidate(self, monkeypatch):
        import alphaspec.verify as verify

        # tie the last two-cell and the first three-cell family of core 0:
        # the three-cell one comes first in candidate order and must win
        core0 = [f for f in candidate_families(20, 6) if f.s == 0]
        cells = [len(f.cells) for f in core0]
        last_two = max(i for i, k in enumerate(cells) if k == 2)
        first_three = cells.index(3)
        assert first_three < last_two
        tied = {core0[last_two], core0[first_three]}

        def radius(batch, alpha, floor=-math.inf):  # no row is dropped
            return np.array([float(batch.family(i) in tied) for i in range(len(batch.sizes))])

        monkeypatch.setattr(verify, "family_radius", radius)
        result = family_search(20, 6, 0)
        assert result.best == core0[first_three]
        assert result.rho == 1.0

    def test_threshold_points(self):
        assert (9, 3, "1") in THRESHOLD_POINTS and (14, 5, "1") in THRESHOLD_POINTS
        for n, beta, alpha in THRESHOLD_POINTS:
            self.check(n, beta, alpha)

    def test_candidate_order(self):
        for n in range(1, 21):
            for beta in range(0, (n - 1) // 2 + 1):
                assert list(candidate_families(n, beta)) == list(_old_candidate_families(n, beta))

    @pytest.mark.parametrize(
        "n, beta, alpha",
        [(64, 24, a) for a in ("0", "1/2", "1", "2")] + [(9, 3, "1")],
    )
    def test_batched_radius_equals_single(self, n, beta, alpha):
        af = float(as_fraction(alpha))
        seen = 0
        for batch in _candidate_batches(n, beta):
            radii = family_radius(batch, af)
            for i, rho in enumerate(radii.tolist()):
                assert family_radius(batch.family(i), af) == rho
            seen += len(radii)
        assert seen == family_count(n, beta)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_batches(self, monkeypatch, rows):
        import alphaspec.verify as verify

        # a batch is one chunk, so chunks of `rows` rows bound every
        # batch's row count by `rows`
        monkeypatch.setattr(verify, "FAMILY_CHUNK_ROWS", rows)
        for n, beta, alpha in [(20, 6, "0"), (21, 7, "1/2"), (14, 5, "1"), (9, 3, "1")]:
            sizes = [len(batch.s) for batch in _candidate_batches(n, beta)]
            assert max(sizes) <= rows and sum(sizes) == family_count(n, beta)
            self.check(n, beta, alpha)

    @pytest.mark.parametrize("rows", [1, 5, 100])
    def test_small_chunks(self, monkeypatch, rows):
        import alphaspec.verify as verify

        # chunk boundaries fall inside core sizes
        monkeypatch.setattr(verify, "FAMILY_CHUNK_ROWS", rows)
        for n, beta, alpha in [(20, 6, "0"), (21, 7, "1/2"), (14, 5, "1"), (9, 3, "1")]:
            self.check(n, beta, alpha)
        assert list(candidate_families(14, 5)) == list(_old_candidate_families(14, 5))

    def test_batches_follow_candidate_order(self):
        for n, beta in [(20, 6), (21, 7), (9, 3)]:
            families = list(_old_candidate_families(n, beta))
            seen = []
            for first, batch in numbered_batches(n, beta):
                indices = list(range(first, first + len(batch.s)))
                assert [batch.family(i) for i in range(len(indices))] == [families[j] for j in indices]
                seen.extend(indices)
            assert seen == list(range(len(families)))

    def test_batches_span_core_sizes(self):
        cores = [set(batch.s.tolist()) for batch in _candidate_batches(20, 6)]
        assert any(len(c) > 1 and 0 in c for c in cores)

    @pytest.mark.parametrize("alpha", [0, 0.5, 1, 2])
    def test_mixed_core_batch_equals_single(self, alpha):
        # two cells each: sizes ascending, core sizes 0, 2, 1, 0, 3
        families = [
            JoinFamily(0, ((1, 2), (5, 1))),
            JoinFamily(2, ((1, 2), (3, 2))),
            JoinFamily(1, ((3, 1), (5, 1))),
            JoinFamily(0, ((3, 2), (7, 1))),
            JoinFamily(3, ((1, 4), (9, 1))),
        ]
        batch = FamilyBatch(
            np.array([f.s for f in families], dtype=float),
            np.array([[p for p, _ in f.cells] for f in families], dtype=float),
            np.array([[m for _, m in f.cells] for f in families], dtype=float),
        )
        radii = family_radius(batch, alpha)
        assert radii.tolist() == [family_radius(f, alpha) for f in families]
        assert [batch.family(i) for i in range(len(families))] == families

    def test_tie_across_core_sizes_in_one_batch(self, monkeypatch):
        import alphaspec.verify as verify

        families = list(candidate_families(20, 6))
        offset, batch = next((i, b) for i, b in numbered_batches(20, 6) if len(set(b.s.tolist())) > 1)
        first, last = batch.family(0), batch.family(len(batch.s) - 1)
        assert first.s < last.s and len(batch.s) > 1
        tied = {first, last}

        def radius(batch, alpha, floor=-math.inf):  # no row is dropped
            return np.array([float(batch.family(i) in tied) for i in range(len(batch.sizes))])

        monkeypatch.setattr(verify, "family_radius", radius)
        result = family_search(20, 6, 0)
        assert result.best == first == families[offset]
        assert result.rho == 1.0

    def test_tie_across_chunks(self, monkeypatch):
        import alphaspec.verify as verify

        # chunks of 5 rows: rows 3 and 12 of (20, 6) tie in the first and
        # the third chunk, and the earlier row wins, however the later
        # chunk's maximum compares
        monkeypatch.setattr(verify, "FAMILY_CHUNK_ROWS", 5)
        families = list(candidate_families(20, 6))
        tied = {families[3], families[12]}

        def radius(batch, alpha, floor=-math.inf):  # no row is dropped
            return np.array([float(batch.family(i) in tied) for i in range(len(batch.sizes))])

        monkeypatch.setattr(verify, "family_radius", radius)
        result = family_search(20, 6, 0)
        assert result.best == families[3]
        assert result.rho == 1.0

    @pytest.mark.parametrize("alpha", [0, 0.5, 1, 2, 1e12])
    def test_empty_cells_leave_the_radius(self, alpha):
        # empty cells of the row's largest size with count 0, before the
        # size-1 cell and between it and the rest; the size-1 cell may
        # itself be empty
        families = [
            JoinFamily(2, ((1, 3), (3, 2), (7, 1))),
            JoinFamily(1, ((3, 1), (5, 2))),
            JoinFamily(3, ((1, 5),)),
            JoinFamily(0, ((1, 4), (9, 1))),
        ]
        padded = [
            [(7, 0), (1, 3), (7, 0), (3, 2), (7, 1)],
            [(5, 0), (5, 0), (5, 0), (3, 1), (5, 2)],
            [(1, 5), (1, 0), (1, 0), (1, 0), (1, 0)],
            [(1, 4), (9, 0), (9, 0), (9, 0), (9, 1)],
        ]
        cells = np.array(padded, dtype=float)
        batch = FamilyBatch(np.array([f.s for f in families], dtype=float), cells[:, :, 0], cells[:, :, 1])
        assert [batch.family(i) for i in range(len(families))] == families
        radii = family_radius(batch, alpha).tolist()
        assert radii == [family_radius(f, alpha) for f in families]
        assert radii[:2] == family_radius(FamilyBatch(batch.s[:2], batch.sizes[:2], batch.counts[:2]), alpha).tolist()

    @pytest.mark.parametrize("alpha", [0, 0.5, 1, 2, 1 / 3, 1e6])
    def test_size_one_empty_cells_leave_the_radius(self, alpha):
        # empty cells of size 1 (the candidate batches' padding) in every
        # column left of the one holding the largest part, and also last
        # in a secular row, where that column is not read
        families = [
            JoinFamily(2, ((1, 3), (3, 2), (7, 1))),
            JoinFamily(1, ((3, 1), (5, 2))),
            JoinFamily(3, ((1, 5),)),
            JoinFamily(0, ((1, 4), (9, 1))),
            JoinFamily(0, ((5, 3),)),
            JoinFamily(1, ((9, 1),)),
            JoinFamily(4, ((1, 6), (3, 1))),
        ]
        for family in families:
            expected = family_radius(family, alpha)
            cells = list(family.cells)
            secular = family.s >= 1 and family.q > 1
            for j in range(len(cells) + secular):
                for padding in (1, 3):
                    row = cells[:j] + [(1, 0)] * padding + cells[j:]
                    batch = FamilyBatch(np.array([float(family.s)]), *np.array([row], dtype=float).transpose(2, 0, 1))
                    assert batch.family(0) == family
                    assert family_radius(batch, alpha)[0].hex() == expected.hex(), (family, j, padding)

    @pytest.mark.parametrize("n, beta", [(23, 7), (21, 7), (64, 24)])
    def test_table_padding_equals_largest_size_padding(self, n, beta):
        # the batches' size-1 empty cells give the radii, bit for bit, of
        # empty cells that take the row's largest part size
        for batch in _candidate_batches(n, beta):
            padded = FamilyBatch(batch.s, np.where(batch.counts > 0, batch.sizes, batch.sizes[:, -1:]), batch.counts)
            for alpha in (0, 0.5, 1, 2, 1 / 3, 1e6):
                radii = family_radius(batch, alpha)
                assert np.array_equal(radii, family_radius(padded, alpha)), (n, beta, alpha)

    def test_table_cells(self):
        # one byte per cell size and count, W = 10 cells for beta = 58
        # (1 + ... + 10 <= 58 < 1 + ... + 11) and cell 0, which holds the
        # part count; the core sizes are the block bounds
        table = _candidate_table(123, 58, _check_cap(123, 58))
        assert table.cells.shape == (family_count(123, 58), 11, 2)
        width = table.cells.shape[1] - 1
        assert table.cells.base.nbytes <= (2 * width + 2) * len(table.cells) + 2  # and one spare cell
        assert len(table.start) == 58 + 2

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_no_matching_edge(self, n):
        # beta = 0: one row, n parts of size 1
        table = _candidate_table(n, 0, _check_cap(n, 0))
        assert table.cells.tolist() == [[[1, 0]]] and table.start == [0, 1]
        (batch,) = _candidate_batches(n, 0)
        assert batch.counts.tolist() == [[n]] and batch.sizes.tolist() == [[1]]
        assert list(candidate_families(n, 0)) == [JoinFamily(0, ((1, n),))]


class TestCandidateTableAgainstPieces:
    """The table equals ``reference.candidate_table_by_pieces``, the
    builder with one slice copy per (t, v) piece, cell for cell."""

    @staticmethod
    def check(n, beta):
        half, count, core, parts = candidate_table_by_pieces(n, beta)
        table = _candidate_table(n, beta, _check_cap(n, beta))
        assert table.cells.dtype == np.uint8
        assert np.array_equal(table.cells[:, 1:, 0], 2 * half.astype(int) + 1), (n, beta)
        assert np.array_equal(table.cells[:, 1:, 1], count), (n, beta)
        assert np.array_equal(table.cells[:, 0, 0], np.ones(len(core))), (n, beta)
        assert np.array_equal(table.cells[:, 0, 1], parts), (n, beta)
        assert np.array_equal(np.repeat(np.arange(beta + 1), np.diff(table.start)), core), (n, beta)

    def test_every_pair_to_order_40(self):
        # every block cut by the part-count limit q = n + s - 2*beta <= t
        for n in range(1, 41):
            for beta in range(0, (n - 1) // 2 + 1):
                self.check(n, beta)

    @pytest.mark.parametrize("n, beta", [(64, 24), (80, 30), (104, 41), (120, 50), (123, 58)])
    def test_large_searches(self, n, beta):
        self.check(n, beta)

    @pytest.mark.parametrize("n, beta", [(64, 24), (21, 7), (23, 7), (1, 0), (5, 0)])
    def test_batches_read_the_cells(self, n, beta):
        # the batch is the table's cells with cell 0 counting the q minus
        # parts parts of size 1, and the row's core size
        half, count, core, parts = candidate_table_by_pieces(n, beta)
        ones = core.astype(int) + (n - 2 * beta) - parts
        offset = 0
        for batch in _candidate_batches(n, beta):
            rows = slice(offset, offset + len(batch.s))
            assert batch.s.dtype == batch.sizes.dtype == batch.counts.dtype == np.float64
            assert np.array_equal(batch.s, core[rows])
            assert np.array_equal(batch.sizes, np.column_stack((np.ones(len(batch.s)), 2.0 * half[rows] + 1)))
            assert np.array_equal(batch.counts, np.column_stack((ones[rows], count[rows])))
            offset += len(batch.s)
        assert offset == len(core)


class TestCandidateTableSlices:
    """A block of more than ``FAMILY_GATHER_ROWS`` candidates is gathered
    in slices; the table is the same cell for cell, and the build holds
    little beyond the table."""

    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_small_slices(self, monkeypatch, rows):
        import alphaspec.verify as verify

        monkeypatch.setattr(verify, "FAMILY_GATHER_ROWS", rows)
        for n in range(1, 31):
            for beta in range(0, (n - 1) // 2 + 1):
                TestCandidateTableAgainstPieces.check(n, beta)
        TestCandidateTableAgainstPieces.check(64, 24)

    @pytest.mark.parametrize("n, beta", [(64, 24), (80, 30)])
    def test_benchmark_blocks_are_one_gather(self, monkeypatch, n, beta):
        import alphaspec.verify as verify

        # only a block cut into slices clips its runs; the largest blocks
        # of (64, 24) and (80, 30) draw on 1,568 and 5,589 source rows
        clipped = []
        real = np.clip
        monkeypatch.setattr(verify.np, "clip", lambda *args: clipped.append(args) or real(*args))
        verify._candidate_table(n, beta, _check_cap(n, beta))
        assert not clipped
        verify._candidate_table(104, 41, _check_cap(104, 41))
        assert clipped

    def test_build_peak_stays_near_the_table(self):
        import tracemalloc

        # the largest block of (120, 50) has 181,274 rows; gathered at
        # once it held about 6 MB beside the 24.7 MB table
        counts = _check_cap(120, 50)
        assert max(counts) == 181_274
        tracemalloc.start()
        try:
            table = _candidate_table(120, 50, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.cells.nbytes + 3_000_000, (peak, table.cells.nbytes)


SWEEP_ALPHAS = ["0", "1/3", "1/2", "1", "2", "7/5", "10"]


class TestFloorSearchAgainstFullSolve:
    """``family_search`` solves only the rows that its floor test keeps;
    ``reference.full_solve_search`` solves every row.  Their records agree
    bit for bit."""

    @staticmethod
    def check(n, beta, alpha):
        expected = full_solve_search(n, beta, alpha)
        result = family_search(n, beta, alpha)
        assert result == expected, (n, beta, alpha)
        assert result.rho.hex() == expected.rho.hex(), (n, beta, alpha)

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_every_pair_to_order_40(self, alpha):
        for n in range(1, 41):
            for beta in range(0, (n - 1) // 2 + 1):
                self.check(n, beta, alpha)

    def test_threshold_points(self):
        # (21, 7, 1/3): the clique and the complete split graph tie
        # within an ulp, and the first maximum is the clique's float
        assert classify_regime(21, 7, "1/3").case_id == THRESHOLD
        for n, beta, alpha in THRESHOLD_POINTS + [(21, 7, "1/3")]:
            self.check(n, beta, alpha)

    @pytest.mark.parametrize(
        "n, beta, alpha",
        [(64, 24, a) for a in ("0", "1/2", "1", "2")] + [(80, 30, "1"), (104, 41, "1"), (120, 50, "1"), (123, 58, "1")],
    )
    def test_large_searches(self, n, beta, alpha):
        self.check(n, beta, alpha)

    @pytest.mark.parametrize("n, beta", [(64, 24), (20, 6), (9, 3), (41, 20)])
    def test_floor_rows_are_the_one_clique_families(self, n, beta):
        # the table's first rows, and the two-cell batch the search solves
        # in their place, radius for radius
        table = _candidate_table(n, beta, _check_cap(n, beta))
        heads = table.batch(table.start[:-1], np.arange(beta + 1.0))
        batch = one_clique_batch(n, beta)
        assert [heads.family(s) for s in range(beta + 1)] == [one_clique_family(n, beta, s) for s in range(beta + 1)]
        assert [batch.family(s) for s in range(beta + 1)] == [one_clique_family(n, beta, s) for s in range(beta + 1)]
        for alpha in SWEEP_ALPHAS:
            assert family_radius(batch, alpha).tobytes() == family_radius(heads, alpha).tobytes(), alpha

    @pytest.mark.parametrize("alpha, solved", [("0", 0), ("1/2", 0), ("1", 0), ("2", 0)])
    def test_newton_solves_at_most_the_winner(self, monkeypatch, alpha, solved):
        import alphaspec.verify as verify

        # past the floor batch no row of (64, 24) is solved: every core
        # size's other rows are certified below the floor, so the
        # candidate table is never built
        kept = []
        real = verify.family_radius

        def radius(batch, alpha, floor=-math.inf):
            radii = real(batch, alpha, floor)
            if floor > -math.inf:
                secular = (batch.s >= 1) & (batch.counts.sum(axis=1) > 1)
                kept.append(int(np.count_nonzero(secular & (radii > -math.inf))))
            return radii

        def unreachable(*args):
            raise AssertionError("the candidate table was built")

        monkeypatch.setattr(verify, "family_radius", radius)
        monkeypatch.setattr(verify, "_candidate_table", unreachable)
        assert family_search(64, 24, alpha).families_scanned == 7265
        assert sum(kept) == solved


def search_blocks(n, beta, alpha):
    """(floor, table, closed): the search's floor from its one-big-clique
    rows, its candidate table and the core sizes the block test closes."""
    floor = float(family_radius(one_clique_batch(n, beta), alpha).max())
    return floor, _candidate_table(n, beta, _check_cap(n, beta)), _blocks_below_floor(n, beta, alpha, floor)


def later_rows(table, s):
    """The rows of block s after its first, as one batch."""
    first, stop = table.start[s] + 1, table.start[s + 1]
    return table.batch(slice(first, stop), np.full(stop - first, float(s)))


class TestBlockCertificate:
    """``_blocks_below_floor`` closes a core size only when every row of it
    but the first lies below the floor, and the search gives the records of
    the full solve whichever blocks are open."""

    def test_relaxed_rows(self):
        # one row per (s >= 1, 1 <= h <= t - 1); c and d are the floats of
        # the block's own rows, and each weight is its exact relaxed value
        # or the next float above
        for n in range(1, 41):
            for beta in range(0, (n - 1) // 2 + 1):
                s, h, c, d, w = _relaxed_terms(n, beta, 0.0)
                pairs = [(core, half) for core in range(1, beta + 1) for half in range(1, beta - core)]
                assert list(zip(s.astype(int).tolist(), h.astype(int).tolist())) == pairs, (n, beta)
                for (core, half), w_1, w_2 in zip(pairs, w[0].tolist(), w[1].tolist()):
                    t, q = beta - core, n + core - 2 * beta
                    exact_1, exact_2 = Fraction(core * (q * half - t), half), Fraction(core * t * (2 * half + 1), half)
                    for got, exact in ((w_1, exact_1), (w_2, exact_2)):
                        slack = abs(exact) * 2**-51 + Fraction(2**-1074)
                        assert exact <= Fraction(got) <= exact + slack, (n, beta, core, half)
        for alpha in SWEEP_ALPHAS:
            a = float(as_fraction(alpha))
            for n, beta in [(20, 6), (41, 20), (64, 24)]:
                s, h, c, d, w = _relaxed_terms(n, beta, a)
                heads_c = _secular_terms(one_clique_batch(n, beta), a)[0]
                rows = FamilyBatch(s, np.column_stack((np.ones_like(h), 2 * h + 1)), np.ones((len(s), 2)))
                assert np.array_equal(c, heads_c[s.astype(int)])
                assert np.array_equal(d, _secular_terms(rows, a)[1])

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_certified_rows_are_below_f_exactly(self, alpha):
        # at the search's floor, and at floors just above each block's
        # largest later radius, every later row of a closed block has f
        # above its cell diagonals and h(f) > 0 in exact arithmetic (a
        # clique row of core 0: its float below f)
        a = as_fraction(alpha)
        certified = 0
        for n in range(1, 25):
            for beta in range(0, (n - 1) // 2 + 1):
                floor, table, _ = search_blocks(n, beta, a)
                tops = {}
                for s in range(beta + 1):
                    if table.start[s + 1] - table.start[s] > 1:
                        tops[s] = family_radius(later_rows(table, s), a).max()
                floors = {floor} | {float(top * (1 + 2.0**-k)) for top in tops.values() for k in (30, 36)}
                for floor in sorted(floors):
                    f = floor * (1 - _FLOOR_MARGIN)
                    closed = _blocks_below_floor(n, beta, a, floor)
                    for s in tops:
                        if not closed[s]:
                            continue
                        rows = later_rows(table, s)
                        if s == 0:
                            assert np.all(family_radius(rows, a) < f), (n, beta, s)
                        else:
                            c, d, w = _secular_terms(rows, float(a))
                            for i in range(len(c)):
                                assert f > d[:, i].max(), (n, beta, s, i)
                                assert secular_value_exact(c[i], d[:, i], w[:, i], f) > 0, (n, beta, s, i)
                        certified += len(rows.s)
        assert certified > 2_000

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_a_later_row_at_the_floor_opens_its_block(self, alpha):
        # negative control: the floor at each block's largest later radius
        # leaves that block open
        a = as_fraction(alpha)
        opened = 0
        for n in range(1, 25):
            for beta in range(0, (n - 1) // 2 + 1):
                _, table, _ = search_blocks(n, beta, a)
                for s in range(beta + 1):
                    if table.start[s + 1] - table.start[s] > 1:
                        top = float(family_radius(later_rows(table, s), a).max())
                        assert not _blocks_below_floor(n, beta, a, top)[s], (n, beta, s)
                        opened += 1
        assert opened > 400

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_closed_blocks_solve_below_the_floor(self, alpha):
        # over the floor search's sweep, each closed block's later rows,
        # solved with no floor, have floats below the floor
        a = as_fraction(alpha)
        for n in range(1, 41):
            for beta in range(0, (n - 1) // 2 + 1):
                floor, table, closed = search_blocks(n, beta, a)
                for s in np.flatnonzero(closed).tolist():
                    if table.start[s + 1] - table.start[s] > 1:
                        assert family_radius(later_rows(table, s), a).max() < floor, (n, beta, s)

    @staticmethod
    def check_open(monkeypatch, n, beta, alpha):
        # every block open, then each one in turn: the records and the
        # float of the full solve, ties included
        import alphaspec.spectral as spectral
        import alphaspec.verify as verify

        expected = full_solve_search(n, beta, alpha)
        real = spectral._blocks_below_floor
        for opened in [None, *range(beta + 1)]:
            shut = np.zeros(beta + 1, bool) if opened is None else np.arange(beta + 1) != opened
            monkeypatch.setattr(verify, "_blocks_below_floor", lambda *args, shut=shut: real(*args) & shut)
            result = family_search(n, beta, alpha)
            assert result == expected, (n, beta, alpha, opened)
            assert result.rho.hex() == expected.rho.hex(), (n, beta, alpha, opened)

    @pytest.mark.parametrize(
        "n, beta, alpha", [(20, 6, a) for a in SWEEP_ALPHAS] + [(64, 24, a) for a in ("0", "1/2", "1", "2")]
    )
    def test_open_blocks(self, monkeypatch, n, beta, alpha):
        self.check_open(monkeypatch, n, beta, alpha)

    def test_open_blocks_at_threshold_points(self, monkeypatch):
        for n, beta, alpha in THRESHOLD_POINTS + [(21, 7, "1/3")]:
            self.check_open(monkeypatch, n, beta, alpha)


class TestCandidateTableAgainstCensus:
    """The family engine's candidates are the census's edge-maximal classes.

    A class is edge-maximal when adding any edge raises its matching
    number.  For n >= 2*beta + 2 the canonical graphs of
    ``candidate_families(n, beta)`` must be exactly the edge-maximal
    classes of order n with matching number beta, one each.  At n =
    2*beta + 1 (and at n = 2*beta) the only edge-maximal class is K_n,
    while the candidates also hold families with q = s + 1 parts such as
    P_3 = K_1 v 2K_1.
    """

    @staticmethod
    def edge_maximal(n):
        """beta -> the canonical rows of the edge-maximal classes of order n."""
        classes = [g.rows for g in isomorphism_classes(n)]
        beta = matching_numbers(n, classes).tolist()
        owner, extended = [], []
        for i, rows in enumerate(classes):
            for u in range(n):
                for v in range(u + 1, n):
                    if not (rows[u] >> v) & 1:
                        new = list(rows)
                        new[u] |= 1 << v
                        new[v] |= 1 << u
                        owner.append(i)
                        extended.append(tuple(new))
        raised = [True] * len(classes)
        for i, b in zip(owner, matching_numbers(n, extended).tolist()):
            raised[i] = raised[i] and b > beta[i]
        out = {}
        for rows, b, ok in zip(classes, beta, raised):
            if ok:
                out.setdefault(b, set()).add(rows)
        return out

    @pytest.mark.parametrize("n", range(1, 9))
    def test_candidates_are_the_edge_maximal_classes(self, n):
        maximal = self.edge_maximal(n)
        assert set(maximal) == set(range(n // 2 + 1))
        for beta in range(n // 2 + 1):
            if n <= 2 * beta + 1:  # K_n, with a perfect or near-perfect matching
                assert maximal[beta] == {complete_graph(n).rows}
                continue
            canon = [canonical_graph(f.graph()).rows for f in candidate_families(n, beta)]
            assert len(canon) == len(set(canon)) == family_count(n, beta), (n, beta)
            assert set(canon) == maximal[beta], (n, beta)

    @pytest.mark.parametrize("n, count", [(1, 1), (3, 2), (5, 3), (7, 5)])
    def test_count_at_two_beta_plus_one(self, n, count):
        assert family_count(n, (n - 1) // 2) == count


class TestFamilyCount:
    def test_equals_enumeration(self):
        for n in range(1, 31):
            for beta in range(0, (n - 1) // 2 + 1):
                assert family_count(n, beta) == len(list(candidate_families(n, beta))), (n, beta)

    def test_cap_admits_order_120(self):
        assert family_count(120, 50) == 1_235_010 <= FAMILY_MAX_CANDIDATES

    @pytest.mark.parametrize("n, beta, count", [(64, 24, 7265), (80, 30, 28459)])
    def test_benchmark_sizes_accepted(self, n, beta, count):
        result = family_search(n, beta, 1)
        assert result.families_scanned == count
        assert result.canonical_shape and result.matches_prediction

    def test_over_cap_rejected_before_any_radius(self, monkeypatch):
        import alphaspec.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a radius was computed")

        monkeypatch.setattr(verify, "family_radius", refuse)
        monkeypatch.setattr(verify, "_candidate_table", refuse)
        with pytest.raises(ValueError, match=f"cap of {FAMILY_MAX_CANDIDATES:,}"):
            family_search(400, 150, 0)

    def test_candidate_families_refuses_over_cap(self, monkeypatch):
        import alphaspec.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("the candidate table was built")

        monkeypatch.setattr(verify, "_candidate_table", refuse)
        with pytest.raises(ValueError, match=f"cap of {FAMILY_MAX_CANDIDATES:,}"):
            next(candidate_families(400, 150))

    def test_count_stops_above_the_cap(self):
        # (400, 150) has 423,648,884,992 candidates; the count stops at the
        # first core size that passes the cap
        assert FAMILY_MAX_CANDIDATES < family_count(400, 150) < 2 * FAMILY_MAX_CANDIDATES
        # a beta this large passes the cap after a few dozen rows of the recurrence
        assert family_count(10**7, 4 * 10**6) > FAMILY_MAX_CANDIDATES

    @pytest.mark.parametrize("n, beta", [(6, 3), (5, -1)])
    def test_infeasible(self, n, beta):
        with pytest.raises(ValueError, match="need n >= 2\\*beta \\+ 1"):
            family_count(n, beta)
        with pytest.raises(ValueError, match="need n >= 2\\*beta \\+ 1"):
            family_search(n, beta, 0)


class TestShiftMonotonicity:
    def test_two_triangles(self):
        assert shift_monotonicity_check(JoinFamily(1, ((3, 2),)), 0)

    def test_three_five(self):
        assert shift_monotonicity_check(JoinFamily(2, ((3, 1), (5, 1))), 1)

    def test_guard_small_part(self):
        with pytest.raises(ValueError, match="second-largest part must have at least 3 vertices"):
            shift_monotonicity_check(JoinFamily(1, ((1, 1), (5, 1))), 0)

    def test_guard_single_part(self):
        with pytest.raises(ValueError, match="need at least two parts to shift"):
            shift_monotonicity_check(JoinFamily(1, ((5, 1),)), 0)


class TestCase2:
    def test_not_applicable_below_cutoff(self):
        assert not case2_applicable(10, 0.5, 1, 40)
        with pytest.raises(ValueError):
            case2_sample_check(10, 0.5, 1, 40)

    def test_cutoff_is_the_golden_ratio_conjugate(self):
        # the region is empty unless alpha**2 + alpha - 1 > 0, that is
        # alpha > (sqrt(5) - 1) / 2 = 0.61803...: at beta = 27000 and s = 1
        # it holds n = 70688 just past the cutoff and no n just below it
        assert case2_applicable(27000, 0.6181, 1, 70688)
        assert not any(case2_applicable(27000, 0.618, 1, n) for n in range(70000, 71000))

    def test_positive_in_region(self):
        assert case2_sample_check(10, 2.0, 1, 30)

    def test_positive_at_cap(self):
        # alpha=1, beta=20: largest core with a nonempty window is s=4,
        # and the window just above the threshold contains n=52
        assert case2_applicable(20, 1.0, 4, 52)
        assert case2_sample_check(20, 1.0, 4, 52)

    def test_region_holds_the_cutoff_and_the_cap(self):
        # (alpha + 1) * (high - low) = (alpha**2 + alpha - 1) * beta
        # - (alpha + 1)**2 * s - 1, so an integer strictly inside the exact
        # bounds needs alpha past the cutoff and s below its cap
        inside = 0
        for alpha in (Fraction(k, 8) for k in range(41)):
            for beta in range(1, 41):
                cap = (alpha * alpha + alpha - 1) * beta / (alpha + 1) ** 2
                for s in range(1, 5):
                    low, high = case2_region_bounds(beta, alpha, s)
                    window = range(math.floor(low) + 1, math.ceil(high))
                    assert not case2_applicable(beta, alpha, s, window.start - 1)
                    assert not case2_applicable(beta, alpha, s, window.stop)
                    if window:
                        assert alpha * alpha + alpha - 1 > 0 and s < cap
                        assert case2_applicable(beta, alpha, s, window.start)
                        assert case2_applicable(beta, alpha, s, window[-1])
                        inside += 1
        assert inside > 100

    def test_region_bounds_shrink_with_s(self):
        lo1, hi1 = case2_region_bounds(20, 1.0, 1)
        lo4, hi4 = case2_region_bounds(20, 1.0, 4)
        assert lo1 == lo4
        assert hi4 < hi1


def scan_of(*classes):
    """A hand-built ``_Scan`` of (graph, beta, rho) classes."""
    graphs, betas, radii = zip(*classes)
    return _Scan(stack_rows(graphs[0].n, [g.rows for g in graphs]), np.array(betas), np.array(radii, dtype=float))


def report_of(verdict, *scored):
    """``_reports`` for ``verdict`` alone over a hand-built scan of (graph, rho)
    classes, each labelled with the verdict's beta."""
    (report,) = _reports(scan_of(*((g, verdict.beta, rho) for g, rho in scored)), [verdict], 1e-9, 0.0)
    return report


def reversed_labels(g):
    return from_edges(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])


class TestIsPredictedGraph:
    # the structure verdict: the argmax certificates against the
    # predicted ones, both canonical graph6
    def test_complete_split(self):
        v = classify_regime(10, 2, 0)  # above the threshold: K_2 v co-K_8
        split = reversed_labels(table_graph(COMPLETE_SPLIT, 10, 2))
        clique = table_graph(ODD_CLIQUE_PLUS_ISOLATES, 10, 2)
        report = report_of(v, (clique, 4.0), (split, v.predicted_rho))
        assert report.passed
        assert report.argmax_certificates == report.predicted_certificates == (to_graph6(canonical_graph(split)),)

    def test_cycle_matches_nothing(self):
        # a value tie won by a graph outside the table fails the structure
        # verdict alone
        cycle = disjoint_union(cycle_graph(5), empty_graph(1))  # matching number 2
        for alpha in (0, 1, 3):
            v = classify_regime(6, 2, alpha)
            report = report_of(v, (cycle, v.predicted_rho))
            assert report.value_pass
            assert not report.structure_pass and not report.passed

    def test_every_predicted_graph_must_be_realized(self):
        v = classify_regime(8, 2, 0)  # threshold: two extremal graphs
        split, clique = (f.graph() for f in v.extremal_families)
        rho = v.predicted_rho
        assert report_of(v, (split, rho), (clique, rho)).passed
        assert not report_of(v, (split, rho), (clique, rho - 1)).structure_pass
        assert not report_of(v, (split, rho), (clique, rho), (cycle_graph(8), rho)).structure_pass

    def test_degree_sequence_pins_down_families(self):
        # threshold graphs are the unique realizations of their degree
        # sequences (perfbench/check.py relies on this); verify
        # exhaustively over all classes at n = 6, 7
        for n, beta in [(6, 1), (6, 2), (7, 1), (7, 2), (7, 3)]:
            targets = {
                COMPLETE_SPLIT: canonical_graph(join(complete_graph(beta), empty_graph(n - beta))),
                ODD_CLIQUE_PLUS_ISOLATES: canonical_graph(
                    disjoint_union(complete_graph(2 * beta + 1), empty_graph(n - 2 * beta - 1))
                ),
            }
            for descriptor, target in targets.items():
                predicted = table_graph(descriptor, n, beta)
                assert are_isomorphic(predicted, target)
                hits = [g for g in isomorphism_classes(n) if degree_sequence(g) == degree_sequence(predicted)]
                assert len(hits) == 1 and are_isomorphic(hits[0], target)


class TestReportOnScan:
    # _reports reads the beta hits, the maximum and the 10*tol argmax
    # window off the scan's aligned arrays
    TOL = 1e-9

    def test_argmax_ties_within_ten_tol(self):
        v = classify_regime(8, 2, 0)  # threshold: two extremal graphs
        split, clique = (f.graph() for f in v.extremal_families)
        rho = v.predicted_rho
        for gap in (0.0, 5 * self.TOL, 9 * self.TOL):
            report = report_of(v, (clique, rho - gap), (split, rho))
            assert report.passed and len(report.argmax_certificates) == 2
            assert report.observed_max == rho

    def test_near_value_just_outside_the_window(self):
        v = classify_regime(8, 2, 0)
        split, clique = (f.graph() for f in v.extremal_families)
        rho = v.predicted_rho
        report = report_of(v, (split, rho), (clique, rho - 11 * self.TOL))
        assert report.value_pass and not report.structure_pass
        assert report.argmax_certificates == (to_graph6(canonical_graph(split)),)

    def test_window_is_measured_from_the_maximum(self):
        # three values 6*tol apart: the lowest is 12*tol below the top and
        # drops out, though it lies within 10*tol of its neighbour
        v = classify_regime(8, 2, 0)
        split, clique = (f.graph() for f in v.extremal_families)
        rho = v.predicted_rho
        report = report_of(v, (cycle_graph(8), rho - 12 * self.TOL), (clique, rho - 6 * self.TOL), (split, rho))
        assert report.passed
        assert set(report.argmax_certificates) == {to_graph6(canonical_graph(g)) for g in (split, clique)}

    def test_other_betas_are_ignored_but_counted(self):
        v = classify_regime(8, 2, 0)
        split, clique = (f.graph() for f in v.extremal_families)
        rho = v.predicted_rho
        big = complete_graph(8)  # matching number 4, far larger radius
        scan = scan_of((big, 4, 7.0), (split, 2, rho), (cycle_graph(8), 4, rho), (clique, 2, rho))
        (report,) = _reports(scan, [v], self.TOL, 0.0)
        assert report.passed and report.observed_max == rho and report.graphs_scanned == 4
        assert to_graph6(canonical_graph(big)) not in report.argmax_certificates

    def test_scan_arrays_are_aligned_with_the_rows(self):
        from alphaspec import spectral_radius

        scan = _scan_order(6, as_fraction(1))
        assert len(scan.rows) == len(scan.beta) == len(scan.rho) == 156
        assert scan.beta.dtype.kind == "i" and scan.rho.dtype == np.float64
        for rows, beta, rho in zip(scan.rows, scan.beta.tolist(), scan.rho.tolist()):
            g = Graph(6, rows)
            assert beta == matching_number(g)
            assert rho == spectral_radius(g, 1.0).rho


class TestArgmaxFamilyStructure:
    def test_argmax_graphs_decompose_as_join_families(self):
        # every winner at small order matches the join-family shape
        # rebuilt from its own deficiency witness
        for n in (4, 5, 6, 7):
            for alpha in (0, 1):
                for report in verify_order(n, alpha):
                    for cert in report.argmax_certificates:
                        from alphaspec import parse_graph6

                        g = parse_graph6(cert)
                        w = tutte_berge_witness(g)
                        removed = 0
                        for v in w.witness_set:
                            removed |= 1 << v
                        sizes = sorted(m.bit_count() for m in row_component_masks(g.n, g.rows, removed))
                        if w.s == 0:
                            continue
                        assert all(size % 2 == 1 for size in sizes)
                        rebuilt = JoinFamily.of_parts(w.s, sizes).graph()
                        assert are_isomorphic(g, rebuilt)


class TestParallelDeterminism:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # jobs=2 must be accepted on a 1-CPU host too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_scan_matches_serial(self):
        # worker count must not change any report field except timing
        parallel = scan_record(6, 2, 3, jobs=2)
        serial = scan_record(6, 2, 3, jobs=1)
        assert serial.observed_max == parallel.observed_max
        assert serial.argmax_certificates == parallel.argmax_certificates
        assert serial.graphs_scanned == parallel.graphs_scanned

    def test_scan_arrays_match_serial(self):
        # order 7 is one slice, so jobs=2 runs it here as jobs=1 does
        serial = _scan_order(7, as_fraction(1))
        parallel = _scan_order(7, as_fraction(1), jobs=2)
        assert parallel.rows.tolist() == serial.rows.tolist()
        assert parallel.beta.tolist() == serial.beta.tolist()
        assert [r.hex() for r in parallel.rho.tolist()] == [r.hex() for r in serial.rho.tolist()]

    @pytest.mark.parametrize("alpha", [0, "1/2", 1, 2])
    def test_sliced_scan_arrays_match_serial(self, monkeypatch, alpha):
        # 23 slices of at most 7 classes, joined in order from the pool
        import alphaspec.verify as verify

        monkeypatch.setattr(verify, "RADII_BATCH_ENTRIES", 7 * 36)
        serial = _scan_order(6, as_fraction(alpha))
        parallel = _scan_order(6, as_fraction(alpha), jobs=2)
        assert parallel.rows.tolist() == serial.rows.tolist()
        assert parallel.beta.dtype == serial.beta.dtype and parallel.beta.tolist() == serial.beta.tolist()
        assert [r.hex() for r in parallel.rho.tolist()] == [r.hex() for r in serial.rho.tolist()]

    def test_one_slice_scan_requests_no_pool(self, monkeypatch):
        import multiprocessing

        import alphaspec.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was requested")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        isomorphism_classes(7)  # built beforehand: only the scan may ask for a pool
        for n in range(8):
            assert len(_scan_order(n, as_fraction(1), jobs=2).rho) == len(isomorphism_classes(n))
        assert all(r.passed for r in verify_order(7, 1, jobs=2))
        # the refusal is reached once a scan has two slices
        monkeypatch.setattr(verify, "RADII_BATCH_ENTRIES", 78 * 36)
        with pytest.raises(AssertionError, match="worker pool"):
            _scan_order(6, as_fraction(1), jobs=2)

    def test_enumeration_matches_serial(self, monkeypatch):
        from alphaspec import enumeration

        serial = [g.rows for g in isomorphism_classes(6)]
        enumeration._LEVELS.pop(6, None)
        # a smaller budget shards order 6 as order 8 is sharded
        monkeypatch.setattr(enumeration, "CANONICAL_BATCH_ENTRIES", 1 << 14)
        parallel = [g.rows for g in isomorphism_classes(6, jobs=2)]
        assert serial == parallel


class TestFailureVisibility:
    def test_missing_extremal_class_fails_value_and_structure(self, tmp_path):
        # drop K_5 from the order-5 census: the observed maximum over
        # beta=2 falls below the predicted 4
        from alphaspec import parse_graph6

        kept = [g for g in isomorphism_classes(5) if g.num_edges < 10]
        path = tmp_path / "holey.g6"
        path.write_text("\n".join(to_graph6(g) for g in kept) + "\n")
        rec = scan_record(5, 2, 0, source=str(path))
        assert not rec.value_pass
        assert not rec.structure_pass
        assert not rec.passed
