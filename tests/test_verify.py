import math
import os

import numpy as np
import pytest

from alphaspec import (
    COMPLETE,
    COMPLETE_SPLIT,
    ODD_CLIQUE_PLUS_ISOLATES,
    THRESHOLD,
    FamilyBatch,
    JoinFamily,
    VerificationReport,
    as_fraction,
    candidate_families,
    case2_applicable,
    classify_regime,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    family_radius,
    family_search,
    from_edges,
    isomorphism_classes,
    join,
    matching_number,
    one_clique_family,
    shift_monotonicity_check,
    to_graph6,
    tutte_berge_witness,
    verify_order,
)
from alphaspec.enumeration import are_isomorphic, canonical_graph
from alphaspec.graphs import row_component_masks
from alphaspec.theorem import _EXTREMAL_FAMILY, CASE2_ALPHA_CUTOFF, case2_region_bounds
from alphaspec.verify import (
    DEFAULT_REPORT_TOL,
    FAMILY_MATCH_TOL,
    FAMILY_MAX_CANDIDATES,
    REPORT_FIELDS,
    _candidate_batches,
    _report,
    _scan_order,
    _ScanEntry,
    family_count,
    resolve_jobs,
)
from reference import case2_sample_check


def table_graph(descriptor, n, beta):
    return _EXTREMAL_FAMILY[descriptor](n, beta).graph()


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
            r = _report(_scan_order(n, a), classify_regime(n, 0, a), DEFAULT_REPORT_TOL, 0.0)
            assert r.passed
            assert r.predicted_certificates == (certificate,)
            assert r.argmax_certificates == (certificate,)

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

        from alphaspec import spectral

        def untimed():
            return [dataclasses.replace(r, wall_time=0.0) for r in verify_order(6, alpha)]

        whole = untimed()
        monkeypatch.setattr(spectral, "RADII_BATCH_ENTRIES", 7 * 36)  # 7 graphs a slice
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


class TestResolveJobs:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("ALPHASPEC_JOBS", raising=False)

    def test_default_is_one(self):
        assert resolve_jobs() == 1

    def test_environment_and_explicit(self, monkeypatch):
        monkeypatch.setenv("ALPHASPEC_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(4) == 4

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2", "5"])
    def test_bad_environment_rejected(self, monkeypatch, value):
        monkeypatch.setenv("ALPHASPEC_JOBS", value)
        with pytest.raises(ValueError, match="ALPHASPEC_JOBS"):
            resolve_jobs()

    @pytest.mark.parametrize("value", [0, -1, 5])
    def test_bad_explicit_rejected(self, value):
        with pytest.raises(ValueError, match="between 1 and 4"):
            resolve_jobs(value)

    def test_checked_before_any_scan(self, monkeypatch):
        import alphaspec.verify as verify

        def no_scan(*args, **kwargs):
            raise AssertionError("scan started before the worker count was checked")

        monkeypatch.setattr(verify, "enumerate_graphs", no_scan)
        with pytest.raises(ValueError, match="jobs"):
            verify_order(6, 0, jobs=5)


class TestReportSerialization:
    def test_json_round_trip(self):
        r = scan_record(5, 1, "1/2")
        again = VerificationReport.from_json_line(r.to_json_line())
        assert again == r

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
        assert result.matches_prediction == (
            abs(rho - verdict.predicted_rho) <= FAMILY_MATCH_TOL and best in verdict.extremal_families
        )

    @pytest.mark.parametrize("alpha", ["0", "1/2", "1", "2"])
    def test_every_pair_to_order_24(self, alpha):
        for n in range(3, 25):
            for beta in range(1, (n - 1) // 2 + 1):
                self.check(n, beta, alpha)

    def test_ties_go_to_the_first_candidate(self, monkeypatch):
        import alphaspec.verify as verify

        # tie the last two-cell and the first three-cell family of core 0:
        # their batches are solved two-cell first, yet the three-cell one
        # comes first in candidate order and must win
        core0 = [f for f in candidate_families(20, 6) if f.s == 0]
        cells = [len(f.cells) for f in core0]
        last_two = max(i for i, k in enumerate(cells) if k == 2)
        first_three = cells.index(3)
        assert first_three < last_two
        tied = {core0[last_two], core0[first_three]}

        def radius(batch, alpha):
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
        for indices, batch in _candidate_batches(n, beta):
            radii = family_radius(batch, af)
            for i, rho in enumerate(radii.tolist()):
                assert family_radius(batch.family(i), af) == rho
            seen += len(indices)
        assert seen == family_count(n, beta)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_batches(self, monkeypatch, rows):
        import alphaspec.verify as verify

        # a batch is a cell-count run of one chunk, so chunks of `rows`
        # rows bound every batch's row count by `rows`
        monkeypatch.setattr(verify, "FAMILY_CHUNK_ROWS", rows)
        for n, beta, alpha in [(20, 6, "0"), (21, 7, "1/2"), (14, 5, "1"), (9, 3, "1")]:
            sizes = [len(indices) for indices, _ in _candidate_batches(n, beta)]
            assert max(sizes) <= rows and sum(sizes) == family_count(n, beta)
            self.check(n, beta, alpha)

    @pytest.mark.parametrize("rows", [1, 5, 100])
    def test_small_chunks(self, monkeypatch, rows):
        import alphaspec.verify as verify

        # chunk boundaries fall inside core sizes and cut cell-count runs
        monkeypatch.setattr(verify, "FAMILY_CHUNK_ROWS", rows)
        for n, beta, alpha in [(20, 6, "0"), (21, 7, "1/2"), (14, 5, "1"), (9, 3, "1")]:
            self.check(n, beta, alpha)
        assert list(candidate_families(14, 5)) == list(_old_candidate_families(14, 5))

    def test_batches_follow_candidate_order(self):
        for n, beta in [(20, 6), (21, 7), (9, 3)]:
            families = list(candidate_families(n, beta))
            seen = []
            for indices, batch in _candidate_batches(n, beta):
                assert list(indices) == sorted(indices)
                assert [batch.family(i) for i in range(len(indices))] == [families[j] for j in indices]
                seen.extend(indices.tolist())
            assert sorted(seen) == list(range(len(families)))

    def test_batches_span_core_sizes(self):
        cores = [set(batch.s.tolist()) for _, batch in _candidate_batches(20, 6)]
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
        indices, batch = next(
            (idx, b) for idx, b in _candidate_batches(20, 6) if len(set(b.s.tolist())) > 1
        )
        first, last = batch.family(0), batch.family(len(indices) - 1)
        assert first.s < last.s and indices[0] < indices[-1]
        tied = {first, last}

        def radius(batch, alpha):
            return np.array([float(batch.family(i) in tied) for i in range(len(batch.sizes))])

        monkeypatch.setattr(verify, "family_radius", radius)
        result = family_search(20, 6, 0)
        assert result.best == first == families[indices[0]]
        assert result.rho == 1.0


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
        assert 0.5 < CASE2_ALPHA_CUTOFF < 0.62
        with pytest.raises(ValueError):
            case2_sample_check(10, 0.5, 1, 40)

    def test_positive_in_region(self):
        assert case2_sample_check(10, 2.0, 1, 30)

    def test_positive_at_cap(self):
        # alpha=1, beta=20: largest core with a nonempty window is s=4,
        # and the window just above the threshold contains n=52
        assert case2_applicable(20, 1.0, 4, 52)
        assert case2_sample_check(20, 1.0, 4, 52)

    def test_region_bounds_shrink_with_s(self):
        lo1, hi1 = case2_region_bounds(20, 1.0, 1)
        lo4, hi4 = case2_region_bounds(20, 1.0, 4)
        assert lo1 == lo4
        assert hi4 < hi1


def report_of(verdict, *scored):
    """``_report`` for ``verdict`` over hand-scored (graph, rho) scan
    entries, each labelled with the verdict's beta."""
    entries = [_ScanEntry(g.rows, verdict.beta, rho) for g, rho in scored]
    return _report(entries, verdict, 1e-9, 0.0)


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
                hits = [g for g in isomorphism_classes(n) if g.degree_sequence() == predicted.degree_sequence()]
                assert len(hits) == 1 and are_isomorphic(hits[0], target)


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

    def test_enumeration_matches_serial(self):
        from alphaspec import enumeration

        serial = [g.rows for g in isomorphism_classes(6)]
        enumeration._LEVELS.pop(6, None)
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
