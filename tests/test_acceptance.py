"""Acceptance suite.

Each test is one exit criterion, run at its stated tolerance, printing a
single [PASS]/[FAIL] line (visible with ``pytest -s`` or on failure).
Expected values are either closed-form constants checked here against an
independent dense eigensolver, or exhaustive scans whose class counts
are pinned to the known census.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from alphaspec import (
    JoinFamily,
    case2_applicable,
    classify_regime,
    closed_form_complete_split,
    complete_graph,
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
    spectral_radius,
    tutte_berge_witness,
    verify_order,
)
from alphaspec.graphs import row_component_masks
from alphaspec.theorem import case2_region_bounds
from reference import (
    case2_sample_check,
    cubic_f,
    matching_number_oracle,
    spectral_radius_oracle,
    split_graph_quadratic,
)

ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def complete_split(n, beta):
    """K_beta v bar(K_{n-beta}), the clique first."""
    return join(complete_graph(beta), empty_graph(n - beta))


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


def test_criterion_01_exhaustive_small_orders():
    """n in [2,7], every feasible beta, alpha in {0,1/2,1,2}: value and
    structure both pass at tol 1e-9."""
    start = time.perf_counter()
    failures = []
    records = 0
    for n in range(2, 8):
        for alpha in ALPHAS:
            for rec in verify_order(n, alpha, tol=1e-9):
                records += 1
                if not (rec.value_pass and rec.structure_pass):
                    failures.append(rec)
    elapsed = time.perf_counter() - start
    ok = not failures and records > 0 and elapsed < 120.0
    report("criterion 1: exhaustive verification n=2..7",
           ok, f"{records} records, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_02_threshold_tie_order_eight():
    """alpha=0, n=8=3*beta+2 with beta=2: exactly the two predicted
    argmax classes, both at rho = 4 within 1e-9."""
    (rec,) = [r for r in verify_order(8, 0, tol=1e-9) if r.beta == 2]
    two_classes = len(rec.argmax_certificates) == 2
    certificates_match = set(rec.argmax_certificates) == set(rec.predicted_certificates)
    split = complete_split(8, 2)
    clique = disjoint_union(complete_graph(5), empty_graph(3))
    both_at_four = all(
        abs(spectral_radius(g, 0.0).rho - 4.0) <= 1e-9 for g in (split, clique)
    )
    ok = (
        two_classes
        and certificates_match
        and both_at_four
        and rec.value_pass
        and rec.structure_pass
        and rec.graphs_scanned == 12346
    )
    report("criterion 2: order-8 tie at alpha=0", ok,
           f"{rec.graphs_scanned} classes, argmax={list(rec.argmax_certificates)}")
    assert ok, rec


def test_criterion_03_signless_laplacian_tie():
    """alpha=1, beta=3, n=9: both predicted graphs reach 4*beta = 12."""
    split = complete_split(9, 3)
    clique = disjoint_union(complete_graph(7), empty_graph(2))
    r_split = spectral_radius(split, 1.0).rho
    r_clique = spectral_radius(clique, 1.0).rho
    verdict = classify_regime(9, 3, 1)
    ok = (
        abs(r_split - 12.0) <= 1e-9
        and abs(r_clique - 12.0) <= 1e-9
        and verdict.case_id == "THRESHOLD"
        and verdict.predicted_rho == pytest.approx(12.0)
    )
    report("criterion 3: order-9 tie at alpha=1", ok,
           f"rho_split={r_split:.12f}, rho_clique={r_clique:.12f}")
    assert ok


def test_criterion_04_closed_form_consistency():
    """1 <= beta < n <= 40, alpha in {0,1/2,1,2,5}: closed form equals the
    dense oracle within 1e-8 and is a root of its quadratic within 1e-9."""
    worst_gap = 0.0
    worst_residual = 0.0
    count = 0
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0):
        for n in range(2, 41):
            for beta in range(1, n):
                rho = closed_form_complete_split(n, beta, alpha)
                oracle = spectral_radius_oracle(complete_split(n, beta), alpha)
                residual = abs(split_graph_quadratic(rho, n, beta, alpha))
                worst_gap = max(worst_gap, abs(rho - oracle))
                worst_residual = max(worst_residual, residual)
                count += 1
    ok = worst_gap <= 1e-8 and worst_residual <= 1e-9
    report("criterion 4: closed form vs dense oracle", ok,
           f"{count} cases, worst gap {worst_gap:.2e}, worst residual {worst_residual:.2e}")
    assert ok


def test_criterion_05_quotient_equivalence():
    """200 random valid join families with order <= 40: quotient radius
    equals the full-graph radius within 1e-8."""
    rng = random.Random(20250)
    worst = 0.0
    done = 0
    while done < 200:
        s = rng.randint(1, 6)
        q = rng.randint(max(1, s), 8)
        parts = tuple(sorted(2 * rng.randint(0, 4) + 1 for _ in range(q)))
        family = JoinFamily.of_parts(s, parts)
        if family.order > 40:
            continue
        alpha = rng.choice([0.0, 0.5, 1.0, 2.0, 3.25])
        gap = abs(family_radius(family, alpha) - spectral_radius(family.graph(), alpha).rho)
        worst = max(worst, gap)
        done += 1
    ok = worst <= 1e-8
    report("criterion 5: quotient equivalence", ok, f"200 families, worst gap {worst:.2e}")
    assert ok


def test_criterion_06_cubic_root_correctness():
    """1 <= s <= beta <= 8, 2*beta+2 <= n <= 30, alpha in {0,1/2,1,2}:
    the one-big-clique family radius (the cubic's largest root) equals
    the dense radius of the constructed graph within 1e-8 and the four
    sign conditions of the cubic hold."""
    worst = 0.0
    count = 0
    sign_ok = True
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for beta in range(1, 9):
            for s in range(1, beta + 1):
                for n in range(2 * beta + 2, 31):
                    family = one_clique_family(n, beta, s)
                    root = family_radius(family, alpha)
                    rho = spectral_radius(family.graph(), alpha).rho
                    worst = max(worst, abs(root - rho))
                    lower = 2 * (alpha + 1) * beta - (alpha + 1) * s
                    sign_ok = sign_ok and cubic_f(-1e6, n, beta, s, alpha) < 0
                    sign_ok = sign_ok and cubic_f(alpha * s, n, beta, s, alpha) >= -1e-9
                    sign_ok = sign_ok and cubic_f(lower, n, beta, s, alpha) <= 1e-9
                    sign_ok = sign_ok and cubic_f(1e6, n, beta, s, alpha) > 0
                    count += 1
    ok = worst <= 1e-8 and sign_ok
    report("criterion 6: cubic root correctness", ok,
           f"{count} parameter points, worst gap {worst:.2e}")
    assert ok


def test_criterion_07_family_structure_and_shifts():
    """family_search winners always have the one-big-clique shape over
    the criterion-6 grid; 100 random applicable shifts raise the radius."""
    bad_shape = []
    for alpha in ALPHAS:
        for beta in range(1, 9):
            for n in range(2 * beta + 2, 31):
                result = family_search(n, beta, alpha)
                if not (result.canonical_shape and result.matches_prediction):
                    bad_shape.append((n, beta, alpha, result))
    rng = random.Random(20251)
    shift_failures = 0
    done = 0
    while done < 100:
        s = rng.randint(0, 5)
        q = rng.randint(max(2, s), 7)
        parts = sorted(2 * rng.randint(0, 4) + 1 for _ in range(q))
        if parts[-2] < 3:
            continue
        family = JoinFamily.of_parts(s, parts)
        if family.order > 40:
            continue
        alpha = rng.choice([0.0, 0.5, 1.0, 2.0])
        if not shift_monotonicity_check(family, alpha):
            shift_failures += 1
        done += 1
    ok = not bad_shape and shift_failures == 0
    report("criterion 7: family structure + shift monotonicity", ok,
           f"{shift_failures} shift failures, {len(bad_shape)} shape failures")
    assert ok, (bad_shape, shift_failures)


def test_criterion_08_matching_correctness():
    """Blossom matches the edge-subset oracle on every class with n <= 7,
    and the deficiency witness reproduces the matching number."""
    mismatches = 0
    classes = 0
    for n in range(0, 8):
        for g in isomorphism_classes(n):
            classes += 1
            beta = matching_number(g)
            if beta != matching_number_oracle(g):
                mismatches += 1
            if tutte_berge_witness(g).beta != beta:
                mismatches += 1
    ok = mismatches == 0
    report("criterion 8: matching vs oracle and witness", ok,
           f"{classes} classes, {mismatches} mismatches")
    assert ok


def test_criterion_09_radius_monotonicity():
    """500 random connected graphs (n <= 12), one random non-edge each:
    adding the edge raises the radius by more than 1e-10 at alpha 0,1,2."""
    rng = random.Random(20252)
    done = 0
    worst_margin = math.inf
    while done < 500:
        n = rng.randint(3, 12)
        p = rng.uniform(0.25, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edges(n, edges)
        if len(row_component_masks(n, g.rows)) > 1:
            continue
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        bigger = from_edges(n, edges + [extra])
        for alpha in (0.0, 1.0, 2.0):
            margin = (
                spectral_radius(bigger, alpha, tol=1e-12).rho
                - spectral_radius(g, alpha, tol=1e-12).rho
            )
            worst_margin = min(worst_margin, margin)
        done += 1
    ok = worst_margin > 1e-10
    report("criterion 9: strict monotonicity under edge addition", ok,
           f"500 graphs x 3 alphas, smallest margin {worst_margin:.2e}")
    assert ok


def test_criterion_10_seam_continuity():
    """At integral thresholds the plateau bound equals the closed form."""
    worst = 0.0
    for beta in range(1, 11):
        worst = max(worst, abs(2 * beta - closed_form_complete_split(3 * beta + 2, beta, 0.0)))
    for beta in range(1, 11, 2):
        n_star = (5 * beta + 3) // 2
        worst = max(worst, abs(4 * beta - closed_form_complete_split(n_star, beta, 1.0)))
    ok = worst <= 1e-9
    report("criterion 10: seam continuity", ok, f"worst gap {worst:.2e}")
    assert ok


def test_sampled_positivity_region():
    """1000 sampled points of the tight large-alpha region: the cubic is
    strictly positive at the probe value every time."""
    rng = random.Random(20253)
    done = 0
    failures = 0
    while done < 1000:
        alpha = rng.uniform(0.62, 6.0)
        beta = rng.randint(2, 60)
        cap = (alpha * alpha + alpha - 1.0) * beta / ((1.0 + alpha) ** 2)
        if cap < 1.0:
            continue
        s = rng.randint(1, int(cap))
        low, high = case2_region_bounds(beta, alpha, s)
        n_low, n_high = math.floor(low) + 1, math.ceil(high) - 1
        if n_low > n_high:
            continue
        n = rng.randint(n_low, n_high)
        if not case2_applicable(beta, alpha, s, n):
            continue
        if not case2_sample_check(beta, alpha, s, n):
            failures += 1
        done += 1
    ok = failures == 0
    report("sampled positivity region", ok, f"1000 points, {failures} counterexamples")
    assert ok
