from fractions import Fraction

import pytest

from alphaspec import (
    ABOVE,
    BELOW,
    COMPLETE,
    COMPLETE_SPLIT,
    EMPTY,
    FULL,
    ODD_CLIQUE_PLUS_ISOLATES,
    THRESHOLD,
    JoinFamily,
    classify_regime,
    closed_form_complete_split,
    complete_graph,
    matching_number,
    spectral_radius,
    threshold_n_star,
)
from alphaspec.enumeration import are_isomorphic


def extremal_graphs(verdict):
    return [family.graph() for family in verdict.extremal_families]


class TestThreshold:
    def test_alpha_zero(self):
        for beta in range(1, 12):
            assert threshold_n_star(beta, 0) == 3 * beta + 2

    def test_alpha_one(self):
        for beta in range(1, 12):
            assert threshold_n_star(beta, 1) == Fraction(5 * beta + 3, 2)

    def test_substitution(self):
        assert threshold_n_star(2, 0) == 8

    def test_exactness_with_rational_alpha(self):
        # at alpha = 1/2 the threshold is (8*beta + 5)/3
        assert threshold_n_star(2, Fraction(1, 2)) == 7
        assert threshold_n_star(3, Fraction(1, 2)) == Fraction(29, 3)


class TestClassify:
    def test_full_cases(self):
        for beta in (1, 2, 3):
            for n in (2 * beta, 2 * beta + 1):
                v = classify_regime(n, beta, 0)
                assert v.case_id == FULL
                assert v.extremal_descriptors == (COMPLETE,)
                assert v.predicted_rho == pytest.approx(n - 1)

    def test_full_example(self):
        v = classify_regime(5, 2, 0)
        assert (v.case_id, v.predicted_rho) == (FULL, 4.0)

    def test_threshold_alpha_zero(self):
        v = classify_regime(8, 2, 0)
        assert v.case_id == THRESHOLD
        assert v.predicted_rho == pytest.approx(4.0)
        assert set(v.extremal_descriptors) == {COMPLETE_SPLIT, ODD_CLIQUE_PLUS_ISOLATES}

    def test_threshold_alpha_one(self):
        v = classify_regime(9, 3, 1)
        assert v.case_id == THRESHOLD
        assert v.predicted_rho == pytest.approx(12.0)

    def test_threshold_needs_exact_integrality(self):
        # n* = 29/3 is not an integer, so n=9 and n=10 straddle it
        assert classify_regime(9, 3, Fraction(1, 2)).case_id == BELOW
        assert classify_regime(10, 3, Fraction(1, 2)).case_id == ABOVE

    def test_float_alpha_matches_rational_when_exact(self):
        # 0.5 is binary-exact, so the float path agrees with 1/2
        assert classify_regime(7, 2, 0.5).case_id == THRESHOLD

    def test_below(self):
        v = classify_regime(7, 2, 0)
        assert v.case_id == BELOW
        assert v.predicted_rho == pytest.approx(4.0)
        assert v.extremal_descriptors == (ODD_CLIQUE_PLUS_ISOLATES,)

    def test_above(self):
        v = classify_regime(10, 2, 0)
        assert v.case_id == ABOVE
        assert v.predicted_rho == pytest.approx((1 + 65 ** 0.5) / 2)
        assert v.extremal_descriptors == (COMPLETE_SPLIT,)

    def test_below_window_empty_for_large_alpha(self):
        # n* < 2*beta + 2 once alpha exceeds beta: everything is ABOVE
        v = classify_regime(4, 1, 5)
        assert v.case_id == ABOVE

    def test_degenerate_beta_zero(self):
        v = classify_regime(6, 0, 1)
        assert v.case_id == EMPTY
        assert v.predicted_rho == 0.0
        graphs = extremal_graphs(v)
        assert len(graphs) == 1 and graphs[0].num_edges == 0

    def test_infeasible_beta(self):
        with pytest.raises(ValueError):
            classify_regime(5, 3, 0)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            classify_regime(6, 2, -1)

    def test_sampled_region_flag(self):
        # tight window just past the threshold at large alpha
        assert classify_regime(25, 10, 2).sampled_region
        assert not classify_regime(40, 10, 2).sampled_region
        assert not classify_regime(25, 10, Fraction(1, 2)).sampled_region


class TestPredictedGraphs:
    def test_full(self):
        v = classify_regime(6, 3, 0)
        (g,) = extremal_graphs(v)
        assert g == complete_graph(6)

    def test_below_example(self):
        v = classify_regime(7, 2, 0)
        (g,) = extremal_graphs(v)
        assert sorted(p.bit_count() for p in g.rows) == [0, 0, 4, 4, 4, 4, 4]

    def test_above_example(self):
        v = classify_regime(10, 2, 0)
        (g,) = extremal_graphs(v)
        assert g.degree_sequence() == (9, 9) + (2,) * 8

    def test_graphs_have_declared_matching_number(self):
        for alpha in (0, Fraction(1, 2), 1, 2):
            for beta in range(1, 5):
                for n in range(2 * beta, 3 * beta + 6):
                    v = classify_regime(n, beta, alpha)
                    for g in extremal_graphs(v):
                        assert matching_number(g) == beta

    def test_graphs_achieve_predicted_bound(self):
        for alpha in (0, Fraction(1, 2), 1, 2):
            for beta in range(1, 4):
                for n in range(2 * beta, 3 * beta + 6):
                    v = classify_regime(n, beta, alpha)
                    for g in extremal_graphs(v):
                        rho = spectral_radius(g, float(alpha)).rho
                        assert rho == pytest.approx(v.predicted_rho, abs=1e-8)

    def test_threshold_tie_is_exact(self):
        v = classify_regime(8, 2, 0)
        g1, g2 = extremal_graphs(v)
        assert not are_isomorphic(g1, g2)
        r1 = spectral_radius(g1, 0.0).rho
        r2 = spectral_radius(g2, 0.0).rho
        assert abs(r1 - r2) <= 1e-9


class TestExtremalFamilies:
    def test_complete_by_parity(self):
        # parts are odd: K_n of even order is a vertex joined to K_{n-1}
        assert classify_regime(7, 3, 1).extremal_families == (JoinFamily(0, ((7, 1),)),)
        assert classify_regime(6, 3, 1).extremal_families == (JoinFamily(1, ((5, 1),)),)

    def test_one_family_per_descriptor_in_order(self):
        v = classify_regime(8, 2, 0)
        assert v.extremal_families == (JoinFamily(2, ((1, 6),)), JoinFamily(0, ((1, 3), (5, 1))))

    def test_empty_graph(self):
        assert classify_regime(3, 0, 2).extremal_families == (JoinFamily(0, ((1, 3),)),)

    def test_families_have_declared_order_and_matching(self):
        for alpha in (0, Fraction(1, 2), 1, 2):
            for n in range(1, 16):
                for beta in range(0, n // 2 + 1):
                    for family in classify_regime(n, beta, alpha).extremal_families:
                        assert (family.order, family.beta) == (n, beta)

    def test_order_zero_has_no_family(self):
        with pytest.raises(ValueError, match="order 0"):
            classify_regime(0, 0, 1).extremal_families


class TestPredictedBound:
    def test_full_formula(self):
        assert classify_regime(6, 3, 2).predicted_rho == pytest.approx(3 * 5)

    def test_below_formula(self):
        # at alpha=1, beta=2 the window [2b+2, n*) = [6, 6.5) holds only n=6
        assert classify_regime(6, 2, 1).predicted_rho == pytest.approx(8.0)

    def test_above_formula(self):
        assert classify_regime(10, 2, 0).predicted_rho == pytest.approx((1 + 65 ** 0.5) / 2)


class TestSeamContinuity:
    def test_alpha_zero_all_beta(self):
        for beta in range(1, 11):
            n_star = 3 * beta + 2
            assert closed_form_complete_split(n_star, beta, 0.0) == pytest.approx(
                2 * beta, abs=1e-9
            )

    def test_alpha_one_odd_beta(self):
        for beta in range(1, 11, 2):
            n_star = (5 * beta + 3) // 2
            assert 2 * n_star == 5 * beta + 3
            assert closed_form_complete_split(n_star, beta, 1.0) == pytest.approx(
                4 * beta, abs=1e-9
            )
