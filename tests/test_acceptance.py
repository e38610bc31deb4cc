"""Acceptance gate: each test certifies one headline guarantee end to end.

Every test here pins a tolerance and runs the full computation it claims,
so `pytest -v tests/test_acceptance.py` reads as one pass/fail line per
guarantee.  Oracle constants were derived independently (exact rational
arithmetic or 50-digit evaluation) before the library routes existed; see
the module tests for the finer-grained behavior behind each check.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hardy_lab import (
    check_closed_form_agreement,
    check_criticality_agreement,
    check_cutoff_decay,
    check_ground_state_transform,
    check_harmonicity,
    check_lambda0_bound,
    closed_form_weight,
    compare_to_green,
    damek_ricci_space,
    expand_vertex_graph,
    fitzsimmons_weight,
    gamma_intervals,
    general_closed_form,
    green_function_exact,
    green_weight,
    ground_weight_mass_terms,
    hyperbolic_space,
    inflation_refutation,
    make_antitree,
    make_tree,
    series_expansion,
    series_remainder_bound,
    tree_bottom_of_spectrum,
    tree_weight,
)
from hardy_lab.spectral_ops import (
    ball_form_matrix,
    count_eigenvalues_below,
    hardy_form_matrix,
    smallest_eigenvalue,
    tree_ball_bottom_eigenvalue,
    tree_ball_pivots,
)


def test_criterion_01_radial_hardy_sections_nonnegative():
    # Dirichlet sections on radii [1, 2000], trees d = 1..5, gamma = 0
    for d in range(1, 6):
        model = make_tree(d, 2100)
        w = closed_form_weight(model, 0, 2000).values
        bottom = smallest_eigenvalue(hardy_form_matrix(model, w, 1, 2000))
        assert bottom >= -1e-10, f"d={d}: section bottom {bottom}"


def test_criterion_02_vertex_ball_forms_nonnegative_off_origin():
    # gamma = 0 claims the inequality for functions vanishing at the origin,
    # so the dense form is restricted to the complement of the origin row
    cases = [
        (make_tree(2, 14), 10, 0.05),
        (make_antitree(lambda r: r + 1, 16), 12, 0.10),
    ]
    for model, radius, sanity_floor in cases:
        graph = expand_vertex_graph(model, radius + 1)
        w = closed_form_weight(model, 0, radius).values
        h = ball_form_matrix(graph, w, radius)
        bottom = float(np.linalg.eigvalsh(h[1:, 1:])[0])
        assert bottom >= -1e-9, f"{model.label}: punctured bottom {bottom}"
        assert bottom >= sanity_floor  # strictly inside the cone, not marginal


def test_criterion_03_three_weight_routes_agree_to_1e12():
    worst = 0.0
    for d in range(1, 7):
        model = make_tree(d, 1002)
        lam = tree_bottom_of_spectrum(d)
        lo, hi = gamma_intervals(model).ground
        gammas = [Fraction(0)]
        if lo <= hi:
            gammas += [lo, (lo + hi) / 2, hi]
        for gamma in gammas:
            fw = fitzsimmons_weight(model, gamma, 1000, dps=50)
            cw = closed_form_weight(model, gamma, 1000).values
            r_start = 1 if gamma == 0 else 0
            for r in range(r_start, 1001):
                tw = tree_weight(d, gamma, r)
                gw = general_closed_form(model, gamma, r)
                scale = max(abs(fw[r]), abs(cw[r]), abs(tw),
                            lam + math.sqrt(d) / (4.0 * (r + 1.0) ** 2))
                spread = max(fw[r], cw[r], tw, gw) - min(fw[r], cw[r], tw, gw)
                worst = max(worst, spread / scale)
    assert worst <= 1e-12, f"worst scaled spread {worst}"


def test_criterion_04_series_truncation_within_geometric_bound():
    # remainder after n_max = 12, checked in 50-digit arithmetic against the
    # first-omitted-term bound with its geometric correction factor
    with mpmath.workdps(50):
        for d in (1, 2, 4):
            lam = (mpmath.sqrt(d) - 1) ** 2
            for r in range(2, 51):
                closed = lam + mpmath.sqrt(d) * (
                    2 - mpmath.sqrt(1 + mpmath.mpf(1) / r)
                    - mpmath.sqrt(1 - mpmath.mpf(1) / r)
                )
                partial = lam
                for n in range(2, 13, 2):
                    c = 2 * mpmath.binomial(2 * n, n) / (4 ** n * (2 * n - 1))
                    partial += mpmath.sqrt(d) * c / mpmath.mpf(r) ** n
                remainder = float(closed - partial)
                bound = series_remainder_bound(d, r, 12)
                assert 0 < remainder <= bound * (1 + 1e-12), (d, r)
    # worked example at six significant digits
    assert tree_weight(1, 0, 2) == pytest.approx(0.0681483, abs=5e-8)
    assert series_expansion(1, 2, 8) == pytest.approx(0.0681260, abs=2e-7)


def test_criterion_05_criticality_routes_agree_and_decay():
    model = make_tree(2, 10 ** 4)
    rep = check_criticality_agreement(model, n_values=(100, 1000, 10000))
    assert rep.status == "pass"
    assert rep.residuals["max_rel_diff"] <= 1e-10
    assert rep.residuals["value_at_largest_n"] == pytest.approx(
        0.15323405529728517, rel=1e-9
    )
    decay = check_cutoff_decay()
    assert decay.status == "pass"
    assert (decay.params["n_small"], decay.params["n_large"]) == (10 ** 3, 10 ** 6)
    assert 0.4 <= decay.residuals["ratio"] <= 0.6


def test_criterion_06_ground_weight_mass_diverges_at_expected_rate():
    # tree d = 2: partial sums reach the quadratic rate lambda0 R**2 / 2
    R = 10 ** 4
    tree = make_tree(2, R + 2)
    total = float(np.sum(ground_weight_mass_terms(tree, R)))
    lam = tree_bottom_of_spectrum(2)
    assert total >= 0.95 * lam * R * R / 2.0
    # antitree with spheres r + 1: logarithmic divergence at rate 1/4;
    # the radius-1 term is a fixed offset, so both the off-origin sum and
    # the late increments must track (1/4) log R within 10 percent
    R = 10 ** 5
    anti = make_antitree(lambda r: r + 1, R + 2)
    sums = np.cumsum(ground_weight_mass_terms(anti, R))
    interior = (sums[R] - sums[1]) / (0.25 * math.log(R))
    assert abs(interior - 1.0) <= 0.10, f"interior ratio {interior}"
    increment = (sums[R] - sums[R // 100]) / (0.25 * math.log(100.0))
    assert abs(increment - 1.0) <= 0.10, f"increment ratio {increment}"


def test_criterion_07_inflated_weight_refuted_baseline_survives():
    b_max = 10 ** 5
    model = make_tree(2, b_max + 1)
    rep = inflation_refutation(model, lam=0.1, r_lo=2, b_max=b_max)
    assert rep.status == "pass"
    assert rep.params["first_refuted"] == 32
    # control: the uninflated weight shows no negative section up to 10**5
    w = closed_form_weight(model, 0, b_max).values
    for b in (10, 100, 1000, 10 ** 4, 10 ** 5):
        assert count_eigenvalues_below(
            hardy_form_matrix(model, w, 2, b), -1e-9
        ) == 0, f"bare weight went negative by b={b}"


def test_criterion_08_spectral_bottom_bound_certified():
    for d in (2, 3, 4):
        model = make_tree(d, 1100)
        rep = check_lambda0_bound(model)
        assert rep.status == "pass", f"d={d}"
        assert rep.params["section_radii"] == [64, 256, 1024]
        shift = (math.sqrt(d) - 1.0) ** 2
        assert rep.residuals["final_gap"] >= -1e-9
        assert rep.residuals["vertex_ball_bottom"] >= shift - 1e-9
        # vertex-level certificate on the radius-10 ball at the exact shift
        pivots = tree_ball_pivots(d, np.full(11, shift))
        assert np.all(pivots > 0.0)
    # dense cross-check where a dense matrix is feasible (d = 2, 2047 rows)
    graph = expand_vertex_graph(make_tree(2, 13), 11)
    shift = (math.sqrt(2.0) - 1.0) ** 2
    h = ball_form_matrix(graph, np.full(11, shift), 10)
    dense_bottom = float(np.linalg.eigvalsh(h)[0])
    assert dense_bottom >= -1e-9
    certified = tree_ball_bottom_eigenvalue(2, np.full(11, shift))
    assert dense_bottom == pytest.approx(certified, abs=1e-10)


def test_criterion_09_green_weight_constant_and_dominated():
    for d in (2, 3, 4, 5):
        model = make_tree(d, 1003)
        lam = tree_bottom_of_spectrum(d)
        w_g, _ = green_weight(model, 1000)
        assert np.max(np.abs(w_g[1:] - lam)) <= 1e-12, f"d={d}"
        exact = green_function_exact(model, 1000)
        for r in range(0, 1001):
            assert exact[r] == Fraction(1, d ** r * (d - 1))
        cmp_ = compare_to_green(model, 1000)
        assert cmp_.report.status == "pass", f"d={d}"
        assert np.all(cmp_.margins[1:] > 0)
        assert np.all(np.diff(cmp_.margins[1:]) < 1e-12)
    spot = compare_to_green(make_tree(2, 30), 10)
    assert spot.margins[3] == pytest.approx(0.040733424511486566, rel=1e-12)


def test_criterion_10_continuum_residuals_second_order():
    spaces = [
        hyperbolic_space(3),
        hyperbolic_space(4),
        damek_ricci_space(2, 1),
        damek_ricci_space(3, 1),
        damek_ricci_space(2, 2),
    ]
    for space in spaces:
        for which in ("sqrt-u", "sqrt-u-log"):
            rep = check_harmonicity(space, 0.5, 5.0, h_step=1e-3, which=which)
            assert rep.status == "pass", (space.label, which)
            assert rep.residuals["residual_coarse"] <= 1e-4
            assert 3.2 <= rep.residuals["convergence_factor"] <= 4.8
    for space in spaces[2:]:
        agree = check_closed_form_agreement(space, 0.1, 10.0)
        assert agree.status == "pass", space.label
        assert agree.residuals["max_rel_diff"] <= 1e-10


def test_criterion_11_ground_state_transform_identity():
    cases = [
        (make_tree(2, 14), Fraction(0)),
        (make_tree(2, 14), Fraction(1, 2)),
        (make_tree(3, 14), Fraction(0)),
        (make_tree(3, 14), Fraction(1, 3)),
        (make_antitree(lambda r: r + 1, 14), Fraction(0)),
    ]
    for model, gamma in cases:
        rep = check_ground_state_transform(model, gamma, radius=8)
        assert rep.status == "pass", (model.label, str(gamma))
        assert rep.residuals["max_rel_residual"] <= 1e-11
