import math
from fractions import Fraction

import numpy as np
import pytest

from hardy_lab import (
    InconclusiveTransienceError,
    NeedsTailError,
    NoGreenFunctionError,
    compare_to_green,
    green_function,
    green_function_exact,
    green_weight,
    make_antitree,
    make_custom,
    make_tree,
    transience_test,
    tree_bottom_of_spectrum,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_exact_green_on_trees(d):
    model = make_tree(d, 40)
    exact = green_function_exact(model, 29)
    for r in range(0, 30):
        assert exact[r] == Fraction(1, d ** r * (d - 1))


def test_float_green_matches_exact(tree3):
    prof = green_function(tree3, 60)
    exact = green_function_exact(tree3, 60)
    for r in range(0, 61):
        assert prof.values[r] == pytest.approx(float(exact[r]), rel=1e-12)
    assert prof.tail_method == "closed-form-geometric"
    assert prof.tail_error_bound == 0.0


def test_log_green_survives_float_underflow():
    # G(700) on the 5-ary tree is ~1e-490, far below double range
    model = make_tree(5, 720)
    prof = green_function(model, 700)
    assert prof.values[700] == 0.0  # display value underflows, by design
    expected = -math.log(4.0) - 700 * math.log(5.0)
    assert prof.log_values[700] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_green_weight_is_constant_on_trees(d):
    model = make_tree(d, 140)
    w, prof = green_weight(model, 128)
    lam = tree_bottom_of_spectrum(d)
    assert np.max(np.abs(w[1:] - lam)) < 1e-12
    assert w[0] == pytest.approx(d - math.sqrt(d), rel=1e-14)
    assert prof.r_max == 128


def test_optimal_weight_dominates_green_on_tree(tree2):
    cmp_ = compare_to_green(tree2, 200)
    assert cmp_.report.status == "pass"
    assert cmp_.kappa_constant_from == 1
    margins = cmp_.margins
    assert np.all(margins[1:] > 0)
    assert np.all(np.diff(margins[1:]) < 1e-12)
    # margin at r behaves like sqrt(d)/(4 r**2) for large r
    assert margins[200] == pytest.approx(math.sqrt(2) / 4 / 200 ** 2, rel=0.01)


def test_green_margin_spot_values(tree2):
    cmp_ = compare_to_green(tree2, 10)
    assert cmp_.margins[3] == pytest.approx(0.040733424511486566, rel=1e-12)


def test_comparison_on_antitree_is_informational(antitree_linear):
    cmp_ = compare_to_green(antitree_linear, 120)
    assert cmp_.report.status == "hypothesis-not-met"
    assert cmp_.green_profile.tail_method == "truncated-with-bound"
    assert cmp_.green_profile.tail_error_bound > 0
    assert any("informational" in n for n in cmp_.report.notes)


def test_transience_verdicts(tree2, antitree_linear):
    assert transience_test(tree2)
    assert transience_test(make_tree(5, 30))
    assert not transience_test(make_tree(1, 30))
    assert transience_test(antitree_linear)


def test_recurrent_model_has_no_green_function():
    line = make_tree(1, 50)
    with pytest.raises(NoGreenFunctionError):
        green_function(line, 10)


def test_undecidable_window_raises():
    # areas 2,2,4,4,8,8,...: growing but with zero second differences half
    # the time, so the convexity extrapolation refuses to decide
    n = 40
    k_plus = [2 if r % 2 == 0 else 1 for r in range(n - 1)]
    k_minus = [0] + [1] * (n - 1)
    model = make_custom(k_plus, k_minus)
    with pytest.raises(InconclusiveTransienceError):
        transience_test(model)
    with pytest.raises(InconclusiveTransienceError):
        green_function(model, 10)


def test_exact_green_needs_geometric_tail(antitree_linear):
    with pytest.raises(NoGreenFunctionError):
        green_function_exact(antitree_linear, 3)


def test_green_range_guards(tree3):
    with pytest.raises(NeedsTailError):
        green_function(tree3, tree3.depth)
    with pytest.raises(NeedsTailError):
        green_weight(tree3, tree3.depth - 1)
    with pytest.raises(NeedsTailError):
        green_function_exact(tree3, tree3.depth)
