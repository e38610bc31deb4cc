"""Exact ground-ratio checks against the Fraction and mpmath routes they replaced.

``reference_weight`` is the mpmath loop that ``fitzsimmons_weight`` ran
before its ratios became exact integer cross products, each square root one
integer square root at a fixed number of bits, and
``reference_ground_defects`` is the Fraction-Laplacian loop of
``check_superharmonic_ground``.  Both new routes must give the same floats,
bit for bit, and the same verdicts, among them on the inputs where the
earlier 40-digit ``decimal`` route was slowest: huge branching numbers,
areas of thousands of bits and Fraction degrees read from a model file.
"""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_lab import (
    InvalidParameterError,
    check_superharmonic_ground,
    fitzsimmons_weight,
    load_model,
    make_antitree,
    make_custom,
    make_tree,
    save_model,
)
from hardy_lab.radial_model import _parse
from hardy_lab.spectral_ops import radial_laplacian


def u_gamma(model, gamma, r_max):
    return [Fraction(gamma)] + [Fraction(r, model.area(r)) for r in range(1, r_max + 1)]


def _mpf_of(x):
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def _sqrt_of(x):
    """sqrt of a Fraction x >= 0: exact where it is rational, in mpmath otherwise."""
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return mpmath.sqrt(_mpf_of(x))


def reference_weight(model, gamma, r_max, dps=40):
    """The weight from Fraction ratios of ground values, square-rooted
    exactly where the root is rational and in mpmath otherwise, so that a
    weight of exactly 0 is not read as a 40-digit residue."""
    u = u_gamma(model, gamma, r_max + 1)
    w = np.zeros(r_max + 1)
    with mpmath.workdps(dps):
        for r in range(0 if gamma > 0 else 1, r_max + 1):
            term = model.k_plus(r) * (1 - _sqrt_of(u[r + 1] / u[r]))
            if r > 0:
                term += model.k_minus(r) * (1 - _sqrt_of(u[r - 1] / u[r]))
            w[r] = float(term)
    return w


def test_reference_weight_is_exact_where_the_roots_are_rational():
    # sphere sizes 1, 1, 1, 6, 3: at r = 3 the ground ratios are 4/9 and 4,
    # and the weight 3 (1 - 2/3) + (1 - 2) is 0, where 40 digits left -1.1e-41
    model = make_antitree([1, 1, 1, 6, 3], 4)
    assert reference_weight(model, Fraction(0), 3)[3] == 0.0
    assert_routes_match(model, Fraction(0), 3)


def reference_ground_defects(model, gamma, r_max):
    """min float(defect / u), and whether a defect is negative at r <= 1 or r >= 2."""
    u = u_gamma(model, gamma, r_max + 1)
    worst, bad_low, bad_high = math.inf, False, False
    for r in range(0 if gamma > 0 else 1, r_max + 1):
        defect = radial_laplacian(model, u, r)
        worst = min(worst, float(defect / u[r]))
        if defect < 0 and r >= 2:
            bad_high = True
        elif defect < 0:
            bad_low = True
    return worst, bad_low, bad_high


def assert_routes_match(model, gamma, r_max):
    w = fitzsimmons_weight(model, gamma, r_max)
    assert w.tobytes() == reference_weight(model, gamma, r_max).tobytes()

    report = check_superharmonic_ground(model, gamma, r_max)
    worst, bad_low, bad_high = reference_ground_defects(model, gamma, r_max)
    assert report.residuals["min_defect_ratio"] == worst
    assert report.status == ("hypothesis-not-met" if bad_low or bad_high else "pass")
    assert any("kappa-form" in note for note in report.notes) == bad_high


ROSTER = {
    "tree2": lambda depth: make_tree(2, depth),
    "tree3": lambda depth: make_tree(3, depth),
    "antitree-poly1": lambda depth: make_antitree(lambda r: r + 1, depth),
    "antitree-poly2": lambda depth: make_antitree(lambda r: (r + 1) ** 2, depth),
}


@pytest.mark.parametrize("gamma", [Fraction(0), Fraction(1, 3)], ids=["0", "1/3"])
@pytest.mark.parametrize("r_max", [512, 1000])
@pytest.mark.parametrize("name", sorted(ROSTER))
def test_roster_matches_the_fraction_routes(name, r_max, gamma):
    assert_routes_match(ROSTER[name](r_max + 1), gamma, r_max)


_degree = st.one_of(
    st.integers(1, 9),
    st.integers(1, 2 ** 40),
    st.fractions(min_value=Fraction(1, 8), max_value=9, max_denominator=8),
)


@st.composite
def ground_models(draw):
    """int and Fraction degrees, or antitrees whose areas pass 2**64."""
    depth = draw(st.integers(3, 24))
    if draw(st.booleans()):
        k_plus = draw(st.lists(_degree, min_size=depth, max_size=depth))
        k_minus = [0] + draw(st.lists(_degree, min_size=depth, max_size=depth))
        return make_custom(k_plus, k_minus)
    sizes = [1]
    for factor in draw(st.lists(st.integers(1, 2 ** 24), min_size=depth, max_size=depth)):
        sizes.append(max(1, sizes[-1] * factor // 2 ** 8))
    return make_antitree(sizes, depth)


@given(ground_models(),
       st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2), Fraction(7, 5)]))
def test_random_models_match_the_fraction_routes(model, gamma):
    assert_routes_match(model, gamma, model.depth - 1)


def test_areas_past_2_64_match_the_fraction_routes():
    # sphere sizes 7**r: areas pass 2**64 from r = 12 on
    model = make_antitree([7 ** r for r in range(41)], 40)
    assert model.area(12) > 2 ** 64
    for gamma in (Fraction(0), Fraction(1, 3)):
        assert_routes_match(model, gamma, 39)


def test_a_huge_branching_number_matches_the_fraction_routes():
    # areas 10**(11 r): cross products of about 19000 bits at r = 512
    model = make_tree(10 ** 11, 513)
    for gamma in (Fraction(0), Fraction(1, 3)):
        assert_routes_match(model, gamma, 512)


def test_areas_of_thousands_of_bits_match_the_mpmath_route():
    # sphere sizes 7**r to depth 400: areas of about 2250 bits; the degrees pass
    # the float64 range at radius 364, where the weight is +inf on both routes
    # (the ground check reads float degree views and refuses this model)
    model = make_antitree([7 ** r for r in range(401)], 400)
    for gamma in (Fraction(0), Fraction(1, 3)):
        w = fitzsimmons_weight(model, gamma, 399)
        assert w.tobytes() == reference_weight(model, gamma, 399).tobytes()
        assert np.isinf(w[364:]).all() and np.isfinite(w[:364]).all()


def test_fraction_degrees_from_a_model_file_match_the_fraction_routes(tmp_path):
    k_plus = [Fraction(5, 2), Fraction(7, 3), 3, Fraction(9, 4)] * 100
    k_minus = [0] + [Fraction(3, 2), Fraction(4, 3), 2, Fraction(5, 4)] * 100
    path = tmp_path / "fractions.model"
    save_model(make_custom(k_plus, k_minus), path)
    model = load_model(path)
    assert model.k_plus(0) == Fraction(5, 2) and model.k_minus(400) == Fraction(5, 4)
    for gamma in (Fraction(0), Fraction(1, 3)):
        assert_routes_match(model, gamma, 399)


def test_degrees_past_the_float_range_give_infinite_weights():
    # each weight is one exact quotient rounded to float: past the float range
    # it is +-inf, as float() of a 40-digit decimal was, not an OverflowError
    model = make_custom([10 ** 400] * 3 + [1], [0, 1] + [10 ** 400] * 3)
    w = fitzsimmons_weight(model, 0, 3)
    assert w.tolist() == [0.0, math.inf, -math.inf, math.inf]
    assert w.tobytes() == reference_weight(model, Fraction(0), 3).tobytes()


# -- model file tokens ----------------------------------------------------------

@pytest.mark.parametrize("token", [
    "0", "12", "007", "+3", "-3", "1_0", "²", "٣", "3.0", "1/2", "1e3",
    "", "x", "1/0",
])
def test_plain_digit_tokens_parse_like_fraction(token):
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InvalidParameterError, match="cannot parse"):
            _parse(token, "row 0")
        return
    value = _parse(token, "row 0")
    assert value == expected
    if token.isascii() and token.isdigit():
        assert type(value) is int


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("form", ["{}", "{}/7", "7/{}"])
def test_over_long_digit_runs_are_refused_on_both_paths(form):
    limit = sys.get_int_max_str_digits()
    assert _parse(form.format("9" * limit), "row 0") == Fraction(form.format("9" * limit))
    with pytest.raises(InvalidParameterError, match="decimal digits"):
        _parse(form.format("9" * (limit + 1)), "row 0")
