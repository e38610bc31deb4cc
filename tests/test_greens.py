import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hardy_lab import (
    InconclusiveTransienceError,
    NeedsTailError,
    NoGreenFunctionError,
    Tail,
    compare_to_green,
    green_function_exact,
    green_weight,
    make_antitree,
    make_custom,
    make_tree,
    transience_test,
    tree_bottom_of_spectrum,
)
from hardy_lab import check_properness, greens, radial_model
from hardy_lab.cli import _parse_model_spec
from hardy_lab.greens import _quadratic_tail_bound
from hardy_lab.radial_model import RadialModel

from object_storage import object_storage
from whole_views import whole_kappa_constant_from, whole_log_green
from whole_window import whole_area_window, whole_window_decreasing, whole_window_transience


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_exact_green_on_trees(d):
    model = make_tree(d, 40)
    exact = green_function_exact(model, 29)
    for r in range(0, 30):
        assert exact[r] == Fraction(1, d ** r * (d - 1))


def test_float_green_matches_exact(tree3):
    prof = green_weight(tree3, 60)[1]
    exact = green_function_exact(tree3, 60)
    for r in range(0, 61):
        assert prof.values[r] == pytest.approx(float(exact[r]), rel=1e-12)
    assert prof.tail_method == "closed-form-geometric"
    assert prof.tail_error_bound == 0.0


def test_log_green_survives_float_underflow():
    # G(700) on the 5-ary tree is ~1e-490, far below double range
    model = make_tree(5, 720)
    prof = green_weight(model, 700)[1]
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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_green_weight_on_trees_is_exact_to_rounding(d):
    w, _ = green_weight(make_tree(d, 1002), 1000)
    assert np.max(np.abs(w[1:] - (math.sqrt(d) - 1) ** 2)) <= 1e-15


def _mp(x):
    """An int or Fraction as an mpf at the working precision."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _green_weight_reference(model, r_max, dps=50, g_depth=0):
    """The Green weight from the sums G(r) = g_depth + sum 1/area(n) over
    depth >= n > r, evaluated at ``dps`` digits straight from its
    definition; g_depth = 0 truncates G at the stored depth."""
    with mpmath.workdps(dps):
        g = [mpmath.mpf(0)] * model.depth + [_mp(g_depth)]
        for r in range(model.depth - 1, -1, -1):
            g[r] = g[r + 1] + 1 / _mp(model.area(r + 1))
        ref = []
        for r in range(r_max + 1):
            w = _mp(model.k_plus(r)) * (1 - mpmath.sqrt(g[r + 1] / g[r]))
            if r > 0:
                w += _mp(model.k_minus(r)) * (1 - mpmath.sqrt(g[r - 1] / g[r]))
            ref.append(float(w))
    return np.array(ref)


def test_green_weight_on_a_quadratic_antitree_matches_50_digits():
    # and on the cubic one: both grow fast enough that the two terms of the
    # weight's definition nearly cancel
    for p in (2, 3):
        model = make_antitree(lambda r, p=p: (r + 1) ** p, 1200)
        w, prof = green_weight(model, 600)
        assert prof.tail_method == "truncated-with-bound"
        ref = _green_weight_reference(model, 600)
        assert np.max(np.abs(w - ref) / ref) <= 2e-14, p


def test_green_route_survives_areas_that_climb_and_fall():
    # area(r) = 4**r up to r = 600, down by 4 per radius to area(1200) = 4,
    # then doubling with a declared geometric tail: G(r) at small r barely
    # moves while area(r) G(r) spans 360 decades
    k_plus = [4] * 600 + [1] * 600 + [2] * 1200
    k_minus = [0] + [1] * 600 + [4] * 600 + [1] * 1200
    model = make_custom(k_plus, k_minus,
                        tail=Tail("eventually-geometric", kappa_inf=2, start=1201))
    assert model.area(600) == 4 ** 600 and model.area(1200) == 4
    w, prof = green_weight(model, 128)
    assert prof.tail_method == "closed-form-geometric"
    # the reference's G(r) sums the tail only to depth; the rest of the
    # tail is below 2**-1200 of G(r) here
    assert np.max(np.abs(w - _green_weight_reference(model, 128))) <= 1e-14
    assert np.all(np.isfinite(green_weight(model, 1000)[1].log_values))


_extra_degree = st.one_of(
    st.integers(1, 3),
    st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
)


@st.composite
def _increasing_models(draw):
    """Models whose areas increase at every radius, with the G(depth) of
    their tail: polynomial antitrees (truncated at depth) and custom models
    with k_plus > k_minus, periodic degrees and a declared geometric tail."""
    depth = draw(st.integers(6, 1000))
    if draw(st.booleans()):
        a, b, p = draw(st.integers(1, 5)), draw(st.integers(0, 10)), draw(st.integers(1, 3))
        return make_antitree(lambda r: a * r ** p + b * r + 1, depth), 0
    period = draw(st.lists(st.tuples(_exact_degree, _extra_degree), min_size=1, max_size=6))
    tail_km, tail_extra = draw(st.tuples(_exact_degree, _extra_degree))
    start = draw(st.integers(1, depth - 1))
    degrees = [period[r % len(period)] for r in range(start)]
    degrees += [(tail_km, tail_extra)] * (depth - start)
    k_minus = [km for km, _ in degrees]
    k_plus = [km + extra for km, extra in degrees]
    kappa = Fraction(k_plus[-1]) / k_minus[-1]
    model = make_custom(k_plus, [0] + k_minus[1:] + [tail_km],
                        tail=Tail("eventually-geometric", kappa_inf=kappa, start=start))
    # sum over n > depth of 1/area(n), area(n) = area(depth) kappa**(n - depth)
    return model, 1 / (model.area(depth) * (kappa - 1))


@given(case=_increasing_models(), data=st.data())
def test_green_weight_on_increasing_areas_matches_50_digits(case, data):
    # the summed stretch, in blocks of 3 radii (several carries) or whole
    model, g_depth = case
    r_max = data.draw(st.integers(3, min(300, model.depth - 3)))
    block = data.draw(st.sampled_from([3, radial_model._WINDOW_BLOCK]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        w, _ = green_weight(model, r_max)
    ref = _green_weight_reference(model, r_max, g_depth=g_depth)
    assert np.max(np.abs(w - ref) / ref) <= 2e-14


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


def _area_window_verdict(model):
    """The transience verdict read off the exact area window, or None when
    the window neither plateaus nor grows convexly: the reference for the
    degree route of transience_test."""
    _, d1, d2 = whole_area_window(model)
    if np.all(d1 <= 0):
        return False
    if d2.size and np.all(d1 > 0) and d2.min() > 0:
        return True
    return None


_exact_degree = st.one_of(
    st.integers(1, 6),
    st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4),
)


@st.composite
def _custom_models(draw):
    depth = draw(st.integers(2, 24))
    k_minus = [0] + draw(st.lists(st.one_of(st.integers(1, 3), _exact_degree),
                                  min_size=depth, max_size=depth))
    k_plus = draw(st.lists(_exact_degree, min_size=depth, max_size=depth))
    return make_custom(k_plus, k_minus)


@st.composite
def _antitrees(draw):
    # sizes with sorted increments grow convexly, sorted sizes often do;
    # large sizes take the object-array path of exact_degrees
    depth = draw(st.integers(2, 24))
    scale = draw(st.sampled_from([1, 10 ** 9]))
    steps = draw(st.lists(st.integers(0, 50), min_size=depth, max_size=depth))
    shape = draw(st.sampled_from(["any", "sorted", "convex"]))
    if shape == "convex":
        steps = list(itertools.accumulate(sorted(steps), initial=1))[1:]
    elif shape == "sorted":
        steps.sort()
    return make_antitree([1] + [scale * (1 + s) for s in steps], depth)


# areas 2, 2, 4, 4, 8, 8, ...: growing, but with half its second differences 0
_ALTERNATING = make_custom([2 if r % 2 == 0 else 1 for r in range(39)], [0] + [1] * 39)


@given(model=st.one_of(_custom_models(), _antitrees()))
@example(model=_ALTERNATING)
@example(model=make_antitree(lambda r: r + 1, 40))
@example(model=make_custom([1] * 30, [0] + [1] * 30))
def test_transience_from_the_degrees_matches_the_area_window(model):
    expected = _area_window_verdict(model)
    if expected is None:
        with pytest.raises(InconclusiveTransienceError):
            transience_test(model)
    else:
        assert transience_test(model) is expected


def test_window_scans_hold_no_window_length_array():
    # degrees past 2**26 take the object-array path: a whole-window array
    # of their products held 7.8 MB here.  Each reader gets a new model,
    # since the model keeps what its one scan read
    def tail_bound(model):
        return _quadratic_tail_bound(model._tail_window.areas)

    for read in (transience_test, tail_bound, check_properness):
        model = make_antitree(map(pow, range(1, 100_002), itertools.repeat(2)), 100_000)
        tracemalloc.start()
        try:
            read(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, read.__name__


def _mpmath_tail_bound(window):
    """_quadratic_tail_bound as evaluated in mpmath at 30 digits."""
    last, d1_last, d2_min = window
    a = Fraction(d2_min) / 2
    b = d1_last + a
    c = Fraction(last)
    disc = b * b - 4 * a * c
    mp = lambda x: mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)  # noqa: E731
    with mpmath.workdps(30):
        a, b, c = mp(a), mp(b), mp(c)
        if disc < 0:
            root = mpmath.sqrt(mp(-disc))
            bound = 2 * mpmath.atan2(root, b) / root
        elif disc == 0:
            bound = 2 / b
        else:
            root = mpmath.sqrt(mp(disc))
            bound = mpmath.log1p(2 * root * (b + root) / (4 * a * c)) / root
    return float(bound)


def _unspecified(model):
    """The model with its tail declared unspecified."""
    return RadialModel(k_plus=model._k_plus, k_minus=model._k_minus, vol=model._vol,
                       tail=Tail("unspecified"), label=model.label)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@given(model=st.one_of(_custom_models(), _antitrees()))
@example(model=_ALTERNATING)
@example(model=make_antitree(lambda r: (r + 1) ** 2, 40))
@example(model=_unspecified(make_tree(3, 20)))  # no stored volumes: vol(r) = 3**r
@example(model=make_tree(1, 20))
def test_window_scans_in_blocks_match_the_whole_window(block, model):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        window = RadialModel._tail_window.func(model)
    assert window.transient is whole_window_transience(model)
    assert window.decreasing is whole_window_decreasing(model, model.depth)
    last, d1, d2 = whole_area_window(model)
    assert window.areas == (last, d1[-1], d2.min() if d2.size else None)
    if window.transient:
        assert _quadratic_tail_bound(window.areas) == \
            _mpmath_tail_bound((last, d1[-1], d2.min()))


@st.composite
def _geometric_tail_models(draw):
    """Custom models whose degrees are constant from a drawn radius on,
    with the eventually-geometric tail that this gives them."""
    depth = draw(st.integers(2, 24))
    start = draw(st.integers(1, depth - 1))
    degrees = draw(st.lists(st.tuples(_exact_degree, _exact_degree),
                            min_size=start, max_size=start))
    kp_inf, km_inf = draw(st.tuples(_exact_degree, _exact_degree))
    degrees += [(kp_inf, km_inf)] * (depth - start + 1)
    return make_custom([kp for kp, _ in degrees[:depth]], [0] + [km for _, km in degrees[1:]],
                       tail=Tail("eventually-geometric", kappa_inf=Fraction(kp_inf) / km_inf,
                                 start=start))


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@given(model=_geometric_tail_models())
@example(model=make_tree(3, 20))
def test_window_scan_forms_no_area_on_a_geometric_tail(block, model):
    formed = []
    areas = vars(RadialModel)["_areas"]

    def spied(self, r_lo, r_hi):
        formed.append((r_lo, r_hi))
        return areas(self, r_lo, r_hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        patch.setattr(RadialModel, "_areas", spied)
        window = RadialModel._tail_window.func(model)
    assert formed == [] and window.areas is None
    assert window.decreasing is whole_window_decreasing(model, model.depth)
    assert window.transient is whole_window_transience(model)


@st.composite
def _straddling_antitrees(draw):
    """Antitrees whose window products straddle 2**62, the bound of
    RadialModel._window_block: sizes near 2**b, b <= 62, apart by steps up
    to 2**g with b + g near 62 (or g = 0, so that the radius is the larger
    factor), the steps in any order, sorted or summed into convex growth,
    so that the blocks of one window can fall on both sides of the bound."""
    depth = draw(st.integers(3, 40))
    b = draw(st.integers(31, 62))
    g = draw(st.one_of(st.just(0), st.integers(max(0, 58 - b), min(b - 1, 64 - b))))
    base = 2 ** b - draw(st.integers(0, 2 ** (b - 1)))
    steps = draw(st.lists(st.integers(0, 2 ** g), min_size=depth, max_size=depth))
    shape = draw(st.sampled_from(["any", "sorted", "convex"]))
    if shape == "convex":
        steps = list(itertools.accumulate(sorted(steps)))
    elif shape == "sorted":
        steps.sort()
    return make_antitree([1] + [base + s for s in steps], depth)


def _window_at_the_bound(top, gap):
    """A model whose area window has first differences -top*gap and
    top*gap at radii 8 and 9, and 0 after, in blocks whose largest entry is
    top and largest factor gap: vol(r) = top from radius 1 on, so that
    k_minus(r + 1) = k_plus(r), and k_plus dips by gap at radius 8.  Its
    second difference at radius 8, 2 top gap, passes 2**63 where top gap
    reaches 2**62: the case that a bound of 2**63, or <= for <, lets wrap."""
    k_plus = [top] * 12
    k_plus[8] -= gap
    return make_custom(k_plus, [0, 1] + k_plus[1:], [1] + [top] * 12)


@st.composite
def _windows_at_the_bound(draw):
    """_window_at_the_bound with top near 2**b and top * gap near 2**62,
    often exactly 2**62."""
    b = draw(st.integers(32, 62))
    top = 2 ** b - draw(st.sampled_from([0, 1, 2 ** (b - 2)]))
    gap = draw(st.one_of(st.just(2 ** (62 - b)),
                         st.integers(2 ** max(0, 61 - b), min(2 ** (63 - b), top - 1))))
    return _window_at_the_bound(top, gap)


# one window block's largest entry times its largest factor is exactly
# 2**62, and its second differences reach 2**62 - (-2**62) = 2**63
_AT_THE_BOUND = _window_at_the_bound(2 ** 40, 2 ** 22)
# sizes 2**40 + 2**r: the products pass 2**62 halfway through the window
_ACROSS_THE_BOUND = make_antitree([1] + [2 ** 40 + 2 ** r for r in range(1, 31)], 30)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@given(model=st.one_of(_straddling_antitrees(), _windows_at_the_bound()))
@example(model=_AT_THE_BOUND)
@example(model=_window_at_the_bound(2 ** 40, 2 ** 22 + 1))
@example(model=_ACROSS_THE_BOUND)
@example(model=make_antitree([1] + [2 ** 62 - 1] * 6, 6))  # 6 k_minus(5) > 2**63
def test_window_scans_match_on_object_storage(block, model):
    # the int64 blocks of RadialModel._window_block against the Python ints
    # of the same model stored as objects
    twin = object_storage(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        window = RadialModel._tail_window.func(model)
        expected = RadialModel._tail_window.func(twin)
    assert window == expected
    assert list(map(type, window.areas)) == list(map(type, expected.areas)) == [int] * 3


def test_one_window_takes_both_dtypes(monkeypatch):
    monkeypatch.setattr(radial_model, "_WINDOW_BLOCK", 2)
    seen = []
    block = RadialModel._window_block

    def spied(self, *args, **kwargs):
        arrays = block(self, *args, **kwargs)
        seen.append({a.dtype for a in arrays})
        return arrays

    monkeypatch.setattr(RadialModel, "_window_block", spied)
    RadialModel._tail_window.func(_ACROSS_THE_BOUND)
    assert seen[0] == {np.dtype(np.int64)} and seen[-1] == {np.dtype(object)}


_positive = st.one_of(st.integers(1, 10 ** 12),
                      st.fractions(min_value=Fraction(1, 1000), max_value=10 ** 6,
                                   max_denominator=1000).filter(lambda x: x > 0))


@st.composite
def _convex_windows(draw):
    """(area(depth), last first difference, smallest second difference),
    positive, with the discriminant of the bound's quadratic c + b x + a x**2
    negative, zero or positive, and scaled up to areas past the double range."""
    a = draw(_positive)
    b = a + draw(_positive)  # the last first difference b - a is positive
    c = Fraction(b * b) / (4 * a)  # disc = 0
    # c moves by a relative step down to 1e-80, so that disc = -/+ b**2 step
    step = Fraction(draw(st.integers(1, 999)), 10 ** draw(st.integers(3, 80)))
    disc = draw(st.sampled_from(["negative", "zero", "positive"]))
    if disc == "negative":
        c *= 1 + step * draw(st.sampled_from([1, 10 ** 6, 10 ** 9]))
    elif disc == "positive":
        c *= 1 - step
    scale = draw(st.sampled_from([1, 1, 2 ** 200, 2 ** 1200, 3 ** 2500]))
    return c * scale, (b - a) * scale, 2 * a * scale


@given(window=_convex_windows())
@example(window=(1, 1, 2))  # a = 1, b = 2, c = 1: disc = 0
@example(window=(2 ** 4000, 2 ** 3999, 2 ** 3998))
def test_tail_bound_matches_the_30_digit_mpmath_evaluation(window):
    bound = _quadratic_tail_bound(window)
    assert bound == _mpmath_tail_bound(window)
    if window[0] * Fraction(window[2]) / 2 > 2 ** 2200:
        assert bound == 0.0  # it is at most pi / (2 sqrt(a c)) < 2**-1099


def test_recurrent_model_has_no_green_function():
    line = make_tree(1, 50)
    with pytest.raises(NoGreenFunctionError):
        green_weight(line, 10)


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
        green_weight(model, 10)


def test_exact_green_needs_geometric_tail(antitree_linear):
    with pytest.raises(NoGreenFunctionError):
        green_function_exact(antitree_linear, 3)


def test_green_range_guards(tree3):
    with pytest.raises(NeedsTailError):
        green_weight(tree3, tree3.depth - 1)
    with pytest.raises(NeedsTailError):
        green_function_exact(tree3, tree3.depth)


def reference_log_green(model):
    """l(r) by one step per radius, from the same top value as _log_green."""
    ell = np.log(model.kappa_floats(model.depth - 1)[1:]).tolist()
    t = model.tail
    x = math.log(float(t.kappa_inf) / (float(t.kappa_inf) - 1.0))
    out = [x]
    for lk in reversed(ell):
        z = x - lk
        x = z + math.log1p(math.exp(-z)) if z > 0 else math.log1p(math.exp(z))
        out.append(x)
    return np.array(out[::-1])


class CountingMath:
    """The math module, counting log1p calls."""

    def __init__(self):
        self.log1p_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log1p(self, x):
        self.log1p_calls += 1
        return math.log1p(x)


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 5), st.integers(1, 3)),
                min_size=1, max_size=12))
def test_green_recursion_matches_one_step_per_radius(runs):
    # runs of constant degrees, then a geometric tail with kappa 3
    k_plus, k_minus = [], []
    for length, kp, km in runs:
        k_plus += [kp] * length
        k_minus += [km] * length
    k_plus += [3] * 30
    k_minus += [1] * 30
    model = make_custom(k_plus, [0] + k_minus,
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(3)))
    ell, _ = greens._log_green(model, model.depth - 1)
    assert ell.tobytes() == reference_log_green(model).tobytes()


def _growing_custom_model(depth):
    # kappa(r) = (r + 3)/(r + 1) up to depth - 1000, then a geometric tail
    # with kappa 2, whose top value log 2 is a fixed point of its step
    start = depth - 1000
    k_plus = [r + 3 for r in range(start)] + [2] * 1000
    k_minus = [0] + [r + 1 for r in range(1, start)] + [1] * 1001
    return make_custom(k_plus, k_minus,
                       tail=Tail("eventually-geometric", kappa_inf=2, start=start))


@pytest.mark.parametrize("build", [
    lambda: make_antitree(lambda r: (r + 1) ** 2, 20_000),
    lambda: _growing_custom_model(20_000),
    # kappa(r) = (r // 2 + 3)/(r // 2 + 1): runs of two, too short to reach
    # a fixed point
    lambda: make_custom([r // 2 + 3 for r in range(20_000)],
                        [0] + [r // 2 + 1 for r in range(1, 20_001)]),
], ids=["antitree-poly-2", "custom-geometric-tail", "custom-runs-of-two"])
def test_green_recursion_sums_the_stretch_above_r_max(monkeypatch, build):
    # about one step per reported radius: the increasing stretch above
    # r_max is one sum, not 20000 steps
    model = build()
    counting = CountingMath()
    monkeypatch.setattr(greens, "math", counting)
    greens._log_green(model, 128)
    assert counting.log1p_calls <= 130


def test_green_recursion_sums_a_flat_stretch_above_r_max(monkeypatch):
    # area(r) constant on radii 100..3100 between two doublings: the areas
    # do not fall above r = 128, so l(128) is one sum and 128 steps, and
    # the sum carries the flat stretch as accurately as the growth
    model = make_custom([2] * 100 + [1] * 3000 + [2] * 900, [0] + [1] * 4000,
                        tail=Tail("eventually-geometric", kappa_inf=2, start=3101))
    counting = CountingMath()
    monkeypatch.setattr(greens, "math", counting)
    w, _ = green_weight(model, 128)
    assert counting.log1p_calls <= 130
    monkeypatch.undo()
    ref = _green_weight_reference(model, 128, g_depth=Fraction(1, model.area(4000)))
    assert np.max(np.abs(w - ref) / ref) <= 2e-14


def test_green_recursion_keeps_falling_areas_on_the_loop():
    # the model of test_green_route_survives_areas_that_climb_and_fall: the
    # areas fall on radii 600..1199, so the sum covers the tail run only,
    # where it lands on the fixed point of the step, and every step below
    # is the loop's
    k_plus = [4] * 600 + [1] * 600 + [2] * 1200
    k_minus = [0] + [1] * 600 + [4] * 600 + [1] * 1200
    model = make_custom(k_plus, k_minus,
                        tail=Tail("eventually-geometric", kappa_inf=2, start=1201))
    ell, _ = greens._log_green(model, 128)
    assert ell.tobytes() == reference_log_green(model)[:129].tobytes()


@pytest.mark.parametrize("block", [1000, radial_model._WINDOW_BLOCK])
@pytest.mark.parametrize("x", [0.0, 20.0])
def test_stretch_sum_is_not_misled_by_cumsum_rounding(block, x):
    # a constant log kappa whose low bits a plain cumsum rounds the same way
    # at every step within a binade of the partial sums: that sum lands
    # about 20 ulp off
    ell = np.full(8192, 2.0 ** -10 + 0.4 * 2.0 ** -50)
    with mpmath.workdps(40):
        c = total = mpmath.mpf(0)
        for v in ell:
            total += mpmath.exp(-c)
            c += mpmath.mpf(float(v))
        ref = float(mpmath.log(total + mpmath.exp(x - c)))
    got = greens._stretch_log((ell[i:i + block] for i in range(0, ell.size, block)), x)
    assert abs(got - ref) <= math.ulp(ref)


def test_green_recursion_fixed_point_on_a_run_of_one():
    # log 2 from the tail is a float fixed point of the kappa = 2 step, which
    # only the last stored radius takes; the kappa = 3 steps below move on
    model = make_custom([3] * 20 + [2], [0] + [1] * 21,
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(2)))
    ell, _ = greens._log_green(model, model.depth - 1)
    assert ell.tobytes() == reference_log_green(model).tobytes()


@st.composite
def _runs_models(draw):
    """Runs of constant degrees, then a geometric tail: fixed points of the
    Green step, flat and falling areas, at any radius.  Degrees
    scaled by 2**60 take the object path, whose kappa is one Fraction
    division per radius."""
    runs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 5), st.integers(1, 3)),
                         min_size=1, max_size=8))
    scale = draw(st.sampled_from([1, 2 ** 60]))
    k_plus, k_minus = [], []
    for length, kp, km in runs:
        k_plus += [scale * kp] * length
        k_minus += [scale * km] * length
    tail_kp, tail_km = draw(st.sampled_from([(2, 1), (3, 1), (5, 2)]))
    tail = draw(st.integers(1, 12))
    k_plus += [scale * tail_kp] * tail
    k_minus += [scale * tail_km] * tail
    return make_custom(k_plus, [0] + k_minus,
                       tail=Tail("eventually-geometric", kappa_inf=Fraction(tail_kp, tail_km)))


# the areas climb as 4**r, fall by 4 per radius and climb again
_CLIMB_AND_FALL = make_custom([4] * 60 + [1] * 60 + [2] * 120, [0] + [1] * 60 + [4] * 60 + [1] * 120,
                              tail=Tail("eventually-geometric", kappa_inf=2, start=121))


# kappa (2**53 + 3) / (2**53 + 2) rounds to 1, so log kappa is 0 on radii
# 1..29 although their areas grow; kappa 2 above them
_GROWTH_ROUNDED_AWAY = make_custom([2 ** 53 + 3] * 30 + [2] * 10, [0] + [2 ** 53 + 2] * 30 + [1] * 10,
                                   tail=Tail("eventually-geometric", kappa_inf=2))


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@given(model=st.one_of(_runs_models(), _increasing_models().map(lambda case: case[0])))
@example(model=_CLIMB_AND_FALL)
@example(model=_GROWTH_ROUNDED_AWAY)
@example(model=make_antitree(lambda r: (r + 1) ** 2, 60))
@example(model=make_tree(3, 40))
def test_green_recursion_in_blocks_matches_the_whole_depth(block, model):
    # log kappa read block by block, against one whole array
    depth = model.depth
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        for r_max in sorted({0, 1, depth // 3, depth // 2, depth - 2, depth - 1}):
            expected = whole_log_green(model, r_max).tobytes()
            for m in (model, object_storage(model)):
                ell, _ = greens._log_green(m, r_max)
                assert ell.tobytes() == expected, r_max


@pytest.mark.parametrize("block", [100, radial_model._WINDOW_BLOCK])
def test_green_recursion_forms_each_log_kappa_at_most_once_per_scan(monkeypatch, block):
    # runs of 60 radii at kappa 2 and 3 in turn: the sum reads the blocks
    # above r = 128 going up until its terms vanish, the walk those below
    # going down
    monkeypatch.setattr(radial_model, "_WINDOW_BLOCK", block)
    depth = 3000
    k_plus = [2 + (r // 60) % 2 for r in range(depth)]
    model = make_custom(k_plus, [0] + [1] * depth,
                        tail=Tail("eventually-geometric", kappa_inf=k_plus[-1], start=depth))
    formed = []
    degree_block = RadialModel._degree_block

    def counted(self, s, e, exact=True):
        formed.append((s, e))
        return degree_block(self, s, e, exact)

    monkeypatch.setattr(RadialModel, "_degree_block", counted)
    ell, _ = greens._log_green(model, 128)
    # the first block above r = 128 whose end has exp(-c) = 0; the first
    # term, 1 / kappa(129) >= 1/3, leaves the closing one far below an ulp
    c = 0.0
    for b0, top in radial_model._window_blocks(128, depth - 1):
        c += math.fsum(math.log(k_plus[r + 1]) for r in range(b0, top))
        if math.exp(-c) == 0.0:
            break
    # each value at most once: the blocks of [0, 128) and of [128, top)
    assert sorted(formed) == sorted(
        [(b0 + 1, b1 + 1) for b0, b1 in radial_model._blocks_down(0, 128)]
        + [(b0 + 1, b1 + 1) for b0, b1 in radial_model._window_blocks(128, top)])
    assert top < depth - 1 if block == 100 else top == depth - 1
    monkeypatch.undo()
    assert ell.tobytes() == whole_log_green(model, 128).tobytes()


# stretches of kappa in {3/2, 2, 3, 10} long enough for exp(-c) to
# underflow, flat ones, and ones whose kappa (2**53 + 3) / (2**53 + 2)
# rounds to 1, as (k_plus, k_minus, shortest run)
_STRETCH_KINDS = [(3, 2, 1900), (2, 1, 1100), (3, 1, 700), (10, 1, 330),
                  (1, 1, 1), (2 ** 53 + 3, 2 ** 53 + 2, 1)]


@st.composite
def _stretch_models(draw):
    """Areas that never fall: runs of the kinds above, then a geometric tail."""
    runs = draw(st.lists(st.tuples(st.sampled_from(_STRETCH_KINDS), st.integers(0, 400)),
                         min_size=1, max_size=5))
    k_plus, k_minus = [], []
    for (kp, km, shortest), extra in runs:
        k_plus += [kp] * (shortest + extra)
        k_minus += [km] * (shortest + extra)
    tail_kp, tail_km = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    k_plus += [tail_kp] * 3
    k_minus += [tail_km] * 3
    return make_custom(k_plus, [0] + k_minus,
                       tail=Tail("eventually-geometric", kappa_inf=Fraction(tail_kp, tail_km)))


@pytest.mark.parametrize("block", [97, 1000, radial_model._WINDOW_BLOCK])
@given(model=_stretch_models(), data=st.data())
@example(model=make_tree(2, 20_000), data=None)
@example(model=make_tree(3, 20_000), data=None)
def test_green_stretch_sum_stops_where_its_terms_vanish(block, model, data):
    # the sum that stops reads fewer blocks, not other bits: the whole
    # sum's added terms are 0 past the stop and its closing term is below
    # a quarter ulp of the rest
    depth = model.depth
    r_maxes = {0, 128 % depth, depth - 1}
    if data is not None:
        r_maxes.add(data.draw(st.integers(0, depth - 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        for r_max in sorted(r_maxes):
            ell, _ = greens._log_green(model, r_max)
            assert ell.tobytes() == whole_log_green(model, r_max).tobytes(), r_max


@pytest.mark.parametrize("spec, blocks", [("tree:2:100000", 1), ("tree:3:100000", 1),
                                         ("antitree:poly:2:100000", 25)])
def test_green_stretch_sum_at_depth_1e5_stops_on_trees(monkeypatch, spec, blocks):
    # as verify compares at r_max = 128: a tree's terms vanish within its
    # first block of 4096 radii, an antitree's never
    model = _parse_model_spec(spec)
    formed = []
    log_kappa = greens._log_kappa

    def counted(model, b0, b1):
        formed.append(b0)
        return log_kappa(model, b0, b1)

    monkeypatch.setattr(greens, "_log_kappa", counted)
    greens.compare_to_green(model, 128)
    assert sum(b0 >= 128 for b0 in formed) == blocks


def test_green_stretch_sum_waits_for_its_closing_term(monkeypatch):
    # kappa(1) = 10**308 leaves a rest of 2e-308, a subnormal's ulp: at the
    # first radius where exp(-c) underflows, the closing term exp(x - c) is
    # still a few ulps of it, and a sum that stopped there would keep them
    monkeypatch.setattr(radial_model, "_WINDOW_BLOCK", 1)
    model = make_custom([1, 10 ** 308] + [2] * 118, [0] + [1] * 120,
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(2)))
    ell, _ = greens._log_green(model, 0)
    assert ell.tobytes() == whole_log_green(model, 0).tobytes()


_TAIL_KAPPAS = [(1, 1), (2, 1), (3, 2)]
# ratios that round to the float of the kappa beside them, exactly one
# part in 2**60 away
_NEAR_TIES = [(2 ** 60 + 1, 2 ** 60), (2 ** 61 + 1, 2 ** 60), (3 * 2 ** 59 + 1, 2 ** 60)]


@st.composite
def _eventually_constant_kappa(draw):
    """Degrees whose kappa is constant from a drawn radius on, and below it
    the same kappa, ratios that round to its float without equalling it, or
    other ratios."""
    depth = draw(st.integers(3, 40))
    tail = draw(st.sampled_from(_TAIL_KAPPAS))
    start = draw(st.integers(1, depth - 1))
    head = st.sampled_from(_TAIL_KAPPAS + _NEAR_TIES) | st.tuples(st.integers(1, 9),
                                                                   st.integers(1, 9))
    degrees = [draw(head) for _ in range(start)] + [tail] * (depth - start)
    return make_custom([kp for kp, _ in degrees], [0] + [km for _, km in degrees[1:]] + [1])


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@given(model=_eventually_constant_kappa())
@example(model=make_custom([3] * 7 + [2] * 13, [0] + [1] * 20))  # breaks at 6, inside a block
@example(model=make_custom([1, 1, 2 ** 60 + 1] + [1] * 9, [0, 1, 2 ** 60] + [1] * 10))
@example(model=make_tree(2, 30))
# degrees past 2**26, below 2**53: kappa needs no exact degrees, the ties do
@example(model=make_custom([3 * 2 ** 30] * 6 + [3] * 9, [0] + [2 ** 30] * 6 + [1] * 9))
def test_kappa_constant_from_in_blocks_matches_the_whole_depth(block, model):
    expected = whole_kappa_constant_from(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_model, "_WINDOW_BLOCK", block)
        for m in (model, object_storage(model)):
            assert greens._kappa_constant_from(m) == expected
