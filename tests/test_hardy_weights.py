import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_lab import (
    InvalidParameterError,
    closed_form_weight,
    fitzsimmons_weight,
    gamma_intervals,
    general_closed_form,
    make_antitree,
    make_custom,
    make_tree,
    series_expansion,
    series_remainder_bound,
    sqrt_pair_defect,
    tree_bottom_of_spectrum,
    tree_weight,
)
from hardy_lab import hardy_weights
from hardy_lab.hardy_weights import _closed_form, _ground_pairs, _pair_defect


def test_half_line_weight_values():
    # r = 1 carries the classical improved constant 2 - sqrt(2)
    assert tree_weight(1, 0, 1) == pytest.approx(2 - math.sqrt(2), abs=1e-15)
    assert tree_weight(1, 0, 2) == pytest.approx(
        2 - math.sqrt(0.5) - math.sqrt(1.5), abs=1e-15
    )


def test_binary_tree_weight_is_one_at_radius_one():
    assert tree_weight(2, 0, 1) == pytest.approx(1.0, abs=1e-15)


def test_weight_zero_at_interval_corner():
    # gamma = 1/2 on the binary tree zeroes both near-origin values
    assert tree_weight(2, Fraction(1, 2), 0) == pytest.approx(0.0, abs=5e-16)
    assert tree_weight(2, Fraction(1, 2), 1) == pytest.approx(0.0, abs=1e-15)


def test_tree_weight_origin_needs_positive_gamma():
    with pytest.raises(InvalidParameterError):
        tree_weight(2, 0, 0)


def test_bottom_of_spectrum():
    for d in range(1, 7):
        assert tree_bottom_of_spectrum(d) == pytest.approx(
            (math.sqrt(d) - 1) ** 2, abs=1e-15
        )


@given(st.floats(min_value=1e-12, max_value=1.0))
def test_sqrt_pair_defect_matches_high_precision(x):
    # promote x before arithmetic, else the oracle itself cancels
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        target = float(2 - mpmath.sqrt(1 + xm) - mpmath.sqrt(1 - xm))
    got = sqrt_pair_defect(x)
    assert got == pytest.approx(target, rel=2e-15, abs=1e-300)


def test_sqrt_pair_defect_edge_values():
    assert sqrt_pair_defect(0.0) == 0.0
    assert sqrt_pair_defect(1.0) == pytest.approx(2 - math.sqrt(2), rel=1e-15)


def test_ground_profile_is_exact():
    p, q = _ground_pairs(make_tree(2, 20), Fraction(1, 2), 10)
    assert list(map(Fraction, p, q)) == [Fraction(1, 2)] + [Fraction(r, 2 ** r)
                                                            for r in range(1, 11)]
    # fractional areas: u(r) = r / area(r) still comes as two ints
    m = make_custom([Fraction(3, 2), Fraction(5, 3), 2], [0, Fraction(1, 2), 3, Fraction(7, 4)])
    p, q = _ground_pairs(m, Fraction(0), 3)
    assert {type(x) for x in p + q} == {int}
    assert list(map(Fraction, p, q)) == [0] + [Fraction(r, m.area(r)) for r in range(1, 4)]
    with pytest.raises(InvalidParameterError, match="r_max must be at least 1"):
        fitzsimmons_weight(m, 0, -1)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_three_weight_routes_agree_on_trees(d):
    model = make_tree(d, 140)
    lam = tree_bottom_of_spectrum(d)
    fw = fitzsimmons_weight(model, 0, 128)
    cw = closed_form_weight(model, 0, 128).values
    for r in list(range(1, 12)) + [40, 99, 128]:
        tw = tree_weight(d, 0, r)
        gw = general_closed_form(model, 0, r)
        scale = max(abs(fw[r]), lam + math.sqrt(d) / (4 * (r + 1.0) ** 2))
        assert abs(fw[r] - cw[r]) <= 1e-13 * scale
        assert abs(fw[r] - tw) <= 1e-13 * scale
        assert abs(fw[r] - gw) <= 1e-13 * scale


def test_routes_agree_on_antitree(antitree_linear):
    fw = fitzsimmons_weight(antitree_linear, 0, 200)
    cw = closed_form_weight(antitree_linear, 0, 200).values
    # the weight decays like 1/r**2 here, so allow a tiny absolute slack
    assert np.all(np.abs(fw[1:] - cw[1:]) <= 1e-15 + 1e-13 * np.abs(fw[1:]))


_exact_degree = st.one_of(
    st.integers(1, 6),
    st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4),
)


@st.composite
def _exact_models(draw):
    """Random exact models: int and Fraction degrees, or antitrees whose
    sphere sizes change by random factors between 1/2 and 4 (deep ones pass
    the float64-exact cross products of ``exact_degrees``)."""
    depth = draw(st.integers(3, 24))
    if draw(st.booleans()):
        k_plus = draw(st.lists(_exact_degree, min_size=depth, max_size=depth))
        k_minus = [0] + draw(st.lists(_exact_degree, min_size=depth, max_size=depth))
        return make_custom(k_plus, k_minus)
    sizes = [1]
    for factor in draw(st.lists(st.integers(1, 8), min_size=depth, max_size=depth)):
        sizes.append(max(1, sizes[-1] * factor // 2))
    return make_antitree(sizes, depth)


@given(_exact_models(), st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2)]))
def test_closed_form_matches_the_50_digit_ratio_on_random_models(model, gamma):
    r_max = model.depth - 1
    closed = closed_form_weight(model, gamma, r_max).values
    ratio = fitzsimmons_weight(model, gamma, r_max, dps=50)
    scale = (model.k_plus_floats(r_max) + model.k_minus_floats(r_max))
    assert np.all(np.abs(closed - ratio) <= 1e-12 * scale)


def whole_closed_form(model, gamma, r_lo, r_hi):
    """_closed_form with each quantity one array over r_lo..r_hi, no blocks."""
    kap = model.kappa_floats(r_hi)
    kp, km = model.exact_degrees(r_hi)
    n = r_hi - r_lo + 1
    brackets, floors = np.empty(n), np.full(n, np.nan)
    applicable = np.zeros(n, dtype=bool)
    if r_lo == 1:
        k1 = float(kap[1])
        brackets[0] = (1.0 + k1 - math.sqrt(2.0 * k1)
                       - math.sqrt(float(gamma) * float(model.area(1))))
    lo = max(r_lo, 2)
    cross = kp[lo:r_hi + 1] * km[lo - 1:r_hi] - kp[lo - 1:r_hi] * km[lo:r_hi + 1]
    diff = np.asarray(cross / (km[lo:r_hi + 1] * km[lo - 1:r_hi]), dtype=float)
    sk, sk_prev = np.sqrt(kap[lo:r_hi + 1]), np.sqrt(kap[lo - 1:r_hi])
    r = np.arange(lo, r_hi + 1, dtype=float)
    x = 1.0 / r
    square = (sk - 1.0) ** 2
    brackets[lo - r_lo:] = square + sk * _pair_defect(x) + diff * np.sqrt(1.0 - x) / (sk + sk_prev)
    floors[lo - r_lo:] = square + sk / (4.0 * r * r)
    applicable[lo - r_lo:] = cross >= 0
    return brackets, floors, applicable


@pytest.mark.parametrize("r_lo, r_hi", [(1, 4999), (2, 4999), (1023, 3073), (1025, 1025),
                                        (2, 1025), (2049, 4999)])
def test_closed_form_on_object_degrees_in_blocks(r_lo, r_hi):
    # antitree:poly:3's degree products pass 2**53, so its exact degrees
    # are Python ints, which the closed form reads in blocks of 1024 radii
    model = make_antitree(lambda r: (r + 1) ** 3, 5000)
    assert model.exact_degrees(r_hi)[0].dtype == object
    assert hardy_weights._OBJECT_BLOCK == 1024
    gamma = Fraction(1, 7)
    got = _closed_form(model, gamma, r_lo, r_hi)
    for a, b in zip(got, whole_closed_form(model, gamma, r_lo, r_hi)):
        assert a.tobytes() == b.tobytes()


def test_weight_dominates_floor_where_applicable(tree2, antitree_linear):
    profile = closed_form_weight(tree2, 0, 500)
    floor = profile.floor_values[2:]
    assert not np.isnan(floor).any()  # constant kappa: applicable everywhere
    assert np.all(profile.values[2:] >= floor - 1e-15)
    # the linear antitree has strictly decreasing kappa, so the floor's
    # hypothesis fails at every radius
    assert np.isnan(closed_form_weight(antitree_linear, 0, 5).floor_values[5])


def test_antitree_weight_spot_value(antitree_linear):
    # w0(2) = 4(1 - sqrt(3)/2) + 2(1 - sqrt(3/2)) = 6 - 2 sqrt(3) - sqrt(6)
    target = 6 - 2 * math.sqrt(3) - math.sqrt(6)
    got = closed_form_weight(antitree_linear, 0, 4).values[2]
    assert got == pytest.approx(0.08640864207906773, abs=1e-15)
    assert got == pytest.approx(target, abs=2e-15)


def test_gamma_intervals_known_models(tree2, tree3, antitree_linear):
    gi2 = gamma_intervals(tree2)
    assert gi2.ground == (Fraction(1, 2), Fraction(1, 2))
    assert gi2.joint_contains(Fraction(1, 2))
    assert not gi2.joint_contains(Fraction(2, 3))

    gi3 = gamma_intervals(tree3)
    assert gi3.ground == (Fraction(1, 3), Fraction(2, 3))
    assert gi3.sqrt_ground[1] == pytest.approx((4 - math.sqrt(6)) ** 2 / 3, rel=1e-12)

    gia = gamma_intervals(antitree_linear)
    assert gia.ground == (Fraction(1, 2), Fraction(1, 1))

    gi1 = gamma_intervals(make_tree(1, 10))
    lo, hi = gi1.ground
    assert lo > hi  # empty: only gamma = 0 works on the half line


def test_joint_gamma_interval_is_the_exact_ground_interval():
    # near kappa(1) = 2 a float comparison of the two upper ends can pick
    # the float sqrt end (1.0000000000235865 for this model)
    kap1 = Fraction(10000000000117933, 5000000000000000)
    model = make_custom([1, kap1, kap1], [0, 1, 1, 1])
    gi = gamma_intervals(model)
    assert gi.joint == gi.ground == (Fraction(1), kap1 - 1)
    assert gi.joint_contains(kap1 - 1)
    assert not gi.joint_contains(kap1 - 1 + Fraction(1, 10 ** 40))


def test_ground_end_never_exceeds_the_sqrt_end():
    # k - 1 <= (1 + k - sqrt(2 k))**2 for k > 0, with equality only at k = 2
    rng = np.random.default_rng(7)
    kappas = [Fraction(float(k)) for k in rng.uniform(0.0, 50.0, 200)]
    kappas += [2 + Fraction(float(e)) for e in rng.uniform(-1e-9, 1e-9, 200)]
    with mpmath.workdps(50):
        for k in kappas:
            km = mpmath.mpf(k.numerator) / k.denominator
            gap = (1 + km - mpmath.sqrt(2 * km)) ** 2 - (km - 1)
            assert gap > 0 if k != 2 else gap == 0, k


def test_weight_profile_metadata(tree2):
    prof0 = closed_form_weight(tree2, 0, 8)
    assert prof0.r_min == 1
    assert prof0.values[0] == 0.0
    prof = closed_form_weight(tree2, Fraction(1, 2), 8)
    assert prof.r_min == 0
    assert prof.admissible
    bad = closed_form_weight(tree2, Fraction(9, 10), 8)
    assert not bad.admissible


def test_series_partial_sums_and_bound():
    # float-level sanity at small radii where roundoff is negligible
    for d in (1, 2, 4):
        for r in (2, 3, 5, 8):
            closed = tree_weight(d, 0, r)
            for n_max in (4, 8, 12):
                partial = series_expansion(d, r, n_max)
                bound = series_remainder_bound(d, r, n_max)
                assert partial <= closed + 1e-15
                assert closed - partial <= bound * (1 + 1e-12) + 1e-15


def test_series_bound_is_tight_not_lax():
    # the geometric correction matters: the bare first omitted term fails
    with mpmath.workdps(60):
        d, r, n_max = 1, 2, 8
        lam = 0
        total = mpmath.mpf(0)
        for n in range(2, n_max + 1, 2):
            c = 2 * mpmath.binomial(2 * n, n) / (4 ** n * (2 * n - 1))
            total += c / mpmath.mpf(r) ** n
        closed = 2 - mpmath.sqrt(mpmath.mpf(3) / 2) - mpmath.sqrt(mpmath.mpf(1) / 2)
        remainder = float(closed - total)
        n = n_max + 2
        first_omitted = float(2 * mpmath.binomial(2 * n, n) / (4 ** n * (2 * n - 1)) / r ** n)
    assert remainder > first_omitted  # literal one-term bound is false
    assert remainder <= series_remainder_bound(d, r, n_max)


def test_series_worked_example_digits():
    assert tree_weight(1, 0, 2) == pytest.approx(0.0681483, abs=5e-8)
    # exact value 0.06812596...; keep the comparison at 6 significant digits
    assert series_expansion(1, 2, 8) == pytest.approx(0.0681260, abs=2e-7)


def test_series_rejects_bad_arguments():
    from hardy_lab import SeriesDivergenceRiskError

    with pytest.raises(SeriesDivergenceRiskError):
        series_expansion(2, 1, 8)
    with pytest.raises(InvalidParameterError):
        series_expansion(2, 4, 3)


def test_superharmonic_ground_passes_on_tree(tree3):
    from hardy_lab import check_superharmonic_ground

    rep = check_superharmonic_ground(tree3, Fraction(1, 2), 400)
    assert rep.status == "pass"
    assert rep.residuals["min_defect_ratio"] >= 0
    assert rep.residuals["min_kappa_margin"] >= 0


def test_superharmonic_ground_flags_gamma_out_of_range(tree3):
    from hardy_lab import check_superharmonic_ground

    rep = check_superharmonic_ground(tree3, Fraction(9, 10), 50)
    assert rep.status == "hypothesis-not-met"
    assert any("gamma" in note for note in rep.notes)


def test_superharmonic_ground_flags_model_out_of_scope():
    # quadratic antitree: the kappa condition fails at r = 2 for every gamma
    from hardy_lab import check_superharmonic_ground

    model = make_antitree(lambda r: (r + 1) ** 2, 60)
    rep = check_superharmonic_ground(model, Fraction(1, 2), 40)
    assert rep.status == "hypothesis-not-met"
    assert any("r >= 2" in note for note in rep.notes)


def test_superharmonic_sqrt_ground_passes(tree2):
    from hardy_lab import check_superharmonic_sqrt_ground

    rep = check_superharmonic_sqrt_ground(tree2, 0, 300)
    assert rep.status == "pass"
