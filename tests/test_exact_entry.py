"""Radial data and gamma are exact from the moment they enter the package."""

import contextlib
import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hardy_lab import (
    InvalidParameterError,
    Tail,
    check_superharmonic_ground,
    closed_form_weight,
    load_model,
    make_antitree,
    make_custom,
    make_tree,
    save_model,
    u_gamma,
)
from hardy_lab import cli
from hardy_lab.greens import _area_window, _quadratic_tail_bound


def _is_exact(x):
    return type(x) in (int, Fraction)


def test_float_degrees_give_exact_volumes_and_kappa():
    m = make_custom([2.5, 0.1, 3.0], [0, 1.25, 0.5, 2.0])
    for r in range(4):
        assert _is_exact(m.vol(r)) and _is_exact(m.k_minus(r))
    for r in range(1, 3):
        assert type(m.kappa(r)) is Fraction
    # a float is taken at its binary value, not at the decimal it prints as
    assert m.k_plus(1) == Fraction(0.1) != Fraction(1, 10)
    assert m.vol(1) == 2
    assert m.vol(2) == Fraction(0.1) * 2 / Fraction(1, 2)
    assert m.kappa(1) == Fraction(0.1) / Fraction(5, 4)
    assert type(m.k_plus(0)) is Fraction and type(m.k_plus(2)) is int


def test_float_volumes_are_checked_exactly():
    kp, km = [3.0] * 4, [0, 1.0, 1.0, 1.0, 1.0]
    assert make_custom(kp, km, vol=[3.0 ** r for r in range(5)]).vol(4) == 81
    # a one-ulp error is an area mismatch, not a tolerance question
    vol = [1.0, 3.0, 9.0, math.nextafter(27.0, 0.0), 81.0]
    with pytest.raises(Exception, match="area mismatch at radius 3"):
        make_custom(kp, km, vol=vol)


def test_numpy_floats_and_integers_enter_exactly():
    m = make_custom(np.array([2.0, 2.0, 2.0], dtype=np.float32),
                    np.array([0, 1, 1, 1], dtype=np.int64))
    assert [type(m.vol(r)) for r in range(4)] == [int] * 4
    assert m.vol(3) == 8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", None, [2]])
def test_non_numbers_are_refused(bad):
    with pytest.raises(InvalidParameterError, match=r"k_plus\(1\)"):
        make_custom([2, bad, 2], [0, 1, 1, 1])
    with pytest.raises(InvalidParameterError, match=r"vol\(2\)"):
        make_custom([2, 2, 2], [0, 1, 1, 1], vol=[1, 2, bad, 8])
    with pytest.raises(InvalidParameterError, match="gamma"):
        closed_form_weight(make_tree(2, 10), bad, 5)
    with pytest.raises(InvalidParameterError):
        Tail("eventually-geometric", kappa_inf=bad)


def test_float_gamma_comes_back_as_a_fraction():
    tree = make_tree(2, 40)
    profile = closed_form_weight(tree, 0.5, 10)
    assert type(profile.gamma) is Fraction and profile.gamma == Fraction(1, 2)
    assert u_gamma(tree, 0.1, 3)[0] == Fraction(0.1)
    report = check_superharmonic_ground(tree, 0.25, 20)
    assert report.params["gamma"] == Fraction(1, 4)
    assert "exact" not in report.params and "tol" not in report.params


def test_float_gamma_at_the_interval_end_is_compared_exactly():
    # the joint interval of tree:3 is [1/3, 2/3]; the float nearest 1/3
    # lies below it and is no longer let in by a relative slack
    tree = make_tree(3, 40)
    assert closed_form_weight(tree, Fraction(1, 3), 5).admissible
    assert Fraction(1 / 3) < Fraction(1, 3)
    assert not closed_form_weight(tree, 1 / 3, 5).admissible


def _verify_json(spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--model", spec, "--json"])
    return code, out.getvalue()


def test_float_built_tree_round_trips_and_verifies_like_its_source(tmp_path, monkeypatch):
    depth = 300
    source = make_custom([2.0] * depth, [0] + [1.0] * depth,
                         vol=[2.0 ** r for r in range(depth + 1)])
    path = tmp_path / "float-tree.model"
    save_model(source, path)
    assert "55 2 1 36028797018963968" in path.read_text().splitlines()
    loaded = load_model(path)
    assert [loaded.vol(r) for r in range(depth + 1)] == [2 ** r for r in range(depth + 1)]

    parse = cli._parse_model_spec
    monkeypatch.setattr(cli, "_parse_model_spec",
                        lambda text: source if text == "source" else parse(text))
    code, from_source = _verify_json("source")
    assert code == 0
    assert _verify_json(f"file:{path}") == (code, from_source)


def test_fractional_float_model_round_trips(tmp_path):
    source = make_custom([2.5, 0.1, 3.0, 1.5], [0, 1.25, 0.5, 2.0, 0.75])
    path = tmp_path / "fractional.model"
    save_model(source, path)
    loaded = load_model(path)
    assert loaded.radial_data() == source.radial_data()


def _tail_bound_reference(model):
    # the textbook form log((b + root) / (b - root)) / root at 80 digits
    # beyond the digits that b - root cancels (at most those of the area)
    last, d1, d2 = _area_window(model)
    a = Fraction(d2.min()) / 2
    b = d1[-1] + a
    disc = b * b - 4 * a * last
    assert disc > 0
    with mpmath.workdps(80 + int(math.log10(last))):
        mp = lambda x: mpmath.mpf(x.numerator) / x.denominator  # noqa: E731
        root = mpmath.sqrt(mp(disc))
        return mpmath.log((mp(b) + root) / (mp(b) - root)) / root


@pytest.mark.parametrize("model", [
    make_antitree(lambda r: r + 1, 1200),
    make_antitree(lambda r: (r + 1) ** 2, 1200),
    make_custom([2] * 120, [0] + [1] * 120),
    make_custom([3] * 400, [0] + [1] * 400),
])
def test_tail_bound_matches_an_80_digit_evaluation(model):
    bound = _quadratic_tail_bound(model)
    assert bound == pytest.approx(float(_tail_bound_reference(model)), rel=4e-16, abs=0)


def test_tail_bound_survives_areas_past_the_double_range():
    for depth in (1200, 4000):
        bound = _quadratic_tail_bound(make_custom([2] * depth, [0] + [1] * depth))
        assert bound == 0.0  # about 2**-depth, below the smallest double

