import math

import mpmath
import numpy as np
import pytest

from hardy_lab import (
    BUILTIN_CURVES,
    CurveSpec,
    DimensionTooSmallError,
    InvalidParameterError,
    OriginSingularityError,
    check_closed_form_agreement,
    check_harmonic_condition,
    check_harmonicity,
    damek_ricci_space,
    density_weight,
    harmonic_manifold,
    hyperbolic_space,
    load_density,
    riemannian_model,
    weight_damek_ricci,
    weight_hyperbolic,
    weight_model,
)
from hardy_lab import continuum
from hardy_lab.cli import main

GRID = np.linspace(0.1, 10.0, 120)


def test_hyperbolic_three_space_is_exact():
    # the curvature term drops out in dimension 3
    for r in (0.5, 1.0, 2.0, 7.0):
        assert weight_hyperbolic(3, r) == 1.0 + 1.0 / (4.0 * r * r)
    assert weight_hyperbolic(3, 2.0) == 1.0625


def test_closed_form_spot_values():
    assert weight_hyperbolic(4, 1.0) == pytest.approx(3.043046245724733, rel=1e-15)
    assert weight_damek_ricci(2, 1, 1.0) == pytest.approx(1.9896581789662144, rel=1e-15)
    assert weight_damek_ricci(3, 1, 0.3) == pytest.approx(26.457695241097507, rel=1e-15)
    assert weight_damek_ricci(2, 2, 5.0) == pytest.approx(2.2736593457603838, rel=1e-15)


def test_damek_ricci_q2_has_no_far_singular_term():
    # q = 2 kills the 1/sinh(r)**2 term, leaving the q = 0 style profile
    r = GRID
    explicit = (9.0 / 4.0 + 1.0 / (4.0 * r ** 2)
                + 1.0 / (2.0 * np.sinh(r / 2.0) ** 2))
    assert np.max(np.abs(weight_damek_ricci(2, 2, r) - explicit)) < 1e-14


def test_damek_ricci_degenerate_case_is_scaled_hyperbolic():
    got = weight_damek_ricci(3, 0, GRID)
    want = weight_hyperbolic(4, GRID / 2.0) / 4.0
    assert np.max(np.abs(got - want)) == 0.0


def test_master_formula_matches_closed_forms():
    pairs = [
        (hyperbolic_space(3), lambda r: weight_hyperbolic(3, r)),
        (hyperbolic_space(4), lambda r: weight_hyperbolic(4, r)),
        (damek_ricci_space(2, 1), lambda r: weight_damek_ricci(2, 1, r)),
        (damek_ricci_space(3, 1), lambda r: weight_damek_ricci(3, 1, r)),
        (damek_ricci_space(2, 2), lambda r: weight_damek_ricci(2, 2, r)),
    ]
    for space, closed in pairs:
        worst = max(
            abs(density_weight(space, r) - closed(r)) / max(1.0, abs(closed(r)))
            for r in GRID
        )
        assert worst < 1e-10, space.label


def _master_weight_30_digits(density, r):
    """The master formula at 30 digits, derivatives by mpmath.diff."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        f, d1, d2 = (mpmath.diff(density, r, k) for k in range(3))
        return float(1 / (4 * r * r) + (2 * d2 / f - (d1 / f) ** 2) / 4)


@pytest.mark.parametrize("space, density", [
    (hyperbolic_space(3), lambda r: mpmath.sinh(r) ** 2),
    (hyperbolic_space(4), lambda r: mpmath.sinh(r) ** 3),
    (damek_ricci_space(2, 1), lambda r: mpmath.sinh(r / 2) ** 3 * mpmath.cosh(r / 2)),
    (damek_ricci_space(3, 1), lambda r: mpmath.sinh(r / 2) ** 4 * mpmath.cosh(r / 2)),
    (damek_ricci_space(2, 2), lambda r: mpmath.sinh(r / 2) ** 4 * mpmath.cosh(r / 2) ** 2),
    (riemannian_model(BUILTIN_CURVES["sinh"], 4), lambda r: mpmath.sinh(r) ** 3),
], ids=["hyperbolic3", "hyperbolic4", "dr21", "dr31", "dr22", "model-sinh4"])
def test_density_weight_matches_the_master_formula_at_30_digits(space, density):
    grid = np.linspace(0.1, 10.0, 200)
    want = np.array([_master_weight_30_digits(density, r) for r in grid])
    got = density_weight(space, grid)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_rotational_model_reproduces_hyperbolic():
    got = weight_model(BUILTIN_CURVES["sinh"], 4, GRID)
    want = weight_hyperbolic(4, GRID)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_rotational_model_euclidean_inverse_square():
    got = weight_model(BUILTIN_CURVES["linear"], 5, GRID)
    want = 9.0 / (4.0 * GRID ** 2)
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_closed_form_agreement_check_by_kind():
    assert check_closed_form_agreement(hyperbolic_space(5), 0.1, 10.0).status == "pass"
    assert check_closed_form_agreement(damek_ricci_space(2, 1), 0.1, 10.0).status == "pass"
    model = riemannian_model(BUILTIN_CURVES["sinh"], 4)
    rep = check_closed_form_agreement(model, 0.5, 5.0)
    assert rep.status == "pass"
    assert rep.residuals["max_rel_diff"] < 1e-12
    free = harmonic_manifold(BUILTIN_CURVES["sinh"], label="free-form")
    assert check_closed_form_agreement(free, 0.5, 5.0).status == "hypothesis-not-met"


def test_harmonic_manifold_from_raw_density_matches_closed_form():
    # only f is supplied; derivatives come from central differences, so the
    # agreement is limited by roundoff in the second difference (~1e-6)
    p, q = 2, 1

    def f(r):
        return math.sinh(r / 2.0) ** (p + q) * math.cosh(r / 2.0) ** q

    space = harmonic_manifold(f)
    assert space.kind == "harmonic"
    for r in (0.5, 1.0, 3.0):
        assert density_weight(space, r) == pytest.approx(
            weight_damek_ricci(p, q, r), abs=2e-5
        )


def test_curve_spec_numeric_derivative_quality():
    spec = CurveSpec(math.exp)
    fn, d1, d2 = spec.resolved()
    assert d1(1.0) == pytest.approx(math.e, rel=1e-9)
    assert d2(1.0) == pytest.approx(math.e, rel=1e-4)


def test_builtin_sinh_cubed_derivatives_are_analytic():
    spec = BUILTIN_CURVES["sinh-cubed"]
    numeric = CurveSpec(spec.value).resolved()
    for r in (0.4, 1.3, 2.2):
        assert spec.d1(r) == pytest.approx(numeric[1](r), rel=1e-8)
        assert spec.d2(r) == pytest.approx(numeric[2](r), rel=1e-4)


def test_harmonicity_residual_scales_quadratically():
    rep = check_harmonicity(hyperbolic_space(3), 0.5, 5.0, h_step=1e-3)
    coarse = rep.residuals["residual_coarse"]
    fine = rep.residuals["residual_fine"]
    assert rep.params["h_step"] == 1e-3
    assert coarse / fine == pytest.approx(4.0, abs=0.8)


def test_harmonicity_check_both_profiles():
    for space in (hyperbolic_space(3), hyperbolic_space(4), damek_ricci_space(2, 1)):
        for which in ("sqrt-u", "sqrt-u-log"):
            rep = check_harmonicity(space, 0.5, 5.0, which=which)
            assert rep.status == "pass", (space.label, which)
            assert 3.2 <= rep.residuals["convergence_factor"] <= 4.8


def test_harmonicity_detects_wrong_weight(monkeypatch):
    space = hyperbolic_space(3)
    assert check_harmonicity(space, 0.5, 5.0).status == "pass"
    master = continuum._master_weight
    monkeypatch.setattr(continuum, "_master_weight", lambda *a: master(*a) + 0.05)
    rep = check_harmonicity(space, 0.5, 5.0)
    assert rep.status == "fail"
    assert rep.residuals["residual_coarse"] > 1e-3


def test_an_exact_profile_passes_at_the_roundoff_floor(tmp_path, capsys):
    # f = r: psi = sqrt(r / f) = 1 and W = 0 solve the equation exactly, so
    # both residuals are pure roundoff and do not shrink with the step
    space = harmonic_manifold(BUILTIN_CURVES["linear"])
    rep = check_harmonicity(space, 0.5, 5.0, which="sqrt-u")
    assert rep.status == "pass"
    assert max(rep.residuals["residual_coarse"], rep.residuals["residual_fine"]) < 1e-12
    assert "roundoff floor" in rep.notes[0]
    path = tmp_path / "linear.density"
    path.write_text("radial-density v1\nkind harmonic\ncurve linear\n")
    main(["continuum", "--space", f"file:{path}"])
    assert capsys.readouterr().out.splitlines()[0].startswith("PASS               harmonicity-sqrt-u ")


def test_the_roundoff_floor_decides_nothing_on_truncation_residuals():
    # truncation residuals sit 40 times and more above the floor; a wrong
    # weight still fails
    for space in (hyperbolic_space(3), hyperbolic_space(4), damek_ricci_space(2, 1),
                  damek_ricci_space(3, 1), damek_ricci_space(2, 2)):
        for which in ("sqrt-u", "sqrt-u-log"):
            rep = check_harmonicity(space, 0.5, 8.0, which=which, n_points=2000)
            assert rep.status == "pass" and rep.notes == ()
    rep = check_harmonicity(hyperbolic_space(3), 0.5, 5.0, h_step=0.05)
    assert rep.status == "fail" and rep.notes == ()


@pytest.mark.parametrize("space, step", [("dr:2:2", "1e-6"), ("dr:2:2", "1e-8"),
                                         ("hyperbolic:3", "1e-20")])
def test_residuals_under_the_roundoff_floor_but_over_tol_are_inconclusive(capsys, space,
                                                                          step):
    # the floor grows like 1 / step**2 and passes tol; at 1e-20 r +- step
    # rounds to r, the stencil collapses and both residuals are exactly 1
    main(["continuum", "--space", space, "--step", step])
    lines = capsys.readouterr().out.splitlines()[:2]
    assert [ln.split()[:2] for ln in lines] == [["INCONCLUSIVE", "harmonicity-sqrt-u"],
                                                ["INCONCLUSIVE", "harmonicity-sqrt-u-log"]]
    rep = check_harmonicity(damek_ricci_space(2, 2) if space == "dr:2:2"
                            else hyperbolic_space(3), 0.5, 8.0, h_step=float(step))
    assert rep.status == "inconclusive"
    assert "roundoff floor" in rep.notes[0] and "above tol 0.0001" in rep.notes[0]


def test_residuals_under_the_roundoff_floor_and_tol_pass(capsys):
    # residuals of about 2e-6 and 8e-6 at step 1e-5: under the floor and tol
    main(["continuum", "--space", "dr:2:2", "--step", "1e-5"])
    lines = capsys.readouterr().out.splitlines()[:2]
    assert [ln.split()[0] for ln in lines] == ["PASS", "PASS"]


def test_stencil_must_not_cross_origin():
    with pytest.raises(OriginSingularityError):
        check_harmonicity(hyperbolic_space(3), 5e-4, 5.0)
    with pytest.raises(OriginSingularityError):
        density_weight(hyperbolic_space(3), 0.0)


def test_dimension_guards():
    with pytest.raises(DimensionTooSmallError):
        hyperbolic_space(2)
    with pytest.raises(DimensionTooSmallError):
        weight_hyperbolic(2, 1.0)
    with pytest.raises(DimensionTooSmallError):
        damek_ricci_space(2, 0)
    with pytest.raises(InvalidParameterError):
        damek_ricci_space(0, 3)
    with pytest.raises(DimensionTooSmallError):
        weight_model(BUILTIN_CURVES["sinh"], 1, 1.0)


def test_harmonic_condition_on_hyperbolic():
    rep = check_harmonic_condition(hyperbolic_space(3), 0.5, 5.0)
    assert rep.status == "pass"


def test_load_density_round_trips(tmp_path):
    specs = {
        "hyp.txt": "radial-density v1\nkind hyperbolic\ndim 4\n",
        "dr.txt": "radial-density v1\nkind damek-ricci\np 2\nq 1\n",
        "model.txt": "radial-density v1\nkind model\ndim 4\ncurve sinh\n",
        "harm.txt": "radial-density v1\n# comment line\nkind harmonic\ncurve cosh\n",
    }
    for name, text in specs.items():
        path = tmp_path / name
        path.write_text(text)
        space = load_density(path)
        assert density_weight(space, 1.0) > 0
    hyp = load_density(tmp_path / "hyp.txt")
    assert hyp.kind == "hyperbolic" and hyp.dim == 4
    assert density_weight(hyp, 2.0) == pytest.approx(weight_hyperbolic(4, 2.0), rel=1e-12)


def test_load_density_rejects_bad_files(tmp_path):
    cases = {
        "noheader.txt": "kind hyperbolic\ndim 4\n",
        "badcurve.txt": "radial-density v1\nkind model\ndim 4\ncurve eval\n",
        "badkind.txt": "radial-density v1\nkind euclidean\ndim 4\n",
        "badline.txt": "radial-density v1\nkind\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InvalidParameterError):
            load_density(path)
