import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hardy_lab import (
    InvalidParameterError,
    NeedsTailError,
    Tail,
    check_bounded_oscillation,
    check_criticality_agreement,
    check_cutoff_decay,
    check_ground_state_identity,
    check_ground_state_transform,
    check_lambda0_bound,
    check_null_criticality,
    check_properness,
    closed_form_weight,
    criticality_energy,
    expand_vertex_graph,
    hardy_form_matrix,
    helper_sum,
    inflation_refutation,
    make_antitree,
    make_custom,
    make_tree,
    optimality_probe,
    radial_laplacian,
    smallest_eigenvalue,
    tree_ball_bottom_eigenvalue,
)
from hardy_lab import optimality, spectral_ops
from hardy_lab.cli import _parse_model_spec
from hardy_lab.hardy_weights import _ground_pairs, _kappa_longdouble
from bisection_passes import counted
from object_storage import object_storage


def test_cutoff_decay_reads_helper_sum_as_constants(monkeypatch):
    # the lemma sums nothing: its two values are literals, each equal to
    # helper_sum's value bit for bit
    def unread(*args):
        raise AssertionError("check_cutoff_decay summed terms")

    monkeypatch.setattr(optimality, "helper_sum", unread)
    monkeypatch.setattr(optimality, "_pairwise_sums", unread)
    report = check_cutoff_decay()
    monkeypatch.undo()
    for key, n in (("value_small", 10 ** 3), ("value_large", 10 ** 6)):
        assert report.residuals[key].hex() == helper_sum(n).hex()


@pytest.mark.parametrize("call", [
    lambda m: check_criticality_agreement(m, ()),
    lambda m: check_criticality_agreement(m, (100,)),
    lambda m: check_criticality_agreement(m, (100, 10)),
    lambda m: check_criticality_agreement(m, (10, 10)),
    lambda m: helper_sum(100.5),
], ids=["no-n-values", "one-n-value", "n-values-decreasing", "n-values-repeated",
        "non-integer-n"])
def test_criticality_inputs_are_refused(call):
    with pytest.raises(InvalidParameterError, match="n_values|n must"):
        call(make_tree(2, 200))


@pytest.mark.parametrize("call, name", [
    (lambda m: inflation_refutation(m, 0.1, b_values=[]), "b_values"),
    (lambda m: inflation_refutation(m, 0.1, r_lo=2.5), "r_lo"),
    (lambda m: inflation_refutation(m, 0.1, b_max=100.5), "b_max"),
    (lambda m: check_bounded_oscillation(m, 0), "r_max"),
    (lambda m: check_null_criticality(m, r_max=100.5), "r_max"),
    (lambda m: closed_form_weight(m, 0, 10.5), "r_max"),
], ids=["no-annuli", "non-integer-annulus-start", "non-integer-annulus-end", "no-ratios",
        "non-integer-mass-radius", "non-integer-weight-radius"])
def test_radius_arguments_are_refused_by_name(call, name):
    with pytest.raises(InvalidParameterError, match=name):
        call(make_tree(2, 200))


def test_helper_sum_value():
    assert helper_sum(3) == pytest.approx(0.8966112928192101, rel=1e-15)
    # slow logarithmic decay
    assert helper_sum(10 ** 6) < helper_sum(10 ** 3) < helper_sum(10)


def whole_array_helper_sum(n):
    """helper_sum with all n - 1 terms in one array and one np.sum."""
    r = np.arange(1, n, dtype=float)
    terms = np.sqrt(1.0 + 1.0 / r) * r * np.square(np.log1p(1.0 / r))
    return float(np.sum(terms)) / math.log(n) ** 2


@pytest.mark.parametrize("n", [3, 11, 1000, 2 ** 14 + 1, 2 ** 14 + 2, 10 ** 4,
                               123457, 999999, 10 ** 6])
def test_helper_sum_equals_one_np_sum(n):
    # the blocked sum splits [1, n) where numpy's pairwise sum does
    assert helper_sum(n) == whole_array_helper_sum(n)


def test_helper_sum_terms_equal_the_written_out_expression(monkeypatch):
    # the sums cannot see the order of the products in each term; the terms can
    def check(lo, hi, terms):
        r = np.arange(lo, hi, dtype=float)
        expected = np.sqrt(1.0 + 1.0 / r) * r * np.square(np.log1p(1.0 / r))
        assert terms[0].tobytes() == expected.tobytes()

    for n in (3, 2 ** 14 + 2, 10 ** 6):
        leaves = spy_on_leaves(monkeypatch, check)
        helper_sum(n)
        assert sum(leaves) == n - 1


def cutoff_profile(n):
    """Logarithmic cutoff in longdouble: 1 at the origin, 1 - log r / log n
    up to r = n."""
    phi = np.ones(n + 1, dtype=np.longdouble)
    phi[1:] -= np.log(np.arange(1, n + 1, dtype=np.longdouble)) / np.log(np.longdouble(n))
    return phi


def whole_array_criticality(model, n, gamma):
    """criticality_energy with every term array built whole and summed by np.sum."""
    ld = np.longdouble
    kap = _kappa_longdouble(*model.exact_degrees(n - 1))
    phi = cutoff_profile(n)
    idx = np.arange(1, n, dtype=ld)
    area1 = Fraction(model.area(1))
    area1 = ld(area1.numerator) / ld(area1.denominator)
    g = ld(gamma.numerator) / ld(gamma.denominator)
    sqrt_ga = np.sqrt(g * area1)
    energy = (np.sqrt(idx + 1) * phi[2:] - np.sqrt(kap[1:] * idx) * phi[1:n]) ** 2
    bracket = np.empty(n - 1, dtype=ld)
    bracket[0] = 1 + kap[1] - np.sqrt(2 * kap[1]) - sqrt_ga
    r = idx[1:]
    bracket[1:] = (1 + kap[2:] - np.sqrt(kap[2:] * (1 + 1 / r))
                   - np.sqrt(kap[1:-1] * (1 - 1 / r)))
    mass = idx * bracket * phi[1:n] ** 2
    direct = (1 - sqrt_ga) ** 2 + np.sum(energy) - np.sum(mass)
    if gamma > 0:
        direct -= g * area1 - sqrt_ga
    log_n = np.log(ld(n))
    closed = np.sum(np.sqrt(kap[1:] * idx * (idx + 1)) * np.log1p(1 / idx) ** 2)
    closed /= log_n * log_n
    rel = float(abs(direct - closed) / max(abs(closed), np.finfo(ld).tiny))
    return float(direct), float(closed), rel


@pytest.mark.parametrize("model, gamma", [
    (make_tree(2, 10 ** 5), Fraction(0)),
    (make_tree(3, 10 ** 5), Fraction(1, 3)),
    (make_antitree(lambda r: r + 1, 10 ** 5), Fraction(0)),
    (make_antitree(lambda r: (r + 1) ** 2, 10 ** 5), Fraction(1, 2)),
], ids=["tree2", "tree3-gamma", "antitree-poly1", "antitree-poly2-gamma"])
def test_blocked_criticality_equals_whole_arrays(model, gamma):
    for n in (3, 1000, 2 ** 14 + 2, 10 ** 5):
        res = criticality_energy(model, n, gamma=gamma)
        assert (res.direct, res.closed_form, res.rel_diff) == \
            whole_array_criticality(model, n, gamma)


_exact_degree = st.one_of(
    st.integers(1, 6),
    st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4),
)


@st.composite
def _custom_models(draw):
    # int and Fraction degrees, as in test_greens.py, deep enough for n = 3
    depth = draw(st.integers(3, 24))
    k_minus = [0] + draw(st.lists(st.one_of(st.integers(1, 3), _exact_degree),
                                  min_size=depth, max_size=depth))
    k_plus = draw(st.lists(_exact_degree, min_size=depth, max_size=depth))
    return make_custom(k_plus, k_minus)


@given(model=_custom_models(),
       gamma=st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=Fraction(1, 64), max_value=8,
                                    max_denominator=64)))
@example(model=make_custom([Fraction(5, 2), 2, Fraction(7, 3), 3],
                           [0, Fraction(3, 4), 1, Fraction(1, 2), 2]),
         gamma=Fraction(2, 3))
@example(model=make_custom([2] * 10, [0] + [1] * 10), gamma=Fraction(0))
def test_criticality_on_drawn_models_equals_whole_arrays(model, gamma):
    # the Fraction route of _kappa_longdouble, and int degrees in int64 and in
    # object arrays, inside the blocked sums; the reference shares the kappa
    # array, which is checked here against each exact kappa rounded once
    ld = np.longdouble
    twin = object_storage(model)
    exact = [model.kappa(r) for r in range(1, model.depth)]
    expected = np.array([ld(k.numerator) / ld(k.denominator) for k in exact])
    for m in (model, twin):
        assert np.array_equal(_kappa_longdouble(*m.exact_degrees(m.depth - 1))[1:], expected)
    for n in (3, model.depth):
        res = criticality_energy(model, n, gamma=gamma)
        assert (res.direct, res.closed_form, res.rel_diff) == \
            whole_array_criticality(model, n, gamma)
        assert criticality_energy(twin, n, gamma=gamma) == res


def spy_on_leaves(monkeypatch, check):
    """Run check(lo, hi, terms of the leaf) on every leaf of the next blocked sum."""
    real = optimality._pairwise_sums
    leaves = []

    def spy(terms, lo, hi):
        def checked(a, b):
            out = terms(a, b)
            check(a, b, out)
            leaves.append(b - a)
            return out

        monkeypatch.setattr(optimality, "_pairwise_sums", real)
        return real(checked, lo, hi)

    monkeypatch.setattr(optimality, "_pairwise_sums", spy)
    return leaves


def test_criticality_terms_equal_the_written_out_expressions(monkeypatch):
    # the longdouble sums, rounded to double, cannot see the order of the
    # operations in each term; the terms can
    ld = np.longdouble
    model, gamma = make_antitree(lambda r: (r + 1) ** 2, 10 ** 5), Fraction(1, 2)
    kap = _kappa_longdouble(*model.exact_degrees(10 ** 5 - 1))
    sqrt_ga = np.sqrt(ld(gamma.numerator) / ld(gamma.denominator) * ld(model.area(1)))

    for n in (2 ** 14 + 2, 10 ** 5):
        log_n = np.log(ld(n))

        def check(lo, hi, terms):
            idx = np.arange(lo, hi, dtype=ld)
            phi = 1 - np.log(np.arange(lo, hi + 1, dtype=ld)) / log_n
            k = kap[lo:hi]
            energy = (np.sqrt(idx + 1) * phi[1:] - np.sqrt(k * idx) * phi[:-1]) ** 2
            bracket = (1 + k - np.sqrt(k * (1 + 1 / idx))
                       - np.sqrt(kap[lo - 1:hi - 1] * (1 - 1 / idx)))
            if lo == 1:
                bracket[0] = 1 + kap[1] - np.sqrt(2 * kap[1]) - sqrt_ga
            mass = idx * bracket * phi[:-1] ** 2
            closed = np.sqrt(k * idx * (idx + 1)) * np.log1p(1 / idx) ** 2
            for got, expected in zip(terms, (energy, mass, closed)):
                assert np.array_equal(got, expected)

        leaves = spy_on_leaves(monkeypatch, check)
        criticality_energy(model, n, gamma=gamma)
        assert sum(leaves) == n - 1


def test_criticality_two_routes_agree(tree2):
    rep = check_criticality_agreement(tree2, n_values=(10, 100, 1000))
    assert rep.status == "pass"
    assert rep.residuals["max_rel_diff"] <= 1e-10
    assert rep.residuals["value_at_largest_n"] == pytest.approx(
        0.2041733048766243, rel=1e-9
    )


def test_criticality_routes_agree_without_longdouble(monkeypatch):
    # long double is float64 on some hosts (macOS arm64, Windows): every
    # roster verdict must then still pass, at least 100 times under rtol
    monkeypatch.setattr(np, "longdouble", np.float64)
    worst = 0.0
    for spec, gamma in [("tree:2:1200", 0), ("tree:3:1200", 0),
                        ("tree:3:1200", Fraction(1, 3)),
                        ("antitree:poly:1:1200", 0), ("antitree:poly:2:1200", 0)]:
        rep = check_criticality_agreement(_parse_model_spec(spec), (10, 100, 1000),
                                          gamma=gamma)
        assert rep.status == "pass", spec
        assert rep.residuals["max_rel_diff"] <= rep.params["rtol"] / 100, spec
        worst = max(worst, rep.residuals["max_rel_diff"])
    assert worst > 1e-15  # the float64 route ran: long double agrees to ~1e-16


def test_criticality_value_is_gamma_free(tree2):
    # the gamma terms cancel inside the direct route
    res0 = criticality_energy(tree2, 500, gamma=0)
    res_half = criticality_energy(tree2, 500, gamma=Fraction(1, 2))
    assert res_half.rel_diff <= 1e-10
    assert res_half.direct == pytest.approx(res0.direct, rel=1e-9)


def test_criticality_closed_route_scales_with_kappa(tree3):
    res = criticality_energy(tree3, 200)
    assert res.closed_form == pytest.approx(math.sqrt(3) * helper_sum(200), rel=1e-12)


def test_criticality_guards(tree2):
    with pytest.raises(InvalidParameterError):
        criticality_energy(tree2, 2)
    with pytest.raises(NeedsTailError):
        criticality_energy(tree2, tree2.depth + 1)


def test_cutoff_decay_window():
    rep = check_cutoff_decay()
    assert rep.status == "pass"
    ratio = rep.residuals["ratio"]
    assert 0.4 <= ratio <= 0.6


def test_null_criticality_quadratic_on_tree(tree2):
    rep = check_null_criticality(tree2, r_max=2048)
    assert rep.status == "pass"
    # partial sums grow like R**2, so doubling R quadruples the increment
    assert rep.residuals["increment_ratio"] == pytest.approx(4.0, abs=0.05)


def test_null_criticality_logarithmic_on_antitree(antitree_linear):
    rep = check_null_criticality(antitree_linear, r_max=1024)
    assert rep.status == "pass"
    assert rep.residuals["increment_ratio"] == pytest.approx(1.0, abs=0.05)


def test_null_criticality_fails_with_a_finite_ratio_on_sums_that_stop_growing():
    # kappa alternates 1, 8/9: the mass terms alternate in sign and the
    # partial sums fall from r_max/4 to r_max/2
    pattern = [(Fraction(8, 3), 3), (Fraction(8, 3), Fraction(8, 3))]
    rows = [pattern[r % 2] for r in range(111)]
    model = make_custom([kp for kp, _ in rows[:110]], [0] + [km for _, km in rows[1:]])
    rep = check_null_criticality(model, r_max=109)
    assert rep.status == "fail"
    assert rep.residuals["increment_ratio"] == 0.0
    assert rep.notes == ("the partial sums do not grow from r_max/4 to r_max/2",)


def test_null_criticality_memory_at_depth_1e5():
    # antitree:poly:2's exact degrees are Python ints, one object a radius:
    # the closed form holds them in blocks of 1024 radii (2.27 MiB in
    # blocks of 8192)
    model = _parse_model_spec("antitree:poly:2:100000")
    tracemalloc.start()
    try:
        check_null_criticality(model, r_max=10 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


def test_null_criticality_guard(tree2):
    with pytest.raises(InvalidParameterError):
        check_null_criticality(tree2, r_max=8)


def test_inflation_is_refuted_quickly(tree2):
    rep = inflation_refutation(tree2, lam=0.1, b_max=2048)
    assert rep.status == "pass"
    assert rep.params["first_refuted"] == 32


def test_tiny_inflation_stays_inconclusive(tree2):
    rep = inflation_refutation(tree2, lam=1e-12, b_max=1024)
    assert rep.status == "inconclusive"
    assert rep.residuals["refuted"] == 0
    assert any("inconclusive" in n for n in rep.notes)


def test_inflation_guards(tree2):
    with pytest.raises(InvalidParameterError):
        inflation_refutation(tree2, lam=0.0)
    with pytest.raises(NeedsTailError):
        inflation_refutation(tree2, lam=0.1, b_max=tree2.depth)
    # refused even though the annulus ending at 50 would refute first
    with pytest.raises(InvalidParameterError, match="must not exceed b_max"):
        inflation_refutation(tree2, lam=0.1, b_max=100, b_values=[50, 200])


def test_probe_reports_counts_never_passes(tree2):
    w = closed_form_weight(tree2, 0, 512).values
    rep = optimality_probe(tree2, w, lam=0.1, window=8, r_max=512)
    assert rep.status == "inconclusive"
    assert rep.residuals["refuted_fraction"] == 1.0
    tiny = optimality_probe(tree2, w, lam=1e-13, window=8, r_max=512)
    assert tiny.residuals["refuted_fraction"] == 0.0


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_inflation_size_must_be_finite_and_positive(tree2, lam):
    w = closed_form_weight(tree2, 0, 64).values
    with pytest.raises(InvalidParameterError, match="finite"):
        optimality_probe(tree2, w, lam=lam, window=8, r_max=64)
    with pytest.raises(InvalidParameterError, match="finite"):
        inflation_refutation(tree2, lam=lam, b_max=64)


def test_probe_window_must_fit(tree2):
    w = closed_form_weight(tree2, 0, 64).values
    with pytest.raises(InvalidParameterError):
        optimality_probe(tree2, w, lam=0.1, window=8, r_max=64, bases=[60])


def test_ground_state_transform_residual(tree2):
    rep = check_ground_state_transform(tree2, 0, radius=8)
    assert rep.status == "pass"
    assert rep.residuals["max_rel_residual"] <= 1e-11


def sampled_transform_residual(graph, v, w, interior):
    """The transform identity on 100 Gaussian phi supported on the interior.

    Both sides written as edge sums: energy(phi) - sum w phi**2 and
    sum v(x) v(y) (phi(x)/v(x) - phi(y)/v(y))**2; the worst relative gap
    over the draws, at seed 2026.
    """
    x, y = graph.edges[:, 0], graph.edges[:, 1]
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        phi = np.zeros(graph.n_vertices)
        phi[interior] = rng.standard_normal(int(np.count_nonzero(interior)))
        lhs = float(np.sum((phi[x] - phi[y]) ** 2)) - float(np.sum(w * phi * phi))
        g = np.divide(phi, v, out=np.zeros_like(phi), where=v > 0)
        rhs = float(np.sum(v[x] * v[y] * (g[x] - g[y]) ** 2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


@st.composite
def realizable_models(draw, depth):
    """tree:d, antitree:poly:p, or custom data with k_minus in {1, 2}.

    The custom data grows vol(r + 1) = m vol(r) with k_plus(r) = m k_minus(r + 1)
    and k_minus(r + 1) <= vol(r), so every degree is an int and the ball
    has a simple realization.
    """
    kind = draw(st.sampled_from(["tree", "antitree", "custom"]))
    if kind == "tree":
        return make_tree(draw(st.integers(2, 4)), depth)
    if kind == "antitree":
        p = draw(st.integers(1, 2))
        return make_antitree(lambda r: (r + 1) ** p, depth)
    kp, km, vol = [], [0], 1
    for _ in range(depth):
        m, k = draw(st.integers(1, 3)), draw(st.integers(1, min(2, vol)))
        kp.append(m * k)
        km.append(k)
        vol *= m
    return make_custom(kp, km)


@given(
    st.integers(3, 6).flatmap(lambda radius: st.tuples(
        st.just(radius), realizable_models(radius + 1))),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]),
    st.integers(0, 10 ** 6),
    st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)),
    st.sampled_from([-1.0, 1.0]),
)
@example((3, make_tree(2, 4)), Fraction(0), 0, 0.0, 1.0)
@example((8, make_antitree(lambda r: r + 1, 9)), Fraction(0), 7, 1e-6, -1.0)
def test_transform_coefficients_decide_as_the_sampled_identity(
        case, gamma, pick, rel, sign):
    # w + delta at one interior vertex: the identity fails there by delta,
    # taken relative to deg - w, so delta = 0 passes both routes and
    # delta >= 1e-6 fails both, far from the 1e-11 tol either way
    radius, model = case
    graph, v, w, interior = optimality._vertex_ground(model, gamma, radius)
    vertex = np.flatnonzero(interior)[pick % int(np.count_nonzero(interior))]
    deg = np.bincount(graph.edges.ravel(), minlength=graph.n_vertices)[vertex]
    mutated = w.copy()
    mutated[vertex] += sign * rel * max(1.0, abs(deg - w[vertex]))
    with mock.patch.object(optimality, "_vertex_ground",
                           return_value=(graph, v, mutated, interior)):
        rep = check_ground_state_transform(model, gamma, radius)
    sampled = sampled_transform_residual(graph, v, mutated, interior) <= 1e-11
    assert (rep.status == "pass") == sampled == (rel == 0)


def test_transform_memory_is_about_two_edge_arrays():
    # antitree:poly:3's ball of radius 8: 2025 vertices, 659,904 edges
    model = _parse_model_spec("antitree:poly:3:1200")
    edge_bytes = expand_vertex_graph(model, 8).edges.nbytes
    tracemalloc.start()
    try:
        check_ground_state_transform(model, 0, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * edge_bytes


def test_ground_state_identity_both_levels(tree2, antitree_linear):
    for model in (tree2, antitree_linear):
        rad = check_ground_state_identity(model, 0, 64, level="radial")
        assert rad.status == "pass"
        vert = check_ground_state_identity(model, 0, 6, level="vertex")
        assert vert.status == "pass"
    with pytest.raises(InvalidParameterError):
        check_ground_state_identity(tree2, 0, 6, level="edges")


def loop_radial_identity(model, gamma, radius):
    """The residual of check_ground_state_identity(level="radial") as its
    loop over radial_laplacian, one radius at a time."""
    p, q = _ground_pairs(model, Fraction(gamma), radius + 1)
    sqrt_u = np.array([math.sqrt(a / b) for a, b in zip(p, q)])
    w = closed_form_weight(model, gamma, radius).values
    worst = 0.0
    for r in range(0 if gamma > 0 else 1, radius):
        lhs = radial_laplacian(model, sqrt_u, r)
        worst = max(worst, abs(lhs - w[r] * sqrt_u[r]) / max(1.0, abs(lhs)))
    return worst


@given(model=_custom_models(),
       gamma=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2), Fraction(7, 5)]))
@example(model=make_tree(10 ** 11, 70), gamma=Fraction(1, 3))
@example(model=make_antitree(lambda r: (r + 1) ** 3, 70), gamma=Fraction(0))
def test_radial_identity_arrays_equal_the_radial_laplacian_loop(model, gamma):
    for radius in (2, model.depth - 1):
        rep = check_ground_state_identity(model, gamma, radius, level="radial")
        assert rep.residuals["max_rel_residual"] == loop_radial_identity(model, gamma, radius)


def test_ground_state_identity_with_positive_gamma(tree3):
    rep = check_ground_state_identity(tree3, Fraction(1, 2), 32, level="radial")
    assert rep.status == "pass"


def test_bounded_oscillation(tree2, antitree_linear):
    assert check_bounded_oscillation(tree2, 1000).status == "pass"
    rep = check_bounded_oscillation(antitree_linear, 1000)
    assert rep.status == "pass"
    assert any("window" in n for n in rep.notes)
    with pytest.raises(NeedsTailError):
        check_bounded_oscillation(tree2, tree2.depth)


def test_properness_verdicts(tree2, antitree_linear):
    tree_rep = check_properness(tree2)
    assert tree_rep.status == "pass"
    assert tree_rep.params["certified"]

    anti_rep = check_properness(antitree_linear)
    assert anti_rep.status == "pass"
    assert not anti_rep.params["certified"]
    assert any("not a proof" in n for n in anti_rep.notes)

    line_rep = check_properness(make_tree(1, 40))
    assert line_rep.status == "hypothesis-not-met"


@pytest.mark.parametrize("tie, status", [(7, "fail"), (6, "fail"), (5, "pass")])
def test_properness_window_is_decided_exactly_on_a_tie(tie, status):
    # binary-tree data except k_minus(tie) = tie, k_plus(tie) = tie + 1, so
    # u(tie + 1) = u(tie) exactly; the window holds the pairs from r = 6 on
    # and the float logs of the areas used to call the tie at 7 decreasing
    k_plus, k_minus = [2] * 10, [0] + [1] * 10
    k_minus[tie], k_plus[tie] = tie, tie + 1
    model = make_custom(k_plus, k_minus, tail=Tail("eventually-geometric", kappa_inf=2))
    u = {r: Fraction(r, model.area(r)) for r in range(1, 11)}
    assert u[tie + 1] == u[tie]
    assert all(u[r + 1] < u[r] for r in range(6, 10) if r != tie)
    rep = check_properness(model)
    assert rep.status == status
    # the drop is still rounded as the difference of float logs
    log_u = np.log(np.arange(1.0, 11.0)) - model.log_area_floats(10)[1:]
    assert rep.residuals["log_drop"] == log_u[0] - log_u[-1]


def test_lambda0_bound_on_trees(tree2):
    rep = check_lambda0_bound(tree2)
    assert rep.status == "pass"
    shift = (math.sqrt(2) - 1) ** 2
    assert rep.residuals["shift"] == pytest.approx(shift, rel=1e-15)
    assert 0 < rep.residuals["final_gap"] < 1e-2
    assert rep.residuals["vertex_ball_bottom"] >= shift - 1e-9


def test_lambda0_vertex_check_takes_integer_branching_only():
    # k_minus = 1 with a constant integer kappa d is a tree's data, whose
    # ball bottom is certified with the scalar branching d; a constant
    # fractional kappa has no tree and no vertex check
    for k_plus, vertex in [(3, True), (Fraction(5, 2), False)]:
        model = make_custom([k_plus] * 300, [0] + [1] * 300)
        rep = check_lambda0_bound(model)
        assert rep.status == "pass"
        assert ("vertex_ball_bottom" in rep.residuals) is vertex
        if vertex:
            assert rep.residuals["vertex_ball_bottom"] == \
                tree_ball_bottom_eigenvalue(3, np.zeros(max(rep.params["section_radii"]) + 1))


# Sturm plus tree pivot passes per check_lambda0_bound with the [0, R]
# section's final bracket guiding the ball: self-guided bottoms make no more
PASSES_BEFORE = {(1, 1200): 24, (2, 1200): 24, (3, 1200): 27, (5, 1200): 24,
                 (10 ** 11, 1200): 19, (2, 100_000): 24, (66_100, 200): 24,
                 (100_000, 200): 24}


@pytest.mark.parametrize("d, depth", list(PASSES_BEFORE))
def test_lambda0_ball_replay_gives_the_unguided_bottom(d, depth):
    # the ball's closed-form bottom guides its bisection: at most 10 pivot
    # passes instead of about 40, and the float of the unguided bisection
    radius = min(1024, depth - 1)
    ball = functools.partial(tree_ball_bottom_eigenvalue, d, np.zeros(radius + 1))
    unguided, _ = counted(ball, None)
    guided, passes = counted(ball)
    assert guided == unguided and passes["_tree_pivots_positive"] <= 10, passes
    rep, passes = counted(functools.partial(check_lambda0_bound, make_tree(d, depth)))
    assert rep.status == "pass" and rep.residuals["vertex_ball_bottom"] == unguided
    assert sum(passes.values()) <= PASSES_BEFORE[d, depth], passes


def test_lambda0_bisects_only_through_the_public_bottoms(monkeypatch):
    # every bisection of check_lambda0_bound runs inside a call of
    # optimality.smallest_eigenvalue or optimality.tree_ball_bottom_eigenvalue,
    # the names a tracer wrapping the public functions sees
    inside, bisections = [], []

    def entry(fn):
        def spy(*args, **kwargs):
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return spy

    def bisect(*args, _bisect=spectral_ops._bisect_bottom):
        bisections.append(tuple(inside))
        return _bisect(*args)

    for name in ("smallest_eigenvalue", "tree_ball_bottom_eigenvalue"):
        monkeypatch.setattr(optimality, name, entry(getattr(optimality, name)))
    monkeypatch.setattr(spectral_ops, "_bisect_bottom", bisect)
    assert check_lambda0_bound(make_tree(2, 1200)).status == "pass"
    # three sections and a ball, each with the bisection of its closed form
    # and the simulated path that its guided bisection certifies
    assert sorted(bisections) == ([("smallest_eigenvalue",)] * 9
                                  + [("tree_ball_bottom_eigenvalue",)] * 3)


def _lambda0_sections(model):
    """The [0, R] forms check_lambda0_bound bisects."""
    radii = sorted({min(R, model.depth - 1) for R in (64, 256, 1024)})
    return [hardy_form_matrix(model, np.zeros(R + 1), 0, R) for R in radii]


def _closed_form(form):
    """The closed-form bottom smallest_eigenvalue guides a [0, R] section by."""
    return spectral_ops._homogeneous_bottom(form.n, form.diagonal[0], form.diagonal[1],
                                            -form.offdiagonal[0])


@pytest.mark.parametrize("model", [
    make_tree(1, 1200), make_tree(2, 1200), make_tree(3, 1200), make_tree(5, 1200),
    make_tree(10 ** 11, 1200), make_custom([6] * 300, [0] + [2] * 300),
    make_tree(2, 3), make_tree(2, 65), make_tree(3, 257),
], ids=lambda m: f"{m.label}:{m.depth}")
def test_closed_form_guides_give_the_unguided_section_brackets(model):
    # the closed-form bottom of each homogeneous section guides its bisection:
    # at most 10 passes instead of about 37, and the unguided float, also
    # when the guess is wrong
    forms = _lambda0_sections(model)
    for form in forms:
        section = functools.partial(smallest_eigenvalue, form)
        unguided, plain = counted(section, None)
        guided, passes = counted(section)
        assert guided == unguided and passes["_negative_pivots"] <= 10, (form.n, passes)
        wrong, passes = counted(section, _closed_form(form) + 1.0)
        assert wrong == unguided and passes["_negative_pivots"] <= plain["_negative_pivots"] + 2
    rep = check_lambda0_bound(model)
    assert rep.status == "pass"
    assert rep.residuals["final_section_bottom"] == counted(
        functools.partial(smallest_eigenvalue, forms[-1]), None)[0]


@given(st.integers(1, 60) | st.fractions(1, 60, max_denominator=9),
       st.integers(1, 8) | st.fractions(1, 8, max_denominator=9), st.integers(3, 300))
def test_closed_form_guides_on_drawn_homogeneous_sections(k_plus, k_minus, depth):
    # guided and unguided bisections give the same float on every drawn
    # section; kappa >= 1 always has a guide, and it saves passes
    model = make_custom([k_plus] * depth, [0] + [k_minus] * depth)
    for form in _lambda0_sections(model):
        guide = _closed_form(form)
        assert (guide is not None) >= (k_plus >= k_minus)
        section = functools.partial(smallest_eigenvalue, form)
        bottom, passes = counted(section)
        assert bottom == counted(section, None)[0]
        assert guide is None or passes["_negative_pivots"] <= 10


def test_lambda0_bound_needs_homogeneous_model(antitree_linear):
    rep = check_lambda0_bound(antitree_linear)
    assert rep.status == "hypothesis-not-met"
    assert rep.params["first_inhomogeneous_radius"] >= 2
