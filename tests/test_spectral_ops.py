import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_lab import (
    InvalidParameterError,
    SizeLimitExceededError,
    ball_form_matrix,
    closed_form_weight,
    count_eigenvalues_below,
    eigenvalue_bounds,
    expand_vertex_graph,
    hardy_form_matrix,
    make_antitree,
    make_custom,
    make_tree,
    optimality_probe,
    radial_laplacian,
    smallest_eigenvalue,
    tree_ball_bottom_eigenvalue,
    tree_ball_is_positive,
    tree_ball_pivots,
    tree_bottom_of_spectrum,
    vertex_laplacian,
)
from hardy_lab import spectral_ops
from hardy_lab.spectral_ops import TridiagonalForm
from bisection_passes import counted

finite_floats = st.floats(min_value=-5, max_value=5, allow_nan=False)


def varying_trees(depth):
    """Trees whose branching k_plus(r) in 1..3 varies with the level."""
    return st.lists(st.integers(1, 3), min_size=depth, max_size=depth).map(
        lambda kp: make_custom(kp, [0] + [1] * depth, label="varying tree"))


def random_antitrees(depth):
    """Antitrees with random sphere sizes 1..4 beyond the origin."""
    return st.lists(st.integers(1, 4), min_size=depth, max_size=depth).map(
        lambda sizes: make_antitree([1] + sizes, depth))


def biregular_model(depth):
    # k_minus = 2 from radius 2 on: vol(r) = 3 * 2**(r - 1)
    return make_custom([3] + [4] * (depth - 1), [0, 1] + [2] * (depth - 1))


def assert_realizes(model, graph):
    """The graph is simple, joins consecutive spheres only and has degrees k±."""
    inner, outer = graph.edges[:, 0], graph.edges[:, 1]
    assert np.all(graph.radius_of[outer] == graph.radius_of[inner] + 1)
    assert len(set(map(tuple, graph.edges.tolist()))) == graph.n_edges
    out_deg = np.bincount(inner, minlength=graph.n_vertices)
    in_deg = np.bincount(outer, minlength=graph.n_vertices)
    for r, sphere in enumerate(graph.sphere_slices):
        assert np.all(in_deg[sphere] == model.k_minus(r))
        expected = model.k_plus(r) if r < graph.radius else 0
        assert np.all(out_deg[sphere] == expected)


def assert_laplacians_match(model, radius, vals):
    graph = expand_vertex_graph(model, radius)
    assert_realizes(model, graph)
    radial = np.asarray(vals)
    lifted = radial[graph.radius_of]
    lap = vertex_laplacian(graph, lifted)
    for r in range(radius):
        sphere = graph.sphere_slices[r]
        assert lap[sphere] == pytest.approx(
            np.full(sphere.stop - sphere.start, radial_laplacian(model, radial, r)),
            abs=1e-12)


@given(st.lists(finite_floats, min_size=8, max_size=8), varying_trees(10))
def test_radial_laplacian_matches_vertex_laplacian_on_tree(vals, varying):
    assert_laplacians_match(make_tree(2, 10), 7, vals)
    assert_laplacians_match(varying, 7, vals)
    assert_laplacians_match(biregular_model(10), 7, vals)


@given(st.lists(finite_floats, min_size=6, max_size=6), random_antitrees(8))
def test_radial_laplacian_matches_vertex_laplacian_on_antitree(vals, random_sizes):
    assert_laplacians_match(make_antitree(lambda r: r + 1, 8), 5, vals)
    assert_laplacians_match(random_sizes, 5, vals)


def test_radial_laplacian_keeps_exact_numbers():
    model = make_antitree(lambda r: r + 1, 6)
    profile = [Fraction(1, r + 2) for r in range(6)]
    # k_plus(2) (1/4 - 1/5) + k_minus(2) (1/4 - 1/3) = 4/20 - 2/12
    assert radial_laplacian(model, profile, 2) == Fraction(1, 30)


@given(st.lists(finite_floats, min_size=9, max_size=9))
def test_vertex_laplacian_form_is_the_edge_sum(vals):
    graph = expand_vertex_graph(make_tree(2, 6), 3)
    phi = np.resize(np.asarray(vals), graph.n_vertices)
    lhs = float(np.sum((phi[graph.edges[:, 0]] - phi[graph.edges[:, 1]]) ** 2))
    rhs = float(np.sum(phi * vertex_laplacian(graph, phi)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _dense_matrix(form):
    """The tridiagonal form as a dense ndarray."""
    return (np.diag(form.diagonal) + np.diag(form.offdiagonal, 1)
            + np.diag(form.offdiagonal, -1))


def _random_symmetric_tridiagonal(rng, n):
    diag = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return diag, off, dense


def test_sturm_count_matches_dense():
    rng = np.random.default_rng(7)
    model = make_tree(2, 40)
    w = np.full(31, 0.05)
    form = hardy_form_matrix(model, w, 1, 30)
    dense = _dense_matrix(form)
    evs = np.linalg.eigvalsh(dense)
    for x in (-1.0, 0.0, float(evs[3] + 1e-9), 5.0, float(rng.normal())):
        assert count_eigenvalues_below(form, x) == int(np.sum(evs < x))


def test_smallest_eigenvalue_matches_dense():
    model = make_antitree(lambda r: r + 1, 60)
    w = np.full(41, 0.01)
    form = hardy_form_matrix(model, w, 2, 40)
    dense = _dense_matrix(form)
    target = float(np.linalg.eigvalsh(dense)[0])
    assert smallest_eigenvalue(form) == pytest.approx(target, abs=1e-10)


def test_eigenvalue_bounds_bracket_spectrum():
    model = make_tree(3, 30)
    w = np.zeros(21)
    form = hardy_form_matrix(model, w, 0, 20)
    lo, hi = eigenvalue_bounds(form)
    evs = np.linalg.eigvalsh(_dense_matrix(form))
    assert lo <= evs[0] and evs[-1] <= hi


def test_ball_form_matrix_small_tree_by_hand():
    # B(1) of the binary tree with Dirichlet coupling to sphere 2:
    # energy (a-b)**2 + (a-c)**2 + 2 b**2 + 2 c**2 minus the weights
    graph = expand_vertex_graph(make_tree(2, 5), 2)
    w = np.array([0.25, 0.5, 0.0])
    H = ball_form_matrix(graph, w, 1)
    expected = np.array(
        [
            [2.0 - 0.25, -1.0, -1.0],
            [-1.0, 3.0 - 0.5, 0.0],
            [-1.0, 0.0, 3.0 - 0.5],
        ]
    )
    assert np.allclose(H, expected)


@given(st.floats(min_value=-0.4, max_value=0.6, allow_nan=False))
def test_tree_ball_pivot_certificate_matches_dense(shift):
    radius = 6
    lam = tree_bottom_of_spectrum(2)
    w = np.full(radius + 2, lam + shift)
    branching = [2, 1, 3, 2, 1, 2, 3, 1, 2, 2]
    cases = [(2, make_tree(2, radius + 3)),
             (branching[: radius + 1], make_custom(branching, [0] + [1] * 10))]
    for k_plus, model in cases:
        graph = expand_vertex_graph(model, radius + 1)
        H = ball_form_matrix(graph, w[: radius + 2], radius)
        dense_bottom = float(np.linalg.eigvalsh(H)[0])
        claim = tree_ball_is_positive(k_plus, w[: radius + 1])
        if abs(dense_bottom) > 1e-9:
            assert claim == (dense_bottom > 0)


def test_tree_ball_bottom_matches_dense_on_varying_trees():
    rng = np.random.default_rng(11)
    for _ in range(40):
        radius = int(rng.integers(2, 6))
        branching = [int(k) for k in rng.integers(1, 4, size=radius + 1)]
        model = make_custom(branching, [0] + [1] * (radius + 1))
        w = rng.uniform(-0.5, 0.5, size=radius + 2)
        graph = expand_vertex_graph(model, radius + 1)
        dense_bottom = float(np.linalg.eigvalsh(
            ball_form_matrix(graph, w, radius))[0])
        certified = tree_ball_bottom_eigenvalue(branching, w[: radius + 1])
        assert certified == pytest.approx(dense_bottom, abs=1e-10)


def reference_tree_ball_bottom(k_plus, w, tol=1e-11):
    """The bisection on whole tree_ball_pivots arrays of the shifted weights."""
    kp = np.broadcast_to(np.asarray(k_plus, dtype=float), w.shape)
    hi = float((kp.max() + 1) - w.min() + (kp.max() + 1))
    lo = float(kp.min() - w.max() - (kp.max() + 1))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        delta = tree_ball_pivots(kp, w + mid)
        if np.all(np.isfinite(delta)) and np.all(delta > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


tree_ball_weights = st.one_of(
    st.lists(st.floats(-1, 1), min_size=2, max_size=40),
    st.lists(st.integers(-2, 3).map(float), min_size=2, max_size=40),
    st.integers(2, 300).map(lambda n: list(np.linspace(0.3, 0.17, n))),
)


@given(st.one_of(st.integers(1, 3), st.lists(st.integers(1, 4), min_size=300,
                                             max_size=300)),
       tree_ball_weights, st.floats(-1, 1))
def test_tree_ball_loop_equals_the_pivot_arrays(k_plus, weights, shift):
    w = np.array(weights)
    if not np.isscalar(k_plus):
        k_plus = k_plus[: w.shape[0]]
    pivots = tree_ball_pivots(k_plus, w + shift)
    assert tree_ball_is_positive(k_plus, w + shift) == bool(
        np.all(np.isfinite(pivots)) and np.all(pivots > 0.0))
    # at the default tolerance and at a few ulps of the Gershgorin bracket
    # (|ends| < 16), where the last decisions turn on the pivots' rounding
    for tol in (1e-11, 4 * np.spacing(16.0)):
        assert tree_ball_bottom_eigenvalue(k_plus, w, tol=tol) == \
            reference_tree_ball_bottom(k_plus, w, tol=tol)


@pytest.mark.parametrize("d", [66_100, 100_000, 10 ** 6])
def test_tree_ball_bisection_stops_where_an_ulp_passes_tol(d, monkeypatch):
    # the bottom (sqrt(d) - 1)**2 passes 2**16 at d > 66049, where one ulp
    # exceeds tol = 1e-11: the midpoint stops moving before the bracket is
    # tol wide, and the bisection must stop there instead of spinning
    calls = []

    def counted(*args, _positive=spectral_ops._tree_pivots_positive):
        calls.append(args[2])
        assert len(calls) <= 200, "the bisection does not stop"
        return _positive(*args)

    monkeypatch.setattr(spectral_ops, "_tree_pivots_positive", counted)
    bottom = tree_ball_bottom_eigenvalue(d, np.zeros(201))
    ulp = np.spacing(bottom)
    assert ulp > 1e-11 and len(calls) < 100
    assert bottom == pytest.approx((math.sqrt(d) - 1) ** 2, rel=1e-5)
    monkeypatch.undo()
    # the decision turns within one ulp of the result
    assert tree_ball_is_positive(d, np.full(201, bottom - ulp))
    assert not tree_ball_is_positive(d, np.full(201, bottom + ulp))


def _guesses(threshold, gap):
    """Guesses of every kind around ``threshold``, the last True shift:
    right, near on either side, wrong on either side, outside any bracket
    and non-finite."""
    return [threshold, threshold - gap, threshold + gap,
            threshold - 100 * gap - 1.0, threshold + 100 * gap + 1.0,
            -1e300, 1e300, math.nan, math.inf, -math.inf]


@given(st.floats(-8.0, 8.0), st.floats(1e-3, 8.0), st.floats(1e-3, 8.0),
       st.floats(1e-16, 1e-2), st.sampled_from([1e-11, 1e-6, 0.0]))
def test_a_guided_bisection_returns_the_unguided_bottom(threshold, below, above, gap, tol):
    lo, hi = threshold - below, threshold + above
    calls = []

    def positive_at(x):
        calls.append(x)
        return x <= threshold

    plain = spectral_ops._bisect_bottom(lo, hi, tol, positive_at)
    unguided = len(calls)
    for i, guess in enumerate(_guesses(threshold, gap)):
        calls.clear()
        result = spectral_ops._bisect_bottom(lo, hi, tol, positive_at, lambda: guess)
        assert result == plain, guess
        # two passes check the guessed path and a wrong guess costs at most
        # those two; a right one adds only its midpoints within 2 ulps of
        # the guess, which the path nears by ulps at tol 0
        assert len(calls) <= (7 if i == 0 else unguided + 2), guess
    path = []
    spectral_ops._bisect_bottom(lo, hi, tol, lambda x: path.append(x) or x <= threshold)
    near = sum(abs(x - threshold) < 2 * math.ulp(threshold) for x in path)
    calls.clear()
    spectral_ops._bisect_bottom(lo, hi, tol, positive_at, lambda: threshold)
    assert len(calls) == 2 + near


@given(st.integers(1, 60) | st.floats(0.5, 60.0), st.floats(-1.0, 1.0),
       st.integers(2, 300), st.floats(1e-16, 1e-2))
def test_injected_guesses_give_the_unguided_bottoms(d, c, n, gap):
    # the homogeneous tree ball of k_plus = d and weight c, and the radial
    # form it is: d - c, then d + 1 - c on every later row, coupled by
    # sqrt(d); each bottom gives its unguided float under every guess
    form = TridiagonalForm(np.r_[d - c, np.full(n - 1, d + 1.0 - c)],
                           np.full(n - 1, -math.sqrt(d)), 0)
    closed = spectral_ops._homogeneous_bottom(n, d - c, d + 1.0 - c, math.sqrt(d))
    assert (closed is not None) >= (d >= 1)
    for bottom in (lambda: smallest_eigenvalue(form),
                   lambda: tree_ball_bottom_eigenvalue(d, np.full(n, c))):
        unguided, plain = counted(bottom, None)
        guided, passes = counted(bottom)
        assert guided == unguided
        assert closed is None or sum(passes.values()) <= 10, passes
        for guess in _guesses(unguided, gap):
            result, passes = counted(bottom, guess)
            assert result == unguided, guess
            assert sum(passes.values()) <= sum(plain.values()) + 2, guess


@pytest.mark.parametrize("bottom, match", [
    (lambda: smallest_eigenvalue(TridiagonalForm(np.zeros(0), np.zeros(0), 0)), "empty"),
    (lambda: tree_ball_bottom_eigenvalue([1, 2], np.zeros(5)), "k_plus"),
    # a NaN tol used to stop the bisection before its first pass
    (lambda: tree_ball_bottom_eigenvalue(2, np.zeros(5), tol=math.nan), "tol"),
    (lambda: tree_ball_bottom_eigenvalue(2, np.zeros(5), tol=-1e-11), "tol"),
], ids=["empty-form", "k_plus-levels", "nan-tol", "negative-tol"])
def test_bottoms_refuse_what_they_cannot_bisect(bottom, match):
    with pytest.raises(InvalidParameterError, match=match):
        bottom()


def _form(diagonal, offdiagonal):
    return TridiagonalForm(np.array(diagonal, dtype=float), np.array(offdiagonal, dtype=float), 0)


@pytest.mark.parametrize("form, match", [
    (_form([1.0, math.nan, 2.0], [-1.0, -1.0]), "not a finite number"),
    (_form([1.0, 1.0, 2.0], [-1.0, math.nan]), "not a finite number"),
    (_form([1.0, math.inf, 2.0], [-1.0, -1.0]), "not a finite number"),
    (_form([1.0, 1.0, 2.0], [-1.0]), "needs 2 offdiagonal entries"),
    (_form([1.0, 1.0, 2.0], [-1.0, -1.0, -1.0]), "needs 2 offdiagonal entries"),
], ids=["nan-diagonal", "nan-offdiagonal", "inf-diagonal", "short-offdiagonal",
        "long-offdiagonal"])
def test_spectral_reads_refuse_non_finite_or_misshapen_forms(form, match):
    # these used to return nan or inf, or raise numpy's broadcast ValueError
    for read in (smallest_eigenvalue, eigenvalue_bounds,
                 lambda f: count_eigenvalues_below(f, 0.5)):
        with pytest.raises(InvalidParameterError, match=match):
            read(form)


def test_counts_below_nan_are_refused():
    # every pivot comparison with NaN is False, so the count used to be 0
    form = _form([1.0, 2.0, 3.0], [-1.0, -1.0])
    with pytest.raises(InvalidParameterError, match="NaN"):
        count_eigenvalues_below(form, math.nan)
    assert count_eigenvalues_below(form, math.inf) == 3
    assert count_eigenvalues_below(form, -math.inf) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_weight_is_named_not_sized(value):
    # it used to be reported as an entry past the float64 range
    model = make_tree(2, 20)
    w = closed_form_weight(model, 0, 15).values.copy()
    w[7] = value
    match = f"weight at radius 7 is {value}, not a finite number"
    with pytest.raises(InvalidParameterError, match=match):
        hardy_form_matrix(model, w, 1, 15)
    with pytest.raises(InvalidParameterError, match=match):
        optimality_probe(model, w, 0.01, 2, 15)
    # outside the window the weight is not read
    assert hardy_form_matrix(model, w, 8, 15).n == 8


def test_degree_products_past_the_float_range_stay_a_size_limit():
    # each degree is a float, k_plus(r) k_minus(r + 1) = 1e400 is not
    model = make_custom([10 ** 200] * 4, [0] + [10 ** 200] * 4)
    with pytest.raises(SizeLimitExceededError, match="past the float64 range at radius 0"):
        hardy_form_matrix(model, np.zeros(5), 0, 3)


@pytest.mark.parametrize("model", [make_tree(2, 20), make_antitree(lambda r: r + 1, 20)],
                         ids=["tree", "antitree"])
@pytest.mark.parametrize("r", [0, 1, 7])
def test_one_and_two_row_forms_bisect_to_their_dense_bottom(model, r):
    # a 2 x 2 form is Toeplitz but for its first row and guides itself; a
    # 1 x 1 form has no coupling to read
    w = closed_form_weight(model, 0, 10).values
    for form in (hardy_form_matrix(model, w, r, r), hardy_form_matrix(model, w, r, r + 1)):
        off = np.diag(form.offdiagonal, 1)
        dense = np.diag(form.diagonal) + off + off.T
        bottom = smallest_eigenvalue(form)
        assert bottom == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
        assert bottom == counted(lambda: smallest_eigenvalue(form), None)[0]


def test_tree_ball_positivity_refuses_infinite_and_nan_pivots():
    # a -inf weight makes a +inf pivot, which is not a certificate
    for w in ([0.0, -np.inf, 0.0], [0.0, np.nan, 0.0], [np.nan, 0.0, 0.0]):
        assert not np.all(np.isfinite(tree_ball_pivots(2, np.array(w))))
        assert tree_ball_is_positive(2, w) is False
    assert tree_ball_is_positive(2, [0.0, 0.0, 0.0]) is True


def test_tree_ball_pivots_all_positive_at_safe_shift():
    d = 3
    w = np.full(11, tree_bottom_of_spectrum(d) - 1e-9)
    pivots = tree_ball_pivots(d, w)
    assert all(p > 0 for p in pivots)


def test_dense_cap():
    graph = expand_vertex_graph(make_tree(2, 14), 13)
    w = np.zeros(14)
    with pytest.raises(SizeLimitExceededError):
        ball_form_matrix(graph, w, 12)


@st.composite
def integer_models(draw, depth):
    """Integer radial data with k_minus(r + 1) <= vol(r), so it is realizable."""
    k_plus, k_minus, vol = [], [0], [1]
    for _ in range(depth):
        k = draw(st.integers(1, 3))
        area = k * vol[-1]
        m = draw(st.sampled_from(
            [m for m in range(1, min(vol[-1], 3) + 1) if area % m == 0]))
        k_plus.append(k)
        k_minus.append(m)
        vol.append(area // m)
    return make_custom(k_plus, k_minus, label="random integer model")


@given(st.one_of(integer_models(7), varying_trees(7), random_antitrees(7)),
       st.integers(2, 5))
def test_vertex_ball_bottom_below_radial_section_bottom(model, radius):
    # radial functions are a subspace of the ball's functions, and the optimal
    # gamma = 0 weight claims the inequality for functions vanishing at the
    # origin, so both forms are taken off the origin
    graph = expand_vertex_graph(model, radius + 1)
    w = closed_form_weight(model, 0, radius).values
    vertex = float(np.linalg.eigvalsh(ball_form_matrix(graph, w, radius)[1:, 1:])[0])
    radial = float(np.linalg.eigvalsh(
        _dense_matrix(hardy_form_matrix(model, w, 1, radius)))[0])
    assert vertex <= radial + 1e-10
    assert vertex >= -1e-10 and radial >= -1e-10
