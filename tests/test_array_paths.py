"""The array paths against their per-radius definitions.

Each reference below is the per-radius loop the array code replaced, in
exact Fraction arithmetic where the data is exact.  Integer models are
chosen on both sides of the 2**53 cross-product limit, so the object-array
route is exercised as well as the float64 one.
"""

import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_lab import (
    RadialModel,
    Tail,
    check_bounded_oscillation,
    check_lambda0_bound,
    check_superharmonic_ground,
    check_superharmonic_sqrt_ground,
    closed_form_weight,
    compare_to_green,
    ground_weight_mass_terms,
    load_model,
    make_antitree,
    make_custom,
    make_tree,
    save_model,
    sqrt_pair_defect,
)
from hardy_lab import cli, radial_model
from hardy_lab.hardy_weights import _kappa_longdouble


def poly_antitree(p, depth):
    return make_antitree(lambda r: (r + 1) ** p, depth, label=f"antitree(poly,{p})")


def varying_tree(depth):
    return make_custom([2 + r % 3 for r in range(depth)], [0] + [1] * depth,
                       tail=Tail("eventually-geometric", kappa_inf=Fraction(2)))


# -- log-areas -----------------------------------------------------------------

@pytest.mark.parametrize("model", [
    make_tree(2, 1500),
    make_tree(3, 900),
    poly_antitree(2, 1500),
    varying_tree(1200),
], ids=["tree2", "tree3", "antitree-poly2", "custom-varying"])
def test_log_areas_are_bit_identical_to_per_radius_logs(model):
    la = model.log_area_floats(model.depth)
    assert la[0] == -math.inf
    for r in range(1, model.depth + 1):
        assert la[r] == math.log(model.area(r)), r


def test_log_areas_survive_a_file_round_trip(tmp_path):
    # varying_tree's degrees with no tail: a model file refuses the geometric
    # tail that varying_tree declares, since its rows break it
    model = make_custom([2 + r % 3 for r in range(600)], [0] + [1] * 600)
    path = tmp_path / "varying.model"
    save_model(model, path)
    back = load_model(path)
    la = back.log_area_floats(back.depth)
    assert np.array_equal(la, model.log_area_floats(model.depth))
    for r in range(1, back.depth + 1):
        assert la[r] == math.log(back.area(r))


# -- closed form and floor -----------------------------------------------------

def square(x):
    # correctly rounded, unlike glibc's pow(x, 2) behind ``x ** 2``, which
    # misrounds about 0.1% of inputs; the kappa ~ 1 cancellation on
    # antitrees amplifies that one ulp to several ulp of w
    return x * x


def scalar_closed_form(model, gamma, r):
    gamma = Fraction(gamma)
    if r == 0:
        a1 = float(model.area(1))
        return float(model.k_plus(0)) * (1.0 - 1.0 / math.sqrt(float(gamma) * a1))
    if r == 1:
        kap = float(model.kappa(1))
        a1 = float(model.area(1))
        return float(model.k_minus(1)) * (
            1.0 + kap - math.sqrt(2.0 * kap) - math.sqrt(float(gamma) * a1))
    kap, kap_prev = model.kappa(r), model.kappa(r - 1)
    sk, sk_prev = math.sqrt(float(kap)), math.sqrt(float(kap_prev))
    x = 1.0 / r
    term = (square(sk - 1.0) + sk * sqrt_pair_defect(x)
            + float(kap - kap_prev) * math.sqrt(1.0 - x) / (sk + sk_prev))
    return float(model.k_minus(r)) * term


def scalar_floor(model, r):
    kap, kap_prev = model.kappa(r), model.kappa(r - 1)
    if not kap_prev <= kap:
        return math.nan
    sk = math.sqrt(float(kap))
    return float(model.k_minus(r)) * (square(sk - 1.0) + sk / (4.0 * r * r))


@pytest.mark.parametrize("model, gamma", [
    (make_tree(2, 1200), 0),
    (make_tree(3, 1200), Fraction(1, 3)),
    (poly_antitree(1, 1200), 0),
    (poly_antitree(2, 10_001), 0),
    (varying_tree(1200), 0),
], ids=["tree2", "tree3-gamma", "antitree-poly1", "antitree-poly2-deep", "custom-varying"])
def test_closed_form_matches_per_radius_formula(model, gamma):
    r_max = model.depth - 1
    profile = closed_form_weight(model, gamma, r_max)
    r_min = 0 if gamma > 0 else 1
    expected = np.array([scalar_closed_form(model, gamma, r) if r >= r_min else 0.0
                         for r in range(r_max + 1)])
    assert np.all(np.abs(profile.values - expected) <= 4 * np.spacing(np.abs(expected)))
    floors = np.array([math.nan, math.nan]
                      + [scalar_floor(model, r) for r in range(2, r_max + 1)])
    np.testing.assert_array_equal(profile.floor_values, floors)


@pytest.mark.parametrize("p", [1, 2])
def test_mass_terms_are_r_w_over_k_minus(p):
    model = poly_antitree(p, 10_001)
    r_max = 10_000
    terms = ground_weight_mass_terms(model, r_max)
    w = closed_form_weight(model, 0, r_max).values
    r = np.arange(1, r_max + 1)
    expected = r * w[1:] / model.k_minus_floats(r_max)[1:]
    assert terms[0] == 0.0
    assert np.all(np.abs(terms[1:] - expected) <= 1e-15 * np.abs(expected))


# -- kappa scans ---------------------------------------------------------------

def scalar_first_inhomogeneous(model):
    for r in range(2, model.depth):
        if model.kappa(r) != model.kappa(1) or model.k_minus(r) != model.k_minus(1):
            return r
    # homogeneous from radius 1 on: the root's outward degree must match too
    return 0 if model.k_plus(0) != model.k_plus(1) else None


def scalar_kappa_constant_from(model):
    kap_end = model.kappa(model.depth - 1)
    r0 = model.depth - 1
    while r0 > 1 and model.kappa(r0 - 1) == kap_end:
        r0 -= 1
    return r0


def scalar_ratio_range(model, r_max):
    ratios = [float((1 + Fraction(1, r)) / model.kappa(r)) for r in range(1, r_max + 1)]
    return min(ratios), max(ratios)


def scalar_ground_kappa_margin(model, r_max):
    return min(float(model.kappa(r) - Fraction(1, r) - (1 - Fraction(1, r)) * model.kappa(r - 1))
               for r in range(2, r_max + 1))


def scalar_sqrt_ground_kappa_margin(model, r_max):
    def margin(r):
        kap, kap_prev = float(model.kappa(r)), float(model.kappa(r - 1))
        return (1.0 + kap - math.sqrt(kap * (1.0 + 1.0 / r))) ** 2 / (1.0 - 1.0 / r) - kap_prev
    return min(margin(r) for r in range(2, r_max + 1))


def assert_scans_match(model):
    lam = check_lambda0_bound(model)
    first = scalar_first_inhomogeneous(model)
    if first is None:
        assert lam.status != "hypothesis-not-met"
    else:
        assert lam.status == "hypothesis-not-met"
        assert lam.params["first_inhomogeneous_radius"] == first

    comparison = compare_to_green(model, min(16, model.depth - 2))
    assert comparison.kappa_constant_from == scalar_kappa_constant_from(model)

    r_max = model.depth - 1
    osc = check_bounded_oscillation(model, r_max)
    lo, hi = scalar_ratio_range(model, r_max)
    assert (osc.residuals["min_ratio"], osc.residuals["max_ratio"]) == (lo, hi)
    assert osc.status == ("pass" if lo >= 1 / 100 and hi <= 100 else "fail")

    # past r = 6000 on the deep antitree the triple products pass int64
    r_mid = min(model.depth - 1, 8192)
    ground = check_superharmonic_ground(model, 0, r_mid)
    assert ground.residuals["min_kappa_margin"] == scalar_ground_kappa_margin(model, r_mid)
    sqrt_ground = check_superharmonic_sqrt_ground(model, 0, r_mid)
    assert (sqrt_ground.residuals["min_kappa_margin"]
            == scalar_sqrt_ground_kappa_margin(model, r_mid))


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=5, max_size=30))
def test_scans_match_scalar_loops_on_random_models(degrees):
    k_plus = [kp for kp, _ in degrees]
    k_minus = [0] + [km for _, km in degrees]
    model = make_custom(k_plus, k_minus,
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(2)))
    assert_scans_match(model)


def test_scans_see_a_change_at_the_last_stored_radius():
    depth = 40
    model = make_custom([2] * (depth - 1) + [3], [0] + [1] * depth,
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(3)))
    assert scalar_first_inhomogeneous(model) == depth - 1
    assert scalar_kappa_constant_from(model) == depth - 1
    assert_scans_match(model)


def test_scans_stay_exact_when_ratios_round_to_one_float():
    # kappa(2) = 1 + 2**-60 rounds to 1.0, like the kappa = 1 around it
    model = make_custom([1, 1, 2 ** 60 + 1, 1, 1], [0, 1, 2 ** 60, 1, 1, 1],
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(2)))
    assert model.kappa_floats(4)[2] == 1.0
    assert model.exact_degrees(4)[0].dtype == object
    assert scalar_kappa_constant_from(model) == 3
    assert_scans_match(model)
    profile = closed_form_weight(model, 0, 4)
    assert profile.values[2] == scalar_closed_form(model, 0, 2)
    assert not np.isnan(profile.floor_values[2])
    assert np.isnan(profile.floor_values[3])


def test_scans_stay_exact_past_int64_on_deep_antitree():
    model = poly_antitree(2, 100_000)
    kp, km = model.exact_degrees(model.depth - 1)
    # cross products reach about 1e20: past 2**53 and past int64
    assert kp.dtype == object
    assert kp[-1] * km[-2] > 2 ** 64
    assert_scans_match(model)


def test_scans_stay_exact_when_float_view_triple_products_pass_2_53():
    # degrees just below 2**26.5 keep the float views, but r k_plus k_minus
    # does not fit a double; the superharmonic margin must not round it
    depth, big = 40, 94_000_000
    model = make_custom([big + 2 * r % 3 for r in range(depth)],
                        [0] + [big + 2 * r % 4 for r in range(1, depth + 1)],
                        tail=Tail("eventually-geometric", kappa_inf=Fraction(2)))
    assert model.exact_degrees(depth - 1)[0].dtype == float
    assert_scans_match(model)


def test_numpy_integer_data_stays_exact():
    # k_plus(1) k_minus(2) = 2**80 would wrap in int64 arithmetic
    k_plus = [1, 2 ** 40, 2 ** 40 + 1, 2 ** 40, 1]
    k_minus = [0, 1, 2 ** 40, 2 ** 40, 1, 1]
    tail = Tail("eventually-geometric", kappa_inf=Fraction(2))
    plain = make_custom(k_plus, k_minus, tail=tail)
    numpy_ints = make_custom(np.array(k_plus, dtype=np.int64),
                             np.array(k_minus, dtype=np.int64), tail=tail)
    np.testing.assert_array_equal(closed_form_weight(numpy_ints, 0, 4).values,
                                  closed_form_weight(plain, 0, 4).values)
    assert (compare_to_green(numpy_ints, 3).kappa_constant_from
            == scalar_kappa_constant_from(plain))
    assert_scans_match(plain)


def fraction_kappa_column(kp, km):
    """kappa(1..) through the reduced Fraction, each part made longdouble."""
    ratios = [Fraction(p) / Fraction(q) for p, q in zip(kp[1:], km[1:])]
    return np.array([np.longdouble(f.numerator) / np.longdouble(f.denominator)
                     for f in ratios], dtype=np.longdouble)


@pytest.mark.parametrize("model", [
    poly_antitree(2, 20_000),
    make_custom([2 ** 64 - 1 - 2 * r for r in range(40)], [0] + [3 + r for r in range(40)]),
    make_custom([2 ** 64 + r for r in range(40)], [0] + [3] * 40),
    make_custom([Fraction(2 ** 40 + r, 3) for r in range(40)], [0] + [2 ** 30] * 40),
], ids=["antitree-poly2", "below-2**64", "past-2**64", "fractions"])
def test_kappa_column_equals_the_fraction_route(model):
    # every product of two degrees passes 2**53, so the degrees are objects
    kp, km = model.exact_degrees(model.depth - 1)
    assert kp.dtype == object
    assert kp[-1] * km[-1] > 2 ** 53
    column = _kappa_longdouble(kp, km)
    assert column.dtype == np.longdouble and np.isnan(column[0])
    np.testing.assert_array_equal(column[1:], fraction_kappa_column(kp, km))


def test_deep_model_keeps_its_exact_form_on_shallow_requests():
    # the float64-or-object choice belongs to the model, not to the range
    deep, shallow = poly_antitree(2, 100_000), poly_antitree(2, 1200)
    assert deep.exact_degrees(10)[0].dtype == object
    assert shallow.exact_degrees(10)[0].dtype == float
    r_max = shallow.depth - 1
    deep_profile = closed_form_weight(deep, 0, r_max)
    shallow_profile = closed_form_weight(shallow, 0, r_max)
    np.testing.assert_array_equal(deep_profile.values, shallow_profile.values)
    np.testing.assert_array_equal(deep_profile.floor_values, shallow_profile.floor_values)


def test_verify_builds_each_radial_view_once(monkeypatch, capsys):
    calls = Counter()
    passes, prefixes = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    view = functools.cached_property(counted("_tail_window",
                                             vars(RadialModel)["_tail_window"].func))
    view.__set_name__(RadialModel, "_tail_window")
    monkeypatch.setattr(RadialModel, "_tail_window", view)
    monkeypatch.setattr(RadialModel, "kappa", counted("kappa", vars(RadialModel)["kappa"]))
    areas = vars(RadialModel)["_areas"]
    degree_block = vars(RadialModel)["_degree_block"]

    def spied_areas(self, r_lo, r_hi):
        passes.append((r_lo, r_hi))
        return areas(self, r_lo, r_hi)

    def spied_block(self, s, e, exact=True):
        if s == 0 and exact:  # the prefix views; the full-depth scans read kappa alone
            prefixes.append(e)
        return degree_block(self, s, e, exact)

    monkeypatch.setattr(RadialModel, "_areas", spied_areas)
    monkeypatch.setattr(RadialModel, "_degree_block", spied_block)
    # transience, properness and the Green tail bound share one scan of the
    # window, which reads the degrees, and the volumes on an unspecified
    # tail, never the areas (so a tree forms no d**r there); exact areas are formed once per reader of the ground
    # pairs u = r / area(r) (the ratio route of superharmonic-sqrt-ground
    # on 1..513, the ground-state identity on 1..65 and 1..6 and the
    # transform on 1..8; superharmonic-ground reads the degrees alone) and
    # for log G on 0..128.  The degree views grow with the radii asked for
    # (criticality at 10, 100 and 1000, null-criticality to 10**4), at
    # least doubling at each rebuild, and no verify builds them past
    # radius 2 * 10**4, whatever the depth
    ground = [(1, 513), (1, 65), (1, 6), (1, 8)]
    for spec in ["antitree:poly:2:3000", "tree:2:100000", "antitree:poly:1:100000",
                 "antitree:poly:2:100000"]:
        calls.clear()
        passes.clear()
        prefixes.clear()
        cli.main(["verify", "--model", spec, "--suite", "all"])
        capsys.readouterr()
        depth = int(spec.rpartition(":")[2])
        assert prefixes[0] == 10 and max(prefixes) <= min(depth + 1, 2 * 10 ** 4 + 1), spec
        assert all(b >= min(2 * a, depth) for a, b in zip(prefixes, prefixes[1:])), spec
        assert calls["_tail_window"] == 1, spec
        assert passes == ground + [(1, 129)], spec
        assert calls["kappa"] <= 3, spec


def test_deep_verify_makes_objects_only_of_degrees_past_float64(monkeypatch, capsys):
    # int64 storage: tree:2 and antitree:poly:1 keep float64-exact degrees
    # and build no object array; antitree:poly:2's degree products pass
    # 2**53, and its exact degrees are object copies of k_plus and k_minus
    # over the prefix that the views cover, one per array and per build of
    # the views, never made by the full-depth scans
    converted, area_lengths, models = [], [], {}
    objects, areas = radial_model._objects, vars(RadialModel)["_areas"]
    parse = cli._parse_model_spec

    def spied_objects(a):
        converted.append(len(a))
        return objects(a)

    def spied_areas(self, r_lo, r_hi):
        area_lengths.append(r_hi - r_lo + 1)
        return areas(self, r_lo, r_hi)

    def kept(text):
        models[text] = parse(text)
        return models[text]

    monkeypatch.setattr(radial_model, "_objects", spied_objects)
    monkeypatch.setattr(RadialModel, "_areas", spied_areas)
    monkeypatch.setattr(cli, "_parse_model_spec", kept)
    depth = 100_000
    for p, converts in [(None, False), (1, False), (2, True)]:
        spec = f"tree:2:{depth}" if p is None else f"antitree:poly:{p}:{depth}"
        converted.clear()
        area_lengths.clear()
        cli.main(["verify", "--model", spec, "--suite", "all"])
        capsys.readouterr()
        model = models[spec]
        assert model._k_plus.dtype == model._k_minus.dtype == np.int64, spec
        # exact areas come in ground ranges and window blocks (with the
        # two radii past a block that its differences read) only
        assert 0 < max(area_lengths) <= radial_model._WINDOW_BLOCK + 2, spec
        kp, km = model.exact_degrees(depth - 1)
        if converts:
            # the views of criticality and null-criticality, and the whole
            # stored depth
            assert converted == [10, 10, 100, 100, 1000, 1000, 10_001, 10_001, depth, depth + 1]
            assert kp.dtype == km.dtype == object
        else:
            assert converted == [], spec
            assert kp.dtype == km.dtype == float, spec


def test_deep_verify_memory_is_set_by_what_it_reads(capsys):
    # at depth 1e6 a verify holds what it held at 1e4, plus the stored
    # data: tree:2 stores none, antitree:poly:2 its int64 sphere sizes
    # [0, s(0), ..., s(depth)]
    def traced_peak(spec):
        tracemalloc.start()
        try:
            cli.main(["verify", "--model", spec, "--suite", "all"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    depth = 10 ** 6
    assert traced_peak(f"tree:2:{depth}") <= traced_peak("tree:2:10000") + 10 ** 6
    sizes = 8 * (depth + 2)
    assert (traced_peak(f"antitree:poly:2:{depth}")
            <= traced_peak("antitree:poly:2:10000") + 10 ** 6 + sizes)


def test_deep_window_blocks_run_in_int64_where_the_bound_holds(monkeypatch, capsys):
    # on antitree:poly:2 at 1e5 the window products stay near 4e15, so the
    # one scan behind transience, properness and the Green tail bound reads
    # int64 blocks only; on antitree:poly:3 they pass 2**62 (k_plus -
    # k_minus is about 6e10 beside sizes near 1e15), so every block is
    # exact ints.  Forcing every block onto the exact path changes no byte
    # of the report
    reads = []
    block = RadialModel._window_block

    def spied(self, *args, **kwargs):
        arrays = block(self, *args, **kwargs)
        reads.append([a.dtype for a in arrays])
        return arrays

    monkeypatch.setattr(RadialModel, "_window_block", spied)
    reports = {}
    for spec, dtype, limit in [("antitree:poly:2:100000", np.int64, None),
                               ("antitree:poly:2:100000", object, 0),
                               ("antitree:poly:3:100000", object, None)]:
        reads.clear()
        with monkeypatch.context() as patch:
            if limit is not None:
                patch.setattr(radial_model, "_INT64_PRODUCT_LIMIT", limit)
            cli.main(["verify", "--model", spec, "--suite", "all", "--json"])
        reports.setdefault(spec, set()).add(capsys.readouterr().out)
        # 13 blocks, each of k_plus, k_minus and vol
        assert len(reads) == 13 and all(len(arrays) == 3 for arrays in reads), spec
        assert set(itertools.chain(*reads)) == {np.dtype(dtype)}, spec
    assert len(reports["antitree:poly:2:100000"]) == 1


def test_superharmonic_ground_reads_no_area_and_no_radius_past_one(monkeypatch):
    # defect / u at r >= 2 is k_minus times the kappa margin, from the degree
    # arrays; only the two gamma terms at r <= 1 read per-radius data
    models = [(make_tree(3, 200), Fraction(1, 3)), (poly_antitree(2, 200), Fraction(0)),
              (make_custom([Fraction(3, 2)] * 40, [0] + [Fraction(5, 4)] * 40), Fraction(2))]
    seen = []
    for name in ("k_plus", "k_minus", "vol", "area", "kappa", "area_values"):
        def spied(self, *args, _name=name, _method=vars(RadialModel)[name]):
            seen.append((_name, *args))
            return _method(self, *args)
        monkeypatch.setattr(RadialModel, name, spied)
    for model, gamma in models:
        seen.clear()
        check_superharmonic_ground(model, gamma, model.depth - 1)
        assert seen and all(name != "area_values" and r <= 1 for name, r, *_ in seen), seen
