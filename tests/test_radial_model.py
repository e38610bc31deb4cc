import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_lab import (
    InconsistentModelError,
    InvalidParameterError,
    NeedsTailError,
    NoCanonicalRealizationError,
    RadialModel,
    SizeLimitExceededError,
    Tail,
    expand_vertex_graph,
    load_model,
    make_antitree,
    make_custom,
    make_tree,
    save_model,
)
from hardy_lab.radial_model import MAX_DEPTH, _decimal_text
from object_storage import object_storage
from whole_views import whole_degrees


def test_tree_radial_data():
    m = make_tree(3, 10)
    assert m.depth == 10
    assert m.vol(0) == 1 and m.vol(4) == 81
    assert m.k_minus(0) == 0
    for r in range(1, 10):
        assert m.k_plus(r) == 3
        assert m.k_minus(r) == 1
        assert m.kappa(r) == 3
    # both expressions for the sphere boundary agree
    for r in range(1, 11):
        assert m.area(r) == m.k_minus(r) * m.vol(r)
        assert m.area(r) == m.k_plus(r - 1) * m.vol(r - 1)


def test_antitree_radial_data():
    s = lambda r: (r + 1) ** 2
    m = make_antitree(s, 8)
    for r in range(8):
        assert m.vol(r) == s(r)
        assert m.k_plus(r) == s(r + 1)
    for r in range(1, 8):
        assert m.k_minus(r) == s(r - 1)
        assert m.area(r) == s(r - 1) * s(r)


def test_tree_tail_metadata():
    assert make_tree(2, 5).tail.kind == "eventually-geometric"
    assert make_tree(2, 5).tail.kappa_inf == 2
    # the half line has constant areas, nothing geometric about them
    assert make_tree(1, 5).tail.kind == "unspecified"
    assert make_antitree(lambda r: r + 1, 5).tail.kind == "unspecified"


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=12),
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=11),
)
def test_custom_volumes_satisfy_area_identity(kp, km):
    depth = min(len(kp), len(km) + 1)
    kp = kp[:depth]
    km = [0] + km[: depth]
    if len(km) != depth + 1:
        km = km + [1] * (depth + 1 - len(km))
    m = make_custom(kp, km)
    for r in range(1, depth + 1):
        assert m.k_minus(r) * m.vol(r) == m.k_plus(r - 1) * m.vol(r - 1)
        assert m.vol(r) > 0


def _numpy_sizes(sizes):
    # uint64 past int64, which make_antitree reads entry by entry
    return np.array(sizes, dtype=np.int64 if max(sizes) < 2 ** 63 else np.uint64)


_SIZE_FORMS = {"callable": lambda sizes: sizes.__getitem__, "list": list, "tuple": tuple,
               "numpy": _numpy_sizes}
# around the float64 and int64 limits of the storage choice
_EDGE_INTEGERS = st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63])
_exact_entries = st.integers(1, 10 ** 9) | st.fractions(Fraction(1, 50), 50) | _EDGE_INTEGERS


@st.composite
def built_models(draw, kind):
    """Trees, antitrees given in each accepted form, and custom models with
    int and Fraction entries, as their constructors store them; degrees on
    both sides of the float64 choice, and entries around 2**53 and 2**63."""
    depth = draw(st.integers(2, 30))
    if kind == "tree":
        return make_tree(draw(st.integers(1, 3) | st.integers(10 ** 8, 10 ** 12)
                              | _EDGE_INTEGERS), depth)
    if kind == "antitree":
        sizes = [1] + draw(st.lists(st.integers(1, 10 ** 9) | _EDGE_INTEGERS, min_size=depth,
                                    max_size=depth + 3))
        return make_antitree(_SIZE_FORMS[draw(st.sampled_from(sorted(_SIZE_FORMS)))](sizes),
                             depth)
    entries = st.integers(1, 9) if draw(st.booleans()) else _exact_entries
    kp = draw(st.lists(entries, min_size=depth, max_size=depth))
    km = [0] + draw(st.lists(entries, min_size=depth, max_size=depth))
    return make_custom(kp, km)


def stored_models(kind):
    """Models as built, or with their data held in object arrays."""
    return built_models(kind).flatmap(lambda m: st.sampled_from([m, object_storage(m)]))


def _log_exact(a):
    return math.log(a.numerator) - math.log(a.denominator)


def _same_bits(view, reference):
    return view.dtype == float and view.tobytes() == np.array(reference, dtype=float).tobytes()


def _same_objects(view, reference):
    return list(view) == reference and list(map(type, view)) == list(map(type, reference))


@pytest.mark.parametrize("kind", ["tree", "antitree", "custom"])
@given(data=st.data())
def test_bulk_views_match_the_accessors(kind, data):
    m = data.draw(stored_models(kind))
    n = m.depth
    kp = [m.k_plus(r) for r in range(n)]
    km = [m.k_minus(r) for r in range(n + 1)]
    vol = [m.vol(r) for r in range(n + 1)]
    area = [m.area(r) for r in range(n + 1)]
    assert {type(x) for x in kp + km + vol + area} <= {int, Fraction}
    assert all(type(m.kappa(r)) is Fraction for r in range(1, n))
    assert _same_bits(m.k_plus_floats(n - 1), [float(x) for x in kp])
    assert _same_bits(m.k_minus_floats(n), [float(x) for x in km])
    assert _same_bits(m.kappa_floats(n - 1), [math.nan] + [float(m.kappa(r)) for r in range(1, n)])
    exact_kp, exact_km = m.exact_degrees(n - 1)
    small = {type(x) for x in kp + km} == {int} and max(kp + km + [n]) ** 2 < 2 ** 53
    if small:
        assert _same_bits(exact_kp, kp) and _same_bits(exact_km, km[:n])
    else:
        assert _same_objects(exact_kp, kp) and _same_objects(exact_km, km[:n])
    lo = data.draw(st.integers(1, n))
    hi = data.draw(st.integers(lo - 1, n))
    assert _same_objects(m.area_values(lo, hi), area[lo:hi + 1])
    assert _same_bits(m.log_area_floats(n), [-math.inf] + [_log_exact(a) for a in area[1:]])


def _same_exact_form(view, twin):
    if view.dtype == float:
        return twin.dtype == float and view.tobytes() == twin.tobytes()
    return twin.dtype == object and _same_objects(view, list(twin))


@pytest.mark.parametrize("kind", ["tree", "antitree", "custom"])
@given(data=st.data())
def test_int64_and_object_storage_give_the_same_views(kind, data):
    m = data.draw(built_models(kind))
    twin = object_storage(m)
    n = m.depth
    stored = [a for a in (m._k_plus, m._k_minus, m._vol) if a is not None]
    # an antitree's three arrays are views of its one array of sphere sizes
    for group in [stored] if kind == "antitree" else [[a] for a in stored]:
        fits = all(type(x) is int and x < 2 ** 63 for a in group for x in a.tolist())
        assert all(a.dtype == (np.int64 if fits else object) for a in group)
        assert not any(a.flags.writeable for a in group)
    for a, b in [(m.k_plus_floats(n - 1), twin.k_plus_floats(n - 1)),
                 (m.k_minus_floats(n), twin.k_minus_floats(n)),
                 (m.kappa_floats(n - 1), twin.kappa_floats(n - 1)),
                 (m.log_area_floats(n), twin.log_area_floats(n))]:
        assert a.dtype == b.dtype == float and a.tobytes() == b.tobytes()
    for view, other in zip(m.exact_degrees(n - 1), twin.exact_degrees(n - 1)):
        assert view.dtype in (float, object) and _same_exact_form(view, other)
    lo = data.draw(st.integers(1, n))
    hi = data.draw(st.integers(lo - 1, n))
    areas = m.area_values(lo, hi)
    assert areas.dtype == object and _same_objects(areas, list(twin.area_values(lo, hi)))
    rows = m.radial_data()
    assert rows == twin.radial_data()
    assert {type(x) for row in rows for x in row[1:]} <= {int, Fraction, type(None)}
    scalars = [f(r) for r in range(n) for f in (m.k_plus, m.k_minus, m.vol, m.area)]
    assert {type(x) for x in scalars + [m.vol(n), m.area(n)]} <= {int, Fraction}
    assert all(type(m.kappa(r)) is Fraction for r in range(1, n))


def _fresh(model):
    """The same stored arrays in a new model, with no views built yet."""
    return RadialModel(k_plus=model._k_plus, k_minus=model._k_minus, vol=model._vol,
                       tail=model.tail, label=model.label)


def _assert_prefix_views(model, reference, radii):
    """Every bulk view of ``model`` at each radius of ``radii``, asked in
    that order, against slices of the whole-depth ``reference``."""
    for r in radii:
        r_kp = min(r, model.depth - 1)  # k_plus and kappa end at depth - 1
        pairs = [(model.k_plus_floats(r_kp), reference[0][:r_kp + 1]),
                 (model.k_minus_floats(r), reference[1][:r + 1]),
                 (model.kappa_floats(r_kp), reference[4][:r_kp + 1]),
                 *zip(model.exact_degrees(r_kp), (reference[2][:r_kp + 1],
                                                  reference[3][:r_kp + 1]))]
        for view, whole in pairs:
            assert view.dtype == whole.dtype, r
            if view.dtype == object:
                assert _same_objects(view, list(whole)), r
            else:
                assert view.tobytes() == whole.tobytes(), r
            assert not view.flags.writeable


_ORDERS = {"increasing": sorted, "decreasing": lambda radii: sorted(radii, reverse=True),
           "repeated": lambda radii: [radii[0]] * 3 + radii, "as drawn": list}


@pytest.mark.parametrize("kind", ["tree", "antitree", "custom"])
@given(data=st.data())
def test_prefix_views_are_slices_of_the_whole_depth_views(kind, data):
    m = data.draw(built_models(kind))
    reference = whole_degrees(m)
    radii = data.draw(st.lists(st.integers(0, m.depth), min_size=1, max_size=8))
    radii = _ORDERS[data.draw(st.sampled_from(sorted(_ORDERS)))](radii)
    for model in (m, object_storage(m)):
        _assert_prefix_views(model, reference, radii)


@pytest.mark.parametrize("model", [
    make_custom([2] * 39 + [2 ** 30], [0] + [1] * 40),
    make_antitree(np.array([1] * 40 + [2 ** 30]), 40),
    make_custom([2] * 39 + [Fraction(5, 2)], [0] + [1] * 40),
    make_tree(2 ** 53 + 1, 40),
], ids=["custom-int", "antitree", "custom-fraction", "tree-past-2**53"])
def test_a_short_prefix_takes_the_exact_form_of_the_whole_model(model):
    # the last degree alone makes the exact form objects (and, past 2**53
    # or as a Fraction, kappa one Fraction division per radius): a prefix
    # that stops short of it must take that form too
    reference = whole_degrees(model)
    assert reference[2].dtype == object
    for radii in ([0, 1, 5], [38, 3, 3], [2, 40, 39]):
        for m in (_fresh(model), object_storage(model)):
            _assert_prefix_views(m, reference, radii)


def test_a_degree_past_the_double_range_refuses_every_prefix():
    # k_plus(1023) = 2**1024: no view is formed, however short
    model = make_antitree(lambda r: 2 ** r, 1200)
    for view in (model.k_plus_floats, model.k_minus_floats, model.kappa_floats,
                 model.exact_degrees):
        with pytest.raises(SizeLimitExceededError, match="at radius 1023 is past"):
            view(1)


def test_an_int64_degree_maximum_meets_a_fraction_exactly():
    # int64 k_plus beside Fraction k_minus: comparing numpy's int64 maximum
    # with a Fraction multiplied in int64 and overflowed
    model = make_custom([2 ** 53 - 1, 2], [0, Fraction(10417, 1050), 3])
    assert model.k_plus_floats(1).tolist() == [2.0 ** 53 - 1, 2.0]
    with pytest.raises(SizeLimitExceededError, match="radius 1"):
        make_custom([2 ** 53 - 1, 2], [0, Fraction(10 ** 400, 3), 3]).k_plus_floats(1)


def test_exact_degrees_of_int64_storage_are_python_ints():
    # degrees past 2**26.5 take the object path: each int64 array becomes
    # an object array of Python ints, whose products never wrap
    m = make_antitree(np.array([1, 2 ** 40, 3, 2 ** 62, 5, 6], dtype=np.int64), 5)
    assert m._k_plus.dtype == np.int64
    kp, km = m.exact_degrees(4)
    assert kp.dtype == km.dtype == object
    assert kp.tolist() == [2 ** 40, 3, 2 ** 62, 5, 6]
    assert km.tolist() == [0, 1, 2 ** 40, 3, 2 ** 62]
    assert list(map(type, kp)) == list(map(type, km)) == [int] * 5
    # a tree's degrees stay zero-stride views of one int
    tree = make_tree(2 ** 62, 1000)
    kp, km = tree.exact_degrees(999)
    assert kp.dtype == object and kp.strides == (0,) and type(kp[0]) is int
    assert km.tolist() == [0] + [1] * 999


@pytest.mark.parametrize("model", [
    make_custom([1, 2 ** 53 + 1, 1], [0, 3, 1, 1]),
    make_antitree(np.array([1, 7, 3, 5, 2 ** 53 + 1, 1]), 5),
], ids=["custom", "antitree"])
def test_kappa_of_int64_degrees_past_2_53_is_rounded_once(model):
    # 2**53 + 1 rounds to 2**53 in float64: a division of the float views
    # would land on 3002399751580330.5, not on (2**53 + 1) / 3 itself
    r = 1 if model.k_plus(1) > 2 ** 53 else 3
    assert model.kappa(r) == Fraction(2 ** 53 + 1, 3)
    for m in (model, object_storage(model)):
        assert m.kappa_floats(r)[r] == 3002399751580331.0


@given(st.integers(2, 12), st.data())
def test_bad_sphere_sizes_are_refused_naming_their_radius(depth, data):
    sizes = [1] + data.draw(st.lists(st.integers(1, 99), min_size=depth, max_size=depth))
    r = data.draw(st.integers(1, depth))
    form = data.draw(st.sampled_from(sorted(_SIZE_FORMS)))
    if form != "callable":  # too few sizes, counted
        with pytest.raises(InvalidParameterError, match=f"radius {depth}, got {r} values"):
            make_antitree(_SIZE_FORMS[form](sizes[:r]), depth)
    bad = st.integers(-5, 0)
    if form != "numpy":
        bad |= st.sampled_from([2.5, 3.0, Fraction(7, 2), "4", None])
    sizes[r] = data.draw(bad)
    with pytest.raises(InvalidParameterError, match=f"sphere size at radius {r} "):
        make_antitree(_SIZE_FORMS[form](sizes), depth)


def test_custom_rejects_bad_volumes():
    with pytest.raises(InconsistentModelError, match="radius 2"):
        make_custom([2, 2, 2], [0, 1, 1, 1], vol=[1, 2, 3, 8])


def test_an_area_mismatch_past_the_digit_limit_is_inconsistent_data():
    # k_plus(0) vol(0) = 10**5000 has more digits than str writes by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with pytest.raises(InconsistentModelError) as info:
        make_custom([10 ** 5000, 2], [0, 1, 10 ** 5000], [1, 1, Fraction(1, 10 ** 5000)])
    assert info.value.radius == 1
    head = "area mismatch at radius 1: k_minus*vol = 1 but k_plus*vol from radius 0 = "
    assert str(info.value) == head + (f"a number past {limit} decimal digits" if limit
                                      else str(10 ** 5000))


def test_custom_rejects_inward_edges_at_origin():
    with pytest.raises(InvalidParameterError):
        make_custom([2, 2], [1, 1, 1])


def test_custom_needs_some_depth():
    with pytest.raises(InvalidParameterError):
        make_custom([2], [0, 1])


def test_kappa_beyond_depth_raises():
    m = make_tree(2, 6)
    with pytest.raises(NeedsTailError):
        m.kappa(6)


def test_tree_log_areas_hold_one_area_at_a_time():
    # the exact areas d**r of radii 1..20000 together take 25 MiB; each log
    # is taken as the running product yields its area
    model = make_tree(2, 20_002)
    tracemalloc.start()
    try:
        logs = model.log_area_floats(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert logs[20_000] == math.log(2 ** 20_000)


def test_float_accessors():
    m = make_tree(2, 30)
    kp = m.k_plus_floats(10)
    la = m.log_area_floats(10)
    kap = m.kappa_floats(10)
    assert kp.shape == (11,)
    assert la[0] == -math.inf
    assert np.isnan(kap[0])
    assert np.allclose(la[1:], np.arange(1, 11) * math.log(2.0))
    assert np.allclose(kap[1:], 2.0)


def test_save_load_round_trip(tmp_path):
    m = make_tree(3, 20)
    path = tmp_path / "tree.model"
    save_model(m, path)
    back = load_model(path)
    assert back.depth == m.depth
    assert back.label == m.label
    assert back.tail.kind == "eventually-geometric"
    assert back.tail.kappa_inf == Fraction(3)
    for r in range(m.depth):
        assert back.k_plus(r) == m.k_plus(r)
        assert back.vol(r) == m.vol(r)
    for r in range(1, m.depth + 1):
        assert back.k_minus(r) == m.k_minus(r)


def test_save_load_antitree_round_trip(tmp_path):
    m = make_antitree(lambda r: r + 1, 15)
    path = tmp_path / "at.model"
    save_model(m, path, r_max=12)
    back = load_model(path)
    assert back.depth == 12
    for r in range(1, 12):
        assert back.area(r) == m.area(r)


def _write_model(path, tail_line, rows):
    lines = ["radial-model v1", tail_line]
    lines += [f"{r} {'-' if r == len(rows) - 1 else kp} {km} {v}"
              for r, (kp, km, v) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("tail_line, bad", [("tail geometric 2 1", 1),
                                            ("tail geometric 2", 1),
                                            ("tail geometric 1 1", None),
                                            ("tail geometric 1 1300", None)])
def test_a_geometric_tail_line_is_checked_against_the_rows(tmp_path, tail_line, bad):
    # the half line: k_plus = k_minus = vol = 1, kappa = 1 at every radius
    path = tmp_path / "line.model"
    _write_model(path, tail_line, [(1, 0 if r == 0 else 1, 1) for r in range(1201)])
    if bad is None:
        assert load_model(path).tail.kind == "eventually-geometric"
    else:
        with pytest.raises(InconsistentModelError, match=f"kappa\\({bad}\\)") as info:
            load_model(path)
        assert info.value.radius == bad


def test_a_geometric_tail_line_is_checked_from_its_start_exactly(tmp_path):
    # kappa 3 at radius 1, then 3/2 from radius 2 on; the last row has no k_plus
    rows = [(1, 0, 1), (3, 1, 1), (3, 2, Fraction(3, 2)), (3, 2, Fraction(9, 4)),
            (3, 2, Fraction(27, 8)), (None, 2, Fraction(81, 16))]
    path = tmp_path / "late.model"
    _write_model(path, "tail geometric 3/2 2", rows)
    assert load_model(path).tail.kappa_inf == Fraction(3, 2)
    _write_model(path, "tail geometric 3/2 1", rows)
    with pytest.raises(InconsistentModelError) as info:
        load_model(path)
    assert info.value.radius == 1
    # one part in 10**40 off at radius 3 is caught
    rows[3] = (3 + Fraction(1, 10 ** 40), 2, Fraction(9, 4))
    rows[4] = (3, 2, rows[3][0] * Fraction(9, 8))
    rows[5] = (None, 2, rows[4][2] * Fraction(3, 2))
    _write_model(path, "tail geometric 3/2 2", rows)
    with pytest.raises(InconsistentModelError) as info:
        load_model(path)
    assert info.value.radius == 3


def _tree_rows(depth):
    return [f"{r} 2 {min(r, 1)} {2 ** r}" for r in range(depth)] + [f"{depth} - 1 {2 ** depth}"]


@pytest.mark.parametrize("r, column, token, error", [
    (0, 0, "x", "cannot parse 'x' in row 0"),
    (150, 1, "x", "cannot parse 'x' in row 150"),
    (63, 2, "1/0", "cannot parse '1/0' in row 63"),
    (64, 3, "+5", "area mismatch at radius 64"),
    (200, 0, "201", "expected 200 got 201"),
    (100, 1, "-", "exactly the final row must use '-'"),
    (300, 1, "2", "exactly the final row must use '-'"),
    (299, 3, "0", r"vol\(299\) must be positive"),
])
def test_model_file_rows_read_by_column_name_the_first_bad_row(tmp_path, r, column, token,
                                                                error):
    # rows are read a block of rows at a time, an all-digit column by one int
    # map; a bad token anywhere is named as a row-by-row reader names it
    rows = _tree_rows(300)
    tokens = rows[r].split()
    tokens[column] = token
    rows[r] = " ".join(tokens)
    path = tmp_path / "bad.model"
    path.write_text("\n".join(["radial-model v1", "tail unspecified", *rows]) + "\n")
    with pytest.raises((InvalidParameterError, InconsistentModelError), match=error):
        load_model(path)


def test_a_bad_row_is_named_before_a_later_bad_line(tmp_path):
    path = tmp_path / "bad.model"
    for later in ["250 2 1", "tail bogus", "tail geometric 2 x"]:
        rows = _tree_rows(300)
        rows[120] = "120 x 1 5"
        rows.insert(121, later)
        path.write_text("\n".join(["radial-model v1", *rows]) + "\n")
        with pytest.raises(InvalidParameterError, match="cannot parse 'x' in row 120"):
            load_model(path)


def test_tokens_off_the_digit_columns_read_to_the_same_model(tmp_path):
    # signs, leading zeros and Fractions leave a block to the per-token reader
    path = tmp_path / "tokens.model"
    rows = _tree_rows(300)
    for r in (5, 70, 299):
        rows[r] = f"{r:04d} +2 {min(r, 1)}/1 {2 ** r}"
    path.write_text("\n".join(["radial-model v1", "tail unspecified", *rows]) + "\n")
    back = load_model(path)
    assert back.radial_data() == make_custom([2] * 300, [0] + [1] * 300).radial_data()
    assert {type(v) for row in back.radial_data() for v in row[1:] if v is not None} == {int}


def test_saved_geometric_tails_load_back(tmp_path):
    path = tmp_path / "saved.model"
    late = make_custom([1, 3, 3, 3, 3], [0, 1, 2, 2, 2, 2],
                       tail=Tail("eventually-geometric", kappa_inf=Fraction(3, 2), start=2))
    for model in (make_tree(2, 1200), make_tree(5, 40), late):
        save_model(model, path)
        back = load_model(path)
        assert back.tail == model.tail
        assert back.radial_data() == model.radial_data()


def test_expand_tree_counts():
    g = expand_vertex_graph(make_tree(2, 8), 5)
    assert g.n_vertices == 2 ** 6 - 1
    assert g.n_edges == g.n_vertices - 1
    # root has d children, inner vertices d + 1 neighbours, leaves 1
    deg = np.bincount(g.edges.ravel(), minlength=g.n_vertices)
    assert deg[0] == 2
    inner = (g.radius_of >= 1) & (g.radius_of <= 4)
    assert np.all(deg[inner] == 3)
    assert np.all(deg[g.radius_of == 5] == 1)


def test_expand_tree_edges_respect_spheres():
    g = expand_vertex_graph(make_tree(3, 6), 4)
    r_in = g.radius_of[g.edges[:, 0]]
    r_out = g.radius_of[g.edges[:, 1]]
    assert np.all(r_out == r_in + 1)


def test_expand_antitree_is_complete_between_spheres():
    m = make_antitree(lambda r: r + 1, 8)
    g = expand_vertex_graph(m, 4)
    assert g.n_vertices == 1 + 2 + 3 + 4 + 5
    assert g.n_edges == 1 * 2 + 2 * 3 + 3 * 4 + 4 * 5
    deg = np.bincount(g.edges.ravel(), minlength=g.n_vertices)
    # a sphere-r vertex sees all of spheres r - 1 and r + 1
    assert deg[0] == 2
    assert np.all(deg[g.radius_of == 2] == 2 + 4)


def test_expansion_peaks_near_its_edge_array():
    # antitree:poly:3 at radius 8: 659 904 edges, 10.1 MiB; the edges are
    # written into one array, sphere by sphere, with one stub array of the
    # largest sphere beside it (a list of per-sphere chunks and their
    # concatenation peaked at 23.0 MiB)
    model = make_antitree(lambda r: (r + 1) ** 3, 10)
    tracemalloc.start()
    try:
        g = expand_vertex_graph(model, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_edges == sum((r + 1) ** 3 * (r + 2) ** 3 for r in range(8))
    assert peak <= 1.5 * g.edges.nbytes


def test_expand_guards():
    with pytest.raises(NeedsTailError):
        expand_vertex_graph(make_tree(2, 4), 5)
    with pytest.raises(SizeLimitExceededError):
        expand_vertex_graph(make_tree(2, 40), 30)
    custom = make_custom([3, 3, 3], [0, 2, 2, 2])
    with pytest.raises(NoCanonicalRealizationError):
        expand_vertex_graph(custom, 2)


def test_depth_past_the_cap_is_refused():
    # refused before any sphere size is read or any array is built
    assert make_tree(2, MAX_DEPTH).depth == MAX_DEPTH
    for build in (lambda depth: make_tree(2, depth),
                  lambda depth: make_antitree(lambda r: r + 1, depth)):
        with pytest.raises(SizeLimitExceededError, match=f"past the cap {MAX_DEPTH}$"):
            build(MAX_DEPTH + 1)


def test_expand_custom_integer_data_uses_the_stub_rule():
    # saved and reloaded trees realize like their source
    g = expand_vertex_graph(make_custom([2, 2, 2], [0, 1, 1, 1]), 2)
    assert np.array_equal(g.edges, expand_vertex_graph(make_tree(2, 3), 2).edges)
    # integer data that no simple graph carries: k_plus(0) = 5 > vol(1) = 1
    with pytest.raises(NoCanonicalRealizationError):
        expand_vertex_graph(make_custom([5, 5, 5], [0, 5, 5, 5]), 2)


def test_numpy_integer_data_stays_exact():
    # k_plus(1) k_minus(2) = 25000000340000001131 wraps in int64 arithmetic
    a, b = 5000000029, 5000000039
    m = make_custom(np.array([1, a, a], dtype=np.int64),
                    np.array([0, 1, b, 1], dtype=np.int64))
    assert m.kappa(2) - m.kappa(1) == Fraction(-25000000335000001102, b)
    assert m.kappa(2) < m.kappa(1)
    assert all(type(m.k_plus(r)) is int for r in range(3))


def test_numpy_integer_volumes_are_checked_exactly():
    # k_minus(1) vol(1) = 2**64 + 2**32 wraps to 2**32 = k_plus(0) vol(0) in int64
    big = 2 ** 32
    with pytest.raises(InconsistentModelError):
        make_custom(np.array([big, 1], dtype=np.int64),
                    np.array([0, big, 1], dtype=np.int64),
                    vol=np.array([1, big + 1, big + 1], dtype=np.int64))


def test_tail_validation():
    with pytest.raises(InvalidParameterError):
        Tail("eventually-geometric")
    with pytest.raises(InvalidParameterError):
        Tail("unspecified", kappa_inf=Fraction(2))
    with pytest.raises(InvalidParameterError):
        Tail("nonsense")


def test_decimal_text_refuses_exactly_what_str_refuses():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter writes ints of any length")
    widest = 10 ** limit - 1
    for value in (widest, -widest, Fraction(widest, 7), 2 ** (3 * limit)):
        assert _decimal_text(value, "v") == str(value)
    for value in (widest + 1, -widest - 1, Fraction(1, widest + 1), 2 ** (4 * limit)):
        with pytest.raises(ValueError):
            str(value)
        with pytest.raises(SizeLimitExceededError, match=f"v has more than {limit}"):
            _decimal_text(value, "v")

