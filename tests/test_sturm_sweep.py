"""Early-exit Sturm sweeps against the full count they replaced.

``reference_count`` is the numpy-scalar Sturm count that every spectral
decision used before the sweeps stopped at the first negative pivot.  The
bisection, the probes and the inflation annuli must reach exactly the same
decisions, bit for bit, as loops over this count.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardy_lab import (
    closed_form_weight,
    count_eigenvalues_below,
    eigenvalue_bounds,
    hardy_form_matrix,
    inflation_refutation,
    make_antitree,
    make_custom,
    make_tree,
    optimality_probe,
    smallest_eigenvalue,
)
from hardy_lab import optimality, spectral_ops
from hardy_lab.optimality import default_probe_bases
from hardy_lab.spectral_ops import _SWEEP_BLOCK, TridiagonalForm
from bisection_passes import counted

SAFE_MIN = 2.2250738585072014e-308


def reference_count(form, x):
    """Full Sturm count over numpy scalars, one guarded pivot per row."""
    diag = form.diagonal
    if form.n == 0:
        return 0
    off2 = form.offdiagonal * form.offdiagonal
    pivmin = max(float(off2.max(initial=0.0)), 1.0) * SAFE_MIN
    count = 0
    q = 1.0
    for i in range(diag.shape[0]):
        q = diag[i] - x - (off2[i - 1] / q if i else 0.0)
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def float_pivots(form, x):
    """The guarded pivots of reference_count, over Python floats: they round
    like numpy's float64 scalars and iterate several times faster."""
    diag = form.diagonal.tolist()
    off2 = (form.offdiagonal * form.offdiagonal).tolist()
    pivmin = max(max(off2, default=0.0), 1.0) * SAFE_MIN
    q = 1.0
    for i, d in enumerate(diag):
        q = d - x - (off2[i - 1] / q if i else 0.0)
        if abs(q) < pivmin:
            q = -pivmin
        yield q


def float_count(form, x):
    """reference_count from float_pivots, for bisections on long forms."""
    return sum(q < 0.0 for q in float_pivots(form, x))


def reference_bottom(form, count=reference_count):
    lo, hi = eigenvalue_bounds(form)
    tol = 1e-11 * max(1.0, hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            return mid
        if count(form, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def integer_forms(rng, n):
    """Small-integer forms: exact cancellations make zero pivots common."""
    diag = rng.integers(-2, 3, size=n).astype(float)
    off = rng.integers(-1, 2, size=n - 1).astype(float)
    return TridiagonalForm(diagonal=diag, offdiagonal=off, r_lo=0)


def test_zero_pivots_fire_the_guard():
    # row 1: 1 - 1/1 = 0 exactly, so the guard turns the pivot negative
    form = TridiagonalForm(diagonal=np.array([1.0, 1.0, 3.0]),
                           offdiagonal=np.array([1.0, 1.0]), r_lo=0)
    assert reference_count(form, 0.0) == count_eigenvalues_below(form, 0.0) == 1
    # zero couplings: the count is the number of diagonal entries <= x
    split = TridiagonalForm(diagonal=np.array([0.5, -1.0, 0.5, 2.0]),
                            offdiagonal=np.zeros(3), r_lo=0)
    for x in (-1.0, 0.5, 2.0, 3.0):
        assert count_eigenvalues_below(split, x) == reference_count(split, x)
    assert count_eigenvalues_below(split, 0.5) == 3


def test_count_matches_reference_on_random_forms():
    rng = np.random.default_rng(20)
    for trial in range(200):
        n = int(rng.integers(1, 25))
        if trial % 2:
            form = integer_forms(rng, n)
            shifts = [float(x) for x in range(-4, 5)]
        else:
            off = rng.normal(size=n - 1)
            off[rng.random(n - 1) < 0.3] = 0.0
            form = TridiagonalForm(diagonal=rng.normal(size=n), offdiagonal=off,
                                   r_lo=0)
            shifts = [float(rng.normal()) for _ in range(4)]
        shifts += [float(d) for d in form.diagonal[:3]]
        for x in shifts:
            assert count_eigenvalues_below(form, x) == reference_count(form, x)


def test_bisection_equals_reference_on_random_forms():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        if trial % 3 == 0:
            form = integer_forms(rng, n)
        else:
            off = rng.normal(size=n - 1)
            if trial % 3 == 1:
                off[rng.random(n - 1) < 0.5] = 0.0
            form = TridiagonalForm(diagonal=rng.normal(size=n), offdiagonal=off,
                                   r_lo=0)
        assert smallest_eigenvalue(form) == reference_bottom(form)


def assert_bottom_stops_at_adjacent_floats(form, monkeypatch):
    """smallest_eigenvalue(form) equals reference_bottom where one ulp of
    the bottom exceeds the tolerance, in fewer than 100 _negative_pivots
    calls; a call counter stops a bisection that spins."""
    calls = []

    def counted(*args, _negative=spectral_ops._negative_pivots):
        calls.append(args[1])
        assert len(calls) <= 200, "the bisection does not stop"
        return _negative(*args)

    with monkeypatch.context() as patch:
        patch.setattr(spectral_ops, "_negative_pivots", counted)
        bottom = smallest_eigenvalue(form)
    lo, hi = eigenvalue_bounds(form)
    assert np.spacing(bottom) > 1e-11 * (hi - lo) and len(calls) < 100
    assert bottom == reference_bottom(form)


@pytest.mark.parametrize("d", [7 * 10 ** 10, 10 ** 11, 10 ** 12, 2 ** 63])
@pytest.mark.parametrize("r_lo, r_hi", [(0, 64), (1, 256)])
def test_radial_bisection_stops_where_an_ulp_passes_tol(d, r_lo, r_hi, monkeypatch):
    # the zero-weight sections of the lambda0 suite: tol = 1e-11 times a
    # Gershgorin width of about 4 sqrt(d) falls below one ulp of a bottom
    # near d
    form = hardy_form_matrix(make_tree(d, 300), np.zeros(301), r_lo, r_hi)
    assert_bottom_stops_at_adjacent_floats(form, monkeypatch)


def test_bisection_stops_on_random_forms_near_1e12(monkeypatch):
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        form = TridiagonalForm(diagonal=1e12 + rng.uniform(-1e6, 1e6, size=n),
                               offdiagonal=rng.normal(scale=1e5, size=n - 1), r_lo=0)
        assert_bottom_stops_at_adjacent_floats(form, monkeypatch)


def test_bisection_equals_reference_on_a_hardy_section():
    model = make_antitree(lambda r: r + 1, 400)
    w = closed_form_weight(model, 0, 300).values
    form = hardy_form_matrix(model, w, 1, 300)
    assert smallest_eigenvalue(form) == reference_bottom(form)


@st.composite
def settling_forms(draw):
    """Forms of two to three sweep blocks whose tail pivots settle, as a
    critical tree's do: constant squared coupling e and a diagonal rising to
    2 sqrt(e), so the tail certificate fires at shifts below the bottom.
    Dips in the diagonal and bumps in the coupling, some at block starts,
    put negative pivots past a block start; zero couplings split the form.
    """
    n = draw(st.integers(2 * _SWEEP_BLOCK + 1, 3 * _SWEEP_BLOCK))
    e = draw(st.sampled_from([0.25, 1.0, 2.0, 3.0]))
    c = draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    diag = 2.0 * np.sqrt(e) - c / np.arange(1.0, n + 1.0) ** 2
    off2 = np.full(n - 1, e)
    boundaries = [b + k for b in (_SWEEP_BLOCK, 2 * _SWEEP_BLOCK) for k in (-1, 0, 1)
                  if b + k < n]
    for _ in range(draw(st.integers(0, 3))):
        row = int(rng.choice(boundaries)) if rng.random() < 0.5 else int(rng.integers(n))
        diag[row] -= draw(st.sampled_from([1e-9, 1e-4, 0.1, 1.0]))
    for _ in range(draw(st.integers(0, 3))):
        off2[int(rng.integers(n - 1))] *= draw(st.sampled_from([1.0 + 1e-9, 1.5, 4.0]))
    if draw(st.booleans()):
        off2[rng.random(n - 1) < 0.001] = 0.0
    return TridiagonalForm(diagonal=diag, offdiagonal=-np.sqrt(off2), r_lo=0)


@given(settling_forms())
def test_certified_sweeps_equal_full_counts(form):
    bottom = smallest_eigenvalue(form)
    assert bottom == reference_bottom(form, count=float_count)
    for x in (-0.5, -1e-3, -1e-6, -1e-9, bottom - 1e-10, bottom, bottom + 1e-10, 0.1):
        assert count_eigenvalues_below(form, x) == reference_count(form, x)


@given(st.integers(2 * _SWEEP_BLOCK + 1, 3 * _SWEEP_BLOCK),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_certified_counts_with_pivmin_sized_pivots(n, seed, coupled):
    # zero couplings past a block start and diagonal entries within pivmin
    # of the shift: a pivot there counts as negative however small its
    # positive value, so a floor below pivmin certifies nothing
    rng = np.random.default_rng(seed)
    diag = rng.choice([1.0, 0.5, 5e-324, 1e-310, 0.0, -5e-324], size=n,
                      p=[0.9, 0.05, 0.02, 0.01, 0.01, 0.01])
    off = np.zeros(n - 1)
    if coupled:  # the first block's pivots then carry over from row to row
        off[: _SWEEP_BLOCK] = -0.25
    form = TridiagonalForm(diagonal=diag, offdiagonal=off, r_lo=0)
    for x in (0.0, 5e-324, -5e-324, 1e-310, 0.5):
        assert count_eigenvalues_below(form, x) == reference_count(form, x)


def first_negative_row(form, x):
    """Rows a sweep without the tail certificate reads before it stops."""
    return next((i + 1 for i, q in enumerate(float_pivots(form, x)) if q < 0.0), form.n)


def count_swept_rows(monkeypatch):
    """Spy on the whole-form sweeps: (x, count, k, rows read) per
    _negative_pivots call, the rows counted as _pivot_sweep reads them."""
    sweeps = []
    real_sweep, real_count = spectral_ops._pivot_sweep, spectral_ops._negative_pivots
    rows = [0]

    def sweep(run, *args):
        def counted():
            for row in run:
                rows[0] += 1
                yield row
        return real_sweep(counted(), *args)

    def count(whole, x, limit):
        rows[0] = 0
        negative, k = real_count(whole, x, limit)
        sweeps.append((x, negative, k, rows[0]))
        return negative, k

    monkeypatch.setattr(spectral_ops, "_pivot_sweep", sweep)
    monkeypatch.setattr(spectral_ops, "_negative_pivots", count)
    return sweeps


def test_tail_certificate_fires_on_a_tree_section(monkeypatch):
    # the closed-form weight of tree:2 is critical: below the bottom, the
    # pivots of the tail settle at an attracting fixed point.  The bisection
    # runs unguided, so it makes every pass that the plain bisection makes.
    r_max = 12_000
    model = make_tree(2, r_max + 1)
    w = closed_form_weight(model, 0, r_max).values
    form = hardy_form_matrix(model, w, 1, r_max)
    sweeps = count_swept_rows(monkeypatch)
    monkeypatch.setattr(spectral_ops, "_extrapolated_bottom", lambda *args: None)
    bottom = smallest_eigenvalue(form)
    monkeypatch.undo()
    assert bottom == reference_bottom(form, count=float_count)
    certified, plain_rows = [], 0
    for x, negative, k, swept in sweeps:
        plain = first_negative_row(form, x)
        plain_rows += plain
        if swept < plain:
            certified.append((x, swept))
            assert not negative and k == form.n and swept % _SWEEP_BLOCK == 0
        else:
            # a negative pass reports the rows up to its first negative pivot
            assert swept == plain == (k if negative else form.n)
    # every certified shift lies below the bottom, the far ones stop one
    # block in, and the sweeps read about 72 % of the rows they did without
    assert len(certified) >= 8
    assert all(x < bottom for x, _ in certified)
    assert sum(x < -1e-6 for x, _ in certified) >= 5
    assert all(swept == _SWEEP_BLOCK for x, swept in certified if x < -1e-6)
    assert sum(swept for _, _, _, swept in sweeps) < 0.75 * plain_rows


# the roster families whose closed-form Hardy sections guide themselves by
# extrapolation
HARDY_FAMILIES = {
    "tree:2": lambda depth: make_tree(2, depth),
    "tree:3": lambda depth: make_tree(3, depth),
    "tree:5": lambda depth: make_tree(5, depth),
    "antitree:poly:1": lambda depth: make_antitree(lambda r: r + 1, depth),
    "antitree:poly:2": lambda depth: make_antitree(lambda r: (r + 1) ** 2, depth),
}


@functools.lru_cache(maxsize=8)
def hardy_section(family, r_max):
    """The form of the closed-form weight of a roster family on [1, r_max]."""
    model = HARDY_FAMILIES[family](r_max + 1)
    return hardy_form_matrix(model, closed_form_weight(model, 0, r_max).values, 1, r_max)


@given(st.one_of(settling_forms(),
                 st.builds(hardy_section, st.sampled_from(sorted(HARDY_FAMILIES)),
                           st.integers(2_000, 20_000))))
def test_extrapolated_guides_give_the_unguided_bottoms(form):
    # the guess extrapolated from the negative passes, right or wrong, leaves
    # every decision to the monotone count: the bottom is the plain float
    assert smallest_eigenvalue(form) == reference_bottom(form, count=float_count)


@pytest.mark.parametrize("family", ["tree:2", "tree:5", "antitree:poly:1"])
def test_a_wrong_extrapolation_costs_at_most_two_passes(family):
    # a guess injected where the extrapolation gives its own, which saves
    # passes on these sections
    form = hardy_section(family, 20_000)
    section = functools.partial(smallest_eigenvalue, form)
    unguided, plain = counted(section, None)
    assert counted(section)[1]["_negative_pivots"] < plain["_negative_pivots"]
    lo, hi = eigenvalue_bounds(form)
    tol = 1e-11 * max(1.0, hi - lo)
    wrong = [unguided + k * tol for k in (-100.0, -3.0, -1.5, 1.5, 3.0, 100.0)]
    wrong += [unguided * 0.5, unguided * 2.0, 0.0, -1.0, hi + 1.0, 1e300, math.nan]
    for guess in wrong:
        result, passes = counted(section, guess)
        assert result == unguided, guess
        assert passes["_negative_pivots"] <= plain["_negative_pivots"] + 2, guess


@pytest.mark.parametrize("family, most", [("tree:2", 400_000), ("antitree:poly:1", 300_000)])
def test_radius_1e5_bottoms_sweep_fewer_rows(family, most, monkeypatch):
    # the two section bottoms of the radius-1e5 benchmark: every pass near a
    # critical weight's bottom sweeps most of the section, and a right guess
    # leaves two of them (796,851 and 406,423 rows unguided)
    form = hardy_section(family, 10 ** 5)
    sweeps = count_swept_rows(monkeypatch)
    bottom = smallest_eigenvalue(form)
    guided = sum(rows for *_, rows in sweeps)
    sweeps.clear()
    monkeypatch.setattr(spectral_ops, "_extrapolated_bottom", lambda *args: None)
    assert smallest_eigenvalue(form) == bottom
    assert guided <= most < sum(rows for *_, rows in sweeps)


def sections(depth):
    """Random radial data: free degree pairs (volumes may be fractions) or antitrees."""
    degrees = st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)),
                       min_size=depth, max_size=depth)
    return st.one_of(
        degrees.map(lambda pairs: make_custom([kp for kp, _ in pairs],
                                              [0] + [km for _, km in pairs])),
        st.lists(st.integers(1, 4), min_size=depth, max_size=depth).map(
            lambda sizes: make_antitree([1] + sizes, depth)),
    )


def reference_probe(model, w, lam, window, r_max, bases, threshold=-1e-9,
                    count=reference_count):
    unrefuted = []
    for b in bases:
        inflated = np.array(w[: r_max + 1])
        inflated[b: b + window + 1] += lam
        if count(hardy_form_matrix(model, inflated, 1, r_max), threshold) == 0:
            unrefuted.append(b)
    return unrefuted


def assert_probe_matches(model, w, lam, window, r_max, bases):
    rep = optimality_probe(model, w, lam, window, r_max, bases=bases)
    unrefuted = reference_probe(model, w, lam, window, r_max, sorted(set(bases)))
    refuted = [b for b in sorted(set(bases)) if b not in unrefuted]
    assert rep.params["unrefuted_bases"] == unrefuted
    assert rep.params["first_refuted"] == (refuted[0] if refuted else None)
    assert rep.residuals["refuted_count"] == len(refuted)


@given(sections(48), st.floats(0.9, 1.0),
       st.floats(-4, 0.5).map(lambda e: 10 ** e), st.integers(0, 5))
def test_probe_matches_per_base_counts(model, scale, lam, window):
    r_max = 40
    w = scale * closed_form_weight(model, 0, r_max).values
    # every allowed base, the last one (b + window = r_max - 1) included
    bases = list(range(1, r_max - window))
    assert_probe_matches(model, w, lam, window, r_max, bases)


def test_probe_matches_per_base_counts_on_mixed_sections():
    # each case refutes some bases and leaves others, so both resumes run
    cases = [(make_tree(2, 300), (0.003, 0.01)), (make_tree(3, 300), (0.01,)),
             (make_antitree(lambda r: r + 1, 300), (0.1, 1.0)),
             (make_antitree(lambda r: (r + 1) ** 2, 300), (0.3,))]
    r_max, window = 200, 8
    for model, lams in cases:
        w = closed_form_weight(model, 0, r_max).values
        for lam in lams:
            bases = list(range(1, r_max - window))
            rep = optimality_probe(model, w, lam, window, r_max, bases=bases)
            assert 0 < len(rep.params["unrefuted_bases"]) < len(bases)
            assert_probe_matches(model, w, lam, window, r_max, bases)


def test_probe_with_a_negative_uninflated_prefix():
    model = make_tree(2, 80)
    r_max, window = 60, 3
    w = closed_form_weight(model, 0, r_max).values
    w[20] += 3.0
    prefix = hardy_form_matrix(model, w, 1, 20)
    assert reference_count(prefix, -1e-9) >= 1  # negative before base 22
    bases = [1, 5, 17, 22, 40, r_max - window - 1]
    assert_probe_matches(model, w, 0.05, window, r_max, bases)


def count_certified_rows(monkeypatch):
    """Spy on the probe's certified sweeps: (rows read, refuted) per sweep."""
    swept = []
    real = optimality._certified_sweep

    def spy(rows, *args):
        seen = [0]

        def counted():
            for row in rows:
                seen[0] += 1
                yield row

        negative, end = real(counted(), *args)
        swept.append((seen[0], negative))
        return negative, end

    monkeypatch.setattr(optimality, "_certified_sweep", spy)
    return swept


def test_probe_certificate_at_scale(monkeypatch):
    # the default spine plus random bases at r_max = 2e4; at lam = 0.01 every
    # base is unrefuted, at lam = 0.1 the early bases are refuted
    r_max, window = 20_000, 8
    model = make_antitree(lambda r: r + 1, r_max + 1)
    w = closed_form_weight(model, 0, r_max).values
    rng = np.random.default_rng(9)
    drawn = rng.integers(1, r_max - window, size=12)
    bases = sorted(set(default_probe_bases(r_max, window)) | {int(b) for b in drawn})
    swept = count_certified_rows(monkeypatch)
    for lam in (0.01, 0.1):
        swept.clear()
        rep = optimality_probe(model, w, lam, window, r_max, bases=bases)
        # one full count per inflated section
        unrefuted = reference_probe(model, w, lam, window, r_max, bases,
                                    count=count_eigenvalues_below)
        assert rep.params["unrefuted_bases"] == unrefuted
        assert rep.residuals["refuted_count"] == len(bases) - len(unrefuted)
        if lam == 0.01:
            assert unrefuted == bases
        else:
            assert 0 < len(unrefuted) < len(bases)
        # the first unrefuted base sweeps to the end of the section; every
        # later one reaches its certified pivots within a few rows
        certified = [rows for rows, negative in swept if not negative]
        assert len(certified) == len(unrefuted)
        assert certified[0] == r_max - (unrefuted[0] + window)
        assert max(certified[1:]) <= 8
    assert rep.params["first_refuted"] == 1


def test_a_refuted_trail_is_never_a_certificate():
    # On this section base 1 turns negative soon after its window, bases 2
    # and 3 only 50 and more rows after theirs, and every later base stays
    # positive.  Ascending bases lie above earlier ones past their windows,
    # so base 2 reaches base 1's pivots and base 3 reaches base 2's at once:
    # had a refuted trail been kept, bases 2 and 3 would pass as unrefuted.
    r_max, window, lam = 300, 4, 0.3
    model = make_antitree(lambda r: (r + 1) ** 2, r_max + 1)
    w = closed_form_weight(model, 0, r_max).values
    bases = [1, 2, 3, 4, 8, 16, 64, 128, 256]

    def count(b, r_hi):
        inflated = np.array(w[: r_max + 1])
        inflated[b: b + window + 1] += lam
        return count_eigenvalues_below(hardy_form_matrix(model, inflated, 1, r_hi), -1e-9)

    assert count(1, 20) >= 1
    assert count(2, 58) == 0 and count(2, r_max) >= 1
    assert count(3, 60) == 0 and count(3, r_max) >= 1
    rep = optimality_probe(model, w, lam, window, r_max, bases=bases)
    assert rep.params["unrefuted_bases"] == [4, 8, 16, 64, 128, 256]
    assert_probe_matches(model, w, lam, window, r_max, bases)


def reference_inflation(model, lam, r_lo, b_max, b_values, threshold=-1e-9):
    inflated = np.array(closed_form_weight(model, 0, b_max).values)
    inflated[r_lo:] *= 1.0 + lam
    for checked, b in enumerate(b_values, start=1):
        if reference_count(hardy_form_matrix(model, inflated, r_lo, b), threshold) >= 1:
            return b, checked
    return None, len(b_values)


def default_annuli(r_lo, b_max):
    b_values = []
    b = max(8, 2 * r_lo)
    while b < b_max:
        b_values.append(b)
        b *= 2
    return b_values + [b_max]


def assert_inflation_matches(model, lam, r_lo, b_max, b_values=None):
    rep = inflation_refutation(model, lam, r_lo=r_lo, b_max=b_max, b_values=b_values)
    annuli = (sorted(set(b_values)) if b_values is not None
              else default_annuli(r_lo, b_max))
    first, checked = reference_inflation(model, lam, r_lo, b_max, annuli)
    assert rep.params["first_refuted"] == first
    assert rep.residuals["sections_checked"] == checked
    assert rep.status == ("pass" if first is not None else "inconclusive")


def test_inflation_matches_per_annulus_counts_on_trees():
    for d in (1, 2, 3):
        model = make_tree(d, 600)
        for lam in (1e-12, 0.02, 0.1, 0.5):
            for r_lo in (1, 2, 5):
                assert_inflation_matches(model, lam, r_lo, 512)
                assert_inflation_matches(model, lam, r_lo, 500,
                                         b_values=[500, 9, 130, 31, 32, 33, 64])


@given(sections(80), st.floats(0.0005, 0.5), st.integers(1, 6),
       st.lists(st.integers(7, 70), min_size=1, max_size=6))
def test_inflation_matches_per_annulus_counts(model, lam, r_lo, b_values):
    assert_inflation_matches(model, lam, r_lo, 70)
    assert_inflation_matches(model, lam, r_lo, 70, b_values=b_values)


def test_inflation_annuli_stop_at_the_tail_certificate(monkeypatch):
    # a tiny inflation of tree:2's critical weight refutes no annulus; the
    # one count over the last annulus reads its rows as the whole-form
    # sweeps do and stops at a block start once the tail's floor is real
    model = make_tree(2, 30_001)
    sweeps = count_swept_rows(monkeypatch)
    # optimality holds its own name for the kernel: point it at the spy
    monkeypatch.setattr(optimality, "_negative_pivots", spectral_ops._negative_pivots)
    rep = inflation_refutation(model, 1e-12)
    assert rep.status == "inconclusive" and rep.residuals["sections_checked"] == 13
    [(x, negative, k, swept)] = sweeps
    assert (x, negative, k) == (-1e-9, 0, 29_999)
    assert swept % _SWEEP_BLOCK == 0 and swept < 29_999
