"""Green functions of radial models and the Hardy weight they induce.

The radial Green function of a transient model is G(r) = sum over n > r of
1/area(n), up to the usual normalization that drops out of every ratio used
here.  Applying the Rayleigh ratio construction to sqrt(G) instead of the
ground profile gives a second, classical weight to compare against; on
trees that comparison has exact closed forms and the optimal weight wins
pointwise with a margin that decays to zero.  Both the transience verdict
and the Green recursion read the degrees and kappa, not sphere sizes.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InconclusiveTransienceError,
    InvalidParameterError,
    NeedsTailError,
    NoGreenFunctionError,
    NotPositiveError,
)
from .hardy_weights import closed_form_weight
from .radial_model import _blocks_down, _window_blocks
from .reporting import VerificationReport

# The tail bound's arithmetic: 40 digits, and an exponent range that holds
# the areas of any stored depth.
_TAIL_CONTEXT = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def transience_test(model):
    """Decide whether sum 1/area converges, i.e. the model is transient.

    A finite tail is recurrent and a geometric tail is decided by whether
    kappa_inf exceeds 1.  With an unspecified tail the verdict comes from
    the stored window [depth/2, depth] and is an extrapolation: areas that
    stop growing there are read as bounded (recurrent), strictly convex
    growth (all first differences positive, all second differences strictly
    positive) is read as at-least-quadratic (transient).  Anything else
    raises InconclusiveTransienceError.  The signs are decided exactly from
    the degrees in the model's one pass over the window, which also reads
    the volumes for the Green tail bound (see ``RadialModel._tail_window``).
    """
    t = model.tail
    if t.kind == "finite":
        return False
    if t.kind == "eventually-geometric":
        return t.kappa_inf > 1
    verdict = model._tail_window.transient
    if verdict is None:
        raise InconclusiveTransienceError(
            "the stored window neither plateaus nor grows convexly; transience "
            "cannot be extrapolated from this data"
        )
    return verdict


def _decimal_of(x):
    """An int or Fraction as a Decimal, rounded once to the tail context."""
    x = Fraction(x)
    return _TAIL_CONTEXT.divide(decimal.Decimal(x.numerator), x.denominator)


def _atan(t):
    """atan(t) for t > 0 in the tail context: halve the argument with
    atan(t) = 2 atan(t / (1 + sqrt(1 + t**2))) until t < 1/100, then sum
    the series t - t**3/3 + t**5/5 - ..., whose terms shrink by a factor
    below 1e-4 each."""
    ctx = _TAIL_CONTEXT
    doublings = 0
    while t >= decimal.Decimal("0.01"):
        t = ctx.divide(t, ctx.add(1, ctx.sqrt(ctx.fma(t, t, 1))))
        doublings += 1
    t2, term, total, k = ctx.multiply(t, t), t, t, 1
    while True:
        term = ctx.multiply(term, t2)
        k += 2
        step = ctx.divide(term, k)
        if ctx.add(total, step) == total:
            break
        total = ctx.subtract(total, step) if k % 4 == 3 else ctx.add(total, step)
    return ctx.multiply(total, 2 ** doublings)


def _quadratic_tail_bound(window):
    """Bound sum over n > depth of 1/area(n), assuming window convexity persists.

    ``window`` is the ``areas`` of ``RadialModel._tail_window``, read as
    strictly convex growth by transience_test: A = area(depth), B the last
    first difference and C the smallest second difference in it.
    Persistence of convexity gives
    area(depth + j) >= A + B j + C j (j + 1) / 2, and the decreasing
    integrand bounds the sum by the integral from 0 to infinity of
    1 / (c + b x + a x**2) with c = A, b = B + C/2, a = C/2.

    The discriminant's sign is decided exactly.  The integral is evaluated
    in stdlib ``decimal`` at 40 digits (``_TAIL_CONTEXT``), whose exponent
    range holds the areas of any stored depth, in forms free of
    cancellation: with root**2 = |disc|, 2 atan(root / b) / root for
    disc < 0 (b > 0 on a convex window, so this is atan2(root, b)), and
    for disc > 0 log((b + root) / (b - root)) / root written as
    log1p(2 root (b + root) / (4 a c)) / root, whose 1 + x is formed
    exactly before the logarithm.  A bound below the double range rounds
    to 0.
    """
    last, d1_last, d2_min = window
    a = Fraction(d2_min) / 2
    b = d1_last + a
    c = Fraction(last)
    disc = b * b - 4 * a * c
    ctx = _TAIL_CONTEXT
    if disc == 0:
        return float(ctx.divide(2, _decimal_of(b)))
    root = ctx.sqrt(_decimal_of(abs(disc)))
    b = _decimal_of(b)
    if disc < 0:
        bound = ctx.divide(ctx.multiply(2, _atan(ctx.divide(root, b))), root)
    else:
        x = ctx.divide(ctx.multiply(ctx.multiply(2, root), ctx.add(b, root)),
                       _decimal_of(4 * a * c))
        exact = ctx.copy()
        exact.prec += max(0, -x.adjusted())
        bound = ctx.divide(ctx.ln(exact.add(1, x)), root)
    return float(bound)


@dataclass(frozen=True)
class GreenProfile:
    """G(r) for r = 0..r_max, with how the tail beyond depth was handled.

    ``log_values`` is the authoritative representation (see ``_log_green``);
    ``values`` is its exponential and underflows to 0 for display once G
    leaves the double range (fast-growing models reach that within a few
    hundred radii).
    tail_method "closed-form-geometric" means the tail was summed exactly
    and tail_error_bound is 0; "truncated-with-bound" means the values are
    lower bounds undershooting by at most tail_error_bound, conditional on
    the window convexity persisting.
    """

    values: np.ndarray
    log_values: np.ndarray
    tail_method: str
    tail_error_bound: float
    notes: tuple = ()

    @property
    def r_max(self):
        return int(self.values.shape[0] - 1)


def _log_kappa(model, b0, b1):
    """log kappa(r + 1) for r = b0..b1-1 (0 <= b0 < b1 < depth)."""
    return np.log(model._degree_block(b0 + 1, b1 + 1, exact=False)[4])


def _stretch_log(blocks, x):
    """l(s) from x = l(hi + 1), where ``blocks`` yields log kappa(r + 1) for
    r = s..hi (at least one radius) in consecutive arrays going up.  The
    areas do not fall there, so every value is >= 0, and 0 where they stay
    flat or kappa rounds to 1.

    area(s + 1) G(s) = sum_{k < K} exp(-c_k) + exp(x - c_K), K = hi + 1 - s,
    with c_k the sum of the first k values, nondecreasing from c_0 = 0:
    every term is at most 1 and the nearest ones dominate.  Each c_k is a
    cumsum plus the cumsum of its exact (TwoSum) rounding errors, formed
    one block at a time with (c, comp, rest) carried across blocks.  The
    term k = 0 is kept out of the sum, which enters log1p.  exp(x - c_K)
    cannot overflow: as the areas do not fall above hi, area(hi + 2)
    G(hi + 1) is at most depth + kappa_inf / (kappa_inf - 1), so x < 50.

    No block is read after the first where exp(-c) = 0 and exp((x - c) +
    |comp| + 1) < ulp(rest) / 4: c never falls, so the later terms are 0,
    and no TwoSum error exceeds its step, so |comp_K - comp| <= c_K - c
    and the closing term cannot move rest.
    """
    c = comp = rest = 0.0  # rest: the terms 1 <= k < K
    skip = 1  # the term k = 0
    for step in blocks:
        sums = np.cumsum(np.concatenate(([c], step)))
        prev, new = sums[:-1], sums[1:]
        back = new - prev
        errs = np.cumsum(np.concatenate(([comp], (prev - (new - back)) + (step - back))))
        terms = np.exp(-prev)
        terms -= terms * errs[:-1]  # exp(-c_k), to first order in the error
        rest += terms[skip:].sum()
        skip = 0
        c, comp = float(new[-1]), float(errs[-1])
        if math.exp(-c) == 0.0:
            if math.exp((x - c) + abs(comp) + 1.0) < math.ulp(rest) / 4:
                break
    return math.log1p(rest + math.exp((x - c) - comp))


def _log_green(model, r_max):
    """l(r) = log(area(r + 1) G(r)) on 0..r_max, and the GreenProfile
    (log G = l - log area) with its tail metadata.

    Works top down from l(depth - 1) = log(kappa_inf / (kappa_inf - 1)) for
    a geometric tail, or 0 for a truncated one, by G(r) = G(r + 1) +
    1/area(r + 1), i.e. l(r) = log(1 + exp(l(r + 1) - log kappa(r + 1))):
    a step contracting where kappa > 1, whose values stay of order one.

    On the top stretch [s, depth - 2], where s >= r_max is the smallest
    radius above which no area falls (decided exactly on the degrees), l(s)
    is one sum (see ``_stretch_log``) that reads log kappa in blocks going
    up until its terms vanish.  Below s the steps are taken one radius at a
    time, reading it in blocks going down, and so are the stretches above
    r_max where the areas fall: there the farthest terms of a sum would
    dominate, and rounding their exponents costs eps times their size.

    Each log kappa is formed at most once, one block of radii at a time
    (see ``RadialModel._degree_block``), and l(r) is kept for r <= r_max
    only, so the arrays held are of length r_max + 1 or of one block.
    """
    if not transience_test(model):
        raise NoGreenFunctionError(
            f"{model.label} is recurrent; no minimal positive Green function"
        )
    depth = model.depth
    t = model.tail
    if t.kind == "eventually-geometric":
        if t.start > depth:
            raise NeedsTailError("geometric behaviour starts beyond the stored depth")
        kap = float(t.kappa_inf)
        # sum_{n >= depth} 1/area(n) = kappa / (area(depth) (kappa - 1))
        x = math.log(kap / (kap - 1.0))  # l(depth - 1)
        method, bound, notes = "closed-form-geometric", 0.0, ()
    else:
        x = 0.0
        method = "truncated-with-bound"
        bound = _quadratic_tail_bound(model._tail_window.areas)
        notes = (
            "values are lower bounds; the stated bound assumes the stored "
            "window's convex growth persists",
        )
    # the top stretch [s, depth - 2]: one past the last r >= r_max at which
    # area(r + 2) < area(r + 1)
    s = r_max
    for b0, b1 in _blocks_down(r_max, depth - 1):
        falls = np.flatnonzero(model._areas_fall(b0 + 1, b1 + 1))
        if falls.size:
            s = b0 + int(falls[-1]) + 1
            break
    if s < depth - 1:  # the stretch is empty when r_max = depth - 1
        blocks = (_log_kappa(model, b0, b1) for b0, b1 in _window_blocks(s, depth - 1))
        x = _stretch_log(blocks, x)
    out = np.empty(r_max + 1)
    out[s:] = x  # l(s), when s = r_max
    kept = memoryview(out)
    for b0, b1 in _blocks_down(0, s):
        view = memoryview(_log_kappa(model, b0, b1))  # view[r - b0]: log kappa(r + 1)
        for r in range(b1 - 1, b0 - 1, -1):
            z = x - view[r - b0]  # then log(1 + exp(z)), without overflow
            x = z + math.log1p(math.exp(-z)) if z > 0 else math.log1p(math.exp(z))
            if r <= r_max:
                kept[r] = x
    log_values = out - model.log_area_floats(r_max + 1)[1:]
    with np.errstate(under="ignore"):
        values = np.exp(log_values)
    return out, GreenProfile(values=values, log_values=log_values, tail_method=method,
                             tail_error_bound=bound, notes=notes)


def green_function_exact(model, r_max):
    """G(0..r_max) as a list of exact Fractions, for a geometric tail.

    Starts from the exact geometric series value
    G(depth) = 1/(area(depth) (kappa_inf - 1)) and adds the stored terms in
    one pass down, G(r) = G(r + 1) + 1/area(r + 1).  This is the reference
    the floating route is tested against; on the d-ary tree it collapses to
    G(r) = 1/(area(r) (d - 1)).
    """
    t = model.tail
    if t.kind != "eventually-geometric" or not t.kappa_inf > 1:
        raise NoGreenFunctionError(
            "the exact route needs a geometric tail with kappa_inf > 1"
        )
    if not (0 <= r_max <= model.depth - 1):
        raise NeedsTailError("r_max must lie inside the stored range")
    areas = model.area_values(1, model.depth)  # areas[r] = area(r + 1)
    g = 1 / (Fraction(areas[-1]) * (t.kappa_inf - 1))
    values = []
    for r in range(model.depth - 1, -1, -1):
        g += Fraction(1, 1) / Fraction(areas[r])
        if r <= r_max:
            values.append(g)
    return values[::-1]


def green_weight(model, r_max):
    """Hardy weight obtained from sqrt(G), plus the profile it was built on.

    Returns (weights, profile) with weights[r] for r = 0..r_max.  On a tree
    this weight is the constant spectral-bottom value from radius 1 on.
    With h(r) = exp(-l(r)) = 1 - G(r + 1)/G(r) (see ``_log_green``) it is
    k_plus(r) (1 - sqrt(1 - h(r))) + k_minus(r) (1 - 1/sqrt(1 - h(r - 1))).
    As 1 - h(r - 1) = 1/(1 + kappa(r) h(r)), for r >= 1 that is the single
    positive term k_plus h**2 (kappa + 1) / ((1 + s)(1 + t)(t + s)), with
    s = sqrt(1 - h), t = sqrt(1 + kappa h): no cancellation, and depth is
    limited by the stored data, not by floating underflow of G itself.
    """
    if r_max > model.depth - 2:
        raise NeedsTailError(f"the weight at {r_max} needs depth > {r_max + 1}")
    ell, profile = _log_green(model, r_max)
    if not np.all(np.isfinite(ell)):
        raise NotPositiveError("Green recursion produced non-finite logs")
    with np.errstate(under="ignore"):
        h = np.exp(-ell)
    s = np.sqrt(-np.expm1(-ell))  # sqrt(G(r + 1) / G(r))
    kappa = model.kappa_floats(r_max)[1:]
    t = np.sqrt(1.0 + kappa * h[1:])
    w = model.k_plus_floats(r_max) * h
    w[0] /= 1.0 + s[0]
    w[1:] *= h[1:] * (kappa + 1.0) / ((1.0 + s[1:]) * (1.0 + t) * (t + s[1:]))
    return w, profile


def _kappa_constant_from(model):
    """The smallest radius r0 >= 1 with kappa constant on [r0, depth - 1].

    One past the last radius whose kappa differs from kappa(depth - 1),
    found block by block from the top down to the first block that holds
    one.  Equal ratios round to equal floats, so only float ties need the
    exact cross-product check, on the exact degrees of their block.
    """
    end = model.depth - 1
    kap_end = model._degree_block(end, end + 1, exact=False)[4][0]
    kp_end, km_end = model.k_plus(end), model.k_minus(end)
    for s, e in _blocks_down(1, end):
        _, _, kp, km, kappa = model._degree_block(s, e, exact=False)
        same = kappa == kap_end
        ties = np.flatnonzero(same)
        if ties.size:
            if kp is None:  # exact degrees that kappa did not need
                kp, km = model._degree_block(s, e)[2:4]
            same[ties] = kp[ties] * km_end == kp_end * km[ties]
        breaks = np.flatnonzero(~same)
        if breaks.size:
            return s + int(breaks[-1]) + 1
    return 1


@dataclass(frozen=True)
class GreenComparison:
    """Pointwise comparison of the optimal weight against the Green weight.

    Arrays are indexed by radius; entry 0 is NaN because the gamma = 0
    optimal weight has no origin value.  ``kappa_constant_from`` is the
    smallest radius from which the stored kappa is constant.
    """

    w_optimal: np.ndarray
    w_green: np.ndarray
    margins: np.ndarray
    green_profile: GreenProfile
    kappa_constant_from: int
    report: VerificationReport


def compare_to_green(model, r_max):
    """Check that the gamma = 0 weight dominates the Green weight.

    The domination claim (nonnegative margins, decreasing to zero) is proved
    for models whose kappa is eventually a constant larger than 1; on other
    models the margins are still computed and reported, but the status is
    hypothesis-not-met.  Needs r_max <= depth - 2.
    """
    if r_max < 3:
        raise InvalidParameterError("r_max must be at least 3 to see a trend")
    tol = 1e-10
    w_opt = closed_form_weight(model, 0, r_max).values
    w_g, profile = green_weight(model, r_max)
    margins = w_opt - w_g
    margins[0] = np.nan

    kap_end = model.kappa(model.depth - 1)
    r0 = _kappa_constant_from(model)
    t = model.tail
    hypothesis_met = (
        t.kind == "eventually-geometric"
        and t.kappa_inf == kap_end
        and kap_end > 1
        and r0 <= r_max
    )

    start = max(1, r0)
    region = margins[start: r_max + 1]
    diffs = np.diff(region)
    min_margin = float(np.min(margins[1: r_max + 1]))
    final_margin = float(margins[r_max])
    max_increase = float(np.max(diffs)) if diffs.size else 0.0

    if not hypothesis_met:
        status = "hypothesis-not-met"
    elif min_margin >= -tol and max_increase <= tol:
        status = "pass"
    else:
        status = "fail"

    notes = []
    if profile.tail_method == "truncated-with-bound":
        notes.append(
            "green values truncated; margins carry the profile's tail uncertainty"
        )
    if not hypothesis_met:
        notes.append(
            "kappa is not eventually a constant > 1 here, so domination is "
            "not asserted; margins are informational"
        )
    report = VerificationReport(
        check="weight-dominates-green",
        status=status,
        residuals={
            "min_margin": min_margin,
            "final_margin": final_margin,
            "max_increase": max_increase,
            "tail_error_bound": profile.tail_error_bound,
        },
        params={
            "model": model.label,
            "r_max": r_max,
            "tol": tol,
            "kappa_constant_from": r0,
        },
        notes=tuple(notes),
    )
    return GreenComparison(
        w_optimal=w_opt,
        w_green=w_g,
        margins=margins,
        green_profile=profile,
        kappa_constant_from=r0,
        report=report,
    )
