"""Green functions of radial models and the Hardy weight they induce.

The radial Green function of a transient model is G(r) = sum over n > r of
1/area(n), up to the usual normalization that drops out of every ratio used
here.  Applying the Rayleigh ratio construction to sqrt(G) instead of the
ground profile gives a second, classical weight to compare against; on
trees that comparison has exact closed forms and the optimal weight wins
pointwise with a margin that decays to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import (
    InconclusiveTransienceError,
    InvalidParameterError,
    NeedsTailError,
    NoGreenFunctionError,
    NotPositiveError,
)
from .hardy_weights import _mpf_of, closed_form_weight
from .reporting import VerificationReport


def _area_window(model):
    """area(depth) and the exact first and second differences of the areas
    on the window [depth/2, depth]."""
    areas = model.area_values(max(1, model.depth // 2), model.depth)
    last, d1 = areas[-1], np.diff(areas)
    del areas  # exact areas can be large; hold at most two arrays at once
    return last, d1, np.diff(d1)


def transience_test(model):
    """Decide whether sum 1/area converges, i.e. the model is transient.

    A finite tail is recurrent and a geometric tail is decided by whether
    kappa_inf exceeds 1.  With an unspecified tail the verdict comes from
    the stored window [depth/2, depth] and is an extrapolation: areas that
    stop growing there are read as bounded (recurrent), strictly convex
    growth (all first differences positive, all second differences strictly
    positive) is read as at-least-quadratic (transient).  Anything else
    raises InconclusiveTransienceError.
    """
    t = model.tail
    if t.kind == "finite":
        return False
    if t.kind == "eventually-geometric":
        return t.kappa_inf > 1
    _, d1, d2 = _area_window(model)
    if d1.size and np.all(d1 <= 0):
        return False
    if d2.size and np.all(d1 > 0) and d2.min() > 0:
        return True
    raise InconclusiveTransienceError(
        "the stored window neither plateaus nor grows convexly; transience "
        "cannot be extrapolated from this data"
    )


def _quadratic_tail_bound(model):
    """Bound sum over n > depth of 1/area(n), assuming window convexity persists.

    With A = area(depth), B the last first difference and C the smallest
    second difference in the window, persistence of convexity gives
    area(depth + j) >= A + B j + C j (j + 1) / 2, and the decreasing
    integrand bounds the sum by the integral from 0 to infinity of
    1 / (c + b x + a x**2) with c = A, b = B + C/2, a = C/2.

    The discriminant's sign is decided exactly.  The integral is evaluated
    at 30 digits in mpmath, whose exponent range holds the areas of any
    stored depth, in forms free of cancellation: with root**2 = |disc|,
    2 atan(root / b) / root for disc < 0, and for disc > 0
    log((b + root) / (b - root)) / root written as
    log1p(2 root (b + root) / (4 a c)) / root.  A bound below the double
    range rounds to 0.
    """
    last, d1, d2 = _area_window(model)
    if not d2.size or not np.all(d1 > 0) or not d2.min() > 0:
        raise InconclusiveTransienceError(
            "no convex growth in the stored window, cannot bound the tail"
        )
    a = Fraction(d2.min()) / 2
    b = d1[-1] + a
    c = Fraction(last)
    disc = b * b - 4 * a * c
    with mpmath.workdps(30):
        a, b, c = _mpf_of(a), _mpf_of(b), _mpf_of(c)
        if disc < 0:
            root = mpmath.sqrt(_mpf_of(-disc))
            bound = 2 * mpmath.atan2(root, b) / root
        elif disc == 0:
            bound = 2 / b
        else:
            root = mpmath.sqrt(_mpf_of(disc))
            bound = mpmath.log1p(2 * root * (b + root) / (4 * a * c)) / root
    return float(bound)


@dataclass(frozen=True)
class GreenProfile:
    """G(r) for r = 0..r_max, with how the tail beyond depth was handled.

    ``log_values`` is the authoritative representation; ``values`` is its
    exponential and underflows to 0 for display once G leaves the double
    range (fast-growing models reach that within a few hundred radii).
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


def _log_green(model):
    """log G(r) for r = 0..depth-1 in extended precision, plus tail metadata.

    Works top down: log G(r) = logaddexp(log G(r+1), -log area(r+1)), which
    never under- or overflows and keeps adjacent values accurate enough to
    take ratios of (the weight construction only ever uses ratios).  The
    recursion runs as one accumulate over the reversed terms.
    """
    if not transience_test(model):
        raise NoGreenFunctionError(
            f"{model.label} is recurrent; no minimal positive Green function"
        )
    depth = model.depth
    la = model.log_area_floats(depth)
    # terms[0] is log G(depth - 1); terms[k] = -log area(depth - k) after it
    terms = np.empty(depth, dtype=np.longdouble)
    np.negative(la[depth - 1: 0: -1], out=terms[1:])
    t = model.tail
    if t.kind == "eventually-geometric":
        if t.start > depth:
            raise NeedsTailError("geometric behaviour starts beyond the stored depth")
        kap = float(t.kappa_inf)
        # sum_{n >= depth} 1/area(n) = kappa / (area(depth) (kappa - 1))
        terms[0] = -np.longdouble(la[depth]) + math.log(kap / (kap - 1.0))
        method, bound, notes = "closed-form-geometric", 0.0, ()
    else:
        terms[0] = -np.longdouble(la[depth])
        method = "truncated-with-bound"
        bound = _quadratic_tail_bound(model)
        notes = (
            "values are lower bounds; the stated bound assumes the stored "
            "window's convex growth persists",
        )
    return np.logaddexp.accumulate(terms, out=terms)[::-1], method, bound, notes


def green_function(model, r_max):
    """Radial Green profile on 0..r_max.

    Raises NoGreenFunctionError on recurrent models and propagates
    InconclusiveTransienceError when the data cannot decide.  Needs
    r_max <= depth - 1 so the partial sums have at least one stored term
    past every requested radius.
    """
    if r_max < 0:
        raise InvalidParameterError("r_max must be nonnegative")
    if r_max > model.depth - 1:
        raise NeedsTailError(
            f"green values to radius {r_max} need stored areas past depth {model.depth}"
        )
    logg, method, bound, notes = _log_green(model)
    log_values = np.asarray(logg[: r_max + 1], dtype=float)
    with np.errstate(under="ignore"):
        values = np.exp(log_values)
    return GreenProfile(
        values=values,
        log_values=log_values,
        tail_method=method,
        tail_error_bound=bound,
        notes=notes,
    )


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
    g = 1 / (Fraction(model.area(model.depth)) * (t.kappa_inf - 1))
    values = []
    for r in range(model.depth - 1, -1, -1):
        g += Fraction(1, 1) / Fraction(model.area(r + 1))
        if r <= r_max:
            values.append(g)
    return values[::-1]


def green_weight(model, r_max):
    """Hardy weight obtained from sqrt(G), plus the profile it was built on.

    Returns (weights, profile) with weights[r] for r = 0..r_max.  On a tree
    this weight is the constant spectral-bottom value from radius 1 on.
    The square roots are taken on log ratios, so depth is limited by the
    stored data, not by floating underflow of G itself.
    """
    if r_max > model.depth - 2:
        raise NeedsTailError(f"the weight at {r_max} needs depth > {r_max + 1}")
    logg, method, bound, notes = _log_green(model)
    if not np.all(np.isfinite(logg[: r_max + 2])):
        raise NotPositiveError("Green recursion produced non-finite logs")
    w = np.empty(r_max + 1)
    for r in range(r_max + 1):
        term = float(model.k_plus(r)) * -math.expm1(0.5 * float(logg[r + 1] - logg[r]))
        if r > 0:
            term += float(model.k_minus(r)) * -math.expm1(0.5 * float(logg[r - 1] - logg[r]))
        w[r] = term
    log_values = np.asarray(logg[: r_max + 1], dtype=float)
    with np.errstate(under="ignore"):
        values = np.exp(log_values)
    profile = GreenProfile(
        values=values,
        log_values=log_values,
        tail_method=method,
        tail_error_bound=bound,
        notes=notes,
    )
    return w, profile


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


def compare_to_green(model, r_max, tol=1e-10):
    """Check that the gamma = 0 weight dominates the Green weight.

    The domination claim (nonnegative margins, decreasing to zero) is proved
    for models whose kappa is eventually a constant larger than 1; on other
    models the margins are still computed and reported, but the status is
    hypothesis-not-met.  Needs r_max <= depth - 2.
    """
    if r_max < 3:
        raise InvalidParameterError("r_max must be at least 3 to see a trend")
    w_opt = closed_form_weight(model, 0, r_max).values
    w_g, profile = green_weight(model, r_max)
    margins = w_opt - w_g
    margins[0] = np.nan

    end = model.depth - 1
    kap_end = model.kappa(end)
    # equal ratios round to equal floats, so only float ties need the exact
    # cross-product check
    kap = model.kappa_floats(end)
    kp, km = model.exact_degrees(end)
    same = kap[1:end] == kap[end]
    ties = np.flatnonzero(same) + 1
    same[ties - 1] = kp[ties] * km[end] == kp[end] * km[ties]
    breaks = np.flatnonzero(~same)
    r0 = int(breaks[-1]) + 2 if breaks.size else 1
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
