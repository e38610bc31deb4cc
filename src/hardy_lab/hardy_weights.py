"""Optimal Hardy weights for radial models.

The construction starts from the ground profile

    u(0) = gamma,   u(r) = r / area(r)   (r >= 1),

takes its square root v = sqrt(u), and defines the weight as the Rayleigh
ratio w(r) = (difference operator applied to v)(r) / v(r).  Two independent
routes to w are kept side by side on purpose:

  * ``fitzsimmons_weight`` evaluates the ratio numerically from exact ground
    values, integer pairs over one area array (``_ground_pairs``): the
    square root of each ratio of consecutive values is one integer square
    root of a quotient of exact integers, floored at a fixed number of bits
    after the point, and the weight one exact quotient rounded once, so
    that depth never degrades the result (u decays like 1/area and
    underflows doubles on fast-growing models);
  * ``general_closed_form`` and ``tree_weight`` evaluate the algebraic
    closed forms, which involve only the degree ratio kappa.

Agreement of the two routes is a test obligation, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, SeriesDivergenceRiskError
from .radial_model import _as_exact, _objects
from .reporting import VerificationReport

DEFAULT_DPS = 40

# radii per block of the array closed form
_CLOSED_FORM_BLOCK = 8192
_OBJECT_BLOCK = 1024
# radii per block of the ratio route's big-int cross products
_RATIO_BLOCK = 64
# bits past the dps digits to which the ratio route floors its square roots
_GUARD_BITS = 8


def tree_bottom_of_spectrum(d):
    """Bottom of the spectrum (sqrt(d) - 1)**2 of the forward-regular tree."""
    if d < 1:
        raise InvalidParameterError("branching number must be at least 1")
    return (math.sqrt(d) - 1.0) ** 2


def _check_gamma(gamma):
    # exact like the radial data: a float gamma is taken at its binary value
    gamma = Fraction(_as_exact(gamma, "gamma"))
    # the float routes read float(gamma): it must not overflow, nor round to 0;
    # the message shows no value, which may have hundreds of digits
    try:
        fits = not gamma or float(gamma) > 0
    except OverflowError:
        fits = False
    if not fits:
        raise InvalidParameterError("gamma must be 0 or positive within the float64 "
                                    "range, about [5e-324, 1.8e308]")
    return gamma


def _ground_pairs(model, gamma, r_max):
    """u(0..r_max) as unreduced integer pairs u(r) = p[r] / q[r], from one
    ``area_values`` call; u(0) is the checked gamma.  Quotients of the pairs
    are correctly rounded, so they depend on the value of u alone."""
    if r_max < 1:
        raise InvalidParameterError("r_max must be at least 1")
    areas = model.area_values(1, r_max)
    p = [gamma.numerator, *(r * a.denominator for r, a in enumerate(areas, 1))]
    q = [gamma.denominator, *(a.numerator for a in areas)]
    return p, q


def _scaled_float(n, bits):
    """n / 2**bits for an int or Fraction n, rounded once to float, and
    +-inf past the float range."""
    try:
        return n.numerator / (n.denominator << bits)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


_isqrt_each = np.frompyfunc(math.isqrt, 1, 1)
_scaled_float_each = np.frompyfunc(_scaled_float, 2, 1)


def _rational_root(a, b):
    """sqrt(a / b) as a Fraction when it is rational, else None: sqrt(a / b)
    is sqrt(a b) / b, rational exactly when a b is a perfect square."""
    s = math.isqrt(a * b)
    return Fraction(s, b) if s * s == a * b else None


def _exact_weight(kp, km, outward, inward):
    """kp (1 - sqrt(x / y)) + km (1 - sqrt(y' / x')) exactly, for
    outward = (x, y) and inward = (y', x') or None at the origin, or None
    when a root is irrational (the weight is then not 0)."""
    roots = [_rational_root(*outward)] + ([] if inward is None else [_rational_root(*inward)])
    if None in roots:
        return None
    return kp * (1 - roots[0]) + (0 if inward is None else km * (1 - roots[1]))


def fitzsimmons_weight(model, gamma, r_max, dps=DEFAULT_DPS):
    """Weight profile from the ground ratio, computed numerically.

    With u = p / q (``_ground_pairs``), the exact cross products
    x = p(r + 1) q(r) and y = q(r + 1) p(r) give u(r + 1) / u(r) = x / y at
    r and u(r) / u(r + 1) = y / x at r + 1.  Each square root is floored to
    P = ceil(dps log2 10) + _GUARD_BITS bits after the point as one integer
    square root, floor(2**P sqrt(x / y)) = isqrt((x << 2P) // y), so ``dps`` sets
    the digits after the point that the roots carry.  The weight
    k_plus(r) (1 - sqrt(x / y)) + k_minus(r) (1 - sqrt(y / x)) is then one
    exact int (or Fraction, for Fraction degrees) N over 2**P, rounded to
    float once; past the float range it is +-inf.  Each floor is less than
    one unit low, so the weight lies in (N - k_plus - k_minus, N] / 2**P:
    where N falls in [0, k_plus + k_minus) the weight may be exactly 0, and
    it is decided exactly, since it is 0 only where both roots are rational.
    The degrees are the stored ``k_plus(r)``, ``k_minus(r)``: no view is
    shared with the closed forms.  Entries below the support (the origin
    when gamma = 0) are 0.  Needs radial data one sphere past r_max.
    """
    gamma = _check_gamma(gamma)
    p, q = _ground_pairs(model, gamma, r_max + 1)
    bits = math.ceil(dps * math.log2(10)) + _GUARD_BITS
    one = 1 << bits
    w = np.zeros(r_max + 1)
    # blocks keep the shifted big-int temporaries small on fast-growing areas
    for lo in range(0 if gamma > 0 else 1, r_max + 1, _RATIO_BLOCK):
        hi = min(lo + _RATIO_BLOCK, r_max + 1)  # radii lo..hi-1
        s = max(lo - 1, 0)
        pb, qb = np.array(p[s:hi + 1], dtype=object), np.array(q[s:hi + 1], dtype=object)
        x, y = pb[1:] * qb[:-1], qb[1:] * pb[:-1]  # radii s..hi-1
        outward = _isqrt_each((x[lo - s:] << 2 * bits) // y[lo - s:])
        inward = _isqrt_each((y[:hi - 1 - s] << 2 * bits) // x[:hi - 1 - s])
        if lo == 0:  # the origin has no inward term
            inward = np.concatenate(([one], inward))
        kp, km = _objects(model._k_plus[lo:hi]), _objects(model._k_minus[lo:hi])
        num = kp * (one - outward) + km * (one - inward)
        w[lo:hi] = _scaled_float_each(num, bits)
        for i in np.flatnonzero((num >= 0) & (num < kp + km)):
            r = lo + i
            exact = _exact_weight(kp[i], km[i], (x[r - s], y[r - s]),
                                  None if r == 0 else (y[r - 1 - s], x[r - 1 - s]))
            if exact is not None:
                w[r] = _scaled_float(exact, 0)
    return w


def _pair_defect(x):
    # one expression for scalars and arrays, so both round identically
    s = np.sqrt(1.0 - x * x)
    return 2.0 * x * x / ((1.0 + s) * (2.0 + np.sqrt(1.0 + x) + np.sqrt(1.0 - x)))


def sqrt_pair_defect(x):
    """2 - sqrt(1 + x) - sqrt(1 - x) for 0 <= x <= 1, without cancellation.

    The direct expression loses half its digits near x = 0; multiplying by
    the conjugate twice gives the equal, stable form

        2 x**2 / ((1 + sqrt(1 - x**2)) (2 + sqrt(1 + x) + sqrt(1 - x))).
    """
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError("x must lie in [0, 1]")
    return float(_pair_defect(float(x)))


def _origin_weight(model, gamma):
    a1 = float(model.area(1))
    return float(model.k_plus(0)) * (1.0 - 1.0 / math.sqrt(float(gamma) * a1))


def _closed_form(model, gamma, r_lo, r_hi):
    """The closed form divided by k_minus(r), and its floor, on r_lo..r_hi.

    Needs 1 <= r_lo <= r_hi.  Returns (brackets, floors, applicable), entry
    i belonging to radius r_lo + i: ``brackets`` is w(r) / k_minus(r) in the
    grouping documented at general_closed_form, ``floors`` is
    (sqrt(kappa(r)) - 1)**2 + sqrt(kappa(r)) / (4 r**2), and ``applicable``
    tells whether kappa(r - 1) <= kappa(r).  Radius 1 has no floor (NaN,
    not applicable).  The kappa difference is the cross product
    k_plus(r) k_minus(r-1) - k_plus(r-1) k_minus(r), exact on the arrays
    of exact_degrees, over k_minus(r) k_minus(r-1), rounded once.  Blocks
    of radii keep the temporaries small at depth 1e5; they are 8 times
    shorter on exact degrees that are Python ints, an object each.
    """
    kap = model.kappa_floats(r_hi)
    kp, km = model.exact_degrees(r_hi)
    n = r_hi - r_lo + 1
    brackets = np.empty(n)
    floors = np.full(n, np.nan)
    applicable = np.zeros(n, dtype=bool)
    if r_lo == 1:
        k1 = float(kap[1])
        a1 = float(model.area(1))
        brackets[0] = 1.0 + k1 - math.sqrt(2.0 * k1) - math.sqrt(float(gamma) * a1)
    block = _OBJECT_BLOCK if kp.dtype == object else _CLOSED_FORM_BLOCK
    for lo in range(max(r_lo, 2), r_hi + 1, block):
        hi = min(lo + block - 1, r_hi)
        p, q = kp[lo - 1: hi + 1], km[lo - 1: hi + 1]
        cross = p[1:] * q[:-1] - p[:-1] * q[1:]
        diff = np.asarray(cross / (q[1:] * q[:-1]), dtype=float)
        sk_prev = np.sqrt(kap[lo - 1: hi])
        sk = np.sqrt(kap[lo: hi + 1])
        r = np.arange(lo, hi + 1, dtype=float)
        x = 1.0 / r
        square = (sk - 1.0) ** 2
        out = slice(lo - r_lo, hi - r_lo + 1)
        brackets[out] = (square
                         + sk * _pair_defect(x)
                         + diff * np.sqrt(1.0 - x) / (sk + sk_prev))
        floors[out] = square + sk / (4.0 * r * r)
        applicable[out] = cross >= 0
    return brackets, floors, applicable


def _kappa_longdouble(kp, km):
    """kappa(1..) in longdouble from ``exact_degrees`` arrays; entry 0 is NaN.

    Each entry is the exact ratio rounded once.  Integers below 2**53 (the
    float views) and, where the significand has 64 bits, integers below
    2**64 convert exactly, so one longdouble division rounds like the
    reduced Fraction does; other data goes through Fraction per radius.
    """
    kap = np.empty(kp.shape[0], dtype=np.longdouble)
    kap[0] = np.nan
    kp, km = kp[1:], km[1:]
    if kp.dtype == object and (
            np.finfo(np.longdouble).nmant >= 63
            and set(map(type, kp)) | set(map(type, km)) == {int}
            and max(kp.max(), km.max()) < 2 ** 64):
        kp, km = kp.astype(np.uint64), km.astype(np.uint64)
    if kp.dtype == object:
        kap[1:] = [np.longdouble(f.numerator) / np.longdouble(f.denominator)
                   for f in map(Fraction, kp, km)]
    else:
        np.divide(kp, km, out=kap[1:], dtype=np.longdouble)
    return kap


def general_closed_form(model, gamma, r):
    """Closed form of the weight at one radius, for any radial model.

        r = 0:   k_plus(0) (1 - 1 / sqrt(gamma area(1)))          (gamma > 0)
        r = 1:   k_minus(1) (1 + kappa(1) - sqrt(2 kappa(1))
                                          - sqrt(gamma area(1)))
        r >= 2:  k_minus(r) (1 + kappa(r) - sqrt(kappa(r) (1 + 1/r))
                                          - sqrt(kappa(r-1) (1 - 1/r)))

    The r >= 2 value is evaluated in the equal, cancellation-free grouping

        (sqrt(kappa(r)) - 1)**2 + sqrt(kappa(r)) sqrt_pair_defect(1/r)
        + (kappa(r) - kappa(r-1)) sqrt(1 - 1/r)
          / (sqrt(kappa(r)) + sqrt(kappa(r-1)))

    where the kappa difference is taken exactly;
    for kappa near 1 the naive form would keep only half the digits.
    closed_form_weight evaluates the same arrays over a whole range.
    """
    gamma = _check_gamma(gamma)
    if r == 0:
        if not gamma > 0:
            raise InvalidParameterError("the weight at the origin needs gamma > 0")
        return _origin_weight(model, gamma)
    brackets, _, _ = _closed_form(model, gamma, r, r)
    return float(model.k_minus(r)) * float(brackets[0])


def tree_weight(d, gamma, r):
    """Tree weight written around the spectral bottom lambda0 = (sqrt(d)-1)**2.

        r = 0:   lambda0 + sqrt(d) (2 - 1/sqrt(gamma)) - 1        (gamma > 0)
        r = 1:   lambda0 + sqrt(d) (2 - sqrt(2) - sqrt(gamma))
        r >= 2:  lambda0 + sqrt(d) (2 - sqrt(1 - 1/r) - sqrt(1 + 1/r))

    Algebraically equal to general_closed_form on the tree model; the tests
    hold both routes to that.
    """
    gamma = _check_gamma(gamma)
    lam = tree_bottom_of_spectrum(d)
    rt = math.sqrt(d)
    g = float(gamma)
    if r == 0:
        if not gamma > 0:
            raise InvalidParameterError("the weight at the origin needs gamma > 0")
        return lam + rt * (2.0 - 1.0 / math.sqrt(g)) - 1.0
    if r == 1:
        return lam + rt * (2.0 - math.sqrt(2.0) - math.sqrt(g))
    return lam + rt * sqrt_pair_defect(1.0 / r)


# -- large-radius expansion on trees ----------------------------------------

def _series_coefficient(n):
    # exact coefficient of r**(-n), n even >= 2
    return Fraction(2 * math.comb(2 * n, n), 4 ** n * (2 * n - 1))


def _check_series_args(r, n_max):
    if r < 2:
        raise SeriesDivergenceRiskError(
            "the expansion converges for r > 1 only; refuse r < 2 where the "
            "geometric remainder control is void"
        )
    if n_max < 2 or n_max % 2 != 0:
        raise InvalidParameterError("n_max must be an even integer >= 2")


def series_expansion(d, r, n_max):
    """Truncated large-radius expansion of the tree weight.

    w(r) = lambda0 + sqrt(d) sum over even n >= 2 of c_n r**(-n), with
    c_n = 2 binom(2n, n) / (4**n (2n - 1)); the n = 2 term is the familiar
    1/(4 r**2).  Truncation keeps terms up to n_max inclusive.
    """
    _check_series_args(r, n_max)
    total = 0.0
    for n in range(2, n_max + 1, 2):
        total += float(_series_coefficient(n)) / float(r) ** n
    return tree_bottom_of_spectrum(d) + math.sqrt(d) * total


def series_remainder_bound(d, r, n_max):
    """Rigorous bound on the truncation error of series_expansion.

    The coefficients c_n decrease, so the omitted tail is at most the first
    omitted term times the geometric factor 1 / (1 - r**-2).  The bare first
    omitted term alone is NOT an upper bound; tests compare against this
    corrected bound.
    """
    _check_series_args(r, n_max)
    first_omitted = math.sqrt(d) * float(_series_coefficient(n_max + 2)) / float(r) ** (n_max + 2)
    return first_omitted / (1.0 - 1.0 / float(r) ** 2)


# -- admissible gamma range and pointwise bounds -----------------------------

@dataclass(frozen=True)
class GammaIntervals:
    """Ranges of gamma for which the ground profiles behave.

    ``ground`` keeps u superharmonic near the origin, ``sqrt_ground`` keeps
    sqrt(u) superharmonic there (equivalently the weight nonnegative), and
    ``joint`` is their intersection, which is ``ground``: for every k > 0,
    k - 1 <= (1 + k - sqrt(2 k))**2, with equality only at k = 2 (with
    y = sqrt(2 k) - 1 the difference is (y - 1)**2 (y**2 + 2 y + 3) / 4).
    Ends are exact Fractions, except the sqrt_ground upper end which
    involves a square root.  An interval with upper < lower is empty.
    """

    ground: tuple
    sqrt_ground: tuple
    joint: tuple

    def joint_contains(self, gamma):
        lo, hi = self.joint
        return lo <= gamma <= hi


def gamma_intervals(model):
    """Admissible gamma ranges determined by the data at radii 1 and 2."""
    a1 = Fraction(model.area(1))
    kap1 = model.kappa(1)
    lo, ground_hi = 1 / a1, (kap1 - 1) / a1
    k1 = float(kap1)
    sqrt_hi = (1.0 + k1 - math.sqrt(2.0 * k1)) ** 2 / float(a1)
    return GammaIntervals(
        ground=(lo, ground_hi),
        sqrt_ground=(lo, sqrt_hi),
        joint=(lo, ground_hi),
    )


@dataclass(frozen=True)
class WeightProfile:
    """A weight profile with its provenance and pointwise floor.

    ``values[r]`` is the weight at radius r; entries below ``r_min`` are 0
    (for gamma = 0 the origin carries no weight).  ``floor_values`` holds
    the pointwise lower bound where its hypothesis applies and NaN
    elsewhere.  ``admissible`` records whether gamma lies in the joint
    interval of gamma_intervals (gamma = 0 counts as the degenerate
    admissible choice).
    """

    values: np.ndarray
    gamma: object
    r_min: int
    admissible: bool
    floor_values: np.ndarray
    notes: tuple = ()

    @property
    def r_max(self):
        return int(self.values.shape[0] - 1)


def closed_form_weight(model, gamma, r_max):
    """WeightProfile on radii 0..r_max from the closed forms."""
    gamma = _check_gamma(gamma)
    if not isinstance(r_max, (int, np.integer)) or r_max < 2:
        raise InvalidParameterError(f"r_max must be an integer >= 2, got {r_max!r}")
    r_min = 0 if gamma > 0 else 1
    values = np.zeros(r_max + 1)
    if gamma > 0:
        values[0] = _origin_weight(model, gamma)
    brackets, floor_brackets, applicable = _closed_form(model, gamma, 1, r_max)
    km = model.k_minus_floats(r_max)[1:]
    values[1:] = km * brackets
    floors = np.full(r_max + 1, np.nan)
    floors[1:][applicable] = km[applicable] * floor_brackets[applicable]
    notes = []
    if gamma > 0:
        admissible = gamma_intervals(model).joint_contains(gamma)
        if not admissible:
            notes.append(
                "gamma lies outside the joint admissible interval; the weight "
                "or a superharmonicity condition fails near the origin"
            )
    else:
        admissible = True
        notes.append("gamma = 0 leaves the origin out of the weight's support")
    return WeightProfile(
        values=values,
        gamma=gamma,
        r_min=r_min,
        admissible=admissible,
        floor_values=floors,
        notes=tuple(notes),
    )


# -- superharmonicity checks --------------------------------------------------

def check_superharmonic_ground(model, gamma, r_max):
    """Verify that the ground profile u is superharmonic up to r_max.

    The defect (difference operator applied to u) is evaluated in exact
    arithmetic, so the verdict at equality cases (antitrees sit exactly on
    the boundary) does not hinge on float rounding.  By area compatibility,
    defect(r) / u(r) = k_minus(r) margin(r) for r >= 2, with the kappa-form
    margin(r) = kappa(r) - 1/r - (1 - 1/r) kappa(r - 1), also reported; at
    r <= 1 the ratios are two exact gamma terms.  For gamma = 0 the origin
    is excluded: u vanishes there and the check starts at radius 1.
    """
    gamma = _check_gamma(gamma)
    if r_max < 2:
        raise InvalidParameterError("r_max must be at least 2")

    # kappa(r) - 1/r - (1 - 1/r) kappa(r - 1) as num / (r q(r) q(r - 1)), p = k_plus,
    # q = k_minus; the triple products pass 2**53, so they are taken on Python ints
    # (float views hold ints below 2**27) or Fractions, and each quotient rounded once
    p, q = (a if a.dtype == object else a.astype(np.int64).astype(object)
            for a in model.exact_degrees(r_max))
    r = np.arange(2, r_max + 1, dtype=object)
    num = r * p[2:] * q[1:-1] - q[2:] * q[1:-1] - (r - 1) * p[1:-1] * q[2:]
    kappa_margin = float(min(num / (r * q[2:] * q[1:-1])))

    # defect / u at r = 0 (gamma > 0 only) and 1, then num / (r q(r - 1)) at
    # r >= 2, each rounded once and minimized in radius order
    ga1, km1 = gamma * model.area(1), model.k_minus(1)
    low = [model.k_plus(1) - km1 - km1 * ga1]
    if gamma > 0:
        low.insert(0, model.k_plus(0) * (1 - 1 / ga1))
    worst_ratio = min(map(float, [*low, *num / (r * q[1:-1])]))
    bad_low = min(low) < 0
    bad_high = min(num) < 0

    # For r >= 2 the defect sign is gamma-free and equivalent to the kappa
    # margin; a violation there means the model, not the run, is out of
    # scope.  Violations at r <= 1 mean gamma left its admissible interval.
    notes = []
    if gamma == 0:
        notes.append("origin excluded: u(0) = 0 for gamma = 0")
    if bad_high:
        status = "hypothesis-not-met"
        notes.append(
            "kappa-form condition fails at some r >= 2; the ground profile "
            "is not superharmonic on this model for any gamma"
        )
    elif bad_low:
        status = "hypothesis-not-met"
        notes.append("gamma lies outside the admissible ground interval")
    else:
        status = "pass"
    return VerificationReport(
        check="superharmonic-ground",
        status=status,
        residuals={
            "min_defect_ratio": worst_ratio,
            "min_kappa_margin": kappa_margin,
        },
        params={
            "model": model.label,
            "gamma": gamma,
            "r_max": r_max,
        },
        notes=tuple(notes),
    )


def check_superharmonic_sqrt_ground(model, gamma, r_max):
    """Verify that sqrt(u) is superharmonic, i.e. the weight is nonnegative.

    Uses the numerically computed Rayleigh ratio at ``dps`` digits, which is
    the definition rather than the closed form, and additionally reports the
    kappa-form margin min over r >= 2 of

        (1 + kappa(r) - sqrt(kappa(r)(1 + 1/r)))**2 / (1 - 1/r) - kappa(r - 1).

    For gamma = 0 the origin is excluded.
    """
    gamma = _check_gamma(gamma)
    if r_max < 2:
        raise InvalidParameterError("r_max must be at least 2")
    tol, dps = 1e-12, DEFAULT_DPS
    w = fitzsimmons_weight(model, gamma, r_max)
    r_min = 0 if gamma > 0 else 1
    min_weight = float(np.min(w[r_min:]))

    kap = model.kappa_floats(r_max).tolist()
    # scalar ** 2 (libm pow) on purpose: numpy's x * x rounds some inputs differently
    kappa_margin = min(
        (1.0 + kap[r] - math.sqrt(kap[r] * (1.0 + 1.0 / r))) ** 2 / (1.0 - 1.0 / r)
        - kap[r - 1]
        for r in range(2, r_max + 1)
    )

    notes = []
    if gamma == 0:
        notes.append("origin excluded: the weight there needs gamma > 0")
    return VerificationReport(
        check="superharmonic-sqrt-ground",
        status="pass" if min_weight >= -tol else "fail",
        residuals={
            "min_weight": min_weight,
            "min_kappa_margin": kappa_margin,
        },
        params={
            "model": model.label,
            "gamma": gamma,
            "r_max": r_max,
            "tol": tol,
            "dps": dps,
        },
        notes=tuple(notes),
    )
