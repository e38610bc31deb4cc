"""Optimal Hardy weights for radial models.

The construction starts from the ground profile

    u(0) = gamma,   u(r) = r / area(r)   (r >= 1),

takes its square root v = sqrt(u), and defines the weight as the Rayleigh
ratio w(r) = (difference operator applied to v)(r) / v(r).  Two independent
routes to w are kept side by side on purpose:

  * ``fitzsimmons_weight`` evaluates the ratio numerically from exact ground
    values, with square roots taken at 40 significant digits so that depth
    never degrades the result (u decays like 1/area and underflows doubles
    on fast-growing models);
  * ``general_closed_form`` and ``tree_weight`` evaluate the algebraic
    closed forms, which involve only the degree ratio kappa.

Agreement of the two routes is a test obligation, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import (
    InvalidParameterError,
    NotPositiveError,
    SeriesDivergenceRiskError,
)
from .radial_model import _as_exact
from .reporting import VerificationReport
from .spectral_ops import radial_laplacian

DEFAULT_DPS = 40

# radii per block of the array closed form
_CLOSED_FORM_BLOCK = 8192


def tree_bottom_of_spectrum(d):
    """Bottom of the spectrum (sqrt(d) - 1)**2 of the forward-regular tree."""
    if d < 1:
        raise InvalidParameterError("branching number must be at least 1")
    return (math.sqrt(d) - 1.0) ** 2


def _check_gamma(gamma):
    # exact like the radial data: a float gamma is taken at its binary value
    gamma = Fraction(_as_exact(gamma, "gamma"))
    if gamma < 0:
        raise InvalidParameterError(f"gamma must be >= 0, got {gamma}")
    return gamma


def u_gamma(model, gamma, r_max):
    """Ground profile values u(0) = gamma, u(r) = r / area(r), as Fractions.

    Returns a list indexed by radius up to r_max.  Being exact, ratios of
    consecutive values stay exact regardless of how fast the area grows.
    """
    gamma = _check_gamma(gamma)
    if r_max < 1:
        raise InvalidParameterError("r_max must be at least 1")
    return [gamma] + [Fraction(r, 1) / Fraction(model.area(r))
                      for r in range(1, r_max + 1)]


def _mpf_of(x):
    """A Fraction as an mpmath number at the working precision."""
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def fitzsimmons_ratio(model, values, r):
    """Rayleigh ratio (difference operator applied to values) / values at r.

    ``values`` must be positive at r; the arithmetic stays in whatever
    number type the caller supplies (float, Fraction, mpmath).
    """
    vr = values[r]
    if not vr > 0:
        raise NotPositiveError(f"profile must be positive at radius {r}, got {vr}")
    return radial_laplacian(model, values, r) / vr


def fitzsimmons_weight(model, gamma, r_max, dps=DEFAULT_DPS):
    """Weight profile from the ground ratio, computed numerically.

    For each radius the consecutive ratios of exact ground values are formed
    first and square-rooted at ``dps`` digits, so no intermediate value ever
    leaves a representable range.  Entries below the support (the origin
    when gamma = 0) are 0.  Needs radial data one sphere past r_max.
    """
    gamma = _check_gamma(gamma)
    u = u_gamma(model, gamma, r_max + 1)
    r_min = 0 if gamma > 0 else 1
    w = np.zeros(r_max + 1)
    # exact ratios of consecutive ground values are small rationals even
    # when the values themselves overflow or underflow doubles
    with mpmath.workdps(dps):
        for r in range(r_min, r_max + 1):
            up = _mpf_of(u[r + 1] / u[r])
            term = model.k_plus(r) * (1 - mpmath.sqrt(up))
            if r > 0:
                down = _mpf_of(u[r - 1] / u[r])
                term += model.k_minus(r) * (1 - mpmath.sqrt(down))
            w[r] = float(term)
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
    of exact_degrees, over k_minus(r) k_minus(r-1), rounded once.
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
    # blocks keep the temporaries small at depth 1e5
    for lo in range(max(r_lo, 2), r_hi + 1, _CLOSED_FORM_BLOCK):
        hi = min(lo + _CLOSED_FORM_BLOCK - 1, r_hi)
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
    ``joint`` is their intersection.  Ends are exact Fractions, except the
    sqrt_ground upper end which involves a square root.  An interval with
    upper < lower is empty.
    """

    ground: tuple
    sqrt_ground: tuple
    joint: tuple

    def joint_contains(self, gamma, rel_slack=1e-12):
        lo, hi = self.joint
        if isinstance(gamma, Fraction) and isinstance(lo, Fraction) and isinstance(hi, Fraction):
            return lo <= gamma <= hi
        g, lo, hi = float(gamma), float(lo), float(hi)
        slack = rel_slack * max(1.0, abs(lo), abs(hi))
        return lo - slack <= g <= hi + slack


def gamma_intervals(model):
    """Admissible gamma ranges determined by the data at radii 1 and 2."""
    a1 = Fraction(model.area(1))
    kap1 = model.kappa(1)
    lo = 1 / a1
    ground_hi = (kap1 - 1) / a1
    k1 = float(kap1)
    sqrt_hi = (1.0 + k1 - math.sqrt(2.0 * k1)) ** 2 / float(a1)
    # the ground end never exceeds the sqrt end, but take the min defensively
    joint_hi = ground_hi if float(ground_hi) <= sqrt_hi else sqrt_hi
    return GammaIntervals(
        ground=(lo, ground_hi),
        sqrt_ground=(lo, sqrt_hi),
        joint=(lo, joint_hi),
    )


def weight_floor(model, r):
    """Pointwise lower bound for the weight at radius r >= 2.

    Returns (value, applicable).  The bound

        k_minus(r) ((sqrt(kappa(r)) - 1)**2 + sqrt(kappa(r)) / (4 r**2))

    holds whenever kappa(r - 1) <= kappa(r); ``applicable`` reports that
    hypothesis.  Models with locally decreasing kappa (antitrees) can dip
    below it.
    """
    if r < 2:
        raise InvalidParameterError("the floor is defined for radii >= 2")
    _, floors, applicable = _closed_form(model, 0, r, r)
    return float(model.k_minus(r)) * float(floors[0]), bool(applicable[0])


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
    if r_max < 2:
        raise InvalidParameterError("r_max must be at least 2")
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
    the boundary) does not hinge on float rounding.  For gamma = 0 the
    origin is excluded: u vanishes there and the check starts at radius 1.
    Also reports the equivalent kappa-form margin min over r >= 2 of
    kappa(r) - 1/r - (1 - 1/r) kappa(r - 1).
    """
    gamma = _check_gamma(gamma)
    if r_max < 2:
        raise InvalidParameterError("r_max must be at least 2")
    u = u_gamma(model, gamma, r_max + 1)
    r_min = 0 if gamma > 0 else 1

    worst_ratio = math.inf
    bad_low = False
    bad_high = False
    for r in range(r_min, r_max + 1):
        defect = radial_laplacian(model, u, r)
        ratio = defect / u[r]
        worst_ratio = min(worst_ratio, float(ratio))
        violated = defect < 0
        if violated and r >= 2:
            bad_high = True
        elif violated:
            bad_low = True

    kappa_margin = math.inf
    for r in range(2, r_max + 1):
        margin = model.kappa(r) - Fraction(1, r) - (1 - Fraction(1, r)) * model.kappa(r - 1)
        kappa_margin = min(kappa_margin, float(margin))

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


def check_superharmonic_sqrt_ground(model, gamma, r_max, tol=1e-12, dps=DEFAULT_DPS):
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
    w = fitzsimmons_weight(model, gamma, r_max, dps=dps)
    r_min = 0 if gamma > 0 else 1
    min_weight = float(np.min(w[r_min:]))

    kappa_margin = math.inf
    for r in range(2, r_max + 1):
        kap = float(model.kappa(r))
        kap_prev = float(model.kappa(r - 1))
        lhs = (1.0 + kap - math.sqrt(kap * (1.0 + 1.0 / r))) ** 2 / (1.0 - 1.0 / r)
        kappa_margin = min(kappa_margin, lhs - kap_prev)

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
