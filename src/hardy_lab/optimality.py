"""Numerical evidence that the constructed weights cannot be improved.

Nothing in here proves optimality; each routine produces one sound piece of
evidence with its exact logical force recorded in the report:

  * criticality: the energy of the ground profile times a logarithmic
    cutoff, computed by two independent routes that must agree and decay;
  * null-criticality: the ground-weight mass diverges, with its growth law;
  * inflation probes: adding any bit of weight on a window far out makes a
    finite-section bottom eigenvalue negative, which soundly refutes that
    particular improvement (Dirichlet sections overestimate the true
    bottom, so a negative section bottom is conclusive);
  * a spectral-bottom bound certified on balls for homogeneous models.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, NeedsTailError
from .greens import transience_test
from .hardy_weights import (
    _check_gamma,
    _closed_form,
    _ground_pairs,
    _kappa_longdouble,
    closed_form_weight,
)
from .radial_model import _log_of_exact, _window_blocks, expand_vertex_graph
from .reporting import VerificationReport
from .spectral_ops import (
    _certified_sweep,
    _pivot_sweep,
    _sturm_rows,
    hardy_form_matrix,
    smallest_eigenvalue,
    tree_ball_bottom_eigenvalue,
    vertex_laplacian,
)


# radii per block of the summed criticality terms
_SUM_LEAF = 2 ** 14


def _longdouble_exact(x):
    if isinstance(x, Fraction):
        return np.longdouble(x.numerator) / np.longdouble(x.denominator)
    return np.longdouble(x)


# -- criticality --------------------------------------------------------------

@dataclass(frozen=True)
class CriticalityResult:
    n: int
    direct: float
    closed_form: float
    rel_diff: float


def _pairwise_sums(terms, lo, hi):
    """np.sum of each array ``terms(lo, hi)`` returns, without building them whole.

    numpy sums a contiguous float array pairwise, halving n at n // 2 less
    its remainder mod 8; splitting [lo, hi) the same way into leaves of at
    most _SUM_LEAF entries and summing each leaf with np.sum gives the same
    bits, while only one leaf of terms exists at a time.
    """
    n = hi - lo
    if n <= _SUM_LEAF:
        return [np.sum(t) for t in terms(lo, hi)]
    n2 = n // 2
    n2 -= n2 % 8
    left = _pairwise_sums(terms, lo, lo + n2)
    return [a + b for a, b in zip(left, _pairwise_sums(terms, lo + n2, hi))]


def criticality_energy(model, n, gamma=0):
    """Energy functional of (sqrt of ground) times cutoff, two ways.

    direct: Dirichlet energy minus weighted mass of the profile, each term
    rescaled through the area-compatibility identity so only the degree
    ratio kappa enters (sphere volumes would overflow), accumulated in
    extended precision because the two sums cancel to a residue several
    orders below their size.

    closed_form: the ground-representation formula

        (1 / log^2 n) * sum_{r=1}^{n-1} sqrt(kappa(r)) r sqrt(1 + 1/r)
                                        log^2(1 + 1/r).

    Both routes must agree to ~1e-10 relative; their common value decays
    like 1/log n, which is the criticality evidence.  The value does not
    depend on gamma (the gamma terms cancel identically); computing the
    direct route at gamma > 0 exercises that cancellation.  The terms are
    formed and summed one block of radii at a time (see _pairwise_sums).
    """
    gamma = _check_gamma(gamma)
    if n < 3:
        raise InvalidParameterError("n must be at least 3")
    if n > model.depth:
        raise NeedsTailError(f"criticality at n = {n} needs depth >= {n}")
    ld = np.longdouble
    kap = _kappa_longdouble(*model.exact_degrees(n - 1))
    log_n = np.log(ld(n))

    area1 = _longdouble_exact(model.area(1))
    g = _longdouble_exact(gamma)
    sqrt_ga = np.sqrt(g * area1)
    edge0 = (1 - sqrt_ga) ** 2

    def terms(lo, hi):
        # energy, mass and closed-form terms of radii lo..hi-1; phi is the
        # cutoff 1 - log(r) / log n at lo..hi
        r = np.arange(lo, hi + 1, dtype=ld)
        idx, k = r[:-1], kap[lo:hi]
        phi = 1 - np.log(r) / log_n
        energy = (np.sqrt(idx + 1) * phi[1:] - np.sqrt(k * idx) * phi[:-1]) ** 2
        bracket = (1 + k - np.sqrt(k * (1 + 1 / idx))
                   - np.sqrt(kap[lo - 1:hi - 1] * (1 - 1 / idx)))
        if lo == 1:  # kappa(0) is NaN; radius 1 has its own bracket
            bracket[0] = 1 + kap[1] - np.sqrt(2 * kap[1]) - sqrt_ga
        mass = idx * bracket * phi[:-1] ** 2
        closed = np.sqrt(k * idx * (idx + 1)) * np.log1p(1 / idx) ** 2
        return energy, mass, closed

    energy_sum, mass_sum, closed_sum = _pairwise_sums(terms, 1, n)
    direct = edge0 + energy_sum - mass_sum
    if gamma > 0:
        # origin mass: w(0) gamma vol(0) simplifies to gamma area(1) - sqrt(gamma area(1))
        direct -= g * area1 - sqrt_ga
    closed = closed_sum / (log_n * log_n)

    rel = float(abs(direct - closed) / max(abs(closed), np.finfo(ld).tiny))
    return CriticalityResult(
        n=n, direct=float(direct), closed_form=float(closed), rel_diff=rel
    )


def check_criticality_agreement(model, n_values=(10, 100, 1000), gamma=0):
    """Report agreement of the two criticality routes and their decay."""
    rtol = 1e-10
    if not n_values or list(n_values) != sorted(set(n_values)):
        raise InvalidParameterError(f"n_values must increase, got {n_values!r}")
    results = [criticality_energy(model, n, gamma=gamma) for n in n_values]
    max_rel = max(res.rel_diff for res in results)
    values = [res.closed_form for res in results]
    decaying = all(b < a for a, b in zip(values, values[1:]))
    status = "pass" if (max_rel <= rtol and decaying) else "fail"
    return VerificationReport(
        check="criticality-two-routes",
        status=status,
        residuals={
            "max_rel_diff": max_rel,
            "value_at_largest_n": values[-1],
        },
        params={
            "model": model.label,
            "gamma": gamma,
            "n_values": list(n_values),
            "rtol": rtol,
        },
        notes=(
            "the functional must both agree across routes and decrease in n; "
            "decay like 1/log n is the criticality signal",
        ),
    )


def helper_sum(n):
    """The kappa-free part of the criticality sum, in double precision.

    (1 / log^2 n) * sum_{r=1}^{n-1} r sqrt(1 + 1/r) log^2(1 + 1/r); decays
    like 1/log n.  For a model with constant kappa the criticality
    functional is sqrt(kappa) times this.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise InvalidParameterError(f"n must be an integer >= 3, got {n!r}")

    def terms(lo, hi):
        r = np.arange(lo, hi, dtype=float)
        return (np.sqrt(1.0 + 1.0 / r) * r * np.square(np.log1p(1.0 / r)),)

    return float(_pairwise_sums(terms, 1, n)[0]) / math.log(n) ** 2


def check_cutoff_decay():
    """Ratio test for the 1/log n decay of the cutoff functional.

    Exact 1/log n decay would give log(n_small)/log(n_large); lower-order
    terms shift the ratio, and the [lo, hi] window tolerates them.  The
    values are helper_sum(n_small) and helper_sum(n_large) as literals,
    which the tests hold to helper_sum bit for bit.
    """
    n_small, n_large, lo, hi = 10 ** 3, 10 ** 6, 0.4, 0.6
    small, large = 0.14437232841552947, 0.07228428882000318
    ratio = large / small
    return VerificationReport(
        check="cutoff-decay",
        status="pass" if lo <= ratio <= hi else "fail",
        residuals={
            "ratio": ratio,
            "value_small": small,
            "value_large": large,
            "c_estimate": large * math.log(n_large),
        },
        params={"n_small": n_small, "n_large": n_large, "lo": lo, "hi": hi},
    )


# -- null-criticality ---------------------------------------------------------

def ground_weight_mass_terms(model, r_max, gamma=0):
    """Terms u(r) w(r) vol(r) = r w(r) / k_minus(r) for r = 1..r_max.

    Uses the closed form of the weight, through the same arrays as
    closed_form_weight; the terms are positive, so double precision is
    plenty.  Entry 0 of the returned array is the origin term
    gamma w(0) vol(0), which is 0 when gamma = 0.
    """
    gamma = _check_gamma(gamma)
    if r_max > model.depth - 1:
        raise NeedsTailError(f"mass terms to {r_max} need depth > {r_max}")
    terms = np.zeros(r_max + 1)
    if gamma > 0:
        area1 = float(model.area(1))
        terms[0] = float(gamma) * area1 - math.sqrt(float(gamma) * area1)
    brackets, _, _ = _closed_form(model, gamma, 1, r_max)
    terms[1:] = np.arange(1, r_max + 1, dtype=float) * brackets
    return terms


def check_null_criticality(model, gamma=0, r_max=10 ** 4):
    """Divergence test for the ground-weight mass sum.

    Partial sums are compared at r_max/4, r_max/2 and r_max: both late
    increments must be positive and the second must be at least
    ``min_increment_ratio`` times the first.  Logarithmic divergence gives
    ratio 1, polynomial divergence more; a convergent sum sends the ratio
    to 0 and fails.
    """
    min_increment_ratio = 0.7
    if not isinstance(r_max, (int, np.integer)) or r_max < 16:
        raise InvalidParameterError(f"r_max must be an integer >= 16, got {r_max!r}")
    terms = ground_weight_mass_terms(model, r_max, gamma=gamma)
    sums = np.cumsum(terms)
    q1, q2 = r_max // 4, r_max // 2
    inc1 = float(sums[q2] - sums[q1])
    inc2 = float(sums[r_max] - sums[q2])
    # no ratio over a first increment that is not positive; residuals are finite
    ratio = inc2 / inc1 if inc1 > 0 else 0.0
    ok = inc1 > 0 and inc2 > 0 and ratio >= min_increment_ratio
    return VerificationReport(
        check="null-criticality-divergence",
        status="pass" if ok else "fail",
        notes=() if inc1 > 0 else ("the partial sums do not grow from r_max/4 to r_max/2",),
        residuals={
            "partial_sum": float(sums[r_max]),
            "increment_ratio": ratio,
        },
        params={
            "model": model.label,
            "gamma": gamma,
            "r_max": r_max,
            "min_increment_ratio": min_increment_ratio,
        },
    )


# -- inflation probes ---------------------------------------------------------

def default_probe_bases(r_max, window):
    """Deterministic geometric spine of window bases inside [1, r_max - window)."""
    bases = []
    b = 1
    while b + window < r_max:
        bases.append(b)
        b *= 2
    return bases


def optimality_probe(model, weight_values, lam, window, r_max, bases=None):
    """Try to refute improving the weight by lam on windows [b, b + window].

    For each base the Dirichlet section on [1, r_max] with the inflated
    weight is tested for a Sturm count below ``threshold`` of at least 1.
    The section excludes the origin because the gamma = 0 weight only
    claims the inequality for functions vanishing there; restricting to
    that subspace keeps a negative count a sound refutation for every
    gamma.  A count >= 1 refutes that improvement.  A count of 0 refutes
    nothing (the failure may only show past r_max), so the overall status
    is always inconclusive; the counts are the informative part.

    The inflated section differs from the uninflated one only on the window
    rows, so each base resumes from one uninflated sweep's pivot at its
    base row.  Every sweep stops at the first negative pivot, whose
    predecessors are those of the full count.  The bases run in ascending
    order, and each unrefuted base leaves its post-window pivots as a
    certificate that ends a later base's sweep where its pivot reaches them
    (see spectral_ops._certified_sweep).  The decisions are those of the
    full sweeps, bit for bit.
    """
    if not 0 < lam < math.inf:  # also refuses NaN
        raise InvalidParameterError(f"lam must be finite and positive, got {lam}")
    threshold = -1e-9
    if window < 0:
        raise InvalidParameterError("window must be nonnegative")
    if r_max > model.depth - 1:
        raise NeedsTailError(f"probe section [1, {r_max}] needs depth > {r_max}")
    w = np.asarray(weight_values, dtype=float)
    if w.shape[0] < r_max + 1:
        raise InvalidParameterError("weight values must cover the probe section")
    if bases is None:
        bases = default_probe_bases(r_max, window)
    bases = sorted(set(int(b) for b in bases))
    if not bases:
        raise InvalidParameterError("no probe bases inside the section")
    if bases[0] < 1 or bases[-1] + window >= r_max:
        raise InvalidParameterError(
            "every window must fit strictly inside [1, r_max)"
        )
    # row i of the section is radius 1 + i
    diag, coupling, pivmin = _sturm_rows(hardy_form_matrix(model, w, 1, r_max))
    # good[j]: the pivot at row j of an unrefuted trajectory, +inf if none yet;
    # trail holds the current base's pivots until it is known to be unrefuted
    good = np.full(r_max, math.inf)
    trail = np.empty(r_max)
    good_rows, trail_rows = memoryview(good), memoryview(trail)
    refuted = []
    unrefuted = []
    row, q = 0, 1.0
    prefix_negative = False
    for b in bases:
        start, stop = b - 1, b + window
        if not prefix_negative:
            prefix_negative, q = _pivot_sweep(
                zip(diag[row:start], coupling[row:start]), threshold, q, pivmin
            )
            row = start
        negative = prefix_negative
        if not negative:
            inflated = np.array(w[: b + window + 1])
            inflated[b:] += lam
            window_diag = hardy_form_matrix(model, inflated, b, b + window).diagonal
            negative, p = _pivot_sweep(
                zip(memoryview(window_diag), coupling[start:stop]), threshold, q, pivmin
            )
            if not negative:
                negative, end = _certified_sweep(
                    zip(diag[stop:], coupling[stop:], good_rows[stop:]),
                    threshold, p, pivmin, trail_rows, stop,
                )
                if not negative:
                    good[stop:end] = trail[stop:end]
        (refuted if negative else unrefuted).append(b)
    params = {
        "model": model.label,
        "lam": lam,
        "window": window,
        "r_max": r_max,
        "threshold": threshold,
        "bases": bases,
        "first_refuted": refuted[0] if refuted else None,
        "unrefuted_bases": unrefuted,
    }
    return VerificationReport(
        check="optimality-inflation-probe",
        status="inconclusive",
        residuals={
            "refuted_count": len(refuted),
            "sampled_count": len(bases),
            "refuted_fraction": len(refuted) / len(bases),
        },
        params=params,
        notes=("a refuted base is conclusive; an unrefuted base only means the "
               "section was too short to decide",),
    )


def inflation_refutation(model, lam, r_lo=2, b_max=None, gamma=0, b_values=None):
    """Refute the multiplicatively inflated weight (1 + lam) w outside a ball.

    The weight is inflated on all radii >= r_lo and the Dirichlet form is
    assembled on growing annuli [r_lo, b].  Restriction is one-sided exact:
    a section eigenvalue below ``threshold`` certifies that the inflated
    weight fails the Hardy inequality on the infinite annulus, and the
    status is then pass (the refutation claim is proved).  If no section up
    to b_max shows negativity the status is inconclusive: positivity of all
    finite sections never certifies the infinite inequality by itself.
    """
    if not 0 < lam < math.inf:  # also refuses NaN
        raise InvalidParameterError(f"lam must be finite and positive, got {lam}")
    threshold = -1e-9
    if r_lo < 1:
        raise InvalidParameterError("r_lo must be at least 1")
    if b_max is None:
        b_max = model.depth - 1
    if b_max > model.depth - 1:
        raise NeedsTailError(f"annuli to {b_max} need depth > {b_max}")
    if b_values is None:
        b_values = []
        b = max(8, 2 * r_lo)
        while b < b_max:
            b_values.append(b)
            b *= 2
        b_values.append(b_max)
    b_values = sorted(set(int(b) for b in b_values))
    if not b_values or b_values[0] <= r_lo:
        raise InvalidParameterError("b_values must be annulus ends above r_lo")
    if b_values[-1] > b_max:
        raise InvalidParameterError("annulus ends must not exceed b_max")
    w = closed_form_weight(model, gamma, b_max).values
    inflated = np.array(w)
    inflated[r_lo:] *= 1.0 + lam
    # the annuli share their left end, so each is a prefix of the last one;
    # the last one's pivmin is at least a shorter annulus's own, which can
    # only matter for a positive pivot below max coupling * 2.2e-308
    diag, coupling, pivmin = _sturm_rows(
        hardy_form_matrix(model, inflated, r_lo, b_values[-1])
    )
    first_refuted, row, q = None, 0, 1.0
    for checked, b in enumerate(b_values, 1):
        stop = b - r_lo + 1
        negative, q = _pivot_sweep(
            zip(diag[row:stop], coupling[row:stop]), threshold, q, pivmin
        )
        row = stop
        if negative:
            first_refuted = b
            break
    refuted = first_refuted is not None
    return VerificationReport(
        check="inflation-refutation",
        status="pass" if refuted else "inconclusive",
        residuals={
            "refuted": int(refuted),
            "sections_checked": checked,
        },
        params={
            "model": model.label,
            "lam": lam,
            "r_lo": r_lo,
            "b_max": b_max,
            "threshold": threshold,
            "first_refuted": first_refuted,
        },
        notes=(
            "pass means the inflated weight provably fails on the annulus; "
            "inconclusive means no section up to b_max could decide",
        ),
    )


# -- ground state identity ----------------------------------------------------

def _vertex_ground(model, gamma, radius):
    """The ball's graph, v = sqrt(u) and w on its vertices, and its interior:
    radii below ``radius`` (full degrees), and above 0 if gamma = 0 (v(0) = 0)."""
    graph = expand_vertex_graph(model, radius)
    p, q = _ground_pairs(model, gamma, radius)
    v = np.array([math.sqrt(a / b) for a, b in zip(p, q)])[graph.radius_of]
    w = closed_form_weight(model, gamma, radius).values[graph.radius_of]
    interior = graph.radius_of <= radius - 1
    if gamma == 0:
        interior &= graph.radius_of >= 1
    return graph, v, w, interior


def check_ground_state_identity(model, gamma, radius, level="radial"):
    """Verify (difference operator on sqrt u) = weight * sqrt u pointwise.

    level "radial" applies the radial operator to the exact ground profile;
    level "vertex" expands the ball, applies the true graph Laplacian to
    the radial function x -> sqrt(u(|x|)) and compares on the interior.
    The vertex route is what ties every radial computation in this package
    back to an honest graph.
    """
    gamma = _check_gamma(gamma)
    tol = 1e-10
    if level == "radial":
        p, q = _ground_pairs(model, gamma, radius + 1)
        # each u(r) = p / q rounded once, then square-rooted
        sqrt_u = np.sqrt(np.fromiter(map(operator.truediv, p, q), dtype=float, count=len(p)))
        w = closed_form_weight(model, gamma, radius).values
        # radial_laplacian on r_min..radius - 1, as arrays: each degree is
        # rounded to float and the inward term added where r > 0
        r_min = 0 if gamma > 0 else 1
        kp = model.k_plus_floats(radius - 1)[r_min:]
        km = model.k_minus_floats(radius - 1)[1:]
        v = sqrt_u[r_min:radius]
        lhs = kp * (v - sqrt_u[r_min + 1:radius + 1])
        lhs[1 - r_min:] += km * (sqrt_u[1:radius] - sqrt_u[:radius - 1])
        rhs = w[r_min:radius] * v
        # fmax, like max(worst, x), passes over a NaN
        worst = float(np.fmax.reduce(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)),
                                     initial=0.0))
    elif level == "vertex":
        graph, v, w, interior = _vertex_ground(model, gamma, radius)
        lap = vertex_laplacian(graph, v)[interior]
        err = np.abs(lap - (w * v)[interior])
        worst = float(np.max(err / np.maximum(1.0, np.abs(lap)))) if err.size else 0.0
    else:
        raise InvalidParameterError(f"unknown level {level!r}")
    return VerificationReport(
        check=f"ground-state-identity-{level}",
        status="pass" if worst <= tol else "fail",
        residuals={"max_rel_residual": worst},
        params={
            "model": model.label,
            "gamma": gamma,
            "radius": radius,
            "tol": tol,
        },
    )


def check_ground_state_transform(model, gamma, radius):
    """Quadratic-form identity behind every Hardy claim here, as its coefficients.

    For v = sqrt(ground) and any phi supported on the interior of the ball,

        energy(phi) - sum w phi**2  =  sum over edges of
            v(x) v(y) (phi(x)/v(x) - phi(y)/v(y))**2,

    which makes the left side manifestly nonnegative.  Both forms have the
    same off-diagonal entry on every edge, so the identity holds for every
    phi exactly when the diagonals agree: deg(x) - w(x) = sum over y ~ x of
    v(y) / v(x) at every interior vertex, which one pass over the edges of
    the expanded graph compares.  For gamma = 0, v(0) = 0: the origin is not
    interior, and its edges add 0 to the sums.
    """
    gamma = _check_gamma(gamma)
    tol = 1e-11
    if radius < 3:
        raise InvalidParameterError("radius must be at least 3")
    graph, v, w, interior = _vertex_ground(model, gamma, radius)
    x, y, n = graph.edges[:, 0], graph.edges[:, 1], graph.n_vertices
    deg = np.bincount(x, minlength=n) + np.bincount(y, minlength=n)
    around = (np.bincount(x, weights=v[y], minlength=n)
              + np.bincount(y, weights=v[x], minlength=n))
    coeff = (deg - w)[interior]
    err = np.abs(coeff - around[interior] / v[interior])
    worst = float(np.max(err / np.maximum(1.0, np.abs(coeff))))
    return VerificationReport(
        check="ground-state-transform",
        status="pass" if worst <= tol else "fail",
        residuals={"max_rel_residual": worst},
        params={
            "model": model.label,
            "gamma": gamma,
            "radius": radius,
            "tol": tol,
        },
    )


# -- structural side checks ---------------------------------------------------

def check_bounded_oscillation(model, r_max):
    """Window check that consecutive ground values have bounded ratios.

    The exact ratio u(r+1)/u(r) = (1 + 1/r)/kappa(r) is evaluated on
    1..r_max.  With a geometric tail the limit exists and the verdict
    extends; with an unspecified tail the verdict covers the window only,
    which a note records.
    """
    if r_max < 1:
        raise InvalidParameterError(f"r_max must be at least 1, got {r_max}")
    if r_max > model.depth - 1:
        raise NeedsTailError(f"ratios to {r_max} need depth > {r_max}")
    bound = 100.0
    kp, km = model.exact_degrees(r_max)
    r = np.arange(1, r_max + 1, dtype=kp.dtype)
    # (1 + 1/r) / kappa(r) as one exact quotient, rounded once
    ratios = np.asarray(((r + 1) * km[1:]) / (r * kp[1:]), dtype=float)
    lo, hi = float(ratios.min()), float(ratios.max())
    ok = lo >= 1.0 / bound and hi <= bound
    notes = []
    if model.tail.kind != "eventually-geometric":
        notes.append("unspecified tail: boundedness asserted on the window only")
    return VerificationReport(
        check="bounded-oscillation",
        status="pass" if ok else "fail",
        residuals={"min_ratio": lo, "max_ratio": hi},
        params={"model": model.label, "r_max": r_max, "bound": bound},
        notes=tuple(notes),
    )


def check_properness(model):
    """Proxy for the ground profile vanishing at infinity.

    Requires a transient verdict.  The second half of u(r) = r / area(r)
    on [1, depth] must be strictly decreasing, as the model's one pass over
    the tail window decides exactly from the degrees (see
    ``RadialModel._tail_window``).  The total drop log u(1) - log u(depth)
    must be at least log 2.  A geometric tail upgrades the window verdict to a certificate, since
    r / area(r) -> 0 whenever area grows at a fixed ratio > 1.
    """
    r_max = model.depth
    if not transience_test(model):
        return VerificationReport(
            check="properness-proxy",
            status="hypothesis-not-met",
            residuals={},
            params={"model": model.label, "r_max": r_max},
            notes=("recurrent model: the ground profile does not vanish at infinity",),
        )
    # log u at radii 1 and r_max, rounded as log(r) - log(area(r))
    ends = np.log(np.array([1.0, r_max])) - [_log_of_exact(model.area(r))
                                               for r in (1, r_max)]
    drop = float(ends[0] - ends[1])
    decreasing = model._tail_window.decreasing
    certified = model.tail.kind == "eventually-geometric" and model.tail.kappa_inf > 1
    ok = decreasing and (certified or drop >= math.log(2.0))
    notes = ()
    if certified:
        notes = ("geometric tail certifies the limit; the window is a sanity check",)
    elif ok:
        notes = ("window evidence only: consistent with vanishing, not a proof",)
    return VerificationReport(
        check="properness-proxy",
        status="pass" if ok else "fail",
        residuals={"log_drop": drop},
        params={"model": model.label, "r_max": r_max, "certified": certified},
        notes=notes,
    )


def check_lambda0_bound(model):
    """Certify the spectral-bottom lower bound on homogeneous models.

    For models with kappa(r) and k_minus(r) constant over the stored range,
    and k_plus(0) = k_plus(1) at the root as on every tree, the bottom of
    the spectrum is at least shift = k_minus (sqrt(kappa)-1)**2.
    Dirichlet section bottoms decrease towards the true bottom, so the check
    asserts they are decreasing and all stay above shift - tol.  When the
    data is a tree's (k_minus = 1 and integer outward degrees), the ball
    form is additionally certified at vertex level through the per-level
    elimination pivots, at sizes far beyond dense reach.
    """
    depth = model.depth
    tol = 1e-9
    kap0 = model.kappa(1)
    km0 = model.k_minus(1)
    # kappa and k_minus are constant exactly when k_plus and k_minus are;
    # where they are, the root is the one radius left to differ, and
    # k_plus(0) != k_plus(1) can break the bound's root condition
    # k_plus(0) >= d - sqrt(d) (antitree:poly:2:2); the stored degrees are
    # compared in blocks, up to the first block that varies
    kp, km = model._k_plus, model._k_minus
    first = None
    for s, e in _window_blocks(2, depth):
        varies = (kp[s:e] != kp[1]) | (km[s:e] != km[1])
        if varies.any():
            first, varied = s + int(varies.argmax()), "kappa or k_minus varies"
            break
    else:
        if kp[0] != kp[1]:
            first, varied = 0, "k_plus(0) differs from k_plus(1)"
    if first is not None:
        return VerificationReport(
            check="spectral-bottom-bound",
            status="hypothesis-not-met",
            residuals={},
            params={"model": model.label, "first_inhomogeneous_radius": first},
            notes=(f"{varied}; the constant-ratio bound does not apply",),
        )
    shift = float(km0) * (math.sqrt(float(kap0)) - 1.0) ** 2
    radii = sorted({min(R, depth - 1) for R in (64, 256, 1024)})
    zeros = np.zeros(max(radii) + 1)
    bottoms = [smallest_eigenvalue(hardy_form_matrix(model, zeros, 0, R)) for R in radii]
    decreasing = all(b2 < b1 + tol for b1, b2 in zip(bottoms, bottoms[1:]))
    above = all(b >= shift - tol for b in bottoms)

    residuals = {
        "shift": shift,
        "final_section_bottom": bottoms[-1],
        "final_gap": bottoms[-1] - shift,
    }
    vertex_ok = True
    if km0 == 1 and kap0.denominator == 1:  # then k_plus is kappa(1) on every level
        vertex_bottom = tree_ball_bottom_eigenvalue(kap0.numerator, zeros)
        residuals["vertex_ball_bottom"] = vertex_bottom
        vertex_ok = vertex_bottom >= shift - tol
    ok = decreasing and above and vertex_ok
    return VerificationReport(
        check="spectral-bottom-bound",
        status="pass" if ok else "fail",
        residuals=residuals,
        params={
            "model": model.label,
            "section_radii": radii,
            "tol": tol,
        },
    )
