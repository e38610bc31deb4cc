"""Quadratic forms and spectra for radial models and their vertex graphs.

Radial profiles are plain arrays indexed by radius from 0.  All matrices
built here use the similarity transform that absorbs the sphere volumes, so
their entries involve only vertex degrees and weights.  That keeps every
entry of order one even when sphere volumes grow geometrically, and it is
what makes windows at radius 10**4 and beyond numerically routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NeedsTailError, SizeLimitExceededError

MAX_DENSE_DIMENSION = 5_000

_SAFE_MIN = 2.2250738585072014e-308

# rows per block of a whole-form Sturm sweep; a tail certificate is tried at
# each block start
_SWEEP_BLOCK = 4096
# 1 - 2**-20: the certificate floor sits this far below the upper fixed point
_ROOT_MARGIN = 1.0 - 2.0 ** -20


def radial_laplacian(model, values, r):
    """Apply the positive radial difference operator to a profile at radius r.

    Returns k_plus(r) (v(r) - v(r + 1)) + k_minus(r) (v(r) - v(r - 1)), the
    inward term dropped at the origin (k_minus(0) = 0).  Needs the profile
    one radius past r.  The model data is exact, so the arithmetic stays
    in the number type of the profile (float, Fraction or mpmath) and exact
    profiles give exact results.
    """
    if r < 0 or r + 1 >= len(values):
        raise InvalidParameterError(
            f"profile of length {len(values)} cannot be differenced at radius {r}"
        )
    out = model.k_plus(r) * (values[r] - values[r + 1])
    if r > 0:
        out += model.k_minus(r) * (values[r] - values[r - 1])
    return out


@dataclass(frozen=True)
class TridiagonalForm:
    """Symmetrized radial form on the window [r_lo, r_lo + n - 1], Dirichlet ends.

    diagonal[i] and offdiagonal[i] refer to radius r_lo + i.  The matrix is
    similar to the radial operator on the window, so eigenvalues transfer
    directly; eigenvectors differ from radial profiles by the sqrt-volume
    rescaling.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    r_lo: int

    @property
    def n(self):
        return int(self.diagonal.shape[0])


def hardy_form_matrix(model, weight_values, r_lo=0, r_hi=None):
    """Tridiagonal form of (energy minus weight) on the window [r_lo, r_hi].

    ``weight_values[r]`` is indexed by absolute radius and must cover the
    window.  Dirichlet conditions hold at both window ends: the diagonal
    keeps the full degrees k_plus(r) + k_minus(r), which accounts for the
    edges leaving the window.  The entries are

        diagonal:     k_plus(r) + k_minus(r) - w(r)
        offdiagonal:  -sqrt(k_plus(r) * k_minus(r + 1))

    The off-diagonal entry follows from rescaling by sqrt(vol), using the
    area compatibility identity; no sphere volume is ever evaluated.
    An entry past the float64 range raises SizeLimitExceededError.
    """
    if r_hi is None:
        r_hi = model.depth - 1
    if not (0 <= r_lo <= r_hi):
        raise InvalidParameterError(f"bad window [{r_lo}, {r_hi}]")
    if r_hi > model.depth - 1:
        raise NeedsTailError(
            f"window end {r_hi} needs k_plus beyond the stored depth {model.depth}"
        )
    w = np.asarray(weight_values, dtype=float)
    if w.shape[0] < r_hi + 1:
        raise InvalidParameterError(
            f"weight values cover radii up to {w.shape[0] - 1}, window ends at {r_hi}"
        )
    kp = model.k_plus_floats(r_hi)
    km = model.k_minus_floats(min(r_hi + 1, model.depth))
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = kp[r_lo: r_hi + 1] + km[r_lo: r_hi + 1] - w[r_lo: r_hi + 1]
        offdiagonal = -np.sqrt(kp[r_lo: r_hi] * km[r_lo + 1: r_hi + 1])
    # reductions, so the check adds no array of the window's length
    if not np.isfinite([diagonal.min(), diagonal.max(), offdiagonal.min(initial=0.0)]).all():
        finite = np.isfinite(diagonal) & np.isfinite(np.append(offdiagonal, 0.0))
        raise SizeLimitExceededError(
            f"the Hardy form of {model.label} has an entry past the float64 "
            f"range at radius {r_lo + int(np.argmin(finite))}"
        )
    return TridiagonalForm(diagonal=diagonal, offdiagonal=offdiagonal, r_lo=r_lo)


def _sturm_rows(form):
    """Rows of a form for pivot sweeps: (diagonal, coupling, pivmin).

    The diagonal and the squared off-diagonals come back as memoryviews,
    whose items are Python floats: they round like float64 and iterate far
    faster than numpy scalars.  ``coupling[i]`` joins rows i - 1 and i, and
    ``coupling[0]`` is 0.0, so row 0 takes the same step as every other row
    (d - x - 0.0 / 1.0 is d - x).  pivmin is the guard LAPACK's ?stebz uses.
    """
    diag = np.ascontiguousarray(form.diagonal, dtype=float)
    coupling = np.zeros(form.n)
    np.multiply(form.offdiagonal, form.offdiagonal, out=coupling[1:])
    pivmin = max(float(coupling.max(initial=0.0)), 1.0) * _SAFE_MIN
    return memoryview(diag), memoryview(coupling), pivmin


def _pivot_sweep(rows, x, q, pivmin):
    """Run the Sturm pivot recursion of the shift x from pivot q.

    ``rows`` yields (diagonal, squared coupling) pairs.  A pivot below
    pivmin counts as negative (one whose magnitude is below pivmin is
    replaced by -pivmin).  Returns (True, that pivot) at the first negative
    pivot, leaving an iterator just past its row so that a second call
    resumes there, or (False, last pivot) when the rows run out.
    """
    for d, e in rows:
        q = d - x - e / q
        if q < pivmin:
            return True, (-pivmin if abs(q) < pivmin else q)
    return False, q


def _certified_sweep(rows, x, q, pivmin, trail, row):
    """A pivot sweep that also stops where an earlier sweep proves the rest.

    ``rows`` yields (diagonal, squared coupling, good) triples from section
    row ``row`` on, where good is +inf or the pivot at that row of an
    earlier trajectory over the same remaining rows that is known to stay
    >= pivmin to the end.  While the pivot q stays >= pivmin > 0, one step
    q -> fl(fl(d - x) - fl(e / q)) with e >= 0 is nondecreasing in q,
    because every IEEE operation rounds monotonically.  Two trajectories
    over the same rows therefore never cross: once q >= good, every later
    pivot is at least the earlier trajectory's and stays >= pivmin, so the
    sweep's decision is known without the remaining rows.

    Each pivot swept before the proof is written to ``trail`` at its row.
    Returns (True, row) at the first pivot below pivmin, as _pivot_sweep
    decides it, or (False, end) when the proof or the last row is reached:
    trail[row:end] then holds pivots that each lie below their good value
    and may replace it.
    """
    for d, e, good in rows:
        q = d - x - e / q
        if q < pivmin:
            return True, row
        if q >= good:
            break
        trail[row] = q
        row += 1
    return False, row


def _whole_form_rows(form):
    """Rows of a whole form for _negative_pivots, with its tail extremes.

    Returns (diagonal, coupling, pivmin, dmin, emax) where the first three
    are those of _sturm_rows and dmin[b], emax[b] are the smallest diagonal
    entry and the largest squared coupling of rows b * _SWEEP_BLOCK onward:
    O(n / _SWEEP_BLOCK) numbers per form, built once for every shift.
    """
    diag, coupling, pivmin = _sturm_rows(form)
    starts = np.arange(0, form.n, _SWEEP_BLOCK)
    dmin = np.minimum.reduceat(np.asarray(diag), starts)
    emax = np.maximum.reduceat(np.asarray(coupling), starts)
    dmin = np.minimum.accumulate(dmin[::-1])[::-1]
    emax = np.maximum.accumulate(emax[::-1])[::-1]
    return diag, coupling, pivmin, dmin.tolist(), emax.tolist()


def _negative_pivots(rows, x, limit):
    """Negative pivots of the form minus x, counted up to ``limit``.

    ``rows`` comes from _whole_form_rows.  The sweep runs block by block
    and stops early at a tail certificate.  While the pivot q stays
    >= pivmin > 0, one step q -> fl(fl(d - x) - fl(e / q)) with e >= 0 is
    nondecreasing in q and d and nonincreasing in e, because every IEEE
    operation rounds monotonically.  So if at a block start some
    rho <= q with rho >= pivmin satisfies

        fl(fl(dmin - x) - fl(emax / rho)) >= rho

    for the extremes of the remaining rows, every later pivot is >= rho by
    induction, and no remaining row can add a negative pivot.  rho is
    taken just below the upper fixed point of rho = dmin - x - emax / rho,
    the upper root of rho**2 - (dmin - x) rho + emax, or q if that is
    smaller.  The root is real from some block on or at none, since dmin
    only grows and emax only falls along the blocks; the rows before that
    block are swept as one run with no check.
    """
    diag, coupling, pivmin, dmin, emax = rows
    first = len(dmin)  # the first block start with a real positive root
    while first and (a := dmin[first - 1] - x) > 0.0 and a * a >= 4.0 * emax[first - 1]:
        first -= 1
    count, q = 0, 1.0
    start, stop = 0, first * _SWEEP_BLOCK
    for b in range(first, len(dmin) + 1):
        run = zip(diag[start:stop], coupling[start:stop])
        negative, q = _pivot_sweep(run, x, q, pivmin)
        while negative:
            count += 1
            if count == limit:
                return count
            negative, q = _pivot_sweep(run, x, q, pivmin)
        if b == len(dmin):
            return count
        a = dmin[b] - x
        rho = min(q, 0.5 * (a + math.sqrt(a * a - 4.0 * emax[b])) * _ROOT_MARGIN)
        if rho >= pivmin and a - emax[b] / rho >= rho:
            return count
        start, stop = stop, stop + _SWEEP_BLOCK


def count_eigenvalues_below(form, x):
    """Number of eigenvalues of the form strictly below x, by Sturm counting.

    The count is the number of negative pivots of the LDL^T factorization
    of the form minus x.  The sweep stops at a block start where the rest
    of the rows provably add no negative pivot (the tail certificate of
    _negative_pivots): every later pivot stays above a floor rho >= pivmin,
    by monotone rounding, so the count is that of the full sweep.
    """
    if form.n == 0:
        return 0
    return _negative_pivots(_whole_form_rows(form), float(x), form.n)


def eigenvalue_bounds(form):
    """Gershgorin interval guaranteed to contain the whole spectrum."""
    e = np.abs(form.offdiagonal)
    left = np.concatenate(([0.0], e))
    right = np.concatenate((e, [0.0]))
    lo = float(np.min(form.diagonal - left - right))
    hi = float(np.max(form.diagonal + left + right))
    return lo, hi


def _bisect_bottom(lo, hi, tol, positive_at, guess=None):
    """Bisect [lo, hi] for a bottom below which positive_at(x) is True:
    halve until the bracket is at most ``tol`` wide or the midpoint equals
    an end, and return that midpoint.

    positive_at must be monotone, True up to some threshold and False past
    it.  A finite guess g is checked first by two calls at a, b = g -+
    max(tol, 2 ulps of g): when positive_at(a) is True and positive_at(b)
    is False, a midpoint at or below a is decided True and one at or above
    b False without a call.  By monotonicity every decision is the one a
    call would give, so the bottom is the unguided float; a guess that
    fails its check is dropped, at the cost of at most those two calls.
    """
    a, b = -math.inf, math.inf
    if guess is not None and math.isfinite(guess):
        step = max(tol, 2.0 * math.ulp(guess))
        if positive_at(guess - step) and not positive_at(guess + step):
            a, b = guess - step, guess + step
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and mid not in (lo, hi):
        if mid <= a or mid < b and positive_at(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _homogeneous_bottom(n, d0, d, b):
    """The bottom of the n x n tridiagonal form with diagonal d0 on row 0
    and d on every later row, coupled by -b, in closed form and floats.

    x_j = sin((n - j) t) solves every row but row 0 with eigenvalue
    d - 2 b cos t, and row 0 iff (2 b cos t - (d - d0)) sin(n t) =
    b sin((n - 1) t).  The sides cross on (0, pi / n) when
    b (n + 1) > (d - d0) n, as on the sections and balls of a tree; t is
    bisected there to adjacent floats.  None otherwise.
    """
    km = d - d0
    if not b * (n + 1) > km * n:
        return None
    t = _bisect_bottom(0.0, math.pi / n, 0.0, lambda t: (
        (2.0 * b * math.cos(t) - km) * math.sin(n * t) > b * math.sin((n - 1) * t)))
    return (d - 2.0 * b) + 4.0 * b * math.sin(0.5 * t) ** 2


def smallest_eigenvalue(form):
    """Bottom eigenvalue of the form by bisection on the Sturm count.

    The count is monotone in the shift, so _bisect_bottom converges inside
    the Gershgorin interval, to 1e-11 times its width (at least 1e-11
    absolute) or to adjacent floats.  Each step only asks whether the count
    is at least 1, so its sweep stops at the first negative pivot or at a
    tail certificate (see _negative_pivots); either way it decides as the
    full sweep would, and the result is the same float.  The floating-point
    count is monotone in the shift too (Kahan 1966; Demmel, Dhillon and Ren
    1995), so a form that is Toeplitz but for its first row (the sections
    [0, R] of a model with constant degrees) guides its bisection by its
    closed-form bottom and still returns the unguided float.
    """
    if form.n == 0:
        raise InvalidParameterError("an empty form has no eigenvalues")
    lo, hi = eigenvalue_bounds(form)
    tol = 1e-11 * max(1.0, hi - lo)
    diag, off = form.diagonal, form.offdiagonal
    guess = None
    if form.n >= 2 and (diag[1:] == diag[1]).all() and (off == off[0]).all():
        guess = _homogeneous_bottom(form.n, float(diag[0]), float(diag[1]), abs(float(off[0])))
    rows = _whole_form_rows(form)
    return _bisect_bottom(lo, hi, tol, lambda x: not _negative_pivots(rows, x, 1), guess)


# -- vertex-level forms ------------------------------------------------------

def vertex_laplacian(graph, values):
    """Positive graph Laplacian applied to a vertex function, as an array.

    Vertices on the outermost sphere miss their outward edges, so entries
    there are only correct for functions supported strictly inside.
    """
    vals = np.asarray(values, dtype=float)
    out = np.zeros_like(vals)
    t, h = graph.edges[:, 0], graph.edges[:, 1]
    np.add.at(out, t, vals[t] - vals[h])
    np.add.at(out, h, vals[h] - vals[t])
    return out


def ball_form_matrix(graph, weight_values, inner_radius):
    """Dense matrix of (Laplacian minus weight) on a ball, Dirichlet outside.

    The graph must extend at least one sphere past ``inner_radius`` so that
    diagonal entries carry the full vertex degrees, including edges that
    leave the ball.  ``weight_values`` is indexed by radius.
    """
    if graph.radius < inner_radius + 1:
        raise InvalidParameterError(
            "expand the graph one sphere past the ball so boundary degrees are complete"
        )
    m = graph.sphere_slices[inner_radius].stop
    if m > MAX_DENSE_DIMENSION:
        raise SizeLimitExceededError(
            f"ball has {m} vertices, dense cap is {MAX_DENSE_DIMENSION}"
        )
    degrees = np.bincount(graph.edges.ravel(), minlength=graph.n_vertices)
    w = np.asarray(weight_values, dtype=float)
    if w.shape[0] < inner_radius + 1:
        raise InvalidParameterError("weight values must cover the ball radii")
    h = np.zeros((m, m))
    inner = graph.edges[graph.edges[:, 1] < m]
    h[inner[:, 0], inner[:, 1]] = -1.0
    h += h.T
    idx = np.arange(m)
    h[idx, idx] = degrees[:m] - w[graph.radius_of[:m]]
    return h


def tree_ball_pivots(k_plus, weight_values):
    """Leaf-elimination pivots certifying a tree ball form, one per level.

    On a tree whose vertices at level r have k_plus(r) forward neighbors and
    one inward neighbor (k_minus = 1), eliminating the ball's vertices
    sphere by sphere from the outside produces the same pivot for every
    vertex of a level:

        delta[R] = k_plus(R) + 1 - w(R)
        delta[r] = k_plus(r) + 1 - w(r) - k_plus(r) / delta[r + 1]   (0 < r < R)
        delta[0] = k_plus(0) - w(0) - k_plus(0) / delta[1]

    ``k_plus`` is a scalar d for the tree with constant branching or one
    value per level 0..R.  All pivots positive proves the ball matrix
    positive definite, with vol(r) vertices per level covered by one number
    each.  If a pivot fails to stay positive the elimination stops and the
    remaining inner entries are NaN.
    """
    kp, w = _tree_ball_levels(k_plus, weight_values)
    radius = w.shape[0] - 1
    # Python floats round like float64 and index faster in this loop
    kp, wl = kp.tolist(), w.tolist()
    delta = [math.nan] * (radius + 1)
    delta[radius] = (kp[radius] + 1) - wl[radius]
    for r in range(radius - 1, -1, -1):
        if delta[r + 1] <= 0.0:
            break
        degree = kp[r] if r == 0 else kp[r] + 1
        delta[r] = degree - wl[r] - kp[r] / delta[r + 1]
    return np.array(delta)


def _tree_ball_levels(k_plus, weight_values):
    """k_plus and the weight per level 0..R as float arrays of one shape."""
    w = np.asarray(weight_values, dtype=float)
    if w.shape[0] < 2:
        raise InvalidParameterError("need weights for at least radii 0 and 1")
    kp = np.asarray(k_plus, dtype=float)
    if kp.shape not in ((), w.shape):
        raise InvalidParameterError(
            f"k_plus must be a scalar or one value per level 0..{w.shape[0] - 1}, "
            f"got shape {kp.shape}"
        )
    return np.broadcast_to(kp, w.shape), w


def _tree_pivots_positive(kp, wl, shift):
    """True when the pivots of tree_ball_pivots(kp, wl + shift) are all
    finite and positive; stops at the first that is not.

    Each pivot is degree - (w + shift) - k_plus / delta, which rounds as
    tree_ball_pivots does on the shifted weights.
    """
    radius = len(wl) - 1
    delta = (kp[radius] + 1) - (wl[radius] + shift)
    if not 0.0 < delta < math.inf:  # also refuses NaN
        return False
    for r in range(radius - 1, 0, -1):
        delta = (kp[r] + 1) - (wl[r] + shift) - kp[r] / delta
        if not 0.0 < delta < math.inf:
            return False
    delta = kp[0] - (wl[0] + shift) - kp[0] / delta
    return 0.0 < delta < math.inf


def tree_ball_is_positive(k_plus, weight_values):
    """True when every elimination pivot of the tree ball is finite and positive."""
    kp, w = _tree_ball_levels(k_plus, weight_values)
    return _tree_pivots_positive(kp.tolist(), w.tolist(), 0.0)


def tree_ball_bottom_eigenvalue(k_plus, weight_values, tol=1e-11):
    """Bottom eigenvalue of the tree ball form via bisection on the pivots.

    The shifted matrix is positive definite exactly for shifts below the
    bottom eigenvalue, and a failed elimination implies a singular leading
    block, which by interlacing also rules the shift out.  Works at ball
    sizes where a dense matrix is impossible.  ``k_plus`` is as in
    tree_ball_pivots; ``tol`` must be >= 0.  _bisect_bottom also stops at
    adjacent floats, before the bracket is ``tol`` wide once one ulp of the
    bottom exceeds ``tol`` (a bottom past 2**16 at the default).

    Every pivot step rounds monotonically in the shift, so the pivot test is
    monotone in it.  A ball with the same k_plus = d and weight c on every
    level is the tridiagonal form d - c, then d + 1 - c on every later row,
    coupled by sqrt(d): its closed-form bottom guides the bisection, and
    the result is the unguided float whether or not the guide holds.
    """
    if not tol >= 0.0:  # also refuses NaN
        raise InvalidParameterError(f"tol must be >= 0, got {tol}")
    kp, w = _tree_ball_levels(k_plus, weight_values)
    kp_lo, kp_hi, w_lo, w_hi = kp.min(), kp.max(), w.min(), w.max()
    # Gershgorin: diagonals lie in [min k_plus - max w, max k_plus + 1 - min w],
    # row radii <= max k_plus + 1
    hi = float((kp_hi + 1) - w_lo + (kp_hi + 1))
    lo = float(kp_lo - w_hi - (kp_hi + 1))
    guess = None
    if kp_lo == kp_hi >= 0.0 and w_lo == w_hi:
        d, c = float(kp_hi), float(w_hi)
        guess = _homogeneous_bottom(w.shape[0], d - c, d + 1.0 - c, math.sqrt(d))
    kp, w = kp.tolist(), w.tolist()
    return _bisect_bottom(lo, hi, tol, lambda x: _tree_pivots_positive(kp, w, x), guess)
