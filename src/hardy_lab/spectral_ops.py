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


def radial_energy(model, values):
    """Dirichlet energy sum_j area(j) (phi(j) - phi(j-1))**2 of a profile.

    ``values[r]`` is the profile at radius r and the profile is treated as 0
    beyond the end of the array, so the sum runs one sphere past the support.
    The last nonzero entry must therefore sit strictly inside the stored
    depth.  Areas are converted to float, which restricts this helper to
    moderate depths; the windowed forms below avoid volumes entirely.
    """
    vals = np.asarray(values, dtype=float)
    nonzero = np.nonzero(vals)[0]
    if nonzero.size == 0:
        return 0.0
    top = int(nonzero[-1])
    if top + 1 > model.depth:
        raise NeedsTailError(
            f"profile support reaches radius {top}, which needs area({top + 1}) "
            f"beyond the stored depth {model.depth}"
        )
    total = 0.0
    for j in range(1, top + 2):
        cur = vals[j] if j <= top else 0.0
        diff = cur - vals[j - 1]
        total += float(model.area(j)) * diff * diff
    return total


@dataclass(frozen=True)
class TridiagonalForm:
    """Symmetrized radial form on the window [r_lo, r_hi] with Dirichlet ends.

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

    @property
    def r_hi(self):
        return self.r_lo + self.n - 1


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
    diagonal = kp[r_lo: r_hi + 1] + km[r_lo: r_hi + 1] - w[r_lo: r_hi + 1]
    offdiagonal = -np.sqrt(kp[r_lo: r_hi] * km[r_lo + 1: r_hi + 1])
    return TridiagonalForm(diagonal=diagonal, offdiagonal=offdiagonal, r_lo=r_lo)


def dense_matrix(form):
    """Dense ndarray of a tridiagonal form, for small cross-checks only."""
    if form.n > MAX_DENSE_DIMENSION:
        raise SizeLimitExceededError(
            f"dense matrix of size {form.n} exceeds cap {MAX_DENSE_DIMENSION}"
        )
    m = np.diag(form.diagonal)
    idx = np.arange(form.n - 1)
    m[idx, idx + 1] = form.offdiagonal
    m[idx + 1, idx] = form.offdiagonal
    return m


def count_eigenvalues_below(form, x):
    """Number of eigenvalues of the form strictly below x, by Sturm counting."""
    diag = form.diagonal
    if form.n == 0:
        return 0
    off2 = form.offdiagonal * form.offdiagonal
    pivmin = max(float(off2.max(initial=0.0)), 1.0) * _SAFE_MIN
    count = 0
    q = 1.0
    for i in range(diag.shape[0]):
        q = diag[i] - x - (off2[i - 1] / q if i else 0.0)
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def eigenvalue_bounds(form):
    """Gershgorin interval guaranteed to contain the whole spectrum."""
    e = np.abs(form.offdiagonal)
    left = np.concatenate(([0.0], e))
    right = np.concatenate((e, [0.0]))
    lo = float(np.min(form.diagonal - left - right))
    hi = float(np.max(form.diagonal + left + right))
    return lo, hi


def smallest_eigenvalue(form, tol=None):
    """Bottom eigenvalue of the form by bisection on the Sturm count.

    The count is monotone in the shift, so bisection inside the Gershgorin
    interval converges unconditionally; default tolerance is 1e-11 times the
    interval width (at least 1e-11 absolute).
    """
    lo, hi = eigenvalue_bounds(form)
    if tol is None:
        tol = 1e-11 * max(1.0, hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if count_eigenvalues_below(form, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -- vertex-level forms ------------------------------------------------------

def vertex_energy(graph, values):
    """Sum over edges of (phi(x) - phi(y))**2 on an expanded graph."""
    vals = np.asarray(values, dtype=float)
    diffs = vals[graph.edges[:, 0]] - vals[graph.edges[:, 1]]
    return float(diffs @ diffs)


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
    w = np.asarray(weight_values, dtype=float)
    radius = w.shape[0] - 1
    if radius < 1:
        raise InvalidParameterError("need weights for at least radii 0 and 1")
    # Python floats round like float64 and index faster in this loop
    kp = np.broadcast_to(np.asarray(k_plus, dtype=float), w.shape).tolist()
    wl = w.tolist()
    delta = [math.nan] * (radius + 1)
    delta[radius] = (kp[radius] + 1) - wl[radius]
    for r in range(radius - 1, -1, -1):
        if delta[r + 1] <= 0.0:
            break
        degree = kp[r] if r == 0 else kp[r] + 1
        delta[r] = degree - wl[r] - kp[r] / delta[r + 1]
    return np.array(delta)


def tree_ball_is_positive(k_plus, weight_values):
    """True when every elimination pivot of the tree ball is positive."""
    delta = tree_ball_pivots(k_plus, weight_values)
    return bool(np.all(np.isfinite(delta)) and np.all(delta > 0.0))


def tree_ball_bottom_eigenvalue(k_plus, weight_values, tol=1e-11):
    """Bottom eigenvalue of the tree ball form via bisection on the pivots.

    The shifted matrix is positive definite exactly for shifts below the
    bottom eigenvalue, and a failed elimination implies a singular leading
    block, which by interlacing also rules the shift out.  Works at ball
    sizes where a dense matrix is impossible.  ``k_plus`` is as in
    tree_ball_pivots.
    """
    w = np.asarray(weight_values, dtype=float)
    kp = np.broadcast_to(np.asarray(k_plus, dtype=float), w.shape)
    # Gershgorin: diagonals lie in [min k_plus - max w, max k_plus + 1 - min w],
    # row radii <= max k_plus + 1
    hi = float((kp.max() + 1) - w.min() + (kp.max() + 1))
    lo = float(kp.min() - w.max() - (kp.max() + 1))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if tree_ball_is_positive(kp, w + mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
