"""Continuum counterparts of the discrete weights, on radial manifolds.

A rotationally symmetric space enters only through its radial volume
density f(r).  The master formula for the optimal radial Hardy weight is

    W(r) = 1/(4 r**2) + (1/4) (2 f''(r)/f(r) - (f'(r)/f(r))**2),

and the profile psi_1(r) = sqrt(r / f(r)) together with its logarithmic
companion psi_2 = psi_1 log r solve (-Laplace - W) psi = 0 for every
density, where the radial Laplacian is psi'' + (f'/f) psi'.  The paired
solutions are the continuum criticality signature.  Family closed forms
(hyperbolic space, rotational models, Damek-Ricci spaces) are implemented
separately from the master formula so the two can be played against each
other, and the harmonicity of psi_1, psi_2 is checked by finite
differences as a third, formula-free route.

Densities, profile curves and their derivatives take and return numpy
arrays; each routine evaluates and checks them once per grid, as one array
expression.  A scalar radius still gives a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmallError,
    InvalidDensityError,
    InvalidParameterError,
    OriginSingularityError,
)
from .reporting import VerificationReport

NUMERIC_DERIVATIVE_STEP = 1e-5
# the most radii one grid takes; each check holds a few float arrays of it
MAX_GRID_POINTS = 10 ** 6
# psi(r - h) - 2 psi(r) + psi(r + h) carries about 4 rounding errors of psi,
# each a few ulps of |psi|; the factor bounds their sum
ROUNDOFF_FLOOR = 16.0


def _positive(values, r, what):
    """values, once all finite and positive; else name the first bad radius."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        raise InvalidDensityError(
            f"{what} is {float(np.ravel(values)[bad[0]])!r} at "
            f"r = {float(np.ravel(r)[bad[0]])}; must be finite positive"
        )
    return values


def _radii(r):
    """r as a float array (0-d for a scalar), away from the origin."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise OriginSingularityError("the weight is singular at r <= 0")
    return r


@dataclass(frozen=True)
class CurveSpec:
    """A function of the radius with optional first and second derivatives.

    All three take and return numpy arrays.  Missing derivatives are filled
    by central differences at the step NUMERIC_DERIVATIVE_STEP; analytic
    derivatives win when supplied.
    """

    value: object
    d1: object = None
    d2: object = None

    def resolved(self):
        fn, d1, d2 = self.value, self.d1, self.d2
        h = NUMERIC_DERIVATIVE_STEP
        if d1 is None:
            d1 = lambda r: (fn(r + h) - fn(r - h)) / (2.0 * h)
        if d2 is None:
            d2 = lambda r: (fn(r + h) - 2.0 * fn(r) + fn(r - h)) / (h * h)
        return fn, d1, d2


def _as_curve(obj):
    if isinstance(obj, CurveSpec):
        return obj
    if callable(obj):
        return CurveSpec(value=obj)
    raise InvalidParameterError(f"expected a callable or CurveSpec, got {obj!r}")


@dataclass(frozen=True)
class RadialDensity:
    """A radial volume density with two derivatives and its provenance."""

    kind: str
    dim: object
    f: object
    df: object
    d2f: object
    params: dict
    label: str

    def density_triple(self, r):
        """f, f' and f'' at r, shaped like r, once f is checked finite and
        positive on all of it."""
        fr = _positive(self.f(r), r, f"density of {self.label}")
        return np.broadcast_arrays(r, fr, self.df(r), self.d2f(r))[1:]


def hyperbolic_space(d):
    """Hyperbolic d-space, density sinh(r)**(d-1); needs d >= 3."""
    if d < 3:
        raise DimensionTooSmallError("hyperbolic closed form needs dimension >= 3")
    p = d - 1

    def f(r):
        return np.sinh(r) ** p

    def df(r):
        return p * np.sinh(r) ** (p - 1) * np.cosh(r)

    def d2f(r):
        s, c = np.sinh(r), np.cosh(r)
        return p * (p - 1) * s ** (p - 2) * c * c + p * s ** p

    return RadialDensity(
        kind="hyperbolic", dim=d, f=f, df=df, d2f=d2f,
        params={"d": d}, label=f"hyperbolic(d={d})",
    )


def riemannian_model(h, dim):
    """Rotational model with metric dr**2 + h(r)**2 dtheta**2, density h**(d-1)."""
    if dim < 2:
        raise DimensionTooSmallError("a rotational model needs dimension >= 2")
    curve = _as_curve(h)
    hf, dh, d2h = curve.resolved()
    p = dim - 1

    def f(r):
        return hf(r) ** p

    def df(r):
        return p * hf(r) ** (p - 1) * dh(r)

    def d2f(r):
        hr = hf(r)
        return p * (p - 1) * hr ** (p - 2) * dh(r) ** 2 + p * hr ** (p - 1) * d2h(r)

    return RadialDensity(
        kind="model", dim=dim, f=f, df=df, d2f=d2f,
        params={"dim": dim, "curve": curve}, label=f"model(dim={dim})",
    )


def harmonic_manifold(f, label="harmonic"):
    """Space given directly by its radial density f."""
    fv, df, d2f = _as_curve(f).resolved()
    return RadialDensity(kind="harmonic", dim=None, f=fv, df=df, d2f=d2f,
                         params={}, label=label)


def damek_ricci_space(p, q):
    """Damek-Ricci space with parameters (p, q), dimension p + q + 1 >= 4.

    Density sinh(r/2)**(p+q) cosh(r/2)**q; the logarithmic derivative is
    g(r) = (p+q)/2 coth(r/2) + q/2 tanh(r/2) and f''/f = g' + g**2.
    """
    if p < 1 or q < 0:
        raise InvalidParameterError("need p >= 1 and q >= 0")
    if p + q + 1 < 4:
        raise DimensionTooSmallError("Damek-Ricci closed form needs p + q + 1 >= 4")

    def f(r):
        return np.sinh(r / 2.0) ** (p + q) * np.cosh(r / 2.0) ** q

    def g(r):
        return (p + q) / 2.0 / np.tanh(r / 2.0) + q / 2.0 * np.tanh(r / 2.0)

    def dg(r):
        return -(p + q) / 4.0 / np.sinh(r / 2.0) ** 2 + q / 4.0 / np.cosh(r / 2.0) ** 2

    def df(r):
        return g(r) * f(r)

    def d2f(r):
        return (dg(r) + g(r) ** 2) * f(r)

    return RadialDensity(
        kind="damek-ricci", dim=p + q + 1, f=f, df=df, d2f=d2f,
        params={"p": p, "q": q}, label=f"damek-ricci(p={p},q={q})",
    )


# -- weights ------------------------------------------------------------------

def _master_weight(r, fr, d1, d2):
    return 1.0 / (4.0 * r * r) + 0.25 * (2.0 * d2 / fr - (d1 / fr) ** 2)


def density_weight(space, r):
    """Master weight from the density alone; r may be a scalar or array."""
    r = _radii(r)
    return _master_weight(r, *space.density_triple(r))


def weight_hyperbolic(d, r):
    """Closed form on hyperbolic d-space (d >= 3):

    (d-1)**2/4 + 1/(4 r**2) + (d-1)(d-3)/(4 sinh(r)**2).
    """
    if d < 3:
        raise DimensionTooSmallError("hyperbolic closed form needs dimension >= 3")
    rr = np.asarray(r, dtype=float)
    return ((d - 1) ** 2 / 4.0
            + 1.0 / (4.0 * rr ** 2)
            + (d - 1) * (d - 3) / (4.0 * np.sinh(rr) ** 2))


def weight_model(h, dim, r):
    """Closed form on a rotational model:

    1/(4 r**2) + ((d-1)/4)(2 h''/h) + ((d-1)(d-3)/4)(h'/h)**2.
    """
    if dim < 2:
        raise DimensionTooSmallError("a rotational model needs dimension >= 2")
    hf, dh, d2h = _as_curve(h).resolved()
    r = _radii(r)
    hr = _positive(hf(r), r, "profile h")
    return (1.0 / (4.0 * r * r)
            + (dim - 1) / 4.0 * (2.0 * d2h(r) / hr)
            + (dim - 1) * (dim - 3) / 4.0 * (dh(r) / hr) ** 2)


def weight_damek_ricci(p, q, r):
    """Closed form on the (p, q) Damek-Ricci space:

    (p+2q)**2/16 + 1/(4 r**2) + p(p+2q-2)/(16 sinh(r/2)**2)
                              + q(q-2)/(4 sinh(r)**2).
    """
    if p < 1 or q < 0 or p + q + 1 < 4:
        raise DimensionTooSmallError("Damek-Ricci closed form needs p + q + 1 >= 4")
    rr = np.asarray(r, dtype=float)
    return ((p + 2 * q) ** 2 / 16.0
            + 1.0 / (4.0 * rr ** 2)
            + p * (p + 2 * q - 2) / (16.0 * np.sinh(rr / 2.0) ** 2)
            + q * (q - 2) / (4.0 * np.sinh(rr) ** 2))


# -- harmonicity and structural conditions ------------------------------------

def _grid(r_min, r_max, n_points):
    if not (0.0 < r_min < r_max < math.inf):
        raise InvalidParameterError(
            f"need finite 0 < r_min < r_max, got r_min = {r_min}, r_max = {r_max}"
        )
    if not 2 <= n_points <= MAX_GRID_POINTS:
        raise InvalidParameterError(f"need 2 to {MAX_GRID_POINTS} grid points, got {n_points}")
    return np.linspace(r_min, r_max, n_points)


def _residual_and_psi_max(space, r_min, r_max, h_step, which, n_points):
    """Max scaled residual of (-Laplace - W) psi over a grid, and max |psi|.

    psi is evaluated exactly and differentiated by central differences of
    step h_step; W is the master formula.  which selects psi: "sqrt-u" is
    sqrt(r / f(r)), "sqrt-u-log" multiplies by log r.  The residual scales
    like h_step**2; halving the step should shrink it by about 4, which
    check_harmonicity holds it to.  max |psi| is taken over the stencil.
    """
    if which not in ("sqrt-u", "sqrt-u-log"):
        raise InvalidParameterError(f"unknown profile selector {which!r}")
    if not 0.0 < h_step < math.inf:
        raise InvalidParameterError(f"h_step must be finite and positive, got {h_step}")
    if r_min - h_step <= 0.0:
        raise OriginSingularityError(
            "the difference stencil reaches r <= 0; raise r_min or shrink h_step"
        )
    grid = _grid(r_min, r_max, n_points)
    # one row (r - h, r, r + h) per grid point, so radii ascend row by row
    stencil = grid[:, None] + np.array([-h_step, 0.0, h_step])
    f, df, d2f = space.density_triple(stencil)
    fr, d1, d2 = f[:, 1], df[:, 1], d2f[:, 1]
    w = _master_weight(grid, fr, d1, d2)
    psi = np.sqrt(stencil / f)
    if which == "sqrt-u-log":
        psi *= np.log(stencil)
    down, mid, up = psi.T
    second = (up - 2.0 * mid + down) / (h_step * h_step)
    first = (up - down) / (2.0 * h_step)
    residual = -(second + (d1 / fr) * first) - w * mid
    scaled = float(np.max(np.abs(residual) / np.maximum(1.0, np.abs(w * mid))))
    return scaled, max(float(psi.max()), -float(psi.min()))


def check_harmonicity(space, r_min, r_max, h_step=1e-3, which="sqrt-u", n_points=200):
    """Second-order convergence check of the harmonicity residual.

    Runs the residual at h_step and h_step/2; passes when the coarse
    residual is below tol and the ratio of the two sits in [3.2, 4.8]
    (the clean-second-order value is 4).  It also passes when both
    residuals are below the roundoff floor of a second difference,
    ROUNDOFF_FLOOR * eps * max|psi| / h_step**2, and below tol: a profile
    that solves the equation exactly leaves only roundoff, which does not
    shrink with h.  Under the floor but above tol it is inconclusive.
    """
    coarse, psi_max = _residual_and_psi_max(space, r_min, r_max, h_step,
                                            which, n_points)
    fine, _ = _residual_and_psi_max(space, r_min, r_max, h_step / 2.0,
                                    which, n_points)
    factor = coarse / fine if fine > 0.0 else math.inf
    tol = 1e-4
    ok = coarse <= tol and 3.2 <= factor <= 4.8
    floor = ROUNDOFF_FLOOR * np.finfo(float).eps * psi_max / (h_step * h_step)
    status, notes = "pass" if ok else "fail", ()
    if not ok and max(coarse, fine) <= floor:
        status = "pass" if max(coarse, fine) <= tol else "inconclusive"
        notes = (f"both residuals are below the roundoff floor {floor:.3g} "
                 "of the second difference: " + (
                     "the profile solves the equation to rounding" if status == "pass"
                     else f"one is above tol {tol:g}, so the step is too small to tell"),)
    return VerificationReport(
        check=f"harmonicity-{which}",
        status=status,
        residuals={"residual_coarse": coarse, "residual_fine": fine,
                   "convergence_factor": factor if math.isfinite(factor) else 0.0},
        params={"space": space.label, "r_min": r_min, "r_max": r_max,
                "h_step": h_step, "n_points": n_points, "tol": tol},
        notes=notes,
    )


def check_harmonic_condition(space, r_min, r_max, n_points=200):
    """Report min over the grid of 2 f f'' - (f')**2 (>= 0 wanted).

    Equivalent to the master weight dominating 1/(4 r**2).  Report-only.
    """
    fr, d1, d2 = space.density_triple(_grid(r_min, r_max, n_points))
    worst = float(np.min(2.0 * fr * d2 - d1 * d1))
    return VerificationReport(
        check="harmonic-density-condition",
        status="pass" if worst >= 0.0 else "fail",
        residuals={"min_margin": worst},
        params={"space": space.label, "r_min": r_min, "r_max": r_max,
                "n_points": n_points},
    )


def closed_form_weight_fn(space):
    """The family closed form matching a density, or None when there is none.

    hyperbolic and damek-ricci densities carry their parameters, and a
    rotational model keeps its profile curve, so all three compare the
    master formula against an independent algebraic route.  A generic
    harmonic density has no separate closed form (the master formula is
    already it).
    """
    if space.kind == "hyperbolic":
        d = space.params["d"]
        return lambda r: weight_hyperbolic(d, r)
    if space.kind == "damek-ricci":
        p, q = space.params["p"], space.params["q"]
        return lambda r: weight_damek_ricci(p, q, r)
    if space.kind == "model":
        curve, dim = space.params["curve"], space.params["dim"]
        return lambda r: weight_model(curve, dim, r)
    return None


def check_closed_form_agreement(space, r_min, r_max, n_points=200):
    """Master density weight against the family closed form on a grid.

    For spaces without their own closed form the status is
    hypothesis-not-met (there is nothing independent to compare).
    """
    closed = closed_form_weight_fn(space)
    if closed is None:
        return VerificationReport(
            check="continuum-closed-form-agreement",
            status="hypothesis-not-met",
            residuals={},
            params={"space": space.label},
            notes=("no family closed form for this density",),
        )
    tol = 1e-9
    grid = _grid(r_min, r_max, n_points)
    a, b = density_weight(space, grid), closed(grid)
    worst = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))
    return VerificationReport(
        check="continuum-closed-form-agreement",
        status="pass" if worst <= tol else "fail",
        residuals={"max_rel_diff": worst},
        params={"space": space.label, "r_min": r_min, "r_max": r_max,
                "n_points": n_points, "tol": tol},
    )


# -- named curve generators for file-based specs ------------------------------

BUILTIN_CURVES = {
    "sinh": CurveSpec(value=np.sinh, d1=np.cosh, d2=np.sinh),
    "linear": CurveSpec(value=lambda r: r, d1=np.ones_like, d2=np.zeros_like),
    "cosh": CurveSpec(value=np.cosh, d1=np.sinh, d2=np.cosh),
    "sinh-cubed": CurveSpec(
        value=lambda r: np.sinh(r) ** 3,
        d1=lambda r: 3.0 * np.sinh(r) ** 2 * np.cosh(r),
        d2=lambda r: 6.0 * np.sinh(r) * np.cosh(r) ** 2 + 3.0 * np.sinh(r) ** 3,
    ),
}


def load_density(path):
    """Read a density description restricted to named built-in curves.

    Line format: a "radial-density v1" header, then "kind" one of
    hyperbolic / model / harmonic / damek-ricci with its parameters:

        kind hyperbolic     + "dim <d>"
        kind model          + "dim <d>" + "curve <name>"
        kind harmonic       + "curve <name>"
        kind damek-ricci    + "p <p>" + "q <q>"

    Curve names come from BUILTIN_CURVES; arbitrary code is not accepted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "radial-density v1":
        raise InvalidParameterError(f"{path}: missing 'radial-density v1' header")
    fields = {}
    for ln in lines[1:]:
        key, _, value = ln.partition(" ")
        if not value:
            raise InvalidParameterError(f"{path}: bad line {ln!r}")
        fields[key] = value.strip()

    def integer(key):
        try:
            return int(fields[key])
        except (KeyError, ValueError):
            raise InvalidParameterError(f"{path}: kind {kind} needs an integer "
                                        f"'{key}' line, got {fields.get(key)!r}") from None

    kind = fields.get("kind")
    if kind == "hyperbolic":
        return hyperbolic_space(integer("dim"))
    if kind == "damek-ricci":
        return damek_ricci_space(integer("p"), integer("q"))
    if kind in ("model", "harmonic"):
        name = fields.get("curve")
        if name not in BUILTIN_CURVES:
            raise InvalidParameterError(
                f"{path}: curve {name!r} is not one of {sorted(BUILTIN_CURVES)}"
            )
        curve = BUILTIN_CURVES[name]
        if kind == "model":
            return riemannian_model(curve, integer("dim"))
        return harmonic_manifold(curve, label=f"harmonic({name})")
    raise InvalidParameterError(f"{path}: unknown kind {kind!r}")
