"""The bulk degree views and the full-depth Green scans over whole-depth arrays.

The library keeps its degree views over the prefix of radii that its
readers ask for, and reads the scans that span the whole depth one block of
radii at a time; these are the same computations with one array per
quantity over the whole stored depth, kept as the reference that every
prefix and every block size must reproduce exactly.
"""

import itertools
import math
import operator

import numpy as np

from hardy_lab import SizeLimitExceededError
from hardy_lab.greens import _stretch_log

_FLOAT_MAX = 1.7976931348623157e308


def whole_degrees(model):
    """k_plus(0..depth-1) and k_minus(0..depth) as floats, the same in
    exact form, and kappa(0..depth-1) as floats, each over the whole stored
    depth: float views when every degree is an int whose products (and
    products with a radius) stay below 2**53, object arrays of the exact
    values otherwise."""
    n, kp, km = model.depth, model._k_plus, model._k_minus
    try:
        floats = [kp.astype(float), km.astype(float)]
    except OverflowError:
        past = np.append(kp > _FLOAT_MAX, False) | (km > _FLOAT_MAX)
        raise SizeLimitExceededError(
            f"a degree of {model.label} at radius {int(np.argmax(past))} "
            "is past the float64 range"
        ) from None
    floats[1][0] = 0.0
    kappa = np.empty(n)
    kappa[0] = np.nan
    ints = (kp.dtype != object and km.dtype != object
            or set(map(type, itertools.chain(kp, km))) == {int})
    top = int(max(kp.max(), km.max())) if ints else math.inf
    if max(top, n) ** 2 < 2 ** 53:
        exact = floats
    else:
        kp, km = kp.astype(object), km.astype(object)
        exact = [kp, np.concatenate(([0], km[1:]))]
    if top < 2 ** 53:
        np.divide(floats[0][1:], floats[1][1:n], out=kappa[1:])
    else:
        kappa[1:] = np.fromiter(map(operator.truediv, exact[0][1:], exact[1][1:n]),
                                dtype=float, count=n - 1)
    return (*floats, *exact, kappa)


def whole_log_green(model, r_max):
    """l(0..r_max) of greens._log_green, from one array of log kappa over
    the whole depth: the top stretch, the walk, its sums and its filled
    runs all read that array."""
    depth, t = model.depth, model.tail
    if t.kind == "eventually-geometric":
        kap = float(t.kappa_inf)
        top = math.log(kap / (kap - 1.0))
    else:
        top = 0.0
    ell = np.empty(depth)
    np.log(whole_degrees(model)[4][1:], out=ell[:-1])
    ell[-1] = x = top
    no_growth = ell[r_max:depth - 1] <= 0
    s = r_max + no_growth.size - int(no_growth[::-1].argmax()) if no_growth.any() else r_max
    breaks = np.flatnonzero(ell[1:] != ell[:-1]) + 1  # of log kappa, before any step
    hi = depth - 2
    while hi >= 0:
        for r in range(hi, -1, -1):
            if r > s and ell[r - 1] != ell[r]:
                ell[s] = x = _stretch_log(ell, s, r, x)
                hi = s - 1
                break
            z = x - ell[r]
            y = z + math.log1p(math.exp(-z)) if z > 0 else math.log1p(math.exp(z))
            if y == x:
                i = np.searchsorted(breaks, r, side="right")
                start = int(breaks[i - 1]) if i else 0
                ell[start:r + 1] = x
                hi = start - 1
                break
            ell[r] = x = y
        else:
            break
    return ell[:r_max + 1]


def whole_kappa_constant_from(model):
    """The smallest radius from which the stored kappa is constant, from
    whole-depth arrays of kappa and of the exact degrees."""
    end = model.depth - 1
    _, _, kp, km, kap = whole_degrees(model)
    same = kap[1:end] == kap[end]
    ties = np.flatnonzero(same) + 1
    same[ties - 1] = kp[ties] * km[end] == kp[end] * km[ties]
    breaks = np.flatnonzero(~same)
    return int(breaks[-1]) + 2 if breaks.size else 1
