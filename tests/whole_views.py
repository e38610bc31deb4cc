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
from hardy_lab.radial_model import _window_blocks

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


def whole_stretch_log(blocks, x):
    """greens._stretch_log summed over every block it is given: the terms
    past the block where they vanish are added, as 0, and the closing term
    is the one at the top."""
    c = comp = rest = 0.0
    skip = 1
    for step in blocks:
        sums = np.cumsum(np.concatenate(([c], step)))
        prev, new = sums[:-1], sums[1:]
        back = new - prev
        errs = np.cumsum(np.concatenate(([comp], (prev - (new - back)) + (step - back))))
        terms = np.exp(-prev)
        terms -= terms * errs[:-1]
        rest += terms[skip:].sum()
        skip = 0
        c, comp = float(new[-1]), float(errs[-1])
    return math.log1p(rest + math.exp((x - c) - comp))


def whole_log_green(model, r_max):
    """l(0..r_max) of greens._log_green, from one array of log kappa over
    the whole depth: the top stretch where no area falls, its sum over the
    same blocks of radii as the library's and up to the top, and one step
    per radius below."""
    depth, t = model.depth, model.tail
    if t.kind == "eventually-geometric":
        kap = float(t.kappa_inf)
        x = math.log(kap / (kap - 1.0))
    else:
        x = 0.0
    ell = np.log(whole_degrees(model)[4][1:])  # ell[r] = log kappa(r + 1)
    falls = np.flatnonzero(model._k_plus[r_max + 1:] < model._k_minus[r_max + 1:depth])
    s = r_max + 1 + int(falls[-1]) if falls.size else r_max
    if s < depth - 1:
        # np.sum is pairwise: the block edges are part of the result
        x = whole_stretch_log((ell[b0:b1] for b0, b1 in _window_blocks(s, depth - 1)), x)
    out = np.empty(r_max + 1)
    out[s:] = x
    for r in range(s - 1, -1, -1):
        z = x - ell[r]
        x = z + math.log1p(math.exp(-z)) if z > 0 else math.log1p(math.exp(z))
        if r <= r_max:
            out[r] = x
    return out


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
