"""The tail-window scans over whole-window arrays.

The library reads the window [depth/2, depth] in blocks; these are the
same computations with one array per quantity over the whole window, kept
as the reference that every block size must reproduce exactly.
"""

import numpy as np


def whole_area_window(model):
    """area(depth) and the exact first and second differences of the areas
    on the window [depth/2, depth], each difference as one array."""
    areas = model.area_values(max(1, model.depth // 2), model.depth)
    return areas[-1], np.diff(areas), np.diff(areas, 2)


def whole_window_transience(model):
    """The window verdict of transience_test on an unspecified tail: True
    or False, or None where it raises InconclusiveTransienceError."""
    lo = max(1, model.depth // 2)
    kp, km = model.exact_degrees(model.depth - 1)
    d1 = kp[lo:] - km[lo:]  # for r = lo..depth-1
    if np.all(d1 <= 0):
        return False
    d2 = kp[lo:-1] * d1[1:] - km[lo + 1:] * d1[:-1]  # for r = lo..depth-2
    if d2.size and np.all(d1 > 0) and np.all(d2 > 0):
        return True
    return None


def whole_window_decreasing(model, r_max):
    """Whether check_properness finds u(r) = r / area(r) strictly
    decreasing on the second half of [1, r_max]."""
    kp, km = model.exact_degrees(r_max - 1)
    half = r_max // 2 + 1
    r = np.arange(half, r_max, dtype=kp.dtype)
    return bool(np.all((r + 1) * km[half:] < r * kp[half:]))
