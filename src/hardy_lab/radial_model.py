"""Radially symmetric graph models given by sphere data.

A model records, for each distance r from a root vertex, the outward degree
``k_plus(r)``, the inward degree ``k_minus(r)`` and the sphere volume
``vol(r)``.  These describe every rooted graph whose structure depends only
on the distance to the root.  The boundary area

    area(r) = k_minus(r) * vol(r) = k_plus(r - 1) * vol(r - 1)

ties the three sequences together; constructors reject data that breaks the
identity.  Radial data is always exact: every value is an int or a
Fraction, floats are taken at their exact binary value on entry, so
downstream checks can separate genuine numerical error from modelling
error.  A sequence of ints that all lie below 2**63 is stored as an int64
array and any other as an object array of the values; the accessors return
Python ints and Fractions either way.  A product of stored entries is
formed in int64 in one place only, the blocks of the tail-window scan
(see ``RadialModel._window_block``), and only where a bound on the block
proves every product exact.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InconsistentModelError,
    InvalidParameterError,
    NeedsTailError,
    NoCanonicalRealizationError,
    SizeLimitExceededError,
    UndefinedAtOriginError,
)

TAIL_KINDS = ("finite", "eventually-geometric", "unspecified")

MAX_VERTEX_EXPANSION = 100_000
MAX_DEPTH = 10 ** 7  # trees and antitrees; verify at this depth peaks below 1 GB
MAX_EDGE_EXPANSION = 2_000_000

# Integers below this are exact in float64.
_EXACT_FLOAT_LIMIT = 2 ** 53
# Integer sequences whose entries all lie below this are stored as int64.
_INT64_LIMIT = 2 ** 63
_FLOAT_MAX = sys.float_info.max
# Radii per block in the scan of the tail window [depth/2, depth] and the
# scans of the whole depth: a scan holds arrays of about this length, never
# of the range it scans.
_WINDOW_BLOCK = 4096
# A window block is scanned in int64 when its largest stored entry times its
# largest factor lies below this: every product is then below 2**62 in size,
# and every difference of two products below 2**63.
_INT64_PRODUCT_LIMIT = 2 ** 62
# Rows of a model file held as tokens before they are read column by column,
# and radii per block of make_custom's exact area comparison.
_ROW_BLOCK = 64

_TailWindow = collections.namedtuple("_TailWindow", "transient decreasing areas")


def _window_blocks(r_lo, r_hi):
    """range(r_lo, r_hi) as consecutive (start, stop) blocks of at most
    _WINDOW_BLOCK radii."""
    step = _WINDOW_BLOCK
    return ((s, min(s + step, r_hi)) for s in range(r_lo, r_hi, step))


def _blocks_down(r_lo, r_hi):
    """The blocks of ``_window_blocks(r_lo, r_hi)``'s kind from the top
    down: (max(r_lo, r_hi - _WINDOW_BLOCK), r_hi) first."""
    step = _WINDOW_BLOCK
    return ((max(r_lo, e - step), e) for e in range(r_hi, r_lo, -step))


def _as_radius(r):
    try:
        r = operator.index(r)
    except TypeError:
        raise InvalidParameterError(f"radius must be an integer, got {r!r}") from None
    if r < 0:
        raise InvalidParameterError(f"radius must be nonnegative, got {r}")
    return r


def _as_depth(depth, what):
    try:
        depth = operator.index(depth)
    except TypeError:
        raise InvalidParameterError(f"{what} depth must be an integer, got {depth!r}") from None
    if depth < 2:
        raise InvalidParameterError(f"{what} depth must be at least 2, got {depth}")
    if depth > MAX_DEPTH:
        raise SizeLimitExceededError(f"{what} depth {depth} is past the cap {MAX_DEPTH}")
    return depth


def _as_exact(x, name, r=None):
    """x as an int, or as a Fraction when it is not whole.

    Takes ints, numpy integers, Fractions and finite floats; a float is
    taken at its exact binary value, and numpy integers become Python ints,
    whose products never wrap.  NaN, infinities and anything that is not a
    number raise InvalidParameterError naming ``name`` (at radius r).
    """
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)) and math.isfinite(x):
        x = Fraction(float(x))
    elif not isinstance(x, Fraction):
        where = name if r is None else f"{name}({r})"
        raise InvalidParameterError(f"{where} must be a finite number, got {x!r}")
    return int(x) if x.denominator == 1 else x


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _stored(values):
    """An object array of exact nonnegative values as a model stores it:
    int64 when every entry is an int below 2**63, the array itself
    otherwise."""
    if set(map(type, values)) == {int} and values.max() < _INT64_LIMIT:
        return values.astype(np.int64)
    return values


def _objects(a):
    """A stored array as an object array of its values: int64 entries
    become Python ints, a zero-stride view stays a zero-stride view of one
    int, and an object array comes back as it is."""
    if a.dtype == object:
        return a
    if a.strides == (0,):
        return np.broadcast_to(np.array(a.item(0), dtype=object), a.shape)
    return _frozen(a.astype(object))


def _log_of_exact(v):
    # math.log takes arbitrary-size ints, which keeps huge sphere volumes usable
    if isinstance(v, Fraction):
        return math.log(v.numerator) - math.log(v.denominator)
    return math.log(v)


@dataclass(frozen=True)
class Tail:
    """What is assumed about the model beyond the stored depth.

    kind "finite" means the graph simply ends at the stored depth.  kind
    "eventually-geometric" asserts area(r + 1) = kappa_inf * area(r) for all
    r >= start.  kind "unspecified" promises nothing, so computations that
    need the tail must either raise or fall back to data-driven bounds.
    """

    kind: str
    kappa_inf: Fraction | None = None
    start: int = 1

    def __post_init__(self):
        if self.kappa_inf is not None:
            object.__setattr__(self, "kappa_inf",
                               Fraction(_as_exact(self.kappa_inf, "kappa_inf")))
        if self.kind not in TAIL_KINDS:
            raise InvalidParameterError(
                f"tail kind must be one of {TAIL_KINDS}, got {self.kind!r}"
            )
        if self.kind == "eventually-geometric":
            if self.kappa_inf is None:
                raise InvalidParameterError("geometric tail needs kappa_inf")
            if self.kappa_inf <= 0:
                raise InvalidParameterError("kappa_inf must be positive")
            if self.start < 1:
                raise InvalidParameterError("geometric tail start must be >= 1")
        elif self.kappa_inf is not None:
            raise InvalidParameterError(f"{self.kind} tail takes no kappa_inf")


class RadialModel:
    """Immutable radial data for spheres 0..depth.

    ``k_plus(r)`` is defined for 0 <= r < depth, ``k_minus(r)``, ``vol(r)``
    and ``area(r)`` for 0 <= r <= depth.  Reading past the stored depth
    raises NeedsTailError; rebuild the model deeper instead of guessing.
    Use the ``make_*`` constructors rather than instantiating directly.

    The data is held exactly, in read-only arrays built once by the
    constructors: k_plus over radii 0..depth-1, k_minus and vol over
    0..depth (entry 0 of k_minus is never read).  Each array is int64 when
    all its entries are ints below 2**63, and an object array of ints and
    Fractions otherwise; the constructors decide this once.  An antitree's
    three arrays are offset views of one array of sphere sizes.  A tree
    stores its degrees as zero-stride views of d and 1 and no volumes (vol
    is None), since d**r is formed per call.  The per-radius accessors
    return Python ints and Fractions, never numpy scalars, and area(r) is
    always k_minus(r) * vol(r), multiplied as Python ints.

    The bulk views are the degrees as floats, the degrees in an exact form
    (see ``exact_degrees``) and kappa as floats, the scale-free data that
    the float consumers read.  They are kept read-only over a prefix of the
    radii, as large as the readers have asked for: the range accessors
    slice it, and a request past it rebuilds it at least twice as long
    (see ``_degrees``), so a deep model holds views of the radii its
    readers need, not of its whole stored depth.  Scans that span the whole
    depth read the same views one block of radii at a time through
    ``_degree_block``.  How the views are formed (float or object exact
    degrees, kappa by one float division or one Fraction division per
    radius) is decided once per model from all its stored degrees (see
    ``_degree_form``), so a view never depends on how far it reaches.  What
    the tail window [depth/2, depth] shows (the transience verdict, whether
    the ground profile falls there, and the areas of the Green tail bound)
    is read in one pass and kept once per model too (see ``_tail_window``).
    Exact areas are never cached, because on a tree they grow like d**r;
    ``area_values`` and ``log_area_floats`` form them per call.
    """

    def __init__(self, *, k_plus, k_minus, vol, tail, label):
        depth = len(k_plus)
        if depth < 2:
            raise InvalidParameterError("model depth must be at least 2")
        self._k_plus, self._k_minus = _frozen(k_plus), _frozen(k_minus)
        self._vol = vol if vol is None else _frozen(vol)
        self._depth = depth
        self._tail = tail
        self._label = label
        self._prefix = None  # the bulk views over radii 0.. (see _degrees)

    @property
    def depth(self):
        return self._depth

    @property
    def tail(self):
        return self._tail

    @property
    def label(self):
        return self._label

    def __repr__(self):
        return (f"RadialModel({self._label!r}, depth={self._depth}, "
                f"tail={self._tail.kind!r})")

    def _need(self, r, bound, what):
        if r > bound:
            raise NeedsTailError(
                f"{what}({r}) lies beyond the stored depth {self._depth}; "
                "rebuild the model with a larger depth"
            )

    def _volume(self, r):
        # item() gives a Python int from int64 storage, so d**r never wraps
        return self._k_plus.item(0) ** r if self._vol is None else self._vol.item(r)

    def k_plus(self, r):
        """Outward degree at radius r (defined for r < depth)."""
        r = _as_radius(r)
        self._need(r, self._depth - 1, "k_plus")
        return self._k_plus.item(r)

    def k_minus(self, r):
        """Inward degree at radius r; the origin has none, so k_minus(0) = 0."""
        r = _as_radius(r)
        if r == 0:
            return 0
        self._need(r, self._depth, "k_minus")
        return self._k_minus.item(r)

    def vol(self, r):
        """Number of vertices on the sphere of radius r."""
        r = _as_radius(r)
        self._need(r, self._depth, "vol")
        return self._volume(r)

    def area(self, r):
        """Edge boundary area k_minus(r) * vol(r); area(0) = 0."""
        r = _as_radius(r)
        if r == 0:
            return 0
        self._need(r, self._depth, "area")
        return self._k_minus.item(r) * self._volume(r)

    def kappa(self, r):
        """Degree ratio k_plus(r) / k_minus(r) as an exact Fraction."""
        r = _as_radius(r)
        if r == 0:
            raise UndefinedAtOriginError(
                "kappa(0) is undefined because the origin has no inward sphere"
            )
        self._need(r, self._depth - 1, "kappa")
        return Fraction(self._k_plus.item(r)) / Fraction(self._k_minus.item(r))

    # -- bulk views (read-only, over the prefix of radii the readers ask for) --

    @functools.cached_property
    def _degree_form(self):
        """(exact degrees are the float views, kappa is a division of the
        float views), decided once from all stored degrees; see
        ``_degree_block``.  SizeLimitExceededError when a degree is past the
        float64 range, naming the first radius that holds one."""
        kp, km = self._k_plus, self._k_minus
        if kp.dtype == object or km.dtype == object:
            # float() of the largest degree overflows exactly when float()
            # of some degree does; item() makes an int64 maximum a Python
            # int, which a Fraction compares without int64 products
            try:
                float(max(kp.max(keepdims=True).item(), km.max(keepdims=True).item()))
            except OverflowError:
                past = np.append(kp > _FLOAT_MAX, False) | (km > _FLOAT_MAX)
                raise SizeLimitExceededError(
                    f"a degree of {self._label} at radius {int(np.argmax(past))} "
                    "is past the float64 range"
                ) from None
        # int64 storage holds ints only; object storage may hold any
        ints = (kp.dtype != object and km.dtype != object
                or set(map(type, itertools.chain(kp, km))) == {int})
        top = int(max(kp.max(), km.max())) if ints else math.inf
        return max(top, self._depth) ** 2 < _EXACT_FLOAT_LIMIT, top < _EXACT_FLOAT_LIMIT

    def _degree_block(self, s, e, exact=True):
        """k_plus and k_minus as floats, the same in exact form (see
        ``exact_degrees``), and kappa as floats, on radii s..e-1 (0 <= s <
        e <= depth + 1; k_plus and kappa stop at depth - 1, and entry 0 of
        kappa is NaN).  With exact=False the exact form is None where it
        would be a copy that kappa does not need.

        The float views are one cast of the stored slices.  The exact form
        is the float views when every stored degree is an int small enough
        for their products to stay exact, and object arrays of the values
        otherwise (see ``_objects``).  kappa is one division of the float
        views when every degree is exact in float64, and one correctly
        rounded division per radius, as float(Fraction), otherwise.
        """
        exact_floats, divide = self._degree_form
        n = min(e, self._depth)
        kp, km = self._k_plus[s:n], self._k_minus[s:e]
        floats = [kp.astype(float), km.astype(float)]
        lo = 1 if s == 0 else 0  # kappa and k_minus at the origin
        floats[1][:lo] = 0.0  # k_minus(0), whatever entry 0 stores
        if exact_floats:
            exact_views = floats
        elif exact or not divide:
            kp, km = _objects(kp), _objects(km)
            if lo and km[0] != 0:  # a tree's broadcast k_minus stores 1 at the origin
                km = _frozen(np.concatenate(([0], km[1:])))
            exact_views = [kp, km]
        else:
            exact_views = [None, None]
        kappa = np.empty(n - s)
        kappa[:lo] = np.nan
        if divide:
            # both degrees exact in float64: one division rounds correctly
            np.divide(floats[0][lo:], floats[1][lo:n - s], out=kappa[lo:])
        else:
            kappa[lo:] = np.fromiter(map(operator.truediv, exact_views[0][lo:],
                                         exact_views[1][lo:n - s]),
                                     dtype=float, count=n - s - lo)
        return (*map(_frozen, floats), *exact_views, _frozen(kappa))

    def _areas_fall(self, s, e):
        """Whether area(r + 1) < area(r), i.e. kappa(r) < 1, for r in s..e-1
        (1 <= s < e <= depth), compared exactly on the stored values."""
        return self._k_plus[s:e] < self._k_minus[s:e]

    def _degrees(self, n):
        """The ``_degree_block`` views of radii 0..m-1 for some m >= n.

        They are kept as a prefix cache.  A request past it drops the old
        views and builds new ones over max(n, twice as many radii) radii, so
        a reader's views cost what it reads, and readers that ask further
        and further build O(log depth) times.  Views that reach radius
        depth - 1 take k_minus(depth) too, so that no reader of the whole
        stored depth rebuilds them for that one entry.
        """
        have = 0 if self._prefix is None else len(self._prefix[1])
        if n > have:
            self._prefix = None  # before the new views are built
            m = max(n, 2 * have)
            self._prefix = self._degree_block(0, self._depth + 1 if m >= self._depth else m)
        return self._prefix

    def _upto(self, r_hi, last, what):
        """r_hi + 1, once radius r_hi is checked against ``last``."""
        r_hi = _as_radius(r_hi)
        self._need(r_hi, last, what)
        return r_hi + 1

    def k_plus_floats(self, r_hi):
        """k_plus(0..r_hi) as a float array."""
        n = self._upto(r_hi, self._depth - 1, "k_plus")
        return self._degrees(n)[0][:n]

    def k_minus_floats(self, r_hi):
        """k_minus(0..r_hi) as a float array (entry 0 is 0)."""
        n = self._upto(r_hi, self._depth, "k_minus")
        return self._degrees(n)[1][:n]

    def exact_degrees(self, r_hi):
        """k_plus(0..r_hi) and k_minus(0..r_hi) in arrays with exact products.

        A product of two entries, or of an entry and a radius up to the
        stored depth, and the difference of two such products are exact in
        these arrays, so kappa ratios compare and subtract exactly through
        cross products.  They are the float views when every stored degree
        is an integer small enough for those products to stay below 2**53,
        and object arrays of the ints and Fractions otherwise, never int64.
        The choice is made once per model, from all its stored degrees, so
        every r_hi gets the same kind of array.  Degrees stored as int64 are
        converted over the prefix that the views cover, one copy per array.
        """
        n = self._upto(r_hi, self._depth - 1, "k_plus")
        views = self._degrees(n)
        return views[2][:n], views[3][:n]

    def kappa_floats(self, r_hi):
        """kappa(1..r_hi) as a float array, each rounded once; entry 0 is NaN."""
        n = self._upto(r_hi, self._depth - 1, "kappa")
        return self._degrees(n)[4][:n]

    @functools.cached_property
    def _tail_window(self):
        """What the exact data shows on the tail window [depth/2, depth],
        read in one pass: (transient, decreasing, areas).

        transient is the transience verdict read from the areas: False when
        no first difference is positive, True when all first and second
        differences are (and there is a second difference), None otherwise.
        decreasing is whether u(r) = r / area(r) strictly decreases on radii
        depth//2 + 1..depth.  areas is, on an unspecified tail only (so a
        tree never forms its areas d**r), area(depth), the last first
        difference and the smallest second difference of the areas, as
        exact ints and Fractions; it is None on other tails.

        No other area is formed: area(r + 1) - area(r) is vol(r) d1(r) with
        d1 = k_plus - k_minus, the second difference at r is
        vol(r) / k_minus(r + 1) times d2(r) = k_plus(r) d1(r + 1) -
        k_minus(r + 1) d1(r), and u(r + 1) < u(r) exactly when
        (r + 1) k_minus(r) < r k_plus(r).  The blocks share their boundary
        radius, so that each second difference lies in exactly one, and are
        read in int64 where that is exact (see ``_window_block``).
        """
        depth = self._depth
        lo = max(1, depth // 2)
        unspecified = self._tail.kind == "unspecified"
        grows = flat = bent = False  # some d1 > 0; some d1 <= 0; some d2 <= 0
        decreasing, lows = True, []
        for s, e in _window_blocks(lo, depth):
            kp, km, *vol = self._window_block(s, min(e + 1, depth), unspecified)
            d1 = kp - km  # at radii s..min(e, depth - 1)
            d2 = kp[:-1] * d1[1:] - km[1:] * d1[:-1]
            grows = grows or bool(np.any(d1 > 0))
            flat = flat or bool(np.any(d1 <= 0))
            bent = bent or bool(np.any(d2 <= 0))
            r = np.arange(s, s + len(kp), dtype=kp.dtype)
            falls = (r + 1) * km < r * kp
            decreasing = decreasing and bool(np.all(falls[1 if s == lo else 0:]))
            if unspecified:
                first = vol[0] * d1  # area(r + 1) - area(r)
                if first.size > 1:
                    lows.append(np.diff(first).min(keepdims=True).item())
        transient = (None if flat or bent or depth - 2 < lo else True) if grows else False
        smallest = min(lows, default=None)
        areas = (self.area(depth), first.item(-1), smallest) if unspecified else None
        return _TailWindow(transient, decreasing, areas)

    def _window_block(self, s, e, vol):
        """k_plus and k_minus, and vol too when vol is true, on radii s..e-1
        (1 <= s < e <= depth), for the scan of the tail window.

        The scan forms products of an entry with a factor, a difference
        k_plus - k_minus or a radius up to e, and differences of two such
        products.  When every array is int64 and the block's largest entry
        times its largest factor lies below 2**62, those are exact in
        int64, and the stored slices come back as they are.  Any other
        block (object storage, Fractions, a tree's volumes d**r or a failed
        bound) comes back as object arrays of its exact ints and Fractions.
        """
        arrays = [self._k_plus[s:e], self._k_minus[s:e]]
        if vol:
            # a tree's vol(r) is d**r, its area from radius 1 on
            arrays.append(self.area_values(s, e - 1) if self._vol is None else self._vol[s:e])
        if all(a.dtype == np.int64 for a in arrays):
            top = max(int(a.max()) for a in arrays)
            gap = int(np.abs(arrays[0] - arrays[1]).max())
            if top * max(gap, e) < _INT64_PRODUCT_LIMIT:
                return arrays
        return [np.asarray(a, dtype=object) for a in arrays]

    def area_values(self, r_lo, r_hi):
        """area(r_lo..r_hi) as an object array of exact values (r_lo >= 1).

        Computed on each call and not cached: exact areas can be huge.  On a
        tree, area(r + 1) = d * area(r) is a running product from area(r_lo).
        """
        areas = self._areas(r_lo, r_hi)
        if self._vol is None:
            return np.fromiter(areas, dtype=object, count=max(0, r_hi - r_lo + 1))
        return areas

    def _areas(self, r_lo, r_hi):
        """area(r_lo..r_hi) (r_lo >= 1): on a tree an iterator of the running
        product, which holds one area at a time, and otherwise one object
        array."""
        r_lo, r_hi = _as_radius(r_lo), _as_radius(r_hi)
        if r_lo < 1:
            raise InvalidParameterError("area values start at radius 1")
        self._need(r_hi, self._depth, "area")
        if self._vol is None:
            d = self._k_plus.item(0)
            return itertools.accumulate(itertools.repeat(d, max(0, r_hi - r_lo)), operator.mul,
                                        initial=d ** r_lo)
        # the object loop casts int64 entries to Python ints in buffered
        # chunks, so the products are exact and no object copy is kept
        return np.multiply(self._k_minus[r_lo:r_hi + 1], self._vol[r_lo:r_hi + 1],
                           dtype=object)

    def log_area_floats(self, r_hi):
        """Natural log of area(0..r_hi); entry 0 is -inf.

        Each entry is math.log of the exact area, so it matches
        ``math.log(model.area(r))`` bit for bit.  Computed on each call
        over 1..r_hi and not cached, like ``area_values``; on a tree each
        area is dropped once its log is taken.
        """
        logs = map(_log_of_exact, self._areas(1, r_hi))
        return np.fromiter(itertools.chain([-math.inf], logs), dtype=float, count=r_hi + 1)

    def radial_data(self, r_max=None):
        """Rows (r, k_plus, k_minus, vol) for r = 0..r_max.

        k_plus is None on the last stored sphere, where it is unknown.
        """
        r_max = self._depth if r_max is None else _as_radius(r_max)
        self._need(r_max, self._depth, "radial_data")
        return [(r, self._k_plus.item(r) if r < self._depth else None,
                 self._k_minus.item(r) if r else 0, self._volume(r))
                for r in range(r_max + 1)]


def make_tree(d, depth):
    """Rooted tree in which every vertex has exactly d forward neighbors.

    Spheres have vol(r) = d**r vertices, each non-root vertex has one inward
    neighbor, and area(r) = d**r.  For d >= 2 the area grows geometrically
    with ratio d from radius 1 on, which the tail metadata records; d = 1 is
    the half line and gets an unspecified tail.
    """
    d = operator.index(d)
    if d < 1:
        raise InvalidParameterError("branching number d must be a positive integer")
    depth = _as_depth(depth, "tree")
    if d >= 2:
        tail = Tail("eventually-geometric", kappa_inf=Fraction(d), start=1)
    else:
        tail = Tail("unspecified")
    return RadialModel(
        k_plus=np.broadcast_to(np.array(d, dtype=np.int64 if d < _INT64_LIMIT else object),
                               depth),
        k_minus=np.broadcast_to(np.array(1, dtype=np.int64), depth + 1),
        vol=None,
        tail=tail,
        label=f"tree(d={d})",
    )


def make_antitree(sphere_sizes, depth, label=None):
    """Layered graph whose consecutive spheres are completely joined.

    ``sphere_sizes`` is a callable r -> s(r) or an iterable of positive
    integers with s(0) = 1, of which the first depth + 1 are read.
    Complete joins give k_plus(r) = s(r + 1), k_minus(r) = s(r - 1) and
    vol(r) = s(r), so area(r) = s(r - 1) * s(r).  A one-dimensional numpy
    array of an integer type that fits int64 is read as is, its checks done
    in C; other input is read entry by entry.  The sizes are stored as
    int64 when they all lie below 2**63, and as Python ints otherwise.
    """
    depth = _as_depth(depth, "antitree")
    # [0, s(0), ..., s(depth)]: k_plus, k_minus and vol are offset views of it
    if (isinstance(sphere_sizes, np.ndarray) and sphere_sizes.ndim == 1
            and sphere_sizes.dtype.kind in "iu" and np.can_cast(sphere_sizes.dtype, np.int64)):
        s = np.concatenate(([0], sphere_sizes[:depth + 1])).astype(np.int64, copy=False)
    else:
        raw = map(sphere_sizes, range(depth + 1)) if callable(sphere_sizes) else sphere_sizes
        s = np.fromiter(itertools.chain((0,), itertools.islice(raw, depth + 1)), dtype=object)
    return _antitree(s, depth, label)


def _antitree(s, depth, label=None):
    """make_antitree from [0, s(0), ..., s(depth)], an int64 or object
    array that the model keeps and freezes: no copy of an int64 array is
    made, so a caller that builds one holds the sizes once."""
    if len(s) < depth + 2:
        raise InvalidParameterError(
            f"need sphere sizes up to radius {depth}, got {len(s) - 1} values")
    sizes = s[1:]
    if s.dtype == object and set(map(type, sizes)) != {int} or sizes.min() < 1:
        for r, v in enumerate(sizes):  # to name the radius of a bad entry
            try:
                sizes[r] = v = operator.index(v)
            except TypeError:
                raise InvalidParameterError(
                    f"sphere size at radius {r} must be an integer, got {v!r}"
                ) from None
            if v < 1:
                raise InvalidParameterError(f"sphere size at radius {r} must be positive")
    if sizes[0] != 1:
        raise InvalidParameterError("sphere size at the origin must be 1")
    if s.dtype == object and sizes.max() < _INT64_LIMIT:
        s = s.astype(np.int64)
    s = _frozen(s)
    return RadialModel(
        k_plus=s[2:],
        k_minus=s[:-1],
        vol=s[1:],
        tail=Tail("unspecified"),
        label=label or "antitree",
    )


def _first_true(mask):
    """The index of the first True entry of a bool array, or None."""
    return int(mask.argmax()) if mask.any() else None


def _exact_positive(name, values, r0=0):
    """The entries of ``values`` (radii r0, r0 + 1, ...) as an object array
    of exact positive numbers; all-int input is taken as it is."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        out = np.array(values, dtype=object)
    else:
        out = np.array([_as_exact(x, name, r) for r, x in enumerate(values, r0)], dtype=object)
    bad = _first_true(out <= 0)
    if bad is not None:
        raise InvalidParameterError(f"{name}({r0 + bad}) must be positive, got {out[bad]}")
    return out


def make_custom(k_plus, k_minus, vol=None, *, tail=None, label="custom"):
    """Model from explicit sequences, validated for area compatibility.

    Entries may be ints, numpy integers, Fractions or finite floats; each is
    stored exactly (see ``_as_exact``).  ``k_minus[0]`` must be 0.  With
    ``vol=None`` the volumes are derived from vol(0) = 1 through the
    compatibility identity.  Supplied volumes are checked exactly against
    k_minus(r) vol(r) = k_plus(r-1) vol(r-1); a violation raises
    InconsistentModelError carrying the first bad radius.
    """
    kp, km = tuple(k_plus), tuple(k_minus)
    depth = len(km) - 1
    if depth < 2:
        raise InvalidParameterError("need radial data for radii 0..2 at least")
    if len(kp) != depth:
        raise InvalidParameterError(
            f"expected {depth} outward degrees for depth {depth}, got {len(kp)}"
        )
    if _as_exact(km[0], "k_minus", 0) != 0:
        raise InvalidParameterError("k_minus(0) must be 0: the origin has no inward edges")
    kp = _exact_positive("k_plus", kp)
    km = np.concatenate(([0], _exact_positive("k_minus", km[1:], 1)))

    if vol is None:
        v = itertools.accumulate(map(Fraction, kp, km[1:]), operator.mul, initial=Fraction(1))
        vv = np.array([int(x) if x.denominator == 1 else x for x in v], dtype=object)
    else:
        vv = tuple(vol)
        if len(vv) != depth + 1:
            raise InvalidParameterError(
                f"expected {depth + 1} volumes for depth {depth}, got {len(vv)}"
            )
        vv = _exact_positive("vol", vv)
        for s in range(1, depth + 1, _ROW_BLOCK):
            e = min(s + _ROW_BLOCK, depth + 1)
            lhs, rhs = km[s:e] * vv[s:e], kp[s - 1:e - 1] * vv[s - 1:e - 1]
            bad = _first_true(lhs != rhs)
            if bad is not None:
                r = s + bad
                raise InconsistentModelError(
                    r,
                    f"area mismatch at radius {r}: k_minus*vol = {_shown(lhs[bad])} "
                    f"but k_plus*vol from radius {r - 1} = {_shown(rhs[bad])}",
                )

    return RadialModel(k_plus=_stored(kp), k_minus=_stored(km), vol=_stored(vv),
                       tail=tail or Tail("unspecified"), label=label)


@dataclass(frozen=True)
class VertexGraph:
    """Explicit realization of a ball of a radial model.

    Vertices are numbered sphere by sphere; ``sphere_slices[r]`` selects the
    vertices at distance r and ``edges`` lists each edge once as an
    (inner vertex, outer vertex) index pair.
    """

    radius: int
    radius_of: np.ndarray
    sphere_slices: tuple
    edges: np.ndarray
    label: str

    @property
    def n_vertices(self):
        return int(self.radius_of.shape[0])

    @property
    def n_edges(self):
        return int(self.edges.shape[0])


def expand_vertex_graph(model, radius):
    """Materialize the ball of the given radius as an explicit graph.

    One wiring rule serves all integer radial data: between spheres r and
    r + 1, stub s = 0..area(r + 1) - 1 joins inner vertex s // k_plus(r) to
    outer vertex s % vol(r + 1).  With k_plus(r) <= vol(r + 1) the graph is
    simple and every vertex has the stored k_plus and k_minus; trees and
    antitrees come out in their usual numbering.  Non-integer data, and data
    with k_plus(r) > vol(r + 1), has no such realization and is refused.
    Vertex and edge counts are checked against MAX_VERTEX_EXPANSION and
    MAX_EDGE_EXPANSION before anything is allocated.
    """
    radius = _as_radius(radius)
    if radius > model.depth:
        raise NeedsTailError(
            f"ball of radius {radius} exceeds the stored depth {model.depth}"
        )
    sizes = [model.vol(r) for r in range(radius + 1)]
    k_plus = [model.k_plus(r) for r in range(radius)]
    k_minus = [model.k_minus(r) for r in range(radius + 1)]
    if any(x % 1 for x in sizes + k_plus + k_minus):
        raise NoCanonicalRealizationError(
            "radial data with a non-integer degree or volume determines no graph"
        )
    sizes, k_plus = list(map(int, sizes)), list(map(int, k_plus))
    if any(kp > v for kp, v in zip(k_plus, sizes[1:])):
        raise NoCanonicalRealizationError(
            "some k_plus(r) exceeds vol(r + 1): no simple graph has this data")
    n = sum(sizes)
    if n > MAX_VERTEX_EXPANSION:
        raise SizeLimitExceededError(
            f"ball of radius {radius} has {n} vertices, cap is {MAX_VERTEX_EXPANSION}"
        )
    n_edges = sum(kp * v for kp, v in zip(k_plus, sizes))
    if n_edges > MAX_EDGE_EXPANSION:
        raise SizeLimitExceededError(
            f"ball of radius {radius} has {n_edges} edges, cap is {MAX_EDGE_EXPANSION}"
        )
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    radius_of = np.repeat(np.arange(radius + 1), sizes)
    sphere_slices = tuple(
        slice(int(offsets[r]), int(offsets[r + 1])) for r in range(radius + 1)
    )
    edges = np.empty((n_edges, 2), dtype=np.int64)
    end = 0
    for r in range(radius):
        start, end = end, end + k_plus[r] * sizes[r]
        stub, block = np.arange(end - start, dtype=np.int64), edges[start:end]
        np.floor_divide(stub, k_plus[r], out=block[:, 0])
        np.remainder(stub, sizes[r + 1], out=block[:, 1])
        block += offsets[r:r + 2]

    return VertexGraph(
        radius=radius,
        radius_of=radius_of,
        sphere_slices=sphere_slices,
        edges=edges,
        label=model.label,
    )


# -- plain-text serialization ----------------------------------------------

def _digit_limit():
    """``sys.get_int_max_str_digits()``: the most decimal digits Python reads
    or writes in an int, 0 for no limit (releases before 3.10.7 have neither
    the limit nor the function)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_digit_limit(part, limit):
    # 10**limit has more than 3 * limit bits, so smaller ints pass at once
    return abs(part).bit_length() > 3 * limit and abs(part) >= 10 ** limit


def _decimal_text(value, what):
    """Decimal text of an exact int or Fraction, as ``str`` writes it.

    Python refuses to write an int of more than ``_digit_limit()`` decimal
    digits.  That is checked here first, so a value past it raises
    SizeLimitExceededError naming ``what`` instead of a bare ValueError.
    """
    limit = _digit_limit()
    parts = (value.numerator, value.denominator) if isinstance(value, Fraction) else (value,)
    if limit and any(_past_digit_limit(part, limit) for part in parts):
        raise SizeLimitExceededError(
            f"{what} has more than {limit} decimal digits, the most "
            "Python writes (sys.get_int_max_str_digits())"
        )
    return str(value)


def _shown(value):
    """``str(value)`` for a message, or its size where Python would refuse
    to write it (see _decimal_text)."""
    if _writable((value,)):
        return str(value)
    return f"a number past {_digit_limit()} decimal digits"


def _writable(values):
    """Whether ``str`` writes every exact int and Fraction of ``values``: the
    digit limit checked once, on the largest numerator and denominator."""
    limit = _digit_limit()
    if not limit:
        return True
    parts = itertools.chain.from_iterable(
        map(operator.attrgetter("numerator", "denominator"), values))
    return not _past_digit_limit(max(map(abs, parts), default=0), limit)


def save_model(model, path, r_max=None):
    """Write radial data to ``path`` in the line-based v1 format.

    Layout: a "radial-model v1" header, an optional "label ..." line, a
    "tail ..." line, then one "r k_plus k_minus vol" row per radius.  The
    outward degree of the outermost stored sphere is unknown and written
    as "-".  A value too long to write raises SizeLimitExceededError, and
    an r_max below 2 (a file too short to load back) InvalidParameterError,
    both before the file is opened.  The digit limit is checked once, on
    the largest value; only data past it is checked value by value, to name
    the first one.
    """
    rows = model.radial_data(r_max)
    last = rows[-1][0]
    if last < 2:
        raise InvalidParameterError(
            f"a model file needs radii 0..2 at least, got r_max = {last}"
        )
    lines = ["radial-model v1"]
    if model.label:
        lines.append(f"label {model.label}")
    t = model.tail
    if t.kind == "eventually-geometric":
        lines.append(f"tail geometric {_decimal_text(t.kappa_inf, 'kappa_inf')} {t.start}")
    else:
        lines.append(f"tail {t.kind}")
    # the saved file ends at this radius, so the final outward degree is out
    # of range for the loaded model even when we know it here
    values = itertools.chain(map(operator.itemgetter(1), itertools.islice(rows, last)),
                             *(map(operator.itemgetter(i), rows) for i in (2, 3)))
    if not _writable(values):
        for r, *row in rows:
            for name, v in zip(("k_plus", "k_minus", "vol"), row):
                if r < last or name != "k_plus":
                    _decimal_text(v, f"{name}({r})")
    lines.extend(f"{r} {'-' if r == last else kp} {km} {v}" for r, kp, km, v in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse(token, where, convert=Fraction):
    """``convert(token)``, or InvalidParameterError naming ``where``.

    A token of ASCII digits only is read by ``int``, to the same value.  A
    run of more digits than Python reads (see _decimal_text) is refused
    first, naming the limit; errors show at most a prefix of a long token.
    """
    limit = _digit_limit()
    if token.isascii() and token.isdigit() and not (limit and len(token) > limit):
        return int(token)  # the value Fraction(token) has, without its regex
    shown = repr(token) if len(token) <= 24 else f"{token[:16]!r}... ({len(token)} characters)"
    if limit and max(map(len, re.findall(r"\d+", token)), default=0) > limit:
        raise InvalidParameterError(
            f"number {shown} in {where} has more than {limit} decimal digits, "
            "the most Python reads (sys.get_int_max_str_digits())"
        )
    try:
        return convert(token)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameterError(f"cannot parse {shown} in {where}") from None


def _digit_column(tokens):
    """``int`` of every token, when all are ASCII digit runs that Python
    reads; None otherwise."""
    limit = _digit_limit()
    joined = "".join(tokens)
    if not tokens or not (joined.isascii() and joined.isdigit()) or (
            limit and max(map(len, tokens)) > limit):
        return None
    return list(map(int, tokens))


def _flush_rows(block, columns, path):
    """Read the token rows in ``block`` onto the k_plus, k_minus and vol
    lists of ``columns`` and empty it; the rows hold the radii that follow
    those already read.

    An all-digit column is read by one ``int`` map.  Any other block is read
    token by token through ``_parse``, in row order, so that the first bad
    row is named as a row-by-row reader names it.
    """
    if not block:
        return
    start = len(columns[1])
    radii, kp, km, vol = zip(*block)
    dash = kp[-1] == "-"  # the final row's unknown outward degree
    values = [_digit_column(kp[:-1] if dash else kp), _digit_column(km), _digit_column(vol)]
    if None not in values and _digit_column(radii) == list(range(start, start + len(block))):
        if dash:
            values[0].append(None)
    else:
        values = [[], [], []]
        for expected, (r, *row) in enumerate(block, start):
            r = _parse(r, f"row {expected}", int)
            if r != expected:
                raise InvalidParameterError(
                    f"{path}: rows must cover consecutive radii, expected {expected} got {r}"
                )
            values[0].append(None if row[0] == "-" else _parse(row[0], f"row {r}"))
            values[1].append(_parse(row[1], f"row {r}"))
            values[2].append(_parse(row[2], f"row {r}"))
    for column, read in zip(columns, values):
        column.extend(read)
    block.clear()


def load_model(path):
    """Read a model written by save_model, as a make_custom model; the rows
    must satisfy a geometric tail line: k_plus(r) = kappa_inf k_minus(r) from its start."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    lines = (ln.strip() for ln in raw_lines)
    lines = (ln for ln in lines if ln and not ln.startswith("#"))
    if next(lines, None) != "radial-model v1":
        raise InvalidParameterError(f"{path}: missing 'radial-model v1' header")

    label = None
    tail = None
    block, columns = [], ([], [], [])
    for ln in lines:
        tokens = ln.split()
        if tokens[0] == "label":
            label = ln[len("label"):].strip()
            continue
        if tokens[0] == "tail" or len(tokens) != 4:
            _flush_rows(block, columns, path)  # a bad row above this line is named first
        if tokens[0] == "tail":
            if tokens[1:] == ["unspecified"]:
                tail = Tail("unspecified")
            elif tokens[1:] == ["finite"]:
                tail = Tail("finite")
            elif len(tokens) in (3, 4) and tokens[1] == "geometric":
                kappa_inf = _parse(tokens[2], "tail line")
                start = _parse(tokens[3], "tail line", int) if len(tokens) == 4 else 1
                tail = Tail("eventually-geometric", kappa_inf=kappa_inf, start=start)
            else:
                raise InvalidParameterError(f"{path}: bad tail line {ln!r}")
            continue
        if len(tokens) != 4:
            raise InvalidParameterError(f"{path}: expected 4 columns, got {ln!r}")
        block.append(tokens)
        if len(block) == _ROW_BLOCK:
            _flush_rows(block, columns, path)
    _flush_rows(block, columns, path)
    del raw_lines  # read: the model below is built without the file's text

    k_plus, k_minus, vol = columns
    depth = len(k_plus) - 1
    if any(v is None for v in k_plus[:-1]) or (k_plus and k_plus[-1] is not None):
        raise InvalidParameterError(
            f"{path}: exactly the final row must use '-' for k_plus"
        )
    model = make_custom(k_plus[:-1], k_minus, vol, tail=tail, label=label or "custom")
    if tail and tail.kind == "eventually-geometric":
        a, b = tail.kappa_inf.numerator, tail.kappa_inf.denominator
        kp, km = (np.array(c[tail.start:depth], dtype=object) for c in (k_plus, k_minus))
        bad = _first_true(kp * b != a * km)
        if bad is not None:
            r = tail.start + bad
            raise InconsistentModelError(
                r, f"{path}: kappa({r}) differs from the tail line's kappa_inf")
    return model
