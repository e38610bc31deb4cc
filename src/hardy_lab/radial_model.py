"""Radially symmetric graph models given by sphere data.

A model records, for each distance r from a root vertex, the outward degree
``k_plus(r)``, the inward degree ``k_minus(r)`` and the sphere volume
``vol(r)``.  These describe every rooted graph whose structure depends only
on the distance to the root.  The boundary area

    area(r) = k_minus(r) * vol(r) = k_plus(r - 1) * vol(r - 1)

ties the three sequences together; constructors reject data that breaks the
identity.  Radial data is always exact: every entry is an int or a
Fraction, floats are taken at their exact binary value on entry, so
downstream checks can separate genuine numerical error from modelling
error.
"""

from __future__ import annotations

import itertools
import math
import operator
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
MAX_EDGE_EXPANSION = 2_000_000

# Integers below this are exact in float64.
_EXACT_FLOAT_LIMIT = 2 ** 53


def _as_radius(r):
    try:
        r = operator.index(r)
    except TypeError:
        raise InvalidParameterError(f"radius must be an integer, got {r!r}") from None
    if r < 0:
        raise InvalidParameterError(f"radius must be nonnegative, got {r}")
    return r


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

    The per-radius accessors return the stored values exactly.  The bulk
    views are built on first use, each in one pass over the radii asked
    for, cached read-only and rebuilt only when a longer range is asked
    for: the degrees as floats and in an exact form (see
    ``exact_degrees``), and the log-areas.  ``kappa_floats`` divides the
    cached degrees on each call.  Nothing is built in the constructor.
    Exact volumes and areas are never cached, because on a tree they grow
    like d**r; the log-areas take ``math.log`` of each exact area as it is
    formed.
    """

    def __init__(self, *, k_plus_of, k_minus_of, vol_of, area_of=None,
                 depth, tail, label):
        depth = _as_radius(depth)
        if depth < 2:
            raise InvalidParameterError("model depth must be at least 2")
        self._k_plus_of = k_plus_of
        self._k_minus_of = k_minus_of
        self._vol_of = vol_of
        self._area_of = area_of or (lambda r: k_minus_of(r) * vol_of(r))
        self._depth = depth
        self._tail = tail
        self._label = label
        self._arrays = {}

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

    def k_plus(self, r):
        """Outward degree at radius r (defined for r < depth)."""
        r = _as_radius(r)
        self._need(r, self._depth - 1, "k_plus")
        return self._k_plus_of(r)

    def k_minus(self, r):
        """Inward degree at radius r; the origin has none, so k_minus(0) = 0."""
        r = _as_radius(r)
        if r == 0:
            return 0
        self._need(r, self._depth, "k_minus")
        return self._k_minus_of(r)

    def vol(self, r):
        """Number of vertices on the sphere of radius r."""
        r = _as_radius(r)
        self._need(r, self._depth, "vol")
        return self._vol_of(r)

    def area(self, r):
        """Edge boundary area k_minus(r) * vol(r); area(0) = 0."""
        r = _as_radius(r)
        if r == 0:
            return 0
        self._need(r, self._depth, "area")
        return self._area_of(r)

    def kappa(self, r):
        """Degree ratio k_plus(r) / k_minus(r) as an exact Fraction."""
        r = _as_radius(r)
        if r == 0:
            raise UndefinedAtOriginError(
                "kappa(0) is undefined because the origin has no inward sphere"
            )
        self._need(r, self._depth - 1, "kappa")
        return Fraction(self._k_plus_of(r)) / Fraction(self._k_minus_of(r))

    # -- bulk views (cached, grow on demand, returned read-only) ------------

    def _cached(self, name, size, build):
        """The arrays cached under ``name``, rebuilt by build(size) if shorter."""
        arrays = self._arrays.get(name)
        if arrays is None or arrays[0].shape[0] < size:
            arrays = self._arrays[name] = build(size)
        return arrays

    def _build_degrees(self, n):
        """k_plus(0..n-1) and k_minus(0..n), as floats and in exact form."""
        kp = [self._k_plus_of(r) for r in range(n)]
        km = [0] + [self._k_minus_of(r) for r in range(1, n + 1)]
        types = set(map(type, itertools.chain(kp, km)))
        kp_f = _frozen(np.array(kp, dtype=float))
        km_f = _frozen(np.array(km, dtype=float))
        if types == {int} and max(max(kp), max(km), n) ** 2 < _EXACT_FLOAT_LIMIT:
            return kp_f, km_f, kp_f, km_f
        return (kp_f, km_f, _frozen(np.array(kp, dtype=object)),
                _frozen(np.array(km, dtype=object)))

    def k_plus_floats(self, r_hi):
        """k_plus(0..r_hi) as a float array."""
        r_hi = _as_radius(r_hi)
        self._need(r_hi, self._depth - 1, "k_plus")
        return self._cached("degrees", r_hi + 1, self._build_degrees)[0][: r_hi + 1]

    def k_minus_floats(self, r_hi):
        """k_minus(0..r_hi) as a float array (entry 0 is 0)."""
        r_hi = _as_radius(r_hi)
        self._need(r_hi, self._depth, "k_minus")
        return self._cached("degrees", max(r_hi, 1), self._build_degrees)[1][: r_hi + 1]

    def exact_degrees(self, r_hi):
        """k_plus(0..r_hi) and k_minus(0..r_hi) in arrays with exact products.

        A product of two entries, or of an entry and a radius up to r_hi + 1,
        and the difference of two such products are exact in these arrays,
        so kappa ratios compare and subtract exactly through cross products.
        They are the float views when every degree is an integer small
        enough for those products to stay below 2**53, and object arrays of
        the stored ints and Fractions otherwise.
        """
        r_hi = _as_radius(r_hi)
        self._need(r_hi, self._depth - 1, "k_plus")
        kp, km = self._cached("degrees", r_hi + 1, self._build_degrees)[2:]
        return kp[: r_hi + 1], km[: r_hi + 1]

    def kappa_floats(self, r_hi):
        """kappa(1..r_hi) as a float array, each rounded once; entry 0 is NaN."""
        kp, km = self.exact_degrees(r_hi)
        kappa = np.empty(r_hi + 1)
        kappa[0] = np.nan
        if kp.dtype == object:
            # one correctly rounded division per radius, as float(Fraction)
            kappa[1:] = np.fromiter(map(operator.truediv, kp[1:], km[1:]),
                                    dtype=float, count=r_hi)
        else:
            np.divide(kp[1:], km[1:], out=kappa[1:])
        return _frozen(kappa)

    def _exact_areas(self, r_lo, r_hi):
        """Yield area(r_lo..r_hi) exactly, one radius at a time.

        Where k_minus(r - 1) = 1 the area is the previous one times
        k_plus(r - 1), so trees never rebuild d**r from scratch; elsewhere
        it comes from the stored data.
        """
        area = None
        for r in range(r_lo, r_hi + 1):
            step = None
            if type(area) is int and self._k_minus_of(r - 1) == 1:
                step = self._k_plus_of(r - 1)
            area = area * step if type(step) is int else self._area_of(r)
            yield area

    def area_values(self, r_lo, r_hi):
        """area(r_lo..r_hi) as an object array of exact values (r_lo >= 1).

        Computed on each call and not cached: exact areas can be huge.
        """
        r_lo, r_hi = _as_radius(r_lo), _as_radius(r_hi)
        if r_lo < 1:
            raise InvalidParameterError("area values start at radius 1")
        self._need(r_hi, self._depth, "area")
        return np.fromiter(self._exact_areas(r_lo, r_hi), dtype=object)

    def _build_log_areas(self, n):
        log_area = np.empty(n)
        log_area[0] = -math.inf
        log_area[1:] = np.fromiter(map(_log_of_exact, self._exact_areas(1, n - 1)),
                                   dtype=float, count=n - 1)
        return (_frozen(log_area),)

    def log_area_floats(self, r_hi):
        """Natural log of area(0..r_hi); entry 0 is -inf.

        Each entry is math.log of the exact area, so it matches
        ``math.log(model.area(r))`` bit for bit.
        """
        r_hi = _as_radius(r_hi)
        self._need(r_hi, self._depth, "area")
        return self._cached("log_area", r_hi + 1, self._build_log_areas)[0][: r_hi + 1]

    def radial_data(self, r_max=None):
        """Rows (r, k_plus, k_minus, vol) for r = 0..r_max.

        k_plus is None on the last stored sphere, where it is unknown.
        """
        r_max = self._depth if r_max is None else _as_radius(r_max)
        self._need(r_max, self._depth, "radial_data")
        rows = []
        for r in range(r_max + 1):
            kp = self._k_plus_of(r) if r < self._depth else None
            km = 0 if r == 0 else self._k_minus_of(r)
            rows.append((r, kp, km, self._vol_of(r)))
        return rows


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
    depth = _as_radius(depth)
    if depth < 2:
        raise InvalidParameterError("tree depth must be at least 2")
    if d >= 2:
        tail = Tail("eventually-geometric", kappa_inf=Fraction(d), start=1)
    else:
        tail = Tail("unspecified")
    return RadialModel(
        k_plus_of=lambda r: d,
        k_minus_of=lambda r: 1,
        vol_of=lambda r: d ** r,
        area_of=lambda r: d ** r,
        depth=depth,
        tail=tail,
        label=f"tree(d={d})",
    )


def make_antitree(sphere_sizes, depth, label=None):
    """Layered graph whose consecutive spheres are completely joined.

    ``sphere_sizes`` is a callable r -> s(r) or a sequence of positive
    integers with s(0) = 1.  Complete joins give k_plus(r) = s(r + 1),
    k_minus(r) = s(r - 1) and vol(r) = s(r), so area(r) = s(r - 1) * s(r).
    """
    depth = _as_radius(depth)
    if depth < 2:
        raise InvalidParameterError("antitree depth must be at least 2")
    if callable(sphere_sizes):
        raw = [sphere_sizes(r) for r in range(depth + 1)]
    else:
        raw = list(sphere_sizes)
        if len(raw) < depth + 1:
            raise InvalidParameterError(
                f"need sphere sizes up to radius {depth}, got {len(raw)} values"
            )
        raw = raw[: depth + 1]
    s = []
    for r, v in enumerate(raw):
        try:
            v = operator.index(v)
        except TypeError:
            raise InvalidParameterError(
                f"sphere size at radius {r} must be an integer, got {v!r}"
            ) from None
        if v < 1:
            raise InvalidParameterError(f"sphere size at radius {r} must be positive")
        s.append(v)
    if s[0] != 1:
        raise InvalidParameterError("sphere size at the origin must be 1")
    s = tuple(s)
    return RadialModel(
        k_plus_of=lambda r: s[r + 1],
        k_minus_of=lambda r: s[r - 1],
        vol_of=lambda r: s[r],
        area_of=lambda r: s[r - 1] * s[r],
        depth=depth,
        tail=Tail("unspecified"),
        label=label or "antitree",
    )


def _exact_positive(name, values, r0=0):
    """The entries of ``values`` (radii r0, r0 + 1, ...) as exact positive numbers."""
    out = tuple(_as_exact(x, name, r) for r, x in enumerate(values, r0))
    for r, x in enumerate(out, r0):
        if x <= 0:
            raise InvalidParameterError(f"{name}({r}) must be positive, got {x}")
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
    km = (0,) + _exact_positive("k_minus", km[1:], 1)

    if vol is None:
        v = [Fraction(1)]
        for r in range(1, depth + 1):
            v.append(v[-1] * kp[r - 1] / km[r])
        vv = tuple(int(x) if x.denominator == 1 else x for x in v)
    else:
        vv = tuple(vol)
        if len(vv) != depth + 1:
            raise InvalidParameterError(
                f"expected {depth + 1} volumes for depth {depth}, got {len(vv)}"
            )
        vv = _exact_positive("vol", vv)
        for r in range(1, depth + 1):
            lhs = km[r] * vv[r]
            rhs = kp[r - 1] * vv[r - 1]
            if lhs != rhs:
                raise InconsistentModelError(
                    r,
                    f"area mismatch at radius {r}: "
                    f"k_minus*vol = {lhs} but k_plus*vol from radius {r - 1} = {rhs}",
                )

    return RadialModel(
        k_plus_of=kp.__getitem__,
        k_minus_of=km.__getitem__,
        vol_of=vv.__getitem__,
        depth=depth,
        tail=tail or Tail("unspecified"),
        label=label,
    )


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


def expand_vertex_graph(model, radius, max_vertices=MAX_VERTEX_EXPANSION):
    """Materialize the ball of the given radius as an explicit graph.

    One wiring rule serves all integer radial data: between spheres r and
    r + 1, stub s = 0..area(r + 1) - 1 joins inner vertex s // k_plus(r) to
    outer vertex s % vol(r + 1).  With k_plus(r) <= vol(r + 1) the graph is
    simple and every vertex has the stored k_plus and k_minus; trees and
    antitrees come out in their usual numbering.  Non-integer data, and data
    with k_plus(r) > vol(r + 1), has no such realization and is refused.
    Vertex and edge counts are checked against ``max_vertices`` and
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
    if n > max_vertices:
        raise SizeLimitExceededError(
            f"ball of radius {radius} has {n} vertices, cap is {max_vertices}"
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
    chunks = [np.empty((0, 2), dtype=np.int64)]
    for r in range(radius):
        stub = np.arange(k_plus[r] * sizes[r], dtype=np.int64)
        chunks.append(np.stack([offsets[r] + stub // k_plus[r],
                                offsets[r + 1] + stub % sizes[r + 1]], axis=1))
    edges = np.concatenate(chunks)

    return VertexGraph(
        radius=radius,
        radius_of=radius_of,
        sphere_slices=sphere_slices,
        edges=edges,
        label=model.label,
    )


# -- plain-text serialization ----------------------------------------------

def save_model(model, path, r_max=None):
    """Write radial data to ``path`` in the line-based v1 format.

    Layout: a "radial-model v1" header, an optional "label ..." line, a
    "tail ..." line, then one "r k_plus k_minus vol" row per radius.  The
    outward degree of the outermost stored sphere is unknown and written
    as "-".
    """
    rows = model.radial_data(r_max)
    lines = ["radial-model v1"]
    if model.label:
        lines.append(f"label {model.label}")
    t = model.tail
    if t.kind == "eventually-geometric":
        lines.append(f"tail geometric {t.kappa_inf} {t.start}")
    else:
        lines.append(f"tail {t.kind}")
    last = rows[-1][0]
    for r, kp, km, v in rows:
        # the saved file ends at this radius, so the final outward degree
        # is out of range for the loaded model even when we know it here
        kp_s = "-" if kp is None or r == last else str(kp)
        lines.append(f"{r} {kp_s} {km} {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_value(token, where):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameterError(f"cannot parse number {token!r} in {where}") from None


def _parse_int(token, where):
    try:
        return int(token)
    except ValueError:
        raise InvalidParameterError(f"cannot parse integer {token!r} in {where}") from None


def load_model(path):
    """Read a model written by save_model, as a make_custom model."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    lines = [ln.strip() for ln in raw_lines]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "radial-model v1":
        raise InvalidParameterError(f"{path}: missing 'radial-model v1' header")

    label = None
    tail = None
    k_plus, k_minus, vol = [], [], []
    expected_r = 0
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] == "label":
            label = ln[len("label"):].strip()
            continue
        if tokens[0] == "tail":
            if tokens[1:] == ["unspecified"]:
                tail = Tail("unspecified")
            elif tokens[1:] == ["finite"]:
                tail = Tail("finite")
            elif len(tokens) in (3, 4) and tokens[1] == "geometric":
                kappa_inf = _parse_value(tokens[2], "tail line")
                start = _parse_int(tokens[3], "tail line") if len(tokens) == 4 else 1
                tail = Tail("eventually-geometric", kappa_inf=kappa_inf, start=start)
            else:
                raise InvalidParameterError(f"{path}: bad tail line {ln!r}")
            continue
        if len(tokens) != 4:
            raise InvalidParameterError(f"{path}: expected 4 columns, got {ln!r}")
        r = _parse_int(tokens[0], f"row {expected_r}")
        if r != expected_r:
            raise InvalidParameterError(
                f"{path}: rows must cover consecutive radii, expected {expected_r} got {r}"
            )
        expected_r += 1
        if tokens[1] == "-":
            k_plus.append(None)
        else:
            k_plus.append(_parse_value(tokens[1], f"row {r}"))
        k_minus.append(_parse_value(tokens[2], f"row {r}"))
        vol.append(_parse_value(tokens[3], f"row {r}"))

    depth = expected_r - 1
    if any(v is None for v in k_plus[:-1]) or (k_plus and k_plus[-1] is not None):
        raise InvalidParameterError(
            f"{path}: exactly the final row must use '-' for k_plus"
        )
    return make_custom(
        k_plus[:-1], k_minus, vol, tail=tail, label=label or "custom"
    )
