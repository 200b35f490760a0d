"""Hyperbolic and Carleson geometry of the unit disc.

Conventions used throughout the package:

- interior points are complex numbers z with |z| < 1; closed-disc points
  (|z| = 1) are admitted only where explicitly stated,
- angles are radians; comparisons reduce differences to (-pi, pi],
- "angular distance" is arc length on the circle, "chord distance" is the
  Euclidean distance in the plane; chord = 2 sin(angular / 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

# Batched queries work through their queries in blocks, and build (query x
# item) matrices in row blocks, of about this many elements; that keeps
# their temporaries small next to the process's peak memory.
BLOCK_ELEMENTS = 1 << 13


def wrap_angle(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def angle_mod(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


def angular_gap(a: float, b: float) -> float:
    """Circular distance between two angles, in [0, pi]."""
    return abs(wrap_angle(a - b))


def pseudo_distance(z: complex, w: complex) -> float:
    """Pseudohyperbolic distance rho(z, w) = |z - w| / |1 - conj(z) w|.

    Both points must lie in the open disc; the value is in [0, 1).
    """
    z = complex(z)
    w = complex(w)
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise DomainError("pseudo_distance requires interior points, got |z|=%r |w|=%r"
                          % (abs(z), abs(w)))
    return abs(z - w) / abs(1.0 - z.conjugate() * w)


def mobius_shift(a: complex, u: complex) -> complex:
    """Disc automorphism phi_a(u) = (a - u) / (1 - conj(a) u)."""
    return (a - u) / (1.0 - a.conjugate() * u)


@dataclass(frozen=True)
class BoundaryArc:
    """Closed arc of the unit circle given by center angle and half width."""

    center_angle: float
    half_width: float

    def __post_init__(self):
        if not (0.0 < self.half_width <= math.pi):
            raise DomainError("arc half_width must lie in (0, pi], got %r" % (self.half_width,))

    @classmethod
    def from_endpoints(cls, lo: float, hi: float) -> "BoundaryArc":
        """Arc running counterclockwise from angle lo to angle hi (hi > lo)."""
        if not (lo < hi <= lo + TWO_PI):
            raise DomainError("need lo < hi <= lo + 2*pi")
        return cls(0.5 * (lo + hi), 0.5 * (hi - lo))

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    @property
    def lo(self) -> float:
        return self.center_angle - self.half_width

    @property
    def hi(self) -> float:
        return self.center_angle + self.half_width

    def angular_distance_to_angle(self, theta: float) -> float:
        """Arc-length distance from a boundary angle to this (closed) arc."""
        return max(0.0, angular_gap(theta, self.center_angle) - self.half_width)

    def angular_distance_to_arc(self, other: "BoundaryArc") -> float:
        return max(0.0, angular_gap(self.center_angle, other.center_angle)
                   - self.half_width - other.half_width)

    def chord_distance_to_point(self, p: complex) -> float:
        """Euclidean distance from a plane point to this arc of the circle.

        |p - e^{i t}|^2 = |p|^2 + 1 - 2|p| cos(t - arg p) is minimized at the
        arc angle nearest to arg p, so the minimum is attained either at the
        radial projection or at an endpoint.
        """
        r = abs(p)
        gap = self.angular_distance_to_angle(cmath.phase(p)) if r > 0.0 else 0.0
        return math.sqrt(max(0.0, r * r + 1.0 - 2.0 * r * math.cos(gap)))


class SquareArrays(NamedTuple):
    """Carleson squares Q = {w : |arg w - center_angle| <= half_window,
    |w| >= base_modulus} as parallel arrays, one row per square; a row with
    ``whole_disc`` is the conventional Q(0), the closed disc."""

    side: np.ndarray
    center_angle: np.ndarray
    half_window: np.ndarray
    base_modulus: np.ndarray
    whole_disc: np.ndarray


def carleson_square(z: complex) -> SquareArrays:
    """Q(z) of one interior point, as a one-row SquareArrays."""
    return carleson_squares(np.array([complex(z)]))


def carleson_squares(points: np.ndarray) -> SquareArrays:
    """Q(z) for each point of a complex array: side 1 - |z|, center angle
    arg z, half-window side / 2 and base modulus 1 - side; Q(0) is the row
    (1, 0, pi, 0, True).

    |z| is np.hypot, which matches abs(complex) exactly, and arg z is
    cmath.phase taken per point: np.abs and np.angle on complex128 differ
    from them in the last bit at some points.
    """
    az = np.hypot(points.real, points.imag)
    if not np.all(az < 1.0):
        raise DomainError("carleson_square requires |z| < 1")
    whole = az == 0.0
    side = 1.0 - az                      # 1.0 at the origin too
    center = np.array(list(map(cmath.phase, points.tolist())), dtype=np.float64)
    center[whole] = 0.0
    half = np.where(whole, math.pi, 0.5 * side)
    return SquareArrays(side, center, half, 1.0 - side, whole)


def level_points(depth: int, index: Optional[np.ndarray] = None) -> np.ndarray:
    """The scan points of the dyadic Carleson squares Q_{n,k} at depth
    n = ``depth``, two per box, in box order.

    Q_{n,k} = {r e^{i t} : 1 - pi 2^{-n} <= r < 1,
               2 pi k 2^{-n} <= t < 2 pi (k+1) 2^{-n}},  0 <= k < 2^n,
    and its top half is the part with r <= 1 - pi 2^{-n-1}.  Point 2k is
    the low-angle corner of box k's top half and point 2k + 1 its centre,
    both at radius 1 - 3/4 pi 2^{-n}.

    With ``index``, only the points of those positions, in that order.
    """
    scale = 2.0 ** -depth
    r = 1.0 - 0.75 * math.pi * scale
    if index is None:
        index = np.arange(2 << depth)
    turns = index.astype(np.float64) * 0.5
    return r * np.exp(1j * TWO_PI * turns * scale)


@dataclass(frozen=True)
class StolzAngle:
    """Non-tangential approach region |z - e^{i t}| < alpha (1 - |z|)."""

    vertex_angle: float
    aperture: float

    def __post_init__(self):
        if self.aperture <= 1.0:
            raise DomainError("Stolz aperture must exceed 1")

    def contains(self, z: complex) -> bool:
        return abs(z - cmath.exp(1j * self.vertex_angle)) < self.aperture * (1.0 - abs(z))


# ---------------------------------------------------------------------------
# Closed boundary sets (supports of singular data)
# ---------------------------------------------------------------------------

class BoundarySupport:
    """Oracle for a closed subset E of the circle.

    Distance queries return certified brackets (lo, hi) with
    lo <= dist <= hi; point and arc supports are exact (lo == hi), set
    oracles backed by lazy descriptions may be conservative.
    """

    def is_empty(self) -> bool:
        raise NotImplementedError

    def described_length(self) -> float:
        """Lebesgue measure of the description (0 for genuinely null sets)."""
        return 0.0

    def angular_distance_to_arc(self, arc: BoundaryArc) -> tuple[float, float]:
        raise NotImplementedError

    def chord_distance_to_point(self, p: complex, tol: float = 1e-12) -> tuple[float, float]:
        raise NotImplementedError

    def cover_arcs(self, scale: float) -> list[BoundaryArc]:
        """Arcs covering E at roughly the given angular resolution."""
        raise NotImplementedError


@dataclass(frozen=True)
class PointSupport(BoundarySupport):
    """Finite set of boundary angles, optionally with declared accumulation
    angles and hull arcs that are known to contain all undeclared points."""

    angles: tuple[float, ...]
    accumulation: tuple[float, ...] = ()
    hull: tuple[BoundaryArc, ...] = ()

    @classmethod
    def of(cls, angles: Sequence[float], accumulation: Sequence[float] = (),
           hull: Sequence[BoundaryArc] = ()) -> "PointSupport":
        return cls(tuple(float(a) for a in angles),
                   tuple(float(a) for a in accumulation), tuple(hull))

    def _known(self) -> tuple[float, ...]:
        return self.angles + self.accumulation

    def is_empty(self) -> bool:
        return not self.angles and not self.accumulation and not self.hull

    def angular_distance_to_arc(self, arc: BoundaryArc) -> tuple[float, float]:
        if self.is_empty():
            return (math.inf, math.inf)
        hi = min((arc.angular_distance_to_angle(a) for a in self._known()),
                 default=math.inf)
        lo = hi
        for h in self.hull:
            lo = min(lo, arc.angular_distance_to_arc(h))
        return (lo, hi)

    def hull_bound(self, p: complex, hi: float) -> float:
        """The lower end of the chord distance from p to this set, given its
        upper end hi, the distance to the known angles."""
        lo = hi
        for h in self.hull:
            lo = min(lo, h.chord_distance_to_point(p))
        return lo

    def known_chord_distances(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """The least |p - e^{i a}| over the known angles a at each point
        p = re + i im, the upper end of the chord distance to this set: a
        point x known-angle matrix in row blocks of about BLOCK_ELEMENTS,
        with e^{i a} taken once per angle by cmath.exp and |.| by np.hypot,
        which matches abs(complex)."""
        known = self._known()
        hi = np.full(len(re), math.inf)
        if not known:
            return hi
        xi = np.array([cmath.exp(1j * a) for a in known])
        step = max(1, BLOCK_ELEMENTS // xi.size)
        for s in range(0, len(re), step):
            rows = slice(s, s + step)
            d = re[rows, None] - xi.real
            hi[rows] = np.hypot(d, im[rows, None] - xi.imag, out=d).min(axis=1)
        return hi

    def cover_arcs(self, scale: float) -> list[BoundaryArc]:
        half = min(math.pi, max(scale, 1e-15))
        arcs = [BoundaryArc(a, half) for a in self._known()]
        arcs.extend(BoundaryArc(h.center_angle, min(math.pi, h.half_width + half))
                    for h in self.hull)
        return arcs


@dataclass(frozen=True)
class ArcSupport(BoundarySupport):
    """Finite union of closed arcs (positive measure unless degenerate)."""

    arcs: tuple[BoundaryArc, ...]

    def is_empty(self) -> bool:
        return not self.arcs

    def described_length(self) -> float:
        return sum(a.length for a in self.arcs)

    def chord_distance_to_point(self, p: complex, tol: float = 1e-12) -> tuple[float, float]:
        if not self.arcs:
            return (math.inf, math.inf)
        d = min(a.chord_distance_to_point(p) for a in self.arcs)
        return (d, d)

    def cover_arcs(self, scale: float) -> list[BoundaryArc]:
        return list(self.arcs)


@dataclass(frozen=True)
class SawtoothRegion:
    """Region 1 - |z| >= 2 dist(z/|z|, support), chord distance in the plane."""

    support: BoundarySupport

    def contains(self, z, limit: Optional[int] = None):
        """Membership of every point of a 1-D complex array z, as a boolean
        array; with ``limit``, only the first ``limit`` points inside read
        True.  A scalar z is the one-point array and gives a bool.

        Every point is checked before any is decided.  On a PointSupport
        the known angles are one array query, and the hull, which only
        lowers the lower end, is consulted point by point where
        hi <= depth < 2 hi leaves the answer open.  Other supports bracket
        the distance point by point, up to the ``limit``-th point inside.
        """
        if not isinstance(z, np.ndarray):
            return bool(self.contains(np.array([complex(z)]))[0])
        az = np.hypot(z.real, z.imag)
        bad = np.flatnonzero(~((az != 0.0) & (az < 1.0)))
        if bad.size:
            if az[bad[0]] == 0.0:
                raise DomainError("sawtooth membership is undefined at z = 0")
            raise DomainError("sawtooth membership requires |z| < 1")
        depth = 1.0 - az
        support = self.support
        if not isinstance(support, PointSupport):
            inside = np.zeros(len(z), dtype=bool)
            count = 0
            for i, (point, a, d) in enumerate(zip(z.tolist(), az.tolist(), depth.tolist())):
                if count == limit:
                    break
                lo, hi = support.chord_distance_to_point(point / a, tol=1e-13 * max(d, 1e-30))
                inside[i] = _sawtooth_decision(d, lo, hi)
                count += inside[i]
            return inside
        # per component, as complex / float divides; numpy's complex
        # division differs from it in the last bit
        hi = support.known_chord_distances(z.real / az, z.imag / az)
        inside = depth >= 2.0 * hi
        if support.hull:
            # below hi the point is outside whatever the lower end is
            for i in np.flatnonzero(~inside & (depth >= hi)).tolist():
                p, d, h = complex(z[i]) / float(az[i]), float(depth[i]), float(hi[i])
                inside[i] = _sawtooth_decision(d, support.hull_bound(p, h), h)
        if limit is not None:
            inside[np.flatnonzero(inside)[limit:]] = False
        return inside


def _sawtooth_decision(depth: float, lo: float, hi: float) -> bool:
    """Membership at depth 1 - |z| from a distance bracket (lo, hi)."""
    if depth >= 2.0 * hi:
        return True
    if depth < 2.0 * lo:
        return False
    # unresolved bracket at the oracle's cap: decide by the midpoint
    return depth >= lo + hi


def whitney_arcs(support: BoundarySupport,
                 min_length: float = TWO_PI * 2.0 ** -16) -> Iterator[BoundaryArc]:
    """Dyadic Whitney decomposition of the complement of a closed null set.

    Recursively bisects the circle starting from the four quarter arcs and
    emits a (closed, dyadic) arc as soon as dist(arc, E) >= |arc|; children
    of failing arcs are visited in boundary order, so emission is ordered.
    Every emitted arc I satisfies |I| <= dist(I, E) <= 4 |I| in the angular
    metric: the keep test gives the left inequality, and a failing parent
    (dist < 2|I|) gives dist(I, E) < 3|I|; the top-level quarter arcs
    satisfy the right inequality because no circular distance exceeds pi.

    Arcs shorter than ``min_length`` that still fail are abandoned, which
    bounds the work near E for infinite families.
    """
    if support.described_length() > 0.0:
        raise DomainError("E has positive measure under its own description")

    empty = support.is_empty()

    def visit(lo: float, hi: float) -> Iterator[BoundaryArc]:
        arc = BoundaryArc.from_endpoints(lo, hi)
        if empty:
            yield arc
            return
        dist_lo, _ = support.angular_distance_to_arc(arc)
        if dist_lo >= arc.length:
            yield arc
            return
        if 0.5 * arc.length < min_length:
            return
        mid = 0.5 * (lo + hi)
        yield from visit(lo, mid)
        yield from visit(mid, hi)

    for q in range(4):
        yield from visit(q * 0.5 * math.pi, (q + 1) * 0.5 * math.pi)
