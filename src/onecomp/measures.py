"""Positive singular measures on the circle and their disc integrals.

Three variants are provided:

- ``AtomicMeasure``: a finite list of point masses plus a declared tail
  mass for the atoms not listed; integral outputs carry the tail's
  contribution as a certified error interval.
- ``CantorMeasure``: symmetric Cantor measure built from a strictly
  decreasing sequence ``delta_n`` (delta_0 = 2 pi).  Generation n consists of
  2^n intervals of length 2^{-n} delta_n, each carrying mass exactly 2^{-n};
  the removed segment is centered.  All endpoint arithmetic is exact
  (rational multiples of the circle) so deep generations do not cancel.
- ``CdfMeasure``: a monotone CDF supplied as piecewise-linear samples.  It
  has density (v1 - v0)/(t1 - t0) on each sample interval, so it is
  absolutely continuous, not singular, unless the CDF is constant; it
  answers measure queries only, and ``SingularInner`` refuses it.

Cantor Poisson and Herglotz integrals share one vectorized adaptive cell
subdivision (``CantorMeasure._cells``): a cell is split while a bound on the
kernel's oscillation over it times its mass exceeds the error budget.  Each
cell is bounded once, when it is made, and the Poisson sums reuse the kernel
range that bounded it.  The Poisson kernel's extrema on a cell come from the
closest and farthest points of the cell (the kernel is monotone in chord
distance); the Herglotz kernel is bounded through its derivative at the
closest point.  Sector bounds split the cells by a rule of geometry alone
(``CantorMeasure.sector_bounds``).  The Cantor CDF descends in Python
integers, exactly.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, PrecisionExhausted
from .geometry import (BLOCK_ELEMENTS, TWO_PI, BoundaryArc, BoundarySupport,
                       PointSupport, angle_mod)

_TWO_PI_FRAC = Fraction(TWO_PI)  # the double nearest 2*pi, as an exact rational
_TWO_PI_RATIO = TWO_PI.as_integer_ratio()

# P(z, t) <= (1 + |z|) / (1 - |z|) <= 2^54 at every double |z| < 1, so under
# this mass every Poisson and Herglotz sum, slack and bracket midpoint stays
# near 2^1015 or below, short of overflow
_MAX_MASS = 2.0 ** 960

# Sector bounds hold past rounding.  Their terms are positive, each a product
# and quotient of at most 40 correctly rounded operations (relative error
# 2^-53 each) and 4 calls of numpy's sin, cos, sqrt and log1p, each taken to
# be within 4 ulp (2^-50), and a term is at most twice as sensitive to a
# sine as the sine is rounded: a term, or a pairwise sum of up to 2^20 of
# them, is within 2^-44, and SECTOR_WIDEN raises each sector bound by 2^-40.
# Angular gaps taken from doubles below 4 pi, and zero depths 1 - |w|, err
# by a few ulp of 4 pi, and a Cantor cell's float endpoints drift by about
# 2^-49 per generation; SECTOR_SLACK lowers every gap, and widens every
# depth, by 2^-40 radians.
SECTOR_WIDEN = 1.0 + 2.0 ** -40
SECTOR_SLACK = 2.0 ** -40


def _sector_gaps(angles: np.ndarray, centers: np.ndarray, reach) -> np.ndarray:
    """max(0, |angle - center| - reach - SECTOR_SLACK), the circular distance
    reduced as geometry.angular_gap does, for each center (a row) and angle
    (a column); ``reach`` broadcasts against that matrix."""
    a = np.fmod(angles - centers[:, None], TWO_PI)
    d = np.abs(np.where(a > math.pi, a - TWO_PI, np.where(a <= -math.pi, a + TWO_PI, a)))
    return np.maximum(d - reach - SECTOR_SLACK, 0.0)


def _sector_kernel(gap: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray) -> np.ndarray:
    """The sup of the Poisson kernel (1 - |z|^2) / |z - e^{it}|^2 over the z
    with x_lo <= x = 1 - |z| <= x_hi at angular distance >= ``gap`` from t,
    for every gap (an array ending in an axis of length 1) and depth range
    (the last axis).

    With s = sin(gap / 2) and c = cos(gap / 2) the kernel is
    x (2 - x) / (x^2 + 4 (1 - x) s^2): it falls as the gap grows, and in x
    it rises up to x* = 2 s / (c + s) and falls after, so the sup is its
    value at x* clamped into [x_lo, x_hi].  An x* off by rounding loses a
    second-order amount, far inside SECTOR_WIDEN.
    """
    s, c = np.sin(0.5 * gap), np.cos(0.5 * gap)
    x = np.clip(2.0 * s / (c + s), x_lo, x_hi)
    return x * (2.0 - x) / (x * x + 4.0 * (1.0 - x) * s * s)


def _herglotz_kernel(z: complex, theta: float) -> complex:
    xi = cmath.exp(1j * theta)
    return (z + xi) / (z - xi)


def _cell_distances2(z: complex, lo: np.ndarray, hi: np.ndarray,
                     far: bool) -> np.ndarray:
    """The min of |z - e^{it}|^2 over each cell [lo, hi] (radians), and
    with ``far`` its max, as the rows of one array."""
    r = abs(z)
    phase = cmath.phase(z) if r > 0.0 else 0.0
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    d = np.abs(np.mod(phase - center + math.pi, TWO_PI) - math.pi)
    gap = np.empty((2 if far else 1, d.size))
    np.maximum(0.0, d - half, out=gap[0])
    if far:
        np.minimum(math.pi, d + half, out=gap[1])
    return (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * gap) ** 2


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and the exact error a + b - s."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a matrix of finite terms >= 0, bit for bit.

    A row's m terms are added in pairs, level by level, with _two_sum,
    which keeps each addition's exact error: S is their float sum and c
    the float sum of the k = m - 1 errors, and r, rho = _two_sum(S, c).  The
    exact row sum is r + rho plus the rounding of c.  Each error is at most
    u S (u = 2^-53; the partial sums are at most S), so c, added in any
    order, errs by less than 2 k^2 u^2 S.  Where |rho| plus that bound is
    below half the gap from r down to its neighbour, r is fsum's; the other
    rows, such as ties, are fsum'ed.  The pairs are rows of the transpose,
    which are contiguous.
    """
    if terms.shape[1] <= 2:     # fsum of two terms or fewer is their float sum
        return terms.sum(axis=1)
    rows, errors = terms.T.copy(), []
    while len(rows) > 1:
        half = len(rows) // 2
        total, error = _two_sum(rows[:half], rows[half:2 * half])
        errors.append(error)
        rows = total if len(rows) == 2 * half else np.concatenate([total, rows[2 * half:]])
    total, k = rows[0], terms.shape[1] - 1
    r, rho = _two_sum(total, np.concatenate(errors).sum(axis=0))
    gap = r - r * (1.0 - 2.0 ** -53)    # r minus its lower neighbour, r normal
    with np.errstate(invalid="ignore"):
        sure = ((np.abs(rho) + 2.0 * k * k * 2.0 ** -106 * total < 0.5 * gap)
                & (total >= 2.0 ** -900))
    for i in np.flatnonzero(~sure).tolist():
        r[i] = math.fsum(terms[i].tolist())
    return r


def _check_interior(z: complex) -> complex:
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("integral requires |z| < 1, got |z| = %r" % (abs(z),))
    return z


def _arc_bounds(sigma, arc: BoundaryArc, tol: float) -> tuple[float, float]:
    """sigma.mass_of_arc_bounds: its batch kernel on the one-arc arrays,
    whose bracket and error are the arc's."""
    lo, hi = sigma.mass_of_arc_bounds_many(np.array([arc.center_angle]),
                                           np.array([arc.half_width]), tol)
    return (float(lo[0]), float(hi[0]))


def _arc_windows(arc: BoundaryArc) -> list[tuple[float, float]]:
    """Split an arc into linear windows inside [0, 2*pi]."""
    if arc.half_width >= math.pi:
        return [(0.0, TWO_PI)]
    lo = angle_mod(arc.lo)
    hi = lo + arc.length
    if hi <= TWO_PI:
        return [(lo, hi)]
    return [(lo, TWO_PI), (0.0, hi - TWO_PI)]


class SingularMeasure:
    """Common query surface of the three measure variants; every arc is
    closed, so an atom on an arc's endpoint counts toward its mass.  The
    kinds that SingularInner accepts also give MuMeasure
    mass_of_arc_bounds_many (many arcs' brackets as two arrays) and
    lower_mass_arcs(scale), closed arcs about scale long or shorter
    outside which the lower end of every arc mass is 0, and give
    companion.choose_radii sector_bounds(centers, half_widths, x_lo, x_hi,
    tol): per arc (a row) and depth range (a column), an upper bound of
    P[sigma] over the polar rectangle {x_lo <= 1 - |z| <= x_hi, arg z on
    the arc}, within a relative tol of the integral of _sector_kernel
    against sigma."""

    def total_mass(self) -> float:
        raise NotImplementedError

    def support(self) -> BoundarySupport:
        raise NotImplementedError

    def mass_of_arc(self, arc: BoundaryArc, tol: float = 1e-12) -> float:
        lo, hi = self.mass_of_arc_bounds(arc, tol)
        return 0.5 * (lo + hi)

    def mass_of_arc_bounds(self, arc: BoundaryArc, tol: float = 1e-12) -> tuple[float, float]:
        raise NotImplementedError

    def poisson_integral(self, z: complex, tol: float = 1e-9) -> float:
        lo, hi = self.poisson_bounds(z, tol)
        return 0.5 * (lo + hi)

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        raise NotImplementedError

    def poisson_bounds_many(self, points: np.ndarray, tol: float | np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """poisson_bounds of each point of a complex array at its tol, a
        float or an array of one per point, as a lower-end array and an
        upper-end array: here a loop over poisson_bounds, while a kind with
        its own kernel, such as AtomicMeasure, makes poisson_bounds its
        one-point case.  It answers every point or raises an OnecompError;
        which point's error a caller sees is decided by inner._bounds, which
        replays the points one at a time."""
        tols = np.broadcast_to(tol, points.shape).tolist()
        bounds = [self.poisson_bounds(z, t) for z, t in zip(points.tolist(), tols)]
        lo, hi = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
        return lo, hi

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Atomic measures
# ---------------------------------------------------------------------------

class AtomicMeasure(SingularMeasure):
    """Sum of point masses: the listed atoms plus a declared tail.

    ``tail_mass`` bounds the total mass of the atoms not listed, 0 for a
    finite sum.  ``tail_hull`` optionally locates all of them inside known
    arcs, and ``accumulation`` declares limit angles, so the closed support
    of an infinite sum can be queried.
    """

    def __init__(self, atoms: Sequence[tuple[float, float]],
                 tail_mass: float = 0.0,
                 tail_hull: Sequence[BoundaryArc] = (),
                 accumulation: Sequence[float] = ()):
        self._atoms: list[tuple[float, float]] = []
        seen = set()
        for theta, mass in atoms:
            if mass <= 0.0:
                raise DomainError("atom masses must be positive")
            key = angle_mod(float(theta))
            if key in seen:
                raise DomainError("atom angles must be distinct")
            seen.add(key)
            self._atoms.append((key, float(mass)))
        if tail_mass < 0.0:
            raise DomainError("tail mass bound must be nonnegative")
        self._tail = float(tail_mass)
        # the masses scaled by a power of two, so their sum cannot overflow
        scaled = [m / _MAX_MASS for _, m in self._atoms] + [self._tail / _MAX_MASS]
        if not math.fsum(scaled) <= 1.0:
            raise DomainError("atom masses plus tail mass exceed the bound 2^960")
        self._hull = tuple(tail_hull)
        self._accumulation = tuple(float(a) for a in accumulation)

    @property
    def tail_mass(self) -> float:
        return self._tail

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(self._atoms)

    # -- queries --

    def total_mass(self) -> float:
        return math.fsum(m for _, m in self._atoms) + self._tail

    def support(self) -> BoundarySupport:
        return PointSupport.of([t for t, _ in self._atoms],
                               accumulation=self._accumulation, hull=self._hull)

    def lower_mass_arcs(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        # the tail counts only toward upper ends: listed atoms alone
        thetas = np.array([t for t, _ in self._atoms], dtype=np.float64)
        return thetas, thetas

    def mass_of_arc_bounds(self, arc: BoundaryArc, tol: float = 1e-12) -> tuple[float, float]:
        return _arc_bounds(self, arc, tol)

    def mass_of_arc_bounds_many(self, centers: np.ndarray, half_widths: np.ndarray,
                                tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        """An arc x atom matrix, in row blocks of about BLOCK_ELEMENTS.

        The gap is geometry.angular_gap elementwise (fmod, then one wrap into
        (-pi, pi]).  The selected masses are added as a running sum in atom
        order, the order of a per-atom loop; np.sum would add pairwise.
        """
        total = np.zeros(len(centers))
        if self._atoms:
            thetas, masses = np.array(self._atoms).T
            step = max(1, BLOCK_ELEMENTS // thetas.size)
            for s in range(0, len(centers), step):
                half = half_widths[s:s + step, None]
                a = np.fmod(thetas - centers[s:s + step, None], TWO_PI)
                gap = np.abs(np.where(a > math.pi, a - TWO_PI,
                                      np.where(a <= -math.pi, a + TWO_PI, a)))
                inside = (gap <= half) | (half >= math.pi)
                total[s:s + step] = np.cumsum(np.where(inside, masses, 0.0), axis=1)[:, -1]
        return total, total + self._tail

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        lo, hi = self.poisson_bounds_many(np.array([complex(z)]), tol)
        return (lo.item(), hi.item())

    def poisson_bounds_many(self, points: np.ndarray, tol: float | np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """A point x atom matrix of the terms m P(z, t), P(z, t) =
        (1 - |z|^2) / |z - e^{it}|^2, in row blocks of about BLOCK_ELEMENTS,
        each row summed by _fsum_rows to the bits of math.fsum of the row;
        the upper ends add the tail mass times P's sup, (1 + |z|) / (1 - |z|).
        A scalar poisson_bounds is the one-point array.  It answers every
        point or raises at the first failing point: DomainError for a point
        outside the disc, then PrecisionExhausted, with the point's
        bracket, where the tail cannot meet the point's tol (a float, or an
        array of one per point).  e^{i t} is taken once per
        atom by cmath.exp, |.| by np.hypot and |.| ** 2 by np.float_power,
        which match abs(complex) and float ** 2; np.abs on complex128 and
        squaring by multiplication differ from them in the last bit."""
        moduli = np.hypot(points.real, points.imag)
        outside = np.flatnonzero(~(moduli < 1.0))
        if outside.size:
            raise DomainError("integral requires |z| < 1, got |z| = %r"
                              % (moduli[outside[0]].item(),))
        one_minus_r2 = 1.0 - np.float_power(moduli, 2.0)
        lower = np.empty(len(points))
        masses = np.array([m for _, m in self._atoms], dtype=np.float64)
        xi = np.array([cmath.exp(1j * t) for t, _ in self._atoms], dtype=np.complex128)
        step = max(1, BLOCK_ELEMENTS // max(1, xi.size))
        for s in range(0, len(points), step):
            # |z - e^{it}| from the parts of z - e^{it}, then the terms in place
            terms = points.real[s:s + step, None] - xi.real
            np.hypot(terms, points.imag[s:s + step, None] - xi.imag, out=terms)
            np.float_power(terms, 2.0, out=terms)
            np.divide(one_minus_r2[s:s + step, None], terms, out=terms)
            terms *= masses
            lower[s:s + step] = _fsum_rows(terms)
        slack = self._tail * ((1.0 + moduli) / (1.0 - moduli))
        short = np.flatnonzero(slack > tol)
        if short.size:
            i = short[0]
            raise PrecisionExhausted(
                "atomic tail bound %g cannot meet tol %g at 1 - |z| = %g"
                % (self._tail, np.broadcast_to(tol, slack.shape)[i], 1.0 - moduli[i]),
                bracket=(lower[i].item(), (lower[i] + slack[i]).item()))
        return lower, lower + slack

    def sector_bounds(self, centers: np.ndarray, half_widths: np.ndarray,
                      x_lo: np.ndarray, x_hi: np.ndarray, tol: float) -> np.ndarray:
        """Each listed mass times _sector_kernel at its atom's gap from the
        arc, and the tail mass times it at the gap from the arc to
        tail_hull, 0 with no hull, summed: a closed form, so tol is not
        needed.  An arc x atom x depth range array, in row blocks of about
        BLOCK_ELEMENTS."""
        total = np.zeros((len(centers), len(x_lo)))
        if self._atoms:
            thetas, masses = np.array(self._atoms).T
            step = max(1, BLOCK_ELEMENTS // (thetas.size * len(x_lo)))
            for s in range(0, len(centers), step):
                rows = slice(s, s + step)
                gap = _sector_gaps(thetas, centers[rows], half_widths[rows, None])
                kernel = _sector_kernel(gap[:, :, None], x_lo, x_hi)
                total[rows] = (kernel * masses[:, None]).sum(axis=1)
        if self._tail:
            gap = np.zeros(len(centers))
            if self._hull:
                hull = np.array([(h.center_angle, h.half_width) for h in self._hull]).T
                gap = _sector_gaps(hull[0], centers, half_widths[:, None] + hull[1]).min(axis=1)
            total += self._tail * _sector_kernel(gap[:, None], x_lo, x_hi)
        return total * SECTOR_WIDEN

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        z = _check_interior(z)
        max_kernel = (1.0 + abs(z)) / (1.0 - abs(z))
        if self._tail * max_kernel > tol:
            raise PrecisionExhausted(
                "atomic tail bound %g cannot meet tol %g" % (self._tail, tol))
        terms = [(m, _herglotz_kernel(z, t)) for t, m in self._atoms]
        re = math.fsum(m * k.real for m, k in terms)
        im = math.fsum(m * k.imag for m, k in terms)
        return complex(re, im)


# ---------------------------------------------------------------------------
# Symmetric Cantor measures
# ---------------------------------------------------------------------------

MIDDLE_THIRDS_RATIO = Fraction(2, 3)


class CantorMeasure(SingularMeasure):
    """Symmetric Cantor measure with generation lengths 2^{-n} delta_n.

    ``ratios[n]`` is delta_{n+1} / delta_n as an exact rational in (0, 1);
    a constant ratio 2/3 gives the middle-thirds set.  When a finite
    explicit list is supplied, deeper generations continue with the last
    ratio.  Interval endpoints are stored as exact fractions of a full turn.
    """

    MAX_GENERATION = 48
    _MASSES = np.exp2(-np.arange(MAX_GENERATION + 1.0))   # 2^{-n}, exact

    def __init__(self, ratios: Sequence[Fraction] | Fraction = MIDDLE_THIRDS_RATIO):
        if isinstance(ratios, Fraction):
            ratios = [ratios]
        self._ratios = [Fraction(r) for r in ratios]
        if not self._ratios:
            raise DomainError("need at least one generation ratio")
        for r in self._ratios:
            if not (0 < r < 1):
                raise DomainError("generation ratios must lie in (0, 1), got %s" % (r,))
        # generation cache: list of (a, b) Fractions in turn units
        self._gens: list[list[tuple[Fraction, Fraction]]] = [[(Fraction(0), Fraction(1))]]
        ratios = [self._ratio(k) for k in range(self.MAX_GENERATION + 1)]
        self._ratio_floats = np.array([float(q) for q in ratios])
        # (2 s, p, 2 s - p) of each ratio q = p / s, for cdf_bounds
        self._ratio_ints = [(2 * q.denominator, q.numerator, 2 * q.denominator - q.numerator)
                            for q in ratios]

    @classmethod
    def middle_thirds(cls) -> "CantorMeasure":
        return cls(MIDDLE_THIRDS_RATIO)

    @classmethod
    def from_removed_fraction(cls, removed: Fraction) -> "CantorMeasure":
        """Cantor set removing the centered fraction ``removed`` each step."""
        removed = Fraction(removed)
        if not (0 < removed < 1):
            raise DomainError("removed fraction must lie in (0, 1)")
        return cls(1 - removed)

    @classmethod
    def from_delta_radians(cls, deltas: Sequence[float]) -> "CantorMeasure":
        """Explicit delta_n list in radians; delta_0 = 2 pi is implied."""
        vals = [TWO_PI] + [float(d) for d in deltas]
        ratios = []
        for a, b in zip(vals, vals[1:]):
            ratios.append(Fraction(b) / Fraction(a))
        return cls(ratios)

    def _ratio(self, n: int) -> Fraction:
        """delta_{n+1} / delta_n."""
        if n < len(self._ratios):
            return self._ratios[n]
        return self._ratios[-1]

    def delta(self, n: int) -> float:
        """delta_n in radians."""
        q = Fraction(1)
        for k in range(n):
            q *= self._ratio(k)
        return float(_TWO_PI_FRAC * q)

    def generation(self, n: int) -> list[tuple[Fraction, Fraction]]:
        """The 2^n intervals of E_n, exact endpoints in turn units."""
        if n > self.MAX_GENERATION:
            raise PrecisionExhausted("generation depth cap %d exceeded" % self.MAX_GENERATION)
        while len(self._gens) <= n:
            m = len(self._gens)          # building generation m from m-1
            q = self._ratio(m - 1)
            out = []
            for a, b in self._gens[-1]:
                child_len = (b - a) * q / 2
                out.append((a, a + child_len))
                out.append((b - child_len, b))
            self._gens.append(out)
        return self._gens[n]

    def total_mass(self) -> float:
        return 1.0

    def support(self) -> BoundarySupport:
        return CantorSupport(self)

    def lower_mass_arcs(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        # the intervals of the first generation no longer than scale
        n, length = 0, TWO_PI
        while length > scale and n < self.MAX_GENERATION:
            length *= 0.5 * self._ratio_floats[n]
            n += 1
        ends = np.array([(float(a), float(b)) for a, b in self.generation(n)]) * TWO_PI
        return ends[:, 0], ends[:, 1]

    # -- CDF --

    def cdf_bounds(self, t: float, tol: float = 1e-12) -> tuple[float, float]:
        """Bracket for phi(t) = sigma([0, t]), t in radians in [0, 2*pi].

        Exact once t falls in a removed gap; while t stays inside a
        generation interval the bracket width is the interval mass 2^{-n}.
        The descent keeps t's place in its generation interval [a, b] as the
        exact ratio u / v = (t - a) / (b - a) of Python ints.
        """
        tn, td = float(t).as_integer_ratio()
        u, v = tn * _TWO_PI_RATIO[1], td * _TWO_PI_RATIO[0]   # t / (2 pi)
        if u <= 0:
            return (0.0, 0.0)
        if u >= v:
            return (1.0, 1.0)
        below = 0.0
        for n in range(1, self.MAX_GENERATION + 1):
            # the children of [0, 1] are [0, q/2] and [1 - q/2, 1], q = p/s
            two_s, p, right = self._ratio_ints[n - 1]
            mass = 2.0 ** -n
            u *= two_s
            if u > p * v:                # past the left child
                if u < right * v:
                    return (below + mass, below + mass)   # in the removed gap
                below += mass
                u -= right * v
            v *= p
            if mass <= tol:
                return (below, below + mass)
        return (below, below + 2.0 ** -self.MAX_GENERATION)

    def mass_of_arc_bounds(self, arc: BoundaryArc, tol: float = 1e-12) -> tuple[float, float]:
        return _arc_bounds(self, arc, tol)

    def mass_of_arc_bounds_many(self, centers: np.ndarray, half_widths: np.ndarray,
                                tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        """CDF differences over each arc's _arc_windows, the windows taken
        as arrays in the same float steps; the first arc whose bracket is
        wider than tol raises."""
        whole = half_widths >= math.pi
        start = np.fmod(centers - half_widths, TWO_PI)
        start = np.where(whole, 0.0, np.where(start < 0.0, start + TWO_PI, start))
        end = np.where(whole, TWO_PI, start + 2.0 * half_widths)
        # the windows [start, min(end, 2 pi)] and, past 2 pi, [0, end - 2 pi],
        # whose CDF at 0 is (0, 0); an arc that does not wrap adds
        # cdf_bounds(end - 2 pi <= 0) = (0, 0)
        ends = np.concatenate([start, np.minimum(end, TWO_PI), end - TWO_PI])
        a, b, c = np.array([self.cdf_bounds(t, tol * 0.25)
                            for t in ends.tolist()]).reshape(3, -1, 2)
        lo_total = np.maximum(0.0, b[:, 0] - a[:, 1]) + c[:, 0]
        hi_total = np.maximum(0.0, b[:, 1] - a[:, 0]) + c[:, 1]
        wide = np.flatnonzero(hi_total - lo_total > 4.0 * tol + 1e-15)
        if wide.size:
            lo, hi = float(lo_total[wide[0]]), float(hi_total[wide[0]])
            raise PrecisionExhausted(
                "Cantor arc mass bracket stuck at width %g for tol %g"
                % (hi - lo, tol), bracket=(lo, hi))
        return lo_total, hi_total

    # -- Poisson / Herglotz over generation cells --

    def _cells(self, tol: float, bound) -> tuple[np.ndarray, ...]:
        """Generation cells whose errors sum below tol: (lo, hi, mass, *values).

        ``bound(lo, hi)`` takes the endpoint arrays (radians) of new cells and
        returns a tuple of arrays: the integrand's oscillation over each
        cell, then any per-cell values the caller wants back.  It runs once
        per cell, when the cell is made; a cell's error is its oscillation
        times its mass 2^{-n}.  Each round splits the cells whose error is at
        least tol divided by the live cell count; when no cell splits, the
        summed error is below tol.

        Cells are rows of column arrays in creation order.  A split cell
        stays as a dead row (error -inf) and its children are appended,
        left ones first, so the live rows keep the order [kept, left
        children, right children] of each round; dead rows are dropped, in
        order, when the columns are full, and the columns grow only when
        that leaves too little room.  New cells are bounded in blocks of
        BLOCK_ELEMENTS, so the bound's temporaries stay small, and the cell
        cap is checked before they are made.  Children are derived from
        parent endpoints directly (float endpoints, exact masses 2^{-n}), so
        deep refinement near the kernel peak stays local and never builds a
        whole generation.
        """
        base = self.generation(2)
        lo = np.array([float(a) * TWO_PI for a, _ in base])
        hi = np.array([float(b) * TWO_PI for _, b in base])
        gen = np.full(len(base), 2)
        osc, *values = bound(lo, hi)
        # columns: lo, hi, generation, error, then bound's values
        cols = [lo, hi, gen, osc * self._MASSES.take(gen), *values]
        rows = live = len(base)
        max_cells = 400000
        for child_gen in itertools.count(3):   # the deepest a child can be
            lo, hi, gen, err = cols[:4]
            split = (err[:rows] >= tol / live).nonzero()[0]
            slo, shi, sgen = lo.take(split), hi.take(split), gen.take(split)
            if child_gen > self.MAX_GENERATION:
                below_cap = sgen < self.MAX_GENERATION
                split, slo, shi, sgen = (split[below_cap], slo[below_cap],
                                         shi[below_cap], sgen[below_cap])
            k = split.size
            if not k:
                break
            if live + k > max_cells:
                raise PrecisionExhausted(
                    "Cantor quadrature needs more than %d cells for tol %g"
                    % (max_cells, tol))
            err.put(split, -math.inf)
            live += k
            if rows + 2 * k > len(err):
                # drop the dead rows; grow only if the live ones need it
                alive = (err[:rows] > -math.inf).nonzero()[0]
                rows = alive.size
                if rows + 2 * k <= len(err):
                    for col in cols:
                        col[:rows] = col.take(alive)
                else:
                    size = min(2 * (rows + 2 * k), max_cells)
                    for i, col in enumerate(cols):
                        cols[i] = np.empty(size, col.dtype)
                        cols[i][:rows] = col.take(alive)
                    lo, hi, gen, err = cols[:4]
            clen = (shi - slo) * self._ratio_floats.take(sgen) * 0.5
            mid, end = rows + k, rows + 2 * k
            lo[rows:mid], lo[mid:end] = slo, shi - clen
            hi[rows:mid], hi[mid:end] = slo + clen, shi
            gen[rows:mid] = gen[mid:end] = sgen + 1
            for start in range(rows, end, BLOCK_ELEMENTS):
                block = slice(start, min(start + BLOCK_ELEMENTS, end))
                osc, *values = bound(lo[block], hi[block])
                err[block] = osc * self._MASSES.take(gen[block])
                for col, v in zip(cols[4:], values):
                    col[block] = v
            rows = end
        alive = (cols[3][:rows] > -math.inf).nonzero()[0]
        lo, hi, gen, err, *values = (col.take(alive) for col in cols)
        total_err = float(np.sum(err))
        if total_err > tol:
            raise PrecisionExhausted(
                "Cantor quadrature hit the generation cap with error %g > tol %g"
                % (total_err, tol))
        return (lo, hi, self._MASSES.take(gen), *values)

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        z = _check_interior(z)
        r = abs(z)
        one_minus_r2 = 1.0 - r * r

        def bound(lo, hi):
            kmax, kmin = one_minus_r2 / _cell_distances2(z, lo, hi, True)
            return kmax - kmin, kmin, kmax

        _, _, masses, kmin, kmax = self._cells(tol, bound)
        return (float(np.sum(kmin * masses)), float(np.sum(kmax * masses)))

    def sector_bounds(self, centers: np.ndarray, half_widths: np.ndarray,
                      x_lo: np.ndarray, x_hi: np.ndarray, tol: float) -> np.ndarray:
        """The cells of one _cells call, each no wider than tol / 2 of its
        gap from every arc, so a call should hold nearby arcs: per arc,
        each cell's mass times _sector_kernel at the cell's gap from the
        arc, summed, for every depth range.  log _sector_kernel falls at
        most twice as fast as log gap, so over a cell of width w and gap g
        the kernel falls by less than the factor exp(2 w / g) <= exp(tol):
        each sum is within a relative tol of the kernel's integral against
        sigma, at every depth range.  A cell wider than that is given an
        infinite oscillation, so _cells splits it, and every other cell
        none."""
        def bound(lo, hi):
            width = hi - lo
            gap = _sector_gaps(0.5 * (lo + hi), centers, half_widths[:, None] + 0.5 * width)
            return (np.where(2.0 * width > tol * gap.min(axis=0), math.inf, 0.0),)

        lo, hi, masses = self._cells(tol, bound)
        out = np.zeros((len(centers), len(x_lo)))
        step = max(1, BLOCK_ELEMENTS // (len(centers) * len(x_lo)))
        for s in range(0, len(lo), step):
            cells = slice(s, s + step)
            gap = _sector_gaps(0.5 * (lo[cells] + hi[cells]), centers,
                               half_widths[:, None] + 0.5 * (hi[cells] - lo[cells]))
            out += (masses[cells, None] * _sector_kernel(gap[:, :, None], x_lo, x_hi)).sum(axis=1)
        return out * SECTOR_WIDEN

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        z = _check_interior(z)

        def bound(lo, hi):
            # |d/dt (z+e^{it})/(z-e^{it})| = 2|z| / |z - e^{it}|^2
            return ((hi - lo) * 2.0 * abs(z) / _cell_distances2(z, lo, hi, False)[0],)

        lo, hi, masses = self._cells(tol, bound)
        xi = np.exp(1j * (0.5 * (lo + hi)))
        return complex(np.sum(masses * (z + xi) / (z - xi)))


class CantorSupport(BoundarySupport):
    """Distance oracle for the Cantor set E = intersection of the E_n.

    Every generation-interval endpoint belongs to E, so when a query arc is
    disjoint from E_n the distance to E_n is exact (it is attained at an
    endpoint of the nearest interval).
    """

    def __init__(self, measure: CantorMeasure):
        self.measure = measure

    def is_empty(self) -> bool:
        return False

    def _descend(self, dist, tol: float) -> tuple[float, float]:
        """Distance bracket from a query to E by generation descent.

        ``dist(a, b)`` is the query's distance to the interval [a, b] of
        turns, and dist(e, e) its distance to the point e.  The nearest
        generation endpoint seen (a point of E) bounds from above, the
        nearest surviving interval from below; the descent stops once they
        are within ``tol``.
        """
        m = self.measure
        candidates = [(0.0, 1.0)]
        best_endpoint = math.inf
        lower = 0.0
        for n in range(1, m.MAX_GENERATION + 1):
            q = float(m._ratio_floats[n - 1])
            nxt = []
            lower = math.inf
            for a, b in candidates:
                clen = (b - a) * q * 0.5
                for ca, cb in ((a, a + clen), (b - clen, b)):
                    best_endpoint = min(best_endpoint, dist(ca, ca), dist(cb, cb))
                    d = dist(ca, cb)
                    if d <= best_endpoint:
                        nxt.append((ca, cb))
                        lower = min(lower, d)
            candidates = nxt
            if not candidates:
                return (best_endpoint, best_endpoint)
            if best_endpoint - lower <= tol:
                return (lower, best_endpoint)
        return (lower, best_endpoint)

    def angular_distance_to_arc(self, arc: BoundaryArc) -> tuple[float, float]:
        lo_best, hi_best = math.inf, math.inf
        for wlo, whi in _arc_windows(arc):
            u, v = wlo / TWO_PI, whi / TWO_PI

            def gap(iv_lo, iv_hi):
                # circular distance between [u, v] and [iv_lo, iv_hi] in turns
                if iv_hi >= u and iv_lo <= v:
                    return 0.0
                d = iv_lo - v if iv_lo > v else u - iv_hi
                return min(d, max(0.0, 1.0 - (v - u) - (iv_hi - iv_lo) - d))

            # intervals are tracked in double precision: ~1e-15 turn of slack
            dlo, dhi = self._descend(gap, 1e-15)
            lo_best = min(lo_best, dlo)
            hi_best = min(hi_best, dhi)
            if hi_best == 0.0:
                return (0.0, 0.0)
        return (lo_best * TWO_PI, hi_best * TWO_PI)

    def chord_distance_to_point(self, p: complex, tol: float = 1e-12) -> tuple[float, float]:
        r = abs(p)
        phase_turns = angle_mod(cmath.phase(p)) / TWO_PI if r > 0.0 else 0.0

        def chord_to_interval(lo_t: float, hi_t: float) -> float:
            # Euclidean distance from p to the arc spanning [lo_t, hi_t] turns
            d = abs((phase_turns - 0.5 * (lo_t + hi_t) + 0.5) % 1.0 - 0.5)
            gap_turns = max(0.0, d - 0.5 * (hi_t - lo_t))
            gap = gap_turns * TWO_PI
            return math.sqrt(max(0.0, r * r + 1.0 - 2.0 * r * math.cos(min(gap, math.pi))))

        return self._descend(chord_to_interval, tol)

    def cover_arcs(self, scale: float) -> list[BoundaryArc]:
        m = self.measure
        n = 2
        while n < m.MAX_GENERATION and float(m.generation(n)[0][1] - m.generation(n)[0][0]) * TWO_PI > scale \
                and 2 ** (n + 1) <= 65536:
            n += 1
        gen = m.generation(n)
        ends = [(float(a) * TWO_PI, float(b) * TWO_PI) for a, b in gen]
        if any(lo >= hi for lo, hi in ends):
            width = (gen[0][1] - gen[0][0]) * _TWO_PI_FRAC  # may lie below every float
            raise PrecisionExhausted("Cantor generation {} intervals of width {:.3g} radians "
                                     "collapse in double precision".format(
                                         n, Decimal(width.numerator) / width.denominator))
        return [BoundaryArc.from_endpoints(lo, hi) for lo, hi in ends]


# ---------------------------------------------------------------------------
# Generic CDF measures
# ---------------------------------------------------------------------------

class CdfMeasure(SingularMeasure):
    """Measure given by a piecewise-linear-in-samples CDF on [0, 2*pi]."""

    def __init__(self, samples: Sequence[tuple[float, float]]):
        pts = [(float(t), float(v)) for t, v in samples]
        if len(pts) < 2:
            raise DomainError("need at least two CDF samples")
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t1 <= t0:
                raise DomainError("CDF sample abscissae must be strictly increasing")
            if v1 < v0:
                raise DomainError("CDF samples must be non-decreasing")
            if not (v1 - v0) / (t1 - t0) <= _MAX_MASS:
                raise DomainError("CDF slope on [%r, %r] exceeds the bound 2^960" % (t0, t1))
        if not pts[-1][1] - pts[0][1] <= _MAX_MASS:
            raise DomainError("CDF total rise exceeds the bound 2^960")
        if pts[0][0] < 0.0 or pts[-1][0] > TWO_PI + 1e-12:
            raise DomainError("CDF samples must lie in [0, 2*pi]")
        self._pts = pts
        self._ts = [t for t, _ in pts]

    def cdf(self, t: float) -> float:
        pts = self._pts
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        hi = bisect.bisect_right(self._ts, t)
        (t0, v0), (t1, v1) = pts[hi - 1], pts[hi]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def total_mass(self) -> float:
        return self._pts[-1][1] - self._pts[0][1]

    def mass_of_arc_bounds(self, arc: BoundaryArc, tol: float = 1e-12) -> tuple[float, float]:
        total = 0.0
        for lo, hi in _arc_windows(arc):
            total += self.cdf(hi) - self.cdf(lo)
        return (total, total)

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        """Exact integral against the piecewise-linear CDF.

        On each sample interval the density is constant, and the Poisson
        kernel has the elementary antiderivative

            int P_r(t) dt = 2 atan( (1+r)/(1-r) tan(t/2) )

        continued across branch cuts, so the value is closed-form up to
        rounding; the returned bracket carries only a float slack.
        """
        z = _check_interior(z)
        r = abs(z)
        phase = cmath.phase(z) if r > 0.0 else 0.0
        c = (1.0 + r) / (1.0 - r)

        def anti(t: float) -> float:
            k = math.floor((t + math.pi) / TWO_PI)
            tt = t - TWO_PI * k
            return TWO_PI * k + 2.0 * math.atan(c * math.tan(0.5 * tt)) \
                if abs(tt) < math.pi else TWO_PI * k + math.copysign(math.pi, tt)

        total = 0.0
        for (t0, v0), (t1, v1) in zip(self._pts, self._pts[1:]):
            if v1 == v0:
                continue
            slope = (v1 - v0) / (t1 - t0)
            total += slope * (anti(t1 - phase) - anti(t0 - phase))
        slack = max(1e-13, 1e-13 * abs(total)) + 64.0 * abs(total) * 2.2e-16 / (1.0 - r)
        return (total - slack, total + slack)

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        """Exact integral: int_a^b (z+xi)/(z-xi) dtheta
        = (b - a) + 2i [log(e^{i theta} - z)]_a^b
        along the continuous branch of the logarithm (check at z = 0:
        the bracket is i (b - a), giving -(b - a) as it must)."""
        z = _check_interior(z)
        total = 0j
        for (t0, v0), (t1, v1) in zip(self._pts, self._pts[1:]):
            if v1 == v0:
                continue
            slope = (v1 - v0) / (t1 - t0)
            # walk the arc in quarter-turn steps to keep the branch continuous
            steps = max(1, int((t1 - t0) / (0.5 * math.pi)) + 1)
            acc = 0j
            prev_log = cmath.log(cmath.exp(1j * t0) - z)
            for s in range(1, steps + 1):
                t = t0 + (t1 - t0) * s / steps
                cur = cmath.log(cmath.exp(1j * t) - z)
                dim = cur.imag - prev_log.imag
                if dim > math.pi:
                    dim -= TWO_PI
                elif dim < -math.pi:
                    dim += TWO_PI
                acc += complex(cur.real - prev_log.real, dim)
                prev_log = cur
            total += slope * ((t1 - t0) + 2j * acc)
        return total
