"""Positive singular measures on the circle and their disc integrals.

Three variants are provided:

- ``AtomicMeasure``: finite or lazily truncated sums of point masses.
  Truncations carry an explicit tail-mass bound, and integral outputs carry
  the tail contribution as a certified error interval.
- ``CantorMeasure``: symmetric Cantor measure built from a strictly
  decreasing sequence ``delta_n`` (delta_0 = 2 pi).  Generation n consists of
  2^n intervals of length 2^{-n} delta_n, each carrying mass exactly 2^{-n};
  the removed segment is centered.  All endpoint arithmetic is exact
  (rational multiples of the circle) so deep generations do not cancel.
- ``CdfMeasure``: a monotone CDF supplied as piecewise-linear samples.
  Singularity of the supplied CDF is asserted by the caller, not verified.

Cantor Poisson and Herglotz integrals share one vectorized adaptive cell
subdivision (``CantorMeasure._cells``): a cell is split while a bound on the
kernel's oscillation over it times its mass exceeds the error budget.  The
Poisson kernel's extrema on a cell come from the closest and farthest
points of the cell (the kernel is monotone in chord distance); the Herglotz
kernel is bounded through its derivative at the closest point.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, PrecisionExhausted
from .geometry import (BLOCK_ELEMENTS, TWO_PI, ArcSupport, BoundaryArc,
                       BoundarySupport, PointSupport, angle_mod)

_TWO_PI_FRAC = Fraction(TWO_PI)  # the double nearest 2*pi, as an exact rational


def poisson_kernel(z: complex, theta: float) -> float:
    """(1 - |z|^2) / |z - e^{i theta}|^2."""
    return (1.0 - abs(z) ** 2) / abs(z - cmath.exp(1j * theta)) ** 2


def _herglotz_kernel(z: complex, theta: float) -> complex:
    xi = cmath.exp(1j * theta)
    return (z + xi) / (z - xi)


def _cell_distances2(z: complex, lo: np.ndarray, hi: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of |z - e^{it}|^2 over each cell [lo, hi] (radians)."""
    r = abs(z)
    phase = cmath.phase(z) if r > 0.0 else 0.0
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    d = np.abs(np.mod(phase - center + math.pi, TWO_PI) - math.pi)
    gmin = np.maximum(0.0, d - half)
    gmax = np.minimum(math.pi, d + half)
    return ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * gmin) ** 2,
            (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * gmax) ** 2)


def _check_interior(z: complex) -> complex:
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("integral requires |z| < 1, got |z| = %r" % (abs(z),))
    return z


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
    """Common query surface of the three measure variants."""

    def total_mass(self) -> float:
        raise NotImplementedError

    def support(self) -> BoundarySupport:
        raise NotImplementedError

    def mass_of_arc(self, arc: BoundaryArc, closed_ends: bool = True,
                    tol: float = 1e-12) -> float:
        lo, hi = self.mass_of_arc_bounds(arc, closed_ends, tol)
        return 0.5 * (lo + hi)

    def mass_of_arc_bounds(self, arc: BoundaryArc, closed_ends: bool = True,
                           tol: float = 1e-12) -> tuple[float, float]:
        raise NotImplementedError

    def mass_of_arc_bounds_many(self, centers: np.ndarray, half_widths: np.ndarray,
                                closed_ends: bool = True, tol: float = 1e-12
                                ) -> tuple[np.ndarray, np.ndarray]:
        """mass_of_arc_bounds of each arc (centers[i], half_widths[i]), as a
        lower-end array and an upper-end array."""
        bounds = [self.mass_of_arc_bounds(BoundaryArc(c, h), closed_ends, tol)
                  for c, h in zip(centers.tolist(), half_widths.tolist())]
        lo, hi = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
        return lo, hi

    def lower_mass_arcs(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) angles of closed arcs, in radians, outside which the
        lower end of every mass_of_arc_bounds is 0; each is about ``scale``
        long or shorter where the description allows.  The whole circle by
        default."""
        return np.array([0.0]), np.array([TWO_PI])

    @property
    def atom_count(self) -> int:
        """Materialized atoms; it grows only where atoms are listed lazily."""
        return 0

    def poisson_integral(self, z: complex, tol: float = 1e-9) -> float:
        lo, hi = self.poisson_bounds(z, tol)
        return 0.5 * (lo + hi)

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        raise NotImplementedError

    def poisson_bounds_many(self, points: np.ndarray, tol: float
                            ) -> tuple[np.ndarray, np.ndarray]:
        """poisson_bounds of the points of a complex array in turn, as a
        lower-end array and an upper-end array, for the leading points that
        the atoms listed now answer.

        The arrays stop before the first point whose call would list more
        atoms or raise PrecisionExhausted; the caller takes that point alone
        with poisson_bounds.  So a caller may run other queries between the
        points, as long as it asks again for the rest once atom_count moves.
        """
        bounds = []
        for z in points.tolist():
            try:
                bounds.append(self.poisson_bounds(z, tol))
            except PrecisionExhausted:
                break
        lo, hi = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
        return lo, hi

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Atomic measures
# ---------------------------------------------------------------------------

class AtomicMeasure(SingularMeasure):
    """Sum of point masses, possibly an explicit truncation of an infinite sum.

    ``generator`` yields (theta, mass, tail_after) triples; ``tail_after`` is
    an upper bound for the total mass still to come and must decrease
    consistently.  ``tail_hull`` optionally locates all unmaterialized atoms
    inside known arcs, and ``accumulation`` declares limit angles, so the
    closed support can be queried without materializing everything.
    """

    def __init__(self, atoms: Sequence[tuple[float, float]],
                 generator: Optional[Iterator[tuple[float, float, float]]] = None,
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
        self._gen = generator
        self._tail = float(tail_mass)
        self._hull = tuple(tail_hull)
        self._accumulation = tuple(float(a) for a in accumulation)

    # -- materialization --

    @property
    def tail_mass(self) -> float:
        return self._tail

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(self._atoms)

    def materialize_until_tail(self, bound: float) -> None:
        """Consume the generator until the declared tail is <= bound."""
        while self._tail > bound and self._gen is not None:
            try:
                theta, mass, tail_after = next(self._gen)
            except StopIteration:
                self._gen = None
                break
            if mass <= 0.0:
                raise DomainError("atom masses must be positive")
            if mass + tail_after > self._tail + 1e-12 * (1.0 + self._tail):
                raise DomainError("atom generator exceeds its declared tail budget")
            self._atoms.append((angle_mod(float(theta)), float(mass)))
            self._tail = float(tail_after)

    # -- queries --

    def total_mass(self) -> float:
        return math.fsum(m for _, m in self._atoms) + self._tail

    def support(self) -> BoundarySupport:
        return PointSupport.of([t for t, _ in self._atoms],
                               accumulation=self._accumulation, hull=self._hull)

    @property
    def atom_count(self) -> int:
        return len(self._atoms)

    def lower_mass_arcs(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        # the tail counts only toward upper ends: listed atoms alone
        thetas = np.array([t for t, _ in self._atoms], dtype=np.float64)
        return thetas, thetas

    def mass_of_arc_bounds(self, arc: BoundaryArc, closed_ends: bool = True,
                           tol: float = 1e-12) -> tuple[float, float]:
        lo, hi = self.mass_of_arc_bounds_many(np.array([arc.center_angle]),
                                              np.array([arc.half_width]),
                                              closed_ends, tol)
        return (float(lo[0]), float(hi[0]))

    def mass_of_arc_bounds_many(self, centers: np.ndarray, half_widths: np.ndarray,
                                closed_ends: bool = True, tol: float = 1e-12
                                ) -> tuple[np.ndarray, np.ndarray]:
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
                inside = (gap <= half) if closed_ends else (gap < half)
                inside |= half >= math.pi
                total[s:s + step] = np.cumsum(np.where(inside, masses, 0.0), axis=1)[:, -1]
        return total, total + self._tail

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        z = _check_interior(z)
        max_kernel = (1.0 + abs(z)) / (1.0 - abs(z))
        if self._gen is not None:
            self.materialize_until_tail(0.5 * tol / max_kernel)
        total = math.fsum(m * poisson_kernel(z, t) for t, m in self._atoms)
        slack = self._tail * max_kernel
        if slack > tol:
            raise PrecisionExhausted(
                "atomic tail bound %g cannot meet tol %g at |z|=%g"
                % (self._tail, tol, abs(z)), bracket=(total, total + slack))
        return (total, total + slack)

    def poisson_bounds_many(self, points: np.ndarray, tol: float
                            ) -> tuple[np.ndarray, np.ndarray]:
        """A point x atom matrix of the terms m P(z, t) of poisson_bounds, in
        row blocks of about BLOCK_ELEMENTS, each row added with math.fsum as
        poisson_bounds adds its terms; it stops before a point whose tail
        must be listed further or cannot meet tol.  e^{i t} is taken once
        per atom by cmath.exp, |.| by np.hypot and |.| ** 2 by
        np.float_power, which match abs(complex) and float ** 2; np.abs on
        complex128 and squaring by multiplication differ from them in the
        last bit."""
        moduli = [abs(_check_interior(z)) for z in points.tolist()]
        lower, upper = [], []
        masses = np.array([m for _, m in self._atoms], dtype=np.float64)
        xi = np.array([cmath.exp(1j * t) for t, _ in self._atoms], dtype=np.complex128)
        step = max(1, BLOCK_ELEMENTS // max(1, xi.size))
        for s in range(0, len(moduli), step):
            block = moduli[s:s + step]
            # |z - e^{it}| from the parts of z - e^{it}, then the terms in place
            terms = points.real[s:s + step, None] - xi.real
            np.hypot(terms, points.imag[s:s + step, None] - xi.imag, out=terms)
            np.float_power(terms, 2.0, out=terms)
            np.divide(np.array([1.0 - r ** 2 for r in block])[:, None], terms, out=terms)
            terms *= masses
            for z_abs, row in zip(block, terms):
                max_kernel = (1.0 + z_abs) / (1.0 - z_abs)
                slack = self._tail * max_kernel
                if slack > tol or (self._gen is not None
                                   and self._tail > 0.5 * tol / max_kernel):
                    return np.array(lower), np.array(upper)
                total = math.fsum(row.tolist())
                lower.append(total)
                upper.append(total + slack)
        return np.array(lower), np.array(upper)

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        z = _check_interior(z)
        max_kernel = (1.0 + abs(z)) / (1.0 - abs(z))
        if self._gen is not None:
            self.materialize_until_tail(0.5 * tol / max_kernel)
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
        self._ratio_floats = np.array(
            [float(self._ratio(k)) for k in range(self.MAX_GENERATION + 1)])

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

    def _to_turns(self, t: float) -> Fraction:
        return Fraction(t) / _TWO_PI_FRAC

    def cdf_bounds(self, t: float, tol: float = 1e-12) -> tuple[float, float]:
        """Bracket for phi(t) = sigma([0, t]), t in radians in [0, 2*pi].

        Exact once t falls in a removed gap; while t stays inside a
        generation interval the bracket width is the interval mass 2^{-n}.
        """
        tt = self._to_turns(t)
        if tt <= 0:
            return (0.0, 0.0)
        if tt >= 1:
            return (1.0, 1.0)
        below = 0.0
        a, b = Fraction(0), Fraction(1)
        for n in range(1, self.MAX_GENERATION + 1):
            q = self._ratio(n - 1)
            child_len = (b - a) * q / 2
            c1 = (a, a + child_len)
            c2 = (b - child_len, b)
            mass = 2.0 ** -n
            if tt <= c1[1]:
                a, b = c1
            elif tt < c2[0]:
                return (below + mass, below + mass)   # in the removed gap
            else:
                below += mass
                a, b = c2
            if mass <= tol:
                return (below, below + mass)
        return (below, below + 2.0 ** -self.MAX_GENERATION)

    def mass_of_arc_bounds(self, arc: BoundaryArc, closed_ends: bool = True,
                           tol: float = 1e-12) -> tuple[float, float]:
        lo_total, hi_total = 0.0, 0.0
        for wlo, whi in _arc_windows(arc):
            alo, ahi = self.cdf_bounds(wlo, tol * 0.25)
            blo, bhi = self.cdf_bounds(whi, tol * 0.25)
            lo_total += max(0.0, blo - ahi)
            hi_total += max(0.0, bhi - alo)
        if hi_total - lo_total > 4.0 * tol + 1e-15:
            raise PrecisionExhausted(
                "Cantor arc mass bracket stuck at width %g for tol %g"
                % (hi_total - lo_total, tol), bracket=(lo_total, hi_total))
        return (lo_total, hi_total)

    # -- Poisson / Herglotz over generation cells --

    def _cells(self, tol: float, osc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generation cells (lo, hi, mass) whose errors osc * mass sum below tol.

        ``osc(lo, hi)`` bounds the integrand's oscillation over each cell of
        the endpoint arrays (radians).  A cell is split while its error is at
        least tol divided by the current cell count; when the rule
        stabilizes, the summed error is below tol.  Children are derived
        from parent endpoints directly (float endpoints, exact masses
        2^{-n}), so deep refinement near the kernel peak stays local and
        never materializes a whole generation.
        """
        base = self.generation(2)
        n = np.full(len(base), 2, dtype=np.int64)
        lo = np.array([float(a) * TWO_PI for a, _ in base])
        hi = np.array([float(b) * TWO_PI for _, b in base])
        max_cells = 400000
        while True:
            err = osc(lo, hi) * np.exp2(-n.astype(np.float64))
            split = (err >= tol / n.size) & (n < self.MAX_GENERATION)
            if not np.any(split):
                break
            keep_n, keep_lo, keep_hi = n[~split], lo[~split], hi[~split]
            sn, slo, shi = n[split], lo[split], hi[split]
            q = self._ratio_floats[sn]
            clen = (shi - slo) * q * 0.5
            n = np.concatenate([keep_n, sn + 1, sn + 1])
            lo = np.concatenate([keep_lo, slo, shi - clen])
            hi = np.concatenate([keep_hi, slo + clen, shi])
            if n.size > max_cells:
                raise PrecisionExhausted(
                    "Cantor quadrature needs more than %d cells for tol %g"
                    % (max_cells, tol))
        total_err = float(np.sum(err))
        if total_err > tol:
            raise PrecisionExhausted(
                "Cantor quadrature hit the generation cap with error %g > tol %g"
                % (total_err, tol))
        return lo, hi, np.exp2(-n.astype(np.float64))

    def poisson_bounds(self, z: complex, tol: float = 1e-9) -> tuple[float, float]:
        z = _check_interior(z)
        r = abs(z)
        one_minus_r2 = 1.0 - r * r

        def kernel_range(lo, hi):
            d2min, d2max = _cell_distances2(z, lo, hi)
            return one_minus_r2 / d2max, one_minus_r2 / d2min

        def osc(lo, hi):
            kmin, kmax = kernel_range(lo, hi)
            return kmax - kmin

        lo, hi, masses = self._cells(tol, osc)
        kmin, kmax = kernel_range(lo, hi)
        return (float(np.sum(kmin * masses)), float(np.sum(kmax * masses)))

    def herglotz_integral(self, z: complex, tol: float = 1e-9) -> complex:
        z = _check_interior(z)

        def osc(lo, hi):
            # |d/dt (z+e^{it})/(z-e^{it})| = 2|z| / |z - e^{it}|^2
            return (hi - lo) * 2.0 * abs(z) / _cell_distances2(z, lo, hi)[0]

        lo, hi, masses = self._cells(tol, osc)
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
        return [BoundaryArc.from_endpoints(float(a) * TWO_PI, float(b) * TWO_PI)
                for a, b in m.generation(n)]


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

    def lower_mass_arcs(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        # the sample intervals on which the CDF rises
        rising = [(t0, t1) for (t0, v0), (t1, v1) in zip(self._pts, self._pts[1:])
                  if v1 > v0]
        ends = np.array(rising, dtype=np.float64).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    def support(self) -> BoundarySupport:
        arcs = []
        for (t0, v0), (t1, v1) in zip(self._pts, self._pts[1:]):
            if v1 > v0:
                arcs.append(BoundaryArc.from_endpoints(t0, t1))
        return ArcSupport(tuple(arcs))

    def mass_of_arc_bounds(self, arc: BoundaryArc, closed_ends: bool = True,
                           tol: float = 1e-12) -> tuple[float, float]:
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
