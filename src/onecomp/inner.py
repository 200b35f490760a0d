"""Blaschke products, singular inner functions, and their diagnostics.

Modulus computations route through log space: log|Theta(z)| is reported as a
certified interval combining the listed Blaschke factors, a rigorous bound
for the declared tail, and Poisson-integral brackets for the singular part.
A zero sequence is a finite array of listed zeros, validated and stored
once, plus that tail; the kernels read the array.  The tail bound uses

    -sum_tail log rho <= sum_tail (1 - rho^2) / rho^2,
    1 - rho(z, w)^2 = (1-|z|^2)(1-|w|^2) / |1 - conj(w) z|^2
                    <= 4 (1-|w|) (1+|z|) / (1-|z|),

so at depth s = 1 - |z| a declared tail Blaschke sum T gives
-sum_tail log rho <= u/(1-u) with u = 4 T (2 - s)/s (for u < 1/2; otherwise
no bound is claimed).  A query whose tolerance this bound cannot meet
raises TailBoundInsufficient.  The radial-limit test in ``classify`` uses
the same bound at each depth of its grid.

Each modulus_bounds is _bounds over its one batch kernel,
_modulus_bounds_many, on a complex array: a scalar is the one-point array,
and when the kernel fails, _bounds replays it one point at a time.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (BlaschkeConditionError, DomainError, OnecompError,
                     TailBoundInsufficient)
from .geometry import (BLOCK_ELEMENTS, TWO_PI, BoundarySupport, PointSupport,
                       SquareArrays, carleson_squares, level_points)
from .measures import (SECTOR_SLACK, SECTOR_WIDEN, CdfMeasure, SingularMeasure,
                       _sector_gaps)


class Interval(NamedTuple):
    """Closed interval [lo, hi] certifying a real quantity."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


MINUS_INF_INTERVAL = Interval(-math.inf, -math.inf)

MASS_TOL = 1e-9  # tolerance of the boundary part of every mu(Q) bracket


class ZeroSequence:
    """The listed zeros, one complex128 array checked to lie in the open
    disc and made once, and a declared tail: the Blaschke sum of every zero
    not listed, 0 for a finite product."""

    def __init__(self, zeros: Sequence[complex] = (),
                 tail_blaschke_sum: float = 0.0,
                 accumulation_angles: Sequence[float] = ()):
        arr = np.array(zeros, dtype=np.complex128)
        if not (np.hypot(arr.real, arr.imag) < 1.0).all():
            raise DomainError("zeros must lie in the open disc")
        if tail_blaschke_sum < 0.0:
            raise BlaschkeConditionError("tail Blaschke sum must be nonnegative")
        self._tail = float(tail_blaschke_sum)
        self.accumulation_angles = tuple(float(a) for a in accumulation_angles)
        self._arr = arr

    def materialize_count(self, count: int) -> None:
        """No-op: every zero is listed when the sequence is built."""

    @property
    def zeros(self) -> list[complex]:
        return self._arr.tolist()

    @property
    def tail_blaschke_sum(self) -> float:
        return self._tail

    def __len__(self) -> int:
        return self._arr.size

    def as_array(self) -> np.ndarray:
        return self._arr


def blaschke_factor(w: complex, z: complex) -> complex:
    """Single factor |w|/w * (w - z)/(1 - conj(w) z); -z when w = 0."""
    if w == 0:
        return -z
    return (abs(w) / w) * (w - z) / (1.0 - w.conjugate() * z)


def _tail_neg_log_bound(tail: float, depths: np.ndarray) -> np.ndarray:
    """Upper bounds for -sum_tail log rho(z, w) at each depth 1 - |z| of an
    array, given sum_tail (1 - |w|) <= tail; inf where the bound is not
    informative."""
    if tail == 0.0:
        return np.zeros(len(depths))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = 4.0 * tail * (2.0 - depths) / depths
        return np.where(u >= 0.5, math.inf, u / (1.0 - u))


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integers start[k], ..., start[k] + count[k] - 1 of every k, in
    order, as one array."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _row_blocks(count: np.ndarray) -> Iterator[slice]:
    """Slices of consecutive rows whose counts add up to BLOCK_ELEMENTS at
    most, or of one row where its count alone passes it."""
    ends = np.cumsum(count)
    s = 0
    while s < len(count):
        before = ends[s - 1] if s else 0
        e = max(s + 1, int(np.searchsorted(ends, before + BLOCK_ELEMENTS, "right")))
        yield slice(s, e)
        s = e


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each entry: np.exp can differ in the last bit."""
    return np.array(list(map(math.exp, x.tolist())))


def _bounds(f, z, tol: float) -> Interval:
    """f.modulus_bounds: its batch kernel on a complex array, or on the
    one-point array of a scalar, whose bracket is returned as floats.  When
    the kernel raises, it runs on each point alone in turn, so the error
    raised is the per-point loop's first; the kernel's own error is raised
    only if no point raises."""
    array = isinstance(z, np.ndarray)
    points = z if array else np.array([complex(z)])
    try:
        lo, hi = f._modulus_bounds_many(points, tol)
    except OnecompError:
        for p in points.tolist():
            f._modulus_bounds_many(np.array([complex(p)]), tol)
        raise
    return Interval(lo, hi) if array else Interval(lo.item(), hi.item())


class BlaschkeProduct:
    """Blaschke product over a ZeroSequence."""

    def __init__(self, zeros: ZeroSequence | Sequence[complex]):
        if not isinstance(zeros, ZeroSequence):
            zeros = ZeroSequence(zeros)
        self.zeros = zeros

    def _ensure_tail(self, depths: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        """The declared tail's bounds at the depths 1 - |z|; raises at the
        first that exceeds its budget, naming its depth, which %g keeps
        apart where it would round |z| to 1."""
        bound = _tail_neg_log_bound(self.zeros.tail_blaschke_sum, depths)
        over = np.flatnonzero(bound > budgets)
        if over.size:
            i = over[0]
            raise TailBoundInsufficient(
                "certified tail %g exceeds budget %g at 1 - |z| = %g"
                % (bound[i], budgets[i], depths[i]))
        return bound

    def _log_sums(self, points: np.ndarray) -> np.ndarray:
        """sum log|w - z| - log|1 - conj(w) z| over the listed zeros w, for
        every point z of a complex array: a point x zero matrix in row
        blocks of about BLOCK_ELEMENTS, each row summed in zero order; -inf
        in a row with a zero."""
        arr = self.zeros.as_array()
        sums = np.zeros(len(points))
        if arr.size == 0:
            return sums
        # 2-D: in a 1 x 1 block, a 1-D conj can change the product's last bit
        conj = np.conj(arr)[None, :]
        step = max(1, BLOCK_ELEMENTS // arr.size)
        with np.errstate(divide="ignore"):
            for s in range(0, len(points), step):
                z = points[s:s + step, None]
                logs = np.log(np.abs(arr - z))
                logs -= np.log(np.abs(1.0 - conj * z))
                sums[s:s + step] = logs.sum(axis=1)
        return sums

    def log_modulus(self, z: complex, tol: float = 1e-9) -> Interval:
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainError("log_modulus requires |z| < 1")
        s = self._log_sums(np.array([z])).item()
        if s == -math.inf:      # a listed zero: no tail bound is needed
            return MINUS_INF_INTERVAL
        bound = self._ensure_tail(np.array([1.0 - abs(z)]), np.array([0.5 * tol]))
        return Interval(s - bound.item(), s)

    def modulus_bounds(self, z: complex, tol: float = 1e-9) -> Interval:
        """Certified bracket for |B(z)| at value scale.

        Cheaper than exp(log_modulus) when the listed product is already
        below tol: the tail only shrinks the modulus, so (0, exp(sum)) is
        certified without a tail bound.

        A 1-D complex array z gives Interval(lower array, upper array), and
        a scalar is the one-point array: one _log_sums call, math.exp of
        each sum, and the tail bound and its budget as arrays.  A failing
        array raises the per-point loop's error (_bounds).
        """
        return _bounds(self, z, tol)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        moduli = np.hypot(points.real, points.imag)  # abs()'s bits
        if not (moduli < 1.0).all():
            raise DomainError("modulus bounds require |z| < 1")
        sums = self._log_sums(points)
        upper = _exp(sums)
        # a zero, or a product below tol / 2, is bracketed by (0, upper)
        small = (sums == -math.inf) | (upper <= 0.5 * tol)
        with np.errstate(over="ignore", divide="ignore"):
            # value-scale budget: a log-width d gives value width <= upper * d
            budgets = np.where(small, math.inf, np.maximum(1e-15, 0.5 * tol / upper))
        bound = self._ensure_tail(1.0 - moduli, budgets)
        if self.zeros.tail_blaschke_sum == 0.0:     # every bound is 0
            lower = upper.copy()
        else:
            lower = _exp(sums - bound)
        lower[small] = 0.0
        return Interval(lower, upper)

    def sector_bounds(self, centers: np.ndarray, half_widths: np.ndarray,
                      x_lo: np.ndarray, x_hi: np.ndarray) -> np.ndarray:
        """Per arc (a row) and depth range (a column), an upper bound of
        -log|B| over the polar rectangle {x_lo <= 1 - |z| <= x_hi, arg z on
        the arc}: for each listed zero w, -log rho at its least
        pseudohyperbolic distance from the rectangle, plus
        _tail_neg_log_bound at depth x_lo for the declared tail.

        At depths x = 1 - |z|, y = 1 - |w| and s = sin(g / 2), g the
        angular gap, -log rho = log1p(x (2 - x) y (2 - y) / N) / 2 with
        N = (x - y)^2 + 4 (1 - x)(1 - y) s^2.  It falls as g grows, and in x
        it rises up to
            x* = (E + sqrt(E F)) / (1 + (1 - y)^2 + sqrt(E F)),
            E = y^2 + 4 (1 - y) s^2,  F = (2 - y)^2 - 4 (1 - y) s^2,
        and falls after, so its sup is at x* clamped into [x_lo, x_hi] (an
        x* off by rounding loses a second-order amount).  y is widened by
        SECTOR_SLACK each way, outward in every factor.  An arc x zero x
        depth range array, in row blocks of about BLOCK_ELEMENTS.
        """
        tail = self.zeros.tail_blaschke_sum
        total = np.tile(_tail_neg_log_bound(tail, x_lo), (len(centers), 1))
        arr = self.zeros.as_array()
        if arr.size == 0:
            return total * SECTOR_WIDEN
        angles, y = np.angle(arr), 1.0 - np.hypot(arr.real, arr.imag)
        y_hi = np.minimum(y + SECTOR_SLACK, 1.0)[:, None]
        step = max(1, BLOCK_ELEMENTS // (arr.size * len(x_lo)))
        with np.errstate(divide="ignore"):
            for s in range(0, len(centers), step):
                rows = slice(s, s + step)
                s2 = np.sin(0.5 * _sector_gaps(angles, centers[rows], half_widths[rows, None])) ** 2
                e = y * y + 4.0 * (1.0 - y) * s2
                root = np.sqrt(e * ((2.0 - y) ** 2 - 4.0 * (1.0 - y) * s2))
                x_star = (e + root) / (1.0 + (1.0 - y) ** 2 + root)
                x = np.clip(x_star[:, :, None], x_lo, x_hi)
                n = (np.maximum(np.abs(x - y[:, None]) - SECTOR_SLACK, 0.0) ** 2
                     + 4.0 * (1.0 - x) * (1.0 - y_hi) * s2[:, :, None])
                total[rows] += 0.5 * np.log1p(x * (2.0 - x) * y_hi * (2.0 - y_hi) / n).sum(axis=1)
        return total * SECTOR_WIDEN

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        """Value of the product of the listed zeros, once the declared tail
        is certified below tol.

        Interior points always work; closed-disc points (|z| = 1) are
        admitted for finite products, where the formula extends
        analytically.
        """
        z = complex(z)
        if not abs(z) < 1.0:
            if not (self.zeros.tail_blaschke_sum == 0.0 and abs(z) <= 1.0 + 1e-12):
                raise DomainError("boundary evaluation needs a finite product")
        elif self._log_sums(np.array([z])).item() > -math.inf:  # a listed zero needs no tail
            self._ensure_tail(np.array([1.0 - abs(z)]), np.array([0.5 * tol]))
        val = 1.0 + 0.0j
        for w in self.zeros.zeros:
            val *= blaschke_factor(w, z)
        return val


class SingularInner:
    """exp of the Herglotz transform of a positive singular measure."""

    def __init__(self, sigma: SingularMeasure):
        if isinstance(sigma, CdfMeasure):
            raise DomainError("measure kind cdf is absolutely continuous, not "
                              "singular: exp(-P[sigma]) is not inner")
        self.sigma = sigma

    def log_modulus(self, z: complex, tol: float = 1e-9) -> Interval:
        plo, phi = self.sigma.poisson_bounds(z, tol)
        return Interval(-phi, -plo)

    def modulus_bounds(self, z: complex, tol: float = 1e-9) -> Interval:
        """Certified bracket for |S(z)| = exp(-P[sigma](z)) at value scale.

        A coarse Poisson pass decides how much log-scale accuracy the value
        actually needs: when P is large, |S| is already pinned near 0.

        A 1-D complex array z gives Interval(lower array, upper array), and
        a scalar is the one-point array.  The coarse pass is one
        poisson_bounds_many call at tol 0.25 and math.exp of each end; the
        fine pass is one more, on the points whose coarse bracket is wider
        than tol, each at its own Poisson tolerance
        min(0.25, max(1e-14, tol exp(min(P_lo, 60)) / 2)).  A failing array
        raises the per-point loop's error (_bounds).
        """
        return _bounds(self, z, tol)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        plo, phi = self.sigma.poisson_bounds_many(points, 0.25)
        lower, upper = _exp(-phi), _exp(-plo)
        fine = np.flatnonzero(~(upper - lower <= tol))     # a NaN width too
        if fine.size:
            # a NaN P_lo keeps NaN through np.minimum, and np.fmax then
            # gives 1e-14, as Python's min and max do
            scale = _exp(np.minimum(plo[fine], 60.0))
            tols = np.minimum(0.25, np.fmax(1e-14, 0.5 * tol * scale))
            plo, phi = self.sigma.poisson_bounds_many(points[fine], tols)
            lower[fine], upper[fine] = _exp(-phi), _exp(-plo)
        return Interval(lower, upper)

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        return cmath.exp(self.sigma.herglotz_integral(z, tol))


@dataclass
class MuMeasure:
    """Zero masses (1-|z_n|) delta_{z_n} plus the boundary singular part.

    Zero radii, angles in [0, 2 pi) and weights 1 - |z| (np.hypot, abs()'s
    bits) are arrays taken once from the ZeroSequence, with the angles'
    sorted order; its declared tail bounds the unlisted zeros' weights.  A
    square query takes the zeros within the square's angular half-window of
    its center and at or above its base modulus, looked for in its angle
    window only (_squares_bounds), and sums their weights exactly with
    math.fsum.  A square smaller than the declared zero tail, which may
    hide unlisted zeros of that depth, raises instead of silently
    undercounting.  Many squares, such as every level of a scan, are
    answered by one batched call; a single square is a one-row batch.  The
    boundary part's masses are bracketed to MASS_TOL.
    """

    zeros: ZeroSequence
    boundary: Optional[SingularMeasure]

    def __post_init__(self):
        zs = self.zeros.as_array()
        self._radii = np.abs(zs)
        self._angles = np.mod(np.angle(zs), TWO_PI)
        self._weights = 1.0 - np.hypot(zs.real, zs.imag)
        # the angles in increasing order, then once more 2 pi up
        self._order = np.argsort(self._angles, kind="stable")
        ring = self._angles[self._order]
        self._ring = np.concatenate([ring, ring + TWO_PI])

    def of_square_bounds(self, square: SquareArrays) -> tuple[float, float]:
        """mu(Q) bracket of a one-row square, such as carleson_square(z)."""
        lo, hi = self._squares_bounds(square)
        return (float(lo[0]), float(hi[0]))

    def lower_masses(self, points: np.ndarray) -> np.ndarray:
        """Lower ends of of_square_bounds(carleson_square(z)) for every point
        z of a complex array, bit for bit."""
        return self._squares_bounds(carleson_squares(points))[0]

    def positive_squares(self, levels: Sequence[int]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, lower masses, levels) of the scan points of the levels
        (level_points) whose Carleson square has certifiably positive mass,
        in level-then-point order.

        Only the points next to listed mass (_live_points) are built, and
        each level's point 0, whose square stands for the level's side in
        the horizon check; one lower_masses call queries all of them.
        """
        parts = [level_points(level, np.union1d(self._live_points(level), [0]))
                 for level in levels]
        points = np.concatenate(parts)
        lower = self.lower_masses(points)
        at = np.repeat(levels, [part.size for part in parts])
        positive = lower > 0.0
        return points[positive], lower[positive], at[positive]

    def _live_points(self, level: int) -> np.ndarray:
        """Sorted positions, in level_points order, of the level's points
        whose square can have positive lower mass.

        A level point's square has side 0.75 pi 2^-level (to 1 % up to the
        scan depth cap) and angular half-window 3/16 of the box arc w, so
        it lies within w/4 of its box.  Box k, with points 2k (its corner)
        and 2k + 1, is live when a listed zero at or above its inner radius,
        or an arc of the boundary measure's lower_mass_arcs, comes within
        w/4 of it.
        """
        boxes = 1 << level
        w = TWO_PI / boxes
        deep = self._angles[self._radii >= 1.0 - math.pi * 2.0 ** -level]
        lo, hi = deep, deep
        if self.boundary is not None:
            blo, bhi = self.boundary.lower_mass_arcs(w)
            lo, hi = np.concatenate([lo, blo]), np.concatenate([hi, bhi])
        first = np.floor((lo - 0.25 * w) / w).astype(np.int64)
        count = np.minimum(np.floor((hi + 0.25 * w) / w).astype(np.int64) - first + 1,
                           boxes)
        k = np.unique(_ranges(first, count) % boxes)
        return np.stack([2 * k, 2 * k + 1], axis=1).ravel()

    def _squares_bounds(self, sq: SquareArrays) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) mu(Q) of every row of sq.

        The zeros tested against a square are those of its angle window
        [c - h - s, c + h + s] on the ring of sorted angles, two searchsorted
        calls per square: c its center, h its half-window and s = 2^-30
        (4 + |c|), a million times more than the rounding of the gap
        expression below and of the window's ends, both under 2^-48 (4 +
        |c|).  A window over more than a quarter turn each way, such as
        Q(0)'s, is the whole circle.  Each candidate takes the float test of
        the all-zeros mask, gap <= h and then radius >= base modulus, and a
        square's zero mass is math.fsum of its selected weights, which is
        exact and so does not depend on their order.
        """
        horizon = self.zeros.tail_blaschke_sum
        short = np.flatnonzero(~sq.whole_disc & (sq.side < horizon))
        if short.size:
            raise TailBoundInsufficient(
                "zeros_tail_blaschke_sum %g exceeds the square side %g"
                % (horizon, sq.side[short[0]]))
        total = np.zeros(len(sq.side))
        n = self._radii.size
        if n:
            reach = sq.half_window + 2.0 ** -30 * (4.0 + np.abs(sq.center_angle))
            start = np.mod(sq.center_angle - reach, TWO_PI)
            whole = ~(reach < 0.5 * math.pi)
            first = np.where(whole, 0, np.searchsorted(self._ring, start, "left"))
            last = np.where(whole, n, np.searchsorted(self._ring, start + 2.0 * reach, "right"))
            count = np.maximum(last - first, 0)
            for rows in _row_blocks(count):
                row = np.repeat(np.arange(rows.start, rows.stop), count[rows])
                zero = self._order[_ranges(first[rows], count[rows]) % n]
                gap = np.abs(np.mod(self._angles[zero] - sq.center_angle[row] + math.pi,
                                    TWO_PI) - math.pi)
                inside = (gap <= sq.half_window[row]) & (self._radii[zero] >= sq.base_modulus[row])
                weights = self._weights[zero[inside]].tolist()
                hit, at, size = np.unique(row[inside], return_index=True, return_counts=True)
                for k, a, m in zip(hit.tolist(), at.tolist(), size.tolist()):
                    total[k] = math.fsum(weights[a:a + m])
        # the unlisted zeros' weights sum to at most the declared tail
        if self.boundary is None:
            return (total, total + horizon)
        blo, bhi = self.boundary.mass_of_arc_bounds_many(
            sq.center_angle, sq.half_window, tol=MASS_TOL)
        return (total + blo, total + bhi + horizon)


class InnerFunction:
    """lambda * B * S with an attached mu measure and singular-set oracle."""

    def __init__(self, unimodular: complex = 1.0 + 0.0j,
                 blaschke: Optional[BlaschkeProduct] = None,
                 singular: Optional[SingularInner] = None):
        unimodular = complex(unimodular)
        if abs(abs(unimodular) - 1.0) > 1e-12:
            raise DomainError("leading constant must be unimodular")
        self.unimodular = unimodular
        self.blaschke = blaschke
        self.singular = singular

    @property
    def is_constant(self) -> bool:
        no_zeros = self.blaschke is None or (len(self.blaschke.zeros) == 0
                                             and self.blaschke.zeros.tail_blaschke_sum == 0.0)
        return no_zeros and self.singular is None

    def log_modulus(self, z: complex, tol: float = 1e-9) -> Interval:
        """Certified interval for log|Theta(z)|; (-inf, -inf) at a zero."""
        lo = hi = 0.0
        if self.blaschke is not None:
            part = self.blaschke.log_modulus(z, 0.5 * tol)
            if part.lo == -math.inf:
                return MINUS_INF_INTERVAL
            lo += part.lo
            hi += part.hi
        if self.singular is not None:
            part = self.singular.log_modulus(z, 0.5 * tol)
            lo += part.lo
            hi += part.hi
        return Interval(lo, hi)

    def modulus_bounds(self, z: complex, tol: float = 1e-9) -> Interval:
        """Certified bracket for |Theta(z)|, accurate at value scale.

        Part brackets are subsets of [0, 1], so their product has width at
        most the sum of the part widths.  A 1-D complex array z gives
        Interval(lower array, upper array), the parts' arrays multiplied,
        and a scalar is the one-point array; a failing array raises the
        per-point loop's error (_bounds).  With no part the bracket
        is (1.0, 1.0), or arrays of ones.
        """
        return _bounds(self, z, tol)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        lo = hi = np.ones(len(points))
        for part in (self.blaschke, self.singular):
            if part is not None:
                # the parts' kernels: a failing array is replayed by _bounds alone
                bounds = part._modulus_bounds_many(points, 0.5 * tol)
                lo, hi = lo * bounds.lo, hi * bounds.hi
        return Interval(lo, hi)

    def sector_bounds(self, centers: np.ndarray, half_widths: np.ndarray,
                      x_lo: np.ndarray, x_hi: np.ndarray, tol: float) -> np.ndarray:
        """Per arc (a row) and depth range (a column), an upper bound of
        -log|Theta| over the polar rectangle {x_lo <= 1 - |z| <= x_hi, arg z
        on the arc}: the parts' bounds summed, the singular part's within
        the relative tol of its quadrature; 0 with no part."""
        total = np.zeros((len(centers), len(x_lo)))
        if self.blaschke is not None:
            total += self.blaschke.sector_bounds(centers, half_widths, x_lo, x_hi)
        if self.singular is not None:
            total += self.singular.sigma.sector_bounds(centers, half_widths, x_lo, x_hi, tol)
        return total

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        val = self.unimodular
        if self.blaschke is not None:
            val *= self.blaschke.evaluate(z, 0.5 * tol)
        if self.singular is not None:
            val *= self.singular.evaluate(z, 0.5 * tol)
        return val

    def mu(self) -> MuMeasure:
        """The measure mu(Theta) of the zero sequence and sigma."""
        zeros = self.blaschke.zeros if self.blaschke is not None else ZeroSequence()
        boundary = self.singular.sigma if self.singular is not None else None
        return MuMeasure(zeros, boundary)

    def singular_set(self) -> BoundarySupport:
        """Declared singular set: zero accumulation plus supp sigma."""
        parts: list[BoundarySupport] = []
        if self.blaschke is not None:
            acc = self.blaschke.zeros.accumulation_angles
            if acc:
                parts.append(PointSupport.of([], accumulation=acc))
        if self.singular is not None:
            parts.append(self.singular.sigma.support())
        if not parts:
            return PointSupport.of([])
        if len(parts) == 1:
            return parts[0]
        return UnionSupport(tuple(parts))


class UnionSupport(BoundarySupport):
    """Union of closed boundary sets; distance brackets take minima."""

    def __init__(self, parts: tuple[BoundarySupport, ...]):
        self.parts = parts

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.parts)

    def angular_distance_to_arc(self, arc):
        lo = hi = math.inf
        for p in self.parts:
            a, b = p.angular_distance_to_arc(arc)
            lo = min(lo, a)
            hi = min(hi, b)
        return (lo, hi)


# ---------------------------------------------------------------------------
# Zero-sequence diagnostics
# ---------------------------------------------------------------------------

def separation_constants(zeros: ZeroSequence) -> tuple[float, float]:
    """(min pairwise rho, Carleson dyadic box constant) over the listed zeros.

    Both numbers are evidence computed on the listed zeros, not proofs
    for infinite families.  The box constant is the maximum over
    dyadic boxes Q_{n,k} (depths 2 up to the scale of the shallowest zero)
    of sum_{z_j in Q} (1 - |z_j|) / l(Q) with l(Q) the angular side.

    The minimum rho is first taken over neighbours only (_near_separation).
    Where that is not below 1/5, or no pair is near, a loop over every pair
    in row blocks takes it; either way it is that loop's minimum, bit for
    bit.
    """
    pts = zeros.as_array()
    if pts.size < 2:
        raise DomainError("separation needs at least two zeros")
    delta = _near_separation(pts)
    if not delta < 0.2:
        delta = math.inf
        chunk = max(1, BLOCK_ELEMENTS // pts.size)
        for i in range(0, pts.size, chunk):
            block = pts[i:i + chunk]
            d = np.abs(block[:, None] - pts[None, :]) / \
                np.abs(1.0 - np.conj(block)[:, None] * pts[None, :])
            local = i + np.arange(block.size)
            d[np.arange(block.size), local] = np.inf
            delta = min(delta, float(d.min()))

    moduli = np.abs(pts)
    weights = 1.0 - moduli
    min_gap = float(weights.min())
    if min_gap <= 0.0:
        raise DomainError("zeros must be interior")
    max_depth = max(2, math.ceil(math.log2(math.pi / min_gap)))
    angles = np.mod(np.angle(pts), 2.0 * math.pi)
    box_constant = 0.0
    for n in range(2, max_depth + 1):
        inner = 1.0 - math.pi * 2.0 ** -n
        sel = moduli >= inner
        if not np.any(sel):
            continue
        ks = np.floor(angles[sel] / (2.0 * math.pi * 2.0 ** -n)).astype(np.int64)
        ks = np.clip(ks, 0, (1 << n) - 1)
        # each box's weights added in zero order, over the occupied boxes
        # only: a deep zero's box number can pass 2^40
        sums = np.bincount(np.unique(ks, return_inverse=True)[1], weights[sel])
        side = 2.0 * math.pi * 2.0 ** -n
        box_constant = max(box_constant, float(sums.max()) / side)
    return (delta, box_constant)


def _near_separation(pts: np.ndarray) -> float:
    """min rho(z, w) over the pairs of zeros that can have a float rho below
    1/5, in both orders, by the all-pairs loop's float expression: inf if
    there is no such pair, nan if a pair gives nan.

    Lemma.  If rho = rho(z, w) < 1/5, then
        |z - w|^2 = rho^2 / (1 - rho^2) (1 - |z|^2) (1 - |w|^2),
    so the depths 1 - |z| and 1 - |w| are within a factor (1 + rho) / (1 -
    rho) < 3/2 of each other, and |z - w| <= 0.5 max depth.  Put z in level
    L, 2^-(L+1) < 1 - |z| <= 2^-L, and in the angle bin floor(2^(L+3) arg z
    / 2 pi) of width pi 2^-(L+2) > 0.78 2^-L; levels 0 and 1 have one bin.
    Then z and w lie in the same or adjacent levels, and in the shallower
    one's grid, where max depth <= 2^-L and |z|, |w| >= 3/4 (L >= 2), their
    angles differ by at most 2 asin(2^-L / 3) <= 0.668 2^-L: the same or
    adjacent bins, across the cut at 2 pi too.

    Rounding.  Where the larger depth is at least 2^-40, the float rho is
    rho within a relative 2^-9: 1 - conj(z) w errs by under 2^-50 and is at
    least 1 - |z| |w| >= max depth.  That keeps the factor under 2 and the
    angle under 0.67 2^-L, as it does with the float depths and angles,
    which err by under 2^-52 and 2^-48.  Levels from 40 on are one level,
    binned as 40: there a float rho below 1/5 gives |z - w| < 0.51 2^-40,
    from |1 - conj(z) w| <= 2 (1 - |z|) + |z - w|.  So every pair with a
    float rho below 1/5 is a candidate, and a candidate minimum below 1/5 is
    the minimum over all pairs.

    Each zero has a home entry (its level, its bin) and a neighbour entry
    (the level above, its bin there); each zero looks up its own bin and
    the two next to it at its level.  A pair found at one level is taken
    once (i < j), both orders evaluated.
    """
    mant, expo = np.frexp(1.0 - np.abs(pts))
    level = np.clip(np.where(mant == 0.5, 1 - expo, -expo), 0, 40).astype(np.int64)
    turns = np.mod(np.angle(pts), TWO_PI) / TWO_PI

    def bins(grid, t):
        n = np.where(grid >= 2, np.left_shift(1, grid + 3), 1)
        return np.floor(t * n).astype(np.int64) % n, n

    own = np.arange(pts.size)
    home, n = bins(level, turns)
    up = own[level >= 1]
    above, _ = bins(level[up] - 1, turns[up])
    owner = np.concatenate([own, up])
    key = np.concatenate([(level << 44) | home, ((level[up] - 1) << 44) | above])
    is_home = np.arange(owner.size) < pts.size
    order = np.argsort(key, kind="stable")
    key, owner, is_home = key[order], owner[order], is_home[order]

    delta = math.inf
    for step in (0, -1, 1):
        ask = own if step == 0 else own[n > 1]
        wanted = (level[ask] << 44) | ((home[ask] + step) % n[ask])
        first = np.searchsorted(key, wanted, "left")
        count = np.searchsorted(key, wanted, "right") - first
        for rows in _row_blocks(count):
            i = np.repeat(ask[rows], count[rows])
            at = _ranges(first[rows], count[rows])
            j = owner[at]
            keep = ~is_home[at] | (i < j)
            if keep.any():
                z, w = pts[i[keep]], pts[j[keep]]
                least = np.minimum((np.abs(z - w) / np.abs(1.0 - np.conj(z) * w)).min(),
                                   (np.abs(w - z) / np.abs(1.0 - np.conj(w) * z)).min())
                if least != least:
                    return math.nan
                delta = min(delta, float(least))
    return delta


# ---------------------------------------------------------------------------
# Zeros CSV interchange
# ---------------------------------------------------------------------------

def dump_zeros_csv(zeros: Sequence[complex]) -> str:
    lines = ["re,im"]
    for z in zeros:
        lines.append("%.17g,%.17g" % (z.real, z.imag))
    return "\n".join(lines) + "\n"


def load_zeros_csv(text: str) -> list[complex]:
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header.replace(" ", "") != "re,im":
        raise DomainError("zeros CSV must start with header 're,im'")
    out = []
    for lineno, line in enumerate(reader, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError("zeros CSV line %d: expected two fields" % lineno)
        try:
            out.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise DomainError("zeros CSV line %d: %s" % (lineno, exc)) from exc
    return out
