"""Blaschke products, singular inner functions, and their diagnostics.

Modulus computations route through log space: log|Theta(z)| is reported as a
certified interval combining the listed Blaschke factors, a rigorous bound
for the declared tail, and Poisson-integral brackets for the singular part.
A zero sequence is a finite list plus that tail.  The tail bound uses

    -sum_tail log rho <= sum_tail (1 - rho^2) / rho^2,
    1 - rho(z, w)^2 = (1-|z|^2)(1-|w|^2) / |1 - conj(w) z|^2
                    <= 4 (1-|w|) (1+|z|) / (1-|z|),

so at depth s = 1 - |z| a declared tail Blaschke sum T gives
-sum_tail log rho <= u/(1-u) with u = 4 T (2 - s)/s (for u < 1/2; otherwise
no bound is claimed).  A query whose tolerance this bound cannot meet
raises TailBoundInsufficient.  The radial-limit test in ``classify`` uses
the same bound at each depth of its grid.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (BlaschkeConditionError, DomainError, OnecompError,
                     TailBoundInsufficient)
from .geometry import (BLOCK_ELEMENTS, TWO_PI, BoundarySupport, PointSupport,
                       SquareArrays, carleson_squares, level_points)
from .measures import CdfMeasure, SingularMeasure


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
    """A finite zero list and a declared tail: the Blaschke sum of every
    zero not listed, 0 for a finite product."""

    def __init__(self, zeros: Sequence[complex] = (),
                 tail_blaschke_sum: float = 0.0,
                 accumulation_angles: Sequence[float] = ()):
        self._zeros: list[complex] = []
        for z in zeros:
            z = complex(z)
            if not abs(z) < 1.0:
                raise DomainError("zeros must lie in the open disc")
            self._zeros.append(z)
        if tail_blaschke_sum < 0.0:
            raise BlaschkeConditionError("tail Blaschke sum must be nonnegative")
        self._tail = float(tail_blaschke_sum)
        self.accumulation_angles = tuple(float(a) for a in accumulation_angles)
        self._arr = np.array(self._zeros, dtype=np.complex128)

    def materialize_count(self, count: int) -> None:
        """No-op: every zero is listed when the sequence is built."""

    @property
    def zeros(self) -> list[complex]:
        return list(self._zeros)

    @property
    def tail_blaschke_sum(self) -> float:
        return self._tail

    def __len__(self) -> int:
        return len(self._zeros)

    def as_array(self) -> np.ndarray:
        return self._arr


def blaschke_factor(w: complex, z: complex) -> complex:
    """Single factor |w|/w * (w - z)/(1 - conj(w) z); -z when w = 0."""
    if w == 0:
        return -z
    return (abs(w) / w) * (w - z) / (1.0 - w.conjugate() * z)


def _tail_neg_log_bound(tail: float, depth: float) -> float:
    """Upper bound for -sum_tail log rho(z, w) at 1 - |z| = depth, given
    sum_tail (1 - |w|) <= tail; inf when the bound is not informative."""
    if tail == 0.0:
        return 0.0
    u = 4.0 * tail * (2.0 - depth) / depth
    if u >= 0.5:
        return math.inf
    return u / (1.0 - u)


def _array_bounds(f, points: np.ndarray, tol: float) -> Interval:
    """f.modulus_bounds on a complex array: its batch kernel's answer.  When
    the kernel raises, f.modulus_bounds runs at each point in turn, so the
    error raised is the per-point loop's first; the kernel's own error is
    raised only if no point raises."""
    try:
        return f._modulus_bounds_many(points, tol)
    except OnecompError:
        for z in points.tolist():
            f.modulus_bounds(z, tol)
        raise


class BlaschkeProduct:
    """Blaschke product over a ZeroSequence."""

    def __init__(self, zeros: ZeroSequence | Sequence[complex]):
        if not isinstance(zeros, ZeroSequence):
            zeros = ZeroSequence(zeros)
        self.zeros = zeros

    def _ensure_tail(self, z_abs: float, budget: float) -> float:
        """The declared tail's bound at |z| = z_abs; raises when it exceeds
        the budget, naming the depth 1 - |z|, which %g keeps apart where it
        would round |z| to 1."""
        depth = 1.0 - z_abs
        bound = _tail_neg_log_bound(self.zeros.tail_blaschke_sum, depth)
        if bound > budget:
            raise TailBoundInsufficient(
                "certified tail %g exceeds budget %g at 1 - |z| = %g"
                % (bound, budget, depth))
        return bound

    def _log_sum(self, z: complex) -> float:
        """sum log|w - z| - log|1 - conj(w) z| over the listed zeros w;
        -inf when z is one of them."""
        arr = self.zeros.as_array()
        if arr.size == 0:
            return 0.0
        num = np.abs(arr - z)
        if not num.all():
            return -math.inf
        return float((np.log(num) - np.log(np.abs(1.0 - np.conj(arr) * z))).sum())

    def _log_sums(self, points: np.ndarray) -> np.ndarray:
        """_log_sum of every point of a complex array, bit for bit: a
        point x zero matrix in row blocks of about BLOCK_ELEMENTS, each row
        summed as _log_sum sums its vector; -inf in a row with a zero."""
        arr = self.zeros.as_array()
        sums = np.zeros(len(points))
        if arr.size == 0:
            return sums
        # 2-D: times a 1 x 1 block, a 1-D conj can miss _log_sum's bits
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
        tail_bound = self._ensure_tail(abs(z), 0.5 * tol)
        s = self._log_sum(z)
        if s == -math.inf:
            return MINUS_INF_INTERVAL
        return Interval(s - tail_bound, s)

    def modulus_bounds(self, z: complex, tol: float = 1e-9) -> Interval:
        """Certified bracket for |B(z)| at value scale.

        Cheaper than exp(log_modulus) when the listed product is already
        below tol: the tail only shrinks the modulus, so (0, exp(sum)) is
        certified without a tail bound.

        A 1-D complex array z gives Interval(lower array, upper array), each
        entry the bits of the per-point call: one _log_sums call, math.exp
        of each sum, and the tail bound and its budget as arrays.  A failing
        array raises the per-point loop's error (_array_bounds).
        """
        if isinstance(z, np.ndarray):
            return _array_bounds(self, z, tol)
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainError("modulus bounds require |z| < 1")
        return self._bracket(z, self._log_sum(z), tol)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        moduli = np.hypot(points.real, points.imag)  # abs()'s bits
        if not (moduli < 1.0).all():
            raise DomainError("modulus bounds require |z| < 1")
        sums = self._log_sums(points)
        # math.exp per entry: np.exp can differ in the last bit
        upper = np.array(list(map(math.exp, sums.tolist())))
        tail, depth = self.zeros.tail_blaschke_sum, 1.0 - moduli
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # _tail_neg_log_bound and _bracket's tests, entry by entry
            bound = np.zeros(len(depth))
            if tail != 0.0:
                u = 4.0 * tail * (2.0 - depth) / depth
                bound = np.where(u >= 0.5, math.inf, u / (1.0 - u))
            small = (sums == -math.inf) | (upper <= 0.5 * tol)
            met = bound <= np.maximum(1e-15, 0.5 * tol / upper)
        if not (small | met).all():
            raise TailBoundInsufficient("certified tail exceeds a point's budget")
        if tail == 0.0:     # every bound is 0, so exp(sums - 0) is upper
            lower = upper.copy()
        else:
            lower = np.array(list(map(math.exp, (sums - bound).tolist())))
        lower[small] = 0.0
        return Interval(lower, upper)

    def _bracket(self, z: complex, s: float, tol: float) -> Interval:
        """modulus_bounds from the log sum s over the listed zeros."""
        upper = math.exp(s)
        if s == -math.inf or upper <= 0.5 * tol:
            return Interval(0.0, upper)
        # value-scale budget: a log-width d gives value width <= upper * d
        log_budget = max(1e-15, 0.5 * tol / upper)
        tail_bound = self._ensure_tail(abs(z), log_budget)
        return Interval(math.exp(s - tail_bound), upper)

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
        else:
            self._ensure_tail(abs(z), 0.5 * tol)
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

        A 1-D complex array z gives Interval(lower array, upper array), each
        entry the bits of the per-point call.  The coarse pass is one
        poisson_bounds_many call and math.exp of each end; the fine pass
        runs point by point, in index order, only where the coarse bracket
        is wider than tol.  A failing array raises the per-point loop's
        error (_array_bounds).
        """
        if isinstance(z, np.ndarray):
            return _array_bounds(self, z, tol)
        plo, phi = self.sigma.poisson_bounds(z, tol=0.25)
        return self._refine(z, plo, phi, tol)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        plo, phi = self.sigma.poisson_bounds_many(points, 0.25)
        # math.exp per entry: np.exp can differ in the last bit
        lower = np.array(list(map(math.exp, (-phi).tolist())))
        upper = np.array(list(map(math.exp, (-plo).tolist())))
        # _refine's width test; a NaN width fails it there too
        for i in np.flatnonzero(~(upper - lower <= tol)).tolist():
            lower[i], upper[i] = self._refine(complex(points[i]), float(plo[i]),
                                              float(phi[i]), tol)
        return Interval(lower, upper)

    def _refine(self, z: complex, plo: float, phi: float, tol: float) -> Interval:
        """modulus_bounds from the coarse Poisson bracket (plo, phi)."""
        lo, hi = math.exp(-phi), math.exp(-plo)
        if hi - lo <= tol:
            return Interval(lo, hi)
        log_tol = max(1e-14, 0.5 * tol * math.exp(min(plo, 60.0)))
        plo, phi = self.sigma.poisson_bounds(z, tol=min(0.25, log_tol))
        return Interval(math.exp(-phi), math.exp(-plo))

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        return cmath.exp(self.sigma.herglotz_integral(z, tol))


@dataclass
class MuMeasure:
    """Zero masses (1-|z_n|) delta_{z_n} plus the boundary singular part.

    Zero radii, angles in [0, 2 pi) and weights are stored as arrays once.
    A square query masks the zeros within the square's angular half-window
    of its center and at or above its base modulus, and sums their weights
    exactly with math.fsum.  A square smaller than the declared zero tail,
    which may hide unlisted zeros of that depth, raises instead of
    silently undercounting.
    Many squares, such as every level of a scan, are answered by one
    batched call; a single square is a one-row batch.  The boundary part's
    masses are bracketed to MASS_TOL.
    """

    zero_atoms: list[tuple[complex, float]]
    boundary: Optional[SingularMeasure]
    horizon: float = 0.0

    def __post_init__(self):
        zs = np.array([z for z, _ in self.zero_atoms], dtype=np.complex128)
        self._radii = np.abs(zs)
        self._angles = np.mod(np.angle(zs), TWO_PI)
        self._weights = np.array([wt for _, wt in self.zero_atoms], dtype=np.float64)

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
        # the box ranges [first, first + count) as one index array
        k = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        k = np.unique(k % boxes)
        return np.stack([2 * k, 2 * k + 1], axis=1).ravel()

    def _squares_bounds(self, sq: SquareArrays) -> tuple[np.ndarray, np.ndarray]:
        short = np.flatnonzero(~sq.whole_disc & (sq.side < self.horizon))
        if short.size:
            raise TailBoundInsufficient(
                "zeros_tail_blaschke_sum %g exceeds the square side %g"
                % (self.horizon, sq.side[short[0]]))
        total = np.zeros(len(sq.side))
        # a zero below every square's base modulus is in none of them
        keep = self._radii >= sq.base_modulus.min(initial=math.inf)
        if keep.any():
            radii, angles = self._radii[keep], self._angles[keep]
            weights = self._weights[keep]
            step = max(1, BLOCK_ELEMENTS // radii.size)
            for s in range(0, len(sq.side), step):
                rows = slice(s, s + step)
                gap = np.abs(np.mod(angles - sq.center_angle[rows, None] + math.pi,
                                    TWO_PI) - math.pi)
                inside = ((gap <= sq.half_window[rows, None])
                          & (radii >= sq.base_modulus[rows, None]))
                for i in np.flatnonzero(inside.any(axis=1)).tolist():
                    total[s + i] = math.fsum(weights[inside[i]].tolist())
        # the unlisted zeros' weights sum to at most the declared tail
        if self.boundary is None:
            return (total, total + self.horizon)
        blo, bhi = self.boundary.mass_of_arc_bounds_many(
            sq.center_angle, sq.half_window, tol=MASS_TOL)
        return (total + blo, total + bhi + self.horizon)


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
        Interval(lower array, upper array), the parts' arrays multiplied
        as the per-point call multiplies, and a failing array raises the
        per-point loop's error (_array_bounds); with no part the bracket is
        (1.0, 1.0), or arrays of ones.
        """
        if isinstance(z, np.ndarray):
            return _array_bounds(self, z, tol)
        lo = hi = 1.0
        if self.blaschke is not None:
            part = self.blaschke.modulus_bounds(z, 0.5 * tol)
            lo, hi = lo * part.lo, hi * part.hi
        if self.singular is not None:
            part = self.singular.modulus_bounds(z, 0.5 * tol)
            lo, hi = lo * part.lo, hi * part.hi
        return Interval(lo, hi)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        lo = hi = np.ones(len(points))
        for part in (self.blaschke, self.singular):
            if part is not None:
                # the parts' kernels: only our caller, _array_bounds, replays a failure
                bounds = part._modulus_bounds_many(points, 0.5 * tol)
                lo, hi = lo * bounds.lo, hi * bounds.hi
        return Interval(lo, hi)

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        val = self.unimodular
        if self.blaschke is not None:
            val *= self.blaschke.evaluate(z, 0.5 * tol)
        if self.singular is not None:
            val *= self.singular.evaluate(z, 0.5 * tol)
        return val

    def mu(self) -> MuMeasure:
        """The measure mu(Theta); its horizon is the declared zero tail,
        which bounds 1 - |z| of every unlisted zero."""
        atoms: list[tuple[complex, float]] = []
        horizon = 0.0
        if self.blaschke is not None:
            zs = self.blaschke.zeros
            atoms = [(z, 1.0 - abs(z)) for z in zs.zeros]
            horizon = zs.tail_blaschke_sum
        boundary = self.singular.sigma if self.singular is not None else None
        return MuMeasure(atoms, boundary, horizon)

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
    """
    pts = np.array(zeros.zeros, dtype=np.complex128)
    if pts.size < 2:
        raise DomainError("separation needs at least two zeros")
    delta = math.inf
    chunk = max(1, BLOCK_ELEMENTS // pts.size)
    for i in range(0, pts.size, chunk):
        block = pts[i:i + chunk]
        d = np.abs(block[:, None] - pts[None, :]) / \
            np.abs(1.0 - np.conj(block)[:, None] * pts[None, :])
        local = i + np.arange(block.size)
        d[np.arange(block.size), local] = np.inf
        delta = min(delta, float(d.min()))

    weights = 1.0 - np.abs(pts)
    min_gap = float(weights.min())
    if min_gap <= 0.0:
        raise DomainError("zeros must be interior")
    max_depth = max(2, math.ceil(math.log2(math.pi / min_gap)))
    angles = np.mod(np.angle(pts), 2.0 * math.pi)
    box_constant = 0.0
    for n in range(2, max_depth + 1):
        inner = 1.0 - math.pi * 2.0 ** -n
        sel = np.abs(pts) >= inner
        if not np.any(sel):
            continue
        ks = np.floor(angles[sel] / (2.0 * math.pi * 2.0 ** -n)).astype(np.int64)
        ks = np.clip(ks, 0, (1 << n) - 1)
        # each box's weights added in zero order, over the occupied boxes
        # only: a deep zero's box number can pass 2^40
        sums = np.bincount(np.searchsorted(np.unique(ks), ks), weights[sel])
        side = 2.0 * math.pi * 2.0 ** -n
        box_constant = max(box_constant, float(sums.max()) / side)
    return (delta, box_constant)


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
