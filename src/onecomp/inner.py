"""Blaschke products, singular inner functions, and their diagnostics.

Modulus computations route through log space: log|Theta(z)| is reported as a
certified interval combining the materialized Blaschke factors, a rigorous
bound for the truncated tail, and Poisson-integral brackets for the singular
part.  The tail bound uses

    -sum_tail log rho <= sum_tail (1 - rho^2) / rho^2,
    1 - rho(z, w)^2 = (1-|z|^2)(1-|w|^2) / |1 - conj(w) z|^2
                    <= 4 (1-|w|) (1+|z|) / (1-|z|),

so at depth s = 1 - |z| a declared tail Blaschke sum T gives
-sum_tail log rho <= u/(1-u) with u = 4 T (2 - s)/s (for u < 1/2; otherwise
no bound is claimed).  The zero generator is consumed until this is below
half the requested tolerance.  The radial-limit test in ``classify`` uses
the same bound at each depth of its grid.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (BlaschkeConditionError, DomainError, HorizonExceeded,
                     TailBoundInsufficient)
from .geometry import (BLOCK_ELEMENTS, TWO_PI, BoundarySupport, CarlesonSquare,
                       PointSupport, SquareArrays, carleson_squares, level_points)
from .measures import SingularMeasure


class Interval(NamedTuple):
    """Closed interval [lo, hi] certifying a real quantity."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


MINUS_INF_INTERVAL = Interval(-math.inf, -math.inf)


class ZeroSequence:
    """Zero list with an optional generator and a certified tail budget.

    The generator yields ``(zero, tail_after)`` pairs where ``tail_after``
    bounds the Blaschke sum of everything still to come.  Materializing a
    zero must fit the declared budget: (1 - |z|) + tail_after may not exceed
    the previous tail bound, which makes silently divergent sequences
    impossible to construct.
    """

    def __init__(self, zeros: Sequence[complex] = (),
                 generator: Optional[Iterator[tuple[complex, float]]] = None,
                 tail_blaschke_sum: float = 0.0,
                 ordered_by_modulus: bool = False,
                 accumulation_angles: Sequence[float] = ()):
        self._zeros: list[complex] = []
        for z in zeros:
            z = complex(z)
            if not abs(z) < 1.0:
                raise DomainError("zeros must lie in the open disc")
            self._zeros.append(z)
        if tail_blaschke_sum < 0.0:
            raise BlaschkeConditionError("tail Blaschke sum must be nonnegative")
        self._gen = generator
        self._tail = float(tail_blaschke_sum)
        self.ordered_by_modulus = bool(ordered_by_modulus)
        self.accumulation_angles = tuple(float(a) for a in accumulation_angles)
        self._arr: Optional[np.ndarray] = None

    # -- materialization --

    def _consume_one(self) -> bool:
        if self._gen is None:
            return False
        try:
            z, tail_after = next(self._gen)
        except StopIteration:
            self._gen = None
            return False
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainError("generated zero leaves the open disc")
        if tail_after < 0.0:
            raise BlaschkeConditionError("tail bound went negative")
        if (1.0 - abs(z)) + tail_after > self._tail + 1e-12 * (1.0 + self._tail):
            raise BlaschkeConditionError(
                "zero generator exceeds its declared Blaschke budget: "
                "(1-|z|) + tail_after = %g > %g"
                % ((1.0 - abs(z)) + tail_after, self._tail))
        if self.ordered_by_modulus and self._zeros and abs(z) < abs(self._zeros[-1]) - 1e-15:
            raise DomainError("generator declared ordered_by_modulus emitted a closer zero")
        self._zeros.append(z)
        self._tail = float(tail_after)
        self._arr = None
        return True

    def materialize_count(self, count: int) -> None:
        while len(self._zeros) < count and self._consume_one():
            pass

    def materialize_until_depth(self, depth: float) -> None:
        """Consume until every unlisted zero satisfies 1 - |z| <= depth.

        Requires modulus ordering, since only then does the last listed zero
        bound everything still to come.
        """
        if self._gen is not None and not self.ordered_by_modulus:
            raise DomainError("depth materialization needs ordered_by_modulus")
        while self._gen is not None:
            if self._zeros and 1.0 - abs(self._zeros[-1]) <= depth:
                break
            if not self._consume_one():
                break

    # -- views --

    @property
    def zeros(self) -> list[complex]:
        return list(self._zeros)

    @property
    def tail_blaschke_sum(self) -> float:
        return self._tail

    @property
    def exhausted(self) -> bool:
        return self._gen is None

    def __len__(self) -> int:
        return len(self._zeros)

    def as_array(self) -> np.ndarray:
        if self._arr is None or len(self._arr) != len(self._zeros):
            self._arr = np.array(self._zeros, dtype=np.complex128)
        return self._arr

    def materialization_horizon(self) -> float:
        """Upper bound on 1 - |z| over unlisted zeros (0 when complete)."""
        if self._gen is None and self._tail == 0.0:
            return 0.0
        if self._gen is None:
            return self._tail  # tail sum also bounds each term
        if not self.ordered_by_modulus:
            return math.inf
        if not self._zeros:
            return min(1.0, self._tail) if self._tail else 1.0
        return min(1.0 - abs(self._zeros[-1]), self._tail if self._tail else math.inf)


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


class BlaschkeProduct:
    """Blaschke product over a ZeroSequence."""

    def __init__(self, zeros: ZeroSequence | Sequence[complex]):
        if not isinstance(zeros, ZeroSequence):
            zeros = ZeroSequence(zeros)
        self.zeros = zeros

    def _ensure_tail(self, z_abs: float, budget: float) -> float:
        zs = self.zeros
        while True:
            bound = _tail_neg_log_bound(zs.tail_blaschke_sum, 1.0 - z_abs)
            if bound <= budget:
                return bound
            if zs.exhausted:
                raise TailBoundInsufficient(
                    "certified tail %g exceeds budget %g at |z| = %g"
                    % (bound, budget, z_abs))
            zs.materialize_count(len(zs) + 16)

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

        Cheaper than exp(log_modulus) when the materialized product is
        already below tol: the unmaterialized tail only shrinks the modulus,
        so (0, exp(sum)) is certified without consuming the generator.

        A 1-D complex array z gives Interval(lower array, upper array), each
        entry the bits of the per-point call, with the zeros listed in the
        same order.  Its log sums come from one _log_sums call; when
        certifying a point's tail lists more zeros, the sums of the rest of
        the array are recomputed.
        """
        if isinstance(z, np.ndarray):
            return self._modulus_bounds_many(z, tol)
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainError("modulus bounds require |z| < 1")
        return self._bracket(abs(z), self._log_sum(z), tol, lambda: self._log_sum(z))

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        moduli = [abs(z) for z in points.tolist()]
        if not all(m < 1.0 for m in moduli):
            raise DomainError("modulus bounds require |z| < 1")
        sums, start = self._log_sums(points).tolist(), 0
        lower, upper = np.empty(len(moduli)), np.empty(len(moduli))

        def resum() -> float:
            nonlocal sums, start
            sums, start = self._log_sums(points[i:]).tolist(), i
            return sums[0]

        for i, z_abs in enumerate(moduli):
            lower[i], upper[i] = self._bracket(z_abs, sums[i - start], tol, resum)
        return Interval(lower, upper)

    def _bracket(self, z_abs: float, s: float, tol: float,
                 resum: Callable[[], float]) -> Interval:
        """modulus_bounds from the log sum s over the listed zeros; resum
        gives the sum again after certifying the tail listed more zeros."""
        upper = math.exp(s)
        if s == -math.inf or upper <= 0.5 * tol:
            return Interval(0.0, upper)
        # value-scale budget: a log-width d gives value width <= upper * d
        log_budget = max(1e-15, 0.5 * tol / upper)
        listed = len(self.zeros)
        tail_bound = self._ensure_tail(z_abs, log_budget)
        if len(self.zeros) > listed:
            s = resum()
        return Interval(math.exp(s - tail_bound), math.exp(s))

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        """Value of the materialized (tol-truncated) product.

        Interior points always work; closed-disc points (|z| = 1) are
        admitted for fully materialized finite products, where the formula
        extends analytically.
        """
        z = complex(z)
        if not abs(z) < 1.0:
            if not (self.zeros.exhausted and self.zeros.tail_blaschke_sum == 0.0
                    and abs(z) <= 1.0 + 1e-12):
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
        self.sigma = sigma

    def log_modulus(self, z: complex, tol: float = 1e-9) -> Interval:
        plo, phi = self.sigma.poisson_bounds(z, tol)
        return Interval(-phi, -plo)

    def modulus_bounds(self, z: complex, tol: float = 1e-9) -> Interval:
        """Certified bracket for |S(z)| = exp(-P[sigma](z)) at value scale.

        A coarse Poisson pass decides how much log-scale accuracy the value
        actually needs: when P is large, |S| is already pinned near 0.

        A 1-D complex array z gives Interval(lower array, upper array), each
        entry the bits of the per-point call, with the atoms listed in the
        same order.  The coarse pass is one poisson_bounds_many call; the
        fine pass runs point by point where the coarse bracket is wider
        than tol.  When a fine pass lists more atoms, the coarse brackets of
        the rest of the array are asked again, and a point that
        poisson_bounds_many leaves out is taken alone.
        """
        if isinstance(z, np.ndarray):
            return self._modulus_bounds_many(z, tol)
        plo, phi = self.sigma.poisson_bounds(z, tol=0.25)
        return self._refine(z, plo, phi, tol)

    def _modulus_bounds_many(self, points: np.ndarray, tol: float) -> Interval:
        lower, upper = np.empty(len(points)), np.empty(len(points))
        i = 0
        while i < len(points):
            atoms = self.sigma.atom_count
            lo, hi = self.sigma.poisson_bounds_many(points[i:], 0.25)
            coarse = list(zip(lo.tolist(), hi.tolist()))
            if not coarse:
                # its coarse pass lists atoms or fails: the point goes alone
                coarse = [self.sigma.poisson_bounds(complex(points[i]), tol=0.25)]
            for plo, phi in coarse:
                lower[i], upper[i] = self._refine(complex(points[i]), plo, phi, tol)
                i += 1
                if self.sigma.atom_count != atoms:
                    break
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
    exactly with math.fsum.  Queries finer than the recorded
    materialization horizon raise instead of silently undercounting.
    Many squares, such as one scan level's, are answered by one batched
    call; a single square is a one-row batch.
    """

    zero_atoms: list[tuple[complex, float]]
    boundary: Optional[SingularMeasure]
    horizon: float = 0.0

    def __post_init__(self):
        zs = np.array([z for z, _ in self.zero_atoms], dtype=np.complex128)
        self._radii = np.abs(zs)
        self._angles = np.mod(np.angle(zs), TWO_PI)
        self._weights = np.array([wt for _, wt in self.zero_atoms], dtype=np.float64)

    def of_square_bounds(self, square: CarlesonSquare,
                         tol: float = 1e-12) -> tuple[float, float]:
        lo, hi = self._squares_bounds(SquareArrays.of(square), tol)
        return (float(lo[0]), float(hi[0]))

    def lower_masses(self, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Lower ends of of_square_bounds(carleson_square(z), tol) for every
        point z of a complex array, bit for bit, in blocks of points."""
        lower = np.empty(len(points))
        for s in range(0, len(points), BLOCK_ELEMENTS):
            block = points[s:s + BLOCK_ELEMENTS]
            lower[s:s + len(block)] = self._squares_bounds(carleson_squares(block), tol)[0]
        return lower

    def positive_squares(self, level: int,
                         tol: float = 1e-12) -> Iterator[tuple[complex, float]]:
        """(point, lower mass) of the scan points of a level (level_points)
        whose Carleson square has certifiably positive mass, in point order.

        Only the points next to listed mass (_live_points) are built and
        queried, and point 0, whose square stands for the level's side in
        the horizon check.  The caller may evaluate Theta between items,
        and that can list more boundary atoms; the remaining points are then
        chosen and queried again, so each mass equals a query made at that
        moment.
        """
        start = 0
        while True:
            atoms = self.boundary.atom_count if self.boundary is not None else 0
            index = self._live_points(level)
            index = index[index >= start] if start else np.union1d(index, [0])
            points = level_points(level, index)
            lower = self.lower_masses(points, tol)
            for i in np.flatnonzero(lower > 0.0).tolist():
                yield complex(points[i]), float(lower[i])
                if self.boundary is not None and self.boundary.atom_count != atoms:
                    start = int(index[i]) + 1
                    break
            else:
                return

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

    def _squares_bounds(self, sq: SquareArrays,
                        tol: float) -> tuple[np.ndarray, np.ndarray]:
        short = np.flatnonzero(~sq.whole_disc & (sq.side < self.horizon))
        if short.size:
            raise HorizonExceeded(
                "square side %g below materialization horizon %g"
                % (sq.side[short[0]], self.horizon))
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
        if self.boundary is None:
            return (total, total)
        blo, bhi = self.boundary.mass_of_arc_bounds_many(
            sq.center_angle, sq.half_window, closed_ends=True, tol=tol)
        return (total + blo, total + bhi)


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
                                             and self.blaschke.zeros.exhausted
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
        Interval(lower array, upper array), as the parts do; with no part
        the bracket stays (1.0, 1.0).
        """
        lo = hi = 1.0
        if self.blaschke is not None:
            part = self.blaschke.modulus_bounds(z, 0.5 * tol)
            lo *= part.lo
            hi *= part.hi
        if self.singular is not None:
            part = self.singular.modulus_bounds(z, 0.5 * tol)
            lo *= part.lo
            hi *= part.hi
        return Interval(lo, hi)

    def evaluate(self, z: complex, tol: float = 1e-9) -> complex:
        val = self.unimodular
        if self.blaschke is not None:
            val *= self.blaschke.evaluate(z, 0.5 * tol)
        if self.singular is not None:
            val *= self.singular.evaluate(z, 0.5 * tol)
        return val

    def mu(self, min_side: float = 0.0) -> MuMeasure:
        """The measure mu(Theta), materialized so that every zero with
        1 - |z| >= min_side is listed."""
        atoms: list[tuple[complex, float]] = []
        horizon = 0.0
        if self.blaschke is not None:
            zs = self.blaschke.zeros
            if min_side > 0.0:
                zs.materialize_until_depth(min_side)
            atoms = [(z, 1.0 - abs(z)) for z in zs.zeros]
            horizon = zs.materialization_horizon()
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

    def covers_circle(self) -> bool:
        return any(p.covers_circle() for p in self.parts)

    def described_length(self) -> float:
        return sum(p.described_length() for p in self.parts)

    def angular_distance_to_arc(self, arc):
        lo = hi = math.inf
        for p in self.parts:
            a, b = p.angular_distance_to_arc(arc)
            lo = min(lo, a)
            hi = min(hi, b)
        return (lo, hi)

    def chord_distance_to_point(self, p, tol: float = 1e-12):
        lo = hi = math.inf
        for part in self.parts:
            a, b = part.chord_distance_to_point(p, tol)
            lo = min(lo, a)
            hi = min(hi, b)
        return (lo, hi)

    def cover_arcs(self, scale):
        out = []
        for p in self.parts:
            out.extend(p.cover_arcs(scale))
        return out


# ---------------------------------------------------------------------------
# Zero-sequence diagnostics
# ---------------------------------------------------------------------------

def separation_constants(zeros: ZeroSequence, horizon: int) -> tuple[float, float]:
    """(min pairwise rho, Carleson dyadic box constant) over a finite prefix.

    Both numbers are evidence computed on the materialized prefix, not
    proofs for infinite families.  The box constant is the maximum over
    dyadic boxes Q_{n,k} (depths 2 up to the scale of the shallowest zero)
    of sum_{z_j in Q} (1 - |z_j|) / l(Q) with l(Q) the angular side.
    """
    zeros.materialize_count(horizon)
    pts = np.array(zeros.zeros[:horizon], dtype=np.complex128)
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
        sums: dict[int, float] = {}
        for k, wt in zip(ks, weights[sel]):
            sums[int(k)] = sums.get(int(k), 0.0) + float(wt)
        side = 2.0 * math.pi * 2.0 ** -n
        box_constant = max(box_constant, max(sums.values()) / side)
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
