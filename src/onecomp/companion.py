"""Companion interpolating Blaschke product construction.

Given an inner function whose declared singular set is Lebesgue-null, build
the chain curve Gamma from a dyadic Whitney decomposition of the
complementary arcs: each arc I_n is lifted to the circle of radius r_n,
where r_n is the smallest dyadic grid radius 1 - 2^{-k} such that the
certified lower bound of |Theta| on a sampled sector {|z| >= r_n,
arg z in I_n} stays above 1 - eps_n, found by one upward walk over the
sector's radius bands, and consecutive arcs are joined by radial segments
at their shared endpoint angle.  Zeros are then marched
along Gamma at pseudohyperbolic steps of 1/10, starting from the curve
point of smallest modulus (ties to the smallest angle) and walking both
ways, so every interior zero has exactly two neighbors at pseudohyperbolic
distance 1/10 and the chain endpoints have one.

Verification of the result is numeric evidence on the placed prefix:
separation and Carleson box constants, criterion scans of B and of
B * Theta, and the spot check that every scanned point with certified
|B| > 12/21 has mu(B)(Q) = 0 exactly.  A point with mu(B)(Q) = 0 cannot
break that, so the spot check reads the points whose square holds a zero
of B, and their lower |B|, off the scan of B, which visits exactly those.

A radius walk that the declared zero tail stops, because |Theta| cannot be
certified that close to the circle, raises TailBoundInsufficient naming
zeros_tail_blaschke_sum; one stopped by sampled moduli raises
RadiusSearchExhausted.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .classify import ONE_COMPONENT, ClassificationReport, criterion_scan
from .errors import (CurveExhausted, DomainError, OnecompError, RadiusSearchExhausted,
                     TailBoundInsufficient)
from .geometry import TWO_PI, BoundaryArc, pseudo_distance, whitney_arcs
# not called here: bench/tracer.py counts carleson_square calls through this name
from .geometry import carleson_square  # noqa: F401
from .inner import BlaschkeProduct, InnerFunction, ZeroSequence, separation_constants

GRID_MAX_K = 50
STEP = 0.1                 # pseudohyperbolic distance between marched zeros
JOIN_TOL = 1e-9            # arcs whose endpoint angles differ less are joined
RHO_TOL = 1e-8             # march bisection stops this close to the step


@dataclass
class WhitneyChain:
    arcs: list[BoundaryArc]
    radii: list[float]
    epsilons: list[float]


@dataclass(frozen=True)
class CurvePiece:
    kind: str                    # "arc" or "radial"
    radius: float                # arc: circle radius; radial: start radius
    angle: float                 # arc: start angle; radial: fixed angle
    extent: float                # arc: angular extent (>0); radial: signed dr

    @property
    def length(self) -> float:
        if self.kind == "arc":
            return self.radius * self.extent
        return abs(self.extent)

    def point(self, s: float) -> complex:
        if self.kind == "arc":
            return self.radius * cmath.exp(1j * (self.angle + s / self.radius))
        r = self.radius + math.copysign(s, self.extent)
        return r * cmath.exp(1j * self.angle)


class GammaComponent:
    """One connected polyline of the curve, parametrized by arclength."""

    def __init__(self, pieces: list[CurvePiece], closed: bool = False):
        if not pieces:
            raise DomainError("empty curve component")
        self.pieces = pieces
        self.closed = closed
        self.offsets = [0.0]
        for p in pieces:
            self.offsets.append(self.offsets[-1] + p.length)

    @property
    def length(self) -> float:
        return self.offsets[-1]

    def point(self, s: float) -> complex:
        s = min(max(s, 0.0), self.length)
        lo = bisect.bisect_right(self.offsets, s, 0, len(self.pieces)) - 1
        return self.pieces[lo].point(s - self.offsets[lo])

    def min_modulus_param(self) -> float:
        """Arclength of the curve point with smallest |z|, ties to the
        smallest angle."""
        best = (math.inf, math.inf, 0.0)
        for piece, off in zip(self.pieces, self.offsets):
            if piece.kind == "arc":
                cand = (piece.radius, piece.angle, off)
            else:
                if piece.extent < 0:
                    cand = (piece.radius + piece.extent, piece.angle, off + piece.length)
                else:
                    cand = (piece.radius, piece.angle, off)
            if cand[:2] < best[:2]:
                best = cand
        return best[2]

    def covered_angle(self) -> float:
        return sum(p.extent for p in self.pieces if p.kind == "arc")


@dataclass
class GammaCurve:
    components: list[GammaComponent]

    def to_polyline_csv(self) -> str:
        lines = ["component,re,im"]
        for ci, comp in enumerate(self.components):
            for piece in comp.pieces:
                for j in range(24):
                    z = piece.point(piece.length * j / 23)
                    lines.append("%d,%.17g,%.17g" % (ci, z.real, z.imag))
        return "\n".join(lines) + "\n"


def choose_radii(theta: InnerFunction, arcs: Sequence[BoundaryArc]) -> WhitneyChain:
    """Smallest grid radius per arc with the certified modulus floor.

    Radius 1 - 2^{-k} passes for an arc I when the certified lower bound of
    |Theta| stays at or above 1 - eps, eps = min(1/2, |I|), on every sample
    of the sector {|z| >= 1 - 2^{-k}, arg z in I}: the four dyadic radius
    bands j = k .. k + 3 (below 52), each sampled at angular spacing
    comparable to 2^{-j}, at most 96 points.  The search walks upward from
    k = 1: it evaluates the bands of k shallow to deep and, at the first
    failing band j, continues from k = j + 1.  Every k' from k to j has band
    j in its window and fails, so the walk stops at the smallest passing k,
    evaluating each band at most once and assuming nothing about the order
    of passing and failing k.  A band's sample 0 is bracketed alone, and
    only if it passes are the band's other samples bracketed, by one array
    modulus_bounds call; if that call raises, they are bracketed again one
    at a time.  So a band fails at its first low or tail-failed sample in
    angle order, and the walk stops and raises exactly as a loop over the
    samples one at a time would.  A walk past 1 - 2^{-GRID_MAX_K} raises
    TailBoundInsufficient when its last failing band could not be certified
    for the declared zero tail, RadiusSearchExhausted otherwise.
    """
    radii: list[float] = []
    epsilons: list[float] = []
    for arc in arcs:
        eps = min(0.5, arc.length)
        tol = max(1e-12, eps * 1e-2)

        def failed_at(samples: list[complex]) -> Optional[bool]:
            # per point in order: None when every sample passes, otherwise
            # whether the zero tail (True) or a low sample (False) came first
            for z in samples:
                try:
                    if theta.modulus_bounds(z, tol).lo < 1.0 - eps:
                        return False
                except TailBoundInsufficient:
                    return True   # cannot certify this deep; not passing
            return None

        def first_failing_band(k: int) -> Optional[tuple[int, bool]]:
            # the first failing band, and whether the zero tail failed it
            for j in range(k, min(k + 4, 52)):
                r_band = 1.0 - 2.0 ** -j
                count = int(arc.length / 2.0 ** -j) + 2
                count = max(2, min(count, 96))

                def sample(i: int) -> complex:
                    return r_band * cmath.exp(1j * (arc.lo + arc.length * i / (count - 1)))

                # sample 0 alone decides most failing bands; building the
                # rest only once it passes keeps them off those bands
                failed = failed_at([sample(0)])
                if failed is None:
                    rest = [sample(i) for i in range(1, count)]
                    try:
                        lower = theta.modulus_bounds(np.array(rest), tol).lo
                    except OnecompError:
                        failed = failed_at(rest)
                    else:
                        failed = False if (lower < 1.0 - eps).any() else None
                if failed is not None:
                    return j, failed
            return None

        k = 1
        while (bad := first_failing_band(k)) is not None:
            j, tail_failed = bad
            k = j + 1
            if k > GRID_MAX_K:
                if tail_failed:
                    raise TailBoundInsufficient(
                        "zeros_tail_blaschke_sum %g is too large to certify the "
                        "1 - %g floor down to 1 - 2^-%d on arc at angle %g"
                        % (theta.blaschke.zeros.tail_blaschke_sum, eps, GRID_MAX_K,
                           arc.center_angle))
                raise RadiusSearchExhausted(
                    "no grid radius down to 1 - 2^-%d meets the 1 - %g floor on "
                    "arc at angle %g; singular set under-described?"
                    % (GRID_MAX_K, eps, arc.center_angle))
        radii.append(1.0 - 2.0 ** -k)
        epsilons.append(eps)
    return WhitneyChain(list(arcs), radii, epsilons)


def build_gamma(chain: WhitneyChain) -> GammaCurve:
    """Circular pieces at each arc's radius plus radial connectors.

    Arcs are taken in boundary order (the recorded convention: components
    are chained by increasing left endpoint).  Arc i starts a component
    unless arc i - 1 ends where arc i starts; for i = 0 that is the last arc,
    compared across 2*pi, so a gap in the decomposition (skipped arcs near
    the singular set) starts a component and each component runs to the
    next start, cyclically.  A chain with no start wraps the full circle and
    closes on itself.
    """
    arcs, n = chain.arcs, len(chain.arcs)
    if not n:
        raise DomainError("empty Whitney chain")
    starts = [i for i in range(n)
              if abs(arcs[i - 1].hi - (TWO_PI if i == 0 else 0.0) - arcs[i].lo) > JOIN_TOL]
    closed = not starts
    starts = starts or [0]
    groups = [[j % n for j in range(a, b)]
              for a, b in zip(starts, starts[1:] + [starts[0] + n])]

    components = []
    for group in groups:
        pieces: list[CurvePiece] = []
        for pos, i in enumerate(group):
            arc, r = arcs[i], chain.radii[i]
            lo = arc.lo
            if pos > 0:
                prev_hi, r_prev = arcs[group[pos - 1]].hi, chain.radii[group[pos - 1]]
                if r_prev != r:
                    # the shared endpoint angle; for a pair joined across the
                    # 2*pi wrap the previous hi is the same angle mod 2*pi
                    pieces.append(CurvePiece("radial", r_prev, prev_hi, r - r_prev))
                if abs(prev_hi - TWO_PI - lo) <= JOIN_TOL:
                    # keep the parameter contiguous across the 2*pi wrap
                    lo = prev_hi
            pieces.append(CurvePiece("arc", r, lo, arc.length))
        r_first, r_last = chain.radii[group[0]], chain.radii[group[-1]]
        if closed and r_first != r_last:
            pieces.append(CurvePiece("radial", r_last, arcs[group[-1]].hi, r_first - r_last))
        components.append(GammaComponent(pieces, closed=closed))
    components.sort(key=lambda c: (min(p.radius if p.kind == "arc"
                                       else min(p.radius, p.radius + p.extent)
                                       for p in c.pieces),
                                   min(p.angle for p in c.pieces)))
    return GammaCurve(components)


@dataclass
class Placement:
    zeros: list[complex]                 # chain order across components
    consecutive_rhos: list[float]        # per chain-adjacent pair
    covered_angle: float
    exhausted: bool                      # every component fully marched


def _march_next(comp: GammaComponent, t: float, origin: complex,
                direction: int) -> Optional[float]:
    """First parameter beyond t (in the given direction) at rho == STEP."""
    end = comp.length if direction > 0 else 0.0
    h = max(1e-15, 0.05 * (1.0 - abs(origin)))
    t1 = t
    while True:
        t2 = t1 + direction * h
        past_end = (t2 >= end) if direction > 0 else (t2 <= end)
        if past_end:
            t2 = end
        rho2 = pseudo_distance(comp.point(t2), origin)
        if rho2 >= STEP:
            break
        if past_end:
            return None
        t1 = t2
    lo, hi = (t1, t2) if direction > 0 else (t2, t1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rho = pseudo_distance(comp.point(mid), origin)
        if abs(rho - STEP) <= RHO_TOL:
            return mid
        if (rho < STEP) == (direction > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def place_zeros(gamma: GammaCurve, horizon: int = 2000) -> Placement:
    """March zeros along the curve at fixed pseudohyperbolic steps.

    Components are visited in order of their smallest modulus.  Each march
    starts at the component's minimum-modulus point z0 and keeps one
    frontier per direction; it always advances the live frontier of smaller
    modulus, so the placed prefix fills in roughly by increasing
    modulus.  A frontier dies at the end of the curve.  A closed component
    marches forward only: its backward frontier starts dead, and its forward
    frontier dies before coming within one step of z0.  A component whose
    march the horizon stops with a frontier alive counts as partly covered,
    in proportion to the arclength marched.
    """
    zeros: list[complex] = []
    rhos: list[float] = []
    covered = 0.0
    exhausted = True
    remaining = horizon
    for comp in gamma.components:
        if remaining <= 0:
            exhausted = False
            break
        t0 = comp.min_modulus_param()
        z0 = comp.point(t0)
        # per direction: parameter, last zero, zeros placed, alive
        t, last = {1: t0, -1: t0}, {1: z0, -1: z0}
        placed: dict[int, list[complex]] = {1: [], -1: []}
        alive = {1: True, -1: not comp.closed}
        while 1 + len(placed[1]) + len(placed[-1]) < remaining \
                and (alive[1] or alive[-1]):
            d = 1 if alive[1] and (not alive[-1] or abs(last[1]) <= abs(last[-1])) else -1
            nxt = _march_next(comp, t[d], last[d], d)
            cand = None if nxt is None else comp.point(nxt)
            if cand is None or (comp.closed and len(placed[d]) > 1
                                and pseudo_distance(cand, z0) < STEP - RHO_TOL):
                alive[d] = False
                continue
            t[d], last[d] = nxt, cand
            placed[d].append(cand)
        chain = placed[-1][::-1] + [z0] + placed[1]
        zeros.extend(chain)
        rhos.extend(pseudo_distance(a, b) for a, b in zip(chain, chain[1:]))
        remaining -= len(chain)
        if alive[1] or alive[-1]:
            exhausted = False
            covered += (t[1] - t[-1]) * 0.9 / max(comp.length, 1e-300) * comp.covered_angle()
        else:
            covered += comp.covered_angle()
    if not zeros:
        raise CurveExhausted("no zeros could be placed on the curve")
    return Placement(zeros, rhos, covered, exhausted)


@dataclass
class SpotCheck:
    points_checked: int              # scan points with positive mu mass
    violations: list[complex]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class CompanionResult:
    zeros: ZeroSequence
    gamma: GammaCurve
    chain: WhitneyChain
    placement: Placement
    separation_delta: float
    box_constant: float
    max_step_error: float
    report_b: ClassificationReport
    report_btheta: ClassificationReport
    spot_check: SpotCheck
    tail_blaschke_estimate: float
    metadata: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return (self.max_step_error < 1e-6
                and self.report_b.verdict == ONE_COMPONENT
                and self.report_btheta.verdict == ONE_COMPONENT
                and self.spot_check.passed)


def _spot_check_b(report_b: ClassificationReport) -> SpotCheck:
    """Scan points where |B| stays above 12/21 must carry no mu mass.

    Only the points whose square holds mu(B) mass can break this, and those
    are the points criterion_scan(B) visits, so the check reads their
    certified lower |B| off the scan's report.  B is a finite product: its
    lower end is exp of the log sum, or 0 when that is at most half the
    tolerance, so the test against 12/21 does not depend on the tolerance.
    """
    points, lower = report_b.visited
    return SpotCheck(len(points), points[lower > 12.0 / 21.0].tolist())


def construct_companion(theta: InnerFunction, horizon: int = 2000,
                        depth: int = 14,
                        cutoff: float = TWO_PI * 2.0 ** -14) -> CompanionResult:
    """Whitney arcs -> radii -> Gamma -> zeros -> numeric verification.

    The returned zero sequence is the horizon-truncated prefix, treated as
    an exact finite Blaschke product by the verification scans; the
    remaining chain is summarized by a conservative Blaschke-sum estimate
    (zeros per arc are bounded by |I| / (0.1 (1 - r)) going steps, so each
    unmarched arc contributes at most about 8 |I| to the sum).
    """
    arcs = list(whitney_arcs(theta.singular_set(), min_length=cutoff))
    chain = choose_radii(theta, arcs)
    gamma = build_gamma(chain)
    placement = place_zeros(gamma, horizon=horizon)

    zseq = ZeroSequence(placement.zeros)
    max_step_error = max((abs(r - STEP) for r in placement.consecutive_rhos),
                         default=0.0)
    delta, box_constant = separation_constants(zseq)

    companion = InnerFunction(blaschke=BlaschkeProduct(zseq))
    merged = list(placement.zeros)
    merged_tail = 0.0
    if theta.blaschke is not None:
        # B Theta's zeros: the placed ones, theta's listed ones and its tail
        merged.extend(theta.blaschke.zeros.zeros)
        merged_tail = theta.blaschke.zeros.tail_blaschke_sum
    product = InnerFunction(
        theta.unimodular,
        BlaschkeProduct(ZeroSequence(merged, tail_blaschke_sum=merged_tail)),
        theta.singular)

    report_b = criterion_scan(companion, depth)
    report_btheta = criterion_scan(product, depth)
    spot = _spot_check_b(report_b)

    tail_estimate = 8.0 * max(0.0, TWO_PI - placement.covered_angle)
    if placement.exhausted:
        tail_estimate = 8.0 * max(0.0, TWO_PI - sum(a.length for a in arcs))

    return CompanionResult(
        zeros=zseq, gamma=gamma, chain=chain, placement=placement,
        separation_delta=delta, box_constant=box_constant,
        max_step_error=max_step_error, report_b=report_b,
        report_btheta=report_btheta, spot_check=spot,
        tail_blaschke_estimate=tail_estimate,
        metadata={
            "horizon": horizon, "depth": depth, "step": STEP,
            "cutoff": cutoff,
            "connector_order": "components chained by increasing arc left "
                               "endpoint; gaps in the decomposition start "
                               "new components",
        })
