"""Companion interpolating Blaschke product construction.

Given an inner function whose declared singular set is Lebesgue-null, build
the chain curve Gamma from a dyadic Whitney decomposition of the
complementary arcs: each arc I_n is lifted to the circle of radius r_n,
where r_n is the smallest dyadic grid radius 1 - 2^{-k} such that |Theta|
>= 1 - eps_n is certified on the whole region {2^{-(k+3)} <= 1 - |z| <=
2^{-k}, arg z in I_n} by an upper bound of -log|Theta| over it
(sector_bounds), and consecutive arcs are joined by radial segments at
their shared endpoint angle.  Zeros are then marched
along Gamma at pseudohyperbolic steps of 1/10, starting from the curve
point of smallest modulus (ties to the smallest angle) and walking both
ways, so every interior zero has exactly two neighbors at pseudohyperbolic
distance 1/10 and the chain endpoints have one.  The march evaluates rho
only where a fence cannot decide a step's test, and places the zeros that
evaluating every point places, bit for bit.

Verification of the result is numeric evidence on the placed prefix:
separation and Carleson box constants, criterion scans of B and of
B * Theta, and the spot check that every scanned point with certified
|B| > 12/21 has mu(B)(Q) = 0 exactly.  A point with mu(B)(Q) = 0 cannot
break that, so the spot check reads the points whose square holds a zero
of B, and their lower |B|, off the scan of B, which visits exactly those.

A radius walk that the declared zero tail stops, because |Theta| cannot be
certified that close to the circle, raises TailBoundInsufficient naming
zeros_tail_blaschke_sum; one stopped by low regions raises
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
from .errors import (CurveExhausted, DomainError, RadiusSearchExhausted,
                     TailBoundInsufficient)
from .geometry import TWO_PI, BoundaryArc, pseudo_distance, whitney_arcs
# not called here: bench/tracer.py counts carleson_square calls through this name
from .geometry import carleson_square  # noqa: F401
from .inner import (BlaschkeProduct, InnerFunction, ZeroSequence, _tail_neg_log_bound,
                    separation_constants)

GRID_MAX_K = 50
SPLITS = 6                 # halvings of a failing sector (_passing_k)
SECTOR_TOL = 1e-3          # relative tolerance of a quadrature's sector bound
STEP = 0.1                 # pseudohyperbolic distance between marched zeros
JOIN_TOL = 1e-9            # arcs whose endpoint angles differ less are joined
RHO_TOL = 1e-8             # march bisection stops this close to the step
RHO_ERR = 128 * 2.0 ** -53  # over 1 - |o|: error of a float rho from o (_march_next)


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


def _passing_k(theta: InnerFunction, arc: BoundaryArc, floor: float,
               ks: np.ndarray) -> Optional[int]:
    """The smallest k of ks whose region {2^{-(k+3)} <= 1 - |z| <= 2^{-k},
    arg z in the arc} has |Theta| >= floor certified, or None.

    A region passes when exp(-b) >= floor, lowered past exp's 4 ulp, for b
    the sector_bounds bound of the arc, or of each of the pieces it is
    halved into.  A bound adds up each term's sup, each taken at the
    piece's end nearest that term's pole, so poles on both sides of a piece,
    or inside it, overstate it.  So a failing k before the first passing
    one is bounded again on the halves of its failing pieces, up to SPLITS
    times, while the ends of every piece, bounded as pieces of no width,
    pass and every piece's bound is at most twice -log(floor).  A failing
    end cannot pass on any halving.  A larger bound is no overstatement
    either: when every pole is at least the arc's length away, as for a
    Whitney arc, each term at either end of the arc is at least a quarter
    of its sup, so the piece holds a point past the floor.
    """
    if not ks.size:
        return None
    x_lo, x_hi = 2.0 ** -(ks + 3.0), 2.0 ** -ks
    centers, half_widths = np.array([arc.center_angle]), np.array([arc.half_width])
    first, open_ = len(ks), np.arange(len(ks))
    for level in range(SPLITS + 1):
        # each piece, then each piece's two ends as pieces of no width
        n = len(centers)
        rows = theta.sector_bounds(np.concatenate([centers, centers - half_widths,
                                                   centers + half_widths]),
                                   np.concatenate([half_widths, np.zeros(2 * n)]),
                                   x_lo[open_], x_hi[open_], SECTOR_TOL)
        low = ~(np.exp(-rows) * (1.0 - 2.0 ** -50) >= floor)
        passed = open_[~low[:n].any(axis=0)]
        first = min(first, passed[0]) if passed.size else first
        keep = (low[:n].any(axis=0) & ~low[n:].any(axis=0) & (open_ < first)
                & (rows[:n].max(axis=0) <= -2.0 * math.log(floor)))
        if level == SPLITS or not keep.any():
            break
        # halve the pieces that fail a k still open; the halves' ends stray
        # from the piece's by rounding, far less than SECTOR_SLACK
        split = low[:n, keep].any(axis=1)
        open_ = open_[keep]
        half_widths = np.repeat(0.5 * half_widths[split], 2)
        centers = np.repeat(centers[split], 2) + np.tile([-1.0, 1.0], split.sum()) * half_widths
    return int(ks[first]) if first < len(ks) else None


def choose_radii(theta: InnerFunction, arcs: Sequence[BoundaryArc]) -> WhitneyChain:
    """Smallest grid radius per arc with the certified modulus floor.

    Radius 1 - 2^{-k} passes for an arc I when |Theta| >= 1 - eps,
    eps = min(1/2, |I|), is certified on the whole region
    {2^{-(k+3)} <= 1 - |z| <= 2^{-k}, arg z in I} by theta.sector_bounds'
    upper bounds of -log|Theta| (_passing_k).  Arc by arc, every k from 1
    to GRID_MAX_K is bounded in one sector_bounds call, and the smallest
    passing k is taken, so each (arc, k) is bounded once and nothing is
    assumed about the order of passing and failing k.  An arc fails a k on
    the declared zero tail, with no bound taken, when the tail's bound at
    depth 2^{-(k+3)} is over a quarter of max(1e-12, eps / 100), the budget
    that modulus_bounds at that tol gives it.  The first arc with no
    passing k raises: TailBoundInsufficient when the zero tail failed its
    k = GRID_MAX_K, RadiusSearchExhausted otherwise.
    """
    zero_tail = theta.blaschke.zeros.tail_blaschke_sum if theta.blaschke is not None else 0.0
    ks = np.arange(1, GRID_MAX_K + 1)
    tails = _tail_neg_log_bound(zero_tail, 2.0 ** -(ks + 3))
    radii, epsilons = [], []
    for arc in arcs:
        eps = min(0.5, arc.length)
        live = tails <= 0.25 * max(1e-12, eps * 1e-2)
        k = _passing_k(theta, arc, 1.0 - eps, ks[live])
        if k is None:
            if not live[-1]:
                raise TailBoundInsufficient(
                    "zeros_tail_blaschke_sum %g is too large to certify the "
                    "1 - %g floor down to 1 - 2^-%d on arc at angle %g"
                    % (zero_tail, eps, GRID_MAX_K, arc.center_angle))
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


def _fences(comp: GammaComponent, t: float, rho_o: float,
            direction: int) -> tuple[float, float, float, float]:
    """The ends lo, hi of t's piece and the march's two fences from origin =
    comp.point(t), |origin| = rho_o, scaled by the direction: rho < STEP -
    RHO_TOL at every y past t with direction * y <= inner, and rho > STEP +
    RHO_TOL at every y of the piece with direction * y >= outer (proved in
    _march_next); -inf and inf where no fence applies."""
    i = bisect.bisect_right(comp.offsets, t, 0, len(comp.pieces)) - 1
    piece, lo, hi = comp.pieces[i], comp.offsets[i], comp.offsets[i + 1]
    margin = RHO_TOL + (4.0 * RHO_ERR + 2.0 ** -52 * t) / (1.0 - rho_o)
    if not (t < hi and rho_o >= 0.25 and margin < STEP
            and (piece.kind == "radial" or piece.extent < 3.0)):
        return lo, hi, -math.inf, math.inf
    limits = []
    for sign in (-1.0, 1.0):
        s = STEP + sign * margin
        w = s * (1.0 - rho_o) * (1.0 + rho_o)
        if piece.kind == "arc":
            run = 2.0 * piece.radius * math.asin(0.5 * w / (rho_o * math.sqrt(1.0 - s * s)))
        else:
            run = w / (1.0 + math.copysign(s * rho_o, direction * piece.extent))
        y = t + direction * run
        limits.append(direction * y if lo <= y < hi else sign * math.inf)
    return lo, hi, limits[0], limits[1]


def _march_next(comp: GammaComponent, t: float, origin: complex,
                direction: int) -> Optional[tuple[float, complex, float]]:
    """First parameter beyond t (in the given direction) at rho == STEP,
    for origin = comp.point(t), with its point and that point's rho from
    origin: h-steps of 0.05 (1 - |origin|) pass STEP, and bisection narrows
    to |rho - STEP| <= RHO_TOL.  That rho is the one the bisection's exit
    test read; after 200 halvings with no exit it is evaluated at the
    midpoint.

    A test at y is decided by comparing direction * y with the fences of
    _fences, and rho is evaluated only between them, off t's piece, or
    where no fence applies, so the zeros are those of evaluating every
    point, bit for bit.  Lemma 1: {z : rho(z, o) < s} is a Euclidean disc
    centred on the ray through o.  On the circle |z| = r, rho(r e^{i
    theta}, o)^2 = (A - 2c) / (B - 2c) with c = r |o| cos(theta - arg o), A
    = r^2 + |o|^2 and B = 1 + r^2 |o|^2 > A, so rho increases in |theta -
    arg o| on [0, pi].  So along a radial piece, and along an arc piece
    over less than pi, the exact rho G at a point is at most the larger of
    G at two points on either side of it.  G is taken at the exact point of
    the float radius or angle q(y) of CurvePiece.point, which is monotone in
    y.  The float rho there is G within E = RHO_ERR / (1 - |o|): the
    point's rounding, under 3 ulp, times |d rho / dz| <= 2 / (1 - |o|),
    plus pseudo_distance's own, under 10 ulp / |1 - conj(o) z|.

    Lemma 2: a fence is within eta = (96 + 2t) u / d of its target.  Let r
    be the float |o| >= 1/4, d = 1 - r, u = 2^-53, and the margin m =
    RHO_TOL + 4E + 2ut / d < STEP.  On t's piece, radial or an arc of
    radius R under 3 radians (a Whitney arc is a quarter circle at most), a
    fence is y = t + direction run, for run the closed form at r of the
    float s = STEP -+ m: 2 R asin(s (1 - r^2) / (2 r sqrt(1 - s^2))) on an
    arc, s (1 - r^2) / (1 +- s r) outward or inward on a ray; r >= 1/4 and
    s < 0.2 keep the asin's argument under 0.4 and run under d / 2.  Where y lies on the piece, G(y) is s within eta.
    Below rho = 0.21, |d rho / dz| and |d rho / do| are at most 2 / d, and
    the Euclidean errors, in units of u, are:
      - the closed form's roundings (sqrt, asin, the products), under 16
        ulp of run <= d / 2: 8;
      - y = t + direction run, rounded: |y| <= t + 0.5;
      - q(y) and q(t), A + (x - off) / R for the piece's angle A and offset
        off, or its radius +- (x - off), rounded: under 2 |A| + 6 l <= 30.7
        for |A| <= 6.3 (build_gamma's angles lie in [0, 2 pi]) and a piece
        length l < 3;
      - the gap between o and its piece: o is the point of q(t) within 3
        (the point's rounding), so r is R or q(t) within 4 and arg o is
        q(t) or the ray's angle within 3: 7, and 1 from o to r e^{i arg o};
    and s is its exact value STEP -+ m within u / 2.  So eta <= 2 (47.2 +
    t) u / d + u / 2 <= (96 + 2t) u / d, and eta - 2ut / d < E = 128 u / d.
    Then G < STEP - RHO_TOL - 3E at the inner fence and G <= 6u / d < E at
    t, so every point between has float rho < STEP - RHO_TOL - 2E; G > STEP
    + RHO_TOL + 3E at the outer fence, so every point of the piece past it
    has float rho > STEP + RHO_TOL + 2E.  The margin's 2ut / d pays for
    ulp(y) on a long component.  All else is evaluated: points past the
    piece, fences off it, and every point where no fence applies.
    """
    end = comp.length if direction > 0 else 0.0
    rho_o = abs(origin)
    h = max(1e-15, 0.05 * (1.0 - rho_o))
    piece_lo, piece_hi, inner, outer = _fences(comp, t, rho_o, direction)
    t1 = t
    while True:
        t2 = t1 + direction * h
        past_end = (t2 >= end) if direction > 0 else (t2 <= end)
        if past_end:
            t2 = end
        x = direction * t2
        # short of the inner fence rho < STEP; past the outer, on the piece, rho > STEP
        if x > inner and (x >= outer and piece_lo <= t2 < piece_hi
                          or pseudo_distance(comp.point(t2), origin) >= STEP):
            break
        if past_end:
            return None
        t1 = t2
    lo, hi = (t1, t2) if direction > 0 else (t2, t1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = direction * mid
        if x <= inner:
            below = True
        elif x >= outer and piece_lo <= mid < piece_hi:
            below = False
        else:
            z = comp.point(mid)
            rho = pseudo_distance(z, origin)
            if abs(rho - STEP) <= RHO_TOL:
                return mid, z, rho
            below = rho < STEP
        if below == (direction > 0):
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    z = comp.point(mid)
    return mid, z, pseudo_distance(z, origin)


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
        # per direction: parameter, last zero, zeros placed and the rho
        # from the zero before each, alive
        t, last = {1: t0, -1: t0}, {1: z0, -1: z0}
        placed: dict[int, list[complex]] = {1: [], -1: []}
        steps: dict[int, list[float]] = {1: [], -1: []}
        alive = {1: True, -1: not comp.closed}
        while 1 + len(placed[1]) + len(placed[-1]) < remaining \
                and (alive[1] or alive[-1]):
            d = 1 if alive[1] and (not alive[-1] or abs(last[1]) <= abs(last[-1])) else -1
            nxt = _march_next(comp, t[d], last[d], d)
            if nxt is None or (comp.closed and len(placed[d]) > 1
                               and pseudo_distance(nxt[1], z0) < STEP - RHO_TOL):
                alive[d] = False
                continue
            t[d], last[d], rho = nxt
            placed[d].append(last[d])
            steps[d].append(rho)
        chain = placed[-1][::-1] + [z0] + placed[1]
        zeros.extend(chain)
        # rho is symmetric to the bit, so each is the chain pair's in order
        rhos.extend(steps[-1][::-1] + steps[1])
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
