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

Verification of the result is numeric evidence on the materialized prefix:
separation and Carleson box constants, criterion scans of B and of
B * Theta, and the spot check that every scanned point with certified
|B| > 12/21 has mu(B)(Q) = 0 exactly.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .classify import ONE_COMPONENT, ClassificationReport, criterion_scan
from .errors import (CurveExhausted, DomainError, HypothesisViolated,
                     RadiusSearchExhausted, TailBoundInsufficient)
# carleson_square is not called here; bench/tracer.py counts its calls
# through this module's name, so the name stays importable from it
from .geometry import (TWO_PI, BoundaryArc, WhitneyBox, carleson_square,  # noqa: F401
                       pseudo_distance, whitney_arcs)
from .inner import (BlaschkeProduct, InnerFunction, MuMeasure, ZeroSequence,
                    separation_constants)

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
    of passing and failing k.
    """
    radii: list[float] = []
    epsilons: list[float] = []
    for arc in arcs:
        eps = min(0.5, arc.length)
        tol = max(1e-12, eps * 1e-2)

        def first_failing_band(k: int) -> Optional[int]:
            for j in range(k, min(k + 4, 52)):
                r_band = 1.0 - 2.0 ** -j
                count = int(arc.length / 2.0 ** -j) + 2
                count = max(2, min(count, 96))
                for i in range(count):
                    ang = arc.lo + arc.length * i / (count - 1)
                    z = r_band * cmath.exp(1j * ang)
                    try:
                        bound = theta.modulus_bounds(z, tol).lo
                    except TailBoundInsufficient:
                        return j   # cannot certify this deep; not passing
                    if bound < 1.0 - eps:
                        return j
            return None

        k = 1
        while (bad := first_failing_band(k)) is not None:
            k = bad + 1
            if k > GRID_MAX_K:
                raise RadiusSearchExhausted(
                    "no grid radius down to 1 - 2^-%d meets the 1 - %g floor on "
                    "arc at angle %g; singular set under-described?"
                    % (GRID_MAX_K, eps, arc.center_angle))
        radii.append(1.0 - 2.0 ** -k)
        epsilons.append(eps)
    return WhitneyChain(list(arcs), radii, epsilons)


def build_gamma(chain: WhitneyChain) -> GammaCurve:
    """Circular pieces at each arc's radius plus radial connectors.

    Consecutive arcs sharing an endpoint angle join in boundary order (the
    recorded convention: components are chained by increasing left
    endpoint); a gap in the decomposition (skipped arcs near the singular
    set) starts a new component.  A chain that wraps the full circle closes
    on itself.
    """
    if not chain.arcs:
        raise DomainError("empty Whitney chain")
    groups: list[list[int]] = [[0]]
    for i in range(1, len(chain.arcs)):
        prev, cur = chain.arcs[i - 1], chain.arcs[i]
        if abs(prev.hi - cur.lo) <= JOIN_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    # wrap-around join of the last group onto the first
    closed_full = False
    if len(groups) > 1:
        first, last = chain.arcs[groups[0][0]], chain.arcs[groups[-1][-1]]
        if abs((last.hi - TWO_PI) - first.lo) <= JOIN_TOL:
            groups[0] = groups.pop() + groups[0]
    elif abs((chain.arcs[groups[0][-1]].hi - TWO_PI) - chain.arcs[groups[0][0]].lo) \
            <= JOIN_TOL:
        closed_full = True

    components = []
    for group in groups:
        pieces: list[CurvePiece] = []
        for pos, i in enumerate(group):
            arc, r = chain.arcs[i], chain.radii[i]
            if pos > 0:
                prev = group[pos - 1]
                r_prev = chain.radii[prev]
                if abs(r_prev - r) > 0.0:
                    # the shared endpoint angle; for a pair joined across the
                    # 2*pi wrap the previous hi is the same angle mod 2*pi
                    pieces.append(CurvePiece("radial", r_prev,
                                             chain.arcs[prev].hi, r - r_prev))
            lo = arc.lo
            if pieces and pos > 0:
                # keep the parameter contiguous across the 2*pi wrap
                prev_hi = chain.arcs[group[pos - 1]].hi
                if abs(prev_hi - TWO_PI - lo) <= JOIN_TOL:
                    lo = prev_hi
            pieces.append(CurvePiece("arc", r, lo, arc.length))
        closed = closed_full and len(groups) == 1
        if closed and len(group) > 1:
            r_first, r_last = chain.radii[group[0]], chain.radii[group[-1]]
            if abs(r_first - r_last) > 0.0:
                pieces.append(CurvePiece("radial", r_last,
                                         chain.arcs[group[-1]].hi, r_first - r_last))
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
    components_used: int
    exhausted: bool                      # every component fully marched


def _march_next(comp: GammaComponent, t: float, origin: complex, step: float,
                direction: int) -> Optional[float]:
    """First parameter beyond t (in the given direction) at rho == step."""
    end = comp.length if direction > 0 else 0.0
    h = max(1e-15, 0.05 * (1.0 - abs(origin)))
    t1 = t
    while True:
        t2 = t1 + direction * h
        past_end = (t2 >= end) if direction > 0 else (t2 <= end)
        if past_end:
            t2 = end
        rho2 = pseudo_distance(comp.point(t2), origin)
        if rho2 >= step:
            break
        if past_end:
            return None
        t1 = t2
    lo, hi = (t1, t2) if direction > 0 else (t2, t1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rho = pseudo_distance(comp.point(mid), origin)
        if abs(rho - step) <= RHO_TOL:
            return mid
        if (rho < step) == (direction > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def place_zeros(gamma: GammaCurve, step: float = STEP,
                horizon: int = 2000) -> Placement:
    """March zeros along the curve at fixed pseudohyperbolic steps.

    Components are visited in order of their smallest modulus.  Within an
    open component the march starts at the minimum-modulus point and
    alternates between the two directions, always advancing the frontier
    of smaller modulus, so the materialized prefix fills in roughly by
    increasing modulus.  Closed components march one way around and stop
    before coming within one step of the first zero.
    """
    if not (0.0 < step < 1.0):
        raise DomainError("step must lie in (0, 1)")
    zeros: list[complex] = []
    rhos: list[float] = []
    covered = 0.0
    used = 0
    exhausted = True
    remaining = horizon
    for comp in gamma.components:
        if remaining <= 0:
            exhausted = False
            break
        used += 1
        t0 = comp.min_modulus_param()
        z0 = comp.point(t0)
        if comp.closed:
            placed = [z0]
            t = t0
            while len(placed) < remaining:
                nxt = _march_next(comp, t, comp.point(t), step, +1)
                if nxt is None:
                    break
                cand = comp.point(nxt)
                if len(placed) > 2 and pseudo_distance(cand, placed[0]) < step - RHO_TOL:
                    break
                rhos.append(pseudo_distance(cand, comp.point(t)))
                placed.append(cand)
                t = nxt
            zeros.extend(placed)
            remaining -= len(placed)
            covered += comp.covered_angle()
            continue

        forward: list[complex] = []
        backward: list[complex] = []
        tf, tb = t0, t0
        f_alive, b_alive = True, True
        count = 1  # the start zero
        while count < remaining and (f_alive or b_alive):
            zf = comp.point(tf)
            zb = comp.point(tb)
            go_forward = f_alive and (not b_alive or abs(zf) <= abs(zb))
            if go_forward:
                nxt = _march_next(comp, tf, zf, step, +1)
                if nxt is None:
                    f_alive = False
                    continue
                forward.append(comp.point(nxt))
                tf = nxt
            else:
                nxt = _march_next(comp, tb, zb, step, -1)
                if nxt is None:
                    b_alive = False
                    continue
                backward.append(comp.point(nxt))
                tb = nxt
            count += 1
        chain = list(reversed(backward)) + [z0] + forward
        zeros.extend(chain)
        rhos.extend(pseudo_distance(a, b) for a, b in zip(chain, chain[1:]))
        remaining -= len(chain)
        if f_alive or b_alive:
            exhausted = False
            covered += (tf - tb) * 0.9 / max(comp.length, 1e-300) * comp.covered_angle()
        else:
            covered += comp.covered_angle()
    if not zeros:
        raise CurveExhausted("no zeros could be placed on the curve")
    return Placement(zeros, rhos, covered, used, exhausted)


@dataclass
class SpotCheck:
    points_checked: int
    points_above_threshold: int
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


def _spot_check_b(blaschke: InnerFunction, mu: MuMeasure, depth: int) -> SpotCheck:
    """Scan points where |B| stays above 12/21 must carry no mu mass.

    mu is B's own zero measure, whose square brackets are exact, so its
    lower ends are the masses.
    """
    checked = above = 0
    violations: list[complex] = []
    for level in range(2, depth + 1):
        points = WhitneyBox.level_points(level)
        high = [i for i, z in enumerate(points.tolist())
                if blaschke.modulus_bounds(z, 1e-9).lo > 12.0 / 21.0]
        checked += len(points)
        above += len(high)
        masses = mu.lower_masses(points[high])
        violations.extend(complex(points[i]) for i, m in zip(high, masses.tolist())
                          if m != 0.0)
    return SpotCheck(checked, above, violations)


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
    sing = theta.singular_set()
    if sing.described_length() > 0.0:
        raise HypothesisViolated(
            "singular set has positive measure under its own description; "
            "the companion construction needs |sing Theta| = 0")

    arcs = list(whitney_arcs(sing, min_length=cutoff))
    chain = choose_radii(theta, arcs)
    gamma = build_gamma(chain)
    placement = place_zeros(gamma, horizon=horizon)

    zseq = ZeroSequence(placement.zeros)
    max_step_error = max((abs(r - STEP) for r in placement.consecutive_rhos),
                         default=0.0)
    delta, box_constant = separation_constants(zseq, len(placement.zeros))

    companion = InnerFunction(blaschke=BlaschkeProduct(zseq))
    min_side = 0.75 * math.pi * 2.0 ** -depth
    merged = list(placement.zeros)
    merged_tail = 0.0
    if theta.blaschke is not None:
        # freeze theta's zeros at the scan resolution; the remaining tail is
        # below the smallest queried square, so mu queries stay legal
        theta.blaschke.zeros.materialize_until_depth(min_side)
        merged.extend(theta.blaschke.zeros.zeros)
        merged_tail = theta.blaschke.zeros.tail_blaschke_sum
    product = InnerFunction(
        theta.unimodular,
        BlaschkeProduct(ZeroSequence(merged, tail_blaschke_sum=merged_tail)),
        theta.singular)

    report_b = criterion_scan(companion, depth)
    report_btheta = criterion_scan(product, depth)
    spot = _spot_check_b(companion, companion.mu(), depth)

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
