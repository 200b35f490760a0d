"""Numeric one-component classification.

The core scan walks the dyadic Whitney boxes, samples the top half of each
box (center and low-angle corner, approximating the sup over the top half),
and records the modulus of the function at every sample point whose
Carleson square carries positive mu mass.  The running maximum over depths,

    C*(d) = max { |Theta(z)| : z sampled at depth <= d, mu(Q(z)) > 0 },

is non-decreasing in d.  Verdicts are evidence, never proofs:

- OneComponentEvidence: C* stayed below 1 - margin and stabilized over the
  last two depth levels (change < tol),
- NotOneComponentEvidence: a witness run pushed C* above 1 - tol, or the
  trace keeps climbing monotonically without stabilizing (a run of
  witnesses whose moduli approach 1),
- Inconclusive otherwise; all thresholds are recorded in the report.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, HypothesisViolated, PrecisionExhausted
from .geometry import SawtoothRegion, StolzAngle
# not called here: bench/tracer.py counts carleson_square calls through this name
from .geometry import carleson_square  # noqa: F401
from .inner import InnerFunction, ZeroSequence, _tail_neg_log_bound

ONE_COMPONENT = "OneComponentEvidence"
NOT_ONE_COMPONENT = "NotOneComponentEvidence"
INCONCLUSIVE = "Inconclusive"

MARGIN = 0.05        # OneComponentEvidence needs C* <= 1 - MARGIN
EVAL_TOL = 1e-6      # tolerance of each certified |Theta| bracket
# Deepest scan level: past it the rounding of 1 - |z| at a level point (an
# ulp of 1, 2^-53) exceeds 1 % of the square side 0.75 pi 2^-depth that
# MuMeasure.positive_squares relies on; at depth 56 the level radius itself
# rounds to 1.
MAX_DEPTH = int(math.log2(0.01 * 0.75 * math.pi / (0.5 * sys.float_info.epsilon)))


@dataclass
class ScanWitness:
    z: complex
    modulus_lo: float
    modulus_hi: float
    mu_q: float
    depth: int

    def to_json_dict(self) -> dict:
        return {"z": {"re": self.z.real, "im": self.z.imag},
                "mod_theta": self.modulus_hi, "mod_theta_lo": self.modulus_lo,
                "mu_q": self.mu_q, "depth": self.depth}


@dataclass
class ClassificationReport:
    verdict: str
    c_star: float
    depth_trace: list[float]
    witnesses: list[ScanWitness]
    # every point the scan bracketed, in scan order, and its certified lower
    # |Theta|; kept for the companion's spot check, not reported
    visited: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    tests: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict,
                "c_star": self.c_star,
                "depth_trace": self.depth_trace,
                "witnesses": [w.to_json_dict() for w in self.witnesses],
                "tests": self.tests,
                "params": self.params,
                "notes": self.notes}


def _verdict_from_trace(trace: Sequence[float], tol: float,
                        crossed: bool) -> tuple[str, list[str]]:
    notes: list[str] = []
    if not trace or trace[-1] == 0.0:
        return (ONE_COMPONENT, ["no box with positive mu mass was found"])
    c_star = trace[-1]
    if crossed or c_star > 1.0 - tol:
        return (NOT_ONE_COMPONENT, ["witness moduli exceeded 1 - tol"])
    if len(trace) >= 3:
        d1 = trace[-1] - trace[-2]
        d2 = trace[-2] - trace[-3]
        stabilized = d1 < tol and d2 < tol
        rising = (d1 >= tol and d2 >= tol
                  and trace[-1] - trace[-3] >= 10.0 * tol
                  and c_star >= 0.5)
    else:
        stabilized, rising = False, False
    if rising:
        notes.append("monotone witness run keeps pushing C* upward without "
                     "stabilizing; treated as evidence against one-component")
        return (NOT_ONE_COMPONENT, notes)
    if stabilized and c_star <= 1.0 - MARGIN:
        return (ONE_COMPONENT, notes)
    notes.append("trace neither stabilized below the margin nor crossed the "
                 "witness threshold")
    return (INCONCLUSIVE, notes)


def criterion_scan(theta: InnerFunction, depth: int,
                   tol: float = 1e-3) -> ClassificationReport:
    """Carleson-square criterion scan over dyadic top halves up to depth.

    Samples each top half at its center and its low-angle corner; a sample z
    becomes a witness when mu(Theta)(Q(z)) is certifiably positive, and then
    contributes its certified modulus bracket to the C* trace.  One
    modulus_bounds call brackets a level's witnesses; the report keeps them
    all, with their lower ends, as ``visited``.
    """
    if depth < 2:
        raise DomainError("scan depth must be >= 2")
    if depth > MAX_DEPTH:
        raise PrecisionExhausted("scan depth %d is past %d, the deepest level "
                                 "double precision resolves" % (depth, MAX_DEPTH))
    mu = theta.mu()

    trace: list[float] = []
    witnesses: list[ScanWitness] = []
    seen_points: list[np.ndarray] = []
    seen_lower: list[np.ndarray] = []
    crossed = False
    c_star = 0.0
    for level in range(2, depth + 1):
        points, masses = mu.positive_squares(level)
        lower, upper = theta.modulus_bounds(points, EVAL_TOL)
        seen_points.append(points)
        seen_lower.append(lower)
        for z, mu_q, lo, hi in zip(points.tolist(), masses.tolist(),
                                   lower.tolist(), upper.tolist()):
            if lo > 1.0 - tol:
                crossed = True
            if hi > c_star:
                c_star = hi
                if len(witnesses) >= 64:
                    witnesses.pop(0)
                witnesses.append(ScanWitness(z, lo, hi, mu_q, level))
        trace.append(c_star)

    verdict, notes = _verdict_from_trace(trace, tol, crossed)
    if theta.is_constant:
        notes.append("constant inner function: mu(Theta) is identically zero")
    return ClassificationReport(
        verdict=verdict, c_star=c_star, depth_trace=trace, witnesses=witnesses,
        visited=(np.concatenate(seen_points), np.concatenate(seen_lower)),
        params={"depth": depth, "tol": tol, "margin": MARGIN,
                "eval_tol": EVAL_TOL, "samples": "top-half centers and corners"},
        notes=notes)


# ---------------------------------------------------------------------------
# Specialized tests
# ---------------------------------------------------------------------------

@dataclass
class LimitTestResult:
    sup_estimate: float
    verdict: str
    trace: list[float]
    params: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"sup_estimate": self.sup_estimate, "verdict": self.verdict,
                "trace": self.trace, "params": self.params, "notes": self.notes}


def _log_abs_blaschke_radial(zeros: ZeroSequence, vertex_angle: float,
                             s: float) -> float:
    """log|B| at the radial point (1-s) e^{i vertex}, cancellation-free.

    Works directly with zero depths u_j = 1 - |z_j| and angular offsets, so
    the value stays accurate for s far below double resolution of 1 - s.
    Returns the sum over the listed zeros; the caller bounds the tail.
    """
    total = 0.0
    for w in zeros.zeros:
        u = 1.0 - abs(w)
        psi = cmath.phase(w) - vertex_angle
        mod_w = abs(w)
        versin = 2.0 * math.sin(0.5 * psi) ** 2    # 1 - cos(psi), stable
        # z - w rotated by e^{-i vertex}: (u - s) + |w| (1 - e^{i psi})
        re_num = (u - s) + mod_w * versin
        im_num = -mod_w * math.sin(psi)
        num2 = re_num * re_num + im_num * im_num
        if num2 == 0.0:
            return -math.inf
        # 1 - conj(w) z = (u + s - u s) + |w| (1-s) (1 - e^{-i psi})
        re_den = (u + s - u * s) + mod_w * (1.0 - s) * versin
        im_den = mod_w * (1.0 - s) * math.sin(psi)
        den2 = re_den * re_den + im_den * im_den
        total += 0.5 * math.log(num2 / den2)
    return total


def radial_limit_test(zeros: ZeroSequence, vertex_angle: float = 0.0,
                      aperture: float = 10.0,
                      tol: float = 1e-3) -> LimitTestResult:
    """Estimate limsup_{r->1} |B(r e^{i vertex})| for Stolz-angle zeros.

    The depth grid holds 1 - r = 2^{-k/4}, k = 16 .. 176 (decreasing).
    Per-octave maxima (in log depth) feed the same trace logic as the
    criterion scan: a rising, non-stabilizing trace is evidence that the
    limsup equals 1.
    """
    if zeros.tail_blaschke_sum == 0.0:
        raise HypothesisViolated("finite zero set: the radial-limit "
                                 "criterion needs infinitely many zeros")
    stolz = StolzAngle(vertex_angle, aperture)
    for w in zeros.zeros:
        if not stolz.contains(w):
            raise HypothesisViolated(
                "not a Stolz sequence: zero %r leaves the declared aperture" % (w,))

    depth_grid = [2.0 ** (-k / 4.0) for k in range(16, 177)]  # 2^-4 .. 2^-44

    crossed = False
    sups: list[tuple[float, float]] = []
    for s in depth_grid:
        val = _log_abs_blaschke_radial(zeros, vertex_angle, s)
        tail_term = _tail_neg_log_bound(zeros.tail_blaschke_sum, s)
        upper = math.exp(min(0.0, val))
        lower = math.exp(val - tail_term) if tail_term < math.inf else 0.0
        if lower > 1.0 - tol:
            crossed = True
        sups.append((s, upper))

    # octave bands in log2(1/s); cumulative-max trace across bands
    bands: dict[int, float] = {}
    for s, v in sups:
        b = int(math.floor(-math.log2(s)))
        bands[b] = max(bands.get(b, 0.0), v)
    trace = []
    run = 0.0
    for b in sorted(bands):
        run = max(run, bands[b])
        trace.append(run)

    # The sup of |B| between consecutive zeros recurs at the gap scale, and
    # for sparse sequences the gaps widen, so stabilization is judged over a
    # window half the trace long rather than adjacent bands.
    notes: list[str] = []
    estimate = trace[-1] if trace else 0.0
    window = max(3, len(trace) // 2)
    long_rise = estimate - trace[-window] if len(trace) >= window else estimate
    if crossed or estimate > 1.0 - tol:
        verdict = NOT_ONE_COMPONENT
        notes.append("radial sup estimate exceeded 1 - tol")
    elif long_rise >= 10.0 * tol and estimate >= 0.5:
        verdict = NOT_ONE_COMPONENT
        notes.append("band maxima keep rising toward 1 across grid refinement")
    elif long_rise < tol and estimate < 1.0 - tol:
        verdict = ONE_COMPONENT
    else:
        verdict = INCONCLUSIVE
        notes.append("band maxima neither stabilized nor rising decisively")
    return LimitTestResult(
        sup_estimate=trace[-1] if trace else 0.0, verdict=verdict, trace=trace,
        params={"vertex_angle": vertex_angle, "aperture": aperture,
                "tol": tol, "grid_depths": [depth_grid[0], depth_grid[-1]],
                "grid_size": len(depth_grid)},
        notes=notes)


def sawtooth_test(theta: InnerFunction,
                  r_levels: Optional[Sequence[float]] = None,
                  tol: float = 1e-3) -> LimitTestResult:
    """Estimate limsup of |Theta| over the sawtooth region of supp sigma.

    Samples Omega on the circles |z| = r for each level, at angular
    resolution proportional to 1 - r near the support (support cover arcs
    keep the sample count bounded).  A level's candidate points are built
    in arc order, one membership call keeps the first ``per_level`` points
    inside Omega, and one modulus_bounds call brackets |Theta| at all of
    them; the level's sup is the largest upper end, 0 when none is inside.
    The per-level sups feed the shared trace logic; for one-component
    singular data they decay to 0.
    """
    if theta.singular is None:
        raise HypothesisViolated("sawtooth test needs a singular part")
    sigma = theta.singular.sigma
    support = sigma.support()
    region = SawtoothRegion(support)
    if theta.blaschke is not None:
        zeros = [w for w in theta.blaschke.zeros.zeros if w != 0]
        outside = np.flatnonzero(~region.contains(np.array(zeros, dtype=np.complex128)))
        if outside.size:
            raise HypothesisViolated(
                "hypothesis violated: zero %r lies outside the sawtooth "
                "region" % (zeros[outside[0]],))

    if r_levels is None:
        r_levels = [1.0 - 2.0 ** -k for k in range(3, 13)]
    r_levels = sorted(float(r) for r in r_levels)
    per_level = max(24, 4096 // max(1, len(r_levels)))

    level_sups: list[float] = []
    for r in r_levels:
        width = 1.0 - r
        cover = support.cover_arcs(width)
        stride = max(1, len(cover) // max(1, per_level // 4))
        candidates = []
        for arc in cover[::stride]:
            lo = arc.lo - 0.75 * width
            hi = arc.hi + 0.75 * width
            count = max(2, min(int((hi - lo) / (0.5 * width)) + 1, 8))
            candidates += [r * cmath.exp(1j * (lo + (hi - lo) * j / (count - 1)))
                           for j in range(count)]
        points = np.array(candidates, dtype=np.complex128)
        inside = points[region.contains(points, limit=per_level)]
        level_sups.append(float(theta.modulus_bounds(inside, EVAL_TOL).hi.max(initial=0.0)))

    estimate = max(level_sups[-2:]) if len(level_sups) >= 2 else \
        (level_sups[-1] if level_sups else 0.0)
    crossed = estimate > 1.0 - tol
    rising = (len(level_sups) >= 3
              and level_sups[-1] - level_sups[-2] >= tol
              and level_sups[-2] - level_sups[-3] >= tol
              and estimate >= 0.5)
    notes: list[str] = []
    if crossed:
        verdict = NOT_ONE_COMPONENT
        notes.append("sawtooth sup estimate exceeded 1 - tol")
    elif rising:
        verdict = NOT_ONE_COMPONENT
        notes.append("sawtooth sups rise monotonically toward 1")
    elif estimate < 1.0 - tol:
        verdict = ONE_COMPONENT
    else:
        verdict = INCONCLUSIVE
    return LimitTestResult(sup_estimate=estimate, verdict=verdict,
                           trace=level_sups,
                           params={"r_levels": list(r_levels), "tol": tol,
                                   "eval_tol": EVAL_TOL},
                           notes=notes)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _detect_stolz(zeros: ZeroSequence) -> Optional[tuple[float, float]]:
    """(vertex angle, aperture) when the listed zeros sit in a cone."""
    if not zeros.accumulation_angles or len(zeros.accumulation_angles) != 1:
        return None
    vertex = zeros.accumulation_angles[0]
    worst = 1.0
    for w in zeros.zeros:
        depth = 1.0 - abs(w)
        if depth <= 0.0:
            return None
        worst = max(worst, abs(w - cmath.exp(1j * vertex)) / depth)
    if worst > 50.0:
        return None
    return (vertex, worst * 1.25)


def classify(theta: InnerFunction, depth: int, tol: float = 1e-3) -> ClassificationReport:
    """criterion_scan plus any specialized test whose hypotheses hold.

    A definite specialized verdict must agree with the scan verdict;
    otherwise the report downgrades to Inconclusive with both records.
    """
    report = criterion_scan(theta, depth, tol)
    report.params["budget"] = {"depth": depth, "tol": tol, "margin": MARGIN}

    special: Optional[LimitTestResult] = None
    name = None
    has_blaschke = theta.blaschke is not None and len(theta.blaschke.zeros) > 0
    if theta.singular is not None:
        try:
            special = sawtooth_test(theta, tol=tol)
            name = "sawtooth"
        except HypothesisViolated:
            special = None
    elif has_blaschke and theta.blaschke.zeros.tail_blaschke_sum > 0.0:
        stolz = _detect_stolz(theta.blaschke.zeros)
        if stolz is not None:
            try:
                special = radial_limit_test(theta.blaschke.zeros, stolz[0],
                                            stolz[1], tol=tol)
                name = "radial_limit"
            except HypothesisViolated:
                special = None

    if special is not None:
        report.tests[name] = special.to_json_dict()
        if special.verdict != INCONCLUSIVE and special.verdict != report.verdict:
            report.notes.append(
                "specialized %s test (%s) disagrees with the criterion scan "
                "(%s); downgrading to Inconclusive"
                % (name, special.verdict, report.verdict))
            report.verdict = INCONCLUSIVE
    return report
