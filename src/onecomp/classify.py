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

from .errors import DomainError, HypothesisViolated, OnecompError, PrecisionExhausted
from .geometry import BLOCK_ELEMENTS, SawtoothRegion, StolzAngle
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
    positive_squares call finds the witnesses of every level and one
    modulus_bounds call brackets them all; the report keeps them, with
    their lower ends, as ``visited``.  An error is the one a level-by-level
    scan meets first, a level's squares before its |Theta|: when either
    call raises, the scan is replayed level by level.
    """
    if depth < 2:
        raise DomainError("scan depth must be >= 2")
    if not 0.0 < tol < 1.0:
        raise DomainError("scan tol must lie in (0, 1), got %r" % (tol,))
    if depth > MAX_DEPTH:
        raise PrecisionExhausted("scan depth %d is past %d, the deepest level "
                                 "double precision resolves" % (depth, MAX_DEPTH))
    mu = theta.mu()
    levels = range(2, depth + 1)
    try:
        points, masses, at = mu.positive_squares(levels)
        lower, upper = theta.modulus_bounds(points, EVAL_TOL)
    except OnecompError:
        for level in levels:
            theta.modulus_bounds(mu.positive_squares([level])[0], EVAL_TOL)
        raise

    trace: list[float] = []
    witnesses: list[ScanWitness] = []
    crossed = False
    c_star = 0.0
    for level, z, mu_q, lo, hi in zip(at.tolist(), points.tolist(), masses.tolist(),
                                      lower.tolist(), upper.tolist()):
        trace += [c_star] * (level - 2 - len(trace))    # the levels before this one
        if lo > 1.0 - tol:
            crossed = True
        if hi > c_star:
            c_star = hi
            if len(witnesses) >= 64:
                witnesses.pop(0)
            witnesses.append(ScanWitness(z, lo, hi, mu_q, level))
    trace += [c_star] * (len(levels) - len(trace))

    verdict, notes = _verdict_from_trace(trace, tol, crossed)
    if theta.is_constant:
        notes.append("constant inner function: mu(Theta) is identically zero")
    return ClassificationReport(
        verdict=verdict, c_star=c_star, depth_trace=trace, witnesses=witnesses,
        visited=(points, lower),
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


def _log_abs_blaschke_radial_many(zeros: ZeroSequence, vertex_angle: float,
                                  depths: np.ndarray) -> np.ndarray:
    """log|B| at each radial point (1-s) e^{i vertex}, s in depths,
    cancellation-free.

    Works directly with zero depths u_j = 1 - |z_j| and angular offsets, so
    the value stays accurate for s far below double resolution of 1 - s.
    Returns the sum over the listed zeros, -inf where s puts the point on
    one of them; the caller bounds the tail.  The per-zero terms are
    scalar calls; a depth x zero matrix takes the depth-dependent steps in
    the scalar order, math.log per entry (np.log can differ in the last
    bit), and each row is a running sum in zero order.
    """
    ws = zeros.as_array()
    mod_w = np.hypot(ws.real, ws.imag)      # abs()'s bits
    u = 1.0 - mod_w
    psi = [cmath.phase(w) - vertex_angle for w in ws.tolist()]
    versin = np.array([2.0 * math.sin(0.5 * p) ** 2 for p in psi])  # 1 - cos(psi)
    sin_psi = np.array([math.sin(p) for p in psi])
    totals = np.empty(len(depths))
    step = max(1, BLOCK_ELEMENTS // max(1, len(ws)))
    for start in range(0, len(depths), step):
        s = depths[start:start + step, None]
        # z - w rotated by e^{-i vertex}: (u - s) + |w| (1 - e^{i psi})
        re_num = (u - s) + mod_w * versin
        im_num = -mod_w * sin_psi
        num2 = re_num * re_num + im_num * im_num
        # 1 - conj(w) z = (u + s - u s) + |w| (1-s) (1 - e^{-i psi})
        re_den = (u + s - u * s) + mod_w * (1.0 - s) * versin
        im_den = mod_w * (1.0 - s) * sin_psi
        den2 = re_den * re_den + im_den * im_den
        on_zero = num2 == 0.0
        ratio = np.where(on_zero, 1.0, num2 / den2).ravel().tolist()
        terms = np.zeros((len(s), len(ws) + 1))     # column 0: total = 0.0
        terms[:, 1:] = 0.5 * np.array(list(map(math.log, ratio))).reshape(len(s), len(ws))
        totals[start:start + step] = np.where(on_zero.any(axis=1), -math.inf,
                                              np.cumsum(terms, axis=1)[:, -1])
    return totals


def radial_limit_test(zeros: ZeroSequence, vertex_angle: float = 0.0,
                      aperture: float = 10.0,
                      tol: float = 1e-3) -> LimitTestResult:
    """Estimate limsup_{r->1} |B(r e^{i vertex})| for Stolz-angle zeros.

    The depth grid holds 1 - r = 2^{-k/4}, k = 16 .. 176 (decreasing).
    Per-octave maxima (in log depth) feed the same trace logic as the
    criterion scan: a rising, non-stabilizing trace is evidence that the
    limsup equals 1.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError("radial tol must lie in (0, 1), got %r" % (tol,))
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
    depths = np.array(depth_grid)
    vals = _log_abs_blaschke_radial_many(zeros, vertex_angle, depths)
    tails = _tail_neg_log_bound(zeros.tail_blaschke_sum, depths)
    for s, val, tail_term in zip(depth_grid, vals.tolist(), tails.tolist()):
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
    in arc order as one array, one membership call keeps the first
    ``per_level`` points inside Omega, and one modulus_bounds call brackets
    |Theta| at the points inside on every level; a level's sup is the
    largest upper end among its points, 0 when none is inside.  A
    membership error is raised after the |Theta| brackets of the levels
    before it, as level by level.
    The per-level sups feed the shared trace logic; for one-component
    singular data they decay to 0.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError("sawtooth tol must lie in (0, 1), got %r" % (tol,))
    if r_levels is None:
        r_levels = [1.0 - 2.0 ** -k for k in range(3, 13)]
    r_levels = [float(r) for r in r_levels]
    bad = [r for r in r_levels if not 0.0 < r < 1.0]
    if bad:
        raise DomainError("sawtooth level %r is not in (0, 1)" % (bad[0],))
    r_levels.sort()
    if theta.singular is None:
        raise HypothesisViolated("sawtooth test needs a singular part")
    sigma = theta.singular.sigma
    support = sigma.support()
    region = SawtoothRegion(support)
    if theta.blaschke is not None:
        zeros = theta.blaschke.zeros.as_array()
        zeros = zeros[zeros != 0]
        outside = np.flatnonzero(~region.contains(zeros))
        if outside.size:
            raise HypothesisViolated(
                "hypothesis violated: zero %r lies outside the sawtooth "
                "region" % (complex(zeros[outside[0]]),))

    per_level = max(24, 4096 // max(1, len(r_levels)))

    inside = [np.empty(0, dtype=np.complex128)]     # then one array per level
    try:
        for r in r_levels:
            width = 1.0 - r
            cover = support.cover_arcs(width)
            stride = max(1, len(cover) // max(1, per_level // 4))
            arcs = np.array([(arc.lo, arc.hi) for arc in cover[::stride]]).reshape(-1, 2)
            lo, hi = (arcs + (-0.75 * width, 0.75 * width)).T
            count = np.minimum(((hi - lo) / (0.5 * width)).astype(np.int64) + 1, 8)
            count = np.maximum(count, 2)[:, None]
            # an arc x sample matrix; its rows' first count entries, in order
            j = np.arange(8.0)
            angles = lo[:, None] + (hi - lo)[:, None] * j / (count - 1)
            points = r * np.exp(1j * angles[j < count])
            inside.append(points[region.contains(points, limit=per_level)])
    except OnecompError:
        # a level's |Theta| comes before the next level's membership
        theta.modulus_bounds(np.concatenate(inside), EVAL_TOL)
        raise
    upper = theta.modulus_bounds(np.concatenate(inside), EVAL_TOL).hi
    ends = np.cumsum([part.size for part in inside]).tolist()
    level_sups = [float(upper[a:b].max(initial=0.0)) for a, b in zip(ends, ends[1:])]

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
