"""Output checks for every benchmark job.

A job passes when the CLI exits 0, the report it wrote under ``--out``
matches what it printed, and the report agrees with the ground truth
below.  Reals such as ``c_star`` are not compared: summation order may move
them by a few ulps.  Placed zeros may not move, so at seed 0 the construct
zero CSV is compared by its sha256.  Cantor measure queries are compared
with values this module computes on its own, within the query tolerance.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

import inputs

VERDICTS = {
    "atom1": "OneComponentEvidence",
    "atoms2": "OneComponentEvidence",
    "radial_geometric": "OneComponentEvidence",
    "example1": "NotOneComponentEvidence",
    "radial_sparse": "NotOneComponentEvidence",
}

# component count of {|B| < eps} for eps = 0.1, 0.5, 0.9
LEVELSET_COUNTS = {
    "z1": {"0.1": 1, "0.5": 1, "0.9": 1},
    "z2": {"0.1": 2, "0.5": 1, "0.9": 1},
    "z3": {"0.1": 3, "0.5": 1, "0.9": 1},
}

CONSTRUCT_MAX_STEP_ERROR = 1e-6

# sha256 of the zero CSV of the unrotated construct job (seed 0), at the
# horizon and depth that run.py uses.
CONSTRUCT_ZEROS_SHA256_SEED0 = (
    "90210ab58200d675a9cd425f395496e18af11a21cc8a266791c4de27cc8d0743")


def _report_file(out_dir: str, name: str, stdout: str) -> str | None:
    path = os.path.join(out_dir, name)
    if not os.path.isfile(path):
        return "%s was not written" % (name,)
    with open(path, encoding="utf-8") as fh:
        if fh.read() != stdout:
            return "%s differs from the printed report" % (name,)
    return None


def check_classify(doc: dict, family: str) -> str | None:
    want = VERDICTS[family]
    if doc.get("verdict") != want:
        return "%s: verdict %s, want %s" % (family, doc.get("verdict"), want)
    return None


def check_levelset(doc: dict, zero_set: str, epsilon: str) -> str | None:
    want = LEVELSET_COUNTS[zero_set][epsilon]
    if doc.get("component_count") != want:
        return ("%s eps=%s: %s components, want %d"
                % (zero_set, epsilon, doc.get("component_count"), want))
    if doc.get("stabilized") is not True:
        return "%s eps=%s: count not stabilized" % (zero_set, epsilon)
    return None


# Generation of the middle-thirds intervals the reference quadrature uses.
# At the query radius a cell is 3^-16 turns wide against 1 - r = 2^-9, and
# the mass sits symmetrically in it, so the midpoint rule is exact to ~1e-8.
CANTOR_REFERENCE_GENERATION = 16


@functools.lru_cache(maxsize=None)
def cantor_reference(turn: str, r: float) -> tuple[float, complex]:
    """(Poisson integral, onecomp's Herglotz value) of the middle-thirds
    measure at r e^{2 pi i turn}, by the midpoint rule on 2^16 cells.

    onecomp reports the exponent of the singular inner function, minus the
    Herglotz integral, so its real part is minus the Poisson integral.
    """
    mids = np.array([0.5])
    width = 1.0
    for _ in range(CANTOR_REFERENCE_GENERATION):
        width /= 3.0
        mids = np.concatenate([mids - width, mids + width])
    mass = 2.0 ** -CANTOR_REFERENCE_GENERATION
    z = r * cmath.exp(2j * math.pi * float(Fraction(turn)))
    w = np.exp(2j * math.pi * mids)
    poisson = float(np.sum((1.0 - r * r) / np.abs(w - z) ** 2) * mass)
    herglotz = complex(-np.sum((w + z) / (w - z)) * mass)
    return poisson, herglotz


def cantor_cdf(t: Fraction, digits: int = 40) -> Fraction:
    """Cantor function at t turns, from the ternary digits of t."""
    if t <= 0:
        return Fraction(0)
    if t >= 1:
        return Fraction(1)
    value, scale = Fraction(0), Fraction(1, 2)
    for _ in range(digits):
        t *= 3
        digit = int(t)
        t -= digit
        if digit == 1:
            return value + scale
        value += scale * (digit // 2)
        scale /= 2
    return value


def check_measure(doc: dict, turn: str) -> str | None:
    tol = float(inputs.CANTOR_TOL)
    poisson, herglotz = cantor_reference(turn, inputs.CANTOR_QUERY_RADIUS)
    half = Fraction(inputs.CANTOR_ARC_HALF_TURNS)
    mass = float(cantor_cdf(Fraction(turn) + half) - cantor_cdf(Fraction(turn) - half))
    got_h = complex(float(doc["herglotz"]["re"]), float(doc["herglotz"]["im"]))
    for name, got, want in (("total_mass", float(doc["total_mass"]), 1.0),
                            ("poisson", float(doc["poisson"]), poisson),
                            ("herglotz", got_h, herglotz),
                            ("arc_mass", float(doc["arc_mass"]), mass)):
        if not abs(got - want) <= 2.0 * tol:
            return "cantor at %s turn: %s %r, want %r" % (turn, name, got, want)
    return None


def zeros_sha256(doc: dict) -> str:
    return hashlib.sha256(doc["zeros_csv"].encode("utf-8")).hexdigest()


def check_construct(doc: dict, horizon: int, seed: int) -> str | None:
    if doc.get("verified") is not True:
        return "companion not verified"
    placed = len(doc["zeros_csv"].strip().split("\n")) - 1
    if placed != horizon:
        return "%d zeros placed, want %d" % (placed, horizon)
    step_error = float(doc["max_step_error"])
    if not step_error < CONSTRUCT_MAX_STEP_ERROR:
        return "max_step_error %g not below %g" % (step_error,
                                                   CONSTRUCT_MAX_STEP_ERROR)
    if seed == 0 and zeros_sha256(doc) != CONSTRUCT_ZEROS_SHA256_SEED0:
        return "placed zeros changed: sha256 %s" % (zeros_sha256(doc),)
    return None


def check_job(job, rc: int, stdout: str, seed: int) -> tuple[str | None, dict | None]:
    """(first problem or None, parsed report) for one finished job."""
    if rc != 0:
        return "exit code %d" % (rc,), None
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return "stdout is not JSON: %s" % (exc,), None
    problem = _report_file(job.out_dir, job.report, stdout)
    if problem is None:
        if job.command == "classify":
            problem = check_classify(doc, *job.case)
        elif job.command == "levelset":
            problem = check_levelset(doc, *job.case)
        elif job.command == "measure":
            problem = check_measure(doc, *job.case)
        else:
            problem = check_construct(doc, *job.case, seed)
    return problem, doc
