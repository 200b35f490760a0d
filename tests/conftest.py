"""Shared test oracles.

The pixel flood fill is the independent reference for level-set component
counts: it rasterizes |Theta| on a uniform Cartesian grid and labels
4-connected sublevel pixels with a run-length union-find, entirely apart
from the package's quadtree path.

The scalar brackets are the references for the package's array kernels,
whose scalar calls are one-point arrays: reference_poisson_bounds sums an
atomic measure's terms one atom at a time with math.fsum, and
reference_modulus_bounds brackets |B| from one vector log sum and |S|
from those Poisson brackets, the fine one at reference_fine_tol.  Each
gives the kernel's bits, message and bracket at one point, by code that is
not the kernel's.

reference_march_next is the march step as it was before fences: it
evaluates rho at every h-step and every bisection midpoint, so
place_zeros run with it gives the placement the fenced march must match.

reference_separation_delta is the all-pairs minimum rho that
separation_constants took before it looked at neighbours only: every
pair in both orders, in row blocks of BLOCK_ELEMENTS entries.
"""

import cmath
import math

import numpy as np

from onecomp.companion import RHO_TOL, STEP
from onecomp.errors import DomainError, PrecisionExhausted, TailBoundInsufficient
from onecomp.geometry import BLOCK_ELEMENTS, pseudo_distance
from onecomp.inner import BlaschkeProduct, InnerFunction, SingularInner
from onecomp.measures import AtomicMeasure


def poisson_kernel(z: complex, theta: float) -> float:
    """(1 - |z|^2) / |z - e^{i theta}|^2."""
    return (1.0 - abs(z) ** 2) / abs(z - cmath.exp(1j * theta)) ** 2


def reference_poisson_bounds(sigma, z, tol: float) -> tuple:
    """poisson_bounds(z, tol): for an AtomicMeasure, math.fsum of the terms
    m P(z, t) taken atom by atom, and the tail mass times P's sup
    (1 + |z|) / (1 - |z|) added to the upper end; any other kind's own
    scalar call."""
    if not isinstance(sigma, AtomicMeasure):
        return sigma.poisson_bounds(z, tol)
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("integral requires |z| < 1, got |z| = %r" % (abs(z),))
    total = math.fsum(m * poisson_kernel(z, t) for t, m in sigma.atoms)
    slack = sigma.tail_mass * ((1.0 + abs(z)) / (1.0 - abs(z)))
    if slack > tol:
        raise PrecisionExhausted(
            "atomic tail bound %g cannot meet tol %g at 1 - |z| = %g"
            % (sigma.tail_mass, tol, 1.0 - abs(z)), bracket=(total, total + slack))
    return (total, total + slack)


def reference_tail_bound(tail: float, depth: float) -> float:
    """Upper bound for -sum_tail log rho at 1 - |z| = depth for a declared
    tail Blaschke sum; inf when it is not informative."""
    if tail == 0.0:
        return 0.0
    u = 4.0 * tail * (2.0 - depth) / depth
    return math.inf if u >= 0.5 else u / (1.0 - u)


def reference_fine_tol(plo: float, tol: float) -> float:
    """The Poisson tolerance of |S|'s fine pass at a point whose coarse
    Poisson bracket starts at plo, for a value-scale tol: P to within
    tol / (2 |S|), |S| <= exp(-plo) taken no smaller than exp(-60), and
    the result kept in [1e-14, 0.25].  Python's min and max: a NaN plo
    gives 1e-14."""
    return min(0.25, max(1e-14, 0.5 * tol * math.exp(min(plo, 60.0))))


def reference_modulus_bounds(f, z, tol: float) -> tuple:
    """modulus_bounds(z, tol) of a BlaschkeProduct, SingularInner or
    InnerFunction, point by point.

    |B|: the listed zeros' log sum as one vector, (0, exp(sum)) at a zero
    or where exp(sum) <= tol / 2, and otherwise the declared tail's bound
    against the value-scale budget max(1e-15, tol / (2 exp(sum))).  |S|: a
    Poisson bracket at tol 0.25, and where exp(-P) is wider than tol, one at
    reference_fine_tol(P_lo, tol).  Theta: the parts'
    brackets at tol / 2 multiplied, (1.0, 1.0) with no part."""
    if isinstance(f, InnerFunction):
        lo = hi = 1.0
        for part in (f.blaschke, f.singular):
            if part is not None:
                plo, phi = reference_modulus_bounds(part, z, 0.5 * tol)
                lo, hi = lo * plo, hi * phi
        return (lo, hi)
    if isinstance(f, SingularInner):
        plo, phi = reference_poisson_bounds(f.sigma, z, 0.25)
        lo, hi = math.exp(-phi), math.exp(-plo)
        if hi - lo <= tol:
            return (lo, hi)
        plo, phi = reference_poisson_bounds(f.sigma, z, reference_fine_tol(plo, tol))
        return (math.exp(-phi), math.exp(-plo))
    assert isinstance(f, BlaschkeProduct)
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("modulus bounds require |z| < 1")
    arr, s = f.zeros.as_array(), 0.0
    if arr.size:
        num = np.abs(arr - z)
        s = -math.inf if not num.all() else float(
            (np.log(num) - np.log(np.abs(1.0 - np.conj(arr) * z))).sum())
    upper = math.exp(s)
    if s == -math.inf or upper <= 0.5 * tol:
        return (0.0, upper)
    budget, depth = max(1e-15, 0.5 * tol / upper), 1.0 - abs(z)
    bound = reference_tail_bound(f.zeros.tail_blaschke_sum, depth)
    if bound > budget:
        raise TailBoundInsufficient("certified tail %g exceeds budget %g at 1 - |z| = %g"
                                    % (bound, budget, depth))
    return (math.exp(s - bound), upper)


def reference_march_next(comp, t: float, origin: complex, direction: int):
    """First parameter beyond t (in the given direction) at rho == STEP,
    its point, and the rho evaluated there."""
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
        z = comp.point(mid)
        rho = pseudo_distance(z, origin)
        if abs(rho - STEP) <= RHO_TOL:
            return mid, z, rho
        if (rho < STEP) == (direction > 0):
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    z = comp.point(mid)
    return mid, z, pseudo_distance(z, origin)


def reference_separation_delta(pts: np.ndarray) -> float:
    """min rho(z_i, z_j) over every pair i != j of a complex array, the
    rho matrix built in row blocks, as |z_i - z_j| / |1 - conj(z_i) z_j|."""
    delta = math.inf
    chunk = max(1, BLOCK_ELEMENTS // pts.size)
    for i in range(0, pts.size, chunk):
        block = pts[i:i + chunk]
        d = np.abs(block[:, None] - pts[None, :]) / \
            np.abs(1.0 - np.conj(block)[:, None] * pts[None, :])
        d[np.arange(block.size), i + np.arange(block.size)] = np.inf
        delta = min(delta, float(d.min()))
    return delta


def brute_force_components(modulus_fn, eps, n=2048):
    xs = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    mask = (np.abs(Z) < 1.0) & (modulus_fn(Z) < eps)
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    runs_prev, next_id = [], 0
    for i in range(n):
        row = mask[i]
        d = np.diff(row.astype(np.int8))
        starts = list(np.where(d == 1)[0] + 1)
        ends = list(np.where(d == -1)[0] + 1)
        if row[0]:
            starts = [0] + starts
        if row[-1]:
            ends = ends + [n]
        runs = []
        for s, e in zip(starts, ends):
            parent[next_id] = next_id
            runs.append((s, e, next_id))
            next_id += 1
        pi = 0
        for s, e, rid in runs:
            while pi < len(runs_prev) and runs_prev[pi][1] <= s:
                pi += 1
            j = pi
            while j < len(runs_prev) and runs_prev[j][0] < e:
                union(rid, runs_prev[j][2])
                j += 1
        runs_prev = runs
    return len({find(i) for i in range(next_id)})


def blaschke_modulus_fn(zeros):
    def fn(Z):
        out = np.ones_like(Z, dtype=np.complex128)
        for a in zeros:
            pref = abs(a) / a if a != 0 else 1.0
            out *= pref * (a - Z) / (1.0 - np.conj(a) * Z)
        return np.abs(out)
    return fn
