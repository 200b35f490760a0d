import bisect
import math
import cmath
import random
import re
import tracemalloc
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import reference_march_next
from onecomp import companion, families
from onecomp.classify import ONE_COMPONENT, criterion_scan
from onecomp.companion import (GRID_MAX_K, RHO_ERR, RHO_TOL, SECTOR_TOL, STEP, CurvePiece,
                               GammaComponent, GammaCurve, SpotCheck, _spot_check_b,
                               build_gamma, choose_radii, construct_companion, place_zeros)
from onecomp.errors import (DomainError, OnecompError, RadiusSearchExhausted,
                            TailBoundInsufficient)
from onecomp.geometry import (TWO_PI, BoundaryArc, PointSupport, carleson_square,
                              level_points, pseudo_distance, whitney_arcs)
from onecomp.inner import (BlaschkeProduct, InnerFunction, MuMeasure, SingularInner,
                           ZeroSequence)
from onecomp.measures import AtomicMeasure, CdfMeasure


def circle_gamma():
    """Degenerate decomposition for an empty singular set: one closed chain."""
    const = InnerFunction()
    arcs = list(whitney_arcs(PointSupport.of([])))
    chain = choose_radii(const, arcs)
    return chain, build_gamma(chain)


class TestChooseRadii:
    def test_constant_function_uses_smallest_grid_radius(self):
        chain, _ = circle_gamma()
        assert chain.radii == [0.5, 0.5, 0.5, 0.5]

    def test_epsilon_schedule_defaults_to_arc_length(self):
        chain, _ = circle_gamma()
        assert chain.epsilons == [0.5] * 4

    def test_atom_radii_shrink_toward_singularity(self):
        theta = families.single_atom()
        support = theta.singular_set()
        arcs = list(whitney_arcs(support, min_length=TWO_PI * 2.0 ** -8))
        chain = choose_radii(theta, arcs)
        # arcs closer to the atom need radii closer to the boundary
        by_dist = sorted(zip(arcs, chain.radii),
                         key=lambda ar: abs(ar[0].center_angle - math.pi))
        far_radius = by_dist[0][1]
        near_radius = by_dist[-1][1]
        assert near_radius > far_radius
        # a-posteriori depth bound: 1 - r_n stays within a constant of
        # d(I_n, sing) * eps_n (the Poisson kernel away from the atom is
        # bounded by 2(1-r)/chord^2, so depth ~ eps * d^2 <= eps * d * pi)
        for arc, r, eps in zip(arcs, chain.radii, chain.epsilons):
            d = support.angular_distance_to_arc(arc)[0]
            assert 1.0 - r <= 4.0 * d * eps

    def test_finite_blaschke_radii_above_zeros(self):
        theta = families.finite_blaschke([0.5, -0.3j])
        arcs = list(whitney_arcs(PointSupport.of([]),))
        chain = choose_radii(theta, arcs)
        assert min(chain.radii) > 0.5


def probe_and_bisect_radii(theta, arcs):
    """The earlier radius search, kept as a reference: an exponential probe
    for a passing k, then a bisection below it, which is exact only when
    passing is monotone in k."""
    radii = []
    for arc in arcs:
        eps = min(0.5, arc.length)
        tol = max(1e-12, eps * 1e-2)

        def passes(k):
            for j in range(k, min(k + 4, 52)):
                r_band = 1.0 - 2.0 ** -j
                count = max(2, min(int(arc.length / 2.0 ** -j) + 2, 96))
                for i in range(count):
                    z = r_band * cmath.exp(1j * (arc.lo + arc.length * i / (count - 1)))
                    try:
                        if theta.modulus_bounds(z, tol).lo < 1.0 - eps:
                            return False
                    except TailBoundInsufficient:
                        return False
            return True

        failing, k = 0, 1
        while not passes(k):
            assert k < GRID_MAX_K, "reference search exhausted"
            failing, k = k, min(2 * k, GRID_MAX_K)
        k = failing + 1 + bisect.bisect_left(range(failing + 1, k), True, key=passes)
        radii.append(1.0 - 2.0 ** -k)
    return radii


def per_point_radii(theta, arcs):
    """The radius walk with every sample bracketed by its own scalar call,
    kept as a reference: the radii of choose_radii, or its error."""
    radii = []
    for arc in arcs:
        eps = min(0.5, arc.length)
        tol = max(1e-12, eps * 1e-2)

        def first_failing_band(k):
            for j in range(k, min(k + 4, 52)):
                r_band = 1.0 - 2.0 ** -j
                count = max(2, min(int(arc.length / 2.0 ** -j) + 2, 96))
                for i in range(count):
                    z = r_band * cmath.exp(1j * (arc.lo + arc.length * i / (count - 1)))
                    try:
                        if theta.modulus_bounds(z, tol).lo < 1.0 - eps:
                            return j, False
                    except TailBoundInsufficient:
                        return j, True
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
    return radii


def walk_outcome(walk, theta, arcs):
    """The radii a walk returns, or the type and message of its error."""
    try:
        return walk(theta, arcs)
    except OnecompError as exc:
        return type(exc), str(exc)


def walked_radii(theta, arcs):
    return choose_radii(theta, arcs).radii


def zeros_and_atom():
    return InnerFunction(blaschke=BlaschkeProduct([0.5, -0.3j]),
                         singular=SingularInner(AtomicMeasure([(1.0, 0.5)])))


class BandTheta:
    """-log|Theta| is unbounded on the listed radius bands 1 - 2^-j and 0
    elsewhere, so the region of k fails when one of its bands k .. k + 3 is
    listed; with a declared zero tail, the walk fails the deep k on the
    tail.  Every bounded (center, half width, k) is recorded."""

    def __init__(self, failing, zero_tail=0.0):
        self.failing = set(failing)
        self.blaschke = BlaschkeProduct(ZeroSequence([], tail_blaschke_sum=zero_tail))
        self.regions = []

    def sector_bounds(self, centers, half_widths, x_lo, x_hi, tol):
        ks = np.round(-np.log2(x_hi)).astype(int).tolist()
        self.regions += [(c, h, k) for c, h in zip(centers.tolist(), half_widths.tolist())
                         for k in ks]
        low = [bool(self.failing & set(range(k, k + 4))) for k in ks]
        return np.tile(np.where(low, math.inf, 0.0), (len(centers), 1))


class TestRadiusWalk:
    def test_non_monotone_bands_give_smallest_passing_k_once_each(self):
        # k = 9 passes (bands 9..12) but k = 10..13 fail on band 13, so
        # passing is not monotone in k; a bisection between the probes 8
        # and 16 lands on 14
        failing = {4, 8, 13}
        smallest = min(k for k in range(1, GRID_MAX_K + 1)
                       if not failing & set(range(k, min(k + 4, 52))))
        theta = BandTheta(failing)
        chain = choose_radii(theta, [BoundaryArc.from_endpoints(1.0, 1.25)])
        assert smallest == 9
        assert chain.radii == [1.0 - 2.0 ** -smallest]
        assert len(theta.regions) == len(set(theta.regions))

    @pytest.mark.parametrize("family", ["single_atom", "two_atoms", "example1",
                                        "radial_sparse"])
    def test_same_radii_as_probe_and_bisection(self, family):
        builder = getattr(families, family)
        arcs = list(whitney_arcs(builder().singular_set(),
                                 min_length=TWO_PI * 2.0 ** -8))
        assert choose_radii(builder(), arcs).radii == \
            probe_and_bisect_radii(builder(), arcs)

    @pytest.mark.parametrize("builder, depth", [
        (families.single_atom, 14), (families.two_atoms, 14),
        (families.example1, 14), (zeros_and_atom, 14),
        (families.radial_sparse, 14), (families.radial_geometric, 14),
        (families.cantor_inner, 8)],
        ids=["atom1", "atoms2", "example1", "zeros_and_atom", "radial_sparse",
             "radial_geometric", "cantor"])
    def test_same_radii_as_per_point_walk(self, builder, depth):
        arcs = list(whitney_arcs(builder().singular_set(),
                                 min_length=TWO_PI * 2.0 ** -depth))
        if builder is families.cantor_inner:
            # every 17th of 42 arcs: each Cantor bracket is a quadrature
            arcs = arcs[::17]
        expected = walk_outcome(per_point_radii, builder(), arcs)
        assert walk_outcome(walked_radii, builder(), arcs) == expected
        if builder is families.radial_geometric:
            assert expected[0] is TailBoundInsufficient

    @pytest.mark.parametrize("zero_tail, error", [(2.0 ** -48, TailBoundInsufficient),
                                                   (0.0, RadiusSearchExhausted)],
                             ids=["tail", "no_tail"])
    def test_the_last_k_decides_the_error(self, zero_tail, error):
        # every region is low; with radial_geometric's tail the deep k fail
        # on the tail, unbounded, and the last of them names the tail
        theta = BandTheta(range(1, 54), zero_tail)
        arc = BoundaryArc.from_endpoints(1.0, 1.25)
        with pytest.raises(error):
            choose_radii(theta, [arc])
        bounded = sorted(k for _, half, k in theta.regions if half)   # arcs, not their ends
        if zero_tail:
            assert bounded == list(range(1, bounded[-1] + 1)) and bounded[-1] < GRID_MAX_K
        else:
            assert bounded == list(range(1, GRID_MAX_K + 1))

    @pytest.mark.parametrize("builder", [families.single_atom, zeros_and_atom],
                             ids=["atom1", "zeros_and_atom"])
    def test_no_modulus_bounds_and_one_bound_per_region(self, builder, monkeypatch):
        def unused(*args):
            raise AssertionError("choose_radii brackets a point")

        for owner in (InnerFunction, BlaschkeProduct, SingularInner):
            monkeypatch.setattr(owner, "modulus_bounds", unused)
        monkeypatch.setattr(AtomicMeasure, "poisson_bounds", unused)
        regions = []
        bounds = InnerFunction.sector_bounds

        def recorded(theta, centers, half_widths, x_lo, x_hi, tol):
            regions.extend((c, h, x) for c, h in zip(centers.tolist(), half_widths.tolist())
                           for x in x_hi.tolist())
            return bounds(theta, centers, half_widths, x_lo, x_hi, tol)

        monkeypatch.setattr(InnerFunction, "sector_bounds", recorded)
        theta = builder()
        arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -14))
        choose_radii(theta, arcs)
        # pieces of no width are the ends of pieces, which halves share
        pieces = [region for region in regions if region[1]]
        assert len(pieces) == len(set(pieces))
        # each arc's every k is bounded once, in one call; halves come after
        whole = [(c, h) for c, h, _ in regions if (c, h) in
                 {(arc.center_angle, arc.half_width) for arc in arcs}]
        assert Counter(whole) == {(arc.center_angle, arc.half_width): GRID_MAX_K
                                  for arc in arcs}

    def test_a_dip_between_samples_fails_the_region(self):
        # the zero at angle -1.9 lies under the arc [pi, 3 pi / 2]: at depth
        # 2^-5, |Theta| dips below 1 - eps = 1/2 between the samples that the
        # sampled walk bracketed, so k = 5 is not certified, and k = 6 is
        zeros = [0.9 * cmath.exp(-1.9j), 0.8 * cmath.exp(0.13j), 0.23 * cmath.exp(0.15j),
                 0.38 * cmath.exp(0.79j), 0.88 * cmath.exp(-1.1j), 0.34 * cmath.exp(0.28j)]
        theta = families.finite_blaschke(zeros)
        arc = BoundaryArc.from_endpoints(math.pi, 1.5 * math.pi)
        assert abs(theta.evaluate((1.0 - 2.0 ** -5) * cmath.exp(4.3846j))) < 0.5
        assert per_point_radii(theta, [arc]) == [1.0 - 2.0 ** -5]
        assert choose_radii(theta, [arc]).radii == [1.0 - 2.0 ** -6]

    def test_a_tail_failing_every_k_raises_on_the_tail(self):
        theta = InnerFunction(blaschke=BlaschkeProduct(ZeroSequence([0.0], 2.7e-4)))
        arcs = list(whitney_arcs(theta.singular_set()))
        expected = walk_outcome(per_point_radii, theta, arcs)
        assert expected[0] is TailBoundInsufficient
        assert walk_outcome(walked_radii, theta, arcs) == expected

    def test_exhausted_search_message(self):
        # every band from 1 - 2^-26 down fails because the zero tail cannot
        # be certified there, so the walk stops on the tail, not on samples
        message = ("zeros_tail_blaschke_sum 3.55271e-15 is too large to certify "
                   "the 1 - 0.000383495 floor down to 1 - 2^-50 on arc at angle "
                   "0.000575243")
        with pytest.raises(TailBoundInsufficient, match=re.escape(message)):
            construct_companion(families.radial_geometric(), horizon=60, depth=6)

    def test_search_exhausted_by_samples(self):
        theta = BandTheta(range(1, 52))
        message = ("no grid radius down to 1 - 2^-50 meets the 1 - 0.25 floor on "
                   "arc at angle 1.125; singular set under-described?")
        with pytest.raises(RadiusSearchExhausted, match=re.escape(message)):
            choose_radii(theta, [BoundaryArc.from_endpoints(1.0, 1.25)])
        assert len(theta.regions) == len(set(theta.regions))


def mp_kernel(x, t, pole):
    """(1 - |z|^2) / |z - e^{i pole}|^2 at z = (1 - x) e^{i t}."""
    return x * (2 - x) / (x * x + 4 * (1 - x) * mpmath.sin((t - pole) / 2) ** 2)


def mp_gap(t, lo, hi):
    """Angular distance from the angle t to the arc [lo, hi]."""
    center, half = (lo + hi) / 2, (hi - lo) / 2
    d = abs(mpmath.fmod(t - center + 3 * mpmath.pi, 2 * mpmath.pi) - mpmath.pi)
    return max(mpmath.mpf(0), d - half)


def atoms_neg_log(atoms, tail=0.0, hull=()):
    """P[sigma] at (1 - x) e^{it} for listed atoms (angle, mass) and a tail
    mass placed where it hurts most: at the hull point nearest the angle."""
    def neg_log(x, t):
        total = mpmath.fsum(m * mp_kernel(x, t, a) for a, m in atoms)
        if tail:
            g = min(mp_gap(t, mpmath.mpf(h.center_angle) - mpmath.mpf(h.half_width),
                           mpmath.mpf(h.center_angle) + mpmath.mpf(h.half_width))
                    for h in hull)
            total += tail * mp_kernel(x, t, t + g)
        return total
    return neg_log


def cantor_neg_log(x, t):
    """A lower bound of P[sigma] at (1 - x) e^{it} for the middle-thirds
    measure: each generation cell's mass times the kernel at the cell's
    point farthest from t, cells split while wider than 1/50 of that
    distance, to generation 14."""
    def cell(a, b, n):
        lo, hi = 2 * mpmath.pi * a, 2 * mpmath.pi * b
        near, mid = mp_gap(t, lo, hi), (lo + hi) / 2
        if n < 14 and (b - a) * 2 * mpmath.pi * 50 > near:
            third = (b - a) / 3
            return cell(a, a + third, n + 1) + cell(b - third, b, n + 1)
        far = min(mpmath.pi, abs(mpmath.fmod(t - mid + 3 * mpmath.pi, 2 * mpmath.pi)
                                 - mpmath.pi) + (hi - lo) / 2)
        return mpmath.mpf(2) ** -n * mp_kernel(x, t, t + far)
    return cell(mpmath.mpf(0), mpmath.mpf(1), 0)


def zeros_neg_log(zeros, tail):
    """-log|B| at (1 - x) e^{it}: the listed factors, and the declared
    tail's bound u / (1 - u), u = 4 T (2 - x) / x (None past u = 1/2)."""
    ws = [mpmath.mpc(w.real, w.imag) for w in zeros]

    def neg_log(x, t):
        u = 4 * tail * (2 - x) / x
        if u >= 0.5:
            return None
        z = (1 - x) * mpmath.expj(t)
        return u / (1 - u) - mpmath.fsum(mpmath.log(abs(w - z) / abs(1 - mpmath.conj(w) * z))
                                         for w in ws)
    return neg_log


def harm_depths(poles):
    """For boundary poles: the depths of largest Poisson kernel at the arc's
    nearest end, x* = 2 s / (c + s) with s, c = sin, cos of half the gap."""
    def depths(neg_log, lo, hi, a, b):
        for p in poles:
            g = mp_gap(mpmath.mpf(p), lo, hi)
            s, c = mpmath.sin(g / 2), mpmath.cos(g / 2)
            yield 2 * s / (c + s)
    return depths


def searched_depths(poles):
    """For zeros: the depth of largest -log|B| at the arc end nearest each
    zero's angle, by a ternary search over [a, b]."""
    def depths(neg_log, lo, hi, a, b):
        for p in poles:
            p = mpmath.mpf(p)
            t = min((lo, hi), key=lambda end: mp_gap(p, end, end))
            a_, b_ = a, b
            for _ in range(40):
                m1, m2 = a_ + (b_ - a_) / 3, b_ - (b_ - a_) / 3
                v1, v2 = neg_log(m1, t), neg_log(m2, t)
                if v1 is None or v2 is None:
                    break
                a_, b_ = (m1, b_) if v1 < v2 else (a_, m2)
            yield (a_ + b_) / 2
    return depths


class TestSectorFloorOracle:
    """The floor a region passes on, exp(-sector_bounds) lowered past exp's
    rounding, never exceeds |Theta| at 50 digits on a grid of the region
    {x_lo <= 1 - |z| <= x_hi, arg z in the arc}: its corners and edges,
    interior points, the angles of poles inside the arc, and each pole's
    depth of largest harm, clamped into the region."""

    @staticmethod
    def check(theta, neg_log, arcs, ks, poles, depths):
        with mpmath.workdps(50):
            for arc in arcs:
                lo = mpmath.mpf(arc.center_angle) - mpmath.mpf(arc.half_width)
                hi = mpmath.mpf(arc.center_angle) + mpmath.mpf(arc.half_width)
                x_lo = np.array([2.0 ** -(k + 3) for k in ks])
                x_hi = np.array([2.0 ** -k for k in ks])
                bound = theta.sector_bounds(np.array([arc.center_angle]),
                                            np.array([arc.half_width]), x_lo, x_hi,
                                            SECTOR_TOL)[0]
                floors = np.exp(-bound) * (1.0 - 2.0 ** -50)
                angles = [lo + (hi - lo) * i / 4 for i in range(5)]
                angles += [mpmath.mpf(p) for p in poles if mp_gap(mpmath.mpf(p), lo, hi) == 0]
                for k, floor, a, b in zip(ks, floors.tolist(), x_lo.tolist(), x_hi.tolist()):
                    a, b = mpmath.mpf(a), mpmath.mpf(b)
                    xs = [a * 2 ** (j / 2) for j in range(7)]
                    xs += [min(max(x, a), b) for x in depths(neg_log, lo, hi, a, b)]
                    for x in xs:
                        for t in angles:
                            value = neg_log(x, t)
                            assert value is None or floor <= mpmath.exp(-value), (arc, k, x, t)

    def test_one_atom(self):
        theta = families.single_atom()
        arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -10))
        self.check(theta, atoms_neg_log([(0.0, 1.0)]), arcs[::2], range(1, 34, 2), [0.0],
                   harm_depths([0.0]))

    def test_example1_with_its_tail_hull(self):
        theta = families.example1()
        measure = theta.singular.sigma
        arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -8))
        neg_log = atoms_neg_log(measure.atoms, measure.tail_mass, measure.support().hull)
        poles = [a for a, _ in measure.atoms[:4]] + [0.0]
        self.check(theta, neg_log, arcs[::6], range(1, 30, 5), poles, harm_depths(poles))

    def test_middle_thirds_cantor(self):
        theta = families.cantor_inner()
        arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -6))
        ends = [2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, 0.0]
        self.check(theta, cantor_neg_log, arcs[::5], range(1, 20, 6), [], harm_depths(ends))

    def test_zeros_with_a_declared_tail(self):
        zeros = [0.5, -0.3j, 0.9 * cmath.exp(2j), 0.99 * cmath.exp(-1j),
                 (1.0 - 2.0 ** -20) * cmath.exp(0.5j)]
        theta = InnerFunction(blaschke=BlaschkeProduct(ZeroSequence(zeros, 1e-12)))
        arcs = [BoundaryArc.from_endpoints(a, a + length) for a, length in
                [(0.4, 0.2), (1.9, 0.05), (-1.2, 0.3), (3.0, 0.5), (4.5, 0.4)]]
        angles = [cmath.phase(w) for w in zeros]
        self.check(theta, zeros_neg_log(zeros, 1e-12), arcs, range(1, 26, 3), angles,
                   searched_depths(angles))


class TestGamma:
    def test_empty_singular_set_gives_closed_circle(self):
        _, gamma = circle_gamma()
        assert len(gamma.components) == 1
        assert gamma.components[0].closed
        assert gamma.components[0].covered_angle() == pytest.approx(TWO_PI)

    def test_single_point_singular_set_single_open_chain(self):
        theta = families.single_atom()
        arcs = list(whitney_arcs(theta.singular_set(),
                                 min_length=TWO_PI * 2.0 ** -9))
        gamma = build_gamma(choose_radii(theta, arcs))
        assert len(gamma.components) == 1
        assert not gamma.components[0].closed

    def test_two_point_singular_set_two_chains(self):
        theta = families.two_atoms()
        arcs = list(whitney_arcs(theta.singular_set(),
                                 min_length=TWO_PI * 2.0 ** -9))
        gamma = build_gamma(choose_radii(theta, arcs))
        assert len(gamma.components) == 2

    def test_polyline_csv(self):
        _, gamma = circle_gamma()
        text = gamma.to_polyline_csv()
        assert text.startswith("component,re,im\n")


class TestPlaceZeros:
    def test_circle_equal_spacing(self):
        _, gamma = circle_gamma()
        placement = place_zeros(gamma, horizon=500)
        # solve rho(0.5 e^{i phi}, 0.5) = 1/10 for the angular gap
        # rho = 2 r sin(phi/2) / |1 - r^2 e^{i phi}|
        r = 0.5
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            rho = pseudo_distance(r * cmath.exp(1j * mid), r)
            if rho < 0.1:
                lo = mid
            else:
                hi = mid
        gap = 0.5 * (lo + hi)
        expected = int(TWO_PI / gap)
        assert abs(len(placement.zeros) - expected) <= 1
        assert max(abs(x - 0.1) for x in placement.consecutive_rhos) < 1e-6

    def test_consecutive_steps_within_tolerance(self):
        theta = families.single_atom()
        arcs = list(whitney_arcs(theta.singular_set(),
                                 min_length=TWO_PI * 2.0 ** -10))
        gamma = build_gamma(choose_radii(theta, arcs))
        placement = place_zeros(gamma, horizon=250)
        assert len(placement.zeros) == 250
        assert max(abs(x - 0.1) for x in placement.consecutive_rhos) < 1e-6

    def test_chain_neighbor_structure(self):
        theta = families.single_atom()
        arcs = list(whitney_arcs(theta.singular_set(),
                                 min_length=TWO_PI * 2.0 ** -10))
        gamma = build_gamma(choose_radii(theta, arcs))
        placement = place_zeros(gamma, horizon=120)
        zs = placement.zeros
        # no pair of materialized zeros comes closer than one step
        worst = min(pseudo_distance(zs[i], zs[j])
                    for i in range(len(zs)) for j in range(i + 1, len(zs)))
        assert worst >= 0.1 - 1e-6
        # interior zeros have exactly two neighbors at the step distance
        for i in range(1, len(zs) - 1):
            near = sorted(pseudo_distance(zs[i], zs[j])
                          for j in range(len(zs)) if j != i)[:2]
            assert all(abs(d - 0.1) < 1e-6 for d in near)


def gamma_of(theta, depth: int) -> GammaCurve:
    arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -depth))
    return build_gamma(choose_radii(theta, arcs))


def placed_by(march, gamma: GammaCurve, horizon: int):
    """place_zeros with the given march step; the number of rho evaluations
    made, the march's and place_zeros' own; and the march's steps, each as
    (origin, zero, rho returned, evaluations the step made)."""
    calls, steps = [0], []

    def counted(z, w):
        calls[0] += 1
        return pseudo_distance(z, w)

    def step(comp, t, origin, direction):
        before = calls[0]
        out = march(comp, t, origin, direction)
        if out is not None:
            steps.append((origin, out[1], out[2], calls[0] - before))
        return out

    with mock.patch.object(companion, "_march_next", step), \
            mock.patch.object(companion, "pseudo_distance", counted), \
            mock.patch.object(conftest, "pseudo_distance", counted):
        placement = place_zeros(gamma, horizon)
    return placement, calls[0], steps


MARCH = settings(max_examples=25, derandomize=True, deadline=None, database=None)
# atom angles anywhere, and next to either side of the 0 = 2 pi cut
ANGLES = st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.floats(0.0, 1e-9),
                   st.floats(TWO_PI - 1e-9, TWO_PI, exclude_max=True))


class TestFencedMarch:
    """The march evaluates rho only where no fence decides a test, so it
    places what reference_march_next, which evaluates every point, places:
    the same Placement, bit for bit, with far fewer evaluations."""

    @staticmethod
    def same(gamma: GammaCurve, horizon: int):
        fenced, n_fenced, steps = placed_by(companion._march_next, gamma, horizon)
        reference, n_reference, _ = placed_by(reference_march_next, gamma, horizon)
        assert fenced == reference
        # each step's rho is the one place_zeros evaluated for its chain
        # pair before, (last zero, new zero) forward and the other way back
        for origin, zero, rho, _ in steps:
            assert rho == pseudo_distance(origin, zero) == pseudo_distance(zero, origin)
        return fenced, n_fenced, n_reference

    @MARCH
    @given(st.lists(st.tuples(ANGLES, st.floats(0.05, 2.0)), min_size=1, max_size=4,
                    unique_by=lambda atom: atom[0]))
    def test_random_atoms(self, atoms):
        theta = InnerFunction(singular=SingularInner(AtomicMeasure(atoms)))
        self.same(gamma_of(theta, 8), 300)

    @MARCH
    @given(st.lists(st.complex_numbers(max_magnitude=0.9), min_size=1, max_size=5))
    def test_random_zero_sets(self, zeros):
        self.same(gamma_of(families.finite_blaschke(zeros), 6), 300)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_atom1_turned_by_bench_seeds(self, seed):
        # bench/inputs.py turns atom1 by 2 pi random.Random(seed).random();
        # the open chain is marched both ways from its deepest zero
        theta = InnerFunction(singular=SingularInner(
            AtomicMeasure([(TWO_PI * random.Random(seed).random(), 1.0)])))
        placement, _, _ = self.same(gamma_of(theta, 10), 500)
        moduli = [abs(z) for z in placement.zeros]
        assert 0 < moduli.index(min(moduli)) < len(moduli) - 1

    @pytest.mark.parametrize("zeros", [[0.5], [0.5, 0.5j], [0.5, 0.5j, -0.5]])
    def test_closed_chains(self, zeros):
        gamma = gamma_of(families.finite_blaschke(zeros), 6)
        assert [c.closed for c in gamma.components] == [True]
        placement, _, _ = self.same(gamma, 500)
        assert placement.exhausted

    def test_atom1_evaluates_rho_at_most_2_times_per_zero(self):
        # every point evaluated costs 24.5 per zero
        placement, n_fenced, n_reference = self.same(gamma_of(families.single_atom(), 10), 500)
        assert n_fenced <= 2 * len(placement.zeros) and n_reference > 24 * len(placement.zeros)

    def test_no_rho_is_evaluated_at_a_fence(self):
        # the fences are certified by their closed form, so no evaluation
        # lands on one, and they hold on almost every step
        gamma = gamma_of(families.single_atom(), 10)
        fences, evaluated, steps = set(), set(), [0]
        march = companion._march_next

        def step(comp, t, origin, direction):
            limits = companion._fences(comp, t, abs(origin), direction)[2:]
            fences.update(comp.point(direction * y) for y in limits if not math.isinf(y))
            steps[0] += 1
            return march(comp, t, origin, direction)

        def recorded(z, w):
            evaluated.add(z)
            return pseudo_distance(z, w)

        with mock.patch.object(companion, "_march_next", step), \
                mock.patch.object(companion, "pseudo_distance", recorded):
            place_zeros(gamma, 500)
        assert len(fences) >= 1.9 * steps[0] and not fences & evaluated

    def test_place_zeros_takes_each_chain_rho_from_the_march(self):
        # an open chain: every evaluation is a march step's, one per zero
        # fewer than when place_zeros evaluated each chain pair once more
        gamma = gamma_of(families.single_atom(), 10)
        assert [c.closed for c in gamma.components] == [False]
        placement, calls, steps = placed_by(companion._march_next, gamma, 500)
        assert calls == sum(n for *_, n in steps)
        assert len(steps) == len(placement.zeros) - 1
        assert sorted(placement.consecutive_rhos) == sorted(rho for _, _, rho, _ in steps)

    def test_rho_after_200_halvings_is_evaluated_at_the_midpoint(self):
        # with RHO_TOL = 0 no midpoint passes the exit test, so the march
        # returns its last midpoint after 200 halvings
        gamma = gamma_of(families.single_atom(), 8)
        comp = gamma.components[0]
        t = comp.min_modulus_param()
        origin = comp.point(t)
        with mock.patch.object(companion, "RHO_TOL", 0.0), \
                mock.patch.object(conftest, "RHO_TOL", 0.0):
            for direction in (1, -1):
                mid, z, rho = companion._march_next(comp, t, origin, direction)
                assert (mid, z, rho) == reference_march_next(comp, t, origin, direction)
                assert z == comp.point(mid) and rho == pseudo_distance(z, origin) != STEP

    def test_radial_pieces_outward_and_inward(self):
        # out along a ray and back in along it: a closed component marches
        # forward only, so its steps go both ways along a radial piece
        gamma = GammaCurve([GammaComponent([CurvePiece("radial", 0.5, 1.0, 0.49),
                                            CurvePiece("radial", 0.99, 1.0, -0.49)],
                                           closed=True)])
        placement, n_fenced, n_reference = self.same(gamma, 500)
        assert placement.exhausted and n_fenced < n_reference / 4

    def test_a_fence_decides_nothing_past_its_piece(self):
        # the first arc ends just past the outer fence of the march from
        # its start, at arclength 0.0191, and the second starts over at
        # angle 0.002: the h-step that lands on it finds rho < STEP, so the
        # march goes on along the second arc, which a fence held past the
        # end of its piece would stop
        r = 0.9
        gamma = GammaCurve([GammaComponent([CurvePiece("arc", r, 0.0, 0.0195 / r),
                                            CurvePiece("arc", r, 0.002, 0.05)])])
        self.same(gamma, 2)

    def test_small_circles(self):
        # at radius 0.04 no point of the circle is a step from another, and
        # an arc fence's asin would have no argument; at 0.2 one can be
        pieces = [[CurvePiece("arc", r, j * TWO_PI / 3, TWO_PI / 3) for j in range(3)]
                  for r in (0.04, 0.2)]
        placement, _, _ = self.same(GammaCurve([GammaComponent(p, closed=True)
                                                for p in pieces]), 100)
        assert placement.exhausted and len(placement.zeros) > 2

    def test_every_point_evaluated_where_no_fence_can_hold(self):
        # at 1 - |o| = 2^-44, 4 E = 4 RHO_ERR / (1 - |o|) is past STEP
        gamma = GammaCurve([GammaComponent([CurvePiece("arc", 1.0 - 2.0 ** -44, 0.0, 1e-11)])])
        placement, n_fenced, n_reference = self.same(gamma, 40)
        assert len(placement.zeros) == 40 and n_fenced == n_reference


def mp_rho(z, o) -> mpmath.mpf:
    return abs(z - o) / abs(1 - mpmath.conj(z) * o)


class TestFenceErrorOracle:
    """The float rho at a piece's point of float coordinate q is the exact
    rho at the exact point of q within E = RHO_ERR / (1 - |o|), checked at
    50 digits on arcs and rays at 1 - 2^-k, o on the piece and off it, at
    points with rho near STEP."""

    @pytest.mark.parametrize("k", range(2, 41))
    def test_float_rho_within_e(self, k):
        rng = random.Random(k)
        delta, near = 2.0 ** -k, []
        with mpmath.workdps(50):
            for _ in range(4):
                beta = rng.uniform(0.0, TWO_PI)
                arc = CurvePiece("arc", 1.0 - delta, beta, 1.0)
                ray = rng.choice([CurvePiece("radial", 1.0 - 3.0 * delta, beta, 1.5 * delta),
                                  CurvePiece("radial", 1.0 - 1.5 * delta, beta, -1.5 * delta)])
                for piece in (arc, ray):
                    t = piece.length * rng.uniform(0.3, 0.7)
                    on = piece.point(t)
                    off = ((1.0 - (1.0 - abs(on)) * rng.uniform(0.85, 1.15)) * on / abs(on)
                           * cmath.exp(1j * delta * rng.uniform(-0.05, 0.05)))
                    for o in (on, off):
                        for _ in range(6):
                            # rho is near STEP about 0.2 (1 - |o|) away
                            s = t + (rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.25)
                                     * (1.0 - abs(o)))
                            # the exact point of the float radius or angle
                            if piece.kind == "arc":
                                z = piece.radius * mpmath.expj(piece.angle + s / piece.radius)
                            else:
                                u = piece.radius + math.copysign(s, piece.extent)
                                z = u * mpmath.expj(beta)
                            exact = mp_rho(z, mpmath.mpc(o.real, o.imag))
                            if 0.05 < exact < 0.2:
                                near.append(abs(pseudo_distance(piece.point(s), o) - exact)
                                            * (1.0 - abs(o)) / RHO_ERR)
        assert len(near) >= 60 and max(near) <= 1.0


U = 2.0 ** -53


def mp_point(comp: GammaComponent, y: float) -> mpmath.mpc:
    """The exact point of the float radius or angle comp.point(y) rounds."""
    y = min(max(y, 0.0), comp.length)
    i = bisect.bisect_right(comp.offsets, y, 0, len(comp.pieces)) - 1
    piece, x = comp.pieces[i], y - comp.offsets[i]
    if piece.kind == "arc":
        return piece.radius * mpmath.expj(piece.angle + x / piece.radius)
    return (piece.radius + math.copysign(x, piece.extent)) * mpmath.expj(piece.angle)


class TestFenceOracle:
    """Each fence _fences places is within eta = (96 + 2t) u / d of its
    target s = STEP -+ (RHO_TOL + 4E + 2ut / d), u = 2^-53 and d = 1 - |o|,
    in the exact rho at the exact point of its float coordinate, and eta -
    2ut / d < E (_march_next's Lemma 2), checked at 50 digits: origins on
    arcs up to 2.9 radians and on rays at 1 - |o| from 2^-2 to 2^-40, where
    4E reaches STEP; both directions; piece angles next to 0 and 2 pi; t
    past a lead-in piece of length 0, up to 6 (the longest Gamma component
    of the seeded families is 5.71, radial_geometric at depth 10) and up
    to 1024."""

    @pytest.mark.parametrize("k", range(2, 41))
    def test_fence_within_eta_of_its_target(self, k):
        rng = random.Random(k)
        delta, placed, skipped = 2.0 ** -k, 0, 0
        assert 96 * U < RHO_ERR
        with mpmath.workdps(50):
            for beta in (rng.uniform(0.0, 1e-9), rng.uniform(TWO_PI - 1e-9, TWO_PI),
                         rng.uniform(0.0, TWO_PI)):
                for piece in (CurvePiece("arc", 1.0 - delta, beta, rng.uniform(0.5, 2.9)),
                              CurvePiece("radial", 1.0 - 2.0 * delta, beta, 1.5 * delta),
                              CurvePiece("radial", 1.0 - 0.5 * delta, beta, -1.5 * delta)):
                    for lead in (0.0, rng.uniform(0.0, 6.0), 2.0 ** rng.randint(3, 10)):
                        # a lead-in piece only shifts the parameter
                        comp = GammaComponent(([CurvePiece("radial", 0.0, 0.0, lead)]
                                               if lead else []) + [piece])
                        t = lead + piece.length * rng.uniform(0.05, 0.95)
                        origin = comp.point(t)
                        d = 1 - mpmath.mpf(abs(origin))
                        for direction in (1, -1):
                            limits = companion._fences(comp, t, abs(origin), direction)[2:]
                            for sign, limit in zip((-1, 1), limits):
                                if math.isinf(limit):
                                    skipped += 1
                                    continue
                                s = STEP + sign * (RHO_TOL + (4 * RHO_ERR + 2 * U * t) / d)
                                g = mp_rho(mp_point(comp, direction * limit),
                                           mpmath.mpc(origin.real, origin.imag))
                                assert abs(g - s) <= (96 + 2 * t) * U / d
                                placed += 1
        assert placed >= 40 and placed >= skipped


class TestConstructCompanion:
    def test_atom_end_to_end_small(self):
        result = construct_companion(families.single_atom(), horizon=400,
                                     depth=10)
        assert result.max_step_error < 1e-6
        assert result.separation_delta >= 0.05
        assert math.isfinite(result.box_constant) and result.box_constant > 0
        assert result.report_b.verdict == ONE_COMPONENT
        assert result.report_btheta.verdict == ONE_COMPONENT
        assert result.spot_check.passed
        assert result.verified

    def test_cantor_continuous_example(self):
        # the paper's theorem on a continuous singular measure: sigma the
        # middle-thirds Cantor measure, whose support is null
        result = construct_companion(families.cantor_inner(), horizon=200, depth=8,
                                     cutoff=TWO_PI * 2.0 ** -10)
        assert len(result.chain.arcs) == 136 and len(result.zeros.zeros) == 200
        assert result.max_step_error < 1e-6
        assert result.separation_delta == pytest.approx(0.1, abs=1e-6)
        assert result.report_b.verdict == result.report_btheta.verdict == ONE_COMPONENT
        assert result.spot_check.passed and result.spot_check.points_checked > 0
        assert result.verified

    def test_radial_zeros_theta(self):
        # sing Theta = {1}: zeros of Theta on the positive real axis stay
        # below the curve; the cutoff is matched to the scan depth
        theta = families.radial_geometric()
        result = construct_companion(theta, horizon=300, depth=9,
                                     cutoff=TWO_PI * 2.0 ** -9)
        assert result.report_btheta.verdict == ONE_COMPONENT
        chain = result.chain
        for w in theta.blaschke.zeros.zeros:
            ang = cmath.phase(w) % TWO_PI
            for arc, r in zip(chain.arcs, chain.radii):
                if arc.angular_distance_to_angle(ang) == 0.0:
                    assert abs(w) < r
                    break

    def test_positive_measure_description_rejected(self):
        # a CDF's support has positive length, and the measure is absolutely
        # continuous: no inner function, so no companion, is built on it
        with pytest.raises(DomainError, match="^measure kind cdf is absolutely continuous"):
            SingularInner(CdfMeasure([(0.0, 0.0), (1.0, 1.0), (TWO_PI, 1.0)]))

    def test_tail_estimate_finite(self):
        result = construct_companion(families.single_atom(), horizon=200,
                                     depth=8)
        assert 0.0 <= result.tail_blaschke_estimate < 8.0 * TWO_PI

    @pytest.mark.parametrize("horizon, count, exhausted, covered, tail", [
        (3, 3, False, 0.16832, 48.919),
        (2000, 87, True, TWO_PI, 0.0)])
    def test_closed_chain_horizon_accounting(self, horizon, count, exhausted,
                                             covered, tail):
        # a closed chain that the horizon cuts counts as unmarched, as an
        # open one does: partly covered, with a positive tail estimate
        result = construct_companion(families.finite_blaschke([0.5]),
                                     horizon=horizon, depth=6)
        assert len(result.zeros.zeros) == count
        assert result.placement.exhausted is exhausted
        assert result.placement.covered_angle == pytest.approx(covered, abs=1e-5)
        assert result.tail_blaschke_estimate == pytest.approx(tail, abs=1e-3)

    def test_pinned_regression_constants(self):
        # deterministic construction: separation and box constants of the
        # produced chain are pinned from the first build
        result = construct_companion(families.single_atom(), horizon=400,
                                     depth=10)
        assert result.separation_delta == pytest.approx(0.1, abs=1e-6)
        assert result.box_constant == pytest.approx(6.4808, abs=0.05)

    def test_below_curve_smallness(self):
        # sampled points strictly below the marched part of the curve keep
        # |B| under a recorded constant well inside (0, 1); arcs beyond the
        # truncation frontier carry no zeros yet and are excluded
        result = construct_companion(families.single_atom(), horizon=400,
                                     depth=10)
        from onecomp.inner import InnerFunction, BlaschkeProduct
        b = InnerFunction(blaschke=BlaschkeProduct(result.zeros))
        zs = result.zeros.zeros
        worst = 0.0
        for arc, r in zip(result.chain.arcs, result.chain.radii):
            on_arc = [z for z in zs
                      if abs(abs(z) - r) < 1e-9
                      and arc.angular_distance_to_angle(cmath.phase(z)) == 0.0]
            if len(on_arc) < 2:
                continue
            for frac in (0.25, 0.5, 0.75):
                ang = arc.lo + arc.length * frac
                for depth_factor in (1.5, 3.0):
                    radius = 1.0 - depth_factor * (1.0 - r)
                    if radius <= 0.05:
                        continue
                    worst = max(worst, b.modulus_bounds(
                        radius * cmath.exp(1j * ang), 1e-6).hi)
        assert 0.0 < worst < 0.75


def reference_spot_check(zeros, depth: int) -> SpotCheck:
    """The per-point, full-level spot check: at every scan point of every
    level, |B| through InnerFunction.modulus_bounds and one mu(Q) query.
    points_checked counts the points whose square has positive mass."""
    theta = InnerFunction(blaschke=BlaschkeProduct(ZeroSequence(zeros)))
    mu = theta.mu()
    checked = 0
    violations = []
    for level in range(2, depth + 1):
        for z in level_points(level).tolist():
            mass = mu.of_square_bounds(carleson_square(z))[0]
            checked += mass > 0.0
            if theta.modulus_bounds(z, 1e-9).lo > 12.0 / 21.0 and mass != 0.0:
                violations.append(z)
    return SpotCheck(checked, violations)


def violation_level(z: complex) -> int:
    """The level of a level_points point: |z| = 1 - 0.75 pi 2^-level."""
    return round(-math.log2((1.0 - abs(z)) / (0.75 * math.pi)))


class TestSpotCheck:
    """_spot_check_b, which visits only the points next to listed mass,
    against the full-level reference: equal violations, in order, and
    points_checked the number of positive-mass points."""

    @staticmethod
    def walked(zeros, depth: int) -> SpotCheck:
        b = InnerFunction(blaschke=BlaschkeProduct(ZeroSequence(zeros)))
        return _spot_check_b(criterion_scan(b, depth))

    def test_mu_squares_walked_once_per_scan(self, monkeypatch):
        # the scans of B and of B Theta walk them, all levels in one call;
        # the spot check reads B's
        calls = []
        walk = MuMeasure.positive_squares

        def counted(mu, levels):
            calls.append(list(levels))
            return walk(mu, levels)

        monkeypatch.setattr(MuMeasure, "positive_squares", counted)
        construct_companion(families.single_atom(), 500, 10)
        assert calls == [list(range(2, 11))] * 2

    def test_companion_matches_per_point_reference(self):
        zeros = construct_companion(families.single_atom(), horizon=500,
                                    depth=10).zeros.zeros
        expected = reference_spot_check(zeros, 10)
        assert self.walked(zeros, 10) == expected
        assert expected.passed and 0 < expected.points_checked < 4088

    def test_violation_under_a_shallow_point(self):
        # one zero 2^-12 from the circle below a depth-2 scan point: |B| is
        # near 1 at that point and its Carleson square holds the zero
        shallow = complex(level_points(2)[3])
        w = (1.0 - 2.0 ** -12) * shallow / abs(shallow)
        expected = reference_spot_check([w], 8)
        assert shallow in expected.violations and len(expected.violations) == 7
        assert self.walked([w], 8) == expected

    def test_seeded_zeros_with_violations_at_several_levels(self):
        # 40 zeros scattered 2^-4 to 2^-12 from the circle: each lies under
        # squares of several levels, at most of which |B| is near 1
        rng = np.random.default_rng(40)
        zeros = ((1.0 - 2.0 ** -rng.uniform(4.0, 12.0, 40))
                 * np.exp(1j * TWO_PI * rng.random(40))).tolist()
        expected = reference_spot_check(zeros, 10)
        assert self.walked(zeros, 10) == expected
        assert len({violation_level(z) for z in expected.violations}) > 5

    def test_memory_stays_flat_at_depth_18(self):
        # the full-level check held a level's 2^19 points and their |B|
        # brackets at once; the walk builds a few points per level
        construct_companion(families.single_atom(), horizon=20, depth=4)
        tracemalloc.start()
        try:
            result = construct_companion(families.single_atom(), horizon=500,
                                         depth=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verified and result.spot_check.points_checked > 0
        assert peak < 16 * 2 ** 20
