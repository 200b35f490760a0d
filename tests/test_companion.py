import bisect
import math
import cmath
import re
import tracemalloc

import numpy as np
import pytest

from onecomp import families
from onecomp.classify import ONE_COMPONENT, criterion_scan
from onecomp.companion import (GRID_MAX_K, SpotCheck, _spot_check_b, build_gamma,
                               choose_radii, construct_companion, place_zeros)
from onecomp.errors import (DomainError, OnecompError, PrecisionExhausted,
                            RadiusSearchExhausted, TailBoundInsufficient)
from onecomp.geometry import (TWO_PI, BoundaryArc, PointSupport, carleson_square,
                              level_points, pseudo_distance, whitney_arcs)
from onecomp.inner import (BlaschkeProduct, InnerFunction, Interval, MuMeasure,
                           SingularInner, ZeroSequence)
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


def band(z):
    return round(-math.log2(1.0 - abs(z)))


class BandTheta:
    """|Theta| is 0 on the listed radius bands 1 - 2^-j and 1 elsewhere;
    every evaluated point is recorded.  A 1-D array gets InnerFunction's
    array answer: an Interval of arrays, each entry the scalar answer."""

    def __init__(self, failing):
        self.failing = set(failing)
        self.points = []

    def modulus_bounds(self, z, tol):
        if isinstance(z, np.ndarray):
            lower, upper = zip(*(self.modulus_bounds(w, tol) for w in z.tolist()))
            return Interval(np.array(lower), np.array(upper))
        self.points.append(z)
        return Interval(self.lower(z), 1.0)

    def lower(self, z):
        return 0.0 if band(z) in self.failing else 1.0


class LowThenRaisingTheta(BandTheta):
    """On the arc from angle 1, bands 2 and deeper pass at sample 0, are low
    in the next 0.2 radians and raise ``error`` beyond, so a band's array
    call raises while an earlier sample of it is low."""

    def __init__(self, error):
        super().__init__(())
        self.error = error

    def lower(self, z):
        offset = cmath.phase(z) - 1.0   # sample 0's is about 1e-16
        if band(z) < 2 or abs(offset) < 1e-9:
            return 1.0
        if offset < 0.2:
            return 0.0
        raise self.error("sample at angle %g" % cmath.phase(z))


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
        assert len(theta.points) == len(set(theta.points))

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

    @pytest.mark.parametrize("error", [TailBoundInsufficient, PrecisionExhausted])
    def test_low_sample_before_the_array_error_decides(self, error):
        # every band from 2 on is low at sample 1 and raises at its last
        # sample: point by point it fails on samples, so the walk is
        # exhausted by samples and never sees the error
        arc = BoundaryArc.from_endpoints(1.0, 1.25)
        expected = walk_outcome(per_point_radii, LowThenRaisingTheta(error), [arc])
        assert expected[0] is RadiusSearchExhausted
        assert walk_outcome(walked_radii, LowThenRaisingTheta(error), [arc]) == expected

    def test_one_scalar_probe_and_at_most_one_array_call_per_band(self, monkeypatch):
        calls = []
        bounds = InnerFunction.modulus_bounds

        def recorded(theta, z, tol):
            calls.append(z)
            return bounds(theta, z, tol)

        theta = families.single_atom()
        arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -14))
        monkeypatch.setattr(InnerFunction, "modulus_bounds", recorded)
        choose_radii(theta, arcs)
        arrays = [i for i, z in enumerate(calls) if isinstance(z, np.ndarray)]
        assert (len(calls) - len(arrays), len(arrays)) == (647, 147)
        # each array call holds the rest of the band its scalar probe opened
        for i in arrays:
            assert i > 0 and not isinstance(calls[i - 1], np.ndarray)
            assert {band(z) for z in calls[i].tolist()} == {band(calls[i - 1])}

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
        assert len(theta.points) == len(set(theta.points))


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
