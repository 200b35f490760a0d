import math
import cmath
from fractions import Fraction

import numpy as np
import pytest

from onecomp.errors import DomainError, PrecisionExhausted
from onecomp.families import example1_measure
from onecomp.geometry import TWO_PI, BoundaryArc, angle_mod, angular_gap, level_points
from onecomp.measures import (AtomicMeasure, CantorMeasure, CdfMeasure,
                              _herglotz_kernel, poisson_kernel)


def cantor():
    return CantorMeasure.middle_thirds()


class TestMassOfArc:
    def test_atom_inside_closed_arc(self):
        sigma = AtomicMeasure([(0.0, 1.0)])
        assert sigma.mass_of_arc(BoundaryArc(0.0, 0.1)) == 1.0

    def test_atom_on_endpoint_needs_closed_ends(self):
        sigma = AtomicMeasure([(0.1, 1.0)])
        arc = BoundaryArc(0.0, 0.1)
        assert sigma.mass_of_arc(arc, closed_ends=True) == 1.0
        assert sigma.mass_of_arc(arc, closed_ends=False) == 0.0

    @pytest.mark.parametrize("closed_ends", [True, False])
    def test_batch_matches_per_atom_loop(self, closed_ends):
        # the loop mass_of_arc_bounds_many replaced: masses added in atom
        # order; random masses make pairwise summation differ in the last bit
        rng = np.random.default_rng(7)
        angles = rng.uniform(0.0, TWO_PI, 40)
        sigma = AtomicMeasure(list(zip(angles, rng.uniform(0.1, 1.0, 40))),
                              tail_mass=1e-3)
        centers = np.concatenate([rng.uniform(-7.0, 7.0, 300), angles[:10],
                                  angles[10:20] - 0.25])
        halves = np.concatenate([rng.uniform(1e-3, math.pi, 300),
                                 np.full(10, math.pi), np.full(10, 0.25)])
        expected = []
        for c, h in zip(centers.tolist(), halves.tolist()):
            total = 0.0
            for theta, mass in sigma.atoms:
                gap = angular_gap(theta, c)
                if (gap <= h if closed_ends else gap < h) or h >= math.pi:
                    total += mass
            expected.append(total)
        lo, hi = sigma.mass_of_arc_bounds_many(centers, halves, closed_ends)
        assert lo.tolist() == expected
        assert hi.tolist() == [t + 1e-3 for t in expected]
        assert [sigma.mass_of_arc_bounds(BoundaryArc(c, h), closed_ends)[0]
                for c, h in zip(centers.tolist(), halves.tolist())] == expected
        if closed_ends:
            # the data can tell the two orders apart
            pairwise = [float(np.sum([m for t, m in sigma.atoms
                                      if angular_gap(t, c) <= h or h >= math.pi]))
                        for c, h in zip(centers.tolist(), halves.tolist())]
            assert pairwise != expected

    def test_disjoint_arc_is_zero(self):
        sigma = AtomicMeasure([(0.0, 1.0)])
        assert sigma.mass_of_arc(BoundaryArc(math.pi, 0.5)) == 0.0
        assert cantor().mass_of_arc(
            BoundaryArc(0.5 * (TWO_PI / 3 + 2 * TWO_PI / 3), 0.2)) == 0.0

    def test_cantor_first_generation_interval_mass(self):
        # generation-1 intervals carry mass exactly 2^{-1}; the arc below
        # starts at the set's left endpoint and ends inside the removed gap
        sigma = cantor()
        assert sigma.mass_of_arc(BoundaryArc.from_endpoints(0.0, math.pi)) == 0.5

    def test_cantor_generation_structure(self):
        sigma = cantor()
        for n in (1, 2, 3, 6):
            gen = sigma.generation(n)
            assert len(gen) == 2 ** n
            lengths = {b - a for a, b in gen}
            assert len(lengths) == 1
            # each interval's two children partition its mass
            kids = sigma.generation(n + 1)
            for i, (a, b) in enumerate(gen):
                ka, kb = kids[2 * i], kids[2 * i + 1]
                assert a == ka[0] and b == kb[1]
                assert ka[1] <= kb[0]

    def test_additivity_and_monotonicity(self):
        rng = np.random.default_rng(5)
        sigma_a = AtomicMeasure([(TWO_PI * t, m) for t, m in
                                 zip(rng.random(12), rng.random(12) + 0.1)])
        for sigma in (sigma_a, cantor()):
            for _ in range(40):
                cuts = np.sort(rng.random(3) * TWO_PI)
                lo, mid, hi = cuts
                if hi - lo >= TWO_PI or hi <= lo:
                    continue
                whole = sigma.mass_of_arc(BoundaryArc.from_endpoints(lo, hi),
                                          closed_ends=False, tol=1e-14)
                left = sigma.mass_of_arc(BoundaryArc.from_endpoints(lo, mid),
                                         closed_ends=False, tol=1e-14)
                right = sigma.mass_of_arc(BoundaryArc.from_endpoints(mid, hi),
                                          closed_ends=False, tol=1e-14)
                assert left + right == pytest.approx(whole, abs=1e-12)
                assert left <= whole + 1e-12 and right <= whole + 1e-12


class TestPoisson:
    def test_center_value_is_total_mass(self):
        assert AtomicMeasure([(0.3, 2.5)]).poisson_integral(0.0) == pytest.approx(2.5)
        assert cantor().poisson_integral(0.0, 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_closed_form(self):
        sigma = AtomicMeasure([(0.0, 1.0)])
        assert sigma.poisson_integral(0.5) == pytest.approx(3.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = AtomicMeasure([(0.3, 0.7), (2.0, 0.2)])
        b = AtomicMeasure([(4.0, 1.1)])
        both = AtomicMeasure([(0.3, 0.7), (2.0, 0.2), (4.0, 1.1)])
        for _ in range(20):
            z = 0.95 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            assert a.poisson_integral(z) + b.poisson_integral(z) == \
                pytest.approx(both.poisson_integral(z), rel=1e-12)

    def test_lower_bound_by_central_arc_mass(self):
        # P[sigma](z) >= C sigma(I(z)) / (1 - |z|) with I(z) the arc of
        # length 1 - |z| centered at z/|z|; the implementation's constant is
        # C = 1 (kernel >= (1+r)/((1-r)(1 + r/4)) >= 1/(1-r) on I(z)).
        rng = np.random.default_rng(9)
        sigmas = [AtomicMeasure([(0.0, 1.0), (1.0, 0.5)]), cantor()]
        for sigma in sigmas:
            for _ in range(25):
                r = 0.2 + 0.78 * rng.random()
                z = r * cmath.exp(1j * TWO_PI * rng.random())
                arc = BoundaryArc(cmath.phase(z), 0.5 * (1.0 - r))
                mass = sigma.mass_of_arc(arc, closed_ends=True, tol=1e-13)
                tol = 1e-6
                p = sigma.poisson_integral(z, tol)
                assert p + tol >= mass / (1.0 - r) * (1.0 - 1e-9)

    def test_certified_bracket_contains_refined_value(self):
        sigma = cantor()
        z = 0.9 * cmath.exp(0.7j)
        lo, hi = sigma.poisson_bounds(z, 1e-3)
        fine = sigma.poisson_integral(z, 1e-6)
        assert lo - 1e-12 <= fine <= hi + 1e-12

    def test_kernel_range_brackets_samples(self):
        # the per-cell chord range is the oracle the adaptive splitter
        # relies on; verify the kernel range it gives against dense
        # sampling, including arcs that contain the antipode of arg z
        # (where the max gap saturates at pi)
        from onecomp.measures import _cell_distances2
        rng = np.random.default_rng(17)
        for _ in range(200):
            z = 0.95 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            lo = TWO_PI * rng.random()
            hi = lo + (TWO_PI - 1e-9) * rng.random()
            d2min, d2max = _cell_distances2(z, np.array([lo]), np.array([hi]))
            one_minus_r2 = 1.0 - abs(z) ** 2
            kmin, kmax = one_minus_r2 / d2max[0], one_minus_r2 / d2min[0]
            for t in np.linspace(lo, hi, 64):
                val = poisson_kernel(z, t)
                assert kmin - 1e-12 * kmax <= val <= kmax * (1 + 1e-12)

    def test_example1_family_upper_bound(self):
        # sum alpha_n theta_n^{-2} = 1, so P[sigma](r) <= 3 (1 - r^2) for
        # r in [1/2, 1)
        sigma = example1_measure()
        for k in range(1, 21):
            r = 1.0 - 2.0 ** -k
            if r < 0.5:
                continue
            p = sigma.poisson_integral(r, 1e-11)
            assert p <= 3.0 * (1.0 - r * r) + 1e-10

    def test_atomic_tail_precision_exhausted(self):
        sigma = AtomicMeasure([(0.0, 1.0)], tail_mass=0.1)
        with pytest.raises(PrecisionExhausted):
            sigma.poisson_bounds(0.5, 1e-6)


def per_point_poisson(sigma, points, tol):
    """poisson_bounds at each point in turn: (lower bytes, upper bytes, the
    index and bracket of a PrecisionExhausted or None)."""
    bounds, failure = [], None
    for i, z in enumerate(points.tolist()):
        try:
            bounds.append(sigma.poisson_bounds(z, tol))
        except PrecisionExhausted as exc:
            failure = (i, exc.bracket)
            break
    lower, upper = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
    return lower.tobytes(), upper.tobytes(), failure


def batched_poisson(sigma, points, tol):
    """per_point_poisson through poisson_bounds_many: each call answers a
    prefix, and the point after it is taken alone.  Also the prefix lengths."""
    lower, upper, prefixes, failure = [], [], [], None
    i = 0
    while i < len(points):
        lo, hi = sigma.poisson_bounds_many(points[i:], tol)
        assert lo.shape == hi.shape
        prefixes.append(len(lo))
        lower += lo.tolist()
        upper += hi.tolist()
        i += len(lo)
        if i < len(points):
            try:
                a, b = sigma.poisson_bounds(complex(points[i]), tol)
            except PrecisionExhausted as exc:
                failure = (i, exc.bracket)
                break
            lower.append(a)
            upper.append(b)
            i += 1
    return (np.array(lower).tobytes(), np.array(upper).tobytes(), failure), prefixes


def example1_listed():
    """Example 1 as the seeded input file has it: 64 atoms, tail, no generator."""
    sigma = example1_measure()
    sigma.materialize_until_tail(8.0 ** -64)
    return AtomicMeasure(sigma.atoms, tail_mass=sigma.tail_mass,
                         tail_hull=sigma._hull, accumulation=sigma._accumulation)


def depth_points(deepest, per_depth=96):
    """Up to per_depth level_points of each depth 2..deepest, spread over the
    circle, in depth order."""
    return np.concatenate([
        level_points(d, np.unique(np.linspace(0, (2 << d) - 1, per_depth).astype(np.int64)))
        for d in range(2, deepest + 1)])


@pytest.mark.filterwarnings("error")
class TestPoissonBoundsMany:
    """poisson_bounds_many against poisson_bounds at each point in turn, on
    separate instances, bit for bit."""

    MEASURES = {
        "atom1": lambda: AtomicMeasure([(0.0, 1.0)]),
        "atoms2": lambda: AtomicMeasure([(0.0, 1.0), (math.pi, 1.0)]),
        "rotated": lambda: AtomicMeasure([(4.1, 0.3), (4.1 + 1e-3, 0.2), (1.0, 0.5)]),
        "example1_listed": example1_listed,
        "example1_generator": example1_measure,
        "cdf": lambda: CdfMeasure([(0.0, 0.0), (1.0, 0.4), (4.0, 0.4), (TWO_PI, 1.0)]),
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("tol", [0.25, 1e-9])
    def test_matches_per_point_at_depths_2_to_14(self, name, tol):
        points = depth_points(14)
        make = self.MEASURES[name]
        reference, batch = make(), make()
        got, prefixes = batched_poisson(batch, points, tol)
        assert got == per_point_poisson(reference, points, tol)
        assert batch.atom_count == reference.atom_count
        if name == "example1_generator":
            # atoms are listed at several points, past the first
            assert batch.atom_count > 2 and len(prefixes) > 2 and sum(prefixes) > 0
        else:
            assert prefixes == [len(points)]

    def test_cantor_points_one_by_one(self):
        points = np.array([0.0, 0.5 + 0.3j, (1.0 - 2.0 ** -9) * cmath.exp(0.5j * math.pi)])
        got, prefixes = batched_poisson(cantor(), points, 1e-4)
        assert got == per_point_poisson(cantor(), points, 1e-4)
        assert prefixes == [len(points)]

    @pytest.mark.parametrize("tail_hull", [(), (BoundaryArc(0.5, 0.1),)])
    def test_precision_exhausted_at_the_same_point(self, tail_hull):
        # tail * (1 + r) / (1 - r) passes tol 1e-6 at depth 11 or so
        points = depth_points(14, per_depth=8)
        make = lambda: AtomicMeasure([(0.0, 1.0), (0.5, 0.25)], tail_mass=1e-9,  # noqa: E731
                                     tail_hull=tail_hull)
        expected = per_point_poisson(make(), points, 1e-6)
        got, _ = batched_poisson(make(), points, 1e-6)
        assert expected[2] is not None and 0 < expected[2][0] < len(points) - 1
        assert got == expected

    def test_one_row_blocks_give_the_same_bits(self, monkeypatch):
        import onecomp.measures as measures
        monkeypatch.setattr(measures, "BLOCK_ELEMENTS", 7)
        points = depth_points(8, per_depth=16)
        got, _ = batched_poisson(example1_listed(), points, 1e-9)
        assert got == per_point_poisson(example1_listed(), points, 1e-9)

    def test_outside_point_rejected(self):
        with pytest.raises(DomainError):
            AtomicMeasure([(0.0, 1.0)]).poisson_bounds_many(np.array([0.5, 1.0 + 0j]), 1e-9)

    def test_float_power_squares_as_python_does(self):
        # the term matrix squares |z - e^{it}| with np.float_power, standing
        # in for the per-point abs(...) ** 2
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.random(200000) * 2.0, rng.random(200000) * 1e-6])
        assert np.float_power(x, 2.0).tolist() == [v ** 2 for v in x.tolist()]


class TestHerglotz:
    def test_atomic_matches_the_two_call_form(self):
        # one kernel per atom, its real and imaginary parts summed apart
        sigma = example1_listed()
        for z in [0.0, 0.5 + 0.3j, -0.7j, 0.9 * cmath.exp(1j), 0.999 * cmath.exp(0.01j)]:
            re = math.fsum(m * (_herglotz_kernel(z, t).real) for t, m in sigma.atoms)
            im = math.fsum(m * (_herglotz_kernel(z, t).imag) for t, m in sigma.atoms)
            assert sigma.herglotz_integral(z, 1e-6) == complex(re, im)

    def test_center_value(self):
        sigma = AtomicMeasure([(1.2, 0.8)])
        assert sigma.herglotz_integral(0.0) == pytest.approx(-0.8)

    def test_point_mass_closed_form(self):
        sigma = AtomicMeasure([(0.0, 1.0)])
        assert sigma.herglotz_integral(0.5) == pytest.approx(-3.0, abs=1e-12)

    def test_real_part_is_minus_poisson(self):
        rng = np.random.default_rng(2)
        sigmas = [AtomicMeasure([(0.5, 0.4), (3.0, 0.6)]), cantor(),
                  CdfMeasure([(0.0, 0.0), (1.0, 0.4), (4.0, 0.4), (TWO_PI, 1.0)])]
        for sigma in sigmas:
            for _ in range(6):
                z = 0.8 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
                tol = 1e-6
                h = sigma.herglotz_integral(z, tol)
                p = sigma.poisson_integral(z, tol)
                assert abs(h.real + p) <= 2.0 * tol

    def test_cantor_matches_generation16_midpoint_rule(self):
        # The measure restricted to a generation interval is symmetric about
        # its midpoint, so the midpoint rule over the 2^16 generation-16
        # intervals is second order: its error is far below tol here.
        lefts = np.zeros(1)
        for k in range(1, 17):
            lefts = np.concatenate([lefts, lefts + 2.0 * 3.0 ** -k])
        xi = np.exp(1j * TWO_PI * (lefts + 0.5 * 3.0 ** -16))
        sigma = cantor()
        tol = 1e-4
        points = [(1.0 - 2.0 ** -9) * cmath.exp(1j * TWO_PI * turn)
                  for turn in (0.25, 0.1)] + [0.0, 0.5 + 0.3j, -0.7j,
                                                0.9 * cmath.exp(1j)]
        for z in points:
            expected = complex(np.sum((z + xi) / (z - xi))) * 2.0 ** -16
            h = sigma.herglotz_integral(z, tol)
            assert abs(h.real - expected.real) <= 2.0 * tol
            assert abs(h.imag - expected.imag) <= 2.0 * tol


class TestCdfMeasure:
    def test_monotonicity_validated(self):
        with pytest.raises(DomainError):
            CdfMeasure([(0.0, 0.5), (1.0, 0.2)])

    def test_mass_from_linear_interpolation(self):
        sigma = CdfMeasure([(0.0, 0.0), (2.0, 1.0), (TWO_PI, 1.0)])
        assert sigma.mass_of_arc(BoundaryArc.from_endpoints(0.0, 1.0)) == \
            pytest.approx(0.5)

    def test_poisson_at_center(self):
        sigma = CdfMeasure([(0.0, 0.0), (2.0, 1.0), (TWO_PI, 1.0)])
        assert sigma.poisson_integral(0.0, 1e-9) == pytest.approx(1.0, abs=1e-9)


class TestCantorVariants:
    def test_delta_sequence_middle_thirds(self):
        sigma = cantor()
        for n in (0, 1, 5):
            assert sigma.delta(n) == pytest.approx(TWO_PI * (2.0 / 3.0) ** n)

    def test_removed_fraction_variant(self):
        from fractions import Fraction
        sigma = CantorMeasure.from_removed_fraction(Fraction(1, 2))
        assert sigma.delta(1) == pytest.approx(math.pi)

    def test_explicit_delta_list(self):
        sigma = CantorMeasure.from_delta_radians([4.0, 2.5])
        assert sigma.delta(1) == pytest.approx(4.0)
        assert sigma.delta(2) == pytest.approx(2.5)
        gen2 = sigma.generation(2)
        lengths = {float(b - a) for a, b in gen2}
        assert len(lengths) == 1
        # generation-2 intervals have length 2^{-2} delta_2 radians
        assert lengths.pop() * TWO_PI == pytest.approx(2.5 / 4.0, rel=1e-12)

    def test_nonmonotone_delta_rejected(self):
        with pytest.raises(DomainError):
            CantorMeasure.from_delta_radians([4.0, 5.0])


# Reference copies of the two generation descents that CantorSupport had
# before they were folded into one: the angular descent with its early
# return for a whole generation interval inside the window, and the chord
# descent.  The shared descent must reproduce them exactly.

def _reference_window_distance(measure, u, v):
    def gap(iv_lo, iv_hi):
        if iv_hi >= u and iv_lo <= v:
            return 0.0
        d = iv_lo - v if iv_lo > v else u - iv_hi
        return min(d, max(0.0, 1.0 - (v - u) - (iv_hi - iv_lo) - d))

    candidates = [(0.0, 1.0)]
    best_endpoint = math.inf
    lower = 0.0
    for n in range(1, measure.MAX_GENERATION + 1):
        q = float(measure._ratio_floats[n - 1])
        nxt = []
        lower = math.inf
        for a, b in candidates:
            clen = (b - a) * q * 0.5
            for ca, cb in ((a, a + clen), (b - clen, b)):
                if ca >= u and cb <= v:
                    return (0.0, 0.0)
                for e in (ca, cb):
                    best_endpoint = min(best_endpoint, gap(e, e))
                d = gap(ca, cb)
                if d <= best_endpoint:
                    nxt.append((ca, cb))
                    lower = min(lower, d)
        candidates = nxt
        if not candidates:
            return (best_endpoint, best_endpoint)
        if best_endpoint - lower <= 1e-15:
            return (lower, best_endpoint)
    return (lower, best_endpoint)


def _reference_angular_distance(measure, arc):
    from onecomp.measures import _arc_windows
    lo_best, hi_best = math.inf, math.inf
    for wlo, whi in _arc_windows(arc):
        dlo, dhi = _reference_window_distance(measure, wlo / TWO_PI, whi / TWO_PI)
        lo_best = min(lo_best, dlo)
        hi_best = min(hi_best, dhi)
        if hi_best == 0.0:
            return (0.0, 0.0)
    return (lo_best * TWO_PI, hi_best * TWO_PI)


def _reference_chord_distance(measure, p, tol):
    r = abs(p)
    phase_turns = angle_mod(cmath.phase(p)) / TWO_PI if r > 0.0 else 0.0

    def chord_to_interval(lo_t, hi_t):
        d = abs((phase_turns - 0.5 * (lo_t + hi_t) + 0.5) % 1.0 - 0.5)
        gap_turns = max(0.0, d - 0.5 * (hi_t - lo_t))
        gap = gap_turns * TWO_PI
        return math.sqrt(max(0.0, r * r + 1.0 - 2.0 * r * math.cos(min(gap, math.pi))))

    candidates = [(0.0, 1.0)]
    best_endpoint = math.inf
    lower = 0.0
    for n in range(1, measure.MAX_GENERATION + 1):
        q = float(measure._ratio_floats[n - 1])
        nxt = []
        lower = math.inf
        for a, b in candidates:
            clen = (b - a) * q * 0.5
            for ca, cb in ((a, a + clen), (b - clen, b)):
                d = chord_to_interval(ca, cb)
                for e in (ca, cb):
                    best_endpoint = min(best_endpoint, chord_to_interval(e, e))
                if d <= best_endpoint:
                    nxt.append((ca, cb))
                    lower = min(lower, d)
        candidates = nxt
        if not candidates:
            return (best_endpoint, best_endpoint)
        if best_endpoint - lower <= tol:
            return (lower, best_endpoint)
    return (lower, best_endpoint)


CANTOR_VARIANTS = {
    "middle-thirds": CantorMeasure.middle_thirds,
    "removed-half": lambda: CantorMeasure.from_removed_fraction(Fraction(1, 2)),
    "delta-list": lambda: CantorMeasure.from_delta_radians([3.0, 1.2, 0.5, 0.1]),
}


@pytest.mark.parametrize("name", sorted(CANTOR_VARIANTS))
class TestCantorDescent:
    def test_angular_distance_matches_reference(self, name):
        measure = CANTOR_VARIANTS[name]()
        support = measure.support()
        rng = np.random.default_rng(23)
        arcs = []
        for _ in range(400):   # half-widths log-uniform over [1e-12, pi]
            half = math.exp(rng.uniform(math.log(1e-12), math.log(math.pi)))
            arcs.append(BoundaryArc(TWO_PI * rng.random(), half))
        for _ in range(100):   # arcs across the 0 / 2 pi seam
            half = math.exp(rng.uniform(math.log(1e-6), math.log(1.0)))
            arcs.append(BoundaryArc(half * (2.0 * rng.random() - 1.0), half))
        for n in (1, 3, 6):    # arcs holding a whole generation interval
            for a, b in measure.generation(n)[::max(1, 2 ** n // 4)]:
                lo, hi = float(a) * TWO_PI, float(b) * TWO_PI
                pad = (hi - lo) * rng.uniform(0.0, 0.2)
                arcs.append(BoundaryArc.from_endpoints(lo - pad, hi + pad))
        # arcs ending just beside a point of E that is no generation
        # endpoint (the left-right alternating path), where the descent runs
        # until its bracket is narrower than its tolerance
        a, b = 0.0, 1.0
        for n in range(40):
            clen = (b - a) * float(measure._ratio_floats[n]) * 0.5
            a, b = (a, a + clen) if n % 2 == 0 else (b - clen, b)
        for _ in range(100):
            off = math.exp(rng.uniform(math.log(1e-15), math.log(1e-6))) * TWO_PI
            half = math.exp(rng.uniform(math.log(1e-12), math.log(1e-6))) * off
            half = max(half, 1e-12)
            arcs.append(BoundaryArc(a * TWO_PI + off + half, half))
            arcs.append(BoundaryArc(a * TWO_PI - off - half, half))
        arcs.append(BoundaryArc(1.0, math.pi))
        for arc in arcs:
            assert support.angular_distance_to_arc(arc) == \
                _reference_angular_distance(measure, arc), arc

    def test_chord_distance_matches_reference(self, name):
        measure = CANTOR_VARIANTS[name]()
        support = measure.support()
        rng = np.random.default_rng(29)
        for _ in range(300):
            depth = math.exp(rng.uniform(math.log(1e-14), 0.0))
            phi = TWO_PI * rng.random()
            for p in ((1.0 - depth) * cmath.exp(1j * phi), cmath.exp(1j * phi)):
                for tol in (1e-12, 1e-13 * depth):
                    assert support.chord_distance_to_point(p, tol) == \
                        _reference_chord_distance(measure, p, tol), (p, tol)
