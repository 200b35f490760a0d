import math
import cmath

import numpy as np
import pytest

from onecomp.errors import DomainError
from onecomp.geometry import (TWO_PI, ArcSupport, BoundaryArc, PointSupport,
                              SawtoothRegion, StolzAngle, _sawtooth_decision,
                              carleson_square, level_points, mobius_shift,
                              pseudo_distance, whitney_arcs)
from onecomp.measures import CantorMeasure, CantorSupport


def random_disc_points(rng, n, rmax=0.999):
    r = rmax * np.sqrt(rng.random(n))
    t = TWO_PI * rng.random(n)
    return r * np.exp(1j * t)


class TestPseudoDistance:
    def test_distance_from_origin_is_modulus(self):
        assert pseudo_distance(0.0, 0.7) == 0.7

    def test_identity_case(self):
        z = 0.3 + 0.4j
        assert pseudo_distance(z, z) == 0.0

    def test_direct_formula_value(self):
        # (0.8 - 0.5) / (1 - 0.4) = 0.3 / 0.6
        assert pseudo_distance(0.5, 0.8) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error_on_boundary(self):
        with pytest.raises(DomainError):
            pseudo_distance(1.0, 0.5)

    @pytest.mark.parametrize("z, w", [(complex(math.nan, 0.0), 0.5),
                                      (0.5, complex(0.0, math.nan))])
    def test_domain_error_on_nan(self, z, w):
        with pytest.raises(DomainError):
            pseudo_distance(z, w)

    def test_metric_axioms_and_mobius_invariance(self):
        rng = np.random.default_rng(7)
        zs = random_disc_points(rng, 200)
        ws = random_disc_points(rng, 200)
        cs = random_disc_points(rng, 200, rmax=0.9)
        for z, w, a in zip(zs, ws, cs):
            d1 = pseudo_distance(z, w)
            d2 = pseudo_distance(w, z)
            assert abs(d1 - d2) <= 1e-12
            d3 = pseudo_distance(mobius_shift(a, z), mobius_shift(a, w))
            assert abs(d1 - d3) <= 1e-12
        assert pseudo_distance(zs[0], zs[0]) == 0.0


class TestCarlesonSquare:
    def test_square_of_origin_is_whole_disc(self):
        q = carleson_square(0.0)
        assert [field.tolist() for field in q] == [[1.0], [0.0], [math.pi], [0.0], [True]]

    def test_domain_error_on_nan(self):
        with pytest.raises(DomainError):
            carleson_square(complex(math.nan, 0.0))


class TestWhitneyBox:
    def test_top_center_radius(self):
        assert abs(level_points(3)[1]) == pytest.approx(1.0 - 0.75 * math.pi / 8)


class TestWhitneyArcs:
    def test_single_point_set_property(self):
        support = PointSupport.of([0.0])
        arcs = list(whitney_arcs(support, min_length=TWO_PI * 2.0 ** -12))
        assert arcs
        for arc in arcs:
            dist = support.angular_distance_to_arc(arc)[0]
            assert arc.length <= dist <= 4.0 * arc.length

    def test_empty_set_gives_quarter_circles(self):
        arcs = list(whitney_arcs(PointSupport.of([])))
        assert len(arcs) == 4
        assert all(arc.length == pytest.approx(math.pi / 2) for arc in arcs)

    def test_emission_in_boundary_order(self):
        arcs = list(whitney_arcs(PointSupport.of([0.0]),
                                 min_length=TWO_PI * 2.0 ** -10))
        los = [arc.lo for arc in arcs]
        assert los == sorted(los)

    def test_cantor_coverage_improves_with_cutoff(self):
        support = CantorMeasure.middle_thirds().support()
        totals = []
        for k in (8, 12, 16):
            arcs = list(whitney_arcs(support, min_length=TWO_PI * 2.0 ** -k))
            for arc in arcs:
                dist = support.angular_distance_to_arc(arc)[0]
                assert arc.length <= dist + 1e-12 <= 4.0 * arc.length + 1e-12
            totals.append(sum(a.length for a in arcs))
        # the Cantor set is Lebesgue-null: coverage climbs toward 2*pi as the
        # cutoff shrinks (the shortfall scales like cutoff^(1 - dim E))
        assert totals[0] < totals[1] < totals[2]
        assert totals[-1] > 0.9 * TWO_PI

    def test_positive_measure_description_rejected(self):
        # a set covering the circle is the extreme case: length 2 pi
        for half_width in (0.3, math.pi):
            fat = ArcSupport((BoundaryArc(0.0, half_width),))
            with pytest.raises(DomainError, match="positive measure"):
                list(whitney_arcs(fat))


class TestSawtooth:
    def test_radial_ray_always_inside(self):
        region = SawtoothRegion(PointSupport.of([0.0]))
        for r in (0.1, 0.5, 0.9, 0.999):
            assert region.contains(r)

    def test_small_angle_point_outside(self):
        region = SawtoothRegion(PointSupport.of([0.0]))
        # dist(e^{0.1i}, 1) = 2 sin(0.05) ~ 0.0999 > (1 - 0.99) / 2
        assert not region.contains(0.99 * cmath.exp(0.1j))

    def test_domain_error_on_nan(self):
        with pytest.raises(DomainError):
            SawtoothRegion(PointSupport.of([0.0])).contains(complex(math.nan, 0.0))

    def test_two_point_support_imaginary_axis(self):
        region = SawtoothRegion(PointSupport.of([0.0, math.pi]))
        # 2 dist(i, {1, -1}) = 2 sqrt(2) > 1 - 0.5
        assert not region.contains(0.5j)

    def test_rejects_center(self):
        region = SawtoothRegion(PointSupport.of([0.0]))
        with pytest.raises(DomainError):
            region.contains(0.0)


SUPPORTS = {
    "points": lambda: PointSupport.of([0.0, 0.3, math.pi, 4.0]),
    "points_hull": lambda: PointSupport.of(
        [2.0 ** -n for n in range(1, 20)] + [2.9], accumulation=[0.0],
        hull=[BoundaryArc.from_endpoints(0.0, 2.0 ** -20), BoundaryArc(2.5, 0.2)]),
    "hull_only": lambda: PointSupport.of([], hull=[BoundaryArc(1.0, 0.05)]),
    "empty": lambda: PointSupport.of([]),
    "arcs": lambda: ArcSupport((BoundaryArc(0.5, 0.1), BoundaryArc(3.0, 0.4))),
    "cantor": lambda: CantorSupport(CantorMeasure.middle_thirds()),
}


def sawtooth_candidates(support):
    """Points on circles 1 - 2^-k near the support's cover arcs, as the
    sawtooth test builds them, with a few random points."""
    points = []
    for k in range(2, 13):
        width = 2.0 ** -k
        for arc in support.cover_arcs(width)[:40]:
            lo, hi = arc.lo - 0.75 * width, arc.hi + 0.75 * width
            points += [(1.0 - width) * cmath.exp(1j * (lo + (hi - lo) * j / 7))
                       for j in range(8)]
    # points on the edge 1 - |z| = 2 dist of each listed angle's tooth,
    # where the last bit of the distance decides
    for a in getattr(support, "angles", ())[:4]:
        phi = a + np.linspace(-0.3, 0.3, 400)
        r = 1.0 - 2.0 * np.abs(np.exp(1j * phi) - cmath.exp(1j * a))
        points += (r * np.exp(1j * phi))[(r > 0.0) & (r < 1.0)].tolist()
    rng = np.random.default_rng(5)
    fan = np.outer(np.linspace(0.05, 0.95, 19), np.exp(1j * np.linspace(2.2, 2.8, 13)))
    return np.concatenate([np.array(points, dtype=np.complex128),
                           random_disc_points(rng, 200), fan.ravel()])


def reference_contains(support, z: complex) -> bool:
    """Membership of one point, decided point by point: the distance bracket
    from z/|z| to the support, then _sawtooth_decision.  On a PointSupport
    the upper end is the least |p - e^{ia}| over the known angles, and
    hull_bound gives the lower end."""
    az = abs(z)
    depth = 1.0 - az
    p = z / az
    if isinstance(support, PointSupport):
        known = support.angles + support.accumulation
        hi = min((abs(p - cmath.exp(1j * a)) for a in known), default=math.inf)
        lo = support.hull_bound(p, hi)
    else:
        lo, hi = support.chord_distance_to_point(p, tol=1e-13 * max(depth, 1e-30))
    return _sawtooth_decision(depth, lo, hi)


class TestSawtoothArray:
    """contains on a complex array against the per-point reference, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SUPPORTS))
    def test_matches_per_point(self, name):
        region = SawtoothRegion(SUPPORTS[name]())
        points = sawtooth_candidates(region.support)
        expected = [reference_contains(region.support, z) for z in points.tolist()]
        got = region.contains(points)
        assert got.dtype == bool and got.tolist() == expected
        if name not in ("empty", "hull_only"):
            assert 0 < sum(expected) < len(expected)
        if name == "points_hull":
            # the hull's lower end decides some points
            bare = SawtoothRegion(PointSupport.of(region.support.angles,
                                                  region.support.accumulation))
            assert bare.contains(points).tolist() != expected
        for limit in (0, 1, 7, sum(expected), len(points)):
            first = [i for i, inside in enumerate(expected) if inside][:limit]
            assert np.flatnonzero(region.contains(points, limit=limit)).tolist() == first

    def test_empty_array(self):
        region = SawtoothRegion(SUPPORTS["points_hull"]())
        assert region.contains(np.zeros(0, dtype=np.complex128)).tolist() == []

    @pytest.mark.parametrize("name", ["points", "arcs"])
    @pytest.mark.parametrize("bad, message", [(0.0, "z = 0"), (1.0, "< 1"), (math.nan, "< 1")])
    def test_first_bad_point_raises_the_per_point_error(self, name, bad, message):
        region = SawtoothRegion(SUPPORTS[name]())
        points = np.array([0.5, 0.3j, bad, 0.0, 2.0], dtype=np.complex128)
        with pytest.raises(DomainError, match=message):
            region.contains(points)
        # every point is checked, also past the limit-th point inside
        with pytest.raises(DomainError, match=message):
            region.contains(points, limit=0)


class TestStolz:
    def test_radial_points_in_any_aperture(self):
        s = StolzAngle(0.0, 1.5)
        assert s.contains(0.99)

    def test_tangential_point_excluded(self):
        s = StolzAngle(0.0, 1.5)
        assert not s.contains(0.99 * cmath.exp(0.3j))


class TestBoundaryArc:
    def test_wraparound_containment(self):
        arc = BoundaryArc(0.0, 0.2)
        assert arc.angular_distance_to_angle(TWO_PI - 0.1) == 0.0
        assert arc.angular_distance_to_angle(0.3) != 0.0

    def test_chord_distance_projection(self):
        arc = BoundaryArc(0.0, 0.5)
        inside = 0.9 * cmath.exp(0.2j)
        assert arc.chord_distance_to_point(inside) == pytest.approx(0.1)
