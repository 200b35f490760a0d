"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import cmath
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import blaschke_modulus_fn, brute_force_components
from onecomp import families
from onecomp.classify import (NOT_ONE_COMPONENT, ONE_COMPONENT, criterion_scan,
                              sawtooth_test)
from onecomp.companion import construct_companion
from onecomp.geometry import (TWO_PI, SawtoothRegion, WhitneyBox, mobius_shift,
                              pseudo_distance)
from onecomp.inner import BlaschkeProduct
from onecomp.levelset import level_set_components
from onecomp.measures import AtomicMeasure, CantorMeasure


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d FAIL: %s" % (num, title))
        raise
    print("ACCEPTANCE %d PASS: %s" % (num, title))


def test_criterion_1_characterization_cross_check():
    with criterion(1, "criterion scan verdicts match ground truth 6/6 at depth 14"):
        expected = {
            "atom1": (families.single_atom, ONE_COMPONENT),
            "atoms2": (families.two_atoms, ONE_COMPONENT),
            "cantor": (families.cantor_inner, ONE_COMPONENT),
            "radial_geometric": (families.radial_geometric, ONE_COMPONENT),
            "example1": (families.example1, NOT_ONE_COMPONENT),
            "radial_sparse": (families.radial_sparse, NOT_ONE_COMPONENT),
        }
        for name, (builder, want) in expected.items():
            report = criterion_scan(builder(), depth=14, tol=1e-3)
            assert report.verdict == want, \
                "%s: got %s, want %s" % (name, report.verdict, want)


def test_criterion_2_example1_lower_bound():
    with criterion(2, "Example-1 family obeys |S(r)| >= exp(-3(1-r^2))"):
        theta = families.example1()
        for k in range(3, 21):
            r = 1.0 - 2.0 ** -k
            bounds = theta.modulus_bounds(r, 1e-9)
            floor = math.exp(-3.0 * (1.0 - r * r))
            assert bounds.lo >= floor - 1e-9, \
                "k=%d: |S| in %r below floor %g" % (k, tuple(bounds), floor)
        assert theta.modulus_bounds(1.0 - 2.0 ** -20, 1e-9).lo > 0.999


def test_criterion_3_cantor_divergence():
    with criterion(3, "Cantor Poisson integral dominates (2 delta_{n-1})^-1 "
                      "on sawtooth points; sup |S| at depth 14 < 0.01"):
        cm = CantorMeasure.middle_thirds()
        region = SawtoothRegion(cm.support())
        for n in range(5, 15):
            delta_n = TWO_PI * (2.0 / 3.0) ** n
            delta_prev = TWO_PI * (2.0 / 3.0) ** (n - 1)
            depth = 2.0 ** -n * delta_n
            r = 1.0 - depth
            bound = 1.0 / (2.0 * delta_prev)
            gen = cm.generation(n)
            stride = max(1, len(gen) // 32)
            for a, b in gen[::stride]:
                for t in (float(a), float(b)):
                    z = r * cmath.exp(1j * t * TWO_PI)
                    assert region.contains(z)
                    plo, _ = cm.poisson_bounds(z, 1e-4)
                    assert plo >= bound, \
                        "n=%d: P=%g below (2 delta_{n-1})^-1=%g" % (n, plo, bound)
        levels = [1.0 - 2.0 ** -n * TWO_PI * (2.0 / 3.0) ** n for n in range(5, 15)]
        res = sawtooth_test(families.cantor_inner(), r_levels=levels)
        assert res.sup_estimate < 0.01


def test_criterion_4_point_mass_closed_form():
    with criterion(4, "unit point mass: |S(r)| = exp(-(1+r)/(1-r)) to 1e-12"):
        theta = families.single_atom()
        for r in (0.0, 0.25, 0.5, 0.75):
            value = abs(theta.evaluate(r, 1e-13))
            assert abs(value - math.exp(-(1.0 + r) / (1.0 - r))) <= 1e-12


def test_criterion_5_companion_end_to_end():
    with criterion(5, "companion construction verified at horizon 2000, depth 14"):
        result = construct_companion(families.single_atom(), horizon=2000,
                                     depth=14)
        # (a) consecutive pseudohyperbolic steps within 1e-6 of 1/10
        assert result.max_step_error < 1e-6
        # (b) separation and a finite Carleson box constant
        assert result.separation_delta >= 0.05
        assert math.isfinite(result.box_constant) and result.box_constant > 0.0
        # (c) both scans report one-component evidence
        assert result.report_b.verdict == ONE_COMPONENT
        assert result.report_btheta.verdict == ONE_COMPONENT
        # (d) scanned points with certified |B| > 12/21 have mu(B)(Q) = 0;
        # the check saw mass-carrying points, and the threshold is met at
        # some scan point, so it is not vacuous
        assert result.spot_check.points_checked > 0
        assert result.spot_check.passed
        b = BlaschkeProduct(result.zeros)
        assert any(b.modulus_bounds(z, 0.5 * 1e-9).lo > 12.0 / 21.0
                   for z in WhitneyBox.level_points(8).tolist())


def test_criterion_6_level_set_oracle_equivalence():
    with criterion(6, "Whitney flood fill matches the 2048x2048 pixel oracle 9/9"):
        cases = [[0.5], [0.5, -0.5], [0.5, 0.5j, -0.5]]
        for zeros in cases:
            fn = blaschke_modulus_fn(zeros)
            for eps in (0.1, 0.5, 0.9):
                want = brute_force_components(fn, eps, n=2048)
                got = level_set_components(families.finite_blaschke(zeros),
                                           eps, depth=10).component_count
                assert got == want, \
                    "zeros=%r eps=%g: quadtree %d vs oracle %d" % (zeros, eps, got, want)


def test_criterion_7_invariant_suites():
    with criterion(7, "invariant suites at their stated tolerances"):
        rng = np.random.default_rng(2026)

        # metric axioms and Moebius invariance, 1e-12
        for _ in range(400):
            z, w, a = (0.98 * math.sqrt(rng.random())
                       * cmath.exp(1j * TWO_PI * rng.random()) for _ in range(3))
            assert abs(pseudo_distance(z, w) - pseudo_distance(w, z)) <= 1e-12
            assert abs(pseudo_distance(mobius_shift(a, z), mobius_shift(a, w))
                       - pseudo_distance(z, w)) <= 1e-12

        # boundary unimodularity of a finite Blaschke product, 1e-12
        theta = families.finite_blaschke([0.5, -0.2 + 0.6j, 0.1 - 0.7j])
        for t in np.linspace(0.0, TWO_PI, 1024, endpoint=False):
            assert abs(abs(theta.evaluate(cmath.exp(1j * t))) - 1.0) <= 1e-12

        # Schwarz-Pick contraction on 10^4 random pairs, 1e-10
        pairs = 10000
        zs = 0.98 * np.sqrt(rng.random(pairs)) * np.exp(1j * TWO_PI * rng.random(pairs))
        ws = 0.98 * np.sqrt(rng.random(pairs)) * np.exp(1j * TWO_PI * rng.random(pairs))
        for z, w in zip(zs, ws):
            assert pseudo_distance(theta.evaluate(z), theta.evaluate(w)) \
                <= pseudo_distance(z, w) + 1e-10

        # Herglotz real part equals -Poisson within 2 tol
        for sigma, tol in ((AtomicMeasure([(0.4, 0.7), (2.5, 0.5)]), 1e-12),
                           (CantorMeasure.middle_thirds(), 1e-6)):
            for _ in range(5):
                z = 0.9 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
                h = sigma.herglotz_integral(z, tol)
                p = sigma.poisson_integral(z, tol)
                assert abs(h.real + p) <= 2.0 * tol

        # certified tails: interval contains the doubled-depth value, 10^3 queries
        failures = 0
        for _ in range(1000):
            z = 0.85 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            tol = 10.0 ** (-3.0 - 4.0 * rng.random())
            zs1 = families.radial_geometric_zeros()
            interval = BlaschkeProduct(zs1).log_modulus(z, tol)
            zs2 = families.radial_geometric_zeros()
            zs2.materialize_count(2 * len(zs1))
            fine = BlaschkeProduct(zs2).log_modulus(z, 1e-3 * tol)
            if not (interval.lo - 1e-13 <= fine.mid <= interval.hi + 1e-13):
                failures += 1
        assert failures == 0

        # measure additivity and monotonicity, 1e-12
        atoms = AtomicMeasure([(TWO_PI * t, m) for t, m in
                               zip(rng.random(10), rng.random(10) + 0.1)])
        from onecomp.geometry import BoundaryArc
        for sigma in (atoms, CantorMeasure.middle_thirds()):
            for _ in range(60):
                cuts = np.sort(rng.random(3) * TWO_PI)
                lo, mid, hi = cuts
                if hi <= lo:
                    continue
                whole = sigma.mass_of_arc(BoundaryArc.from_endpoints(lo, hi),
                                          closed_ends=False, tol=1e-14)
                left = sigma.mass_of_arc(BoundaryArc.from_endpoints(lo, mid),
                                         closed_ends=False, tol=1e-14)
                right = sigma.mass_of_arc(BoundaryArc.from_endpoints(mid, hi),
                                          closed_ends=False, tol=1e-14)
                assert abs(left + right - whole) <= 1e-12
                assert left <= whole + 1e-12 and right <= whole + 1e-12


def test_criterion_8_radial_limit_dichotomy():
    with criterion(8, "radial sup dichotomy on [1 - 2^-6, 1 - 2^-22]"):
        grid = [2.0 ** (-k / 4.0) for k in range(24, 89)]   # depths 2^-6 .. 2^-22

        def radial_sup(zseq):
            zseq.materialize_count(60)
            b = BlaschkeProduct(zseq)
            lo_sup = hi_sup = 0.0
            for s in grid:
                bounds = b.modulus_bounds(1.0 - s, 1e-9)
                lo_sup = max(lo_sup, bounds.lo)
                hi_sup = max(hi_sup, bounds.hi)
            return lo_sup, hi_sup

        _, geometric_sup = radial_sup(families.radial_geometric_zeros())
        assert geometric_sup <= 0.999
        print("ACCEPTANCE 8 NOTE: geometric half holds (sup=%.3g <= 0.999)"
              % geometric_sup)

        sparse_sup, _ = radial_sup(families.radial_sparse_zeros())
        # Stated threshold 0.999999. The true supremum of |B| on this range
        # is about 0.8372 (attained mid-gap near 1 - 2^-20.5): the nearest
        # zeros 1-2^-16 and 1-2^-25 each contribute a factor
        # (1 - 2^-4.5)/(1 + 2^-4.5) ~ 0.915.  Moduli this close to 1 only
        # occur at depths ~2^-(2n+1)/2 gaps, far beyond 2^-22; see the
        # decisions ledger entry on this criterion.
        assert sparse_sup >= 0.999999, \
            "sup over the stated range is %.6f; 0.999999 is unattainable " \
            "on [1-2^-6, 1-2^-22] (see ledger)" % sparse_sup
