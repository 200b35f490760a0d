import math
import cmath
import tracemalloc

import pytest

from onecomp import families
from onecomp.classify import (INCONCLUSIVE, MAX_DEPTH, NOT_ONE_COMPONENT,
                              ONE_COMPONENT, classify, criterion_scan,
                              radial_limit_test, sawtooth_test)
from onecomp.errors import HypothesisViolated, PrecisionExhausted
from onecomp.geometry import TWO_PI, carleson_square
from onecomp.inner import BlaschkeProduct, InnerFunction, SingularInner, ZeroSequence
from onecomp.measures import AtomicMeasure


class TestCriterionScan:
    def test_single_atom_one_component(self):
        rep = criterion_scan(families.single_atom(), depth=10)
        assert rep.verdict == ONE_COMPONENT
        assert 0.0 < rep.c_star < 0.2
        assert rep.witnesses  # radial corner samples catch the atom

    def test_finite_blaschke_one_component(self):
        rep = criterion_scan(families.finite_blaschke([0.0, 0.5]), depth=10)
        assert rep.verdict == ONE_COMPONENT
        assert rep.c_star < 0.2

    def test_constant_trivially_one_component(self):
        rep = criterion_scan(InnerFunction(), depth=6)
        assert rep.verdict == ONE_COMPONENT
        assert rep.c_star == 0.0
        assert any("constant" in n for n in rep.notes)

    def test_example1_crosses_threshold(self):
        rep = criterion_scan(families.example1(), depth=14)
        assert rep.verdict == NOT_ONE_COMPONENT
        assert rep.c_star > 0.999

    def test_trace_is_nondecreasing(self):
        rep = criterion_scan(families.cantor_inner(), depth=9)
        assert all(b >= a for a, b in zip(rep.depth_trace, rep.depth_trace[1:]))

    def test_witness_soundness_under_recomputation(self):
        rep = criterion_scan(families.example1(), depth=13)
        assert rep.verdict == NOT_ONE_COMPONENT
        theta = families.example1()
        theta.singular.sigma.materialize_until_tail(8.0 ** -30)
        mu = theta.mu(min_side=0.75 * math.pi * 2.0 ** -13)
        for w in rep.witnesses[-5:]:
            square = carleson_square(w.z)
            lo, _ = mu.of_square_bounds(square)
            assert lo > 0.0
            refined = theta.modulus_bounds(w.z, 5e-7)   # doubled precision
            assert w.modulus_lo - 1e-9 <= refined.hi
            assert refined.lo <= w.modulus_hi + 1e-9

    def test_rotation_invariance_of_verdicts(self):
        # rotations by eighths of a turn map the dyadic sample set to itself
        # (corners and centers interleave at spacing pi 2^{-n}), so verdicts
        # and C* transport exactly up to float arithmetic
        base_zeros = [0.6, 0.8 * cmath.exp(0.9j)]
        base = criterion_scan(families.finite_blaschke(base_zeros), depth=9)
        for k in range(1, 8):
            alpha = TWO_PI * k / 8.0
            rot = cmath.exp(1j * alpha)
            rep = criterion_scan(
                families.finite_blaschke([rot * w for w in base_zeros]), depth=9)
            assert rep.verdict == base.verdict
            assert rep.c_star == pytest.approx(base.c_star, abs=1e-12)

    def test_memory_stays_flat_at_depth_20(self):
        # the full-level scan held a level's 2^21 points at once, a
        # 96 MiB traced peak here; the pruned scan builds a few per level
        criterion_scan(families.single_atom(), depth=4)     # one-time caches
        tracemalloc.start()
        try:
            rep = classify(families.single_atom(), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == ONE_COMPONENT and len(rep.depth_trace) == 19
        assert peak < 4 * 2 ** 20

    def test_example1_at_depth_30(self):
        rep = classify(families.example1(), 30)
        assert rep.verdict == NOT_ONE_COMPONENT
        assert len(rep.depth_trace) == 29 and rep.c_star > 0.99999999

    def test_depth_past_the_cap_rejected(self):
        with pytest.raises(PrecisionExhausted):
            criterion_scan(families.single_atom(), MAX_DEPTH + 1)

    def test_atom_rotation_invariance(self):
        base = criterion_scan(families.single_atom(), depth=9)
        for k in (1, 3, 5):
            alpha = TWO_PI * k / 8.0
            theta = InnerFunction(singular=SingularInner(
                AtomicMeasure([(alpha, 1.0)])))
            rep = criterion_scan(theta, depth=9)
            assert rep.verdict == base.verdict
            assert rep.c_star == pytest.approx(base.c_star, abs=1e-12)


class TestRadialLimit:
    def test_geometric_bounded_supremum(self):
        res = radial_limit_test(families.radial_geometric_zeros(), 0.0)
        assert res.verdict == ONE_COMPONENT
        assert res.sup_estimate < 0.01

    def test_sparse_rising_supremum(self):
        res = radial_limit_test(families.radial_sparse_zeros(), 0.0)
        assert res.verdict == NOT_ONE_COMPONENT
        assert res.sup_estimate > 0.9

    def test_finite_zero_set_rejected(self):
        with pytest.raises(HypothesisViolated, match="finite"):
            radial_limit_test(ZeroSequence([0.5, 0.9]), 0.0)

    def test_non_stolz_zero_rejected(self):
        # zeros accumulate tangentially to the vertex at angle 0.1, so they
        # eventually leave every Stolz angle with vertex at angle 0
        def gen():
            n = 1
            while n <= 30:
                yield ((1.0 - 2.0 ** -n) * cmath.exp(0.1j), 2.0 ** -n)
                n += 1

        zs = ZeroSequence(generator=gen(), tail_blaschke_sum=1.0)
        with pytest.raises(HypothesisViolated, match="Stolz"):
            radial_limit_test(zs, 0.0, aperture=2.0)


class TestSawtooth:
    def test_cantor_decays(self):
        levels = [1 - 2 * math.pi * (1 / 3.0) ** n for n in range(5, 11)]
        res = sawtooth_test(families.cantor_inner(), r_levels=levels)
        assert res.verdict == ONE_COMPONENT
        assert res.sup_estimate < 1e-4

    def test_example1_approaches_one(self):
        res = sawtooth_test(families.example1())
        assert res.verdict == NOT_ONE_COMPONENT
        assert res.sup_estimate > 0.99

    def test_single_atom_decays(self):
        res = sawtooth_test(families.single_atom())
        assert res.verdict == ONE_COMPONENT
        assert res.sup_estimate < 1e-6

    def test_zero_outside_region_rejected(self):
        theta = InnerFunction(
            blaschke=BlaschkeProduct([0.9j]),     # far from supp at angle 0
            singular=SingularInner(AtomicMeasure([(0.0, 1.0)])))
        with pytest.raises(HypothesisViolated):
            sawtooth_test(theta)

    def test_requires_singular_part(self):
        with pytest.raises(HypothesisViolated):
            sawtooth_test(families.finite_blaschke([0.5]))


class TestClassify:
    def test_example1_cross_checked(self):
        rep = classify(families.example1(), 14)
        assert rep.verdict == NOT_ONE_COMPONENT
        assert "sawtooth" in rep.tests

    def test_sparse_cross_checked(self):
        rep = classify(families.radial_sparse(), 14)
        assert rep.verdict == NOT_ONE_COMPONENT
        assert "radial_limit" in rep.tests

    def test_geometric_cross_checked(self):
        rep = classify(families.radial_geometric(), 12)
        assert rep.verdict == ONE_COMPONENT
        assert "radial_limit" in rep.tests

    def test_constant_function(self):
        rep = classify(InnerFunction(unimodular=1j), 6)
        assert rep.verdict == ONE_COMPONENT
        assert rep.c_star == 0.0

    def test_disagreement_downgrades(self):
        # force a disagreement by handing classify a scan verdict that the
        # sawtooth test contradicts: run at a depth too shallow for the
        # Example 1 crossing, where the scan says Inconclusive but the
        # specialized test is definite; Inconclusive stands (no downgrade
        # needed), so instead check the report keeps both records
        rep = classify(families.example1(), 8)
        assert "sawtooth" in rep.tests
        assert rep.verdict in (NOT_ONE_COMPONENT, INCONCLUSIVE)
