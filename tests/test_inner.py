import math
import cmath

import mpmath
import numpy as np
import pytest

from onecomp.classify import _scan_points
from onecomp.companion import construct_companion
from onecomp.errors import (BlaschkeConditionError, DomainError,
                            HorizonExceeded, TailBoundInsufficient)
from onecomp.families import (finite_blaschke, radial_geometric_zeros,
                              radial_sparse_zeros, single_atom)
from onecomp.geometry import TWO_PI, carleson_square, pseudo_distance
from onecomp.inner import (BlaschkeProduct, InnerFunction, SingularInner,
                           ZeroSequence, ahern_clark_integral, dump_zeros_csv,
                           load_zeros_csv, separation_constants,
                           stolz_tail_ratio)
from onecomp.measures import AtomicMeasure


class TestLogModulus:
    def test_single_factor_at_origin(self):
        b = BlaschkeProduct([0.5])
        lm = b.log_modulus(0.0)
        assert lm.mid == pytest.approx(math.log(0.5), abs=1e-14)

    def test_origin_value_is_product_of_moduli(self):
        zeros = [0.5, 0.3 + 0.4j, -0.7j]
        b = BlaschkeProduct(zeros)
        expected = sum(math.log(abs(w)) for w in zeros)
        assert b.log_modulus(0.0).mid == pytest.approx(expected, abs=1e-13)

    def test_atom_at_half(self):
        theta = single_atom()
        lm = theta.log_modulus(0.5, 1e-10)
        assert lm.mid == pytest.approx(-3.0, abs=1e-10)

    def test_sentinel_at_zero(self):
        b = BlaschkeProduct([0.5])
        lm = b.log_modulus(0.5)
        assert lm.lo == -math.inf and lm.hi == -math.inf

    def test_tail_bound_insufficient_without_generator(self):
        zs = ZeroSequence([0.5], tail_blaschke_sum=0.2)
        b = BlaschkeProduct(zs)
        with pytest.raises(TailBoundInsufficient):
            b.log_modulus(0.9, 1e-9)


class TestEvaluate:
    def test_identity_map(self):
        # the factor convention at a zero at the origin is |w|/w = 1, so the
        # single factor is -z; the leading constant -1 gives the identity
        theta = finite_blaschke([0.0], unimodular=-1.0)
        assert theta.evaluate(0.3j) == pytest.approx(0.3j)

    def test_modulus_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        theta = finite_blaschke([0.5, -0.2 + 0.1j, 0.6j])
        for _ in range(100):
            z = 0.999 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            assert abs(theta.evaluate(z)) <= 1.0 + 1e-12

    def test_exact_zero_at_listed_zeros(self):
        theta = finite_blaschke([0.5, 0.6j])
        assert theta.evaluate(0.6j) == 0.0

    def test_atom_value_real_positive(self):
        theta = single_atom()
        val = theta.evaluate(0.5)
        assert val == pytest.approx(math.exp(-3.0), abs=1e-12)
        assert abs(val.imag) < 1e-12

    def test_modulus_identity(self):
        rng = np.random.default_rng(8)
        theta = InnerFunction(
            blaschke=BlaschkeProduct([0.4, -0.3j]),
            singular=SingularInner(AtomicMeasure([(1.0, 0.5)])))
        for _ in range(30):
            z = 0.95 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            tol = 1e-9
            val = theta.evaluate(z, tol)
            lm = theta.log_modulus(z, tol)
            assert abs(abs(val) - math.exp(lm.mid)) <= 2.0 * tol

    def test_boundary_unimodularity_finite_product(self):
        theta = finite_blaschke([0.5, -0.2 + 0.6j, 0.1 - 0.7j])
        angles = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        worst = max(abs(abs(theta.evaluate(cmath.exp(1j * t))) - 1.0)
                    for t in angles)
        assert worst <= 1e-12

    def test_schwarz_pick_contraction(self):
        rng = np.random.default_rng(12)
        theta = finite_blaschke([0.5, -0.3j, 0.2 + 0.2j])
        n = 10000
        zs = 0.98 * np.sqrt(rng.random(n)) * np.exp(1j * TWO_PI * rng.random(n))
        ws = 0.98 * np.sqrt(rng.random(n)) * np.exp(1j * TWO_PI * rng.random(n))
        for z, w in zip(zs, ws):
            if z == w:
                continue
            fz, fw = theta.evaluate(z), theta.evaluate(w)
            lhs = pseudo_distance(fz, fw)
            rhs = pseudo_distance(z, w)
            assert lhs <= rhs + 1e-10


class TestCertifiedTails:
    def test_interval_contains_doubled_truncation(self):
        rng = np.random.default_rng(21)
        failures = 0
        for _ in range(1000):
            z = 0.8 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            tol = 10.0 ** (-3 - 4 * rng.random())
            zs = radial_geometric_zeros()
            b = BlaschkeProduct(zs)
            iv = b.log_modulus(z, tol)
            n = len(zs)
            zs2 = radial_geometric_zeros()
            zs2.materialize_count(2 * n)
            fine = BlaschkeProduct(zs2).log_modulus(z, tol * 1e-3)
            if not (iv.lo - 1e-13 <= fine.mid <= iv.hi + 1e-13):
                failures += 1
        assert failures == 0

    def test_budget_violation_rejected(self):
        def bad_gen():
            n = 1
            while True:
                yield (complex(1.0 - 2.0 ** -n, 0.0), 1.0)  # tail never shrinks
                n += 1

        zs = ZeroSequence(generator=bad_gen(), tail_blaschke_sum=1.0)
        with pytest.raises(BlaschkeConditionError):
            zs.materialize_count(10)


class TestTailBound:
    """The certified tail bound against -sum log rho computed at 50 digits.

    The bound is read through BlaschkeProduct._ensure_tail with an unlimited
    budget: it returns the bound log_modulus subtracts at |z| = 1 - s, which
    is _tail_neg_log_bound(T, s), the bound the radial-limit test uses.
    """

    @staticmethod
    def _tails():
        # finite tails written exactly: (depth exponent j, angle) pairs for
        # zeros w = (1 - 2^-j) e^{i angle}
        rng = np.random.default_rng(31)
        yield [(j, 0.0) for j in range(6, 40)]
        yield [(j, 0.0) for j in range(30, 80)]
        yield [(j, 0.0) for j in range(50, 90, 3)]
        yield [(j, float(rng.normal(0.0, 2.0 ** -k)))
               for j, k in zip(range(20, 60), rng.integers(0, 30, 40))]
        yield [(j, TWO_PI * float(rng.random())) for j in range(45, 70)]

    def test_bound_dominates_exact_tail(self):
        for zeros in self._tails():
            # the exponents above span under 52 bits, so the float sum is exact
            tail = sum(2.0 ** -j for j, _ in zeros)
            product = BlaschkeProduct(ZeroSequence(tail_blaschke_sum=tail))
            finite = 0
            for k in range(1, 41):
                s = 2.0 ** -k
                bound = product._ensure_tail(1.0 - s, math.inf)
                if bound == math.inf:
                    continue
                finite += 1
                for phi in (0.0, 1e-9, 0.3, math.pi):
                    assert bound >= self._exact_neg_log(zeros, s, phi), \
                        (zeros[0], k, phi)
            assert finite > 0

    @staticmethod
    def _exact_neg_log(zeros, s, phi):
        """-sum log rho(z, w) at z = (1 - s) e^{i phi}, to 50 digits."""
        with mpmath.workdps(50):
            z = (1 - mpmath.mpf(s)) * mpmath.expj(phi)
            ws = [(1 - mpmath.mpf(2) ** -j) * mpmath.expj(a) for j, a in zeros]
            return -mpmath.fsum(mpmath.log(abs(w - z) / abs(1 - mpmath.conj(w) * z))
                                for w in ws)


class TestMu:
    def test_single_zero_mass(self):
        theta = finite_blaschke([0.9])
        mu = theta.mu()
        assert mu.of_square(carleson_square(0.9)) == pytest.approx(0.1)

    def test_boundary_atom_in_every_radial_square(self):
        theta = single_atom()
        mu = theta.mu()
        for r in (0.1, 0.5, 0.9, 0.99):
            assert mu.of_square(carleson_square(r)) == pytest.approx(1.0)

    def test_zero_outside_angular_window(self):
        theta = finite_blaschke([0.9 * cmath.exp(1.0j)])
        mu = theta.mu()
        assert mu.of_square(carleson_square(0.9)) == 0.0

    def test_horizon_error_on_fine_queries(self):
        zs = radial_geometric_zeros()
        zs.materialize_count(4)          # listed down to 1 - 2^-4

        def frozen():
            yield from ()

        partial = ZeroSequence(zs.zeros, generator=iter([(complex(1 - 2.0 ** -5, 0), 2.0 ** -5)]),
                               tail_blaschke_sum=2.0 ** -4, ordered_by_modulus=True)
        theta = InnerFunction(blaschke=BlaschkeProduct(partial))
        mu = theta.mu(min_side=2.0 ** -4)
        with pytest.raises(HorizonExceeded):
            mu.of_square(carleson_square(1.0 - 2.0 ** -9))

    def test_total(self):
        theta = finite_blaschke([0.9, 0.5])
        assert theta.mu().total() == pytest.approx(0.6)

    def test_window_matches_member_loop(self):
        # reference: the per-zero loop, fsum of the weights of member zeros
        companion = construct_companion(single_atom(), horizon=200, depth=6)
        geometric = radial_geometric_zeros()
        geometric.materialize_count(50)
        squares = [carleson_square(0.0)] + [carleson_square(z)
                                            for level in range(2, 11)
                                            for z in _scan_points(level)]
        for zeros in (companion.zeros.zeros, geometric.zeros, []):
            mu = finite_blaschke(zeros).mu()
            positive = 0
            for square in squares:
                expected = math.fsum(wt for z, wt in mu.zero_atoms
                                     if square.member(z))
                assert mu.of_square_bounds(square) == (expected, expected)
                positive += expected > 0.0
            assert (positive > 0) == bool(zeros)


class TestDiagnostics:
    def test_separation_two_points(self):
        delta, box = separation_constants(ZeroSequence([0.0, 0.5]), 2)
        assert delta == pytest.approx(0.5)
        assert box > 0.0

    def test_radial_consecutive_separation_approaches_third(self):
        # rho(1-2^-n, 1-2^-(n+1)) = 1 / (3 - 2^{1-n}) -> 1/3 from above
        zs = radial_geometric_zeros()
        delta, _ = separation_constants(zs, 20)
        assert delta > 1.0 / 3.0
        assert delta == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_stolz_ratio_geometric_is_one(self):
        assert stolz_tail_ratio(radial_geometric_zeros(), 30) == pytest.approx(1.0, abs=1e-12)

    def test_stolz_ratio_sparse_decays(self):
        assert stolz_tail_ratio(radial_sparse_zeros(), 7) < 1e-3

    def test_stolz_ratio_finite_hits_zero(self):
        zs = ZeroSequence([0.5, 0.75])
        assert stolz_tail_ratio(zs, 2) == 0.0

    def test_ahern_clark_empty(self):
        assert ahern_clark_integral(ZeroSequence([])) == 0.0

    def test_ahern_clark_zero_at_origin(self):
        # kernel is identically 1, log+ vanishes up to float noise
        assert abs(ahern_clark_integral(ZeroSequence([0.0]))) <= 1e-12

    def test_ahern_clark_matches_independent_quadrature(self):
        # frozen value from an adaptive-Simpson oracle split at the kernel's
        # log+ kink (cos t = 0.9), absolute tolerance 1e-13
        oracle = 1.2286131684138815
        value = ahern_clark_integral(ZeroSequence([0.9]), 16384)
        assert value == pytest.approx(oracle, abs=1e-6)


class TestZerosCsv:
    def test_round_trip(self):
        zeros = [0.5 + 0.0j, -0.25 + 0.75j, 1e-17 + 0.9j]
        text = dump_zeros_csv(zeros)
        assert load_zeros_csv(text) == zeros

    def test_header_required(self):
        with pytest.raises(DomainError):
            load_zeros_csv("x,y\n0,0\n")

    def test_field_diagnostics_carry_line_numbers(self):
        with pytest.raises(DomainError, match="line 3"):
            load_zeros_csv("re,im\n0.1,0.2\n0.3\n")


class TestProduct:
    def test_product_multiplies_pointwise(self):
        b = finite_blaschke([0.5, -0.3j])
        s = single_atom()
        prod = b.product_with(s)
        for z in (0.2 + 0.1j, -0.4j, 0.6):
            assert prod.evaluate(z, 1e-12) == pytest.approx(
                b.evaluate(z, 1e-12) * s.evaluate(z, 1e-12), abs=1e-12)

    def test_product_rejects_two_singular_parts(self):
        s = single_atom()
        with pytest.raises(DomainError):
            s.product_with(single_atom())


class TestZeroSequence:
    def test_interior_validation(self):
        with pytest.raises(DomainError):
            ZeroSequence([1.0])

    def test_non_finite_points_rejected(self):
        nan = complex(math.nan, 0.0)
        with pytest.raises(DomainError):
            ZeroSequence([nan])

        def gen():
            yield (nan, 0.0)

        with pytest.raises(DomainError):
            ZeroSequence(generator=gen(), tail_blaschke_sum=0.5).materialize_count(1)
        b = BlaschkeProduct([0.5])
        for query in (b.log_modulus, b.modulus_bounds, b.evaluate):
            with pytest.raises(DomainError):
                query(nan)
        sigma = AtomicMeasure([(0.0, 1.0)])
        for query in (sigma.poisson_bounds, sigma.herglotz_integral):
            with pytest.raises(DomainError):
                query(nan)

    def test_materialize_until_depth_requires_order(self):
        def gen():
            yield (0.5 + 0.0j, 0.0)

        zs = ZeroSequence(generator=gen(), tail_blaschke_sum=0.5)
        with pytest.raises(DomainError):
            zs.materialize_until_depth(0.1)

    def test_blaschke_sum_reports_tail(self):
        zs = ZeroSequence([0.5], tail_blaschke_sum=0.25)
        assert zs.blaschke_sum() == pytest.approx(0.75)
