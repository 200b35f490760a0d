import math
import cmath
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecomp.classify import EVAL_TOL, criterion_scan
from onecomp.companion import build_gamma, choose_radii, construct_companion, place_zeros
from onecomp.errors import (DomainError, OnecompError, PrecisionExhausted,
                            TailBoundInsufficient)
from onecomp.families import (cantor_inner, example1, finite_blaschke,
                              radial_geometric, radial_geometric_zeros,
                              radial_sparse, single_atom, two_atoms)
from onecomp.geometry import (TWO_PI, BoundaryArc, SquareArrays, angular_gap,
                              carleson_square, carleson_squares, level_points,
                              pseudo_distance, whitney_arcs)
from onecomp.inner import (BlaschkeProduct, InnerFunction, Interval, MuMeasure,
                           SingularInner, ZeroSequence, _near_separation,
                           dump_zeros_csv, load_zeros_csv, separation_constants)
from onecomp.measures import AtomicMeasure, CantorMeasure

from conftest import (reference_fine_tol, reference_modulus_bounds,
                      reference_separation_delta)


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
        assert tuple(b.modulus_bounds(0.5)) == (0.0, 0.0)

    def test_tail_bound_insufficient_without_generator(self):
        # a declared tail too large for the tolerance raises
        zs = ZeroSequence([0.5], tail_blaschke_sum=0.2)
        b = BlaschkeProduct(zs)
        with pytest.raises(TailBoundInsufficient):
            b.log_modulus(0.9, 1e-9)
        with pytest.raises(TailBoundInsufficient):
            b.modulus_bounds(0.9, 1e-9)

    def test_a_small_product_needs_no_tail_bound(self):
        # the tail 0.2 has no bound at depth 1/2, but at and next to the
        # listed zero |B| <= tol / 2 whatever the tail, so (0, exp(sum)) is
        # certified, and at the zero log|B| = -inf and B = 0 exactly
        b = BlaschkeProduct(ZeroSequence([0.5], tail_blaschke_sum=0.2))
        points = np.array([0.5, 0.5 + 1e-12])
        lower, upper = b.modulus_bounds(points, 1e-9)
        assert lower.tolist() == [0.0, 0.0] and 0.0 < upper[1] <= 0.5e-9
        assert [tuple(b.modulus_bounds(z, 1e-9)) for z in points.tolist()] == \
            list(zip(lower.tolist(), upper.tolist()))
        assert b.log_modulus(0.5) == (-math.inf, -math.inf) and b.evaluate(0.5) == 0.0
        with pytest.raises(TailBoundInsufficient):
            b.log_modulus(0.5 + 1e-12)


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
        # the geometric zeros n <= 32 with their exact tail 2^-32 against all
        # 48 listed zeros, whose tail 2^-48 is bracketed at tol / 1000
        full = radial_geometric_zeros()
        prefix = ZeroSequence(full.zeros[:32], tail_blaschke_sum=2.0 ** -32)
        assert len(full) == 48
        rng = np.random.default_rng(21)
        failures = moved = 0
        for _ in range(1000):
            z = 0.8 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            tol = 10.0 ** (-3 - 4 * rng.random())
            iv = BlaschkeProduct(prefix).log_modulus(z, tol)
            fine = BlaschkeProduct(full).log_modulus(z, tol * 1e-3)
            if not (iv.lo - 1e-13 <= fine.mid <= iv.hi + 1e-13):
                failures += 1
            # the zeros past the prefix move the sum off the prefix's own
            moved += fine.mid < iv.hi - 1e-13
        assert failures == 0 and moved == 1000


class TestTailBound:
    """The certified tail bound against -sum log rho computed at 50 digits.

    The bound is read through BlaschkeProduct._ensure_tail with an unlimited
    budget: it returns the bound log_modulus subtracts at depth s = 1 - |z|,
    which is _tail_neg_log_bound(T, s), the bound the radial-limit test
    uses.
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
                bound = product._ensure_tail(np.array([s]), np.array([math.inf])).item()
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
        lo, hi = mu.of_square_bounds(carleson_square(0.9))
        assert lo == hi == pytest.approx(0.1)

    def test_boundary_atom_in_every_radial_square(self):
        theta = single_atom()
        mu = theta.mu()
        for r in (0.1, 0.5, 0.9, 0.99):
            assert mu.of_square_bounds(carleson_square(r)) == (1.0, 1.0)

    def test_zero_outside_angular_window(self):
        theta = finite_blaschke([0.9 * cmath.exp(1.0j)])
        mu = theta.mu()
        assert mu.of_square_bounds(carleson_square(0.9)) == (0.0, 0.0)

    def test_horizon_error_on_fine_queries(self):
        # zeros listed down to 1 - 2^-4, then the declared tail 2^-4: a
        # square smaller than the tail raises, naming the input field
        partial = ZeroSequence(radial_geometric_zeros().zeros[:4], tail_blaschke_sum=2.0 ** -4)
        mu = InnerFunction(blaschke=BlaschkeProduct(partial)).mu()
        assert mu.of_square_bounds(carleson_square(1.0 - 2.0 ** -4))[0] > 0.0
        with pytest.raises(TailBoundInsufficient, match="zeros_tail_blaschke_sum 0.0625 "):
            mu.of_square_bounds(carleson_square(1.0 - 2.0 ** -9))

    def test_upper_end_holds_the_unlisted_zeros(self):
        # the zeros 1 - 2^-n listed to n = 32 with the tail 2^-32: the square
        # of 1 - 2^-20 also holds the zeros 33..48 listed in the full family
        square = carleson_square(1.0 - 2.0 ** -20)
        partial = ZeroSequence(radial_geometric_zeros().zeros[:32], tail_blaschke_sum=2.0 ** -32)
        lo, hi = InnerFunction(blaschke=BlaschkeProduct(partial)).mu().of_square_bounds(square)
        full, _ = radial_geometric().mu().of_square_bounds(square)
        assert lo < full <= hi
        assert hi - lo == pytest.approx(2.0 ** -32)

    def test_window_matches_member_loop(self, companion200):
        # reference: the per-zero loop, fsum of the weights of member zeros
        def member(square, w):
            _, center, half, base, whole = square_row(square)
            aw = abs(w)
            if whole:
                return True
            if aw < base:
                return False
            return angular_gap(cmath.phase(w) if aw > 0.0 else 0.0, center) <= half

        geometric = radial_geometric_zeros()
        squares = [carleson_square(0.0)] + [
            carleson_square(z) for level in range(2, 11)
            for z in level_points(level).tolist()]
        for zeros in (companion200.zeros.zeros, geometric.zeros, []):
            mu = finite_blaschke(zeros).mu()
            positive = 0
            for square in squares:
                expected = math.fsum(1.0 - abs(z) for z in mu.zeros.zeros
                                     if member(square, z))
                assert mu.of_square_bounds(square) == (expected, expected)
                positive += expected > 0.0
            assert (positive > 0) == bool(zeros)


def square_row(square: SquareArrays) -> tuple:
    """(side, center angle, half-window, base modulus, whole disc) of a
    one-row square, as Python scalars."""
    assert len(square.side) == 1
    return tuple(field[0].item() for field in square)


def reference_square_bounds(mu: MuMeasure, square: SquareArrays):
    """The per-square of_square_bounds that the batched kernel replaced,
    with the per-atom loop of AtomicMeasure.mass_of_arc_bounds inlined; the
    boundary masses are bracketed to 1e-9, and the upper end adds the
    declared zero tail."""
    side, center, half, base, whole = square_row(square)
    horizon = mu.zeros.tail_blaschke_sum
    if not whole and side < horizon:
        raise TailBoundInsufficient("zeros_tail_blaschke_sum %g exceeds the square side %g"
                                    % (horizon, side))
    total = 0.0
    if mu.zeros.zeros:
        zs = np.array(mu.zeros.zeros, dtype=np.complex128)
        radii, angles = np.abs(zs), np.mod(np.angle(zs), TWO_PI)
        weights = np.array([1.0 - abs(z) for z in mu.zeros.zeros])
        gap = np.abs(np.mod(angles - center + math.pi, TWO_PI) - math.pi)
        inside = (gap <= half) & (radii >= base)
        total = math.fsum(weights[inside].tolist())
    if mu.boundary is None:
        return (total, total + horizon)
    arc = BoundaryArc(center, half)
    if isinstance(mu.boundary, AtomicMeasure):
        atomic = 0.0
        for theta, mass in mu.boundary.atoms:
            if angular_gap(theta, arc.center_angle) <= arc.half_width \
                    or arc.half_width >= math.pi:
                atomic += mass
        blo, bhi = atomic, atomic + mu.boundary.tail_mass
    else:
        blo, bhi = mu.boundary.mass_of_arc_bounds(arc, tol=1e-9)
    return (total + blo, total + bhi + horizon)


@pytest.fixture(scope="module")
def companion200():
    return construct_companion(single_atom(), horizon=200, depth=6)


def _product_with_atom1(zeros):
    # the zeros x atom1 product as construct_companion builds it
    theta = single_atom()
    return InnerFunction(theta.unimodular, BlaschkeProduct(ZeroSequence(zeros)),
                         theta.singular)


class TestLevelKernel:
    """MuMeasure.lower_masses against the per-square reference, bit for bit."""

    @staticmethod
    def _cases(companion200):
        geometric = radial_geometric_zeros()
        return {
            "atom1": single_atom(), "atoms2": two_atoms(), "example1": example1(),
            "companion200": finite_blaschke(companion200.zeros.zeros),
            "radial_geometric": finite_blaschke(geometric.zeros),
            "product": _product_with_atom1(companion200.zeros.zeros),
            "cantor": cantor_inner(), "no_zeros": finite_blaschke([]),
        }

    @pytest.mark.parametrize("case", ["atom1", "atoms2", "example1", "companion200",
                                      "radial_geometric", "product",
                                      "cantor", "no_zeros"])
    def test_lower_masses_match_per_square_loop(self, case, companion200):
        theta = self._cases(companion200)[case]
        mu = theta.mu()
        positive = 0
        for level in range(2, 13):
            points = level_points(level)
            expected = [reference_square_bounds(mu, carleson_square(z))[0]
                        for z in points.tolist()]
            got = mu.lower_masses(points)
            assert got.tolist() == expected, level
            positive += sum(m > 0.0 for m in expected)
        assert (positive > 0) == (case != "no_zeros")

    def test_one_row_bounds_match_reference(self, companion200):
        # and a square of side 0.3 that no point's square has: Q(0.9) is 0.1
        wide = SquareArrays(*(np.array([v]) for v in (0.3, 0.0, 0.15, 0.7, False)))
        squares = [carleson_square(0.0), carleson_square(0.5 + 0.5j), wide,
                   carleson_square(-0.999)]
        for theta in self._cases(companion200).values():
            mu = theta.mu()
            for square in squares:
                assert mu.of_square_bounds(square) == reference_square_bounds(mu, square)

    def test_horizon_exceeded_at_the_same_first_square(self):
        partial = ZeroSequence(radial_geometric_zeros().zeros[:6], tail_blaschke_sum=2.0 ** -6)
        mu = InnerFunction(blaschke=BlaschkeProduct(partial)).mu()
        assert mu.zeros.tail_blaschke_sum > 0.0
        for level in range(2, 13):
            points = level_points(level)
            try:
                for z in points.tolist():
                    reference_square_bounds(mu, carleson_square(z))
            except TailBoundInsufficient as exc:
                expected = str(exc)
                break
        else:
            pytest.fail("no level reached the horizon")
        for before in range(2, level):
            mu.lower_masses(level_points(before))
        with pytest.raises(TailBoundInsufficient) as info:
            mu.lower_masses(points)
        assert str(info.value) == expected

    def test_rows_match_abs_and_phase(self):
        # row i of Q(z): side 1 - |z|, center arg z, half-window side / 2,
        # base modulus |z|, with abs and cmath.phase taken point by point
        rng = np.random.default_rng(3)
        scattered = 0.999 * np.sqrt(rng.random(500)) * np.exp(1j * TWO_PI * rng.random(500))
        for points in [level_points(level) for level in range(2, 15)] + [scattered]:
            squares = carleson_squares(points)
            rows = list(zip(*(field.tolist() for field in squares)))
            expected = [(1.0 - abs(z), cmath.phase(z), 0.5 * (1.0 - abs(z)),
                         1.0 - (1.0 - abs(z)), False) for z in points.tolist()]
            assert rows == expected
            assert [square_row(carleson_square(z)) for z in points[:50].tolist()] \
                == expected[:50]

    def test_origin_is_the_whole_disc(self):
        squares = carleson_squares(np.array([0j, complex(-0.0, 0.0), 0.5j]))
        rows = list(zip(*(field.tolist() for field in squares)))
        assert rows[:2] == [(1.0, 0.0, math.pi, 0.0, True)] * 2
        assert rows[2] == (0.5, math.pi / 2, 0.25, 0.5, False)
        assert square_row(carleson_square(-0.0)) == (1.0, 0.0, math.pi, 0.0, True)

    def test_domain_error_outside_the_disc(self):
        with pytest.raises(DomainError):
            carleson_squares(np.array([0.5, 1.0 + 0j]))


def full_level_scan(theta: InnerFunction, depth: int) -> list:
    """(level, z, lower mass, |Theta| bracket) of each scan point with
    positive mass, as the scan found them before pruning and per point:
    every point of every level queried, and |Theta| bracketed at each
    positive one in turn."""
    mu = theta.mu()
    record = []
    for level in range(2, depth + 1):
        points = level_points(level)
        lower = mu.lower_masses(points)
        for i in np.flatnonzero(lower > 0.0).tolist():
            z = complex(points[i])
            record.append((level, z, float(lower[i]),
                           tuple(theta.modulus_bounds(z, EVAL_TOL))))
    return record


def criterion_scan_record(theta: InnerFunction, depth: int, monkeypatch) -> list:
    """The same tuples, read off criterion_scan's one positive_squares call
    and its one |Theta| call."""
    hits, brackets = [], []
    positive_squares, modulus_bounds = MuMeasure.positive_squares, theta.modulus_bounds

    def recording(mu, levels):
        assert not hits and list(levels) == list(range(2, depth + 1))
        points, masses, at = positive_squares(mu, levels)
        hits.append(list(zip(at.tolist(), points.tolist(), masses.tolist())))
        return points, masses, at

    def evaluate(z, tol):
        bracket = modulus_bounds(z, tol)
        brackets.append(list(zip(bracket.lo.tolist(), bracket.hi.tolist())))
        return bracket

    with monkeypatch.context() as patch:
        patch.setattr(MuMeasure, "positive_squares", recording)
        patch.setattr(theta, "modulus_bounds", evaluate)
        criterion_scan(theta, depth)
    assert len(hits) == len(brackets) == 1 and len(hits[0]) == len(brackets[0])
    return [hit + (bracket,) for hit, bracket in zip(hits[0], brackets[0])]


class TestPrunedScan:
    """criterion_scan, which queries mu only next to listed mass, against
    the full-level scan, bit for bit."""

    CASES = {
        "atom1": (single_atom, 14), "atoms2": (two_atoms, 14),
        "radial_geometric": (radial_geometric, 14), "radial_sparse": (radial_sparse, 14),
        "cantor": (cantor_inner, 6),
        "constant": (InnerFunction, 8),
        **{"example1-%d" % d: (example1, d) for d in range(2, 9)},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_level_scan(self, case, monkeypatch):
        build, depth = self.CASES[case]
        expected = full_level_scan(build(), depth)
        assert criterion_scan_record(build(), depth, monkeypatch) == expected
        assert bool(expected) == (case != "constant")

    def test_companion_product_matches_full_level_scan(self, companion500, monkeypatch):
        # the 500-zero products that construct_companion scans
        zeros = companion500.zeros.zeros
        for build in (lambda: finite_blaschke(zeros), lambda: _product_with_atom1(zeros)):
            expected = full_level_scan(build(), 10)
            assert criterion_scan_record(build(), 10, monkeypatch) == expected
            assert expected

    def test_level_subsets_are_the_full_level_points(self):
        rng = np.random.default_rng(5)
        for level in range(2, 15):
            full = level_points(level)
            index = np.sort(rng.choice(full.size, min(full.size, 300), replace=False))
            assert level_points(level, index).tobytes() == full[index].tobytes()
            assert level_points(level, np.arange(full.size)).tobytes() == \
                full.tobytes()

    def test_horizon_exceeded_on_a_level_without_live_boxes(self):
        # zeros 1 - 2^-n, n <= 6, and a declared tail: level 8 is the first
        # whose side is below the horizon 2^-6, and no zero lies that deep
        def partial_mu():
            partial = ZeroSequence(radial_geometric_zeros().zeros[:6],
                                   tail_blaschke_sum=2.0 ** -6)
            return InnerFunction(blaschke=BlaschkeProduct(partial)).mu()

        def first_failure(query):
            for level in range(2, 13):
                try:
                    query(level)
                except TailBoundInsufficient as exc:
                    return level, str(exc)
            pytest.fail("no level reached the horizon")

        reference = partial_mu()
        expected = first_failure(lambda level: [
            reference_square_bounds(reference, carleson_square(z))
            for z in level_points(level).tolist()])
        mu = partial_mu()
        assert first_failure(lambda level: mu.positive_squares([level])) == expected
        assert expected[0] == 8 and mu._live_points(8).size == 0
        with pytest.raises(TailBoundInsufficient) as batched:
            partial_mu().positive_squares(range(2, 13))
        assert str(batched.value) == expected[1]


def level_by_level_scan(theta: InnerFunction, depth: int) -> None:
    """The scan's squares and |Theta| brackets, level by level: a level's
    squares, then |Theta| at its positive points."""
    mu = theta.mu()
    for level in range(2, depth + 1):
        theta.modulus_bounds(mu.positive_squares([level])[0], EVAL_TOL)


class TestScanErrorOrder:
    """criterion_scan raises the error the level-by-level scan meets first.

    The zeros 1 - 2^-n, n <= 6, with tail 2^-6 give positive squares on
    levels 2-7 and a horizon error on level 8's squares.  A stub |Theta|
    raises at the first point of a chosen level, as a per-point loop
    would; an array of points of other levels gets (0, 1/2) brackets.
    """

    @staticmethod
    def theta(failing_level: int) -> InnerFunction:
        partial = ZeroSequence(radial_geometric_zeros().zeros[:6], tail_blaschke_sum=2.0 ** -6)
        theta = InnerFunction(blaschke=BlaschkeProduct(partial))

        def stub(points, tol):
            # |z| = 1 - 0.75 pi 2^-level
            levels = [round(-math.log2((1.0 - abs(z)) / (0.75 * math.pi)))
                      for z in points.tolist()]
            if failing_level in levels:
                raise PrecisionExhausted("|Theta| at level %d" % failing_level)
            return Interval(np.zeros(len(points)), np.full(len(points), 0.5))

        theta.modulus_bounds = stub
        return theta

    @pytest.mark.parametrize("failing_level, expected", [
        (5, "|Theta| at level 5"), (7, "|Theta| at level 7"),
        (8, "zeros_tail_blaschke_sum 0.015625 exceeds the square side"),
        (9, "zeros_tail_blaschke_sum 0.015625 exceeds the square side")])
    def test_first_error_in_level_order(self, failing_level, expected):
        with pytest.raises(OnecompError) as reference:
            level_by_level_scan(self.theta(failing_level), 12)
        with pytest.raises(OnecompError) as batched:
            criterion_scan(self.theta(failing_level), 12)
        assert type(batched.value) is type(reference.value)
        assert str(batched.value) == str(reference.value)
        assert str(batched.value).startswith(expected)

    def test_levels_before_the_horizon_are_scanned(self):
        # down to level 7 no error: the batch answers, with level 7 positive
        report = criterion_scan(self.theta(9), 7)
        assert report.depth_trace == [0.5] * 6


@pytest.fixture(scope="module")
def companion500():
    return construct_companion(single_atom(), horizon=500, depth=10)


class TestModulusBounds:
    @pytest.mark.parametrize("outside", [1.0, -1.5j, complex(math.nan, 0.0),
                                         complex(math.inf, 0.0)])
    def test_points_outside_the_open_disc_rejected(self, outside):
        with pytest.raises(DomainError, match="require"):
            BlaschkeProduct(radial_geometric_zeros()).modulus_bounds(outside)

    def test_brackets_contain_the_modulus_at_50_digits(self, companion500):
        # |B| = prod |w - z| / |1 - conj(w) z| at 50 digits.  A finite product
        # has no tail, so its bracket is the single double exp(sum of logs):
        # the oracle allows that sum's rounding, 1e-12 relative.
        rng = np.random.default_rng(12)
        small = (0.97 * np.sqrt(rng.random(12))
                 * np.exp(1j * TWO_PI * rng.random(12))).tolist()
        # all of levels 2 and 3, 20 points of each of levels 4-11, 16 of 12
        points = np.concatenate([
            rng.choice(level_points(d), {2: 8, 3: 16, 12: 16}.get(d, 20),
                       replace=False) for d in range(2, 13)])
        assert len(points) == 200
        for zeros in (small, companion500.zeros.zeros[::5]):
            with mpmath.workdps(50):
                ws = [mpmath.mpc(w.real, w.imag) for w in zeros]
                exact = []
                for z in points.tolist():
                    zz = mpmath.mpc(z.real, z.imag)
                    exact.append(mpmath.fprod(abs(w - zz) / abs(1 - mpmath.conj(w) * zz)
                                              for w in ws))
                for tol in (1e-9, 1e-3):
                    b = BlaschkeProduct(zeros)
                    for z, value in zip(points.tolist(), exact):
                        lo, hi = b.modulus_bounds(z, tol)
                        assert lo * (1 - mpmath.mpf(1e-12)) <= value \
                            <= hi * (1 + mpmath.mpf(1e-12))


def truncated_geometric_zeros() -> ZeroSequence:
    # zeros 1 - 2^-n for n <= 20, then the tail 2^-20
    return ZeroSequence(radial_geometric_zeros().zeros[:20], tail_blaschke_sum=2.0 ** -20)


def bracket_loop(f, points, tol: float, bounds=reference_modulus_bounds) -> list:
    """bounds(f, z, tol) at each point in turn on one instance, by default
    the reference bracket; (type, message) ends the list on an error."""
    out = []
    for z in points:
        try:
            out.append(tuple(bounds(f, z, tol)))
        except (DomainError, TailBoundInsufficient) as err:
            out.append((type(err), str(err)))
            break
    return out


@pytest.mark.filterwarnings("error")
class TestModulusBoundsMany:
    """BlaschkeProduct.modulus_bounds called at many points on one instance
    against the reference bracket on a fresh instance per point, so no call
    changes a later bracket."""

    def test_points_at_zeros_and_no_zeros(self):
        zeros = [0.5, 0.3 + 0.4j, -0.7j]
        points = [0.5, 0.0, 0.3 + 0.4j, -0.7j, 0.9 + 0.1j, 0.3 + 0.4j]
        for tol in (1e-9, 0.5):
            got = bracket_loop(BlaschkeProduct(zeros), points, tol, BlaschkeProduct.modulus_bounds)
            assert got == [bracket_loop(BlaschkeProduct(zeros), [z], tol)[0]
                           for z in points]
            assert [got[k] for k in (0, 2, 3, 5)] == [(0.0, 0.0)] * 4
            assert all(0.0 <= got[k][0] <= got[k][1] <= 1.0 for k in (1, 4))
            assert bracket_loop(BlaschkeProduct([]), points, tol) == [(1.0, 1.0)] * 6

    def test_tail_bound_insufficient_at_the_same_point(self):
        points = np.concatenate([level_points(d)
                                 for d in range(2, 9)]).tolist()
        reference = BlaschkeProduct(truncated_geometric_zeros())
        expected = bracket_loop(reference, points, 1e-3)
        assert expected[-1][0] is TailBoundInsufficient and len(expected) > 100
        # the package's loop, and a fresh instance at the failing point alone,
        # fail at the same point, with the same message
        assert bracket_loop(BlaschkeProduct(truncated_geometric_zeros()), points, 1e-3,
                            BlaschkeProduct.modulus_bounds) == expected
        failing = points[len(expected) - 1]
        fresh = BlaschkeProduct(truncated_geometric_zeros())
        assert bracket_loop(fresh, [failing], 1e-3, BlaschkeProduct.modulus_bounds) == [expected[-1]]


def per_point_bounds(f, points: np.ndarray, tol: float) -> tuple:
    """(lower, upper) arrays of the reference bracket at each point in turn."""
    pairs = [reference_modulus_bounds(f, z, tol) for z in points.tolist()]
    lower, upper = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return lower.tobytes(), upper.tobytes()


def array_bounds(f, points: np.ndarray, tol: float) -> tuple:
    lower, upper = f.modulus_bounds(points, tol)
    assert lower.shape == upper.shape == points.shape
    return lower.tobytes(), upper.tobytes()


def some_points(deepest: int) -> np.ndarray:
    return np.concatenate([level_points(d) for d in range(2, deepest + 1)])


@pytest.mark.filterwarnings("error")
class TestModulusBoundsArray:
    """modulus_bounds on a complex array against the reference bracket at
    each point in the same order on a separate instance, bit for bit."""

    @pytest.mark.parametrize("count", [1, 3, 500])
    def test_finite_products(self, count, companion500):
        zeros = {1: [0.5], 3: [0.5, 0.5j, -0.5]}.get(count) or companion500.zeros.zeros
        assert len(zeros) == count
        rng = np.random.default_rng(count)
        head = some_points(10)
        points = np.concatenate([
            head, zeros[:3],
            0.99 * np.sqrt(rng.random(200)) * np.exp(1j * TWO_PI * rng.random(200))])
        for tol in (1e-9, 1e-3):
            for make in (BlaschkeProduct, finite_blaschke):
                got = array_bounds(make(zeros), points, tol)
                assert got == per_point_bounds(make(zeros), points, tol)
        if count == 1:
            # one point and one zero: the point x zero matrix is 1 x 1
            pairs = 0.99 * np.sqrt(rng.random((200, 2))) * np.exp(
                1j * TWO_PI * rng.random((200, 2)))
            for w, z in pairs.tolist():
                single = np.array([z])
                assert array_bounds(BlaschkeProduct([w]), single, 1e-9) == \
                    per_point_bounds(BlaschkeProduct([w]), single, 1e-9)
        lower, upper = BlaschkeProduct(zeros).modulus_bounds(points, 1e-9)
        on_zeros = slice(len(head), len(head) + min(count, 3))
        assert lower[on_zeros].tolist() == upper[on_zeros].tolist() == [0.0] * min(count, 3)

    @pytest.mark.parametrize("theta", [single_atom, example1, two_atoms,
                                       lambda: InnerFunction(
                                           blaschke=BlaschkeProduct([0.5, -0.3j]),
                                           singular=SingularInner(
                                               AtomicMeasure([(1.0, 0.5)])))],
                             ids=["atom1", "example1", "atoms2", "zeros_and_atom"])
    def test_atomic_singular_part(self, theta):
        # first -0.5, which needs a fine pass, then a point at depth 1e-6
        points = np.concatenate([[-0.5, (1.0 - 1e-6) * cmath.exp(0.3j), 0.25j, -0.9],
                                 some_points(6)])
        for tol in (1e-9, 1e-3):
            assert array_bounds(theta(), points, tol) == \
                per_point_bounds(theta(), points, tol)

    @pytest.mark.parametrize("theta", [lambda: SingularInner(CantorMeasure.middle_thirds()),
                                       cantor_inner], ids=["singular", "inner"])
    def test_cantor_singular_part(self, theta):
        # the measure whose poisson_bounds_many loops over poisson_bounds; at
        # tol 1e-3 the coarse bracket is wide enough at -0.5, 0.9 e^{2i} and
        # 0.97 to need the fine pass, and narrow enough near angle 0 not to
        points = np.array([0.99, 0.995, -0.5, 0.999, 0.9 * cmath.exp(2j), 0.97])
        lo, hi = CantorMeasure.middle_thirds().poisson_bounds_many(points, 0.25)
        assert (np.exp(-lo) - np.exp(-hi) > 1e-3).tolist() == \
            [False, False, True, False, True, True]
        assert array_bounds(theta(), points, 1e-3) == per_point_bounds(theta(), points, 1e-3)

    def test_precision_exhausted_at_the_same_point(self):
        # a fine pass fails at the first point, before the coarse pass of
        # the deep second point would
        make = lambda: SingularInner(AtomicMeasure([(0.0, 1.0)], tail_mass=1e-4))  # noqa: E731
        points = np.array([-0.5, 1.0 - 1e-4])
        with pytest.raises(PrecisionExhausted) as reference:
            per_point_bounds(make(), points, 1e-6)
        with pytest.raises(PrecisionExhausted) as batched:
            make().modulus_bounds(points, 1e-6)
        assert str(batched.value) == str(reference.value) and "at 1 - |z| = 0.5" in str(reference.value)
        assert batched.value.bracket == reference.value.bracket

    def test_singular_error_before_the_failing_blaschke_point(self):
        # the Blaschke part fails at the second point, where its tail cannot
        # meet tol; point by point, the singular part fails first, at the
        # first point
        make = lambda: InnerFunction(  # noqa: E731
            blaschke=BlaschkeProduct(ZeroSequence([0.5], tail_blaschke_sum=1e-9)),
            singular=SingularInner(AtomicMeasure([(2.0, 1.0)], tail_mass=1e-4)))
        points = np.array([-0.5, 1.0 - 1e-5])
        with pytest.raises(PrecisionExhausted) as reference:
            per_point_bounds(make(), points, 1e-6)
        with pytest.raises(PrecisionExhausted) as batched:
            make().modulus_bounds(points, 1e-6)
        assert str(batched.value) == str(reference.value) and "at 1 - |z| = 0.5" in str(reference.value)
        assert batched.value.bracket == reference.value.bracket

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_kernel_mixes_zeros_small_moduli_and_the_tail(self, tol, monkeypatch):
        # the listed zeros 0.5 and 0.75, and the first four points hit or
        # nearly hit them; deeper points need the declared tail's bound
        points = np.concatenate([[0.5, 0.75, 0.5 + 1e-12, 0.75 + 1e-13j],
                                 some_points(7), 1.0 - 2.0 ** -np.arange(4.5, 12.0)])
        reference, batch = (BlaschkeProduct(radial_geometric_zeros()) for _ in range(2))
        expected = per_point_bounds(reference, points, tol)
        calls = self.count_calls(batch, monkeypatch)
        assert array_bounds(batch, points, tol) == expected
        # no budget fails, so the kernel runs once, with no replay
        assert calls == {"_modulus_bounds_many": [len(points)], "_log_sums": [len(points)]}
        lower, upper = batch.modulus_bounds(points, tol)
        assert lower[:4].tolist() == [0.0] * 4 and upper[:2].tolist() == [0.0, 0.0]
        assert 0.0 < upper[2] <= 0.5 * tol and 0.0 < upper[3] <= 0.5 * tol
        assert 0.0 < lower[-1] < upper[-1]

    def test_tail_bound_insufficient_at_the_same_point_as_the_loop(self):
        points = some_points(8)
        reference = BlaschkeProduct(truncated_geometric_zeros())
        expected = bracket_loop(reference, points.tolist(), 1e-3)
        batch = BlaschkeProduct(truncated_geometric_zeros())
        with pytest.raises(TailBoundInsufficient) as err:
            batch.modulus_bounds(points, 1e-3)
        assert expected[-1] == (TailBoundInsufficient, str(err.value))
        assert len(expected) - 1 == 511

    @staticmethod
    def count_calls(batch, monkeypatch) -> dict:
        """The length of the array of each kernel and _log_sums call on the
        instance, by name."""
        calls = {"_modulus_bounds_many": [], "_log_sums": []}
        for name in calls:
            method = getattr(batch, name)
            monkeypatch.setattr(batch, name, lambda points, *a, name=name, method=method:
                                calls[name].append(len(points)) or method(points, *a))
        return calls

    def test_a_complete_product_takes_one_log_sums_call(self, monkeypatch):
        # with no tail, one kernel call brackets every point, and the upper
        # ends are math.exp of the log sums
        points = some_points(8)
        assert len(points) == 1016
        zeros = [0.5, 0.5j, -0.5]
        batch = BlaschkeProduct(zeros)
        calls = self.count_calls(batch, monkeypatch)
        lower, upper = batch.modulus_bounds(points, 1e-9)
        assert calls == {"_modulus_bounds_many": [1016], "_log_sums": [1016]}
        sums = BlaschkeProduct(zeros)._log_sums(points).tolist()
        assert upper.tolist() == [math.exp(s) for s in sums]
        assert lower.tolist() == upper.tolist()

    def test_a_complete_product_takes_one_exp_per_point(self, monkeypatch):
        # a listed zero at 0 and at 0.5, points whose upper end is at most
        # tol / 2 next to them, and ordinary points: the lower ends are the
        # upper ends except at those small entries, where they are 0; a
        # declared tail still takes a second exp per point
        tol = 1e-9
        zeros = [0.0, 0.5, 0.5j]
        near = [1e-12, 0.5 + 1e-12, 0.5j - 1e-13j]
        points = np.concatenate([[0.0, 0.5], near, some_points(6)])
        exps = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: exps.append(x) or exp(x))
        for make, at, passes in (
                (lambda: BlaschkeProduct(zeros), tol, 1),
                (lambda: BlaschkeProduct(truncated_geometric_zeros()), 1e-3, 2)):
            exps.clear()
            lower, upper = make().modulus_bounds(points, at)
            assert len(exps) == passes * len(points)
            assert (lower.tobytes(), upper.tobytes()) == per_point_bounds(
                make(), points, at)
        lower, upper = BlaschkeProduct(zeros).modulus_bounds(points, tol)
        small = upper <= 0.5 * tol
        assert small[:5].all() and upper[:2].tolist() == [0.0, 0.0]
        assert 0.0 < upper[2:5].min() and np.count_nonzero(small) == 5
        assert lower.tolist() == np.where(small, 0.0, upper).tolist()

    def test_a_declared_tail_takes_one_log_sums_call(self, monkeypatch):
        # the tail 2^-20 meets every budget down to level 6: one pass, and
        # each lower end is math.exp of the log sum less the tail's bound
        points = some_points(6)
        batch = BlaschkeProduct(truncated_geometric_zeros())
        calls = self.count_calls(batch, monkeypatch)
        lower, upper = batch.modulus_bounds(points, 1e-3)
        assert calls == {"_modulus_bounds_many": [len(points)], "_log_sums": [len(points)]}
        assert (lower.tobytes(), upper.tobytes()) == per_point_bounds(
            BlaschkeProduct(truncated_geometric_zeros()), points, 1e-3)
        assert (lower < upper).all()

    def test_empty_array(self):
        empty = np.zeros(0, dtype=np.complex128)
        for f in (BlaschkeProduct([0.5]), BlaschkeProduct(radial_geometric_zeros()),
                  single_atom(), radial_geometric()):
            lower, upper = f.modulus_bounds(empty, 1e-9)
            assert lower.shape == upper.shape == (0,)

    @pytest.mark.parametrize("outside", [1.0, -1.5j, complex(math.nan, 0.0),
                                         complex(math.inf, 0.0)])
    def test_outside_point_rejected_before_any_zero_is_listed(self, outside):
        # the zero list is fixed at construction; a rejected query leaves it as it was
        points = np.concatenate([some_points(8), [outside], level_points(9)])
        for f in (BlaschkeProduct(radial_geometric_zeros()), radial_geometric()):
            zeros = f.zeros if isinstance(f, BlaschkeProduct) else f.blaschke.zeros
            listed = len(zeros)
            with pytest.raises(DomainError, match="require"):
                f.modulus_bounds(points, 1e-9)
            assert len(zeros) == listed

    def test_a_failing_point_before_an_outside_point_raises_first(self):
        # point by point, the tail fails at 1 - 2^-12 before 1.5 is reached
        def zeros():
            return ZeroSequence(radial_geometric_zeros().zeros[:8], tail_blaschke_sum=2.0 ** -8)

        points = np.array([0.5, 1.0 - 2.0 ** -12, 1.5])
        for make in (lambda: BlaschkeProduct(zeros()),
                     lambda: InnerFunction(blaschke=BlaschkeProduct(zeros()))):
            expected = bracket_loop(make(), points.tolist(), 1e-3)
            with pytest.raises(TailBoundInsufficient) as err:
                make().modulus_bounds(points, 1e-3)
            assert expected[1:] == [(TailBoundInsufficient, str(err.value))]
            assert str(err.value).endswith("at 1 - |z| = 0.000244141")

    def test_a_failing_array_is_replayed_once(self, monkeypatch):
        # the tail fails at the last of 101 points alone: InnerFunction
        # replays the points, one one-point Blaschke kernel call each and
        # no BlaschkeProduct.modulus_bounds call, and its part's kernel does
        # not replay them first
        zeros = ZeroSequence(radial_geometric_zeros().zeros[:8], tail_blaschke_sum=2.0 ** -8)
        points = np.append(0.5 * np.exp(1j * np.linspace(0.0, 6.0, 100)), 1.0 - 2.0 ** -12)
        part = BlaschkeProduct(zeros)
        arrays, kernel = [], part._modulus_bounds_many
        monkeypatch.setattr(part, "_modulus_bounds_many",
                            lambda z, tol: arrays.append(z.tolist()) or kernel(z, tol))
        monkeypatch.setattr(BlaschkeProduct, "modulus_bounds", None)
        with pytest.raises(TailBoundInsufficient, match="at 1 - [|]z[|] = 0.000244141$"):
            InnerFunction(blaschke=part).modulus_bounds(points, 0.5)
        assert arrays == [points.tolist()] + [[z] for z in points.tolist()]

    @pytest.mark.parametrize("z", [1.5, (1.0 - 2.0 ** -12) * 1j], ids=["outside", "tail"])
    def test_one_point_errors_are_the_per_point_errors(self, z):
        # at a point outside the disc, and at one where the tail cannot meet
        # the budget, the kernel on the one-point array raises the scalar
        # call's type and message, which are the reference's
        b = BlaschkeProduct(truncated_geometric_zeros())
        errors = []
        for call in (lambda: b._modulus_bounds_many(np.array([z]), 1e-3),
                     lambda: b.modulus_bounds(z, 1e-3),
                     lambda: reference_modulus_bounds(b, z, 1e-3)):
            with pytest.raises(OnecompError) as err:
                call()
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][1].endswith("require |z| < 1" if z == 1.5 else "at 1 - |z| = 0.000244141")

    def test_kernel_error_raised_when_no_point_fails(self, monkeypatch):
        # the kernel fails on the array but at no one point, so the per-point
        # replay finds no error and the kernel's own is raised
        b = BlaschkeProduct([0.5])
        one_point = b._modulus_bounds_many

        def kernel(points, tol):
            if len(points) > 1:
                raise PrecisionExhausted("kernel")
            return one_point(points, tol)

        monkeypatch.setattr(b, "_modulus_bounds_many", kernel)
        with pytest.raises(PrecisionExhausted, match="^kernel$"):
            b.modulus_bounds(np.array([0.25, -0.5j]), 1e-9)


class LadderStub:
    """A measure that records each poisson_bounds_many call (its points and
    tol) and answers the first with the given coarse brackets and every
    later one with (1, 1 + tol) at each point.  Not a SingularMeasure
    subclass, which would have to give every query of a scan."""

    def __init__(self, plo, phi):
        self.coarse, self.calls = (np.array(plo), np.array(phi)), []

    def poisson_bounds_many(self, points, tol):
        self.calls.append((points.copy(), tol))
        if len(self.calls) == 1:
            return self.coarse
        return np.ones(len(points)), 1.0 + np.broadcast_to(tol, points.shape)


class TestFinePass:
    """SingularInner's coarse -> fine ladder: one coarse poisson_bounds_many
    call at tol 0.25, then one fine call on the points whose coarse |S|
    bracket is wider than tol, each at reference_fine_tol of its coarse
    lower end."""

    # coarse (P_lo, P_hi): narrow; wide; pinned near 0; a NaN end each way;
    # a NaN upper end past the clamp at 60; an infinite upper end
    PLO = [0.0, 0.0, 100.0, math.nan, 1.0, 70.0, 0.5]
    PHI = [1e-6, 1.0, 101.0, 1.0, math.nan, math.nan, math.inf]

    @pytest.mark.parametrize("tol", [1e-3, 1e-20])
    def test_two_calls_coarse_then_fine(self, tol):
        points = 0.1 * np.arange(1, 8) * 1j
        sigma = LadderStub(self.PLO, self.PHI)
        lower, upper = SingularInner(sigma).modulus_bounds(points, tol)
        fine = [1, 3, 4, 5, 6] if tol == 1e-3 else [0, 1, 3, 4, 5, 6]
        (coarse_points, coarse_tol), (fine_points, tols) = sigma.calls     # two calls
        assert coarse_points.tolist() == points.tolist() and coarse_tol == 0.25
        assert fine_points.tolist() == points[fine].tolist()
        expected = [reference_fine_tol(self.PLO[i], tol) for i in fine]
        assert tols.tolist() == expected
        if tol == 1e-3:     # the NaN P_lo row, the clamp and the cap
            assert expected[1] == 1e-14 and expected[3] == 0.25
        else:               # the floor
            assert expected[0] == 1e-14
        coarse = [i for i in range(7) if i not in fine]
        assert lower[coarse].tolist() == [math.exp(-self.PHI[i]) for i in coarse]
        assert upper[coarse].tolist() == [math.exp(-self.PLO[i]) for i in coarse]
        assert lower[fine].tolist() == [math.exp(-(1.0 + t)) for t in expected]
        assert upper[fine].tolist() == [math.exp(-1.0)] * len(fine)

    def test_no_fine_call_where_every_bracket_is_narrow(self):
        sigma = LadderStub([0.0, 100.0], [1e-6, 101.0])
        SingularInner(sigma).modulus_bounds(np.array([0.5, -0.5]), 1e-3)
        assert [(len(p), t) for p, t in sigma.calls] == [(2, 0.25)]

    def test_a_scalar_takes_the_same_ladder(self):
        sigma = LadderStub([0.0], [1.0])
        bounds = SingularInner(sigma).modulus_bounds(0.5j, 1e-3)
        assert [(p.tolist(), np.asarray(t).tolist()) for p, t in sigma.calls] == \
            [([0.5j], 0.25), ([0.5j], [reference_fine_tol(0.0, 1e-3)])]
        assert bounds == (math.exp(-(1.0 + 5e-4)), math.exp(-1.0))


class TestDiagnostics:
    def test_separation_two_points(self):
        delta, box = separation_constants(ZeroSequence([0.0, 0.5]))
        assert delta == pytest.approx(0.5)
        assert box > 0.0

    def test_radial_consecutive_separation_approaches_third(self):
        # rho(1-2^-n, 1-2^-(n+1)) = 1 / (3 - 2^{1-n}) -> 1/3 from above
        zs = ZeroSequence(radial_geometric_zeros().zeros[:20])
        delta, _ = separation_constants(zs)
        assert delta > 1.0 / 3.0
        assert delta == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_separation_matches_the_full_matrix(self):
        rng = np.random.default_rng(3)
        pts = 0.99 * np.sqrt(rng.random(400)) * np.exp(1j * TWO_PI * rng.random(400))
        d = np.abs(pts[:, None] - pts[None, :]) / np.abs(1.0 - np.conj(pts)[:, None] * pts)
        np.fill_diagonal(d, np.inf)
        assert separation_constants(ZeroSequence(pts.tolist()))[0] == d.min()

    def test_separation_memory_stays_flat(self):
        # the pairwise rho matrix is built in row blocks of BLOCK_ELEMENTS
        # entries, not of 512 rows (47 MiB at 2000 zeros)
        rng = np.random.default_rng(5)
        pts = 0.99 * np.sqrt(rng.random(2000)) * np.exp(1j * TWO_PI * rng.random(2000))
        zeros = ZeroSequence(pts.tolist())
        tracemalloc.start()
        try:
            separation_constants(zeros)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_box_constant_of_deep_zeros_away_from_angle_0(self):
        # at depth 22 the zero at angle 3 lies in box 2^21 or so; the box
        # sums are the per-zero loop's, and no array of 2^22 boxes (32 MiB)
        # is built
        pts = [0.5, (1.0 - 2.0 ** -20) * cmath.exp(3.0j), (1.0 - 2.0 ** -12) * cmath.exp(0.1j)]
        arr = np.array(pts)
        weights, angles = 1.0 - np.abs(arr), np.mod(np.angle(arr), TWO_PI)
        expected = 0.0
        for n in range(2, 23):
            sums: dict[int, float] = {}
            for z, wt, a in zip(pts, weights.tolist(), angles.tolist()):
                if abs(z) >= 1.0 - math.pi * 2.0 ** -n:
                    k = min(max(math.floor(a / (TWO_PI * 2.0 ** -n)), 0), (1 << n) - 1)
                    sums[k] = sums.get(k, 0.0) + wt
            expected = max([expected] + [s / (TWO_PI * 2.0 ** -n) for s in sums.values()])
        separation_constants(ZeroSequence(pts))   # numpy's first-call set-up
        tracemalloc.start()
        try:
            got = separation_constants(ZeroSequence(pts))[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected and peak < 2 ** 20


NEIGHBOURS = settings(max_examples=80, derandomize=True, deadline=None, database=None)
# zero angles anywhere, next to either side of the cut at 0 = 2 pi, and
# -1e-17, whose np.mod(., 2 pi) rounds to 2 pi exactly
ZERO_ANGLES = st.one_of(st.floats(0.0, TWO_PI), st.floats(-1e-9, 1e-9),
                        st.floats(TWO_PI - 1e-9, TWO_PI), st.just(-1e-17))
# depths 2^-k, from the origin to 2^-45
DEPTH_EXPONENTS = st.one_of(st.floats(0.0, 45.0), st.integers(0, 45).map(float))


def mobius(z: complex, u: complex) -> complex:
    """The point w with (w - z) / (1 - conj(z) w) = u, so rho(z, w) = |u|."""
    return (z + u) / (1.0 + z.conjugate() * u)


@st.composite
def clustered_zeros(draw, least: int, most: int) -> list:
    """least to most zeros: seeds at depths 2^-k on ZERO_ANGLES, each with
    up to two neighbours at rho 0.01 to 0.3, around the 1/5 of the lemma."""
    zeros: list = []
    while len(zeros) < least:
        k, a = draw(DEPTH_EXPONENTS), draw(ZERO_ANGLES)
        z = (1.0 - 2.0 ** -k) * cmath.exp(1j * a)
        zeros.append(z)
        for r, b in draw(st.lists(st.tuples(st.floats(0.01, 0.3), st.floats(0.0, TWO_PI)),
                                  max_size=2)):
            w = mobius(z, r * cmath.exp(1j * b))
            if abs(w) < 1.0:
                zeros.append(w)
    return zeros[:most]


@st.composite
def mu_cases(draw):
    """(MuMeasure, SquareArrays): clustered zeros, with or without an
    atomic boundary part, and squares of every kind: Q(0), half-windows of
    pi and more, centres next to the cut and far outside [-pi, pi], and
    windows whose edge is a zero's float angle."""
    zeros = draw(clustered_zeros(2, 30) | clustered_zeros(2, 2) | clustered_zeros(3, 3))
    angles = np.mod(np.angle(np.array(zeros)), TWO_PI).tolist()
    boundary = None
    if draw(st.booleans()):
        boundary = AtomicMeasure(draw(st.lists(st.tuples(ZERO_ANGLES.map(lambda a: a % TWO_PI),
                                                         st.floats(0.01, 2.0)),
                                               min_size=1, max_size=3,
                                               unique_by=lambda atom: atom[0])))
    horizon = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.05]))
    rows = [(1.0, 0.0, math.pi, 0.0, True)]
    # an arc of the boundary part has a half-width in (0, pi]
    halves = st.one_of(st.floats(1e-12, 0.5), st.just(math.pi), st.floats(1.5, 1.6))
    if boundary is None:
        halves = halves | st.floats(0.0, 4.0)
    for _ in range(draw(st.integers(1, 12))):
        half = draw(halves)
        kind = draw(st.sampled_from(["free", "edge", "far"]))
        if kind == "edge":
            center = draw(st.sampled_from(angles)) + draw(st.sampled_from([-half, half]))
        elif kind == "far":
            center = draw(st.floats(-100.0, 100.0))
        else:
            center = draw(ZERO_ANGLES | st.floats(-math.pi, math.pi))
        base = draw(st.floats(0.0, 1.0, exclude_max=True))
        side = draw(st.floats(0.0, 1.0))
        rows.append((side, center, half, base, False))
    rows = draw(st.permutations(rows))
    square = SquareArrays(*(np.array(column) for column in zip(*rows)))
    return MuMeasure(ZeroSequence(zeros, tail_blaschke_sum=horizon), boundary), square


def one_row(square: SquareArrays, i: int) -> SquareArrays:
    return SquareArrays(*(column[i:i + 1] for column in square))


def companion_zeros(theta: InnerFunction) -> np.ndarray:
    """The 2000 zeros construct --horizon 2000 --depth 14 places."""
    arcs = list(whitney_arcs(theta.singular_set(), min_length=TWO_PI * 2.0 ** -14))
    return np.array(place_zeros(build_gamma(choose_radii(theta, arcs)), 2000).zeros)


class TestNeighbourQueries:
    """separation_constants' minimum rho from neighbours, and mu(Q)'s zero
    masses from angle windows, against the all-pairs loop and the
    per-square reference, bit for bit."""

    @NEIGHBOURS
    @given(clustered_zeros(2, 60))
    def test_separation_matches_all_pairs(self, zeros):
        pts = np.array(zeros)
        assert separation_constants(ZeroSequence(zeros))[0] == reference_separation_delta(pts)

    @NEIGHBOURS
    @given(clustered_zeros(2, 2) | clustered_zeros(3, 3))
    def test_separation_of_two_and_three_zeros(self, zeros):
        pts = np.array(zeros)
        assert separation_constants(ZeroSequence(zeros))[0] == reference_separation_delta(pts)

    @pytest.mark.parametrize("zeros", [
        radial_geometric_zeros().zeros[:20],                     # every pair rho > 1/3
        [0.5, 1.0 - 2.0 ** -20],                                 # no pair near
        [0.9, 0.9j, -0.9, -0.9j, 0.0],                           # one bin, rho >= 0.9
        [(1.0 - 2.0 ** -30) * cmath.exp(1j * t) for t in (0.0, 1e-8, TWO_PI - 1e-8)],
    ], ids=["radial", "far-levels", "shallow", "deep-across-the-cut"])
    def test_all_pairs_loop_where_no_near_pair_is_below_a_fifth(self, zeros):
        pts = np.array(zeros, dtype=np.complex128)
        assert not _near_separation(pts) < 0.2
        delta = separation_constants(ZeroSequence(zeros))[0]
        assert delta == reference_separation_delta(pts) >= 0.2

    @NEIGHBOURS
    @given(mu_cases())
    def test_square_bounds_match_per_square(self, case):
        mu, square = case
        expected, error = [], None
        for i in range(len(square.side)):
            try:
                expected.append(reference_square_bounds(mu, one_row(square, i)))
            except TailBoundInsufficient as exc:
                error = error or str(exc)
        if error is not None:
            with pytest.raises(TailBoundInsufficient) as info:
                mu._squares_bounds(square)
            assert str(info.value) == error
            return
        lower, upper = mu._squares_bounds(square)
        assert list(zip(lower.tolist(), upper.tolist())) == expected
        assert [mu.of_square_bounds(one_row(square, i)) for i in range(len(square.side))] \
            == expected

    @pytest.mark.parametrize("family", [single_atom, radial_sparse],
                             ids=["atom1", "radial_sparse"])
    def test_2000_zero_companions(self, family):
        theta = family()
        pts = companion_zeros(theta)
        assert separation_constants(ZeroSequence(pts.tolist()))[0] \
            == _near_separation(pts) == reference_separation_delta(pts) < 0.2
        product = InnerFunction(theta.unimodular,
                                BlaschkeProduct(ZeroSequence(pts.tolist())), theta.singular)
        mu = product.mu()
        points, lower, _ = mu.positive_squares(range(2, 15))
        points = np.concatenate([points, level_points(6), level_points(7)])
        squares = carleson_squares(points)
        expected = [reference_square_bounds(mu, one_row(squares, i))
                    for i in range(len(points))]
        got = mu._squares_bounds(squares)
        assert list(zip(*(bound.tolist() for bound in got))) == expected
        assert lower.tolist() == [lo for lo, _ in expected[:lower.size]]


def mp_level(depth) -> int:
    """L with 2^-(L+1) < depth <= 2^-L."""
    level = int(mpmath.floor(-mpmath.log(depth, 2)))
    while depth > mpmath.mpf(2) ** -level:
        level -= 1
    while depth <= mpmath.mpf(2) ** -(level + 1):
        level += 1
    return level


def mp_bin(z, level: int) -> int:
    """z's angle bin in the grid of a level: 2^(L+3) bins from L = 2 on."""
    if level < 2:
        return 0
    n = 2 ** (level + 3)
    turns = mpmath.arg(z) / (2 * mpmath.pi)
    return int(mpmath.floor((turns % 1) * n)) % n


class TestNeighbourLemma:
    """At 50 digits: a pair of float zeros with rho < 1/5 lies in the same or
    adjacent levels, and in the same or adjacent angle bins of the
    shallower level, across the cut too; and _near_separation finds it."""

    @pytest.mark.parametrize("k", range(2, 46))
    def test_close_pairs_are_neighbours(self, k):
        rng = np.random.default_rng(k)
        close = 0
        with mpmath.workdps(50):
            for _ in range(60):
                a = rng.choice([rng.uniform(0.0, TWO_PI), rng.uniform(-1e-12, 1e-12)])
                z = (1.0 - 2.0 ** -(k + rng.uniform(0.0, 1.0))) * cmath.exp(1j * a)
                rho = rng.choice([rng.uniform(0.17, 0.23), rng.uniform(0.0, 0.2)])
                u = mpmath.mpf(rho) * mpmath.expj(rng.uniform(0.0, TWO_PI))
                zm = mpmath.mpc(z)
                w = complex(mobius(zm, u))
                if not abs(w) < 1.0:
                    continue
                wm = mpmath.mpc(w)
                if abs(zm - wm) / abs(1 - mpmath.conj(zm) * wm) >= mpmath.mpf(1) / 5:
                    continue
                close += 1
                lz, lw = mp_level(1 - abs(zm)), mp_level(1 - abs(wm))
                assert abs(lz - lw) <= 1
                grid = min(lz, lw)
                n = 2 ** (grid + 3) if grid >= 2 else 1
                assert (mp_bin(zm, grid) - mp_bin(wm, grid)) % n in {0, 1, n - 1}
                pts = np.array([z, w])
                assert _near_separation(pts) == reference_separation_delta(pts)
        assert close > 20

    @pytest.mark.parametrize("level", range(2, 41))
    def test_the_widest_close_pairs_are_found(self, level):
        # two zeros at depth 2^-L, rho 0.1999 apart along the circle, are
        # 0.408 2^-L apart in angle: two bins apart in a grid of 2^(L+4)
        # bins, so the grid of 2^(L+3) is the finest that holds them
        r, rho = 1.0 - 2.0 ** -level, 0.1999
        theta = 2.0 * math.asin(rho * (1.0 - r * r) / (2.0 * r * math.sqrt(1.0 - rho * rho)))
        fine = TWO_PI * 2.0 ** -(level + 4)
        alpha = 5.98 * fine
        assert math.floor((alpha + theta) / fine) == 7
        pts = np.array([r * cmath.exp(1j * alpha), r * cmath.exp(1j * (alpha + theta))])
        assert _near_separation(pts) == reference_separation_delta(pts) < 0.2


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


class TestZeroSequence:
    def test_interior_validation(self):
        with pytest.raises(DomainError):
            ZeroSequence([1.0])

    def test_non_finite_points_rejected(self):
        nan = complex(math.nan, 0.0)
        with pytest.raises(DomainError):
            ZeroSequence([nan])

        b = BlaschkeProduct([0.5])
        for query in (b.log_modulus, b.modulus_bounds, b.evaluate):
            with pytest.raises(DomainError):
                query(nan)
        sigma = AtomicMeasure([(0.0, 1.0)])
        for query in (sigma.poisson_bounds, sigma.herglotz_integral):
            with pytest.raises(DomainError):
                query(nan)


def _bits(value) -> list:
    """The bytes of every array or number in a nest of tuples and lists."""
    if isinstance(value, (tuple, list)):
        return [b for v in value for b in _bits(v)]
    return [np.asarray(value).tobytes()]


class TestSharedArrays:
    """The arrays a zero sequence, an atomic measure or mu builds once are
    shared by every call: a second call gives the first call's bits and
    leaves the stored arrays' bytes as they were."""

    CENTERS = np.array([0.4, 3.1, -1.0, 9.0, 5.0])
    HALVES = np.array([0.2, 1.0, 0.05, math.pi, 0.3])
    X_LO, X_HI = np.array([0.01, 0.1]), np.array([0.1, 0.5])
    POINTS = np.array([0.3 + 0.1j, -0.5j, 0.9 * cmath.exp(0.5j), 0.0, 0.99 * cmath.exp(3.0j)])

    @staticmethod
    def _stored(*owners) -> list:
        return [getattr(owner, name).tobytes() for owner, names in owners for name in names]

    def _twice(self, calls, *owners):
        before = self._stored(*owners)
        for i, call in enumerate(calls):
            first = _bits(call())
            assert _bits(call()) == first, i
            assert self._stored(*owners) == before, i

    @staticmethod
    def _sigma() -> AtomicMeasure:
        return AtomicMeasure([(0.5, 1.0), (3.0, 0.25), (-0.3, 2.0)], tail_mass=1e-12,
                             tail_hull=[BoundaryArc(5.0, 0.1)], accumulation=[5.0])

    SIGMA = ("_thetas", "_masses", "_xi", "_hull_arcs")

    def test_atomic_measure_kernels(self):
        sigma = self._sigma()
        support = sigma.support()
        self._twice([
            lambda: sigma.lower_mass_arcs(0.1),
            lambda: sigma.mass_of_arc_bounds_many(self.CENTERS, self.HALVES),
            lambda: sigma.mass_of_arc_bounds(BoundaryArc(0.5, 0.1)),
            lambda: sigma.poisson_bounds_many(self.POINTS, 1e-3),
            lambda: sigma.poisson_bounds(0.5j, 1e-3),
            lambda: sigma.sector_bounds(self.CENTERS, self.HALVES, self.X_LO, self.X_HI, 1e-3),
            lambda: sigma.herglotz_integral(0.3 + 0.1j, 1e-3),
            lambda: sigma.total_mass(), lambda: sigma.atoms,
            lambda: support.known_chord_distances(self.POINTS.real, self.POINTS.imag),
        ], (sigma, self.SIGMA), (support, ("_unit_points",)))

    def test_blaschke_product_queries(self):
        zeros = ZeroSequence([0.5, -0.3j, 0.9 * cmath.exp(2.0j), 0.0], tail_blaschke_sum=1e-12)
        b = BlaschkeProduct(zeros)
        self._twice([
            lambda: b.modulus_bounds(self.POINTS[:3], 1e-6),
            lambda: b.modulus_bounds(0.2 + 0.2j, 1e-6),
            lambda: b.log_modulus(0.1j, 1e-6), lambda: b.evaluate(0.1j, 1e-6),
            lambda: b.sector_bounds(self.CENTERS, self.HALVES, self.X_LO, self.X_HI),
            lambda: separation_constants(zeros), lambda: zeros.zeros,
        ], (zeros, ("_arr",)))

    def test_mu_queries(self):
        zeros = ZeroSequence([0.5, 0.9 * cmath.exp(0.5j), 0.99 * cmath.exp(-0.3j), 0.0])
        sigma = self._sigma()
        mu = InnerFunction(blaschke=BlaschkeProduct(zeros), singular=SingularInner(sigma)).mu()
        self._twice([
            lambda: mu.positive_squares(range(2, 9)), lambda: mu.lower_masses(self.POINTS),
            lambda: mu.of_square_bounds(carleson_square(0.9 * cmath.exp(0.5j))),
            lambda: mu._squares_bounds(carleson_squares(self.POINTS)),
        ], (zeros, ("_arr",)), (sigma, self.SIGMA),
            (mu, ("_radii", "_angles", "_weights", "_order", "_ring")))
