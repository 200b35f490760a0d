import math
import cmath
import tracemalloc

import mpmath
import numpy as np
import pytest

from onecomp.classify import EVAL_TOL, criterion_scan
from onecomp.companion import construct_companion
from onecomp.errors import (BlaschkeConditionError, DomainError,
                            HorizonExceeded, PrecisionExhausted,
                            TailBoundInsufficient)
from onecomp.families import (cantor_inner, example1, finite_blaschke,
                              radial_geometric, radial_geometric_zeros,
                              radial_sparse, single_atom, two_atoms)
from onecomp.geometry import (TWO_PI, BoundaryArc, CarlesonSquare, angular_gap,
                              carleson_square, carleson_squares, level_points,
                              pseudo_distance)
from onecomp.inner import (BlaschkeProduct, InnerFunction, MuMeasure,
                           SingularInner, ZeroSequence, dump_zeros_csv,
                           load_zeros_csv, separation_constants)
from onecomp.measures import AtomicMeasure, CdfMeasure


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
        zs = ZeroSequence([0.5], tail_blaschke_sum=0.2)
        b = BlaschkeProduct(zs)
        with pytest.raises(TailBoundInsufficient):
            b.log_modulus(0.9, 1e-9)
        with pytest.raises(TailBoundInsufficient):
            b.modulus_bounds(0.9, 1e-9)


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
        zs = radial_geometric_zeros()
        zs.materialize_count(4)          # listed down to 1 - 2^-4

        def frozen():
            yield from ()

        partial = ZeroSequence(zs.zeros, generator=iter([(complex(1 - 2.0 ** -5, 0), 2.0 ** -5)]),
                               tail_blaschke_sum=2.0 ** -4, ordered_by_modulus=True)
        theta = InnerFunction(blaschke=BlaschkeProduct(partial))
        mu = theta.mu(min_side=2.0 ** -4)
        with pytest.raises(HorizonExceeded):
            mu.of_square_bounds(carleson_square(1.0 - 2.0 ** -9))

    def test_window_matches_member_loop(self, companion200):
        # reference: the per-zero loop, fsum of the weights of member zeros
        geometric = radial_geometric_zeros()
        geometric.materialize_count(50)
        squares = [carleson_square(0.0)] + [
            carleson_square(z) for level in range(2, 11)
            for z in level_points(level).tolist()]
        for zeros in (companion200.zeros.zeros, geometric.zeros, []):
            mu = finite_blaschke(zeros).mu()
            positive = 0
            for square in squares:
                expected = math.fsum(wt for z, wt in mu.zero_atoms
                                     if square.member(z))
                assert mu.of_square_bounds(square) == (expected, expected)
                positive += expected > 0.0
            assert (positive > 0) == bool(zeros)


def reference_square_bounds(mu: MuMeasure, square, tol: float = 1e-12):
    """The per-square of_square_bounds that the batched kernel replaced,
    with the per-atom loop of AtomicMeasure.mass_of_arc_bounds inlined."""
    if not square.whole_disc and square.side < mu.horizon:
        raise HorizonExceeded("square side %g below materialization horizon %g"
                              % (square.side, mu.horizon))
    total = 0.0
    if mu.zero_atoms:
        zs = np.array([z for z, _ in mu.zero_atoms], dtype=np.complex128)
        radii, angles = np.abs(zs), np.mod(np.angle(zs), TWO_PI)
        weights = np.array([wt for _, wt in mu.zero_atoms])
        gap = np.abs(np.mod(angles - square.center_angle + math.pi, TWO_PI) - math.pi)
        inside = (gap <= square.half_window) & (radii >= square.base_modulus)
        total = math.fsum(weights[inside].tolist())
    if mu.boundary is None:
        return (total, total)
    arc = BoundaryArc(square.center_angle, square.half_window)
    if isinstance(mu.boundary, AtomicMeasure):
        atomic = 0.0
        for theta, mass in mu.boundary.atoms:
            if angular_gap(theta, arc.center_angle) <= arc.half_width \
                    or arc.half_width >= math.pi:
                atomic += mass
        blo, bhi = atomic, atomic + mu.boundary.tail_mass
    else:
        blo, bhi = mu.boundary.mass_of_arc_bounds(arc, closed_ends=True, tol=tol)
    return (total + blo, total + bhi)


def scan_tail_mu(theta: InnerFunction, depth: int) -> MuMeasure:
    """theta's mu, materialized as criterion_scan materializes it."""
    min_side = 0.75 * math.pi * 2.0 ** -depth
    sigma = theta.singular.sigma if theta.singular is not None else None
    if isinstance(sigma, AtomicMeasure) and sigma.tail_mass > 0.0:
        sigma.materialize_until_tail(max(min_side ** 4, 1e-40))
    return theta.mu(min_side=min_side)


def level_position(z: complex, level: int) -> int:
    """Position of a scan point in level_points(level)."""
    return round(cmath.phase(z) % TWO_PI / (math.pi * 2.0 ** -level)) % (2 << level)


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
        geometric.materialize_count(50)
        cdf = CdfMeasure([(0.0, 0.0), (1.0, 0.2), (2.0, 0.5), (4.0, 0.9), (TWO_PI, 1.0)])
        return {
            "atom1": single_atom(), "atoms2": two_atoms(), "example1": example1(),
            "companion200": finite_blaschke(companion200.zeros.zeros),
            "radial_geometric": finite_blaschke(geometric.zeros),
            "product": _product_with_atom1(companion200.zeros.zeros),
            "cdf": InnerFunction(singular=SingularInner(cdf)),
            "cantor": cantor_inner(), "no_zeros": finite_blaschke([]),
        }

    @pytest.mark.parametrize("case", ["atom1", "atoms2", "example1", "companion200",
                                      "radial_geometric", "product", "cdf",
                                      "cantor", "no_zeros"])
    def test_lower_masses_match_per_square_loop(self, case, companion200):
        theta = self._cases(companion200)[case]
        mu = scan_tail_mu(theta, 12)
        positive = 0
        for level in range(2, 13):
            points = level_points(level)
            expected = [reference_square_bounds(mu, carleson_square(z), 1e-9)[0]
                        for z in points.tolist()]
            got = mu.lower_masses(points, 1e-9)
            assert got.tolist() == expected, level
            positive += sum(m > 0.0 for m in expected)
        assert (positive > 0) == (case != "no_zeros")

    def test_one_row_bounds_match_reference(self, companion200):
        squares = [carleson_square(0.0), carleson_square(0.5 + 0.5j),
                   CarlesonSquare(0.0, 3.0 * (1.0 - 0.9)), carleson_square(-0.999)]
        for theta in self._cases(companion200).values():
            mu = scan_tail_mu(theta, 10)
            for square in squares:
                assert mu.of_square_bounds(square, 1e-9) == \
                    reference_square_bounds(mu, square, 1e-9)

    def test_horizon_exceeded_at_the_same_first_square(self):
        zs = radial_geometric_zeros()
        zs.materialize_count(6)
        partial = ZeroSequence(zs.zeros, generator=iter(()),
                               tail_blaschke_sum=2.0 ** -6, ordered_by_modulus=True)
        mu = InnerFunction(blaschke=BlaschkeProduct(partial)).mu()
        assert mu.horizon > 0.0
        for level in range(2, 13):
            points = level_points(level)
            try:
                for z in points.tolist():
                    reference_square_bounds(mu, carleson_square(z))
            except HorizonExceeded as exc:
                expected = str(exc)
                break
        else:
            pytest.fail("no level reached the horizon")
        for before in range(2, level):
            mu.lower_masses(level_points(before))
        with pytest.raises(HorizonExceeded) as info:
            mu.lower_masses(points)
        assert str(info.value) == expected

    def test_square_arrays_match_carleson_square(self):
        for level in range(2, 15):
            points = level_points(level)
            squares = carleson_squares(points)
            reference = [carleson_square(z) for z in points.tolist()]
            assert squares.side.tolist() == [q.side for q in reference]
            assert squares.center_angle.tolist() == [q.center_angle for q in reference]

    def test_origin_is_the_whole_disc(self):
        squares = carleson_squares(np.array([0j, complex(-0.0, 0.0), 0.5j]))
        whole = carleson_square(0.0)
        assert squares.whole_disc.tolist() == [True, True, False]
        for i in (0, 1):
            assert (squares.side[i], squares.center_angle[i], squares.half_window[i],
                    squares.base_modulus[i]) == (whole.side, whole.center_angle,
                                                 whole.half_window, whole.base_modulus)

    def test_domain_error_outside_the_disc(self):
        with pytest.raises(DomainError):
            carleson_squares(np.array([0.5, 1.0 + 0j]))

    @pytest.mark.parametrize("depth", [2, 3, 4, 6])
    def test_positive_squares_follow_lazily_listed_atoms(self, depth):
        # evaluating Theta lists more atoms at shallow scan depths, here at
        # golden-angle steps around the first quarter circle, so later
        # squares of the same level gain mass; their masses must be those of
        # a query made then.  Atom 22, listed while level 2 is scanned at
        # every depth here, lands at 5 pi / 4, in a box that held no listed
        # mass when the level began
        def build():
            gen = ((1.25 * math.pi if n == 22 else n * 2.399963229728653 % (0.5 * math.pi),
                    2.0 ** -n, 2.0 ** -n) for n in range(1, 60))
            sigma = AtomicMeasure([(0.0, 1.0)], generator=gen, tail_mass=1.0)
            return InnerFunction(singular=SingularInner(sigma))

        def scan(positive_of):
            theta = build()
            mu = scan_tail_mu(theta, depth)
            hits, dead = [], 0
            for level in range(2, depth + 1):
                live = mu._live_points(level).tolist()
                for z, mass in positive_of(mu, level):
                    hits.append((level, z, mass))
                    dead += level_position(z, level) not in live
                    theta.modulus_bounds(z, 1e-6)
            return hits, mu.boundary.atom_count, dead

        def per_point(mu, level):
            for z in level_points(level).tolist():
                mass = reference_square_bounds(mu, carleson_square(z), 1e-9)[0]
                if mass > 0.0:
                    yield z, mass

        expected, listed, dead = scan(per_point)
        assert listed > scan_tail_mu(build(), depth).boundary.atom_count
        assert scan(lambda mu, level: mu.positive_squares(level, 1e-9)) == \
            (expected, listed, dead)
        assert dead > 0


def full_level_scan(theta: InnerFunction, depth: int) -> list:
    """(level, z, lower mass, |Theta| bracket) of each scan point with
    positive mass, as the scan found them before pruning: every point of
    every level queried, and the rest of a level queried again after an
    evaluation listed more atoms."""
    mu = scan_tail_mu(theta, depth)
    record = []
    for level in range(2, depth + 1):
        points = level_points(level)
        start = 0
        while start < len(points):
            atoms = mu.boundary.atom_count if mu.boundary is not None else 0
            lower = mu.lower_masses(points[start:], 1e-9)
            for i in np.flatnonzero(lower > 0.0).tolist():
                z = complex(points[start + i])
                record.append((level, z, float(lower[i]),
                               tuple(theta.modulus_bounds(z, EVAL_TOL))))
                if mu.boundary is not None and mu.boundary.atom_count != atoms:
                    start += i + 1
                    break
            else:
                break
    return record


def criterion_scan_record(theta: InnerFunction, depth: int, monkeypatch) -> list:
    """The same tuples, read off criterion_scan's positive_squares items
    and |Theta| evaluations."""
    hits, brackets = [], []
    positive_squares, modulus_bounds = MuMeasure.positive_squares, theta.modulus_bounds

    def recording(mu, level, tol):
        for z, mass in positive_squares(mu, level, tol):
            hits.append((level, z, mass))
            yield z, mass

    def evaluate(z, tol):
        bracket = modulus_bounds(z, tol)
        brackets.append(tuple(bracket))
        return bracket

    with monkeypatch.context() as patch:
        patch.setattr(MuMeasure, "positive_squares", recording)
        patch.setattr(theta, "modulus_bounds", evaluate)
        criterion_scan(theta, depth)
    assert len(hits) == len(brackets)
    return [hit + (bracket,) for hit, bracket in zip(hits, brackets)]


RISING_CDF = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (4.0, 0.5), (5.0, 1.0), (TWO_PI, 1.0)]


class TestPrunedScan:
    """criterion_scan, which queries mu only next to listed mass, against
    the full-level scan, bit for bit."""

    CASES = {
        "atom1": (single_atom, 14), "atoms2": (two_atoms, 14),
        "radial_geometric": (radial_geometric, 14), "radial_sparse": (radial_sparse, 14),
        "cantor": (cantor_inner, 6),
        "cdf": (lambda: InnerFunction(singular=SingularInner(CdfMeasure(RISING_CDF))), 10),
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
            zs = radial_geometric_zeros()
            zs.materialize_count(6)
            partial = ZeroSequence(zs.zeros, generator=iter(()),
                                   tail_blaschke_sum=2.0 ** -6, ordered_by_modulus=True)
            return InnerFunction(blaschke=BlaschkeProduct(partial)).mu()

        def first_failure(query):
            for level in range(2, 13):
                try:
                    query(level)
                except HorizonExceeded as exc:
                    return level, str(exc)
            pytest.fail("no level reached the horizon")

        reference = partial_mu()
        expected = first_failure(lambda level: [
            reference_square_bounds(reference, carleson_square(z))
            for z in level_points(level).tolist()])
        mu = partial_mu()
        assert first_failure(lambda level: list(mu.positive_squares(level))) == expected
        assert expected[0] == 8 and mu._live_points(8).size == 0


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
    # zeros 1 - 2^-n for n <= 20, then an exhausted generator with tail 2^-20
    def gen():
        for n in range(1, 21):
            yield (complex(1.0 - 2.0 ** -n, 0.0), 2.0 ** -n)

    return ZeroSequence(generator=gen(), tail_blaschke_sum=1.0, ordered_by_modulus=True)


def bracket_loop(b: BlaschkeProduct, points, tol: float) -> list:
    """modulus_bounds at each point in turn on one instance, as the spot
    check and the scans call it; (type, message) ends the list on an error."""
    out = []
    for z in points:
        try:
            out.append(tuple(b.modulus_bounds(z, tol)))
        except (DomainError, TailBoundInsufficient) as err:
            out.append((type(err), str(err)))
            break
    return out


@pytest.mark.filterwarnings("error")
class TestModulusBoundsMany:
    """BlaschkeProduct.modulus_bounds called at many points on one instance
    against a fresh instance per point, so zeros listed by earlier calls
    cannot change a later bracket."""

    def test_points_at_zeros_and_no_zeros(self):
        zeros = [0.5, 0.3 + 0.4j, -0.7j]
        points = [0.5, 0.0, 0.3 + 0.4j, -0.7j, 0.9 + 0.1j, 0.3 + 0.4j]
        for tol in (1e-9, 0.5):
            got = bracket_loop(BlaschkeProduct(zeros), points, tol)
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
        assert reference.zeros.exhausted and reference.zeros.tail_blaschke_sum > 0.0
        # a fresh instance fails at the same point; the budget in the message
        # depends on how many zeros were listed before the call
        failing = points[len(expected) - 1]
        fresh = BlaschkeProduct(truncated_geometric_zeros())
        assert bracket_loop(fresh, [failing], 1e-3)[0][0] is TailBoundInsufficient
        assert fresh.zeros.zeros == reference.zeros.zeros


def per_point_bounds(f, points: np.ndarray, tol: float) -> tuple:
    """(lower, upper) arrays of modulus_bounds called at each point in turn."""
    pairs = [tuple(f.modulus_bounds(z, tol)) for z in points.tolist()]
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
    """modulus_bounds on a complex array against the per-point calls in the
    same order on a separate instance, bit for bit."""

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

    def test_listing_grows_in_the_middle_of_the_array(self, monkeypatch):
        points = some_points(12)
        reference = BlaschkeProduct(radial_geometric_zeros())
        expected = per_point_bounds(reference, points, 1e-6)
        batch = BlaschkeProduct(radial_geometric_zeros())
        calls = []
        log_sums = batch._log_sums
        monkeypatch.setattr(batch, "_log_sums",
                            lambda pts: calls.append(len(pts)) or log_sums(pts))
        assert array_bounds(batch, points, 1e-6) == expected
        assert batch.zeros.zeros == reference.zeros.zeros
        # the first call sums the whole array; a later point lists more
        # zeros and the rest of the array is summed again
        assert calls[0] == len(points) and len(points) > min(calls[1:]) > 0

    @pytest.mark.parametrize("theta", [single_atom, example1, two_atoms,
                                       lambda: InnerFunction(
                                           blaschke=BlaschkeProduct([0.5, -0.3j]),
                                           singular=SingularInner(
                                               AtomicMeasure([(1.0, 0.5)])))],
                             ids=["atom1", "example1", "atoms2", "zeros_and_atom"])
    def test_atomic_singular_part(self, theta):
        points = some_points(6)
        for tol in (1e-9, 1e-3):
            assert array_bounds(theta(), points, tol) == \
                per_point_bounds(theta(), points, tol)

    def test_coarse_pass_lists_no_atom_ahead_of_a_fine_pass(self):
        # the first point needs a fine pass; the second, far deeper, lists
        # more atoms in its coarse pass than that fine pass does
        points = np.array([-0.5, (1.0 - 1e-6) * cmath.exp(0.3j), 0.25j, -0.9])
        reference, batch = example1(), example1()
        assert array_bounds(batch, points, 1e-3) == per_point_bounds(reference, points, 1e-3)
        assert batch.singular.sigma.atoms == reference.singular.sigma.atoms

    def test_precision_exhausted_at_the_same_point(self):
        # a fine pass fails at the first point, before the coarse pass of
        # the deep second point would
        make = lambda: SingularInner(AtomicMeasure([(0.0, 1.0)], tail_mass=1e-4))  # noqa: E731
        points = np.array([-0.5, 1.0 - 1e-4])
        with pytest.raises(PrecisionExhausted) as reference:
            per_point_bounds(make(), points, 1e-6)
        with pytest.raises(PrecisionExhausted) as batched:
            make().modulus_bounds(points, 1e-6)
        assert str(batched.value) == str(reference.value) and "|z|=0.5" in str(reference.value)
        assert batched.value.bracket == reference.value.bracket

    def test_empty_array(self):
        empty = np.zeros(0, dtype=np.complex128)
        for f in (BlaschkeProduct([0.5]), BlaschkeProduct(radial_geometric_zeros()),
                  single_atom(), radial_geometric()):
            lower, upper = f.modulus_bounds(empty, 1e-9)
            assert lower.shape == upper.shape == (0,)

    @pytest.mark.parametrize("outside", [1.0, -1.5j, complex(math.nan, 0.0),
                                         complex(math.inf, 0.0)])
    def test_outside_point_rejected_before_any_zero_is_listed(self, outside):
        points = np.concatenate([some_points(8), [outside], level_points(9)])
        for f in (BlaschkeProduct(radial_geometric_zeros()), radial_geometric()):
            zeros = f.zeros if isinstance(f, BlaschkeProduct) else f.blaschke.zeros
            listed = len(zeros)
            with pytest.raises(DomainError, match="require"):
                f.modulus_bounds(points, 1e-9)
            assert len(zeros) == listed


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

    def test_separation_matches_the_full_matrix(self):
        rng = np.random.default_rng(3)
        pts = 0.99 * np.sqrt(rng.random(400)) * np.exp(1j * TWO_PI * rng.random(400))
        d = np.abs(pts[:, None] - pts[None, :]) / np.abs(1.0 - np.conj(pts)[:, None] * pts)
        np.fill_diagonal(d, np.inf)
        assert separation_constants(ZeroSequence(pts.tolist()), 400)[0] == d.min()

    def test_separation_memory_stays_flat(self):
        # the pairwise rho matrix is built in row blocks of BLOCK_ELEMENTS
        # entries, not of 512 rows (47 MiB at 2000 zeros)
        rng = np.random.default_rng(5)
        pts = 0.99 * np.sqrt(rng.random(2000)) * np.exp(1j * TWO_PI * rng.random(2000))
        zeros = ZeroSequence(pts.tolist())
        tracemalloc.start()
        try:
            separation_constants(zeros, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


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
