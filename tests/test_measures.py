import contextlib
import math
import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecomp.errors import DomainError, OnecompError, PrecisionExhausted
from onecomp.families import example1_measure
from onecomp.geometry import (TWO_PI, BoundaryArc, angle_mod, angular_gap,
                              carleson_squares, level_points)
from onecomp.inner import SingularInner
from onecomp.measures import (AtomicMeasure, CantorMeasure, CdfMeasure, _fsum_rows,
                              _herglotz_kernel)

from conftest import poisson_kernel, reference_modulus_bounds, reference_poisson_bounds


def cantor():
    return CantorMeasure.middle_thirds()


class TestMassOfArc:
    def test_atom_inside_closed_arc(self):
        sigma = AtomicMeasure([(0.0, 1.0)])
        assert sigma.mass_of_arc(BoundaryArc(0.0, 0.1)) == 1.0

    def test_atom_on_endpoint_needs_closed_ends(self):
        sigma = AtomicMeasure([(0.1, 1.0)])
        arc = BoundaryArc(0.0, 0.1)
        assert sigma.mass_of_arc(arc) == 1.0

    def test_batch_matches_per_atom_loop(self):
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
                if gap <= h or h >= math.pi:
                    total += mass
            expected.append(total)
        lo, hi = sigma.mass_of_arc_bounds_many(centers, halves)
        assert lo.tolist() == expected
        assert hi.tolist() == [t + 1e-3 for t in expected]
        assert [sigma.mass_of_arc_bounds(BoundaryArc(c, h))[0]
                for c, h in zip(centers.tolist(), halves.tolist())] == expected
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
                whole = sigma.mass_of_arc(BoundaryArc.from_endpoints(lo, hi), tol=1e-14)
                left = sigma.mass_of_arc(BoundaryArc.from_endpoints(lo, mid), tol=1e-14)
                right = sigma.mass_of_arc(BoundaryArc.from_endpoints(mid, hi), tol=1e-14)
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
                mass = sigma.mass_of_arc(arc, tol=1e-13)
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
            d2min, d2max = _cell_distances2(z, np.array([lo]), np.array([hi]), True)
            one_minus_r2 = 1.0 - abs(z) ** 2
            kmin, kmax = one_minus_r2 / d2max[0], one_minus_r2 / d2min[0]
            for t in np.linspace(lo, hi, 64):
                val = poisson_kernel(z, t)
                assert kmin - 1e-12 * kmax <= val <= kmax * (1 + 1e-12)

    def test_near_row_alone_has_the_bits_of_both_rows(self):
        # the Herglotz bound asks for the near row only
        from onecomp.measures import _cell_distances2
        rng = np.random.default_rng(29)
        for n in (1, 7, 100, 5000):
            z = 0.99 * math.sqrt(rng.random()) * cmath.exp(1j * TWO_PI * rng.random())
            lo = TWO_PI * rng.random(n)
            hi = lo + rng.random(n) * 2.0 ** -rng.integers(0, 30, n)
            near = _cell_distances2(z, lo, hi, False)
            assert near.shape == (1, n)
            assert near.tobytes() == _cell_distances2(z, lo, hi, True)[0].tobytes()

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


def per_point(bounds, points):
    """bounds(z) at each point in turn: (lower bytes, upper bytes, the
    index, message and bracket of a PrecisionExhausted or None)."""
    pairs, failure = [], None
    for i, z in enumerate(points.tolist()):
        try:
            pairs.append(tuple(bounds(z)))
        except PrecisionExhausted as exc:
            failure = (i, str(exc), exc.bracket)
            break
    lower, upper = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return lower.tobytes(), upper.tobytes(), failure


def per_point_poisson(sigma, points, tol):
    return per_point(lambda z: reference_poisson_bounds(sigma, z, tol), points)


def per_point_modulus(f, points, tol):
    return per_point(lambda z: reference_modulus_bounds(f, z, tol), points)


def batched_poisson(sigma, points, tol):
    """per_point_poisson through poisson_bounds_many, whose one call either
    answers every point or raises an OnecompError; None when it raises."""
    try:
        lo, hi = sigma.poisson_bounds_many(points, tol)
    except OnecompError:
        return None
    assert lo.shape == hi.shape == points.shape
    return lo.tobytes(), hi.tobytes(), None


def batched_modulus(f, points, tol):
    """per_point_modulus through modulus_bounds on the array,
    which answers every point or raises the per-point loop's first error.
    On an error, the failing index i is the first whose prefix call raises:
    the call on points[:i] gives their bits, and the call on points[:i + 1]
    raises the whole call's message and bracket."""
    try:
        lo, hi = f.modulus_bounds(points, tol)
    except PrecisionExhausted as exc:
        error = (str(exc), exc.bracket)
    else:
        assert lo.shape == hi.shape == points.shape
        return lo.tobytes(), hi.tobytes(), None
    for i in range(len(points)):
        try:
            f.modulus_bounds(points[:i + 1], tol)
        except PrecisionExhausted as exc:
            assert (str(exc), exc.bracket) == error
            lo, hi = f.modulus_bounds(points[:i], tol)
            assert lo.shape == hi.shape == (i,)
            return lo.tobytes(), hi.tobytes(), (i,) + error
    pytest.fail("the whole call raised, but no prefix call does")


def depth_points(deepest, per_depth=96):
    """Up to per_depth level_points of each depth 2..deepest, spread over the
    circle, in depth order."""
    return np.concatenate([
        level_points(d, np.unique(np.linspace(0, (2 << d) - 1, per_depth).astype(np.int64)))
        for d in range(2, deepest + 1)])


@pytest.mark.filterwarnings("error")
class TestPoissonBoundsMany:
    """poisson_bounds_many against the reference poisson_bounds at each
    point in turn, on separate instances, bit for bit."""

    MEASURES = {
        "atom1": lambda: AtomicMeasure([(0.0, 1.0)]),
        "atoms2": lambda: AtomicMeasure([(0.0, 1.0), (math.pi, 1.0)]),
        "rotated": lambda: AtomicMeasure([(4.1, 0.3), (4.1 + 1e-3, 0.2), (1.0, 0.5)]),
        "example1_listed": example1_measure,
        "cdf": lambda: CdfMeasure([(0.0, 0.0), (1.0, 0.4), (4.0, 0.4), (TWO_PI, 1.0)]),
        "no_atoms": lambda: AtomicMeasure([]),
        # masses over 30 orders of magnitude, angles spread over the circle
        "atoms300": lambda: AtomicMeasure(
            [(TWO_PI * k / 300.0 + 1e-3 * math.sin(k), 10.0 ** (-30.0 * ((7 * k) % 300) / 300.0))
             for k in range(300)]),
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("tol", [0.25, 1e-9])
    def test_matches_per_point_at_depths_2_to_14(self, name, tol):
        points = depth_points(14)
        make = self.MEASURES[name]
        reference, batch = make(), make()
        got = batched_poisson(batch, points, tol)
        assert got == per_point_poisson(reference, points, tol)
        assert got[2] is None
        assert batched_poisson(batch, points[:0], tol) == \
            per_point_poisson(reference, points[:0], tol)

    def test_cantor_points_one_by_one(self):
        points = np.array([0.0, 0.5 + 0.3j, (1.0 - 2.0 ** -9) * cmath.exp(0.5j * math.pi)])
        got = batched_poisson(cantor(), points, 1e-4)
        assert got == per_point_poisson(cantor(), points, 1e-4)
        assert got[2] is None

    @pytest.mark.parametrize("tail_hull", [(), (BoundaryArc(0.5, 0.1),)])
    def test_precision_exhausted_at_the_same_point(self, tail_hull):
        # the fine pass of |S| at tol 1e-6 fails from depth 9 or so, where
        # tail * (1 + r) / (1 - r) passes its Poisson tolerance, and the
        # array call raises the per-point loop's error; the kernel called at
        # tol 1e-6 raises too
        points = depth_points(14, per_depth=8)
        make = lambda: AtomicMeasure([(0.0, 1.0), (0.5, 0.25)], tail_mass=1e-9,  # noqa: E731
                                     tail_hull=tail_hull)
        expected = per_point_modulus(SingularInner(make()), points, 1e-6)
        assert expected[2] is not None and 0 < expected[2][0] < len(points) - 1
        assert batched_modulus(SingularInner(make()), points, 1e-6) == expected
        assert batched_poisson(make(), points, 1e-6) is None

    @pytest.mark.parametrize("name", ["atoms_with_tail", "cantor"])
    def test_a_tol_per_point_is_each_points_scalar_call(self, name):
        # one tol per point, the fine pass's call shape: each point gets
        # the scalar bracket, and the reference's, at its own tol
        if name == "cantor":
            make = cantor
            points = np.array([0.5 + 0.3j, 0.9 * cmath.exp(2j), -0.7j, 0.0])
            tols = np.array([1e-4, 0.25, 1e-2, 1e-6])
        else:
            make = lambda: AtomicMeasure([(0.0, 1.0), (0.5, 0.25)], tail_mass=1e-13)  # noqa: E731
            points = depth_points(10, per_depth=8)
            tols = np.resize([0.25, 1e-3, 1e-6, 1e-9], len(points))
        pairs = list(zip(points.tolist(), tols.tolist()))
        got = [a.tobytes() for a in make().poisson_bounds_many(points, tols)]
        for bounds in (make().poisson_bounds, lambda z, t: reference_poisson_bounds(make(), z, t)):
            lo, hi = np.array([bounds(z, t) for z, t in pairs]).reshape(-1, 2).T
            assert got == [lo.tobytes(), hi.tobytes()]
        if name != "cantor":    # a float tol is that tol at every point
            got, same = (make().poisson_bounds_many(points, t)
                         for t in (1e-9, np.full(len(points), 1e-9)))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in same]

    def test_a_tol_per_point_fails_at_the_first_point_over_its_own_tol(self):
        # the tail 1e-9 meets the deep first point's tol 0.25, not the
        # second point's tol 1e-12 (nor the fourth's); a float tol 1e-12
        # would fail at the first point
        sigma = AtomicMeasure([(0.0, 1.0)], tail_mass=1e-9)
        points = np.array([(1.0 - 1e-6) * 1j, 0.5j, 0.5, (1.0 - 1e-7) * 1j])
        tols = np.array([0.25, 1e-12, 1e-6, 1e-3])
        errors = []
        for call in (lambda: sigma.poisson_bounds_many(points, tols),
                     lambda: [reference_poisson_bounds(sigma, z, t)
                              for z, t in zip(points.tolist(), tols.tolist())]):
            with pytest.raises(PrecisionExhausted) as err:
                call()
            errors.append((str(err.value), err.value.bracket))
        assert errors[0] == errors[1]
        assert errors[0][0].endswith("cannot meet tol 1e-12 at 1 - |z| = 0.5")

    def test_one_row_blocks_give_the_same_bits(self, monkeypatch):
        import onecomp.measures as measures
        monkeypatch.setattr(measures, "BLOCK_ELEMENTS", 7)
        points = depth_points(8, per_depth=16)
        got = batched_poisson(example1_measure(), points, 1e-9)
        assert got == per_point_poisson(example1_measure(), points, 1e-9)

    def test_outside_point_rejected(self):
        with pytest.raises(DomainError):
            AtomicMeasure([(0.0, 1.0)]).poisson_bounds_many(np.array([0.5, 1.0 + 0j]), 1e-9)

    @pytest.mark.parametrize("z", [1.5, (1.0 - 1e-6) * 1j], ids=["outside", "tail"])
    def test_one_point_errors_are_the_per_point_errors(self, z):
        # at a point outside the disc, and at one where the tail 1e-9 cannot
        # meet tol, the kernel on the one-point array raises the scalar
        # call's type, message and bracket, which are the reference's
        sigma = AtomicMeasure([(0.0, 1.0), (2.0, 0.5)], tail_mass=1e-9)
        errors = []
        for call in (lambda: sigma.poisson_bounds_many(np.array([z]), 1e-6),
                     lambda: sigma.poisson_bounds(z, 1e-6),
                     lambda: reference_poisson_bounds(sigma, z, 1e-6)):
            with pytest.raises(OnecompError) as err:
                call()
            errors.append((type(err.value), str(err.value), getattr(err.value, "bracket", None)))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][1].endswith("got |z| = 1.5" if z == 1.5 else "at 1 - |z| = 1e-06")

    def test_outside_point_after_a_failing_point(self):
        # the kernel raises DomainError at the outside point; the loop fails
        # first, in the fine pass of the deep point before it (off the atom,
        # so |S| is not 0 there and the fine pass runs)
        make = lambda: AtomicMeasure([(0.0, 1.0)], tail_mass=1e-9)  # noqa: E731
        points = np.array([0.5, (1.0 - 1e-6) * 1j, 1.5, 0.25j])
        with pytest.raises(DomainError):
            make().poisson_bounds_many(points, 0.25)
        expected = per_point_modulus(SingularInner(make()), points, 1e-6)
        assert expected[2][0] == 1
        assert batched_modulus(SingularInner(make()), points, 1e-6) == expected

    def test_kernel_error_gives_way_to_the_loops_first(self):
        # the coarse kernel fails at the deepest points, the loop's fine
        # pass at the first point
        points = depth_points(14, per_depth=8)
        make = lambda: AtomicMeasure([(0.0, 1.0), (0.5, 0.25)], tail_mass=3e-5)  # noqa: E731
        assert batched_poisson(make(), points, 0.25) is None
        expected = per_point_modulus(SingularInner(make()), points, 1e-6)
        assert expected[2][0] == 0
        assert batched_modulus(SingularInner(make()), points, 1e-6) == expected

    def test_float_power_squares_as_python_does(self):
        # the term matrix squares |z - e^{it}| with np.float_power, standing
        # in for the per-point abs(...) ** 2
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.random(200000) * 2.0, rng.random(200000) * 1e-6])
        assert np.float_power(x, 2.0).tolist() == [v ** 2 for v in x.tolist()]


ROW_SUMS = settings(max_examples=120, derandomize=True, deadline=None, database=None)
FSUM = math.fsum


@st.composite
def term_matrices(draw, lowest=-1074, highest=1014):
    """A nonnegative matrix of 1-3 rows and 1-300 columns whose terms are
    m 2^e, m in [0.5, 1), e drawn from a random window of [lowest, highest];
    some terms are set to 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 300)))
    top = draw(st.integers(lowest, highest))
    bottom = draw(st.integers(lowest, top))
    terms = np.ldexp(0.5 + 0.5 * rng.random(shape), rng.integers(bottom, top + 1, shape))
    terms[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = 0.0
    return terms


@contextlib.contextmanager
def fsum_calls():
    """The list of the rows handed to math.fsum inside the block."""
    calls = []

    def counted(values):
        calls.append(values)
        return FSUM(values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(math, "fsum", counted)
        yield calls


class TestRowSums:
    """_fsum_rows, the atomic Poisson kernel's row sums, against math.fsum
    row by row, bit for bit."""

    @staticmethod
    def check(terms):
        """Asserts the bits; returns the number of rows fsum'ed."""
        with fsum_calls() as calls:
            got = _fsum_rows(terms)
        assert got.dtype == np.float64 and got.shape == (len(terms),)
        assert got.tolist() == [FSUM(row) for row in terms.tolist()]
        return len(calls)

    @ROW_SUMS
    @given(terms=term_matrices())
    def test_nonnegative_rows_of_widths_1_to_300(self, terms):
        self.check(terms)

    @ROW_SUMS
    @given(rows=st.lists(st.lists(st.floats(0.0, 2.0 ** 1014), min_size=5, max_size=5),
                         min_size=1, max_size=4))
    def test_edge_floats(self, rows):
        # hypothesis's own floats: 0, subnormals, powers of two, 2^1014
        self.check(np.array(rows))

    @ROW_SUMS
    @given(mantissa=st.integers(2 ** 52, 2 ** 53 - 1), exponent=st.integers(-900, 960),
           pieces=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
    def test_exact_midpoints_fall_back(self, mantissa, exponent, pieces, seed):
        # x + ulp(x) / 2 split into 2^pieces equal parts, in shuffled order:
        # the row's exact sum is a midpoint, which fsum rounds to even
        x = math.ldexp(mantissa, exponent - 52)
        parts = [math.ldexp(1.0, exponent - 53 - pieces)] * 2 ** pieces
        row = np.random.default_rng(seed).permutation([x] + parts)
        assert self.check(row[None, :]) == 1

    @pytest.mark.parametrize("width", [1, 2, 3, 64, 300])
    def test_zero_and_subnormal_rows(self, width):
        rng = np.random.default_rng(width)
        zero = np.zeros((1, width))
        subnormal = np.ldexp(rng.random((3, width)), rng.integers(-1074, -1022, (3, width)))
        self.check(np.concatenate([zero, subnormal, subnormal * 2.0 ** 50]))

    @pytest.mark.parametrize("width", [3, 64, 300])
    def test_terms_near_2_to_the_1014(self, width):
        # masses up to 2^960 times a kernel up to 2^54
        rng = np.random.default_rng(width)
        self.check(np.ldexp(0.5 + 0.5 * rng.random((20, width)),
                            rng.integers(990, 1015, (20, width))))

    def test_example1_rows_take_the_array_path(self):
        points = depth_points(14)
        sigma = example1_measure()
        expected = [sigma.poisson_bounds(z, 1e-9)[0] for z in points.tolist()]
        with fsum_calls() as calls:
            lower, _ = sigma.poisson_bounds_many(points, 1e-9)
        assert lower.tolist() == expected and len(calls) <= 2


class TestHerglotz:
    def test_atomic_matches_the_two_call_form(self):
        # one kernel per atom, its real and imaginary parts summed apart
        sigma = example1_measure()
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


# Reference copy of the Cantor quadrature before each cell was bounded
# once: every round recomputes the oscillation of every live cell and
# rebuilds the cell arrays as [kept, left children, right children], and
# the Poisson sum recomputes the kernel range of the final cells.  The
# quadrature must reproduce it bit for bit, failures included.

def _reference_distances2(z, lo, hi):
    r = abs(z)
    phase = cmath.phase(z) if r > 0.0 else 0.0
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    d = np.abs(np.mod(phase - center + math.pi, TWO_PI) - math.pi)
    gmin = np.maximum(0.0, d - half)
    gmax = np.minimum(math.pi, d + half)
    return ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * gmin) ** 2,
            (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * gmax) ** 2)


def _reference_cells(measure, tol, osc):
    base = measure.generation(2)
    n = np.full(len(base), 2, dtype=np.int64)
    lo = np.array([float(a) * TWO_PI for a, _ in base])
    hi = np.array([float(b) * TWO_PI for _, b in base])
    max_cells = 400000
    while True:
        err = osc(lo, hi) * np.exp2(-n.astype(np.float64))
        split = (err >= tol / n.size) & (n < measure.MAX_GENERATION)
        if not np.any(split):
            break
        keep_n, keep_lo, keep_hi = n[~split], lo[~split], hi[~split]
        sn, slo, shi = n[split], lo[split], hi[split]
        q = measure._ratio_floats[sn]
        clen = (shi - slo) * q * 0.5
        n = np.concatenate([keep_n, sn + 1, sn + 1])
        lo = np.concatenate([keep_lo, slo, shi - clen])
        hi = np.concatenate([keep_hi, slo + clen, shi])
        if n.size > max_cells:
            raise PrecisionExhausted(
                "Cantor quadrature needs more than %d cells for tol %g"
                % (max_cells, tol))
    total_err = float(np.sum(err))
    if total_err > tol:
        raise PrecisionExhausted(
            "Cantor quadrature hit the generation cap with error %g > tol %g"
            % (total_err, tol))
    return lo, hi, np.exp2(-n.astype(np.float64))


def _reference_poisson_bounds(measure, z, tol):
    r = abs(z)
    one_minus_r2 = 1.0 - r * r

    def kernel_range(lo, hi):
        d2min, d2max = _reference_distances2(z, lo, hi)
        return one_minus_r2 / d2max, one_minus_r2 / d2min

    def osc(lo, hi):
        kmin, kmax = kernel_range(lo, hi)
        return kmax - kmin

    lo, hi, masses = _reference_cells(measure, tol, osc)
    kmin, kmax = kernel_range(lo, hi)
    return (float(np.sum(kmin * masses)), float(np.sum(kmax * masses)))


def _reference_herglotz_integral(measure, z, tol):
    def osc(lo, hi):
        return (hi - lo) * 2.0 * abs(z) / _reference_distances2(z, lo, hi)[0]

    lo, hi, masses = _reference_cells(measure, tol, osc)
    xi = np.exp(1j * (0.5 * (lo + hi)))
    return complex(np.sum(masses * (z + xi) / (z - xi)))


def _outcome(f, *args):
    """The hex digits of a call's floats, or the message it raises."""
    try:
        value = f(*args)
    except PrecisionExhausted as exc:
        return str(exc)
    if isinstance(value, complex):
        value = (value.real, value.imag)
    return tuple(v.hex() for v in value)


@pytest.mark.parametrize("name", sorted(CANTOR_VARIANTS))
class TestCantorQuadrature:
    @pytest.mark.parametrize("tol", [0.25, 1e-4, 1e-6])
    def test_matches_the_recomputing_loop(self, name, tol):
        measure = CANTOR_VARIANTS[name]()
        rng = np.random.default_rng(31)
        points = [(1.0 - 2.0 ** -d) * cmath.exp(1j * angle)
                  for d in range(3, 13)
                  for angle in (TWO_PI * rng.random(), 0.5 * math.pi)]
        outcomes = []
        for z in points:
            for new, reference in ((measure.poisson_bounds, _reference_poisson_bounds),
                                   (measure.herglotz_integral, _reference_herglotz_integral)):
                got = _outcome(new, z, tol)
                assert got == _outcome(reference, measure, z, tol), (z, new.__name__)
                outcomes.append(got)
        if tol == 0.25:
            assert all(isinstance(o, tuple) for o in outcomes)

    def test_failures_match_the_recomputing_loop(self, name):
        measure = CANTOR_VARIANTS[name]()
        got = _outcome(measure.poisson_bounds, 0.5 + 0.5j, 1e-9)
        assert got == _outcome(_reference_poisson_bounds, measure, 0.5 + 0.5j, 1e-9)
        if name == "middle-thirds":
            assert got == "Cantor quadrature needs more than 400000 cells for tol 1e-09"
        z = (1.0 - 2.0 ** -10) * cmath.exp(0.6j * math.pi)
        got = _outcome(measure.herglotz_integral, z, 1e-6)
        assert got == _outcome(_reference_herglotz_integral, measure, z, 1e-6)
        if name == "middle-thirds":
            assert got == "Cantor quadrature needs more than 400000 cells for tol 1e-06"
            # 1 - 2^-48 at the Cantor point 0: the cells next to it reach
            # generation 48 while the error is still above tol
            z = 1.0 - 2.0 ** -48
            got = _outcome(measure.poisson_bounds, z, 1e-3)
            assert got.startswith("Cantor quadrature hit the generation cap with error")
            assert got == _outcome(_reference_poisson_bounds, measure, z, 1e-3)


# Reference copy of cdf_bounds before it worked on integers: the descent
# in exact Fraction arithmetic on turns.

def _reference_cdf_bounds(measure, t, tol=1e-12):
    tt = Fraction(t) / Fraction(TWO_PI)
    if tt <= 0:
        return (0.0, 0.0)
    if tt >= 1:
        return (1.0, 1.0)
    below = 0.0
    a, b = Fraction(0), Fraction(1)
    for n in range(1, measure.MAX_GENERATION + 1):
        q = measure._ratio(n - 1)
        child_len = (b - a) * q / 2
        c1 = (a, a + child_len)
        c2 = (b - child_len, b)
        mass = 2.0 ** -n
        if tt <= c1[1]:
            a, b = c1
        elif tt < c2[0]:
            return (below + mass, below + mass)
        else:
            below += mass
            a, b = c2
        if mass <= tol:
            return (below, below + mass)
    return (below, below + 2.0 ** -measure.MAX_GENERATION)


def _reference_arc_bounds(measure, center, half, tol):
    from onecomp.measures import _arc_windows
    lo_total, hi_total = 0.0, 0.0
    for wlo, whi in _arc_windows(BoundaryArc(center, half)):
        alo, ahi = _reference_cdf_bounds(measure, wlo, tol * 0.25)
        blo, bhi = _reference_cdf_bounds(measure, whi, tol * 0.25)
        lo_total += max(0.0, blo - ahi)
        hi_total += max(0.0, bhi - alo)
    return (lo_total, hi_total)


@pytest.mark.parametrize("name", sorted(CANTOR_VARIANTS))
class TestCantorCdf:
    def test_matches_the_fraction_descent(self, name):
        measure = CANTOR_VARIANTS[name]()
        two_pi = Fraction(TWO_PI)
        # every endpoint of generations 1-12 (1-6 off middle-thirds), which
        # are the endpoints of the deepest one, as the nearest double and
        # one ulp to either side, and the midpoint of every gap they remove
        deepest = 12 if name == "middle-thirds" else 6
        angles = []
        for a, b in measure.generation(deepest):
            for e in (a, b):
                t = float(e * two_pi)
                angles += [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        angles += [float((a + b) / 2 * two_pi) for a, b in measure.generation(deepest - 1)]
        angles += [0.0, -0.0, TWO_PI, math.nextafter(TWO_PI, 7.0), -0.5, 7.0]
        # at the arc-mass tolerance of mu(Q) the descent stops at generation
        # 32, whose intervals are a few ulps of 2 pi wide
        for t in angles:
            assert measure.cdf_bounds(t, 2.5e-10) == _reference_cdf_bounds(measure, t, 2.5e-10), t
        rng = np.random.default_rng(37)
        for t in rng.uniform(0.0, TWO_PI, 4000).tolist():
            for tol in (1e-12, 1e-3):
                assert measure.cdf_bounds(t, tol) == _reference_cdf_bounds(measure, t, tol), t

    def test_arc_masses_of_scan_squares(self, name):
        from onecomp.inner import MASS_TOL
        measure = CANTOR_VARIANTS[name]()
        squares = carleson_squares(np.concatenate(
            [np.zeros(1)] + [level_points(d) for d in range(2, 11)]))
        # and arcs, some across angle 0, whose ends lie next to the points
        # 1/4, 3/4 and 1/10 turn of the middle-thirds set, where the CDF
        # bracket keeps a width
        ends = np.array([[0.25, 0.75], [-0.25, 0.1], [0.1, 0.25], [-0.75, 0.1],
                         [0.75, 1.1], [0.1, 0.75]]) * TWO_PI
        centers = np.concatenate([squares.center_angle, 0.5 * (ends[:, 0] + ends[:, 1])])
        halves = np.concatenate([squares.half_window, 0.5 * (ends[:, 1] - ends[:, 0])])
        lo, hi = measure.mass_of_arc_bounds_many(centers, halves, MASS_TOL)
        bounds = [measure.mass_of_arc_bounds(BoundaryArc(c, h), MASS_TOL)
                  for c, h in zip(centers.tolist(), halves.tolist())]
        assert list(zip(lo.tolist(), hi.tolist())) == bounds
        assert bounds == [_reference_arc_bounds(measure, c, h, MASS_TOL)
                          for c, h in zip(centers.tolist(), halves.tolist())]
        assert 0.0 < max(lo.tolist()) and min(hi.tolist()) < 1.0
        if name == "middle-thirds":
            assert all(b[0] < b[1] for b in bounds[-len(ends):])
