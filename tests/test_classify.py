import importlib.util
import math
import cmath
import pathlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from onecomp import families
from onecomp.classify import (EVAL_TOL, INCONCLUSIVE, MAX_DEPTH, NOT_ONE_COMPONENT,
                              ONE_COMPONENT, _log_abs_blaschke_radial_many, classify,
                              criterion_scan, radial_limit_test, sawtooth_test)
from onecomp.errors import DomainError, HypothesisViolated, PrecisionExhausted
from onecomp.geometry import TWO_PI, BoundaryArc, SawtoothRegion, carleson_square
from onecomp.inner import BlaschkeProduct, InnerFunction, SingularInner, ZeroSequence
from onecomp.measures import AtomicMeasure, CantorMeasure
from onecomp.serialize import inner_from_json, inner_to_json

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", pathlib.Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)


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
        mu = theta.mu()
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

    @pytest.mark.parametrize("tol", [1.0, 2.0, 0.0, -0.5, math.nan])
    @pytest.mark.parametrize("make", [lambda: families.finite_blaschke([0.5]),
                                      families.single_atom], ids=["product", "atom1"])
    def test_tol_outside_0_1_rejected(self, make, tol):
        # at tol >= 1 every lower end passes the witness threshold 1 - tol
        with pytest.raises(DomainError, match="tol must lie in [(]0, 1[)]"):
            classify(make(), 6, tol)

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

    @pytest.mark.parametrize("tol", [1.0, 2.0, 0.0, -0.5, math.nan])
    def test_tol_outside_0_1_rejected(self, tol):
        # at tol >= 1 every lower end passes 1 - tol, so the test crosses
        with pytest.raises(DomainError, match=re.escape("radial tol must lie in (0, 1), got %r"
                                                        % tol)):
            radial_limit_test(families.radial_geometric_zeros(), 0.0, tol=tol)

    def test_non_stolz_zero_rejected(self):
        # zeros accumulate tangentially to the vertex at angle 0.1, so they
        # eventually leave every Stolz angle with vertex at angle 0
        zs = ZeroSequence([(1.0 - 2.0 ** -n) * cmath.exp(0.1j) for n in range(1, 31)],
                          tail_blaschke_sum=2.0 ** -30)
        with pytest.raises(HypothesisViolated, match="Stolz"):
            radial_limit_test(zs, 0.0, aperture=2.0)


def log_abs_blaschke_radial(zeros: ZeroSequence, vertex_angle: float, s: float) -> float:
    """log|B| at the radial point (1-s) e^{i vertex}, one zero at a time:
    the reference for _log_abs_blaschke_radial_many."""
    total = 0.0
    for w in zeros.zeros:
        u = 1.0 - abs(w)
        psi = cmath.phase(w) - vertex_angle
        mod_w = abs(w)
        versin = 2.0 * math.sin(0.5 * psi) ** 2    # 1 - cos(psi), stable
        # z - w rotated by e^{-i vertex}: (u - s) + |w| (1 - e^{i psi})
        re_num = (u - s) + mod_w * versin
        im_num = -mod_w * math.sin(psi)
        num2 = re_num * re_num + im_num * im_num
        if num2 == 0.0:
            return -math.inf
        # 1 - conj(w) z = (u + s - u s) + |w| (1-s) (1 - e^{-i psi})
        re_den = (u + s - u * s) + mod_w * (1.0 - s) * versin
        im_den = mod_w * (1.0 - s) * math.sin(psi)
        den2 = re_den * re_den + im_den * im_den
        total += 0.5 * math.log(num2 / den2)
    return total


RADIAL_GRID = [2.0 ** (-k / 4.0) for k in range(16, 177)]


def turned(zeros: ZeroSequence, alpha: float) -> ZeroSequence:
    return ZeroSequence([w * cmath.exp(1j * alpha) for w in zeros.zeros],
                        zeros.tail_blaschke_sum, [alpha])


class TestRadialArray:
    """_log_abs_blaschke_radial_many against the zero-at-a-time reference,
    bit for bit, on radial_limit_test's depth grid."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -2.5, math.pi])
    @pytest.mark.parametrize("make", [families.radial_geometric_zeros,
                                      families.radial_sparse_zeros],
                             ids=["geometric", "sparse"])
    def test_matches_the_reference(self, make, alpha):
        zeros = turned(make(), alpha) if alpha else make()
        got = _log_abs_blaschke_radial_many(zeros, alpha, np.array(RADIAL_GRID))
        assert got.tolist() == [log_abs_blaschke_radial(zeros, alpha, s)
                                for s in RADIAL_GRID]

    def test_a_zero_on_the_ray_gives_minus_infinity(self):
        # 1 - 2^-6 is the grid point k = 24, and 1 - 2^-4 the first one
        zeros = ZeroSequence([0.5, 1.0 - 2.0 ** -6, 0.9 * cmath.exp(0.01j), 1.0 - 2.0 ** -4],
                             tail_blaschke_sum=1e-6)
        got = _log_abs_blaschke_radial_many(zeros, 0.0, np.array(RADIAL_GRID)).tolist()
        assert got == [log_abs_blaschke_radial(zeros, 0.0, s) for s in RADIAL_GRID]
        assert [s for s, v in zip(RADIAL_GRID, got) if v == -math.inf] == [2.0 ** -4, 2.0 ** -6]

    def test_no_listed_zero_gives_zero(self):
        got = _log_abs_blaschke_radial_many(ZeroSequence([], 1e-6), 0.0, np.array(RADIAL_GRID))
        assert got.tolist() == [0.0] * len(RADIAL_GRID)

    def test_blocks_of_depths_give_the_same_rows(self):
        # 200 zeros: the depths go through the matrix in blocks of 40 rows
        zeros = ZeroSequence([(1.0 - 2.0 ** (-n / 8.0)) * cmath.exp(1j * 2.0 ** -n)
                              for n in range(8, 208)], tail_blaschke_sum=1e-9)
        got = _log_abs_blaschke_radial_many(zeros, 0.0, np.array(RADIAL_GRID))
        assert got.tolist() == [log_abs_blaschke_radial(zeros, 0.0, s) for s in RADIAL_GRID]


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", [1.0, 0.0, -0.5, math.nan])
    def test_level_outside_0_1_rejected(self, level):
        # the first bad level is named before any array is built, so no
        # numpy warning escapes
        with pytest.raises(DomainError, match=re.escape("level %r is not in (0, 1)" % level)):
            sawtooth_test(families.single_atom(), r_levels=[0.9, level, 2.0])

    @pytest.mark.parametrize("tol", [1.0, 2.0, 0.0, -0.5, math.nan])
    def test_tol_outside_0_1_rejected(self, tol):
        with pytest.raises(DomainError, match=re.escape("sawtooth tol must lie in (0, 1), got %r"
                                                        % tol)):
            sawtooth_test(families.single_atom(), tol=tol)

    def test_requires_singular_part(self):
        with pytest.raises(HypothesisViolated):
            sawtooth_test(families.finite_blaschke([0.5]))

    def test_first_zero_outside_is_named(self):
        # 0.9 lies on the atom's radius; 0.9i and -0.9 are both outside
        def theta():
            return InnerFunction(blaschke=BlaschkeProduct([0.9, 0.9j, -0.9]),
                                 singular=SingularInner(AtomicMeasure([(0.0, 1.0)])))

        with pytest.raises(HypothesisViolated, match=re.escape("zero 0.9j lies outside")):
            sawtooth_test(theta())
        rep = classify(theta(), 6)
        assert rep.tests == {}


def reference_sawtooth_trace(theta, r_levels=None):
    """The level sups of sawtooth_test, one point at a time: membership and
    |Theta| alternate, and a level stops at its per_level-th point inside."""
    support = theta.singular.sigma.support()
    region = SawtoothRegion(support)
    if r_levels is None:
        r_levels = [1.0 - 2.0 ** -k for k in range(3, 13)]
    r_levels = sorted(float(r) for r in r_levels)
    per_level = max(24, 4096 // max(1, len(r_levels)))
    level_sups = []
    for r in r_levels:
        width = 1.0 - r
        cover = support.cover_arcs(width)
        stride = max(1, len(cover) // max(1, per_level // 4))
        best = 0.0
        seen = 0
        for arc in cover[::stride]:
            lo = arc.lo - 0.75 * width
            hi = arc.hi + 0.75 * width
            count = max(2, min(int((hi - lo) / (0.5 * width)) + 1, 8))
            for j in range(count):
                ang = lo + (hi - lo) * j / (count - 1)
                z = r * cmath.exp(1j * ang)
                if not region.contains(z):
                    continue
                seen += 1
                best = max(best, theta.modulus_bounds(z, EVAL_TOL).hi)
                if seen >= per_level:
                    break
            if seen >= per_level:
                break
        level_sups.append(best)
    return level_sups


def per_level_sawtooth_trace(theta, r_levels=None):
    """The level sups of sawtooth_test, one level at a time: the level's
    candidates one cmath.exp each, one membership call and one |Theta|
    call."""
    support = theta.singular.sigma.support()
    region = SawtoothRegion(support)
    if r_levels is None:
        r_levels = [1.0 - 2.0 ** -k for k in range(3, 13)]
    r_levels = sorted(float(r) for r in r_levels)
    per_level = max(24, 4096 // max(1, len(r_levels)))
    level_sups = []
    for r in r_levels:
        width = 1.0 - r
        cover = support.cover_arcs(width)
        stride = max(1, len(cover) // max(1, per_level // 4))
        candidates = []
        for arc in cover[::stride]:
            lo = arc.lo - 0.75 * width
            hi = arc.hi + 0.75 * width
            count = max(2, min(int((hi - lo) / (0.5 * width)) + 1, 8))
            candidates += [r * cmath.exp(1j * (lo + (hi - lo) * j / (count - 1)))
                           for j in range(count)]
        points = np.array(candidates, dtype=np.complex128)
        inside = points[region.contains(points, limit=per_level)]
        level_sups.append(float(theta.modulus_bounds(inside, EVAL_TOL).hi.max(initial=0.0)))
    return level_sups


def seeded_family(name, seed):
    """A seeded family as the benchmark feeds it: its input document turned
    by the seed's angle."""
    doc = inner_to_json(families.SEEDED_FAMILY_BUILDERS[name]())
    return inner_from_json(bench_inputs.rotate_inner_doc(doc, bench_inputs.seed_angle(seed)))


class TestSawtoothBatched:
    """sawtooth_test against the point-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("seed", range(1, 11))
    @pytest.mark.parametrize("name", ["atom1", "atoms2"])
    def test_rotated_atoms(self, name, seed):
        got = sawtooth_test(seeded_family(name, seed)).trace
        assert got == reference_sawtooth_trace(seeded_family(name, seed))
        assert any(got)

    @pytest.mark.parametrize("make", [
        lambda: seeded_family("example1", 0),
        lambda: InnerFunction(blaschke=BlaschkeProduct([0.9, 0.5 * cmath.exp(3.0j)]),
                              singular=SingularInner(AtomicMeasure([(0.0, 1.0), (3.0, 0.5)])))],
        ids=["example1_listed", "zeros_and_atoms"])
    def test_atoms_with_and_without_a_tail(self, make):
        got = sawtooth_test(make()).trace
        assert got == reference_sawtooth_trace(make())

    @pytest.mark.parametrize("measure", [
        lambda: CantorMeasure.from_removed_fraction(Fraction(1, 2)),
        lambda: CantorMeasure.from_delta_radians([1e-3])],
        ids=["cantor", "narrow_cantor"])
    def test_supports_asked_point_by_point(self, measure):
        make = lambda: InnerFunction(singular=SingularInner(measure()))  # noqa: E731
        got = sawtooth_test(make(), r_levels=[0.9, 0.97]).trace
        assert got == reference_sawtooth_trace(make(), [0.9, 0.97])
        assert any(got)

    @pytest.mark.parametrize("make", [
        families.single_atom, families.two_atoms, families.example1,
        lambda: seeded_family("atom1", 3)], ids=["atom1", "atoms2", "example1", "atom1_turned"])
    def test_matches_the_per_level_loop(self, make):
        got = sawtooth_test(make()).trace
        assert got == per_level_sawtooth_trace(make())
        assert any(got)

    def test_cantor_matches_the_per_level_loop(self):
        levels = [1 - 2 * math.pi * (1 / 3.0) ** n for n in (2, 3, 4)]
        got = sawtooth_test(families.cantor_inner(), r_levels=levels).trace
        assert got == per_level_sawtooth_trace(families.cantor_inner(), levels)
        assert len(got) == 3

    @pytest.mark.parametrize("theta_level, expected", [
        (1, "|Theta| at level 1"), (2, "membership at level 2"), (3, "membership at level 2")])
    def test_error_order_as_per_level(self, theta_level, expected, monkeypatch):
        # stubs: membership raises on level 2, |Theta| on theta_level; level
        # by level, a level's |Theta| comes before the next level's
        # membership
        r_levels = [round(1.0 - 2.0 ** -k, 12) for k in range(3, 13)]   # the default
        contains = SawtoothRegion.contains

        def level(points):
            return {r_levels.index(r) for r in np.round(np.abs(points), 12).tolist()}

        def membership(region, points, limit=None):
            if 2 in level(points):
                raise PrecisionExhausted("membership at level 2")
            return contains(region, points, limit)

        def theta():
            f = families.single_atom()
            modulus_bounds = f.modulus_bounds

            def stub(points, tol):
                if theta_level in level(points):
                    raise PrecisionExhausted("|Theta| at level %d" % theta_level)
                return modulus_bounds(points, tol)

            f.modulus_bounds = stub
            return f

        monkeypatch.setattr(SawtoothRegion, "contains", membership)
        with pytest.raises(PrecisionExhausted) as reference:
            per_level_sawtooth_trace(theta())
        with pytest.raises(PrecisionExhausted) as batched:
            sawtooth_test(theta())
        assert str(batched.value) == str(reference.value) == expected

    def test_precision_exhausted_as_per_point(self):
        # Example 1 with its two first atoms and the rest, of mass 8^-2 / 7,
        # as a tail: the first bracket that cannot meet its tol
        def truncated():
            return InnerFunction(singular=SingularInner(AtomicMeasure(
                [(0.5, 0.125), (0.25, 0.015625)], tail_mass=0.015625 / 7.0,
                tail_hull=[BoundaryArc.from_endpoints(0.0, 0.125)], accumulation=[0.0])))

        with pytest.raises(PrecisionExhausted) as batched:
            sawtooth_test(truncated())
        with pytest.raises(PrecisionExhausted) as reference:
            reference_sawtooth_trace(truncated())
        assert str(batched.value) == str(reference.value)
        assert batched.value.bracket == reference.value.bracket


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
