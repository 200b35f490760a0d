import math

import numpy as np
import pytest

from onecomp import families
from onecomp.errors import DomainError
from onecomp.inner import InnerFunction, SingularInner
from onecomp.levelset import LevelSetAnalysis, PolarCell, level_set_components
from onecomp.measures import AtomicMeasure


def brute_force_components(modulus_fn, eps, n=1024):
    """Pixel flood fill on a uniform Cartesian grid (4-connectivity)."""
    xs = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    mask = (np.abs(Z) < 1.0) & (modulus_fn(Z) < eps)
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    runs_prev, next_id = [], 0
    for i in range(n):
        row = mask[i]
        d = np.diff(row.astype(np.int8))
        starts = list(np.where(d == 1)[0] + 1)
        ends = list(np.where(d == -1)[0] + 1)
        if row[0]:
            starts = [0] + starts
        if row[-1]:
            ends = ends + [n]
        runs = []
        for s, e in zip(starts, ends):
            parent[next_id] = next_id
            runs.append((s, e, next_id))
            next_id += 1
        pi = 0
        for s, e, rid in runs:
            while pi < len(runs_prev) and runs_prev[pi][1] <= s:
                pi += 1
            j = pi
            while j < len(runs_prev) and runs_prev[j][0] < e:
                union(rid, runs_prev[j][2])
                j += 1
        runs_prev = runs
    return len({find(i) for i in range(next_id)})


def blaschke_modulus_fn(zeros):
    def fn(Z):
        out = np.ones_like(Z, dtype=np.complex128)
        for a in zeros:
            pref = abs(a) / a if a != 0 else 1.0
            out *= pref * (a - Z) / (1.0 - np.conj(a) * Z)
        return np.abs(out)
    return fn


EQUIVALENCE_CASES = {
    "one_zero": lambda: families.finite_blaschke([0.5]),
    "two_zeros": lambda: families.finite_blaschke([0.5, 0.5j]),
    "three_zeros": lambda: families.finite_blaschke([0.5, 0.5j, -0.5]),
    "radial_geometric": families.radial_geometric,
    "example1": families.example1,
    "atoms2": families.two_atoms,
}


class TestSingleTraversal:
    """The depth-D pass refines the depth-(D-1) recount's split leaves."""

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_from_scratch_runs(self, case, eps):
        build = EQUIVALENCE_CASES[case]
        analysis = level_set_components(build(), eps, depth=7)
        fresh = level_set_components(build(), eps, depth=7, compare_previous=False)
        coarse = level_set_components(build(), eps, depth=6, compare_previous=False)
        assert analysis.cells == fresh.cells
        assert analysis.component_count == fresh.component_count
        assert analysis.previous_depth_count == coarse.component_count

    @pytest.mark.parametrize("case", ["three_zeros", "example1"])
    def test_each_cell_is_evaluated_once(self, case):
        def counted(theta, points):
            evaluate = theta.modulus_bounds

            def wrapper(z, tol):
                points.append(z)
                return evaluate(z, tol)
            theta.modulus_bounds = wrapper
            return theta

        build = EQUIVALENCE_CASES[case]
        with_recount, single = [], []
        level_set_components(counted(build(), with_recount), 0.5, depth=7)
        level_set_components(counted(build(), single), 0.5, depth=7,
                             compare_previous=False)
        assert 0 < len(with_recount) <= len(single)
        assert len(set(with_recount)) == len(with_recount)


class TestLevelSets:
    def test_mobius_single_component_any_epsilon(self):
        theta = families.finite_blaschke([0.5])
        for eps in (0.1, 0.5, 0.9):
            analysis = level_set_components(theta, eps, depth=9)
            assert analysis.component_count == 1

    def test_square_map_quarter_disc(self):
        # zeros {0, 0} give the map z^2 up to sign; {|z|^2 < 0.25} is a disc
        theta = families.finite_blaschke([0.0, 0.0])
        analysis = level_set_components(theta, 0.25, depth=8)
        assert analysis.component_count == 1

    def test_two_atoms_split_then_merge(self):
        theta = InnerFunction(singular=SingularInner(
            AtomicMeasure([(0.0, 1.0), (math.pi, 1.0)])))
        small = level_set_components(theta, 0.05, depth=8)
        assert small.component_count == 2
        large = level_set_components(theta, 0.9, depth=8)
        assert large.component_count == 1

    def test_matches_pixel_oracle_two_zeros(self):
        zeros = [0.5, -0.5]
        for eps in (0.1, 0.5):
            oracle = brute_force_components(blaschke_modulus_fn(zeros), eps)
            analysis = level_set_components(families.finite_blaschke(zeros),
                                            eps, depth=9)
            assert analysis.component_count == oracle

    def test_stabilization_reported(self):
        analysis = level_set_components(families.finite_blaschke([0.5]), 0.5,
                                        depth=9)
        assert analysis.previous_depth_count == analysis.component_count
        assert analysis.stabilized

    def test_marked_cells_sample_below_epsilon(self):
        theta = families.finite_blaschke([0.5, -0.5])
        analysis = level_set_components(theta, 0.5, depth=8)
        for cell, _ in analysis.cells:
            assert theta.modulus_bounds(cell.center(), 1e-9).hi < 0.5

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            level_set_components(families.finite_blaschke([0.5]), 1.5, depth=8)

    def test_csv_schema(self):
        analysis = level_set_components(families.finite_blaschke([0.5]), 0.5,
                                        depth=7)
        lines = analysis.to_csv().strip().split("\n")
        assert lines[0] == "depth,index,label"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_pgm_header(self):
        analysis = level_set_components(families.finite_blaschke([0.5]), 0.5,
                                        depth=6)
        data = analysis.to_pgm(size=64)
        assert data.startswith(b"P5\n64 64\n255\n")
        assert len(data) == len(b"P5\n64 64\n255\n") + 64 * 64


def first_match_pgm(analysis, size):
    """The per-pixel raster loop that ``to_pgm`` replaced, kept as reference."""
    depth_maps = {}
    for cell, label in analysis.cells:
        depth_maps.setdefault(cell.depth, {})[(cell.k_theta, cell.j_radius)] = label
    depths = sorted(depth_maps)
    rows = []
    for i in range(size):
        r = (i + 0.5) / size
        row = bytearray(size)
        for j in range(size):
            turn = (j + 0.5) / size
            for d in depths:
                lab = depth_maps[d].get((int(turn * (1 << d)), int(r * (1 << d))))
                if lab is not None:
                    row[j] = 40 + (lab * 37) % 215
                    break
        rows.append(bytes(row))
    header = ("P5\n%d %d\n255\n" % (size, size)).encode()
    return header + b"".join(rows)


def hand_built(cells):
    return LevelSetAnalysis(epsilon=0.5, depth=7, component_count=len(cells),
                            previous_depth_count=None, cells=cells)


class TestPgmRaster:
    @pytest.fixture(scope="class")
    def acceptance_analyses(self):
        return [level_set_components(families.finite_blaschke(zeros), eps, depth=7)
                for zeros in ([0.5], [0.5, 0.5j], [0.5, 0.5j, -0.5])
                for eps in (0.1, 0.5, 0.9)]

    # at size 64 the pixel centres (2j + 1) / 128 lie on depth-7 cell edges
    @pytest.mark.parametrize("size", [512, 64, 100])
    def test_matches_first_match_loop(self, acceptance_analyses, size):
        for analysis in acceptance_analyses:
            assert analysis.to_pgm(size) == first_match_pgm(analysis, size)

    def test_no_cells_is_all_zero(self):
        data = hand_built([]).to_pgm(64)
        assert data == first_match_pgm(hand_built([]), 64)
        assert data == b"P5\n64 64\n255\n" + bytes(64 * 64)

    def test_shallow_cell_wins_over_deep_one(self):
        shallow, deep = PolarCell(3, 2, 5), PolarCell(6, 17, 41)   # deep lies inside
        analysis = hand_built([(deep, 1), (shallow, 2)])
        data = analysis.to_pgm(64)
        assert data == first_match_pgm(analysis, 64)
        header = len(b"P5\n64 64\n255\n")
        raster = np.frombuffer(data[header:], dtype=np.uint8).reshape(64, 64)
        assert set(np.unique(raster)) == {0, 40 + (2 * 37) % 215}
