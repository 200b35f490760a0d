import cmath
import math
from collections import namedtuple

import numpy as np
import pytest

from onecomp import families
from onecomp.errors import DomainError
from onecomp.geometry import TWO_PI
from onecomp.inner import InnerFunction, SingularInner
from onecomp.levelset import (EVAL_TOL, MAX_DEPTH, MIN_DEPTH, LevelSetAnalysis,
                              _classify, _components, _preorder, _rho_bounds,
                              _touching, level_set_components)
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


# one quadtree cell: angular window k 2^-depth turns, radial window j 2^-depth
PolarCell = namedtuple("PolarCell", "depth k_theta j_radius")


def cell_list(analysis) -> list[PolarCell]:
    """The marked cells of an analysis, in its order."""
    return [PolarCell(*c) for c in zip(*(column.tolist() for column in analysis.cells))]


def cell_arrays(cells) -> tuple:
    """(depth, k, j) int64 arrays of a list of cells."""
    return tuple(np.array([c[i] for c in cells], dtype=np.int64)
                 for i in range(3))


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def reference_flood_fill(cells: list[PolarCell], depth: int) -> list[int]:
    """The per-cell union-find labelling that the array labelling replaced:
    edge-connected cells (positive-length overlap), labels numbered by
    first occurrence."""
    if not cells:
        return []
    uf = UnionFind(len(cells))
    resolution = depth + 1
    full = 1 << resolution

    # radial edges: shared angular tick, overlapping radial intervals
    by_angle: dict[int, list[tuple[int, int, int, bool]]] = {}
    # circular edges: shared radial tick, overlapping angular intervals
    by_radius: dict[int, list[tuple[int, int, int, bool]]] = {}
    for idx, cell in enumerate(cells):
        shift = resolution - cell.depth
        t0, t1 = cell.k_theta << shift, (cell.k_theta + 1) << shift
        r0, r1 = cell.j_radius << shift, (cell.j_radius + 1) << shift
        by_angle.setdefault(t0 % full, []).append((r0, r1, idx, False))   # left side
        by_angle.setdefault(t1 % full, []).append((r0, r1, idx, True))    # right side
        by_radius.setdefault(r0, []).append((t0, t1, idx, False))         # bottom
        by_radius.setdefault(r1, []).append((t0, t1, idx, True))          # top

    def join(entries: list[tuple[int, int, int, bool]]) -> None:
        highs = sorted(e for e in entries if e[3])
        lows = sorted(e for e in entries if not e[3])
        li = 0
        for h0, h1, hidx, _ in highs:
            while li < len(lows) and lows[li][1] <= h0:
                li += 1
            j = li
            while j < len(lows) and lows[j][0] < h1:
                if min(h1, lows[j][1]) - max(h0, lows[j][0]) > 0:
                    uf.union(hidx, lows[j][2])
                j += 1

    for entries in by_angle.values():
        join(entries)
    for entries in by_radius.values():
        join(entries)

    roots = [uf.find(i) for i in range(len(cells))]
    relabel: dict[int, int] = {}
    out = []
    for r in roots:
        if r not in relabel:
            relabel[r] = len(relabel)
        out.append(relabel[r])
    return out


def array_labels(cells: list[PolarCell], depth: int) -> list[int]:
    arrays = cell_arrays(cells)
    return _components(len(cells), *_touching(arrays, depth)).tolist()


def cell_centre(cell: PolarCell) -> complex:
    r = (cell.j_radius + 0.5) * 2.0 ** -cell.depth
    t = TWO_PI * (cell.k_theta + 0.5) * 2.0 ** -cell.depth
    return r * cmath.exp(1j * t)


def reference_rho_bound(cell: PolarCell, center: complex) -> float:
    """The per-cell rho bound that the depth-at-once rule replaced."""
    scale = 2.0 ** -cell.depth
    r_lo, r_hi = cell.j_radius * scale, (cell.j_radius + 1) * scale
    worst = 0.0
    for k in (cell.k_theta, cell.k_theta + 1):
        corner = cmath.exp(1j * (TWO_PI * k * scale))
        worst = max(worst, abs(center - r_lo * corner), abs(center - r_hi * corner))
    den = 1.0 - abs(center) * r_hi
    if den <= 0.0:
        return 1.0
    return min(1.0, worst / den)


def reference_classify_cell(theta, cell: PolarCell, epsilon: float) -> tuple[str, float]:
    """The per-cell rule: ('in' | 'out' | 'split', certified upper bound at
    the center)."""
    center = cell_centre(cell)
    val = theta.modulus_bounds(center, EVAL_TOL)
    rho = reference_rho_bound(cell, center)
    if rho < 1.0:
        ub = (val.hi + rho) / (1.0 + val.hi * rho)
        if ub < epsilon:
            return ("in", val.hi)
        if val.lo > rho:
            lb = (val.lo - rho) / (1.0 - val.lo * rho)
            if lb >= epsilon:
                return ("out", val.hi)
    return ("split", val.hi)


def children(cell: PolarCell) -> list[PolarCell]:
    d, k, j = cell.depth + 1, 2 * cell.k_theta, 2 * cell.j_radius
    return [PolarCell(d, k, j), PolarCell(d, k + 1, j),
            PolarCell(d, k, j + 1), PolarCell(d, k + 1, j + 1)]


def reference_descend(classify, epsilon: float, depth: int) -> list[PolarCell]:
    """The marked cells of the depth-first stack descent that the
    breadth-first traversal replaced, in its order; classify(cell) gives
    (status, certified upper bound at the centre)."""
    stack = [PolarCell(2, k, j) for k in range(4) for j in range(4)]
    marked = []
    while stack:
        cell = stack.pop()
        if cell.depth < MIN_DEPTH:
            stack.extend(children(cell))
            continue
        status, center_hi = classify(cell)
        if status == "in":
            marked.append(cell)
        elif status == "split":
            if cell.depth < depth:
                stack.extend(children(cell))
            elif center_hi < epsilon:
                marked.append(cell)
    return marked


class TestDepthAtOnce:
    """The depth-at-once rule and order against the per-cell references."""

    @pytest.mark.parametrize("zeros", [[0.5], [0.5, 0.5j, -0.5]])
    def test_status_and_centre_bound_match_the_per_cell_rule(self, zeros):
        rng = np.random.default_rng(len(zeros))
        seen = set()
        for eps in (0.1, 0.5, 0.9):
            batch, reference = (families.finite_blaschke(zeros) for _ in range(2))
            evaluate, centres = batch.modulus_bounds, []
            batch.modulus_bounds = lambda z, tol: centres.append(z) or evaluate(z, tol)
            for depth in range(MIN_DEPTH, MAX_DEPTH + 1):
                k = rng.integers(0, 1 << depth, 60)
                j = rng.integers(0, 1 << depth, 60)
                j[::3] = (1 << depth) - 1                   # the boundary row
                # cells near the zeros, so that every status occurs
                near = [(int((cmath.phase(w) % TWO_PI) / TWO_PI * (1 << depth)) + dk,
                         int(abs(w) * (1 << depth))) for w in zeros for dk in (0, 1)]
                k = np.concatenate([k, [c[0] % (1 << depth) for c in near]])
                j = np.concatenate([j, [c[1] for c in near]])
                cells = [PolarCell(depth, a, b) for a, b in zip(k.tolist(), j.tolist())]
                inside, split, hi = _classify(batch, eps, depth, k, j)
                expected = [reference_classify_cell(reference, c, eps) for c in cells]
                status = np.where(inside, "in", np.where(split, "split", "out"))
                assert status.tolist() == [e[0] for e in expected]
                assert hi.tobytes() == np.array([e[1] for e in expected]).tobytes()
                assert centres[-1].tobytes() == \
                    np.array([cell_centre(c) for c in cells]).tobytes()
                rho = _rho_bounds(depth, k, j, centres[-1])
                assert rho.tobytes() == np.array(
                    [reference_rho_bound(c, cell_centre(c)) for c in cells]).tobytes()
                seen.update(e[0] for e in expected)
        assert seen == {"in", "out", "split"}

    def test_preorder_matches_the_depth_first_walk_at_depth_40(self):
        depth = 40
        rng = np.random.default_rng(40)
        statuses = {}
        for _ in range(12):
            k, j = (int(v) for v in rng.integers(0, 1 << depth, 2))
            for d in range(MIN_DEPTH, depth + 1):
                cell = PolarCell(d, k >> (depth - d), j >> (depth - d))
                statuses[cell] = ("split", 1.0 if d < depth else 0.25)
                for sibling in children(PolarCell(d - 1, cell.k_theta >> 1,
                                                  cell.j_radius >> 1)):
                    if sibling not in statuses:
                        statuses[sibling] = (str(rng.choice(["in", "out"])), 1.0)
        # unlisted cells are out
        expected = reference_descend(lambda c: statuses.get(c, ("out", 1.0)), 0.5, depth)
        assert len(expected) > 100 and {c.depth for c in expected} >= {3, 20, 39, 40}
        shuffled = [expected[i] for i in rng.permutation(len(expected))]
        cells = tuple(np.array([getattr(c, name) for c in shuffled], dtype=np.int64)
                      for name in ("depth", "k_theta", "j_radius"))
        order = _preorder(cells, depth)
        assert [shuffled[i] for i in order.tolist()] == expected

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("case", ["three_zeros", "example1"])
    def test_cells_match_the_depth_first_descent(self, case, eps):
        reference = EQUIVALENCE_CASES[case]()
        expected = reference_descend(
            lambda cell: reference_classify_cell(reference, cell, eps), eps, 6)
        analysis = level_set_components(EQUIVALENCE_CASES[case](), eps, depth=6)
        assert cell_list(analysis) == expected


class TestSingleTraversal:
    """The depth-D pass refines the depth-(D-1) recount's split leaves."""

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_from_scratch_runs(self, case, eps):
        build = EQUIVALENCE_CASES[case]
        analysis = level_set_components(build(), eps, depth=7)
        fresh = level_set_components(build(), eps, depth=7, compare_previous=False)
        coarse = level_set_components(build(), eps, depth=6, compare_previous=False)
        assert cell_list(analysis) == cell_list(fresh)
        assert analysis.labels.tolist() == fresh.labels.tolist()
        assert analysis.component_count == fresh.component_count
        assert analysis.previous_depth_count == coarse.component_count

    @pytest.mark.parametrize("case", ["three_zeros", "example1"])
    def test_each_cell_is_evaluated_once(self, case):
        def counted(theta, points):
            evaluate = theta.modulus_bounds

            def wrapper(z, tol):
                points.extend(np.atleast_1d(z).tolist())
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


class TestLabelling:
    """The array labelling against the per-cell union-find reference."""

    @pytest.mark.parametrize("depth", [6, 7, 8, 9])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_the_union_find_reference(self, case, depth):
        for eps in (0.1, 0.5, 0.9):
            analysis = level_set_components(EQUIVALENCE_CASES[case](), eps, depth,
                                            compare_previous=False)
            expected = reference_flood_fill(cell_list(analysis), depth)
            assert analysis.labels.tolist() == expected
            assert analysis.component_count == len(set(expected))

    @pytest.mark.parametrize("cells, depth, expected", [
        # angular wrap: k = 0 beside k = 2^d - 1
        ([(3, 0, 4), (3, 7, 4)], 3, [0, 0]),
        ([(5, 31, 9), (4, 3, 5), (4, 0, 4)], 5, [0, 1, 0]),
        # a depth-4 and a depth-6 neighbour of a depth-3 cell, on its
        # angular and radial sides; the last one meets it at a corner only
        ([(3, 2, 5), (4, 6, 10), (6, 24, 40), (6, 16, 48), (6, 24, 48)], 6,
         [0, 0, 0, 0, 1]),
        # corner-only contact stays apart
        ([(4, 1, 1), (4, 2, 2), (4, 2, 0), (4, 0, 2)], 4, [0, 1, 2, 3]),
        # j = 0 cells meet at the origin only
        ([(3, 0, 0), (3, 4, 0), (3, 2, 0), (3, 5, 0)], 3, [0, 1, 2, 1]),
        ([], 5, []),
    ])
    def test_hand_built_cells(self, cells, depth, expected):
        cells = [PolarCell(*c) for c in cells]
        assert reference_flood_fill(cells, depth) == expected
        assert array_labels(cells, depth) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_random_quadtree_leaves(self, seed):
        # leaves of a random quadtree, a random half of them marked, in a
        # random order
        rng = np.random.default_rng(seed)
        depth = 8 + seed
        leaves, stack = [], [PolarCell(2, k, j) for k in range(4) for j in range(4)]
        while stack:
            cell = stack.pop()
            if cell.depth < depth and rng.random() < 0.6:
                stack.extend(children(cell))
            else:
                leaves.append(cell)
        marked = [leaves[i] for i in rng.permutation(len(leaves))[:len(leaves) // 2]]
        expected = reference_flood_fill(marked, depth)
        assert 1 < len(set(expected)) < len(marked)
        assert array_labels(marked, depth) == expected


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
        for cell in cell_list(analysis):
            assert theta.modulus_bounds(cell_centre(cell), 1e-9).hi < 0.5

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
    for cell, label in zip(cell_list(analysis), analysis.labels.tolist()):
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


def hand_built(cells, depth=7):
    """An analysis of the (cell, label) pairs ``cells``."""
    return LevelSetAnalysis(epsilon=0.5, depth=depth, component_count=len(cells),
                            previous_depth_count=None,
                            cells=cell_arrays([cell for cell, _ in cells]),
                            labels=np.array([label for _, label in cells],
                                            dtype=np.int64))


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

    @pytest.mark.parametrize("deep_first", [True, False])
    def test_shallow_cell_wins_a_tie_of_equal_runs(self, deep_first):
        # at size 64 both cells hold only the centre of pixel (row 9,
        # column 5), so both paint the same one-pixel run; a sort on start
        # and width alone keeps the deep cell when it is listed first
        shallow, deep = PolarCell(6, 5, 9), PolarCell(8, 22, 38)
        assert (deep.k_theta >> 2, deep.j_radius >> 2) == shallow[1:]
        cells = [(shallow, 2), (deep, 1)]
        analysis = hand_built(cells[::-1] if deep_first else cells)
        data = analysis.to_pgm(64)
        assert data == first_match_pgm(analysis, 64)
        raster = np.frombuffer(data[len(b"P5\n64 64\n255\n"):], dtype=np.uint8)
        assert np.flatnonzero(raster).tolist() == [9 * 64 + 5]
        assert raster[9 * 64 + 5] == 40 + (2 * 37) % 215

    @staticmethod
    def nested_cells(rng) -> list:
        """40 distinct (cell, label) pairs at depths 1-12: a cell holding one
        of six pixel centres, or a cell inside an earlier one."""
        sizes = rng.choice([64, 100, 512], 6)
        pixels = [((rng.integers(size) + 0.5) / size, (rng.integers(size) + 0.5) / size)
                  for size in sizes.tolist()]
        cells = {}
        while len(cells) < 40:
            if cells and rng.random() < 0.5:
                d0, k0, j0 = list(cells)[rng.integers(len(cells))]
                if d0 == 12:
                    continue
                d = int(rng.integers(d0 + 1, 13))
                k, j = ((x << (d - d0)) + int(rng.integers(1 << (d - d0)))
                        for x in (k0, j0))
            else:
                d = int(rng.integers(1, 13))
                turn, r = pixels[rng.integers(len(pixels))]
                k, j = int(turn * (1 << d)), int(r * (1 << d))
            cells.setdefault(PolarCell(d, k, j), int(rng.integers(20)))
        return list(cells.items())

    @pytest.mark.parametrize("size", [64, 100, 512])
    def test_nested_and_disjoint_cells_match_first_match_loop(self, size):
        rng = np.random.default_rng(23)
        for _ in range(3):
            analysis = hand_built(self.nested_cells(rng), depth=12)
            assert analysis.to_pgm(size) == first_match_pgm(analysis, size)


class TestDeepExports:
    """Cells at depths 40 and 45, whose indices (k << d) | j pass 2^63."""

    def cells(self):
        # the depth-45 and depth-40 cells hold the centres of pixels
        # (row 9, column 62) and (row 50, column 3) at size 64; the third
        # holds none
        return [(PolarCell(45, 125 << 38, 19 << 38), 2),
                (PolarCell(40, 7 << 33, 101 << 33), 0),
                (PolarCell(45, (1 << 45) - 3, (1 << 45) - 1), 1)]

    def test_csv_prints_the_exact_index(self):
        analysis = hand_built(self.cells(), depth=45)
        rows = sorted((c.depth, (c.k_theta << c.depth) | c.j_radius, label)
                      for c, label in self.cells())
        assert all(index > 2 ** 63 for _, index, _ in rows)
        assert analysis.to_csv() == "depth,index,label\n" + "".join(
            "%d,%d,%d\n" % row for row in rows)

    def test_pgm_matches_first_match_loop(self):
        analysis = hand_built(self.cells(), depth=45)
        data = analysis.to_pgm(64)
        assert data == first_match_pgm(analysis, 64)
        raster = np.frombuffer(data[len(b"P5\n64 64\n255\n"):], dtype=np.uint8)
        assert np.count_nonzero(raster) == 2
