"""Connected components of sublevel sets {|Theta| < eps}.

The disc is covered by an adaptive polar quadtree: a cell at depth n spans
an angular window of 2 pi 2^{-n} and a radial window of 2^{-n}, and splits
into four children.  Cells touching the unit circle keep the Whitney shape
(size comparable to distance from the boundary) while interior cells refine
wherever the eps contour passes, which is what the pixel-oracle comparison
needs for sublevel sets deep inside the disc.

Certification per cell uses the Schwarz-Pick lemma: with c the cell center
and rho_cell an upper bound on the pseudohyperbolic radius of the cell,

    |Theta| <= (|Theta(c)| + rho_cell) / (1 + |Theta(c)| rho_cell)
    |Theta| >= (|Theta(c)| - rho_cell) / (1 - |Theta(c)| rho_cell)   (if > 0)

hold on the whole cell, so a cell is marked sub-eps (upper bound below eps),
out (lower bound at or above eps), or split.  At the depth cap a cell is
marked by the certified upper bound of the center value alone, the
refinement depth being the accuracy knob.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import TWO_PI
from .inner import InnerFunction

MIN_DEPTH = 3        # cells shallower than this split without evaluation
EVAL_TOL = 1e-9      # tolerance of the certified |Theta| at each cell center
# Deepest quadtree level: past it the rounding of |c| at a boundary-row cell
# centre (an ulp of 1, 2^-53) exceeds 1 % of the denominator
# 1 - |c| r_hi = 1/2 2^-depth that _cell_rho_bound divides by.
MAX_DEPTH = int(math.log2(0.01 * 0.5 / (0.5 * sys.float_info.epsilon)))


@dataclass(frozen=True, slots=True)
class PolarCell:
    depth: int
    k_theta: int
    j_radius: int

    def center(self) -> complex:
        r = (self.j_radius + 0.5) * 2.0 ** -self.depth
        t = TWO_PI * (self.k_theta + 0.5) * 2.0 ** -self.depth
        return r * cmath.exp(1j * t)

    def children(self):
        d, k, j = self.depth + 1, 2 * self.k_theta, 2 * self.j_radius
        return (PolarCell(d, k, j), PolarCell(d, k + 1, j),
                PolarCell(d, k, j + 1), PolarCell(d, k + 1, j + 1))

    def cell_index(self) -> int:
        return (self.k_theta << self.depth) | self.j_radius


@dataclass
class LevelSetAnalysis:
    epsilon: float
    depth: int
    component_count: int
    previous_depth_count: Optional[int]
    cells: list[tuple[PolarCell, int]]          # marked leaves with labels
    # preorder leaves (cell, split at the depth cap) that a deeper run
    # refines; kept only with compare_previous=False, and never reported
    leaves: Optional[list[tuple[PolarCell, bool]]] = field(default=None, repr=False)

    @property
    def stabilized(self) -> bool:
        return (self.previous_depth_count is not None
                and self.previous_depth_count == self.component_count)

    def to_csv(self) -> str:
        lines = ["depth,index,label"]
        for cell, label in sorted(self.cells,
                                  key=lambda cl: (cl[0].depth, cl[0].cell_index())):
            lines.append("%d,%d,%d" % (cell.depth, cell.cell_index(), label))
        return "\n".join(lines) + "\n"

    def to_pgm(self, size: int = 512) -> bytes:
        """Polar raster PGM (P5): rows scan radius outward, columns angle.

        A pixel takes the label of the marked cell holding its centre
        ((i + 0.5) / size, (j + 0.5) / size), cell index int(x 2^d); where
        cells of several depths hold it, the shallowest wins, so cells are
        painted deepest first.
        """
        by_depth: dict[int, list[tuple[PolarCell, int]]] = {}
        for cell, label in self.cells:
            by_depth.setdefault(cell.depth, []).append((cell, label))
        raster = np.zeros((size, size), dtype=np.uint8)
        centres = (np.arange(size) + 0.5) / size
        for d in sorted(by_depth, reverse=True):
            index = (centres * (1 << d)).astype(np.int64)     # non-decreasing
            cells = by_depth[d]
            lo = np.searchsorted(index, [(c.j_radius, c.k_theta) for c, _ in cells])
            hi = np.searchsorted(index, [(c.j_radius + 1, c.k_theta + 1) for c, _ in cells])
            for (_, label), (i0, j0), (i1, j1) in zip(cells, lo.tolist(), hi.tolist()):
                raster[i0:i1, j0:j1] = 40 + (label * 37) % 215
        header = ("P5\n%d %d\n255\n" % (size, size)).encode()
        return header + raster.data


def _cell_rho_bound(cell: PolarCell, center: complex) -> float:
    """Upper bound for rho(center, z) over the cell.

    The farthest point of a polar rectangle from its polar center is a
    corner; |1 - conj(c) z| >= 1 - |c| r_max bounds the denominator.
    """
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


def _classify_cell(theta: InnerFunction, cell: PolarCell,
                   epsilon: float) -> tuple[str, float]:
    """('in' | 'out' | 'split', certified upper bound at the center)."""
    center = cell.center()
    val = theta.modulus_bounds(center, EVAL_TOL)
    rho = _cell_rho_bound(cell, center)
    if rho < 1.0:
        ub = (val.hi + rho) / (1.0 + val.hi * rho)
        if ub < epsilon:
            return ("in", val.hi)
        if val.lo > rho:
            lb = (val.lo - rho) / (1.0 - val.lo * rho)
            if lb >= epsilon:
                return ("out", val.hi)
    return ("split", val.hi)


def level_set_components(theta: InnerFunction, epsilon: float, depth: int,
                         compare_previous: bool = True) -> LevelSetAnalysis:
    """Flood fill of the certified sublevel cells of the polar quadtree.

    Cells certified entirely sub-eps are marked; cells certified entirely
    out are dropped; undecided cells split until ``depth``, where the
    center's certified upper bound decides.  Marked leaves are
    edge-connected (shared boundary of positive length, angular wrap
    included) and labeled by a union-find pass.  The component count is an
    estimate; ``previous_depth_count`` reports the same analysis one depth
    coarser so stabilization is visible.  That coarser tree is built first,
    and this one refines its depth-cap split cells, so each cell is
    evaluated once.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    if depth < 3:
        raise DomainError("depth must be >= 3")

    marked: list[PolarCell] = []
    # only a run that a deeper run refines keeps its leaves
    leaves = None if compare_previous else []
    previous_count = None
    if compare_previous and depth > MIN_DEPTH:
        previous = level_set_components(theta, epsilon, depth - 1,
                                        compare_previous=False)
        previous_count = previous.component_count
        # the preorder of the depth - 1 tree, each split leaf replaced by
        # its subtree: the depth-D preorder, evaluating only new cells
        for cell, split in previous.leaves:
            if split:
                _descend(theta, epsilon, depth, list(cell.children()),
                         marked, None)
            else:
                marked.append(cell)
        del previous        # not held through the flood fill
    else:
        _descend(theta, epsilon, depth,
                 [PolarCell(2, k, j) for k in range(4) for j in range(4)],
                 marked, leaves)

    labels = _flood_fill(marked, depth)
    count = len(set(labels)) if labels else 0
    return LevelSetAnalysis(
        epsilon=epsilon, depth=depth, component_count=count,
        previous_depth_count=previous_count,
        cells=list(zip(marked, labels)), leaves=leaves)


def _descend(theta: InnerFunction, epsilon: float, depth: int,
             stack: list[PolarCell], marked: list[PolarCell],
             leaves: Optional[list[tuple[PolarCell, bool]]]) -> None:
    """Preorder descent from ``stack``: append marked cells to ``marked``
    and, unless ``leaves`` is None, the in cells and depth-cap split cells
    to ``leaves``."""
    while stack:
        cell = stack.pop()
        if cell.depth < MIN_DEPTH:
            stack.extend(cell.children())
            continue
        status, center_hi = _classify_cell(theta, cell, epsilon)
        if status == "in":
            marked.append(cell)
            if leaves is not None:
                leaves.append((cell, False))
        elif status == "split":
            if cell.depth < depth:
                stack.extend(cell.children())
            else:
                if center_hi < epsilon:
                    marked.append(cell)
                if leaves is not None:
                    leaves.append((cell, True))


class _UnionFind:
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


def _flood_fill(cells: list[PolarCell], depth: int) -> list[int]:
    """Labels for edge-connected marked cells (positive-length overlap)."""
    if not cells:
        return []
    uf = _UnionFind(len(cells))
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
