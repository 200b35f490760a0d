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

The tree is built breadth first: each depth is one set of (k, j) index
arrays, classified with one modulus_bounds call, and only the split cells'
children go on to the next depth.  The marked cells are then put in the
order of a depth-first descent, which the labels follow.
"""

from __future__ import annotations

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
# 1 - |c| r_hi = 1/2 2^-depth that _rho_bounds divides by.
MAX_DEPTH = int(math.log2(0.01 * 0.5 / (0.5 * sys.float_info.epsilon)))
_CHILD_K = np.array([0, 1, 0, 1])      # offsets of a cell's four children
_CHILD_J = np.array([0, 0, 1, 1])


@dataclass(frozen=True, slots=True)
class PolarCell:
    depth: int
    k_theta: int
    j_radius: int

    def cell_index(self) -> int:
        return (self.k_theta << self.depth) | self.j_radius


@dataclass
class LevelSetAnalysis:
    epsilon: float
    depth: int
    component_count: int
    previous_depth_count: Optional[int]
    cells: list[tuple[PolarCell, int]]          # marked leaves with labels
    # the in cells as (depth, k, j) arrays and the depth-cap split cells'
    # k and j arrays, which a deeper run refines; kept only with
    # compare_previous=False, and never reported
    leaves: Optional[tuple] = field(default=None, repr=False)

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


def _children(k: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, j) of the four children of each cell (k, j), one depth down."""
    return (2 * k[:, None] + _CHILD_K).ravel(), (2 * j[:, None] + _CHILD_J).ravel()


def _rho_bounds(depth: int, k: np.ndarray, j: np.ndarray,
                centre: np.ndarray) -> np.ndarray:
    """Upper bounds for rho(centre, z) over the cells (k, j) of one depth.

    The farthest point of a polar rectangle from its polar centre c is a
    corner; |1 - conj(c) z| >= 1 - |c| r_max bounds the denominator.
    Moduli come from np.hypot, which gives abs()'s bits where np.abs can
    differ in the last one.
    """
    scale = 2.0 ** -depth
    r_lo, r_hi = j * scale, (j + 1) * scale
    worst = np.zeros(len(k))
    for corner_k in (k, k + 1):
        corner = np.exp(1j * (TWO_PI * corner_k * scale))
        for r in (r_lo, r_hi):
            gap = centre - r * corner
            worst = np.maximum(worst, np.hypot(gap.real, gap.imag))
    den = 1.0 - np.hypot(centre.real, centre.imag) * r_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, np.minimum(1.0, worst / den), 1.0)


def _classify(theta: InnerFunction, epsilon: float, depth: int,
              k: np.ndarray, j: np.ndarray):
    """(in mask, split mask, certified upper bound at the centre) of the
    cells (k, j) of one depth, with one modulus_bounds call."""
    scale = 2.0 ** -depth
    centre = ((j + 0.5) * scale) * np.exp(1j * (TWO_PI * (k + 0.5) * scale))
    val = theta.modulus_bounds(centre, EVAL_TOL)
    rho = _rho_bounds(depth, k, j, centre)
    with np.errstate(divide="ignore", invalid="ignore"):
        ub = (val.hi + rho) / (1.0 + val.hi * rho)
        lb = (val.lo - rho) / (1.0 - val.lo * rho)
    inside = (rho < 1.0) & (ub < epsilon)
    out = (rho < 1.0) & ~inside & (val.lo > rho) & (lb >= epsilon)
    return inside, ~(inside | out), val.hi


def _refine(theta: InnerFunction, epsilon: float, depth: int, d: int,
            k: np.ndarray, j: np.ndarray):
    """Breadth-first descent from the cells (k, j) of depth d to ``depth``.

    Returns the in cells as (depth, k, j) arrays, the depth-cap split cells
    (k, j), and which of those the cap marks: their certified centre value
    is below epsilon.
    """
    inside: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    below = np.zeros(0, dtype=bool)
    while len(k):
        is_in, split, hi = _classify(theta, epsilon, d, k, j)
        inside.append((np.full(np.count_nonzero(is_in), d), k[is_in], j[is_in]))
        k, j = k[split], j[split]
        if d == depth:
            below = (split & (hi < epsilon))[split]
            break
        k, j = _children(k, j)
        d += 1
    return _concat(inside), (k, j), below


def _concat(parts):
    """One (depth, k, j) triple of arrays from a list of them."""
    if not parts:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _preorder(cells, depth: int) -> np.ndarray:
    """Indices that put the cells (d, k, j) in the order of a depth-first
    descent: the 16 depth-2 roots in descending 4k + j, the children of a
    cell in descending (k & 1) + 2 (j & 1).  No cell contains another, so
    their paths of base-4 digits, padded with zeros to ``depth``, decide.
    Past depth 31 the key needs more than 64 bits, so below the roots it is
    cut into words of 31 digits."""
    d, k, j = cells
    k, j = k << (depth - d), j << (depth - d)
    top = depth - 2
    keys = [((k >> top) << 2) | (j >> top)]
    for start in range(top, 0, -31):
        word = np.zeros_like(k)
        for b in range(start - 1, max(start - 31, 0) - 1, -1):
            word = (word << 2) | (((j >> b) & 1) << 1) | ((k >> b) & 1)
        keys.append(word)
    return np.lexsort(keys[::-1])[::-1]


def level_set_components(theta: InnerFunction, epsilon: float, depth: int,
                         compare_previous: bool = True) -> LevelSetAnalysis:
    """Flood fill of the certified sublevel cells of the polar quadtree.

    Cells certified entirely sub-eps are marked; cells certified entirely
    out are dropped; undecided cells split until ``depth``, where the
    center's certified upper bound decides.  The tree is built breadth
    first, one modulus_bounds call per depth.  Marked leaves are
    edge-connected (shared boundary of positive length, angular wrap
    included) and labeled by a union-find pass over them in depth-first
    order.  The component count is an estimate; ``previous_depth_count``
    reports the same analysis one depth coarser so stabilization is
    visible.  That coarser tree is built first, and this one refines its
    depth-cap split cells, so each cell is evaluated once.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    if depth < 3:
        raise DomainError("depth must be >= 3")

    previous_count = None
    if compare_previous and depth > MIN_DEPTH:
        previous = level_set_components(theta, epsilon, depth - 1,
                                        compare_previous=False)
        previous_count = previous.component_count
        kept, split_k, split_j = previous.leaves
        del previous        # not held through the flood fill
        inside, (k, j), below = _refine(theta, epsilon, depth, depth,
                                        *_children(split_k, split_j))
        inside = _concat([kept, inside])
    else:
        k, j = np.divmod(np.arange(1 << 2 * MIN_DEPTH), 1 << MIN_DEPTH)
        inside, (k, j), below = _refine(theta, epsilon, depth, MIN_DEPTH, k, j)

    marked = _concat([inside, (np.full(np.count_nonzero(below), depth),
                               k[below], j[below])])
    order = _preorder(marked, depth)
    cells = [PolarCell(*cell) for cell in
             zip(*(column[order].tolist() for column in marked))]
    labels = _flood_fill(cells, depth)
    count = len(set(labels)) if labels else 0
    return LevelSetAnalysis(
        epsilon=epsilon, depth=depth, component_count=count,
        previous_depth_count=previous_count,
        cells=list(zip(cells, labels)),
        # only a run that a deeper run refines keeps its leaves
        leaves=None if compare_previous else (inside, k, j))


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
