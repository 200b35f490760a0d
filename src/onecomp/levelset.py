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
order of a depth-first descent and stay (depth, k, j) arrays through the
labelling and the exports.  Cells that share a side of positive length
(angular wrap included) are found with one sort and two searchsorted calls
over the cells' sides, and components are labelled by min-index hooking
and pointer jumping over those pairs, numbered by their first cell in
depth-first order.

The PGM export is run-length coded: a cell paints one run of the flat
raster per pixel row whose centres it holds, and since quadtree cells nest
or are disjoint, a run nested in another is dropped, so the shallowest
cell holding a pixel centre wins (LevelSetAnalysis.to_pgm).
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


@dataclass
class LevelSetAnalysis:
    epsilon: float
    depth: int
    component_count: int
    previous_depth_count: Optional[int]
    # the marked leaves as (depth, k, j) arrays in depth-first order, and
    # their component labels
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]
    labels: np.ndarray
    # the in cells as (depth, k, j) arrays and the depth-cap split cells'
    # k and j arrays, which a deeper run refines; kept only with
    # compare_previous=False, and never reported
    leaves: Optional[tuple] = field(default=None, repr=False)

    @property
    def stabilized(self) -> bool:
        return (self.previous_depth_count is not None
                and self.previous_depth_count == self.component_count)

    def to_csv(self) -> str:
        """One line per marked cell, by depth and then index (k << d) | j;
        the index is a Python int, as it passes 2^63 past depth 31."""
        d, k, j = self.cells
        order = np.lexsort((j, k, d))
        rows = zip(*(column[order].tolist() for column in (d, k, j, self.labels)))
        lines = ["depth,index,label"]
        lines += ["%d,%d,%d" % (d, (k << d) | j, label) for d, k, j, label in rows]
        return "\n".join(lines) + "\n"

    def to_pgm(self, size: int = 512) -> bytes:
        """Polar raster PGM (P5): rows scan radius outward, columns angle.

        A pixel takes the label of the marked cell holding its centre
        ((i + 0.5) / size, (j + 0.5) / size), cell index int(x 2^d); where
        cells of several depths hold it, the shallowest wins.  Each cell
        paints one run [row size + c0, row size + c1) of the flat raster
        per pixel row it holds.  Quadtree cells nest or are disjoint, so
        their runs do too: sorted by start, then widest first, then
        shallowest first, a run that starts before the furthest end of the
        runs ahead of it lies inside a shallower cell's run and is dropped.
        The raster is then one np.repeat over the gaps and the runs.
        """
        d, k, j = self.cells
        grey = (40 + (self.labels * 37) % 215).astype(np.uint8)
        # the rows [i0, i1) and columns [c0, c1) whose centres each cell
        # holds: int(x 2^d) < j exactly when x < j 2^-d, as scaling by a
        # power of two is exact
        centres = (np.arange(size) + 0.5) / size
        i0, c0, i1, c1 = np.searchsorted(centres, np.ldexp(
            np.stack([j, k, j + 1, k + 1]).astype(float), -d))
        rows = np.where(c1 > c0, i1 - i0, 0)      # one run per row, none if empty
        cell = np.repeat(np.arange(len(d)), rows)
        first = np.cumsum(rows) - rows
        row = i0[cell] + np.arange(len(cell)) - first[cell]
        start, stop = row * size + c0[cell], row * size + c1[cell]
        order = np.lexsort((d[cell], -stop, start))
        start, stop, cell = start[order], stop[order], cell[order]
        top = start >= np.maximum.accumulate(np.append(0, stop[:-1]))
        # alternating gap and run lengths, from 0 to size^2
        lengths = np.diff(np.stack([start[top], stop[top]], axis=1).ravel(),
                          prepend=0, append=size * size)
        values = np.zeros(len(lengths), dtype=np.uint8)
        values[1::2] = grey[cell[top]]
        header = ("P5\n%d %d\n255\n" % (size, size)).encode()
        return header + np.repeat(values, lengths).data


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
    """Components of the certified sublevel cells of the polar quadtree.

    Cells certified entirely sub-eps are marked; cells certified entirely
    out are dropped; undecided cells split until ``depth``, where the
    center's certified upper bound decides.  The tree is built breadth
    first, one modulus_bounds call per depth.  Marked leaves are
    edge-connected (shared boundary of positive length, angular wrap
    included); each component is labelled by the rank of its first cell in
    depth-first order.  The component count is an estimate;
    ``previous_depth_count`` reports the same analysis one depth coarser so
    stabilization is visible.  That coarser tree is built first, and this
    one refines its depth-cap split cells, so each cell is evaluated once.
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
        del previous        # not held through the labelling
        inside, (k, j), below = _refine(theta, epsilon, depth, depth,
                                        *_children(split_k, split_j))
        inside = _concat([kept, inside])
    else:
        k, j = np.divmod(np.arange(1 << 2 * MIN_DEPTH), 1 << MIN_DEPTH)
        inside, (k, j), below = _refine(theta, epsilon, depth, MIN_DEPTH, k, j)

    marked = _concat([inside, (np.full(np.count_nonzero(below), depth),
                               k[below], j[below])])
    order = _preorder(marked, depth)
    cells = tuple(column[order] for column in marked)
    labels = _components(len(order), *_touching(cells, depth))
    return LevelSetAnalysis(
        epsilon=epsilon, depth=depth,
        component_count=int(labels.max(initial=-1)) + 1,
        previous_depth_count=previous_count, cells=cells, labels=labels,
        # only a run that a deeper run refines keeps its leaves
        leaves=None if compare_previous else (inside, k, j))


def _touching(cells, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (u, v) of the cells (d, k, j) whose sides meet with
    positive length: the high side of u and the low side of v lie on one
    tick at resolution depth + 1 and their intervals overlap.  A cell's
    angular sides lie on ticks k << s and (k + 1) << s (mod the full turn)
    and span j << s to (j + 1) << s, and its radial sides the other way
    round.  The low sides on one tick are disjoint, so sorted by start they
    are sorted by end too, and two searchsorted calls bound the lows each
    high side meets.  Ticks and positions are replaced by their ranks, so
    that one int64 key holds both at any depth."""
    d, k, j = cells
    s = depth + 1 - d
    full = 1 << (depth + 1)
    t0, t1, r0, r1 = k << s, (k + 1) << s, j << s, (j + 1) << s
    # the low sides, angular then radial, and then the high sides; radial
    # ticks are moved past every angular tick
    tick = np.unique(np.concatenate([t0, r0 + full, t1 % full, r1 + full]),
                     return_inverse=True)[1]
    pos = np.unique(np.concatenate([r0, t0, r1, t1]), return_inverse=True)[1]
    m = 2 * len(d)
    low, high = tick[:m] * len(pos), tick[m:] * len(pos)
    start, stop = pos[:m], pos[m:]
    order = np.argsort(low + start)
    first = np.searchsorted((low + stop)[order], high + start, side="right")
    count = np.searchsorted((low + start)[order], high + stop) - first
    offset = np.repeat(first - (np.cumsum(count) - count), count)
    u = np.repeat(np.arange(m), count)
    v = order[np.arange(len(u)) + offset]
    return u % len(d), v % len(d)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Labels of the connected components of the graph on n cells with
    edges (u, v), numbered by their least cell index: min-index hooking of
    roots, then pointer jumping until every root is its own root."""
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
