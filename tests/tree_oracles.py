"""Eigenvalue counts of tree Laplacians, kept as an oracle for the block
spectra of ``spectra._tree_spectrum``: n(x), the number of eigenvalues of
L below x, by leaf-to-root elimination on the cells of an equitable
partition, without any eigensolve."""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

# Work entries (cells x points) of one batched pass of the count.
COUNT_CHUNK = 1 << 20


class Level(NamedTuple):
    """One breadth-first level of a tree's cells: per cell, its vertices'
    common degree, its vertex count and the children in it of each vertex
    of its parent cell; then the start of each cell's run of child cells in
    the next level, and that cell's row in this one."""

    degrees: np.ndarray  # float64
    sizes: np.ndarray    # int64
    links: np.ndarray    # float64
    starts: np.ndarray
    rows: np.ndarray


def cell_tree(counts: np.ndarray, sizes: np.ndarray, root: int
              ) -> list[Level]:
    """The levels :func:`count_below` reads, root first.

    ``counts`` and ``sizes`` describe an equitable partition of a tree with
    a vertex alone in cell ``root``.  Its cells refine the distance from
    that vertex, and each other cell has one parent cell, so the cells form
    a tree and all vertices of a cell share one pivot.  A breadth-first
    search of the cells from ``root`` keeps each level, and each parent's
    children, contiguous."""
    order, pred = csgraph.breadth_first_order(sp.csr_matrix(counts), root,
                                              directed=False)
    m = order.size
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    parent = position[pred[order[1:]]]  # of positions 1..m-1
    degrees = counts.sum(axis=1)[order].astype(np.float64)
    links = np.r_[0, counts[pred[order[1:]], order[1:]]].astype(np.float64)
    sizes = sizes[order]
    bounds = [0, 1]
    while bounds[-1] < m:
        bounds.append(int(np.searchsorted(parent, bounds[-1])) + 1)
    levels = []
    for lo, hi, end in zip(bounds, bounds[1:], bounds[2:] + [m]):
        rows = parent[hi - 1:end - 1] - lo
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        levels.append(Level(degrees[lo:hi], sizes[lo:hi], links[lo:hi],
                             starts, rows[starts]))
    return levels


def count_below(levels: list[Level], x: np.ndarray) -> np.ndarray:
    """n(x), the number of eigenvalues of L below each x, on a tree.

    By Sylvester's law of inertia it is the number of negative pivots of
    L - xI eliminated from the leaves to the root: a vertex's pivot is
    d - x - sum 1/p over its children's pivots p.  When a child's pivot is
    0, the vertex's becomes -1/2 and it stops contributing to its own
    parent (Jacobs & Trevisan, LAA 434, 1006, 2011).  The pass runs on the
    cells of :func:`cell_tree`, deepest level first, for up to
    COUNT_CHUNK / cells values of x at once.
    """
    cells = sum(level.sizes.size for level in levels)
    out = np.empty(x.size, dtype=np.int64)
    batch = max(1, COUNT_CHUNK // cells)
    for at in range(0, x.size, batch):
        xs = x[at:at + batch]
        below = np.zeros(xs.size, dtype=np.int64)
        for level in reversed(levels):
            pivots = level.degrees[:, None] - xs
            if level.starts.size:
                parents = pivots[level.rows] - np.add.reduceat(
                    inv, level.starts, axis=0)
                cut = np.logical_or.reduceat(zero, level.starts, axis=0)
                parents[cut] = -0.5
                pivots[level.rows] = parents
            below += level.sizes @ (pivots < 0.0)
            zero = pivots == 0.0
            inv = np.divide(level.links[:, None], pivots,
                            out=np.zeros_like(pivots), where=~zero)
            if level.starts.size:
                inv[level.rows] = np.where(cut, 0.0, inv[level.rows])
        out[at:at + batch] = below
    return out
