"""Dense symmetric eigendecomposition, the target's Laplacian spectral
measure that controls the search transition, and the size exponent alpha
of its largest weight (:func:`fit_alpha`, a power fit of
:func:`analysis.fit_scaling`).

The solvers return LAPACK's ``(values, vectors)`` pair as scipy gives it;
they label no degeneracy groups and check only the dense guard, on
matrices built exactly symmetric.  Degenerate subspaces deserve care:
individual eigenvectors inside one are basis-dependent noise, so amplitude
information is only ever reported summed over a degeneracy group.  The
code that reads groups labels the values it reads (:func:`spectral_sums`,
:func:`spectrum_csv`, the quotient route), under a relative tolerance of
1e-10 times the spectral range (``GROUP_RTOL``, :func:`degeneracy_groups`).
Eigenvector signs are left as LAPACK returns them: every observable reads
a column only through products of two of its own entries, so no output
depends on them.

:func:`target_measure` hands the measure to the engine and the CLI, once
per ``Graph`` object and target, and keeps only the K-sized
:class:`SpectralSums`, never the eigenvectors.  It takes one of three
routes.  The function that builds the measure on a route records it in
:attr:`SpectralSums.route`, and the order of its largest dense solve, which
the guard reads on a cached measure, in :attr:`SpectralSums.dense_order`.

* *Quotient.*  :func:`equitable_partition` finds the coarsest equitable
  partition with the target alone in its cell (Godsil & Royle, *Algebraic
  Graph Theory*, ch. 9) by hashed colour refinement and certifies it in
  integer arithmetic.  Its cell-indicator vectors span an L-invariant
  space that holds |w> and |s>, so the symmetrised quotient
  Lq = D - S^-1/2 M S^-1/2 carries the target's whole measure.  One
  function, :func:`_root_quotient`, takes a graph from a root to its Lq:
  the target here, a tree's centre in :func:`laplacian_spectrum`.  When
  the partition at least halves N, Lq is solved with eigenvectors, and
  L's eigenvalues give the multiplicities.  They come from
  :func:`laplacian_spectrum`: on a Cartesian product, a torus of d >= 2
  among them, the sums of its factors' eigenvalues, with no N x N array;
  otherwise ``eigvalsh(L)``, with the dense guard on N.  Either way the
  measure itself is refused on N above the guard.
* *Tree.*  The same, but on a tree (N - 1 edges: every ``Graph`` is
  connected) L's eigenvalues come from Lq alone: each branching cell's
  principal block of Lq gives eigenvalues of L of a known multiplicity
  (:func:`_tree_spectrum`).  No dense L is formed, and the dense guard
  applies to the number of cells, read before any (m, m) array is formed;
  above the guard on N, one breadth-first search first refuses a tree too
  deep for that.  The same blocks, around the tree's centre, give
  :func:`laplacian_spectrum` on trees, a product's tree factors among
  them.
* *Dense.*  Otherwise L is decomposed with eigenvectors, in its own memory,
  by LAPACK's divide-and-conquer driver ``evd`` (Gu & Eisenstat, SIMAX 16,
  172, 1995), several times faster than scipy's default ``evr`` on the
  clustered spectra of fractal Laplacians.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse import csgraph

from .analysis import fit_scaling
from .errors import (
    ConfigError,
    DenseGuardError,
    NumericalError,
    check_dense_guard,
)
from .graphs import Graph, NodeId

# Relative spacing below which adjacent levels of H are treated as one
# degenerate group (the engine's overlap records).
DEGENERACY_RTOL = 1e-8
# The same for the eigenvalues of one decomposition, L's among them, and
# so for the poles of the measure.  Finer than DEGENERACY_RTOL: tfractal
# g8 has eigenvalues of L 4.2e-8 apart (range 5.4), which the quotient H
# keeps apart; merged into one pole, they moved the measure's crossing off
# the one the quotient H confirms.
GROUP_RTOL = 1e-10
# Seed of the colour-refinement hash words: fixed, so that every run refines
# alike and every output repeats bit for bit.
_HASH_SEED = 1002


def group_labels(values: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
    """Degeneracy-group label of each ascending eigenvalue along the last
    axis: a new group starts wherever the gap to the previous value
    exceeds ``tol`` (a scalar, or one per spectrum of a stack)."""
    labels = np.zeros(values.shape, dtype=np.int64)
    labels[..., 1:] = np.cumsum(np.diff(values) > tol, axis=-1)
    return labels


def degeneracy_groups(values: np.ndarray) -> np.ndarray:
    """Group labels of an ascending spectrum, or of each of a stack, under
    the relative tolerance ``GROUP_RTOL`` times its range."""
    spread = values[..., -1:] - values[..., :1]
    return group_labels(values, GROUP_RTOL * spread)


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix (LAPACK ``evd``),
    or of each of a (..., n, n) stack of them in one call: scipy's
    ``(values, vectors)``, values ascending along the last axis and column
    k of vectors paired with value k, each carrying the stack's leading
    axes.

    Checks only the dense guard on n: the callers build their matrices
    symmetric bit for bit (:func:`_quotient_laplacian`, ``_success_rows``).
    """
    check_dense_guard(matrix.shape[-1], "dense eigendecomposition")
    return sla.eigh(matrix, driver="evd")


def laplacian_decomposition(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, vectors)`` of the graph Laplacian
    L = Z - A, as :func:`eigh` returns it; the guard is checked on N before
    L is formed.

    L is formed here, exactly symmetric, and read by nothing else, so it is
    handed to LAPACK as its Fortran-ordered transpose and the eigenvectors
    overwrite it: no copy of L is made.
    """
    check_dense_guard(graph.n, "dense eigendecomposition")
    return sla.eigh(graph.laplacian().T, driver="evd", overwrite_a=True,
                    check_finite=False)


def laplacian_spectrum(graph: Graph) -> tuple[np.ndarray, str]:
    """Eigenvalues of L, ascending, and the route they came from.

    On a Cartesian product (:attr:`Graph.factors`): every sum of one
    eigenvalue of each factor, each factor's from its own route, sorted;
    no N x N array is formed and the guard is checked only at the factors'
    own solves; route ``product``.  On a tree, rooted at its centre, whose
    equitable partition has at most N/2 cells: from the blocks of the
    centre's quotient (:func:`_root_quotient`, :func:`_tree_spectrum`),
    the dense guard on the depth and the cell count, route ``tree
    cells=m``.  Otherwise values only (LAPACK ``evr``) in the memory of a
    fresh L, the guard on N, route ``dense``.
    """
    if graph.factors is not None:
        a, b = (laplacian_spectrum(factor)[0] for factor in graph.factors)
        return np.sort(np.add.outer(a, b), axis=None), "product"
    centre = _centre(graph)
    quotient = None if centre is None else _root_quotient(graph, centre)
    if quotient is not None:
        lq, sizes, cell = quotient
        return (_tree_spectrum(lq, sla.eigvalsh(lq), sizes, cell),
                f"tree cells={sizes.size}")
    check_dense_guard(graph.n, "dense eigendecomposition")
    return sla.eigvalsh(graph.laplacian().T, driver="evr", overwrite_a=True,
                        check_finite=False), "dense"


# -- equitable quotient ---------------------------------------------------------


def _hash_words(n: int) -> np.ndarray:
    """One random 64-bit word per colour.  A vertex's neighbours hash to the
    wrapping sum of their colours' words, so equal colour multisets give
    equal hashes and unequal ones collide with probability about 2^-64."""
    return np.random.default_rng(_HASH_SEED).integers(
        0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True)


def _refine(adjacency: sp.csr_matrix, target: NodeId,
            limit: int) -> np.ndarray | None:
    """Colour refinement (1-dimensional Weisfeiler-Leman) from the colouring
    {target} | rest.  Each round orders the vertices by (colour, hash of
    their neighbours' colours) and numbers the distinct pairs; a colour is
    only ever split.  Returns the stable colouring, cells numbered by their
    first vertex, or None once it has more than ``limit`` cells.  Every
    vertex needs a neighbour, as in every ``Graph`` of N >= 2 nodes."""
    n = adjacency.shape[0]
    words = _hash_words(n)
    starts = adjacency.indptr[:-1]
    colours = np.zeros(n, dtype=np.int64)
    colours[target] = 1
    count = 2
    while count <= limit:
        hashes = np.add.reduceat(words[colours][adjacency.indices], starts)
        order = np.lexsort((hashes, colours))
        c, h = colours[order], hashes[order]
        step = np.zeros(n, dtype=np.int64)
        step[1:] = (c[1:] != c[:-1]) | (h[1:] != h[:-1])
        colours[order] = np.cumsum(step)
        split = int(colours[order[-1]]) + 1
        if split == count:
            _, first, cells = np.unique(colours, return_index=True,
                                        return_inverse=True)
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(count)
            return rank[cells]
        count = split
    return None


def _certify(adjacency: sp.csr_matrix, cells: np.ndarray,
             target: NodeId) -> np.ndarray | None:
    """The (m, m) integer matrix of neighbours in cell j of each vertex of
    cell i, when every vertex of a cell has the same such counts (the
    partition is equitable) and the target is alone in its cell; else
    None.  The counts are A times the cell-indicator matrix: sums of ones,
    exact in float64 below 2^53, with one entry per vertex and neighbouring
    cell."""
    n = cells.size
    m = int(cells.max()) + 1
    if np.count_nonzero(cells == cells[target]) != 1:
        return None
    counts = adjacency @ sp.csr_matrix(
        (np.ones(n), (np.arange(n), cells)), shape=(n, m))
    first = np.empty(m, dtype=np.int64)
    first[cells[::-1]] = np.arange(n - 1, -1, -1)
    if (counts[first[cells]] != counts).nnz:
        return None
    return counts[first].toarray().astype(np.int64)


def equitable_partition(graph: Graph, target: NodeId
                        ) -> tuple[np.ndarray, np.ndarray] | None:
    """The coarsest equitable partition of the graph with the target alone
    in its cell, when it has at most N/2 cells.

    Returns (cells, counts): the cell of each vertex, numbered by first
    vertex, and counts[i, j], the number of neighbours in cell j of every
    vertex of cell i.  None when the refinement passes N/2 cells, where the
    quotient would not save the dense route much, or when the integer
    certificate of :func:`_certify` fails (a hash collision).  The cell
    count m, the order of the quotient's dense solve, is checked against
    the dense guard before any (m, m) array is formed.
    """
    if not (0 <= target < graph.n):
        raise ConfigError(f"target {target} out of range for {graph.n} nodes")
    cells = _refine(graph.adjacency, target, graph.n // 2)
    if cells is None:
        return None
    check_dense_guard(int(cells.max()) + 1, "dense eigendecomposition")
    counts = _certify(graph.adjacency, cells, target)
    return None if counts is None else (cells, counts)


@dataclass(frozen=True, eq=False)
class Quotient:
    """L on the span of an equitable partition's cell-indicator vectors
    u_i = 1_{C_i} / sqrt(s_i): the symmetric Lq_ij = d_i [i=j] -
    M_ij / sqrt(s_i s_j), with d_i the common degree in cell i and M_ij the
    vertex pairs adjacent across cells i and j.  The target is alone in
    cell ``target_cell``, and |s> = sum_i sqrt(s_i / N) u_i.  A plain
    record: the engine solves the quotient H = gamma Lq - e_t e_t^T."""

    laplacian: np.ndarray  # (m, m) Lq
    sizes: np.ndarray      # (m,) int64 cell sizes s_i
    target_cell: int
    modes: np.ndarray      # per group of the measure, eigenvalues of Lq in it


def _quotient_laplacian(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The symmetric quotient Lq of :class:`Quotient` from an equitable
    partition's neighbour counts and cell sizes."""
    lq = -(sizes[:, None] * counts) / np.sqrt(np.outer(sizes, sizes))
    lq[np.diag_indices_from(lq)] += counts.sum(axis=1)
    return lq


def _tree_spectrum(lq: np.ndarray, lq_values: np.ndarray, sizes: np.ndarray,
                   cell: int) -> np.ndarray:
    """L's N eigenvalues, ascending, on a tree, from the principal blocks of
    its quotient Lq (eigenvalues ``lq_values``).

    Lq and ``sizes`` come from an equitable partition of the tree with a
    vertex alone in cell ``cell``; off the diagonal, Lq_ij is nonzero
    exactly where cells i and j are adjacent.  The cells refine the
    distance from that vertex and each other cell C has one parent cell P,
    so the cells form a tree, walked on that pattern, and each vertex of P
    has |C| / |P| children in C.  The subtrees below those children carry
    one quotient: T_C, the principal block of Lq on C and the cells below
    it.  T_C's eigenvectors, lifted into the subtrees of one parent vertex
    with coefficients that sum to 0, vanish at that vertex and are
    eigenvectors of L.  So each eigenvalue of T_C is one of L with
    multiplicity |C| - |P|, and with Lq's own these make N (Rojo &
    Robbiano, LAA 427, 138, 2007, on Bethe trees).  A depth-first order of
    the cells makes each T_C a contiguous block; only cells with
    |C| > |P| are solved, and a one-cell block is its diagonal.
    NumericalError unless the blocks give N eigenvalues, none above Lq's
    largest, with a simple zero mode."""
    order, pred = csgraph.depth_first_order(sp.csr_matrix(lq), cell,
                                            directed=False)
    m = order.size
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    parent = [0, *position[pred[order[1:]]].tolist()]
    ends = list(range(1, m + 1))  # each subtree is positions [p, ends[p])
    for p in range(m - 1, 0, -1):
        ends[parent[p]] = max(ends[parent[p]], ends[p])
    lq = lq[np.ix_(order, order)]
    extra = sizes[order] - sizes[order[parent]]
    parts = [lq_values]
    for p in np.flatnonzero(extra > 0).tolist():
        block = lq[p:ends[p], p:ends[p]]
        parts.append(np.repeat(sla.eigvalsh(block, check_finite=False)
                               if block.size > 1 else block[0], extra[p]))
    values = np.sort(np.concatenate(parts))
    n = int(sizes.sum())
    top = float(lq_values[-1])
    if values.size != n or values[1] <= 1e-9 * max(1.0, top) \
            or values[-1] > top + DEGENERACY_RTOL * top:
        raise NumericalError(
            f"the quotient's blocks do not add up to N = {n} eigenvalues, "
            f"none above the quotient's largest, with a simple zero mode")
    return values


def _quotient_measure(graph: Graph, lq: np.ndarray, sizes: np.ndarray,
                      cell: int) -> SpectralSums:
    """The measure from the eigenpairs of the target's quotient (Lq, the
    cell sizes and the target's cell, as :func:`_root_quotient` returns
    them), on L's eigenvalues: from the quotient's blocks on a tree
    (:func:`_tree_spectrum`, route ``tree cells=m``, the guard on the
    number of cells m), else from :func:`laplacian_spectrum` (route
    ``quotient cells=m``; the factors' sums on a product, else
    ``eigvalsh(L)`` with the guard on N).  Each
    eigenvalue of Lq must lie within the grouping tolerance of one of L,
    and no group may receive more of them than its multiplicity; otherwise
    NumericalError."""
    tree = _is_tree(graph)
    quo_values, quo_vectors = eigh(lq)
    if tree:
        values = _tree_spectrum(lq, quo_values, sizes, cell)
    else:
        values = laplacian_spectrum(graph)[0]
    groups = degeneracy_groups(values)
    # Nearest eigenvalue of L to each of Lq.
    above = np.searchsorted(values, quo_values).clip(1, values.size - 1)
    near = np.where(quo_values - values[above - 1]
                    <= values[above] - quo_values, above - 1, above)
    miss = np.abs(values[near] - quo_values)
    tol = GROUP_RTOL * float(values[-1] - values[0])
    if miss.max() > tol:
        raise NumericalError(
            f"quotient eigenvalue {quo_values[miss.argmax()]!r} is "
            f"{miss.max():.3e} from every eigenvalue of L (tolerance {tol:.3e})")
    modes = np.bincount(groups[near], minlength=int(groups[-1]) + 1)
    if np.any(modes > np.bincount(groups)):
        raise NumericalError("the quotient has more eigenvalues in a group "
                             "than L has")
    amp_sq = np.zeros(values.size)
    np.add.at(amp_sq, near, quo_vectors[cell] ** 2)
    for arr in (lq, sizes, modes):
        arr.flags.writeable = False
    route = f"{'tree' if tree else 'quotient'} cells={sizes.size}"
    return _measure(values, groups, amp_sq, route,
                    sizes.size if tree else graph.n,
                    Quotient(lq, sizes, cell, modes))


@dataclass(frozen=True, eq=False)
class SpectralSums:
    """The target's Laplacian spectral measure and its inverse-eigenvalue
    sums.

    With a_k = <w|phi_k> over the nonzero Laplacian modes:

    * ``xi1``, ``xi2``  : sum of |a_k|^2 / lam_k^j (j = 1, 2)
    * ``max_amp_sq``    : largest per-mode |a_k|^2, with degenerate groups
                          contributing their basis-independent average
                          (group-summed weight / multiplicity)

    Per-group data keep only the group-summed weights; members of a
    degenerate group are not individually meaningful.
    """

    n: int
    xi1: float
    xi2: float
    max_amp_sq: float
    group_eigenvalues: np.ndarray  # per group, ascending; first entry 0
    multiplicities: np.ndarray     # int64 per group
    group_amp_sq: np.ndarray       # summed |a_k|^2 per group; first 1/N
    # "dense", or "quotient cells=m" or "tree cells=m" on the m-cell
    # quotient (L's eigenvalues from laplacian_spectrum or from its
    # blocks), and the order of the route's largest dense solve: m on a
    # tree, else N.
    route: str
    dense_order: int
    # The equitable quotient the weights came from; None on the dense route.
    quotient: Quotient | None = None


def spectral_sums(dec: tuple[np.ndarray, np.ndarray],
                  target: NodeId) -> SpectralSums:
    """Compute :class:`SpectralSums` from a Laplacian decomposition
    ``(values, vectors)`` (:func:`laplacian_decomposition`).

    The lowest eigenvalue must be the simple zero mode of a connected
    graph; its amplitude must match the uniform value 1/N to 1e-10.  Both
    are then set to their exact values, 0 and 1/N (L 1 = 0 holds exactly),
    so no eigensolver roundoff in the zero mode reaches gamma * lam_0.
    The values are labelled here (:func:`degeneracy_groups`), and group
    sums and means are taken in one pass over the contiguous runs of
    labels.
    """
    values, vectors = dec
    n = values.size
    if not (0 <= target < n):
        raise ConfigError(f"target {target} out of range for {n} nodes")
    amps = vectors[target, :]
    return _measure(values, degeneracy_groups(values), amps * amps,
                    "dense", n)


def _measure(values: np.ndarray, group_index: np.ndarray, amp_sq: np.ndarray,
             route: str, dense_order: int,
             quotient: Quotient | None = None) -> SpectralSums:
    """:class:`SpectralSums` from L's ascending eigenvalues, their group
    labels and the target weight |a_k|^2 of each.  A search needs a
    nonzero mode, so ConfigError on a graph of one node."""
    n = values.size
    if n < 2:
        raise ConfigError("a search needs at least two nodes")
    starts = np.flatnonzero(np.diff(group_index, prepend=-1))
    mults = np.diff(starts, append=n)
    zero_scale = max(1.0, float(np.abs(values[-1])))
    if abs(values[0]) > 1e-9 * zero_scale:
        raise ConfigError("lowest eigenvalue is not zero: not a Laplacian")
    if mults[0] != 1:
        raise ConfigError("zero eigenvalue is degenerate: graph is disconnected")
    group_amp_sq = np.add.reduceat(amp_sq, starts)
    group_vals = np.add.reduceat(values, starts) / mults
    uniform = 1.0 / n
    if abs(group_amp_sq[0] - uniform) > 1e-10:
        raise NumericalError(
            f"zero-mode weight {group_amp_sq[0]:.3e} deviates from 1/N"
        )
    group_vals[0] = 0.0
    group_amp_sq[0] = uniform
    lam = values[1:]
    w_sq = amp_sq[1:]
    xi1 = float(np.sum(w_sq / lam))
    xi2 = float(np.sum(w_sq / lam**2))
    per_mode = group_amp_sq[1:] / mults[1:]
    # target_measure shares one instance among all its callers.
    for arr in (group_vals, mults, group_amp_sq):
        arr.flags.writeable = False
    return SpectralSums(
        n=n, xi1=xi1, xi2=xi2,
        max_amp_sq=float(per_mode.max()),
        group_eigenvalues=group_vals, multiplicities=mults,
        group_amp_sq=group_amp_sq, route=route, dense_order=dense_order,
        quotient=quotient,
    )


# Measures per Graph object and target.  Keyed by identity, so a rebuilt
# graph computes its own; the entry goes when the graph is collected.
_MEASURES: weakref.WeakKeyDictionary[Graph, dict[NodeId, SpectralSums]] = \
    weakref.WeakKeyDictionary()


def target_measure(graph: Graph, target: NodeId) -> SpectralSums:
    """The target's Laplacian spectral measure, computed once per ``Graph``
    object and target: from the target's quotient (:func:`_root_quotient`)
    when :func:`equitable_partition` finds one of at most N/2 cells, else
    from the dense decomposition of L.  A new measure is refused on N
    before the refinement unless the graph is a tree shallow enough from
    the target, then on the partition's cell count and at each dense solve
    of its route.  A cached one is checked again on
    :attr:`SpectralSums.dense_order`."""
    per_graph = _MEASURES.setdefault(graph, {})
    sums = per_graph.get(target)
    if sums is not None:
        check_dense_guard(sums.dense_order, "dense eigendecomposition")
        return sums
    if not (0 <= target < graph.n):
        raise ConfigError(f"target {target} out of range for {graph.n} nodes")
    quotient = _root_quotient(graph, target)
    if quotient is None:
        sums = spectral_sums(laplacian_decomposition(graph), target)
    else:
        sums = _quotient_measure(graph, *quotient)
    per_graph[target] = sums
    return sums


def _is_tree(graph: Graph) -> bool:
    """Whether the graph is a tree: N - 1 edges, since every ``Graph`` is
    connected."""
    return graph.edge_count == graph.n - 1


def _root_quotient(graph: Graph, root: NodeId
                   ) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The quotient seen from ``root``: (Lq, the cell sizes, the root's
    cell) of :func:`equitable_partition`, or None where it finds none.

    Above the guard, refused on N before any refinement unless the graph is
    a tree whose farthest node from the root lies fewer than guard steps
    away (one breadth-first search).  A partition with the root alone in
    its cell refines the distance from it, so it has more cells than that
    depth, and on any other tree more than the guard."""
    try:
        check_dense_guard(graph.n, "dense eigendecomposition")
    except DenseGuardError as refusal:
        if not _is_tree(graph):
            raise
        try:
            check_dense_guard(int(graph.bfs_distances(root).max()) + 1,
                              "the tree's depth")
        except DenseGuardError:
            raise refusal from None
    partition = equitable_partition(graph, root)
    if partition is None:
        return None
    cells, counts = partition
    sizes = np.bincount(cells)
    return _quotient_laplacian(counts, sizes), sizes, int(cells[root])


def _centre(graph: Graph) -> NodeId | None:
    """A centre of a tree, the middle node of a longest path, found by two
    breadth-first searches: one from node 0 to a farthest node, one from
    there; None when the graph is not a tree."""
    if not _is_tree(graph):
        return None
    far = csgraph.breadth_first_order(graph.adjacency, 0,
                                      return_predecessors=False)[-1]
    order, pred = csgraph.breadth_first_order(graph.adjacency, far)
    path, pred = [int(order[-1])], pred.tolist()
    while pred[path[-1]] >= 0:
        path.append(pred[path[-1]])
    return path[len(path) // 2]


# -- amplitude scaling --------------------------------------------------------


def fit_alpha(measures: Sequence[SpectralSums]) -> float:
    """alpha of the power law max_amp_sq ~ c * N^alpha across one family,
    one target measure per graph size: the exponent of
    :func:`analysis.fit_scaling`'s power model, which refuses fewer than
    three sizes, repeated ones and non-finite values."""
    return fit_scaling([(m.n, m.max_amp_sq) for m in measures],
                       "power").params["beta"]


# -- export -------------------------------------------------------------------


def spectrum_csv(eigenvalues: np.ndarray) -> str:
    """CSV rows ``index,eigenvalue,multiplicity_group`` with 17 significant
    digits, matching the exact-spectrum export format; the groups are the
    ascending values' :func:`degeneracy_groups`."""
    lines = ["index,eigenvalue,multiplicity_group"]
    groups = degeneracy_groups(eigenvalues).tolist()
    for k, (lam, grp) in enumerate(zip(eigenvalues.tolist(), groups)):
        lines.append(f"{k},{lam:.17g},{grp}")
    return "\n".join(lines) + "\n"
