"""Graph families, Cartesian products, and canonical target placement.

Every builder produces a simple, connected, undirected graph with a
deterministic node numbering, so repeated builds are bit-identical and
downstream eigensolves are reproducible.  Families:

* ``complete``   -- N = n, all pairs adjacent; refused above the dense
                    guard, as its edge array grows as n^2.
* ``chain``      -- one-dimensional lattice of L sites (ring when periodic).
* ``torus``      -- d-dimensional hypercubic lattice, L sites per axis,
                    periodic by default; from d = 2 on, the product of a
                    chain and the torus of d - 1 dimensions.
* ``dsg``        -- triangle-based fractal built by gluing three copies of
                    the previous generation at their corner nodes; N = 3^g.
* ``tfractal``   -- tree fractal built by splitting every edge at its
                    midpoint and hanging a new branch off the midpoint;
                    N = 3^g + 1, numbered breadth-first from the branching
                    center.
* ``cayleytree`` -- rooted tree, three branches at the root, two children
                    per interior node, g shells; N = 3*2^g - 2.
* ``product``    -- Cartesian product of two member graphs; node (i, j) of
                    factors with sizes (Na, Nb) is numbered i*Nb + j, and
                    the graph keeps its factors for their spectra.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from enum import Enum
from math import log
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ConfigError, _size_text, check_dense_guard

NodeId = int

# Edges written per chunk in :meth:`Graph.to_edge_list`.
_EXPORT_CHUNK = 1 << 16


def _digit_table(n: int) -> np.ndarray:
    """Decimal digits of the ids 0..n-1 in ASCII, one ``np.void(width)``
    record per id, right-aligned and padded on the left with 0 bytes."""
    width = len(str(n - 1))
    power = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)[:, None]
    table = (ids // power % 10 + ord("0")).astype(np.uint8)
    table[(ids < power) & (power > 1)] = 0
    return table.view(f"V{width}").ravel()


class Family(str, Enum):
    COMPLETE = "complete"
    CHAIN = "chain"
    TORUS = "torus"
    DSG = "dsg"
    TFRACTAL = "tfractal"
    CAYLEY_TREE = "cayleytree"
    PRODUCT = "product"


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of one graph.

    Each family takes its own integer size parameters and no others:
    ``n`` for complete, ``L`` for chain, ``L`` and ``d`` for torus, ``g``
    for dsg/tfractal/cayleytree, and ``factors`` (two specs) for product.
    A chain also accepts ``d=1``, stored as omitted.  ``periodic`` applies
    to chain and torus only, the families with a boundary, and defaults to
    wrapped boundaries; pass ``periodic=False`` for open ones.  Any other
    parameter raises :class:`ConfigError`.
    """

    family: Family
    n: int | None = None
    g: int | None = None
    L: int | None = None
    d: int | None = None
    periodic: bool = True
    factors: tuple["GraphSpec", ...] | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "family", Family(self.family))
        except ValueError as exc:
            raise ConfigError(f"unknown graph family: {self.family!r}") from exc
        if self.factors is not None:
            object.__setattr__(self, "factors", tuple(self.factors))
        # A chain is one-dimensional: d=1 adds nothing, so it is stored as
        # omitted and the spec round-trips through to_dict.
        if self.family is Family.CHAIN and type(self.d) is int and self.d == 1:
            object.__setattr__(self, "d", None)
        self._validate()

    def _validate(self) -> None:
        fam = self.family
        if not isinstance(self.periodic, bool):
            raise ConfigError(f"{fam.value}: periodic must be true or false")
        if fam is Family.PRODUCT:
            if self.factors is None or len(self.factors) != 2:
                raise ConfigError(f"{fam.value}: needs exactly two factors")
            if not all(isinstance(f, GraphSpec) for f in self.factors):
                raise ConfigError("product factors must be GraphSpec instances")
            taken, boundary = ("factors",), False
        else:
            record = _RECORDS[fam]
            for name, least in record.sizes:
                value = getattr(self, name)
                # bool is an int subclass; a JSON true is not a size.
                if not (isinstance(value, int) and not isinstance(value, bool)
                        and value >= least):
                    raise ConfigError(
                        f"{fam.value}: needs integer {name} >= {least}")
            taken = tuple(name for name, _ in record.sizes)
            boundary = record.boundary
        for name in ("n", "g", "L", "d", "factors"):
            if name not in taken and getattr(self, name) is not None:
                raise ConfigError(
                    f"{fam.value}: parameter {name!r} is not accepted")
        if not (self.periodic or boundary):
            raise ConfigError(f"{fam.value}: parameter 'periodic' is not accepted")

    # -- derived attributes -------------------------------------------------

    @property
    def node_count(self) -> int:
        if self.family is Family.PRODUCT:
            a, b = self.factors  # type: ignore[misc]
            return a.node_count * b.node_count
        return _RECORDS[self.family].node_count(self)

    @property
    def spectral_dimension(self) -> float | None:
        """Spectral dimension of the family, or None where undefined
        (complete graphs, Cayley trees).  Products add the factors'."""
        return self._dimension(0)

    @property
    def fractal_dimension(self) -> float | None:
        return self._dimension(1)

    def _dimension(self, which: int) -> float | None:
        if self.family is not Family.PRODUCT:
            return _RECORDS[self.family].dimensions(self)[which]
        dims = [f._dimension(which) for f in self.factors]  # type: ignore[union-attr]
        return None if None in dims else float(sum(dims))  # type: ignore[arg-type]

    @property
    def label(self) -> str:
        """Short filesystem-safe identifier, e.g. ``dsg_g4`` or
        ``torus_d2_L8``."""
        if self.family is Family.PRODUCT:
            a, b = self.factors  # type: ignore[misc]
            return f"product__{a.label}__{b.label}"
        return _RECORDS[self.family].label(self)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"family": self.family.value}
        if self.family is Family.PRODUCT:
            out["factors"] = [f.to_dict() for f in self.factors]  # type: ignore[union-attr]
            return out
        record = _RECORDS[self.family]
        out.update((name, getattr(self, name)) for name, _ in record.sizes)
        if record.boundary:
            out["periodic"] = self.periodic
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GraphSpec":
        if not isinstance(data, dict):
            raise ConfigError("graph spec must be a JSON object")
        allowed = {"family", "n", "g", "L", "d", "periodic", "factors"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown graph spec keys: {sorted(unknown)}")
        if "family" not in data:
            raise ConfigError("graph spec needs a 'family' key")
        kwargs = dict(data)
        factors = kwargs.pop("factors", None)
        if factors is not None:
            if not isinstance(factors, (list, tuple)):
                raise ConfigError("'factors' must be an array")
            kwargs["factors"] = tuple(cls.from_dict(f) for f in factors)
        return cls(**kwargs)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "GraphSpec":
        """The spec of a JSON text; ConfigError on invalid JSON, on an
        invalid spec and on one nested past the interpreter's recursion
        limit."""
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid graph spec JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("graph spec nests too deep to read") from None


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph stored as a CSR adjacency matrix.
    Every ``Graph`` has a node and is connected, however it was built: one
    breadth-first search from node 0 checks it on construction.

    ``factors`` holds the two factor graphs of a :func:`cartesian_product`,
    whose Laplacian spectrum is the sums of theirs; every other graph,
    one read back from an edge list among them, has None."""

    n: int
    adjacency: sp.csr_matrix
    factors: tuple["Graph", "Graph"] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("graph needs at least one node")
        if self.adjacency.shape != (self.n, self.n):
            rows, cols = self.adjacency.shape
            raise ConfigError(f"adjacency of shape {rows} x {cols} does not "
                              f"fit a graph of {self.n} nodes")
        if csgraph.breadth_first_order(self.adjacency, 0,
                                       return_predecessors=False).size != self.n:
            ncomp = csgraph.connected_components(self.adjacency, directed=False,
                                                 return_labels=False)
            raise ConfigError(f"graph is disconnected ({ncomp} components)")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build and validate a graph from an iterable of (u, v) pairs.

        Rejects self-loops, duplicate edges and out-of-range endpoints here,
        and an empty or disconnected result on construction.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigError("edges must be (u, v) pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ConfigError("edge endpoint out of range")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ConfigError("self-loops are not allowed")
        return cls(n=n, adjacency=_adjacency(n, arr))

    # -- structure ----------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr).astype(np.int64)

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.nnz // 2)

    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) int array with u < v, sorted lexicographically
        (the order of the canonical CSR adjacency's upper triangle)."""
        a = self.adjacency
        rows = np.repeat(np.arange(self.n, dtype=a.indices.dtype), np.diff(a.indptr))
        upper = a.indices > rows
        edges = np.empty((self.edge_count, 2), dtype=np.int64)
        edges[:, 0] = rows[upper]
        edges[:, 1] = a.indices[upper]
        return edges

    def neighbors(self, node: NodeId) -> np.ndarray:
        a = self.adjacency
        return a.indices[a.indptr[node]:a.indptr[node + 1]].astype(np.int64)

    def bfs_distances(self, source: NodeId) -> np.ndarray:
        dist = csgraph.shortest_path(self.adjacency, method="D", unweighted=True,
                                     indices=source)
        return dist.astype(np.int64)

    # -- operators ----------------------------------------------------------

    def laplacian(self) -> np.ndarray:
        """Dense combinatorial Laplacian L = Z - A (float64)."""
        return self.laplacian_sparse().toarray()

    def laplacian_sparse(self) -> sp.csr_matrix:
        return (sp.diags(self.degrees.astype(np.float64)) - self.adjacency).tocsr()

    # -- export -------------------------------------------------------------

    def to_edge_list(self) -> str:
        """Plain text export: a ``# N=<n>`` header then one ``u v`` line per
        edge with u < v, sorted."""
        edges = self.edge_array()
        digits = _digit_table(self.n)
        line = np.dtype([("u", digits.dtype), ("space", "u1"),
                         ("v", digits.dtype), ("newline", "u1")])
        parts = [f"# N={self.n}\n"]
        # Each line is built at full width from the digit table, then the pad
        # bytes are dropped; chunking bounds the memory of the line buffer.
        for start in range(0, len(edges), _EXPORT_CHUNK):
            chunk = edges[start:start + _EXPORT_CHUNK]
            lines = np.empty(len(chunk), dtype=line)
            lines["u"] = digits[chunk[:, 0]]
            lines["space"] = ord(" ")
            lines["v"] = digits[chunk[:, 1]]
            lines["newline"] = ord("\n")
            text = lines.view(np.uint8)
            parts.append(text[text != 0].tobytes().decode("ascii"))
        return "".join(parts)

    @classmethod
    def from_edge_list(cls, text: str) -> "Graph":
        """Read back :meth:`to_edge_list`: one ``numpy.loadtxt`` pass."""
        head, _, body = text.lstrip().partition("\n")
        if not head.startswith("# N="):
            raise ConfigError("edge list must start with a '# N=<n>' header")
        try:
            n = int(head[4:])
        except ValueError as exc:
            raise ConfigError("invalid node count in edge list header") from exc
        try:
            edges = (np.loadtxt(io.StringIO(body), dtype=np.int64,
                                comments=None, ndmin=2)
                     if body and not body.isspace() else np.empty((0, 2)))
        except ValueError as exc:
            raise ConfigError(
                f"malformed edge line or non-integer node: {exc}") from exc
        if edges.shape[1] != 2:
            raise ConfigError(f"malformed edge lines: {edges.shape[1]} fields each")
        return cls.from_edges(n, edges)


def _adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """The canonical CSR adjacency of (E, 2) in-range, loop-free edges:
    row-major with sorted columns; ConfigError on a duplicate edge."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    # The conversion sums repeated entries, so a duplicate edge, in either
    # orientation, leaves the upper triangle an entry short.  A negative n
    # is left for the node-count check on construction.
    upper = sp.csr_matrix((np.ones(len(edges)), (lo, hi)),
                          shape=(max(n, 0),) * 2)
    if upper.nnz != len(edges):
        raise ConfigError("duplicate edges are not allowed")
    # The transpose comes out sorted, so the sum of the two triangles is
    # canonical.
    return upper + upper.T


# -- builders ----------------------------------------------------------------


def _complete_edges(n: int) -> np.ndarray:
    """The n(n - 1)/2 pairs; their O(n^2) index arrays are formed only
    under the dense guard."""
    check_dense_guard(n, "complete graph edge list")
    return np.column_stack(np.triu_indices(n, k=1)).astype(np.int64)


def _chain_edges(L: int, periodic: bool) -> np.ndarray:
    """Site x links to x + 1, and the wrap edge links site 0 to site L - 1.
    At L=2 the wrap edge repeats the forward one, so it is left out."""
    x = np.arange(L - 1, dtype=np.int64)
    edges = np.column_stack([x, x + 1])
    if periodic and L > 2:
        edges = np.concatenate([edges, [[0, L - 1]]])
    return edges


def _dsg_edges(g: int) -> np.ndarray:
    """Corner-glued recursive construction.

    Generation 1 is a triangle.  Each later generation places three copies
    of the previous one at node offsets (0, n, 2n) and joins them with one
    edge between corner nodes of adjacent copies, leaving exactly three
    outer corners of degree 2.
    """
    edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    c0, c1, c2 = 0, 1, 2
    n = 3
    for _ in range(1, g):
        joins = np.array([[c1, n + c0], [c2, 2 * n + c0], [n + c2, 2 * n + c1]])
        edges = np.concatenate([edges, edges + n, edges + 2 * n, joins])
        c1, c2 = n + c1, 2 * n + c2
        n *= 3
    return edges


def _tfractal_edges(g: int) -> np.ndarray:
    """Edge-splitting construction, renumbered so the branching center is 0.

    Start from a single edge; at every step replace each edge (u, v) by a
    midpoint path u-m-v and hang a fresh branch node off m.  The midpoint
    of the very first split is the center of the finished tree.
    """
    edges = np.array([[0, 1]], dtype=np.int64)
    n = 2
    for _ in range(g):
        # Edge i (u, v) becomes (u, m), (m, v), (m, m + 1) with m = n + 2i.
        u, v = edges.T
        mid = n + 2 * np.arange(len(edges), dtype=np.int64)
        n += 2 * len(edges)
        edges = np.column_stack([u, mid, mid, v, mid, mid + 1]).reshape(-1, 2)
    # Breadth-first from the center, node 2, the first split's midpoint.
    # The canonical CSR's sorted columns make each node's unseen neighbors
    # come in ascending old index.
    order = csgraph.breadth_first_order(Graph.from_edges(n, edges).adjacency,
                                        2, return_predecessors=False)
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    return new_id[edges]


def _cayley_tree_edges(n: int) -> np.ndarray:
    """Shell by shell, children numbered after their parents: nodes 1-3
    hang off the root and node k > 3 off node (k - 2) // 2."""
    child = np.arange(1, n, dtype=np.int64)
    parent = np.where(child <= 3, 0, (child - 2) // 2)
    return np.column_stack([parent, child])


@dataclass(frozen=True)
class _Record:
    """What one family is; each callable reads a valid spec of it.

    ``sizes`` names the integer size parameters with their least values,
    and a sweep varies the first.  ``boundary`` says whether ``periodic``
    applies.  ``edges`` gives the (E, 2) edge array that ``build`` reads,
    ``target`` the node :func:`default_target` returns without a build,
    and ``dimensions`` the spectral and the fractal dimension.
    """

    sizes: tuple[tuple[str, int], ...]
    boundary: bool
    node_count: Callable[[GraphSpec], int]
    edges: Callable[[GraphSpec], np.ndarray]
    target: Callable[[GraphSpec], NodeId]
    dimensions: Callable[[GraphSpec], tuple[float | None, float | None]]
    label: Callable[[GraphSpec], str]


def _tree_target(spec: GraphSpec) -> NodeId:
    """Both trees are numbered breadth-first from the center, so the outer
    shell, 3 * 2^(g-1) leaves at depth 2^(g-1) (tfractal) or g
    (cayleytree), comes last."""
    return spec.node_count - 3 * 2 ** (spec.g - 1)  # type: ignore[operator]


def _open(spec: GraphSpec) -> str:
    return "" if spec.periodic else "_open"


# Every family but product, which recurses into its factors instead.
_RECORDS: dict[Family, _Record] = {
    Family.COMPLETE: _Record(
        sizes=(("n", 2),), boundary=False, node_count=lambda s: s.n,
        edges=lambda s: _complete_edges(s.n), target=lambda s: 0,
        dimensions=lambda s: (None, None), label=lambda s: f"complete_n{s.n}"),
    Family.CHAIN: _Record(
        sizes=(("L", 2),), boundary=True, node_count=lambda s: s.L,
        edges=lambda s: _chain_edges(s.L, s.periodic), target=lambda s: 0,
        dimensions=lambda s: (1.0, 1.0),
        label=lambda s: f"chain_L{s.L}{_open(s)}"),
    Family.TORUS: _Record(
        sizes=(("L", 2), ("d", 1)), boundary=True, node_count=lambda s: s.L**s.d,
        # d >= 2 is built as a product in build(); this is the chain.
        edges=lambda s: _chain_edges(s.L, s.periodic),
        target=lambda s: 0,  # every node of a torus is equivalent
        dimensions=lambda s: (float(s.d), float(s.d)),
        label=lambda s: f"torus_d{s.d}_L{s.L}{_open(s)}"),
    Family.DSG: _Record(
        sizes=(("g", 1),), boundary=False, node_count=lambda s: 3**s.g,
        edges=lambda s: _dsg_edges(s.g),
        target=lambda s: 0,  # the apex corner, node 0 in every generation
        dimensions=lambda s: (2.0 * log(3.0) / log(5.0), log(3.0) / log(2.0)),
        label=lambda s: f"dsg_g{s.g}"),
    Family.TFRACTAL: _Record(
        sizes=(("g", 1),), boundary=False, node_count=lambda s: 3**s.g + 1,
        edges=lambda s: _tfractal_edges(s.g), target=_tree_target,
        dimensions=lambda s: (2.0 * log(3.0) / log(6.0), log(3.0) / log(2.0)),
        label=lambda s: f"tfractal_g{s.g}"),
    Family.CAYLEY_TREE: _Record(
        sizes=(("g", 1),), boundary=False, node_count=lambda s: 3 * 2**s.g - 2,
        edges=lambda s: _cayley_tree_edges(s.node_count), target=_tree_target,
        dimensions=lambda s: (None, None), label=lambda s: f"cayleytree_g{s.g}"),
}


def build(spec: GraphSpec) -> Graph:
    """Materialize a spec into a validated :class:`Graph`.  A torus of
    d >= 2 dimensions is the product of a chain and the torus of d - 1,
    numbered row-major: its first axis is the chain's.  A spec of more
    nodes than int64 ids can number, 2^63 - 1, is a ConfigError before
    anything is built."""
    n = spec.node_count
    if n > np.iinfo(np.int64).max:
        raise ConfigError(f"{_size_text(n)} nodes are more than int64 node "
                          f"ids can number (2^63 - 1)")
    if spec.family is Family.PRODUCT:
        a, b = spec.factors  # type: ignore[misc]
        return cartesian_product(build(a), build(b))
    if spec.family is Family.TORUS and spec.d >= 2:  # type: ignore[operator]
        rest = replace(spec, d=spec.d - 1)  # type: ignore[operator]
        return cartesian_product(build(replace(spec, d=1)), build(rest))
    return Graph.from_edges(spec.node_count, _RECORDS[spec.family].edges(spec))


def cartesian_product(a: Graph, b: Graph) -> Graph:
    """Cartesian product with node (i, j) -> i * b.n + j, which records
    ``a`` and ``b`` as its :attr:`Graph.factors`.

    Degrees add across factors and the product Laplacian spectrum is the
    sums of one eigenvalue of each factor (Cvetkovic, Doob & Sachs,
    *Spectra of Graphs*, 1980), which :func:`spectra.laplacian_spectrum`
    reads from the factors.  Any size is built: the dense guard is checked
    at the solve, not here.
    """
    n = a.n * b.n
    ea = a.edge_array()
    eb = b.edge_array()
    j = np.arange(b.n, dtype=np.int64)
    i = np.arange(a.n, dtype=np.int64)
    ua = (ea[:, 0][:, None] * b.n + j[None, :]).ravel()
    va = (ea[:, 1][:, None] * b.n + j[None, :]).ravel()
    ub = (i[:, None] * b.n + eb[:, 0][None, :]).ravel()
    vb = (i[:, None] * b.n + eb[:, 1][None, :]).ravel()
    edges = np.column_stack([np.concatenate([ua, ub]), np.concatenate([va, vb])])
    return Graph(n=n, adjacency=_adjacency(n, edges), factors=(a, b))


# -- target placement ---------------------------------------------------------


def default_target(spec: GraphSpec) -> NodeId:
    """Canonical search target for a family.

    Lattices and complete graphs use node 0 (all nodes equivalent on a
    torus).  Fractal/tree families use a peripheral node: the apex corner
    for dsg, the lowest-index deepest leaf for tfractal, the first leaf of
    the outer shell for cayleytree.  Products pair the first factor's
    target with node 0 of the second factor.  No graph is built.
    """
    if spec.family is Family.PRODUCT:
        a, b = spec.factors  # type: ignore[misc]
        return default_target(a) * b.node_count + 0
    return _RECORDS[spec.family].target(spec)
