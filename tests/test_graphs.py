"""Graph construction, serialization, and target-placement tests."""

import hashlib
import math
import warnings
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csgraph

from ctqwlab import graphs
from ctqwlab.errors import DEFAULT_DENSE_GUARD, ConfigError
from ctqwlab.graphs import (
    Family,
    Graph,
    GraphSpec,
    NodeId,
    build,
    cartesian_product,
    default_target,
)


def spec_strategy():
    """Random valid single-factor specs across every family."""
    return st.one_of(
        st.integers(2, 40).map(lambda n: GraphSpec(Family.COMPLETE, n=n)),
        st.tuples(st.integers(2, 40), st.booleans(), st.sampled_from([None, 1])).map(
            lambda t: GraphSpec(Family.CHAIN, L=t[0], periodic=t[1], d=t[2])),
        st.tuples(st.integers(2, 6), st.integers(1, 3)).map(
            lambda t: GraphSpec(Family.TORUS, L=t[0], d=t[1])),
        st.integers(1, 4).map(lambda g: GraphSpec(Family.DSG, g=g)),
        st.integers(1, 4).map(lambda g: GraphSpec(Family.TFRACTAL, g=g)),
        st.integers(1, 5).map(lambda g: GraphSpec(Family.CAYLEY_TREE, g=g)),
    )


# ------------------------------------------------------------ node counts


@pytest.mark.parametrize("spec,expected_n", [
    (GraphSpec(Family.COMPLETE, n=7), 7),
    (GraphSpec(Family.CHAIN, L=9), 9),
    (GraphSpec(Family.CHAIN, L=9, periodic=False), 9),
    (GraphSpec(Family.TORUS, L=4, d=3), 64),
    (GraphSpec(Family.DSG, g=1), 3),
    (GraphSpec(Family.DSG, g=4), 81),
    (GraphSpec(Family.TFRACTAL, g=1), 4),
    (GraphSpec(Family.TFRACTAL, g=3), 28),
    (GraphSpec(Family.CAYLEY_TREE, g=1), 4),
    (GraphSpec(Family.CAYLEY_TREE, g=5), 94),
])
def test_node_count_formulas(spec, expected_n):
    assert spec.node_count == expected_n
    assert build(spec).n == expected_n


@pytest.mark.parametrize("spec,expected_edges", [
    (GraphSpec(Family.COMPLETE, n=7), 21),
    (GraphSpec(Family.CHAIN, L=9), 9),
    (GraphSpec(Family.CHAIN, L=9, periodic=False), 8),
    (GraphSpec(Family.TORUS, L=4, d=2), 32),
    (GraphSpec(Family.TORUS, L=2, d=3), 12),  # the 3-cube
    (GraphSpec(Family.DSG, g=3), 39),
    (GraphSpec(Family.TFRACTAL, g=3), 27),
    (GraphSpec(Family.CAYLEY_TREE, g=4), 45),
])
def test_edge_count_formulas(spec, expected_edges):
    assert build(spec).edge_count == expected_edges


@given(spec_strategy())
def test_handshake_and_connectivity(spec):
    graph = build(spec)
    assert int(graph.degrees.sum()) == 2 * graph.edge_count
    assert (graph.bfs_distances(0) >= 0).all()


# ---------------------------------------------------------------- degrees


def test_complete_k2_laplacian():
    lap = build(GraphSpec(Family.COMPLETE, n=2)).laplacian()
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_dsg_corner_degrees():
    for g in (1, 2, 3, 4):
        graph = build(GraphSpec(Family.DSG, g=g))
        hist = dict(zip(*np.unique(graph.degrees, return_counts=True)))
        if g == 1:
            assert hist == {2: 3}
        else:
            assert hist == {2: 3, 3: graph.n - 3}
        assert graph.degrees[0] == 2  # apex corner hosts the target


def test_tfractal_degree_census():
    for g in (1, 2, 3, 4, 5):
        graph = build(GraphSpec(Family.TFRACTAL, g=g))
        hist = dict(zip(*np.unique(graph.degrees, return_counts=True)))
        leaves = (3**g + 3) // 2
        assert hist.get(1, 0) == leaves
        assert set(hist) <= {1, 2, 3}
        # interior branch points carry degree 3; counts close the census
        assert sum(hist.values()) == 3**g + 1
        assert graph.edge_count == 3**g


def test_cayley_tree_shells():
    for g in (1, 2, 3, 4, 5):
        graph = build(GraphSpec(Family.CAYLEY_TREE, g=g))
        n = 3 * 2**g - 2
        leaves = n // 2 + 1
        hist = dict(zip(*np.unique(graph.degrees, return_counts=True)))
        assert hist[1] == leaves
        assert graph.degrees[0] == 3
        first_leaf = 3 * 2 ** (g - 1) - 2
        assert graph.degrees[first_leaf] == 1
        if first_leaf > 0:
            assert graph.degrees[first_leaf - 1] != 1


def test_open_grid_3x3_degrees():
    a = build(GraphSpec(Family.CHAIN, L=3, periodic=False))
    grid = cartesian_product(a, a)
    hist = dict(zip(*np.unique(grid.degrees, return_counts=True)))
    assert hist == {2: 4, 3: 4, 4: 1}


def test_torus_is_regular():
    graph = build(GraphSpec(Family.TORUS, L=5, d=3))
    assert (graph.degrees == 6).all()


# ---------------------------------------------------------------- product


def test_k2_times_k2_is_four_cycle():
    k2 = build(GraphSpec(Family.COMPLETE, n=2))
    prod = cartesian_product(k2, k2)
    assert prod.n == 4
    assert (prod.degrees == 2).all()
    assert prod.edge_count == 4


def test_product_degree_additivity():
    a = build(GraphSpec(Family.DSG, g=2))
    b = build(GraphSpec(Family.TORUS, L=3, d=1))
    prod = cartesian_product(a, b)
    for i in range(a.n):
        for j in range(b.n):
            assert prod.degrees[i * b.n + j] == a.degrees[i] + b.degrees[j]


def test_product_spec_node_count():
    spec = GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=4), GraphSpec(Family.TORUS, L=8, d=2)))
    assert spec.node_count == 81 * 64


def test_products_past_the_guard_build_without_a_warning():
    """The dense guard bars dense solves, not graphs: a product above it
    builds silently."""
    a = build(GraphSpec(Family.CHAIN, L=80, periodic=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prod = cartesian_product(a, a)
    assert prod.n == 6400 > DEFAULT_DENSE_GUARD


# ---------------------------------------------------------- serialization


@given(spec_strategy())
def test_spec_json_round_trip(spec):
    assert GraphSpec.from_json(spec.to_json()) == spec
    assert GraphSpec.from_dict(spec.to_dict()) == spec


def test_product_spec_json_round_trip():
    spec = GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=2), GraphSpec(Family.CHAIN, L=4,
                                              periodic=False)))
    assert GraphSpec.from_json(spec.to_json()) == spec


def test_spec_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        GraphSpec.from_dict({"family": "dsg", "g": 3, "bogus": 1})


def test_spec_json_rejects_garbage():
    with pytest.raises(ConfigError):
        GraphSpec.from_json("not json at all {")


@given(spec_strategy())
def test_edge_list_round_trip(spec):
    graph = build(spec)
    back = Graph.from_edge_list(graph.to_edge_list())
    assert back.n == graph.n
    assert np.array_equal(back.edge_array(), graph.edge_array())
    # No sort is applied: the order comes from the CSR layout.
    u, v = graph.edge_array().T
    assert (u < v).all()
    assert ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all()


# sha256 of to_edge_list(), recorded before the recursive builders were
# vectorized; they pin each builder's node numbering.
@pytest.mark.parametrize("spec,digest", [
    (GraphSpec(Family.DSG, g=5),
     "a8f7cbf6151d1280868f157e8b59b70bfd4e8ed7a72326ee6f830b79c2b840aa"),
    (GraphSpec(Family.TFRACTAL, g=5),
     "67a7764fe201a9b1bbf59ea64d251e4cd58b4518e753895643167fd0cb9f1af5"),
    (GraphSpec(Family.TFRACTAL, g=6),
     "e9c1374803d1aa3a220a9a17db90d740334f336761ba6c248aa067facd5e65f0"),
    (GraphSpec(Family.CAYLEY_TREE, g=6),
     "6458b3b1dc4d45329e624d72125dd1eaaca53c7be2100348f2750fc9d3c54214"),
    (GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=3), GraphSpec(Family.CHAIN, L=4,
                                              periodic=False))),
     "885b117336e65dc3c54e714e5ff7608641c58a8bcaaede17736ab8b234d53419"),
], ids=lambda x: x.label if isinstance(x, GraphSpec) else "")
def test_recursive_builder_numbering_is_pinned(spec, digest):
    text = build(spec).to_edge_list()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", [
    GraphSpec(Family.COMPLETE, n=7),
    # 79,800 edges: more than one export chunk at the default chunk size
    GraphSpec(Family.COMPLETE, n=400),
    GraphSpec(Family.CHAIN, L=5, periodic=False),
    # node ids change digit count: 0-9, 10-99, 100-999 and 1000
    GraphSpec(Family.CHAIN, L=1001, periodic=False),
    # the wrap edge "0 10" pairs a one-digit id with a two-digit one
    GraphSpec(Family.CHAIN, L=11),
    GraphSpec(Family.TORUS, L=3, d=2),
    GraphSpec(Family.DSG, g=3),
    GraphSpec(Family.TFRACTAL, g=3),
    GraphSpec(Family.CAYLEY_TREE, g=3),
    GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=2), GraphSpec(Family.CHAIN, L=4))),
], ids=lambda spec: spec.label)
def test_edge_list_matches_per_edge_reference(spec, monkeypatch):
    graph = build(spec)
    lines = [f"# N={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.edge_array().tolist())
    expected = "\n".join(lines) + "\n"
    assert graph.to_edge_list() == expected
    # Chunks of 7 edges: every graph here but the 4-edge chain spans
    # several, whatever the default chunk size is.
    monkeypatch.setattr(graphs, "_EXPORT_CHUNK", 7)
    assert graph.to_edge_list() == expected


def test_single_node_edge_list():
    graph = Graph.from_edges(1, [])
    assert graph.to_edge_list() == "# N=1\n"
    back = Graph.from_edge_list(graph.to_edge_list())
    assert back.n == 1 and back.edge_count == 0



def test_edge_list_round_trip_torus_300():
    graph = build(GraphSpec(Family.TORUS, L=300, d=2))
    back = Graph.from_edge_list(graph.to_edge_list())
    assert back.n == graph.n == 90000
    assert np.array_equal(back.edge_array(), graph.edge_array())
    assert (back.adjacency != graph.adjacency).nnz == 0


def test_from_edge_list_skips_blank_lines_and_carriage_returns():
    back = Graph.from_edge_list("\n  # N=3\r\n0 1\r\n\r\n 1\t2 \r\n\n")
    assert back.edge_array().tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("text,match", [
    ("# N=3\n0 1 2\n1 2 0\n", "malformed edge lines: 3 fields each"),
    ("# N=3\n0 1\n\n2\n", "malformed edge line .*columns changed"),
    ("# N=3\n0 1\n1 x\n", "non-integer node.*'x'"),
    ("# N=3\n0 1\n1 2.0\n", "non-integer node.*'2.0'"),
    # a '#' line past the header is not a comment
    ("# N=3\n0 1\n#1 2\n1 2\n", "non-integer node.*'#1'"),
    ("# N=3\n0 1\n1 99999999999999999999\n", "non-integer node"),
    ("0 1\n", "header"),
    ("# N=three\n0 1\n", "invalid node count"),
])
def test_from_edge_list_rejects_bad_text(text, match):
    with pytest.raises(ConfigError, match=match):
        Graph.from_edge_list(text)

def test_from_edge_list_rejects_non_integer_nodes():
    with pytest.raises(ConfigError):
        Graph.from_edge_list("# N=3\n0 x\n")
    with pytest.raises(ConfigError):
        Graph.from_edge_list("# N=3\n0 1\n1 2.0\n")


def _brute_force_lattice_edges(L, d, periodic):
    coords = np.array(np.unravel_index(np.arange(L**d), (L,) * d)).T
    edges = []
    for u in range(L**d):
        for v in range(u + 1, L**d):
            diff = np.abs(coords[u] - coords[v])
            steps = (diff == 1) | (periodic & (diff == L - 1))
            if np.count_nonzero(diff) == 1 and steps.any():
                edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3])
def test_lattice_builder_matches_brute_force(L, d, periodic):
    graph = build(GraphSpec(Family.TORUS, L=L, d=d, periodic=periodic))
    assert np.array_equal(graph.edge_array(),
                          _brute_force_lattice_edges(L, d, periodic))


@pytest.mark.parametrize("n", [2, 3, 17])
def test_complete_builder_matches_brute_force(n):
    ref = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = build(GraphSpec(Family.COMPLETE, n=n))
    assert graph.edge_array().tolist() == [list(e) for e in ref]


def test_labels_are_stable():
    assert GraphSpec(Family.DSG, g=4).label == "dsg_g4"
    assert GraphSpec(Family.TORUS, L=8, d=2).label == "torus_d2_L8"
    assert GraphSpec(Family.CHAIN, L=8, periodic=False).label == "chain_L8_open"


# One spec per family and boundary, with the label every earlier version
# gave it: file names are built from these.
LABELLED_SPECS = [
    (GraphSpec(Family.COMPLETE, n=7), "complete_n7"),
    (GraphSpec(Family.CHAIN, L=8), "chain_L8"),
    (GraphSpec(Family.CHAIN, L=8, periodic=False), "chain_L8_open"),
    (GraphSpec(Family.TORUS, L=8, d=2), "torus_d2_L8"),
    (GraphSpec(Family.TORUS, L=8, d=2, periodic=False), "torus_d2_L8_open"),
    (GraphSpec(Family.DSG, g=4), "dsg_g4"),
    (GraphSpec(Family.TFRACTAL, g=3), "tfractal_g3"),
    (GraphSpec(Family.CAYLEY_TREE, g=5), "cayleytree_g5"),
    (GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=2), GraphSpec(Family.CHAIN, L=4, periodic=False))),
     "product__dsg_g2__chain_L4_open"),
]


def test_every_family_has_a_record_and_a_labelled_spec():
    assert set(graphs._RECORDS) == set(Family) - {Family.PRODUCT}
    assert {spec.family for spec, _ in LABELLED_SPECS} == set(Family)


@pytest.mark.parametrize("spec,label", LABELLED_SPECS,
                         ids=[label for _, label in LABELLED_SPECS])
def test_every_family_is_whole(spec, label):
    """Guards against a half-added family: node count, target, round trip
    and label agree with the built graph and the pinned names."""
    graph = build(spec)
    assert graph.n == spec.node_count
    assert 0 <= default_target(spec) < graph.n
    assert GraphSpec.from_dict(spec.to_dict()) == spec
    assert spec.label == label


def test_chain_with_d1_is_the_chain():
    spec = GraphSpec(Family.CHAIN, L=5, d=1)
    assert spec == GraphSpec(Family.CHAIN, L=5)
    assert spec.d is None
    assert GraphSpec.from_json(spec.to_json()) == spec


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("kwargs", [
    dict(family=Family.COMPLETE, n=1),
    dict(family=Family.COMPLETE),
    dict(family=Family.COMPLETE, n=4, g=2),
    dict(family=Family.DSG),
    dict(family=Family.DSG, g=0),
    dict(family=Family.DSG, g=3, L=5),
    dict(family=Family.TORUS, L=5),
    dict(family=Family.TORUS, d=2),
    dict(family=Family.TORUS, L=1, d=2),
    dict(family=Family.CHAIN, L=1),
    dict(family=Family.PRODUCT),
    dict(family=Family.DSG, g=2, factors=(GraphSpec(Family.DSG, g=1),)),
    dict(family=Family.DSG, g=True),
    dict(family=Family.CHAIN, L=4, d=True),
    dict(family=Family.TORUS, L=4, d=2, periodic="no"),
])
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        GraphSpec(**kwargs)


@pytest.mark.parametrize("make,message", [
    (lambda: GraphSpec(Family.PRODUCT, factors=(1, 2)),
     "product factors must be GraphSpec instances"),
    (lambda: GraphSpec.from_dict([1]), "graph spec must be a JSON object"),
    (lambda: GraphSpec.from_dict({"g": 3}), "graph spec needs a 'family' key"),
    (lambda: GraphSpec.from_json('{"family": "product", "factors": 3}'),
     "'factors' must be an array"),
    (lambda: GraphSpec(family="moebius"), "unknown graph family: 'moebius'"),
], ids=["product_of_ints", "not_a_dict", "no_family", "factors_not_array",
        "unknown_family"])
def test_spec_refusals_name_their_reason(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs", [
    dict(family=Family.COMPLETE, n=4),
    dict(family=Family.DSG, g=2),
    dict(family=Family.TFRACTAL, g=2),
    dict(family=Family.CAYLEY_TREE, g=2),
    dict(family=Family.PRODUCT, factors=(GraphSpec(Family.DSG, g=1),
                                         GraphSpec(Family.CHAIN, L=3))),
], ids=lambda kwargs: kwargs["family"].value)
def test_periodic_is_rejected_without_a_boundary(kwargs):
    with pytest.raises(ConfigError, match="parameter 'periodic' is not accepted"):
        GraphSpec(periodic=False, **kwargs)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ConfigError, match="self-loops"):
        Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ConfigError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])  # reversed
    with pytest.raises(ConfigError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 2), (0, 1)])  # same orientation
    with pytest.raises(ConfigError, match="out of range"):
        Graph.from_edges(3, [(0, 1), (1, 5)])
    with pytest.raises(ConfigError, match="out of range"):
        Graph.from_edges(3, [(0, 1), (-1, 2)])
    with pytest.raises(ConfigError, match=r"disconnected \(2 components\)"):
        Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ConfigError, match=r"disconnected \(3 components\)"):
        Graph.from_edges(5, [(0, 1), (3, 2)])
    with pytest.raises(ConfigError, match=r"edges must be \(u, v\) pairs"):
        Graph.from_edges(3, [(0, 1, 2)])


def test_every_graph_is_connected_however_it_is_built():
    """A triangle beside a lone vertex, built without ``from_edges``, is
    refused on construction, as is a graph of no nodes."""
    rows, cols = [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]
    adjacency = sp.csr_matrix((np.ones(6), (rows, cols)), shape=(4, 4))
    with pytest.raises(ConfigError, match=r"disconnected \(2 components\)"):
        Graph(n=4, adjacency=adjacency)
    with pytest.raises(ConfigError, match="at least one node"):
        Graph(n=0, adjacency=sp.csr_matrix((0, 0)))
    for n in (0, -1):
        with pytest.raises(ConfigError, match="at least one node"):
            Graph.from_edges(n, [])
    with pytest.raises(ConfigError, match="at least one node"):
        Graph.from_edge_list("# N=0\n")
    assert Graph(n=3, adjacency=adjacency[:3, :3].tocsr()).edge_count == 3


@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_from_edges_matches_coo_reference(n, p, seed):
    """G(n, p) edges, shuffled and each in a random orientation, against a
    plain COO-to-CSR conversion of both orientations."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < p
    edges = np.column_stack([u[keep], v[keep]])[rng.permutation(keep.sum())]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    ref = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    ncomp = csgraph.connected_components(ref, directed=False, return_labels=False)
    if ncomp > 1:
        with pytest.raises(ConfigError, match=rf"\({ncomp} components\)"):
            Graph.from_edges(n, edges)
        return
    adj = Graph.from_edges(n, edges).adjacency
    assert adj.has_sorted_indices and adj.has_canonical_format
    assert np.array_equal(adj.indptr, ref.indptr)
    assert np.array_equal(adj.indices, ref.indices)
    assert np.array_equal(adj.data, ref.data)


# ----------------------------------------------------------------- targets


def test_default_targets():
    assert default_target(GraphSpec(Family.COMPLETE, n=9)) == 0
    assert default_target(GraphSpec(Family.TORUS, L=4, d=2)) == 0
    assert default_target(GraphSpec(Family.DSG, g=3)) == 0


def _plain_bfs(graph, source):
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u]:indptr[u + 1]].tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.mark.parametrize("g", range(1, 10))
@pytest.mark.parametrize("family", [Family.TFRACTAL, Family.CAYLEY_TREE])
def test_tree_default_target_is_first_deepest_node(family, g):
    spec = GraphSpec(family, g=g)
    graph = build(spec)
    dist = _plain_bfs(graph, 0)
    assert np.array_equal(graph.bfs_distances(0), dist)
    target = default_target(spec)
    assert target == int(np.flatnonzero(dist == dist.max())[0])
    assert dist[target] == (2 ** (g - 1) if family is Family.TFRACTAL else g)
    assert graph.degrees[target] == 1


def test_product_default_target():
    spec = GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.TFRACTAL, g=2), GraphSpec(Family.TORUS, L=3, d=1)))
    inner = default_target(GraphSpec(Family.TFRACTAL, g=2))
    assert default_target(spec) == inner * 3


def near_center_target(spec: GraphSpec) -> NodeId:
    """Alternative central placement for the tree families: the
    lowest-index neighbor of the central node (tfractal) or of the root
    (cayleytree).  Used to compare against peripheral targets."""
    if spec.family in (Family.TFRACTAL, Family.CAYLEY_TREE):
        graph = build(spec)
        return int(graph.neighbors(0).min())
    raise ConfigError(
        f"{spec.family.value}: no distinct central placement is defined"
    )


def product_interior_target(spec: GraphSpec) -> NodeId:
    """Product target on a minimally connected interior site of the first
    factor (its lowest-index degree-3 node) paired with node 0 of the
    second factor.  With a dsg first factor and a d-dimensional periodic
    lattice second factor this site has degree 3 + 2d."""
    if spec.family is not Family.PRODUCT:
        raise ConfigError("interior product targets require a product spec")
    a, b = spec.factors
    graph = build(a)
    candidates = np.nonzero(graph.degrees == 3)[0]
    if candidates.size == 0:
        raise ConfigError(
            f"first factor {a.label} has no degree-3 node to place the target on"
        )
    return int(candidates[0]) * b.node_count


def test_near_center_targets():
    for family in (Family.TFRACTAL, Family.CAYLEY_TREE):
        spec = GraphSpec(family, g=3)
        target = near_center_target(spec)
        graph = build(spec)
        assert target in graph.neighbors(0)
    with pytest.raises(ConfigError):
        near_center_target(GraphSpec(Family.DSG, g=3))


def test_product_interior_target():
    spec = GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=2), GraphSpec(Family.TORUS, L=3, d=1)))
    target = product_interior_target(spec)
    a = build(GraphSpec(Family.DSG, g=2))
    assert a.degrees[target // 3] == 3
    with pytest.raises(ConfigError):
        product_interior_target(GraphSpec(Family.PRODUCT, factors=(
            GraphSpec(Family.COMPLETE, n=3), GraphSpec(Family.COMPLETE, n=3))))


# ------------------------------------------------------------ determinism


@given(spec_strategy())
def test_build_is_deterministic(spec):
    first = build(spec)
    second = build(spec)
    assert np.array_equal(first.edge_array(), second.edge_array())


def test_spectral_dimension_constants():
    assert GraphSpec(Family.CHAIN, L=8).spectral_dimension == 1
    assert GraphSpec(Family.TORUS, L=4, d=3).spectral_dimension == 3
    dsg = GraphSpec(Family.DSG, g=3).spectral_dimension
    assert math.isclose(dsg, 2 * math.log(3) / math.log(5))
    tf = GraphSpec(Family.TFRACTAL, g=3).spectral_dimension
    assert math.isclose(tf, 2 * math.log(3) / math.log(6))
    assert GraphSpec(Family.CAYLEY_TREE, g=3).spectral_dimension is None
    assert GraphSpec(Family.COMPLETE, n=5).spectral_dimension is None
    prod = GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.DSG, g=2), GraphSpec(Family.TORUS, L=4, d=2)))
    assert math.isclose(prod.spectral_dimension,
                        2 * math.log(3) / math.log(5) + 2)


def test_fractal_dimension_constant():
    val = GraphSpec(Family.DSG, g=2).fractal_dimension
    assert math.isclose(val, math.log(3) / math.log(2))
