"""The tree route: L's spectrum from the quotient's blocks against
eigvalsh and against the leaf-to-root eigenvalue counts of
``tree_oracles``, those counts against eigvalsh, the measure built on the
blocks against the dense measure, and the command line on trees past the
dense guard."""

import functools
import json
import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import tree_oracles
from graph_cases import path, star
from ctqwlab import spectra
from ctqwlab.cli import main
from ctqwlab.engine import critical_gamma
from ctqwlab.errors import (
    DEFAULT_DENSE_GUARD,
    ConfigError,
    DenseGuardError,
    NumericalError,
    dense_guard,
)
from ctqwlab.graphs import Family, Graph, GraphSpec, build, default_target
from ctqwlab.spectra import (
    degeneracy_groups,
    equitable_partition,
    laplacian_decomposition,
    laplacian_spectrum,
    spectral_sums,
    target_measure,
)


def run(*argv):
    return main([str(a) for a in argv])


def _prufer_tree(seed, n):
    """The labelled tree of a seeded random Prüfer sequence."""
    seq = np.random.default_rng(seed).integers(0, n, n - 2).tolist()
    degree = np.ones(n, dtype=np.int64)
    np.add.at(degree, seq, 1)
    edges = []
    for v in seq:
        leaf = int(np.flatnonzero(degree == 1)[0])
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = np.flatnonzero(degree == 1)
    edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)


def _symmetric_tree(seed):
    """A seeded random tree of depth at most 4 in which each vertex has up
    to two kinds of child subtree (the root at least one), each kind
    repeated one to three times."""
    rng = np.random.default_rng(seed)

    def shape(depth, least):
        if depth == 0:
            return []
        return [(int(rng.integers(1, 4)), shape(depth - 1, 0))
                for _ in range(int(rng.integers(least, 3)))]
    edges = []

    def grow(v, kinds):
        for copies, kind in kinds:
            for _ in range(copies):
                u = len(edges) + 1
                edges.append((v, u))
                grow(u, kind)
    grow(0, shape(4, 1))
    return Graph.from_edges(len(edges) + 1, edges)


# Every shipped tree under the default guard.
SHIPPED = [
    *(GraphSpec(Family.CAYLEY_TREE, g=g) for g in range(1, 11)),
    *(GraphSpec(Family.TFRACTAL, g=g) for g in range(1, 8)),
]
assert all(spec.node_count <= DEFAULT_DENSE_GUARD for spec in SHIPPED)
assert GraphSpec(Family.CAYLEY_TREE, g=11).node_count > DEFAULT_DENSE_GUARD
assert GraphSpec(Family.TFRACTAL, g=8).node_count > DEFAULT_DENSE_GUARD

TREES = [
    *(pytest.param(lambda s=s, n=n: _prufer_tree(s, n), id=f"prufer{n}_s{s}")
      for s, n in ((1, 12), (2, 40), (3, 97), (4, 200), (5, 333))),
    *(pytest.param(lambda s=s: _symmetric_tree(s), id=f"symmetric_s{s}")
      for s in range(1, 6)),
    pytest.param(lambda: star(9), id="star9"),
    pytest.param(lambda: path(30), id="path30"),
    *(pytest.param(lambda s=s: build(s), id=s.label) for s in SHIPPED),
]


@functools.cache
def _eigvalsh(make_graph):
    """eigvalsh(L) of one TREES case, solved once for the tests that share
    it."""
    return sla.eigvalsh(make_graph().laplacian())


def _levels(cells, counts, target):
    return tree_oracles.cell_tree(counts, np.bincount(cells),
                                  int(cells[target]))


def _partitions(graph):
    """The discrete partition (one vertex per cell) rooted at node 0, up to
    800 nodes, and the equitable partitions of the last node and of node 0
    when they exist."""
    out = [_levels(np.arange(graph.n),
                   graph.adjacency.toarray().astype(np.int64), 0)
           ] if graph.n <= 800 else []
    for target in (graph.n - 1, 0):
        partition = equitable_partition(graph, target)
        if partition is not None:
            out.append(_levels(*partition, target))
    return out


@pytest.mark.parametrize("make_graph", TREES)
def test_counts_match_eigvalsh(make_graph):
    """n(x) is the number of eigenvalues of L below x: exactly, at random x
    away from the spectrum; within the eigenvalues at x, and with no
    division by zero, at exact subtree eigenvalues and at the quotient's
    eigenvalues, where the zero-pivot rule runs."""
    graph = make_graph()
    values = _eigvalsh(make_graph)
    top = 2.0 * graph.degrees.max() + 1.0
    x = np.random.default_rng(graph.n).uniform(-0.5, top, 300)
    generic = x[np.abs(values[:, None] - x).min(axis=0) > 1e-8]
    special = [0.0, 1.0, 2.0, 3.0]
    partition = equitable_partition(graph, graph.n - 1)
    if partition is not None:
        cells, counts = partition
        sizes = np.bincount(cells)
        lq = -(sizes[:, None] * counts) / np.sqrt(np.outer(sizes, sizes))
        lq[np.diag_indices_from(lq)] += counts.sum(axis=1)
        special += sla.eigvalsh(lq).tolist()
    special = np.array(special)
    below = np.searchsorted(values, special - 1e-9)
    upto = np.searchsorted(values, special + 1e-9)
    for levels in _partitions(graph):
        assert tree_oracles.count_below(levels, generic).tolist() == \
            np.searchsorted(values, generic).tolist()
        with np.errstate(divide="raise", invalid="raise"):
            got = tree_oracles.count_below(levels, special)
        assert np.all((below <= got) & (got <= upto))
        assert got[0] == 0  # all pivots of L are exact: 1 up to a 0 root


@pytest.mark.parametrize("graph,x,count", [
    (star(9), 1.0, 1),          # 0, 1 (x7), 9: every leaf pivot is 0
    (path(30), 1.0, 10),        # 2 - 2 cos(pi j / 30) < 1 for j < 10
    (path(30), 3.0, 20),
    (build(GraphSpec(Family.CAYLEY_TREE, g=6)), 1.0, None),
    (build(GraphSpec(Family.TFRACTAL, g=4)), 1.0, None),
])
def test_zero_pivots_give_the_count_below(graph, x, count):
    """Where the elimination meets exact zero pivots, the count is the
    number of eigenvalues strictly below x: each zero child turns its
    parent's pivot to -1/2 and cuts the parent from its own parent."""
    values = sla.eigvalsh(graph.laplacian())
    want = int(np.count_nonzero(values < x - 1e-9))
    assert count is None or count == want
    assert np.count_nonzero(np.abs(values - x) < 1e-9) > 0
    for levels in _partitions(graph):
        with np.errstate(divide="raise", invalid="raise"):
            assert tree_oracles.count_below(levels, np.array([x])).tolist() == \
                [want]


def test_counts_are_batched_in_chunks(monkeypatch):
    """A chunk smaller than one batch of x values changes nothing."""
    graph = build(GraphSpec(Family.TFRACTAL, g=4))
    levels = _partitions(graph)[0]
    x = np.linspace(-0.1, 7.0, 101)
    whole = tree_oracles.count_below(levels, x)
    monkeypatch.setattr(tree_oracles, "COUNT_CHUNK", 3 * graph.n)
    assert tree_oracles.count_below(levels, x).tolist() == whole.tolist()


# -- the block spectrum ---------------------------------------------------------


def _block_spectra(graph):
    """L's spectrum from the quotient's blocks, rooted at node 0, at the
    last node and at the centre, on the coarsest equitable partition
    (not only one that halves N)."""
    for root in (0, graph.n - 1, spectra._centre(graph)):
        cells = spectra._refine(graph.adjacency, root, graph.n)
        counts = spectra._certify(graph.adjacency, cells, root)
        sizes = np.bincount(cells)
        lq = spectra._quotient_laplacian(counts, sizes)
        yield spectra._tree_spectrum(lq, sla.eigvalsh(lq), sizes,
                                     int(cells[root]))


@pytest.mark.parametrize("make_graph", TREES)
def test_block_spectra_match_eigvalsh(make_graph):
    """Within 1e-12 absolute, with the same degeneracy groups, from every
    root and through ``laplacian_spectrum``, which roots a tree at its
    centre and takes the evr route when no partition halves N."""
    graph = make_graph()
    want = _eigvalsh(make_graph)
    for got in (*_block_spectra(graph), laplacian_spectrum(graph)[0]):
        assert np.abs(got - want).max() <= 1e-12
        assert degeneracy_groups(got).tolist() == \
            degeneracy_groups(want).tolist()


def test_the_centre_is_the_middle_of_a_longest_path():
    assert spectra._centre(path(30)) in (14, 15)
    assert spectra._centre(path(31)) == 15
    assert spectra._centre(star(9)) == 0
    for spec in SHIPPED[2:]:
        assert spectra._centre(build(spec)) == 0
    assert spectra._centre(build(GraphSpec(Family.TORUS, L=6, d=2))) is None
    # Four legs of two edges from hub 8: rooted at the hub, 3 cells; from
    # node 0, a leg's end, no partition halves N.
    spider = Graph.from_edges(9, [(0, 1), (1, 8), (8, 2), (2, 3), (8, 4),
                                  (4, 5), (8, 6), (6, 7)])
    assert spectra._centre(spider) == 8
    assert laplacian_spectrum(spider)[1] == "tree cells=3"
    assert equitable_partition(spider, 0) is None


@pytest.mark.parametrize("spec", [GraphSpec(Family.CAYLEY_TREE, g=16),
                                  GraphSpec(Family.TFRACTAL, g=9)],
                         ids=lambda spec: spec.label)
def test_block_spectra_past_the_guard_match_the_counts(spec, tmp_path,
                                                       capsys):
    """``spectrum`` runs at the default guard where eigvalsh cannot, and
    the eigenvalues it writes give the oracle's count below each of 200
    seeded x."""
    assert spec.node_count > DEFAULT_DENSE_GUARD
    assert run("spectrum", "--family", spec.family.value, "--g", spec.g,
               "--out", tmp_path) == 0
    capsys.readouterr()
    rows = (tmp_path / f"spectrum_{spec.label}.csv").read_text() \
        .splitlines()[1:]
    values = np.array([float(row.split(",")[1]) for row in rows])
    assert values.size == spec.node_count
    graph = build(spec)
    centre = spectra._centre(graph)
    levels = _levels(*equitable_partition(graph, centre), centre)
    x = np.random.default_rng(spec.node_count).uniform(
        -0.5, 2.0 * graph.degrees.max() + 1.0, 200)
    below = np.searchsorted(values, x)
    assert tree_oracles.count_below(levels, x).tolist() == below.tolist()


def test_only_trees_count():
    """A graph with a cycle takes the eigvalsh route; a tree takes the
    quotient's blocks."""
    for graph, tree in ((build(GraphSpec(Family.TORUS, L=6, d=2)), False),
                        (build(GraphSpec(Family.COMPLETE, n=12)), False),
                        (build(GraphSpec(Family.CAYLEY_TREE, g=4)), True),
                        (star(12), True)):
        assert target_measure(graph, 0).route.startswith("tree") == tree


@pytest.mark.parametrize("spec,tree", [
    (GraphSpec(Family.CAYLEY_TREE, g=5), True),
    (GraphSpec(Family.TFRACTAL, g=4), True),
    (GraphSpec(Family.CHAIN, L=30, periodic=False), True),
    (GraphSpec(Family.COMPLETE, n=2), True),
    (GraphSpec(Family.DSG, g=3), False),
    (GraphSpec(Family.TORUS, L=5, d=2), False),
    (GraphSpec(Family.CHAIN, L=30), False),
    (GraphSpec(Family.COMPLETE, n=3), False),
    (GraphSpec(Family.COMPLETE, n=9), False),
    (GraphSpec(Family.PRODUCT, factors=(
        GraphSpec(Family.CHAIN, L=3, periodic=False),
        GraphSpec(Family.CAYLEY_TREE, g=2))), False),
], ids=lambda v: v.label if isinstance(v, GraphSpec) else str(v))
def test_the_tree_predicate_on_every_shipped_family(spec, tree):
    """A tree is a Graph with N - 1 edges."""
    graph = build(spec)
    assert spectra._is_tree(graph) == tree
    assert (spectra._centre(graph) is not None) == tree


def test_each_route_is_named():
    """``SpectralSums.route`` and ``laplacian_spectrum``'s second value on
    one graph of each route."""
    dsg = build(GraphSpec(Family.DSG, g=3))
    torus = build(GraphSpec(Family.TORUS, L=6, d=2))
    cayley = build(GraphSpec(Family.CAYLEY_TREE, g=3))
    chain = build(GraphSpec(Family.CHAIN, L=40, periodic=False))
    cells = np.bincount(equitable_partition(torus, 0)[0]).size
    leaf = cayley.n - 1
    tree_cells = np.bincount(equitable_partition(cayley, leaf)[0]).size
    assert target_measure(dsg, 0).route == "dense"
    assert target_measure(torus, 0).route == f"quotient cells={cells}"
    assert target_measure(cayley, leaf).route == f"tree cells={tree_cells}"
    assert laplacian_spectrum(dsg)[1] == "dense"
    assert laplacian_spectrum(torus)[1] == "product"
    assert laplacian_spectrum(cayley)[1] == "tree cells=4"
    # The even path's centre sees 21 cells, more than N/2.
    values, route = laplacian_spectrum(chain)
    assert route == "dense"
    assert np.abs(values - sla.eigvalsh(chain.laplacian())).max() <= 1e-12


def test_each_measure_records_its_route_and_dense_order():
    """The order of the route's largest dense solve: N on the dense and
    quotient routes, the cells on the tree route.  A cached measure is
    refused at a guard one below it and served at the guard equal to it."""
    dsg = build(GraphSpec(Family.DSG, g=3))
    torus = build(GraphSpec(Family.TORUS, L=6, d=2))
    cayley = build(GraphSpec(Family.CAYLEY_TREE, g=3))
    leaf = cayley.n - 1
    cells = np.bincount(equitable_partition(torus, 0)[0]).size
    tree_cells = np.bincount(equitable_partition(cayley, leaf)[0]).size
    assert tree_cells < cayley.n
    for graph, target, route, order in (
            (dsg, 0, "dense", 27),
            (torus, 0, f"quotient cells={cells}", 36),
            (cayley, leaf, f"tree cells={tree_cells}", tree_cells)):
        sums = target_measure(graph, target)
        assert (sums.route, sums.dense_order) == (route, order)
        with pytest.raises(DenseGuardError, match=f"problem size {order} "), \
                dense_guard(order - 1):
            target_measure(graph, target)
        with dense_guard(order):
            assert target_measure(graph, target) is sums
    sums = spectral_sums(laplacian_decomposition(torus), 0)
    assert (sums.route, sums.dense_order) == ("dense", 36)


def test_the_critical_coupling_holds_plain_floats():
    """Cayley tree g16: eps lam_max / lam_1 = 1.7e-10 is the confirmation
    offset, above 1e-10, and every value of the result is a float, not a
    numpy scalar."""
    spec = GraphSpec(Family.CAYLEY_TREE, g=16)
    res = critical_gamma(build(spec), default_target(spec))
    assert res.bracket[1] / res.gamma - 1.0 > 1.5e-10
    values = (res.gamma, *res.bracket, res.residual, res.xi1)
    assert [type(v) for v in values] == [float] * 5
    assert "np.float64" not in repr(res)


def test_a_disconnected_graph_with_n_minus_1_edges_is_refused():
    """A 20-cycle beside a 6-node star, built by hand: 26 nodes, 25 edges.
    Every ``Graph`` is connected, so it is refused on construction."""
    edges = np.array([(i, (i + 1) % 20) for i in range(20)]
                     + [(20, 21 + k) for k in range(5)])
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adjacency = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                              shape=(26, 26))
    adjacency.sort_indices()
    with pytest.raises(ConfigError, match=r"disconnected \(2 components\)"):
        Graph(n=26, adjacency=adjacency)


# -- the measure --------------------------------------------------------------


def _targets(spec, every):
    n = spec.node_count
    if every:
        return range(n)
    return (default_target(spec), 0, n // 3)


@pytest.mark.parametrize("spec,every", [
    *((GraphSpec(Family.CAYLEY_TREE, g=g), True) for g in (2, 3, 4, 5)),
    *((GraphSpec(Family.TFRACTAL, g=g), True) for g in (2, 3, 4)),
    *((GraphSpec(Family.CAYLEY_TREE, g=g), False) for g in (6, 7, 8, 9)),
    *((GraphSpec(Family.TFRACTAL, g=g), False) for g in (5, 6)),
], ids=lambda v: v.label if isinstance(v, GraphSpec) else str(v))
def test_tree_measure_matches_the_dense_measure(spec, every):
    """Multiplicities exactly, group eigenvalues and weights within 1e-12,
    xi1, xi2 and max_amp_sq within 1e-10 relative: on every target that
    the quotient halves N for, or on the leaf, the centre and node N/3."""
    graph = build(spec)
    dec = laplacian_decomposition(graph)
    for target in _targets(spec, every):
        partition = spectra._root_quotient(graph, target)
        if partition is None:
            assert every
            continue
        with dense_guard(None):
            got = spectra._quotient_measure(graph, *partition)
        want = spectral_sums(dec, target)
        assert got.route == f"tree cells={partition[1].shape[0]}"
        assert got.multiplicities.tolist() == want.multiplicities.tolist()
        # A tree is bipartite, so L is similar to D + A, whose largest
        # eigenvalue is simple with a positive eigenvector: every target
        # sees it.
        assert got.quotient.modes[-1] > 0
        assert got.quotient.modes.sum() == partition[1].shape[0]
        assert np.abs(got.group_eigenvalues
                      - want.group_eigenvalues).max() <= 1e-12
        assert np.abs(got.group_amp_sq - want.group_amp_sq).max() <= 1e-12
        for field in ("xi1", "xi2", "max_amp_sq"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=1e-10), (target, field)


def test_gaps_between_groups_are_located():
    """The Cayley tree's root sees only its 9 shells; the other 35
    distinct eigenvalues of L, in the gaps between the quotient's groups,
    come from the blocks.  The leaf sees every distinct eigenvalue."""
    graph = build(GraphSpec(Family.CAYLEY_TREE, g=8))
    root, leaf = target_measure(graph, 0), target_measure(graph, graph.n - 1)
    assert root.quotient.sizes.size == 9
    assert np.count_nonzero(root.quotient.modes == 0) == 35
    assert root.multiplicities.tolist() == leaf.multiplicities.tolist()
    assert np.count_nonzero(leaf.quotient.modes == 0) == 0
    assert root.multiplicities.sum() == graph.n


def _patch_a_block(monkeypatch, change):
    """Pass the first block that ``_tree_spectrum`` solves through
    ``change``."""
    real = sla.eigvalsh
    calls = []

    def eigvalsh(block, **kwargs):
        values = real(block, **kwargs)
        calls.append(block.shape[0])
        return change(values) if len(calls) == 1 else values
    monkeypatch.setattr(sla, "eigvalsh", eigvalsh)
    return calls


def test_counts_that_do_not_add_up_raise(monkeypatch):
    """A block that loses an eigenvalue leaves fewer than N."""
    calls = _patch_a_block(monkeypatch, lambda values: values[1:])
    with pytest.raises(NumericalError, match="do not add up to N = 46 "):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)
    assert calls[0] > 1


def test_a_block_that_gains_an_eigenvalue_raises(monkeypatch):
    calls = _patch_a_block(monkeypatch,
                           lambda values: np.r_[values, values[-1]])
    with pytest.raises(NumericalError, match="do not add up to N = 46 "):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)
    assert calls[0] > 1


def test_an_eigenvalue_above_the_quotients_largest_raises(monkeypatch):
    """A block's eigenvalues interlace the quotient's, so none may exceed
    its largest: one moved up to the Gershgorin bound 7 raises, though the
    count is N."""
    calls = _patch_a_block(monkeypatch, lambda values: np.r_[values[:-1], 7.0])
    with pytest.raises(NumericalError, match="do not add up"):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)
    assert calls[0] > 1


def test_a_block_with_a_zero_eigenvalue_raises(monkeypatch):
    """A block of a connected tree is positive definite: an eigenvalue
    moved to 0 would make the zero mode degenerate."""
    calls = _patch_a_block(monkeypatch, lambda values: np.r_[0.0, values[1:]])
    with pytest.raises(NumericalError, match="simple zero mode"):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)
    assert calls[0] > 1


# -- the command line ---------------------------------------------------------


def _spy_on_dense_l(monkeypatch, calls):
    """Record each dense L formed and each ``eigvalsh(L)`` in ``calls``."""
    real_laplacian = Graph.laplacian
    real_spectrum = spectra.laplacian_spectrum

    def laplacian(self):
        calls.append("laplacian")
        return real_laplacian(self)

    def spectrum(graph, **kwargs):
        calls.append("laplacian_spectrum")
        return real_spectrum(graph, **kwargs)
    monkeypatch.setattr(Graph, "laplacian", laplacian)
    monkeypatch.setattr(spectra, "laplacian_spectrum", spectrum)


@pytest.mark.parametrize("family,g,fit", [
    ("cayleytree", 5, "3..5"),
    ("tfractal", 4, "3..5"),
])
def test_the_tree_route_forms_no_dense_l(family, g, fit, tmp_path, capsys,
                                         monkeypatch):
    calls = []
    _spy_on_dense_l(monkeypatch, calls)
    spec = ("--family", family, "--g", g, "--out", tmp_path)
    assert run("critgamma", *spec) == 0
    assert run("fit", "--family", family, "--g", fit, "--out", tmp_path) == 0
    assert run("overlaps", *spec) == 0
    assert run("success", *spec) == 0
    # cayleytree g5 misses its s_psi1_sq floor: the audit runs to the end.
    assert run("verify", *spec) == (3 if family == "cayleytree" else 0)
    assert (tmp_path / f"bounds_{family}_g{g}.json").exists()
    capsys.readouterr()
    assert calls == []


def test_other_graphs_still_form_l(tmp_path, capsys, monkeypatch):
    calls = []
    _spy_on_dense_l(monkeypatch, calls)
    assert run("critgamma", "--family", "dsg", "--g", 3,
               "--out", tmp_path) == 0
    assert calls and set(calls) == {"laplacian"}
    del calls[:]
    assert run("critgamma", "--family", "torus", "--d", 2, "--sizes", 6,
               "--out", tmp_path) == 0
    assert "laplacian_spectrum" in calls
    capsys.readouterr()


def test_the_guard_reads_the_cells_on_a_tree(tmp_path, capsys):
    """cayleytree g9: N = 1534 nodes in 55 cells."""
    argv = ("critgamma", "--family", "cayleytree", "--g", 9,
            "--out", tmp_path)
    assert run(*argv, "--dense-guard", 40) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DenseGuardError"
    assert "problem size 55 " in err["message"]
    assert run(*argv, "--dense-guard", 60) == 0
    assert "route=tree cells=55\n" in capsys.readouterr().out
    graph = build(GraphSpec(Family.CAYLEY_TREE, g=9))
    with pytest.raises(DenseGuardError, match="problem size 55 "), \
            dense_guard(40):
        target_measure(graph, graph.n - 1)
    with dense_guard(60):
        target_measure(graph, graph.n - 1)
    with pytest.raises(DenseGuardError), dense_guard(40):  # cached, again
        target_measure(graph, graph.n - 1)


@pytest.mark.parametrize("guard,size", [(16, 244), (20, 35), (40, None)])
def test_spectrum_reads_the_cells_on_a_tree(guard, size, tmp_path, capsys):
    """tfractal g5: N = 244 nodes, 16 steps from the centre to a leaf, 35
    cells around the centre.  A guard of at most 16 refuses on N before
    refining, one below 35 on the cells."""
    code = run("spectrum", "--family", "tfractal", "--g", 5,
               "--dense-guard", guard, "--out", tmp_path)
    out, err = capsys.readouterr()
    if size is None:
        assert code == 0
        assert out.endswith("route=tree cells=35\n")
    else:
        assert code == 4
        assert f"problem size {size} " in json.loads(err)["message"]


def _spy_on_cell_arrays(monkeypatch) -> list[str]:
    """Record each call of the two functions that form (m, m) arrays of a
    partition's m cells: the counts and the quotient Laplacian."""
    calls = []
    for name in ("_certify", "_quotient_laplacian"):
        def spy(*args, _name=name, _real=getattr(spectra, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(spectra, name, spy)
    return calls


def test_the_partition_guard_refuses_before_any_cell_array(
        tmp_path, capsys, monkeypatch):
    """cayleytree g12 from its default target, a leaf: N = 12,286 nodes,
    24 steps to the farthest leaf, 91 cells.  At guard 50 the depth test
    lets it through, and the cell count refuses it before any (91, 91)
    array is formed."""
    calls = _spy_on_cell_arrays(monkeypatch)
    spec = GraphSpec(Family.CAYLEY_TREE, g=12)
    graph = build(spec)
    with pytest.raises(DenseGuardError, match="problem size 91 "), \
            dense_guard(50):
        target_measure(graph, default_target(spec))
    assert run("critgamma", "--family", "cayleytree", "--g", 12,
               "--dense-guard", 50, "--out", tmp_path) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert "problem size 91 " in json.loads(lines[0])["message"]
    assert calls == []


def test_spectrum_refuses_the_cells_before_any_cell_array(
        tmp_path, capsys, monkeypatch):
    """tfractal g5 around its centre: 16 steps deep, so guard 20 passes
    the depth test, and 35 cells, refused before any (35, 35) array."""
    calls = _spy_on_cell_arrays(monkeypatch)
    graph = build(GraphSpec(Family.TFRACTAL, g=5))
    with pytest.raises(DenseGuardError, match="problem size 35 "), \
            dense_guard(20):
        laplacian_spectrum(graph)
    assert run("spectrum", "--family", "tfractal", "--g", 5,
               "--dense-guard", 20, "--out", tmp_path) == 4
    assert "problem size 35 " in json.loads(capsys.readouterr().err)["message"]
    assert calls == []
    laplacian_spectrum(graph)
    assert calls == ["_certify", "_quotient_laplacian"]


@pytest.mark.parametrize("command,size", [
    ("critgamma", "--sizes"), ("overlaps", "--L"), ("success", "--L"),
    ("spectrum", "--L")])
def test_a_deep_tree_past_the_guard_is_refused_before_refining(
        command, size, tmp_path, capsys, monkeypatch):
    """The open chain's end is 199,999 steps from its far end, and its
    centre 100,000 steps from either end, so its partition has more cells
    than the guard: exit 4 on N, well under a second, and the colour
    refinement never runs."""
    def refine(*args):
        raise AssertionError("the colour refinement ran")
    monkeypatch.setattr(spectra, "_refine", refine)
    start = time.perf_counter()
    assert run(command, "--family", "chain", "--open", size, 200000,
               "--out", tmp_path) == 4
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DenseGuardError"
    assert "problem size 200000 " in err["message"]


def test_cayley_trees_past_the_guard(tmp_path, capsys):
    """g10..14 run at the default guard (g11 has N = 6142), with the
    linear-in-g law; g10 agrees with the dense route's coupling."""
    assert run("critgamma", "--family", "cayleytree", "--g", "10..14",
               "--out", tmp_path) == 0
    assert "cayleytree_g14: N=49150 " in capsys.readouterr().out
    rows = [line.split(",") for line in
            (tmp_path / "critgamma_cayleytree.csv").read_text()
            .splitlines()[1:]]
    gamma = np.array([float(row[2]) for row in rows])
    assert gamma[0] == pytest.approx(8.871182660474366, rel=1e-10)
    assert np.abs(np.diff(gamma) - 1.0).max() < 1e-3


def test_tfractal_g8_confirms_its_critical_coupling(tmp_path, capsys):
    """The measure's groups (1e-10 x range) keep apart L's eigenvalues at
    4.801566e-5 and 4.805784e-5, as the quotient H does, so both quotient
    confirmations bracket the measure's root: exit 0 on the tree route,
    gamma_crit = 85.32329511."""
    assert run("critgamma", "--family", "tfractal", "--g", 8,
               "--out", tmp_path) == 0
    assert "route=tree cells=1598" in capsys.readouterr().out
    row = (tmp_path / "critgamma_tfractal.csv").read_text() \
        .splitlines()[1].split(",")
    assert row[:2] == ["tfractal_g8", "6562"]
    assert float(row[2]) == pytest.approx(85.32329511, rel=1e-8)
    assert row[5] == "2"
