"""The tree route: L's eigenvalue counts from leaf-to-root elimination
against eigvalsh, the measure built on them against the dense measure,
and the command line on trees past the dense guard."""

import json

import numpy as np
import pytest
import scipy.linalg as sla

from ctqwlab import spectra
from ctqwlab.cli import main
from ctqwlab.errors import DEFAULT_DENSE_GUARD, DenseGuardError, NumericalError
from ctqwlab.graphs import Family, Graph, GraphSpec, build, default_target
from ctqwlab.spectra import (
    equitable_partition,
    laplacian_decomposition,
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


def _star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


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
    pytest.param(lambda: _star(9), id="star9"),
    pytest.param(lambda: _path(30), id="path30"),
    *(pytest.param(lambda s=s: build(s), id=s.label) for s in SHIPPED),
]


def _levels(cells, counts, target):
    return spectra._cell_tree(counts, np.bincount(cells), int(cells[target]))


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
    values = sla.eigvalsh(graph.laplacian())
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
        assert spectra._count_below(levels, generic).tolist() == \
            np.searchsorted(values, generic).tolist()
        with np.errstate(divide="raise", invalid="raise"):
            got = spectra._count_below(levels, special)
        assert np.all((below <= got) & (got <= upto))
        assert got[0] == 0  # all pivots of L are exact: 1 up to a 0 root


@pytest.mark.parametrize("graph,x,count", [
    (_star(9), 1.0, 1),         # 0, 1 (x7), 9: every leaf pivot is 0
    (_path(30), 1.0, 10),       # 2 - 2 cos(pi j / 30) < 1 for j < 10
    (_path(30), 3.0, 20),
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
            assert spectra._count_below(levels, np.array([x])).tolist() == \
                [want]


def test_counts_are_batched_in_chunks(monkeypatch):
    """A chunk smaller than one batch of x values changes nothing."""
    graph = build(GraphSpec(Family.TFRACTAL, g=4))
    levels = _partitions(graph)[0]
    x = np.linspace(-0.1, 7.0, 101)
    whole = spectra._count_below(levels, x)
    monkeypatch.setattr(spectra, "_COUNT_CHUNK", 3 * graph.n)
    assert spectra._count_below(levels, x).tolist() == whole.tolist()


def test_only_trees_count():
    """A graph with a cycle takes the eigvalsh route; a tree counts."""
    for graph, tree in ((build(GraphSpec(Family.TORUS, L=6, d=2)), False),
                        (build(GraphSpec(Family.COMPLETE, n=12)), False),
                        (build(GraphSpec(Family.CAYLEY_TREE, g=4)), True),
                        (_star(12), True)):
        assert target_measure(graph, 0).quotient.tree == tree


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
        partition = equitable_partition(graph, target)
        if partition is None:
            assert every
            continue
        got = spectra._quotient_measure(graph, target, *partition, None)
        want = spectral_sums(dec, target)
        assert got.quotient.tree
        assert got.multiplicities.tolist() == want.multiplicities.tolist()
        # Every target sees L's largest eigenvalue, so the quotient's range,
        # which sets the grouping tolerance, is L's.
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
    distinct eigenvalues of L lie in the gaps between the quotient's
    groups.  The leaf sees every distinct eigenvalue."""
    graph = build(GraphSpec(Family.CAYLEY_TREE, g=8))
    root, leaf = target_measure(graph, 0), target_measure(graph, graph.n - 1)
    assert root.quotient.sizes.size == 9
    assert np.count_nonzero(root.quotient.modes == 0) == 35
    assert root.multiplicities.tolist() == leaf.multiplicities.tolist()
    assert np.count_nonzero(leaf.quotient.modes == 0) == 0
    assert root.multiplicities.sum() == graph.n


def test_counts_that_do_not_add_up_raise(monkeypatch):
    real = spectra._count_below

    def lose_one(levels, x):
        counts = real(levels, x)
        counts[-1] -= 1
        return counts
    monkeypatch.setattr(spectra, "_count_below", lose_one)
    with pytest.raises(NumericalError, match="do not add up"):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)


def test_an_eigenvalue_above_the_quotients_largest_raises(monkeypatch):
    """Every target of a tree sees L's largest eigenvalue.  Counts that
    move one eigenvalue of a hidden level of the Cayley root up to the
    Gershgorin bound 7 leave every group of Lq its count, yet do not add
    up below the quotient's largest."""
    sums = target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)
    g = int(np.flatnonzero((sums.quotient.modes == 0)
                           & (sums.multiplicities > 1))[0])
    past = int(sums.multiplicities[:g + 1].sum())
    real = spectra._count_below

    def moved(levels, x):
        counts = real(levels, x)
        return counts - ((counts >= past) & (x < 7.0))
    monkeypatch.setattr(spectra, "_count_below", moved)
    with pytest.raises(NumericalError, match="do not add up"):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 0)


def test_a_quotient_eigenvalue_absent_from_the_counts_raises(monkeypatch):
    real = spectra._count_below
    monkeypatch.setattr(spectra, "_count_below",
                        lambda levels, x: real(levels, x + 0.5))
    with pytest.raises(NumericalError,
                       match="from every eigenvalue of L"):
        target_measure(build(GraphSpec(Family.CAYLEY_TREE, g=4)), 45)


def test_more_quotient_eigenvalues_than_counted_raise(monkeypatch):
    """Leave a group that holds two eigenvalues of Lq only one of L."""
    spec = GraphSpec(Family.CAYLEY_TREE, g=5)
    sums = target_measure(build(spec), default_target(spec))
    g = int(np.argmax(sums.quotient.modes))
    assert sums.quotient.modes[g] == 2
    assert sums.multiplicities.size == sums.quotient.sizes.size - 1
    real = spectra._count_below

    def thinned(levels, x):
        counts = real(levels, x)
        counts[2 * g + 1:] -= sums.multiplicities[g] - 1
        return counts
    monkeypatch.setattr(spectra, "_count_below", thinned)
    with pytest.raises(NumericalError, match="more eigenvalues in a group"):
        target_measure(build(spec), default_target(spec))


# -- the command line ---------------------------------------------------------


def _spy_on_dense_l(monkeypatch, calls):
    """Record each dense L formed and each ``eigvalsh(L)`` in ``calls``."""
    real_laplacian = Graph.laplacian
    real_values = spectra.laplacian_eigenvalues

    def laplacian(self):
        calls.append("laplacian")
        return real_laplacian(self)

    def values(graph, **kwargs):
        calls.append("laplacian_eigenvalues")
        return real_values(graph, **kwargs)
    monkeypatch.setattr(Graph, "laplacian", laplacian)
    monkeypatch.setattr(spectra, "laplacian_eigenvalues", values)


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
    assert "laplacian_eigenvalues" in calls
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
    with pytest.raises(DenseGuardError, match="problem size 55 "):
        target_measure(graph, graph.n - 1, dense_guard=40)
    target_measure(graph, graph.n - 1, dense_guard=60)
    with pytest.raises(DenseGuardError):  # cached, checked again
        target_measure(graph, graph.n - 1, dense_guard=40)


@pytest.mark.parametrize("command,size", [
    ("critgamma", "--sizes"), ("overlaps", "--L"), ("success", "--L")])
def test_a_deep_tree_past_the_guard_is_refused_before_refining(
        command, size, tmp_path, capsys, monkeypatch):
    """The open chain's end is 199,999 steps from its far end, so its
    partition has more cells than the guard: exit 4 on N, and the
    colour refinement never runs."""
    def refine(*args):
        raise AssertionError("the colour refinement ran")
    monkeypatch.setattr(spectra, "_refine", refine)
    assert run(command, "--family", "chain", "--open", size, 200000,
               "--out", tmp_path) == 4
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


def test_tfractal_g8_fails_its_confirmation_cleanly(tmp_path, capsys):
    """The quotient confirmations around the measure's root give the same
    sign at both ends (a known defect): exit 3, one JSON line, no
    traceback."""
    assert run("critgamma", "--family", "tfractal", "--g", 8,
               "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "NumericalError"
    assert "quotient route gives" in payload["message"]
