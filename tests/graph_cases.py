"""Test graphs shared by the test modules: stars, paths, seeded G(n, p)
graphs, and the quotient measure forced on any partition."""

import numpy as np

from ctqwlab import spectra
from ctqwlab.errors import dense_guard
from ctqwlab.graphs import Graph


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gnp(seed, n, p):
    """Seeded connected graph: a random recursive tree (node i hangs from a
    uniform earlier node) plus G(n, p) edges; p = 0 leaves the tree."""
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    extra = set(zip(iu[keep].tolist(), ju[keep].tolist()))
    return Graph.from_edges(n, sorted(tree | extra))


def forced_quotient(graph, target):
    """The quotient measure of the partition found, whatever its cell
    count."""
    cells = spectra._refine(graph.adjacency, target, graph.n)
    counts = spectra._certify(graph.adjacency, cells, target)
    assert counts is not None
    with dense_guard(None):
        return spectra._quotient_measure(graph, target, cells, counts)
