"""The equitable quotient route: the target's measure and the critical
coupling's confirmations from the quotient Laplacian, each checked against
the dense route, and the integer certificate that guards it."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from ctqwlab import engine, spectra
from ctqwlab.engine import (
    SearchProblem,
    _independent_overlaps,
    critical_gamma,
    measure_overlaps,
    overlaps,
    verify_bounds,
)
from ctqwlab.errors import (
    ConfigError,
    NoTransitionError,
    NumericalError,
)
from ctqwlab.graphs import (
    Family,
    GraphSpec,
    build,
    cartesian_product,
    default_target,
)
from ctqwlab.spectra import (
    equitable_partition,
    laplacian_decomposition,
    spectral_sums,
    target_measure,
)
from graph_cases import forced_quotient, gnp, star


def _case(family, target=None, **kw):
    spec = GraphSpec(family=family, **kw)
    w = default_target(spec) if target is None else target
    return pytest.param(lambda: build(spec), w, id=f"{spec.label}_w{w}")


def _product():
    return cartesian_product(build(GraphSpec(Family.COMPLETE, n=4)),
                             build(GraphSpec(Family.CHAIN, L=7)))


QUOTIENT_CASES = [
    *(_case(Family.CAYLEY_TREE, g=g) for g in (3, 4, 5, 6)),     # leaf
    *(_case(Family.CAYLEY_TREE, 0, g=g) for g in (3, 4, 5, 6)),  # root
    *(_case(Family.TFRACTAL, g=g) for g in (3, 4, 5)),
    _case(Family.TORUS, L=6, d=2),
    _case(Family.TORUS, L=5, d=3),
    _case(Family.COMPLETE, n=12),
    _case(Family.COMPLETE, n=64),
    pytest.param(lambda: star(12), 0, id="star12_hub"),
    pytest.param(lambda: star(12), 5, id="star12_leaf"),
    pytest.param(_product, 0, id="K4xC7"),
    # N/2 + 1 cells: target_measure keeps the dense route, the quotient
    # is still exact.
    _case(Family.CHAIN, 0, L=30),
]


@pytest.mark.parametrize("make_graph,target", QUOTIENT_CASES)
def test_quotient_measure_matches_the_dense_measure(make_graph, target):
    graph = make_graph()
    got = forced_quotient(graph, target)
    want = spectral_sums(laplacian_decomposition(graph), target)
    assert got.multiplicities.tolist() == want.multiplicities.tolist()
    assert np.abs(got.group_eigenvalues - want.group_eigenvalues).max() \
        <= 1e-12
    assert np.abs(got.group_amp_sq - want.group_amp_sq).max() <= 1e-12
    for field in ("xi1", "xi2", "max_amp_sq"):
        assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                    rel=1e-10), field
    for j in (1, 2):  # sums of 1 / lam^j over the nonzero eigenvalues
        got_sum, want_sum = (np.sum(m.multiplicities[1:]
                                    / m.group_eigenvalues[1:] ** j)
                             for m in (got, want))
        assert got_sum == pytest.approx(want_sum, rel=1e-10), j
    # target_measure takes the quotient exactly when it halves N.
    cells = got.quotient.sizes.size
    measure = target_measure(graph, target)
    assert (measure.quotient is not None) == (2 * cells <= graph.n)
    if measure.quotient is not None:
        assert measure.xi1 == got.xi1


@pytest.mark.parametrize("make_graph,target", QUOTIENT_CASES[:-1])
def test_partition_is_equitable_with_the_target_alone(make_graph, target):
    """A plain per-vertex count of neighbours in each cell, against the
    certified counts."""
    graph = make_graph()
    cells, counts = equitable_partition(graph, target)
    assert np.count_nonzero(cells == cells[target]) == 1
    a = graph.adjacency
    for v in range(graph.n):
        row = np.bincount(cells[a.indices[a.indptr[v]:a.indptr[v + 1]]],
                          minlength=counts.shape[0])
        assert row.tolist() == counts[cells[v]].tolist()


def test_cell_counts_of_the_benchmark_families():
    """The cell counts that set the quotient's cost."""
    for spec, cells in ((GraphSpec(Family.CAYLEY_TREE, g=9), 55),
                        (GraphSpec(Family.TORUS, L=32, d=2), 153),
                        (GraphSpec(Family.CAYLEY_TREE, g=5), 21),
                        (GraphSpec(Family.COMPLETE, n=64), 2)):
        got = equitable_partition(build(spec), default_target(spec))
        assert got[1].shape[0] == cells, spec.label


@pytest.mark.parametrize("make_graph,target", [
    *(_case(Family.DSG, w, g=g) for g in (2, 3, 4, 5) for w in (0, None)),
    _case(Family.DSG, 4, g=3),
    pytest.param(lambda: gnp(5, 40, 0.1), 13, id="gnp_40_seed5"),
    pytest.param(lambda: gnp(6, 80, 0.05), 26, id="gnp_80_seed6"),
    pytest.param(lambda: gnp(7, 200, 0.02), 0, id="gnp_200_seed7"),
    _case(Family.CHAIN, 0, L=40),
    _case(Family.CHAIN, 0, L=40, periodic=False),
])
def test_graphs_the_quotient_does_not_halve_take_the_dense_route(
        make_graph, target):
    graph = make_graph()
    assert equitable_partition(graph, target) is None
    measure = target_measure(graph, target)
    assert measure.quotient is None
    assert measure.xi1 == spectral_sums(laplacian_decomposition(graph),
                                        target).xi1


@pytest.mark.parametrize("target", [-1, 22])
def test_partition_refuses_a_target_out_of_range(target):
    graph = build(GraphSpec(Family.CAYLEY_TREE, g=3))
    with pytest.raises(ConfigError, match="out of range"):
        equitable_partition(graph, target)
    with pytest.raises(ConfigError, match="out of range"):
        target_measure(graph, target)


# -- the certificate ------------------------------------------------------------


def _assert_dense_route(graph, target):
    measure = target_measure(graph, target)
    want = spectral_sums(laplacian_decomposition(graph), target)
    assert measure.quotient is None
    assert (measure.xi1, measure.xi2) == (want.xi1, want.xi2)
    assert measure.group_amp_sq.tolist() == want.group_amp_sq.tolist()


def test_a_non_equitable_partition_falls_back(monkeypatch):
    """Cells by degree, target alone: the target's neighbour is the only
    degree-3 vertex with a neighbour in the target's cell."""
    graph = build(GraphSpec(Family.CAYLEY_TREE, g=4))
    target = graph.n - 1

    def by_degree(adjacency, w, limit):
        cells = (np.diff(adjacency.indptr) == 3).astype(np.int64)
        cells[w] = 2
        return cells
    monkeypatch.setattr(spectra, "_refine", by_degree)
    assert equitable_partition(graph, target) is None
    _assert_dense_route(graph, target)


def test_a_partition_merging_the_target_cell_falls_back(monkeypatch):
    """One cell is equitable on a complete graph, but the target is not
    alone in it."""
    graph = build(GraphSpec(Family.COMPLETE, n=12))
    monkeypatch.setattr(spectra, "_refine", lambda adjacency, w, limit:
                        np.zeros(adjacency.shape[0], dtype=np.int64))
    assert equitable_partition(graph, 0) is None
    _assert_dense_route(graph, 0)


def test_a_hash_collision_fails_the_integer_check(monkeypatch):
    """Equal hash words collide on every colour: the refinement stops at
    cells by degree, and the certificate refuses them."""
    graph = build(GraphSpec(Family.CAYLEY_TREE, g=5))
    target = graph.n - 1
    monkeypatch.setattr(spectra, "_hash_words",
                        lambda n: np.ones(n, dtype=np.uint64))
    cells = spectra._refine(graph.adjacency, target, graph.n // 2)
    assert cells.max() + 1 == 3
    assert spectra._certify(graph.adjacency, cells, target) is None
    assert equitable_partition(graph, target) is None
    _assert_dense_route(graph, target)


def test_a_quotient_eigenvalue_absent_from_l_raises(monkeypatch):
    graph = build(GraphSpec(Family.COMPLETE, n=12))
    real = spectra.laplacian_spectrum

    def shifted(g, **kwargs):
        values, route = real(g, **kwargs)
        values[1:] += 0.5
        return values, route
    monkeypatch.setattr(spectra, "laplacian_spectrum", shifted)
    with pytest.raises(NumericalError, match="from every eigenvalue of L"):
        target_measure(graph, 0)


def test_more_quotient_eigenvalues_than_l_has_in_a_group_raise(monkeypatch):
    """Lq of the 6 x 6 torus has eigenvalue 4 twice, L ten times; leave L
    only one."""
    graph = build(GraphSpec(Family.TORUS, L=6, d=2))
    assert target_measure(graph, 0).quotient.modes.tolist() == \
        [1, 1, 1, 1, 2, 1, 1, 1, 1]
    real = spectra.laplacian_spectrum

    def thinned(g, **kwargs):
        values, route = real(g, **kwargs)
        values[np.flatnonzero(np.abs(values - 4.0) < 1e-9)[1:]] = 4.5
        return np.sort(values), route
    monkeypatch.setattr(spectra, "laplacian_spectrum", thinned)
    with pytest.raises(NumericalError, match="more eigenvalues in a group"):
        target_measure(build(GraphSpec(Family.TORUS, L=6, d=2)), 0)


# -- the confirmations ------------------------------------------------------------


@pytest.mark.parametrize("make_graph,target", QUOTIENT_CASES)
def test_quotient_record_matches_dense_overlaps(make_graph, target):
    """The quotient H's levels, with L's hidden levels merged into E1's
    group, against the dense window solve at 25 couplings."""
    graph = make_graph()
    sums = forced_quotient(graph, target)
    multiplicities = set()
    for gamma in np.geomspace(1e-3, 1e3, 25) * sums.xi1:
        problem = SearchProblem(graph, target, float(gamma))
        got, want = _independent_overlaps(problem, sums), overlaps(problem)
        assert (got.gamma, got.degenerate_e1, got.e1_multiplicity) == \
            (want.gamma, want.degenerate_e1, want.e1_multiplicity)
        for field in ("e0", "e1", "s_psi0_sq", "s_psi1_sq", "w_psi0_sq",
                      "w_psi1_sq"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=1e-8, abs=1e-8), (gamma, field)
        multiplicities.add(got.e1_multiplicity)
    if graph.n == 12 and graph.degrees.sum() == 22 and target == 0:
        assert 10 in multiplicities  # the star hub's hidden levels


@pytest.mark.parametrize("make_graph,target", [
    _case(Family.CAYLEY_TREE, g=5),
    _case(Family.CAYLEY_TREE, g=6),
    _case(Family.TFRACTAL, g=5),
    _case(Family.TORUS, L=6, d=2),
    _case(Family.COMPLETE, n=64),
    pytest.param(_product, 0, id="K4xC7"),
])
def test_critical_gamma_on_the_quotient_matches_the_dense_route(
        make_graph, target, monkeypatch):
    """No Laplacian decomposition and no dense H: the root agrees with the
    dense route's within 1e-10."""
    graph = make_graph()
    res = critical_gamma(graph, target)
    assert target_measure(graph, target).quotient is not None
    assert res.evaluations == 2
    monkeypatch.setattr(spectra, "equitable_partition", lambda g, w: None)
    dense = critical_gamma(make_graph(), target)
    assert res.gamma == pytest.approx(dense.gamma, rel=1e-10)
    assert res.xi1 == pytest.approx(dense.xi1, rel=1e-10)
    assert res.residual == pytest.approx(dense.residual, rel=1e-3, abs=1e-12)


def _spy_on_the_engine(monkeypatch):
    """Count engine.overlaps calls; refuse engine.eigh and any
    engine.sla.eigh without an index subset, the kwarg the benchmark's
    window probe reads.  The ``decompositions`` fixture counts the
    Laplacian decompositions."""
    overlaps_calls = []
    real_overlaps, real_eigh = engine.overlaps, engine.sla.eigh

    def spy_overlaps(problem, **kwargs):
        overlaps_calls.append(problem.gamma)
        return real_overlaps(problem, **kwargs)

    def window_only(a, **kwargs):
        if "subset_by_index" not in kwargs:
            raise AssertionError("a full eigensolve went through engine.sla")
        return real_eigh(a, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve went through engine.eigh")

    monkeypatch.setattr(engine, "overlaps", spy_overlaps)
    monkeypatch.setattr(engine, "eigh", refuse)
    monkeypatch.setattr(engine, "sla", SimpleNamespace(eigh=window_only))
    return overlaps_calls


def test_dense_route_pin_on_dsg_g3(monkeypatch, decompositions):
    """One Laplacian decomposition and two dense window confirmations, as
    the benchmark's trace of this call expects."""
    overlaps_calls = _spy_on_the_engine(monkeypatch)
    res = critical_gamma(build(GraphSpec(Family.DSG, g=3)), 0)
    assert (len(decompositions), len(overlaps_calls)) == (1, 2)
    assert res.evaluations == 2


@pytest.mark.parametrize("spec", [
    GraphSpec(Family.CAYLEY_TREE, g=6),
    GraphSpec(Family.TFRACTAL, g=4),
    GraphSpec(Family.TORUS, L=8, d=2),
    GraphSpec(Family.COMPLETE, n=32),
])
def test_quotient_route_solves_nothing_through_the_engine(
        spec, monkeypatch, decompositions):
    """The quotient route's confirmations are windows of the quotient H:
    no decomposition of L, no dense overlaps, nothing through engine.eigh,
    and at least one subset solve through engine.sla per confirmation."""
    graph = build(spec)
    want = critical_gamma(build(spec), default_target(spec))
    del decompositions[:]
    overlaps_calls = _spy_on_the_engine(monkeypatch)
    windows = []
    window_only = engine.sla.eigh

    def spy_window(a, **kwargs):
        windows.append(kwargs["subset_by_index"])
        return window_only(a, **kwargs)
    monkeypatch.setattr(engine, "sla", SimpleNamespace(eigh=spy_window))
    got = critical_gamma(graph, default_target(spec))
    assert (len(decompositions), len(overlaps_calls)) == (0, 0)
    assert len(windows) >= 2
    assert (got.gamma, got.bracket, got.residual) == \
        (want.gamma, want.bracket, want.residual)


@pytest.mark.parametrize("make_graph,target", [
    _case(Family.DSG, 0, g=3),
    _case(Family.TORUS, 0, L=4, d=2),
    pytest.param(lambda: star(12), 0, id="star12_hub"),
    _case(Family.CAYLEY_TREE, 0, g=4),
    _case(Family.TFRACTAL, 0, g=4),
])
@pytest.mark.parametrize("gamma", [1e-9, 1e-8, 1e-6])
def test_routes_agree_on_a_group_of_poles_and_hidden_levels(
        make_graph, target, gamma):
    """At couplings this small E1's group spans several poles of the
    measure and hidden levels (at 1e-9 every level above E0): the secular
    roots, the quotient H and the dense H give the same group and the
    same overlaps summed over it.  At 1e-8 on the T-fractal's centre the
    group reaches, through hidden levels, past a gap in the quotient H's
    first window, so the window must grow."""
    graph = make_graph()
    problem = SearchProblem(graph, target, gamma)
    want = overlaps(problem)
    if gamma == 1e-9:
        assert want.e1_multiplicity == graph.n - 1
    for got in (measure_overlaps(problem),
                _independent_overlaps(problem,
                                      forced_quotient(graph, target))):
        assert (got.e1_multiplicity, got.degenerate_e1) == \
            (want.e1_multiplicity, want.degenerate_e1)
        for field in ("s_psi0_sq", "s_psi1_sq", "w_psi0_sq", "w_psi1_sq"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=0.0, abs=1e-12), field


@pytest.mark.parametrize("spec", [
    *(GraphSpec(Family.CAYLEY_TREE, g=g) for g in (3, 4, 5, 6)),
    *(GraphSpec(Family.TFRACTAL, g=g) for g in (3, 4, 5)),
])
def test_critical_gamma_refuses_a_hidden_first_level(spec, monkeypatch):
    """The Cayley tree's root and the T-fractal's centre see no weight of
    L's lowest nonzero eigenvalue, a double one: the hidden level
    gamma*lam_1 then holds E1 and the overlaps do not cross.  The refusal
    names it and comes before any secular root."""
    graph = build(spec)
    sums = target_measure(graph, 0)
    assert (sums.group_amp_sq[1], sums.multiplicities[1]) == (0.0, 2)

    def refuse(problem, **kwargs):
        raise AssertionError("the crossing search ran")
    monkeypatch.setattr(engine, "measure_overlaps", refuse)
    named = f"lam_1={float(sums.group_eigenvalues[1])!r} (multiplicity 2)"
    with pytest.raises(NoTransitionError, match=re.escape(named)):
        critical_gamma(graph, 0)


@pytest.mark.parametrize("spec,dense", [
    (GraphSpec(Family.TFRACTAL, g=4), False),
    (GraphSpec(Family.CAYLEY_TREE, g=5), False),
    (GraphSpec(Family.DSG, g=3), True),
])
def test_verify_bounds_solves_on_the_measure_route(spec, dense, monkeypatch):
    """verify_bounds forms the dense H only where the measure came from the
    dense decomposition of L."""
    formed = []
    real = engine.build_hamiltonian

    def spy(problem, **kwargs):
        if not dense:
            raise AssertionError("the dense H was formed")
        formed.append(problem.gamma)
        return real(problem, **kwargs)
    monkeypatch.setattr(engine, "build_hamiltonian", spy)
    report = verify_bounds(build(spec), default_target(spec))
    assert len(formed) >= 6 if dense else not formed
    assert report.checks
