"""Search Hamiltonian assembly, low-lying overlaps, the critical coupling
solver, time evolution, and the inequality audit."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg.blas import zgemv

from ctqwlab import engine
from ctqwlab.engine import (
    SearchProblem,
    SuccessGrid,
    _phase_product,
    _phase_split,
    _independent_overlaps,
    build_hamiltonian,
    critical_gamma,
    default_time_grid,
    gamma_max_search,
    measure_overlaps,
    overlap_sweep_csv,
    overlaps,
    oscillation_period,
    propagate_krylov,
    success_grid,
    success_probability,
    verify_bounds,
)
from ctqwlab.errors import (
    DEFAULT_DENSE_GUARD,
    ConfigError,
    DenseGuardError,
    NoTransitionError,
    NumericalError,
    dense_guard,
)
from ctqwlab.graphs import (
    Family,
    Graph,
    GraphSpec,
    build,
    cartesian_product,
    default_target,
)
from ctqwlab.oracles import complete_success
from ctqwlab.spectra import (
    DEGENERACY_RTOL,
    degeneracy_groups,
    eigh,
    laplacian_decomposition,
    spectral_sums,
    target_measure,
)
from dense_oracles import (
    dense_success,
    evolve_state,
    full_solve_overlaps,
    hamiltonian_decomposition,
)
from graph_cases import forced_quotient, gnp, star


def _graph(family, **kw):
    return build(GraphSpec(family=family, **kw))


def _family_case(**kw):
    spec = GraphSpec(**kw)
    return pytest.param(lambda: build(spec), default_target(spec),
                        id=spec.label)


def crossing_scan(graph, target, gammas):
    """Sign-change intervals of the overlap difference over a coupling grid,
    from the secular roots of the target's measure: a healthy transition
    shows exactly one, around :func:`critical_gamma`'s root."""
    gam = sorted(float(g) for g in gammas)
    if len(gam) < 2:
        raise ConfigError("crossing scan needs at least two couplings")
    diffs = [rec.s_psi0_sq - rec.s_psi1_sq for rec in (
        measure_overlaps(SearchProblem(graph, target, g)) for g in gam)]
    return [(a, b) for a, b, fa, fb in zip(gam, gam[1:], diffs, diffs[1:])
            if fa == 0.0 or (fa < 0.0) != (fb < 0.0)]


def test_hamiltonian_by_hand():
    """Open 3-chain, target 0, gamma 1: H = gamma*L - |w><w| written out."""
    g = _graph(Family.CHAIN, L=3, periodic=False)
    h = build_hamiltonian(SearchProblem(graph=g, target=0, gamma=1.0))
    want = np.array([
        [0.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ])
    assert np.array_equal(h, want)


def test_hamiltonian_dense_guard():
    g = _graph(Family.COMPLETE, n=30)
    with pytest.raises(DenseGuardError), dense_guard(10):
        build_hamiltonian(SearchProblem(graph=g, target=0, gamma=0.1))


@pytest.mark.parametrize("n,gamma", [(16, 1 / 16), (64, 1 / 64), (64, 0.03)])
def test_complete_overlaps_against_two_level_block(n, gamma):
    """On the complete graph the search Hamiltonian closes on the two-state
    space spanned by |w> and the uniform state over the rest, giving an
    independent 2x2 model for the low-lying levels."""
    g = _graph(Family.COMPLETE, n=n)
    rec = overlaps(SearchProblem(graph=g, target=0, gamma=gamma))
    r = math.sqrt(n - 1.0)
    block = np.array([
        [gamma * (n - 1) - 1.0, -gamma * r],
        [-gamma * r, gamma],
    ])
    vals, vecs = np.linalg.eigh(block)
    s2 = np.array([1.0, r]) / math.sqrt(n)
    s_amp = vecs.T @ s2
    w_amp = vecs[0, :]
    assert rec.e0 == pytest.approx(vals[0], abs=1e-10)
    assert rec.e1 == pytest.approx(vals[1], abs=1e-10)
    assert rec.s_psi0_sq == pytest.approx(s_amp[0] ** 2, abs=1e-10)
    assert rec.s_psi1_sq == pytest.approx(s_amp[1] ** 2, abs=1e-10)
    assert rec.w_psi0_sq == pytest.approx(w_amp[0] ** 2, abs=1e-10)
    assert rec.w_psi1_sq == pytest.approx(w_amp[1] ** 2, abs=1e-10)
    assert not rec.degenerate_e1


def test_subset_and_full_paths_agree():
    g = _graph(Family.DSG, g=3)
    prob = SearchProblem(graph=g, target=0, gamma=0.8)
    values, vectors = hamiltonian_decomposition(prob)
    group1 = np.flatnonzero(degeneracy_groups(values) == 1)
    s_amp = vectors.T @ np.full(g.n, 1.0 / math.sqrt(g.n))
    w_amp = vectors[0, :]
    full = {
        "e0": values[0],
        "e1": values[group1[0]],
        "s_psi0_sq": s_amp[0] ** 2,
        "s_psi1_sq": np.sum(s_amp[group1] ** 2),
        "w_psi0_sq": w_amp[0] ** 2,
        "w_psi1_sq": np.sum(w_amp[group1] ** 2),
    }
    subset = overlaps(prob)
    for field, want in full.items():
        assert getattr(subset, field) == pytest.approx(want, abs=1e-10)
    assert subset.degenerate_e1 == (group1.size > 1)
    assert subset.e1_multiplicity == group1.size


@pytest.mark.parametrize("make_graph", [
    pytest.param(lambda: Graph.from_edges(9, [(0, k) for k in range(1, 9)]),
                 id="star9_hub"),
    pytest.param(lambda: _graph(Family.DSG, g=3), id="dsg3_corner"),
    pytest.param(lambda: _graph(Family.COMPLETE, n=8), id="complete8"),
])
@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
def test_gershgorin_spread_from_degrees(make_graph, gamma):
    """The degree form of the Gershgorin range equals the row-by-row range
    of the dense H.  Target 0: the star's hub, whose row sets the maximum
    at gamma >= 1 (the only case here), the dsg corner, a complete node."""
    from ctqwlab.engine import _gershgorin_spread

    prob = SearchProblem(make_graph(), 0, gamma)
    h = build_hamiltonian(prob)
    diag = np.diag(h)
    radii = np.abs(h).sum(axis=1) - np.abs(diag)
    dense = (diag + radii).max() - (diag - radii).min()
    assert _gershgorin_spread(prob) == pytest.approx(dense, rel=1e-15)


@pytest.mark.parametrize("family", [Family.CAYLEY_TREE, Family.TFRACTAL])
def test_root_target_degenerate_first_excited(family):
    """Targets on the symmetry axis of a tree leave the first excited level
    doubly degenerate and invisible to the uniform state."""
    g = _graph(family, g=3)
    for gamma in (0.5, 2.0):
        rec = overlaps(SearchProblem(graph=g, target=0, gamma=gamma))
        assert rec.degenerate_e1
        assert rec.e1_multiplicity == 2
        assert rec.s_psi1_sq < 1e-12


def test_overlap_sweep_csv_shape():
    g = _graph(Family.COMPLETE, n=8)
    recs = [overlaps(SearchProblem(g, 0, gamma))
            for gamma in (0.05, 0.125, 0.3)]
    text = overlap_sweep_csv(recs)
    lines = text.strip().splitlines()
    assert lines[0] == "gamma,sPsi0Sq,sPsi1Sq,wPsi0Sq,wPsi1Sq,E0,E1,degenerateE1"
    assert len(lines) == 4
    gammas = [float(r.split(",")[0]) for r in lines[1:]]
    assert gammas == [0.05, 0.125, 0.3]


SECULAR_CASES = [
    # G(n, p) graphs: K = N, every Laplacian eigenvalue simple
    pytest.param(lambda: gnp(31, 40, 0.1), 3, id="gnp_40_seed31"),
    pytest.param(lambda: gnp(32, 90, 0.05), 8, id="gnp_90_seed32"),
    _family_case(family=Family.CHAIN, L=50, periodic=False),
    _family_case(family=Family.CHAIN, L=50, periodic=True),
    pytest.param(lambda: star(12), 0, id="star12_hub"),
    pytest.param(lambda: star(12), 5, id="star12_leaf"),
    _family_case(family=Family.COMPLETE, n=12),
    _family_case(family=Family.COMPLETE, n=64),
    _family_case(family=Family.DSG, g=3),
    _family_case(family=Family.TFRACTAL, g=4),
    _family_case(family=Family.TORUS, L=6, d=2),
]


def _assert_same_record(got, want):
    """The same coupling and E1 group, every other field within 1e-10."""
    assert (got.gamma, got.degenerate_e1, got.e1_multiplicity) == \
        (want.gamma, want.degenerate_e1, want.e1_multiplicity)
    for field in ("e0", "e1", "s_psi0_sq", "s_psi1_sq", "w_psi0_sq",
                  "w_psi1_sq"):
        assert getattr(got, field) == pytest.approx(
            getattr(want, field), rel=1e-10, abs=1e-10), (got.gamma, field)


def _assert_same_levels(graph, target, gammas):
    """measure_overlaps against the dense window solve."""
    from ctqwlab.engine import measure_overlaps

    for gamma in gammas:
        problem = SearchProblem(graph, target, float(gamma))
        _assert_same_record(measure_overlaps(problem), overlaps(problem))


@pytest.mark.parametrize("gamma", [0.002415628768184179, 0.01358407882668622,
                                   0.0001035142166679344])
def test_overlaps_inside_a_large_laplacian_cluster(gamma):
    """The hub of the 12-node star (10-fold eigenvalue 1): LAPACK's evr on
    an index subset has stopped with an internal error at these couplings;
    overlaps then answers from a full solve."""
    problem = SearchProblem(star(12), 0, gamma)
    _assert_same_record(overlaps(problem), full_solve_overlaps(problem))


def test_overlaps_falls_back_to_a_full_solve_then_raises(monkeypatch):
    """On the dense H (dsg g3) and on the quotient H (tfractal g4) alike, a
    subset solve that raises LinAlgError is replaced by one full solve of a
    fresh H; when that raises too, the window raises NumericalError."""
    from types import SimpleNamespace

    dense = SearchProblem(_graph(Family.DSG, g=3), 0, 0.7)
    tree = GraphSpec(Family.TFRACTAL, g=4)
    quotient = SearchProblem(build(tree), default_target(tree), 20.0)
    sums = forced_quotient(quotient.graph, quotient.target)
    windows = [(dense, lambda: overlaps(dense)),
               (quotient, lambda: _independent_overlaps(quotient, sums))]
    real = engine.sla.eigh
    for problem, solve in windows:
        full_calls = []

        def subset_fails(a, **kwargs):
            if "subset_by_index" in kwargs:
                raise np.linalg.LinAlgError("Internal Error.")
            full_calls.append(kwargs.get("driver"))
            return real(a, **kwargs)
        monkeypatch.setattr(engine, "sla", SimpleNamespace(eigh=subset_fails))
        _assert_same_record(solve(), full_solve_overlaps(problem))
        assert full_calls == ["evd"]

        def all_fail(a, **kwargs):
            raise np.linalg.LinAlgError("Internal Error.")
        monkeypatch.setattr(engine, "sla", SimpleNamespace(eigh=all_fail))
        with pytest.raises(NumericalError, match="eigensolve of H failed"):
            solve()


def _drawn(problem, draws, hidden_at=(), hidden=()):
    """The record that engine._record builds from the synthetic level
    source ``draws``, and the number of draws it took."""
    source = iter([tuple(np.asarray(x, dtype=float) for x in d[:3]) + d[3:]
                   for d in draws])
    rec = engine._record(problem, source, np.array(hidden_at, dtype=float),
                         np.array(hidden, dtype=np.int64))
    return rec, len(draws) - len(list(source))


def test_record_draws_until_the_floor_clears_e1s_group():
    """engine._record, the one enclosure loop of both level sources, on
    synthetic sources: it stops at the first floor more than the grouping
    tolerance above E1's group; a hidden level within the tolerance
    extends the group past that floor, so it draws again and counts the
    hidden levels in E1's group; an infinite floor ends the loop; and it
    refuses a degenerate ground level and a single group."""
    problem = SearchProblem(_graph(Family.COMPLETE, n=4), 0, 1.0)
    tol = DEGENERACY_RTOL * engine._gershgorin_spread(problem)
    e1 = 0.25
    first = ([-0.5, e1], [0.375, 0.5], [0.5, 0.25], e1 + 1.5 * tol)
    second = ([-0.5, e1, 0.75], [0.375, 0.5, 0.0625], [0.5, 0.25, 0.125],
              1.0)
    rec, drawn = _drawn(problem, [first, second])
    assert drawn == 1
    assert (rec.e0, rec.e1, rec.e1_multiplicity) == (-0.5, e1, 1)
    assert (rec.s_psi0_sq, rec.s_psi1_sq, rec.w_psi0_sq, rec.w_psi1_sq) \
        == (0.375, 0.5, 0.5, 0.25)
    # Two hidden levels at e1 + 0.8 tol join E1's group, whose top now
    # lies 0.7 tol below the first floor; a zero count adds nothing.
    rec, drawn = _drawn(problem, [first, second],
                        hidden_at=[e1 + 0.8 * tol, 0.5], hidden=[2, 0])
    assert drawn == 2
    assert (rec.e1, rec.e1_multiplicity) == (e1, 3)
    assert (rec.s_psi1_sq, rec.w_psi1_sq) == (0.5, 0.25)
    rec, drawn = _drawn(problem, [(*first[:3], math.inf), second],
                        hidden_at=[e1 + 0.8 * tol], hidden=[2])
    assert drawn == 1
    assert rec.e1_multiplicity == 3
    with pytest.raises(NumericalError, match="ground level of H is degen"):
        _drawn(problem, [([-0.5, -0.5 + 0.5 * tol, e1], [0.25, 0.25, 0.5],
                          [0.25, 0.25, 0.5], math.inf)])
    with pytest.raises(NumericalError, match="could not separate E1 from E0"):
        _drawn(problem, [([-0.5], [1.0], [1.0], math.inf)])


@pytest.mark.parametrize("make_graph,target", SECULAR_CASES)
def test_secular_levels_match_dense_overlaps(make_graph, target):
    """E0, E1 and their overlaps from the secular roots of the target's
    measure agree with the dense route from 1e-3 xi1 to 1e3 xi1.  The star's
    10-fold and K64's 63-fold Laplacian eigenvalues are clusters where
    LAPACK's evr on an index subset fails at some couplings, so the dense
    route takes its full-solve fallback there."""
    graph = make_graph()
    xi1 = target_measure(graph, target).xi1
    _assert_same_levels(graph, target, np.geomspace(1e-3, 1e3, 25) * xi1)


@pytest.mark.parametrize("make_graph,target", [
    _family_case(family=Family.DSG, g=3),
    _family_case(family=Family.TFRACTAL, g=4),
    _family_case(family=Family.CHAIN, L=50, periodic=False),
])
def test_secular_levels_merge_into_one_group_at_tiny_couplings(make_graph,
                                                               target):
    """Below gamma ~ 1e-8 the excited levels lie closer than the grouping
    tolerance, so E1's group takes in several visible roots and invisible
    levels (up to all N - 1 levels above E0), as the dense solve does.
    Below gamma ~ 1e-155 the squared distances of a root to its poles
    would underflow; down to 1e-305 the roots keep the dense solve's
    overlaps, and no numpy warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_levels(make_graph(), target,
                            [*np.geomspace(1e-10, 1e-6, 9),
                             *np.geomspace(1e-305, 1e-150, 8)])


@pytest.mark.parametrize("spec,solved,refused", [
    (GraphSpec(Family.COMPLETE, n=8), 5e-309, 1e-309),
    (GraphSpec(Family.DSG, g=3), 2e-308, 1e-308),
    (GraphSpec(Family.TORUS, L=6, d=2), 5e-309, 1e-309),
    (GraphSpec(Family.CHAIN, L=50, periodic=False), 1e-306, 1e-307),
], ids=lambda v: v.label if isinstance(v, GraphSpec) else repr(v))
def test_a_coupling_whose_pole_is_subnormal_is_a_config_error(
        spec, solved, refused, monkeypatch):
    """Where the secular equation leaves the float range, the lowest visible
    pole gamma*lam is subnormal: ConfigError, naming gamma and the pole.
    The smallest coupling solved before keeps its record, though its pole
    may be subnormal too, and an overflow at any other coupling stays a
    NumericalError."""
    graph, target = build(spec), default_target(spec)
    sums = target_measure(graph, target)
    assert measure_overlaps(SearchProblem(graph, target, solved)).e0 < 0.0
    pole = refused * float(sums.group_eigenvalues[1])
    assert 0.0 < pole < np.finfo(float).tiny
    with pytest.raises(ConfigError) as info:
        measure_overlaps(SearchProblem(graph, target, refused))
    assert str(info.value) == (
        f"gamma={refused!r} is too small: the lowest visible pole "
        f"gamma*lam={pole!r} is subnormal, and the secular equation leaves "
        f"the float range")

    def overflow(*args):
        raise FloatingPointError("overflow encountered in divide")
    monkeypatch.setattr(engine, "_secular_root", overflow)
    with pytest.raises(NumericalError, match="leaves the float range at "
                                             "gamma=0.5: overflow"):
        measure_overlaps(SearchProblem(graph, target, 0.5))


@pytest.mark.parametrize("make_graph", [
    pytest.param(lambda: _graph(Family.TFRACTAL, g=4), id="tfractal4_hub"),
    pytest.param(lambda: _graph(Family.CAYLEY_TREE, g=5), id="tree5_root"),
])
def test_secular_levels_deflate_weights_below_roundoff(make_graph):
    """The hub of a symmetric graph leaves weights of ~1e-31 on many groups.
    Deflated they are invisible levels; kept as poles, each would pin two
    roots within roundoff of itself, and their share of |s> goes wrong at
    small couplings (by 1.4e-6 at gamma = 1e-14 on the T-fractal hub)."""
    _assert_same_levels(make_graph(), 0, np.geomspace(1e-16, 1e-2, 15))


def test_overlap_sweeps_make_no_dense_or_k_by_k_solve(monkeypatch, tmp_path):
    """The overlaps command and crossing_scan work from the measure alone:
    one Laplacian decomposition, then no eigensolve of H or of its K x K
    form at any coupling."""
    from types import SimpleNamespace

    from ctqwlab.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve of H ran")
    monkeypatch.setattr(engine, "sla", SimpleNamespace(eigh=refuse))
    monkeypatch.setattr(engine, "eigh", refuse)
    assert main(["overlaps", "--family", "tfractal", "--g", "4",
                 "--gamma-count", "16", "--out", str(tmp_path)]) == 0
    g = _graph(Family.COMPLETE, n=32)
    assert len(crossing_scan(g, 0, np.geomspace(1e-3, 1.0, 16))) == 1


def test_critical_gamma_complete():
    """The balanced-overlap coupling sits at 1/N for the complete graph."""
    n = 64
    g = _graph(Family.COMPLETE, n=n)
    res = critical_gamma(g, 0)
    assert res.gamma == pytest.approx(1.0 / n, rel=0.05)
    assert res.residual <= 1e-6
    lo, hi = res.bracket
    assert lo <= res.gamma <= hi
    assert (hi - lo) <= 1e-8 * res.gamma
    rec = overlaps(SearchProblem(graph=g, target=0, gamma=res.gamma))
    assert abs(rec.s_psi0_sq - rec.s_psi1_sq) <= 1e-6
    # deterministic: same call, bitwise identical
    again = critical_gamma(g, 0)
    assert again.gamma == res.gamma
    assert again.evaluations == res.evaluations


def test_critical_gamma_accepts_precomputed_sums():
    g = _graph(Family.DSG, g=2)
    sums = target_measure(g, 0)
    res = critical_gamma(g, 0)
    assert res.xi1 == sums.xi1
    assert res.residual <= 1e-6


def test_measure_is_decomposed_once_per_graph_and_target(decompositions):
    g = _graph(Family.DSG, g=3)
    times = np.linspace(0.0, 5.0, 6)
    first = critical_gamma(g, 0)
    assert len(decompositions) == 1
    again = critical_gamma(g, 0)
    verify_bounds(g, 0)
    success_grid(g, 0, [0.5, 1.0], times)
    success_probability(SearchProblem(g, 0, 0.7), times)
    assert len(decompositions) == 1
    assert (again.gamma, again.xi1) == (first.gamma, first.xi1)
    # The memo is per Graph object: a rebuilt graph decomposes again.
    target_measure(_graph(Family.DSG, g=3), 0)
    assert len(decompositions) == 2


def test_each_target_gets_its_own_measure(decompositions):
    g = _graph(Family.DSG, g=3)
    apex = target_measure(g, 0)
    interior = target_measure(g, 4)
    assert len(decompositions) == 2
    assert apex.xi1 == pytest.approx(1.432099, abs=1e-6)
    assert interior.xi1 == pytest.approx(0.744691, abs=1e-6)
    assert target_measure(g, 0) is apex
    with pytest.raises(ValueError):
        apex.group_amp_sq[0] = 0.5  # shared, so read-only
    assert critical_gamma(g, 4).xi1 == interior.xi1
    assert len(decompositions) == 2


def test_cached_measure_still_checks_the_dense_guard(decompositions):
    g = _graph(Family.DSG, g=3)
    target_measure(g, 0)
    with pytest.raises(DenseGuardError), dense_guard(10):
        target_measure(g, 0)
    with pytest.raises(DenseGuardError), dense_guard(10):
        success_probability(SearchProblem(g, 0, 0.5), 1.0)
    assert decompositions == [DEFAULT_DENSE_GUARD]


@pytest.mark.parametrize("make_graph", [
    pytest.param(lambda: _graph(Family.COMPLETE, n=9), id="complete9"),
    pytest.param(lambda: _graph(Family.TORUS, L=4, d=2), id="torus4x4"),
    pytest.param(lambda: _graph(Family.DSG, g=3), id="dsg3"),
    pytest.param(lambda: _graph(Family.CAYLEY_TREE, g=4), id="tree4"),
    pytest.param(lambda: gnp(11, 30, 0.1), id="gnp_30_seed11"),
    pytest.param(lambda: gnp(12, 50, 0.05), id="gnp_50_seed12"),
    pytest.param(lambda: gnp(13, 70, 0.0), id="tree_70_seed13"),
])
def test_measure_groups_match_a_per_group_loop(make_graph):
    """The vectorized group pass of spectral_sums agrees with summing each
    contiguous run of group labels on its own."""
    values, vectors = laplacian_decomposition(make_graph())
    target = 1
    labels = degeneracy_groups(values)
    groups = [np.flatnonzero(labels == label)
              for label in range(labels[-1] + 1)]
    amp_sq = vectors[target, :] ** 2
    mults = [idx.size for idx in groups]
    vals = [float(np.mean(values[idx])) for idx in groups]
    weights = [float(np.sum(amp_sq[idx])) for idx in groups]
    vals[0], weights[0] = 0.0, 1.0 / values.size
    sums = spectral_sums((values, vectors), target)
    assert sums.multiplicities.tolist() == mults
    assert np.allclose(sums.group_eigenvalues, vals, rtol=1e-15, atol=0)
    assert np.allclose(sums.group_amp_sq, weights, rtol=0, atol=1e-15)
    assert sums.max_amp_sq == pytest.approx(
        max(w / m for w, m in zip(weights[1:], mults[1:])), rel=1e-15)


ORACLE_CASES = [
    _family_case(family=Family.COMPLETE, n=12),
    _family_case(family=Family.CHAIN, L=15, periodic=False),
    _family_case(family=Family.TORUS, L=6, d=2),
    _family_case(family=Family.DSG, g=4),
    _family_case(family=Family.TFRACTAL, g=4),
    _family_case(family=Family.CAYLEY_TREE, g=5),
    _family_case(family=Family.PRODUCT, factors=(
        GraphSpec(family=Family.DSG, g=2),
        GraphSpec(family=Family.CHAIN, L=4, periodic=False))),
    pytest.param(lambda: gnp(21, 40, 0.1), 3, id="gnp_40_seed21"),
    pytest.param(lambda: gnp(22, 60, 0.05), 7, id="gnp_60_seed22"),
    pytest.param(lambda: gnp(23, 80, 0.0), 11, id="tree_80_seed23"),
]


@pytest.mark.parametrize("make_graph,target", ORACLE_CASES)
def test_in_place_decomposition_matches_an_evr_oracle(make_graph, target):
    """The divide-and-conquer decomposition of L in its own memory agrees
    with LAPACK's evr driver on a copy: eigenvalues, degeneracy groups and
    the target's measure."""
    import scipy.linalg as sla

    graph = make_graph()
    lap = graph.laplacian()
    values, vectors = sla.eigh(lap, driver="evr")
    dec = laplacian_decomposition(graph)
    assert np.abs(dec[0] - values).max() <= 1e-12 * np.linalg.norm(lap, 2)
    assert np.array_equal(degeneracy_groups(dec[0]),
                          degeneracy_groups(values))
    got = spectral_sums(dec, target)
    ref = spectral_sums((values, vectors), target)
    assert got.xi1 == pytest.approx(ref.xi1, rel=1e-12)
    assert got.xi2 == pytest.approx(ref.xi2, rel=1e-12)
    assert np.array_equal(got.multiplicities, ref.multiplicities)
    for name in ("group_eigenvalues", "group_amp_sq"):
        assert np.allclose(getattr(got, name), getattr(ref, name),
                           rtol=0.0, atol=1e-12), name


def test_decompositions_and_overlaps_leave_the_laplacian_alone():
    """Both solves overwrite the matrix they are handed; each forms its
    own, so a later L is bitwise the earlier one.  The star's centre sees
    a first excited level of multiplicity 10, so its overlap window grows
    and H is formed twice."""
    star = Graph.from_edges(12, [(0, i) for i in range(1, 12)])
    assert overlaps(SearchProblem(star, 0, 0.5)).e1_multiplicity == 10
    for graph in (_graph(Family.DSG, g=3), star):
        before = graph.laplacian().tobytes()
        laplacian_decomposition(graph)
        assert graph.laplacian().tobytes() == before
        overlaps(SearchProblem(graph, 0, 0.5))
        assert graph.laplacian().tobytes() == before


def test_critical_gamma_no_transition_window():
    g = _graph(Family.DSG, g=3)
    with pytest.raises(NoTransitionError):
        critical_gamma(g, 0, gamma_floor=100.0, gamma_ceiling=1000.0)


def test_critical_gamma_no_crossing_below_the_ceiling():
    """Below the crossing the doubling search from xi1 climbs; with the
    ceiling at xi1/4 its first step leaves the window."""
    g = _graph(Family.DSG, g=3)
    ceiling = target_measure(g, 0).xi1 / 4.0
    with pytest.raises(NoTransitionError) as info:
        critical_gamma(g, 0, gamma_ceiling=ceiling)
    assert str(info.value) == (
        f"no overlap crossing below gamma_ceiling={ceiling}")


def _no_measure(*args, **kwargs):
    raise AssertionError("the target's measure was computed")


@pytest.mark.parametrize("floor,ceiling", [
    (math.nan, 1e6), (1e-6, math.nan), (10.0, 1.0), (1.0, 1.0),
    (-1.0, 1e6), (0.0, 1e6), (1e-6, math.inf), (-math.inf, 1e6),
])
def test_critical_gamma_refuses_a_bad_window(floor, ceiling, monkeypatch):
    """ConfigError before the measure, unless 0 < floor < ceiling, both
    finite."""
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    with pytest.raises(ConfigError, match="gamma_floor < gamma_ceiling"):
        critical_gamma(_graph(Family.DSG, g=3), 0, gamma_floor=floor,
                       gamma_ceiling=ceiling)


def _overlap_difference(graph, target, gamma):
    rec = overlaps(SearchProblem(graph, target, gamma))
    return rec.s_psi0_sq - rec.s_psi1_sq


def _confirming_difference(graph, target, gamma):
    """The overlap difference on critical_gamma's confirming route: the
    quotient H when the measure has one, else the dense H."""
    rec = _independent_overlaps(SearchProblem(graph, target, gamma),
                                target_measure(graph, target))
    return rec.s_psi0_sq - rec.s_psi1_sq


ROOT_CASES = [
    *(_family_case(family=Family.COMPLETE, n=n) for n in (16, 32, 64)),
    *(_family_case(family=Family.DSG, g=g) for g in (2, 3, 4, 5)),
    *(_family_case(family=Family.TFRACTAL, g=g) for g in (3, 4, 5)),
    *(_family_case(family=Family.CAYLEY_TREE, g=g) for g in range(3, 8)),
    *(_family_case(family=Family.TORUS, L=L, d=2) for L in (8, 16)),
    pytest.param(lambda: gnp(5, 40, 0.1), 13, id="gnp_40_seed5"),
    pytest.param(lambda: gnp(6, 80, 0.05), 26, id="gnp_80_seed6"),
    pytest.param(lambda: gnp(7, 120, 0.03), 40, id="gnp_120_seed7"),
    _family_case(family=Family.CHAIN, L=60, periodic=False),
    _family_case(family=Family.CHAIN, L=60, periodic=True),
]


@pytest.mark.parametrize("make_graph,target", ROOT_CASES)
def test_critical_gamma_matches_a_fine_bisection(make_graph, target):
    """The root found on the measure is confirmed by two dense evaluations,
    so gamma lies in a bracket of relative width at most 1e-9; it agrees
    with a plain bisection of the dense overlap difference, run here from
    [gamma/2, 2 gamma] to width 1e-12."""
    graph = make_graph()
    res = critical_gamma(graph, target)
    lo, hi = res.bracket
    assert res.evaluations == 2
    assert lo < res.gamma < hi
    assert hi - lo <= 1e-9 * res.gamma
    a, b = res.gamma / 2.0, res.gamma * 2.0
    assert _overlap_difference(graph, target, a) < 0.0
    assert _overlap_difference(graph, target, b) > 0.0
    while b - a > 1e-12 * b:
        mid = 0.5 * (a + b)
        if _overlap_difference(graph, target, mid) >= 0.0:
            b = mid
        else:
            a = mid
    assert res.gamma == pytest.approx(0.5 * (a + b), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("make_graph,target", [
    _family_case(family=Family.DSG, g=4),
    _family_case(family=Family.TFRACTAL, g=4),
    pytest.param(lambda: gnp(5, 40, 0.1), 13, id="gnp_40_seed5"),
])
def test_critical_gamma_reports_the_measure_root(make_graph, target):
    """gamma is the measure's root r, strictly inside the confirmation pair
    r(1 -/+ d), and a rebuilt graph (decomposed again) gives the same bits;
    the residual is the larger difference of the pair on the confirming
    route, and within 1e-12 of the dense one."""
    res = critical_gamma(make_graph(), target)
    lo, hi = res.bracket
    assert lo < res.gamma < hi
    assert res.gamma == pytest.approx(0.5 * (lo + hi), rel=1e-15)
    again = critical_gamma(make_graph(), target)
    assert (again.gamma, again.bracket, again.residual) == \
        (res.gamma, res.bracket, res.residual)
    graph = make_graph()
    assert res.residual == max(abs(_confirming_difference(graph, target, g))
                               for g in (lo, hi))
    assert res.residual == pytest.approx(
        max(abs(_overlap_difference(graph, target, g)) for g in (lo, hi)),
        rel=0.0, abs=1e-12)


@pytest.fixture
def synthetic_difference(monkeypatch):
    """Replace the measure's overlap difference and the dense overlaps with
    differences chosen by the test (the same one unless ``dense`` is
    given); returns the graph (dsg g3, target 0), the list of couplings
    asked on either route, and the list asked of the dense route."""
    from types import SimpleNamespace


    asked, dense_asked = [], []

    def install(diff, dense=None):
        dense = diff if dense is None else dense

        def fake_measure(problem, **kwargs):
            asked.append(problem.gamma)
            return SimpleNamespace(s_psi0_sq=diff(problem.gamma),
                                   s_psi1_sq=0.0)

        def fake_overlaps(problem, **kwargs):
            asked.append(problem.gamma)
            dense_asked.append(problem.gamma)
            return SimpleNamespace(s_psi0_sq=dense(problem.gamma),
                                   s_psi1_sq=0.0)
        monkeypatch.setattr(engine, "measure_overlaps", fake_measure)
        monkeypatch.setattr(engine, "overlaps", fake_overlaps)
        return _graph(Family.DSG, g=3), asked, dense_asked

    return install


@pytest.mark.parametrize("below,above", [(-1.0, 1.0), (-0.5, 1e-3)])
def test_critical_gamma_refuses_a_step(synthetic_difference, below, above):
    graph, asked, _ = synthetic_difference(
        lambda g: above if g >= 0.7 else below)
    with pytest.raises(NumericalError, match="discontinuous"):
        critical_gamma(graph, 0)
    assert len(asked) <= 100
    assert abs(asked[-1] - 0.7) <= 1e-9 * 0.7


def test_critical_gamma_converges_fast_on_a_smooth_crossing(
        synthetic_difference):
    root = 0.8123
    graph, asked, dense_asked = synthetic_difference(
        lambda g: math.tanh((g - root) / (0.2 * root)))
    res = critical_gamma(graph, 0)
    assert res.evaluations == len(dense_asked) == 2
    assert len(asked) - len(dense_asked) <= 12
    assert res.gamma == pytest.approx(root, rel=1e-9)
    assert res.residual <= 1e-9


def test_critical_gamma_returns_an_exact_zero_at_the_seed(
        synthetic_difference):
    graph, asked, dense_asked = synthetic_difference(lambda g: 0.0)
    res = critical_gamma(graph, 0)
    assert asked[0] == res.xi1
    assert res.evaluations == len(dense_asked) == 2
    assert res.bracket == tuple(dense_asked)
    assert res.gamma == pytest.approx(res.xi1, rel=1e-9)
    assert res.residual == 0.0


def test_critical_gamma_refuses_a_measure_root_dense_h_does_not_confirm(
        synthetic_difference):
    """The two routes put the crossing at different couplings: the dense
    pair around the measure's root shows no sign change."""
    graph, _, dense_asked = synthetic_difference(
        lambda g: math.tanh((g - 0.8123) / 0.2),
        dense=lambda g: math.tanh((g - 0.9) / 0.2))
    with pytest.raises(NumericalError, match="measure route.*dense route"):
        critical_gamma(graph, 0)
    assert len(dense_asked) == 2


def test_critical_gamma_widens_the_confirmation_to_the_measure_roundoff(
        synthetic_difference, monkeypatch):
    """LAPACK gives lam_1 only to an absolute eps*lam_max, so the dense
    pair sits eps*lam_max/lam_1 from the measure's root once that exceeds
    1e-10."""
    from types import SimpleNamespace


    root = 0.8123
    graph, _, dense_asked = synthetic_difference(
        lambda g: math.tanh((g - root) / (0.2 * root)))
    monkeypatch.setattr(engine, "target_measure", lambda *a, **k: (
        SimpleNamespace(xi1=1.0, group_eigenvalues=np.array([0.0, 1e-8, 4.0]),
                        group_amp_sq=np.array([1.0 / 27, 0.5, 0.5 - 1.0 / 27]),
                        quotient=None)))
    res = critical_gamma(graph, 0)
    offset = np.finfo(float).eps * 4.0 / 1e-8
    lo, hi = dense_asked
    assert lo == pytest.approx(root * (1.0 - offset), rel=1e-12)
    assert hi == pytest.approx(root * (1.0 + offset), rel=1e-12)
    assert res.bracket == (lo, hi) and res.evaluations == 2


@pytest.mark.parametrize("make_graph,target", [
    _family_case(family=Family.DSG, g=3),
    _family_case(family=Family.TFRACTAL, g=3),  # K = N/2
    _family_case(family=Family.CHAIN, L=40, periodic=True),  # K = N/2 + 1
    _family_case(family=Family.CHAIN, L=40, periodic=False),  # K = N
    pytest.param(lambda: gnp(5, 40, 0.1), 13, id="gnp_40_seed5"),
])
def test_critical_gamma_takes_the_measure_route_for_any_k(make_graph, target,
                                                          monkeypatch):
    """Whatever K, the number of distinct Laplacian eigenvalues, the root
    search runs on the measure, runs no K x K eigensolve, and makes exactly
    2 confirmations (quotient on tfractal g3, dense on the others)."""

    measured = []
    real = engine.measure_overlaps

    def spy(problem, **kwargs):
        measured.append(problem.gamma)
        return real(problem, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a K x K eigensolve ran")
    monkeypatch.setattr(engine, "measure_overlaps", spy)
    monkeypatch.setattr(engine, "eigh", refuse)
    res = critical_gamma(make_graph(), target)
    assert measured
    assert res.evaluations == 2


def test_crossing_scan_brackets_critical():
    g = _graph(Family.COMPLETE, n=32)
    res = critical_gamma(g, 0)
    # even point count keeps the crossing itself off the grid
    gammas = np.geomspace(res.gamma / 8, res.gamma * 8, 16)
    intervals = crossing_scan(g, 0, gammas)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < res.gamma < hi


def test_success_matches_closed_form():
    n = 24
    g = _graph(Family.COMPLETE, n=n)
    gamma = 1.0 / n
    prob = SearchProblem(graph=g, target=0, gamma=gamma)
    times = np.linspace(0.0, 3.0 * math.pi * math.sqrt(n), 48)
    got = success_probability(prob, times)
    want = complete_success(n, gamma, times)
    assert np.max(np.abs(got - want)) < 1e-10


def test_success_at_time_zero_is_uniform():
    for spec in (GraphSpec(family=Family.DSG, g=2),
                 GraphSpec(family=Family.TORUS, L=4, d=2)):
        g = build(spec)
        w = default_target(spec)
        prob = SearchProblem(graph=g, target=w, gamma=0.37)
        assert success_probability(prob, 0.0) == pytest.approx(1.0 / g.n,
                                                               abs=1e-12)


def test_evolution_unitary_and_time_symmetric():
    g = _graph(Family.DSG, g=2)
    prob = SearchProblem(graph=g, target=2, gamma=0.9)
    for t in (0.7, 3.3, 11.0):
        state = evolve_state(prob, t)
        assert abs(np.vdot(state, state).real - 1.0) < 1e-9
        # reversing time returns the probability, not the state
        assert success_probability(prob, t) == pytest.approx(
            success_probability(prob, -t), abs=1e-12)


def test_krylov_matches_spectral_propagation():
    g = _graph(Family.DSG, g=3)
    gamma = 1.0
    times = np.linspace(0.0, 20.0, 9)
    prob = SearchProblem(graph=g, target=0, gamma=gamma)
    spectral = success_probability(prob, times)
    krylov = propagate_krylov(g, 0, gamma, times)
    assert np.max(np.abs(spectral - krylov)) < 1e-12


def test_krylov_rejects_bad_input():
    g = _graph(Family.DSG, g=2)
    times = np.linspace(0.0, 1.0, 3)
    for target, gamma, t in ((-1, 1.0, times), (g.n, 1.0, times),
                             (0, 0.0, times), (0, -1.0, times),
                             (0, float("nan"), times), (0, math.inf, times),
                             (0, 1.0, []), (0, 1.0, [0.0, 2.0, 1.0]),
                             (0, 1.0, [-1.0, 0.0])):
        with pytest.raises(ConfigError):
            propagate_krylov(g, target, gamma, t)


def test_krylov_long_horizon_accuracy():
    g = _graph(Family.DSG, g=4)
    times = np.linspace(0.0, 200.0, 81)
    spectral = success_probability(SearchProblem(g, 0, 1.0), times)
    krylov = propagate_krylov(g, 0, 1.0, times)
    assert np.max(np.abs(spectral - krylov)) < 1e-12


def test_miller_bessel_series_matches_scipy_jv():
    """The backward-recurrence Bessel sums against scipy's J_k: single
    orders, and random series over every order at once with one column per
    x (x = 1e-8 makes the recurrence rescale its column)."""
    from scipy.special import jv

    from ctqwlab.engine import _bessel_series, _chebyshev_order

    xs = np.array([1e-8, 0.5, 30.0, 800.0, 3000.0])
    for x in xs:
        order = _chebyshev_order(x)
        for k in sorted({0, 1, 2, 3, int(x) // 2, int(x), int(x) + 7,
                         order - 5}):
            unit = np.zeros(order + 1)
            unit[k] = 1.0
            even, odd = _bessel_series(np.array([x]), unit)
            assert (odd if k % 2 else even)[0] == pytest.approx(
                jv(k, x), rel=1e-12, abs=3e-14), (x, k)
            assert (even if k % 2 else odd)[0] == 0.0
    order = _chebyshev_order(xs[-1])
    coef = np.random.default_rng(7).standard_normal(order + 1)
    terms = coef[:, None] * jv(np.arange(order + 1)[:, None], xs)
    scale = np.abs(terms).sum(axis=0)
    even, odd = _bessel_series(xs, coef)
    assert np.all(np.abs(even - terms[0::2].sum(axis=0)) <= 5e-14 * scale)
    assert np.all(np.abs(odd - terms[1::2].sum(axis=0)) <= 5e-14 * scale)


@pytest.mark.parametrize("make_graph,target,gamma,times", [
    pytest.param(lambda: gnp(31, 40, 0.1), 3, None, None,
                 id="gnp_40_seed31"),
    pytest.param(lambda: star(12), 0, None, None, id="star12_hub"),
    pytest.param(lambda: _graph(Family.CHAIN, L=50, periodic=False), 0, None,
                 None, id="open_chain_L50"),
    pytest.param(lambda: _graph(Family.DSG, g=3), 4, 1.0,
                 np.r_[0.37, 0.5, np.geomspace(0.9, 60.0, 37), 60.0],
                 id="dsg3_nonuniform_grid_from_0.37"),
    pytest.param(lambda: _graph(Family.DSG, g=4), 0, 1.0,
                 np.linspace(0.0, 600.0, 121), id="dsg4_a_tmax_2100"),
    pytest.param(lambda: Graph.from_edges(1, []), 0, 1.0, [0.0, 1.0, 7.5],
                 id="single_node"),
])
def test_krylov_matches_dense_hamiltonian(make_graph, target, gamma, times):
    """The Chebyshev propagator against pi(t) from a full eigensolve of the
    dense H, within 1e-12; pi(0) is 1/N exactly.  Default coupling xi1,
    default times 65 points on [0, 4 pi sqrt(N)]."""
    from ctqwlab.engine import _gershgorin_spread

    graph = make_graph()
    if gamma is None:
        gamma = target_measure(graph, target).xi1
    if times is None:
        times = np.linspace(0.0, 4.0 * math.pi * math.sqrt(graph.n), 65)
    problem = SearchProblem(graph, target, gamma)
    got = propagate_krylov(graph, target, gamma, times)
    assert np.max(np.abs(got - dense_success(problem, times))) < 1e-12
    if times[0] == 0.0:
        assert got[0] == 1.0 / graph.n
    if times[-1] == 600.0:
        assert 0.5 * _gershgorin_spread(problem) * times[-1] >= 2000.0


def test_success_grid_shape():
    g = _graph(Family.COMPLETE, n=20)
    gammas = [0.02, 0.05, 0.08]
    times = np.linspace(0.0, 40.0, 33)
    grid = success_grid(g, 0, gammas, times)
    assert grid.probabilities.shape == (3, 33)
    k = int(np.argmax(grid.pi_star))
    row = grid.probabilities[k]
    assert grid.pi_star[k] == row.max()
    assert grid.t_star[k] == times[np.argmax(row)]


MEASURE_CASES = [
    _family_case(family=Family.COMPLETE, n=40),
    _family_case(family=Family.CHAIN, L=31, periodic=False),
    _family_case(family=Family.CHAIN, L=24),
    _family_case(family=Family.TORUS, L=5, d=3),
    _family_case(family=Family.DSG, g=4),
    _family_case(family=Family.TFRACTAL, g=4),
    _family_case(family=Family.CAYLEY_TREE, g=5),
    pytest.param(lambda: cartesian_product(
        _graph(Family.DSG, g=2), _graph(Family.CHAIN, L=4, periodic=False)),
        5, id="product_dsg_g2_chain_L4_open"),
    pytest.param(lambda: gnp(1, 60, 0.08), 3, id="gnp_60_seed1"),
    pytest.param(lambda: gnp(2, 90, 0.05), 17, id="gnp_90_seed2"),
    pytest.param(lambda: gnp(3, 120, 0.1), 0, id="gnp_120_seed3"),
    pytest.param(lambda: gnp(4, 80, 0.0), 41, id="tree_80_seed4"),
]


@pytest.mark.parametrize("make_graph,target", MEASURE_CASES)
def test_success_from_measure_matches_dense_hamiltonian(make_graph, target):
    """pi(t) from the K x K Laplacian-measure matrix equals pi(t) from a
    full eigendecomposition of H, at six couplings around xi1."""
    graph = make_graph()
    sums = target_measure(graph, target)
    times = np.linspace(0.0, 4.0 * math.pi * math.sqrt(graph.n), 257)
    s = np.full(graph.n, 1.0 / math.sqrt(graph.n))
    for gamma in np.geomspace(sums.xi1 / 8.0, 8.0 * sums.xi1, 6):
        prob = SearchProblem(graph, target, float(gamma))
        values, vectors = hamiltonian_decomposition(prob)
        coef = vectors[target] * (vectors.T @ s)
        want = np.abs(np.exp(-1j * np.outer(times, values)) @ coef) ** 2
        got = success_probability(prob, times)
        assert np.abs(got - want).max() <= 1e-12, gamma


SUCCESS_GRID_CASES = [
    _family_case(family=Family.DSG, g=5),
    _family_case(family=Family.TORUS, L=5, d=4),
    _family_case(family=Family.TFRACTAL, g=5),
]


def _one_row_at_a_time(graph, target, gammas, times):
    return np.vstack([success_probability(SearchProblem(graph, target, g),
                                          times) for g in gammas])


@pytest.mark.parametrize("make_graph,target", SUCCESS_GRID_CASES)
def test_success_grid_rows_equal_one_row_calls(make_graph, target):
    """Every row of a grid, all rows solved as one stack, has the bits of
    the one-row call at its coupling, on a uniform and a geometric grid."""
    graph = make_graph()
    xi1 = target_measure(graph, target).xi1
    gammas = np.geomspace(xi1 / 8.0, 8.0 * xi1, 16)
    for times in (np.linspace(0.0, 160.0, 1025),
                  np.geomspace(1e-3, 500.0, 300)):
        grid = success_grid(graph, target, gammas, times)
        assert np.array_equal(grid.probabilities,
                              _one_row_at_a_time(graph, target, gammas, times))


def test_success_grid_chunks_keep_every_row(monkeypatch):
    """Rows split into chunks by _CHUNK_ELEMENTS (rows x K x (T + 1) on a
    geometric grid here, T > K) keep their bits, and a chunk holds at least
    one row however small the bound."""
    graph = _graph(Family.DSG, g=5)
    k = target_measure(graph, 0).group_eigenvalues.size
    gammas = np.geomspace(0.5, 20.0, 7)
    times = np.geomspace(1e-3, 500.0, 300)
    a, b = _phase_split(times)
    assert times.size > k and a is times and b.tolist() == [0.0]
    want = _one_row_at_a_time(graph, target=0, gammas=gammas, times=times)
    stacks = []

    def spy(matrix, **kwargs):
        stacks.append(matrix.shape)
        return eigh(matrix, **kwargs)

    monkeypatch.setattr(engine, "eigh", spy)
    for bound, rows in ((3 * k * (a.size + b.size), [3, 3, 1]),
                        (1, [1] * 7)):
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", bound)
        stacks.clear()
        grid = success_grid(graph, 0, gammas, times)
        assert stacks == [(r, k, k) for r in rows]
        assert np.array_equal(grid.probabilities, want)


@pytest.mark.parametrize("chunked", [False, True], ids=["one_chunk", "chunks"])
def test_phase_products_are_one_scipy_blas_call_per_row(monkeypatch, chunked):
    """Each row's phase sums are one ``zgemm`` of scipy's BLAS, looked up
    in engine: G calls on a uniform G-row grid and on a geometric one, and
    one for a scalar t.  With rows split into chunks of five, every row
    keeps the bits of its one-row call."""
    make_graph, target = SUCCESS_GRID_CASES[0].values
    graph = make_graph()
    sums = target_measure(graph, target)
    k = sums.group_eigenvalues.size
    gammas = np.geomspace(sums.xi1 / 8.0, 8.0 * sums.xi1, 16)
    uniform = np.linspace(0.0, 160.0, 1025)
    geometric = np.geomspace(1e-3, 500.0, 300)
    wants = [_one_row_at_a_time(graph, target, gammas, t)
             for t in (uniform, geometric)]
    calls, stacks = [], []

    def spy(name, blas):
        def call(*args, **kwargs):
            calls.append(name)
            return blas(*args, **kwargs)
        return call

    def eigh_spy(matrix, **kwargs):
        stacks.append(len(matrix))
        return eigh(matrix, **kwargs)

    monkeypatch.setattr(engine, "zgemm", spy("zgemm", engine.zgemm))
    monkeypatch.setattr(engine, "eigh", eigh_spy)
    # exponentials per row: B + Q = 33 + 32 on the uniform grid, T + 1 on
    # the other
    for times, want, phases in ((uniform, wants[0], 65),
                                (geometric, wants[1], 301)):
        if chunked:
            monkeypatch.setattr(engine, "_CHUNK_ELEMENTS",
                                5 * k * max(k, phases))
        calls.clear()
        stacks.clear()
        grid = success_grid(graph, target, gammas, times)
        assert calls == ["zgemm"] * gammas.size
        assert stacks == ([5, 5, 5, 1] if chunked else [16])
        assert np.array_equal(grid.probabilities, want)
    calls.clear()
    success_probability(SearchProblem(graph, target, float(gammas[3])), 37.5)
    assert calls == ["zgemm"]


def test_success_grid_csv_headers():
    g = _graph(Family.COMPLETE, n=8)
    grid = success_grid(g, 0, [0.1, 0.2], np.linspace(0.0, 5.0, 6))
    mat = grid.to_matrix_csv().splitlines()
    assert mat[0].split(",")[0] == "gamma_by_t"
    assert len(mat) == 3
    long = grid.to_long_csv().splitlines()
    assert long[0] == "gamma,t,pi"
    assert len(long) == 1 + 2 * 6


def test_oscillation_period_complete_graph():
    n = 124
    g = _graph(Family.COMPLETE, n=n)
    prob = SearchProblem(graph=g, target=0, gamma=1.0 / n)
    times = default_time_grid(n)
    probs = success_probability(prob, times)
    period = oscillation_period(times, probs)
    assert period is not None
    assert period == pytest.approx(math.pi * math.sqrt(n), rel=0.02)


def test_oscillation_period_flat_signal():
    times = np.linspace(0.0, 10.0, 101)
    assert oscillation_period(times, np.full(101, 0.25)) is None


def test_oscillation_period_of_fewer_than_three_samples_is_none():
    for size in (0, 1, 2):
        times = np.linspace(0.0, 1.0, size)
        assert oscillation_period(times, np.full(size, 0.5)) is None
    with pytest.raises(ConfigError, match="matching grids"):
        oscillation_period(np.zeros(4), np.zeros(5))


def test_oscillation_period_is_exact_on_a_non_uniform_grid():
    """Each peak's vertex is the parabola's through its three samples on
    any grid: two parabolic peaks 4.8 apart, sampled on a geometric grid,
    give 4.8 within 1e-12."""
    times = np.geomspace(0.5, 10.0, 60)
    probs = 1.0 - np.minimum((times - 2.3) ** 2, (times - 7.1) ** 2)
    assert abs(oscillation_period(times, probs) - 4.8) <= 1e-12


def test_oscillation_period_on_a_geometric_grid_of_the_complete_graph():
    """On K_64 at gamma = 1/N, pi(t) oscillates with period pi sqrt(N);
    400 geometric times find it within 1e-5 relative (4.0e-4 when the
    vertex assumed a uniform step)."""
    n = 64
    problem = SearchProblem(_graph(Family.COMPLETE, n=n), 0, 1.0 / n)
    times = np.geomspace(1e-3, 4.0 * math.pi * math.sqrt(n), 400)
    period = oscillation_period(times, success_probability(problem, times))
    assert period == pytest.approx(math.pi * math.sqrt(n), rel=1e-5)


def _direct_phase_product(t, energies, coef):
    """The T x K exponentials summed row by row, through scipy's zgemv on
    the transposed (K x T) phases: the independent reference for the
    engine's factored product on every grid."""
    return zgemv(1.0, np.exp(-1j * np.outer(energies, t)),
                 coef.astype(complex), trans=1)


def _success_spectrum(prob):
    """Energies and phase coefficients of pi(t), as success_probability
    computes them."""
    sums = target_measure(prob.graph, prob.target)
    z = np.sqrt(sums.group_amp_sq)
    values, vectors = eigh(prob.gamma * np.diag(sums.group_eigenvalues)
                           - np.outer(z, z))
    return values, (z @ vectors) * vectors[0, :]


@pytest.mark.parametrize("count", [2, 3, 1025, 4097])
@pytest.mark.parametrize("t0", [-3.25, 17.0])
def test_factored_phase_product_matches_direct(count, t0):
    """On uniform grids, t0 != 0 and |E| t up to ~1e4, the factored
    (Q x K)(K x B) product of each stacked row equals that row's direct
    sums within 1e-12."""
    rng = np.random.default_rng(count)
    energies = np.sort(rng.uniform(-1.0, 5.0, (3, 40)), axis=1)
    coef = rng.normal(size=(3, 40))
    coef /= np.abs(coef).sum(axis=1, keepdims=True)
    times = np.linspace(t0, 2000.0, count)
    assert np.abs(energies).max() * np.abs(times).max() > 9e3
    got = _phase_product(*_phase_split(times), energies, coef)[:, :count]
    assert got.shape == (3, count)
    for row, e, c in zip(got, energies, coef):
        want = _direct_phase_product(times, e, c)
        assert np.abs(row - want).max() <= 1e-12
        assert np.abs(np.abs(row) ** 2 - np.abs(want) ** 2).max() <= 1e-12


@pytest.mark.parametrize("spec,target", [
    (GraphSpec(family=Family.DSG, g=5), 0),
    (GraphSpec(family=Family.TORUS, L=5, d=4), 0),
], ids=lambda x: x.label if isinstance(x, GraphSpec) else str(x))
def test_uniform_grid_success_matches_direct_product(spec, target):
    graph = build(spec)
    prob = SearchProblem(graph, target, 0.15)
    times = np.linspace(1.5, 4000.0, 4001)
    want = np.abs(_direct_phase_product(times, *_success_spectrum(prob))) ** 2
    assert np.abs(success_probability(prob, times) - want).max() <= 1e-12


def test_non_uniform_grid_and_scalar_time_take_the_direct_product():
    """A geomspace grid and a scalar t split as (t, (0,)), the direct
    product, and give the direct product's pi within 1e-15."""
    graph = _graph(Family.DSG, g=4)
    prob = SearchProblem(graph, 0, 0.4)
    energies, coef = _success_spectrum(prob)
    times = np.geomspace(1e-3, 500.0, 300)
    for t in (times, np.array([37.5])):
        a, b = _phase_split(t)
        assert a is t and b.tolist() == [0.0]
    want = np.clip(np.abs(_direct_phase_product(times, energies, coef)) ** 2,
                   0.0, 1.0)
    assert np.abs(success_probability(prob, times) - want).max() <= 1e-15
    scalar = success_probability(prob, 37.5)
    assert isinstance(scalar, float)
    assert abs(scalar - float(np.clip(np.abs(_direct_phase_product(
        np.array([37.5]), energies, coef)) ** 2, 0.0, 1.0)[0])) <= 1e-15


def test_success_grid_csv_bytes_match_per_cell_formatting():
    rng = np.random.default_rng(5)
    grid = SuccessGrid(
        gammas=np.geomspace(1e-3, 7.0, 5), times=np.linspace(0.0, 1e3, 9),
        probabilities=rng.random((5, 9)) ** 7,
        t_star=np.zeros(5), pi_star=np.zeros(5))
    matrix = ["gamma_by_t," + ",".join(f"{t:.17g}" for t in grid.times)]
    long = ["gamma,t,pi"]
    for g, row in zip(grid.gammas, grid.probabilities):
        matrix.append(f"{g:.17g}," + ",".join(f"{p:.17g}" for p in row))
        long.extend(f"{g:.17g},{t:.17g},{p:.17g}"
                    for t, p in zip(grid.times, row))
    assert grid.to_matrix_csv() == "\n".join(matrix) + "\n"
    assert grid.to_long_csv() == "\n".join(long) + "\n"


def _period_by_loop(t, p):
    """oscillation_period with the peak loop it had before the search was
    vectorised, and its vertex of the parabola through three samples."""
    peaks = []
    for i in range(1, t.size - 1):
        if p[i] > p[i - 1] and p[i] >= p[i + 1]:
            peaks.append(i)
            if len(peaks) == 2:
                break
    if len(peaks) < 2:
        return None

    def refine(i):
        h0, h1 = t[i] - t[i - 1], t[i + 1] - t[i]
        rise, fall = p[i] - p[i - 1], p[i] - p[i + 1]
        return float(t[i] + 0.5 * (h1 * h1 * rise - h0 * h0 * fall)
                     / (h1 * rise + h0 * fall))

    return refine(peaks[1]) - refine(peaks[0])


@pytest.mark.parametrize("seed", range(40))
def test_oscillation_period_matches_peak_loop(seed):
    """Coarse levels make plateaus and ties, where the strict left and
    non-strict right comparisons decide."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 12))
    times = np.linspace(0.0, 1.0, size)
    probs = rng.integers(0, 3, size) / 4.0
    assert oscillation_period(times, probs) == _period_by_loop(times, probs)

def test_gamma_max_search_complete_smoke():
    n = 64
    g = _graph(Family.COMPLETE, n=n)
    times = np.linspace(0.0, 2.0 * math.pi * math.sqrt(n), 129)
    res = gamma_max_search(g, 0, 1.0 / n, times, span=2.0, coarse=9)
    assert res.gamma == pytest.approx(1.0 / n, rel=0.05)
    assert res.pi_max > 0.99


@pytest.mark.parametrize("coarse,rel_tol", [
    (9, 2e-3), (3, 2e-3), (4, 2e-3), (9, 1e-300),
], ids=["coarse9", "coarse3", "coarse4", "float_resolution"])
def test_gamma_max_search_refines_on_stacked_grids(coarse, rel_tol,
                                                   monkeypatch):
    """On the 4-torus L = 5: every eigensolve is a stack of a whole grid,
    coarse rows then max(coarse, 5) per refinement, and none goes through
    success_probability.  Three- and four-point grids end too, as does a
    rel_tol below the floats' resolution.  The result is a row the search
    solved: pi_max is success_probability's maximum at gamma, bit for bit."""
    graph = _graph(Family.TORUS, L=5, d=4)
    times = np.linspace(0.0, 156.0, 321)
    shapes = []
    real_eigh = engine.eigh

    def spy(a, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-row success_probability call ran")
    with monkeypatch.context() as patch:
        patch.setattr(engine, "eigh", spy)
        patch.setattr(engine, "success_probability", refuse)
        res = gamma_max_search(graph, 0, 0.1491, times, span=1.3,
                               coarse=coarse, rel_tol=rel_tol)
    k = target_measure(graph, 0).group_eigenvalues.size
    rows = max(coarse, 5)
    assert len(shapes) > 1
    assert shapes == [(coarse, k, k)] + [(rows, k, k)] * (len(shapes) - 1)
    if (coarse, rel_tol) == (9, 2e-3):
        assert len(shapes) == 5
    pi = success_probability(SearchProblem(graph, 0, res.gamma), times)
    assert res.pi_max == pi.max() and res.t_star == times[np.argmax(pi)]
    assert res.pi_max > 0.7


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": -1.0}, {"rel_tol": 0.0}, {"rel_tol": math.nan},
    {"span": 1.0}, {"span": 0.5}, {"span": math.inf}, {"span": math.nan},
    {"times": [0.0, math.nan, 2.0]}, {"times": [0.0, 1.0, math.inf]},
    {"times": [2.0, 1.0, 0.0]}, {"gamma_center": -0.1},
    {"gamma_center": math.inf}, {"coarse": 2},
], ids=str)
def test_gamma_max_search_refuses_bad_inputs(kwargs, monkeypatch):
    """ConfigError before any work, naming the input; with rel_tol <= 0 no
    bracket of couplings would ever be narrow enough."""
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    message = {"rel_tol": "rel_tol must be positive",
               "span": "span must be finite and above 1",
               "times": "times must be finite|time grid must be ascending",
               "gamma_center": "gamma_center must be positive and finite",
               "coarse": "coarse grid needs at least three points"}[
        next(iter(kwargs))]
    kwargs = {"times": np.linspace(0.0, 10.0, 5), "gamma_center": 0.1,
              **kwargs}
    times, center = kwargs.pop("times"), kwargs.pop("gamma_center")
    with pytest.raises(ConfigError, match=message):
        gamma_max_search(_graph(Family.COMPLETE, n=8), 0, center, times,
                         **kwargs)


@pytest.mark.parametrize("gammas,times,message", [
    ([], [0.0, 1.0], "success grid needs a nonempty coupling grid"),
    ([0.1], [0.0, 2.0, 1.0], "time grid must be ascending"),
], ids=["no_couplings", "descending_times"])
def test_success_grid_refuses_bad_grids(gammas, times, message, monkeypatch):
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    with pytest.raises(ConfigError, match=message):
        success_grid(_graph(Family.COMPLETE, n=8), 0, gammas, times)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_refused(bad, monkeypatch):
    graph = _graph(Family.COMPLETE, n=8)
    problem = SearchProblem(graph, 0, 0.1)
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    for call in (lambda: success_grid(graph, 0, [0.1], [0.0, bad]),
                 lambda: success_probability(problem, bad),
                 lambda: success_probability(problem, [0.0, bad]),
                 lambda: propagate_krylov(graph, 0, 0.1, [0.0, 1.0, bad])):
        with pytest.raises(ConfigError, match="times must be finite"):
            call()


@pytest.mark.parametrize("bad", [[[0.0, 1.0], [2.0, 3.0]], [[0.0]],
                                 [[0.0, 1.0], [2.0]]])
def test_times_that_are_not_one_dimensional_are_refused(bad, monkeypatch):
    """A 2-D time array, or a ragged one, is a ConfigError in every caller
    of the time check, before the measure is computed."""
    graph = _graph(Family.DSG, g=3)
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    for call in (lambda: success_probability(SearchProblem(graph, 0, 0.3),
                                             bad),
                 lambda: success_grid(graph, 0, [0.3], bad),
                 lambda: gamma_max_search(graph, 0, 0.3, bad),
                 lambda: propagate_krylov(graph, 0, 0.3, bad)):
        with pytest.raises(ConfigError, match="1-D sequence"):
            call()


def test_an_empty_time_list_is_refused():
    graph = _graph(Family.COMPLETE, n=8)
    for call in (lambda: success_probability(SearchProblem(graph, 0, 0.1), []),
                 lambda: success_grid(graph, 0, [0.1], []),
                 lambda: propagate_krylov(graph, 0, 0.1, [])):
        with pytest.raises(ConfigError, match="no times requested"):
            call()


def test_probabilities_are_checked_clipped_and_refused_on_nan():
    """Roundoff past [0, 1] within 1e-9 is clipped; anything else, NaN
    included, is a NumericalError whose message prints plain floats."""
    probs = np.array([-1e-10, 0.5, 1.0 + 1e-10])
    assert engine._probabilities(probs, "p").tolist() == [0.0, 0.5, 1.0]
    for bad, shown in (([0.5, math.nan], "[nan, nan]"),
                       ([np.float64(1.1)], "[1.1, 1.1]"),
                       ([-0.25, 0.5], "[-0.25, 0.5]")):
        with pytest.raises(NumericalError) as info:
            engine._probabilities(np.array(bad), "p")
        assert str(info.value) == f"p left [0, 1]: range {shown}"


def test_a_search_needs_two_nodes():
    """Every measure-based observable of a one-node graph is a ConfigError;
    the propagator, which needs no measure, gives pi = 1."""
    graph = Graph.from_edges(1, [])
    problem = SearchProblem(graph, 0, 1.0)
    for call in (lambda: target_measure(graph, 0),
                 lambda: spectral_sums(laplacian_decomposition(graph), 0),
                 lambda: critical_gamma(graph, 0),
                 lambda: measure_overlaps(problem),
                 lambda: success_probability(problem, [0.0, 1.0])):
        with pytest.raises(ConfigError, match="a search needs at least two "
                                              "nodes"):
            call()
    assert propagate_krylov(graph, 0, 1.0, [0.0, 2.0]).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("gamma", [1e308, 4.5e307])
def test_a_coupling_whose_h_overflows_is_refused(gamma, monkeypatch):
    """dsg g3 has degree 4 at most: 2 gamma 4 + 1 overflows for both, while
    gamma itself is finite.  The refusal comes before any measure."""
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    graph = _graph(Family.DSG, g=3)
    message = (f"gamma={gamma!r} overflows H: its bound 2 gamma max_degree "
               f"+ 1 is not finite")
    for call in (lambda: SearchProblem(graph, 0, gamma),
                 lambda: SearchProblem(graph, 0, np.float64(gamma)),
                 lambda: success_grid(graph, 0, [1.0, gamma], [0.0, 1.0]),
                 lambda: propagate_krylov(graph, 0, gamma, [0.0, 1.0])):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message
    SearchProblem(graph, 0, 1e307)


def test_verify_bounds_clean_on_generic_target():
    g = _graph(Family.DSG, g=3)
    report = verify_bounds(g, 0)
    assert report.all_satisfied
    assert not report.failures()
    names = {c.name for c in report.checks}
    assert "s_psi0_sq_above_floor" in names
    assert "resolvent_norm_e0" in names
    d = report.to_dict()
    assert d["n"] == g.n and len(d["checks"]) == len(report.checks)


def test_verify_bounds_refuses_an_empty_coupling_list(monkeypatch):
    """Before the measure; it used to report no checks, all satisfied."""
    monkeypatch.setattr(engine, "target_measure", _no_measure)
    for gammas in ([], np.array([])):
        with pytest.raises(ConfigError, match="nonempty coupling list"):
            verify_bounds(_graph(Family.DSG, g=3), 0, gammas=gammas)


def test_verify_bounds_skips_floor_on_degenerate_axis():
    g = _graph(Family.CAYLEY_TREE, g=3)
    report = verify_bounds(g, 0)
    skipped = [c for c in report.checks if c.satisfied is None]
    assert skipped, "expected the two-level floor bound to be waived"
    assert all("degenerate" in c.note for c in skipped)
    assert report.all_satisfied
