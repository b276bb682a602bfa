"""Dense eigensolver wrapper, grouped decompositions, spectral sums and the
amplitude-exponent fit."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from ctqwlab.analysis import fit_scaling
from ctqwlab.errors import ConfigError, DenseGuardError, dense_guard
from ctqwlab.graphs import (
    Family,
    Graph,
    GraphSpec,
    build,
    cartesian_product,
    default_target,
)
from ctqwlab.spectra import (
    degeneracy_groups,
    eigh,
    fit_alpha,
    laplacian_decomposition,
    spectral_sums,
    spectrum_csv,
    target_measure,
)
from graph_cases import gnp


def _spec(family, **kw):
    return GraphSpec(family=family, **kw)


def _measures(specs):
    return [target_measure(build(s), default_target(s)) for s in specs]


def test_eigh_reconstructs_matrix():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12))
    m = (m + m.T) / 2.0
    vals, vecs = eigh(m)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(12), atol=1e-12)


@pytest.mark.parametrize("spec, target", [
    (_spec(Family.DSG, g=4), 0),
    (_spec(Family.TFRACTAL, g=4), 5),
    (_spec(Family.TORUS, L=5, d=2), 0),
])
def test_observables_ignore_eigenvector_signs(monkeypatch, spec, target):
    """Negating eigenvector columns leaves the target measure and pi(t)
    bitwise unchanged: each reads a column only through products of two
    of its own entries, and IEEE negation is exact."""
    from ctqwlab import spectra
    from ctqwlab.engine import SearchProblem, success_probability

    times = np.linspace(0.0, 40.0, 64)

    def observe():
        graph = build(spec)  # a new Graph object, so nothing is memoized
        return (target_measure(graph, target),
                success_probability(SearchProblem(graph, target, 0.7), times))

    ref_sums, ref_probs = observe()
    rng = np.random.default_rng(5)
    real = spectra.sla.eigh
    flips = []

    def flipping(*args, **kwargs):
        values, vectors = real(*args, **kwargs)
        signs = rng.choice([-1.0, 1.0], size=vectors.shape[1])
        flips.append(int(np.sum(signs < 0)))
        return values, vectors * signs

    monkeypatch.setattr(spectra.sla, "eigh", flipping)
    sums, probs = observe()
    assert len(flips) == 2 and min(flips) > 0  # L and the K x K matrix
    for name in ("xi1", "xi2", "max_amp_sq"):
        assert getattr(sums, name) == getattr(ref_sums, name)
    for name in ("group_eigenvalues", "multiplicities", "group_amp_sq"):
        assert np.array_equal(getattr(sums, name), getattr(ref_sums, name))
    assert np.array_equal(probs, ref_probs)


def test_solvers_return_scipy_evd_bit_for_bit():
    """eigh, on one matrix and on a stack, and laplacian_decomposition
    return scipy's divide-and-conquer pair bit for bit, and nothing else."""
    import scipy.linalg as sla

    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 9, 9))
    stack = a + np.swapaxes(a, -1, -2)
    lap = build(_spec(Family.DSG, g=3)).laplacian()
    for got, matrix in ((eigh(stack[0]), stack[0]), (eigh(stack), stack),
                        (laplacian_decomposition(
                            build(_spec(Family.DSG, g=3))), lap)):
        want = sla.eigh(matrix, driver="evd")
        assert len(got) == 2
        for array, ref in zip(got, want):
            assert array.dtype == ref.dtype and array.shape == ref.shape
            assert np.array_equal(array, ref)


def test_eigh_solves_a_stack_and_checks_every_slice():
    """A (2, 3, n, n) stack gives each slice's own decomposition, and so its
    group labels, bit for bit; a stack past the guard on n is refused."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 6, 6))
    stack = a + np.swapaxes(a, -1, -2)
    stack[1, 2] = np.diag([0.0, 1.0, 1.0, 2.0, 3.0, 3.0])
    values, vectors = eigh(stack)
    assert values.shape == (2, 3, 6)
    assert vectors.shape == (2, 3, 6, 6)
    labels = degeneracy_groups(values)
    for index in np.ndindex(2, 3):
        one_values, one_vectors = eigh(stack[index])
        assert np.array_equal(values[index], one_values)
        assert np.array_equal(vectors[index], one_vectors)
        assert np.array_equal(labels[index], degeneracy_groups(one_values))
    assert labels[1, 2].tolist() == [0, 1, 1, 2, 3, 3]
    with pytest.raises(DenseGuardError), dense_guard(10):
        eigh(np.zeros((4, 20, 20)))


def test_eigh_inputs_are_symmetric_bit_for_bit(monkeypatch):
    """eigh checks no symmetry, so its two builders must form it: the
    quotient Laplacian (-M_ij / sqrt(s_i s_j), M_ij = s_i counts_ij an
    exact integer equal to M_ji) and the success stacks (gamma diag(lam)
    - z z^T, z_i z_j and z_j z_i one IEEE product).  On fresh graphs of
    every route of the measure, every matrix either hands to eigh is
    square, float64 and equal to its transpose bit for bit."""
    from ctqwlab import engine, spectra
    from ctqwlab.engine import success_grid

    calls = {"quotient": 0, "success": 0}

    def spy(builder, real):
        def checked(matrix):
            assert matrix.dtype == np.float64 and matrix.ndim >= 2
            assert matrix.shape[-1] == matrix.shape[-2]
            assert np.array_equal(
                matrix.view(np.uint64),
                np.swapaxes(matrix, -1, -2).view(np.uint64))
            calls[builder] += 1
            return real(matrix)
        return checked

    monkeypatch.setattr(spectra, "eigh", spy("quotient", spectra.eigh))
    monkeypatch.setattr(engine, "eigh", spy("success", engine.eigh))
    cases = [(build(spec), default_target(spec), route) for spec, route in (
        (_spec(Family.DSG, g=4), "dense"),
        (_spec(Family.TORUS, L=6, d=2), "quotient"),
        (_spec(Family.COMPLETE, n=12), "quotient"),
        (_spec(Family.TFRACTAL, g=5), "tree"),
        (_spec(Family.CAYLEY_TREE, g=6), "tree"),
    )]
    cases.append((gnp(5, 40, 0.1), 13, "dense"))
    times = np.linspace(0.0, 30.0, 16)
    for graph, target, route in cases:
        assert target_measure(graph, target).route.split()[0] == route
        success_grid(graph, target, [0.05, 0.2, 0.7, 2.0], times)
    assert calls["quotient"] >= 1 and calls["success"] >= 1


def test_eigh_dense_guard():
    m = np.eye(20)
    with pytest.raises(DenseGuardError), dense_guard(10):
        eigh(m)


def test_laplacian_guard_refuses_before_forming_l(monkeypatch):
    from ctqwlab.engine import critical_gamma

    formed = []
    real = Graph.laplacian

    def spy(self):
        formed.append(self.n)
        return real(self)

    monkeypatch.setattr(Graph, "laplacian", spy)
    g = build(_spec(Family.DSG, g=3))
    with pytest.raises(DenseGuardError), dense_guard(10):
        laplacian_decomposition(g)
    with pytest.raises(DenseGuardError), dense_guard(10):
        critical_gamma(g, 0)
    assert formed == []
    with dense_guard(27):
        laplacian_decomposition(g)
    assert formed == [27]


def test_complete_graph_groups():
    g = build(_spec(Family.COMPLETE, n=5))
    sums = spectral_sums(laplacian_decomposition(g), target=0)
    assert list(sums.group_eigenvalues) == pytest.approx([0.0, 5.0],
                                                         abs=1e-12)
    assert list(sums.multiplicities) == [1, 4]


@pytest.mark.parametrize("spec", [
    _spec(Family.COMPLETE, n=9),
    _spec(Family.DSG, g=3),
    _spec(Family.TFRACTAL, g=3),
    _spec(Family.CAYLEY_TREE, g=3),
    _spec(Family.TORUS, L=4, d=2),
    _spec(Family.CHAIN, L=9, periodic=False),
])
def test_laplacian_psd_zero_row_sums(spec):
    g = build(spec)
    lap = g.laplacian()
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    vals = np.linalg.eigvalsh(lap)
    assert vals[0] > -1e-10
    assert abs(vals[0]) < 1e-10          # connected: single zero mode
    assert vals[1] > 1e-10


def test_product_spectrum_is_minkowski_sum():
    """Eigenvalues of a cartesian product are all pairwise sums of the
    factor eigenvalues."""
    a = build(_spec(Family.DSG, g=2))
    b = build(_spec(Family.CHAIN, L=3, periodic=False))
    prod = cartesian_product(a, b)
    got = np.sort(np.linalg.eigvalsh(prod.laplacian()))
    va = np.linalg.eigvalsh(a.laplacian())
    vb = np.linalg.eigvalsh(b.laplacian())
    want = np.sort(np.add.outer(va, vb).ravel())
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_complete_graph_closed_sums(n):
    dec = laplacian_decomposition(build(_spec(Family.COMPLETE, n=n)))
    sums = spectral_sums(dec, target=0)
    nonzero = dec[0][1:]
    assert math.isclose(np.sum(1.0 / nonzero), (n - 1) / n, rel_tol=1e-12)
    assert math.isclose(np.sum(1.0 / nonzero**2), (n - 1) / n**2,
                        rel_tol=1e-12)
    assert math.isclose(sums.xi1, (n - 1) / n**2, rel_tol=1e-12)
    assert math.isclose(sums.xi2, (n - 1) / n**3, rel_tol=1e-12)
    assert math.isclose(sums.max_amp_sq, 1.0 / n, rel_tol=1e-12)


@pytest.mark.parametrize("spec", [
    _spec(Family.TORUS, L=4, d=1),
    _spec(Family.TORUS, L=3, d=2),
    _spec(Family.TORUS, L=4, d=3),
])
def test_torus_flat_amplitude(spec):
    """Translation invariance spreads every eigenvector group uniformly, so
    the dominant per-mode squared amplitude is exactly 1/N."""
    g = build(spec)
    sums = spectral_sums(laplacian_decomposition(g), target=0)
    assert math.isclose(sums.max_amp_sq, 1.0 / g.n, rel_tol=1e-12)


def test_sums_match_plain_eigenvalue_sums():
    g = build(_spec(Family.DSG, g=3))
    sums = spectral_sums(laplacian_decomposition(g), target=0)
    nonzero = np.linalg.eigvalsh(g.laplacian())[1:]
    lam, mult = sums.group_eigenvalues[1:], sums.multiplicities[1:]
    assert math.isclose(np.sum(mult / lam), np.sum(1.0 / nonzero),
                        rel_tol=1e-9)
    assert math.isclose(np.sum(mult / lam**2), np.sum(1.0 / nonzero**2),
                        rel_tol=1e-9)
    # eigenvalues below one make the inverse-square sum dominate
    assert sums.xi2 > sums.xi1 > 0


def test_spectral_sums_rejects_disconnected():
    # two disjoint edges: no Graph holds them, so the Laplacian is
    # decomposed directly
    adj = sp.csr_matrix(
        (np.ones(4), ([0, 1, 2, 3], [1, 0, 3, 2])), shape=(4, 4))
    with pytest.raises(ConfigError, match="disconnected"):
        Graph(n=4, adjacency=adj)
    dec = eigh(np.diag(np.ones(4)) - adj.toarray())
    with pytest.raises(ConfigError, match="degenerate"):
        spectral_sums(dec, target=0)


def test_spectral_sums_rejects_non_laplacian():
    g = build(_spec(Family.COMPLETE, n=4))
    shifted = g.laplacian() + np.eye(4)      # no zero mode any more
    dec = eigh(shifted)
    with pytest.raises(ConfigError):
        spectral_sums(dec, target=0)


def test_spectral_sums_rejects_bad_target():
    dec = laplacian_decomposition(build(_spec(Family.COMPLETE, n=4)))
    with pytest.raises(ConfigError):
        spectral_sums(dec, target=4)


def test_fit_alpha_torus_exact():
    """alpha is the exponent of fit_scaling's power fit of max_amp_sq
    against N, bit for bit; on the torus max_amp_sq = 1/N exactly."""
    measures = _measures([_spec(Family.TORUS, L=L, d=2)
                          for L in (4, 6, 8, 10)])
    alpha = fit_alpha(measures)
    fit = fit_scaling([(m.n, m.max_amp_sq) for m in measures], "power")
    assert type(alpha) is float and alpha == fit.params["beta"]
    assert math.isclose(alpha, -1.0, abs_tol=1e-9)
    assert math.isclose(fit.params["c"], 1.0, rel_tol=1e-9)
    assert fit.residual < 1e-9


def test_fit_alpha_validation():
    with pytest.raises(ConfigError, match="at least 3 points"):
        fit_alpha(_measures([_spec(Family.TORUS, L=4, d=2)]))
    with pytest.raises(ConfigError, match="distinct"):
        fit_alpha(_measures([_spec(Family.TORUS, L=4, d=2)] * 3))


def test_loglog_fit_recovers_powerlaw():
    """The power model is one lstsq solve of log y against log x: its
    parameters and rms residual equal that solve's bit for bit, on an
    exact law, which it recovers, and on scattered points."""
    x = np.array([8.0, 16.0, 32.0, 64.0])
    exact = fit_scaling(list(zip(x, 3.0 * x**-0.75)), "power")
    assert math.isclose(exact.params["beta"], -0.75, abs_tol=1e-12)
    assert math.isclose(exact.params["c"], 3.0, rel_tol=1e-12)
    assert exact.residual < 1e-12
    for y in (3.0 * x**-0.75, np.array([0.31, 0.17, 0.083, 0.052])):
        fit = fit_scaling(list(zip(x, y)), "power")
        design = np.column_stack([np.log(x), np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
        rms = float(np.sqrt(np.mean((np.log(y) - design @ coef) ** 2)))
        assert (fit.params["beta"], fit.params["c"], fit.residual) == \
            (float(coef[0]), math.exp(float(coef[1])), rms)


def test_spectrum_csv_format():
    g = build(_spec(Family.COMPLETE, n=4))
    values, _ = laplacian_decomposition(g)
    text = spectrum_csv(values)
    lines = text.strip().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity_group"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1])) < 1e-12      # raw zero mode, not rounded
    assert first[2] == "0"
    assert [row.split(",")[2] for row in lines[2:]] == ["1", "1", "1"]
    # round trip at 17 significant digits is exact for doubles
    for row in lines[1:]:
        _, val, _ = row.split(",")
        assert float(f"{float(val):.17g}") == float(val)


def test_spectral_sums_pin_the_zero_mode():
    """L 1 = 0 exactly, so the zero mode is stored as exactly 0 with weight
    exactly 1/N, not as the eigensolver's roundoff."""
    dec = laplacian_decomposition(build(_spec(Family.DSG, g=3)))
    sums = spectral_sums(dec, 0)
    assert sums.group_eigenvalues[0] == 0.0
    assert sums.group_amp_sq[0] == 1.0 / 27
