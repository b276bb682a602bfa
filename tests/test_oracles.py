"""Closed-form reference results: complete-graph dynamics and the exact
triangle-fractal spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctqwlab.errors import ConfigError
from ctqwlab.oracles import (
    complete_success,
    decimation_identity_residuals,
    dsg_exact_spectrum,
    dsg_zeta_closed,
    dsg_zeta_direct,
)



def complete_success_large_n(n: int, t) -> np.ndarray:
    """Large-N limit of the tuned (gamma = 1/N) complete-graph search:
    pi(t) ~= sin^2(t / sqrt(N))."""
    return np.sin(np.asarray(t, dtype=np.float64) / math.sqrt(n)) ** 2


def dsg_zeta_asymptotic(g: int) -> tuple[float, float]:
    """Leading large-g behavior: zeta1 ~ (7/30) * N^(2/dt) and
    zeta2 ~ (1/150) * N^(4/dt) with N = 3^g and dt = 2*log3/log5, i.e.
    N^(2/dt) = 5^g."""
    return 7.0 / 30.0 * 5.0**g, 1.0 / 150.0 * 25.0**g


@given(st.integers(2, 500), st.floats(1e-6, 1e3))
def test_frequency_identity(n, gamma):
    """pi(t) has period 2 pi / b, b = sqrt((N gamma - 1)^2 + 4 gamma), and
    peaks at half of it."""
    b = math.sqrt((n * gamma - 1.0) ** 2 + 4.0 * gamma)
    period = 2.0 * math.pi / b
    times = np.linspace(0.0, period, 7)
    assert np.allclose(complete_success(n, gamma, times + period),
                       complete_success(n, gamma, times), rtol=0, atol=1e-12)
    peak = (1.0 + 4.0 * gamma * (n - 1) / b**2) / n
    assert math.isclose(complete_success(n, gamma, period / 2.0), peak,
                        rel_tol=1e-12)


@given(st.integers(2, 300), st.floats(1e-5, 50.0), st.floats(0.0, 500.0))
def test_two_written_forms_agree(n, gamma, t):
    """The implemented expression and an independently coded rearrangement
    (denominator written via 4 + gamma*(n - 1/gamma)**2) must coincide."""
    first = complete_success(n, gamma, t)
    freq = math.sqrt(4.0 * gamma + (n * gamma - 1.0) ** 2)
    other = (1.0 + 4.0 * (n - 1) * math.sin(t * freq / 2.0) ** 2
             / (4.0 + gamma * (n - 1.0 / gamma) ** 2)) / n
    assert math.isclose(first, other, rel_tol=1e-10, abs_tol=1e-12)


def test_grover_point_values():
    for n in (16, 64, 124):
        gamma = 1.0 / n
        t_half = math.pi * math.sqrt(n) / 2.0
        assert complete_success(n, gamma, 0.0) == pytest.approx(1.0 / n,
                                                                abs=1e-14)
        assert complete_success(n, gamma, t_half) == pytest.approx(1.0,
                                                                   abs=1e-10)
        assert complete_success(n, gamma, 2 * t_half) == pytest.approx(
            1.0 / n, abs=1e-10)


def test_large_n_limit():
    n = 40000
    times = np.linspace(0.0, 2.0 * math.pi * math.sqrt(n), 64)
    exact = complete_success(n, 1.0 / n, times)
    approx = complete_success_large_n(n, times)
    assert np.max(np.abs(exact - approx)) < 5.0 / n


def test_oracle_params_validation():
    with pytest.raises(ConfigError, match="complete-graph oracle needs n >= 2"):
        complete_success(1, 0.1, 0.0)
    with pytest.raises(ConfigError, match="gamma must be positive and finite"):
        complete_success(8, 0.0, 0.0)
    with pytest.raises(ConfigError, match="gamma must be positive and finite"):
        complete_success(8, float("nan"), 0.0)


# ----------------------------------------------------- exact fractal spectrum


def test_spectrum_base_case():
    spec = dsg_exact_spectrum(1)
    assert np.array_equal(spec.eigenvalues, [0.0, 3.0])
    assert np.array_equal(spec.multiplicities, [1, 2])
    assert spec.total == 3


@pytest.mark.parametrize("g", range(1, 8))
def test_spectrum_counts(g):
    spec = dsg_exact_spectrum(g)
    assert spec.total == 3**g
    assert spec.eigenvalues[0] == 0.0
    assert spec.multiplicities[0] == 1
    assert (np.diff(spec.eigenvalues) > 0).all()
    expanded = spec.expand()
    assert expanded.size == 3**g
    # trace of the Laplacian equals twice the edge count
    assert math.isclose(expanded.sum(), 3**g * 3 - 3, rel_tol=1e-12)


def test_spectrum_multiplicity_of_three():
    # eigenvalue 3 appears with multiplicity (3^(g-1) + 3) / 2 at each
    # generation (fresh copies only; decimation never lands on 3)
    for g in range(2, 7):
        spec = dsg_exact_spectrum(g)
        idx = int(np.argmin(np.abs(spec.eigenvalues - 3.0)))
        assert spec.eigenvalues[idx] == 3.0
        assert spec.multiplicities[idx] == (3 ** (g - 1) + 3) // 2


@pytest.mark.parametrize("g", range(1, 19))
def test_decimation_identities(g):
    r1, r2 = decimation_identity_residuals(g)
    assert r1 < 1e-14
    assert r2 < 1e-14


@pytest.mark.parametrize("g", range(2, 19))
def test_smallest_eigenvalue_maps_forward_to_three(g):
    """The smallest nonzero eigenvalue of generation g is the lower child
    of the smallest one before it, down to 3 at g = 1.  The forward map
    lam -> lam (5 - lam) only multiplies, so it checks the children
    without forming them, and it must bring it back to 3."""
    lam = dsg_exact_spectrum(g).eigenvalues[1]
    for _ in range(g - 1):
        lam = lam * (5.0 - lam)
    assert math.isclose(lam, 3.0, rel_tol=1e-14)


def test_zeta_generation_one():
    z1, z2 = dsg_zeta_closed(1)
    assert math.isclose(z1, 2.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(z2, 2.0 / 9.0, rel_tol=1e-15)


@pytest.mark.parametrize("g", range(1, 19))
def test_zeta_closed_vs_direct(g):
    closed = dsg_zeta_closed(g)
    direct = dsg_zeta_direct(g)
    for c, d in zip(closed, direct):
        assert math.isclose(c, d, rel_tol=1e-13)


def test_zeta_asymptotics():
    g = 9
    closed = dsg_zeta_closed(g)
    asym = dsg_zeta_asymptotic(g)
    assert math.isclose(closed[0], asym[0], rel_tol=0.01)
    assert math.isclose(closed[1], asym[1], rel_tol=0.01)


def test_spectrum_rejects_bad_generation():
    with pytest.raises(ConfigError):
        dsg_exact_spectrum(0)
    # Above g = 22, before the arrays that double with each generation.
    with pytest.raises(ConfigError, match="dsg spectrum needs g <= 22, not 23"):
        dsg_exact_spectrum(23)
    with pytest.raises(ConfigError):
        dsg_zeta_closed(0)


def test_decimation_residuals_reject_generation_zero():
    with pytest.raises(ConfigError, match="dsg spectrum needs g >= 1"):
        decimation_identity_residuals(0)
