"""Independent closed-form references for cross-checking the engine.

Two exactly solvable cases are covered:

* the complete graph, where the search Hamiltonian reduces to a 2x2 block
  and the success probability has an explicit sinusoidal form;
* the corner-glued triangle fractal (dsg), whose Laplacian spectrum is
  generated exactly by decimation, one array pass per generation, and
  yields closed forms for the inverse-eigenvalue sums.

Everything here is implemented independently of the spectral engine so the
two routes can disagree when one of them is wrong.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConfigError

# Generation g holds 3 * 2^(g-1) - 1 distinct values: 0.5 GB peak at g = 22.
DSG_MAX_G = 22

# -- complete graph -----------------------------------------------------------


def complete_success(n: int, gamma: float, t) -> np.ndarray | float:
    """Closed-form success probability on the complete graph.

    pi(t) = (1/N) * [1 + (4*gamma*(N-1) / b^2) * sin^2(t*b/2)]
    with b^2 = (N*gamma - 1)^2 + 4*gamma.  At gamma = 1/N this reaches 1 at
    t = pi*sqrt(N)/2 and returns to 1/N at t = pi*sqrt(N).  ConfigError
    unless n >= 2 and gamma is positive and finite.
    """
    if n < 2:
        raise ConfigError("complete-graph oracle needs n >= 2")
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ConfigError("gamma must be positive and finite")
    a = n * gamma - 1.0
    b = sqrt(a * a + 4.0 * gamma)
    t_arr = np.asarray(t, dtype=np.float64)
    amp = 4.0 * gamma * (n - 1) / (b * b)
    values = (1.0 + amp * np.sin(t_arr * b / 2.0) ** 2) / n
    return float(values) if np.isscalar(t) else values


# -- dsg exact spectrum ---------------------------------------------------------


@dataclass(frozen=True)
class ExactSpectrum:
    """Laplacian spectrum as (eigenvalue, multiplicity) pairs, ascending."""

    eigenvalues: np.ndarray     # distinct values, ascending
    multiplicities: np.ndarray  # int64, same length

    @property
    def total(self) -> int:
        return int(self.multiplicities.sum())

    def expand(self) -> np.ndarray:
        """Full eigenvalue array with repetitions, ascending."""
        return np.repeat(self.eigenvalues, self.multiplicities)


def _decimation_children(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) roots of mu * (5 - mu) = lam, with upper = (5 + sqrt(25
    - 4*lam))/2 and lower = lam / upper, the roots' product over upper; the
    form (5 - sqrt(25 - 4*lam))/2 cancels and loses small lam's precision."""
    upper = (5.0 + np.sqrt(25.0 - 4.0 * lam)) / 2.0
    return lam / upper, upper


def dsg_exact_spectrum(g: int) -> ExactSpectrum:
    """Exact Laplacian spectrum of the generation-g triangle fractal.

    Generation 1 is the triangle with spectrum {0, 3, 3}.  Each following
    generation keeps the simple eigenvalue 0, maps every nonzero eigenvalue
    to its two `_decimation_children` with inherited multiplicity, and adds
    fresh eigenvalues 3 and 5 with multiplicities (3^(g-1) + 3)/2 and
    (3^(g-1) - 1)/2.  Equal values merge once, at the end, by exact float
    equality.  Each eigenvalue holds to about 1e-15 relative through g = 18.
    ConfigError unless 1 <= g <= ``DSG_MAX_G``, before any array is formed.
    """
    if g < 1:
        raise ConfigError("dsg spectrum needs g >= 1")
    if g > DSG_MAX_G:
        raise ConfigError(f"dsg spectrum needs g <= {DSG_MAX_G}, not {g}")
    values, mults = np.array([3.0]), np.array([2], dtype=np.int64)
    for gen in range(2, g + 1):
        fresh = 3 ** (gen - 1)
        values = np.concatenate([*_decimation_children(values), [3.0, 5.0]])
        mults = np.concatenate([mults, mults,
                                [(fresh + 3) // 2, (fresh - 1) // 2]])
    values, inverse = np.unique(np.append(0.0, values), return_inverse=True)
    merged = np.zeros(values.size, dtype=np.int64)
    np.add.at(merged, inverse, np.append(1, mults))
    return ExactSpectrum(eigenvalues=values, multiplicities=merged)


def decimation_identity_residuals(g: int) -> tuple[float, float]:
    """Largest relative violations of the parent/child inverse-sum
    identities 1/lam+ + 1/lam- = 5/lam and 1/lam+^2 + 1/lam-^2 =
    (25 - 2*lam)/lam^2 over every nonzero eigenvalue of generation g.
    Residuals are scaled by the right-hand sides, which grow like 1/lam
    for the near-zero part of the spectrum."""
    lam = dsg_exact_spectrum(g).eigenvalues[1:]
    lo, hi = _decimation_children(lam)
    rhs1, rhs2 = 5.0 / lam, (25.0 - 2.0 * lam) / lam**2
    return (float(np.max(np.abs(1.0 / lo + 1.0 / hi - rhs1) / rhs1)),
            float(np.max(np.abs(1.0 / lo**2 + 1.0 / hi**2 - rhs2) / rhs2)))


def dsg_zeta_closed(g: int) -> tuple[float, float]:
    """Closed forms for the inverse-eigenvalue sums of the generation-g
    triangle fractal:

    zeta1 = (-3 - 4*3^g + 7*5^g) / 30
    zeta2 = (-13 - 14*3^g + 21*5^g + 6*25^g) / 900

    Evaluated in exact integer arithmetic before the final division;
    ConfigError from g = 220 on, where zeta2's numerator overflows a float.
    """
    if g < 1:
        raise ConfigError("dsg zeta needs g >= 1")
    z1_num = -3 - 4 * 3**g + 7 * 5**g
    z2_num = -13 - 14 * 3**g + 21 * 5**g + 6 * 25**g
    try:
        return z1_num / 30.0, z2_num / 900.0
    except OverflowError:
        raise ConfigError(f"dsg zeta at g = {g} overflows a float") from None


def dsg_zeta_direct(g: int) -> tuple[float, float]:
    """Same sums evaluated directly from the exact spectrum, as an
    independent route for equivalence tests."""
    spectrum = dsg_exact_spectrum(g)
    lam, mult = spectrum.eigenvalues[1:], spectrum.multiplicities[1:]
    return float(np.sum(mult / lam)), float(np.sum(mult / lam**2))
