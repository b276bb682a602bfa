"""Dense routes kept as test oracles: full eigendecompositions of the
N x N search Hamiltonian, against which the measure routes of the engine
are checked."""

import math

import numpy as np

from ctqwlab.engine import OverlapRecord, SearchProblem, _gershgorin_spread, \
    build_hamiltonian
from ctqwlab.spectra import DEGENERACY_RTOL, eigh, group_labels


def hamiltonian_decomposition(problem: SearchProblem
                              ) -> tuple[np.ndarray, np.ndarray]:
    return eigh(build_hamiltonian(problem))


def evolve_state(problem: SearchProblem, t: float) -> np.ndarray:
    """exp(-i H t) |s> from a full dense decomposition of H."""
    values, vectors = hamiltonian_decomposition(problem)
    s_amp = vectors.T @ np.full(problem.n, 1.0 / math.sqrt(problem.n))
    return vectors @ (np.exp(-1j * values * t) * s_amp)


def full_solve_overlaps(problem: SearchProblem) -> OverlapRecord:
    """The record of ``engine.overlaps`` from a full dense eigensolve of H,
    grouped under the same tolerance."""
    values, vectors = np.linalg.eigh(build_hamiltonian(problem))
    labels = group_labels(values,
                          DEGENERACY_RTOL * _gershgorin_spread(problem))
    one = labels == 1
    s_sq = vectors.sum(axis=0) ** 2 / problem.n
    w_sq = vectors[problem.target, :] ** 2
    return OverlapRecord(
        gamma=problem.gamma, e0=values[0], e1=values[one][0],
        s_psi0_sq=s_sq[0], s_psi1_sq=s_sq[one].sum(),
        w_psi0_sq=w_sq[0], w_psi1_sq=w_sq[one].sum(),
        e1_multiplicity=int(one.sum()))


def dense_success(problem: SearchProblem, times) -> np.ndarray:
    """pi(t) = |<w| exp(-i H t) |s>|^2 over a time grid from one full dense
    decomposition of H."""
    values, vectors = hamiltonian_decomposition(problem)
    coef = vectors[problem.target, :] * \
        vectors.sum(axis=0) / math.sqrt(problem.n)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), values))
    return np.abs(phases @ coef) ** 2
