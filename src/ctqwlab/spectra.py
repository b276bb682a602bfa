"""Dense symmetric eigendecomposition with degeneracy labels, plus the
target's Laplacian spectral measure that controls the search transition.

Degenerate subspaces deserve care: individual eigenvectors inside one are
basis-dependent noise, so amplitude information is only ever reported
summed over a degeneracy group.  Groups are detected with a relative
tolerance of 1e-8 times the spectral range.  Eigenvector signs are left
as LAPACK returns them: every observable reads a column only through
products of two of its own entries, so no output depends on them.  The
Laplacian is decomposed in its own memory by LAPACK's divide-and-conquer
driver ``evd`` (Gu & Eisenstat, SIMAX 16, 172, 1995), which is several
times faster than scipy's default ``evr`` on the clustered spectra of
fractal Laplacians.

:func:`target_measure` hands the measure to the engine and the CLI: it
decomposes L once per ``Graph`` object and target and keeps only the
K-sized :class:`SpectralSums`, never the eigenvectors.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import (
    DEFAULT_DENSE_GUARD,
    ConfigError,
    NumericalError,
    check_dense_guard,
)
from .graphs import Graph, NodeId

# Relative spacing below which adjacent eigenvalues are treated as one
# degenerate group.
DEGENERACY_RTOL = 1e-8
# Required symmetry of eigh inputs, relative to the largest entry.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a real symmetric matrix, ascending, with eigenvector
    signs as LAPACK returns them.

    ``group_index[k]`` labels the degeneracy group of eigenvalue k (see
    :func:`degeneracy_groups`).
    """

    eigenvalues: np.ndarray   # (n,) float64, ascending
    eigenvectors: np.ndarray  # (n, n) float64, column k pairs with eigenvalue k
    group_index: np.ndarray   # (n,) int64


def group_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Degeneracy-group label of each ascending eigenvalue: a new group
    starts wherever the gap to the previous value exceeds ``tol``."""
    labels = np.zeros(values.size, dtype=np.int64)
    labels[1:] = np.cumsum(np.diff(values) > tol)
    return labels


def degeneracy_groups(values: np.ndarray) -> np.ndarray:
    """Group labels of an ascending spectrum under the relative tolerance
    ``DEGENERACY_RTOL`` times its range."""
    spread = float(values[-1] - values[0]) if values.size else 0.0
    return group_labels(values, DEGENERACY_RTOL * spread)


def eigh(matrix: np.ndarray, *,
         dense_guard: int | None = DEFAULT_DENSE_GUARD) -> SpectralDecomposition:
    """Full eigendecomposition of a real symmetric matrix (LAPACK ``evd``).

    Refuses matrices above the dense guard and inputs that are not
    symmetric to within 1e-12 of their largest entry.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("eigh needs a square matrix")
    check_dense_guard(m.shape[0], dense_guard, "dense eigendecomposition")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    asym = float(np.abs(m - m.T).max()) if m.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise ConfigError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    values, vectors = sla.eigh(m, driver="evd")
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors,
                                 group_index=degeneracy_groups(values))


def laplacian_decomposition(graph: Graph, *,
                            dense_guard: int | None = DEFAULT_DENSE_GUARD
                            ) -> SpectralDecomposition:
    """Eigendecomposition of the graph Laplacian L = Z - A; the guard is
    checked on N before L is formed.

    L is formed here, exactly symmetric, and read by nothing else, so it is
    handed to LAPACK as its Fortran-ordered transpose and the eigenvectors
    overwrite it: no copy of L is made.
    """
    check_dense_guard(graph.n, dense_guard, "dense eigendecomposition")
    values, vectors = sla.eigh(graph.laplacian().T, driver="evd",
                               overwrite_a=True, check_finite=False)
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors,
                                 group_index=degeneracy_groups(values))


@dataclass(frozen=True, eq=False)
class SpectralSums:
    """Inverse-eigenvalue sums of a Laplacian, target-weighted and plain.

    With a_k = <w|phi_k> over the nonzero Laplacian modes:

    * ``xi1``, ``xi2``  : sum of |a_k|^2 / lam_k^j (j = 1, 2)
    * ``zeta1``, ``zeta2``: sum of 1 / lam_k^j
    * ``max_amp_sq``    : largest per-mode |a_k|^2, with degenerate groups
                          contributing their basis-independent average
                          (group-summed weight / multiplicity)

    Per-group data keep only the group-summed weights; members of a
    degenerate group are not individually meaningful.
    """

    n: int
    target: NodeId
    zeta1: float
    zeta2: float
    xi1: float
    xi2: float
    max_amp_sq: float
    group_eigenvalues: np.ndarray  # per group, ascending; first entry 0
    multiplicities: np.ndarray     # int64 per group
    group_amp_sq: np.ndarray       # summed |a_k|^2 per group; first 1/N


def spectral_sums(dec: SpectralDecomposition, target: NodeId) -> SpectralSums:
    """Compute :class:`SpectralSums` from a Laplacian decomposition.

    The lowest eigenvalue must be the simple zero mode of a connected
    graph; its amplitude must match the uniform value 1/N to 1e-10.  Both
    are then set to their exact values, 0 and 1/N (L 1 = 0 holds exactly),
    so no eigensolver roundoff in the zero mode reaches gamma * lam_0.
    Group sums and means are taken in one pass over the contiguous runs
    of ``dec.group_index``.
    """
    values = dec.eigenvalues
    n = values.size
    if not (0 <= target < n):
        raise ConfigError(f"target {target} out of range for {n} nodes")
    starts = np.flatnonzero(np.diff(dec.group_index, prepend=-1))
    mults = np.diff(starts, append=n)
    zero_scale = max(1.0, float(np.abs(values[-1])))
    if abs(values[0]) > 1e-9 * zero_scale:
        raise ConfigError("lowest eigenvalue is not zero: not a Laplacian")
    if mults[0] != 1:
        raise ConfigError("zero eigenvalue is degenerate: graph is disconnected")
    amps = dec.eigenvectors[target, :]
    amp_sq = amps * amps
    group_amp_sq = np.add.reduceat(amp_sq, starts)
    group_vals = np.add.reduceat(values, starts) / mults
    uniform = 1.0 / n
    if abs(group_amp_sq[0] - uniform) > 1e-10:
        raise NumericalError(
            f"zero-mode weight {group_amp_sq[0]:.3e} deviates from 1/N"
        )
    group_vals[0] = 0.0
    group_amp_sq[0] = uniform
    lam = values[1:]
    w_sq = amp_sq[1:]
    zeta1 = float(np.sum(1.0 / lam))
    zeta2 = float(np.sum(1.0 / lam**2))
    xi1 = float(np.sum(w_sq / lam))
    xi2 = float(np.sum(w_sq / lam**2))
    per_mode = group_amp_sq[1:] / mults[1:]
    # target_measure shares one instance among all its callers.
    for arr in (group_vals, mults, group_amp_sq):
        arr.flags.writeable = False
    return SpectralSums(
        n=n, target=target, zeta1=zeta1, zeta2=zeta2, xi1=xi1, xi2=xi2,
        max_amp_sq=float(per_mode.max()),
        group_eigenvalues=group_vals, multiplicities=mults,
        group_amp_sq=group_amp_sq,
    )


# Measures per Graph object and target.  Keyed by identity, so a rebuilt
# graph computes its own; the entry goes when the graph is collected.
_MEASURES: weakref.WeakKeyDictionary[Graph, dict[NodeId, SpectralSums]] = \
    weakref.WeakKeyDictionary()


def target_measure(graph: Graph, target: NodeId, *,
                   dense_guard: int | None = DEFAULT_DENSE_GUARD
                   ) -> SpectralSums:
    """The target's Laplacian spectral measure, decomposed once per
    ``Graph`` object and target.  The dense guard is checked on every
    call, a cached one included."""
    check_dense_guard(graph.n, dense_guard, "dense eigendecomposition")
    per_graph = _MEASURES.setdefault(graph, {})
    if target not in per_graph:
        per_graph[target] = spectral_sums(
            laplacian_decomposition(graph, dense_guard=dense_guard), target)
    return per_graph[target]


# -- amplitude scaling --------------------------------------------------------


@dataclass(frozen=True)
class AlphaFit:
    """Power-law fit max_amp_sq ~= c * N^alpha across one family."""

    c: float
    alpha: float
    residual: float            # rms residual of the log-log fit
    sizes: tuple[int, ...]
    values: tuple[float, ...]  # max_amp_sq per size
    flagged: bool              # True when alpha falls outside [-1, 0)


def loglog_fit(x: Sequence[float], y: Sequence[float]
               ) -> tuple[float, float, float]:
    """Least-squares fit of log(y) = slope * log(x) + intercept.

    Returns (slope, intercept, rms residual in log space).
    """
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 2:
        raise ConfigError("log-log fit needs at least two points")
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(coef[1]), rms


def fit_alpha(measures: Sequence[SpectralSums]) -> AlphaFit:
    """Fit the size scaling of the largest target amplitude over a family,
    one target measure per graph size.

    Needs at least three measures of distinct sizes.  The fit is flagged
    (but still returned) when alpha leaves [-1, 0), the admissible window
    for the structures handled here.
    """
    if len(measures) < 3:
        raise ConfigError("alpha fit needs at least three graph sizes")
    sizes = [m.n for m in measures]
    values = [m.max_amp_sq for m in measures]
    if len(set(sizes)) < len(sizes):
        raise ConfigError("alpha fit needs distinct graph sizes")
    alpha, intercept, rms = loglog_fit(sizes, values)
    flagged = not (-1.0 - 1e-9 <= alpha < 0.0)
    return AlphaFit(c=float(np.exp(intercept)), alpha=alpha, residual=rms,
                    sizes=tuple(sizes), values=tuple(values), flagged=flagged)


# -- export -------------------------------------------------------------------


def spectrum_csv(eigenvalues: np.ndarray, group_index: np.ndarray) -> str:
    """CSV rows ``index,eigenvalue,multiplicity_group`` with 17 significant
    digits, matching the exact-spectrum export format."""
    lines = ["index,eigenvalue,multiplicity_group"]
    for k, (lam, grp) in enumerate(zip(eigenvalues.tolist(),
                                       group_index.tolist())):
        lines.append(f"{k},{lam:.17g},{int(grp)}")
    return "\n".join(lines) + "\n"
