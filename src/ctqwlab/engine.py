"""Search-Hamiltonian engine: H = gamma * L - |w><w|.

Every function here takes the target's Laplacian measure (group
eigenvalues lam_k, target weights a_k) from :func:`spectra.target_measure`,
which computes it once per ``Graph`` object and target, from the target's
equitable quotient when that halves N and from a dense decomposition of L
otherwise.  The levels |s> and |w> see are the roots of
F(E) = sum_k a_k / (gamma*lam_k - E) = 1; the others sit at some
gamma*lam_k.  :func:`measure_overlaps` solves for E0 and E1 in O(K) per
coupling, and the critical coupling is found on it.  Its two
confirmations and the bound audit solve the lowest levels of H in
growing windows (:func:`_window`) on the measure's route: the quotient H
when the measure came from the quotient, the dense H otherwise.  The
secular roots and the windows are two level sources of one loop
(:func:`_record`), which groups their levels under one tolerance, draws
more until E1's group is enclosed, and builds the
:class:`OverlapRecord`.  Success probabilities
come from the K x K matrix of the measure: all couplings of a grid in one
stacked eigensolve, then each row's phase sums as one complex ``zgemm``
on scipy's BLAS, of phases factored as t = a_r + b_q: a block of the grid
and an offset on a uniform grid (|t_j - t0 - j*h| <= 8 eps max|t|), the
times themselves and one zero offset otherwise; :func:`gamma_max_search`
narrows its coupling bracket by further such grids.  Past the dense guard,
:func:`propagate_krylov` reads pi(t) from Chebyshev moments <w|T_k|s> of
the sparse H, scaled by its Gershgorin interval: one real recurrence in
O(N) memory, no ``expm_multiply``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import zgemm

from .errors import (
    ConfigError,
    NoTransitionError,
    NumericalError,
    check_dense_guard,
)
from .graphs import Graph, NodeId
from .spectra import (
    DEGENERACY_RTOL,
    SpectralSums,
    eigh,
    group_labels,
    target_measure,
)

# Success probabilities are clipped into [0, 1] only after passing this
# slack, which covers eigensolver roundoff.
_PROB_SLACK = 1e-9
# A CSV cell; the writers format each value once, in whole-row templates.
_CELL = "%.17g"
# Relative width of the bracket that ends a secular root's offset from
# its pole and the crossing root search, the largest overlap difference
# accepted at a crossing, and the least relative offset of the two dense
# confirmations from the measure's crossing.
_EPS = float(np.finfo(float).eps)
_SECULAR_RTOL = 4.0 * _EPS
_MEASURE_RTOL = 1e-12
_RESIDUAL_TOL = 1e-6
_CONFIRM_RTOL = 1e-10
# The least normal float; a secular pole below it is subnormal.
_TINY = float(np.finfo(float).tiny)
# Columns of Miller's backward recurrence are scaled down past this size;
# below _X_FLOOR = a*t the propagator returns pi(0) = 1/N.
_MILLER_BIG = 2.0 ** 600
_X_FLOOR = 1e-100
# Largest temporary of one chunk of success-grid rows, in array elements:
# rows x K x K for the stack of H, or rows x K x (B + Q) for the phases of
# _phase_split's times and offsets: B + Q is T + 1 on a grid that is not
# uniform, and about 2 sqrt(T) on a uniform one.
_CHUNK_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class SearchProblem:
    """One search instance: a graph, a target node, and a coupling.  The
    coupling must be positive, with H's bound 2 gamma max_degree + 1 finite."""

    graph: Graph
    target: NodeId
    gamma: float

    def __post_init__(self) -> None:
        if not (0 <= self.target < self.graph.n):
            raise ConfigError(
                f"target {self.target} out of range for {self.graph.n} nodes"
            )
        gamma = float(self.gamma)
        if not (math.isfinite(gamma) and gamma > 0.0):
            raise ConfigError("gamma must be positive and finite")
        if not math.isfinite(2.0 * gamma * int(self.graph.degrees.max()) + 1.0):
            raise ConfigError(f"gamma={gamma!r} overflows H: its bound "
                              f"2 gamma max_degree + 1 is not finite")

    @property
    def n(self) -> int:
        return self.graph.n


def build_hamiltonian(problem: SearchProblem) -> np.ndarray:
    """Dense H = gamma * L - |w><w| (float64, symmetric), formed in the
    memory of a fresh L."""
    check_dense_guard(problem.n, "dense Hamiltonian")
    h = problem.graph.laplacian()
    h *= problem.gamma
    h[problem.target, problem.target] -= 1.0
    return h


def _uniform_state(n: int) -> np.ndarray:
    return np.full(n, 1.0 / math.sqrt(n))


def _probabilities(probs: np.ndarray, what: str) -> np.ndarray:
    """``probs`` clipped into [0, 1] in place, after a check that each lies
    in it within _PROB_SLACK (eigensolver roundoff); NumericalError on any
    other value, NaN included."""
    lo, hi = float(probs.min()), float(probs.max())
    if not (lo >= -_PROB_SLACK and hi <= 1.0 + _PROB_SLACK):
        raise NumericalError(f"{what} left [0, 1]: range [{lo}, {hi}]")
    return np.clip(probs, 0.0, 1.0, out=probs)


def _times(times) -> np.ndarray:
    """``times`` as a new 1-D float64 array; ConfigError unless it is a
    scalar or a 1-D sequence of numbers, nonempty and finite.  Each caller
    adds its own order rule."""
    try:
        t = np.array(times, dtype=np.float64, ndmin=1)
    except (TypeError, ValueError):
        t = None
    if t is None or t.ndim != 1:
        raise ConfigError("times must be a number or a 1-D sequence of them")
    if t.size == 0:
        raise ConfigError("no times requested")
    if not np.all(np.isfinite(t)):
        raise ConfigError("times must be finite")
    return t


def _gershgorin_spread(problem: SearchProblem) -> float:
    """Width of H's Gershgorin range, which bounds its spectral range; sets
    the degeneracy tolerance when only a few eigenvalues are computed.  Row
    i has centre gamma*d_i - [i=w] and radius gamma*d_i."""
    top = 2.0 * problem.gamma * problem.graph.degrees
    top[problem.target] -= 1.0
    return float(top.max()) + 1.0


@dataclass(frozen=True)
class OverlapRecord:
    """Overlaps of the uniform state |s> and the target |w> with the two
    lowest levels of H at one coupling.

    When E1 is degenerate the psi1 overlaps are summed over its whole
    eigenspace (the basis-independent quantity) and ``degenerate_e1`` is
    set.  E1 is the smallest eigenvalue strictly above E0 under the
    relative grouping tolerance.
    """

    gamma: float
    e0: float
    e1: float
    s_psi0_sq: float
    s_psi1_sq: float
    w_psi0_sq: float
    w_psi1_sq: float
    e1_multiplicity: int

    @property
    def degenerate_e1(self) -> bool:
        return self.e1_multiplicity > 1


def overlaps(problem: SearchProblem) -> OverlapRecord:
    """Level overlaps at one coupling from windows of the dense H
    (:func:`_window`), the independent route of graphs whose measure came
    from the dense decomposition of L; :func:`measure_overlaps` gives the
    same record in O(K)."""
    return _record(problem, _window(
        lambda: build_hamiltonian(problem),
        problem.target, _uniform_state(problem.n)),
        np.zeros(0), np.zeros(0, dtype=np.int64))


def _record(problem: SearchProblem, levels, hidden_at: np.ndarray,
            hidden: np.ndarray) -> OverlapRecord:
    """The record of E0 and E1's group from the level source ``levels``,
    merged with hidden[k] levels at hidden_at[k] that carry no |s> or |w>
    weight and sort after equal seen ones.

    ``levels`` is an iterator of (values, s_sq, w_sq, floor): the ascending
    levels seen so far, their weights on |s> and |w>, and a floor at or
    below every level not yet seen, inf once there is none.  Levels are grouped
    under DEGENERACY_RTOL times H's Gershgorin spread, and more are drawn
    until the floor lies more than that above the top of E1's group, the
    second group, so that no unseen level can join it.  The overlaps are
    checked against [0, 1] to roundoff and clipped."""
    tol = DEGENERACY_RTOL * _gershgorin_spread(problem)
    at = np.flatnonzero(hidden)
    while True:
        seen, s_sq, w_sq, floor = next(levels)
        values = np.concatenate((seen, hidden_at[at]))
        order = np.argsort(values, kind="stable")
        values = values[order]
        start, stop = np.searchsorted(group_labels(values, tol), (1, 2))
        # An infinite floor ends the loop even beside a NaN level.
        if floor == math.inf or floor - values[stop - 1] > tol:
            break
    counts = np.concatenate((np.ones(seen.size, dtype=np.int64),
                             hidden[at]))[order]
    if int(counts[:start].sum()) != 1:
        raise NumericalError(
            "ground level of H is degenerate; cannot define the overlap pair"
        )
    if start == values.size:
        raise NumericalError("could not separate E1 from E0")
    e0 = float(values[0])
    if e0 < -1.0 - 1e-9 or e0 >= 0.0:
        raise NumericalError(f"ground energy {e0!r} outside [-1, 0)")
    zeros = np.zeros(at.size)
    s_sq = np.concatenate((s_sq, zeros))[order]
    w_sq = np.concatenate((w_sq, zeros))[order]
    # s_psi0_sq, s_psi1_sq, w_psi0_sq and w_psi1_sq, in the record's order
    probs = _probabilities(np.array([s_sq[0], np.sum(s_sq[start:stop]),
                                     w_sq[0], np.sum(w_sq[start:stop])]),
                           "an overlap")
    return OverlapRecord(problem.gamma, e0, float(values[start]),
                         *probs.tolist(), int(counts[start:stop].sum()))


def _window(build, target: int, s_state: np.ndarray):
    """The level source (:func:`_record`) of an H of order n = s_state.size,
    formed afresh by ``build()`` for each window, with |w> its basis vector
    ``target`` and |s> the vector ``s_state``.

    Each window solves the lowest k eigenpairs, k = 8 at first and four
    times more on each further draw; its floor is its top level, or inf at
    k = n.  The eigensolve overwrites H (its transpose is the
    Fortran-ordered view LAPACK works in).  Inside a large cluster of equal
    levels LAPACK's ``evr`` on an index subset can stop with an internal
    error; then a full divide-and-conquer solve of a fresh H replaces it,
    and a failure of that raises :class:`NumericalError`.
    """
    n = s_state.size
    k = min(n, 8)
    while True:
        try:
            values, vectors = sla.eigh(build().T, subset_by_index=(0, k - 1),
                                       driver="evr", overwrite_a=True,
                                       check_finite=False)
        except np.linalg.LinAlgError:
            k = n
            try:
                values, vectors = sla.eigh(build().T, driver="evd",
                                           overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigensolve of H failed: {exc}") from exc
        yield (values, (vectors.T @ s_state) ** 2, vectors[target, :] ** 2,
               math.inf if k == n else values[-1])
        k = min(n, k * 4)


def _independent_overlaps(problem: SearchProblem,
                          sums: SpectralSums) -> OverlapRecord:
    """The record of :func:`measure_overlaps` from a window (:func:`_window`)
    of H on the measure's route: the dense H (:func:`overlaps`), or, for a
    measure from the equitable quotient (:class:`spectra.Quotient`), the
    quotient H = gamma*Lq - e_t e_t^T with |s> = sum_i sqrt(s_i/N) e_i and
    L's levels outside its space (gamma*lam, as many as L's multiplicity
    exceeds the quotient's) merged in."""
    q = sums.quotient
    if q is None:
        return overlaps(problem)

    def build() -> np.ndarray:
        h = problem.gamma * q.laplacian
        h[q.target_cell, q.target_cell] -= 1.0
        return h
    return _record(problem, _window(build, q.target_cell,
                                    np.sqrt(q.sizes / problem.n)),
                   problem.gamma * sums.group_eigenvalues,
                   sums.multiplicities - q.modes)


def overlap_sweep_csv(records: Sequence[OverlapRecord]) -> str:
    lines = ["gamma,sPsi0Sq,sPsi1Sq,wPsi0Sq,wPsi1Sq,E0,E1,degenerateE1"]
    for r in records:
        lines.append(
            f"{r.gamma:.17g},{r.s_psi0_sq:.17g},{r.s_psi1_sq:.17g},"
            f"{r.w_psi0_sq:.17g},{r.w_psi1_sq:.17g},"
            f"{r.e0:.17g},{r.e1:.17g},{int(r.degenerate_e1)}"
        )
    return "\n".join(lines) + "\n"


# -- secular levels -------------------------------------------------------------


def _brent(f, a: float, fa: float, b: float, fb: float,
           rtol: float) -> tuple[float, float]:
    """Brent's zeroin on the sign-change pair (a, b) to a relative width of
    ``rtol``; returns (b, f(b)), b the final end with the smaller |f|.

    An inverse-quadratic (or secant) step is taken when it lands well
    inside the bracket and shrinks faster than bisection would; otherwise
    the step bisects.  Steps are never shorter than tol."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * rtol * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, fb
        p = q = 0.0
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
        if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
            e, d = d, p / q
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


def _secular_root(poles: np.ndarray, weights: np.ndarray, i: int
                  ) -> tuple[float, float, float]:
    """Root i of F(E) = sum_k weights_k / (poles_k - E) = 1 and its
    overlaps (E, |<s|psi>|^2, |<w|psi>|^2).

    The poles ascend from poles[0] = 0, whose weight is 1/N, and every
    weight is positive; root 0 lies in [-1, 0), root i in (poles[i-1],
    poles[i]).  As in LAPACK's ``dlaed4`` (Gu & Eisenstat, SIMAX 16, 172,
    1995) it is an offset tau from the nearer pole p_o, every distance
    formed as (poles_k - p_o) - tau, so tau keeps its relative precision.
    Brent's method runs on |tau| (F - 1), finite (-/+ weights_o) at the
    pole.  Then |<w|psi>|^2 = 1/F'(E) and |<s|psi>|^2 = (1/N)/(E^2 F'(E)).
    """
    if i == 0:
        o, far = 0, -1.0
    else:
        half = 0.5 * (poles[i] - poles[i - 1])
        g_mid = float(np.sum(weights / ((poles - poles[i - 1]) - half))) - 1.0
        o, far = (i - 1, half) if g_mid >= 0.0 else (i, -half)
    gaps = poles - poles[o]

    def scaled(tau: float) -> float:
        return abs(tau) * (float(np.sum(weights / (gaps - tau))) - 1.0)

    # F(-1) < sum_k weights_k = 1 unless roundoff puts E0 at -1.
    f_far = min(scaled(far), 0.0) if i == 0 else half * g_mid
    tau, _ = _brent(scaled, far, f_far, 0.0, -math.copysign(weights[o], far),
                    _SECULAR_RTOL)
    # The distances are scaled by 2**-e, e the exponent of the nearest one,
    # -tau, so their squares do not underflow at tiny couplings.  A power
    # of two scales exactly, so at every other coupling the overlaps keep
    # their bits.
    e = math.frexp(tau)[1]
    q = weights / np.ldexp(gaps - tau, -e) ** 2
    slope = float(q.sum())
    return float(poles[o] + tau), float(q[0]) / slope, math.ldexp(1.0 / slope,
                                                                  2 * e)


def _visible(sums: SpectralSums, gamma: float) -> np.ndarray:
    """The groups of the measure whose levels |w> sees at this coupling.
    Weights below (8 eps ||H||)^2 are deflated, as in LAPACK's dlaed2; the
    zero mode, which carries |s>, always stays."""
    lam, weights = sums.group_eigenvalues, sums.group_amp_sq
    cut = (8.0 * _EPS * max(gamma * float(lam[-1]), 1.0)) ** 2
    return np.r_[True, weights[1:] > cut]


def measure_overlaps(problem: SearchProblem) -> OverlapRecord:
    """The record of :func:`overlaps` from the secular roots of the
    target's measure, under the same grouping tolerance: one decomposition
    of L per graph and target, then O(K) per root-finder step.

    The roots over the visible groups are the levels |w> sees; the rest
    sit at gamma*lam_k (m_k - 1 per visible group, m_k per other one) with
    no |s> or |w> weight.  Root i lies above the pole of visible group
    i - 1, so roots are solved in order only while the next one can still
    join E1's group.  Each root's squared distances to the poles are
    scaled by a power of two, so they do not underflow down to gamma ~
    1e-305.  Below that the secular equation itself can overflow: an
    overflow or invalid operation in a root gives ConfigError when the
    lowest visible pole is subnormal (below 2.2e-308), which every such
    failure has shown, and NumericalError otherwise."""
    sums = target_measure(problem.graph, problem.target)
    gamma, lam = problem.gamma, sums.group_eigenvalues
    visible = _visible(sums, gamma)
    poles, a = gamma * lam[visible], sums.group_amp_sq[visible]

    def root(i: int) -> tuple[float, float, float]:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _secular_root(poles, a, i)
        except FloatingPointError as exc:
            if poles.size > 1 and poles[1] < _TINY:
                raise ConfigError(
                    f"gamma={gamma!r} is too small: the lowest visible pole "
                    f"gamma*lam={float(poles[1])!r} is subnormal, and the "
                    f"secular equation leaves the float range") from None
            raise NumericalError(f"the secular equation leaves the float "
                                 f"range at gamma={gamma!r}: {exc}") from None

    def secular_levels():
        roots = [root(i) for i in range(min(poles.size, 2))]
        while True:
            i = len(roots)
            yield (*np.array(roots).T,
                   poles[i - 1] if i < poles.size else math.inf)
            roots.append(root(i))

    return _record(problem, secular_levels(), gamma * lam,
                   sums.multiplicities - visible)


# -- critical coupling ----------------------------------------------------------


@dataclass(frozen=True)
class CriticalGamma:
    """Root of s_psi0_sq(gamma) - s_psi1_sq(gamma).  ``evaluations`` counts
    the windows of H, dense or quotient, that confirm it."""

    gamma: float
    bracket: tuple[float, float]
    residual: float
    xi1: float
    evaluations: int


def _sign_change_root(f, seed: float, gamma_floor: float,
                      gamma_ceiling: float) -> tuple[float, float]:
    """Root of a function that is negative below it and positive above.

    A doubling search from ``seed`` brackets a sign change inside
    [gamma_floor, gamma_ceiling], and :func:`_brent` narrows it to a
    relative width of 1e-12.  Returns (b, f(b)), b the end of the final
    bracket with the smaller |f|.
    """
    f_seed = f(seed)
    if f_seed == 0.0:
        return seed, f_seed
    down = f_seed > 0.0
    a, fa = seed, f_seed
    while True:
        b = a / 2.0 if down else a * 2.0
        if not gamma_floor <= b <= gamma_ceiling:
            raise NoTransitionError(
                f"no overlap crossing above gamma_floor={gamma_floor}" if down
                else f"no overlap crossing below gamma_ceiling={gamma_ceiling}")
        fb = f(b)
        if fb < 0.0 if down else fb > 0.0:
            break
        a, fa = b, fb
    if down:
        a, fa, b, fb = b, fb, a, fa
    return _brent(f, a, fa, b, fb, _MEASURE_RTOL)


def critical_gamma(graph: Graph, target: NodeId, *,
                   gamma_floor: float = 1e-6,
                   gamma_ceiling: float = 1e6) -> CriticalGamma:
    """Locate the coupling where the uniform state moves from the first
    excited level to the ground level.

    A doubling search from xi1 (which approximates the crossing) brackets
    a sign change of the overlap difference of :func:`measure_overlaps`
    records, and Brent's method narrows it to a root r of relative width
    1e-12.  Two eigensolves of H on the measure's route at r*(1 -/+ d),
    independent of the secular roots (:func:`_independent_overlaps`), then
    confirm the sign change, so ``evaluations`` is 2.  d is 1e-10, or
    eps*lam_max/lam_1 when that is larger: LAPACK gives the smallest
    nonzero Laplacian eigenvalue lam_1 only to an absolute eps*lam_max, and
    the measure's root moves with it.  ``gamma`` is the root r,
    ``bracket`` the pair, its error bar, and ``residual`` the larger
    magnitude of the two confirming differences.

    Raises :class:`NoTransitionError` before any search when lam_1 carries
    no target weight (a Cayley tree's root, a T-fractal's centre): E1 is
    then the hidden level gamma*lam_1 below the lowest visible root, and
    the overlap difference jumps instead of crossing.  Raises it too when
    there is no sign change inside [gamma_floor, gamma_ceiling], and
    :class:`NumericalError` when the difference at the root is not small
    or the confirming pair does not show the measure's root, and
    :class:`ConfigError` unless 0 < gamma_floor < gamma_ceiling, both
    finite.
    """
    if not 0.0 < gamma_floor < gamma_ceiling < math.inf:
        raise ConfigError(
            f"coupling window needs 0 < gamma_floor < gamma_ceiling, both "
            f"finite: got [{gamma_floor}, {gamma_ceiling}]")
    sums = target_measure(graph, target)
    lam = sums.group_eigenvalues
    seed = min(max(sums.xi1, gamma_floor), gamma_ceiling)
    if not _visible(sums, seed)[1]:
        raise NoTransitionError(
            f"no overlap crossing: the lowest nonzero Laplacian eigenvalue "
            f"lam_1={float(lam[1])!r} (multiplicity "
            f"{sums.multiplicities[1]}) carries no target weight, so E1 is "
            f"the hidden level gamma*lam_1 below the lowest visible root")

    def difference(gamma: float, measure: bool) -> float:
        problem = SearchProblem(graph, target, gamma)
        rec = measure_overlaps(problem) if measure \
            else _independent_overlaps(problem, sums)
        return rec.s_psi0_sq - rec.s_psi1_sq

    root, f_root = _sign_change_root(lambda gamma: difference(gamma, True),
                                     seed, gamma_floor, gamma_ceiling)
    if abs(f_root) > _RESIDUAL_TOL:
        raise NumericalError(
            f"crossing residual {abs(f_root):.3e} exceeds {_RESIDUAL_TOL:.0e}; "
            f"the overlap difference is discontinuous at this coupling"
        )
    offset = max(_CONFIRM_RTOL, float(_EPS * lam[-1] / lam[1]))
    lo, hi = root * (1.0 - offset), root * (1.0 + offset)
    f_lo, f_hi = difference(lo, False), difference(hi, False)
    if not f_lo <= 0.0 <= f_hi:
        raise NumericalError(
            f"the measure route puts the crossing at gamma={root!r}, but the "
            f"{sums.route} route gives {f_lo!r} at {lo!r} and {f_hi!r} at "
            f"{hi!r}"
        )
    return CriticalGamma(gamma=root, bracket=(lo, hi),
                         residual=max(-f_lo, f_hi), xi1=sums.xi1,
                         evaluations=2)


# -- time evolution -------------------------------------------------------------


def default_time_grid(n: int, count: int = 512) -> np.ndarray:
    """Uniform grid on [0, 4*pi*sqrt(N)], long enough to hold a couple of
    revival periods of the tuned complete-graph search."""
    return np.linspace(0.0, 4.0 * math.pi * math.sqrt(n), count)


def _phase_split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times a and offsets b with t_{B*q + r} = a_r + b_q, the one reading
    of a grid's shape.  On a uniform grid of T > 1 times,
    |t_j - (t0 + j*h)| <= 8 eps max|t|, a_r = t0 + r*h for r < B =
    isqrt(T - 1) + 1 and b_q = B*h*q for q < Q = ceil(T / B); any other
    grid, and a single time, is a = t and b = (0,)."""
    count = t.size
    if count > 1:
        h = (t[-1] - t[0]) / (count - 1)
        j = np.arange(count)
        if np.abs(t - (t[0] + j * h)).max() <= 8.0 * _EPS * np.abs(t).max():
            block = math.isqrt(count - 1) + 1
            return t[0] + j[:block] * h, j[:-(-count // block)] * (block * h)
    return t, np.zeros(1)


def _phase_product(a: np.ndarray, b: np.ndarray, energies: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """sum_k coef[g, k] exp(-i energies[g, k] (a_r + b_q)): the sums of G
    rows of energies and coefficients at the times of :func:`_phase_split`,
    as a (G, Q*B) array in time order, row by row.  The phase factors as
    exp(-iE a_r) exp(-iE b_q), so a row is one (Q x K)(K x B) ``zgemm`` of
    (B + Q)*K exponentials: on a uniform grid about 2 sqrt(T) K of them
    instead of T*K, and with b = (0,) the direct sum.

    The product runs on scipy's BLAS, the library of the ``eigh`` stacks
    it alternates with: numpy bundles a second OpenBLAS with its own pool
    of threads, and the two pools competing for the cores cost more than
    the products.  Each call reads the Fortran-ordered transposes of
    C-ordered rows, so no operand is copied."""
    rows, e = len(energies), energies[:, None, :]
    inner = np.exp(-1j * (a[:, None] * e)) * coef[:, None, :]
    outer = np.exp(-1j * (b[:, None] * e))
    out = np.empty((rows, b.size, a.size), dtype=complex)
    for g in range(rows):
        # (inner outer^T)^T, written into the C-ordered (Q, B) row
        zgemm(1.0, inner[g].T, outer[g].T, trans_a=1, c=out[g].T,
              overwrite_c=1)
    return out.reshape(rows, -1)


def _success_rows(graph: Graph, target: NodeId, gammas: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """pi(t) = |<w| exp(-i H t) |s>|^2 at each coupling of ``gammas`` and
    time of ``t``, as a (G, T) array.

    With one basis vector per group of the target's Laplacian measure
    (eigenvalue lam_k, target weight a_k), H acts as the K x K matrix
    gamma*diag(lam) - z z^T with z_k = sqrt(a_k), and |s> is basis vector
    0, the zero mode.  The levels outside that span are invisible to |w>
    and |s>, so this is exact.  The rows' K x K matrices are solved as one
    stack (:func:`spectra.eigh`) and their phase sums taken by one scipy
    ``zgemm`` per row (:func:`_phase_product`), so the chunk's eigensolve
    and products share one OpenBLAS and one pool of threads.  Rows go in
    chunks within _CHUNK_ELEMENTS; a chunk holds at least one row.  A row's
    bits do not depend on the rows beside it.
    Phases that overflow give NaN, which :func:`_probabilities` refuses,
    and on a grid that starts at t = 0, pi(0) must be 1/N within 1e-12.
    """
    sums = target_measure(graph, target)
    z = np.sqrt(sums.group_amp_sq)
    diag, zz = np.diag(sums.group_eigenvalues), np.outer(z, z)
    a, b = _phase_split(t)
    rows = max(1, _CHUNK_ELEMENTS // (z.size * max(z.size, a.size + b.size)))
    probs = np.empty((gammas.size, t.size))
    for start in range(0, gammas.size, rows):
        values, vectors = eigh(gammas[start:start + rows, None, None] * diag
                               - zz)
        # This product and _window's vectors.T @ s_state stay on numpy: each
        # is one matrix-vector product per solved matrix, and each measured
        # no slower than scipy's gemv beside the eigensolve.
        coef = (z @ vectors) * vectors[:, 0, :]
        with np.errstate(over="ignore", invalid="ignore"):
            probs[start:start + rows] = np.abs(
                _phase_product(a, b, values, coef)[:, :t.size]) ** 2
    _probabilities(probs, "success probability")
    if t[0] == 0.0 and np.abs(probs[:, 0] - 1.0 / graph.n).max() > 1e-12:
        raise NumericalError("pi(0) deviates from 1/N")
    return probs


def success_probability(problem: SearchProblem, t):
    """pi(t) = |<w| exp(-i H t) |s>|^2, scalar in/scalar out: the one-row
    case of :func:`success_grid`, from one K x K eigensolve."""
    scalar = np.isscalar(t)
    probs = _success_rows(problem.graph, problem.target,
                          np.array([problem.gamma], dtype=np.float64),
                          _times(t))[0]
    return float(probs[0]) if scalar else probs


@dataclass(frozen=True, eq=False)
class SuccessGrid:
    """Success probabilities over a (gamma, t) grid, every row from one
    Laplacian measure, rows independent and deterministic."""

    gammas: np.ndarray  # (G,)
    times: np.ndarray   # (T,)
    probabilities: np.ndarray  # (G, T)
    t_star: np.ndarray  # (G,) grid time of the row maximum
    pi_star: np.ndarray  # (G,) row maximum

    def to_matrix_csv(self) -> str:
        """First row = time grid, first column = coupling grid."""
        row = ("," + _CELL) * self.times.size + "\n"
        cells = np.column_stack([self.gammas, self.probabilities]).ravel()
        return ("gamma_by_t" + row % tuple(self.times.tolist())
                + (_CELL + row) * self.gammas.size % tuple(cells.tolist()))

    def to_long_csv(self) -> str:
        # The times are formatted into the line template once.
        line = "".join(["%s," + _CELL % t + "," + _CELL + "\n"
                        for t in self.times.tolist()])
        args: list = [None] * (2 * self.times.size)
        out = ["gamma,t,pi\n"]
        for g, row in zip(self.gammas.tolist(), self.probabilities.tolist()):
            args[0::2] = [_CELL % g] * len(row)
            args[1::2] = row
            out.append(line % tuple(args))
        return "".join(out)


def success_grid(graph: Graph, target: NodeId, gammas: Sequence[float],
                 times: Sequence[float]) -> SuccessGrid:
    """pi(t) at every coupling and time of the grid, every row from the
    target's one Laplacian measure and all rows from one stacked K x K
    eigensolve (in chunks of rows on large grids; see
    :func:`_success_rows`).  Every coupling is checked before the first
    row, and each row equals :func:`success_probability` at its coupling
    bit for bit."""
    gam = np.asarray([float(g) for g in gammas], dtype=np.float64)
    t_arr = _times(times)
    if gam.size == 0:
        raise ConfigError("success grid needs a nonempty coupling grid")
    if np.any(np.diff(t_arr) < 0.0):
        raise ConfigError("time grid must be ascending")
    for g in gam.tolist():
        SearchProblem(graph, target, g)
    probs = _success_rows(graph, target, gam, t_arr)
    best = np.argmax(probs, axis=1)
    return SuccessGrid(
        gammas=gam, times=t_arr, probabilities=probs,
        t_star=t_arr[best], pi_star=probs[np.arange(gam.size), best],
    )


def oscillation_period(times: np.ndarray, probs: np.ndarray) -> float | None:
    """Distance between the first two local maxima of pi(t), each refined
    to the vertex of the parabola through its three surrounding samples,
    whatever their spacing.  None when fewer than two interior maxima exist, as
    on grids of fewer than three samples."""
    t = np.asarray(times, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if t.shape != p.shape:
        raise ConfigError("period estimate needs matching grids")
    peaks = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:]))[:2] + 1
    if peaks.size < 2:
        return None

    def refine(i: int) -> float:
        # A peak rises, > 0, and falls, >= 0, so on ascending times the
        # denominator is > 0.
        h0, h1 = t[i] - t[i - 1], t[i + 1] - t[i]
        rise, fall = p[i] - p[i - 1], p[i] - p[i + 1]
        return float(t[i] + 0.5 * (h1 * h1 * rise - h0 * h0 * fall)
                     / (h1 * rise + h0 * fall))

    return refine(peaks[1]) - refine(peaks[0])


@dataclass(frozen=True)
class GammaMaxResult:
    """Coupling that maximizes max_t pi(t) over a time horizon."""

    gamma: float
    t_star: float
    pi_max: float


def gamma_max_search(graph: Graph, target: NodeId, gamma_center: float,
                     times: Sequence[float], *,
                     span: float = 10.0,
                     coarse: int = 64,
                     rel_tol: float = 1e-3) -> GammaMaxResult:
    """The coupling, of a log-spaced grid, that maximizes max_t pi(t) over
    a fixed time horizon.

    A coarse grid of ``coarse`` points spans [gamma_center / span,
    gamma_center * span].  While the bracket around the best point, its
    two grid neighbours, is wider than ``rel_tol`` in log(gamma), a grid
    of max(coarse, 5) points spans the bracket.  On five or more points
    the bracket is at most half the grid's width, so every grid narrows
    it, until the floats cannot.  Every grid is one :func:`success_grid`,
    one stacked eigensolve.  The result is the best row of the last grid,
    so ``pi_max`` is :func:`success_probability`'s maximum at ``gamma``
    bit for bit.  The optimum depends on the horizon; times are part of
    the contract.  ConfigError unless gamma_center > 0 and 1 < span are
    finite, coarse >= 3 and rel_tol > 0."""
    if not (gamma_center > 0.0 and np.isfinite(gamma_center)):
        raise ConfigError("gamma_center must be positive and finite")
    if not 1.0 < span < math.inf:
        raise ConfigError("span must be finite and above 1")
    if coarse < 3:
        raise ConfigError("coarse grid needs at least three points")
    if not rel_tol > 0.0:
        raise ConfigError("rel_tol must be positive")
    grid = np.geomspace(gamma_center / span, gamma_center * span, coarse)
    sweep = success_grid(graph, target, grid, times)
    width = math.inf
    while True:
        best = int(np.argmax(sweep.pi_star))
        lo = sweep.gammas[max(best - 1, 0)]
        hi = sweep.gammas[min(best + 1, sweep.gammas.size - 1)]
        # At the resolution of the floats a grid stops narrowing it.
        if not rel_tol < math.log(hi / lo) < width:
            break
        width = math.log(hi / lo)
        sweep = success_grid(graph, target,
                             np.geomspace(lo, hi, max(coarse, 5)), times)
    return GammaMaxResult(gamma=float(sweep.gammas[best]),
                          t_star=float(sweep.t_star[best]),
                          pi_max=float(sweep.pi_star[best]))


# -- spectral-identity and bound verification -----------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality or identity.  ``satisfied`` is None when a
    degenerate E1 voids the check (note "skipped: E1 degenerate")."""

    name: str
    gamma: float
    satisfied: bool | None
    lhs: float | None
    rhs: float | None
    note: str = ""


@dataclass(frozen=True, eq=False)
class BoundReport:
    n: int
    target: NodeId
    xi1: float
    xi2: float
    checks: tuple[BoundCheck, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks if c.satisfied is not None)

    def failures(self) -> list[BoundCheck]:
        return [c for c in self.checks if c.satisfied is False]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "target": int(self.target),
            "xi1": self.xi1,
            "xi2": self.xi2,
            "all_satisfied": self.all_satisfied,
            "checks": [asdict(c) for c in self.checks],
        }


def verify_bounds(graph: Graph, target: NodeId,
                  gammas: Sequence[float] | None = None) -> BoundReport:
    """Check the perturbative overlap/energy bounds and the resolvent
    identities at several couplings.

    Defaults to three couplings on each side of xi1 (factors 1/8, 1/4,
    1/2, 2, 4, 8).  For gamma > xi1 the ground level must carry almost all
    of |s> with s_psi0_sq > 1 - xi2 / (N (gamma - xi1)^2) and
    1/N < |E0| < gamma / (N (gamma - xi1)); for gamma < xi1 the analogous
    floor applies to s_psi1_sq.  The bounds' other half, s_psi*_sq <= 1,
    is no row: the overlap record enforces it (NumericalError above
    1 + 1e-9).  At every coupling the eigenvalue identity F(E_a) = 1 and
    the residue relation |<s|psi_a>|^2 = R_a / (N E_a^2) are verified for
    the nondegenerate levels.  The levels come from an eigensolve of H on
    the measure's route (:func:`_independent_overlaps`).  An empty
    ``gammas`` is a ConfigError, raised before the measure.
    """
    if gammas is not None and len(gammas) == 0:
        raise ConfigError("bound audit needs a nonempty coupling list")
    sums = target_measure(graph, target)
    xi1, xi2 = sums.xi1, sums.xi2
    n = graph.n
    if gammas is None:
        gammas = [xi1 * f for f in (0.125, 0.25, 0.5, 2.0, 4.0, 8.0)]
    checks: list[BoundCheck] = []

    # A row at the loop's coupling; one without a verdict is skipped.
    def check(name: str, satisfied: bool | None = None,
              lhs: float | None = None, rhs: float | None = None) -> None:
        checks.append(BoundCheck(
            name, gamma, satisfied, lhs, rhs,
            "" if satisfied is not None else "skipped: E1 degenerate"))

    for gamma in gammas:
        gamma = float(gamma)
        rec = _independent_overlaps(SearchProblem(graph, target, gamma), sums)
        if gamma > xi1:
            floor = 1.0 - xi2 / (n * (gamma - xi1) ** 2)
            ceiling = gamma / (n * (gamma - xi1))
            check("s_psi0_sq_above_floor",
                  rec.s_psi0_sq > floor, rec.s_psi0_sq, floor)
            check("abs_e0_above_uniform",
                  abs(rec.e0) > 1.0 / n, abs(rec.e0), 1.0 / n)
            check("abs_e0_below_ceiling",
                  abs(rec.e0) < ceiling, abs(rec.e0), ceiling)
        elif gamma < xi1:
            floor = 1.0 - xi2 / (n * (xi1 - gamma) ** 2)
            if rec.degenerate_e1:
                # The floor comes from a two-level reduction onto a
                # nondegenerate first excited state; a symmetry-protected
                # degenerate level can be invisible to the uniform state.
                check("s_psi1_sq_above_floor")
            else:
                check("s_psi1_sq_above_floor",
                      rec.s_psi1_sq > floor, rec.s_psi1_sq, floor)
        for level, energy, s_sq, w_sq, skip in (
            ("e0", rec.e0, rec.s_psi0_sq, rec.w_psi0_sq, False),
            ("e1", rec.e1, rec.s_psi1_sq, rec.w_psi1_sq, rec.degenerate_e1),
        ):
            if skip:
                check(f"resolvent_norm_{level}")
                check(f"overlap_residue_{level}")
                continue
            # F(E) = <w| (gamma*L - E)^-1 |w>, exactly 1 at a level of H
            # that |w> sees
            f_val = float(np.sum(sums.group_amp_sq
                                 / (gamma * sums.group_eigenvalues - energy)))
            check(f"resolvent_norm_{level}",
                  abs(f_val - 1.0) <= 1e-6, f_val, 1.0)
            residue = w_sq / (n * energy**2)
            check(f"overlap_residue_{level}",
                  abs(s_sq - residue) <= 1e-8, s_sq, residue)
    return BoundReport(n=n, target=target, xi1=xi1, xi2=xi2,
                       checks=tuple(checks))


# -- matrix-free propagation -----------------------------------------------------


def _chebyshev_order(x_max: float) -> int:
    """Highest Chebyshev order that e^{-i x y} on [-1, 1] needs up to x_max:
    J_k(x) has fallen below 1e-17 of its peak by k = x + 12 x^{1/3} + 30."""
    return math.ceil(x_max + 12.0 * x_max ** (1.0 / 3.0) + 30.0)


def _bessel_series(x: np.ndarray, coef: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(sum over even k, sum over odd k) of coef_k J_k(x), k = 0..K, for
    x > 0 with K = len(coef) - 1 at least :func:`_chebyshev_order` (max x).

    Miller's backward recurrence f_{k-1} = (2k/x) f_k - f_{k+1}, started at
    f_{K+1} = 0, f_K = 1, gives f_k proportional to J_k(x); both sums and
    the normalisation J_0 + 2 sum_k J_2k = 1 accumulate as it runs, so no
    table of J_k(x) is formed.  A column whose f passes _MILLER_BIG is
    scaled down, together with its sums, against overflow."""
    two_over_x = 2.0 / x
    f_next, f = np.zeros_like(x), np.ones_like(x)
    even, odd, norm = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(coef.size - 1, 0, -1):
        if k % 2:
            odd += coef[k] * f
        else:
            even += coef[k] * f
            norm += f
        f, f_next = (k * two_over_x) * f - f_next, f
        big = np.abs(f) > _MILLER_BIG
        if big.any():
            scale = np.where(big, 1.0 / _MILLER_BIG, 1.0)
            for arr in (f, f_next, even, odd, norm):
                arr *= scale
    even += coef[0] * f
    norm = 2.0 * norm + f
    return even / norm, odd / norm


def propagate_krylov(graph: Graph, target: NodeId, gamma: float,
                     times: Sequence[float]) -> np.ndarray:
    """pi(t) on an ascending time grid, without a dense matrix.

    Works from the sparse Laplacian in O(N) memory, so it is the path for
    sizes past the dense guard.  H's spectrum lies in [-1, top]: gamma*L >= 0
    and |w><w| <= 1 give the lower end, Gershgorin the upper.  With centre c
    and half-width a of that interval, Hs = (H - c)/a has its spectrum in
    [-1, 1], and (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984)

        <w|exp(-iHt)|s> = exp(-ict) sum_k (2 - [k=0]) (-i)^k J_k(at) mu_k,

    with moments mu_k = <w|T_k(Hs)|s>, as in the kernel polynomial method
    (Weisse et al., Rev. Mod. Phys. 78, 275, 2006).  One real three-term
    recurrence T_{k+1} = 2 Hs T_k - T_{k-1} from |s> gives every mu_k, one
    sparse product each, up to the order the last time needs; the Bessel
    sums then cost O(K) per time and the phase exp(-ict) drops out of pi.
    """
    problem = SearchProblem(graph, target, gamma)  # validates target and gamma
    t_arr = _times(times)
    if np.any(np.diff(t_arr) < 0.0) or t_arr[0] < 0.0:
        raise ConfigError("time grid must be ascending and nonnegative")
    n = graph.n
    # The interval holds [-1, 0] whenever N > 1; a lone node has H = -1.
    half = 0.5 * max(_gershgorin_spread(problem), 1.0)
    shift = np.full(n, half - 1.0)  # the interval's centre
    shift[target] += 1.0
    h2 = ((gamma * graph.laplacian_sparse() - sp.diags(shift))
          * (2.0 / half)).tocsr()
    x = half * t_arr
    order = _chebyshev_order(float(x[-1]))
    prev = _uniform_state(n)
    cur = 0.5 * (h2 @ prev)
    mu = np.empty(order + 1)
    mu[0], mu[1] = prev[target], cur[target]
    for k in range(2, order + 1):
        nxt = h2 @ cur
        nxt -= prev
        mu[k] = nxt[target]
        prev, cur = cur, nxt
    # (2 - [k=0]) (-i)^k mu_k: real for even k, -i times real for odd k
    mu[1:] *= 2.0
    mu[2::4] *= -1.0
    mu[3::4] *= -1.0
    # pi(t) - 1/N is even in t, so below _X_FLOOR it is 1/N to double
    # precision.
    out = np.full_like(t_arr, 1.0 / n)
    moving = x >= _X_FLOOR
    re, im = _bessel_series(x[moving], mu)
    out[moving] = re * re + im * im
    return _probabilities(out, "propagated probability")
