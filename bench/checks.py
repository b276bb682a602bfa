"""Output checks, each by a route independent of the one that produced the
output: the benchmark's own Laplacian and ``numpy.linalg.eigh`` of H, the
closed-form complete-graph oracle, ``scipy.sparse.linalg.expm_multiply``,
closed-form edge counts and a plain breadth-first search.

Every check takes the operation, the value it returned (the CLI exit code
or the library result) and the directory the CLI wrote to, and returns a
list of problems; an empty list means the output is correct.  The checks
run after the timed passes, so they add nothing to ``wall_s``.
"""
from __future__ import annotations

import csv
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from workloads import Op, default_target, edge_count, node_count

# |s_psi0_sq - s_psi1_sq| at a reported critical coupling.
BALANCE_TOL = 1e-6
# Relative eigenvalue spacing below which levels form one degenerate group.
DEGENERACY_RTOL = 1e-8


def _graph(family: str, **size):
    from ctqwlab import GraphSpec, build

    return build(GraphSpec(family=family, **size))


def _laplacian(graph) -> np.ndarray:
    adj = graph.adjacency.toarray()
    return np.diag(adj.sum(axis=1)) - adj


def _hamiltonian(graph, target: int, gamma: float) -> np.ndarray:
    h = gamma * _laplacian(graph)
    h[target, target] -= 1.0
    return h


def _two_level(graph, target: int, gamma: float) -> dict[str, float]:
    """E0, E1 and the overlaps of |s> and |w> with the two lowest levels,
    the E1 overlaps summed over its degenerate group."""
    vals, vecs = np.linalg.eigh(_hamiltonian(graph, target, gamma))
    tol = DEGENERACY_RTOL * (vals[-1] - vals[0])
    labels = np.concatenate([[0], np.cumsum(np.diff(vals) > tol)])
    group1 = labels == 1
    s_amp = vecs.sum(axis=0) / math.sqrt(graph.n)
    w_amp = vecs[target]
    return {"E0": vals[0], "E1": vals[group1][0],
            "sPsi0Sq": s_amp[0] ** 2, "sPsi1Sq": np.sum(s_amp[group1] ** 2),
            "wPsi0Sq": w_amp[0] ** 2, "wPsi1Sq": np.sum(w_amp[group1] ** 2)}


def _pi_eigh(graph, target: int, gamma: float,
             times: np.ndarray) -> np.ndarray:
    """pi(t) = |<w|exp(-iHt)|s>|^2 from the benchmark's own eigh of H."""
    vals, vecs = np.linalg.eigh(_hamiltonian(graph, target, gamma))
    coef = vecs[target] * vecs.sum(axis=0) / math.sqrt(graph.n)
    return np.abs(np.exp(-1j * np.outer(times, vals)) @ coef) ** 2


def _balance(family: str, gamma: float, **size) -> list[str]:
    graph = _graph(family, **size)
    lv = _two_level(graph, default_target(family, **size), gamma)
    gap = abs(lv["sPsi0Sq"] - lv["sPsi1Sq"])
    if not gap <= BALANCE_TOL:
        return [f"{family} {size}: |s_psi0_sq - s_psi1_sq| = {gap:.3e} "
                f"at gamma_crit={gamma!r}"]
    return []


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _pi_rows(probs: np.ndarray, n: int, where: str) -> list[str]:
    """pi(0) = 1/N and every pi(t) in [0, 1]."""
    problems = []
    if probs.size and np.abs(probs[:, 0] - 1.0 / n).max() > 1e-12:
        problems.append(f"{where}: pi(0) != 1/N")
    if probs.min() < 0.0 or probs.max() > 1.0:
        problems.append(f"{where}: pi(t) outside [0, 1]")
    return problems


# -- crit-sweep -----------------------------------------------------------------


def fit_balance(op: Op, value, out: Path) -> list[str]:
    family, gens = op.fact("family"), op.fact("gens")
    model = "log" if family == "cayleytree" else "power"
    fit = json.loads((out / f"fit_{family}_{model}.json").read_text())
    points = np.array(fit["points"], dtype=float)
    if points.shape != (len(gens), 2):
        return [f"fit {family}: {points.shape[0]} points for {len(gens)} sizes"]
    x, y = points[:, 0], points[:, 1]
    expect_x = [g if model == "log" else node_count(family, g=g) for g in gens]
    if x.tolist() != [float(v) for v in expect_x]:
        return [f"fit {family}: abscissae {x.tolist()} != {expect_x}"]
    problems = []
    if model == "power":
        slope, icept = np.polyfit(np.log(x), np.log(y), 1)
        got = (fit["params"]["beta"], math.log(fit["params"]["c"]))
    else:
        slope, icept = np.polyfit(x, y, 1)
        got = (fit["params"]["a"], fit["params"]["b"])
    if not np.allclose(got, (slope, icept), rtol=1e-9, atol=1e-12):
        problems.append(f"fit {family}: parameters {got} != {(slope, icept)}")
    for g, gamma in zip(gens, y):
        problems += _balance(family, float(gamma), g=g)
    return problems


def critgamma_balance(op: Op, value, out: Path) -> list[str]:
    d, sizes = op.fact("d"), op.fact("sizes")
    rows = _read_csv(out / f"critgamma_{op.fact('family')}.csv")[1:]
    if len(rows) != len(sizes):
        return [f"critgamma: {len(rows)} rows for {len(sizes)} sizes"]
    problems = []
    for L, row in zip(sizes, rows):
        if int(row[1]) != L ** d:
            problems.append(f"critgamma: N={row[1]} for L={L}")
            continue
        problems += _balance("torus", float(row[2]), L=L, d=d)
    return problems


def bounds_ok(op: Op, value, out: Path) -> list[str]:
    label = f"{op.fact('family')}_g{op.fact('g')}"
    report = json.loads((out / f"bounds_{label}.json").read_text())
    failed = [c["name"] for c in report["checks"] if c["satisfied"] is False]
    if not report["checks"] or failed or not report["all_satisfied"]:
        return [f"verify {label}: failed checks {failed}"]
    return []


# -- pi-grid ----------------------------------------------------------------------


def _success_matrix(op: Op, out: Path) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    size = {k: op.fact(k) for k in ("g", "n") if k in dict(op.facts)}
    label = "_".join([op.fact("family")] + [f"{k}{v}" for k, v in size.items()])
    rows = _read_csv(out / f"success_{label}_matrix.csv")
    times = np.array(rows[0][1:], dtype=float)
    gammas = np.array([r[0] for r in rows[1:]], dtype=float)
    probs = np.array([r[1:] for r in rows[1:]], dtype=float)
    return gammas, times, probs


def success_rows(op: Op, value, out: Path) -> list[str]:
    gammas, times, probs = _success_matrix(op, out)
    if probs.shape != (op.fact("rows"), op.fact("cols")):
        return [f"success: grid shape {probs.shape}"]
    family, g = op.fact("family"), op.fact("g")
    problems = _pi_rows(probs, node_count(family, g=g), "success")
    # Recompute the middle coupling's row with the benchmark's own eigh.
    mid = len(gammas) // 2
    ref = _pi_eigh(_graph(family, g=g), op.fact("target"), gammas[mid], times)
    worst = np.abs(probs[mid] - ref).max()
    if not worst <= 1e-9:
        problems.append(f"success: row gamma={float(gammas[mid])!r} "
                        f"differs from eigh by {worst:.3e}")
    return problems


def success_complete(op: Op, value, out: Path) -> list[str]:
    from ctqwlab import complete_success

    gammas, times, probs = _success_matrix(op, out)
    n = op.fact("n")
    if probs.shape != (op.fact("rows"), op.fact("cols")):
        return [f"success complete: grid shape {probs.shape}"]
    problems = _pi_rows(probs, n, "success complete")
    worst = np.abs(probs[0] - complete_success(n, gammas[0], times)).max()
    if not worst <= 1e-10:
        problems.append(f"success complete: oracle error {worst:.3e}")
    return problems


def overlaps_rows(op: Op, value, out: Path) -> list[str]:
    family, g = op.fact("family"), op.fact("g")
    rows = _read_csv(out / f"overlaps_{family}_g{g}.csv")
    head, rows = rows[0], rows[1:]
    if len(rows) != op.fact("rows"):
        return [f"overlaps: {len(rows)} rows"]
    table = np.array(rows, dtype=float)
    col = {name: i for i, name in enumerate(head)}
    probs = table[:, [col[k] for k in
                      ("sPsi0Sq", "sPsi1Sq", "wPsi0Sq", "wPsi1Sq")]]
    problems = []
    if probs.min() < 0.0 or probs.max() > 1.0:
        problems.append("overlaps: probability outside [0, 1]")
    if np.any(table[:, col["E1"]] <= table[:, col["E0"]]):
        problems.append("overlaps: E1 <= E0")
    # Spot-check the middle coupling against the benchmark's own eigh.
    mid = table[len(table) // 2]
    ref = _two_level(_graph(family, g=g), op.fact("target"), mid[col["gamma"]])
    worst = max(abs(mid[col[k]] - v) for k, v in ref.items())
    if not worst <= 1e-9:
        problems.append(f"overlaps: middle row differs from eigh by {worst:.3e}")
    return problems


def spectrum_trace(op: Op, value, out: Path) -> list[str]:
    family, g = op.fact("family"), op.fact("g")
    rows = _read_csv(out / f"spectrum_{family}_g{g}.csv")[1:]
    lam = np.array([r[1] for r in rows], dtype=float)
    graph = _graph(family, g=g)
    deg = graph.degrees.astype(float)
    if lam.size != graph.n:
        return [f"spectrum: {lam.size} eigenvalues for N={graph.n}"]
    problems = []
    if np.any(np.diff(lam) < 0.0) or abs(lam[0]) > 1e-9:
        problems.append("spectrum: not ascending from 0")
    # tr L = sum of degrees; tr L^2 = sum of d^2 + d.
    for got, want, what in ((lam.sum(), deg.sum(), "tr L"),
                            ((lam ** 2).sum(), (deg ** 2 + deg).sum(),
                             "tr L^2")):
        if not abs(got - want) <= 1e-9 * want:
            problems.append(f"spectrum: {what} {got!r} != {want!r}")
    return problems


def gamma_max_pi(op: Op, value, out: Path) -> list[str]:
    size = {k: op.param(k) for k in ("L", "d")}
    graph = _graph(op.param("family"), **size)
    target = op.param("target")
    times = np.linspace(*op.param("times"))
    pi = _pi_eigh(graph, target, value.gamma, times)
    k = int(np.argmax(pi))
    problems = _pi_rows(pi[None, :], graph.n, "gamma_max_search")
    if not abs(pi[k] - value.pi_max) <= 1e-9 or times[k] != value.t_star:
        problems.append(f"gamma_max_search: pi_max {value.pi_max!r} at "
                        f"t={value.t_star!r}, eigh gives {pi[k]!r} at "
                        f"t={times[k]!r}")
    return problems


# -- large-graph ------------------------------------------------------------------


def edge_list_lines(op: Op, value, out: Path) -> list[str]:
    family, size = op.fact("family"), dict(op.fact("size"))
    label = {"complete": "complete_n{n}", "torus": "torus_d{d}_L{L}",
             "dsg": "dsg_g{g}", "tfractal": "tfractal_g{g}",
             "cayleytree": "cayleytree_g{g}"}[family].format(**size)
    with open(out / f"edges_{label}.txt", "rb") as fh:
        header = fh.readline().decode().strip()
        lines = 1 + sum(1 for _ in fh)
    problems = []
    if header != f"# N={node_count(family, **size)}":
        problems.append(f"edges {label}: header {header!r}")
    want = 1 + edge_count(family, **size)
    if lines != want:
        problems.append(f"edges {label}: {lines} lines, closed form {want}")
    return problems


def default_target_bfs(op: Op, value, out: Path) -> list[str]:
    graph = _graph(op.param("family"), g=op.param("g"))
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    dist = [-1] * graph.n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u]:indptr[u + 1]].tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    deepest = max(dist)
    want = dist.index(deepest)
    if value != want:
        return [f"default_target: {value} != BFS deepest leaf {want}"]
    return []


def krylov_expm(op: Op, value, out: Path) -> list[str]:
    size = {k: op.param(k) for k in ("g", "L", "d") if k in dict(op.params)}
    graph = _graph(op.param("family"), **size)
    target, gamma = op.param("target"), op.param("gamma")
    t0, t1, count = op.param("times")
    deg = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    h = (gamma * (sp.diags(deg) - graph.adjacency)).tolil()
    h[target, target] -= 1.0
    start = np.full(graph.n, 1.0 / math.sqrt(graph.n), dtype=complex)
    psi = expm_multiply(-1j * h.tocsr(), start, start=t0, stop=t1, num=count,
                        endpoint=True)
    ref = np.abs(psi[:, target]) ** 2
    problems = _pi_rows(np.asarray(value)[None, :], graph.n, "krylov")
    worst = np.abs(ref - value).max()
    if not worst <= 1e-8:
        problems.append(f"krylov: differs from expm_multiply by {worst:.3e}")
    return problems
