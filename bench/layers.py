"""Per-layer metrics of the traced run and the probes that feed them.

The layers are ctqwlab's modules.  Each metric is named
``<module>.<function>.<what>`` and records, before any measurement, which
end-to-end metric it should move, the workload where it does the most
work, and a workload where the prediction is no change.  Lower is better
for every one of them.

Suffixes: ``calls`` counts spans, ``s`` is inclusive time (nested spans
of the same group counted once), ``self_s`` is time no child span covers,
and any other suffix is a counter fed by a probe's hook.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from spans import Span, Tracer, inclusive_time, self_times


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str   # end-to-end metric(s) it should move
    most: str    # workload(s) with the most work
    none: str    # workload(s) where the prediction is no change


_C, _S = "count", "s"
_ALL = "crit-sweep, pi-grid, large-graph"

METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("engine.critical_gamma.calls", _C, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.critical_gamma.self_s", _S, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.critical_gamma.evaluations", _C, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.overlaps.calls", _C, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.overlaps.s", _S, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.window_eigh.calls", _C, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.window_eigh.k_sum", _C, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("engine.verify_bounds.self_s", _S, "wall_s", "crit-sweep", "pi-grid"),
    LayerMetric("spectra.laplacian_decomposition.calls", _C, "wall_s", "crit-sweep, pi-grid", "large-graph"),
    LayerMetric("spectra.laplacian_decomposition.s", _S, "wall_s", "crit-sweep, pi-grid", "large-graph"),
    LayerMetric("spectra.laplacian_decomposition.n3_computed", _C, "wall_s", "crit-sweep, pi-grid", "large-graph"),
    LayerMetric("spectra.spectral_sums.s", _S, "wall_s", "crit-sweep, pi-grid", "large-graph"),
    LayerMetric("spectra.fit_alpha.s", _S, "wall_s", "crit-sweep", "large-graph"),
    LayerMetric("spectra.eigh.calls", _C, "wall_s", "pi-grid", "large-graph"),
    LayerMetric("spectra.eigh.s", _S, "wall_s", "pi-grid", "large-graph"),
    LayerMetric("spectra.eigh.n3_computed", _C, "wall_s", "pi-grid", "large-graph"),
    LayerMetric("engine.success_probability.calls", _C, "wall_s", "pi-grid", "crit-sweep"),
    LayerMetric("engine.success_probability.s", _S, "wall_s", "pi-grid", "crit-sweep"),
    LayerMetric("engine.success_probability.cells", _C, "wall_s", "pi-grid", "crit-sweep"),
    LayerMetric("engine.success_grid.self_s", _S, "wall_s", "pi-grid", "crit-sweep"),
    LayerMetric("engine.gamma_max_search.self_s", _S, "wall_s", "pi-grid", "crit-sweep"),
    LayerMetric("graphs.laplacian.calls", _C, "wall_s, peak_rss_mb", "crit-sweep", "large-graph"),
    LayerMetric("graphs.laplacian.s", _S, "wall_s, peak_rss_mb", "crit-sweep", "large-graph"),
    LayerMetric("graphs.laplacian.bytes_computed", "B", "wall_s, peak_rss_mb", "crit-sweep", "large-graph"),
    LayerMetric("graphs.build.calls", _C, "wall_s, peak_rss_mb", "large-graph", "crit-sweep"),
    LayerMetric("graphs.build.self_s", _S, "wall_s, peak_rss_mb", "large-graph", "crit-sweep"),
    LayerMetric("graphs.default_target.s", _S, "wall_s, peak_rss_mb", "large-graph", "crit-sweep"),
    LayerMetric("graphs.default_target.builds", _C, "wall_s, peak_rss_mb", "large-graph", "crit-sweep"),
    LayerMetric("graphs.to_edge_list.s", _S, "wall_s", "large-graph", "crit-sweep"),
    LayerMetric("graphs.to_edge_list.bytes", "B", "wall_s", "large-graph", "crit-sweep"),
    LayerMetric("engine.propagate_krylov.calls", _C, "wall_s", "large-graph", "crit-sweep, pi-grid"),
    LayerMetric("engine.propagate_krylov.s", _S, "wall_s", "large-graph", "crit-sweep, pi-grid"),
    LayerMetric("cli.export.s", _S, "wall_s", "large-graph, pi-grid", "crit-sweep"),
    LayerMetric("cli.export.bytes", "B", "wall_s", "large-graph, pi-grid", "crit-sweep"),
    LayerMetric("cli.main.self_s", _S, "wall_s", "crit-sweep", "none"),
    LayerMetric("analysis.fit_scaling.s", _S, "wall_s", "crit-sweep", "none"),
    LayerMetric("trace.overhead_ratio", "ratio", "none (traced wall_s / untraced wall_s - 1)", _ALL, "none"),
)

# Span groups whose inclusive time is one metric: the export layer is the
# CLI's serialisers and file writes, the edge-list text included.
_GROUPS = {"cli.export": {"cli.export", "graphs.to_edge_list"}}


# -- probes ---------------------------------------------------------------------


def _evaluations(tracer, args, kwargs, result) -> None:
    tracer.counts["engine.critical_gamma.evaluations"] += result.evaluations


def _window(tracer, args, kwargs, result) -> None:
    lo, hi = kwargs["subset_by_index"]
    tracer.counts["engine.window_eigh.k_sum"] += hi - lo + 1


def _lap_n3(tracer, args, kwargs, result) -> None:
    tracer.counts["spectra.laplacian_decomposition.n3_computed"] += \
        float(args[0].n) ** 3


def _eigh_n3(tracer, args, kwargs, result) -> None:
    tracer.counts["spectra.eigh.n3_computed"] += float(len(args[0])) ** 3


def _cells(tracer, args, kwargs, result) -> None:
    import numpy as np

    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.counts["engine.success_probability.cells"] += \
        np.size(t) * args[0].n


def _lap_bytes(tracer, args, kwargs, result) -> None:
    tracer.counts["graphs.laplacian.bytes_computed"] += 8.0 * args[0].n ** 2


def _build(tracer, args, kwargs, result) -> None:
    if tracer.parent_name() == "graphs.default_target":
        tracer.counts["graphs.default_target.builds"] += 1


def _edge_bytes(tracer, args, kwargs, result) -> None:
    tracer.counts["graphs.to_edge_list.bytes"] += len(result)


def _written(tracer, args, kwargs, result) -> None:
    tracer.counts["cli.export.bytes"] += len(args[1].encode("utf-8"))


class _ScipyLinalg:
    """Stands in for ``scipy.linalg`` inside ``ctqwlab.engine`` so that the
    subset eigensolves of ``overlaps`` are traced and nothing else is."""

    def __init__(self, tracer: Tracer, sla):
        self._sla = sla
        self.eigh = tracer.wrap("engine.window_eigh", sla.eigh, _window)

    def __getattr__(self, attr: str):
        return getattr(self._sla, attr)


def install(tracer: Tracer) -> None:
    """Patch every probe into the loaded ctqwlab modules."""
    from ctqwlab import analysis, cli, engine, graphs, spectra

    mods = [m for name, m in sys.modules.items()
            if name == "ctqwlab" or name.startswith("ctqwlab.")]
    p = tracer.patch
    p(cli, "main", "cli.main")
    p(engine, "critical_gamma", "engine.critical_gamma", _evaluations, mods)
    p(engine, "overlaps", "engine.overlaps", None, mods)
    tracer.replace(engine, "sla", _ScipyLinalg(tracer, engine.sla))
    p(engine, "verify_bounds", "engine.verify_bounds", None, mods)
    p(spectra, "laplacian_decomposition", "spectra.laplacian_decomposition",
      _lap_n3, mods)
    p(spectra, "spectral_sums", "spectra.spectral_sums", None, mods)
    p(spectra, "fit_alpha", "spectra.fit_alpha", None, mods)
    # Only the engine's binding: the decompositions of H, not of L.
    p(engine, "eigh", "spectra.eigh", _eigh_n3)
    p(engine, "success_probability", "engine.success_probability", _cells,
      mods)
    p(engine, "success_grid", "engine.success_grid", None, mods)
    p(engine, "gamma_max_search", "engine.gamma_max_search", None, mods)
    p(engine, "propagate_krylov", "engine.propagate_krylov", None, mods)
    p(graphs.Graph, "laplacian", "graphs.laplacian", _lap_bytes)
    p(graphs, "build", "graphs.build", _build, mods)
    p(graphs, "default_target", "graphs.default_target", None, mods)
    p(graphs.Graph, "to_edge_list", "graphs.to_edge_list", _edge_bytes)
    p(analysis, "fit_scaling", "analysis.fit_scaling", None, mods)
    p(cli, "_write_atomic", "cli.export", _written)
    p(engine, "overlap_sweep_csv", "cli.export", None, mods)
    p(spectra, "spectrum_csv", "cli.export", None, mods)
    p(engine.SuccessGrid, "to_matrix_csv", "cli.export")
    p(engine.SuccessGrid, "to_long_csv", "cli.export")
    p(engine.BoundReport, "to_dict", "cli.export")
    p(analysis.ScalingFit, "to_json", "cli.export")


def compute(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Every traced metric except ``trace.overhead_ratio``."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for m in METRICS:
        if m.name == "trace.overhead_ratio":
            continue
        base, what = m.name.rsplit(".", 1)
        if what == "calls":
            out[m.name] = float(sum(s.name == base for s in spans))
        elif what == "s":
            out[m.name] = inclusive_time(spans, _GROUPS.get(base, {base}))
        elif what == "self_s":
            out[m.name] = sum(t for s, t in zip(spans, selfs)
                              if s.name == base)
        else:
            out[m.name] = float(counts.get(m.name, 0.0))
    return out
