"""Tests of the benchmark itself (not of ctqwlab): span arithmetic, metric
names and units, seeded inputs, and failure counting."""
from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered_time, inclusive_time, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def ctqwlab():
    return worker.load_ctqwlab(run.ROOT)


# -- spans ------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 4.0, 0, 0),       # overlaps a: covered once
        Span("grand", 2.5, 3.5, 2, 0),   # not a child of root
        Span("late", 8.0, 12.0, 0, 0),   # clipped to the parent's end
    ]
    assert covered_time([(1, 3), (2, 4), (8, 12)], 0.0, 10.0) == 5.0
    assert self_times(spans) == [5.0, 2.0, 1.0, 1.0, 4.0]


def test_tracer_records_parents_ops_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda x: x + 1,
                        lambda t, a, k, r: t.counts.__setitem__("inner.n", r))

    def outer_fn(x):
        return inner(inner(x))

    outer = tracer.wrap("outer", outer_fn)
    tracer.op = 7
    assert outer(1) == 3
    outer_span, first, second = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.op) == ("outer", None, 7)
    assert first.parent == 0 and second.parent == 0
    # outer [0, 5], children [1, 2] and [3, 4]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.counts["inner.n"] == 3


def test_inclusive_time_counts_nested_spans_of_a_group_once():
    spans = [
        Span("build", 0.0, 4.0, None, 0),
        Span("other", 1.0, 3.0, 0, 0),
        Span("build", 1.5, 2.5, 1, 0),   # nested inside the outer build
        Span("build", 5.0, 6.0, None, 0),
    ]
    assert inclusive_time(spans, {"build"}) == 5.0
    assert inclusive_time(spans, {"other"}) == 2.0


def test_patch_and_restore(ctqwlab):
    from ctqwlab import cli, engine, graphs

    originals = (engine.critical_gamma, cli.critical_gamma, engine.sla,
                 graphs.Graph.laplacian)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.critical_gamma is engine.critical_gamma
        assert engine.critical_gamma is not originals[0]
        spec = graphs.GraphSpec(family="dsg", g=3)
        res = engine.critical_gamma(graphs.build(spec), 0)
    finally:
        tracer.restore()
    assert (engine.critical_gamma, cli.critical_gamma, engine.sla,
            graphs.Graph.laplacian) == originals
    got = layers.compute(tracer.spans, tracer.counts)
    assert got["engine.critical_gamma.calls"] == 1
    assert got["engine.critical_gamma.evaluations"] == res.evaluations
    # one overlaps call, one subset eigh and one dense Laplacian per
    # evaluation; the Laplacian decomposition for xi1 adds one more L
    assert got["engine.overlaps.calls"] == res.evaluations
    assert got["engine.window_eigh.calls"] == res.evaluations
    assert got["graphs.laplacian.calls"] == res.evaluations + 1
    assert got["spectra.laplacian_decomposition.n3_computed"] == 27.0 ** 3


# -- metric names and units ----------------------------------------------------------


def test_metric_names_units_and_benchmark_json_agree():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {m.name: (m.unit, "lower") for m in layers.METRICS}
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name, unit in {**e2e, **{k: v[0] for k, v in per_layer.items()}}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit
    for m in layers.METRICS:
        assert m.moves and m.most and m.none, m.name


def test_result_line_prints_every_metric_with_its_unit():
    fake = {"unexpected": 0, "attempted": 6, "failed": 1}
    e2e = run.result_json([fake], {"wall_s": 1.5, "setup_s": 0.5,
                                   "peak_rss_mb": 100.0})
    assert e2e["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    assert e2e["metrics"]["peak_rss_mb"]["unit"] == "MB"
    assert (e2e["correct"], e2e["attempted"], e2e["failed"]) == (True, 6, 1)
    traced = run.result_json([fake, dict(fake, unexpected=1)],
                             {m.name: 0.0 for m in layers.METRICS})
    assert set(traced["metrics"]) == {m.name for m in layers.METRICS}
    assert all(v["unit"] for v in traced["metrics"].values())
    assert traced["correct"] is False and traced["attempted"] == 12


# -- seeded inputs -----------------------------------------------------------------


def _shape(op: workloads.Op) -> tuple:
    """The op with every seeded value (targets, horizons) blanked out."""
    argv = list(op.argv)
    for flag in ("--target", "--tmax"):
        if flag in argv:
            argv[argv.index(flag) + 1] = "*"
    params = tuple((k, "*" if k in ("target", "times") else v)
                   for k, v in op.params)
    facts = tuple((k, "*" if k == "target" else v) for k, v in op.facts)
    return op.kind, op.check, op.call, tuple(argv), params, facts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_and_only_targets_and_horizons_vary(workload):
    first = workloads.operations(workload, 3)
    assert first == workloads.operations(workload, 3)
    shapes = {tuple(_shape(op) for op in workloads.operations(workload, s))
              for s in range(6)}
    assert len(shapes) == 1
    for seed in range(6):
        for op in workloads.operations(workload, seed):
            argv = list(op.argv)
            if "--tmax" in argv:
                base = {"dsg": 160.0, "complete": 4 * 3.141592653589793
                        * 512 ** 0.5}[op.fact("family")]
                assert abs(float(argv[argv.index("--tmax") + 1]) / base - 1) <= 0.05
            if op.kind == "lib" and "times" in dict(op.params):
                t0, t1, _ = op.param("times")
                base = {"torus": 160.0 if op.call == "gamma_max_search"
                        else 50.0, "dsg": 60.0}[op.param("family")]
                assert t0 == 0.0 and abs(t1 / base - 1) <= 0.05


def test_seeded_targets_are_symmetry_equivalent_to_the_default(ctqwlab):
    from ctqwlab import GraphSpec, build, default_target
    from ctqwlab.spectra import laplacian_decomposition, spectral_sums

    for family, g in (("dsg", 3), ("tfractal", 4), ("cayleytree", 4)):
        spec = GraphSpec(family=family, g=g)
        dec = laplacian_decomposition(build(spec))
        nodes = workloads.equivalent_targets(family, g=g)
        assert workloads.default_target(family, g=g) == default_target(spec)
        ref = spectral_sums(dec, default_target(spec))
        for w in nodes:
            # Equivalent nodes see the same spectral measure.
            got = spectral_sums(dec, w)
            assert got.xi1 == pytest.approx(ref.xi1, rel=1e-10)
            assert got.xi2 == pytest.approx(ref.xi2, rel=1e-10)
    graph = build(GraphSpec(family="tfractal", g=4))
    dist = graph.bfs_distances(0)
    deepest = set(int(i) for i in (dist == dist.max()).nonzero()[0])
    assert deepest == set(workloads.equivalent_targets("tfractal", g=4))


# -- failures are counted, never raised ---------------------------------------------


def test_failing_operations_are_counted_not_raised(ctqwlab, tmp_path):
    ops = [
        workloads.Op(kind="cli", check="bounds_ok",
                     argv=("verify", "--family", "dsg", "--g", "3",
                           "--gammas", "1e9"),
                     facts=(("family", "dsg"), ("g", 3))),
        workloads.Op(kind="lib", check="default_target_bfs",
                     call="no_such_call", params=(("family", "dsg"), ("g", 3))),
        workloads.Op(kind="cli", check="edge_list_lines",
                     argv=("generate", "--family", "dsg", "--g", "2"),
                     facts=(("family", "dsg"), ("size", (("g", 2),)))),
        # Succeeds, but its check reads a file the operation never wrote.
        workloads.Op(kind="cli", check="spectrum_trace",
                     argv=("generate", "--family", "dsg", "--g", "2"),
                     facts=(("family", "dsg"), ("g", 9))),
    ]
    passes = worker.run_passes(ops, 0.0, tmp_path)
    assert len(passes) == 1
    outcomes = passes[0].outcomes
    assert outcomes[0].error is not None   # crashes or exits 3
    assert outcomes[1].error is not None    # an exception out of a library call
    assert outcomes[2].error is None and outcomes[3].error is None
    found = worker.check_pass(ops, passes[0])
    assert [bool(f) for f in found] == [True, True, False, True]
    assert "raised FileNotFoundError" in found[3][0]


def test_only_known_failures_leave_the_run_correct(ctqwlab, tmp_path):
    raising = workloads.Op(kind="lib", check="default_target_bfs",
                           call="no_such_call",
                           params=(("family", "dsg"), ("g", 3)))
    known = dataclasses.replace(raising, known_failure="kept on purpose")
    listed = [op.label for w in workloads.WORKLOADS
              for op in workloads.operations(w, 0) if op.known_failure]
    assert len(listed) == 1
    assert listed[0].startswith("verify --family cayleytree --g 8 ")
    for ops, correct in (([known], True), ([known, raising], False)):
        passes = worker.run_passes(ops, 0.0, tmp_path / str(len(ops)))
        found = [worker.check_pass(ops, p) for p in passes]
        res = run.result_json([worker.tally(ops, passes, found)], {})
        assert res["failed"] == len(ops)
        assert res["correct"] is correct


def test_edge_list_check_rejects_a_wrong_line_count(tmp_path):
    op = workloads.Op(kind="cli", check="edge_list_lines",
                      facts=(("family", "dsg"), ("size", (("g", 2),))))
    (tmp_path / "edges_dsg_g2.txt").write_text("# N=9\n0 1\n")
    assert checks.edge_list_lines(op, 0, tmp_path)
