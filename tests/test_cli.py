"""End-to-end command-line coverage: artifacts on disk, determinism,
exit codes, and config-file precedence."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ctqwlab.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_writes_edge_list(tmp_path, capsys):
    assert run("generate", "--family", "dsg", "--g", "3",
               "--out", tmp_path) == 0
    path = tmp_path / "edges_dsg_g3.txt"
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "# N=27"
    assert len(lines) == 1 + (3**4 - 3) // 2
    out = capsys.readouterr().out
    assert "edges_dsg_g3.txt" in out


def test_generate_inline_product_spec(tmp_path):
    spec = json.dumps({
        "family": "product",
        "factors": [{"family": "dsg", "g": 2},
                    {"family": "chain", "L": 4, "periodic": False}],
    })
    assert run("generate", "--spec", spec, "--out", tmp_path) == 0
    files = list(tmp_path.glob("edges_*.txt"))
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header == "# N=36"


def test_spectrum_artifact_and_rerun_identical(tmp_path):
    assert run("spectrum", "--family", "torus", "--L", "4", "--d", "2",
               "--out", tmp_path) == 0
    path = tmp_path / "spectrum_torus_d2_L4.csv"
    first = path.read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity_group"
    assert len(lines) == 17
    assert run("spectrum", "--family", "torus", "--L", "4", "--d", "2",
               "--out", tmp_path) == 0
    assert path.read_bytes() == first


@pytest.mark.parametrize("family,g", [("dsg", 4)])
def test_spectrum_in_place_matches_eigvalsh_on_a_copy(tmp_path, family, g):
    """Decomposing L in its own memory writes the very bytes that scipy's
    eigvalsh on an untouched L gives (the dense route)."""
    import scipy.linalg as sla

    from ctqwlab.graphs import GraphSpec, build
    from ctqwlab.spectra import spectrum_csv

    assert run("spectrum", "--family", family, "--g", str(g),
               "--out", tmp_path) == 0
    values = sla.eigvalsh(build(GraphSpec(family=family, g=g)).laplacian())
    assert (tmp_path / f"spectrum_{family}_g{g}.csv").read_text() == \
        spectrum_csv(values)


@pytest.mark.parametrize("family,g", [("tfractal", 5), ("cayleytree", 6)])
def test_tree_spectrum_matches_eigvalsh_on_a_copy(tmp_path, family, g,
                                                  monkeypatch):
    """On a tree the eigenvalues come from the quotient's blocks, with no
    dense L formed: within 1e-12 of eigvalsh on a copy of L, in the same
    degeneracy groups."""
    import scipy.linalg as sla

    from ctqwlab.graphs import Graph, GraphSpec, build
    from ctqwlab.spectra import degeneracy_groups

    laplacian = build(GraphSpec(family=family, g=g)).laplacian()
    calls = []
    real = Graph.laplacian
    monkeypatch.setattr(Graph, "laplacian",
                        lambda self: calls.append(self) or real(self))
    assert run("spectrum", "--family", family, "--g", str(g),
               "--out", tmp_path) == 0
    assert calls == []
    rows = (tmp_path / f"spectrum_{family}_g{g}.csv").read_text() \
        .splitlines()[1:]
    got = np.array([float(row.split(",")[1]) for row in rows])
    want = sla.eigvalsh(laplacian)
    assert np.abs(got - want).max() <= 1e-12
    assert [int(row.split(",")[2]) for row in rows] == \
        degeneracy_groups(want).tolist()


def test_spectrum_names_the_route_on_stdout_only(tmp_path, capsys):
    assert run("spectrum", "--family", "tfractal", "--g", "7",
               "--out", tmp_path) == 0
    assert capsys.readouterr().out.endswith("route=tree cells=234\n")
    assert run("spectrum", "--family", "torus", "--L", "4", "--d", "2",
               "--out", tmp_path) == 0
    assert capsys.readouterr().out.endswith("route=product\n")
    assert run("spectrum", "--family", "dsg", "--g", "3",
               "--out", tmp_path) == 0
    assert capsys.readouterr().out.endswith("route=dense\n")
    for path in tmp_path.iterdir():
        assert "route" not in path.read_text()


def test_spectrum_computes_no_eigenvectors(tmp_path, request):
    from ctqwlab import spectra
    from ctqwlab.graphs import GraphSpec, build

    ref = spectra.laplacian_decomposition(
        build(GraphSpec(family="tfractal", g=4)))
    request.getfixturevalue("no_decompositions")
    assert run("spectrum", "--family", "tfractal", "--g", "4",
               "--out", tmp_path) == 0
    rows = (tmp_path / "spectrum_tfractal_g4.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    labels = [int(r.split(",")[2]) for r in rows]
    assert np.abs(values - ref[0]).max() <= 1e-12
    assert labels == spectra.degeneracy_groups(ref[0]).tolist()


def test_overlaps_csv_values_round_trip(tmp_path):
    assert run("overlaps", "--family", "complete", "--n", "32",
               "--gamma-min", "0.01", "--gamma-max", "0.08",
               "--gamma-count", "5", "--out", tmp_path) == 0
    path = tmp_path / "overlaps_complete_n32.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("gamma,sPsi0Sq,sPsi1Sq,wPsi0Sq,wPsi1Sq,E0,E1,"
                        "degenerateE1")
    assert len(lines) == 6
    row = lines[1].split(",")
    assert len(row) == 8
    # 17 significant digits reproduce the double exactly
    val = float(row[1])
    assert float(f"{val:.17g}") == val
    assert row[7] in {"0", "1"}


def test_critgamma_table(tmp_path, capsys):
    assert run("critgamma", "--family", "complete", "--sizes", "16,32",
               "--out", tmp_path) == 0
    path = tmp_path / "critgamma_complete.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,N,gamma_crit,xi1,residual,evaluations"
    assert len(lines) == 3
    for line, n in zip(lines[1:], (16, 32)):
        cells = line.split(",")
        assert cells[0] == f"complete_n{n}"
        assert int(cells[1]) == n
        # the balanced-overlap coupling is exactly (N-2)/N^2 here
        assert float(cells[2]) == pytest.approx((n - 2) / n**2, rel=1e-6)
        assert float(cells[4]) <= 1e-6
    out = capsys.readouterr().out
    assert "complete_n16" in out


@pytest.mark.parametrize("command", ["critgamma", "fit"])
def test_a_sweep_names_the_size_that_fails(command, tmp_path, capsys):
    """complete_n2 has no crossing while n = 3 and 4 do: the sweep stops
    with the error's own type and exit code, its message prefixed by the
    failing size's label."""
    code = run(command, "--family", "complete", "--sizes", "2,3,4",
               "--out", tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "NoTransitionError"
    assert payload["message"].startswith("complete_n2: no overlap crossing")
    assert not list(tmp_path.iterdir())
    for n in (3, 4):
        assert run("critgamma", "--family", "complete", "--sizes", str(n),
                   "--out", tmp_path) == 0


def test_critgamma_and_fit_name_the_route_on_stdout_only(tmp_path, capsys):
    """The summary lines say which route each measure took; the artifacts
    do not, and a rerun writes the same bytes."""
    argv = ("critgamma", "--family", "cayleytree", "--g", "3..4")
    assert run(*argv, "--out", tmp_path / "a") == 0
    out = capsys.readouterr().out
    assert "cayleytree_g3: N=22 gamma_crit=" in out
    assert "route=tree cells=10\n" in out
    assert run(*argv, "--out", tmp_path / "b") == 0
    capsys.readouterr()
    text = (tmp_path / "a" / "critgamma_cayleytree.csv").read_text()
    assert "route" not in text and "quotient" not in text
    assert text == (tmp_path / "b" / "critgamma_cayleytree.csv").read_text()
    assert run("critgamma", "--family", "dsg", "--g", "3",
               "--out", tmp_path) == 0
    assert "route=dense\n" in capsys.readouterr().out
    assert run("fit", "--family", "tfractal", "--g", "3..5",
               "--out", tmp_path) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(" route: tfractal_g3 tree cells=14, "
                            "tfractal_g4 tree cells=35, "
                            "tfractal_g5 tree cells=90")
    assert "quotient" not in (tmp_path / "fit_tfractal_power.json").read_text()


def test_torus_sweeps_honour_open(tmp_path, capsys):
    """--open reaches every spec of a torus sweep, as it does a chain's:
    the rows are the open tori's, at the library's critical couplings."""
    from ctqwlab.engine import critical_gamma
    from ctqwlab.graphs import Family, GraphSpec, build

    sweep = ("--family", "torus", "--d", "2", "--open", "--out", tmp_path)
    assert run("critgamma", *sweep, "--sizes", "6,8") == 0
    rows = [line.split(",") for line in
            (tmp_path / "critgamma_torus.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["torus_d2_L6_open", "torus_d2_L8_open"]
    for row, L, pinned in zip(rows, (6, 8), (0.88195018236825939,
                                             1.0648581107130659)):
        spec = GraphSpec(Family.TORUS, L=L, d=2, periodic=False)
        gamma = critical_gamma(build(spec), 0).gamma
        assert float(row[2]) == gamma
        assert gamma == pytest.approx(pinned, rel=1e-12)
    capsys.readouterr()
    assert run("fit", *sweep, "--sizes", "6,8,10") == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(
        " route: torus_d2_L6_open dense, torus_d2_L8_open dense, "
        "torus_d2_L10_open dense")
    points = json.loads((tmp_path / "fit_torus_power.json").read_text())["points"]
    assert [gc for _, gc in points[:2]] == [float(row[2]) for row in rows]


def test_open_is_refused_without_a_boundary(tmp_path, capsys):
    for argv in (("spectrum", "--family", "dsg", "--g", "2", "--open"),
                 ("critgamma", "--family", "dsg", "--g", "2..3", "--open")):
        assert run(*argv, "--out", tmp_path) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"] == "dsg: parameter 'periodic' is not accepted"
    assert not list(tmp_path.iterdir())


def test_success_grid_artifacts(tmp_path, capsys):
    assert run("success", "--family", "complete", "--n", "16",
               "--gamma-min", "0.04", "--gamma-max", "0.09",
               "--gamma-count", "3", "--tmax", "30", "--t-count", "13",
               "--out", tmp_path) == 0
    mat = (tmp_path / "success_complete_n16_matrix.csv").read_text()
    rows = mat.strip().splitlines()
    assert rows[0].split(",")[0] == "gamma_by_t"
    assert len(rows) == 4
    long_rows = (tmp_path / "success_complete_n16_long.csv"
                 ).read_text().strip().splitlines()
    assert long_rows[0] == "gamma,t,pi"
    assert len(long_rows) == 1 + 3 * 13
    assert "peak" in capsys.readouterr().out


def test_success_single_gamma_reports_period(tmp_path, capsys):
    n = 64
    assert run("success", "--family", "complete", "--n", n,
               "--gamma", 1.0 / n, "--tmax", 4 * math.pi * math.sqrt(n),
               "--t-count", "257", "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "oscillation period" in out
    stated = float(out.split("oscillation period ~")[1].split()[0])
    assert stated == pytest.approx(math.pi * math.sqrt(n), rel=0.02)


def test_success_with_two_times_prints_no_period(tmp_path, capsys):
    """Two samples have no interior maximum: the peak and no period."""
    assert run("success", "--family", "complete", "--n", "3", "--gamma", "1",
               "--t-count", "2", "--out", tmp_path) == 0
    out, err = capsys.readouterr()
    assert out.startswith("peak pi=")
    assert "oscillation period" not in out and err == ""
    for name in ("success_complete_n3_matrix.csv",
                 "success_complete_n3_long.csv"):
        assert (tmp_path / name).exists()


def test_success_rerun_is_byte_identical(tmp_path):
    base = ["success", "--family", "dsg", "--g", "3",
            "--gamma-count", "4", "--tmax", "20", "--t-count", "9"]
    assert run(*base, "--out", tmp_path / "a") == 0
    assert run(*base, "--out", tmp_path / "b") == 0
    for name in ("success_dsg_g3_matrix.csv", "success_dsg_g3_long.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_fit_powerlaw_artifact(tmp_path, capsys):
    assert run("fit", "--family", "complete", "--sizes", "8,16,32,64",
               "--model", "power", "--alpha", "-1", "--out", tmp_path) == 0
    data = json.loads((tmp_path / "fit_complete_power.json").read_text())
    assert data["model"] == "power"
    # small sizes bend the (N-2)/N^2 law away from a pure power;
    # the exponent still has to land in the right neighbourhood
    assert -1.05 < data["params"]["beta"] < -0.8
    assert data["residual"] < 0.05
    assert len(data["points"]) == 4
    assert "beta" in capsys.readouterr().out


def test_fit_decomposes_each_spec_once_with_the_resolved_guard(
        tmp_path, monkeypatch, decompositions):
    """The critical couplings and the alpha fit share one Laplacian measure
    per spec, decomposed under the guard the flag or the environment set."""
    argv = ("fit", "--family", "dsg", "--g", "2..4", "--out", tmp_path)
    assert run(*argv, "--dense-guard", "0") == 0
    assert decompositions == [None] * 3
    monkeypatch.setenv("CTQW_DENSE_GUARD", "500")
    assert run(*argv) == 0
    assert decompositions == [None] * 3 + [500] * 3
    data = json.loads((tmp_path / "fit_dsg_power.json").read_text())
    assert data["alpha_used"] is not None


def test_fit_log_model_for_trees(tmp_path):
    assert run("fit", "--family", "cayleytree", "--g", "3..6",
               "--out", tmp_path) == 0
    data = json.loads((tmp_path / "fit_cayleytree_log.json").read_text())
    assert data["model"] == "log"
    assert set(data["params"]) == {"a", "b"}
    assert data["params"]["a"] == pytest.approx(1.0, abs=0.15)


def test_verify_report(tmp_path, capsys):
    assert run("verify", "--family", "dsg", "--g", "3",
               "--out", tmp_path) == 0
    data = json.loads((tmp_path / "bounds_dsg_g3.json").read_text())
    assert data["n"] == 27
    assert data["checks"]
    out = capsys.readouterr().out
    assert "s_psi0_sq_above_floor" in out


@pytest.mark.parametrize("check", [
    "complete-vs-engine", "dsg-spectrum", "dsg-zeta", "decimation",
])
def test_oracle_checks_pass(check, capsys):
    assert run("oracle", "--check", check) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["max_error"] <= report["tolerance"]


def test_oracle_krylov_check(capsys):
    assert run("oracle", "--check", "krylov-vs-spectral") == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("check,flag,size,tolerance,details", [
    ("complete-vs-engine", "--n", 16, 1e-10, {"n": 16}),
    ("dsg-spectrum", "--g", 3, 1e-9, {"g": 3}),
    ("dsg-zeta", "--g", 3, 1e-10, {"g": 3}),
    ("decimation", "--g", 3, 1e-9, {"g": 3}),
    ("krylov-vs-spectral", "--g", 2, 1e-12, {"g": 2, "gamma": 1.0}),
    ("dsg-zeta", "--g", 12, 1e-10, {"g": 12}),
    ("decimation", "--g", 12, 1e-9, {"g": 12}),
])
def test_oracle_report_reads_the_size_flag(check, flag, size, tolerance,
                                           details, capsys):
    assert run("oracle", "--check", check, flag, size) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["check", "passed", "max_error", "tolerance",
                            "details"]
    assert report["tolerance"] == tolerance
    assert list(report["details"].items()) == list(details.items())


def test_an_oracle_check_above_its_tolerance_exits_3(capsys, monkeypatch):
    from ctqwlab import cli

    monkeypatch.setitem(cli._ORACLES, "dsg-zeta",
                        ("g", 4, 1e-10, lambda g: 1.0, {}))
    assert run("oracle", "--check", "dsg-zeta") == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "check": "dsg-zeta", "passed": False, "max_error": 1.0,
        "tolerance": 1e-10, "details": {"g": 4}}
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "NumericalError", "exit_code": 3,
        "message": "oracle check dsg-zeta failed: max error 1 > 1e-10"}


def test_dsg_spectrum_oracle_computes_no_eigenvectors(capsys, request):
    from ctqwlab import spectra
    from ctqwlab.graphs import GraphSpec, build
    from ctqwlab.oracles import dsg_exact_spectrum

    dec = spectra.laplacian_decomposition(build(GraphSpec(family="dsg", g=4)))
    before = float(np.abs(dec[0] - dsg_exact_spectrum(4).expand()).max())
    request.getfixturevalue("no_decompositions")
    assert run("oracle", "--check", "dsg-spectrum") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert abs(report["max_error"] - before) <= 1e-12
    # N = 81 for g = 4, above a guard of 50: exit 4.
    assert run("oracle", "--check", "dsg-spectrum", "--dense-guard", "50") == 4


@pytest.mark.parametrize("check", ["dsg-spectrum", "krylov-vs-spectral"])
def test_dense_dsg_oracles_refuse_before_the_build(check, monkeypatch,
                                                   capsys):
    """Both checks end in a dense solve of order N = 3^g, so the guard on
    N refuses them before the graph is built: g = 5 (N = 243) under a
    guard of 100 exits 4 with no call to build."""
    from ctqwlab import cli

    built, real = [], cli.build

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "build", spy)
    assert run("oracle", "--check", check, "--g", 5,
               "--dense-guard", 100) == 4
    assert built == []
    assert "problem size 243 exceeds dense guard 100" in \
        capsys.readouterr().err


def test_exit_code_2_on_bad_usage(tmp_path, capsys):
    cases = [
        ("generate", "--family", "moebius", "--n", "8"),
        ("generate",),
        ("spectrum", "--family", "dsg", "--g", "0"),
        ("overlaps", "--family", "complete", "--n", "8",
         "--target", "99", "--gamma", "0.1"),
        ("generate", "--spec", "{}", "--spec-file", "x.json"),
        ("generate", "--spec", '{"family": "dsg", "g": true}'),
        ("generate", "--spec",
         '{"family": "torus", "L": 4, "d": 2, "periodic": "no"}'),
        ("oracle", "--check", "nope"),
    ]
    for argv in cases:
        code = run(*argv, "--out", tmp_path)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert json.loads(err.strip().splitlines()[-1])["exit_code"] == 2


def test_exit_code_3_when_no_crossing(tmp_path, capsys):
    code = run("critgamma", "--family", "dsg", "--g", "3",
               "--gamma-floor", "100", "--gamma-ceiling", "1000",
               "--out", tmp_path)
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NoTransitionError"


def test_exit_code_3_when_no_crossing_below_the_ceiling(tmp_path, capsys):
    from ctqwlab.graphs import Family, GraphSpec, build
    from ctqwlab.spectra import target_measure

    ceiling = target_measure(build(GraphSpec(Family.DSG, g=3)), 0).xi1 / 4
    assert run("critgamma", "--family", "dsg", "--g", "3",
               "--gamma-ceiling", repr(ceiling), "--out", tmp_path) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "NoTransitionError", "exit_code": 3,
        "message": f"dsg_g3: no overlap crossing below "
                   f"gamma_ceiling={ceiling}"}


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ConfigError", "exit_code": 2,
        "message": "the following arguments are required: command"}


@pytest.mark.parametrize("window", [
    ("--gamma-floor", "nan"),
    ("--gamma-floor", "10", "--gamma-ceiling", "1"),
    ("--gamma-floor", "-1"),
    ("--gamma-ceiling", "inf"),
])
def test_exit_code_2_on_a_bad_coupling_window(window, tmp_path, capsys):
    code = run("critgamma", "--family", "dsg", "--g", "3", *window,
               "--out", tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert "gamma_floor < gamma_ceiling" in payload["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (("success", "--family", "complete", "--n", "5", "--gamma", "1e308"),
     "overflows H"),
    (("overlaps", "--family", "dsg", "--g", "3", "--gamma", "1e308"),
     "overflows H"),
    (("success", "--family", "dsg", "--g", "3", "--gamma", "-1"),
     "gamma must be positive and finite"),
    (("overlaps", "--family", "dsg", "--g", "3", "--gamma", "-1"),
     "gamma must be positive and finite"),
    (("success", "--family", "dsg", "--g", "3", "--target", "99"),
     "target 99 out of range for 27 nodes"),
    (("overlaps", "--family", "dsg", "--g", "3", "--target", "99",
      "--gamma", "1"), "target 99 out of range for 27 nodes"),
    (("verify", "--family", "dsg", "--g", "3", "--target", "-1"),
     "target -1 out of range for 27 nodes"),
    (("overlaps", "--family", "complete", "--n", "8", "--gamma-min", "1e-310",
      "--gamma-max", "1"),
     "gamma=1e-310 is too small: the lowest visible pole gamma*lam=8e-310 "
     "is subnormal"),
    (("oracle", "--check", "dsg-zeta", "--g", "300"),
     "dsg zeta at g = 300 overflows a float"),
    (("oracle", "--check", "decimation", "--g", "23"),
     "dsg spectrum needs g <= 22, not 23"),
    (("oracle", "--check", "dsg-zeta", "--g", "23"),
     "dsg spectrum needs g <= 22, not 23"),
    (("critgamma", "--family", "dsg", "--g", "6..3"),
     "--g must be an integer or a range like 3..6, got '6..3'"),
    (("critgamma", "--family", "dsg", "--g", "x"),
     "--g must be an integer or a range like 3..6, got 'x'"),
    (("critgamma", "--family", "complete", "--sizes", "8,x"),
     "--sizes must be comma-separated int values, got '8,x'"),
    (("critgamma", "--family", "complete", "--sizes", ""), "--sizes is empty"),
    (("critgamma", "--g", "3"), "--family is required"),
    (("critgamma", "--family", "product"),
     "sweeps over product are not supported"),
    (("critgamma", "--family", "dsg"), "--g (e.g. 3..6) is required for dsg"),
    (("fit", "--family", "complete"),
     "--sizes (comma list) is required for complete"),
    (("critgamma", "--family", "torus", "--sizes", "4"),
     "--d is required for torus sweeps"),
    (("generate", "--spec-file", "no/such/spec.json"),
     "cannot read spec file no/such/spec.json"),
    (("overlaps", "--family", "complete", "--n", "8", "--gamma", "0.1",
      "--gamma-min", "0.01"),
     "give either --gamma or a --gamma-min/--gamma-max window, not both"),
    (("overlaps", "--family", "complete", "--n", "8", "--gamma-min", "0.01"),
     "--gamma-min and --gamma-max go together"),
    (("overlaps", "--family", "complete", "--n", "8", "--gamma-count", "0"),
     "--gamma-count must be >= 1"),
    (("success", "--family", "complete", "--n", "8", "--gamma", "0.1",
      "--tmin", "5", "--tmax", "1"), "bad time window [5.0, 1.0]"),
    (("success", "--family", "complete", "--n", "8", "--gamma", "0.1",
      "--t-count", "1"), "--t-count must be >= 2"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_the_library_refuses_couplings_and_targets(argv, message, tmp_path,
                                                    capsys):
    """Exit 2, one JSON line and no file, from the one check of each, the
    library's or the command line's; gamma = 1e308 is finite, but H's bound
    2 gamma d + 1 is not, and gamma = 1e-310 is positive, but the secular
    equation of its subnormal poles leaves the float range."""
    code = run(*argv, "--out", tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert message in payload["message"]
    assert not list(tmp_path.iterdir())


def test_a_non_finite_pi_exits_3_and_writes_no_csv(tmp_path, capsys):
    """gamma = 1e306 passes its check, but the phases gamma lam t overflow
    at t = 1e5 and pi(t) is NaN: exit 3, not a CSV of nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("success", "--family", "complete", "--n", 5,
                   "--gamma", "1e306", "--tmax", "1e5", "--t-count", 3,
                   "--out", tmp_path)
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "NumericalError"
    assert payload["message"] == ("success probability left [0, 1]: "
                                  "range [nan, nan]")
    assert not list(tmp_path.iterdir())


def test_overflowing_phases_print_one_json_line_and_no_warning(tmp_path,
                                                               capsys):
    """The phases gamma lam t of gamma = 1e306 overflow at t = 1e5: with
    warnings turned into errors the run still exits 3, and stderr holds
    the one JSON line and nothing else."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("success", "--family", "complete", "--n", 5,
                   "--gamma", "1e306", "--tmax", "1e5", "--t-count", 3,
                   "--out", tmp_path)
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NumericalError"


@pytest.mark.parametrize("argv", [
    ("success", "--family", "complete", "--n", 8, "--gamma-min", "1e-3",
     "--gamma-max", "1e400"),
    ("overlaps", "--family", "complete", "--n", 8, "--gamma-min", "1e-3",
     "--gamma-max", "inf", "--gamma-scale", "lin"),
], ids=["log", "lin"])
def test_an_infinite_window_end_exits_2_and_no_warning(argv, tmp_path,
                                                        capsys):
    """``--gamma-max 1e400`` parses as inf: the window is refused before
    geomspace or linspace can warn, with one JSON line on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(*argv, "--out", tmp_path)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert "gamma-max < inf" in payload["message"]
    assert not list(tmp_path.iterdir())


def test_success_grid_is_one_stacked_eigensolve(tmp_path, capsys,
                                                monkeypatch):
    """``success --gamma-count 16`` on dsg g5 makes two eigh calls: the
    dense L of its measure and one (16, K, K) stack of every coupling."""
    import scipy.linalg as sla

    from ctqwlab.graphs import GraphSpec, build, default_target
    from ctqwlab.spectra import target_measure

    spec = GraphSpec(family="dsg", g=5)
    k = target_measure(build(spec), default_target(spec)) \
        .group_eigenvalues.size
    shapes = []
    real = sla.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(sla, "eigh", spy)
    assert run("success", "--family", "dsg", "--g", 5, "--gamma-count", 16,
               "--out", tmp_path) == 0
    assert shapes == [(243, 243), (16, k, k)]


def test_exit_code_3_when_verify_fails(tmp_path, capsys):
    # The default couplings include gamma = xi1/8 = 0.5453, where
    # s_psi1_sq = 0.92224 misses the perturbative floor 0.92284: a genuine
    # miss, not roundoff.
    code = run("verify", "--family", "cayleytree", "--g", "5",
               "--out", tmp_path)
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "NumericalError"
    assert payload["exit_code"] == 3
    assert "bound checks failed" in payload["message"]
    report = json.loads((tmp_path / "bounds_cayleytree_g5.json").read_text())
    assert [c["name"] for c in report["checks"]
            if c["satisfied"] is False] == ["s_psi1_sq_above_floor"]


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "dsg", "--g", "10000"),
    ("oracle", "--check", "dsg-spectrum", "--g", "10000"),
], ids=["generate", "oracle"])
def test_a_size_of_thousands_of_digits_exits_4(tmp_path, capsys, argv):
    """3^10000 nodes has 4,772 digits, past the 4,300 that Python writes
    in decimal: the guard's message gives it from its logarithm."""
    assert run(*argv, "--out", tmp_path) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "DenseGuardError"
    assert "problem size 10^4771.213 exceeds dense guard 6000" in \
        payload["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,code,message", [
    (("spectrum", "--family", "torus", "--L", 2, "--d", 5000), 2,
     "10^1505.150 nodes are more than int64 node ids can number"),
    (("generate", "--family", "torus", "--L", 2, "--d", 5000), 4,
     "generate torus_d5000_L2: problem size 10^1505.150 exceeds"),
    (("generate", "--spec-file", "nested.json"), 2,
     "graph spec nests too deep to read"),
], ids=["spectrum-torus", "generate-torus", "generate-nested"])
def test_a_spec_past_the_recursion_limit_exits_with_one_line(
        argv, code, message, tmp_path, capsys, monkeypatch):
    """``build`` recurses once per torus dimension and the JSON reader once
    per nesting, so both runs of exit 2 used to end in a RecursionError
    traceback.  The 2^5000-node torus is refused before it is built, on
    int64 node ids, and ``generate`` refuses it on the guard first; 3,000
    nested products are refused as the spec is read."""
    chain = '{"family": "chain", "L": 2}'
    (tmp_path / "nested.json").write_text(
        '{"family": "product", "factors": [' * 3000 + chain
        + f", {chain}]}}" * 3000)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert run(*argv, "--out", out) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["message"]
    assert not list(out.iterdir())


def test_exit_code_4_dense_guard_flag(tmp_path, capsys):
    code = run("spectrum", "--family", "complete", "--n", "64",
               "--dense-guard", "10", "--out", tmp_path)
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DenseGuardError"


def test_a_product_past_the_guard_builds_silently(tmp_path, capsys):
    """``spectrum --dense-guard 0`` on an 80 x 80 open-chain product
    (6,400 nodes, above the default guard) writes nothing to stderr, with
    warnings turned into errors: the 6,400 sums of the two chains'
    eigenvalues, ascending from 0."""
    chain = {"family": "chain", "L": 80, "periodic": False}
    spec = json.dumps({"family": "product", "factors": [chain, chain]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("spectrum", "--spec", spec, "--dense-guard", "0",
                   "--out", tmp_path) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith("route=product\n")
    [path] = tmp_path.iterdir()
    values = np.array([float(row.split(",")[1])
                       for row in path.read_text().splitlines()[1:]])
    assert values.size == 6400
    assert abs(values[0]) <= 1e-12 and np.all(np.diff(values) >= 0)


def test_dense_guard_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CTQW_DENSE_GUARD", "10")
    code = run("spectrum", "--family", "complete", "--n", "64",
               "--out", tmp_path)
    assert code == 4
    capsys.readouterr()
    # explicit flag outranks the environment
    monkeypatch.setenv("CTQW_DENSE_GUARD", "10")
    assert run("spectrum", "--family", "complete", "--n", "64",
               "--dense-guard", "100", "--out", tmp_path) == 0
    capsys.readouterr()
    monkeypatch.setenv("CTQW_DENSE_GUARD", "abc")
    assert run("spectrum", "--family", "complete", "--n", "64",
               "--out", tmp_path) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["message"] == "CTQW_DENSE_GUARD must be an integer, got 'abc'"


def test_config_file_defaults_and_override(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "dsg", "g": "3",
                                "out": str(tmp_path)}))
    assert run("generate", "--config", conf) == 0
    assert (tmp_path / "edges_dsg_g3.txt").exists()
    capsys.readouterr()
    # flags win over config values
    assert run("generate", "--config", conf, "--g", "2") == 0
    assert (tmp_path / "edges_dsg_g2.txt").exists()
    # a later run in the same process sees none of the config's defaults
    later = tmp_path / "later"
    later.mkdir()
    monkeypatch.chdir(later)
    assert run("generate") == 2                     # no family
    assert run("generate", "--family", "dsg") == 2  # no g
    assert run("generate", "--family", "dsg", "--g", "1") == 0
    assert (later / "edges_dsg_g1.txt").exists()    # no out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "dsg", "g": "3",
                                "grammar": "klingon"}))
    assert run("generate", "--config", conf, "--out", tmp_path) == 2
    msg = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "grammar" in msg["message"]
    # sweeps run serially; there is no thread-count key
    conf.write_text(json.dumps({"family": "dsg", "g": "3", "threads": 2}))
    assert run("success", "--config", conf, "--out", tmp_path) == 2
    msg = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "threads" in msg["message"]


@pytest.mark.parametrize("conf,argv,code", [
    ({"open_boundary": "no"}, ("spectrum", "--family", "chain", "--L", 4), 2),
    ({"gamma_scale": "cubic"},
     ("overlaps", "--family", "complete", "--n", 8, "--gamma-count", 3), 2),
    ({"family": "nope"}, ("spectrum", "--n", 4), 2),
    ({"model": "cubic"}, ("fit", "--family", "dsg", "--g", "2..4"), 2),
    ({"gamma_count": 3.5}, ("overlaps", "--family", "complete", "--n", 8), 2),
    ({"out": None}, ("spectrum", "--family", "complete", "--n", 4), 2),
    ({"out": 5}, ("spectrum", "--family", "complete", "--n", 4), 0),
    ({"open_boundary": False, "out": 5},
     ("spectrum", "--family", "complete", "--n", 4), 0),
], ids=["open", "gamma_scale", "family", "model", "gamma_count", "null",
        "out", "open_false"])
def test_config_values_pass_the_checks_of_their_flags(
        tmp_path, capsys, monkeypatch, conf, argv, code):
    """A config value is parsed as its flag given on the command line: a
    value the flag refuses, or a null that no flag takes, exits 2 with one
    JSON line and writes nothing, {"out": 5} acts as --out 5, and
    {"open_boundary": false} gives no flag."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    assert run(*argv, "--config", path) == code
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for p in tmp_path.rglob("*.*") if p != path)
    if code == 0:
        assert written == ["5/spectrum_complete_n4.csv"]
        return
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == 2
    assert written == []


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config "),
    ("{", "is not valid JSON"),
    ("[1, 2]", "config must be a JSON object of flag defaults"),
], ids=["missing", "invalid", "array"])
def test_a_config_that_is_not_a_json_object_exits_2(text, message, tmp_path,
                                                     capsys):
    path = tmp_path / "conf.json"
    if text is not None:
        path.write_text(text)
    assert run("generate", "--family", "dsg", "--g", 2, "--config", path,
               "--out", tmp_path) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert message in payload["message"]
    assert list(tmp_path.iterdir()) == ([] if text is None else [path])


def test_a_spec_file_and_a_linear_coupling_grid_run(tmp_path, capsys):
    """``--spec-file`` builds the graph its flags name, and
    ``--gamma-scale lin`` spaces the couplings evenly."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"family": "dsg", "g": 2}')
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    assert run("generate", "--spec-file", spec, "--out", by_file) == 0
    assert run("generate", "--family", "dsg", "--g", 2, "--out", by_flags) == 0
    assert ((by_file / "edges_dsg_g2.txt").read_bytes()
            == (by_flags / "edges_dsg_g2.txt").read_bytes())
    assert run("overlaps", "--family", "complete", "--n", 8, "--gamma-scale",
               "lin", "--gamma-min", 0.1, "--gamma-max", 0.3, "--gamma-count",
               3, "--out", tmp_path) == 0
    csv = (tmp_path / "overlaps_complete_n8.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in csv[1:]] == \
        np.linspace(0.1, 0.3, 3).tolist()


def test_config_can_supply_a_required_flag(tmp_path, capsys):
    """``oracle`` requires --check, and a config file can give it, as
    ``--config path`` or ``--config=path``; an explicit flag still wins."""
    conf = tmp_path / "k.json"
    conf.write_text(json.dumps({"check": "dsg-zeta"}))
    for argv in (("--config", conf), (f"--config={conf}",)):
        assert run("oracle", *argv, "--out", tmp_path) == 0
        assert json.loads(capsys.readouterr().out)["check"] == "dsg-zeta"
    assert run("oracle", "--config", conf, "--check", "decimation",
               "--g", 3, "--out", tmp_path) == 0
    assert json.loads(capsys.readouterr().out)["check"] == "decimation"


def test_the_guard_scope_never_leaks(tmp_path, capsys):
    """Each ``main`` call sets the guard for its own run only, whatever its
    exit code, and a ``dense_guard`` block restores the limit it found,
    also when an exception leaves it.  dsg g8 (6,561 nodes, not a tree)
    must be refused again at the default guard after each."""
    from ctqwlab import errors
    from ctqwlab.errors import DEFAULT_DENSE_GUARD, DenseGuardError
    from ctqwlab.graphs import Family, GraphSpec, build
    from ctqwlab.spectra import eigh, target_measure

    big = build(GraphSpec(Family.DSG, g=8))

    def default_in_force():
        assert errors._LIMIT.get() == DEFAULT_DENSE_GUARD
        with pytest.raises(DenseGuardError, match="problem size 6561 "):
            target_measure(big, 0)

    for argv, code in (
            (("generate", "--family", "dsg", "--g", 2, "--dense-guard", 0), 0),
            (("overlaps", "--family", "dsg", "--g", 3, "--gamma", -1,
              "--dense-guard", 0), 2),
            (("critgamma", "--family", "complete", "--sizes", 2,
              "--dense-guard", 0), 3),
            (("spectrum", "--family", "complete", "--n", 8000,
              "--dense-guard", 7000), 4)):
        assert run(*argv, "--out", tmp_path) == code
        default_in_force()
    # After generate --dense-guard 0, generate is refused again.
    assert run("generate", "--family", "dsg", "--g", 9,
               "--out", tmp_path) == 4
    capsys.readouterr()
    with pytest.raises(RuntimeError), errors.dense_guard(None):
        raise RuntimeError
    default_in_force()
    with errors.dense_guard(20):
        with errors.dense_guard(None):
            eigh(np.eye(21))
        with pytest.raises(DenseGuardError, match="exceeds dense guard 20;"):
            eigh(np.eye(21))
    default_in_force()


def test_the_complete_graph_reads_the_guard_before_its_edge_array(
        tmp_path, capsys, monkeypatch):
    """The complete graph's O(n^2) edge array is formed only under the
    guard: ``build`` refuses above it, and so does every command that
    builds one, with one exit-4 JSON line; ``--dense-guard 0`` builds."""
    from ctqwlab import graphs
    from ctqwlab.errors import DenseGuardError, dense_guard
    from ctqwlab.graphs import Family, GraphSpec, build

    def refuse(*args, **kwargs):
        raise AssertionError("the O(n^2) edge array was formed")

    with monkeypatch.context() as patch:
        patch.setattr(graphs.np, "triu_indices", refuse)
        with pytest.raises(DenseGuardError, match="problem size 11 "), \
                dense_guard(10):
            build(GraphSpec(Family.COMPLETE, n=11))
        for argv in (("spectrum", "--family", "complete", "--n", 100000),
                     ("overlaps", "--family", "complete", "--n", 100000),
                     ("critgamma", "--family", "complete",
                      "--sizes", 100000)):
            assert run(*argv, "--out", tmp_path) == 4
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "DenseGuardError"
    with dense_guard(10):
        assert build(GraphSpec(Family.COMPLETE, n=10)).edge_count == 45
    assert run("generate", "--family", "complete", "--n", 20,
               "--dense-guard", 10, "--out", tmp_path) == 4
    assert run("generate", "--family", "complete", "--n", 20,
               "--dense-guard", 0, "--out", tmp_path) == 0
    assert (tmp_path / "edges_complete_n20.txt").exists()


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    """An --out under a regular file, or an artifact path taken by a
    directory, exits 2 with one JSON line and leaves no temporary file."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    taken = tmp_path / "taken"
    (taken / "spectrum_dsg_g2.csv").mkdir(parents=True)
    for out in (blocker / "sub", taken):
        assert run("spectrum", "--family", "dsg", "--g", 2,
                   "--out", out) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        msg = json.loads(lines[0])
        assert msg["error"] == "ConfigError"
        assert msg["message"].startswith(
            f"cannot write {out / 'spectrum_dsg_g2.csv'}: ")
    assert blocker.read_text() == "x"
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "file", "spectrum_dsg_g2.csv", "taken"]


def test_a_write_failing_without_an_os_error_leaves_no_file(tmp_path):
    """An error other than OSError, here a text that UTF-8 cannot encode,
    propagates as it is, and the temporary file is removed."""
    from ctqwlab.cli import _write_atomic

    with pytest.raises(UnicodeEncodeError):
        _write_atomic(tmp_path / "out.txt", "\ud800")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("spectrum", "--family", "complete", "--n", 100000),
    ("overlaps", "--family", "complete", "--n", 100000),
    ("critgamma", "--family", "complete", "--sizes", 100000),
    ("oracle", "--check", "complete-vs-engine", "--n", 100000),
], ids=["spectrum", "overlaps", "critgamma", "oracle"])
def test_running_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, argv):
    """A MemoryError, here raised in place of the graph's build so that
    nothing large is allocated, exits 4 with one JSON line."""
    from ctqwlab import cli

    def no_memory(spec):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")
    monkeypatch.setattr(cli, "build", no_memory)
    assert run(*argv, "--out", tmp_path) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "MemoryError", "exit_code": 4,
        "message": "out of memory: Unable to allocate 9.31 GiB for an array"}


def test_module_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ctqwlab.cli", "generate",
         "--family", "complete", "--n", "6", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert (tmp_path / "edges_complete_n6.txt").exists()


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """scipy.optimize costs about 0.1 s and 15 MB to import; no command
    needs it, so neither importing the CLI nor running the commands that
    find roots (overlap sweeps, critical couplings) may load it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ctqwlab.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize'))); "
         "ctqwlab.cli.main(['overlaps', '--family', 'dsg', '--g', '3', "
         f"'--out', {str(tmp_path)!r}]); "
         "ctqwlab.cli.main(['critgamma', '--family', 'dsg', '--sizes', '3', "
         f"'--out', {str(tmp_path)!r}]); "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"


def test_cli_import_and_propagator_leave_scipy_special_unloaded():
    """scipy.special costs 0.06-0.07 s to import, about 15% of a process's
    set-up; the Chebyshev propagator sums its Bessel series itself, so
    neither importing the CLI nor propagating may load it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ctqwlab.cli; "
         "from ctqwlab import Family, GraphSpec, build, propagate_krylov; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.special'))); "
         "propagate_krylov(build(GraphSpec(family=Family.DSG, g=4)), 0, 1.0, "
         "[0.0, 1.0, 30.0]); "
         "ctqwlab.cli.main(['oracle', '--check', 'krylov-vs-spectral']); "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"


def test_verify_inside_a_large_laplacian_cluster(tmp_path, capsys):
    """complete n=64 at this coupling made LAPACK's subset evr stop with an
    internal error, and verify printed a traceback; it must end with a
    report (exit 0) or one JSON error line (exit 3)."""
    code = run("verify", "--family", "complete", "--n", "64", "--gammas",
               "1.5380859374999993e-05", "--out", tmp_path)
    err = capsys.readouterr().err
    assert code in (0, 3)
    assert "Traceback" not in err
    if code == 3:
        assert json.loads(err.strip())["exit_code"] == 3
    else:
        assert err.strip() == ""
    report = json.loads((tmp_path / "bounds_complete_n64.json").read_text())
    assert report["n"] == 64
