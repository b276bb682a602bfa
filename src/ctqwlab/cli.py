"""Command-line front end.

Subcommands build graphs and export spectra, overlap sweeps, critical
couplings, success-probability grids, scaling fits, bound reports, and
closed-form cross-checks as plain files (CSV/JSON/edge lists) for
external plotting.  All commands are non-interactive and deterministic:
identical invocations produce byte-identical files.

Exit codes: 0 success; 2 configuration error; 3 numerical failure
(including failed bound checks and failed oracle checks); 4 dense-size
guard exceeded or out of memory.  Failures emit a one-line JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analysis import ScalingModel, exponent_prediction, fit_scaling
from .engine import (
    CriticalGamma,
    SearchProblem,
    critical_gamma,
    default_time_grid,
    measure_overlaps,
    oscillation_period,
    overlap_sweep_csv,
    propagate_krylov,
    success_grid,
    success_probability,
    verify_bounds,
)
from .errors import (
    DEFAULT_DENSE_GUARD,
    DENSE_GUARD_ENV,
    ConfigError,
    CtqwError,
    DenseGuardError,
    NumericalError,
    check_dense_guard,
    dense_guard,
)
from .graphs import _RECORDS, Family, GraphSpec, build, default_target
from .oracles import (
    complete_success,
    decimation_identity_residuals,
    dsg_exact_spectrum,
    dsg_zeta_closed,
    dsg_zeta_direct,
)
from .spectra import (
    SpectralSums,
    fit_alpha,
    laplacian_spectrum,
    spectrum_csv,
    target_measure,
)

__all__ = ["main"]


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str) -> Path:
    """Write via a temporary file in the same directory, then rename;
    ConfigError when the path cannot be written."""
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: "
                              f"{exc.strerror or exc}") from exc
        raise
    return path


def _parse_int_range(text: str, name: str) -> list[int]:
    """Parse "3..6" into [3, 4, 5, 6] and "4" into [4]."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer or a range like 3..6, got {text!r}"
        ) from None


def _parse_list(text: str, name: str, kind: type) -> list:
    """Parse a comma list, converting each entry with ``kind``."""
    try:
        vals = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated {kind.__name__} "
                          f"values, got {text!r}") from None
    if not vals:
        raise ConfigError(f"{name} is empty")
    return vals


def _dense_guard(args: argparse.Namespace) -> int | None:
    """Flag beats environment beats built-in default; <= 0 disables."""
    value = getattr(args, "dense_guard", None)
    if value is None:
        env = os.environ.get(DENSE_GUARD_ENV)
        if env is None or not env.strip():
            return DEFAULT_DENSE_GUARD
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(
                f"{DENSE_GUARD_ENV} must be an integer, got {env!r}"
            ) from None
    return None if value <= 0 else int(value)


def _spec_from_args(args: argparse.Namespace) -> GraphSpec:
    inline = getattr(args, "spec", None)
    from_file = getattr(args, "spec_file", None)
    if inline is not None and from_file is not None:
        raise ConfigError("give either --spec or --spec-file, not both")
    if inline is not None:
        return GraphSpec.from_json(inline)
    if from_file is not None:
        try:
            text = Path(from_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read spec file {from_file}: {exc}")
        return GraphSpec.from_json(text)
    if args.family is None:
        raise ConfigError("no graph given: use --family plus size flags, "
                          "or --spec/--spec-file")
    kwargs: dict = {}
    for key in ("n", "g", "L", "d"):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if getattr(args, "open_boundary", False):
        kwargs["periodic"] = False
    return GraphSpec(family=Family(args.family), **kwargs)


def _resolve_target(spec: GraphSpec, args: argparse.Namespace) -> int:
    """``--target`` or the family's default; the library checks its range."""
    override = getattr(args, "target", None)
    return default_target(spec) if override is None else int(override)


def _gamma_grid(args: argparse.Namespace,
                xi1: Callable[[], float]) -> np.ndarray:
    """Coupling grid from the flags; ``xi1`` (the inverse-spectral-sum
    coupling scale) is called only for the default window around it."""
    single = getattr(args, "gamma", None)
    lo, hi = getattr(args, "gamma_min", None), getattr(args, "gamma_max", None)
    if single is not None:
        if lo is not None or hi is not None:
            raise ConfigError("give either --gamma or a --gamma-min/"
                              "--gamma-max window, not both")
        return np.array([float(single)])
    if (lo is None) != (hi is None):
        raise ConfigError("--gamma-min and --gamma-max go together")
    if lo is None:
        scale = xi1()
        lo, hi = scale / 8.0, scale * 8.0
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError(f"need 0 < gamma-min < gamma-max < inf, got "
                          f"[{lo}, {hi}]")
    count = args.gamma_count
    if count < 1:
        raise ConfigError("--gamma-count must be >= 1")
    if args.gamma_scale == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _time_grid(args: argparse.Namespace, n: int) -> np.ndarray:
    tmax = getattr(args, "tmax", None)
    if tmax is None:
        tmax = 4.0 * math.pi * math.sqrt(n)
    tmin = args.tmin
    if not (math.isfinite(tmin) and math.isfinite(tmax)) or tmax <= tmin:
        raise ConfigError(f"bad time window [{tmin}, {tmax}]")
    if args.t_count < 2:
        raise ConfigError("--t-count must be >= 2")
    return np.linspace(tmin, tmax, args.t_count)


def _sweep_specs(args: argparse.Namespace) -> tuple[list[GraphSpec],
                                                    list[float]]:
    """Family sweep for critgamma/fit: one spec per value of the family's
    first size parameter, from ``--g`` (a range) when that is ``g`` and
    from ``--sizes`` otherwise.  The other size parameters come from their
    own flags and ``periodic`` from ``--open``.

    Returns the specs plus the swept values, the abscissa of the
    linear-in-generation model.
    """
    if args.family is None:
        raise ConfigError("--family is required")
    family = Family(args.family)
    if family is Family.PRODUCT:
        raise ConfigError("sweeps over product are not supported")
    (swept, _), *others = _RECORDS[family].sizes
    if swept == "g":
        if args.g is None:
            raise ConfigError(f"--g (e.g. 3..6) is required for "
                              f"{family.value}")
        values = _parse_int_range(args.g, "--g")
    else:
        if args.sizes is None:
            raise ConfigError(f"--sizes (comma list) is required for "
                              f"{family.value}")
        values = _parse_list(args.sizes, "--sizes", int)
    fixed = {}
    for name, _ in others:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required for {family.value} sweeps")
        fixed[name] = getattr(args, name)
    specs = [GraphSpec(family, periodic=not args.open_boundary,
                       **{swept: v}, **fixed) for v in values]
    return specs, [float(v) for v in values]


def _critical_rows(specs: Sequence[GraphSpec], **window: float
                   ) -> list[tuple[GraphSpec, SpectralSums, CriticalGamma]]:
    """The target measure and critical coupling of each spec's graph at its
    default target; ``window`` holds critical_gamma's coupling window.  A
    size's error is raised again as the same type, so its exit code holds,
    with the spec's label before its message."""
    rows = []
    for spec in specs:
        try:
            graph = build(spec)
            target = default_target(spec)
            res = critical_gamma(graph, target, **window)
            sums = target_measure(graph, target)
        except CtqwError as exc:
            raise type(exc)(f"{spec.label}: {exc}") from exc
        rows.append((spec, sums, res))
    return rows


# ---------------------------------------------------------------- commands


def cmd_generate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    check_dense_guard(spec.node_count, f"generate {spec.label}")
    graph = build(spec)
    path = _write_atomic(Path(args.out) / f"edges_{spec.label}.txt",
                         graph.to_edge_list())
    print(f"wrote {path}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    graph = build(spec)
    values, route = laplacian_spectrum(graph)
    text = spectrum_csv(values)
    path = _write_atomic(Path(args.out) / f"spectrum_{spec.label}.csv", text)
    print(f"wrote {path}")
    print(f"route={route}")
    return 0


def cmd_overlaps(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    graph = build(spec)
    target = _resolve_target(spec, args)
    gammas = _gamma_grid(args, lambda: target_measure(graph, target).xi1)
    records = [measure_overlaps(SearchProblem(graph, target, float(g)))
               for g in gammas]
    path = _write_atomic(Path(args.out) / f"overlaps_{spec.label}.csv",
                         overlap_sweep_csv(records))
    print(f"wrote {path}")
    return 0


def cmd_critgamma(args: argparse.Namespace) -> int:
    specs, _ = _sweep_specs(args)
    window = {key: value for key in ("gamma_floor", "gamma_ceiling")
              if (value := getattr(args, key)) is not None}
    rows = _critical_rows(specs, **window)
    header = "label,N,gamma_crit,xi1,residual,evaluations"
    lines = [header]
    for spec, sums, res in rows:
        lines.append(",".join((
            spec.label, str(sums.n), _f17(res.gamma), _f17(res.xi1),
            _f17(res.residual), str(res.evaluations),
        )))
    family = Family(args.family).value
    path = _write_atomic(Path(args.out) / f"critgamma_{family}.csv",
                         "\n".join(lines) + "\n")
    for spec, sums, res in rows:
        print(f"{spec.label}: N={sums.n} gamma_crit={res.gamma:.8g} "
              f"route={sums.route}")
    print(f"wrote {path}")
    return 0


def cmd_success(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    graph = build(spec)
    target = _resolve_target(spec, args)
    gammas = _gamma_grid(args, lambda: target_measure(graph, target).xi1)
    times = _time_grid(args, graph.n)
    grid = success_grid(graph, target, gammas, times)
    base = Path(args.out)
    p1 = _write_atomic(base / f"success_{spec.label}_matrix.csv",
                       grid.to_matrix_csv())
    p2 = _write_atomic(base / f"success_{spec.label}_long.csv",
                       grid.to_long_csv())
    k = int(np.argmax(grid.pi_star))
    print(f"peak pi={grid.pi_star[k]:.8g} at gamma={grid.gammas[k]:.8g} "
          f"t={grid.t_star[k]:.8g}")
    if gammas.size == 1:
        period = oscillation_period(grid.times, grid.probabilities[0])
        if period is not None:
            print(f"oscillation period ~ {period:.8g}")
    print(f"wrote {p1}")
    print(f"wrote {p2}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    specs, gens = _sweep_specs(args)
    family = Family(args.family)
    model = ScalingModel(args.model) if args.model else (
        ScalingModel.LOG if family is Family.CAYLEY_TREE else ScalingModel.POWER)
    rows = _critical_rows(specs)
    if model is ScalingModel.POWER:
        points = [(sums.n, res.gamma) for _, sums, res in rows]
    else:
        points = [(gen, res.gamma) for gen, (_, _, res) in zip(gens, rows)]
    prediction = None
    alpha_used = None
    if model is ScalingModel.POWER and specs[0].spectral_dimension is not None:
        alpha_used = args.alpha
        if alpha_used is None:
            alpha_used = fit_alpha([sums for _, sums, _ in rows])
        prediction = exponent_prediction(specs[0], alpha_used)
    fit = fit_scaling(points, model, label=family.value,
                      prediction=prediction, alpha_used=alpha_used)
    path = _write_atomic(
        Path(args.out) / f"fit_{family.value}_{model.value}.json",
        fit.to_json() + "\n")
    names = ("c", "beta") if model is ScalingModel.POWER else ("a", "b")
    shown = " ".join(f"{k}={fit.params[k]:.8g}" for k in names)
    print(f"{family.value} {model.value} fit: {shown} "
          f"residual={fit.residual:.3g}"
          + (f" predicted_exponent={prediction:.8g}"
             if prediction is not None else "")
          + " route: " + ", ".join(f"{spec.label} {sums.route}"
                                   for spec, sums, _ in rows))
    print(f"wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    graph = build(spec)
    target = _resolve_target(spec, args)
    gammas = None
    if args.gammas is not None:
        gammas = _parse_list(args.gammas, "--gammas", float)
    report = verify_bounds(graph, target, gammas=gammas)
    path = _write_atomic(Path(args.out) / f"bounds_{spec.label}.json",
                         json.dumps(report.to_dict(), indent=2) + "\n")
    for check in report.checks:
        status = ("skipped" if check.satisfied is None
                  else "ok" if check.satisfied else "FAIL")
        print(f"{check.name} @ gamma={check.gamma:.8g}: {status}")
    print(f"wrote {path}")
    if not report.all_satisfied:
        raise NumericalError(
            f"{len(report.failures())} bound checks failed; see {path}")
    return 0


def _complete_error(n: int) -> float:
    graph = build(GraphSpec(Family.COMPLETE, n=n))
    times = default_time_grid(n, 64)
    gammas = [scale / n for scale in (0.5, 1.0, 1.7, 2.0)]
    grid = success_grid(graph, 0, gammas, times)
    return max(float(np.max(np.abs(probs - complete_success(n, gamma, times))))
               for gamma, probs in zip(gammas, grid.probabilities))


def _dsg_spectrum_error(g: int) -> float:
    check_dense_guard(3 ** g, "dense eigendecomposition")  # dense at every g
    graph = build(GraphSpec(Family.DSG, g=g))
    values = laplacian_spectrum(graph)[0]
    return float(np.max(np.abs(values - dsg_exact_spectrum(g).expand())))


def _dsg_zeta_error(g: int) -> float:
    return max(abs(c - d) / abs(c)
               for c, d in zip(dsg_zeta_closed(g), dsg_zeta_direct(g)))


def _decimation_error(g: int) -> float:
    return max(decimation_identity_residuals(g))


def _krylov_error(g: int, gamma: float) -> float:
    check_dense_guard(3 ** g, "dense eigendecomposition")  # dense at every g
    spec = GraphSpec(Family.DSG, g=g)
    graph = build(spec)
    target = default_target(spec)
    times = np.linspace(0.0, 20.0, 9)
    kry = propagate_krylov(graph, target, gamma, times)
    ref = success_probability(SearchProblem(graph, target, gamma), times)
    return float(np.max(np.abs(kry - ref)))


# check -> (size flag, its default, tolerance, error function, further
# arguments).  The error function takes the size and the further
# arguments, and returns the largest error; the report's details are the
# size and the further arguments.
_ORACLES = {
    "complete-vs-engine": ("n", 124, 1e-10, _complete_error, {}),
    "dsg-spectrum": ("g", 4, 1e-9, _dsg_spectrum_error, {}),
    "dsg-zeta": ("g", 4, 1e-10, _dsg_zeta_error, {}),
    "decimation": ("g", 5, 1e-9, _decimation_error, {}),
    "krylov-vs-spectral": ("g", 3, 1e-12, _krylov_error, {"gamma": 1.0}),
}


def cmd_oracle(args: argparse.Namespace) -> int:
    flag, default, tol, error, extra = _ORACLES[args.check]
    size = default if getattr(args, flag) is None else getattr(args, flag)
    worst = error(size, **extra)
    passed = worst <= tol
    report = {"check": args.check, "passed": passed, "max_error": worst,
              "tolerance": tol, "details": {flag: size, **extra}}
    print(json.dumps(report))
    if not passed:
        raise NumericalError(f"oracle check {args.check} failed: "
                             f"max error {worst:.3g} > {tol:.3g}")
    return 0


# ------------------------------------------------------------------ parser


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=[f.value for f in Family],
                        help="graph family")
    parser.add_argument("--n", type=int, help="node count (complete)")
    parser.add_argument("--g", type=int, help="generation (dsg/tfractal/"
                        "cayleytree)")
    parser.add_argument("--L", type=int, help="linear size (chain/torus)")
    parser.add_argument("--d", type=int, help="dimension (torus)")
    parser.add_argument("--open", dest="open_boundary", action="store_true",
                        help="open boundary conditions (chain/torus)")
    parser.add_argument("--spec", help="inline graph spec JSON")
    parser.add_argument("--spec-file", help="path to graph spec JSON")
    parser.add_argument("--target", type=int,
                        help="target node (default: family convention)")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--dense-guard", type=int, default=None,
                        help="dense-size limit; 0 disables (default: "
                        f"{DEFAULT_DENSE_GUARD}, or {DENSE_GUARD_ENV})")
    parser.add_argument("--config", default=None,
                        help="JSON file with default flag values "
                        "(explicit flags win)")


def _add_gamma_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", type=float, default=None,
                        help="single coupling value")
    parser.add_argument("--gamma-min", type=float, default=None)
    parser.add_argument("--gamma-max", type=float, default=None)
    parser.add_argument("--gamma-count", type=int, default=64)
    parser.add_argument("--gamma-scale", choices=("lin", "log"),
                        default="log")


def _add_time_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tmin", type=float, default=0.0)
    parser.add_argument("--tmax", type=float, default=None,
                        help="default: four Grover periods")
    parser.add_argument("--t-count", type=int, default=512)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=[f.value for f in Family],
                        help="graph family")
    parser.add_argument("--g", default=None,
                        help="generation range, e.g. 3..6")
    parser.add_argument("--sizes", default=None,
                        help="comma list of sizes (complete: n; "
                        "chain/torus: L)")
    parser.add_argument("--d", type=int, default=None,
                        help="dimension (torus sweeps)")
    parser.add_argument("--open", dest="open_boundary", action="store_true",
                        help="open boundary conditions (chain/torus)")


class _Parser(argparse.ArgumentParser):
    """Argparse errors become ConfigError so failures emit JSON."""

    def error(self, message: str):  # noqa: A002 - argparse API
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctqwlab",
        description="Continuous-time quantum-walk search on finite graphs: "
                    "spectra, overlap sweeps, critical couplings, and "
                    "success-probability grids, exported as plain files.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="write an edge-list file")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("spectrum", help="write the Laplacian spectrum CSV")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("overlaps",
                       help="sweep the coupling; write ground/first-excited "
                            "overlap CSV")
    _add_spec_flags(p)
    _add_common_flags(p)
    _add_gamma_flags(p)
    p.set_defaults(func=cmd_overlaps)

    p = sub.add_parser("critgamma",
                       help="locate the overlap-crossing coupling over a "
                            "family sweep")
    _add_sweep_flags(p)
    _add_common_flags(p)
    p.add_argument("--gamma-floor", type=float, default=None,
                   help="lower edge of the crossing search window")
    p.add_argument("--gamma-ceiling", type=float, default=None,
                   help="upper edge of the crossing search window")
    p.set_defaults(func=cmd_critgamma)

    p = sub.add_parser("success",
                       help="success-probability grid over coupling and time")
    _add_spec_flags(p)
    _add_common_flags(p)
    _add_gamma_flags(p)
    _add_time_flags(p)
    p.set_defaults(func=cmd_success)

    p = sub.add_parser("fit",
                       help="fit critical-coupling scaling over a family "
                            "sweep")
    _add_sweep_flags(p)
    _add_common_flags(p)
    p.add_argument("--model", choices=[m.value for m in ScalingModel],
                   default=None,
                   help="default: log for cayleytree, power otherwise")
    p.add_argument("--alpha", type=float, default=None,
                   help="amplitude-decay exponent for the predicted "
                        "power-law exponent (default: fitted)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify",
                       help="check spectral bounds and resolvent identities")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--gammas", default=None,
                   help="comma list of couplings (default: multiples of "
                        "the crossing scale)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="run a closed-form cross-check")
    p.add_argument("--check", choices=_ORACLES, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def _with_config(parser: argparse.ArgumentParser,
                 argv: list[str]) -> list[str]:
    """``argv`` with the values of its ``--config`` file, if it names one,
    as flags after the subcommand and before the explicit flags, so that
    they pass their flags' checks and the explicit flags win."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    command = next((a for a in argv if a in sub.choices), None)
    if command is None:
        return argv
    at = argv.index(command) + 1
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[at:])[0].config
    if not path:
        return argv
    try:
        conf = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(conf, dict):
        raise ConfigError("config must be a JSON object of flag defaults")
    actions = {a.dest: a for a in sub.choices[command]._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(conf) - set(actions))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in conf.items():
        flag = actions[key].option_strings[0]
        if isinstance(actions[key], argparse._StoreTrueAction):
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key} ({flag}) takes true "
                                  f"or false, got {value!r}")
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float)) \
                and not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        else:
            raise ConfigError(f"config key {key} ({flag}) takes a string "
                              f"or a number, got {value!r}")
    return argv[:at] + tokens + argv[at:]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand under the dense guard its flag, the environment
    or the default sets; return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, list(argv)))
        with dense_guard(_dense_guard(args)):
            return args.func(args)
    except ConfigError as exc:
        return _fail(exc, 2)
    except DenseGuardError as exc:
        return _fail(exc, 4)
    except MemoryError as exc:
        return _fail(MemoryError(f"out of memory: {exc}"), 4)
    except NumericalError as exc:
        return _fail(exc, 3)


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
