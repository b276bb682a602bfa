"""One benchmark process: set up, run a workload's operations in timed
passes, then check every output.

    python3 bench/worker.py --root . --workload pi-grid --seed 1 \
        --seconds 10 --trace 0 --out .bench_run/x

The last line of standard output is a JSON object for ``run.py``.  With
``--setup-only`` the process stops after set-up.  ``run.py`` pins the BLAS
thread variables in this process's environment before numpy loads.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def monotonic() -> float:
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_ctqwlab(root: Path):
    """Import ctqwlab from ``root/src`` and warm BLAS with one tiny eigh."""
    src = str(Path(root, "src").resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
    import ctqwlab
    import numpy as np

    if not Path(ctqwlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ctqwlab loaded from {ctqwlab.__file__}, "
                          f"not from {src}")
    np.linalg.eigh(np.eye(4) + np.ones((4, 4)))
    return ctqwlab


# -- operations ---------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    value: object
    error: str | None  # None when the call returned normally with exit 0


def _lib_call(op):
    from ctqwlab import GraphSpec, build, engine, graphs
    import numpy as np

    p = dict(op.params)
    size = {k: p[k] for k in ("n", "g", "L", "d") if k in p}
    spec = GraphSpec(family=p["family"], **size)
    if op.call == "default_target":
        return graphs.default_target(spec)
    times = np.linspace(*p["times"])
    if op.call == "gamma_max_search":
        return engine.gamma_max_search(
            build(spec), p["target"], p["center"], times, span=p["span"],
            coarse=p["coarse"], rel_tol=p["rel_tol"])
    if op.call == "propagate_krylov":
        return engine.propagate_krylov(build(spec), p["target"], p["gamma"],
                                       times)
    raise ValueError(f"unknown library call {op.call!r}")


def run_op(op, out_dir: Path) -> Outcome:
    """Run one operation; an exception or a nonzero exit code becomes an
    error in the outcome and is never raised."""
    from ctqwlab import cli

    start = time.perf_counter()
    try:
        if op.kind == "cli":
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                value = cli.main([*op.argv, "--out", str(out_dir)])
            error = None if value == 0 else \
                f"exit code {value}: {err.getvalue().strip()}"
        else:
            value, error = _lib_call(op), None
    except Exception as exc:  # the benchmark must keep running
        traceback.print_exc(file=sys.stderr)
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, value, error)


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]
    out_dir: Path
    layers: dict[str, float] | None


def run_passes(ops, seconds: float, out_root: Path, tracer=None
               ) -> list[Pass]:
    """Closed loop: whole passes over ``ops``, back to back, until at least
    ``seconds`` of timed work are done."""
    passes: list[Pass] = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        out_dir = out_root / f"pass{len(passes)}"
        out_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.reset()
        outcomes = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            outcomes.append(run_op(op, out_dir))
        wall = time.perf_counter() - start
        layer = None
        if tracer is not None:
            import layers
            layer = layers.compute(tracer.spans, tracer.counts)
        passes.append(Pass(wall, outcomes, out_dir, layer))
    return passes


def check_pass(ops, p: Pass) -> list[list[str]]:
    """Problems per operation: its error, else its output check's findings
    (a check that raises is a finding too)."""
    import checks

    found = []
    for op, outcome in zip(ops, p.outcomes):
        if outcome.error is not None:
            found.append([outcome.error])
            continue
        try:
            found.append(getattr(checks, op.check)(op, outcome.value,
                                                   p.out_dir))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            found.append([f"check {op.check} raised "
                          f"{type(exc).__name__}: {exc}"])
    return found


def tally(ops, passes: list[Pass], findings: list[list[list[str]]]) -> dict:
    """Attempted and failed operations over all passes, per operation and in
    total.  ``unexpected`` counts the failures of operations that carry no
    ``known_failure``: any exception, nonzero exit or failed check."""
    ops_out = []
    for i, op in enumerate(ops):
        failed = sum(bool(f[i]) for f in findings)
        ops_out.append({
            "label": op.label,
            "seconds": [p.outcomes[i].seconds for p in passes],
            "problems": sorted({x for f in findings for x in f[i]}),
            "known_failure": op.known_failure,
            "failed": failed,
            "unexpected": 0 if op.known_failure else failed,
        })
    return {"attempted": len(ops) * len(passes),
            "failed": sum(o["failed"] for o in ops_out),
            "unexpected": sum(o["unexpected"] for o in ops_out),
            "ops": ops_out}


# -- environment ----------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, found through the process map."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(lib).name] = fn()
                break
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    import ctqwlab

    def blas(mod) -> dict:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in
                ("name", "version", "openblas configuration")}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ctqwlab": ctqwlab.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    load_ctqwlab(Path(args.root))
    setup_done = monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    import workloads

    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    out_root = Path(args.out)
    try:
        passes = run_passes(ops, args.seconds, out_root, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.restore()
        findings = [check_pass(ops, p) for p in passes]
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    layer_medians = None
    if tracer is not None:
        layer_medians = {k: statistics.median(p.layers[k] for p in passes)
                         for k in passes[0].layers}
    print(json.dumps({
        "setup_done": setup_done,
        "wall_s": [p.wall_s for p in passes],
        "peak_rss_mb": peak_rss_mb,
        **tally(ops, passes, findings),
        "layers": layer_medians,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
