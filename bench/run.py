"""The repository's benchmark.

    python3 bench/run.py --workload crit-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Each workload runs in a fresh worker process
(``worker.py``) that times whole passes over the workload's operation list
and then checks every output.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over nine fresh processes of the time from spawn until
ctqwlab is imported and BLAS is warm) and ``peak_rss_mb``.  ``--trace 1``
runs the workload untraced and then traced, each in its own process, and
prints the per-layer metrics of ``layers.py`` plus ``trace.overhead_ratio``.

Lines starting with ``#`` describe the run (environment, per-operation
times, failures, ``ops_failed_ratio``); the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402
from worker import THREAD_VARS, monotonic  # noqa: E402

# Fresh processes whose set-up time is measured; the workload's own worker
# makes one more.
SETUP_PROBES = 8
# Every run must end within this many seconds.
DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNCONTROLLED = ("shared host: other tenants' load varies",
                "no CPU pinning or frequency control",
                "page cache is warm after the first run")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def git_commit(root: Path) -> str | None:
    """HEAD's commit, or None outside a git repository.  Git does not look
    above ``root``."""
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env() -> dict[str, str]:
    """BLAS threads pinned to the cores this process may use."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def spawn_worker(extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its spawn time and its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           *extra]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    spawned = monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {extra} passed the {DEADLINE_S:.0f} s "
                         f"deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {extra} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    try:
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {extra} printed no result") from None


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 deadline: float, out: Path) -> dict:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out"]
    try:
        spawned, res = spawn_worker(base + [str(out / "plain"), "--trace", "0"],
                                    deadline)
        runs = [res]
        if trace:
            runs.append(spawn_worker(base + [str(out / "traced"),
                                             "--trace", "1"], deadline)[1])
            metrics = dict(runs[1]["layers"])
            metrics["trace.overhead_ratio"] = (
                statistics.median(runs[1]["wall_s"])
                / statistics.median(res["wall_s"]) - 1.0)
        else:
            setups = [res["setup_done"] - spawned]
            for _ in range(SETUP_PROBES):
                t0, probe = spawn_worker(["--setup-only"], deadline)
                setups.append(probe["setup_done"] - t0)
            metrics = {"wall_s": statistics.median(res["wall_s"]),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": res["peak_rss_mb"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return {"runs": runs, "metrics": metrics}


def result_json(runs: list[dict], metrics: dict[str, float]) -> dict:
    """The result line: ``correct`` is False when any operation without a
    ``known_failure`` raised, exited nonzero or failed its output check;
    ``failed`` counts every failed operation, the known ones too."""
    from layers import METRICS

    unit = dict(E2E_UNITS, **{m.name: m.unit for m in METRICS})
    return {
        "correct": all(r["unexpected"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }


def report(workload: str, seed: int, result: dict) -> list[str]:
    """The ``#`` lines describing a run."""
    runs = result["runs"]
    env = dict(runs[0]["env"], git_commit=git_commit(ROOT),
               uncontrolled=list(UNCONTROLLED))
    lines = [f"# env {json.dumps(env, sort_keys=True)}"]
    for kind, res in zip(("untraced", "traced"), runs):
        for op in res["ops"]:
            times = " ".join(f"{t:.3f}" for t in op["seconds"])
            status = "ok" if not op["failed"] else "FAILED " + \
                "; ".join(op["problems"])
            if op["failed"] and op["known_failure"]:
                status += f" (known failure: {op['known_failure']})"
            lines.append(f"# {kind} {op['label']}: {times} s {status}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines.append(f"# ops_failed_ratio {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted}) workload={workload} seed={seed}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ctqwlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ctqwlab" / "__init__.py").is_file():
        print(f"error: no ctqwlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), deadline, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in report(args.workload, args.seed, result):
        print(line)
    print(json.dumps(result_json(result["runs"], result["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
