"""Print the sha256 of every file a fixed set of CLI operations writes.

    python tools/output_digests.py OUT [--seed 7] > digests.txt

The operations are every CLI operation of the benchmark's three workloads
(``bench/workloads.operations(w, seed)``), ``critgamma`` and ``fit``
sweeps over dsg, tfractal, cayleytree, torus d3, open and periodic chains
and complete graphs, ``critgamma`` on Cayley trees past the dense guard
on N (N = 3,070 to 24,574), ``spectrum`` of the T-fractal at g = 9
and the Cayley tree at g = 16 (N = 19,684 and 196,606), every ``oracle``
check, ``verify``, ``overlaps`` and ``success`` on one graph of the dense
route (dsg g4), one of the quotient route (the 6 x 6 torus) and one
``--spec`` product, and invalid inputs that must end in an exit code: a
negative coupling, a target out of range, ``generate`` above the guard,
a coupling whose H overflows and one whose pi(t) is not finite, and
last ``critgamma`` on the T-fractal at g = 8 (1,598 cells), whose two
confirmations solve the quotient H of a tree, ``critgamma`` on complete
graphs of 2, 3 and 4 nodes, a sweep whose first size fails, and
``critgamma`` on the Cayley tree at g = 12 under a guard of 50, below its
91 cells, ``overlaps`` on the complete graph of 8 nodes from a
coupling of 1e-310, whose secular poles are subnormal, the ``dsg-zeta``
and ``decimation`` oracle checks at g = 14, past their default sizes,
``dsg-zeta`` at g = 300, whose closed form overflows a float,
``decimation`` at g = 23, one generation past the exact spectrum's limit,
``spectrum`` of the 100 x 100 torus (N = 10,000), whose values are the
sums of its factors' under the default guard, ``generate`` of the dsg
at g = 10000, whose node count has 4,772 digits, ``spectrum`` of the
torus of L = 2 in d = 5000 dimensions, past the 2^63 - 1 nodes int64 ids
can number, and ``generate`` from an inline ``--spec`` that nests 3,000
products, too deep for the JSON reader.
Operation i writes into ``OUT/<i>``, and its standard output, without the
``wrote <path>`` lines, into ``OUT/<i>/stdout.txt``, so printed summaries
and route labels are digested with the artifacts.  Its standard error, when
there is any, goes into ``OUT/<i>/stderr.txt`` with the run's ``OUT``
replaced by the token ``<OUT>``, so error messages and warnings are
digested too.
Standard output gets one ``sha256  <i>/<file>`` line per artifact, sorted
by path, so ``diff`` on the output of two checkouts, run on the same
machine with the same seed, names every artifact that changed.  Standard
error gets each operation's exit code, or ``raised <Type>`` for an
exception that escapes ``cli.main``.

The BLAS thread counts are pinned to 1 before numpy loads, because output
digits depend on them.  Standard library plus ctqwlab, imported from this
checkout's ``src``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from ctqwlab import cli  # noqa: E402

SWEEPS = (
    ("--family", "dsg", "--g", "3..6"),
    ("--family", "tfractal", "--g", "3..6"),
    ("--family", "cayleytree", "--g", "3..9"),
    ("--family", "torus", "--d", "3", "--sizes", "4,6,8"),
    ("--family", "chain", "--sizes", "20,40,60", "--open"),
    ("--family", "chain", "--sizes", "20,40,60"),
    ("--family", "complete", "--sizes", "16,32,64"),
)
PAST_GUARD = (
    ("critgamma", "--family", "cayleytree", "--g", "10..13"),
    ("spectrum", "--family", "tfractal", "--g", "9"),
    ("spectrum", "--family", "cayleytree", "--g", "16"),
)
ROUTES = (
    ("--family", "dsg", "--g", "4"),
    ("--family", "torus", "--d", "2", "--L", "6"),
    ("--spec", '{"family": "product", "factors": [{"family": "dsg", "g": 2}, '
               '{"family": "chain", "L": 4, "periodic": false}]}'),
)
INVALID = (
    ("overlaps", "--family", "dsg", "--g", "3", "--gamma", "-1"),
    ("overlaps", "--family", "dsg", "--g", "3", "--target", "99"),
    ("generate", "--family", "dsg", "--g", "9"),
    ("success", "--family", "complete", "--n", "5", "--gamma", "1e308"),
    ("success", "--family", "complete", "--n", "5", "--gamma", "1e306",
     "--tmax", "1e5", "--t-count", "3"),
    ("success", "--family", "complete", "--n", "8", "--gamma-min", "1e-3",
     "--gamma-max", "1e400"),
    ("overlaps", "--family", "complete", "--n", "8", "--gamma-min", "1e-3",
     "--gamma-max", "inf", "--gamma-scale", "lin"),
)
# Appended after the others, so that earlier operations keep their numbers.
LAST = (("critgamma", "--family", "tfractal", "--g", "8"),
        ("critgamma", "--family", "complete", "--sizes", "2,3,4"),
        ("critgamma", "--family", "cayleytree", "--g", "12",
         "--dense-guard", "50"),
        ("overlaps", "--family", "complete", "--n", "8", "--gamma-min",
         "1e-310", "--gamma-max", "1"),
        ("oracle", "--check", "dsg-zeta", "--g", "14"),
        ("oracle", "--check", "decimation", "--g", "14"),
        ("oracle", "--check", "dsg-zeta", "--g", "300"),
        ("oracle", "--check", "decimation", "--g", "23"),
        ("spectrum", "--family", "torus", "--L", "100", "--d", "2"),
        ("generate", "--family", "dsg", "--g", "10000"),
        ("spectrum", "--family", "torus", "--L", "2", "--d", "5000"),
        ("generate", "--spec", '{"family": "product", "factors": [' * 3000
         + '{"family": "chain", "L": 2}'
         + ', {"family": "chain", "L": 2}]}' * 3000))


def operations(seed: int) -> list[tuple[str, ...]]:
    """The argv of every distinct operation, without ``--out``."""
    ops = [op.argv for w in workloads.WORKLOADS
           for op in workloads.operations(w, seed) if op.kind == "cli"]
    ops += [(cmd, *sweep) for cmd in ("critgamma", "fit") for sweep in SWEEPS]
    ops += [*PAST_GUARD, *(("oracle", "--check", check)
                           for check in cli._ORACLES)]
    ops += [(cmd, *graph) for cmd in ("verify", "overlaps", "success")
            for graph in ROUTES]
    return list(dict.fromkeys(ops + list(INVALID) + list(LAST)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="directory for the artifacts")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for i, argv in enumerate(operations(args.seed)):
        out = args.out / f"{i:02d}"
        out.mkdir(parents=True)
        printed, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), \
                contextlib.redirect_stderr(errors):
            try:
                code = cli.main([*argv, "--out", str(out)])
            except Exception as exc:  # a defect, recorded and passed over
                code = f"raised {type(exc).__name__}"
        (out / "stdout.txt").write_text("".join(
            line for line in printed.getvalue().splitlines(keepends=True)
            if not line.startswith("wrote ")))
        if errors.getvalue():
            (out / "stderr.txt").write_text(
                errors.getvalue().replace(str(args.out), "<OUT>"))
        line = " ".join(argv)
        if len(line) > 200:
            line = f"{line[:200]}... ({len(line)} characters)"
        print(f"exit {code}  {i:02d}  {line}", file=sys.stderr)
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
