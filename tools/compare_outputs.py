"""Compare the CLI outputs of two source trees, argv by argv.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is the directory that holds the ``tamecuts`` package (a
checkout's ``src``).  The argv are every key of ``perfbench/refs/*.json``
in this repository plus the fixed list ``EXTRA`` below.  Each argv runs as
``tamecuts.cli.main(argv)`` in its own fresh interpreter, in an empty
temporary working directory, with ``TAMECUT_CACHE_DIR`` unset,
``PYTHONHASHSEED=0`` and one BLAS thread.  The exit code and the sha256 of
stdout and of stderr are compared; every argv that differs is printed with
both sides, and the exit status is 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BALL = ["--family", "ball", "--n", "2"]
EXTRA = [
    # the ball cut family on Z, Z^2, pq(2,3) and a semidirect product
    *[[cmd, *BALL, *group] for cmd in ("cut", "verify") for group in (
        ["--group", "free_abelian", "--d", "1"],
        ["--group", "free_abelian", "--d", "2"],
        ["--group", "pq", "--p", "2", "--q", "3"],
        ["--group", "semidirect", "--matrix", "2,1;1,1"])],
    ["lambda", "--group", "free_abelian", "--d", "2", "--ball", "1",
     "--radius", "6"],
    ["lambda", "--group", "bs", "--p", "2", "--q", "3", "--ball", "1",
     "--radius", "3"],
    ["lambda", "--group", "pq", "--p", "2", "--q", "3", "--ball", "1",
     "--radius", "6"],
    ["lambda", "--group", "semidirect", "--matrix", "2,1;1,1", "--ball", "1",
     "--radius", "5"],
    ["lambda", "--group", "lamplighter", "--p", "3", "--ball", "2",
     "--radius", "5"],
    ["verify", "--family", "pq", "--n", "2", "--format", "csv"],
    ["cut", "--family", "bs", "--n", "2", "--format", "csv"],
    ["fit-growth", "--family", "semidirect", "--matrix", "1,1;0,1",
     "--nmax", "4", "--format", "csv"],
    ["fit-growth", "--family", "lamplighter", "--p", "2", "--nmax", "5"],
    # the first radii whose packed (key, position) words leave int64, so
    # growth groups keys with an argsort
    ["ball", "--group", "pq", "--p", "2", "--q", "3", "--n", "13"],
    ["ball", "--group", "pq", "--p", "2", "--q", "5", "--n", "10"],
    # BS(2,3), the rd family whose samples all run the power iteration
    ["rd-fit", "--group", "bs", "--p", "2", "--q", "3", "--nmax", "3",
     "--samples", "10"],
    # compressions over multi-level supports on families the rd-fit
    # references do not reach
    ["rd-fit", "--group", "pq", "--p", "2", "--q", "3", "--nmax", "3",
     "--samples", "5"],
    ["rd-fit", "--group", "semidirect", "--matrix", "2,1;1,1", "--nmax", "3",
     "--samples", "5"],
    ["lambda", "--group", "bs", "--p", "2", "--q", "3", "--ball", "2",
     "--radius", "4"],
    ["lambda", "--group", "pq", "--p", "2", "--q", "3", "--ball", "2",
     "--radius", "5"],
    # --tol reaches the ball cut's quadrature on Z^3
    ["cut", "--family", "ball", "--group", "free_abelian", "--d", "3",
     "--n", "1", "--tol", "1e-4"],
    # argument errors (exit 2)
    ["verify", "--family", "semidirect", "--n", "2"],
    ["fit-growth", "--family", "pq", "--nmax", "2"],
]

RUN = "import sys\nfrom tamecuts.cli import main\nsys.exit(main(sys.argv[1:]))"


def package_dir(path: str) -> str:
    path = os.path.abspath(path)
    if not os.path.isfile(os.path.join(path, "tamecuts", "cli.py")):
        raise SystemExit(f"error: no tamecuts package in {path}")
    return path


def all_argv() -> list[list[str]]:
    keys = []
    for name in sorted(glob.glob(os.path.join(ROOT, "perfbench", "refs",
                                              "*.json"))):
        with open(name) as fh:
            keys.extend(json.load(fh))
    return [key.split(" ") for key in keys] + EXTRA


def run(src: str, argv: list[str]) -> tuple:
    env = {k: v for k, v in os.environ.items() if k != "TAMECUT_CACHE_DIR"}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        res = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=cwd,
                             env=env, capture_output=True)
    return (res.returncode, hashlib.sha256(res.stdout).hexdigest(),
            hashlib.sha256(res.stderr).hexdigest())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    args = ap.parse_args()
    parent, change = package_dir(args.parent_src), package_dir(args.change_src)
    argvs = all_argv()
    differ = 0
    for argv in argvs:
        old, new = run(parent, argv), run(change, argv)
        if old != new:
            differ += 1
            print(" ".join(argv), flush=True)
            for side, (code, out, err) in (("parent", old), ("change", new)):
                print(f"  {side}: exit {code} stdout {out[:16]} "
                      f"stderr {err[:16]}", flush=True)
    print(f"{differ} of {len(argvs)} argv differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
