"""Benchmark jobs, each in a fresh, single-threaded process.

Usage:

    python3 child.py JOB_JSON     run one job in this interpreter
    python3 child.py --serve SRC  fork server: import tamecuts.cli from SRC
                                  once, then run each job read from standard
                                  input (one JSON object a line) in a child
                                  forked for it, and answer with one JSON
                                  line on standard output

JOB_JSON is an object with a ``mode``:

* ``op``        run ``tamecuts.cli.main(argv)``; with ``"profile": true``
                the call runs under cProfile and the result carries the
                per-layer attribution from ``layers.py``.
* ``import``    import ``tamecuts.cli`` only (set-up time); always run in a
                fresh interpreter, never forked.
* ``multiply``  time ``multiply`` per family on seeded element pairs.
* ``cache``     grow a ball cold, then ``BallCache.store`` and
                ``BallCache.load`` it inside a temporary directory.

A forked child starts from the state the import leaves, as a fresh
interpreter does after ``import tamecuts.cli``: the per-process ball memo of
``groups.balls`` is empty, so every operation pays cold growth as a CLI user
does.  Forking spares each operation the interpreter start and the import
(about 0.5 s), which ``setup_s`` measures on its own, so a run holds twice
as many operations.

The ``op`` and ``import`` modes also time a fixed calibration loop a few
times just before and just after the measured part (``cal``); ``run.py``
scales each time by the median of its own child's samples to a fixed
machine speed.  A result is one JSON object with the timings, or with an
``error``.  The package is never modified: everything is measured from
outside it.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def _calibrate() -> list[float]:
    """Four timings of a fixed pure-Python loop, in seconds.

    Tuple hashing, dict inserts and integer arithmetic, like the package's
    element layer; the table stays small so the loop adds nothing to the
    peak RSS that ``run_op`` reports."""
    samples = []
    for _ in range(4):
        t0 = time.perf_counter()
        for j in range(24):
            table = {}
            for i in range(2000):
                table[(i, j, i * 7 % 13)] = i * i % 1000003
        samples.append(time.perf_counter() - t0)
    return samples


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _import_cli(src: str):
    t0 = time.perf_counter()
    import tamecuts.cli as cli
    import_s = time.perf_counter() - t0
    path = os.path.realpath(cli.__file__)
    if not path.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"tamecuts imported from {path}, not from {src}")
    return cli, import_s


def _ball_elements() -> int:
    """Elements held by the package's per-process ball memo, read from outside."""
    from tamecuts.groups import balls
    growers = getattr(balls, "_growers", {})
    return sum(len(getattr(g, "elements", ())) for g in growers.values())


def run_op(job: dict) -> dict:
    cal_before = _calibrate()
    cli, _ = _import_cli(job["src"])
    rss_import = _maxrss_bytes()
    buf = io.StringIO()
    profiler = None
    if job.get("profile"):
        import cProfile
        profiler = cProfile.Profile()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        if profiler is None:
            code = cli.main(job["argv"])
        else:
            code = profiler.runcall(cli.main, job["argv"])
    main_s = time.perf_counter() - t0
    out = {"main_s": main_s, "exit": code,
           "cal": cal_before + _calibrate(),
           "report": buf.getvalue(), "rss_import": rss_import,
           "rss_peak": _maxrss_bytes(), "ball_elements": _ball_elements()}
    if profiler is not None:
        from layers import attribute
        out["layers"] = attribute(profiler, main_s)
    return out


def run_import(job: dict) -> dict:
    cal_before = _calibrate()
    _, import_s = _import_cli(job["src"])
    cal = cal_before + _calibrate()
    versions = {name: getattr(sys.modules.get(name), "__version__", None)
                for name in ("tamecuts", "numpy", "scipy")}
    return {"import_s": import_s, "cal": cal, "rss_peak": _maxrss_bytes(),
            "versions": versions}


def run_multiply(job: dict) -> dict:
    """Median µs per ``multiply`` over seeded pairs from each family's ball."""
    import random
    _import_cli(job["src"])
    from tamecuts.groups import GroupSpec, ball, multiply
    rng = random.Random(job["seed"])
    out = {}
    for family, (ctor, params, radius) in job["groups"].items():
        group = getattr(GroupSpec, ctor)(*params)
        elems = list(ball(group, radius))
        pairs = [(rng.choice(elems), rng.choice(elems))
                 for _ in range(job["pairs"])]
        reps = []
        for _ in range(job["repeats"]):
            t0 = time.perf_counter()
            for x, y in pairs:
                multiply(x, y)
            reps.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        out[family] = sorted(reps)[len(reps) // 2]
    return {"multiply_us": out}


def run_cache(job: dict) -> dict:
    import tempfile
    _import_cli(job["src"])
    from tamecuts.groups import BallCache, GroupSpec, ball
    ctor, params, radius = job["ball"]
    group = getattr(GroupSpec, ctor)(*params)
    t0 = time.perf_counter()
    bn = ball(group, radius)
    grow_s = time.perf_counter() - t0
    with tempfile.TemporaryDirectory(dir=job["tmp"]) as tmp:
        store = BallCache(tmp)
        t0 = time.perf_counter()
        store.store(group, radius, bn)
        store_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        lengths, _ = store.load(group, radius)
        load_s = time.perf_counter() - t0
    if len(lengths) != len(bn):
        raise SystemExit("cache load returned a different ball size")
    return {"grow_s": grow_s, "store_s": store_s, "load_s": load_s,
            "size": len(bn)}


MODES = {"op": run_op, "import": run_import, "multiply": run_multiply,
         "cache": run_cache}


def _run_forked(job: dict) -> dict:
    """Run ``job`` in a child forked from this process and return its result."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            result = MODES[job["mode"]](job)
        except BaseException:  # report every failure, then leave at once
            import traceback
            result, code = {"error": traceback.format_exc()[-2000:]}, 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(json.dumps(result))
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else {"error": "child left no result"}


def serve(src: str) -> None:
    import gc
    sys.path.insert(0, src)
    _import_cli(src)
    # keep the collector off the imported objects, so that a forked child
    # does not copy their pages just to scan them
    gc.freeze()
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_run_forked(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1] == "--serve":
        serve(sys.argv[2])
    else:
        job = json.loads(sys.argv[1])
        sys.path.insert(0, job["src"])
        sys.stdout.write(json.dumps(MODES[job["mode"]](job)) + "\n")
