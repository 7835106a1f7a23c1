"""tamecuts benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-cuts --seed 1 --seconds 26 --trace 0

Each operation is one ``tamecuts.cli.main(argv)`` call in its own fresh,
single-threaded child process, forked from a server that has only imported
``tamecuts.cli`` (``child.py``), one child at a time: a closed loop with one
client.  The import is timed apart, in fresh interpreters (``setup_s``).
The package is imported from ``src/`` of the checkout and never modified.
Every operation's report is checked against the reference recorded at the
seed commit and against independent oracles (``check.py``).

``--trace 0`` runs whole rounds (``workloads.py``) while another round still
fits in ``--seconds`` and reports the end-to-end metrics, with times scaled
to a fixed machine speed (``CAL_REF_S``).  ``--trace 1`` runs
one round, each operation once plain and once under cProfile, plus the
``multiply`` and ball-cache probes, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for people, with sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check  # noqa: E402
from workloads import BALLS, HOST_POWER, WORKLOADS, draw_round, op_key  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
SETUP_IMPORTS = 9
# End-to-end times are scaled to the speed at which the calibration loop of
# child.py takes this long.  The host's speed changes by up to 60% from one
# second to the next; every child times the loop just before and after its
# measured part, and that time is scaled by the median of these samples (to
# the workload's HOST_POWER), so the scaling cancels the host's changes and
# keeps every program change.
CAL_REF_S = 0.010
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# element pairs for the multiply probe come from the radius-4 ball, which
# every workload's balls contain; larger radii mean longer words and lamps
MULTIPLY_GROUPS = {
    "free_abelian": ["free_abelian", [2], 4],
    "semidirect_zd": ["semidirect_zd", [[[2, 1], [1, 1]]], 4],
    "pq": ["pq", [2, 3], 4],
    "lamplighter": ["lamplighter", [2], 4],
    "baumslag_solitar": ["baumslag_solitar", [2, 3], 4],
}


class Runner:
    """Runs jobs one at a time, each in a fresh single-threaded process."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "TAMECUT_CACHE_DIR")}
        env.update(dict.fromkeys(THREAD_VARS, "1"))
        # fixed string hashing: set and dict layouts, hence timings, repeat
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.server = None

    def child(self, job: dict) -> dict:
        """Run ``job`` in a fresh interpreter of its own."""
        job = dict(job, src=self.src)
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(job)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"child {job['mode']} failed with code "
                               f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def forked(self, job: dict) -> dict:
        """Run ``job`` in a child of the fork server (child.py --serve)."""
        if self.server is None:
            self.server = subprocess.Popen(
                [sys.executable, CHILD, "--serve", self.src], cwd=self.root,
                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        self.server.stdin.write(json.dumps(dict(job, src=self.src)) + "\n")
        self.server.stdin.flush()
        ready, _, _ = select.select([self.server.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise RuntimeError(f"child {job['mode']} gave no result within "
                               f"{CHILD_TIMEOUT_S} s")
        res = json.loads(line)
        if "error" in res:
            raise RuntimeError(f"child {job['mode']} failed: {res['error']}")
        return res

    def close(self) -> None:
        """Stop the fork server and its children, and wait for the server."""
        if self.server is None:
            return
        server, self.server = self.server, None
        server.stdin.close()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        try:  # the server's session holds every child it forked
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
        server.stdout.close()

    def op(self, argv: list[str], refs: dict, profile: bool = False) -> dict:
        try:
            res = self.forked({"mode": "op", "argv": argv, "profile": profile})
        except RuntimeError as exc:
            return {"argv": argv, "fault": str(exc)}
        res["argv"] = argv
        res["fault"] = check(argv, res["exit"], res["report"],
                             refs.get(op_key(argv)))
        return res


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _git_sha(root: str) -> str | None:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def _tail(times: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 operations above it."""
    n = len(times)
    if n <= 10:
        return None
    ordered = sorted(times)
    for pct in range(99, 0, -1):
        idx = max(0, min(n - 1, int(round(pct / 100 * (n - 1)))))
        if n - 1 - idx >= 10:
            return pct, ordered[idx]
    return None


def _scaled(res: dict, key: str, power: float) -> float:
    """``res[key]`` at the speed where the calibration loop takes CAL_REF_S;
    power 0 leaves it unscaled."""
    return res[key] * (CAL_REF_S / statistics.median(res["cal"])) ** power


def _summary(imports: list[dict], done: list[dict], main_power: float,
             import_power: float) -> tuple:
    times = [_scaled(o, "main_s", main_power) for o in done]
    return (_median([_scaled(o, "import_s", import_power) for o in imports]),
            len(times) / sum(times) if times else 0.0, _median(times), times)


def end_to_end(runner: Runner, workload: str, rng, seconds: float, refs: dict,
               imports: list[dict]):
    ops, rounds = [], 0
    start = time.perf_counter()
    last = 0.0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        ops.extend(runner.op(argv, refs) for argv in draw_round(workload, rng))
        last = time.perf_counter() - t0
        rounds += 1
    done = [o for o in ops if "main_s" in o]
    setup_s, ops_per_s, p50, times = _summary(
        imports, done, HOST_POWER.get(workload, 1.0), 1.0)
    raw = _summary(imports, done, 0.0, 0.0)
    cal_s = _median([c for o in imports + done for c in o["cal"]])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_s": (p50, "s"),
        "peak_rss_mb": (max((o["rss_peak"] for o in done), default=0) / 1e6, "MB"),
    }
    tail = _tail(times)
    notes = [f"rounds {rounds}, operations {len(ops)}, "
             f"timed main() {sum(raw[3]):.3f} s, imports {len(imports)}",
             f"unscaled: setup_s {raw[0]:.6g} s, ops_per_s {raw[1]:.6g} ops/s, "
             f"op_p50_s {raw[2]:.6g} s; calibration median {1000 * cal_s:.2f} ms "
             f"against {1000 * CAL_REF_S:.0f} ms",
             f"op_p50_s over N={len(times)}",
             (f"op_tail_s {tail[1]:.6f} s (p{tail[0]}, N={len(times)})" if tail
              else f"op_tail_s not reported: N={len(times)} leaves no percentile "
                   f"with 10 operations above it")]
    return ops, metrics, notes


def per_layer(runner: Runner, workload: str, rng, seed: int, refs: dict):
    ops, pairs = [], []
    for argv in draw_round(workload, rng):
        plain = runner.op(argv, refs)
        traced = runner.op(argv, refs, profile=True)
        ops += [plain, traced]
        if "main_s" in plain and "layers" in traced:
            pairs.append((plain, traced))
    n = max(len(pairs), 1)
    lay = [t["layers"] for _, t in pairs]

    def mean(key):
        return sum(x[key] for x in lay) / n

    def self_s(layer):
        return sum(x["self_s"][layer] for x in lay) / n

    traced_s = sum(t["main_s"] for _, t in pairs)
    plain_s = sum(p["main_s"] for p, _ in pairs)
    grown = sum(t["ball_elements"] for _, t in pairs)
    # the trace gives growth's share of each operation; the plain run its time
    grow_plain_s = sum(t["layers"]["grow_s"] * p["main_s"] / t["main_s"]
                       for p, t in pairs if t["main_s"] > 0)
    with_balls = [p for p, _ in pairs if p["ball_elements"]]
    rss_growth = sum(p["rss_peak"] - p["rss_import"] for p in with_balls)
    checked = sum(json.loads(p["report"])["results"][0]["report"]["checked"]
                  for p, _ in pairs if p["argv"][0] == "verify" and p["exit"] == 0)

    mult = runner.forked({"mode": "multiply", "groups": MULTIPLY_GROUPS,
                          "seed": seed, "pairs": 20000, "repeats": 5})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=runner.root) as tmp:
        caches = [runner.forked({"mode": "cache", "ball": [ctor, params, radius],
                                 "tmp": tmp})
                  for ctor, params, radius, _ in BALLS]
    grow_cold = sum(c["grow_s"] for c in caches)
    load = sum(c["load_s"] for c in caches)

    per_op = "s/op"
    metrics = {
        "elements.self_s": (self_s("elements"), per_op),
        "elements.multiply_calls": (mean("multiply_calls"), "calls/op"),
        "elements.invert_calls": (mean("invert_calls"), "calls/op"),
        **{f"elements.multiply_us.{fam}": (us, "us")
           for fam, us in mult["multiply_us"].items()},
        "balls.self_s": (self_s("balls"), per_op),
        "balls.grow_s": (mean("grow_s"), per_op),
        "balls.elements_per_s": (grown / grow_plain_s if grow_plain_s else 0.0,
                                 "elem/s"),
        "balls.rss_bytes_per_element": (
            rss_growth / sum(p["ball_elements"] for p in with_balls)
            if with_balls else 0.0, "B/elem"),
        "balls.coset_section_s": (mean("coset_section_s"), per_op),
        "opnorm.build_calls": (mean("build_calls"), "calls/op"),
        "opnorm.build_s": (mean("build_s"), per_op),
        "opnorm.solve_s": (mean("solve_s"), per_op),
        "opnorm.matvecs": (mean("matvecs"), "calls/op"),
        "opnorm.self_s": (self_s("opnorm"), per_op),
        "fourier.self_s": (self_s("fourier"), per_op),
        "fourier.a_norm_calls": (mean("a_norm_calls"), "calls/op"),
        "fourier.grid_evals": (mean("grid_evals"), "calls/op"),
        "fourier.fft_s": (mean("fft_s"), per_op),
        "fourier.dirichlet_s": (mean("dirichlet_s"), per_op),
        "cuts.construct_s": (mean("construct_s"), per_op),
        "cuts.verify_s": (mean("verify_s"), per_op),
        "cuts.checked": (checked / n, "elem/op"),
        "cuts.self_s": (self_s("cuts"), per_op),
        "cli.self_s": (self_s("cli"), per_op),
        "cli.report_bytes": (sum(len(p["report"].encode()) for p, _ in pairs) / n,
                             "B/op"),
        "cache.store_s": (sum(c["store_s"] for c in caches), "s"),
        "cache.load_s": (load, "s"),
        "cache.load_over_grow": (load / grow_cold, "1"),
        "trace.overhead_ratio": (traced_s / plain_s if plain_s else 0.0, "1"),
        "trace.unattributed_share": (
            sum(x["self_s"]["unattributed"] for x in lay) / traced_s
            if traced_s else 0.0, "1"),
    }
    notes = [f"traced {len(pairs)} operations; times are cProfile seconds per "
             f"operation; cache compared on {len(caches)} cold balls"]
    return ops, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tamecuts", "cli.py")):
        print("error: run from the root of a tamecuts checkout "
              "(src/tamecuts/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "refs", f"{args.workload}.json")) as fh:
        refs = json.load(fh)

    runner = Runner(root)
    try:
        warm = runner.child({"mode": "import"})  # writes bytecode caches
        imports = [runner.child({"mode": "import"})
                   for _ in range(SETUP_IMPORTS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot import tamecuts: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(f"{args.workload}/{args.seed}")
    try:
        if args.trace:
            ops, metrics, notes = per_layer(runner, args.workload, rng,
                                            args.seed, refs)
        else:
            ops, metrics, notes = end_to_end(runner, args.workload, rng,
                                             args.seconds, refs, imports)
    finally:
        runner.close()

    failed = [o for o in ops if o["fault"]]
    for o in failed:
        print(f"FAILED {op_key(o['argv'])}: {o['fault']}", file=sys.stderr)
    env = {"python": sys.version.split()[0], **warm["versions"],
           "git_sha": _git_sha(root), "nproc": os.cpu_count(),
           **{k: runner.env[k] for k in THREAD_VARS + ("PYTHONHASHSEED",)}}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
