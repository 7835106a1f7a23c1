"""Record the reference output of every operation a workload can draw.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Writes ``perfbench/refs/<workload>.json``: for each argv, the exit
code and the parsed JSON report.  The oracles of ``check.py`` must hold on
every recorded report, or nothing is written.
"""

from __future__ import annotations

import json
import os
import sys

from check import oracles
from run import HERE, Runner
from workloads import WORKLOADS, all_variants, op_key


def record(runner: Runner, workload: str) -> dict:
    refs = {}
    for argv in all_variants(workload):
        res = runner.forked({"mode": "op", "argv": argv})
        report = json.loads(res["report"])
        fault = oracles(argv, report)
        if fault:
            raise SystemExit(f"{op_key(argv)}: oracle failed: {fault}")
        refs[op_key(argv)] = {"exit": res["exit"], "report": report}
        print(f"{workload}: {op_key(argv)[:70]} exit={res['exit']} "
              f"{res['main_s']:.2f} s", flush=True)
    return refs


def main(names: list[str]) -> int:
    runner = Runner(os.getcwd())
    try:
        for workload in names or sorted(WORKLOADS):
            refs = record(runner, workload)
            path = os.path.join(HERE, "refs", f"{workload}.json")
            with open(path, "w") as fh:
                json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
