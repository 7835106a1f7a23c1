"""The four workloads: which CLI operations a round runs, drawn from a seed.

A workload is a list of slots.  Each slot holds a few variants of about the
same cost (other program seeds, other support sets, neighbouring orders), so
every round does the same amount of work whatever the seed, and a run's
figures do not depend on which variants the seed drew.  A variant is a list
of one or more argv.  A round runs one variant of every slot, its
operations in a seeded order.  The set of all argv is finite, and
``refs/<workload>.json`` holds the reference output of each.

Why each workload exists, and what it should and should not move, is written
down in README.md.
"""

from __future__ import annotations

import itertools
import random

BS = [["--p", "1", "--q", "2"], ["--p", "2", "--q", "3"]]
SEMIDIRECT = [["--matrix", "2,1;1,1"], ["--matrix", "1,1;0,1"]]
PQ = [["--p", "2", "--q", "3"], ["--p", "2", "--q", "5"]]
LAMPLIGHTER = [["--p", "2"], ["--p", "3"]]


def _verify(family: str, flags: list[str], n: int, seed: int) -> list[str]:
    return ["verify", "--family", family, *flags, "--n", str(n),
            "--seed", str(seed)]


def _verify_slots():
    slots = []
    for family, groups in (("bs", BS), ("semidirect", SEMIDIRECT),
                           ("pq", PQ), ("lamplighter", LAMPLIGHTER)):
        for flags in groups:
            slots.append([[_verify(family, flags, n, s)]
                          for n in (2, 3, 4) for s in (0, 1, 2)])
    # The three families of 0.5-1 s run three more times each, at every n
    # once and with every program seed once (the seed draws which n gets
    # which program seed).  Both change the cost by up to 30%, so a round
    # holds the same mix of costs whatever the seed, and the median
    # operation falls in the middle of a cluster of twelve similar ones.
    for family, flags in (("bs", BS[0]), ("semidirect", SEMIDIRECT[1]),
                          ("pq", PQ[0])):
        slots.append([[_verify(family, flags, n, s)
                       for n, s in zip((2, 3, 4), seeds)]
                      for seeds in itertools.permutations((0, 1, 2))])
    return slots


def _rd_slots():
    def rd(group, nmax, seed):
        return ["rd-fit", *group, "--nmax", str(nmax), "--samples", "100",
                "--seed", str(seed)]
    lamplighter = ["--group", "lamplighter", "--p", "2"]
    z2 = ["--group", "free_abelian", "--d", "2"]
    # Z^2 at --nmax 6 runs with every program seed, which moves its cost by
    # up to 20%: the median operation falls inside these four in every round
    return [[[rd(lamplighter, 4, s)] for s in range(4)],
            [[rd(lamplighter, 4, s)] for s in range(4)],
            [[rd(z2, 5, s)] for s in range(4)],
            [[rd(z2, 6, s) for s in range(4)]]]


# cold balls of 3e4..8e4 elements, each grown in about 1 s: (GroupSpec
# constructor, its arguments, radius, CLI flags).  Equal costs keep the
# median operation inside a cluster instead of between two sizes.
BALLS = [
    ("baumslag_solitar", [2, 3], 10, ["--group", "bs", "--p", "2", "--q", "3"]),
    ("pq", [2, 3], 12, ["--group", "pq", "--p", "2", "--q", "3"]),
    ("lamplighter", [2], 16, ["--group", "lamplighter", "--p", "2"]),
    ("semidirect_zd", [[[2, 1], [1, 1]]], 10,
     ["--group", "semidirect", "--matrix", "2,1;1,1"]),
    ("free_abelian", [3], 30, ["--group", "free_abelian", "--d", "3"]),
]


def _ball_slots():
    # ball output does not depend on --seed, so the seed draws the order only
    return [[[["ball", *flags, "--n", str(radius)]]]
            for _, _, radius, flags in BALLS]


def support_set(index: int) -> str:
    """The index-th seeded frequency set for ``anorm --support``."""
    rng = random.Random(f"anorm-support-{index}")
    return ",".join(str(k) for k in sorted(rng.sample(range(-2048, 2049), 64)))


def _fourier_slots():
    top = 1 << 25
    dirichlet = [["dirichlet", "--n", str(n)]
                 for n in (top, top - 1, top - 7, top - 12345)]
    slots = [
        [["hardy", "--random", "10", "--seed", str(s)] for s in range(4)],
        # twice, so that the median operation is a dirichlet one instead of
        # the mean of a cheap fit-growth and a dirichlet
        dirichlet,
        dirichlet,
        # "=" keeps argparse from reading a leading minus as an option
        [["anorm", f"--support={support_set(i)}"] for i in range(4)],
        [["fit-growth", "--family", "pq", "--p", "2", "--q", q, "--nmax", "5"]
         for q in ("3", "5")],
        [["fit-growth", "--family", "semidirect", *m, "--nmax", "5"]
         for m in SEMIDIRECT],
        # exits 3 at the quadrature budget (a 4096^2 grid, about 600 MB)
        [["anorm", "--box", str(r), "--d", "2"] for r in (2, 3, 4, 6)],
    ]
    return [[[argv] for argv in slot] for slot in slots]


WORKLOADS = {
    "verify-cuts": _verify_slots,
    "rd-sampling": _rd_slots,
    "ball-enum": _ball_slots,
    "fourier-certs": _fourier_slots,
}

# How a workload's main() time follows the host's speed: it grows as this
# power of the calibration loop's time (run.py).  The interpreted work of
# the group layers slows down as much as the pure-Python loop.  The FFTs
# and vectorized sums of fourier-certs slow down less: over two host states
# its median call took 0.405 s and 0.62 s while the loop took 7.8 ms and
# 14.5 ms, and ln(0.62/0.405) / ln(14.5/7.8) = 0.69.
HOST_POWER = {"fourier-certs": 0.7}


def draw_round(workload: str, rng: random.Random) -> list[list[str]]:
    """One round: a seeded variant of every slot, in a seeded order."""
    ops = [argv for slot in WORKLOADS[workload]() for argv in rng.choice(slot)]
    rng.shuffle(ops)
    return ops


def all_variants(workload: str) -> list[list[str]]:
    """Every argv that a round of ``workload`` can run, once each."""
    seen, out = set(), []
    for slot in WORKLOADS[workload]():
        for variant in slot:
            for argv in variant:
                if op_key(argv) not in seen:
                    seen.add(op_key(argv))
                    out.append(argv)
    return out


def op_key(argv: list[str]) -> str:
    return " ".join(argv)
