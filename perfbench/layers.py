"""Per-layer attribution of one cProfile run of ``tamecuts.cli.main``.

A layer is a package module; ``groups.spec`` and ``groups.intmat`` are
charged to ``groups.elements``, which calls them.  Time spent in numpy,
scipy, builtins and package glue (``errors``, ``__init__``) is charged to the
package layer that called it: a foreign function's self time is split over
its callers in proportion to the time each call edge accounts for, and a
foreign caller passes its share on the same way.  What reaches no package
frame (the profiler's own calls) is ``unattributed``.

Counters and spans are read off the profile at public entry points of each
layer, found through the package's own function objects, so nothing inside
the package is modified.
"""

from __future__ import annotations

import os

LAYER_FILES = {
    os.path.join("groups", "elements.py"): "elements",
    os.path.join("groups", "spec.py"): "elements",
    os.path.join("groups", "intmat.py"): "elements",
    os.path.join("groups", "balls.py"): "balls",
    os.path.join("groups", "cache.py"): "cache",
    "opnorm.py": "opnorm",
    "fourier.py": "fourier",
    "cuts.py": "cuts",
    "cli.py": "cli",
}
LAYERS = ("elements", "balls", "cache", "opnorm", "fourier", "cuts", "cli")
UNATTRIBUTED = "unattributed"


def _layer_of(filename: str, pkg_dir: str) -> str | None:
    if not filename.startswith(pkg_dir):
        return None
    return LAYER_FILES.get(os.path.relpath(filename, pkg_dir))


def _key(code) -> tuple:
    """Profile key of a code object, or of a builtin's description.

    The code object's identity is part of the key: dataclass-generated
    methods of different classes share file, line and name, and pstats would
    merge them.
    """
    if isinstance(code, str):
        return ("~", 0, code, 0)
    return (code.co_filename, code.co_firstlineno, code.co_name, id(code))


def _stats(profiler) -> dict:
    """{key: (calls, self time, cumulative time, callers)}, where callers maps
    each caller's key to that edge's (calls, cumulative time)."""
    stats = {}
    callers: dict = {}
    for e in profiler.getstats():
        key = _key(e.code)
        stats[key] = (e.callcount, e.inlinetime, e.totaltime)
        for sub in e.calls or ():
            callers.setdefault(_key(sub.code), {})[key] = (sub.callcount,
                                                           sub.totaltime)
    return {k: v + (callers.get(k, {}),) for k, v in stats.items()}


def _entry_points() -> dict:
    """Public functions whose calls become spans and counters."""
    import tamecuts.cli as cli
    from tamecuts import cuts, fourier, opnorm
    from tamecuts.groups import balls, elements

    def get(mod, dotted):
        obj = mod
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        code = getattr(obj, "__code__", None)
        return None if code is None else _key(code)

    return {
        "multiply": get(elements, "multiply"),
        "invert": get(elements, "invert"),
        "ball": get(balls, "ball"),
        "word_length": get(balls, "word_length"),
        "coset_section": get(balls, "coset_section"),
        "build": get(opnorm, "CompressedConvolution.__init__"),
        "solve": get(opnorm, "_power_iteration"),
        "a_norm": get(fourier, "a_norm_torus"),
        "grid": get(fourier, "TrigPoly.transform_on_grid"),
        "dirichlet": get(fourier, "dirichlet_l1"),
        "verify_cut": get(cuts, "verify_cut"),
        "cli_dir": os.path.dirname(os.path.realpath(cli.__file__)),
    }


def _foreign_shares(stats: dict, own: dict) -> dict:
    """Fractions of each foreign function's time owed to each layer.

    share(F) is the edge-time-weighted mean of its callers' shares, with a
    package caller counting as its own layer.  Foreign call cycles (a
    dataclass ``__hash__`` calling ``hash`` calling ``__hash__``) make this a
    fixed point, reached by repeated sweeps; mass that never reaches a
    package frame is unattributed.
    """
    foreign = [k for k in stats if not own[k]]
    weights = {}
    for key in foreign:
        callers = {c: ct or nc for c, (nc, ct) in stats[key][3].items()
                   if c != key and c in stats}
        total = sum(callers.values())
        weights[key] = {c: w / total for c, w in callers.items()} if total else {}
    shares = {key: {} for key in foreign}
    for _ in range(500):
        change = 0.0
        for key in foreign:
            out: dict = {}
            for caller, w in weights[key].items():
                src = {own[caller]: 1.0} if own[caller] else shares[caller]
                for layer, f in src.items():
                    out[layer] = out.get(layer, 0.0) + f * w
            old = shares[key]
            change = max([change] + [abs(out.get(k, 0.0) - old.get(k, 0.0))
                                     for k in out.keys() | old.keys()])
            shares[key] = out
        if change < 1e-12:
            break
    for out in shares.values():
        rest = 1.0 - sum(out.values())
        if rest > 1e-12:
            out[UNATTRIBUTED] = rest
    return shares


def attribute(profiler, wall_s: float) -> dict:
    """Per-layer self time, spans and counters of a ``cProfile.Profile``
    that ran for ``wall_s`` seconds."""
    stats = _stats(profiler)
    entry = _entry_points()
    pkg_dir = entry["cli_dir"] + os.sep
    own = {key: _layer_of(os.path.realpath(key[0]), pkg_dir) for key in stats}

    shares = _foreign_shares(stats, own)
    self_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
    calls_total = sum(v[0] for v in stats.values()) or 1
    # cProfile's own cost is the wall time no function's self time covers;
    # it is the same for every call event, so each call carries an equal part
    overhead_per_call = max(0.0, wall_s - sum(v[1] for v in stats.values())) / calls_total
    for key, (nc, tt, _, _) in stats.items():
        t = tt + nc * overhead_per_call
        for layer, f in ({own[key]: 1.0} if own[key] else shares[key]).items():
            self_s[layer] += t * f

    def calls(name):
        key = entry[name]
        return stats[key][0] if key in stats else 0

    def cum(name):
        key = entry[name]
        return stats[key][2] if key in stats else 0.0

    def edges(caller_ok, callee_ok):
        """Summed (calls, cumulative time) over matching call edges."""
        n, t = 0, 0.0
        for callee, (_, _, _, callers) in stats.items():
            if not callee_ok(callee):
                continue
            for caller, (nc, ct) in callers.items():
                if caller_ok(caller):
                    n += nc
                    t += ct
        return n, t

    solve = entry["solve"]
    matvecs, _ = edges(lambda c: c == solve,
                       lambda f: f[2] == "__matmul__")
    _, fft_s = edges(lambda c: own.get(c) == "fourier",
                     lambda f: own.get(f) is None and "fft" in f[2])
    construct_calls = {k for k in stats if own.get(k) == "cuts"
                       and (k[2].startswith("cut_")
                            or k[2].endswith("_cut_family"))}
    _, construct_s = edges(lambda c: own.get(c) == "cli",
                           lambda f: f in construct_calls)
    return {
        "self_s": self_s,
        "multiply_calls": calls("multiply"),
        "invert_calls": calls("invert"),
        "grow_s": cum("ball") + cum("word_length"),
        "coset_section_s": cum("coset_section"),
        "build_calls": calls("build"),
        "build_s": cum("build"),
        "solve_s": cum("solve"),
        "matvecs": matvecs,
        "a_norm_calls": calls("a_norm"),
        "grid_evals": calls("grid"),
        "fft_s": fft_s,
        "dirichlet_s": cum("dirichlet"),
        "construct_s": construct_s,
        "verify_s": cum("verify_cut"),
    }
