"""Command-line surface: reports, determinism, exit codes, cache flags."""

import argparse
import csv
import io
import json
import math
import tracemalloc

import pytest

from tamecuts.cli import build_parser, main
from tamecuts.cuts import (
    lamplighter_cut_family,
    pq_cut_family,
    semidirect_cut_family,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dirichlet_zero(capsys):
    code, report = run_json(capsys, ["dirichlet", "--n", "0"])
    assert code == 0
    assert report["command"] == "dirichlet"
    assert report["results"][0]["value"] == 1.0
    assert report["config"]["seed"] == 0


def test_dirichlet_one_tight_tol(capsys):
    code, report = run_json(capsys, ["dirichlet", "--n", "1", "--tol", "1e-8"])
    assert code == 0
    val = report["results"][0]["value"]
    assert abs(val - (1 / 3 + 2 * math.sqrt(3) / math.pi)) < 1e-8


def test_every_result_carries_method_tag(capsys):
    for argv in (["dirichlet", "--n", "4"],
                 ["anorm", "--box", "1"],
                 ["lambda", "--group", "free_abelian", "--d", "1",
                  "--ball", "1", "--radius", "8"],
                 ["cut", "--family", "lamplighter", "--p", "2", "--n", "2"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        for res in report["results"]:
            blob = json.dumps(res)
            cert = (res.get("certificate") or res.get("estimate")
                    or res.get("cut", {}).get("certificate"))
            assert cert is not None, blob
            assert "method" in cert or "truncation_radius" in cert, blob


def test_cut_and_verify_lamplighter(capsys):
    code, report = run_json(capsys, ["cut", "--family", "lamplighter",
                                     "--p", "2", "--n", "3"])
    assert code == 0
    cut = report["results"][0]["cut"]
    assert cut["support_size"] == 8
    assert cut["certificate"]["lower"] == cut["certificate"]["upper"] == 1.0

    # the support is in closed form: 2^201 elements, none enumerated
    code, report = run_json(capsys, ["cut", "--family", "lamplighter",
                                     "--p", "2", "--n", "201"])
    assert code == 0
    cut = report["results"][0]["cut"]
    assert cut["support_size"] == cut["provenance"]["subgroup_order"] == 2 ** 201

    code, report = run_json(capsys, ["verify", "--family", "lamplighter",
                                     "--p", "2", "--n", "3"])
    assert code == 0
    rep = report["results"][0]["report"]
    assert rep["covers_ball"] is True
    assert rep["norm_upper"]["upper"] == 1.0
    assert rep["consistent"] is True


def test_byte_identical_reports(tmp_path):
    argv = ["rd-fit", "--group", "free_abelian", "--d", "2", "--nmax", "3",
            "--samples", "5", "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_projection(capsys):
    code = main(["dirichlet", "--n", "2", "--format", "csv", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "command,params,value,lower,upper,method,seed"
    fields = lines[1].split(",")
    assert fields[0] == "dirichlet"
    assert fields[5] == "exact-dft"
    assert fields[6] == "5"


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dirichlet"])  # missing --n
    assert exc.value.code == 2
    assert main(["dirichlet", "--n", "-3"]) == 2
    assert main(["cut", "--family", "semidirect", "--n", "2"]) == 2  # no matrix
    assert main(["cut", "--family", "semidirect", "--n", "2",
                 "--matrix", "1,1;0"]) == 2  # not square
    assert main(["dirichlet", "--n", "1", "--tol", "-1"]) == 2
    # a tolerance that is not finite would print NaN (not JSON) or never stop
    assert main(["dirichlet", "--n", "5", "--tol", "nan"]) == 2
    assert main(["dirichlet", "--n", "5", "--tol", "inf"]) == 2
    assert main(["anorm", "--box", "1", "--tol", "nan"]) == 2
    assert main(["hardy"]) == 2  # neither --set nor --random
    assert main(["hardy", "--random", "1", "--size-max", "1"]) == 2
    # more frequencies than the 5 in -2..2
    assert main(["hardy", "--random", "1", "--span", "2", "--size-max", "9",
                 "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # frequency lists that are not comma-separated integers
    for argv in (["anorm", "--support", "1,,2"], ["anorm", "--support=1,x"],
                 ["anorm", "--support="], ["hardy", "--set", "1,2.5"],
                 ["hardy", "--set="]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot parse")
        assert captured.out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["dirichlet", "--n", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write report to {out}: ")
    assert captured.out == ""
    assert not out.parent.exists()


def test_budget_exit_3(capsys):
    code = main(["ball", "--group", "free_abelian", "--d", "3", "--n", "40",
                 "--budget", "50"])
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads(out)
    assert report["error"]["type"] == "budget"
    assert report["error"]["radius_reached"] is not None


def test_rd_fit_sample_budget_exit_3(capsys):
    """100000 samples x |B_1| = 5 coefficients exceed the budget, which is
    checked before any coefficient is drawn: exit 3 with no finished
    radius, and nothing near the 4 MB the coefficients would take."""
    tracemalloc.start()
    try:
        code = main(["rd-fit", "--d", "2", "--samples", "100000",
                     "--budget", "50000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert peak < 1_000_000
    assert report["error"]["type"] == "budget"
    assert report["error"]["radius_reached"] == 0
    assert report["error"]["partial"] == {"max_ratio_per_n": {},
                                          "unconverged_per_n": {}}
    assert report["results"] == []


def test_rd_fit_budget_keeps_finished_radii(capsys):
    """200 samples fit the budget at n = 1 (1000 coefficients) but not at
    n = 2 (2600): the partial report carries the n = 1 row, equal to the
    one an unbudgeted run reports."""
    argv = ["rd-fit", "--d", "2", "--nmax", "3", "--samples", "200"]
    code, report = run_json(capsys, argv + ["--budget", "2000"])
    assert code == 3
    assert report["error"]["radius_reached"] == 1
    partial = report["error"]["partial"]
    code, full = run_json(capsys, argv)
    assert code == 0
    row = full["results"][0]
    assert sorted(row["unconverged_per_n"]) == ["1", "2", "3"]
    assert all(isinstance(v, int) for v in row["unconverged_per_n"].values())
    assert partial == {key: {"1": row[key]["1"]}
                       for key in ("max_ratio_per_n", "unconverged_per_n")}


def test_lambda_entry_budget_exit_3(capsys):
    """The balls fit the budget, but 25 x 3281 compression entries do not."""
    code = main(["lambda", "--d", "2", "--ball", "3", "--radius", "40",
                 "--budget", "50000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["type"] == "budget"
    partial = report["error"]["partial"]
    assert (partial["lower"], partial["l2_lower"], partial["l1_upper"]) == (5.0, 5.0, 25.0)
    assert partial["iterations"] == 0 and partial["converged"] is False
    assert report["results"] == []


def test_ball_report_and_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code, report = run_json(capsys, [
        "ball", "--group", "lamplighter", "--p", "2", "--n", "2",
        "--write-cache", "--cache-dir", str(cache_dir)])
    assert code == 0
    res = report["results"][0]
    assert res["size"] == 10
    assert res["level_sizes"] == [1, 4, 10]
    assert res["coset_section_size"] == 5

    code, report = run_json(capsys, ["cache", "--cache-dir", str(cache_dir)])
    assert code == 0
    entries = report["results"][0]["entries"]
    assert len(entries) == 1 and entries[0]["radius"] == 2

    code, report = run_json(capsys, ["cache", "--clear",
                                     "--cache-dir", str(cache_dir)])
    assert code == 0
    assert report["results"][0]["removed"] == 1


def test_cache_command_creates_no_directory(tmp_path, capsys):
    """Listing or clearing a missing cache directory reports it empty and
    leaves it missing; only ``ball --write-cache`` creates it."""
    cache_dir = tmp_path / "fresh" / "cache"
    code, report = run_json(capsys, ["cache", "--cache-dir", str(cache_dir)])
    assert code == 0 and report["results"][0]["entries"] == []
    code, report = run_json(capsys, ["cache", "--clear",
                                     "--cache-dir", str(cache_dir)])
    assert code == 0 and report["results"][0]["removed"] == 0
    assert not cache_dir.exists()

    code, _ = run_json(capsys, [
        "ball", "--group", "free_abelian", "--d", "1", "--n", "2",
        "--write-cache", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert [p.suffix for p in cache_dir.iterdir()] == [".json"]


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "bs", "--n", "2"],
    ["rd-fit", "--d", "2", "--nmax", "3", "--samples", "5"],
])
def test_cache_dir_does_not_change_results(tmp_path, capsys, monkeypatch, argv):
    """Balls are always grown: naming a cache directory, by flag or by
    environment, changes no result and creates no directory."""
    cache_dir = tmp_path / "cache"
    code, plain = run_json(capsys, argv)
    assert code == 0
    code, flagged = run_json(capsys, argv + ["--cache-dir", str(cache_dir)])
    assert code == 0 and flagged["results"] == plain["results"]
    monkeypatch.setenv("TAMECUT_CACHE_DIR", str(cache_dir))
    code, env = run_json(capsys, argv)
    assert code == 0 and env["results"] == plain["results"]
    assert not cache_dir.exists()


def test_hardy_random_budget_exit_3(capsys):
    """100000 sets of up to 512 frequencies exceed the budget, which is
    checked before any set is drawn."""
    tracemalloc.start()
    try:
        code = main(["hardy", "--random", "100000", "--budget", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert peak < 1_000_000
    assert report["error"]["type"] == "budget"
    assert report["results"] == []


def test_hardy_and_fit_growth(capsys):
    code, report = run_json(capsys, ["hardy", "--set", "0,1"])
    assert code == 0
    assert abs(report["results"][0]["value"]
               - (4 / math.pi) / math.log(2)) < 1e-4

    code, report = run_json(capsys, ["fit-growth", "--family", "lamplighter",
                                     "--p", "2", "--nmax", "4"])
    assert code == 0
    res = report["results"][0]
    assert res["a"] == 0.0 and abs(res["C"] - 1.0) < 1e-12


@pytest.mark.parametrize("argv", [
    ["ball", "--group", "pq", "--p", "0", "--q", "3", "--n", "1"],
    ["ball", "--group", "bs", "--p", "2", "--q", "0", "--n", "1"],
    ["ball", "--group", "lamplighter", "--p", "0", "--n", "1"],
    ["ball", "--group", "free_abelian", "--d", "0", "--n", "1"],
    ["cut", "--family", "pq", "--p", "0", "--q", "3", "--n", "1"],
    ["fit-growth", "--family", "lamplighter", "--p", "0", "--nmax", "3"],
    ["anorm", "--box", "1", "--d", "0"],
])
def test_zero_valued_flags_are_rejected(capsys, argv):
    """An explicit 0 is a value, not an omitted flag: it reaches the
    group's (or the box's) own validation instead of a default."""
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


# every --group choice, with the flags it needs and the family it reports
GROUP_CHOICES = {
    "free_abelian": ([], "free_abelian"),
    "semidirect": (["--matrix", "2,1;1,1"], "semidirect_zd"),
    "pq": ([], "pq"),
    "lamplighter": ([], "lamplighter"),
    "bs": ([], "baumslag_solitar"),
}

# every --family choice, with the flags it needs and its construction tag
CUT_CHOICES = {
    "lamplighter": ([], "lamplighter"),
    "pq": ([], "pq"),
    "semidirect": (["--matrix", "2,1;1,1"], "semidirect_zd"),
    "bs": ([], "baumslag_solitar"),
    "ball": (["--group", "pq"], "ball-indicator"),
}


def _choices(command: str, flag: str) -> tuple:
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return next(a.choices for a in sub._actions if flag in a.option_strings)


@pytest.mark.parametrize("name", GROUP_CHOICES)
def test_every_group_choice_builds_its_group(capsys, name):
    assert _choices("ball", "--group") == tuple(GROUP_CHOICES)
    flags, family = GROUP_CHOICES[name]
    code, report = run_json(capsys, ["ball", "--group", name, *flags,
                                     "--n", "2"])
    assert code == 0
    res = report["results"][0]
    assert res["params"]["group"]["family"] == family
    assert res["level_sizes"][0] == 1 and res["size"] > res["level_sizes"][1]


@pytest.mark.parametrize("name", CUT_CHOICES)
def test_every_family_choice_builds_its_cut(capsys, name):
    assert _choices("cut", "--family") == tuple(CUT_CHOICES)
    assert _choices("verify", "--family") == tuple(CUT_CHOICES)
    flags, construction = CUT_CHOICES[name]
    code, report = run_json(capsys, ["cut", "--family", name, *flags,
                                     "--n", "1"])
    assert code == 0
    cut = report["results"][0]["cut"]
    assert cut["family"] == construction and cut["index"] == 1


@pytest.mark.parametrize("name, flags, family", [
    ("pq", ["--p", "2", "--q", "5"], lambda: pq_cut_family(2, 5, range(1, 4))),
    ("lamplighter", ["--p", "3"], lambda: lamplighter_cut_family(3, [1, 2, 3])),
    ("semidirect", ["--matrix", "2,1;1,1"],
     lambda: semidirect_cut_family([[2, 1], [1, 1]], [1, 2, 3])),
])
def test_fit_growth_matches_library_families(capsys, name, flags, family):
    code, report = run_json(capsys, ["fit-growth", "--family", name, *flags,
                                     "--nmax", "3"])
    assert code == 0
    expected = {str(cut.index): cut.certificate.upper for cut in family()}
    assert report["results"][0]["uppers"] == expected


@pytest.mark.parametrize("argv", [
    ["ball", "--group", "semidirect", "--n", "2"],
    ["lambda", "--group", "semidirect"],
    ["verify", "--family", "semidirect", "--n", "2"],
    ["fit-growth", "--family", "semidirect", "--nmax", "3"],
])
def test_semidirect_without_matrix_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "--matrix is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", [None, "dirichlet", "anorm", "hardy",
                                     "ball", "lambda", "rd-fit", "cut",
                                     "verify", "fit-growth", "cache"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if command:
        for flag in ("--format", "--out", "--seed", "--tol", "--budget",
                     "--cache-dir"):
            assert flag in out


@pytest.mark.parametrize("argv", [
    ["dirichlet", "--n", "3"],
    ["anorm", "--support", "0,3,5"],
    ["anorm", "--box", "1", "--d", "2"],
    ["hardy", "--set", "0,1,5"],
    ["hardy", "--random", "3", "--span", "40", "--size-max", "6"],
    ["ball", "--group", "pq", "--n", "2"],
    ["ball", "--group", "pq", "--n", "40", "--budget", "100"],
    ["lambda", "--group", "free_abelian", "--d", "2", "--ball", "1",
     "--radius", "4"],
    ["rd-fit", "--group", "lamplighter", "--nmax", "3", "--samples", "3"],
    ["cut", "--family", "semidirect", "--matrix", "2,1;1,1", "--n", "2"],
    ["verify", "--family", "bs", "--n", "2"],
    ["fit-growth", "--family", "pq", "--nmax", "3"],
    ["cache", "--cache-dir", "missing-cache"],
])
def test_csv_rows_have_seven_columns(tmp_path, capsys, monkeypatch, argv):
    """Params holding dicts or lists are quoted, not split at their commas,
    and a result without a value gets an empty field."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--format", "csv", "--seed", "4"]) in (0, 3)
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["command", "params", "value", "lower", "upper",
                       "method", "seed"]
    for row in rows[1:]:
        assert len(row) == 7, row
        assert row[0] == argv[0] and row[6] == "4"
        assert "''" not in row
    if argv[0] == "hardy" and "--set" in argv:
        assert rows[1][1] == "set=[0, 1, 5]"
    if argv[0] == "hardy" and "--random" in argv:
        assert rows[1][2] == ""


# one representative argv per command
COMMAND_ARGV = {
    "dirichlet": ["--n", "3", "--tol", "1e-8"],
    "anorm": ["--support", "0,3", "--d", "2"],
    "hardy": ["--random", "3", "--size-max", "6", "--seed", "2"],
    "ball": ["--group", "pq", "--p", "2", "--n", "2", "--write-cache"],
    "lambda": ["--ball", "2", "--radius", "8", "--format", "csv"],
    "rd-fit": ["--group", "lamplighter", "--nmax", "3", "--samples", "3"],
    "cut": ["--family", "semidirect", "--matrix", "2,1;1,1", "--n", "2"],
    "verify": ["--fam", "bs", "--n", "2", "--out", "r.json"],
    "fit-growth": ["--family", "pq", "--nmax", "3", "--budget", "9"],
    "cache": ["--clear", "--cache-dir", "c"],
}


def _subparser(parser, command):
    return parser._subparsers._group_actions[0].choices[command]


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_single_command_parser_matches_full(command):
    """build_parser(command) holds only that command's subparser, with the
    same help, the same root usage line and the same parse as the full one."""
    full, single = build_parser(), build_parser(command)
    assert list(single._subparsers._group_actions[0].choices) == [command]
    assert (_subparser(single, command).format_help()
            == _subparser(full, command).format_help())
    assert single.format_usage() == full.format_usage()
    argv = [command, *COMMAND_ARGV[command]]
    assert single.parse_args(argv) == full.parse_args(argv)


def test_verify_builds_two_parsers(monkeypatch, capsys):
    """A command call builds the root parser and its own subparser only."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["verify", "--family", "pq", "--n", "2"]) == 0
    assert len(built) == 2, built
