"""Command-line surface: reports, determinism, exit codes, cache flags."""

import json
import math
import tracemalloc

import pytest

from tamecuts.cli import main


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
    assert main(["hardy"]) == 2  # neither --set nor --random
    assert main(["hardy", "--random", "1", "--size-max", "1"]) == 2
    # more frequencies than the 5 in -2..2
    assert main(["hardy", "--random", "1", "--span", "2", "--size-max", "9",
                 "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


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
