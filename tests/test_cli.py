"""Command line surface: exit codes, report bytes, error lines."""

from __future__ import annotations

import json

import pytest

from conftest import airport, leg, make_instance
from crewroute.cli import build_parser, main
from crewroute.instance import dumps_instance


@pytest.fixture
def toy2_path(toy2, tmp_path):
    p = tmp_path / "toy2.json"
    p.write_text(dumps_instance(toy2))
    return str(p)


def _write(tmp_path, inst, name):
    p = tmp_path / name
    p.write_text(dumps_instance(inst))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# argparse surface


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--legs", "6"])
    assert exc.value.code == 2


def test_bad_kappa_exits_two(capsys, toy2_path):
    for command, value in (("pair", "fast"), ("pair", "0"),
                           ("integrated", "-3")):
        with pytest.raises(SystemExit) as exc:
            main([command, toy2_path, "--kappa", value])
        assert exc.value.code == 2
        assert "kappa must be an integer" in capsys.readouterr().err


def test_auto_kappa_is_kappa_1(capsys, toy2_path):
    for command in ("pair", "integrated"):
        args = build_parser().parse_args([command, toy2_path, "--kappa", "auto"])
        assert args.kappa == 1
        code, auto, _ = _run(capsys, [command, toy2_path, "--kappa", "auto"])
        assert code == 0
        assert _run(capsys, [command, toy2_path, "--kappa", "1"])[1] == auto


@pytest.mark.parametrize("command, flag", [
    ("route", "--limit-nodes"),
    ("route", "--budget"),
    ("pair", "--limit-paths"),
    ("integrated", "--iteration-limit"),
])
def test_negative_limit_exits_two(capsys, toy2_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, toy2_path, flag, "-1"])
    assert exc.value.code == 2
    assert "limit must be a non-negative integer" in capsys.readouterr().err


def test_bad_force_syntax_exits_two(capsys, toy2_path):
    with pytest.raises(SystemExit) as exc:
        main(["route", toy2_path, "--force", "0:1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--stats"], ["--jobs", "2"],
                                  ["--limit-paths", "1"]])
def test_route_rejects_pairing_flags(capsys, toy2_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["route", toy2_path] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--force", "999,998"], ["--budget", "0"]])
def test_route_minimize_rejects_force_and_budget(capsys, toy2_path, flag):
    # fleet minimisation drops the budget row and forces nothing, so the
    # flag would be ignored silently
    for argv in (["--minimize"] + flag, flag + ["--minimize"]):
        with pytest.raises(SystemExit) as exc:
            main(["route", toy2_path] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--minimize: not allowed with --force or --budget" in err


@pytest.mark.parametrize("command, flag", [
    pytest.param("pair", ["--jobs", "2"], id="pair"),
    pytest.param("integrated", ["--jobs", "2"], id="integrated"),
    pytest.param("pair", ["--stats"], id="pair-stats"),
    pytest.param("integrated", ["--stats"], id="integrated-stats"),
])
def test_jobs_flag_is_a_usage_error(capsys, toy2_path, command, flag):
    """The deleted --jobs and --stats options are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main([command, toy2_path] + flag)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# error paths


def test_missing_file_is_reported(capsys):
    code, out, err = _run(capsys, ["report", "/nonexistent/inst.json"])
    assert code == 1
    assert err.startswith("crewroute: error:")
    assert out == ""


def test_invalid_json_is_reported(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = _run(capsys, ["pair", str(p)])
    assert code == 1
    assert err.startswith("crewroute: error:")


def test_unknown_forced_connection_is_reported(capsys, toy2_path):
    code, _, err = _run(capsys, ["route", toy2_path, "--force", "5,6"])
    assert code == 1
    assert "forced connection" in err


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(capsys, tmp_path):
    argv = ["generate", "--legs", "8", "--aircraft", "3", "--airports", "4",
            "--bases", "2", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    target = tmp_path / "inst.json"
    assert main(argv + ["--output", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == out1
    inst = json.loads(out1)
    assert len(inst["legs"]) == 8


# ---------------------------------------------------------------------------
# solver subcommands


def test_route_roundtrip(capsys, toy2_path):
    code, out, _ = _run(capsys, ["route", toy2_path])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "optimal"
    assert rep["aircraft_used"] == 1
    assert rep["routes"] == [[0, 1]]
    code, out, _ = _run(capsys, ["route", toy2_path, "--minimize"])
    assert json.loads(out)["aircraft_used"] == 1
    assert code == 0


def test_route_infeasible_exits_two(capsys, toy2_path):
    code, out, _ = _run(capsys, ["route", toy2_path, "--budget", "0"])
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"


def test_route_node_limit_exits_three(capsys, toy2_path):
    code, out, _ = _run(capsys, ["route", toy2_path, "--limit-nodes", "0"])
    assert code == 3
    assert json.loads(out)["status"] == "limit"


def test_route_forced_connection(capsys, toy2_path):
    code, out, _ = _run(capsys, ["route", toy2_path, "--force", "0,1"])
    assert code == 0
    assert json.loads(out)["forced"] == [[0, 1]]


def test_pair_reports_objective(capsys, toy2_path):
    code, out, _ = _run(capsys, ["pair", toy2_path])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "optimal"
    assert rep["objective"] == pytest.approx(300.0)
    assert rep["pairings"][0]["legs"] == [0, 1]
    assert "runtime_ms" not in rep["stats"]


def test_pair_uncoverable_exits_two(capsys, uncoverable, tmp_path):
    path = _write(tmp_path, uncoverable, "u.json")
    code, out, _ = _run(capsys, ["pair", path])
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "infeasible"
    assert rep["uncovered_legs"] == [0, 1]


def test_pair_kappa_does_not_change_objective(capsys, tmp_path):
    assert main(["generate", "--legs", "10", "--aircraft", "3", "--airports",
                 "4", "--bases", "2", "--seed", "8", "--output",
                 str(tmp_path / "g.json")]) == 0
    path = str(tmp_path / "g.json")
    _, out1, _ = _run(capsys, ["pair", path, "--kappa", "1"])
    _, out50, _ = _run(capsys, ["pair", path, "--kappa", "50"])
    assert (json.loads(out1)["objective"]
            == pytest.approx(json.loads(out50)["objective"]))


def test_reports_are_byte_identical_without_stats(capsys, tmp_path):
    assert main(["generate", "--legs", "8", "--aircraft", "3", "--airports",
                 "4", "--bases", "2", "--seed", "3", "--output",
                 str(tmp_path / "g.json")]) == 0
    path = str(tmp_path / "g.json")
    for argv in (["pair", path], ["route", path],
                 ["integrated", path, "--gamma", "1.0"]):
        _, first, _ = _run(capsys, argv)
        _, again, _ = _run(capsys, argv)
        assert first == again
        json.loads(first)


@pytest.mark.parametrize("gamma", ["0", "-1", "1.5", "nan"])
def test_integrated_rejects_gamma_outside_unit_interval(capsys, toy2_path,
                                                        gamma):
    code, out, err = _run(capsys, ["integrated", toy2_path, "--gamma", gamma])
    assert code == 1
    assert out == ""
    assert err.startswith("crewroute: error: gamma must be in (0, 1]")


def test_integrated_exit_codes(capsys, toy2_path, overcut, looping_week,
                               tmp_path):
    code, out, _ = _run(capsys, ["integrated", toy2_path, "--gamma", "1.0"])
    assert code == 0
    assert json.loads(out)["status"] == "optimal"
    # one aircraft cannot fly the overcut week: a proof at any gamma
    over = _write(tmp_path, overcut, "over.json")
    for gamma in ("1.0", "0.9"):
        code, out, _ = _run(capsys, ["integrated", over, "--gamma", gamma])
        assert code == 2
        assert json.loads(out)["status"] == "infeasible"
    looping = _write(tmp_path, looping_week, "looping.json")
    code, out, _ = _run(capsys, ["integrated", looping, "--gamma", "0.5"])
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "limit"
    assert rep["over_cut"] is True


def test_output_file_matches_stdout(capsys, toy2_path, tmp_path):
    _, out, _ = _run(capsys, ["route", toy2_path])
    target = tmp_path / "rep.json"
    assert main(["route", toy2_path, "--output", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == out


# ---------------------------------------------------------------------------
# oracle and report subcommands


def test_oracle_subcommands(capsys, toy2_path):
    code, out, _ = _run(capsys, ["oracle", toy2_path, "pairing"])
    assert code == 0
    rep = json.loads(out)
    assert rep["objective"] == pytest.approx(300.0)
    assert rep["pairings"] == [[0, 1]]

    code, out, _ = _run(capsys, ["oracle", toy2_path, "routing"])
    assert code == 0
    rep = json.loads(out)
    assert rep["min_aircraft"] == 1

    code, out, _ = _run(capsys, ["oracle", toy2_path, "integrated"])
    assert code == 0
    assert json.loads(out)["objective"] == pytest.approx(300.0)


def test_report_summarizes_instance(capsys, toy2_path):
    code, out, _ = _run(capsys, ["report", toy2_path])
    assert code == 0
    rep = json.loads(out)
    assert rep["airports"] == 2
    assert rep["bases"] == ["CDG"]
    assert rep["legs"] == 2
    assert rep["fleet"] == 1
    assert rep["maintenance_interval_days"] == 3
    assert rep["total_flying_minutes"] == 180
    assert rep["connections"]["day-crew"] == 1
    assert rep["connections"]["night-crew"] == 1
    assert rep["connections"]["short"] == 0
