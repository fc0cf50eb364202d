import csv
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsec import (RELIABLE, InfeasibleError, OperatingPoint, Weights,
                      config_to_dict, iterate, legitimate_rates, save_scenario,
                      secrecy_corner)
from swiptsec import checks, region, solver
from swiptsec.cli import main
from swiptsec.metrics import SubsetCheck
from swiptsec.model import DecodingOrder, max_deliverable_energy
from swiptsec.region import render_rates
from swiptsec.scenarios import (random_config, strong_interference,
                                symmetric_two_user, weak_interference)


@pytest.fixture()
def scenario(tmp_path):
    path = tmp_path / "weak.json"
    save_scenario(weak_interference(), path)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_sweep_writes_all_boundary_files(scenario, tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", "--scenario", str(scenario), "--mode", "both",
                 "--grid", "5", "--eh", "0,0", "--eh", "0.8,0.8",
                 "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.glob("boundary_*.csv"))
    assert names == ["boundary_reliable_e0-0.csv", "boundary_reliable_e0.8-0.8.csv",
                     "boundary_secure_e0-0.csv", "boundary_secure_e0.8-0.8.csv"]
    assert sorted(p.name for p in out.glob("hull_*.csv")) == [
        "hull_reliable_e0-0.csv", "hull_reliable_e0.8-0.8.csv",
        "hull_secure_e0-0.csv", "hull_secure_e0.8-0.8.csv"]

    # Symmetric rows reproduce the benchmark anchors.
    by_alpha = {float(r["alpha1"]): r
                for r in read_rows(out / "boundary_reliable_e0-0.csv")}
    assert float(by_alpha[0.5]["Rs1"]) == pytest.approx(1.22239, abs=1e-3)
    by_alpha = {float(r["alpha1"]): r
                for r in read_rows(out / "boundary_reliable_e0.8-0.8.csv")}
    assert float(by_alpha[0.5]["Rs1"]) == pytest.approx(1.04026, abs=1e-3)


def test_grid_two_emits_two_rows(scenario, tmp_path):
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "boundary_reliable_e0-0.csv")
    assert len(rows) == 2
    assert {r["alpha1"] for r in rows} == {"0", "1"}


def test_missing_scenario_exits_one(tmp_path, capsys):
    code = main(["sweep", "--scenario", str(tmp_path / "nope.json"),
                 "--mode", "reliable", "--out", str(tmp_path)])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


def test_corrupt_gains_exits_one(tmp_path, capsys):
    data = json.loads((lambda p: p.read_text())(_write_weak(tmp_path)))
    data["gains"] = [[[1.0, 0.0], [0.5, 0.0]]]     # not square
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["sweep", "--scenario", str(bad), "--mode", "reliable",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


def _write_weak(tmp_path):
    path = tmp_path / "weak.json"
    save_scenario(weak_interference(), path)
    return path


@pytest.mark.parametrize("spec", ["nan,nan", "-1,-1", "0.8,0.8,0.8", "0.8"])
def test_invalid_demand_override_exits_one(scenario, tmp_path, capsys, spec):
    # Every override is validated before any output is written.
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "2", "--eh", "0,0", f"--eh={spec}", "--out", str(out)])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (["sweep", "--scenario", "{k3}", "--mode", "reliable", "--grid", "2",
      "--out", "{out}"], ["num_users"]),
    (["verify", "--scenario", "{k3}"], ["num_users"]),
    (["sweep", "--scenario", "{weak}", "--mode", "reliable", "--grid", "2",
      "--oracle", "--oracle-res", "5", "--out", "{out}"], ["resolution"]),
    (["verify", "--scenario", "{weak}", "--oracle-res", "5"], ["resolution"]),
    (["sweep", "--scenario", "{weak}", "--mode", "reliable", "--grid", "1",
      "--out", "{out}"], ["grid"]),
    (["sweep", "--scenario", "{k3}", "--mode", "reliable", "--grid", "1",
      "--oracle", "--oracle-res", "5", "--out", "{out}"],
     ["grid", "resolution", "num_users"]),
], ids=["sweep-k3", "verify-k3", "sweep-oracle-res", "verify-oracle-res",
        "sweep-grid", "sweep-k3-grid-oracle-res"])
def test_unsupported_input_exits_one(scenario, tmp_path, capsys, args, named):
    # Three users, a grid below 2 and oracle resolutions below 11 are
    # rejected, every one of them in one ConfigError, before any output is
    # written.
    k3 = tmp_path / "k3.json"
    save_scenario(random_config(np.random.default_rng(0), num_users=3), k3)
    out = tmp_path / "o"
    out.mkdir()
    argv = [a.format(k3=k3, weak=scenario, out=out) for a in args]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ")
    assert re.findall(r"\[(\w+)\]", err) == named
    assert list(out.iterdir()) == []


def test_out_naming_a_file_exits_one(scenario, tmp_path, capsys):
    # An --out that names an existing file is an I/O error, exit 1, and the
    # file is left as it was.
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("IoError: ")
    assert out.read_text() == "kept\n"


def test_infeasible_demand_exits_two(scenario, tmp_path):
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--eh", "2,2", "--out", str(out)])
    assert code == 2
    rows = read_rows(out / "boundary_reliable_e2-2.csv")
    assert rows == []


def test_output_is_deterministic(scenario, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["sweep", "--scenario", str(scenario), "--mode", "both",
                     "--grid", "4", "--out", str(out)])
        assert code == 0
        outs.append(b"".join(sorted(p.read_bytes()
                                    for p in sorted(out.glob("*.csv")))))
    assert outs[0] == outs[1]


def test_rows_reevaluate_through_metrics(scenario, tmp_path):
    out = tmp_path / "o"
    main(["sweep", "--scenario", str(scenario), "--mode", "both",
          "--grid", "5", "--eh", "0.8,0.8", "--out", str(out)])
    cfg = weak_interference(eh_demands=(0.8, 0.8))
    for mode in ("reliable", "secure"):
        for row in read_rows(out / f"boundary_{mode}_e0.8-0.8.csv"):
            op = OperatingPoint(np.array([float(row["p1"]), float(row["p2"])]),
                                np.array([float(row["eta1"]), float(row["eta2"])]))
            if mode == "secure":
                order = DecodingOrder(tuple(int(u) - 1
                                            for u in row["order"].split("-")))
                expected = secrecy_corner(cfg, op, order)
            else:
                assert row["order"] == "-"
                expected = legitimate_rates(cfg, op)
            expected = render_rates(expected)
            assert float(row["Rs1"]) == pytest.approx(expected[0], abs=1e-6)
            assert float(row["Rs2"]) == pytest.approx(expected[1], abs=1e-6)


def test_oracle_report_written(scenario, tmp_path):
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--oracle", "--oracle-res", "21",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows = report["runs"][0]["oracle"]
    assert len(rows) == 3
    for row in rows:
        assert row["oracle_objective"] is not None and row["oracle_error"] is None
        assert row["shortfall"] <= checks.SHORTFALL_TOL * max(row["oracle_objective"], 1e-9)
        # The reliable oracle's certified bound caps the solver and its own
        # best sample.
        assert row["oracle_objective"] <= row["oracle_bound"]
        assert row["solver_objective"] <= row["oracle_bound"] + checks.BOUND_TOL


def test_oracle_report_keeps_points_the_oracle_cannot_meet(scenario, tmp_path, monkeypatch):
    # A point whose oracle search finds no cell meeting the demands keeps
    # its row, with no oracle objective and no shortfall; the sweep passes.
    monkeypatch.setattr(region, "oracle_grid_search", _raise_infeasible)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "2", "--oracle", "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["runs"][0]["oracle"]
    assert [(row["alpha1"], row["oracle_objective"], row["shortfall"]) for row in rows] == [
        (0.0, None, None), (1.0, None, None)]


@pytest.mark.parametrize("mode, grids", [("reliable", 1), ("secure", 44)])
def test_oracle_evaluates_each_coarse_grid_once(scenario, tmp_path, monkeypatch,
                                                mode, grids):
    # The oracle calls of a grid-21 sweep share one sampling of the two
    # full-power faces in reliable mode, 1, and evaluate nothing more.  In
    # secure mode they share one coarse grid per decoding order, 2, and add
    # one zoom window per point, 42.  Each face pair or grid calls
    # max_splits once; _predicted_start's calls on one point do not count.
    real, calls = region.max_splits, []

    def counting(cfg, powers):
        if np.ndim(powers) >= 3:
            calls.append(np.shape(powers))
        return real(cfg, powers)

    monkeypatch.setattr(region, "max_splits", counting)
    code = main(["sweep", "--scenario", str(scenario), "--mode", mode,
                 "--grid", "21", "--oracle", "--out", str(tmp_path / "o")])
    assert code == 0
    assert len(calls) == grids


# Gains x1e150 and budgets x1e8: the solver scores every point of a reliable
# sweep, but user 1's rate overflows to inf at (P1, 0), on a full-power face,
# so the reliable oracle can neither score nor bound.
FACE_OVERFLOW = {"gains": 1e150, "power_budget": 1e8}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_reports_an_oracle_that_cannot_score(tmp_path, capsys):
    # Each point keeps its oracle row, with null oracle fields and the
    # error's name, and the sweep exits 2 without a traceback.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(weak_interference(), FACE_OVERFLOW)))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--mode", "reliable", "--grid", "5",
                 "--oracle", "--oracle-res", "11", "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    [run] = json.loads((out / "report.json").read_text())["runs"]
    assert run["failures"] == []
    assert [(row["alpha1"], row["oracle_objective"], row["oracle_bound"],
             row["oracle_error"], row["shortfall"]) for row in run["oracle"]] == [
        (alpha1, None, None, "NumericalFailureError", None)
        for alpha1 in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(np.isfinite(row["solver_objective"]) for row in run["oracle"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_secure_sweep_reports_an_overflow_not_infeasibility(tmp_path, capsys):
    # Demands of 1e300 are met on the secure grid only where the rates
    # overflow: every point keeps its oracle row naming the numerical
    # failure, not InfeasibleError, and the sweep exits 2 without a traceback.
    data = _scaled(weak_interference(), {"gains": 1e150, "power_budget": 1e10})
    data["eh_demands"] = [1e300, 1e300]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--mode", "secure", "--grid", "5",
                 "--oracle", "--oracle-res", "11", "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    rows = [row for run in json.loads((out / "report.json").read_text())["runs"]
            for row in run["oracle"]]
    assert rows
    assert {row["oracle_error"] for row in rows} == {"NumericalFailureError"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_fails_on_an_oracle_that_cannot_score(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(weak_interference(), FACE_OVERFLOW)))
    assert exit_code(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert re.search(r"oracle dominance +FAIL +oracle failed numerically at "
                     r"alpha1=0\.25, reliable: rates at powers \[\S+, \S+\] are not "
                     r"finite\n", captured.out), captured.out


def test_verify_fails_on_a_solve_above_the_bound(monkeypatch, tmp_path, capsys):
    # A reliable solve more than BOUND_TOL above the oracle's certified bound
    # fails oracle dominance: here the bound is lowered to half the oracle's
    # best sample, which the solver, within 5 % of that sample, exceeds.
    real_oracle = region.oracle_grid_search

    def low_bound(*args, **kwargs):
        res = real_oracle(*args, **kwargs)
        return res if res.bound is None else replace(res, bound=0.5 * res.objective)

    cfg = weak_interference()
    assert checks.oracle_dominance(cfg, 11)[0]
    monkeypatch.setattr(region, "oracle_grid_search", low_bound)
    passed, _, detail = checks.oracle_dominance(cfg, 11)
    assert not passed
    assert re.fullmatch(r"solver \S+ above the oracle's bound at alpha1=0\.25, reliable",
                        detail), detail
    path = tmp_path / "weak.json"
    save_scenario(cfg, path)
    assert main(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    assert re.search(rf"oracle dominance +FAIL +{re.escape(detail)}\n",
                     capsys.readouterr().out)


def test_verify_passes_on_benchmark(scenario, tmp_path):
    code = main(["verify", "--scenario", str(scenario), "--seed", "42",
                 "--oracle-res", "21"])
    assert code == 0


def test_verify_handles_infeasible_demand(tmp_path):
    path = tmp_path / "hungry.json"
    save_scenario(weak_interference(eh_demands=(2.0, 2.0)), path)
    code = main(["verify", "--scenario", str(path), "--seed", "42",
                 "--oracle-res", "15"])
    assert code == 0


def test_report_written_without_oracle(scenario, tmp_path):
    # report.json, the record of why a point failed, is written on every
    # sweep; oracle rows appear only with --oracle.
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--eh", "2,2", "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    [run] = report["runs"]
    assert "oracle" not in run
    assert [f["alpha1"] for f in run["failures"]] == [0.0, 0.5, 1.0]
    assert {f["error"] for f in run["failures"]} == {"InfeasibleError"}


def test_report_lists_non_monotone_points(scenario, tmp_path, monkeypatch):
    # Each run lists the weight and order of every point whose GP optima
    # decreased; no solve of the weak sweep does.
    def runs(name):
        out = tmp_path / name
        assert main(["sweep", "--scenario", str(scenario), "--grid", "3",
                     "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["runs"]

    assert [run["non_monotone"] for run in runs("plain")] == [[], []]

    iterate = region.iterate

    def flag_one(cfg, alpha, order, mode, **kwargs):
        rep = iterate(cfg, alpha, order, mode, **kwargs)
        return replace(rep, non_monotone=(mode == "secure" and alpha.alpha[0] == 0.5
                                          and order.users == (1, 0)))

    monkeypatch.setattr(region, "iterate", flag_one)
    secure, reliable = runs("flagged")
    assert secure["non_monotone"] == [{"alpha1": 0.5, "order": [2, 1]}]
    assert reliable["non_monotone"] == []


def test_report_lists_unconverged_points(scenario, tmp_path, monkeypatch):
    # Each run lists the weight and order of every point whose condensation
    # loop used up MAX_ITERS GPs; every solve of the weak sweep converges.
    def runs(name):
        out = tmp_path / name
        assert main(["sweep", "--scenario", str(scenario), "--grid", "3",
                     "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["runs"]

    assert [run["unconverged"] for run in runs("plain")] == [[], []]

    iterate = region.iterate

    def stall_one(cfg, alpha, order, mode, **kwargs):
        rep = iterate(cfg, alpha, order, mode, **kwargs)
        return replace(rep, converged=not (mode == "reliable" and alpha.alpha[0] == 0.5))

    monkeypatch.setattr(region, "iterate", stall_one)
    secure, reliable = runs("stalled")
    assert secure["unconverged"] == []
    assert reliable["unconverged"] == [{"alpha1": 0.5, "order": None}]


def test_report_lists_optimizer_failures(scenario, tmp_path, monkeypatch):
    # Each run lists every point whose interior-point runs used up their
    # Newton-step budget, with the number of such runs: here every GP solve
    # of every point.
    interior_point = solver._interior_point

    def unconverged(*args):
        y, log_g, z, _, steps = interior_point(*args)
        return y, log_g, z, False, steps

    monkeypatch.setattr(solver, "_interior_point", unconverged)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["runs"]
    rows = read_rows(out / "boundary_reliable_e0-0.csv")
    assert run["optimizer_failures"] == [
        {"alpha1": float(row["alpha1"]), "order": None,
         "count": int(row["iterations"])} for row in rows]


def test_report_counts_gp_solves(tmp_path):
    # gp_solves sums the iterations column.
    rng = np.random.default_rng(2026)
    for _ in range(4):
        cfg = random_config(rng, num_users=2,
                            num_eve_antennas=int(rng.integers(1, 4)),
                            eh_fraction=float(rng.uniform(0, 0.8)))
    save_scenario(cfg, tmp_path / "draw.json")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(tmp_path / "draw.json"), "--mode",
                 "secure", "--grid", "11", "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["runs"]
    [csv_path] = out.glob("boundary_secure_*.csv")
    assert run["gp_solves"] == sum(int(row["iterations"]) for row in read_rows(csv_path))


def test_report_counts_newton_steps(scenario, tmp_path, monkeypatch):
    # newton_steps sums the Newton systems of every interior-point run.
    interior_point = solver._interior_point
    steps = []

    def counted(*args):
        result = interior_point(*args)
        steps.append(result[-1])
        return result

    monkeypatch.setattr(solver, "_interior_point", counted)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["runs"]
    assert run["newton_steps"] == sum(steps) > 0


def test_report_counts_polished_points(tmp_path):
    # polished counts the points whose solve an exact-row polish ended:
    # every point of the strong parallel-Eve secure sweep.  Only the first
    # order's alpha1 = 0 endpoint, the one solve without a start, solves a
    # GP; every other point is polished from its start.
    save_scenario(strong_interference(eve_geometry="parallel"), tmp_path / "strong.json")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(tmp_path / "strong.json"), "--mode",
                 "secure", "--grid", "21", "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["runs"]
    assert run["polished"] == run["points"] == 42
    assert run["gp_solves"] == 1


def exit_code(argv):
    """main's return value, or the code of the SystemExit a usage error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args", [
    ["sweep", "--scenario", "{weak}", "--grid", "abc", "--out", "{out}"],
    ["sweep", "--scenario", "{weak}", "--bogus", "--out", "{out}"],
    ["sweep", "--mode", "reliable", "--out", "{out}"],
    ["verify", "--scenario", "{weak}", "--out", "{out}"],
    ["sweep", "--scenario", "{weak}", "--seed", "3", "--out", "{out}"],
    ["sweep", "--scenario", "{weak}", "--eh", "0.8,x", "--out", "{out}"],
], ids=["grid-abc", "unknown-flag", "no-scenario", "verify-out", "sweep-seed",
        "eh-not-a-number"])
def test_usage_error_exits_one(scenario, tmp_path, capsys, args):
    out = tmp_path / "o"
    assert exit_code([a.format(weak=scenario, out=out) for a in args]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("sweep", {"--scenario", "--oracle-res", "--grid", "--out", "--mode",
               "--eh", "--oracle"}),
    ("verify", {"--scenario", "--oracle-res", "--seed"}),
])
def test_help_lists_only_live_flags(capsys, command, flags):
    assert exit_code([command, "--help"]) == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == flags | {"--help"}


# Scenario values that validation rejects: (path into the JSON, value).
INVALID_SCENARIOS = {
    "nan-gain": (("gains", 0, 0, 0), float("nan")),
    "nan-gain-string": (("gains", 0, 0, 0), "NaN"),
    "inf-eve-channel": (("eve_channels", 0, 0, 0), float("inf")),
    "inf-budget": (("power_budget", 0), float("inf")),
    "inf-demand": (("eh_demands", 1), float("inf")),
    "inf-antenna-noise": (("antenna_noise_vars", 0), float("inf")),
    "negative-antenna-noise": (("antenna_noise_vars", 0), -1.0),
    "nan-demand": (("eh_demands", 0), float("nan")),
    "fractional-users": (("num_users",), 2.7),
    "fractional-eve-antennas": (("num_eve_antennas",), 2.5),
    "inf-eve-antenna-noise": (("eve_antenna_noise_var",), float("inf")),
    "short-gain-pair": (("gains", 0, 0), [1.0]),
    "non-numeric-budget": (("power_budget", 0), "abc"),
    "huge-integer-budget": (("power_budget", 0), 10 ** 400),
    "huge-integer-eve-noise": (("eve_antenna_noise_var",), 10 ** 400),
    "boolean-users": (("num_users",), True),
}


@pytest.mark.parametrize("path, value", INVALID_SCENARIOS.values(),
                         ids=INVALID_SCENARIOS.keys())
def test_invalid_scenario_value_exits_one(scenario, tmp_path, capsys, path, value):
    data = json.loads(scenario.read_text())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))      # NaN and Infinity as JSON literals
    out = tmp_path / "o"
    assert exit_code(["sweep", "--scenario", str(bad), "--grid", "2",
                      "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_invalid_scenario_lists_every_violation(scenario, tmp_path, capsys, command):
    # A field that does not convert is listed with the config's other
    # violations: a ragged noise vector does not hide a negative budget.
    data = json.loads(scenario.read_text())
    data["antenna_noise_vars"] = [[0.25], [0.25, 0.25]]
    data["power_budget"] = [-1.0, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o"
    flags = {"sweep": ["--grid", "2", "--out", str(out)], "verify": []}[command]
    assert exit_code([command, "--scenario", str(bad), *flags]) == 1
    err = capsys.readouterr().err
    assert "BadValue[antenna_noise_vars]" in err
    assert "NonPositiveBudget[power_budget[0]]" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_distinct_demands_get_distinct_files(scenario, tmp_path):
    # 0.3 and 0.30000001 print alike in six significant digits; each demand
    # still gets its own file, holding the rows a sweep of it alone writes.
    both = tmp_path / "both"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--eh", "0.3,0", "--eh", "0.30000001,0",
                 "--out", str(both)]) == 0
    for spec, tag in (("0.3,0", "e0.3-0"), ("0.30000001,0", "e0.30000001-0")):
        alone = tmp_path / tag
        assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                     "--grid", "3", "--eh", spec, "--out", str(alone)]) == 0
        name = f"boundary_reliable_{tag}.csv"
        assert (both / name).read_bytes() == (alone / name).read_bytes()


def _scaled(cfg, factors) -> dict:
    """The scenario dict of ``cfg`` with each named field times its factor."""
    def scale(value, factor):
        if isinstance(value, list):
            return [scale(v, factor) for v in value]
        return value * factor

    data = config_to_dict(cfg)
    for name, factor in factors.items():
        data[name] = scale(data[name], factor)
    return data


# A three-antenna eavesdropper with an SNR of about 5e21, past 1 / eps: its
# covariances lose positive definiteness to rounding.
STRONG_EVE = (random_config(np.random.default_rng(0), 2, 3), {"eve_channels": 1e11})

# Scenarios whose GP terms overflow or vanish, whose Gram minors overflow,
# whose exact rates overflow, or whose eavesdropper covariances are not
# positive definite.
NUMERICAL_BREAKDOWNS = {
    "huge-budget": (weak_interference(), {"power_budget": 1e300}, ["--grid", "2"]),
    "tiny-budget": (weak_interference(), {"power_budget": 1e-300}, ["--grid", "2"]),
    "huge-eve-channels": (weak_interference(), {"eve_channels": 1e150},
                          ["--grid", "2"]),
    "huge-gram-minors": (weak_interference(),
                         {"eve_antenna_noise_var": 1e164, "eve_channels": 1e251},
                         ["--grid", "2"]),
    # The log-space GP solves, but the exact rates at its point are NaN.
    "exact-rate-overflow": (weak_interference(),
                            {"gains": 1e150, "power_budget": 1e10},
                            ["--grid", "2", "--mode", "reliable"]),
    # At grid 9 the covariance fails order (1, 2) at alpha1 = 0.125; at
    # grids 5, 11 and 21 every secure point is swept.
    "singular-eve-covariance": (*STRONG_EVE, ["--grid", "9", "--mode", "secure"]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cfg, factors, flags", NUMERICAL_BREAKDOWNS.values(),
                         ids=NUMERICAL_BREAKDOWNS.keys())
def test_numerical_breakdown_is_reported(tmp_path, cfg, factors, flags):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(cfg, factors)))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--out", str(out)] + flags) == 2
    failures = [f for run in json.loads((out / "report.json").read_text())["runs"]
                for f in run["failures"]]
    assert failures
    assert {f["error"] for f in failures} == {"NumericalFailureError"}


def test_objectives_past_1024_bit_are_swept(tmp_path):
    # Gains x1e150 and no cross gains: each user's rate is 997.6 bit, so the
    # weighted objectives are 997.6, 1995.2 and 997.6 bit, where 2^objective
    # overflows a float.  The solve keeps lambda as its log, so every point
    # is swept, without a RuntimeWarning (an error here).
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(symmetric_two_user(0.0), {"gains": 1e150})))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--grid", "3", "--mode", "reliable",
                 "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["runs"]
    assert run["points"] == 3 and not run["failures"]
    rows = np.loadtxt(out / "boundary_reliable_e0-0.csv", delimiter=",", skiprows=1,
                      usecols=(0, 2, 3))
    objectives = [min(r / w for r, w in zip(row[1:], (row[0], 1.0 - row[0])) if w > 0)
                  for row in rows]
    assert objectives == pytest.approx([997.578, 1995.157, 997.578], abs=1e-3)


# Gains whose powers |h|^2 overflow, and gains whose received powers at
# full power overflow.
GAIN_OVERFLOWS = {"gains-1e160": {"gains": 1e160},
                  "gains-1e150-budget-1e10": {"gains": 1e150, "power_budget": 1e10}}


@pytest.mark.parametrize("factors", GAIN_OVERFLOWS.values(), ids=GAIN_OVERFLOWS.keys())
def test_overflowed_gains_fail_without_a_warning(tmp_path, capsys, factors):
    # No RuntimeWarning filter: the overflow is quiet, the sweep records
    # the points it breaks as numerical failures and verify's checks that
    # meet it FAIL, each without a traceback.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(weak_interference(), factors)))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--grid", "2", "--out", str(out)]) == 2
    runs = json.loads((out / "report.json").read_text())["runs"]
    assert {f["error"] for run in runs for f in run["failures"]} == {"NumericalFailureError"}
    capsys.readouterr()
    assert exit_code(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    for name in ("subset constraints at corners", "energy feasibility screen",
                 "oracle dominance"):
        assert re.search(rf"{name} +FAIL +\S", captured.out), captured.out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_reports_numerical_breakdown(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(
        weak_interference(), {"gains": 1e274, "eve_antenna_noise_var": 1e172})))
    assert main(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    assert re.search(r"oracle dominance +FAIL +solver failed numerically",
                     capsys.readouterr().out)


# Scenarios whose eavesdropper covariances, rates or deliverable energies
# overflow, or whose eavesdropper covariances are not positive definite, with
# the verify checks that meet them.
VERIFY_OVERFLOWS = {
    "huge-eve-channels": (weak_interference(), {"eve_channels": 1e282},
                          ["chain-rule conservation", "subset constraints at corners"]),
    "huge-eve-noise-and-channels": (
        weak_interference(), {"eve_antenna_noise_var": 1e279, "eve_channels": 1e229},
        ["chain-rule conservation", "subset constraints at corners"]),
    "huge-gains": (weak_interference(), {"gains": 1e274, "eve_antenna_noise_var": 1e172},
                   ["subset constraints at corners", "energy feasibility screen",
                    "oracle dominance"]),
    "singular-eve-covariance": (*STRONG_EVE, ["chain-rule conservation",
                                              "subset constraints at corners",
                                              "oracle dominance"]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cfg, factors, failing", VERIFY_OVERFLOWS.values(),
                         ids=VERIFY_OVERFLOWS.keys())
def test_verify_fails_on_overflow(tmp_path, capsys, cfg, factors, failing):
    # An overflowed or singular value is a FAIL line naming it, never a
    # traceback or a PASS on the cases it made the check skip.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scaled(cfg, factors)))
    assert exit_code(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    for name in failing:
        assert re.search(rf"{name} +FAIL +\S", captured.out), captured.out
    assert "-inf" not in captured.out


# Eve's channels x1e119 on a two-antenna draw: the Gram minor of both users
# overflows, while each single-user minor (about 1e237) does not.
GRAM_OVERFLOW = _scaled(random_config(np.random.default_rng(7), 2, 2), {"eve_channels": 1e119})


def test_overflowed_gram_minor_fails_only_where_it_is_used(tmp_path, capsys):
    # No RuntimeWarning filter: the minor overflows quietly, and each solve
    # whose rows need it fails naming it.  The order (1, 2) alpha1 = 0
    # endpoint needs only user 2's own minor and is solved; the order (2, 1)
    # alpha1 = 1 endpoint's rows need only user 1's, and its eavesdropper
    # covariance is not positive definite.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(GRAM_OVERFLOW))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--mode", "secure", "--grid", "5",
                 "--out", str(out)]) == 2
    [run] = json.loads((out / "report.json").read_text())["runs"]
    assert run["points"] == 1
    messages = [f["message"] for f in run["failures"]]
    assert messages == 8 * ["eavesdropper Gram minors of users [[0, 1]] overflow"] + [
        "covariance factorisation failed: Matrix is not positive definite"]
    capsys.readouterr()
    assert exit_code(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    assert re.search(r"oracle dominance +FAIL +solver failed numerically at .*: "
                     r"eavesdropper Gram minors of users \[\[0, 1\]\] overflow",
                     capsys.readouterr().out)


def test_subset_corners_counts_the_corners_checked():
    # Eve hears every user far better than its receiver, so every secrecy gap
    # is negative and no corner is checked; the check says so.
    weak = weak_interference()
    strong_eve = replace(weak, eve_channels=100.0 * weak.eve_channels)
    passed, _, detail = checks.subset_corners(strong_eve, np.random.default_rng(0))
    assert passed
    assert detail == "no corner checked: a secrecy gap was negative in all 40 cases"
    _, _, detail = checks.subset_corners(weak, np.random.default_rng(0))
    assert re.fullmatch(r"worst violation \S+ over [1-9]\d* of 40 corners \(tol 1e-06\)",
                        detail)


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_oracle_dominance_fails_on_a_short_secure_solve(monkeypatch, tmp_path, capsys,
                                                        order):
    # Secure solves in one decoding order that end 10 % below their objective
    # fail the check, while the reliable solves stay exact.
    real_iterate = solver.iterate
    short = DecodingOrder(tuple(u - 1 for u in order))

    def falling_short(cfg, weights, order, mode, start=None):
        rep = real_iterate(cfg, weights, order, mode, start)
        if mode == solver.SECURE and order == short:
            rep = replace(rep, objective=0.9 * rep.objective)
        return rep

    cfg = weak_interference()
    assert checks.oracle_dominance(cfg, 21)[0]
    monkeypatch.setattr(solver, "iterate", falling_short)
    passed, worst, detail = checks.oracle_dominance(cfg, 21)
    assert not passed and worst > checks.SHORTFALL_TOL
    assert detail.endswith(f"secure order {order}"), detail
    path = tmp_path / "weak.json"
    save_scenario(cfg, path)
    assert main(["verify", "--scenario", str(path), "--oracle-res", "21"]) == 2
    assert re.search(rf"oracle dominance +FAIL +solver \d+\.\d% below oracle at "
                     rf"alpha1=\S+, secure order \({order[0]}, {order[1]}\)\n",
                     capsys.readouterr().out)


def _raise_infeasible(*args, **kwargs):
    raise InfeasibleError("no point meets the demands")


def _full_power_result(cfg, *args, **kwargs):
    return region.OracleResult(0.0, np.zeros(2),
                               OperatingPoint(cfg.power_budget, np.zeros(2)))


# A verify check made to fail by a stub, with no numerical breakdown: the
# stubbed module and name, the stub, whether the scenario's demands exceed
# the deliverable limit, the check, and the worst value and detail it
# returns.
CHECK_FAILURES = {
    "oracle-proves-none": (
        region, "oracle_grid_search", _raise_infeasible, False, "oracle dominance", 0.0,
        "solver found a point where the oracle proved none (alpha1=0.25, reliable)"),
    "solver-infeasible": (
        solver, "iterate", _raise_infeasible, False, "oracle dominance", 0.0,
        "solver infeasible where the oracle found a point (alpha1=0.25, reliable)"),
    "oracle-meets-infeasible-demand": (
        region, "oracle_grid_search", _full_power_result, True,
        "energy feasibility screen", 1.0,
        "demands exceed the closed-form limit but the oracle found a point"),
    "subset-violation": (
        checks, "subset_constraints_satisfied",
        lambda *args: SubsetCheck(False, 0.5, (0, 1)), False,
        "subset constraints at corners", 0.5, "violation 5.00e-01 on subset (0, 1)"),
}
RUN_CHECK = {
    "oracle dominance": lambda cfg: checks.oracle_dominance(cfg, 11),
    "energy feasibility screen": checks.energy_screen,
    "subset constraints at corners":
        lambda cfg: checks.subset_corners(cfg, np.random.default_rng(0)),
}


@pytest.mark.parametrize("module, name, stub, over_limit, check, worst, detail",
                         CHECK_FAILURES.values(), ids=CHECK_FAILURES.keys())
def test_each_verify_check_can_fail(monkeypatch, tmp_path, capsys, module, name, stub,
                                    over_limit, check, worst, detail):
    # Where its invariant breaks, a check returns (False, worst, detail), and
    # verify prints it as a FAIL line and exits 2.
    cfg = weak_interference()
    if over_limit:
        cfg = replace(cfg, eh_demands=max_deliverable_energy(cfg) + 1.0)
    monkeypatch.setattr(module, name, stub)
    passed, got_worst, got_detail = RUN_CHECK[check](cfg)
    assert passed is False
    assert got_worst == pytest.approx(worst, abs=1e-12)
    assert got_detail == detail
    path = tmp_path / "s.json"
    save_scenario(cfg, path)
    assert main(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 2
    assert re.search(rf"{check} +FAIL +{re.escape(detail)}\n", capsys.readouterr().out)


def test_demand_at_the_limit_is_infeasible_everywhere(tmp_path):
    # A demand exactly at max_deliverable_energy is met only at eta = 0: the
    # solver, the oracle and verify all call it infeasible.
    cfg = weak_interference(eh_demands=(1.5, 1.5))
    assert np.array_equal(max_deliverable_energy(cfg), cfg.eh_demands)
    with pytest.raises(InfeasibleError):
        iterate(cfg, Weights.pair(0.5), None, RELIABLE)
    with pytest.raises(InfeasibleError):
        region.oracle_grid_search(cfg, RELIABLE, Weights.pair(0.5), resolution=11)
    path = tmp_path / "limit.json"
    save_scenario(cfg, path)
    assert main(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 0


def test_verify_passes_just_below_the_demand_limit(tmp_path):
    # The largest split at full power is 8e-8 here, below the default split
    # floor; the solver still meets the demand, as the oracle does.
    path = tmp_path / "band.json"
    save_scenario(weak_interference(eh_demands=(1.4999999, 1.4999999)), path)
    assert main(["verify", "--scenario", str(path), "--oracle-res", "11"]) == 0


SCALABLE_FIELDS = ("gains", "eve_channels", "antenna_noise_vars",
                   "processing_noise_vars", "eve_antenna_noise_var",
                   "eve_processing_noise_var", "power_budget", "eh_demands")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from([weak_interference(), STRONG_EVE[0]]),
       exponents=st.dictionaries(st.sampled_from(SCALABLE_FIELDS),
                                 st.integers(-300, 300), min_size=1, max_size=3))
def test_scaled_scenario_never_raises(base, exponents):
    # Any scenario, however badly scaled, ends in an exit code: a solve ends
    # in a report, InfeasibleError or NumericalFailureError.  The random base
    # has three eavesdropper antennas, so its covariances are not diagonal
    # and can lose positive definiteness.
    data = _scaled(base, {name: 10.0 ** e for name, e in exponents.items()})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(data))
        code = exit_code(["sweep", "--scenario", str(path), "--grid", "2",
                          "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
