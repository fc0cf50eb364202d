import csv
import json
import re

import numpy as np
import pytest
import scipy.optimize

from swiptsec import (OperatingPoint, legitimate_rates, save_scenario,
                      secrecy_corner)
from swiptsec import region
from swiptsec.cli import main
from swiptsec.model import DecodingOrder
from swiptsec.region import render_rates
from swiptsec.scenarios import random_config, weak_interference


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


@pytest.mark.parametrize("args", [
    ["sweep", "--scenario", "{k3}", "--mode", "reliable", "--grid", "2",
     "--out", "{out}"],
    ["verify", "--scenario", "{k3}"],
    ["sweep", "--scenario", "{weak}", "--mode", "reliable", "--grid", "2",
     "--oracle", "--oracle-res", "5", "--out", "{out}"],
    ["verify", "--scenario", "{weak}", "--oracle-res", "5"],
], ids=["sweep-k3", "verify-k3", "sweep-oracle-res", "verify-oracle-res"])
def test_unsupported_input_exits_one(scenario, tmp_path, capsys, args):
    # Three users and oracle resolutions below 11 are rejected before any
    # output is written.
    k3 = tmp_path / "k3.json"
    save_scenario(random_config(np.random.default_rng(0), num_users=3), k3)
    out = tmp_path / "o"
    out.mkdir()
    argv = [a.format(k3=k3, weak=scenario, out=out) for a in args]
    assert main(argv) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
                expected = secrecy_corner(cfg, op, order).per_user
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
        assert row["oracle_objective"] is not None
        assert row["shortfall"] <= 0.05 * max(row["oracle_objective"], 1e-9)


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

    def flag_one(cfg, alpha, order, mode):
        rep = iterate(cfg, alpha, order, mode)
        rep.non_monotone = (mode == "secure" and alpha.alpha[0] == 0.5
                            and order.users == (1, 0))
        return rep

    monkeypatch.setattr(region, "iterate", flag_one)
    secure, reliable = runs("flagged")
    assert secure["non_monotone"] == [{"alpha1": 0.5, "order": [2, 1]}]
    assert reliable["non_monotone"] == []


def test_report_lists_optimizer_failures(scenario, tmp_path, monkeypatch):
    # Each run lists every point whose SLSQP runs ended without success, with
    # the number of such runs: here every GP solve of every point.
    minimize = scipy.optimize.minimize

    def unsuccessful(*args, **kwargs):
        res = minimize(*args, **kwargs)
        res.success = False
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", unsuccessful)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "reliable",
                 "--grid", "3", "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["runs"]
    rows = read_rows(out / "boundary_reliable_e0-0.csv")
    assert run["optimizer_failures"] == [
        {"alpha1": float(row["alpha1"]), "order": None,
         "count": int(row["iterations"])} for row in rows]


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
    "fractional-users": (("num_users",), 2.7),
    "fractional-eve-antennas": (("num_eve_antennas",), 2.5),
    "inf-eve-antenna-noise": (("eve_antenna_noise_var",), float("inf")),
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
