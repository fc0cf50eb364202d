"""The benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one pass of
sequential library or CLI calls on them (``run_pass``, the timed part), and
checks what the pass produced (``inspect``, untimed).  A solve that raised is
recorded by weight and decoding order and counted as failed; its anchor is
not scored.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from swiptsec import cli, region, solver
from swiptsec.metrics import harvested_energies
from swiptsec.model import DecodingOrder, Weights, save_scenario
from swiptsec.scenarios import (random_config, strong_interference,
                                weak_interference)

GRID = 21
ORACLE_RES = 51
ORACLE_SHORTFALL_LIMIT = 0.05

# Acceptance values per boundary: (alpha1, user index, target, tolerance).
# The secure targets are the unit endpoints log2(3) - log2(1.5) = 1 bit.
WEAK_E00 = [(1.0, 0, 1.58496, 1e-3), (0.0, 1, 1.58496, 1e-3),
            (0.5, 0, 1.22239, 1e-3), (0.5, 1, 1.22239, 1e-3)]
WEAK_E08 = [(0.5, 0, 1.04026, 1e-3), (0.5, 1, 1.04026, 1e-3),
            (1.0, 0, 1.13414, 2e-3), (0.0, 1, 1.13414, 2e-3)]
STRONG_E11 = [(0.5, 0, 0.68353, 1e-3), (0.5, 1, 0.68353, 1e-3),
              (1.0, 0, 0.92286, 3e-3), (0.0, 1, 0.92286, 3e-3)]
SECURE_UNIT = [(1.0, 0, 1.0, 1e-3), (0.0, 1, 1.0, 1e-3)]


@dataclass
class Outcome:
    """What one pass produced, reduced to what the benchmark checks."""

    digest: str                 # hash of every output value; equal across passes
    objectives: list            # exact min_k R_k / alpha_k per solved point
    failures: list              # one line per failed solve
    hull_area: Optional[float]  # summed over the boundaries; None for K > 2
    problems: list              # failed correctness checks
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_pass: Callable
    inspect: Callable


def _hull_area(hull) -> float:
    hull = np.asarray(hull, dtype=float)
    return float(np.trapezoid(hull[:, 1], hull[:, 0])) if hull.size else 0.0


def _check_anchors(label, rows, failed_alphas, anchors, problems):
    """rows maps (alpha1, order) to rendered rates; anchors at a weight whose
    solve failed are skipped because the failure is already counted."""
    for alpha1, user, target, tol in anchors:
        found = [r for (a, _), r in rows.items() if a == alpha1]
        if not found:
            if alpha1 not in failed_alphas:
                problems.append(f"{label}: no point at alpha1={alpha1}")
            continue
        for rates in found:
            if abs(rates[user] - target) > tol:
                problems.append(f"{label}: alpha1={alpha1} R{user + 1}="
                                f"{rates[user]:.6f}, expected {target} +/- {tol}")


# ---------------------------------------------------------------------------
# Library sweeps
# ---------------------------------------------------------------------------

def _sweep_pass(cases):
    return [region.sweep(cfg, mode, psi=psi, grid=GRID)
            for _, cfg, mode, psi, _ in cases]


def _inspect_sweeps(cases, boundaries) -> Outcome:
    h = hashlib.sha256()
    objectives, failures, problems, area = [], [], [], 0.0
    for (label, _, _, _, anchors), b in zip(cases, boundaries):
        rows = {}
        for pt in b.points:
            order = pt.order.one_based() if pt.order else None
            rows[(float(pt.alpha[0]), order)] = pt.rates
            for arr in (pt.alpha, pt.rates_raw, pt.op.powers, pt.op.splits):
                h.update(arr.tobytes())
            h.update(repr((order, pt.iterations, pt.converged)).encode())
            active = pt.alpha > 0
            objectives.append(float(np.min(pt.rates_raw[active] / pt.alpha[active])))
        for f in b.failures:
            failures.append(f"{label} alpha1={f['alpha1']} order={f['order']}: "
                            f"{f['error']}: {f['message']}")
        h.update(repr(b.failures).encode())
        h.update(b.hull.tobytes())
        area += _hull_area(b.hull)
        _check_anchors(label, rows, {f["alpha1"] for f in b.failures},
                       anchors, problems)
    return Outcome(h.hexdigest(), objectives, failures, area, problems)


def _setup_sweep_reliable(seed, workdir):
    return [("weak E=(0,0)", weak_interference(), solver.RELIABLE, (0.0, 0.0), WEAK_E00),
            ("strong E=(1,1)", strong_interference(), solver.RELIABLE, (1.0, 1.0), STRONG_E11)]


def _setup_sweep_secure(seed, workdir):
    cfg = strong_interference(eve_geometry="parallel")
    return [("strong parallel-Eve E=(0,0)", cfg, solver.SECURE, (0.0, 0.0), SECURE_UNIT)]


# ---------------------------------------------------------------------------
# CLI sweep with the grid oracle
# ---------------------------------------------------------------------------

@dataclass
class CliInputs:
    scenario: Path
    out: Path


def _setup_oracle_cli(seed, workdir):
    scenario = Path(workdir) / "weak.json"
    save_scenario(weak_interference(), scenario)
    return CliInputs(scenario, Path(workdir) / "out")


# Per demand override: the --eh value, the tag the CLI puts in its file
# names, and the anchors of that boundary.
CLI_RUNS = [("0,0", "e0-0", WEAK_E00), ("0.8,0.8", "e0.8-0.8", WEAK_E08)]


def _oracle_cli_pass(inputs: CliInputs):
    shutil.rmtree(inputs.out, ignore_errors=True)
    argv = ["sweep", "--scenario", str(inputs.scenario), "--mode", "reliable",
            "--grid", str(GRID), "--oracle", "--oracle-res", str(ORACLE_RES),
            "--out", str(inputs.out)]
    for eh, _, _ in CLI_RUNS:
        argv += ["--eh", eh]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_rows(path):
    with open(path, newline="") as fh:
        return {(float(r["alpha1"]), None): (float(r["Rs1"]), float(r["Rs2"]))
                for r in csv.DictReader(fh)}


def _inspect_oracle_cli(inputs: CliInputs, exit_code) -> Outcome:
    out = inputs.out
    files = sorted(p for p in out.iterdir() if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    report = json.loads((out / "report.json").read_text())
    objectives, failures, problems, area, worst = [], [], [], 0.0, 0.0
    for run, (eh, tag, anchors) in zip(report["runs"], CLI_RUNS):
        label = f"cli reliable E=({eh})"
        for f in run["failures"]:
            failures.append(f"{label} alpha1={f['alpha1']} order={f['order']}: "
                            f"{f['error']}: {f['message']}")
        for row in run["oracle"]:
            objectives.append(row["solver_objective"])
            if row["oracle_objective"]:
                worst = max(worst, row["shortfall"] / row["oracle_objective"])
        hull = np.loadtxt(out / f"hull_reliable_{tag}.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        area += _hull_area(hull)
        _check_anchors(label, _read_rows(out / f"boundary_reliable_{tag}.csv"),
                       {f["alpha1"] for f in run["failures"]}, anchors, problems)
    if worst > ORACLE_SHORTFALL_LIMIT:
        problems.append(f"oracle shortfall {worst:.2%} exceeds "
                        f"{ORACLE_SHORTFALL_LIMIT:.0%}")
    expected_exit = cli.EXIT_POINT_FAILURES if failures else cli.EXIT_OK
    if exit_code != expected_exit:
        problems.append(f"cli exited {exit_code}, expected {expected_exit}")
    extra = {"cli.bytes_written": sum(p.stat().st_size for p in files),
             "region.oracle_shortfall_max": worst}
    return Outcome(h.hexdigest(), objectives, failures, area, problems, extra)


# ---------------------------------------------------------------------------
# Seeded random three-user instances
# ---------------------------------------------------------------------------

K3_INSTANCES = 4


def _setup_random_k3(seed, workdir):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(K3_INSTANCES):
        cfg = random_config(rng, num_users=3, num_eve_antennas=2, eh_fraction=0.3)
        instances.append((cfg, Weights(rng.dirichlet(np.ones(3)))))
    return instances


def _random_k3_pass(instances):
    results = []
    for cfg, weights in instances:
        for perm in permutations(range(cfg.num_users)):
            try:
                rep = solver.iterate(cfg, weights, DecodingOrder(perm), solver.SECURE)
            except (solver.InfeasibleError, solver.NumericalFailureError) as exc:
                rep = exc
            results.append((cfg, weights, perm, rep))
    return results


def _inspect_random_k3(instances, results) -> Outcome:
    h = hashlib.sha256()
    objectives, failures, problems = [], [], []
    for i, (cfg, weights, perm, rep) in enumerate(results):
        where = f"instance {i // 6} alpha={np.round(weights.alpha, 4).tolist()} order={perm}"
        if isinstance(rep, Exception):
            failures.append(f"{where}: {type(rep).__name__}: {rep}")
            h.update(repr((where, type(rep).__name__)).encode())
            continue
        objectives.append(rep.objective)
        for arr in (rep.op.powers, rep.op.splits, rep.rates):
            h.update(arr.tobytes())
        energy = harvested_energies(cfg, rep.op).per_user
        if np.any(energy < cfg.eh_demands * (1 - 1e-6)):
            problems.append(f"{where}: harvests {energy}, demands {cfg.eh_demands}")
        if np.any(rep.op.powers > cfg.power_budget * (1 + 1e-12)):
            problems.append(f"{where}: powers {rep.op.powers} exceed the budget")
    return Outcome(h.hexdigest(), objectives, failures, None, problems)


# ---------------------------------------------------------------------------

# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("sweep_reliable", _setup_sweep_reliable, _sweep_pass, _inspect_sweeps),
    Workload("sweep_secure", _setup_sweep_secure, _sweep_pass, _inspect_sweeps),
    Workload("oracle_cli", _setup_oracle_cli, _oracle_cli_pass, _inspect_oracle_cli),
    Workload("random_k3_secure", _setup_random_k3, _random_k3_pass, _inspect_random_k3),
]}
