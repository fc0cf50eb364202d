"""Batch front-end: read a JSON scenario, run boundary sweeps, emit
plot-ready CSV files and a report of every run (its failed points, and its
solver-versus-oracle gaps with --oracle).

Exit codes: 0 full success, 1 configuration error (usage errors included),
2 at least one sweep point failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from . import metrics, region, scenarios, solver
from .model import (BAD_VALUE, ConfigError, DecodingOrder, OperatingPoint,
                    Weights, load_scenario, max_deliverable_energy,
                    max_splits, with_demands)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_POINT_FAILURES = 2

BOUNDARY_HEADER = "alpha1,alpha2,Rs1,Rs2,p1,p2,eta1,eta2,order,iterations,converged"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _demand_tag(psi) -> str:
    return "e" + "-".join(f"{float(v):g}" for v in psi)


def _write_boundary(path: Path, boundary: region.RegionBoundary) -> None:
    lines = [BOUNDARY_HEADER]
    for pt in boundary.points:
        order = "-".join(str(u) for u in pt.order.one_based()) if pt.order else "-"
        lines.append(",".join(
            [_fmt(pt.alpha[0]), _fmt(pt.alpha[1]),
             _fmt(pt.rates[0]), _fmt(pt.rates[1]),
             _fmt(pt.op.powers[0]), _fmt(pt.op.powers[1]),
             _fmt(pt.op.splits[0]), _fmt(pt.op.splits[1]),
             order, str(pt.iterations), str(int(pt.converged))]))
    path.write_text("\n".join(lines) + "\n")


def _write_hull(path: Path, hull: np.ndarray) -> None:
    lines = ["R1,R2"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in hull]
    path.write_text("\n".join(lines) + "\n")


def _load_two_user(args, oracle: bool):
    """Load the scenario and check what the sweeps and the grid oracle need
    (two users, an oracle resolution of at least 11); raises ConfigError."""
    cfg = load_scenario(args.scenario)
    problems = []
    if cfg.num_users != 2:
        problems.append((BAD_VALUE, "num_users",
                         f"sweeps and the oracle need two users, got {cfg.num_users}"))
    if oracle and args.oracle_res < 11:
        problems.append((BAD_VALUE, "oracle_res",
                         f"must be >= 11, got {args.oracle_res}"))
    if problems:
        raise ConfigError(problems)
    return cfg


def run_sweep(args) -> int:
    """Sweep every requested mode/demand combination and write the outputs."""
    try:
        cfg = _load_two_user(args, args.oracle)
        if args.grid < 2:
            raise ConfigError([(BAD_VALUE, "grid", f"must be >= 2, got {args.grid}")])
        # Validate every demand override before any output is written.
        cases = [with_demands(cfg, [float(v) for v in spec.split(",")])
                 for spec in args.eh] or [cfg]
    except (OSError, ValueError) as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    any_failed = False
    report = {"scenario": str(args.scenario), "grid": args.grid, "runs": []}
    modes = solver.MODES if args.mode == "both" else (args.mode,)
    for mode in modes:
        for case in cases:
            psi = case.eh_demands
            boundary = region.sweep(case, mode, grid=args.grid)
            tag = _demand_tag(psi)
            _write_boundary(out / f"boundary_{mode}_{tag}.csv", boundary)
            _write_hull(out / f"hull_{mode}_{tag}.csv", boundary.hull)
            entry = {"mode": mode, "eh_demands": [float(v) for v in psi],
                     "points": len(boundary.points),
                     "failures": boundary.failures,
                     "non_monotone": [_where(pt) for pt in boundary.points
                                      if pt.non_monotone],
                     "optimizer_failures": [
                         {**_where(pt), "count": pt.optimizer_failures}
                         for pt in boundary.points if pt.optimizer_failures]}
            if boundary.failures:
                any_failed = True
            if args.oracle:
                entry["oracle"] = _oracle_comparison(
                    case, mode, boundary, args.oracle_res)
            report["runs"].append(entry)
            print(f"{mode} {tag}: {len(boundary.points)} points, "
                  f"{len(boundary.failures)} failures")

    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_POINT_FAILURES if any_failed else EXIT_OK


def _where(pt) -> dict:
    """A swept point's weight and decoding order, as the report names them."""
    return {"alpha1": float(pt.alpha[0]),
            "order": list(pt.order.one_based()) if pt.order else None}


def _oracle_comparison(cfg, mode, boundary, resolution) -> list:
    """Per swept point: exact solver objective versus the grid oracle."""
    rows = []
    for pt in boundary.points:
        weights = pt.weights.alpha
        try:
            oracle = region.oracle_grid_search(
                cfg, mode, None, pt.weights, pt.order, resolution=resolution)
            oracle_obj = oracle.objective
        except region.NoFeasiblePointError:
            oracle_obj = None
        active = weights > 0
        solver_obj = float(np.min(pt.rates_raw[active] / weights[active]))
        rows.append({
            **_where(pt),
            "solver_objective": solver_obj,
            "oracle_objective": oracle_obj,
            "shortfall": (None if oracle_obj is None
                          else max(oracle_obj - solver_obj, 0.0)),
        })
    return rows


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

def run_verify(args) -> int:
    """Run the invariant battery on the scenario plus seeded random instances
    and print one pass/fail line per check."""
    try:
        cfg = _load_two_user(args, oracle=True)
    except (OSError, ValueError) as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    rng = np.random.default_rng(args.seed)
    checks = [
        ("chain-rule conservation", _check_chain_rule(cfg, rng)),
        ("condensation soundness", _check_condensation(rng)),
        ("subset constraints at corners", _check_subsets(cfg, rng)),
        ("energy feasibility screen", _check_feasibility(cfg)),
        ("oracle dominance", _check_oracle_dominance(cfg, args.oracle_res)),
    ]
    width = max(len(name) for name, _ in checks)
    ok = True
    for name, (passed, detail) in checks:
        ok &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return EXIT_OK if ok else EXIT_POINT_FAILURES


def _random_ops(rng, cfg, count):
    for _ in range(count):
        yield OperatingPoint(rng.uniform(0, cfg.power_budget),
                             rng.uniform(0, 1, cfg.num_users))


def _check_chain_rule(cfg, rng, cases: int = 200, tol: float = 1e-9):
    worst = 0.0
    configs = [cfg]
    for i in range(cases):
        configs.append(scenarios.random_config(rng, num_users=2 + i % 2,
                                               num_eve_antennas=2 + 2 * (i % 3 == 0)))
    for c in configs:
        p = rng.uniform(0, c.power_budget)
        users = range(c.num_users)
        subsets = [s for size in range(1, c.num_users + 1)
                   for s in combinations(users, size)]
        for order in map(DecodingOrder, permutations(range(c.num_users))):
            for s in subsets:
                total = metrics.eve_rate_chain(c, p, order, s)[list(s)].sum()
                worst = max(worst, abs(total - metrics.eve_sum_rate(c, p, s)))
    return worst <= tol, f"worst gap {worst:.2e} (tol {tol:.0e})"


def _check_condensation(rng, cases: int = 300, tol: float = 1e-9):
    worst_bound, worst_anchor = 0.0, 0.0
    for _ in range(cases):
        nv = rng.integers(1, 5)
        nt = rng.integers(1, 6)
        posy = solver.Posynomial(np.exp(rng.uniform(-1, 1, nt)),
                                 rng.uniform(-2, 2, (nt, nv)))
        anchor = np.exp(rng.uniform(-0.7, 0.7, nv))
        mono = solver.condense(posy, anchor)
        worst_anchor = max(worst_anchor, abs(mono.value(anchor) - posy.value(anchor)))
        for _ in range(5):
            x = np.exp(rng.uniform(-0.7, 0.7, nv))
            worst_bound = max(worst_bound, mono.value(x) - posy.value(x))
    ok = worst_bound <= tol and worst_anchor <= tol
    return ok, f"worst overshoot {worst_bound:.2e}, anchor gap {worst_anchor:.2e}"


def _check_subsets(cfg, rng, cases: int = 20, tol: float = 1e-6):
    worst = -np.inf
    for op in _random_ops(rng, cfg, cases):
        for order in map(DecodingOrder, permutations(range(cfg.num_users))):
            # Clamped corners are only guaranteed inside the region when no
            # user's secrecy gap went negative.
            gaps = (metrics.legitimate_rates(cfg, op)
                    - metrics.eve_rate_chain(cfg, op.powers, order))
            if np.any(gaps < 0):
                continue
            corner = metrics.secrecy_corner(cfg, op, order)
            check = metrics.subset_constraints_satisfied(cfg, op, corner, tol)
            worst = max(worst, check.worst_violation)
            if not check.ok:
                return False, f"violation {check.worst_violation:.2e} on subset {check.worst_subset}"
    return True, f"worst violation {worst:.2e} (tol {tol:.0e})"


def _check_feasibility(cfg):
    limit = max_deliverable_energy(cfg)
    infeasible = np.flatnonzero(max_splits(cfg, cfg.power_budget) < 0).tolist()
    if infeasible:
        try:
            region.oracle_grid_search(cfg, solver.RELIABLE, None,
                                      Weights.pair(0.5), resolution=11)
        except region.NoFeasiblePointError:
            return True, (f"demands exceed deliverable energy for users "
                          f"{infeasible}; NoFeasiblePoint confirmed")
        return False, "demands exceed the closed-form limit but the oracle found a point"
    return True, f"demands within deliverable energy {np.round(limit, 4)}"


def _check_oracle_dominance(cfg, resolution, tol_frac: float = 0.05):
    worst = 0.0
    for alpha1 in (0.25, 0.5, 0.75):
        weights = Weights.pair(alpha1)
        try:
            oracle = region.oracle_grid_search(cfg, solver.RELIABLE, None,
                                               weights, resolution=resolution)
        except region.NoFeasiblePointError:
            try:
                solver.iterate(cfg, weights, None, solver.RELIABLE)
            except solver.InfeasibleError:
                continue
            return False, f"solver found a point where the oracle proved none (alpha1={alpha1})"
        try:
            rep = solver.iterate(cfg, weights, None, solver.RELIABLE)
        except solver.InfeasibleError:
            return False, f"solver infeasible where the oracle found a point (alpha1={alpha1})"
        shortfall = max(oracle.objective - rep.objective, 0.0)
        rel = shortfall / max(oracle.objective, 1e-12)
        worst = max(worst, rel)
        if rel > tol_frac:
            return False, f"solver {rel:.1%} below oracle at alpha1={alpha1}"
    return True, f"worst relative shortfall {worst:.2%} (tol {tol_frac:.0%})"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as configuration errors (exit 1);
    argparse's default, 2, is this CLI's code for a failed sweep point."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"ConfigError: {message}\n")


def _add_common(p):
    p.add_argument("--scenario", required=True, help="path to the scenario JSON")
    p.add_argument("--oracle-res", type=int, default=51,
                   help="grid resolution per axis for the oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swiptsec",
        description="Pareto boundaries of secrecy/reliable rate regions with "
                    "power-splitting harvesting receivers")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="trace region boundaries to CSV")
    _add_common(sweep_p)
    sweep_p.add_argument("--grid", type=int, default=21, help="number of weight samples")
    sweep_p.add_argument("--out", default=".", help="output directory")
    sweep_p.add_argument("--mode", default="both",
                         choices=["secure", "reliable", "both"])
    sweep_p.add_argument("--eh", action="append", default=[],
                         metavar="PSI1,PSI2",
                         help="energy-demand override; repeatable")
    sweep_p.add_argument("--oracle", action="store_true",
                         help="also run the grid oracle per point")

    verify_p = sub.add_parser("verify", help="run the invariant battery")
    _add_common(verify_p)
    verify_p.add_argument("--seed", type=int, default=0, help="seed for random checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return run_sweep(args)
    return run_verify(args)


if __name__ == "__main__":
    sys.exit(main())
