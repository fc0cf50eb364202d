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
from pathlib import Path

import numpy as np

from . import checks, region, solver
from .metrics import max_min_objective
from .model import BAD_VALUE, ConfigError, load_scenario, with_demands

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_POINT_FAILURES = 2

BOUNDARY_HEADER = "alpha1,alpha2,Rs1,Rs2,p1,p2,eta1,eta2,order,iterations,converged"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _demand_tag(psi) -> str:
    """File-name tag of a demand pair: each demand in ``:g`` form where that
    round-trips, else in the shortest form that does, so distinct demands
    get distinct files."""
    def short(v):
        text = f"{v:g}"
        return text if float(text) == v else repr(v)
    return "e" + "-".join(short(float(v)) for v in psi)


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
                     "gp_solves": sum(pt.iterations for pt in boundary.points),
                     "newton_steps": sum(pt.newton_steps for pt in boundary.points),
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
        try:
            oracle = region.oracle_grid_search(
                cfg, mode, pt.weights, pt.order, resolution=resolution)
            oracle_obj = oracle.objective
        except region.NoFeasiblePointError:
            oracle_obj = None
        solver_obj = float(max_min_objective(pt.rates_raw, pt.weights))
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
    results = [
        ("chain-rule conservation", checks.chain_rule(rng, 200, cfg)),
        ("condensation soundness", checks.condensation(rng, 300)),
        ("subset constraints at corners", checks.subset_corners(cfg, rng)),
        ("energy feasibility screen", checks.energy_screen(cfg)),
        ("oracle dominance", checks.oracle_dominance(cfg, args.oracle_res)),
    ]
    width = max(len(name) for name, _ in results)
    ok = True
    for name, (passed, _, detail) in results:
        ok &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return EXIT_OK if ok else EXIT_POINT_FAILURES


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
