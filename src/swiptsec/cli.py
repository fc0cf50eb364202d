"""Batch front-end: read a JSON scenario, run boundary sweeps, emit
plot-ready CSV files and a report of every run (its failed points, and its
solver-versus-oracle gaps with --oracle).

Exit codes: 0 full success, 1 configuration error (usage errors included),
2 at least one sweep point failed, or the oracle failed numerically at one.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks, region, solver
from .model import InfeasibleError, NumericalFailureError, load_scenario

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


def run_sweep(args) -> int:
    """Sweep every requested mode/demand combination and write the outputs."""
    try:
        cfg = load_scenario(args.scenario)
        region.check_two_user(cfg, args.grid, args.oracle_res if args.oracle else None)
        # Each demand override checks itself before any output is written.
        cases = [replace(cfg, eh_demands=[float(v) for v in spec.split(",")])
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
                     "gp_solves": sum(pt.report.iterations for pt in boundary.points),
                     "newton_steps": sum(pt.report.newton_steps for pt in boundary.points),
                     "polished": sum(pt.report.polished for pt in boundary.points),
                     "failures": boundary.failures,
                     "non_monotone": [_where(pt) for pt in boundary.points
                                      if pt.report.non_monotone],
                     "unconverged": [_where(pt) for pt in boundary.points
                                     if not pt.report.converged],
                     "optimizer_failures": [
                         {**_where(pt), "count": pt.report.optimizer_failures}
                         for pt in boundary.points if pt.report.optimizer_failures]}
            if boundary.failures:
                any_failed = True
            if args.oracle:
                entry["oracle"], oracle_failed = _oracle_comparison(
                    case, mode, boundary, args.oracle_res)
                any_failed |= oracle_failed
            report["runs"].append(entry)
            print(f"{mode} {tag}: {len(boundary.points)} points, "
                  f"{len(boundary.failures)} failures")

    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_POINT_FAILURES if any_failed else EXIT_OK


def _where(pt) -> dict:
    """A swept point's weight and decoding order, as the report names them."""
    return {"alpha1": float(pt.alpha[0]),
            "order": list(pt.order.one_based()) if pt.order else None}


def _oracle_comparison(cfg, mode, boundary, resolution) -> tuple:
    """Per swept point: exact solver objective versus the oracle, and
    whether the oracle failed numerically at some point.  A point where the
    oracle finds none keeps its row with null oracle fields and the error's
    name."""
    rows, failed = [], False
    for pt in boundary.points:
        oracle, error = None, None
        try:
            oracle = region.oracle_grid_search(
                cfg, mode, pt.weights, pt.order, resolution=resolution)
        except (InfeasibleError, NumericalFailureError) as exc:
            error = type(exc).__name__
            failed |= isinstance(exc, NumericalFailureError)
        solver_obj = pt.report.objective
        rows.append({
            **_where(pt),
            "solver_objective": solver_obj,
            "oracle_objective": None if oracle is None else oracle.objective,
            "oracle_bound": None if oracle is None else oracle.bound,
            "oracle_error": error,
            "shortfall": (None if oracle is None
                          else max(oracle.objective - solver_obj, 0.0)),
        })
    return rows, failed


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

def run_verify(args) -> int:
    """Run the invariant battery on the scenario plus seeded random instances
    and print one pass/fail line per check."""
    try:
        cfg = load_scenario(args.scenario)
        region.check_two_user(cfg, resolution=args.oracle_res)
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
                   help="oracle resolution, at least 11: reliable mode samples "
                        "each full-power face at its square, secure mode "
                        "takes it per axis of the (p1, p2) grid")


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
                         help="also run the oracle per point")

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
