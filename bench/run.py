"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep_secure --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seconds 45    # every workload, one process each

The load is a closed loop with one client: a pass is a sequence of library
or CLI calls, each waiting for the previous one, and passes repeat until
--seconds have gone by (and at least MIN_PASSES passes and MIN_SOLVES solves
were timed).  BLAS is pinned to one thread so the figures do not depend on
the core count.  Times are scaled to reference host speed: a fixed reference
slice (hostspeed.py) runs between the timed steps of a pass, and in each
set-up probe right after its set-up, and each time is reported as if the
slices next to it had taken hostspeed.REFERENCE_S.  The raw pass times and
the slices are printed too.

--trace 0 prints the end-to-end metrics.  Only the steps of a pass are
timed then: ``iterate`` and ``oracle_grid_search`` are wrapped, and
``solve_gp`` is counted.  --trace 1 alternates such passes with passes
traced through every layer and prints the per-layer metrics, including the
tracing overhead; the spans of the last traced pass go to .bench_build/.
Units come from BENCHMARK.json.  The last line of stdout is one JSON
object; the lines before it give the run environment, every failed solve
and the metrics for people.  Exit code 3 means a correctness check failed.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
SETUP_PROBE_SLICES = 3
MIN_PASSES = 3
MIN_SOLVES = 100        # timed solves: ten or more lie above the 90th percentile
EXIT_INCORRECT = 3

# Functions wrapped in untraced passes.  The steps are disjoint top-level
# calls of a pass, timed one by one, each with the part of the reference
# slice that slows as it does (hostspeed.py); solve_gp is wrapped for its
# count.  The rest of a pass and set-up are interpreter-bound.
STEPS = {"solver.iterate": "interpreter", "region.oracle_grid_search": "memory"}
TIMED_ONLY = (*STEPS, "solver.solve_gp")
LIBRARY_LAYERS = ("solver", "metrics", "linalg", "region", "cli", "model")
COUNTERS = ["solver.optimizer.nfev", "solver.optimizer.nit",
            "solver.optimizer.failed", "solver.optimizer.success_ratio",
            "solver.optimizer.trust_constr_calls", "solver.gp_terms",
            "solver.outer_iters", "solver.non_monotone", "solver.unconverged",
            "solver.solve_gp.infeasible", "solver.solve_gp.numerical_failures",
            "region.oracle_cells", "region.oracle_shortfall_max",
            "cli.bytes_written"]


def import_library():
    """Import swiptsec from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import swiptsec
    except ImportError as exc:
        sys.exit(f"bench: cannot import swiptsec from {src}: {exc}")
    if Path(swiptsec.__file__).resolve().parent != (src / "swiptsec").resolve():
        sys.exit(f"bench: imported swiptsec from {swiptsec.__file__}, not {src}")


def layer_targets():
    """The public functions of each layer, wrapped from outside."""
    import scipy.optimize
    from swiptsec import cli, linalg, metrics, model, region, solver
    from tracer import Target

    def optimizer(c, args, kwargs, res, exc):
        if exc is not None or not res.success:
            c["solver.optimizer.failed"] += 1
        if res is not None:
            c["solver.optimizer.nfev"] += res.nfev
            c["solver.optimizer.nit"] += res.get("nit", 0)
        if kwargs.get("method") == "trust-constr":
            c["solver.optimizer.trust_constr_calls"] += 1

    def built(c, args, kwargs, gp, exc):
        if gp is not None:
            c["solver.gp_terms"] += sum(p.num_terms for p in gp.constraints)

    def solved(c, args, kwargs, result, exc):
        if isinstance(exc, solver.InfeasibleError):
            c["solver.solve_gp.infeasible"] += 1
        elif isinstance(exc, solver.NumericalFailureError):
            c["solver.solve_gp.numerical_failures"] += 1

    def iterated(c, args, kwargs, rep, exc):
        if rep is not None:
            c["solver.outer_iters"] += rep.iterations
            c["solver.non_monotone"] += int(rep.non_monotone)
            c["solver.unconverged"] += int(not rep.converged)

    oracle_sig = inspect.signature(region.oracle_grid_search)

    def oracle(c, args, kwargs, result, exc):
        bound = oracle_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        c["region.oracle_cells"] += 2 * bound.arguments["resolution"] ** 4

    return [
        Target("solver.optimizer", scipy.optimize, "minimize", optimizer),
        Target("solver.build_gp", solver, "build_gp", built),
        Target("solver.condense", solver, "condense"),
        Target("solver.solve_gp", solver, "solve_gp", solved),
        Target("solver.iterate", solver, "iterate", iterated),
        Target("metrics.legitimate_rates", metrics, "legitimate_rates"),
        Target("metrics.eve_rate_chain", metrics, "eve_rate_chain"),
        Target("metrics.secrecy_corner", metrics, "secrecy_corner"),
        Target("linalg.rank_one_update_sum", linalg, "rank_one_update_sum"),
        Target("linalg.inv_quadratic_form", linalg, "inv_quadratic_form"),
        Target("linalg.log2_det", linalg, "log2_det"),
        Target("region.sweep", region, "sweep"),
        Target("region.time_share_hull", region, "time_share_hull"),
        Target("region.oracle_grid_search", region, "oracle_grid_search", oracle),
        Target("cli.main", cli, "main"),
        Target("cli.run_sweep", cli, "run_sweep"),
        Target("model.load_scenario", model, "load_scenario"),
    ]


def per_layer_names(targets) -> list:
    names = [f"{t.name}.{kind}" for t in targets for kind in ("calls", "self_s")]
    return (names + COUNTERS + [f"{layer}.self_s" for layer in LIBRARY_LAYERS]
            + ["bench.self_s", "trace.overhead_s"])


def binding_sites() -> list:
    return [m for name, m in sys.modules.items()
            if name == "swiptsec" or name.startswith("swiptsec.")]


@dataclass
class PassRecord:
    traced: bool
    wall: float         # raw seconds, reference slices excluded
    slices: list        # reference slices: one before the pass, one after each step
    summary: dict       # Tracer.summary() plus per-pass derived values
    latencies: list     # scaled seconds per iterate call
    steps: list         # scaled seconds per STEPS call, in call order
    rest: float         # scaled seconds of the pass outside its steps
    errors: list        # exception names of the iterate calls that raised
    outcome: object     # workloads.Outcome


def followed_by_slice(fn, slices, tracer):
    """``fn``, then a reference slice whose durations go to ``slices``.  The
    slice is a span of its own, so enclosing spans do not count it as their
    self time."""
    from hostspeed import reference_slice

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            slices.append(tracer.call("hostspeed.slice", reference_slice, (), {}))
    return wrapper


def scale_pass(traced, wall, slices, tracer, outcome) -> PassRecord:
    """Scale each step, and every span inside it, by the two slices on
    either side of the step; scale the rest of the pass by all its slices."""
    from hostspeed import scaled

    spans = tracer.spans
    step_ids = [i for i, s in enumerate(spans) if s.name in STEPS]
    assert len(slices) == len(step_ids) + 1
    factors = {i: scaled(1.0, STEPS[spans[i].name], slices[max(0, k - 1):k + 3])
               for k, i in enumerate(step_ids)}
    rest_factor = scaled(1.0, "interpreter", slices)

    def factor(i):
        while i >= 0 and i not in factors:
            i = spans[i].parent
        return factors.get(i, rest_factor)

    steps = [spans[i].duration * factors[i] for i in step_ids]
    latencies = [t for i, t in zip(step_ids, steps) if spans[i].name == "solver.iterate"]
    rest = (wall - sum(spans[i].duration for i in step_ids)) * rest_factor
    summary = tracer.summary([factor(i) for i in range(len(spans))])
    summary.update(outcome.extra)
    if traced:
        summary["bench.self_s"] = sum(steps) + rest - sum(
            summary.get(f"{layer}.self_s", 0.0) for layer in LIBRARY_LAYERS)
        calls = summary.get("solver.optimizer.calls", 0)
        summary["solver.optimizer.success_ratio"] = (
            1.0 - summary.get("solver.optimizer.failed", 0) / calls if calls else 0.0)
    return PassRecord(traced, wall, slices, summary, latencies, steps, rest,
                      tracer.errors("solver.iterate"), outcome)


def measure(workload, inputs, seconds, trace, targets, probe_setup=None):
    """Closed loop over passes; with ``trace`` every second pass is traced
    through all layers, the others only time the steps.  ``probe_setup``,
    when given, is called after each pass, and after the last as often as
    it takes to collect SETUP_PROBES set-up times, so that they sample the
    whole run rather than one moment of it."""
    from hostspeed import reference_slice
    from tracer import Tracer, patch

    timed_only = [t for t in targets if t.name in TIMED_ONLY]
    steps = [t for t in targets if t.name in STEPS]
    sites = binding_sites()
    passes, setup_times, last_tracer = [], [], None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer()
        slices = [reference_slice()]
        # The slices wrap the tracer's wrappers, so they stay outside the steps' spans.
        with tracer.patched(targets if traced else timed_only, sites), \
                patch(steps, sites, lambda t, fn: followed_by_slice(fn, slices, tracer)):
            t0 = time.perf_counter()
            raw = workload.run_pass(inputs)
            wall = time.perf_counter() - t0 - sum(sum(s.values()) for s in slices[1:])
        passes.append(scale_pass(traced, wall, slices, tracer,
                                 workload.inspect(inputs, raw)))
        if traced:
            last_tracer = tracer
        if probe_setup is not None and len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup())
        plain = [p for p in passes if not p.traced]
        if time.perf_counter() - start < seconds:
            continue
        if trace and min(len(plain), len(passes) - len(plain)) >= 2:
            break
        if (not trace and len(passes) >= MIN_PASSES
                and sum(len(p.latencies) for p in passes) >= MIN_SOLVES):
            break
    while probe_setup is not None and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup())
    return passes, setup_times, last_tracer


def consistency_problems(passes) -> list:
    """Everything but the timings must repeat exactly from pass to pass."""
    problems = []
    for p in passes:
        problems += p.outcome.problems
    if len({p.outcome.digest for p in passes}) > 1:
        problems.append("outputs differ between passes")
    if len({tuple(p.errors) for p in passes}) > 1:
        problems.append("failed solves differ between passes")
    for traced in (False, True):
        counts = {tuple(sorted((k, v) for k, v in p.summary.items()
                               if not k.endswith("self_s")))
                  for p in passes if p.traced is traced}
        if len(counts) > 1:
            problems.append(f"counters differ between {'traced' if traced else 'untraced'} passes")
    return sorted(set(problems))


def pass_time(passes) -> float:
    """Scaled time of one pass: the median over passes of each step, plus
    the median rest."""
    steps = [statistics.median(col) for col in zip(*(p.steps for p in passes))]
    return sum(steps) + statistics.median(p.rest for p in passes)


def end_to_end(passes, setup_times) -> dict:
    latencies = [t for p in passes for t in p.latencies]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    first = passes[0].outcome
    out = {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_time(passes),
        "solve_ms_p50": 1e3 * statistics.median(latencies),
        "solve_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "solved_frac": (attempted - failed) / attempted,
        "objective_mean": statistics.fmean(first.objectives),
        "hull_area": first.hull_area,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: v for k, v in out.items() if v is not None}


def per_layer(passes, names) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {name: statistics.median(p.summary.get(name, 0) for p in traced)
           for name in names}
    out["trace.overhead_s"] = pass_time(traced) - pass_time(plain)
    return out


def time_setup(name, seed) -> float:
    """Scaled set-up time of one fresh process: import, inputs, scenario
    files.  The process scales it by slices it runs right after set-up, so
    that they see the core and the moment the set-up ran on."""
    from hostspeed import scaled

    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"bench: set-up probe failed: {exc}\n{getattr(exc, 'stderr', '')}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return scaled(probe["setup_s"], "interpreter", probe["slices"])


def environment() -> str:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    threads = " ".join(f"{k}={os.environ[k]}" for k in BLAS_ENV)
    return (f"env python {platform.python_version()}, numpy {numpy.__version__} "
            f"({blas(numpy)}), scipy {scipy.__version__} ({blas(scipy)}), "
            f"{threads}, nproc {len(os.sched_getaffinity(0))}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = subprocess.run(cmd, cwd=ROOT).returncode
        worst = worst or code
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    t_setup = time.perf_counter()
    import_library()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        inputs = workload.setup(args.seed, tmp)
        if args.setup_probe:
            setup_s = time.perf_counter() - t_setup
            from hostspeed import reference_slice

            slices = [reference_slice() for _ in range(SETUP_PROBE_SLICES)]
            print(json.dumps({"setup_s": setup_s, "slices": slices}))
            return 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in declared["end_to_end"] + declared["per_layer"]}
        targets = layer_targets()
        probe = None if args.trace else (lambda: time_setup(workload.name, args.seed))
        t_measure = time.perf_counter()
        passes, setup_times, last_tracer = measure(
            workload, inputs, args.seconds, args.trace, targets, probe)
        measured_s = time.perf_counter() - t_measure

    problems = consistency_problems(passes)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    if args.trace:
        metrics = per_layer(passes, per_layer_names(targets))
        spans = BUILD_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        last_tracer.write_jsonl(spans)
    else:
        metrics = end_to_end(passes, setup_times)

    first = passes[0]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client: {len(passes)} passes in {measured_s:.1f} s")
    print(environment())
    print(f"solves {attempted} attempted, {failed} failed; per pass "
          f"{len(first.latencies)} solves, {first.summary['solver.solve_gp.calls']} GP solves")
    print("raw pass walls s: " + " ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    from hostspeed import REFERENCE_S

    for part, quiet in REFERENCE_S.items():
        times = sorted(s[part] for p in passes for s in p.slices)
        print(f"reference slice {part} part ms: min {1e3 * times[0]:.2f}, median "
              f"{1e3 * statistics.median(times):.2f}, max {1e3 * times[-1]:.2f} "
              f"(n={len(times)}); times below are at {1e3 * quiet:g} ms")
    for line in first.outcome.failures:
        print(f"failed solve (every pass): {line}")
    if args.trace:
        print(f"spans of the last traced pass: {spans.relative_to(ROOT)}")
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)}; "
              f"{attempted} solve latencies pooled for solve_ms_p50/p90")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for line in problems:
        print(f"INCORRECT: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return EXIT_INCORRECT if problems else 0


if __name__ == "__main__":
    sys.exit(main())
