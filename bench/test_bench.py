"""Tests of the benchmark itself: python -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
from tracer import Target, Tracer

run.import_library()
import workloads  # noqa: E402  (needs the library on the path first)
from swiptsec import solver  # noqa: E402
from swiptsec.model import DecodingOrder, config_to_dict  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_of_nested_calls():
    tr = Tracer(clock=_ticking_clock())
    inner = tr.wrap("lib.inner", lambda: None)

    def body():
        inner()
        inner()

    tr.wrap("lib.outer", body)()
    # outer 0..5, inner 1..2 and 3..4
    outer, first, second = tr.spans
    assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
    assert outer.duration == 5 and outer.child_s == 2 and outer.self_s == 3
    summary = tr.summary()
    assert summary["lib.outer.self_s"] == 3
    assert summary["lib.inner.self_s"] == 2
    assert summary["lib.inner.calls"] == 2
    assert summary["lib.self_s"] == 5


def test_raising_call_is_recorded_and_charged_to_its_parent():
    tr = Tracer(clock=_ticking_clock())

    def fail():
        raise ValueError("no")

    inner = tr.wrap("lib.fail", fail)

    def body():
        with pytest.raises(ValueError):
            inner()

    tr.wrap("lib.outer", body)()
    assert tr.errors("lib.fail") == ["ValueError"]
    assert tr.spans[0].child_s == 1


def test_patches_every_binding_site_and_restores_them():
    defs = types.ModuleType("defs")
    exec("def f(x):\n    return 2 * x\ndef g(x):\n    return f(x) + 1", defs.__dict__)
    user = types.ModuleType("user")
    user.f = defs.f              # a `from defs import f` copy
    original = defs.f
    tr = Tracer()
    with tr.patched([Target("defs.f", defs, "f")], [user]):
        assert user.f(1) == 2 and defs.g(1) == 3
    assert tr.summary()["defs.f.calls"] == 2
    assert defs.f is original and user.f is original


def test_scaled_times_are_relative_to_the_reference_slice():
    from hostspeed import REFERENCE_S, scaled

    quiet = dict(REFERENCE_S)
    assert scaled(1.0, "memory", [quiet, quiet]) == 1.0
    # a host at half speed doubles both the step and the slices around it
    slow = {part: 2 * t for part, t in quiet.items()}
    assert scaled(2.0, "interpreter", [slow, slow]) == pytest.approx(1.0)
    assert scaled(1.0, "interpreter", [quiet, {**quiet, "interpreter": 3 * quiet["interpreter"]}]) \
        == pytest.approx(0.5)


def test_reference_slices_follow_each_step_outside_its_span():
    from tracer import patch

    defs = types.ModuleType("defs")
    exec("def step():\n    return 1", defs.__dict__)
    target = Target("lib.step", defs, "step")
    tr, slices = Tracer(), [{}]
    with tr.patched([target], []), \
            patch([target], [], lambda t, fn: run.followed_by_slice(fn, slices, tr)):
        defs.step()
        defs.step()
    assert len(slices) == 3 and min(min(s.values()) for s in slices[1:]) > 0
    assert [s.name for s in tr.spans] == ["lib.step", "hostspeed.slice"] * 2
    assert all(s.parent == -1 for s in tr.spans)
    assert tr.spans[0].end <= tr.spans[1].start and tr.spans[1].end <= tr.spans[2].start


def test_reference_slices_are_invisible_to_the_tracer():
    from hostspeed import reference_slice

    tr = Tracer()
    with tr.patched(run.layer_targets(), run.binding_sites()):
        reference_slice()
    assert tr.spans == []


def _traced_counts(instance):
    cfg, weights = instance
    tr = Tracer()
    with tr.patched(run.layer_targets(), run.binding_sites()):
        solver.iterate(cfg, weights, DecodingOrder((2, 0, 1)), solver.SECURE)
    return {k: v for k, v in tr.summary().items() if not k.endswith("self_s")}


def test_counters_repeat_for_the_same_seed(tmp_path):
    first = workloads.WORKLOADS["random_k3_secure"].setup(7, tmp_path)[0]
    again = workloads.WORKLOADS["random_k3_secure"].setup(7, tmp_path)[0]
    counts = _traced_counts(first)
    assert counts["solver.solve_gp.calls"] > 0
    assert counts["linalg.inv_quadratic_form.calls"] > 0
    assert _traced_counts(again) == counts


def _inputs_json(name, seed, workdir):
    workdir.mkdir()
    inputs = workloads.WORKLOADS[name].setup(seed, workdir)
    if name == "oracle_cli":
        return inputs.scenario.read_text()
    if name == "random_k3_secure":
        return json.dumps([(config_to_dict(c), w.alpha.tolist()) for c, w in inputs])
    return json.dumps([(config_to_dict(case[1]), case[3]) for case in inputs])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_only_random_k3_inputs_depend_on_the_seed(name, tmp_path):
    a, b, again = (_inputs_json(name, seed, tmp_path / d)
                   for seed, d in ((0, "a"), (1, "b"), (0, "c")))
    assert (a != b) == (name == "random_k3_secure")
    assert again == a


def test_printed_metric_names_are_declared():
    assert run.per_layer_names(run.layer_targets()) == [m["name"] for m in DECLARED["per_layer"]]
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOADS)

    outcome = workloads.Outcome("d", [1.0], [], 2.0, [])
    passes = [run.PassRecord(False, 1.0, [], {}, [0.01] * 100, [0.01] * 100, 0.0,
                             [], outcome)]
    assert list(run.end_to_end(passes, [0.5])) == [m["name"] for m in DECLARED["end_to_end"]]
    traced = [run.PassRecord(True, 2.0, [], {}, [], [], 0.0, [], outcome)]
    assert set(run.per_layer(passes + traced, run.per_layer_names(run.layer_targets()))) \
        == {m["name"] for m in DECLARED["per_layer"]}


def test_fails_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_reliable",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
