"""Tests of the benchmark itself: the tracing wrappers, byte identity with
tracing on and off, metric names, seeded inputs and the output checks."""

from __future__ import annotations

import json
import re
import sys

import pytest

import run

run.load_cli()
import speed  # noqa: E402
import tracer  # noqa: E402  (needs clskit importable)
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings() -> dict:
    """Every value bound in a clskit module namespace or in a dict there."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "clskit" and not module_name.startswith("clskit."):
            continue
        for key, value in vars(module).items():
            found[(module_name, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for inner, item in value.items():
                    found[(module_name, key, inner)] = item
    return found


def test_wrappers_restore_every_patched_function():
    before = _bindings()
    recorder = tracer.Tracer()
    with recorder.installed():
        during = _bindings()
    after = _bindings()
    patched = {key for key in before if during[key] is not before[key]}
    assert recorder.missing == []
    for name in tracer.span_names():
        module, fn = name.split(".")
        assert (f"clskit.{module}", fn) in patched, name
    # Functions imported into other namespaces, and the CLI dispatch table.
    for key in [("clskit.trainer", "softmax"), ("clskit.losses", "softmax"),
                ("clskit.ensemble", "topk_accuracy"), ("clskit", "fuse"),
                ("clskit.cli", "_COMMANDS", "train")]:
        assert key in patched, key
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_sampled_and_plain_runs_are_byte_identical(workload, tmp_path):
    cli = run.load_cli()
    inputs = tmp_path / "inputs"
    workloads.make_inputs(workload, 3, str(inputs), workloads.SMALL)
    recorder, speedometer = tracer.Tracer(), speed.Speedometer()
    outputs = {}
    for mode, instruments in (("plain", {}), ("traced", {"recorder": recorder}),
                              ("sampled", {"speedometer": speedometer})):
        work = tmp_path / mode
        plan = workloads.plan(workload, 3, str(inputs), str(work), workloads.SMALL)
        rep = run.run_rep(cli, plan, 0, **instruments)
        assert rep.failed == set()
        files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
        outputs[mode] = ([result.stdout for result in rep.results], files)
    assert recorder.spans and all(span is not None for span in recorder.spans)
    assert speedometer.samples
    assert outputs["plain"] == outputs["traced"] == outputs["sampled"]


def test_speedometer_removes_its_own_time_and_rescales():
    speedometer = speed.Speedometer()
    reference = speed.REFERENCE_KERNEL_S
    # (start, seconds in handler, warm kernel seconds): a machine at half speed.
    speedometer.samples = [(10.5, 0.25, 2 * reference), (11.5, 0.5, 2 * reference)]
    scale = speedometer.scale(since=10.0)
    assert scale == 0.5
    assert speedometer.at_reference([(10.0, 1.0), (11.0, 2.0), (13.0, 1.0)], scale) == \
        [0.375, 0.75, 0.5]


def test_metric_names(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.per_layer_catalog()
    for name, _ in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    for trace, expected in ((False, end_to_end), (True, per_layer)):
        result = run.measure("score_large", 1, 0.0, trace, "small", tmp_path)
        line = json.loads(run.last_line(result))
        assert line["correct"] and line["attempted"] >= 1
        assert [(name, entry["unit"]) for name, entry in line["metrics"].items()] == expected


@pytest.mark.parametrize("workload", ["train_large", "score_large"])
def test_seed_changes_inputs(workload, tmp_path):
    for name, seed in (("a", 1), ("b", 2), ("c", 1)):
        workloads.make_inputs(workload, seed, str(tmp_path / name), workloads.SMALL)
    digest = {name: run.tree_digest(tmp_path / name) for name in "abc"}
    assert digest["a"] == digest["c"]
    assert digest["a"] != digest["b"]


def test_recipe_at_seed_zero_is_the_repository_recipe():
    for stage in range(1, 5):
        config = json.loads((run.ROOT / "configs" / f"stage{stage}.json").read_text())
        assert workloads.stage_config(stage, 0, 300) == config
    script = (run.ROOT / "scripts" / "pipeline.sh").read_text()
    heredoc = script.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0] + "\n"
    assert workloads.FIXED_MANIFEST == heredoc


def test_checks_flag_wrong_outputs(tmp_path):
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    recipe = workloads.plan("recipe", 0, str(inputs), str(work))
    evals = len(recipe.ops) - len(workloads.RECIPE_EVALS)
    tables = [f"top1 {workloads.PINNED_TOP1.get(name, '47.33')}\n"
              for name in workloads.RECIPE_EVALS]
    assert recipe.check([""] * evals + tables) == set()
    tables[0] = "top1 46.34\n"  # off its pinned value
    assert recipe.check([""] * evals + tables) == {evals}
    unpinned = workloads.plan("recipe", 1, str(inputs), str(work))
    tables[4] = "top1 46.00\n"  # swept fusion below a single member
    assert unpinned.check([""] * evals + tables) == {evals + 4}

    score = workloads.plan("score_large", 0, str(inputs), str(work))
    inputs.mkdir()
    work.mkdir()
    (inputs / "reference.csv").write_text("id,c0,c1\na,0.5,0.5\n")
    (work / "fused.csv").write_text("id,c0,c1\na,0.5,0.5\n")
    assert score.check([]) == set()
    (work / "fused.csv").write_text("id,c0,c1\na,0.4,0.6\n")
    assert score.check([]) == {0}
