"""The benchmark's three workloads: seeded inputs, the CLI commands that
run on them, and the checks that the commands' outputs are correct.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter imports ``clskit.cli`` and writes one workload's inputs::

    PYTHONPATH=src python3 perfbench/workloads.py recipe 0 OUT_DIR

clskit sees only what set-up writes (config JSON, CSVs, manifests); the
seed never reaches it directly.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field

import clskit.cli  # noqa: F401  (first import: its cost is part of set-up time)
import numpy as np
from clskit.fileio import write_predictions

@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; ``SMALL`` keeps the
    benchmark's own tests fast."""

    recipe_rows: int = 300
    recipe_resolution: int = 20
    large_train_rows: int = 20_000
    large_val_rows: int = 5_000
    score_rows: int = 20_000


FULL = Scale()
SMALL = Scale(recipe_rows=40, recipe_resolution=4, large_train_rows=200,
              large_val_rows=50, score_rows=200)
SCALES = {"full": FULL, "small": SMALL}

# The four stage configs of scripts/pipeline.sh (configs/stage*.json).
# Seed s shifts the dataset and model seeds; seed 0 is the repository's
# recipe, whose eval top-1 values are pinned below.
_DECAY = {"steps": [0, 2, 4, 6, 8], "mults": [1.0, 0.7, 0.5, 0.3, 0.1]}
_STAGES = (
    {"epochs": 30, "base_lr": 0.001, "steps": [0], "mults": [1.0],
     "epsilon": 0.0, "gamma": 0.0, "freeze": False},
    {"epochs": 10, "base_lr": 0.0001, **_DECAY, "epsilon": 0.06, "gamma": 0.0, "freeze": False},
    {"epochs": 10, "base_lr": 0.0001, **_DECAY, "epsilon": 0.06, "gamma": 0.0, "freeze": True},
    {"epochs": 10, "base_lr": 0.0001, **_DECAY, "epsilon": 0.06, "gamma": 0.3, "freeze": True},
)
# The fixed-weight manifest that scripts/pipeline.sh writes after the sweep.
FIXED_MANIFEST = """{
  "members": [
    {"path": "stage1_val.csv", "weight": 0.1},
    {"path": "stage2_val.csv", "weight": 0.4},
    {"path": "stage3_val.csv", "weight": 0.25},
    {"path": "stage4_val.csv", "weight": 0.25}
  ],
  "score_type": "prob"
}
"""
RECIPE_EVALS = ("stage1_val", "stage2_val", "stage3_val", "stage4_val", "fused_best", "fused_fixed")
# Acceptance criterion 7 at seed 0: top-1 of the four singles and of the
# swept fusion, as `eval` prints them.
PINNED_TOP1 = {"stage1_val": "46.33", "stage2_val": "41.00", "stage3_val": "47.33",
               "stage4_val": "49.67", "fused_best": "53.00"}

SCORE_MEMBERS = 5
SCORE_CLASSES = 10


def stage_config(stage: int, seed: int, rows: int) -> dict:
    """Run config of recipe stage 1..4 at ``seed``."""
    return {
        "batch_size": 32,
        "loss_form": "per_class_sum",
        **_STAGES[stage - 1],
        "seed": 100 + stage + 4 * seed,
        "dataset": {"n_train": rows, "n_val": rows, "dims": 8, "classes": 4,
                    "separation": 1.0, "seed": 1 + 2 * seed},
    }


def train_large_config(seed: int, scale: Scale) -> dict:
    # Unfrozen per_class_sum with eps and gamma both on, so every loss
    # branch and the backbone gradient run; two epochs with one decay step.
    return {
        "epochs": 2, "batch_size": 32, "base_lr": 0.001, "steps": [0, 1], "mults": [1.0, 0.5],
        "epsilon": 0.06, "gamma": 0.3, "loss_form": "per_class_sum", "freeze": False,
        "seed": 500 + seed, "hidden_dim": 64,
        "dataset": {"n_train": scale.large_train_rows, "n_val": scale.large_val_rows,
                    "dims": 16, "classes": 10, "separation": 2.0, "seed": 1000 + 2 * seed},
    }


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _score_members(seed: int, rows: int):
    rng = np.random.default_rng([0x5C0E, seed])
    labels = rng.integers(0, SCORE_CLASSES, rows)
    members = []
    for k in range(SCORE_MEMBERS):
        logits = rng.standard_normal((rows, SCORE_CLASSES))
        logits[np.arange(rows), labels] += 0.5 + 0.25 * k
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        members.append(probs / probs.sum(axis=1, keepdims=True))
    weights = (1 + rng.multinomial(20 - SCORE_MEMBERS, [1 / SCORE_MEMBERS] * SCORE_MEMBERS)) / 20
    return labels, members, [float(w) for w in weights]


def _read_csv_values(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")[1:-1]
    return [[float(text) for text in line.split(",")[1:]] for line in lines]


def make_inputs(workload: str, seed: int, out: str, scale: Scale = FULL) -> None:
    """Write the inputs of ``workload`` at ``seed`` into directory ``out``."""
    os.makedirs(out, exist_ok=True)
    if workload == "recipe":
        for stage in range(1, 5):
            _write_json(os.path.join(out, f"stage{stage}.json"),
                        stage_config(stage, seed, scale.recipe_rows))
        with open(os.path.join(out, "fixed.json"), "w", encoding="utf-8", newline="") as handle:
            handle.write(FIXED_MANIFEST)
    elif workload == "train_large":
        _write_json(os.path.join(out, "config.json"), train_large_config(seed, scale))
    elif workload == "score_large":
        labels, members, weights = _score_members(seed, scale.score_rows)
        ids = [f"s{i:05d}" for i in range(scale.score_rows)]
        with open(os.path.join(out, "labels.csv"), "w", encoding="utf-8", newline="") as handle:
            handle.write("id,label\n" + "".join(f"{i},{y}\n" for i, y in zip(ids, labels)))
        header = "id," + ",".join(f"c{j}" for j in range(SCORE_CLASSES)) + "\n"
        for k, probs in enumerate(members):
            with open(os.path.join(out, f"m{k}.csv"), "w", encoding="utf-8", newline="") as handle:
                handle.write(header + "".join(i + "," + ",".join(f"{v:.9f}" for v in row) + "\n"
                                              for i, row in zip(ids, probs)))
        _write_json(os.path.join(out, "members.json"), {
            "members": [{"path": f"m{k}.csv", "weight": w} for k, w in enumerate(weights)],
            "score_type": "prob"})
        # Reference fusion: exactly rounded per-element sums of the members
        # as read back from their files, written by clskit's own writer.
        values = [_read_csv_values(os.path.join(out, f"m{k}.csv")) for k in range(SCORE_MEMBERS)]
        reference = np.array([
            [math.fsum(w * member[i][j] for w, member in zip(weights, values))
             for j in range(SCORE_CLASSES)]
            for i in range(scale.score_rows)
        ])
        write_predictions(os.path.join(out, "reference.csv"), ids, reference)
    else:
        raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Op:
    """One CLI command and the files it writes."""

    kind: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Plan:
    ops: list[Op]
    work: str  # the directory every output goes to
    fixtures: dict[str, str] = field(default_factory=dict)  # copied into work first

    def reset(self) -> None:
        """Empty the work dir and copy in the fixtures, so no repetition
        reads an output of the previous one."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        for name, source in self.fixtures.items():
            shutil.copyfile(source, os.path.join(self.work, name))

    def check(self, stdouts: list[str]) -> set[int]:
        """Indices of ops whose output is wrong (beyond byte identity)."""
        return set()


def plan(workload: str, seed: int, inputs: str, work: str, scale: Scale = FULL) -> Plan:
    """The commands of one repetition of ``workload``, outputs under ``work``."""
    i = functools.partial(os.path.join, inputs)
    w = functools.partial(os.path.join, work)
    if workload == "recipe":
        ops = []
        for stage in range(1, 5):
            outputs = [w(f"stage{stage}_train.csv"), w(f"stage{stage}_val.csv")]
            argv = ["train", "--config", i(f"stage{stage}.json"),
                    "--out-train", outputs[0], "--out-val", outputs[1]]
            if stage == 1:
                outputs.append(w("val_labels.csv"))
                argv += ["--val-labels", outputs[2]]
            ops.append(Op("train", argv, outputs))
        argv = ["sweep"]
        for stage in range(1, 5):
            argv += ["--preds", w(f"stage{stage}_val.csv")]
        argv += ["--labels", w("val_labels.csv"), "--resolution", str(scale.recipe_resolution),
                 "--emit-manifest", w("best.json")]
        ops.append(Op("sweep", argv, [w("best.json")]))
        for name in ("best", "fixed"):
            ops.append(Op("fuse", ["fuse", "--manifest", w(f"{name}.json"),
                                   "--out", w(f"fused_{name}.csv")], [w(f"fused_{name}.csv")]))
        for name in RECIPE_EVALS:
            ops.append(Op("eval", ["eval", "--preds", w(f"{name}.csv"),
                                   "--labels", w("val_labels.csv")]))
        pinned = PINNED_TOP1 if seed == 0 and scale == FULL else {}
        return RecipePlan(ops, work, {"fixed.json": i("fixed.json")}, pinned)
    if workload == "train_large":
        argv = ["train", "--config", i("config.json"),
                "--out-train", w("train.csv"), "--out-val", w("val.csv")]
        return Plan([Op("train", argv, [w("train.csv"), w("val.csv")])], work)
    if workload == "score_large":
        ops = [Op("fuse", ["fuse", "--manifest", i("members.json"), "--out", w("fused.csv")],
                  [w("fused.csv")])]
        for name in [w("fused.csv")] + [i(f"m{k}.csv") for k in range(SCORE_MEMBERS)]:
            ops.append(Op("eval", ["eval", "--preds", name, "--labels", i("labels.csv")]))
        return ScorePlan(ops, work, {}, i("reference.csv"))
    raise ValueError(f"unknown workload {workload!r}")


def _top1(table: str) -> str | None:
    for line in table.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "top1":
            return parts[1]
    return None


@dataclass(frozen=True)
class RecipePlan(Plan):
    pinned: dict[str, str] = field(default_factory=dict)  # eval name -> printed top-1

    def check(self, stdouts: list[str]) -> set[int]:
        # Every eval prints a top-1, equal to its pinned value if it has one,
        # and the swept fusion's is >= every single member's.
        first = len(self.ops) - len(RECIPE_EVALS)
        top1 = {name: _top1(stdouts[first + k]) for k, name in enumerate(RECIPE_EVALS)}
        bad = {name for name, value in top1.items()
               if value is None or value != self.pinned.get(name, value)}
        singles = [float(top1[name]) for name in RECIPE_EVALS[:4] if top1[name] is not None]
        if "fused_best" not in bad and float(top1["fused_best"]) < max(singles, default=0.0):
            bad.add("fused_best")
        return {first + RECIPE_EVALS.index(name) for name in bad}


@dataclass(frozen=True)
class ScorePlan(Plan):
    reference: str = ""  # the fused CSV that set-up computed

    def check(self, stdouts: list[str]) -> set[int]:
        # The fuse output (op 0) equals set-up's exactly rounded reference.
        try:
            with open(self.reference, "rb") as ref, open(self.ops[0].outputs[0], "rb") as out:
                same = ref.read() == out.read()
        except OSError:
            same = False
        return set() if same else {0}


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit("usage: workloads.py WORKLOAD SEED OUT_DIR [full|small]")
    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3],
                SCALES[sys.argv[4] if len(sys.argv) == 5 else "full"])
