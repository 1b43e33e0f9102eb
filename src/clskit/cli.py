"""Command-line surface: train, eval, fuse, sweep, schedule.

Every command is a pure function of its arguments and input files, so
re-running any of them reproduces output files byte-for-byte. Exit codes
are 0 on success and 2 on any usage or validation error, or when memory
runs out or a size is past what numpy can index, nothing else.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .ensemble import OBJECTIVES, SCORE_TYPES, fuse, sweep_weights
from .fileio import (
    SampleIds,
    load_manifest,
    load_run_config,
    read_labels,
    read_predictions,
    write_labels,
    write_manifest,
    write_predictions,
)
from .metrics import full_report
from .schedule import (
    DEFAULT_BASE_LR,
    DEFAULT_MULTIPLIERS,
    DEFAULT_STEP_EPOCHS,
    StepDecaySchedule,
    schedule_rows,
)
from .trainer import predict, train


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model from a JSON config")
    p_train.add_argument("--config", required=True, help="run config JSON path")
    p_train.add_argument("--out-train", required=True, help="train-split predictions CSV")
    p_train.add_argument("--out-val", required=True, help="val-split predictions CSV")
    p_train.add_argument("--train-labels", help="optional train-split labels CSV")
    p_train.add_argument("--val-labels", help="optional val-split labels CSV")
    p_train.add_argument("--seed", type=int, help="override the config's model seed")

    p_eval = sub.add_parser("eval", help="score a predictions file against labels")
    p_eval.add_argument("--preds", required=True, help="predictions CSV path")
    p_eval.add_argument("--labels", required=True, help="labels CSV path")
    p_eval.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_fuse = sub.add_parser("fuse", help="weighted-average members from a manifest")
    p_fuse.add_argument("--manifest", required=True, help="manifest JSON path")
    p_fuse.add_argument("--out", required=True, help="fused predictions CSV")

    p_sweep = sub.add_parser("sweep", help="grid-search fusion weights")
    p_sweep.add_argument("--preds", required=True, action="append",
                         help="predictions CSV (repeat per member)")
    p_sweep.add_argument("--labels", required=True, help="labels CSV path")
    p_sweep.add_argument("--resolution", type=int, default=20,
                         help="grid steps per unit of weight (default 20)")
    p_sweep.add_argument("--objective", default="top1", choices=OBJECTIVES)
    p_sweep.add_argument("--score-type", default="prob", choices=SCORE_TYPES)
    p_sweep.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_sweep.add_argument("--emit-manifest", help="write best weights as a manifest JSON")

    p_sched = sub.add_parser("schedule", help="print a step-decay learning-rate table")
    p_sched.add_argument("--base-lr", type=float, default=DEFAULT_BASE_LR)
    p_sched.add_argument("--steps", default=",".join(map(str, DEFAULT_STEP_EPOCHS)),
                         help="comma-separated epoch breakpoints")
    p_sched.add_argument("--mults", default=",".join(map(str, DEFAULT_MULTIPLIERS)),
                         help="comma-separated multipliers, one per breakpoint")
    p_sched.add_argument("--epochs", type=int, default=10)
    return parser


def _align_labels(
    pred_ids: SampleIds, label_ids: SampleIds, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """The label array of :func:`read_labels` in prediction order.  Ids must
    match as sets, and every label must index one of the ``num_classes``
    prediction columns, so the labels returned are int64.

    Ids in the same order have the same bytes, and their labels need no
    reordering.  Only other ids are decoded: a dict of label positions then
    names the first id missing from either side, or gives the order.  The
    range is checked on the array as read, so a label past int64 (an object
    array's Python int) is named exactly."""
    if pred_ids != label_ids:
        position = {sample_id: k for k, sample_id in enumerate(label_ids)}
        pred_set = set(pred_ids)
        for sample_id in pred_ids:
            if sample_id not in position:
                raise ValueError(f"id {sample_id!r} has predictions but no label")
        for sample_id in label_ids:
            if sample_id not in pred_set:
                raise ValueError(f"id {sample_id!r} has a label but no predictions")
        labels = labels[np.fromiter(map(position.__getitem__, pred_ids), np.intp, len(pred_ids))]
    top = labels.max()
    if top >= num_classes:
        raise ValueError(f"label {top} out of range for {num_classes} prediction columns")
    return labels


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    train_set, val_set = config.make_datasets()
    model, log = train(train_set, val_set, config.to_train_config())
    for record in log.records:
        print(f"epoch {record.epoch:2d}  lr {record.lr:.6g}  "
              f"loss {record.train_loss:.6f}  val_top1 {record.val_top1:.6f}")
    train_ids = [f"tr{i:05d}" for i in range(train_set.n)]
    val_ids = [f"va{i:05d}" for i in range(val_set.n)]
    write_predictions(args.out_train, train_ids, predict(model, train_set))
    write_predictions(args.out_val, val_ids, predict(model, val_set))
    if args.train_labels:
        write_labels(args.train_labels, train_ids, train_set.labels)
    if args.val_labels:
        write_labels(args.val_labels, val_ids, val_set.labels)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    pred_ids, matrix = read_predictions(args.preds)
    label_ids, labels = read_labels(args.labels)
    y = _align_labels(pred_ids, label_ids, labels, matrix.shape[1])
    report = full_report(matrix, y)
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(report.table())
    return 0


def _read_members(paths: list[str]) -> tuple[SampleIds, list[np.ndarray]]:
    """Read member prediction files that must share one id sequence, which
    compare as their bytes."""
    first_ids: SampleIds | None = None
    members = []
    for path in paths:
        ids, matrix = read_predictions(path)
        if first_ids is None:
            first_ids = ids
        elif ids != first_ids:
            raise ValueError(f"{path}: id sequence differs from first member")
        members.append(matrix)
    return first_ids, members


def cmd_fuse(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    first_ids, members = _read_members(manifest.paths())
    fused = fuse(members, manifest.weights(), manifest.score_type)
    write_predictions(args.out, first_ids, fused)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if len(args.preds) < 2:
        raise ValueError("sweep needs at least two --preds files")
    first_ids, members = _read_members(args.preds)
    label_ids, labels = read_labels(args.labels)
    y = _align_labels(first_ids, label_ids, labels, members[0].shape[1])
    weights, score = sweep_weights(
        members, y, args.resolution, objective=args.objective, score_type=args.score_type
    )
    if args.json:
        print(json.dumps({"weights": [float(w) for w in weights],
                          "objective": args.objective, "score": float(score)}))
    else:
        print("weights " + " ".join(f"{w:.6f}" for w in weights)
              + f"  {args.objective} {score:.6f}")
    if args.emit_manifest:
        write_manifest(args.emit_manifest, args.preds, list(weights), args.score_type)
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    try:
        steps = tuple(int(part) for part in args.steps.split(","))
        mults = tuple(float(part) for part in args.mults.split(","))
    except ValueError:
        raise ValueError("--steps and --mults must be comma-separated numbers") from None
    schedule = StepDecaySchedule(args.base_lr, steps, mults)
    for epoch, lr in schedule_rows(schedule, args.epochs):
        print(f"{epoch}\t{lr:.10g}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "fuse": cmd_fuse,
    "sweep": cmd_sweep,
    "schedule": cmd_schedule,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, IndexError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
