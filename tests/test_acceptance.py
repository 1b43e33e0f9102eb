"""Acceptance harness: eight end-to-end criteria, one per test.

Each test prints one uncaptured ``acceptance N PASS/FAIL`` line with the
measured quantities, then asserts.  Criteria with runtime budgets measure
wall time and fail when over budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from oracles import oracle_map, oracle_mauc, oracle_mca, oracle_topk

from clskit.cli import main
from clskit.ensemble import fuse, sweep_weights
from clskit.losses import LossConfig, loss_grad, loss_value
from clskit.metrics import (
    mean_auc,
    mean_average_precision,
    mean_class_accuracy,
    topk_accuracy,
)
from clskit.numerics import softmax
from clskit.schedule import (
    FreezePolicy,
    StepDecaySchedule,
    default_schedule,
    lr_at,
    schedule_table,
)
from clskit.trainer import TrainConfig, init_model, predict, synth_dataset, train

DECAY_STEPS = (0, 2, 4, 6, 8)
DECAY_MULTS = (1.0, 0.7, 0.5, 0.3, 0.1)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"acceptance {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {number}: {detail}"


def rel_err(got, expected):
    return abs(got - expected) / max(abs(expected), 1e-300)


# 1. loss reduction identities ------------------------------------------------

def test_criterion_1_loss_identities(capsys):
    rng = np.random.default_rng(100)
    plain = LossConfig(epsilon=0.0, gamma=0.0)
    smoothed = LossConfig(epsilon=0.06, gamma=0.0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        num_classes = int(rng.integers(2, 45))
        p = softmax(rng.normal(scale=2.0, size=num_classes))
        c = int(rng.integers(num_classes))
        off = [i for i in range(num_classes) if i != c]
        expected_plain = -math.log(p[c]) - sum(math.log1p(-p[i]) for i in off)
        expected_smooth = -0.94 * math.log(p[c]) - (0.06 / (num_classes - 1)) * sum(
            math.log1p(-p[i]) for i in off
        )
        worst = max(worst, rel_err(loss_value(p, c, plain), expected_plain))
        worst = max(worst, rel_err(loss_value(p, c, smoothed), expected_smooth))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(capsys, 1,
           ok, f"1000 tuples, max rel err {worst:.2e} (<= 1e-12), {elapsed:.2f}s (< 1s)")


# 2. gradient check -----------------------------------------------------------

def finite_difference(z, c, cfg, h=1e-5):
    g = np.zeros_like(z)
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (loss_value(softmax(zp), c, cfg) - loss_value(softmax(zm), c, cfg)) / (2 * h)
    return g


def test_criterion_2_gradient_check(capsys):
    rng = np.random.default_rng(101)
    grid = [
        (eps, gamma, form)
        for eps in (0.0, 0.06, 0.3)
        for gamma in (0.0, 0.3, 2.0)
        for form in ("per_class_sum", "target_only")
    ]
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        eps, gamma, form = grid[k % len(grid)]
        cfg = LossConfig(eps, gamma, form)
        num_classes = int(rng.integers(2, 11))
        z = rng.normal(scale=2.0, size=num_classes)
        c = int(rng.integers(num_classes))
        analytic = loss_grad(z, c, cfg)
        numeric = finite_difference(z, c, cfg)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-8)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(capsys, 2,
           ok, f"100 configs, max rel err {worst:.2e} (<= 1e-6), {elapsed:.2f}s (< 5s)")


# 3. schedule fidelity --------------------------------------------------------

def test_criterion_3_schedule_fidelity(capsys):
    sched = default_schedule(1e-4)
    expected = [1e-4 * m for m in (1.0, 1.0, 0.7, 0.7, 0.5, 0.5, 0.3, 0.3, 0.1, 0.1)]
    got = [lr_at(sched, e) for e in range(10)]
    table_ok = schedule_table(sched, 10) == list(enumerate(expected))
    ok = got == expected and table_ok
    report(capsys, 3, ok, f"epochs 0-9 lr table exact match: {got == expected}")


# 4. freeze contract ----------------------------------------------------------

def test_criterion_4_freeze_contract(capsys):
    tr = synth_dataset(1, 60, 6, 3, 1.0)
    va = synth_dataset(2, 60, 6, 3, 1.0)

    def run(freeze):
        cfg = TrainConfig(
            epochs=10,
            batch_size=16,
            schedule=StepDecaySchedule(1e-4, DECAY_STEPS, DECAY_MULTS),
            loss=LossConfig(epsilon=0.06, gamma=0.3),
            freeze=freeze,
            seed=3,
            hidden_dim=16,
        )
        initial = init_model(tr.dims, tr.num_classes, cfg.hidden_dim, cfg.seed).backbone
        model, _ = train(tr, va, cfg)
        return np.array_equal(model.backbone, initial)

    frozen_intact = run(FreezePolicy.FROZEN)
    unfrozen_moved = not run(FreezePolicy.UNFROZEN)
    ok = frozen_intact and unfrozen_moved
    report(capsys, 4,
           ok, f"frozen backbone bitwise intact: {frozen_intact}; "
               f"unfrozen backbone changed: {unfrozen_moved}")


# 5. metric oracle equivalence ------------------------------------------------
# The brute-force oracles of tests/oracles.py follow the definitions directly:
# explicit sorts and pair loops, no shared code with the package.

def test_criterion_5_metric_oracle_equivalence(capsys):
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        num_classes = int(rng.integers(2, 5))
        scores = np.round(rng.uniform(0.0, 1.0, size=(n, num_classes)), 1)
        labels = rng.integers(0, num_classes, size=n)
        for k in range(1, num_classes + 1):
            checked += 1
            if topk_accuracy(scores, labels, k) != oracle_topk(scores, labels, k):
                mismatches += 1
        checked += 1
        if mean_class_accuracy(scores, labels) != oracle_mca(scores, labels):
            mismatches += 1
        checked += 1
        if mean_average_precision(scores, labels) != oracle_map(scores, labels):
            mismatches += 1
        if len(set(map(int, labels))) > 1:
            checked += 1
            if mean_auc(scores, labels) != oracle_mauc(scores, labels):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(capsys, 5,
           ok, f"200 instances, {checked} exact comparisons, {mismatches} mismatches, "
               f"{elapsed:.2f}s (< 10s)")


# 6. fusion exactness ---------------------------------------------------------

def test_criterion_6_fusion_exactness(capsys):
    rng = np.random.default_rng(103)
    members = [
        np.stack([softmax(rng.normal(size=4)) for _ in range(25)]) for _ in range(4)
    ]
    unit_ok = all(
        np.array_equal(fuse(members, np.eye(4)[k]), members[k]) for k in range(4)
    )
    same = members[0]
    ident_ok = np.array_equal(fuse([same, same, same], [0.2, 0.3, 0.5]), same)
    fused = fuse(members, [0.1, 0.4, 0.25, 0.25])
    row_drift = float(np.max(np.abs(fused.sum(axis=1) - 1.0)))
    ok = unit_ok and ident_ok and row_drift <= 1e-9
    report(capsys, 6,
           ok, f"unit-vector exact: {unit_ok}; identical-member exact: {ident_ok}; "
               f"uneven-weight row drift {row_drift:.2e} (<= 1e-9)")


# 7. desk-scale staged pipeline ----------------------------------------------

STAGES = [
    # (epochs, base_lr, steps, mults, eps, gamma, frozen, seed)
    (30, 1e-3, (0,), (1.0,), 0.0, 0.0, False, 101),   # baseline CE
    (10, 1e-4, DECAY_STEPS, DECAY_MULTS, 0.06, 0.0, False, 102),  # + step decay
    (10, 1e-4, DECAY_STEPS, DECAY_MULTS, 0.06, 0.0, True, 103),   # + freeze
    (10, 1e-4, DECAY_STEPS, DECAY_MULTS, 0.06, 0.3, True, 104),   # + focal 0.3
]


def test_criterion_7_staged_pipeline(capsys):
    start = time.perf_counter()
    tr = synth_dataset(1, 300, 8, 4, 1.0)
    va = synth_dataset(2, 300, 8, 4, 1.0)
    preds, singles = [], []
    for epochs, base_lr, steps, mults, eps, gamma, frozen, seed in STAGES:
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=32,
            schedule=StepDecaySchedule(base_lr, steps, mults),
            loss=LossConfig(epsilon=eps, gamma=gamma),
            freeze=FreezePolicy.FROZEN if frozen else FreezePolicy.UNFROZEN,
            seed=seed,
        )
        model, _ = train(tr, va, cfg)
        p = predict(model, va)
        preds.append(p)
        singles.append(topk_accuracy(p, va.labels, 1))
    weights, swept = sweep_weights(preds, va.labels, 20)
    elapsed = time.perf_counter() - start
    ok = swept >= max(singles) and elapsed < 60.0
    report(capsys, 7,
           ok, f"singles {['%.4f' % v for v in singles]}, swept {swept:.4f} "
               f"(>= {max(singles):.4f}) at weights {[float(w) for w in weights]}, "
               f"{elapsed:.1f}s (< 60s)")


# 8. end-to-end CLI determinism ----------------------------------------------

def run_cli_pipeline(workdir, configs_dir, capsys):
    """Train the four stages, sweep, fuse, eval; return output-file bytes
    and captured command output."""
    transcripts = {}
    val_preds = []
    for stage in range(1, 5):
        out_train = workdir / f"stage{stage}_train.csv"
        out_val = workdir / f"stage{stage}_val.csv"
        args = ["train", "--config", str(configs_dir / f"stage{stage}.json"),
                "--out-train", str(out_train), "--out-val", str(out_val)]
        if stage == 1:
            args += ["--val-labels", str(workdir / "val_labels.csv")]
        assert main(args) == 0
        transcripts[f"train{stage}"] = capsys.readouterr().out
        val_preds.append(out_val)
    labels = str(workdir / "val_labels.csv")
    manifest = str(workdir / "best.json")
    args = ["sweep", "--labels", labels, "--resolution", "20", "--json",
            "--emit-manifest", manifest]
    for p in val_preds:
        args += ["--preds", str(p)]
    assert main(args) == 0
    transcripts["sweep"] = capsys.readouterr().out
    fused = workdir / "fused.csv"
    assert main(["fuse", "--manifest", manifest, "--out", str(fused)]) == 0
    capsys.readouterr()
    assert main(["eval", "--preds", str(fused), "--labels", labels, "--json"]) == 0
    transcripts["eval"] = capsys.readouterr().out
    files = {}
    for path in sorted(workdir.iterdir()):
        files[path.name] = path.read_bytes()
    return files, transcripts


def test_criterion_8_cli_determinism(capsys, tmp_path):
    configs_dir = Path(__file__).parent.parent / "configs"
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    files_a, out_a = run_cli_pipeline(run_a, configs_dir, capsys)
    files_b, out_b = run_cli_pipeline(run_b, configs_dir, capsys)
    same_names = sorted(files_a) == sorted(files_b)
    diff_files = [n for n in files_a if files_a[n] != files_b.get(n)]
    outputs_match = out_a == out_b
    report_line = json.loads(out_a["eval"])
    ok = same_names and not diff_files and outputs_match
    report(capsys, 8,
           ok, f"two pipeline runs: {len(files_a)} files byte-identical "
               f"(mismatches: {diff_files}), transcripts identical: {outputs_match}, "
               f"fused top1 {report_line['top1']:.4f}")
