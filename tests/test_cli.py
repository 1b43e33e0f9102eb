"""Command-line behavior: exit codes, determinism, end-to-end consistency."""

import contextlib
import errno
import io
import json
import math
import os
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clskit import cli, fileio, ids
from clskit.cli import main
from clskit.ensemble import OBJECTIVES, SCORE_TYPES
from clskit.fileio import read_labels, read_predictions, write_labels, write_predictions
from clskit.schedule import default_schedule, schedule_table

EIGHT_SAMPLE_SCORES = np.array(
    [
        [0.5, 0.3, 0.2],
        [0.3, 0.3, 0.4],
        [0.4, 0.4, 0.2],
        [0.2, 0.5, 0.3],
        [0.1, 0.2, 0.7],
        [0.6, 0.2, 0.2],
        [0.3, 0.4, 0.3],
        [0.2, 0.2, 0.6],
    ]
)
EIGHT_SAMPLE_LABELS = np.array([0, 2, 1, 1, 0, 0, 2, 2])
# oracle-run values for the fixture above (ties included on purpose)
EIGHT_SAMPLE_REPORT = {
    "top1": 0.625,
    "top5": 1.0,
    "mca": 0.611111111111111,
    "map": 0.7935185185185185,
    "mauc": 0.7972222222222222,
}


def write_config(tmp_path, name="run.json", **overrides):
    doc = {
        "epochs": 2,
        "seed": 3,
        "dataset": {"n_train": 40, "n_val": 40, "dims": 6, "classes": 3,
                    "separation": 1.0, "seed": 1},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def eight_sample_files(tmp_path):
    preds = tmp_path / "preds.csv"
    labels = tmp_path / "labels.csv"
    ids = [f"s{i}" for i in range(8)]
    write_predictions(str(preds), ids, EIGHT_SAMPLE_SCORES)
    write_labels(str(labels), ids, EIGHT_SAMPLE_LABELS)
    return str(preds), str(labels)


# -- train -------------------------------------------------------------

def test_train_writes_files_and_logs(tmp_path, capsys):
    config = write_config(tmp_path)
    out_train, out_val = str(tmp_path / "tr.csv"), str(tmp_path / "va.csv")
    code = main(["train", "--config", config, "--out-train", out_train,
                 "--out-val", out_val, "--val-labels", str(tmp_path / "vl.csv")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("epoch  0  lr 0.0001")
    ids, matrix = read_predictions(out_val)
    assert len(ids) == 40 and matrix.shape == (40, 3)
    assert ids[0] == "va00000"


def test_train_predicts_once_and_checks_no_id_list(tmp_path, capsys):
    # The val file is the last epoch's validation pass, so predict runs for
    # the train split alone; the ids are built as bytes, so none goes
    # through _check_ids.  They are the ids the f-string prints, and each
    # label file's equal its prediction file's.
    config = write_config(tmp_path)
    out = {name: str(tmp_path / f"{name}.csv") for name in ("tr", "va", "tl", "vl")}
    with mock.patch.object(cli, "predict", wraps=cli.predict) as predict, \
            mock.patch.object(ids, "_check_ids", wraps=ids._check_ids) as check_ids:
        assert main(["train", "--config", config, "--out-train", out["tr"],
                     "--out-val", out["va"], "--train-labels", out["tl"],
                     "--val-labels", out["vl"]]) == 0
    capsys.readouterr()
    assert predict.call_count == 1 and check_ids.call_count == 0
    for preds, labels, prefix in [("tr", "tl", "tr"), ("va", "vl", "va")]:
        pred_ids = read_predictions(out[preds])[0]
        assert pred_ids == [f"{prefix}{i:05d}" for i in range(40)]
        assert read_labels(out[labels])[0] == pred_ids


def test_train_default_config_runs_ten_epochs(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("{}", encoding="utf-8")  # all-defaults operating point
    code = main(["train", "--config", str(config),
                 "--out-train", str(tmp_path / "tr.csv"),
                 "--out-val", str(tmp_path / "va.csv")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert "lr 1e-05" in lines[-1]


def test_train_deterministic_over_reruns(tmp_path, capsys):
    config = write_config(tmp_path)
    paths = [(tmp_path / f"tr{k}.csv", tmp_path / f"va{k}.csv") for k in (1, 2)]
    for out_train, out_val in paths:
        assert main(["train", "--config", config, "--seed", "11",
                     "--out-train", str(out_train), "--out-val", str(out_val)]) == 0
    capsys.readouterr()
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_train_seed_flag_overrides_config(tmp_path, capsys):
    config = write_config(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["train", "--config", config, "--seed", "11",
                 "--out-train", a, "--out-val", str(tmp_path / "av.csv")]) == 0
    assert main(["train", "--config", config, "--seed", "12",
                 "--out-train", b, "--out-val", str(tmp_path / "bv.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_train_invalid_epsilon_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, epsilon=1.2)
    code = main(["train", "--config", config,
                 "--out-train", str(tmp_path / "t.csv"),
                 "--out-val", str(tmp_path / "v.csv")])
    assert code == 2
    assert "epsilon must be in [0, 1)" in capsys.readouterr().err


def test_train_missing_config_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "none.json"),
                 "--out-train", str(tmp_path / "t.csv"),
                 "--out-val", str(tmp_path / "v.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"epochs": 1.5},
    {"steps": 5},
    {"hidden_dim": 2.5},
    {"dataset": {"n_train": "300"}},
    {"epochs": True},
], ids=["float-epochs", "scalar-steps", "float-hidden-dim", "string-n-train", "bool-epochs"])
def test_train_config_of_the_wrong_json_type_exits_2(tmp_path, capsys, overrides):
    config = write_config(tmp_path, **overrides)
    out_train, out_val = tmp_path / "t.csv", tmp_path / "v.csv"
    code = main(["train", "--config", config, "--out-train", str(out_train),
                 "--out-val", str(out_val)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_train.exists() and not out_val.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_at_validation_names_the_epoch(tmp_path, capsys):
    # the one batch of epoch 0 makes the parameters non-finite, so the
    # end-of-epoch validation pass is the first to see it
    config = write_config(tmp_path, epochs=3, base_lr=1e308,
                          dataset={"n_train": 20, "n_val": 20, "dims": 3, "classes": 3})
    out_train, out_val = tmp_path / "t.csv", tmp_path / "v.csv"
    code = main(["train", "--config", config, "--out-train", str(out_train),
                 "--out-val", str(out_val)])
    assert code == 2
    assert capsys.readouterr().err == "error: epoch 0 validation: logits must be finite\n"
    assert not out_train.exists() and not out_val.exists()


# -- eval ----------------------------------------------------------------

def test_eval_json_matches_oracle_fixture(tmp_path, capsys):
    preds, labels = eight_sample_files(tmp_path)
    assert main(["eval", "--preds", preds, "--labels", labels, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == EIGHT_SAMPLE_REPORT


def test_eval_table_output(tmp_path, capsys):
    preds, labels = eight_sample_files(tmp_path)
    assert main(["eval", "--preds", preds, "--labels", labels]) == 0
    out = capsys.readouterr().out
    assert "top1    62.50" in out
    assert "mauc    0.797" in out


def test_eval_perfect_predictions(tmp_path, capsys):
    ids = ["a", "b", "c"]
    preds, labels = str(tmp_path / "p.csv"), str(tmp_path / "l.csv")
    write_predictions(preds, ids, np.eye(3)[[0, 1, 2]])
    write_labels(labels, ids, np.array([0, 1, 2]))
    assert main(["eval", "--preds", preds, "--labels", labels, "--json"]) == 0
    assert all(v == 1.0 for v in json.loads(capsys.readouterr().out).values())


def test_eval_id_mismatch_names_offender(tmp_path, capsys):
    preds, _ = eight_sample_files(tmp_path)
    labels = str(tmp_path / "other.csv")
    write_labels(labels, [f"s{i}" for i in range(1, 9)], EIGHT_SAMPLE_LABELS)
    assert main(["eval", "--preds", preds, "--labels", labels]) == 2
    assert "'s0'" in capsys.readouterr().err


def test_eval_names_a_label_id_without_predictions(tmp_path, capsys):
    preds, _ = eight_sample_files(tmp_path)
    labels = tmp_path / "extra.csv"
    labels.write_text("id,label\n" + "".join(f"s{i},0\n" for i in range(8)) + "c,0\n",
                      encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert main(["eval", "--preds", preds, "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == "error: id 'c' has a label but no predictions\n"
    assert sorted(tmp_path.iterdir()) == before


def test_eval_reorders_labels_to_prediction_order(tmp_path, capsys):
    preds, labels = eight_sample_files(tmp_path)
    shuffled = str(tmp_path / "shuffled.csv")
    order = [3, 7, 0, 5, 1, 6, 2, 4]
    write_labels(shuffled, [f"s{i}" for i in order], EIGHT_SAMPLE_LABELS[order])
    assert main(["eval", "--preds", preds, "--labels", shuffled, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == EIGHT_SAMPLE_REPORT


def test_eval_label_out_of_range_exits_2(tmp_path, capsys):
    ids = ["a", "b"]
    preds, labels = str(tmp_path / "p.csv"), str(tmp_path / "l.csv")
    write_predictions(preds, ids, np.array([[0.5, 0.5], [0.5, 0.5]]))
    write_labels(labels, ids, np.array([0, 7]))
    assert main(["eval", "--preds", preds, "--labels", labels]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_label_too_large_for_c_long_exits_2(tmp_path, capsys, command):
    preds, labels = str(tmp_path / "p.csv"), tmp_path / "l.csv"
    write_predictions(preds, ["a", "b"], np.array([[0.5, 0.5], [0.5, 0.5]]))
    labels.write_text("id,label\na,99999999999999999999\nb,0\n", encoding="utf-8")
    argv = {"eval": ["eval", "--preds", preds],
            "sweep": ["sweep", "--preds", preds, "--preds", preds]}[command]
    assert main(argv + ["--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert "label 99999999999999999999 out of range for 2 prediction columns" in err


@pytest.mark.parametrize("label", [2**63 - 1, 2**63, 2**64 + 1])
@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_label_past_int64_in_a_reordered_label_file_exits_2(tmp_path, capsys, command, label):
    # the label file lists the ids in another order, so the labels are
    # reordered before their range is named
    preds, labels = str(tmp_path / "p.csv"), tmp_path / "l.csv"
    write_predictions(preds, ["a", "b", "c"], np.full((3, 2), 0.5))
    labels.write_text(f"id,label\nc,1\na,{label}\nb,0\n", encoding="utf-8")
    argv = {"eval": ["eval", "--preds", preds],
            "sweep": ["sweep", "--preds", preds, "--preds", preds]}[command]
    assert main(argv + ["--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert f"label {label} out of range for 2 prediction columns" in err


def test_eval_parse_error_carries_line_number(tmp_path, capsys):
    preds = tmp_path / "p.csv"
    preds.write_text("id,c0,c1\na,0.5,x\n", encoding="utf-8")
    labels = str(tmp_path / "l.csv")
    write_labels(labels, ["a"], np.array([0]))
    assert main(["eval", "--preds", str(preds), "--labels", labels]) == 2
    assert ":2:" in capsys.readouterr().err


# -- fuse -----------------------------------------------------------------

def fused_setup(tmp_path, weights=(0.5, 0.5), score_type="prob"):
    rng = np.random.default_rng(50)
    ids = [f"s{i}" for i in range(6)]
    paths = []
    for k in range(len(weights)):
        m = np.stack([np.exp(z) / np.exp(z).sum() for z in rng.normal(size=(6, 3))])
        path = tmp_path / f"m{k}.csv"
        write_predictions(str(path), ids, m)
        paths.append(path.name)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"members": [{"path": p, "weight": w} for p, w in zip(paths, weights)],
                    "score_type": score_type}),
        encoding="utf-8",
    )
    return str(manifest)


def test_fuse_writes_stochastic_rows(tmp_path, capsys):
    manifest = fused_setup(tmp_path, weights=(0.1, 0.4, 0.25, 0.25))
    out = str(tmp_path / "fused.csv")
    assert main(["fuse", "--manifest", manifest, "--out", out]) == 0
    ids, matrix = read_predictions(out)
    assert ids == [f"s{i}" for i in range(6)]
    assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-9


def test_fuse_identical_members_reproduce_input(tmp_path, capsys):
    ids = [f"s{i}" for i in range(4)]
    m = np.array([[0.5, 0.3, 0.2]] * 4)
    for name in ("a.csv", "b.csv"):
        write_predictions(str(tmp_path / name), ids, m)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"members": [{"path": "a.csv", "weight": 0.5},
                                {"path": "b.csv", "weight": 0.5}]}),
        encoding="utf-8",
    )
    out = tmp_path / "fused.csv"
    assert main(["fuse", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_fuse_bad_weights_exit_2(tmp_path, capsys):
    manifest = fused_setup(tmp_path, weights=(0.6, 0.6))
    assert main(["fuse", "--manifest", manifest, "--out", str(tmp_path / "f.csv")]) == 2
    assert "sum to 1" in capsys.readouterr().err


def test_fuse_manifest_weight_of_the_wrong_json_type_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    doc = {"members": [{"path": "m.csv", "weight": None}, {"path": "m.csv", "weight": 0.5}]}
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["fuse", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {manifest}: member 'weight' must be float")


def test_fuse_id_mismatch_exits_2(tmp_path, capsys):
    manifest = fused_setup(tmp_path)
    ids = [f"t{i}" for i in range(6)]
    m = np.full((6, 3), 1.0 / 3.0)
    write_predictions(str(tmp_path / "m1.csv"), ids, m)  # different id scheme
    assert main(["fuse", "--manifest", manifest, "--out", str(tmp_path / "f.csv")]) == 2
    assert "id sequence" in capsys.readouterr().err


def test_fuse_output_too_large_to_print_exits_2_and_writes_nothing(tmp_path, capsys):
    # the row sums to 1, so the members pass as probabilities, but 1e300 has
    # no 9-decimal form
    (tmp_path / "m.csv").write_text("id,c0,c1,c2\na,1e300,-1e300,1\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"members": [{"path": "m.csv", "weight": 0.5},
                                {"path": "m.csv", "weight": 0.5}]}),
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    assert main(["fuse", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "too large to print" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "manifest.json"]


@pytest.mark.filterwarnings("error")
def test_logit_rows_past_the_float_range_fuse_and_sweep_without_a_warning(tmp_path, capsys):
    # softmax shifts such a row by its maximum, which overflows to -inf
    (tmp_path / "a.csv").write_text("id,c0,c1,c2\na,1.7e308,-1.7e308,1\nb,0.5,1,2\n",
                                    encoding="utf-8")
    (tmp_path / "b.csv").write_text("id,c0,c1,c2\na,1,2,3\nb,-1.7e308,1.7e308,0\n",
                                    encoding="utf-8")
    (tmp_path / "l.csv").write_text("id,label\na,0\nb,1\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"members": [{"path": "a.csv", "weight": 0.5},
                                {"path": "b.csv", "weight": 0.5}], "score_type": "logit"}),
        encoding="utf-8",
    )
    assert main(["fuse", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")]) == 0
    assert main(["sweep", "--preds", str(tmp_path / "a.csv"), "--preds", str(tmp_path / "b.csv"),
                 "--labels", str(tmp_path / "l.csv"), "--score-type", "logit",
                 "--resolution", "4", "--json"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_prob_rows_past_the_float_range_fail_with_one_error_line(tmp_path, capsys):
    # the row's float sum overflows; its exact sum, 1.7e308, is not 1 either
    (tmp_path / "a.csv").write_text("id,c0,c1,c2\na,1.7e308,1.7e308,-1.7e308\nb,0.5,0.25,0.25\n",
                                    encoding="utf-8")
    (tmp_path / "b.csv").write_text("id,c0,c1,c2\na,0.5,0.25,0.25\nb,0.5,0.25,0.25\n",
                                    encoding="utf-8")
    (tmp_path / "l.csv").write_text("id,label\na,0\nb,1\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"members": [{"path": "a.csv", "weight": 0.5},
                                {"path": "b.csv", "weight": 0.5}]}),
        encoding="utf-8",
    )
    for argv in (["fuse", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")],
                 ["sweep", "--preds", str(tmp_path / "a.csv"), "--preds",
                  str(tmp_path / "b.csv"), "--labels", str(tmp_path / "l.csv")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: member 0 rows must sum to 1 (score_type=prob)\n"
        assert captured.out == ""
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("base_lr", 1.7e308), ("separation", 1e300)])
def test_training_past_the_float_range_fails_with_one_error_line(tmp_path, capsys, key, value):
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "stage1.json"),
              encoding="utf-8") as handle:
        doc = json.load(handle)
    (doc["dataset"] if key == "separation" else doc)[key] = value
    config = tmp_path / "stage1.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["train", "--config", str(config), "--out-train", str(tmp_path / "t.csv"),
            "--out-val", str(tmp_path / "v.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 0 ") and err.endswith(": logits must be finite\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("out, code", [("missing_dir/x.csv", errno.ENOENT),
                                       ("a_dir", errno.EISDIR)])
def test_a_failed_write_names_the_target_and_leaves_nothing(tmp_path, capsys, out, code):
    # the file is written beside the target under a random name first; an
    # error names the target, as writing it directly would
    manifest = fused_setup(tmp_path)
    (tmp_path / "a_dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    target = str(tmp_path / out)
    errors = []
    for _ in range(2):
        assert main(["fuse", "--manifest", manifest, "--out", target]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == f"error: [Errno {code}] {os.strerror(code)}: {target!r}\n"
    assert errors[1] == errors[0]
    assert sorted(tmp_path.rglob("*")) == before


def test_fuse_unit_weights_match_member_end_to_end(tmp_path, capsys):
    manifest = fused_setup(tmp_path, weights=(1.0, 0.0))
    out = str(tmp_path / "fused.csv")
    assert main(["fuse", "--manifest", manifest, "--out", out]) == 0
    labels = str(tmp_path / "labels.csv")
    write_labels(labels, [f"s{i}" for i in range(6)], np.array([0, 1, 2, 0, 1, 2]))
    assert main(["eval", "--preds", out, "--labels", labels, "--json"]) == 0
    fused_report = capsys.readouterr().out
    assert main(["eval", "--preds", str(tmp_path / "m0.csv"),
                 "--labels", labels, "--json"]) == 0
    assert capsys.readouterr().out == fused_report


# -- sweep ------------------------------------------------------------------

def test_sweep_dominant_member_and_manifest(tmp_path, capsys):
    ids = ["a", "b"]
    good = np.array([[0.51, 0.49], [0.49, 0.51]])
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    write_predictions(str(tmp_path / "good.csv"), ids, good)
    write_predictions(str(tmp_path / "bad.csv"), ids, bad)
    labels = str(tmp_path / "l.csv")
    write_labels(labels, ids, np.array([0, 1]))
    emitted = str(tmp_path / "best.json")
    code = main(["sweep", "--preds", str(tmp_path / "good.csv"),
                 "--preds", str(tmp_path / "bad.csv"), "--labels", labels,
                 "--resolution", "10", "--json", "--emit-manifest", emitted])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["weights"] == [1.0, 0.0]
    assert result["score"] == 1.0
    from clskit.fileio import load_manifest

    manifest = load_manifest(emitted)
    assert manifest.paths()[0].endswith("good.csv")
    assert np.array_equal(manifest.weights(), [1.0, 0.0])


def test_sweep_score_at_least_each_member(tmp_path, capsys):
    rng = np.random.default_rng(51)
    ids = [f"s{i}" for i in range(20)]
    paths = []
    for k in range(3):
        m = np.stack([np.exp(z) / np.exp(z).sum() for z in rng.normal(size=(20, 4))])
        path = str(tmp_path / f"m{k}.csv")
        write_predictions(path, ids, m)
        paths.append(path)
    labels = str(tmp_path / "l.csv")
    write_labels(labels, ids, rng.integers(0, 4, size=20))
    args = ["sweep", "--labels", labels, "--resolution", "4", "--json"]
    for p in paths:
        args += ["--preds", p]
    assert main(args) == 0
    swept = json.loads(capsys.readouterr().out)["score"]
    for p in paths:
        assert main(["eval", "--preds", p, "--labels", labels, "--json"]) == 0
        assert swept >= json.loads(capsys.readouterr().out)["top1"]


def test_sweep_grid_overflow_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(52)
    ids = ["a", "b"]
    paths = []
    for k in range(5):
        m = np.stack([np.exp(z) / np.exp(z).sum() for z in rng.normal(size=(2, 2))])
        path = str(tmp_path / f"m{k}.csv")
        write_predictions(path, ids, m)
        paths.append(path)
    labels = str(tmp_path / "l.csv")
    write_labels(labels, ids, np.array([0, 1]))
    args = ["sweep", "--labels", labels, "--resolution", "99"]
    for p in paths:
        args += ["--preds", p]
    assert main(args) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("identical", [True, False])
def test_sweep_mauc_without_a_qualifying_class_exits_2(tmp_path, capsys, identical):
    # every label is class 0, so no class has a negative: identical members
    # score one point, distinct members every chunk of the grid
    rng = np.random.default_rng(53)
    ids = [f"s{i}" for i in range(6)]
    paths = []
    for k in range(2):
        m = np.stack([np.exp(z) / np.exp(z).sum() for z in rng.normal(size=(6, 3))])
        path = str(tmp_path / f"m{k}.csv")
        write_predictions(path, ids, m)
        paths.append(path)
    if identical:
        paths[1] = paths[0]
    labels = str(tmp_path / "l.csv")
    write_labels(labels, ids, np.zeros(6, dtype=int))
    args = ["sweep", "--labels", labels, "--resolution", "4", "--objective", "mauc"]
    for p in paths:
        args += ["--preds", p]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: mean_auc needs a class with both positives and negatives\n"
    )


def test_sweep_needs_two_members(tmp_path, capsys):
    preds, labels = eight_sample_files(tmp_path)
    assert main(["sweep", "--preds", preds, "--labels", labels]) == 2
    assert "two" in capsys.readouterr().err


# -- schedule ----------------------------------------------------------------

def test_schedule_default_table(capsys):
    assert main(["schedule"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "0\t0.0001"
    assert lines[2] == "2\t7e-05"
    assert lines[9] == "9\t1e-05"


def test_schedule_constant(capsys):
    assert main(["schedule", "--steps", "0", "--mults", "1", "--epochs", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0\t0.0001", "1\t0.0001", "2\t0.0001"]


def test_schedule_length_mismatch_exits_2(capsys):
    assert main(["schedule", "--steps", "0,2", "--mults", "1"]) == 2
    assert "multiplier" in capsys.readouterr().err


def test_schedule_non_ascending_exits_2(capsys):
    assert main(["schedule", "--steps", "0,4,2", "--mults", "1,0.5,0.1"]) == 2
    assert "ascending" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--base-lr", "1e-300", "--steps", "0", "--mults", "1e-300"],
     "step 0 (epoch 0): base_lr * multiplier = 0.0 is not a positive finite float"),
    (["--base-lr", "1e308", "--steps", "0,3", "--mults", "1,1e10"],
     "step 1 (epoch 3): base_lr * multiplier = inf is not a positive finite float"),
], ids=["zero", "inf"])
def test_schedule_rate_of_zero_or_inf_exits_2(capsys, argv, message):
    # each factor is a positive real; their product is not
    assert main(["schedule", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_train_rate_of_zero_exits_2_and_writes_nothing(tmp_path, capsys):
    config = write_config(tmp_path, base_lr=1e-300, steps=[0], mults=[1e-300])
    out_train, out_val = tmp_path / "tr.csv", tmp_path / "va.csv"
    code = main(["train", "--config", config, "--out-train", str(out_train),
                 "--out-val", str(out_val)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: step 0 (epoch 0): base_lr * multiplier = 0.0 is not a positive finite float\n"
    )
    assert not out_train.exists() and not out_val.exists()


def test_schedule_unparsable_flag_exits_2(capsys):
    assert main(["schedule", "--steps", "0;2", "--mults", "1"]) == 2
    assert "comma-separated" in capsys.readouterr().err


class _Full(Exception):
    pass


class _ShortStdout:
    """A stdout that keeps what it is written and fails past ``limit`` lines."""

    def __init__(self, limit):
        self.limit, self.text = limit, []

    def write(self, text):
        self.text.append(text)
        if "".join(self.text).count("\n") > self.limit:
            raise _Full

    def flush(self):
        pass


def test_schedule_streams_rows_of_a_huge_table(monkeypatch):
    # 10**20 rows would never fit in memory; the rows printed before stdout
    # gives up must be the table's first ones
    out = _ShortStdout(300)
    monkeypatch.setattr("sys.stdout", out)
    with pytest.raises(_Full):
        main(["schedule", "--epochs", "100000000000000000000"])
    lines = "".join(out.text).splitlines()[:300]
    table = schedule_table(default_schedule(), 300)
    assert lines == [f"{epoch}\t{lr:.10g}" for epoch, lr in table]


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.96 GiB for an array")

    monkeypatch.setattr(fileio, "synth_dataset", no_memory)
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"dataset": {"dims": 100000000}}))
    out_train, out_val = tmp_path / "tr.csv", tmp_path / "va.csv"
    assert main(["train", "--config", str(config),
                 "--out-train", str(out_train), "--out-val", str(out_val)]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 5.96 GiB for an array\n"
    assert not out_train.exists() and not out_val.exists()


def test_size_past_a_c_long_exits_2(tmp_path, capsys):
    # numpy raises OverflowError on the size before it allocates anything
    config = write_config(tmp_path, dataset={"n_train": 10**30})
    out_train, out_val = tmp_path / "tr.csv", tmp_path / "va.csv"
    assert main(["train", "--config", config,
                 "--out-train", str(out_train), "--out-val", str(out_val)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_train.exists() and not out_val.exists()


# -- parser-level behavior ---------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert main(["transmogrify"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["eval", "--preds", "x.csv"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_back_to_back_calls_share_no_parser_state(tmp_path, capsys):
    # one parser serves every call in a process; no flag carries over
    preds, labels = eight_sample_files(tmp_path)
    other = str(tmp_path / "other.csv")
    write_predictions(other, [f"s{i}" for i in range(8)], EIGHT_SAMPLE_SCORES[::-1])
    assert main(["eval", "--preds", preds, "--labels", labels, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == EIGHT_SAMPLE_REPORT
    assert main(["eval", "--preds", preds, "--labels", labels]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "top1    62.50"
    sweep = ["sweep", "--preds", preds, "--preds", other, "--labels", labels,
             "--resolution", "4", "--json"]
    assert main(sweep + ["--objective", "map"]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == "map"
    assert main(sweep) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["objective"] == "top1" and len(result["weights"]) == 2
    assert main(["eval", "--preds", preds]) == 2
    assert main(["eval", "--preds", preds, "--labels", labels, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == EIGHT_SAMPLE_REPORT


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["eval", "--help"]])
def test_help_is_the_same_bytes_on_every_call(argv, capsys):
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv)  # a parser of its own
    expected = capsys.readouterr().out
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


# -- fuzz: every input ends in exit 0 or 2 -------------------------------------
# Config JSON, manifest JSON, CSV bytes and flag sets for every subcommand.
# Most inputs are valid with at most one fault, so examples reach deep into
# each command.  Sizes (rows, dims, hidden units, epochs, resolution) stay
# small in every strategy, so no example allocates much or runs long; the
# huge ones are covered by the patched-MemoryError tests above.

size_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                      st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.just({}))
json_junk = st.one_of(size_junk, st.just(10**400), st.just(-1e308))
rare = st.sampled_from([True] + [False] * 11)  # uniform, unlike small integers


def damaged(draw, doc: dict, junk=json_junk) -> dict:
    """``doc``, sometimes with one value replaced by junk, one key dropped or
    an unknown key."""
    fault = draw(st.sampled_from(["none"] * 16 + ["value", "drop", "key"]))
    if fault == "value" and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(junk)
    elif fault == "drop" and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "key":
        doc["unknown"] = draw(json_junk)
    return doc


schedules = st.sampled_from([  # steps and mults of one length, or of two
    {}, {"steps": [0], "mults": [1.0]}, {"steps": [0, 1], "mults": [1, 0.5]},
    {"steps": [0, 2, 4, 6, 8], "mults": [1, 0.7, 0.5, 0.3, 0.1]}, {"steps": [1], "mults": [1]},
    {"steps": [0, 0], "mults": [1, 1]}, {"steps": [0], "mults": [0.0]}, {"steps": [0, 1]},
])


@st.composite
def run_configs(draw):
    # Junk for a field that sizes an allocation or a loop is never a big int.
    dataset = damaged(draw, draw(st.fixed_dictionaries({}, optional={
        "n_train": st.integers(2, 30),
        "n_val": st.integers(2, 30),
        "dims": st.integers(1, 6),
        "classes": st.integers(2, 5),
        "separation": st.floats(0, 10),
        "seed": st.integers(0, 2**64),
    })), size_junk)
    config = draw(st.fixed_dictionaries({}, optional={
        "epochs": st.integers(1, 3),
        "batch_size": st.integers(1, 50),
        "hidden_dim": st.integers(1, 8),
        "base_lr": st.floats(1e-6, 10),
        "epsilon": st.floats(0, 1),
        "gamma": st.floats(0, 3),
        "loss_form": st.sampled_from(["per_class_sum", "target_only", "x"]),
        "clamp_floor": st.sampled_from([1e-12, 1e-6, 0.0]),
        "freeze": st.booleans(),
        "seed": st.integers(0, 2**64),
        "dataset": st.just(dataset),
    }))
    return damaged(draw, {**config, **draw(schedules)}, size_junk)


@st.composite
def manifests(draw):
    weights = draw(st.sampled_from([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0], [0.25, 0.25, 0.5]] * 3
                                   + [[0.6, 0.6], [1.0], [None, 0.5], [[0.5], 0.5], [True, 0.5],
                                      [{}, 0.5], [10**400, 0.5]]))
    paths = st.sampled_from(["p0.csv", "p1.csv", "p2.csv"] * 4 + ["missing.csv"])
    members = [damaged(draw, {"path": draw(paths), "weight": w}) for w in weights]
    doc = {"members": members}
    if draw(st.booleans()):
        doc["score_type"] = draw(st.sampled_from(["prob", "logit"] * 4 + ["energy"]))
    return damaged(draw, doc)


@st.composite
def probability_rows(draw, num_classes):
    # thousandths that sum to exactly 1, printed as clskit prints them
    cuts = sorted(draw(st.lists(st.integers(0, 1000), min_size=num_classes - 1,
                                max_size=num_classes - 1)))
    return [f"{(b - a) / 1000:.9f}" for a, b in zip([0, *cuts], [*cuts, 1000])]


CSV_FAULTS = ["none"] * 24 + ["syntax", "id", "cell", "columns", "classes", "bytes"]
bad_cells = st.one_of(st.floats(-1e6, 1e6).map(repr), st.sampled_from(
    ["0.5", "-0.000000000", "nan", "inf", "1e999", "x", "", " 1", "\u0663", "+2", "-1",
     "99999999999999999999"]))


@st.composite
def csv_sets(draw):
    """Three prediction files and a label file that share their ids and class
    count, each sometimes with one fault: another float syntax (valid, but
    off the fixed-point kernel), a bad id, cell or column count, another
    class count, or arbitrary bytes."""
    rows, num_classes = draw(st.integers(2, 12)), draw(st.integers(2, 4))

    def csv(header, row, respell):
        fault = draw(st.sampled_from(CSV_FAULTS))
        if fault == "bytes":
            return draw(st.binary(max_size=20))
        width = draw(st.sampled_from([2, 3, 5])) if fault == "classes" else num_classes
        lines = [[f"s{i}", *draw(row(width))] for i in range(rows)]
        at = draw(st.integers(0, rows - 1))
        if fault == "syntax":
            lines = [[line[0], *map(respell, line[1:])] for line in lines]
        elif fault == "id":
            lines[at][0] = draw(st.sampled_from(["", "s0", "t"]))
        elif fault == "cell":
            lines[at][-1] = draw(bad_cells)
        elif fault == "columns":
            lines[at].pop()
        return (header(width) + "".join(",".join(line) + "\n" for line in lines)).encode()

    preds = [csv(lambda c: "id," + ",".join(f"c{j}" for j in range(c)) + "\n", probability_rows,
                 lambda cell: str(float(cell))) for _ in range(3)]
    labels = csv(lambda c: "id,label\n",
                 lambda c: st.integers(0, c - 1).map(lambda label: [str(label)]),
                 lambda cell: "+" + cell)
    return preds, labels


# Names a flag can point at: "dir" is a directory, "missing.csv" is never
# written.
FILES = ["p0.csv", "p1.csv", "p2.csv", "labels.csv", "run.json", "m.json", "missing.csv",
         "dir", "out.csv", "out2.csv", "emit.json"]


@st.composite
def argvs(draw):
    def flag(first, *others):  # rarely one of the others
        return draw(st.sampled_from(others)) if others and draw(rare) else first

    command = draw(st.sampled_from(["train", "eval", "fuse", "sweep", "schedule"]))
    if command == "train":
        argv = ["--config", flag("run.json", "m.json", "missing.csv"),
                "--out-train", flag("out.csv", "dir"), "--out-val", flag("out2.csv", "out.csv")]
        for name, value in [("--train-labels", "labels.csv"), ("--val-labels", "emit.json"),
                            ("--seed", flag("3", "0", "-1", "x", str(2**64)))]:
            if draw(st.booleans()):
                argv += [name, value]
    elif command == "eval":
        argv = ["--preds", flag(draw(st.sampled_from(["p0.csv", "p1.csv"])), "missing.csv",
                                "labels.csv", "dir"),
                "--labels", flag("labels.csv", "p0.csv", "missing.csv")]
        argv += ["--json"] * draw(st.integers(0, 1))
    elif command == "fuse":
        argv = ["--manifest", flag("m.json", "run.json", "missing.csv"),
                "--out", flag("out.csv", "dir")]
    elif command == "sweep":
        count = flag(2, 3, 1)
        names = [flag(f"p{k}.csv", "missing.csv", "labels.csv") for k in range(count)]
        argv = [arg for name in names for arg in ("--preds", name)]
        argv += ["--labels", flag("labels.csv", "p0.csv"),
                 "--resolution", flag(draw(st.sampled_from("1245")), "-1", "0", "x"),
                 "--objective", flag(draw(st.sampled_from(OBJECTIVES)), "bad"),
                 "--score-type", flag(draw(st.sampled_from(SCORE_TYPES)), "bad")]
        argv += ["--json"] * draw(st.integers(0, 1))
        argv += ["--emit-manifest", flag("emit.json", "dir")] * draw(st.integers(0, 1))
    else:
        argv = ["--base-lr", flag("1e-4", "0", "-1", "nan", "inf", "x"),
                "--steps", flag("0,2,4,6,8", "0", "0,0", "1,2", "", "0;2", "0,x"),
                "--mults", flag("1,0.7,0.5,0.3,0.1", "1", "1,2", "", "nan"),
                "--epochs", flag(draw(st.sampled_from(["1", "3", "12"])), "-1", "0", "x")]
    if draw(rare):  # a flag or value dropped
        del argv[draw(st.integers(0, len(argv) - 1))]
    return [command, *argv]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(argv=argvs(), csvs=csv_sets(), run_config=run_configs(), manifest=manifests(),
       json_form=st.sampled_from(["object"] * 22 + ["deep", "bytes", "other"]),
       raw_json=st.binary(max_size=12), junk=json_junk)
def test_main_exits_0_or_2_without_a_traceback(fuzz_dir, argv, csvs, run_config, manifest,
                                               json_form, raw_json, junk):
    shutil.rmtree(fuzz_dir)
    (fuzz_dir / "dir").mkdir(parents=True)
    preds, label_csv = csvs
    for k, data in enumerate(preds):
        (fuzz_dir / f"p{k}.csv").write_bytes(data)
    (fuzz_dir / "labels.csv").write_bytes(label_csv)
    (fuzz_dir / "run.json").write_text(json.dumps(run_config), encoding="utf-8")
    (fuzz_dir / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    for name in ["run.json", "m.json"]:
        if json_form == "bytes":  # that may not be JSON at all
            (fuzz_dir / name).write_bytes(raw_json)
        elif json_form == "other":  # JSON, but not an object
            (fuzz_dir / name).write_text(json.dumps(junk), encoding="utf-8")
        elif json_form == "deep":  # nested past the recursion limit
            (fuzz_dir / name).write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = [str(fuzz_dir / arg) if arg in FILES else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: ")


# -- fuzz: values at the ends of the float range --------------------------------
# Cells near +-1.7e308, and configs whose base_lr, mults, separation and gamma
# reach the ends of the float range, on every subcommand with well-formed flags.
# A run either succeeds quietly, printing only positive finite learning rates,
# or fails with one error line; pytest turns any warning into a failure.

FLOAT_MAX = float(np.finfo(float).max)
near_max = st.floats(1e307, FLOAT_MAX).flatmap(lambda v: st.sampled_from([v, -v]))
tiny_or_huge = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-160, 1e150, 1e300, FLOAT_MAX]),
                         st.floats(5e-324, FLOAT_MAX))


@st.composite
def extreme_csvs(draw):
    """Three prediction files and a label file: one-decimal cells, some of them
    near +-1.7e308."""
    rows, num_classes = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    cell = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), near_max)
    ids = [f"s{i}" for i in range(rows)]
    header = "id," + ",".join(f"c{j}" for j in range(num_classes)) + "\n"
    preds = [header + "".join(
        f"{i}," + ",".join(repr(draw(cell)) for _ in range(num_classes)) + "\n" for i in ids)
        for _ in range(3)]
    labels = "id,label\n" + "".join(
        f"{i},{draw(st.integers(0, num_classes - 1))}\n" for i in ids)
    return preds, labels


@st.composite
def extreme_configs(draw):
    mults = draw(st.lists(tiny_or_huge, min_size=1, max_size=3))
    return {
        "epochs": draw(st.integers(1, 2)),
        "batch_size": 4,
        "hidden_dim": 3,
        "base_lr": draw(tiny_or_huge),
        "steps": list(range(len(mults))),
        "mults": mults,
        "gamma": draw(st.one_of(st.just(0.0), tiny_or_huge)),
        "dataset": {"n_train": 8, "n_val": 4, "dims": 2, "classes": 3,
                    "separation": draw(st.one_of(st.just(0.0), tiny_or_huge)), "seed": 1},
    }


@st.composite
def extreme_argvs(draw):
    command = draw(st.sampled_from(["train", "eval", "fuse", "sweep", "schedule"]))
    if command == "train":
        return [command, "--config", "run.json", "--out-train", "out.csv", "--out-val", "out2.csv"]
    if command == "eval":
        return [command, "--preds", draw(st.sampled_from(["p0.csv", "p1.csv"])),
                "--labels", "labels.csv", "--json"]
    if command == "fuse":
        return [command, "--manifest", "m.json", "--out", "out.csv"]
    if command == "sweep":
        return [command, "--preds", "p0.csv", "--preds", "p1.csv", "--preds", "p2.csv",
                "--labels", "labels.csv", "--resolution", draw(st.sampled_from("124")),
                "--objective", draw(st.sampled_from(OBJECTIVES)),
                "--score-type", draw(st.sampled_from(SCORE_TYPES))]
    mults = draw(st.lists(tiny_or_huge, min_size=1, max_size=3))
    return [command, "--base-lr", repr(draw(tiny_or_huge)),
            "--steps", ",".join(str(e) for e in range(len(mults))),
            "--mults", ",".join(map(repr, mults)), "--epochs", draw(st.sampled_from("13"))]


def printed_rates(command, out):
    """The learning rates that ``train`` or ``schedule`` printed."""
    if command == "train":
        return [float(line.split()[3]) for line in out.splitlines()]
    if command == "schedule":
        return [float(line.split("\t")[1]) for line in out.splitlines()]
    return []


@pytest.fixture(scope="module")
def extreme_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("extreme")


@settings(max_examples=200)
@given(argv=extreme_argvs(), csvs=extreme_csvs(), run_config=extreme_configs(),
       score_type=st.sampled_from(SCORE_TYPES))
def test_values_at_the_float_range_exit_0_quietly_or_2_with_one_error_line(
        extreme_dir, argv, csvs, run_config, score_type):
    shutil.rmtree(extreme_dir)
    extreme_dir.mkdir(parents=True)
    preds, labels = csvs
    for k, text in enumerate(preds):
        (extreme_dir / f"p{k}.csv").write_text(text, encoding="utf-8")
    (extreme_dir / "labels.csv").write_text(labels, encoding="utf-8")
    (extreme_dir / "run.json").write_text(json.dumps(run_config), encoding="utf-8")
    manifest = {"members": [{"path": "p0.csv", "weight": 0.5}, {"path": "p1.csv", "weight": 0.5}],
                "score_type": score_type}
    (extreme_dir / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    names = {"p0.csv", "p1.csv", "p2.csv", "labels.csv", "run.json", "m.json", "out.csv",
             "out2.csv"}
    argv = [str(extreme_dir / arg) if arg in names else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
        for lr in printed_rates(argv[0], out.getvalue()):
            assert 0.0 < lr < math.inf
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
