"""Prediction/label CSV round-trips, config and manifest parsing."""

import contextlib
import json
import math
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clskit import fileio
from clskit.cli import main
from clskit.ensemble import EnsembleManifest, EnsembleMember
from clskit.fileio import (
    DatasetSpec,
    RunConfig,
    SampleIds,
    load_manifest,
    load_run_config,
    read_labels,
    read_predictions,
    write_labels,
    write_manifest,
    write_predictions,
)
from clskit.numerics import softmax
from clskit.schedule import FreezePolicy


def sample_matrix(rng, n=7, num_classes=3):
    return np.stack([softmax(rng.normal(size=num_classes)) for _ in range(n)])


# -- prediction files ------------------------------------------------------

def test_predictions_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    matrix = sample_matrix(rng)
    ids = [f"s{i}" for i in range(7)]
    path = tmp_path / "preds.csv"
    write_predictions(str(path), ids, matrix)
    got_ids, got = read_predictions(str(path))
    assert got_ids == ids
    # sum-preserving rounding moves a value by at most one printed unit
    assert np.max(np.abs(got - matrix)) <= 1e-9
    # and keeps row sums where per-value rounding alone would not
    assert np.max(np.abs(got.sum(axis=1) - matrix.sum(axis=1))) <= 5e-10


def test_predictions_file_layout(tmp_path):
    path = tmp_path / "preds.csv"
    write_predictions(str(path), ["a", "b"], np.array([[0.25, 0.75], [1.0, 0.0]]))
    text = path.read_bytes().decode("utf-8")
    assert text == "id,c0,c1\na,0.250000000,0.750000000\nb,1.000000000,0.000000000\n"
    # ids of other lengths, in bytes too, and cells of other widths in one block
    matrix = np.array([[0.25, 0.75], [-1.5, 12.25], [1.0, 0.0]])
    write_predictions(str(path), ["a", "bb", "é日🎧"], matrix)
    text = path.read_bytes().decode("utf-8")
    assert text == ("id,c0,c1\na,0.250000000,0.750000000\nbb,-1.500000000,12.250000000\n"
                    "é日🎧,1.000000000,0.000000000\n")


def test_write_predictions_deterministic(tmp_path):
    rng = np.random.default_rng(41)
    matrix = sample_matrix(rng)
    ids = [f"s{i}" for i in range(7)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_predictions(str(p1), ids, matrix)
    write_predictions(str(p2), ids, matrix)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_predictions_validation(tmp_path):
    path = str(tmp_path / "x.csv")
    m = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        write_predictions(path, [], m)  # id count mismatch
    with pytest.raises(ValueError):
        write_predictions(path, ["a,b"], m)  # comma in id
    with pytest.raises(ValueError):
        write_predictions(path, [""], m)
    with pytest.raises(ValueError):
        write_predictions(path, ["a", "a"], np.tile(m, (2, 1)))  # duplicate


def test_write_predictions_rejects_an_id_with_a_newline(tmp_path):
    # the reader would split the id's row in two and reject the file
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=r"^sample id must not contain a newline, got 'a\\nb'$"):
        write_predictions(str(path), ["c", "a\nb"], np.full((2, 2), 0.5))
    assert not path.exists()
    for bad in ["", "a,\nb"]:  # empty and comma ids keep their message
        with pytest.raises(ValueError, match="^sample id must be non-empty and comma-free"):
            write_predictions(str(path), ["c", bad], np.full((2, 2), 0.5))


def test_read_predictions_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"

    def expect_error(text, fragment):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_predictions(str(path))
        assert fragment in str(err.value)

    expect_error("id,c0\na,0.5\n", "header")  # only one class column
    expect_error("id,c1,c0\na,0.5,0.5\n", "header")  # wrong column names
    expect_error("id,c0,c1\n", "no data rows")
    expect_error("id,c0,c1\na,0.5\n", ":2:")  # missing column
    expect_error("id,c0,c1\na,0.5,0.5\nb,x,0.5\n", ":3:")  # bad number
    expect_error("id,c0,c1\na,0.5,0.5\na,0.5,0.5\n", "duplicate")
    expect_error("id,c0,c1\na,inf,0.5\n", "non-finite")
    expect_error("id,c0,c1\n,0.5,0.5\n", "empty sample id")


# -- label files -------------------------------------------------------------

def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    ids = ["a", "b", "c"]
    write_labels(str(path), ids, np.array([0, 2, 1]))
    got_ids, got = read_labels(str(path))
    assert got_ids == ids
    assert got.tolist() == [0, 2, 1]
    assert path.read_text(encoding="utf-8") == "id,label\na,0\nb,2\nc,1\n"


def test_read_labels_errors(tmp_path):
    path = tmp_path / "bad.csv"

    def expect_error(text, fragment):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_labels(str(path))
        assert fragment in str(err.value)

    expect_error("id;label\na;0\n", "header")
    expect_error("id,label\n", "no data rows")
    expect_error("id,label\na,0,9\n", ":2:")
    expect_error("id,label\na,1.5\n", "bad label")
    expect_error("id,label\na,-1\n", ">= 0")
    expect_error("id,label\na,0\na,1\n", "duplicate")


def test_write_labels_rejects_negative(tmp_path):
    with pytest.raises(ValueError):
        write_labels(str(tmp_path / "x.csv"), ["a"], np.array([-1]))


@pytest.mark.parametrize("labels, message", [
    ([0.5, 1.7], "labels must be integers"),  # was truncated to 0, 1
    (np.array(["1", "2"]), "labels must be integers"),  # was parsed to 1, 2
    (np.array([0, 2**70], dtype=object), r"labels must be below 2\*\*63"),  # was OverflowError
])
def test_write_labels_rejects_labels_that_are_not_integers(tmp_path, labels, message):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_labels(str(path), ["a", "b"], labels)
    assert not path.exists()


def test_write_labels_rejects_ids_and_labels_of_two_lengths(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="^3 ids for 2 labels$"):
        write_labels(str(path), ["a", "b", "c"], np.array([0, 1]))
    assert not path.exists()


def test_write_labels_rejects_an_id_with_a_newline(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=r"^sample id must not contain a newline, got 'a\\nb'$"):
        write_labels(str(path), ["a\nb", "c"], np.array([0, 1]))
    assert not path.exists()


# -- run configs -------------------------------------------------------------

def test_run_config_defaults_are_the_full_recipe():
    cfg = RunConfig()
    assert cfg.epochs == 10
    assert cfg.base_lr == 1e-4
    assert cfg.steps == (0, 2, 4, 6, 8)
    assert cfg.mults == (1.0, 0.7, 0.5, 0.3, 0.1)
    assert cfg.epsilon == 0.06
    assert cfg.gamma == 0.3
    tc = cfg.to_train_config()
    assert tc.loss.epsilon == 0.06
    assert tc.freeze is FreezePolicy.UNFROZEN


def test_run_config_datasets_share_geometry():
    tr, va = RunConfig(dataset=DatasetSpec(n_train=40, n_val=20)).make_datasets()
    assert tr.n == 40 and va.n == 20
    assert tr.dims == va.dims and tr.num_classes == va.num_classes
    assert not np.array_equal(tr.features[:20], va.features)


def test_load_run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "epochs": 3,
                "base_lr": 0.001,
                "steps": [0, 1],
                "mults": [1.0, 0.5],
                "epsilon": 0.0,
                "gamma": 0.0,
                "freeze": True,
                "seed": 9,
                "dataset": {"n_train": 30, "n_val": 30, "classes": 3},
            }
        ),
        encoding="utf-8",
    )
    cfg = load_run_config(str(path))
    assert cfg.epochs == 3
    assert cfg.freeze is True
    assert cfg.dataset.n_train == 30
    assert cfg.batch_size == 32  # untouched default


def test_load_run_config_takes_ints_for_floats_and_lists_for_tuples(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"base_lr": 1, "steps": [0, 3], "mults": [1, 0.5],
                                "dataset": {"separation": 2}}), encoding="utf-8")
    cfg = load_run_config(str(path))
    assert (cfg.base_lr, cfg.steps, cfg.mults) == (1, (0, 3), (1, 0.5))
    assert cfg.dataset.separation == 2


def test_load_run_config_rejects_bad_documents(tmp_path):
    path = tmp_path / "run.json"

    def expect_error(doc, fragment):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_run_config(str(path))
        assert fragment in str(err.value)

    expect_error({"epochz": 3}, "unknown config keys")
    expect_error({"dataset": {"size": 3}}, "unknown dataset keys")
    expect_error({"epsilon": 1.2}, "epsilon")
    expect_error({"gamma": -1.0}, "gamma")
    expect_error({"steps": [0, 2], "mults": [1.0]}, "multiplier")
    expect_error({"dataset": {"n_train": 2, "classes": 4}}, "one sample per class")
    expect_error([1, 2], "JSON object")
    expect_error({"dataset": [1]}, "'dataset' must be a JSON object")
    expect_error({"freeze": 1}, "'freeze' must be bool, got 1")
    expect_error({"mults": [1.0, "0.5"]}, "'mults' must be a list of float")
    expect_error({"loss_form": 3}, "'loss_form' must be str")
    expect_error({"dataset": {"classes": 3.0}}, "'classes' must be int, got 3.0")


# -- manifests ----------------------------------------------------------------

def test_manifest_round_trip_relative_paths(tmp_path):
    nested = tmp_path / "work"
    nested.mkdir()
    manifest_path = nested / "best.json"
    write_manifest(
        str(manifest_path),
        [str(nested / "a.csv"), str(nested / "b.csv")],
        [0.25, 0.75],
        "prob",
    )
    stored = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert [m["path"] for m in stored["members"]] == ["a.csv", "b.csv"]
    loaded = load_manifest(str(manifest_path))
    assert loaded.paths() == [str(nested / "a.csv"), str(nested / "b.csv")]
    assert np.array_equal(loaded.weights(), [0.25, 0.75])
    assert loaded.score_type == "prob"


def test_load_manifest_rejects_bad_documents(tmp_path):
    path = tmp_path / "m.json"

    def expect_error(doc, fragment):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(str(path))
        assert fragment in str(err.value)

    expect_error({"members": "nope"}, "must be a list")
    expect_error({"members": [{"path": "a"}]}, "'path' and 'weight'")
    expect_error(
        {"members": [{"path": "a", "weight": 0.6}, {"path": "b", "weight": 0.6}]},
        "sum to 1",
    )
    expect_error(
        {
            "members": [{"path": "a", "weight": 0.5}, {"path": "b", "weight": 0.5}],
            "score_type": "energy",
        },
        "score_type",
    )
    expect_error({"members": [], "extra": 1}, "unknown manifest keys")
    for weight in [None, [0.5], True, 10**400]:
        expect_error(
            {"members": [{"path": "a", "weight": weight}, {"path": "b", "weight": 0.5}]},
            f"{path}: member 'weight' must be float, got {weight!r}",
        )
    expect_error({"members": [{"path": 3, "weight": 0.5}, {"path": "b", "weight": 0.5}]},
                 f"{path}: member 'path' must be str, got 3")
    expect_error({"score_type": "prob"}, f"{path}: manifest must have 'members'")


def test_write_manifest_rejects_bad_score_type(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(str(tmp_path / "m.json"), ["a", "b"], [0.5, 0.5], "energy")


def test_write_manifest_rejects_paths_and_weights_of_unequal_counts(tmp_path):
    path = tmp_path / "m.json"
    for paths, weights in [(["a.csv", "b.csv", "c.csv"], [0.5, 0.5]),
                           (["a.csv", "b.csv"], [0.25, 0.25, 0.5])]:
        message = f"^{len(paths)} member paths for {len(weights)} weights$"
        with pytest.raises(ValueError, match=message):
            write_manifest(str(path), paths, weights, "prob")
        assert not path.exists()


def test_json_nested_past_the_recursion_limit_is_a_value_error_naming_the_file(tmp_path):
    path = tmp_path / "deep.json"
    for text in ["[" * 100_000, '{"members": ' + "[" * 100_000 + "]" * 100_000 + "}"]:
        path.write_text(text, encoding="utf-8")
        message = f"^{re.escape(str(path))}: JSON nested too deeply$"
        for load in (load_run_config, load_manifest):
            with pytest.raises(ValueError, match=message):
                load(str(path))


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("manifests")
    (directory / "work").mkdir()
    return directory


simplex_weights = st.lists(st.integers(0, 20), min_size=1, max_size=5).filter(sum).map(
    lambda parts: [part / sum(parts) for part in parts])


@given(weights=simplex_weights | st.lists(st.floats(), max_size=5),
       score_type=st.sampled_from(["prob", "logit", "energy"]), data=st.data())
def test_written_manifests_load_back_bit_for_bit(manifest_dir, weights, score_type, data):
    # Members under the manifest's directory, beside it and above it, given
    # to the writer as absolute paths or relative to the working directory.
    manifest = manifest_dir / "work" / "m.json"
    targets = [str(manifest_dir / data.draw(st.sampled_from(["work", "work/sub", "other", "."]))
                   / f"p{k}.csv") for k in range(len(weights))]
    given_paths = [data.draw(st.sampled_from([target, os.path.relpath(target)]))
                   for target in targets]
    try:
        EnsembleManifest(tuple(EnsembleMember(p, w) for p, w in zip(given_paths, weights)),
                         score_type)
    except ValueError:
        with pytest.raises(ValueError):
            write_manifest(str(manifest), given_paths, weights, score_type)
        return
    write_manifest(str(manifest), given_paths, weights, score_type)
    stored = json.loads(manifest.read_text(encoding="utf-8"))
    assert not any(os.path.isabs(member["path"]) for member in stored["members"])
    loaded = load_manifest(str(manifest))
    assert loaded.weights().tobytes() == np.array(weights).tobytes()
    assert loaded.score_type == score_type
    assert [os.path.normpath(p) for p in loaded.paths()] == targets
    assert all(os.path.isabs(p) for p in loaded.paths())


# -- block-wise reading and writing against the per-line implementations ------
# The oracles below are verbatim copies of the line-by-line readers and the
# per-row formatter that the batched code must match.  Every property runs at
# several block sizes, so files span many blocks and blocks fail at every
# position.

_ORACLE_UNIT = 10**9


def oracle_format_row(row):
    scaled = [v * _ORACLE_UNIT for v in row]
    base = [math.floor(u) for u in scaled]
    short = round(math.fsum(scaled)) - sum(base)
    by_remainder = sorted(range(len(base)), key=lambda j: (base[j] - scaled[j], j))
    bump = set(by_remainder[:short])
    cells = []
    for j, b in enumerate(base):
        units = b + (1 if j in bump else 0)
        sign = "-" if units < 0 else ""
        mag = abs(units)
        cells.append(f"{sign}{mag // _ORACLE_UNIT}.{mag % _ORACLE_UNIT:09d}")
    return cells


def oracle_read_predictions(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}:1: empty prediction file")
    header = lines[0].split(",")
    if header[0] != "id" or len(header) < 3 or any(
        name != f"c{j}" for j, name in enumerate(header[1:])
    ):
        raise ValueError(f"{path}:1: header must be 'id,c0,...,c{{C-1}}' with C >= 2")
    num_classes = len(header) - 1
    if len(lines) < 2:
        raise ValueError(f"{path}:1: prediction file has no data rows")
    ids = []
    rows = np.empty((len(lines) - 1, num_classes))
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != num_classes + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {num_classes + 1} columns, got {len(fields)}"
            )
        sample_id = fields[0]
        if not sample_id:
            raise ValueError(f"{path}:{lineno}: empty sample id")
        if sample_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        ids.append(sample_id)
        for j, text in enumerate(fields[1:]):
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad number {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {text!r}")
            rows[lineno - 2, j] = value
    return ids, rows


def oracle_read_labels(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "id,label":
        raise ValueError(f"{path}:1: header must be 'id,label'")
    ids = []
    labels = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(fields)}")
        sample_id, text = fields
        if not sample_id:
            raise ValueError(f"{path}:{lineno}: empty sample id")
        if sample_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        if not re.fullmatch(r"[+-]?\d+", text):
            raise ValueError(f"{path}:{lineno}: bad label {text!r}")
        label = int(text)
        if label < 0:
            raise ValueError(f"{path}:{lineno}: label must be >= 0, got {label}")
        ids.append(sample_id)
        labels.append(label)
    if not ids:
        raise ValueError(f"{path}:1: label file has no data rows")
    return ids, labels


def outcome(read, path):
    """What a reader returns, or the message of the ValueError it raises;
    float values compare by their bits, integer or object labels as a list."""
    try:
        ids, values = read(path)
    except ValueError as err:
        return "error", str(err)
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return ids, values.shape, values.tobytes()
    if isinstance(values, np.ndarray):
        return ids, values.tolist()
    return ids, values


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return str(tmp_path_factory.mktemp("blocks") / "file.csv")


CHUNKS = [1, 2, 3, 5, 8, 64, fileio.CHUNK_ELEMENTS]
chunk_sizes = st.sampled_from(CHUNKS)
# A small id pool makes duplicates common; the odd texts are ones float(),
# int() or the label pattern treat specially.
ids_text = st.sampled_from(["a", "b", "c", "s1", "s2", "", " a", "id", "\r", "é"])
number_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(width=32).map(lambda v: f"{v:.9f}"),
    st.sampled_from(["0.5", "-0", "1e999", "nan", "inf", "-Infinity", "1_0", " 2.5 ",
                     "0x1p3", "", "x", "1.5\r", "٣", "+.5", "1e-400"]),
)
label_text = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["+3", "-0", "007", "1.0", "", " 1", "1\r", "٣", "²", "1e3", "x"]),
)


def csv_text(header, line_fields):
    return st.lists(line_fields, max_size=14).map(
        lambda rows: header + "".join(",".join(row) + "\n" for row in rows))


def prediction_lines(num_classes):
    # usually the right column count, sometimes one too few or too many
    widths = st.sampled_from([num_classes] * 6 + [num_classes - 1, num_classes + 1])
    return widths.flatmap(
        lambda w: st.tuples(ids_text, st.lists(number_text, min_size=w, max_size=w))
    ).map(lambda t: [t[0], *t[1]])


prediction_files = st.one_of(
    st.integers(2, 4).flatmap(lambda c: csv_text(
        "id," + ",".join(f"c{j}" for j in range(c)) + "\n", prediction_lines(c))),
    st.text(alphabet="id,c01.5\n-x", max_size=40),  # arbitrary text, headers included
)
label_files = st.one_of(
    csv_text("id,label\n", st.one_of(
        st.tuples(ids_text, label_text).map(list),
        st.lists(st.sampled_from(["a", "1", ""]), max_size=3),
    )),
    st.text(alphabet="id,label01\n-+", max_size=40),
)


@given(text=prediction_files, chunk=chunk_sizes)
def test_read_predictions_matches_line_by_line_reader(scratch_csv, text, chunk):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
        got = outcome(read_predictions, scratch_csv)
    assert got == outcome(oracle_read_predictions, scratch_csv)


@given(text=label_files, chunk=chunk_sizes)
def test_read_labels_matches_line_by_line_reader(scratch_csv, text, chunk):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
        got = outcome(read_labels, scratch_csv)
    assert got == outcome(oracle_read_labels, scratch_csv)


def test_readers_report_the_first_bad_line_of_a_later_block(tmp_path):
    path = tmp_path / "p.csv"
    rows = [f"s{i},0.5,0.5" for i in range(40)]
    rows[33] = "s33,0.5,x"
    rows[37] = "s1,0.5,0.5"  # also bad, but later
    path.write_text("id,c0,c1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", 8):
        with pytest.raises(ValueError, match=r":35: bad number 'x'$"):
            read_predictions(str(path))
    path.write_text("id,label\n" + "".join(f"s{i % 30},1\n" for i in range(40)), encoding="utf-8")
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", 8):
        with pytest.raises(ValueError, match=r":32: duplicate sample id 's0'$"):
            read_labels(str(path))


# Files of the form clskit writes, read from bytes by the fixed-point kernel,
# with the near misses it must hand to the general parser: other decimal
# counts, integer parts past 6 digits, signs and bytes the kernel must not
# read as digits or as the point, ids past ASCII, blank lines and a missing
# final newline.
def digits(low, high):
    return st.text("0123456789", min_size=low, max_size=high)


fixed_cells = st.one_of(
    st.builds("{}{}.{}".format, st.sampled_from(["", "-"]), digits(1, 6), digits(9, 9)),
    st.sampled_from(["-0.000000000", "0.000000000", "1.000000000", "999999.999999999",
                     "-999999.999999999", "000000.000000001"]),
)


def one_byte_replaced(cells, chars):
    return st.tuples(cells, st.integers(0, 18), st.sampled_from(list(chars))).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])


near_miss_cells = st.one_of(
    one_byte_replaced(fixed_cells, ":/.+-e \r٣0"),  # '0' in the point's slot drops the point
    st.builds("{}{}.{}".format, st.sampled_from(["", "-", "+", " "]), digits(1, 8),
              digits(8, 10)),
    st.builds("{}{}.{}".format, st.sampled_from(["", "-"]), digits(7, 8), digits(9, 9)),
    digits(11, 17),
    st.sampled_from(["", "-", ".000000000", "-.000000000", "1.", "1e-9", "1_0.000000000",
                     "٣.000000000", "0.000000000\r", "0.000000000 "]),
)
fixed_ids = st.text(alphabet="ab\xe9名\r ", min_size=1, max_size=3)


def damaged(draw, header, lines, misses, kinds=()):
    """The file of ``header`` and ``lines`` (each an id and its cells), as it
    is or with one kind of damage."""
    ids = [line[0] for line in lines]
    damage = draw(st.sampled_from(["none"] * 4 + ["cell"] * 3
                                  + ["id", "blank", "columns", "end", *kinds]))
    row = draw(st.integers(0, len(lines) - 1))
    if damage == "cell":
        lines[row][draw(st.integers(1, len(lines[row]) - 1))] = draw(misses)
    elif damage == "id":  # empty, or a repeat of another line's
        lines[row][0] = draw(st.sampled_from(["", *ids]))
    elif damage == "blank":
        lines.insert(row, [""])
    elif damage == "columns":  # one line a cell short, another a cell long
        moved = lines[row].pop()
        lines[draw(st.integers(0, len(lines) - 1))].append(moved)
    elif damage == "shift":  # a comma swapped with a neighbour: the line keeps its length
        line = list(",".join(lines[row]))
        comma = draw(st.sampled_from([k for k, char in enumerate(line) if char == ","]))
        other = comma + draw(st.sampled_from([-1, 1]))
        line[comma], line[other] = line[other], line[comma]
        lines[row] = ["".join(line)]
    elif damage == "delimiter in id":  # one id character replaced by "," or a newline
        sample_id = lines[row][0]
        at = draw(st.integers(0, len(sample_id) - 1))
        lines[row][0] = sample_id[:at] + draw(st.sampled_from([",", "\n"])) + sample_id[at + 1:]
    ends = ["\n"] * len(lines)
    if damage == "end":
        ends[-1] = ""
    elif damage == "run-on":  # a line runs on into the next, or to the end of the file
        ends[row] = "7"
    return header + "".join(",".join(line) + end for line, end in zip(lines, ends))


@st.composite
def fixed_point_files(draw, values_per_row, header, cells, misses):
    count = draw(st.integers(1, 14))
    ids = draw(st.lists(fixed_ids, min_size=count, max_size=count, unique=True))
    lines = [[sample_id, *draw(st.lists(cells, min_size=values_per_row,
                                        max_size=values_per_row))] for sample_id in ids]
    return damaged(draw, header, lines, misses)


fixed_prediction_files = st.integers(2, 4).flatmap(lambda c: fixed_point_files(
    c, "id," + ",".join(f"c{j}" for j in range(c)) + "\n", fixed_cells, near_miss_cells))
label_cells = st.one_of(digits(1, 18), st.just("0"))
near_miss_labels = st.one_of(
    digits(19, 21), one_byte_replaced(label_cells, ":/.+- \r٣"),
    st.sampled_from(["-0", "-3", "+3", " 1", "1\r", "٣", "1.0", ""]))
fixed_label_files = fixed_point_files(1, "id,label\n", label_cells, near_miss_labels)


@st.composite
def one_layout_files(draw, values_per_row, header, decimals, widths, misses):
    """Files whose lines share one byte layout, as clskit writes them: ids
    of one byte length and cells of one width, the widths the kernel takes
    and one past them, with the damage of :func:`fixed_point_files`, a comma
    moved off its column, a delimiter in an id, or a newline replaced by a
    digit."""
    count = draw(st.integers(1, 14))
    ids = draw(st.lists(fixed_ids, min_size=count, max_size=count, unique=True))
    # "_" pads every id to the longest in bytes; it is not in the id
    # alphabet, so the padded ids stay distinct
    longest = max(len(sample_id.encode("utf-8")) for sample_id in ids)
    ids = [sample_id + "_" * (longest - len(sample_id.encode("utf-8"))) for sample_id in ids]
    width = draw(widths)
    fraction = decimals + 1 if decimals else 0
    signs = st.sampled_from(["", "-"] if draw(st.booleans()) and width > fraction + 1 else [""])

    def cell():
        sign = draw(signs)
        whole = width - fraction - len(sign)  # integer digits
        size = whole + decimals
        body = draw(st.one_of(digits(size, size), st.just("0" * size)))  # -0.000000000 too
        return sign + body[:whole] + ("." + body[whole:] if decimals else "")

    lines = [[sample_id, *(cell() for _ in range(values_per_row))] for sample_id in ids]
    return damaged(draw, header, lines, misses, kinds=("shift", "delimiter in id", "run-on"))


one_layout_prediction_files = st.integers(2, 4).flatmap(lambda c: one_layout_files(
    c, "id," + ",".join(f"c{j}" for j in range(c)) + "\n", 9, st.integers(11, 17),
    near_miss_cells))
one_layout_label_files = one_layout_files(1, "id,label\n", 0, st.integers(1, 19),
                                          near_miss_labels)


@settings(max_examples=300)
@given(text=fixed_prediction_files, chunk=chunk_sizes)
def test_read_predictions_of_fixed_point_text_matches_line_by_line_reader(scratch_csv, text, chunk):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
        got = outcome(read_predictions, scratch_csv)
    assert got == outcome(oracle_read_predictions, scratch_csv)


@settings(max_examples=300)
@given(text=fixed_label_files, chunk=chunk_sizes)
def test_read_labels_of_fixed_point_text_matches_line_by_line_reader(scratch_csv, text, chunk):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
        got = outcome(read_labels, scratch_csv)
    assert got == outcome(oracle_read_labels, scratch_csv)


# Every chunk size, so that the blocks of most files are one-layout views of
# many lines.
@settings(max_examples=200)
@given(text=one_layout_prediction_files)
def test_read_predictions_of_one_layout_text_matches_line_by_line_reader(scratch_csv, text):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    expected = outcome(oracle_read_predictions, scratch_csv)
    for chunk in CHUNKS:
        with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
            assert outcome(read_predictions, scratch_csv) == expected


@settings(max_examples=200)
@given(text=one_layout_label_files)
def test_read_labels_of_one_layout_text_matches_line_by_line_reader(scratch_csv, text):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    expected = outcome(oracle_read_labels, scratch_csv)
    for chunk in CHUNKS:
        with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
            assert outcome(read_labels, scratch_csv) == expected


@st.composite
def id_order_files(draw, values_per_row, header, cell_kinds):
    """Files of fixed-point cells of one kind whose ids come in groups: a
    group's ids share a first letter, which rises from group to group, and
    one byte length, which changes from group to group, so sorted ids give
    one-layout blocks of different id widths.  The ids run ascending (as
    bytes), descending or shuffled; an id may have a twin with a trailing
    ``\\x00``, and a repeat may follow its twin, within a block or across a
    block boundary."""
    ids = []
    for letter in "abcd"[:draw(st.integers(1, 4))]:
        # each alphabet's characters share one UTF-8 length: 1, 2 or 3 bytes
        alphabet = draw(st.sampled_from(["0\x00", "\x7f1", "\xe9\xff", "名"]))
        tail = draw(st.integers(0, 3))
        ids += [letter + text for text in draw(st.lists(
            st.text(alphabet, min_size=tail, max_size=tail), min_size=1, max_size=6, unique=True))]
    if draw(st.booleans()):
        ids.append(draw(st.sampled_from(ids)) + "\x00")
    ids.sort(key=lambda sample_id: sample_id.encode("utf-8"))
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        ids.reverse()
    elif order == "shuffled":
        ids = draw(st.permutations(ids))
    if draw(st.booleans()):  # a repeat right after its twin
        at = draw(st.integers(0, len(ids) - 1))
        ids.insert(at + 1, ids[at])
    cells = draw(cell_kinds)
    return header + "".join(
        ",".join([sample_id, *(draw(cells) for _ in range(values_per_row))]) + "\n"
        for sample_id in ids)


# one integer digit, or 15 digits in all, unsigned or with signs (whose cells
# then differ in width); labels of up to 15 digits
prediction_cell_kinds = st.sampled_from([
    st.builds("{}.{}".format, digits(1, 1), digits(9, 9)),
    st.builds("{}.{}".format, digits(6, 6), digits(9, 9)),
    st.builds("{}{}.{}".format, st.sampled_from(["", "-"]), digits(6, 6), digits(9, 9)),
])
label_cell_kinds = st.sampled_from([digits(size, size) for size in (1, 2, 14, 15)])


@settings(max_examples=200)
@given(text=st.one_of(
    st.integers(2, 3).flatmap(lambda c: id_order_files(
        c, "id," + ",".join(f"c{j}" for j in range(c)) + "\n", prediction_cell_kinds)),
    id_order_files(1, "id,label\n", label_cell_kinds)))
def test_ordered_shuffled_and_repeated_ids_read_as_the_line_reader_reads_them(scratch_csv, text):
    # 15-digit prediction cells and labels fill the kernel's digit budget;
    # chunk 1 makes each line its own block, so a repeat right after its
    # twin is then across a block boundary
    with open(scratch_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    read, oracle = ((read_labels, oracle_read_labels) if text.startswith("id,label\n")
                    else (read_predictions, oracle_read_predictions))
    expected = outcome(oracle, scratch_csv)
    for chunk in CHUNKS:
        with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk), \
                mock.patch.object(fileio, "_read_lines", wraps=fileio._read_lines) as general:
            assert outcome(read, scratch_csv) == expected
        # every cell is fixed-point text: only a repeated id is left to the line reader
        assert general.call_count == (expected[0] == "error")


def test_ids_that_outgrow_their_width_mid_file_read_as_the_line_reader_reads_them(tmp_path):
    # s9999 -> s10000: the lines around it differ in length, so that block is
    # scanned for its delimiters, and the blocks before and after are views
    rng = np.random.default_rng(45)
    path = str(tmp_path / "p.csv")
    write_predictions(path, [f"s{i}" for i in range(9990, 10190)],
                      rng.dirichlet(np.ones(3), size=200))
    labels = str(tmp_path / "l.csv")
    write_labels(labels, [f"s{i}" for i in range(9990, 10190)], rng.integers(0, 3, size=200))
    for read, oracle, file in [(read_predictions, oracle_read_predictions, path),
                               (read_labels, oracle_read_labels, labels)]:
        with mock.patch.object(fileio, "CHUNK_ELEMENTS", 64), \
                mock.patch.object(fileio, "_one_layout_cells",
                                  wraps=fileio._one_layout_cells) as one_layout, \
                mock.patch.object(fileio, "_scanned_cells", wraps=fileio._scanned_cells) as scan, \
                mock.patch.object(fileio, "_read_lines", wraps=fileio._read_lines) as general:
            got = outcome(read, file)
        # every block tries the view first; only a mixed one is scanned
        assert 1 <= scan.call_count < one_layout.call_count
        assert general.call_count == 0
        assert got == outcome(oracle, file)


def test_clskit_written_probability_files_are_never_scanned(tmp_path):
    rng = np.random.default_rng(46)
    path = str(tmp_path / "p.csv")
    # ids as `clskit train` writes them, probabilities, 1.0 and 0.0 among them
    matrix = rng.dirichlet(np.ones(10), size=20000)
    matrix[:2] = np.eye(10)[:2]
    write_predictions(path, [f"va{i:05d}" for i in range(20000)], matrix)
    with mock.patch.object(fileio, "_scanned_cells", wraps=fileio._scanned_cells) as scan:
        got = outcome(read_predictions, path)
    assert scan.call_count == 0
    assert got == outcome(oracle_read_predictions, path)


def test_clskit_written_files_are_read_without_the_general_parser(tmp_path):
    rng = np.random.default_rng(43)
    matrix = rng.dirichlet(np.ones(10), size=20000)
    # signs and the widest integer part the kernel takes
    matrix[:50] = rng.uniform(-999999.0, 999999.0, size=(50, 10))
    matrix[50, :] = [-0.0, -4e-10, 999999.999999999, -999999.999999999, 0.0, 1e-9, -1e-9,
                     123456.5, -0.5, 5e-10]
    ids = [f"s{i:05d}\xe9" for i in range(20000)]
    labels = rng.integers(0, 10, size=20000)
    labels[:2] = [10**15 - 1, 0]  # the widest label the kernel takes
    preds_path, labels_path = str(tmp_path / "p.csv"), str(tmp_path / "l.csv")
    write_predictions(preds_path, ids, matrix)
    write_labels(labels_path, ids, labels)
    zero_path = tmp_path / "z.csv"  # clskit never writes a negative zero
    zero_path.write_text("id,c0,c1\na,-0.000000000,1.000000000\n", encoding="utf-8")
    general = mock.Mock(side_effect=AssertionError("general parser called"))
    with mock.patch.object(fileio, "_read_lines", general):
        got = outcome(read_predictions, preds_path), outcome(read_labels, labels_path)
        zero = read_predictions(str(zero_path))[1]
    assert got == (outcome(oracle_read_predictions, preds_path),
                   outcome(oracle_read_labels, labels_path))
    assert np.signbit(zero[0, 0]) and zero.tobytes() == np.array([[-0.0, 1.0]]).tobytes()


def test_long_and_zero_padded_labels_are_read_line_by_line(tmp_path, capsys):
    # a kernel cell holds 15 digits: a label of 16 or more, zero-padded
    # small ones among them, sends its file to the line reader, once
    path = tmp_path / "l.csv"
    long_labels = [str(10**15), str(10**16 + 7), str(10**18 - 1), str(10**18), str(10**20 + 3),
                   str(10**21 - 1), "0000000000000003", "0000000000000000", "0" * 20 + "12"]
    for cell in long_labels:
        lines = [f"s{i:03d},{i % 3}\n" for i in range(300)]
        lines[150] = f"s150,{cell}\n"
        path.write_text("id,label\n" + "".join(lines), encoding="utf-8")
        expected = outcome(oracle_read_labels, str(path))
        assert expected[1][150] == int(cell)
        for chunk in CHUNKS:
            with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk), \
                    mock.patch.object(fileio, "_read_lines", wraps=fileio._read_lines) as general:
                assert outcome(read_labels, str(path)) == expected
            assert general.call_count == 1
    # such a label can only be out of range, and eval says which
    preds = str(tmp_path / "p.csv")
    write_predictions(preds, ["a", "b"], np.array([[0.5, 0.5], [0.5, 0.5]]))
    for cell, top in [("1000000000000000", 10**15), ("123456789012345678", 123456789012345678),
                      ("0000000000000003", 3)]:
        path.write_text(f"id,label\na,1\nb,{cell}\n", encoding="utf-8")
        assert main(["eval", "--preds", preds, "--labels", str(path)]) == 2
        assert f"label {top} out of range for 2 prediction columns" in capsys.readouterr().err


def test_a_late_non_fixed_cell_sends_the_file_to_the_general_parser(tmp_path):
    path = str(tmp_path / "p.csv")
    rows = [f"s{i},0.{i:09d},0.{i + 1:09d},-0.000000000" for i in range(300)]
    rows[290] = "s290,0.1234567894,0.000000291,-0.000000000"  # 10 decimals
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("id,c0,c1,c2\n" + "\n".join(rows) + "\n")
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", 16), \
            mock.patch.object(fileio, "_read_lines", wraps=fileio._read_lines) as general:
        got = outcome(read_predictions, path)
    assert general.call_count == 1
    assert got == outcome(oracle_read_predictions, path)


def test_the_line_reader_reads_respelled_files_as_the_kernel_reads_them(tmp_path):
    rng = np.random.default_rng(44)
    matrix = rng.dirichlet(np.ones(10), size=20000)
    matrix[:50] = rng.uniform(-999999.0, 999999.0, size=(50, 10))  # signs, 6-digit parts
    ids = [f"s{i:05d}" for i in range(20000)]
    preds, labels = str(tmp_path / "p.csv"), str(tmp_path / "l.csv")
    write_predictions(preds, ids, matrix)
    write_labels(labels, ids, rng.integers(0, 10, size=20000))

    def respell(path, cell):
        with open(path, encoding="utf-8") as handle:
            header, *lines = handle.read().splitlines()
        rows = (line.split(",") for line in lines)
        text = "".join(",".join([row[0], *map(cell, row[1:])]) + "\n" for row in rows)
        with open(path + ".general", "w", encoding="utf-8", newline="") as handle:
            handle.write(header + "\n" + text)
        return path + ".general"

    # 0.500000000 becomes 0.5 and 1.000000000 becomes 1.; integer labels have
    # no decimal zeros, so they gain a plus sign
    general_preds = respell(preds, lambda cell: cell.rstrip("0"))
    general_labels = respell(labels, lambda cell: "+" + cell)
    with mock.patch.object(fileio, "_read_lines", wraps=fileio._read_lines) as general:
        kernel = outcome(read_predictions, preds), outcome(read_labels, labels)
        assert general.call_count == 0
        got = outcome(read_predictions, general_preds), outcome(read_labels, general_labels)
    assert general.call_count == 2
    assert got == kernel


def test_undecodable_bytes_raise_as_text_reading_does(tmp_path):
    path = tmp_path / "p.csv"
    for text in [b"id,c0,c1\na,0.5,\xff\n", b"\xe9", b"id,label\na,1\n\xf0\x9f"]:
        path.write_bytes(text)
        for read, oracle in [(read_predictions, oracle_read_predictions),
                             (read_labels, oracle_read_labels)]:
            with pytest.raises(UnicodeDecodeError) as err:
                read(str(path))
            with pytest.raises(UnicodeDecodeError) as expected:
                oracle(str(path))
            assert str(err.value) == str(expected.value)


def halfway(units):
    # (2k + 1) / 2 printed units: scaled back by 1e9, nearly always a
    # remainder of exactly half a unit
    return units.map(lambda k: (2 * k + 1) / 2e9)


# Magnitudes around the limits of exact integer arithmetic: past 2**53 printed
# units a row total is itself rounded, and past 2**62 / C units a row no
# longer fits the batched int64 path.
big_values = st.sampled_from([2.0**54 / 1e9, 2.0**60 / 1e9, 9.3e9, 4.6e10, 7e10, 1e18, 1e299])
cell_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # huge, negative, subnormal
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1e11, max_value=1e11),
    halfway(st.integers(-8, 8)),
    st.tuples(st.integers(-3, 3), halfway(st.integers(-3, 3))).map(sum),
    st.integers(-(2**70), 2**70).map(float),  # exact integers, past int64 too
    big_values,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-9, 1.5e-9,
                     1.5e299, -1.5e299, 1e300]),
)


@st.composite
def prediction_matrices(draw, kinds=("probabilities", "cells", "cancelling")):
    rows = draw(st.integers(1, 9))
    num_classes = draw(st.integers(2, 6) | st.integers(17, 24))
    size = rows * num_classes
    kind = draw(st.sampled_from(kinds))
    if kind == "probabilities":  # the common case
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        matrix = np.array(raw).reshape(rows, num_classes) + 1e-3
        return matrix / matrix.sum(axis=1, keepdims=True)
    if kind == "bounded":
        raw = draw(st.lists(st.floats(-1e5, 1e5), min_size=size, max_size=size))
        return np.array(raw).reshape(rows, num_classes)
    matrix = np.array(draw(st.lists(cell_values, min_size=size, max_size=size)))
    matrix = matrix.reshape(rows, num_classes)
    if kind == "cancelling":  # a big value and its negation in every row
        big = np.array(draw(st.lists(big_values, min_size=rows, max_size=rows)))
        matrix[:, 0], matrix[:, -1] = big, -big
    return matrix


# Ids of 1-12 characters, some of several UTF-8 bytes, so that an id's byte
# length differs from its length in characters.
sample_ids = st.text(alphabet="az7_é日本🎧", min_size=1, max_size=12)


@given(matrix=prediction_matrices(), chunk=chunk_sizes, data=st.data())
def test_write_predictions_matches_per_row_formatter(scratch_csv, matrix, chunk, data):
    rows = matrix.shape[0]
    ids = data.draw(st.one_of(
        st.just([f"r{i}" for i in range(rows)]),
        st.lists(sample_ids, min_size=rows, max_size=rows, unique=True),
    ))
    try:
        with np.errstate(over="ignore"):
            expected = "id," + ",".join(f"c{j}" for j in range(matrix.shape[1])) + "\n" + "".join(
                i + "," + ",".join(oracle_format_row(row)) + "\n" for i, row in zip(ids, matrix))
    except OverflowError:  # v * 1e9 or the row sum leaves the float range
        expected = None
    if os.path.exists(scratch_csv):
        os.remove(scratch_csv)
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
        if expected is None:
            with pytest.raises(ValueError, match="too large|past the float range"):
                write_predictions(scratch_csv, ids, matrix)
            assert not os.path.exists(scratch_csv)
        else:
            write_predictions(scratch_csv, ids, matrix)
            with open(scratch_csv, "rb") as handle:
                assert handle.read() == expected.encode("utf-8")


@given(data=st.data())
def test_blocks_of_ids_of_unequal_byte_length_match_per_row_formatter(scratch_csv, data):
    # Blocks of 4 rows or more whose ids differ in byte length, so that every
    # block pads some ids and must drop the padding again.
    rows = data.draw(st.integers(4, 24))
    num_classes = data.draw(st.integers(2, 8))
    matrix = data.draw(st.lists(st.floats(-1e5, 1e5), min_size=rows * num_classes,
                                max_size=rows * num_classes).map(np.array))
    matrix = matrix.reshape(rows, num_classes)
    ids = data.draw(st.lists(sample_ids, min_size=rows, max_size=rows, unique=True))
    block_rows = data.draw(st.integers(4, rows))
    expected = "id," + ",".join(f"c{j}" for j in range(num_classes)) + "\n" + "".join(
        i + "," + ",".join(oracle_format_row(row)) + "\n" for i, row in zip(ids, matrix))
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", block_rows * num_classes):
        write_predictions(scratch_csv, ids, matrix)
    with open(scratch_csv, "rb") as handle:
        assert handle.read() == expected.encode("utf-8")


@given(matrix=prediction_matrices(kinds=("probabilities", "bounded")), chunk=chunk_sizes)
def test_rewriting_a_read_file_reproduces_it(scratch_csv, matrix, chunk):
    # Row-stochastic matrices and values with |v| <= 1e5; past that a cell
    # can be re-written a unit lower (README, "File formats").
    again = scratch_csv + ".again"
    with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
        write_predictions(scratch_csv, [f"r{i}" for i in range(matrix.shape[0])], matrix)
        write_predictions(again, *read_predictions(scratch_csv))
    with open(scratch_csv, "rb") as first, open(again, "rb") as second:
        assert first.read() == second.read()


def test_write_predictions_matches_formatter_when_row_totals_round(tmp_path):
    # Past 2**53 units the row total is itself rounded, so the shortfall
    # round(total) - sum(floors) can be negative or exceed the class count.
    rows = {
        -1: [2.0**54 / 1e9, 1e-9, 0.0],
        3: [2.0**54 / 1e9, 1.5e-9, 0.7e-9],
        5: [2.0**55 / 1e9, 3e-9, 0.9e-9, 0.9e-9],
    }
    for short, row in rows.items():
        scaled = [v * 1e9 for v in row]
        assert round(math.fsum(scaled)) - sum(map(math.floor, scaled)) == short
        path = tmp_path / f"{short}.csv"
        write_predictions(str(path), ["a"], np.array([row]))
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line == "a," + ",".join(oracle_format_row(row))
    # twenty half-unit remainders, half of them bumped: ties go to lower classes
    row = np.arange(1, 41, 2) / 2e9
    path = tmp_path / "ties.csv"
    write_predictions(str(path), ["a"], row[None, :])
    line = path.read_text(encoding="utf-8").splitlines()[1]
    assert line == "a," + ",".join(oracle_format_row(row))


def test_one_long_id_pads_only_its_own_row(tmp_path):
    rng = np.random.default_rng(44)
    matrix = rng.dirichlet(np.ones(4), size=2000)
    ids = [f"r{i}" for i in range(2000)]
    ids[1234] = "é" * 5000  # 10 000 bytes: padding every row to it would take 20 MB
    path = tmp_path / "p.csv"
    tracemalloc.start()
    try:
        write_predictions(str(path), ids, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    expected = "id,c0,c1,c2,c3\n" + "".join(
        i + "," + ",".join(oracle_format_row(row)) + "\n" for i, row in zip(ids, matrix))
    assert path.read_bytes() == expected.encode("utf-8")


@st.composite
def writer_id_lists(draw):
    """Id lists and whether to repeat an id across a block boundary: ids of one
    UTF-8 byte length in rising, falling or shuffled order, ids of unequal
    byte lengths, one id made empty or given a comma or a newline in its
    last character, and twins that differ only by a trailing ``\\x00``."""
    rows = draw(st.integers(1, 12))
    prefix = draw(st.sampled_from(["r", "é", "日", "🎧"]))
    ids = [f"{prefix}{i:02d}" for i in range(rows)]
    order = draw(st.sampled_from(["rising", "falling", "shuffled"]))
    if order == "falling":
        ids.reverse()
    elif order == "shuffled":
        ids = draw(st.permutations(ids))
    kind = draw(st.sampled_from(["fresh", "unequal", "repeat", "bad", "twins"]))
    if kind == "unequal":
        ids = draw(st.lists(sample_ids, min_size=rows, max_size=rows, unique=True))
    elif kind == "bad":
        k = draw(st.integers(0, rows - 1))
        ids[k] = draw(st.sampled_from(["", ids[k][:-1] + ",", ids[k][:-1] + "\n"]))
    elif kind == "twins":
        k = draw(st.integers(0, rows - 1))
        ids.insert(k + draw(st.integers(0, 1)), ids[k] + "\x00")
    return ids, kind == "repeat"


def oracle_id_error(ids):
    """The message naming the first bad id of ``ids``, checked one at a time
    against the ids before it, or None when every id is fine."""
    for k, sample_id in enumerate(ids):
        if not sample_id or "," in sample_id:
            return f"sample id must be non-empty and comma-free, got {sample_id!r}"
        if "\n" in sample_id:
            return f"sample id must not contain a newline, got {sample_id!r}"
        if sample_id in ids[:k]:
            return f"duplicate sample id {sample_id!r}"
    return None


@settings(max_examples=200)
@given(case=writer_id_lists())
def test_writers_check_ids_as_the_per_id_rule_does(scratch_csv, case):
    # Both writers either raise the per-id rule's message for the first bad
    # id, leaving no file, or write the per-row oracle's bytes.
    for chunk in CHUNKS:
        ids = list(case[0])
        if case[1] and len(ids) > 1:  # the first block's last id opens the next block
            boundary = min(max(1, chunk // 2), len(ids) - 1)
            ids[boundary] = ids[boundary - 1]
        matrix = np.tile([0.25, 0.75], (len(ids), 1))
        labels = np.arange(len(ids)) % 3
        error = oracle_id_error(ids)
        writes = [
            (lambda: write_predictions(scratch_csv, ids, matrix), "id,c0,c1\n" + "".join(
                i + "," + ",".join(oracle_format_row(row)) + "\n" for i, row in zip(ids, matrix))),
            (lambda: write_labels(scratch_csv, ids, labels), "id,label\n" + "".join(
                f"{i},{label}\n" for i, label in zip(ids, labels))),
        ]
        for write, expected in writes:
            if os.path.exists(scratch_csv):
                os.remove(scratch_csv)
            with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
                if error is not None:
                    with pytest.raises(ValueError) as info:
                        write()
                    assert str(info.value) == error
                    assert not os.path.exists(scratch_csv)
                else:
                    write()
                    with open(scratch_csv, "rb") as handle:
                        assert handle.read() == expected.encode("utf-8")


READER_PATHS = {
    "kernel": contextlib.nullcontext,  # blocks viewed where their layout allows
    "scanned": lambda: mock.patch.object(fileio, "_one_layout_cells", lambda *args: None),
    "general": lambda: mock.patch.object(fileio, "_fixed_point_rows", lambda *args: None),
}


@settings(max_examples=100)
@given(case=writer_id_lists(), chunk=chunk_sizes, twin_at=st.integers(0, 12))
def test_written_ids_read_back_as_sample_ids_on_every_reader_path(scratch_csv, case, chunk,
                                                                 twin_at):
    # Ids both writers accept read back as SampleIds equal to the written
    # list, whichever way the reader finds them, and write the same bytes
    # again; equality is list equality, so ids that differ only by a
    # trailing "\x00" are unequal.
    ids = list(case[0])
    if case[1] and len(ids) > 1:
        ids[-1] = ids[0]
    error = oracle_id_error(ids)
    if error is not None:
        with pytest.raises(ValueError) as info:
            SampleIds.of(ids)
        assert str(info.value) == error
        return
    twin = list(ids)
    twin[twin_at % len(ids)] += "\x00"
    matrix, labels = np.tile([0.25, 0.75], (len(ids), 1)), np.arange(len(ids)) % 3
    again = scratch_csv + ".again"
    for read, write in [(read_predictions, lambda path, ids: write_predictions(path, ids, matrix)),
                        (read_labels, lambda path, ids: write_labels(path, ids, labels))]:
        with mock.patch.object(fileio, "CHUNK_ELEMENTS", chunk):
            write(scratch_csv, ids)
            for name, path in READER_PATHS.items():
                with path(), mock.patch.object(fileio, "_read_lines",
                                               wraps=fileio._read_lines) as general:
                    got = read(scratch_csv)[0]
                assert general.call_count == (name == "general")
                assert isinstance(got, SampleIds)
                assert got == ids and ids == got and got == tuple(ids) and list(got) == ids
                assert len(got) == len(ids) and got[-1] == ids[-1]
                assert got != twin
                for other in [ids, twin, ids[::-1]]:
                    if oracle_id_error(other) is None:
                        assert (got == SampleIds.of(other)) is (ids == other) is (got == other)
                write(again, got)
                with open(scratch_csv, "rb") as first, open(again, "rb") as second:
                    assert first.read() == second.read()


def test_write_predictions_rejects_values_too_large_to_print(tmp_path):
    path = tmp_path / "o.csv"
    with pytest.raises(ValueError, match="value 1e\\+300 is too large"):
        write_predictions(str(path), ["a"], np.array([[1e300, -1e300, 1.0]]))
    with pytest.raises(ValueError, match="row 'a' sums past the float range"):
        write_predictions(str(path), ["a"], np.array([[1.5e299, 1.5e299, -1.5e299, -1.5e299, 1.0]]))
    assert list(tmp_path.iterdir()) == []


# -- atomic writes ---------------------------------------------------------------

def test_failed_writes_leave_nothing_and_keep_the_old_file(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        with fileio._atomic_write(str(target)) as handle:
            handle.write(b"partial")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []
    target.write_text("old", encoding="utf-8")
    with pytest.raises(ValueError):
        write_predictions(str(target), ["a"], np.array([[1e300, 0.0]]))
    assert target.read_text(encoding="utf-8") == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_writes_replace_the_file_with_the_usual_mode(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    written = {
        "p.csv": lambda p: write_predictions(p, ["a"], np.array([[0.5, 0.5]])),
        "l.csv": lambda p: write_labels(p, ["a"], np.array([1])),
        "m.json": lambda p: write_manifest(p, ["a.csv", "b.csv"], [0.5, 0.5], "prob"),
    }
    for name, write in written.items():
        path = tmp_path / name
        path.write_text("stale", encoding="utf-8")
        write(str(path))
        assert path.read_text(encoding="utf-8") != "stale"
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "m.json", "p.csv", "plain"]
