"""File formats: prediction CSV, label CSV, run-config JSON, manifest JSON.

Prediction files carry one header row ``id,c0,...,c{C-1}`` and one row per
sample: an id (no commas) followed by C reals printed with 9 fixed
decimals.  Rounding preserves row sums (see :func:`_format_row`), so the
format round-trips below every tolerance used in this package.  All text
is UTF-8 with LF line endings, and writing is deterministic: identical
inputs produce identical bytes.

A file is read once as bytes.  When every value has the fixed-point form
the writers print (``-?\\d{1,6}\\.\\d{9}`` for predictions, up to 18 digits
for labels), one numpy kernel parses it from the bytes in blocks of about
``CHUNK_ELEMENTS`` values with exact integer digit arithmetic, giving the
same bits as ``float``.  Any other file, such as a value in another float
syntax, goes to the general path: it is read line by line, each cell parsed
with ``float`` (or ``int``), and its first bad line raises the error.
Predictions are written in blocks of about ``CHUNK_ELEMENTS`` values.
Every file is written to a temporary file beside its target, which replaces
the target only once it is complete, so a failed write leaves no partial
file behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import typing
from dataclasses import dataclass, field

import numpy as np

from .ensemble import SCORE_TYPES, EnsembleManifest, EnsembleMember, _exact_sum
from .losses import LossConfig
from .numerics import CHUNK_ELEMENTS, check_prediction_matrix
from .schedule import (
    DEFAULT_BASE_LR,
    DEFAULT_MULTIPLIERS,
    DEFAULT_STEP_EPOCHS,
    FreezePolicy,
    StepDecaySchedule,
)
from .trainer import FeatureDataset, TrainConfig, synth_dataset

_UNIT = 10**9  # one printed decimal unit: 9 fixed decimals
_LABEL = re.compile(r"[+-]?\d+")


@contextlib.contextmanager
def _atomic_write(path: str):
    """A text handle whose file appears at ``path`` only once it is complete.

    The text goes to a new file next to ``path``, which replaces ``path`` when
    the block ends; if the block raises, the new file is removed and ``path``
    is left as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def _fresh_ids(ids: list[str], seen: set[str] | None = None) -> bool:
    """Whether ``ids`` are non-empty, comma-free, distinct and not in
    ``seen``, checked with batched string and set operations; if so, they
    join ``seen``.  Without ``seen``, a sort finds repeats in a fraction of
    a set's memory."""
    if "" in ids or "," in "".join(ids):
        return False
    if seen is None:
        order = sorted(ids)
        return all(map(str.__ne__, order, order[1:]))
    fresh = set(ids)
    if len(fresh) < len(ids) or not seen.isdisjoint(fresh):
        return False
    seen |= fresh
    return True


def _check_ids(ids: list[str], seen: set[str] | None = None, where: str | None = None) -> None:
    """Add ``ids`` to ``seen`` as :func:`_fresh_ids` does, or raise naming the
    first id that fails.  ``where`` (``path:line``) marks an id read from a
    file, whose errors are worded as the readers word them."""
    if _fresh_ids(ids, seen):
        return
    seen = set() if seen is None else seen
    for sample_id in ids:
        if not sample_id or "," in sample_id:
            if where:
                raise ValueError(f"{where}: empty sample id")
            raise ValueError(f"sample id must be non-empty and comma-free, got {sample_id!r}")
        if sample_id in seen:
            prefix = f"{where}: " if where else ""
            raise ValueError(f"{prefix}duplicate sample id {sample_id!r}")
        seen.add(sample_id)


def _format_row(row: np.ndarray) -> list[str]:
    # Sum-preserving rounding (largest remainder): each printed value stays
    # within one 1e-9 unit of the true value, and the printed row total is
    # the true total rounded to 9 decimals, so row-stochastic matrices stay
    # row-stochastic in file form.
    scaled = [v * _UNIT for v in row]
    base = [math.floor(u) for u in scaled]
    short = round(math.fsum(scaled)) - sum(base)
    by_remainder = sorted(range(len(base)), key=lambda j: (base[j] - scaled[j], j))
    bump = set(by_remainder[:short])
    cells = []
    for j, b in enumerate(base):
        units = b + (1 if j in bump else 0)
        sign = "-" if units < 0 else ""
        mag = abs(units)
        cells.append(f"{sign}{mag // _UNIT}.{mag % _UNIT:09d}")
    return cells


def _units(scaled: np.ndarray) -> np.ndarray:
    """The printed units :func:`_format_row` gives every row of an ``(r, C)``
    block of scaled values, in int64 arithmetic; the caller keeps every
    magnitude below ``2**62 / C`` so no sum overflows."""
    num_classes = scaled.shape[1]
    floor = np.floor(scaled)
    base = floor.astype(np.int64)
    short = np.rint(_exact_sum(scaled.T)).astype(np.int64) - base.sum(axis=1)
    # How many classes ``by_remainder[:short]`` bumps: with a negative
    # ``short`` (a row total rounded below the floors' sum), all but -short.
    count = np.where(short >= 0, short, short + num_classes)
    order = np.argsort(floor - scaled, axis=1, kind="stable")
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(num_classes)[None, :], axis=1)
    return base + (position < count[:, None])


_SIGNS = np.array(["", "-"], dtype=object)


def _format_block(ids: list[str], block: np.ndarray) -> str:
    """The data lines of a prediction file for ``ids`` and the rows of ``block``."""
    rows, num_classes = block.shape
    with np.errstate(over="ignore"):
        scaled = block * _UNIT
    finite = np.isfinite(scaled)
    if not finite.all():
        value = float(block[~finite][0])
        raise ValueError(f"value {value!r} is too large to print with 9 decimals")
    if np.abs(scaled).max() >= 2.0**62 / num_classes:
        # int64 could overflow: format row by row in exact integers
        lines = []
        for sample_id, row in zip(ids, block):
            try:
                lines.append(sample_id + "," + ",".join(_format_row(row)) + "\n")
            except OverflowError:  # the row sum leaves the float range
                raise ValueError(
                    f"row {sample_id!r} sums past the float range when printed with 9 decimals"
                ) from None
        return "".join(lines)
    units = _units(scaled)
    magnitude = np.abs(units)
    cells = np.empty((rows, 1 + 3 * num_classes), dtype=object)
    cells[:, 0] = ids
    cells[:, 1::3] = _SIGNS[(units < 0).view(np.int8)]
    cells[:, 2::3] = magnitude // _UNIT
    cells[:, 3::3] = magnitude % _UNIT
    line = "%s" + ",%s%d.%09d" * num_classes + "\n"
    return (line * rows) % tuple(cells.ravel().tolist())


def write_predictions(path: str, ids: list[str], matrix: np.ndarray) -> None:
    m = check_prediction_matrix(matrix)
    if len(ids) != m.shape[0]:
        raise ValueError(f"{len(ids)} ids for {m.shape[0]} rows")
    ids = list(ids)
    _check_ids(ids)
    num_classes = m.shape[1]
    step = max(1, CHUNK_ELEMENTS // num_classes)
    with _atomic_write(path) as handle:
        handle.write("id," + ",".join(f"c{j}" for j in range(num_classes)) + "\n")
        for start in range(0, len(ids), step):
            handle.write(_format_block(ids[start:start + step], m[start:start + step]))


def _read_head(path: str) -> tuple[bytes, str]:
    """The bytes of ``path`` and their first line.  The bytes are checked to
    be UTF-8, and a decoding error is raised as reading the file as text
    raises it."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.isascii():
        data.decode("utf-8")
    end = data.find(b"\n")
    return data, data[:end if end >= 0 else len(data)].decode("utf-8")


@functools.cache
def _cell_layout(digits: int, decimals: int):
    """The byte slots of the widest cell ``-?\\d{digits}(\\.\\d{decimals})?``:
    its width, the point's slot, each slot's int64 place value, and the
    masks that keep a cell's digit slots."""
    fraction = decimals + 1 if decimals else 0
    width = 1 + digits + fraction  # sign slot, integer digits, point and decimals
    point = width - fraction  # integer digits sit in slots 1 .. point - 1
    slots = np.arange(width)
    digit_slot = (slots > 0) & (slots != point)
    # a digit's place value is 10 ** (the digit slots to its right)
    place = np.where(digit_slot, 10 ** (np.cumsum(digit_slot[::-1])[::-1] - 1), 0)
    # Row f keeps the digit slots of a cell whose first digit is in slot f.
    # It and every window of :func:`_fixed_point_rows` are single
    # ``width``-byte items, so a gather copies whole windows.
    keep = np.where(digit_slot & (slots >= slots[:, None]), 0xFF, 0).astype(np.uint8)
    keep = keep.view(f"V{width}").ravel()
    place.flags.writeable = keep.flags.writeable = False  # shared by every call
    return width, point, place, keep


def _fixed_point_rows(data: bytes, start: int, values_per_row: int, digits: int, decimals: int):
    """Ids, magnitudes and signs of the data lines ``data[start:]``, each an id
    and ``values_per_row`` cells of the form ``-?\\d{1,digits}`` followed, when
    ``decimals`` > 0, by a point and exactly ``decimals`` digits; magnitudes
    count units of ``10**-decimals``.  None when any line differs: another
    comma count, other cell text, no final newline, or ids that fail
    :func:`_fresh_ids`.

    Blocks of about ``CHUNK_ELEMENTS`` cells are parsed from bytes: a cell's
    widest form ends at its delimiter, so one fixed window of bytes per cell
    is checked slot by slot and dotted with an int64 place-value vector,
    exact for up to 18 digits.
    """
    width, point, place, keep = _cell_layout(digits, decimals)
    buf = np.frombuffer(data, np.uint8)
    ids: list[str] = []
    magnitudes, signs = [], []
    seen: set[str] = set()
    while start < len(data):
        # whole lines; a last line without its newline fails the delimiter test
        span = start + CHUNK_ELEMENTS * width
        stop = data.rfind(b"\n", start, span) + 1 or data.find(b"\n", span) + 1 or len(data)
        # ``width`` bytes of padding in front keep every window inside the block.
        block = np.zeros(width + stop - start, np.uint8)
        block[width:] = buf[start:stop]
        delims = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        if delims.size % (values_per_row + 1):
            return None
        delims = delims.reshape(-1, values_per_row + 1)
        kinds = block[delims]
        if not ((kinds[:, :-1] == ord(",")).all() and (kinds[:, -1] == ord("\n")).all()):
            return None
        # Ids: the bytes from the newline before each line (one in the padding
        # for the first) up to its first comma, split at those newlines.
        block[width - 1] = ord("\n")
        id_starts = np.concatenate(([width - 1], delims[:-1, -1]))
        lengths = delims[:, 0] - id_starts
        spans = np.repeat(id_starts - (np.cumsum(lengths) - lengths), lengths)
        block_ids = block[spans + np.arange(spans.size)].tobytes().decode("utf-8").split("\n")[1:]
        if not _fresh_ids(block_ids, seen):
            return None
        ends = delims[:, 1:].ravel()
        starts = delims[:, :-1].ravel() + 1
        negative = block[starts] == ord("-")
        first = width - (ends - starts) + negative  # slot of each cell's first digit
        if not ((first >= 1) & (first < point)).all():
            return None
        windows = np.ndarray((block.size - width + 1,), f"V{width}", block, strides=(1,))
        cells = windows[ends - width].view(np.uint8).reshape(-1, width)
        if decimals and not (cells[:, point] == ord(".")).all():
            return None
        cells -= ord("0")  # wraps, so a byte below '0' is no digit either
        cells &= keep[first].view(np.uint8).reshape(-1, width)  # zero all but the digits
        if not (cells < 10).all():
            return None
        ids.extend(block_ids)
        magnitudes.append(np.einsum("ij,j->i", cells, place))  # casts in small buffers
        signs.append(negative)
        start = stop
    return ids, np.concatenate(magnitudes), np.concatenate(signs)


def _parse_number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: non-finite value {text!r}")
    return value


def _parse_label(text: str, where: str) -> int:
    if not _LABEL.fullmatch(text):
        raise ValueError(f"{where}: bad label {text!r}")
    label = int(text)
    if label < 0:
        raise ValueError(f"{where}: label must be >= 0, got {label}")
    return label


def _read_lines(path: str, data: bytes, width: int, parse) -> tuple[list[str], list]:
    """Ids and values of the data lines of ``data``, each an id and
    ``width - 1`` cells parsed by ``parse``, read line by line: the first bad
    line raises its error, numbered as in the file."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    ids: list[str] = []
    values = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}:{lineno}"
        row = line.split(",")
        if len(row) != width:
            raise ValueError(f"{where}: expected {width} columns, got {len(row)}")
        if not row[0] or row[0] in seen:
            _check_ids(row[:1], seen, where)
        seen.add(row[0])
        ids.append(row[0])
        values.extend([parse(text, where) for text in row[1:]])
    return ids, values


def read_predictions(path: str) -> tuple[list[str], np.ndarray]:
    data, header_line = _read_head(path)
    if not data:
        raise ValueError(f"{path}:1: empty prediction file")
    header = header_line.split(",")
    if header[0] != "id" or len(header) < 3 or any(
        name != f"c{j}" for j, name in enumerate(header[1:])
    ):
        raise ValueError(f"{path}:1: header must be 'id,c0,...,c{{C-1}}' with C >= 2")
    num_classes = len(header) - 1
    # The header is ASCII, so the data lines start one byte past its length.
    if len(data) <= len(header_line) + 1:
        raise ValueError(f"{path}:1: prediction file has no data rows")
    fixed = _fixed_point_rows(data, len(header_line) + 1, num_classes, 6, 9)
    if fixed is None:
        ids, values = _read_lines(path, data, num_classes + 1, _parse_number)
        return ids, np.array(values).reshape(len(ids), num_classes)
    # With at most 15 digits every magnitude is an integer below 2**53, exact
    # in float64, so one correctly rounded division gives float()'s bits,
    # -0.0 included.
    ids, magnitudes, negative = fixed
    values = magnitudes / _UNIT
    np.negative(values, out=values, where=negative)
    return ids, values.reshape(len(ids), num_classes)


def write_labels(path: str, ids: list[str], labels: np.ndarray) -> None:
    y = np.asarray(labels, dtype=int)
    if len(ids) != y.shape[0]:
        raise ValueError(f"{len(ids)} ids for {y.shape[0]} labels")
    _check_ids(list(ids))
    if y.size and y.min() < 0:
        raise ValueError("labels must be non-negative")
    with _atomic_write(path) as handle:
        handle.write("id,label\n")
        for sample_id, label in zip(ids, y):
            handle.write(f"{sample_id},{int(label)}\n")


def read_labels(path: str) -> tuple[list[str], list[int]]:
    data, header = _read_head(path)
    if header != "id,label":
        raise ValueError(f"{path}:1: header must be 'id,label'")
    if len(data) <= len(header) + 1:
        raise ValueError(f"{path}:1: label file has no data rows")
    fixed = _fixed_point_rows(data, len(header) + 1, 1, 18, 0)
    if fixed is None or fixed[2].any():  # signed labels take the line reader
        return _read_lines(path, data, 2, _parse_label)
    return fixed[0], fixed[1].tolist()


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic-dataset parameters; the val split uses ``seed + 1`` (blob
    geometry is shared, only the sampling noise differs)."""

    n_train: int = 300
    n_val: int = 300
    dims: int = 8
    classes: int = 3
    separation: float = 6.0
    seed: int = 1


@dataclass(frozen=True)
class RunConfig:
    """One training run, as read from a JSON config file."""

    epochs: int = 10
    batch_size: int = 32
    base_lr: float = DEFAULT_BASE_LR
    steps: tuple[int, ...] = DEFAULT_STEP_EPOCHS
    mults: tuple[float, ...] = DEFAULT_MULTIPLIERS
    epsilon: float = 0.06
    gamma: float = 0.3
    loss_form: str = "per_class_sum"
    clamp_floor: float = 1e-12
    freeze: bool = False
    seed: int = 0
    hidden_dim: int = 32
    dataset: DatasetSpec = field(default_factory=DatasetSpec)

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            schedule=StepDecaySchedule(self.base_lr, self.steps, self.mults),
            loss=LossConfig(
                epsilon=self.epsilon,
                gamma=self.gamma,
                form=self.loss_form,
                clamp_floor=self.clamp_floor,
            ),
            freeze=FreezePolicy.FROZEN if self.freeze else FreezePolicy.UNFROZEN,
            seed=self.seed,
            hidden_dim=self.hidden_dim,
        )

    def make_datasets(self) -> tuple[FeatureDataset, FeatureDataset]:
        spec = self.dataset
        train_set = synth_dataset(
            spec.seed, spec.n_train, spec.dims, spec.classes, spec.separation
        )
        val_set = synth_dataset(
            (spec.seed + 1) % 2**64, spec.n_val, spec.dims, spec.classes, spec.separation
        )
        return train_set, val_set


def _is_json(kind: type, value) -> bool:
    """Whether a JSON value has the annotated type ``kind``: bool is not an
    int, and an int is a float when ``float`` can hold it."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, int):
        return abs(value) < 2**1024 - 2**970  # from here on float() overflows
    return isinstance(value, (int, float) if kind is float else kind)


_field_types = functools.cache(typing.get_type_hints)


def _from_json(cls, data: dict, path: str, noun: str):
    """``cls(**data)`` once every key of the JSON object ``data`` is a field
    of the dataclass ``cls`` and every value has the field's annotated type:
    a tuple field takes a list, a dataclass field an object."""
    hints = _field_types(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"{path}: unknown {noun} keys {sorted(unknown)}")
    values = {}
    for name, value in data.items():
        kind = hints[name]
        if dataclasses.is_dataclass(kind):
            if not isinstance(value, dict):
                raise ValueError(f"{path}: {name!r} must be a JSON object")
            value = _from_json(kind, value, path, name)
        elif typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            if not isinstance(value, list) or not all(_is_json(item, v) for v in value):
                raise ValueError(
                    f"{path}: {name!r} must be a list of {item.__name__}, got {value!r}"
                )
            value = tuple(value)
        elif not _is_json(kind, value):
            raise ValueError(f"{path}: {name!r} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return cls(**values)


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a run config; raises ValueError naming the violated
    invariant on any bad value."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: run config must be a JSON object")
    config = _from_json(RunConfig, data, path, "config")
    config.to_train_config()  # surfaces invariant violations at load time
    if config.dataset.n_train < config.dataset.classes or config.dataset.n_val < config.dataset.classes:
        raise ValueError("dataset splits need at least one sample per class")
    return config


def load_manifest(path: str) -> EnsembleManifest:
    """Parse a fusion manifest; relative member paths resolve against the
    manifest file's directory."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    unknown = set(data) - {"members", "score_type"}
    if unknown:
        raise ValueError(f"{path}: unknown manifest keys {sorted(unknown)}")
    members_data = data.get("members")
    if not isinstance(members_data, list):
        raise ValueError(f"{path}: manifest 'members' must be a list")
    base = os.path.dirname(os.path.abspath(path))
    members = []
    for entry in members_data:
        if not isinstance(entry, dict) or set(entry) != {"path", "weight"}:
            raise ValueError(f"{path}: each member must be an object with 'path' and 'weight'")
        member_path, weight = entry["path"], entry["weight"]
        if not isinstance(member_path, str):
            raise ValueError(f"{path}: member 'path' must be str, got {member_path!r}")
        if not _is_json(float, weight):
            raise ValueError(f"{path}: member 'weight' must be float, got {weight!r}")
        if not os.path.isabs(member_path):
            member_path = os.path.join(base, member_path)
        members.append(EnsembleMember(path=member_path, weight=float(weight)))
    return EnsembleManifest(members=tuple(members), score_type=data.get("score_type", "prob"))


def write_manifest(path: str, member_paths: list[str], weights: list[float], score_type: str) -> None:
    """Write a manifest; member paths are stored relative to the manifest's
    directory when possible so the file is relocatable."""
    if score_type not in SCORE_TYPES:
        raise ValueError(f"score_type must be one of {SCORE_TYPES}, got {score_type!r}")
    base = os.path.dirname(os.path.abspath(path))
    members = []
    for member_path, weight in zip(member_paths, weights):
        try:
            stored = os.path.relpath(os.path.abspath(member_path), base)
        except ValueError:
            stored = os.path.abspath(member_path)
        members.append({"path": stored, "weight": float(weight)})
    document = {"members": members, "score_type": score_type}
    with _atomic_write(path) as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
