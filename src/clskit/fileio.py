"""File formats: prediction CSV, label CSV, run-config JSON, manifest JSON.

Prediction files carry one header row ``id,c0,...,c{C-1}`` and one row per
sample: an id (no commas) followed by C reals printed with 9 fixed
decimals.  Rounding preserves row sums (see :func:`_units`), so the
format round-trips below every tolerance used in this package.  All text
is UTF-8 with LF line endings, and writing is deterministic: identical
inputs produce identical bytes.

A file is read once as bytes.  When every value has the fixed-point form
the writers print (``-?\\d{1,6}\\.\\d{9}`` for predictions, up to 18 digits
for labels), one numpy kernel parses it from the bytes in blocks of about
``CHUNK_ELEMENTS`` values, giving the same bits as ``float``.  The kernel
finds a block's cells in one of two ways.  A block whose lines share one
byte layout (one length, the same comma columns and one cell width, as in
the files clskit writes with zero-padded ids) is a 2-D view of the bytes,
and its cells are strided views of that; any other block is scanned for
its delimiters and its cells gathered.  Either way each cell sits in a
window as wide as the block's widest cell plus a sign slot, and one tail
checks the windows and turns their digits into integers with one float64
place-value product, exact below 2**53: each column of the place values
spans at most 15 digits, and a label of 16-18 digits adds its two columns
in int64.  Ids must not repeat.  When every block is a view and the ids,
as bytes, rise strictly from line to line (one vectorized comparison of
neighbours per block), they are distinct; only otherwise does a ``set`` of
the ids look for a repeat.  Any other file, such as a value in another
float syntax, goes to the general path: it is read line by line, each cell
parsed with ``float`` (or ``int``), and its first bad line raises the
error.
Predictions are written in blocks of about ``CHUNK_ELEMENTS`` values, and
each block is the mirror image of the reader's kernel: the printed units of
every value come from one batched rounding (in Python ints when int64 sums
could overflow), and their digits are written straight into one ``uint8``
buffer, three decimals at a time from a table of 3-digit groups, with the
ids UTF-8 encoded by one join; one mask drops the unused slots of shorter
cells and ids.  Run configs and manifests are read by one schema reader
from their dataclasses' types.  Every file is written to a temporary file
beside its target, which replaces the target only once it is complete, so
a failed write leaves no partial file behind.
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

from .ensemble import EnsembleManifest, EnsembleMember, _exact_sum
from .losses import LossConfig
from .numerics import CHUNK_ELEMENTS, check_integers, check_prediction_matrix
from .schedule import (
    DEFAULT_BASE_LR,
    DEFAULT_MULTIPLIERS,
    DEFAULT_STEP_EPOCHS,
    FreezePolicy,
    StepDecaySchedule,
)
from .trainer import FeatureDataset, TrainConfig, synth_dataset

_UNIT = 10**9  # one printed decimal unit: 9 fixed decimals
_DOT_DIGITS = 15  # digit slots per place-value column: 10**15 < 2**53
_LABEL = re.compile(r"[+-]?\d+")


@contextlib.contextmanager
def _atomic_write(path: str):
    """A binary handle whose file appears at ``path`` only once it is complete.

    The bytes go to a new file next to ``path``, which replaces ``path`` when
    the block ends; if the block raises, the new file is removed and ``path``
    is left as it was.  An error opening or renaming the new file names
    ``path``, as ``open(path, "wb")`` would, not the new file's random name.
    """
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    try:
        with open(fd, "wb") as handle:
            yield handle
        try:
            os.replace(temp, path)
        except OSError as err:
            raise OSError(err.errno, err.strerror, path) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def _check_ids(ids: list[str]) -> None:
    """Raise naming the first of ``ids`` that is empty, has a comma or a
    newline (either would split its line when read back) or repeats.
    Batched string operations and a sort, which finds repeats in a fraction
    of a set's memory, check them first."""
    joined = "".join(ids)
    if "" not in ids and "," not in joined and "\n" not in joined:
        order = sorted(ids)
        if all(map(str.__ne__, order, order[1:])):
            return
    seen = set()
    for sample_id in ids:
        if not sample_id or "," in sample_id:
            raise ValueError(f"sample id must be non-empty and comma-free, got {sample_id!r}")
        if "\n" in sample_id:
            raise ValueError(f"sample id must not contain a newline, got {sample_id!r}")
        if sample_id in seen:
            raise ValueError(f"duplicate sample id {sample_id!r}")
        seen.add(sample_id)


def _units(scaled: np.ndarray) -> np.ndarray:
    """The printed units of every row of an ``(r, C)`` block of scaled values,
    by sum-preserving rounding (largest remainder): each printed value stays
    within one 1e-9 unit of the true value, and the printed row total is the
    true total rounded to 9 decimals, so row-stochastic matrices stay
    row-stochastic in file form.  int64 while every magnitude is below
    ``2**62 / C``, so no sum overflows, else Python ints; a row total past
    the float range raises OverflowError."""
    num_classes = scaled.shape[1]
    floor = np.floor(scaled)
    total = np.rint(_exact_sum(scaled.T))
    if np.abs(scaled).max() < 2.0**62 / num_classes:
        base, short = floor.astype(np.int64), total.astype(np.int64)
    else:
        exact = np.frompyfunc(int, 1, 1)
        base, short = exact(floor), exact(total)
    short = short - base.sum(axis=1)
    # How many classes the shortfall bumps: with a negative shortfall (a row
    # total rounded below the floors' sum), all but -short.
    count = np.where(short >= 0, short, short + num_classes)
    order = np.argsort(floor - scaled, axis=1, kind="stable")
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(num_classes)[None, :], axis=1)
    return base + (position < count[:, None])


# "000" .. "999" as little-endian 4-byte words whose fourth byte is spare:
# one word store writes a 3-digit group, and the next store overwrites the
# spare byte.
_GROUPS = np.frombuffer(b"".join(b"%03d\0" % k for k in range(1000)), "<u4")


def _emit(ids: list[str], units: np.ndarray) -> np.ndarray:
    """The bytes of the data lines for ``ids`` and an ``(r, C)`` block of
    printed units (int64 or Python ints): per cell an optional ``-``, the
    whole units, a point and 9 decimals.

    Every byte goes into one ``uint8`` buffer with a fixed slot for each byte
    any row of the block may need: the id and its comma, left-aligned in a
    region as wide as the longest, then per cell a sign slot (when the block
    has a negative value), the integer digits right-aligned in as many slots
    as the block's widest value needs, the point, 9 decimals, and ``,`` or
    ``\\n``.  The slots a row does not use, leading digit slots before a
    cell's first nonzero digit among them, are then dropped by one boolean
    mask.  Every digit pass works on int64: Python ints are peeled into it 18
    digits at a time.  A block whose id padding would outweigh its cells is
    emitted in halves.
    """
    rows, num_classes = units.shape
    # Ids are comma-free, so one join gives each id's bytes and its comma,
    # and the commas give their byte lengths.
    heads = np.frombuffer((",".join(ids) + ",").encode("utf-8"), np.uint8)
    ends = np.flatnonzero(heads == ord(",")) + 1
    head_len = np.diff(ends, prepend=0)
    lead = int(head_len.max())
    negative = units < 0
    signed = int(negative.any())
    magnitude = np.abs(units)
    whole = magnitude // _UNIT
    fraction = (magnitude - whole * _UNIT).astype(np.uint32)
    point = signed + len(str(whole.max()))  # the point's slot in a cell
    cell = point + 11
    if rows > 1 and rows * lead - heads.size > rows * num_classes * cell:
        # The id padding would outweigh the cells: emit the halves, so that
        # one long id pads only its own row.
        half = rows // 2
        return np.concatenate([_emit(ids[:half], units[:half]), _emit(ids[half:], units[half:])])
    width = lead + num_classes * cell
    buf = np.empty((rows, width), np.uint8)

    def slots(offset: int, dtype=np.uint8) -> np.ndarray:
        """Slot ``offset`` of every cell, as an ``(r, C)`` view of ``buf``."""
        return np.ndarray(
            (rows, num_classes), dtype, buf, offset=lead + offset, strides=(width, cell)
        )

    thousands = fraction // 1000
    millions = thousands // 1000
    for k, group in enumerate((millions, thousands - 1000 * millions, fraction - 1000 * thousands)):
        # the last store's spare byte lands in the delimiter slot, written below
        slots(point + 1 + 3 * k, "<u4")[...] = np.take(_GROUPS, group)
    rest = high = whole
    for i, k in enumerate(range(point - 1, signed - 1, -1)):  # digits from the right
        if whole.dtype == object and i % 18 == 0:  # Python ints: the next 18 digits in int64
            rest = (high % 10**18).astype(np.int64)
            high = high // 10**18
        digit = rest
        if k > signed:  # the leading slot takes what is left, a digit
            rest = rest // 10
            digit = digit - 10 * rest
        np.add(digit, ord("0"), out=slots(k), casting="unsafe")
    slots(point)[...] = ord(".")
    slots(cell - 1)[...] = ord(",")
    buf[:, -1] = ord("\n")
    if signed:
        slots(0)[...] = ord("-")
    starts = np.arange(0, rows * width, width) - (ends - head_len)
    buf.reshape(-1)[np.repeat(starts, head_len) + np.arange(heads.size)] = heads
    keep = np.ones((rows, width), bool)
    keep[:, :lead] = np.arange(lead) < head_len[:, None]
    cells = keep[:, lead:].reshape(rows, num_classes, cell)
    if signed:
        cells[:, :, 0] = negative
    for k in range(signed, point - 1):  # leading digit slots: kept from the first nonzero digit on
        np.not_equal(slots(k), ord("0"), out=cells[:, :, k])
        if k > signed:
            cells[:, :, k] |= cells[:, :, k - 1]
    return buf.reshape(-1) if keep.all() else buf[keep]


def _format_block(ids: list[str], block: np.ndarray) -> np.ndarray:
    """The bytes of the data lines of a prediction file for ``ids`` and the
    rows of ``block``."""
    with np.errstate(over="ignore"):
        scaled = block * _UNIT
    finite = np.isfinite(scaled)
    if not finite.all():
        value = float(block[~finite][0])
        raise ValueError(f"value {value!r} is too large to print with 9 decimals")
    try:
        units = _units(scaled)
    except OverflowError:  # a row sum leaves the float range: name the first
        for sample_id, row in zip(ids, scaled.tolist()):
            try:
                round(math.fsum(row))
            except OverflowError:
                raise ValueError(
                    f"row {sample_id!r} sums past the float range when printed with 9 decimals"
                ) from None
        raise
    return _emit(ids, units)


def write_predictions(path: str, ids: list[str], matrix: np.ndarray) -> None:
    m = check_prediction_matrix(matrix)
    if len(ids) != m.shape[0]:
        raise ValueError(f"{len(ids)} ids for {m.shape[0]} rows")
    ids = list(ids)
    _check_ids(ids)
    num_classes = m.shape[1]
    step = max(1, CHUNK_ELEMENTS // num_classes)
    with _atomic_write(path) as handle:
        handle.write(("id," + ",".join(f"c{j}" for j in range(num_classes)) + "\n").encode("utf-8"))
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
    """The byte slots of a window that holds a sign slot and the cell
    ``\\d{digits}(\\.\\d{decimals})?``: the point's slot, the float64
    place-value matrix, and the masks that keep a cell's digit slots.

    The matrix has a row per slot and a column per group of
    :data:`_DOT_DIGITS` digit slots, counted from the right: column ``k``
    holds the place values of group ``k`` in units of ``10 ** (15 * k)``,
    and 0 in every other slot.  A window of digits times a column is then
    an integer below ``10**15``: the float64 place-value product is exact
    below 2**53, in any summation order and on any BLAS thread count.  A
    prediction cell (6 + 9 digits) needs one column; only a label of 16-18
    digits needs a second."""
    fraction = decimals + 1 if decimals else 0
    width = 1 + digits + fraction  # sign slot, integer digits, point and decimals
    point = width - fraction  # integer digits sit in slots 1 .. point - 1
    slots = np.arange(width)
    digit_slot = (slots > 0) & (slots != point)
    # a digit's place value is 10 ** (the digit slots to its right)
    exponent = np.cumsum(digit_slot[::-1])[::-1] - 1
    column = np.where(digit_slot, exponent // _DOT_DIGITS, -1)
    columns = np.arange(math.ceil((digits + decimals) / _DOT_DIGITS))
    place = np.where(column[:, None] == columns, 10.0 ** (exponent % _DOT_DIGITS)[:, None], 0.0)
    # Row f keeps the digit slots of a cell whose first digit is in slot f.
    # It and every window of :func:`_scanned_cells` are single
    # ``width``-byte items, so a gather copies whole windows.
    keep = np.where(digit_slot & (slots >= slots[:, None]), 0xFF, 0).astype(np.uint8)
    keep = keep.view(f"V{width}").ravel()
    place.flags.writeable = keep.flags.writeable = False  # shared by every call
    return point, place, keep


def _one_layout_cells(data: bytes, start: int, stop: int, values_per_row: int):
    """Ids, cell windows, first-digit slots, signs and id bytes of the lines
    ``data[start:stop]`` when every line has the first line's byte length,
    comma columns and one cell width, else None.

    The lines are then a ``(rows, length)`` view of the bytes, and the
    windows, each cell with the comma before it, a strided view of that:
    only the newline column, the comma columns and the ids are checked here.
    The id bytes are a strided view too, one ``S{id length}`` item per line.
    """
    end = data.find(b"\n", start, stop)
    id_len = data.find(b",", start, end) - start
    length = end + 1 - start
    width, rest = divmod(length - 1 - id_len, values_per_row)  # a comma and a cell
    if end < 0 or id_len < 1 or rest or width < 2 or (stop - start) % length:
        return None
    lines = np.frombuffer(data, np.uint8, stop - start, start).reshape(-1, length)
    windows = lines[:, id_len:-1].reshape(len(lines), values_per_row, width)
    if not ((lines[:, -1] == ord("\n")).all() and (windows[:, :, 0] == ord(",")).all()):
        return None
    heads = lines[:, :id_len + 1].tobytes()  # each id and its comma
    if heads.count(b",") != len(lines) or b"\n" in heads:
        return None
    negative = windows[:, :, 1] == ord("-")
    # An unsigned cell has its first digit in slot 1, so without signs the
    # first line's slots serve every line and its keep masks are broadcast.
    first = 1 + (negative if negative.any() else negative[0])
    names = np.ndarray((len(lines),), f"S{id_len}", data, offset=start, strides=(length,))
    return heads.decode("utf-8").split(",")[:-1], windows, first, negative, names


def _scanned_cells(data: bytes, start: int, stop: int, values_per_row: int, limit: int):
    """What :func:`_one_layout_cells` gives, but no id bytes, for lines of
    any layout: a scan for every ``,`` and ``\\n`` finds the cells, and each
    cell's window, as wide as the block's widest cell (capped at ``limit``
    bytes) plus a sign slot, is gathered from the bytes up to its delimiter.
    None when a line has another comma count, the last line has no newline,
    or an id is empty."""
    # ``limit`` bytes of padding in front keep every window inside the block.
    block = np.zeros(limit + stop - start, np.uint8)
    block[limit:] = np.frombuffer(data, np.uint8, stop - start, start)
    delims = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
    if delims.size % (values_per_row + 1):
        return None
    delims = delims.reshape(-1, values_per_row + 1)
    kinds = block[delims]
    if not ((kinds[:, :-1] == ord(",")).all() and (kinds[:, -1] == ord("\n")).all()):
        return None
    # Ids: the bytes from the newline before each line (one in the padding
    # for the first) up to its first comma, split at those newlines.
    block[limit - 1] = ord("\n")
    id_starts = np.concatenate(([limit - 1], delims[:-1, -1]))
    lengths = delims[:, 0] - id_starts
    if not (lengths > 1).all():  # an empty id
        return None
    spans = np.repeat(id_starts - (np.cumsum(lengths) - lengths), lengths)
    block_ids = block[spans + np.arange(spans.size)].tobytes().decode("utf-8").split("\n")[1:]
    ends = delims[:, 1:].ravel()
    starts = delims[:, :-1].ravel() + 1
    # a cell past the cap shows as one whose first digit is out of range
    width = min(int((ends - starts).max()), limit) + 1
    windows = np.ndarray((block.size - width + 1,), f"V{width}", block, strides=(1,))
    negative = block[starts] == ord("-")
    first = width - (ends - starts) + negative  # slot of each cell's first digit
    cells = windows[ends - width].view(np.uint8).reshape(-1, width)
    return block_ids, cells, first, negative, None


def _fixed_point_rows(data: bytes, start: int, values_per_row: int, digits: int, decimals: int):
    """Ids, magnitudes and signs of the data lines ``data[start:]``, each an id
    and ``values_per_row`` cells of the form ``-?\\d{1,digits}`` followed, when
    ``decimals`` > 0, by a point and exactly ``decimals`` digits; magnitudes
    count units of ``10**-decimals``.  None when any line differs: another
    comma count, other cell text, no final newline, or an empty or repeated
    id.

    Blocks of about ``CHUNK_ELEMENTS`` cells are parsed from bytes.  A cell
    ends at its delimiter, so a window of bytes as wide as the block's widest
    cell plus a sign slot, ending there, holds it.  A block whose lines share
    one layout is a 2-D view whose windows are strided views
    (:func:`_one_layout_cells`); any other block is scanned for its
    delimiters and its windows gathered (:func:`_scanned_cells`).  Each
    window is then checked slot by slot, and the windows, cast to float64,
    times the place-value matrix of :func:`_cell_layout` give the
    magnitudes: float64 for cells of at most :data:`_DOT_DIGITS` digits,
    else int64 sums of the matrix's columns.

    Ids that rise strictly as bytes are distinct, so a set of the ids looks
    for a repeat only when some block is scanned, or when the ids of a view
    do not rise from line to line and from the block before.
    """
    fraction = decimals + 1 if decimals else 0
    limit = 1 + digits + fraction  # the widest cell: a sign, digits, point and decimals
    wide = digits + decimals > _DOT_DIGITS  # a magnitude may pass 2**53
    ids: list[str] = []
    magnitudes, signs = [], []
    ordered, last = True, b""
    while start < len(data):
        # whole lines; a last line without its newline fails the delimiter test
        span = start + CHUNK_ELEMENTS * limit
        stop = data.rfind(b"\n", start, span) + 1 or data.find(b"\n", span) + 1 or len(data)
        found = (_one_layout_cells(data, start, stop, values_per_row)
                 or _scanned_cells(data, start, stop, values_per_row, limit))
        if found is None:
            return None
        block_ids, windows, first, negative, names = found
        width = windows.shape[-1]
        if not fraction < width - 1 <= limit:
            return None
        point, place, keep = _cell_layout(width - 1 - fraction, decimals)
        # range first: ``keep`` has a row for each slot of the window only
        if not np.all((first >= point - digits) & (first < point)):
            return None
        if decimals and not (windows[..., point] == ord(".")).all():
            return None
        # wraps, so a byte below '0' is no digit either; a gathered copy is
        # reused, a read-only view of the file's bytes is copied once
        cells = np.subtract(windows, np.uint8(ord("0")),
                            out=windows if windows.flags.writeable else None)
        cells &= keep[first].view(np.uint8).reshape(*first.shape, width)  # zero all but digits
        if cells.max() >= 10:
            return None
        ids.extend(block_ids)
        sums = cells.reshape(-1, width).astype(np.float64) @ place
        if wide:  # column k counts units of 10 ** (15 * k)
            magnitudes.append(sums.astype(np.int64) @ 10 ** (_DOT_DIGITS * np.arange(sums.shape[1])))
        else:  # a second column has only the slot of a sign, which is never a digit
            magnitudes.append(sums[:, 0])
        signs.append(negative.ravel())
        # ``S`` items of one length compare as their bytes
        ordered = (ordered and names is not None and last < names[:1].tobytes()
                   and bool((names[1:] > names[:-1]).all()))
        if ordered:
            last = names[-1:].tobytes()
        start = stop
    if not ordered and len(set(ids)) < len(ids):
        return None
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
        if not row[0]:
            raise ValueError(f"{where}: empty sample id")
        if row[0] in seen:
            raise ValueError(f"{where}: duplicate sample id {row[0]!r}")
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
    # With at most 15 digits every magnitude is a float64 integer below 2**53,
    # so one correctly rounded division gives float()'s bits, -0.0 included.
    ids, values, negative = fixed
    values /= _UNIT
    np.negative(values, out=values, where=negative)
    return ids, values.reshape(len(ids), num_classes)


def write_labels(path: str, ids: list[str], labels: np.ndarray) -> None:
    y = check_integers(labels)
    if len(ids) != y.shape[0]:
        raise ValueError(f"{len(ids)} ids for {y.shape[0]} labels")
    _check_ids(list(ids))
    if y.size and y.min() < 0:
        raise ValueError("labels must be non-negative")
    if y.size and y.max() >= 2**63:
        raise ValueError("labels must be below 2**63")
    lines = "".join(f"{sample_id},{int(label)}\n" for sample_id, label in zip(ids, y.tolist()))
    with _atomic_write(path) as handle:
        handle.write(("id,label\n" + lines).encode("utf-8"))


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
    int, an int is a float when ``float`` can hold it, a dataclass is an
    object and a tuple a list of its item type."""
    if dataclasses.is_dataclass(kind):
        return isinstance(value, dict)
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, list) and all(_is_json(item, v) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, int):
        return abs(value) < 2**1024 - 2**970  # from here on float() overflows
    return isinstance(value, (int, float) if kind is float else kind)


def _json_name(kind: type) -> str:
    """What errors call a JSON value of the annotated type ``kind``."""
    if typing.get_origin(kind) is tuple:
        return "a list of " + _json_name(typing.get_args(kind)[0]).removeprefix("a ")
    return "a JSON object" if dataclasses.is_dataclass(kind) else kind.__name__


_field_types = functools.cache(typing.get_type_hints)


def _from_json(cls, data, path: str, noun: str):
    """``cls(**data)`` once the JSON value ``data`` is an object that has every
    field of the dataclass ``cls`` without a default, no other keys, and
    values of their fields' types (:func:`_is_json`), converted: an object
    to its dataclass, a list to a tuple, an int for a float to a float.
    Errors name ``path`` and ``noun``, or for a tuple's items the field's
    singular ("member" for ``members``)."""
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {noun} must be a JSON object")
    hints = _field_types(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"{path}: unknown {noun} keys {sorted(unknown)}")
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if not data.keys() >= set(required):
        raise ValueError(f"{path}: {noun} must have {' and '.join(map(repr, required))}")

    def convert(kind: type, value, name: str):
        if dataclasses.is_dataclass(kind):
            return _from_json(kind, value, path, name)
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(convert(item, v, name.removesuffix("s")) for v in value)
        return float(value) if kind is float else value

    values = {}
    for name, value in data.items():
        kind = hints[name]
        if not _is_json(kind, value):
            raise ValueError(f"{path}: {noun} {name!r} must be {_json_name(kind)}, got {value!r}")
        values[name] = convert(kind, value, name)
    return cls(**values)


def _load_json(path: str, cls, noun: str):
    """The JSON document at ``path`` read as ``cls`` by :func:`_from_json`;
    one nested past the recursion limit is a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _from_json(cls, json.load(handle), path, noun)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a run config; raises ValueError naming the violated
    invariant on any bad value."""
    config = _load_json(path, RunConfig, "config")
    config.to_train_config()  # surfaces invariant violations at load time
    if config.dataset.n_train < config.dataset.classes or config.dataset.n_val < config.dataset.classes:
        raise ValueError("dataset splits need at least one sample per class")
    return config


def load_manifest(path: str) -> EnsembleManifest:
    """Parse a fusion manifest; relative member paths resolve against the
    manifest file's directory."""
    manifest = _load_json(path, EnsembleManifest, "manifest")
    base = os.path.dirname(os.path.abspath(path))
    members = [dataclasses.replace(m, path=os.path.join(base, m.path)) for m in manifest.members]
    return dataclasses.replace(manifest, members=members)


def write_manifest(path: str, member_paths: list[str], weights: list[float], score_type: str) -> None:
    """Write a manifest; member paths are stored relative to the manifest's
    directory when possible so the file is relocatable.  A manifest that
    :class:`EnsembleManifest` rejects is not written, nor one with a weight
    count other than its path count."""
    if len(member_paths) != len(weights):
        raise ValueError(f"{len(member_paths)} member paths for {len(weights)} weights")
    base = os.path.dirname(os.path.abspath(path))
    members = []
    for member_path, weight in zip(member_paths, weights):
        try:
            stored = os.path.relpath(os.path.abspath(member_path), base)
        except ValueError:
            stored = os.path.abspath(member_path)
        members.append(EnsembleMember(path=stored, weight=float(weight)))
    manifest = EnsembleManifest(members=tuple(members), score_type=score_type)
    with _atomic_write(path) as handle:
        handle.write((json.dumps(dataclasses.asdict(manifest), indent=2) + "\n").encode("utf-8"))
