"""File formats: prediction CSV, label CSV, run-config JSON, manifest JSON.

Prediction files carry one header row ``id,c0,...,c{C-1}`` and one row per
sample: an id (no commas) followed by C reals printed with 9 fixed
decimals.  Rounding preserves row sums (see :func:`_units`), so the
format round-trips below every tolerance used in this package.  All text
is UTF-8 with LF line endings, and writing is deterministic: identical
inputs produce identical bytes.

A file is read once as bytes.  When every value has the fixed-point form
the writers print (``-?\\d{1,6}\\.\\d{9}`` for predictions, up to 15 digits
for labels), one numpy kernel parses it from the bytes in blocks of about
``CHUNK_ELEMENTS`` values, giving the same bits as ``float``.  The kernel
finds a block's cells in one of two ways.  A block whose lines share one
byte layout (one length, the same comma columns and one cell width, as in
the files clskit writes with zero-padded ids) is a 2-D view of the bytes,
and its cells are strided views of that; any other block is scanned for
its delimiters and its cells gathered.  Either way each cell sits in a
window as wide as the block's widest cell plus a sign slot, and one tail
checks the windows and turns their digits into signed integers with one
float64 place-value product: a cell holds at most 15 digits, integer and
decimal, so the product is exact below 2**53.  Ids must not repeat.  When
every block is a view and the ids, as bytes, rise strictly from line to
line (one vectorized comparison of neighbours per block), they are
distinct; only otherwise does a ``set`` of the ids look for a repeat.  Any
other file, such as a value in another float syntax or a label of 16 or
more digits, goes to the general path: it is read line by line, each cell
parsed with ``float`` (or ``int``), and its first bad line raises the
error.  Either path returns the ids as a :class:`SampleIds`, the bytes of
the id cells, each id followed by its comma, and labels as an int64 array
(an object array of Python ints when a label is past int64).
Predictions are written in blocks of about ``CHUNK_ELEMENTS`` values, and
each block is the mirror image of the reader's kernel: the printed units of
every value come from one batched rounding (in Python ints when int64 sums
could overflow), and their digits are written straight into one ``uint8``
buffer, three decimals at a time from a table of 3-digit groups, with each
block's ids a slice of the :class:`SampleIds` bytes; one mask drops the
unused slots of shorter cells and ids.  The rounding needs each row's exact
total only near a half-integer: a float sum of the values' fractions and an
error bound settle every other row, and only the rows left open are summed
exactly (see :func:`_units`).  Both writers take any sequence of ``str``,
and re-check only ids that are not already a :class:`SampleIds`; ``train``
hands them ready-made ones (:meth:`SampleIds.numbered`).
Run configs and manifests are read by one schema reader from their
dataclasses' types.  Every file is written to a temporary file beside its
target, which replaces the target only once it is complete, so a failed
write leaves no partial file behind.
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

from .ensemble import _UNIT_ROUNDOFF, EnsembleManifest, EnsembleMember, _exact_sum
from .ids import SampleIds
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
_DOT_DIGITS = 15  # digit slots per cell, integer and decimal: 10**15 < 2**53
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


def _units(scaled: np.ndarray) -> np.ndarray:
    """The printed units of every row of an ``(r, C)`` block of scaled values,
    by sum-preserving rounding (largest remainder): each printed value stays
    within one 1e-9 unit of the true value, and the printed row total is the
    true total rounded to 9 decimals, so row-stochastic matrices stay
    row-stochastic in file form.  int64 while every magnitude is below
    ``2**62 / C``, so no sum overflows, else Python ints; a row total past
    the float range raises OverflowError.

    A row's shortfall is ``rint(fl(S)) - B``: ``S`` the exact row total,
    ``fl(S)`` its correct rounding (:func:`_exact_sum`, ties to even), ``B``
    the sum of the floors.  In the int64 branch rows are filtered before the
    exact sum, as the sweep filters before it fuses exactly (Shewchuk,
    1997).  Write ``S = B + F``, ``F`` the exact sum of the fractions
    ``x - floor(x)``.  Their floats are exact but for values in (-1, 0),
    each off by at most ``u = 2**-53``, and lie in [0, 1], so their float
    sum ``f``, in any order, is within ``(C - 1) C u / (1 - (C - 1) u) + C u``
    of ``F`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §4.2).  Also ``|fl(S) - S| <= u |S| <= u C m``, ``m`` the block's largest
    magnitude (a sum of floats below the normal range is itself a float).
    The two add up to at most ``err = C u (C + m)`` times ``1 + 2 C u``, and
    the factor 2 below covers that and the rounding of ``err``.  With
    ``k = rint(f)`` (``f - k`` is exact), a row is certified when
    ``fl(|f - k| + 2 err) < 1/2``; rounding is monotone and 1/2 a float, so
    the exact ``|f - k| + 2 err < 1/2`` holds.  Then
    ``|fl(S) - (B + k)| <= |fl(S) - S| + |F - f| + |f - k| < 1/2``, no
    half-integer lies between them, and the shortfall is ``k``.  Every
    other row, and every row of a block with a magnitude of ``2**52`` or
    more (where ``2 err >= C``), takes the exact sum, as does the Python-int
    branch."""
    num_classes = scaled.shape[1]
    floor = np.floor(scaled)
    largest = np.abs(scaled).max()
    if largest < 2.0**62 / num_classes:
        base = floor.astype(np.int64)
        fraction_sum = (scaled - floor).sum(axis=1)
        nearest = np.rint(fraction_sum)
        err = num_classes * _UNIT_ROUNDOFF * (num_classes + largest)
        open_rows = np.flatnonzero(np.abs(fraction_sum - nearest) + 2.0 * err >= 0.5)
        short = nearest.astype(np.int64)
        if open_rows.size:
            total = np.rint(_exact_sum(scaled[open_rows].T)).astype(np.int64)
            short[open_rows] = total - base[open_rows].sum(axis=1)
    else:
        exact = np.frompyfunc(int, 1, 1)
        base = exact(floor)
        short = exact(np.rint(_exact_sum(scaled.T))) - base.sum(axis=1)
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


def _emit(heads: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The bytes of the data lines for ``heads``, the ``uint8`` bytes of r
    ids each followed by its comma, and an ``(r, C)`` block of printed units
    (int64 or Python ints): per cell an optional ``-``, the whole units, a
    point and 9 decimals.

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
    # Ids are comma-free, so the commas give their byte lengths.
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
        half, cut = rows // 2, ends[rows // 2 - 1]
        return np.concatenate([_emit(heads[:cut], units[:half]), _emit(heads[cut:], units[half:])])
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


def _format_block(heads: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The bytes of the data lines of a prediction file for ``heads``, the
    bytes of the ids each followed by its comma, and the rows of ``block``."""
    with np.errstate(over="ignore"):
        scaled = block * _UNIT
    finite = np.isfinite(scaled)
    if not finite.all():
        value = float(block[~finite][0])
        raise ValueError(f"value {value!r} is too large to print with 9 decimals")
    try:
        units = _units(scaled)
    except OverflowError:  # a row sum leaves the float range: name the first
        ids = heads.tobytes().decode("utf-8").split(",")
        for sample_id, row in zip(ids, scaled.tolist()):
            try:
                round(math.fsum(row))
            except OverflowError:
                raise ValueError(
                    f"row {sample_id!r} sums past the float range when printed with 9 decimals"
                ) from None
        raise
    return _emit(heads, units)


def write_predictions(path: str, ids: typing.Sequence[str], matrix: np.ndarray) -> None:
    """Write ``matrix`` with one row per id; ids that are not a
    :class:`SampleIds` are checked by :meth:`SampleIds.of` first."""
    m = check_prediction_matrix(matrix)
    if len(ids) != m.shape[0]:
        raise ValueError(f"{len(ids)} ids for {m.shape[0]} rows")
    if not isinstance(ids, SampleIds):
        ids = SampleIds.of(ids)
    heads = np.frombuffer(ids.data, np.uint8)
    # id i and its comma are heads[bounds[i]:bounds[i + 1]]
    bounds = np.append(0, np.flatnonzero(heads == ord(",")) + 1)
    rows, num_classes = m.shape
    step = max(1, CHUNK_ELEMENTS // num_classes)
    with _atomic_write(path) as handle:
        handle.write(("id," + ",".join(f"c{j}" for j in range(num_classes)) + "\n").encode("utf-8"))
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            handle.write(_format_block(heads[bounds[start]:bounds[stop]], m[start:stop]))


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
    place-value vector, and the masks that keep a cell's digit slots.

    The vector holds 10 to the number of digit slots right of each digit
    slot, and 0 in the sign and point slots.  A cell the kernel takes has at
    most :data:`_DOT_DIGITS` digits, so its kept digits times the vector are
    an integer below ``10**15``: the float64 product is exact below 2**53, in
    any summation order and on any BLAS thread count."""
    fraction = decimals + 1 if decimals else 0
    width = 1 + digits + fraction  # sign slot, integer digits, point and decimals
    point = width - fraction  # integer digits sit in slots 1 .. point - 1
    slots = np.arange(width)
    digit_slot = (slots > 0) & (slots != point)
    place = np.where(digit_slot, 10.0 ** (np.cumsum(digit_slot[::-1])[::-1] - 1), 0.0)
    # Row f keeps the digit slots of a cell whose first digit is in slot f.
    # It and every window of :func:`_scanned_cells` are single
    # ``width``-byte items, so a gather copies whole windows.
    keep = np.where(digit_slot & (slots >= slots[:, None]), 0xFF, 0).astype(np.uint8)
    keep = keep.view(f"V{width}").ravel()
    place.flags.writeable = keep.flags.writeable = False  # shared by every call
    return point, place, keep


def _one_layout_cells(data: bytes, start: int, stop: int, values_per_row: int):
    """Id bytes (each id and its comma), cell windows, first-digit slots,
    signs and id items of the lines ``data[start:stop]`` when every line has
    the first line's byte length, comma columns and one cell width, else
    None.

    The lines are then a ``(rows, length)`` view of the bytes, and the
    windows, each cell with the comma before it, a strided view of that:
    only the newline column, the comma columns and the ids are checked here.
    The id items are a strided view too, one ``S{id length}`` item per line.
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
    return heads, windows, first, negative, names


def _scanned_cells(data: bytes, start: int, stop: int, values_per_row: int, limit: int):
    """What :func:`_one_layout_cells` gives, but no id items, for lines of
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
    # Ids: the bytes past the newline before each line (or the block's
    # start) up to and with its first comma.
    id_starts = np.concatenate(([limit], delims[:-1, -1] + 1))
    lengths = delims[:, 0] + 1 - id_starts
    if not (lengths > 1).all():  # an empty id
        return None
    spans = np.repeat(id_starts - (np.cumsum(lengths) - lengths), lengths)
    heads = block[spans + np.arange(spans.size)].tobytes()
    ends = delims[:, 1:].ravel()
    starts = delims[:, :-1].ravel() + 1
    # a cell past the cap shows as one whose first digit is out of range
    width = min(int((ends - starts).max()), limit) + 1
    windows = np.ndarray((block.size - width + 1,), f"V{width}", block, strides=(1,))
    negative = block[starts] == ord("-")
    first = width - (ends - starts) + negative  # slot of each cell's first digit
    cells = windows[ends - width].view(np.uint8).reshape(-1, width)
    return heads, cells, first, negative, None


def _fixed_point_rows(data: bytes, start: int, values_per_row: int, decimals: int):
    """:class:`SampleIds` and values of the data lines ``data[start:]``, each
    an id and ``values_per_row`` cells of the form ``-?\\d+`` followed, when
    ``decimals`` > 0, by a point and exactly ``decimals`` digits, with at
    most :data:`_DOT_DIGITS` digits in all.  Values are float64 integers in
    units of ``10**-decimals``, -0.0 for a negative zero.  None when any
    line differs: another comma count, other cell text, no final newline,
    or an empty or repeated id.

    Blocks of about ``CHUNK_ELEMENTS`` cells are parsed from bytes.  A cell
    ends at its delimiter, so a window of bytes as wide as the block's widest
    cell plus a sign slot, ending there, holds it.  A block whose lines share
    one layout is a 2-D view whose windows are strided views
    (:func:`_one_layout_cells`); any other block is scanned for its
    delimiters and its windows gathered (:func:`_scanned_cells`).  Each
    window is then checked slot by slot, and the windows, cast to float64,
    times the place-value vector of :func:`_cell_layout` give the block's
    magnitudes, which its signs then negate.

    Each block's id bytes are kept as found and joined once.  Ids that
    rise strictly as bytes are distinct, so a set of the ids looks for a
    repeat only when some block is scanned, or when the ids of a view do
    not rise from line to line and from the block before.
    """
    fraction = decimals + 1 if decimals else 0
    digits = _DOT_DIGITS - decimals  # integer digits
    limit = 1 + digits + fraction  # the widest cell: a sign, digits, point and decimals
    heads, values = [], []
    ordered, last = True, b""
    while start < len(data):
        # whole lines; a last line without its newline fails the delimiter test
        span = start + CHUNK_ELEMENTS * limit
        stop = data.rfind(b"\n", start, span) + 1 or data.find(b"\n", span) + 1 or len(data)
        found = (_one_layout_cells(data, start, stop, values_per_row)
                 or _scanned_cells(data, start, stop, values_per_row, limit))
        if found is None:
            return None
        block_heads, windows, first, negative, names = found
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
        heads.append(block_heads)
        block = cells.reshape(-1, width).astype(np.float64) @ place
        values.append(np.negative(block, out=block, where=negative.ravel()))
        # ``S`` items of one length compare as their bytes
        ordered = (ordered and names is not None and last < names[:1].tobytes()
                   and bool((names[1:] > names[:-1]).all()))
        if ordered:
            last = names[-1:].tobytes()
        start = stop
    values = np.concatenate(values)
    ids = b"".join(heads)
    count = values.size // values_per_row
    if not ordered and len(set(ids.split(b","))) <= count:  # the split's last item is b""
        return None
    return SampleIds(ids, count), values


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


def _read_lines(path: str, data: bytes, width: int, parse) -> tuple[SampleIds, list]:
    """:class:`SampleIds` and values of the data lines of ``data``, each an
    id and ``width - 1`` cells parsed by ``parse``, read line by line: the
    first bad line raises its error, numbered as in the file."""
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
    return SampleIds((",".join(ids) + ",").encode("utf-8"), len(ids)), values


def read_predictions(path: str) -> tuple[SampleIds, np.ndarray]:
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
    fixed = _fixed_point_rows(data, len(header_line) + 1, num_classes, 9)
    if fixed is None:
        ids, values = _read_lines(path, data, num_classes + 1, _parse_number)
        return ids, np.array(values).reshape(len(ids), num_classes)
    # Every value is a float64 integer below 2**53, so one correctly rounded
    # division gives float()'s bits, -0.0 included.
    ids, values = fixed
    values /= _UNIT
    return ids, values.reshape(len(ids), num_classes)


def write_labels(path: str, ids: typing.Sequence[str], labels: np.ndarray) -> None:
    """Write one label per id; ids that are not a :class:`SampleIds` are
    checked by :meth:`SampleIds.of` first."""
    y = check_integers(labels)
    if len(ids) != y.shape[0]:
        raise ValueError(f"{len(ids)} ids for {y.shape[0]} labels")
    if not isinstance(ids, SampleIds):
        ids = SampleIds.of(ids)
    if y.size and y.min() < 0:
        raise ValueError("labels must be non-negative")
    if y.size and y.max() >= 2**63:
        raise ValueError("labels must be below 2**63")
    lines = "".join(f"{sample_id},{int(label)}\n" for sample_id, label in zip(ids, y.tolist()))
    with _atomic_write(path) as handle:
        handle.write(("id,label\n" + lines).encode("utf-8"))


def read_labels(path: str) -> tuple[SampleIds, np.ndarray]:
    """The ids and labels of a label file: int64 labels, or Python ints in
    an object array when one is 2**63 or more (only the line reader meets
    such a label)."""
    data, header = _read_head(path)
    if header != "id,label":
        raise ValueError(f"{path}:1: header must be 'id,label'")
    if len(data) <= len(header) + 1:
        raise ValueError(f"{path}:1: label file has no data rows")
    fixed = _fixed_point_rows(data, len(header) + 1, 1, 0)
    # signed labels, -0 among them, and labels past 15 digits take the line reader
    if fixed is None or np.signbit(fixed[1]).any():
        ids, labels = _read_lines(path, data, 2, _parse_label)
        return ids, np.array(labels, np.int64 if max(labels) < 2**63 else object)
    return fixed[0], fixed[1].astype(np.int64)


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
