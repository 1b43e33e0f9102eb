"""Numeric substrate: stable softmax, seeded random streams, validation.

Vectors and matrices are plain ``numpy`` float64 arrays.  All randomness in
the package flows through :func:`make_rng`, which wraps numpy's default
PCG64 bit generator: a given integer key reproduces the same stream on
every run.  Independent streams are derived by keying the generator with
tuples (e.g. ``(seed, epoch)``), never by sharing one generator.
"""

from __future__ import annotations

import numpy as np

# Tolerance for "entries sum to 1" checks on probability vectors.
PROB_SUM_TOL = 1e-9

_MAX_SEED = 2**64
# Elements of one block of values that a batched kernel works on at once
# (fusion sums, sweep chunks, metric rankings, prediction rows, CSV cells);
# bounds their temporaries.
CHUNK_ELEMENTS = 1 << 14


def make_rng(*key: int) -> np.random.Generator:
    """Return a deterministic generator for an integer key.

    Distinct key tuples give distinct streams, so e.g. ``make_rng(seed)``
    and ``make_rng(seed, 0)`` never collide.  The key length is mixed in
    because numpy's seed sequence ignores trailing zero words.
    """
    if not key:
        raise ValueError("make_rng requires at least one key part")
    for part in key:
        if not isinstance(part, (int, np.integer)) or isinstance(part, bool):
            raise ValueError(f"seed key parts must be integers, got {part!r}")
        if not 0 <= int(part) < _MAX_SEED:
            raise ValueError(f"seed key parts must be in [0, 2**64), got {part}")
    return np.random.default_rng([len(key), *(int(part) for part in key)])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Map a logit vector to a probability vector.

    Uses max-subtraction so arbitrarily large finite logits cannot
    overflow; the result sums to 1 within 1e-12.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("logits must be a 1-D vector with at least 2 entries")
    return softmax_rows(z[None, :])[0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`softmax` of a matrix in one batched call.

    A row's bits do not depend on its neighbours, so :func:`softmax` is a
    one-row call: the steps are element-wise, and each row sum is a
    reduction along the contiguous last axis, which numpy sums pairwise
    exactly as it sums a 1-D vector.
    """
    z = np.ascontiguousarray(logits, dtype=float)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("logits must be a 2-D matrix with at least 2 columns")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    with np.errstate(over="ignore"):  # a row past the float range shifts to -inf
        shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def check_probability_vector(p: np.ndarray) -> np.ndarray:
    """Validate a probability vector (entries in [0, 1], sums to 1 within
    :data:`PROB_SUM_TOL`)."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("probability vector must be 1-D with at least 2 entries")
    if not np.all(np.isfinite(v)):
        raise ValueError("probability vector must be finite")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("probability vector entries must lie in [0, 1]")
    total = float(v.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probability vector must sum to 1 (got {total!r})")
    return v


def check_prediction_matrix(scores: np.ndarray) -> np.ndarray:
    """Validate an n-by-C score matrix (finite, n >= 1, C >= 2)."""
    m = np.asarray(scores, dtype=float)
    if m.ndim != 2:
        raise ValueError("prediction matrix must be 2-D")
    n, num_classes = m.shape
    if n < 1:
        raise ValueError("prediction matrix must have at least one row")
    if num_classes < 2:
        raise ValueError("prediction matrix must have at least 2 class columns")
    if not np.all(np.isfinite(m)):
        raise ValueError("prediction matrix entries must be finite")
    return m


def check_integers(labels: np.ndarray) -> np.ndarray:
    """Validate that every label is a whole number, and return the labels
    with their range still testable: integer arrays as they are, finite whole
    floats and objects (Python integers of any size among them) unconverted.
    Fractions, non-finite values and text raise ``labels must be integers``."""
    y = np.asarray(labels)
    if y.dtype.kind in "iu":
        return y
    if y.dtype.kind == "b":  # the ints 0 and 1, which a range test compares
        return y.astype(int)
    if y.dtype.kind == "f":
        whole = np.isfinite(y) & (np.floor(y) == y)
    else:
        try:  # text never equals its int(); None, NaN and infinities raise
            whole = np.array([v == int(v) for v in y.ravel().tolist()], dtype=bool)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("labels must be integers") from None
    if not whole.all():
        raise ValueError("labels must be integers")
    return y


def check_labels(labels: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    """Validate a label vector against a prediction matrix's shape."""
    y = np.asarray(labels)
    if y.ndim != 1 or y.size != n:
        raise ValueError(f"labels must be a vector of length {n}")
    y = check_integers(y)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return y.astype(int)
