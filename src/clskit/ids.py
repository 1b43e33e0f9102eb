"""The sample-id column: the rule its ids obey, and :class:`SampleIds`,
which the CSV readers return and the writers print (``fileio`` re-exports
it)."""

from __future__ import annotations

import collections.abc


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


class SampleIds(collections.abc.Sequence):
    """A column of sample ids held as its UTF-8 bytes, each id followed by a
    comma: the bytes of the id cells as a file has them, which the readers
    find and the writers print.

    Every instance holds ids that are non-empty, comma-free, newline-free
    and distinct: the readers make one only after their own checks, and
    :meth:`of` only after :func:`_check_ids`.  Two sequences are equal when
    their bytes are; a list or tuple compares with the decoded ids, which
    are decoded once and kept, as are indexing and iteration.
    """

    __slots__ = ("data", "_count", "_decoded")
    __hash__ = None

    def __init__(self, data: bytes, count: int):
        self.data = data
        self._count = count
        self._decoded: list[str] | None = None

    @classmethod
    def of(cls, ids) -> SampleIds:
        """The checked ids of a sequence of ``str``; raises ValueError naming
        the first id that breaks the rule of :func:`_check_ids`."""
        ids = list(ids)
        _check_ids(ids)
        checked = cls((",".join(ids) + "," if ids else "").encode("utf-8"), len(ids))
        checked._decoded = ids
        return checked

    def _ids(self) -> list[str]:
        if self._decoded is None:
            self._decoded = self.data.decode("utf-8").split(",")[:-1]
        return self._decoded

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._ids()[index]

    def __iter__(self):
        return iter(self._ids())

    def __eq__(self, other) -> bool:
        if isinstance(other, SampleIds):
            return self.data == other.data
        if isinstance(other, (list, tuple)):
            return self._ids() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"SampleIds({self._ids()!r})"
