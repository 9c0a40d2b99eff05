"""Functional model of one computational sub-array.

A sub-array is a ``rows x cols`` bit matrix plus one stripe of
reconfigurable sense amplifiers.  Rows split into:

* **data rows** ``0 .. data_rows-1`` — operand storage behind the
  regular row decoder;
* **compute rows** ``x1 .. x8`` (physical rows ``data_rows .. rows-1``)
  — behind the 3:8 modified row decoder (MRD) that can raise two or
  three word lines at once.

The sub-array is *purely functional*: it mutates bits and returns
results; all timing/energy accounting lives in
:class:`repro.core.controller.Controller`, which is the only component
that issues operations in the real machine, too.

Since the columnar-storage rewrite the bits no longer live here: a
sub-array is a lightweight view handle — a slot index into the device's
shared :class:`~repro.core.storage.BitPlaneStore` — and every row it
hands out crosses the pack boundary (packed uint64 words inside,
unpacked 0/1 ``uint8`` at this API).  A sub-array constructed without a
store (unit tests, standalone examples) creates its own private
single-slot store, so the API is unchanged either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.isa import SAOp
from repro.core.sense_amplifier import SenseAmplifierArray
from repro.core.storage import BitPlaneStore
from repro.dram.geometry import SubArrayGeometry


@dataclass
class SubArray:
    """Behaviour of one computational sub-array over shared packed storage."""

    geometry: SubArrayGeometry = field(default_factory=SubArrayGeometry)
    #: shared device store; ``None`` creates a private single-slot store
    store: "BitPlaneStore | None" = None
    #: conversion-counter label (the owning bank's name on a device)
    label: str = "unbound"

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = BitPlaneStore(self.geometry.rows, self.geometry.cols)
        elif (
            self.store.rows != self.geometry.rows
            or self.store.cols != self.geometry.cols
        ):
            raise ValueError(
                f"store geometry ({self.store.rows}x{self.store.cols}) does "
                f"not match sub-array ({self.geometry.rows}x{self.geometry.cols})"
            )
        self._slot = self.store.new_slot(self.label)
        self.sa = SenseAmplifierArray(columns=self.geometry.cols)

    @property
    def slot(self) -> int:
        """This sub-array's slot in the shared packed store."""
        return self._slot

    # ----- row addressing -------------------------------------------------

    @property
    def rows(self) -> int:
        return self.geometry.rows

    @property
    def cols(self) -> int:
        return self.geometry.cols

    def compute_row(self, index: int) -> int:
        """Physical row number of compute row ``x{index}`` (1-based)."""
        return self.geometry.compute_row(index)

    def is_compute_row(self, row: int) -> bool:
        return self.geometry.data_rows <= row < self.geometry.rows

    def _check_row(self, row: int) -> int:
        if not 0 <= row < self.geometry.rows:
            raise IndexError(f"row {row} out of range 0..{self.geometry.rows - 1}")
        return row

    def _check_bits(self, bits: np.ndarray) -> np.ndarray:
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.shape != (self.geometry.cols,):
            raise ValueError(
                f"row data must have shape ({self.geometry.cols},), got {arr.shape}"
            )
        # hot path: max() is one pass with no temporary, unlike the old
        # np.isin(arr, (0, 1)).all() which built a bool array and
        # scanned twice (~6x slower per write_row at 256 columns)
        if arr.max(initial=0) > 1:
            raise ValueError("row data must be 0/1 bits")
        return arr

    # ----- memory behaviour -------------------------------------------------

    def write_row(self, row: int, bits: np.ndarray) -> None:
        self.store.write_row(
            self._slot, self._check_row(row), self._check_bits(bits)
        )

    def read_row(self, row: int) -> np.ndarray:
        return self.store.read_row(self._slot, self._check_row(row))

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Copy of a contiguous row block ``[start, stop)``."""
        self._check_row(start)
        if stop < start or stop > self.geometry.rows:
            raise IndexError(f"row range [{start}, {stop}) out of bounds")
        return self.store.read_rows(self._slot, start, stop)

    # ----- unpacked snapshots (read-only at the pack boundary) ---------------

    def row_view(self, row: int) -> np.ndarray:
        """Unpacked snapshot of one row; treat as read-only.

        Before the columnar store this was a live view; it is now a
        fresh unpack of the packed words, so mutations do NOT reach
        storage — writers go through :meth:`write_row` or the packed
        word APIs of :class:`~repro.core.storage.BitPlaneStore`.
        """
        return self.store.read_row(self._slot, self._check_row(row))

    def block_view(self, start: int, stop: int) -> np.ndarray:
        """Unpacked snapshot of the row block ``[start, stop)`` (read-only)."""
        self._check_row(start)
        if stop < start or stop > self.geometry.rows:
            raise IndexError(f"row range [{start}, {stop}) out of bounds")
        return self.store.read_rows(self._slot, start, stop)

    @property
    def raw_bits(self) -> np.ndarray:
        """Unpacked snapshot of the whole bit matrix (read-only).

        The bulk engine used to mutate through this; it now writes
        packed words directly (:attr:`store` / :attr:`slot`), and this
        accessor exists for tests and debugging that compare whole
        matrices.
        """
        return self.store.snapshot_slot(self._slot)

    def rowclone(self, src: int, des: int) -> None:
        """In-sub-array copy via back-to-back activation (AAP type 1)."""
        self.store.copy_row(
            self._slot, self._check_row(src), self._check_row(des)
        )

    # ----- compute behaviour --------------------------------------------------

    def compute2(self, src1: int, src2: int, des: int, op: SAOp) -> np.ndarray:
        """Two-row activation: ``des = op(src1, src2)``; returns the result.

        In hardware the sources must have been RowCloned into compute
        rows; the controller enforces that protocol — the functional
        model accepts any row pair so unit tests can probe it directly.
        """
        result = self.sa.compute2(
            self.store.read_row(self._slot, self._check_row(src1)),
            self.store.read_row(self._slot, self._check_row(src2)),
            op,
        )
        # the SA returns a fresh array; packing copies the values into
        # the row, so the result needs no further defensive copy
        self.store.write_row(self._slot, self._check_row(des), result)
        return result

    def tra_carry(self, src1: int, src2: int, src3: int, des: int) -> np.ndarray:
        """Triple-row activation: majority -> des, and into the SA latch."""
        rows = {self._check_row(src1), self._check_row(src2), self._check_row(src3)}
        if len(rows) != 3:
            raise ValueError("TRA requires three distinct rows")
        result = self.sa.carry(
            self.store.read_row(self._slot, src1),
            self.store.read_row(self._slot, src2),
            self.store.read_row(self._slot, src3),
        )
        self.store.write_row(self._slot, self._check_row(des), result)
        return result

    def sum_cycle(self, src1: int, src2: int, des: int) -> np.ndarray:
        """Latch-assisted sum: ``des = src1 ^ src2 ^ latch``."""
        result = self.sa.sum_with_latch(
            self.store.read_row(self._slot, self._check_row(src1)),
            self.store.read_row(self._slot, self._check_row(src2)),
        )
        self.store.write_row(self._slot, self._check_row(des), result)
        return result

    # ----- whole-array views (testing / debugging) ---------------------------

    def snapshot(self) -> np.ndarray:
        """Copy of the full bit matrix."""
        return self.store.snapshot_slot(self._slot)

    def clear(self) -> None:
        self.store.clear_slot(self._slot)
        self.sa.clear_latch()
