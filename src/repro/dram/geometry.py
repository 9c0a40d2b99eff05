"""Physical organisation of the PIM-Assembler memory.

The paper (Section II-A and Section IV "Setup") fixes the following
hierarchy, which this module captures as a set of immutable dataclasses:

* **sub-array**: 1024 rows x 256 columns.  1016 rows are ordinary *data
  rows* behind a regular row decoder; 8 rows (labelled ``x1..x8``) are
  *compute rows* behind a 3:8 Modified Row Decoder (MRD) that supports
  multi-row activation.
* **MAT**: 4x4 sub-arrays sharing a Global Row Decoder (GRD) and a Global
  Row Buffer (GRB), plus one Digital Processing Unit (DPU) for non-bulk
  bit-wise operations.
* **bank**: a grid of MATs routed in an H-tree.
* **device / memory group**: 16x16 banks.  The micro-benchmark comparison
  of Fig. 3b uses an 8-bank configuration, which callers can request via
  :func:`microbenchmark_geometry`.

All capacity and parallelism figures used by the timing model derive from
this module so that changing one number (say, the column count) propagates
consistently through the whole evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SubArrayGeometry:
    """Dimensions of one computational sub-array.

    Attributes:
        rows: total word lines, data + compute.
        cols: bit lines; also the number of bits processed per in-memory
            operation (one full row at a time).
        compute_rows: rows wired to the modified row decoder (``x1..x8``).
    """

    rows: int = 1024
    cols: int = 256
    compute_rows: int = 8

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("sub-array dimensions must be positive")
        if not 0 < self.compute_rows < self.rows:
            raise ValueError(
                "compute_rows must be positive and leave room for data rows"
            )

    @property
    def data_rows(self) -> int:
        """Rows available for operand storage (1016 in the paper)."""
        return self.rows - self.compute_rows

    def compute_row(self, index: int) -> int:
        """Physical row number of compute row ``x{index}`` (1-based)."""
        if not 1 <= index <= self.compute_rows:
            raise ValueError(
                f"compute row index must be in 1..{self.compute_rows}"
            )
        return self.data_rows + index - 1

    @property
    def row_bits(self) -> int:
        """Bits per row; the granularity of every bulk bit-wise op."""
        return self.cols

    @property
    def capacity_bits(self) -> int:
        return self.rows * self.cols

    @property
    def data_capacity_bits(self) -> int:
        return self.data_rows * self.cols


@dataclass(frozen=True)
class MatGeometry:
    """A MAT: a grid of sub-arrays plus shared GRD/GRB and one DPU."""

    subarray: SubArrayGeometry = SubArrayGeometry()
    subarrays_x: int = 4
    subarrays_y: int = 4
    #: how many sub-arrays may activate a row simultaneously within a MAT
    #: (paper setup: 1/1 row/column activation per MAT).
    active_subarrays: int = 1

    def __post_init__(self) -> None:
        if self.subarrays_x <= 0 or self.subarrays_y <= 0:
            raise ValueError("MAT grid dimensions must be positive")
        if not 0 < self.active_subarrays <= self.subarrays_x * self.subarrays_y:
            raise ValueError("active_subarrays out of range")

    @property
    def num_subarrays(self) -> int:
        return self.subarrays_x * self.subarrays_y

    @property
    def capacity_bits(self) -> int:
        return self.num_subarrays * self.subarray.capacity_bits


@dataclass(frozen=True)
class BankGeometry:
    """A bank: a grid of MATs routed in an H-tree manner."""

    mat: MatGeometry = MatGeometry()
    mats_x: int = 16
    mats_y: int = 16
    active_mats: int = 1

    def __post_init__(self) -> None:
        if self.mats_x <= 0 or self.mats_y <= 0:
            raise ValueError("bank grid dimensions must be positive")
        if not 0 < self.active_mats <= self.mats_x * self.mats_y:
            raise ValueError("active_mats out of range")

    @property
    def num_mats(self) -> int:
        return self.mats_x * self.mats_y

    @property
    def num_subarrays(self) -> int:
        return self.num_mats * self.mat.num_subarrays

    @property
    def capacity_bits(self) -> int:
        return self.num_mats * self.mat.capacity_bits


@dataclass(frozen=True)
class DeviceGeometry:
    """A full PIM-Assembler device (chip / memory group)."""

    bank: BankGeometry = BankGeometry()
    num_banks: int = 8

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("num_banks must be positive")

    @property
    def num_subarrays(self) -> int:
        return self.num_banks * self.bank.num_subarrays

    @property
    def capacity_bits(self) -> int:
        return self.num_banks * self.bank.capacity_bits

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_bits // 8

    @property
    def row_bits(self) -> int:
        return self.bank.mat.subarray.row_bits

    def parallel_op_bits(self, parallelism_degree: int = 1) -> int:
        """Bits processed by one device-wide in-memory operation.

        Every bank can drive ``active_mats`` MATs, each with
        ``active_subarrays`` sub-arrays, each computing one full row.
        ``parallelism_degree`` (Pd in the paper, Fig. 10) replicates the
        computation over additional sub-arrays within the MAT.

        Raises:
            ValueError: if ``parallelism_degree`` exceeds the sub-arrays
                physically present in a MAT.
        """
        mat = self.bank.mat
        if not 0 < parallelism_degree <= mat.num_subarrays:
            raise ValueError(
                f"parallelism_degree must be in 1..{mat.num_subarrays}"
            )
        per_bank = self.bank.active_mats * mat.active_subarrays
        return (
            self.num_banks
            * per_bank
            * parallelism_degree
            * mat.subarray.row_bits
        )


def default_geometry() -> DeviceGeometry:
    """The Section IV setup: 1024x256 sub-arrays, 4x4 MATs, 16x16 banks."""
    return DeviceGeometry(
        bank=BankGeometry(
            mat=MatGeometry(subarray=SubArrayGeometry(rows=1024, cols=256)),
        ),
        num_banks=8,
    )


def microbenchmark_geometry() -> DeviceGeometry:
    """The Fig. 3b raw-throughput setup: 8 banks of 1024x256 sub-arrays.

    The paper states every PIM platform is evaluated with an identical
    physical memory configuration; the same geometry is therefore shared
    with the Ambit and DRISA models in :mod:`repro.platforms`.
    """
    return default_geometry()
