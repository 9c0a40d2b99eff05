"""Fault injection: process-variation errors inside the functional sim.

Table I quantifies per-bit sensing error rates for the two in-memory
mechanisms; this module pushes those rates into the *functional*
simulator, so their application-level consequences (corrupt hash
tables, broken contigs) become observable — the bridge between the
circuit study and the assembly workload.

A :class:`FaultModel` holds per-mechanism bit-flip probabilities:

* ``compute2`` faults hit two-row-activation outputs (XNOR & friends);
* ``tra`` faults hit triple-row-activation majority outputs;
* ``sum`` faults hit the latch-assisted sum path (same add-on circuitry
  as compute2, so it defaults to the same rate);
* ``copy`` faults hit RowClone transfers (0 by default — back-to-back
  activation restores full-rail signals, but margin studies can stress
  it).

Rates can be set directly or derived from the Table I Monte-Carlo
engine at a given variation level (:meth:`FaultModel.from_variation`).

All sampling flows through the public :meth:`FaultModel.decide` /
:meth:`FaultModel.corrupt` APIs so that consumers (the controller's
``compare_scan`` shortcut, the resilience retry loop) share one seeded
stream and stay bit-reproducible.

Batched-sampling equivalence rule
=================================

One ``decide`` call may cover many ops (the controller's compare scan
draws one decision per scanned row in a single call).  For a fixed
seed this is **stream equivalent** to the per-op sequence because
NumPy's ``Generator.random`` fills its output from the underlying bit
generator one double at a time, in C (row-major) order.  Hence:

* ``decide(a + b, rate)`` consumes exactly the uniforms of
  ``decide(a, rate)`` followed by ``decide(b, rate)``;
* ``decide((n, w), rate)`` consumes exactly the uniforms of ``n``
  consecutive ``decide(w, rate)`` calls, row by row.

A batched draw therefore reproduces the per-op sampling sequence
**iff** (1) the batch covers ops in the same order they would issue,
(2) each op contributes its elements in the same (row-major) order,
and (3) the batch draws only for ops that would have drawn one by one
(a zero-rate mechanism skips the RNG entirely, so a batch must never
sample on behalf of a zero-rate op).  The bulk execution engine draws
nothing itself: with live rates it replays the scalar path (see
:func:`repro.core.bitplane.sampling_free`).  The property tests in
``tests/core/test_faults.py`` pin the equivalence down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.variation import MonteCarloSense, VariationSpec
from repro.errors import FaultConfigError


@dataclass
class FaultModel:
    """Per-mechanism bit-flip probabilities for in-memory operations.

    Attributes:
        compute2_rate: flip probability per output bit of a two-row
            activation.
        tra_rate: flip probability per output bit of a TRA majority.
        sum_rate: flip probability per output bit of a sum cycle
            (defaults to ``compute2_rate`` when negative).
        copy_rate: flip probability per bit of a RowClone transfer
            (defaults to 0: copies are full-swing in this design).
        seed: RNG seed (faults are reproducible).
    """

    compute2_rate: float = 0.0
    tra_rate: float = 0.0
    sum_rate: float = -1.0
    copy_rate: float = 0.0
    seed: int = 0xFA17

    def __post_init__(self) -> None:
        if self.sum_rate < 0:
            self.sum_rate = self.compute2_rate
        for name in ("compute2_rate", "tra_rate", "sum_rate", "copy_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultConfigError(f"{name} must be within [0, 1]")
        self._rng = np.random.default_rng(self.seed)
        self._injected = 0

    @classmethod
    def from_variation(
        cls,
        percent: float,
        trials: int = 10_000,
        seed: int = 0xFA17,
    ) -> "FaultModel":
        """Derive rates from the Table I Monte-Carlo model.

        The Monte-Carlo error percentages are per-operation outcomes
        over random operand patterns — exactly the per-bit flip
        probability of a bulk row operation.
        """
        engine = MonteCarloSense(seed=seed)
        spec = VariationSpec(percent=percent)
        two_row = engine.run_two_row(spec, trials).error_percent / 100.0
        tra = engine.run_tra(spec, trials).error_percent / 100.0
        return cls(compute2_rate=two_row, tra_rate=tra, seed=seed)

    # ----- injection -----------------------------------------------------------

    @property
    def injected_faults(self) -> int:
        """Total bit flips injected so far."""
        return self._injected

    @property
    def enabled(self) -> bool:
        return (
            max(self.compute2_rate, self.tra_rate, self.sum_rate, self.copy_rate)
            > 0.0
        )

    def rate_for(self, mechanism: str) -> float:
        """The per-bit flip rate of one fault mechanism."""
        rates = {
            "compute2": self.compute2_rate,
            "tra": self.tra_rate,
            "sum": self.sum_rate,
            "copy": self.copy_rate,
        }
        try:
            return rates[mechanism]
        except KeyError:
            raise FaultConfigError(f"unknown mechanism {mechanism!r}") from None

    def decide(
        self,
        shape: int | tuple[int, ...],
        rate: "float | np.ndarray",
    ) -> np.ndarray:
        """Sample fault events: boolean array, True where a fault fires.

        The public sampling API — consumers must use this (never the
        private RNG) so that every draw comes from the one seeded
        stream and runs stay reproducible.  ``rate`` may be a scalar or
        an array broadcastable to ``shape`` (per-element
        probabilities).
        """
        return self._rng.random(shape) < np.asarray(rate, dtype=np.float64)

    def corrupt(
        self, bits: np.ndarray, mechanism: str, scale: float = 1.0
    ) -> np.ndarray:
        """Flip each bit independently at the mechanism's rate.

        Args:
            scale: multiplier on the base rate — the resilience layer's
                exponential operand re-staging retries re-execute at a
                derated effective rate (slower, higher-margin timing).
        """
        rate = self.rate_for(mechanism) * scale
        if rate <= 0.0:
            return bits
        flips = self.decide(bits.shape, rate)
        if not flips.any():
            return bits
        self._injected += int(flips.sum())
        return (bits ^ flips.astype(bits.dtype)).astype(np.uint8)

    # ----- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: rates plus the exact RNG stream.

        Restoring it mid-stream (:meth:`from_state`) continues the
        uniform sequence bit-for-bit, which is what makes checkpointed
        fault-injection runs resume bit-identically.
        """
        return {
            "compute2_rate": self.compute2_rate,
            "tra_rate": self.tra_rate,
            "sum_rate": self.sum_rate,
            "copy_rate": self.copy_rate,
            "seed": self.seed,
            "rng_state": self._rng.bit_generator.state,
            "injected": self._injected,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FaultModel":
        """Rebuild a model (and its RNG position) from :meth:`state_dict`."""
        model = cls(
            compute2_rate=float(state["compute2_rate"]),
            tra_rate=float(state["tra_rate"]),
            sum_rate=float(state["sum_rate"]),
            copy_rate=float(state["copy_rate"]),
            seed=int(state["seed"]),
        )
        model._rng.bit_generator.state = state["rng_state"]
        model._injected = int(state["injected"])
        return model


@dataclass(frozen=True)
class FaultReport:
    """Outcome summary of a fault-injection run (used by studies)."""

    variation_percent: float
    mechanism_rates: dict[str, float] = field(default_factory=dict)
    injected_faults: int = 0
    table_errors: int = 0
    assembly_correct: bool = True
