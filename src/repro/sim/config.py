"""Simulator configuration.

One :class:`SimulationConfig` describes a complete machine + application
setup: the torus shape, the clock ratio, the processor's multithreading
parameters and the measurement windows.  Defaults reconstruct the
Alewife-like machine of Section 3.1: a radix-8 two-dimensional torus
whose switches run twice as fast as the processors, four-context-capable
processors, and a full-map invalidate directory protocol.

The context switch, the coherence controller's occupancies and the cache
hit are fixed costs of that machine, the module constants below.  Caches
are unbounded: the validation workload touches about five lines per
thread, so the paper's 64 KB cache never evicts.

Time-base convention: names ending in ``_CYCLES`` or ``_cycles`` are
**processor** cycles (they describe processor/controller work); fields
ending in ``_network_cycles`` are network cycles.  The simulator itself
advances in network cycles and converts at the boundary, exactly as the
analytical model does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ParameterError

__all__ = ["SimulationConfig"]

#: Sparcle's context-switch time.
SWITCH_CYCLES = 11
#: Coherence controller occupancies, modelling a pipelined hardware
#: controller (Alewife's CMMU): handling a request from the local
#: processor (miss detection, transaction setup), receiving and decoding
#: one network message (including the home's directory lookup),
#: composing and launching one message, and the DRAM access of a data
#: reply or writeback merge.
REQUEST_CYCLES = 1
RECEIVE_CYCLES = 2
SEND_CYCLES = 1
MEMORY_CYCLES = 4
#: Completing a cache hit (no transaction).
HIT_CYCLES = 1


@dataclass(frozen=True)
class SimulationConfig:
    """Machine, protocol, and measurement parameters for one simulation."""

    # --- machine shape -------------------------------------------------
    radix: int = 8
    dimensions: int = 2
    #: Network clock frequency over processor clock frequency.  The
    #: simulator requires a positive integer (processors tick every
    #: ``network_speedup`` network cycles).
    network_speedup: int = 2
    #: Switch architecture: "cut_through" models the moderately buffered
    #: Alewife switches (default, used for the validation experiments);
    #: "wormhole" is the pure single-flit-buffer rigid-worm fabric.
    switching: str = "cut_through"

    # --- processor -----------------------------------------------------
    contexts: int = 1
    #: Mean compute run between memory accesses, processor cycles.
    compute_cycles: int = 8
    #: Half-width of the uniform jitter applied to each compute run, as a
    #: fraction of ``compute_cycles`` (0 disables jitter).  Jitter breaks
    #: the lock-step artifacts a fully deterministic workload produces.
    compute_jitter: float = 0.5

    # --- measurement ---------------------------------------------------
    #: Network cycles to run before statistics start accumulating.
    warmup_network_cycles: int = 4000
    #: Network cycles of measured execution after warmup.
    measure_network_cycles: int = 20000
    seed: int = 1992

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise ParameterError(f"radix must be >= 2, got {self.radix!r}")
        if self.dimensions < 1:
            raise ParameterError(
                f"dimensions must be >= 1, got {self.dimensions!r}"
            )
        if self.network_speedup < 1:
            raise ParameterError(
                f"network_speedup must be a positive integer, "
                f"got {self.network_speedup!r}"
            )
        if self.switching not in ("cut_through", "wormhole"):
            raise ParameterError(
                f"switching must be 'cut_through' or 'wormhole', "
                f"got {self.switching!r}"
            )
        if self.contexts < 1:
            raise ParameterError(f"contexts must be >= 1, got {self.contexts!r}")
        if self.compute_cycles < 1:
            raise ParameterError(
                f"compute_cycles must be >= 1, got {self.compute_cycles!r}"
            )
        if not 0.0 <= self.compute_jitter < 1.0:
            raise ParameterError(
                f"compute_jitter must be in [0, 1), got {self.compute_jitter!r}"
            )
        if self.warmup_network_cycles < 0:
            raise ParameterError("warmup_network_cycles must be >= 0")
        if self.measure_network_cycles <= 0:
            raise ParameterError("measure_network_cycles must be positive")

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Machine size ``N = k**n``."""
        return self.radix**self.dimensions

    @property
    def total_network_cycles(self) -> int:
        """Warmup plus measurement window."""
        return self.warmup_network_cycles + self.measure_network_cycles

    def windows(
        self, warmup: Optional[int], measure: Optional[int]
    ) -> Tuple[int, int]:
        """A run's warmup and measurement windows (network cycles): the
        overrides where given, else the config's own, checked alike."""
        warmup = self.warmup_network_cycles if warmup is None else warmup
        measure = self.measure_network_cycles if measure is None else measure
        if warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {warmup!r}")
        if measure <= 0:
            raise ParameterError(f"measure must be positive, got {measure!r}")
        return warmup, measure

    def to_network(self, processor_cycles: int) -> int:
        """Convert a processor-cycle count to network cycles."""
        return processor_cycles * self.network_speedup

    # ------------------------------------------------------------------
    # Variants.
    # ------------------------------------------------------------------

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Same configuration with a different random seed."""
        return replace(self, seed=seed)
