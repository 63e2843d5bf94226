"""Clock-domain bookkeeping between processors and network switches.

The paper's architecture (MIT Alewife, Section 3.1) clocks network switches
twice as fast as processors, and Section 4.2 / Table 1 study what happens as
that ratio changes.  Mixing the two time bases is the single easiest way to
get the model wrong, so this module makes the conversion explicit.

Conventions used throughout :mod:`repro`:

* Quantities that originate at the *processor* — computation grain ``T_r``,
  fixed transaction overhead ``T_f``, context-switch time ``T_s`` — are
  naturally measured in **processor cycles**.
* Quantities that originate in the *network* — per-hop latency ``T_h``,
  message latency ``T_m``, message size ``B`` (one flit crosses a channel
  per network cycle) — are naturally measured in **network cycles**.
* The analytical models in :mod:`repro.core` do all arithmetic in **network
  cycles**; a :class:`ClockDomain` converts processor-side inputs on the way
  in and converts results back on the way out.

A :class:`ClockDomain` is described by ``network_speedup``: the frequency of
the network clock divided by the frequency of the processor clock.  The
Alewife baseline has ``network_speedup = 2.0`` ("network clocked twice as
fast as processors"); Table 1's "4x slower" row has
``network_speedup = 0.25``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["ClockDomain", "ALEWIFE_CLOCKS", "EQUAL_CLOCKS"]


@dataclass(frozen=True)
class ClockDomain:
    """Conversion between processor-cycle and network-cycle time bases.

    Parameters
    ----------
    network_speedup:
        Network clock frequency divided by processor clock frequency.
        Must be positive.  A value of ``2.0`` means one processor cycle
        lasts two network cycles.
    """

    network_speedup: float = 2.0

    def __post_init__(self) -> None:
        if not self.network_speedup > 0:
            raise ParameterError(
                f"network_speedup must be positive, got {self.network_speedup!r}"
            )

    def to_network(self, processor_cycles: float) -> float:
        """Convert a duration from processor cycles to network cycles."""
        return processor_cycles * self.network_speedup

    def to_processor(self, network_cycles: float) -> float:
        """Convert a duration from network cycles to processor cycles."""
        return network_cycles / self.network_speedup

    def slowed(self, factor: float) -> "ClockDomain":
        """Return a domain whose network is ``factor``x slower than this one.

        ``factor`` must be positive; ``factor > 1`` slows the network (as in
        Table 1's sweep), ``factor < 1`` speeds it up.
        """
        if not factor > 0:
            raise ParameterError(f"slowdown factor must be positive, got {factor!r}")
        return ClockDomain(network_speedup=self.network_speedup / factor)


#: The Alewife baseline: network switches clocked 2x the processors.
ALEWIFE_CLOCKS = ClockDomain(network_speedup=2.0)

#: Network and processor share a clock (Table 1's "same" row).
EQUAL_CLOCKS = ClockDomain(network_speedup=1.0)
