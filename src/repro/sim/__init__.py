"""Cycle-level multiprocessor simulator (the validation substrate).

Reconstructs the machine the paper simulates in Section 3: multithreaded
processors, a full-map invalidate directory protocol behind a single
per-node controller, and a flit-level torus network — buffered
cut-through (:mod:`repro.sim.cut_through`, the default) or rigid-worm
wormhole (:class:`WormholeFabric`) — whose switches run twice as fast as
the processors.

Each layer has one fast path and at most one named oracle
(docs/simulator.md): the event-calendar engine vs
``Machine(engine=False)``, and the compiled batch core vs the serial
:class:`Machine`.  The one wormhole fabric is pinned by the golden
fixture.  Multi-seed replication with error bars lives in
:mod:`repro.sim.replicate`.  Compiled work runs on threads in-process:
``run_replications`` runs the seeds the compiled core takes
(:func:`repro.sim.batch.core_runs`) as one core pass, whose
replications advance on GIL-free threads, whatever ``jobs`` is.  Only
serial machines (wormhole, telemetry, other programs, no core) fan out
over ``jobs`` worker processes.  Per-seed summaries are bit-identical
on every path.
"""

from repro.sim.batch import BatchMachine, run_batch
from repro.sim.coherence import CacheState, CoherenceController, DirectoryState
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.message import CONTROL_FLITS, DATA_FLITS, Message, MessageKind
from repro.sim.processor import ContextState, HardwareContext, Processor
from repro.sim.replicate import (
    MetricAggregate,
    ReplicationResult,
    aggregate_summaries,
    default_seeds,
    run_replications,
)
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.sim.telemetry import (
    FabricTelemetry,
    ProbeResult,
    SaturationReport,
    TelemetryConfig,
    TelemetrySummary,
    detect_saturation,
    merge_snapshots,
    run_probe,
    write_telemetry_jsonl,
)
from repro.sim.wormhole import WormholeFabric

__all__ = [
    "SimulationConfig",
    "Machine",
    "MeasurementSummary",
    "MachineStats",
    "WormholeFabric",
    "BatchMachine",
    "run_batch",
    "MetricAggregate",
    "ReplicationResult",
    "aggregate_summaries",
    "default_seeds",
    "run_replications",
    "Message",
    "MessageKind",
    "CONTROL_FLITS",
    "DATA_FLITS",
    "CoherenceController",
    "CacheState",
    "DirectoryState",
    "Processor",
    "HardwareContext",
    "ContextState",
    "TelemetryConfig",
    "FabricTelemetry",
    "TelemetrySummary",
    "SaturationReport",
    "ProbeResult",
    "detect_saturation",
    "merge_snapshots",
    "run_probe",
    "write_telemetry_jsonl",
]
