"""Batched replication on the compiled core: R seeds, one pass.

Replication campaigns (:func:`repro.sim.replicate.run_replications`) run
one machine configuration under many root seeds; the simulated
ablations run each simulation as a one-seed batch,
``run_batch(config, mapping, programs, [config.seed])[0]``, and the
validation suite runs one per mapping through :func:`run_batches`.
:class:`BatchMachine` runs ``R`` independent replications on the
compiled core (:mod:`repro.sim.batchcore`, a C port of
:class:`~repro.sim.processor.Processor`,
:class:`~repro.sim.coherence.CoherenceController`,
:class:`~repro.sim.cut_through.CutThroughFabric` and
:class:`~repro.sim.engine.MachineEngine`'s calendar).  Python describes
the programs as data, seeds the streams and reads the counters back:
one core call per replication per measurement window.

**Bit-exactness contract.**  The serial machine is the oracle: for
every seed, the batched run's :class:`~repro.sim.stats.MeasurementSummary`
is identical to ``Machine(config.with_seed(seed), ...).run()``.  The
ingredients:

* **The stream is model-defined.**  Replication ``r``'s per-node
  states are :func:`~repro.workload.base.node_states` ``(seeds[r],
  nodes)``, the numpy-exact vectorized derivation of
  ``SeedSequence(seeds[r]).spawn(nodes)``'s first state words — exactly
  what a solo :class:`~repro.sim.machine.Machine` uses — and each keys a
  :class:`~repro.workload.base.NodeStream`.  The stream (SplitMix64,
  unbiased bounded draws) and the run-length jitter rule are model
  rules, written once in :mod:`repro.workload.base` and ported to the
  core, so both engines draw the same values in the same order.
* **Programs are data.**  :func:`_program_records` turns each placed
  neighbor-exchange or uniform-random program (matched by exact type)
  into a record the core runs; any other program runs the batch as
  serial machines.
* **The processors are in the core.**  Contexts, run lengths, context
  switches, the cache-hit check and the processor wake calendar (due
  processors, then woken ones, countdowns skipped in bulk) port
  :class:`~repro.sim.processor.Processor` and
  :class:`~repro.sim.engine.MachineEngine`.  A completion makes its
  context READY and draws its next run length at the point in the
  protocol where the serial controller calls back.
* **Protocol and fabric order.**  The core executes the same protocol
  events at the same occupancy boundaries in the same FIFO order as the
  serial controller, and the same grant walk and delivery scheduling as
  the serial cut-through fabric.  Both engines take the occupancy, hit
  and context-switch costs from the constants of
  :mod:`repro.sim.config`, and neither evicts a cache line.

**Concurrency contract.**  Replications share only read-only tables
inside the core (geometry, programs, block homes); each one's caches,
directory, pools, calendars and error flag are its own.  cffi releases
the GIL for every core call, so :func:`_dispatch` runs each (machine,
replication) unit — warmup window, link-flit read, measured window — on
a thread pool sized by :func:`repro.core.pool.thread_count`: the CPUs
this process may run on, one inside a worker process (``run --all
--jobs``).
Worker threads make core calls only.  Building machines, summaries,
spans and counters stay on the calling thread, and a core error is
raised for the lowest failing replication once every unit has joined.
Threads change no result: summaries are bit-identical at any thread
count.  :class:`BatchMachine` sends its replications through the
dispatch, and :func:`run_batches` (the validation suite) pipelines one
machine per mapping through it.

:func:`core_runs` is the one place that decides between the core and
serial machines; :func:`run_batch`, :func:`run_batches` and
:func:`repro.sim.replicate.run_replications` all ask it.  The core runs
cut-through machines without telemetry on a torus it can hold (fewer
than 2**20 nodes in at most eight dimensions, any radix), programs the
core runs, once :func:`repro.sim.batchcore.load` succeeds.  Every other
seed runs on the serial oracle, :func:`run_serial`, which returns the
same summaries by the contract above.  Wormhole, telemetry-attached and
other-program inputs go serial by design and stay quiet; a core that
fails to load is the one loud fallback (``batch.fallback`` counter plus
a :class:`BatchFallbackWarning`).
"""

from __future__ import annotations

import copy
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.pool import thread_count
from repro.errors import MappingError, ParameterError, SimulationError
from repro.mapping.base import Mapping
from repro.sim import batchcore
from repro.sim.config import (
    HIT_CYCLES,
    MEMORY_CYCLES,
    RECEIVE_CYCLES,
    REQUEST_CYCLES,
    SEND_CYCLES,
    SWITCH_CYCLES,
    SimulationConfig,
)
from repro.sim.machine import Machine, place_programs
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.sim.telemetry import TelemetryConfig
from repro.topology.torus import Torus
from repro.workload.base import ThreadProgram, jitter_spread, node_states
from repro.workload.generators import UniformRandomProgram
from repro.workload.synthetic import NeighborExchangeProgram

__all__ = [
    "BatchFallbackWarning",
    "BatchMachine",
    "core_runs",
    "run_batch",
    "run_batches",
    "run_serial",
]

#: Program types the core runs, matched exactly: a subclass may change
#: behaviour the record would not carry, so it runs serially.
_CORE_PROGRAMS = (NeighborExchangeProgram, UniformRandomProgram)

#: Record kinds (``PK_*`` in ``_batchcore.c``).
_READS, _UNIFORM = 0, 1

#: The MachineStats counters ``bc_get_counters`` fills, in its order.
_COUNTERS = (
    "messages_sent message_flits message_flits_squared messages_delivered "
    "message_latency_total message_hops_total hop_latency_count "
    "remote_started remote_completed local_completed "
    "transaction_latency_total cache_hits_count "
    "idle_cycles switches"
).split()


class BatchFallbackWarning(RuntimeWarning):
    """A batch the compiled core could run ran as serial machines."""


def _note_core_unavailable() -> None:
    """Record a core-to-serial fallback loudly (``pool.note_fallback``'s
    pattern).  The message is stable per process, so Python's default
    warning filter shows it once."""
    obs.REGISTRY.counter(
        "batch.fallback",
        help="core-eligible batches run as serial machines",
    ).inc()
    warnings.warn(
        "compiled batch core unavailable "
        f"({batchcore.load_failure() or 'not built'}); running the batch "
        "as serial machines",
        BatchFallbackWarning,
        stacklevel=3,
    )


def _program_records(
    programs_at: Sequence[Sequence[ThreadProgram]], threads: int
) -> Optional[Tuple[int, List[int], List[int]]]:
    """The placed programs as core records, or ``None`` if any program is
    not one of :data:`_CORE_PROGRAMS`.

    Returns ``(instances, records, table)``.  Block ``(instance, thread)``
    gets id ``slot * threads + thread``, where ``slot`` numbers the
    instances in order of first appearance and ``instances`` is how many
    there are.  ``records`` holds nine ints per program, node-major then
    context, in the core's ``Prog`` field order: kind, own block, reads
    per write, table offset, threads, thread, base run length, jitter
    spread and the program's current position.  A fixed-read-list
    record's table slice is its read blocks in order; a uniform record's
    is the block of every thread of its instance.  A thread outside
    ``0 .. threads - 1`` raises :class:`~repro.errors.MappingError`, as
    the mapping does for a serial machine.
    """
    slots: Dict[int, int] = {}
    table: List[int] = []
    uniform_tables: Dict[Tuple[int, int], int] = {}
    records: List[int] = []
    for node_programs in programs_at:
        for program in node_programs:
            kind = type(program)
            if kind not in _CORE_PROGRAMS:
                return None
            first = slots.setdefault(program.instance, len(slots)) * threads
            threads_of = thread = 0
            if kind is UniformRandomProgram:
                code, reads = _UNIFORM, program.reads_per_write
                threads_of, thread = program.threads, program.thread
                touched = (0, threads_of - 1, thread)
                offset = uniform_tables.get((first, threads_of))
                if offset is None:
                    offset = uniform_tables[(first, threads_of)] = len(table)
                    table.extend(range(first, first + threads_of))
            else:
                targets = program.neighbors
                touched = (*targets, program.thread)
                code, reads, offset = _READS, len(targets), len(table)
                table.extend(first + t for t in targets)
            if min(touched) < 0 or max(touched) >= threads:
                raise MappingError(
                    f"a program touches a thread outside 0..{threads - 1}"
                )
            base = program.compute_cycles_mean
            records += (
                code, first + program.thread, reads, offset,
                threads_of, thread, base,
                jitter_spread(base, program.compute_jitter),
                program._position,
            )
    return len(slots), records, table


class BatchMachine:
    """R independent replications of one machine config, run on the
    compiled core.

    Construction mirrors ``Machine(config.with_seed(seed), mapping,
    programs)`` per seed — the programs placed once as shared records,
    per-node stream states derived from each seed — with the program
    records, block-home table and torus coordinates shared across
    replications inside the core.  :meth:`run` is single-use and returns
    per-seed summaries in seed order, each bit-identical to the serial
    machine's.
    Only cut-through machines without telemetry, running programs the
    core runs, are accepted; :func:`run_batch` sends every other batch
    to serial machines.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mapping: Mapping,
        programs: Sequence[Sequence[ThreadProgram]],
        seeds: Sequence[int],
    ):
        seeds = tuple(seeds)
        if not seeds:
            raise ParameterError("need at least one replication seed")
        if config.switching != "cut_through":
            raise SimulationError(
                "the compiled batch core runs the cut_through fabric only; "
                f"got switching={config.switching!r} (run_batch runs it as "
                "serial machines)"
            )
        if not batchcore.fits(config.dimensions, config.radix):
            raise SimulationError(
                f"the compiled batch core cannot hold a {config.radix}-ary "
                f"{config.dimensions}-D torus"
            )
        self.config = config
        self.torus = Torus(radix=config.radix, dimensions=config.dimensions)
        nodes = self.torus.node_count
        # Per-node stream states, one row per replication (this also
        # rejects a seed that is not a non-negative integer).
        states = [node_states(seed, nodes) for seed in seeds]
        self.seeds = tuple(int(seed) for seed in seeds)
        # Validate the mapping/programs combination once, with the same
        # errors a solo Machine raises.
        described = _program_records(
            place_programs(config, mapping, programs, nodes), mapping.threads
        )
        if described is None:
            raise SimulationError(
                "the compiled batch core runs neighbor-exchange and "
                "uniform-random programs only (run_batch runs other "
                "programs as serial machines)"
            )
        instances, records, table = described
        # Every instance's blocks live with their threads.
        homes = np.tile(mapping.as_array().astype(np.intc), instances)
        loaded = batchcore.load()
        if loaded is None:
            raise SimulationError(
                "the compiled batch core is unavailable: "
                f"{batchcore.load_failure() or 'not built'}"
            )
        ffi, lib = loaded
        core = lib.bc_create(
            len(seeds), nodes, config.dimensions, config.radix,
            config.to_network(REQUEST_CYCLES),
            config.to_network(RECEIVE_CYCLES),
            config.to_network(SEND_CYCLES),
            config.to_network(MEMORY_CYCLES),
            config.contexts, config.network_speedup, HIT_CYCLES,
            SWITCH_CYCLES,
        )
        if core == ffi.NULL:
            raise SimulationError("the compiled batch core refused the torus")
        self._ffi = ffi
        self._lib = lib
        self._core = ffi.gc(core, lib.bc_destroy)
        records = np.array(records, dtype=np.intc)
        table = np.array(table, dtype=np.intc)
        if lib.bc_add_blocks(
            core, homes.size, ffi.from_buffer("int[]", homes)
        ) or lib.bc_set_programs(
            core, ffi.from_buffer("int[]", records), table.size,
            ffi.from_buffer("int[]", table),
        ):
            raise SimulationError("the compiled batch core rejected the programs")
        for index, state in enumerate(states):
            lib.bc_seed(core, index, ffi.from_buffer("unsigned long long[]", state))
        #: The engine this batch runs on; always ``"c"`` (the compiled
        #: core) — other batches never construct a BatchMachine.
        self.engine = "c"
        self._ran = False

    def _claim(self) -> None:
        """Mark the machine run; it is single-use."""
        if self._ran:
            raise SimulationError(
                "BatchMachine.run is single-use; build a new instance per "
                "batch"
            )
        self._ran = True

    def _summaries(
        self, units: Sequence[Tuple[int, int]], warmup: int, measure: int
    ) -> List[MeasurementSummary]:
        """Every replication's summary from its unit's ``(completed,
        start_flits)``, on the calling thread once the units are done.
        Raises the lowest failing replication's core error."""
        ffi, lib, core = self._ffi, self._lib, self._core
        for index in range(len(self.seeds)):
            batchcore.raise_error(ffi, lib, core, index)
        if obs.is_enabled():
            # Machine.run's counter, booked once per replication.
            obs.REGISTRY.counter(
                "sim.cycles", help="network cycles simulated per machine"
            ).inc(len(units) * (warmup + measure))
            obs.REGISTRY.counter(
                "sim.batch.completions",
                help="memory accesses completed on the batch core",
            ).inc(sum(completed for completed, _ in units))
        nodes = self.torus.node_count
        physical_links = nodes * 2 * self.torus.dimensions
        ints = ffi.new("long long[]", len(_COUNTERS))
        dbl = ffi.new("double[1]")
        summaries = []
        for index, (_, start_flits) in enumerate(units):
            # The summary reads only the links' total, so the window's
            # link flits are booked as one entry.
            lib.bc_get_counters(core, index, ints, dbl)
            stats = MachineStats(nodes=nodes)
            stats.start_measuring(warmup, {"links": start_flits})
            stats.stop_measuring(warmup + measure)
            for name, value in zip(_COUNTERS, ints):
                setattr(stats, name, value)
            stats.hop_latency_total = dbl[0]
            summaries.append(
                stats.summary(
                    link_flits={"links": lib.bc_link_flits(core, index)},
                    physical_links=physical_links,
                    network_speedup=self.config.network_speedup,
                )
            )
        return summaries

    def run(
        self,
        warmup: Optional[int] = None,
        measure: Optional[int] = None,
    ) -> List[MeasurementSummary]:
        """Warm up, measure, and summarize every replication; the
        replications run on threads (see :func:`_dispatch`)."""
        warmup, measure = self.config.windows(warmup, measure)
        with obs.span(
            "sim.batch",
            reps=len(self.seeds),
            warmup=warmup,
            measure=measure,
            nodes=self.torus.node_count,
        ):
            return _dispatch([self], warmup, measure)[0]


def _unit(machine: BatchMachine, index: int, warmup: int, measure: int):
    """Replication ``index``'s whole run: the warmup window, the link
    flits at its end, then the measured window.  Returns ``(completed,
    start_flits)``.  It runs on a worker thread, so it makes core calls
    only; a core error stops it, and :meth:`BatchMachine._summaries`
    raises it once every unit has joined."""
    lib, core = machine._lib, machine._core
    if lib.bc_advance(core, index, warmup) < 0:
        return 0, 0
    completed = lib.bc_comp_count(core, index)
    start_flits = lib.bc_link_flits(core, index)
    lib.bc_start_measuring(core, index)
    if lib.bc_advance(core, index, warmup + measure) >= 0:
        completed += lib.bc_comp_count(core, index)
    return completed, start_flits


def _dispatch(
    machines: Iterable[BatchMachine], warmup: int, measure: int
) -> List[List[MeasurementSummary]]:
    """Run every replication of every machine; each machine's summaries
    in order.

    Each (machine, replication) unit runs :func:`_unit` on a pool of
    :func:`~repro.core.pool.thread_count` threads; the core releases the
    GIL and replications share only read-only tables, so they advance
    at the same time.  ``machines`` is consumed lazily on the calling
    thread: the next machine is built while earlier ones advance, and
    at most one machine per thread, plus the one being built, is alive
    at once.  Summaries, spans and counters stay on the calling thread.
    With one thread this is a plain loop over the same units.
    """
    workers = thread_count()
    results: List[List[MeasurementSummary]] = []
    if workers == 1:
        for machine in machines:
            machine._claim()
            units = [
                _unit(machine, index, warmup, measure)
                for index in range(len(machine.seeds))
            ]
            results.append(machine._summaries(units, warmup, measure))
        return results
    executor = ThreadPoolExecutor(max_workers=workers)
    running = deque()

    def finish() -> None:
        machine, futures = running.popleft()
        units = [future.result() for future in futures]
        results.append(machine._summaries(units, warmup, measure))

    try:
        for machine in machines:
            machine._claim()
            running.append((machine, [
                executor.submit(_unit, machine, index, warmup, measure)
                for index in range(len(machine.seeds))
            ]))
            while len(running) > workers:
                finish()
        while running:
            finish()
    finally:
        # Every started unit joins before an error propagates.
        executor.shutdown(wait=True, cancel_futures=True)
    return results


def core_runs(
    config: SimulationConfig,
    programs: Sequence[Sequence[ThreadProgram]],
    telemetry: Optional[TelemetryConfig],
) -> bool:
    """Whether the compiled core runs these replications; otherwise they
    run as serial machines (:func:`run_serial`).  A core-eligible input
    whose core fails to load is the loud fallback (module docstring)."""
    if not (
        config.switching == "cut_through"
        and telemetry is None
        and batchcore.fits(config.dimensions, config.radix)
        and all(type(p) in _CORE_PROGRAMS for row in programs for p in row)
    ):
        return False
    if batchcore.load() is not None:
        return True
    _note_core_unavailable()
    return False


def run_serial(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seed: int,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> MeasurementSummary:
    """One seed on the serial :class:`~repro.sim.machine.Machine`, the
    core's oracle.  Programs carry mutable per-run state, so the run
    takes its own deep copies of the mapping and programs."""
    with obs.span("replication", seed=seed):
        machine = Machine(
            config.with_seed(seed),
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
        )
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        return machine.run(warmup=warmup, measure=measure)


def run_batch(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
) -> List[MeasurementSummary]:
    """Run ``len(seeds)`` replications; summaries in seed order.

    Each summary is bit-identical to the serial
    ``Machine(config.with_seed(seed), mapping, programs).run(...)`` for
    the same seed.  Where :func:`core_runs` says so the seeds are one
    :class:`BatchMachine` run; otherwise each runs through
    :func:`run_serial`.  The caller's programs are never mutated.
    """
    if core_runs(config, programs, None):
        machine = BatchMachine(config, mapping, programs, seeds)
        return machine.run(warmup=warmup, measure=measure)
    return [
        run_serial(config, mapping, programs, seed, warmup, measure)
        for seed in seeds
    ]


def run_batches(
    config: SimulationConfig,
    mappings: Sequence[Mapping],
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
) -> List[List[MeasurementSummary]]:
    """:func:`run_batch` under each mapping, with the config's windows;
    one summary list per mapping, in order.

    On the compiled core every mapping's :class:`BatchMachine` goes
    through one :func:`_dispatch`, so machine ``i + 1`` is built while
    earlier machines advance; otherwise every seed runs through
    :func:`run_serial`.  The summaries are the same either way.
    """
    if not core_runs(config, programs, None):
        return [
            [run_serial(config, mapping, programs, seed) for seed in seeds]
            for mapping in mappings
        ]
    warmup = config.warmup_network_cycles
    measure = config.measure_network_cycles
    with obs.span(
        "sim.batch",
        machines=len(mappings),
        reps=len(seeds),
        warmup=warmup,
        measure=measure,
        nodes=config.node_count,
    ):
        return _dispatch(
            (BatchMachine(config, mapping, programs, seeds) for mapping in mappings),
            warmup,
            measure,
        )
