"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A model or simulator parameter is out of its valid domain.

    Raised, for example, for a non-positive computation grain, a latency
    sensitivity of zero, or a torus radix smaller than one.
    """


class SaturationError(ReproError):
    """The network cannot sustain the requested operating point.

    Raised by the combined-model solver when no physically meaningful
    operating point exists: the application's message demand exceeds the
    bisection-limited capacity of the network even at infinite latency
    (which cannot happen with a finite latency sensitivity, but can with
    an open-loop injection rate), or when an open-loop evaluation is
    requested beyond the saturation injection rate.
    """


class ConvergenceError(ReproError):
    """An iterative solver failed to converge.

    Carries the final residual so callers can decide whether the partial
    answer is still useful for diagnostics.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class TopologyError(ReproError, ValueError):
    """A topology operation received inconsistent coordinates or nodes."""


class MappingError(ReproError, ValueError):
    """A thread-to-processor mapping is malformed.

    For example: not a bijection when one is required, or sized
    inconsistently with the communication graph or the target topology.
    """


class SimulationError(ReproError):
    """The discrete simulator reached an inconsistent internal state.

    This always indicates a bug in the simulator or a configuration that
    violates a documented invariant (e.g. a coherence message addressed
    to a node outside the machine).
    """


class ProtocolError(SimulationError):
    """The cache-coherence protocol observed an illegal transition."""


class PoolError(ReproError):
    """Worker-process fan-out failed as *infrastructure*.

    Distinct from exceptions a *task function* raises, which propagate
    to the caller unchanged; callers that can run the work serially
    catch :data:`repro.core.pool.FALLBACK_ERRORS` (which includes this
    class) and fall back.
    """


class WorkerCrashError(PoolError):
    """A worker process died mid-task (signal, ``os._exit``, OOM).

    The call that lost the worker raises this error; the next call
    starts fresh workers.
    """
