"""Process fan-out for the two ``--jobs`` sites.

Worker processes serve only Python-bound work: serial-machine
replications (:mod:`repro.sim.replicate`) and the experiment campaign
runner (:mod:`repro.experiments.runner`) each run independent tasks
against one read-only payload through :func:`process_map`.  The payload
reaches each worker once, through the executor's ``initializer``: under
``fork`` it is inherited and never pickled, under ``spawn`` it is
pickled once per worker, not once per task.  Call sites that can run
serially catch :data:`FALLBACK_ERRORS` and call :func:`note_fallback`,
so a degraded ``--jobs`` run is loud, never silent.

Task functions must be module-level (they are pickled by reference) and
must treat the payload as read-only: a worker serves several tasks from
one payload, so anything stateful is deep-copied per task.

Compiled work runs on threads in-process instead: the compiled core's
replications (:mod:`repro.sim.batch`) and the annealing chains
(:func:`repro.mapping.anneal.run_chains`) size their thread pools with
:func:`thread_count`: every CPU this process may run on, but one thread
inside a :func:`process_map` worker, whose fan-out already owns the
CPUs.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ParameterError, PoolError, WorkerCrashError

__all__ = [
    "FALLBACK_ERRORS",
    "PoolFallbackWarning",
    "note_fallback",
    "process_map",
    "thread_count",
]

#: Exceptions that mean "no usable worker processes here".  Call sites
#: with a serial path catch exactly this tuple, call :func:`note_fallback`,
#: and rerun serially.  :class:`~repro.errors.WorkerCrashError` is a
#: :class:`~repro.errors.PoolError`, so a crashed worker falls back too.
FALLBACK_ERRORS = (ImportError, NotImplementedError, OSError, PoolError)


class PoolFallbackWarning(RuntimeWarning):
    """A ``--jobs`` run degraded to the serial path."""


def note_fallback(site: str, error: BaseException) -> None:
    """Record a parallel-to-serial fallback loudly: bump the
    ``pool.fallback`` counter (it reaches run manifests even with
    tracing off) and warn with a :class:`PoolFallbackWarning`."""
    obs.REGISTRY.counter(
        "pool.fallback", help="parallel runs degraded to the serial path"
    ).inc()
    warnings.warn(
        f"worker processes unavailable at {site}; running serially "
        f"({type(error).__name__}: {error})",
        PoolFallbackWarning,
        stacklevel=3,
    )


def _context():
    """``fork`` where the platform offers it, else ``spawn``."""
    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else "spawn")


# The task function and payload of the executor this worker serves,
# installed once per worker by the executor's initializer, which also
# pins the worker's thread dispatch to one thread.
_TASK: Tuple[Any, Any] = (None, None)
_THREADS: Optional[int] = None


def _install(fn: Callable[[Any, Any], Any], payload: Any) -> None:
    global _TASK, _THREADS
    _TASK = (fn, payload)
    _THREADS = 1


def thread_count() -> int:
    """Threads an in-process dispatch may run: one inside a
    :func:`process_map` worker, else the CPUs this process may run on
    (its affinity mask where the platform reports one)."""
    if _THREADS is not None:
        return _THREADS
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run(item: Any) -> Any:
    fn, payload = _TASK
    return fn(payload, item)


def process_map(
    fn: Callable[[Any, Any], Any], payload: Any, items: Sequence, jobs: int
) -> List[Any]:
    """``[fn(payload, item) for item in items]``, over ``jobs`` processes.

    ``jobs == 1`` runs in-process and starts no process; otherwise one
    executor of ``min(jobs, len(items))`` workers serves this call and
    shuts down before it returns.  The platform picks the start method
    (``fork`` where available, else ``spawn``).  Tasks are dispatched
    one at a time, so fast ones drain while a slow one holds a worker.
    A raising task re-raises its own exception here; a worker that dies
    raises :class:`~repro.errors.WorkerCrashError`.  ``jobs < 1``
    raises :class:`~repro.errors.ParameterError`.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs!r}")
    items = list(items)
    if jobs == 1 or not items:
        return [fn(payload, item) for item in items]
    executor = ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        mp_context=_context(),
        initializer=_install,
        initargs=(fn, payload),
    )
    try:
        return list(executor.map(_run, items, chunksize=1))
    except BrokenProcessPool as error:
        raise WorkerCrashError(
            f"a worker process died mid-task: {error}"
        ) from error
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
