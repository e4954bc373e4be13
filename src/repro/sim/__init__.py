"""Discrete-event execution substrate.

Replaces CUDA streams + NCCL concurrency semantics for the reproduction:
tasks assigned to the same *stream* (resource) serialize, tasks on
different streams overlap, and a task starts only after all its
dependencies have finished.  This matches how the paper reasons about its
schedules (Fig. 3/4: "Stream a/b/c").

* :mod:`~repro.sim.events`   -- :class:`Task`, :class:`TaskKind`,
  :class:`TaskGraph`;
* :mod:`~repro.sim.engine`   -- the list-scheduling event loop behind
  :func:`simulate` (full trace) and :func:`makespan` (finish time only);
* :mod:`~repro.sim.timeline` -- execution traces, utilization stats and
  ASCII Gantt rendering.
"""

from .events import Task, TaskKind, TaskGraph
from .engine import makespan, simulate
from .timeline import Timeline, TaskRecord

__all__ = [
    "Task",
    "TaskKind",
    "TaskGraph",
    "simulate",
    "makespan",
    "Timeline",
    "TaskRecord",
]
