"""List-scheduling discrete-event engine.

Semantics (mirroring CUDA stream execution):

* each stream runs at most one task at a time, in (priority, insertion)
  order among the tasks that are *ready* (all dependencies finished);
* a ready task starts as soon as its stream is free (work-conserving;
  streams never idle while ready work exists);
* tasks on different streams run concurrently.

The engine is deterministic: ties break on task id.

One loop, :func:`_run`, executes every graph on flat per-task lists.
:func:`simulate` turns its start and end times into a :class:`Timeline`;
:func:`makespan` returns only the finish time and builds no records.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..errors import ScheduleError
from .events import TaskGraph
from .timeline import TaskRecord, Timeline


def _run(graph: TaskGraph) -> tuple[list[float], list[float]]:
    """Execute ``graph``; return each task's start and end time by id.

    Completions are handled one at a time in (end, task id) order.
    After each one, a single pass over the streams in first-use order
    starts the best ready task, by (priority, task id), on every stream
    that is free by then.

    Raises:
        ScheduleError: if execution stalls with unfinished tasks.
    """
    tasks = graph.tasks
    n_tasks = len(tasks)
    stream_ids: dict[str, int] = {}
    stream_of = [
        stream_ids.setdefault(task.stream, len(stream_ids)) for task in tasks
    ]
    priority = [task.priority for task in tasks]
    duration = [task.duration_ms for task in tasks]
    indegree = [len(task.deps) for task in tasks]
    successors: list[list[int]] = [[] for _ in tasks]
    for task in tasks:
        for dep in task.deps:
            successors[dep].append(task.task_id)

    # Per-stream ready heaps of (priority, task_id), in first-use order.
    n_streams = len(stream_ids)
    ready: list[list[tuple[int, int]]] = [[] for _ in range(n_streams)]
    for task_id in range(n_tasks):
        if indegree[task_id] == 0:
            heappush(ready[stream_of[task_id]], (priority[task_id], task_id))
    stream_heaps = list(enumerate(ready))

    stream_free = [0.0] * n_streams
    start = [0.0] * n_tasks
    finish = [0.0] * n_tasks
    running: list[tuple[float, int]] = []  # (end_time, task_id)
    finished = 0
    now = 0.0
    while True:
        # A completion both frees a stream and may unblock tasks on others.
        for stream, heap in stream_heaps:
            if heap and stream_free[stream] <= now:
                task_id = heappop(heap)[1]
                end = now + duration[task_id]
                start[task_id] = now
                finish[task_id] = end
                stream_free[stream] = end
                heappush(running, (end, task_id))
        if finished == n_tasks:
            return start, finish
        if not running:
            unfinished = [t.name for t in tasks if indegree[t.task_id] >= 0]
            raise ScheduleError(
                f"simulation stalled with {n_tasks - finished} unfinished "
                f"tasks (first few: {unfinished[:5]})"
            )
        now, done_id = heappop(running)
        finished += 1
        indegree[done_id] = -1  # mark complete
        for succ in successors[done_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heappush(ready[stream_of[succ]], (priority[succ], succ))


def simulate(graph: TaskGraph) -> Timeline:
    """Execute ``graph`` and return its :class:`~repro.sim.timeline.Timeline`.

    Records are ordered by (start time, task id).

    Raises:
        ScheduleError: if execution stalls with unfinished tasks (only
            possible for graphs built outside :class:`TaskGraph.add`'s
            validation, e.g. after manual mutation).
    """
    tasks = graph.tasks
    if not tasks:
        return Timeline(records=(), streams=())
    start, finish = _run(graph)
    # A stable sort of ascending ids orders ties on start by task id.
    order = sorted(range(len(tasks)), key=start.__getitem__)
    records = tuple(
        TaskRecord(task=tasks[i], start_ms=start[i], end_ms=finish[i])
        for i in order
    )
    return Timeline(records=records, streams=graph.streams)


def makespan(graph: TaskGraph) -> float:
    """Simulated finish time of ``graph`` in ms (0 for an empty graph).

    Runs the same engine as :func:`simulate` and equals
    ``simulate(graph).makespan_ms`` exactly, but builds no per-task
    records: use it wherever only the iteration time is needed.

    Raises:
        ScheduleError: if execution stalls with unfinished tasks.
    """
    if not graph.tasks:
        return 0.0
    return max(_run(graph)[1])
