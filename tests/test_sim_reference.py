"""The engine against a verbatim copy of its original event loop.

``reference_simulate`` is the list-scheduling loop as it stood before
the engine moved onto flat per-task lists: dict-keyed stream heaps, a
``TaskRecord`` per start and a final sort.  It is kept here unchanged
as an oracle.  Both public entry points must reproduce it bit for bit:
``simulate`` the whole :class:`Timeline`, ``makespan`` its finish time.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MoELayerSpec
from repro.core.schedules import build_iteration_graph
from repro.errors import ScheduleError
from repro.planner import PlanCompiler
from repro.sim import Task, TaskGraph, TaskKind, makespan, simulate
from repro.sim.timeline import TaskRecord, Timeline
from repro.systems.registry import available_systems, get_system


def reference_simulate(graph: TaskGraph) -> Timeline:
    """Execute ``graph`` and return its :class:`~repro.sim.timeline.Timeline`.

    Raises:
        ScheduleError: if execution stalls with unfinished tasks (only
            possible for graphs built outside :class:`TaskGraph.add`'s
            validation, e.g. after manual mutation).
    """
    tasks = graph.tasks
    if not tasks:
        return Timeline(records=(), streams=())

    indegree = [len(task.deps) for task in tasks]
    successors: list[list[int]] = [[] for _ in tasks]
    for task in tasks:
        for dep in task.deps:
            successors[dep].append(task.task_id)

    # Per-stream ready heaps of (priority, task_id).
    ready: dict[str, list[tuple[int, int]]] = {s: [] for s in graph.streams}
    for task in tasks:
        if indegree[task.task_id] == 0:
            heapq.heappush(ready[task.stream], (task.priority, task.task_id))

    stream_free: dict[str, float] = {s: 0.0 for s in graph.streams}
    running: list[tuple[float, int]] = []  # (end_time, task_id)
    records: list[TaskRecord] = []
    finished = 0
    now = 0.0

    def start_ready_tasks() -> None:
        for stream, heap in ready.items():
            if heap and stream_free[stream] <= now:
                _, task_id = heapq.heappop(heap)
                task = tasks[task_id]
                start = now
                end = start + task.duration_ms
                stream_free[stream] = end
                records.append(TaskRecord(task=task, start_ms=start, end_ms=end))
                heapq.heappush(running, (end, task_id))

    start_ready_tasks()
    while finished < len(tasks):
        if not running:
            unfinished = [t.name for t in tasks if indegree[t.task_id] >= 0]
            raise ScheduleError(
                f"simulation stalled with {len(tasks) - finished} unfinished "
                f"tasks (first few: {unfinished[:5]})"
            )
        now, done_id = heapq.heappop(running)
        finished += 1
        indegree[done_id] = -1  # mark complete
        for succ in successors[done_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                task = tasks[succ]
                heapq.heappush(ready[task.stream], (task.priority, succ))
        # A completion both frees a stream and may unblock tasks on others.
        start_ready_tasks()

    records.sort(key=lambda r: (r.start_ms, r.task.task_id))
    return Timeline(records=tuple(records), streams=graph.streams)


def assert_matches_reference(graph: TaskGraph) -> None:
    expected = reference_simulate(graph)
    assert simulate(graph) == expected
    # bit for bit, not approx
    assert makespan(graph) == expected.makespan_ms


#: few distinct durations (zero included) and priorities, so equal end
#: times on different streams and equal priorities on one stream are
#: common rather than rare.
DURATIONS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 0.2, 0.3])
PRIORITIES = st.integers(0, 3)


@st.composite
def random_graphs(draw) -> TaskGraph:
    """Acyclic graphs on 1-4 streams with fan-in and fan-out."""
    streams = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    graph = TaskGraph()
    for task_id in range(draw(st.integers(1, 40))):
        deps = (
            draw(st.lists(st.integers(0, task_id - 1), max_size=4, unique=True))
            if task_id
            else []
        )
        graph.add(
            f"t{task_id}",
            TaskKind.OTHERS,
            draw(st.sampled_from(streams)),
            draw(DURATIONS),
            deps=deps,
            priority=draw(PRIORITIES),
        )
    return graph


class TestRandomGraphs:
    @settings(max_examples=300, deadline=None)
    @given(random_graphs())
    def test_matches_reference(self, graph):
        assert_matches_reference(graph)

    def test_empty_graph(self):
        assert_matches_reference(TaskGraph())
        assert makespan(TaskGraph()) == 0.0

    def test_equal_end_ties_across_streams(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.OTHERS, "x", 1.0)
        b = g.add("b", TaskKind.OTHERS, "y", 1.0)
        g.add("c", TaskKind.OTHERS, "x", 1.0, deps=(b,))
        g.add("d", TaskKind.OTHERS, "y", 1.0, deps=(a,))
        g.add("e", TaskKind.OTHERS, "z", 0.0, deps=(a, b))
        assert_matches_reference(g)

    def test_zero_duration_chain_on_one_stream(self):
        g = TaskGraph()
        prev: tuple[int, ...] = ()
        for i in range(5):
            prev = (g.add(f"z{i}", TaskKind.OTHERS, "s", 0.0, deps=prev),)
        g.add("w", TaskKind.OTHERS, "s", 2.0)
        assert_matches_reference(g)

    def test_stall_message_matches_reference(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.OTHERS, "s", 1.0)
        b = g.add("b", TaskKind.OTHERS, "s", 1.0, deps=(a,))
        g.add("free", TaskKind.OTHERS, "t", 1.0)
        g.tasks[a] = Task(
            task_id=a, name="a", kind=TaskKind.OTHERS, stream="s",
            duration_ms=1.0, deps=(b,),
        )
        with pytest.raises(ScheduleError) as expected:
            reference_simulate(g)
        for engine in (simulate, makespan):
            with pytest.raises(ScheduleError) as got:
                engine(g)
            assert str(got.value) == str(expected.value)


@pytest.fixture(scope="module")
def plan_compiler(cluster_b):
    return PlanCompiler(cluster_b)


@pytest.fixture(scope="module")
def mixed_stack(parallel_b):
    """Three distinct layer shapes, so per-layer degrees differ."""
    def layer(batch, seq, embed):
        return MoELayerSpec(
            batch_size=batch, seq_len=seq, embed_dim=embed, hidden_scale=2,
            num_experts=parallel_b.n_ep, top_k=2, capacity_factor=1.2,
            num_heads=16,
        )

    return [layer(2, 512, 1024), layer(4, 1024, 1024), layer(2, 2048, 2048)]


class TestRegisteredSystemPlans:
    @pytest.mark.parametrize("name", available_systems())
    @pytest.mark.parametrize("phase", ("forward", "backward", "both"))
    def test_plan_graphs_match_reference(
        self, plan_compiler, mixed_stack, name, phase
    ):
        plan = plan_compiler.compile(mixed_stack, get_system(name))
        graph = build_iteration_graph(plan.to_spec(), phase=phase)
        assert len(graph.tasks) > 0
        expected = reference_simulate(graph)
        assert simulate(graph) == expected
        assert plan.makespan_ms(phase) == expected.makespan_ms
