"""Task-graph builders for every schedule in the paper's Fig. 3.

A training iteration over ``n_l`` *generalized layers* (attention + MoE)
becomes a :class:`~repro.sim.events.TaskGraph`:

* forward:  ``dense_fw(l) -> [D(i) -> AG(i) -> E(i) -> RS(i) -> C(i)] x r``
* backward: mirrored, expert chunks doubled in cost, plus the
  Gradient-AllReduce placement that distinguishes the systems.

Streams encode contention: ops mapped to the same stream serialize.  The
four placements of Gradient-AllReduce (``GarMode``) reproduce:

* ``END``            -- plain Tutel / DeepSpeed-MoE: exposed after backward;
* ``DENSE_OVERLAP``  -- Tutel-Improved: one AllReduce per layer released
  after that layer's dense backward, running at background priority
  (overlaps non-MoE work, may head-of-line block later AlltoAlls);
* ``FIXED_CHUNKS``   -- PipeMoE+Lina: same, but sliced into fixed 30 MB
  chunks (paper §6.4), limiting the blocking;
* ``ADAPTIVE``       -- FSMoE: slices from the
  :class:`~repro.core.gradient_partition.GradientPartitionPlan`, with the
  in-MoE slice scheduled right after the last AlltoAll dispatch of the
  layer's pipeline (Fig. 3d).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..errors import ScheduleError
from ..sim.events import TaskGraph, TaskKind
from ..units import MB
from .constraints import PipelineContext
from .gradient_partition import GarPlacement, GradientPartitionPlan
from .perf_model import LinearPerfModel

#: priority band for background (gap-filling) AllReduce work; anything in
#: this band loses to every foreground task that is ready.
BACKGROUND_PRIORITY = 1_000_000_000

#: Lina's fixed gradient chunk size (paper §6.4: "e.g., 30MB").
LINA_CHUNK_BYTES = 30 * MB

#: priority stride between consecutive blocks; must exceed the task count
#: of any single block.
_BLOCK_STRIDE = 10_000


@dataclass(frozen=True)
class StreamMap:
    """Which stream each resource class runs on."""

    compute: str
    intra: str
    inter: str

    @property
    def is_single(self) -> bool:
        """True when everything serializes on one stream (DS-MoE)."""
        return self.compute == self.intra == self.inter

    @property
    def merges_comm(self) -> bool:
        """True when intra- and inter-node comm share a stream (no IIO)."""
        return self.intra == self.inter


#: DS-MoE / the paper's "default schedule" (Fig. 3a).
SINGLE_STREAM = StreamMap("default", "default", "default")
#: Tutel / PipeMoE / FSMoE-No-IIO (Fig. 3b): one comm + one compute stream.
TWO_STREAM = StreamMap("compute", "comm", "comm")
#: FSMoE (Fig. 3c/d): inter-node and intra-node comm overlap.
THREE_STREAM = StreamMap("compute", "intra", "inter")


class GarMode(enum.Enum):
    """Gradient-AllReduce placement strategy."""

    END = "end"
    DENSE_OVERLAP = "dense_overlap"
    FIXED_CHUNKS = "fixed_chunks"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class LayerPhaseSchedule:
    """One generalized layer in one phase (forward or backward).

    Attributes:
        ctx: pipeline context supplying per-chunk op durations.
        degree: pipeline degree ``r`` used for this layer/phase.
        dense_ms: non-MoE duration (attention, gate, order, MP comm).
    """

    ctx: PipelineContext
    degree: int
    dense_ms: float

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ScheduleError(f"degree must be >= 1, got {self.degree}")
        if self.dense_ms < 0:
            raise ScheduleError(f"dense_ms must be >= 0, got {self.dense_ms}")


@dataclass(frozen=True)
class IterationSpec:
    """Everything needed to build one training iteration's task graph.

    Layers are indexed in forward order; ``forward[l]`` and ``backward[l]``
    describe the same layer in the two phases.  The per-layer schedules
    may all differ: heterogeneous stacks (distinct hidden sizes, expert
    counts, top-k per layer) are first-class.

    Attributes:
        name: system label (for task names and reports).
        forward: per-layer forward schedules.
        backward: per-layer backward schedules.
        grad_bytes: dense-gradient bytes produced per layer.
        ar_model: fitted Gradient-AllReduce model.
        streams: stream mapping (contention model).
        gar_mode: Gradient-AllReduce placement strategy.
        gar_chunk_bytes: chunk size for ``FIXED_CHUNKS``.
        plan: gradient placement, required for ``ADAPTIVE``.  Either a
            full :class:`GradientPartitionPlan` (fresh from the solver) or
            a bare :class:`GarPlacement` (replayed from a persisted plan).
    """

    name: str
    forward: tuple[LayerPhaseSchedule, ...]
    backward: tuple[LayerPhaseSchedule, ...]
    grad_bytes: tuple[float, ...]
    ar_model: LinearPerfModel
    streams: StreamMap
    gar_mode: GarMode
    gar_chunk_bytes: float = LINA_CHUNK_BYTES
    plan: GradientPartitionPlan | GarPlacement | None = None

    def __post_init__(self) -> None:
        n = len(self.forward)
        if len(self.backward) != n or len(self.grad_bytes) != n:
            raise ScheduleError(
                "forward, backward and grad_bytes must have equal length"
            )
        if n == 0:
            raise ScheduleError("need at least one layer")
        if self.gar_mode is GarMode.ADAPTIVE and self.plan is None:
            raise ScheduleError("ADAPTIVE gar_mode requires a partition plan")
        if self.gar_mode is GarMode.FIXED_CHUNKS and self.gar_chunk_bytes <= 0:
            raise ScheduleError("gar_chunk_bytes must be positive")


@dataclass(frozen=True)
class MoEBlockHandle:
    """Ids of interest after adding one MoE block to a graph."""

    dispatch_ids: tuple[int, ...]
    combine_ids: tuple[int, ...]
    last_dispatch_id: int


def add_moe_block(
    graph: TaskGraph,
    ctx: PipelineContext,
    degree: int,
    streams: StreamMap,
    entry_deps: tuple[int, ...],
    priority_base: int,
    label: str,
    gar_slice_ms: float = 0.0,
    gar_extra_deps: tuple[int, ...] = (),
    gar_background: bool = False,
) -> MoEBlockHandle:
    """Append one pipelined MoE block (dispatch .. combine) to ``graph``.

    Chunk ``i`` contributes ``D(i) -> AG(i) -> E(i) -> RS(i) -> C(i)``.
    Priorities order the inter stream as ``D(0..r-1)``, then the optional
    in-pipeline Gradient-AllReduce slice, then ``C(0..r-1)`` (Fig. 3d);
    the intra stream alternates ``AG(i)`` / ``RS(i)`` by chunk.

    Args:
        graph: graph being built.
        ctx: durations source (per-chunk times at ``degree``).
        degree: pipeline degree ``r``.
        streams: stream mapping.
        entry_deps: tasks every dispatch must wait for.
        priority_base: base priority; the block uses
            ``[priority_base, priority_base + 6r + 1]``.
        label: prefix for task names.
        gar_slice_ms: duration of the AllReduce slice injected after the
            last dispatch (0 = no slice).
        gar_extra_deps: availability dependencies of that slice.
        gar_background: demote the slice to the background priority band
            (used on merged comm streams, where a mid-pipeline slice would
            otherwise block the combines it is meant to hide behind).

    Returns:
        Handle with dispatch/combine task ids.
    """
    r = degree
    t_a2a = ctx.t_a2a(r)
    t_ag = ctx.t_ag(r)
    t_rs = ctx.t_rs(r)
    t_exp = ctx.t_exp(r)

    dispatch_ids: list[int] = []
    rs_ids: list[int] = []
    for i in range(r):
        d_id = graph.add(
            name=f"{label} D({i})",
            kind=TaskKind.A2A_DISPATCH,
            stream=streams.inter,
            duration_ms=t_a2a,
            deps=entry_deps,
            priority=priority_base + i,
        )
        ag_id = graph.add(
            name=f"{label} AG({i})",
            kind=TaskKind.ESP_ALLGATHER,
            stream=streams.intra,
            duration_ms=t_ag,
            deps=(d_id,),
            priority=priority_base + 2 * r + 2 * i,
        )
        e_id = graph.add(
            name=f"{label} E({i})",
            kind=TaskKind.EXPERT,
            stream=streams.compute,
            duration_ms=t_exp,
            deps=(ag_id,),
            priority=priority_base + i,
        )
        rs_id = graph.add(
            name=f"{label} RS({i})",
            kind=TaskKind.ESP_REDUCESCATTER,
            stream=streams.intra,
            duration_ms=t_rs,
            deps=(e_id,),
            priority=priority_base + 2 * r + 2 * i + 1,
        )
        dispatch_ids.append(d_id)
        rs_ids.append(rs_id)

    gar_deps: tuple[int, ...] = ()
    if gar_slice_ms > 0:
        gar_id = graph.add(
            name=f"{label} GAR(pipe)",
            kind=TaskKind.GRAD_ALLREDUCE,
            stream=streams.inter,
            duration_ms=gar_slice_ms,
            deps=(dispatch_ids[-1],) + tuple(gar_extra_deps),
            priority=(
                BACKGROUND_PRIORITY + priority_base
                if gar_background
                else priority_base + r
            ),
        )
        if not gar_background:
            gar_deps = (gar_id,)

    combine_ids: list[int] = []
    for i in range(r):
        c_id = graph.add(
            name=f"{label} C({i})",
            kind=TaskKind.A2A_COMBINE,
            stream=streams.inter,
            duration_ms=t_a2a,
            deps=(rs_ids[i],) + gar_deps,
            priority=priority_base + r + 1 + i,
        )
        combine_ids.append(c_id)

    return MoEBlockHandle(
        dispatch_ids=tuple(dispatch_ids),
        combine_ids=tuple(combine_ids),
        last_dispatch_id=dispatch_ids[-1],
    )


def _add_background_ar(
    graph: TaskGraph,
    ar_model: LinearPerfModel,
    nbytes: float,
    stream: str,
    deps: tuple[int, ...],
    seq: int,
    label: str,
) -> int | None:
    if nbytes <= 0:
        return None
    return graph.add(
        name=label,
        kind=TaskKind.GRAD_ALLREDUCE,
        stream=stream,
        duration_ms=ar_model.time_ms(nbytes),
        deps=deps,
        priority=BACKGROUND_PRIORITY + seq,
    )


def build_iteration_graph(spec: IterationSpec, phase: str = "both") -> TaskGraph:
    """Build the task graph for one iteration (or one of its phases).

    The graph is ready for :func:`repro.sim.engine.simulate`; its makespan
    is the iteration time of system ``spec.name`` on this workload.

    Args:
        spec: the iteration description.
        phase: ``"both"`` (default), ``"forward"`` (no backward, no
            Gradient-AllReduce) or ``"backward"`` -- the split phases feed
            the GPipe pipeline-parallel model.

    Raises:
        ScheduleError: for an unknown phase name.
    """
    if phase not in ("both", "forward", "backward"):
        raise ScheduleError(f"unknown phase {phase!r}")
    graph = TaskGraph()
    n_l = len(spec.forward)
    block_seq = 0

    # ---- forward ----------------------------------------------------------
    prev: tuple[int, ...] = ()
    for l in range(n_l) if phase in ("both", "forward") else ():
        layer = spec.forward[l]
        dense_id = graph.add(
            name=f"fw L{l} dense",
            kind=TaskKind.OTHERS,
            stream=spec.streams.compute,
            duration_ms=layer.dense_ms,
            deps=prev,
            priority=block_seq * _BLOCK_STRIDE,
        )
        handle = add_moe_block(
            graph,
            ctx=layer.ctx,
            degree=layer.degree,
            streams=spec.streams,
            entry_deps=(dense_id,),
            priority_base=block_seq * _BLOCK_STRIDE + 1,
            label=f"fw L{l}",
        )
        prev = handle.combine_ids
        block_seq += 1

    if phase == "forward":
        return graph
    if phase == "backward":
        prev = ()

    # ---- backward ---------------------------------------------------------
    dense_bw_ids: dict[int, int] = {}
    gar_seq = 0
    # ``moe_ar_bytes`` rebuilds its tuple on every access: read it once.
    moe_ar_bytes = (
        spec.plan.moe_ar_bytes if spec.gar_mode is GarMode.ADAPTIVE else ()
    )
    for l in reversed(range(n_l)):
        layer = spec.backward[l]
        gar_slice_ms = 0.0
        gar_extra: tuple[int, ...] = ()
        if spec.gar_mode is GarMode.ADAPTIVE:
            assert spec.plan is not None  # validated in IterationSpec
            if moe_ar_bytes[l] > 0:
                gar_slice_ms = spec.plan.t_gar_ms[l]
                if l + 1 in dense_bw_ids:
                    gar_extra = (dense_bw_ids[l + 1],)
        handle = add_moe_block(
            graph,
            ctx=layer.ctx,
            degree=layer.degree,
            streams=spec.streams,
            entry_deps=prev,
            priority_base=block_seq * _BLOCK_STRIDE + 1,
            label=f"bw L{l}",
            gar_slice_ms=gar_slice_ms,
            gar_extra_deps=gar_extra,
            gar_background=spec.streams.merges_comm,
        )
        dense_id = graph.add(
            name=f"bw L{l} dense",
            kind=TaskKind.OTHERS,
            stream=spec.streams.compute,
            duration_ms=layer.dense_ms,
            deps=handle.combine_ids,
            priority=block_seq * _BLOCK_STRIDE,
        )
        dense_bw_ids[l] = dense_id
        prev = (dense_id,)
        block_seq += 1

        if spec.gar_mode is GarMode.DENSE_OVERLAP:
            _add_background_ar(
                graph,
                spec.ar_model,
                spec.grad_bytes[l],
                spec.streams.inter,
                deps=(dense_id,),
                seq=gar_seq,
                label=f"GAR L{l}",
            )
            gar_seq += 1
        elif spec.gar_mode is GarMode.FIXED_CHUNKS:
            remaining = spec.grad_bytes[l]
            chunk_idx = 0
            while remaining > 0:
                chunk = min(remaining, spec.gar_chunk_bytes)
                remaining -= chunk
                _add_background_ar(
                    graph,
                    spec.ar_model,
                    chunk,
                    spec.streams.inter,
                    deps=(dense_id,),
                    seq=gar_seq,
                    label=f"GAR L{l}#{chunk_idx}",
                )
                gar_seq += 1
                chunk_idx += 1
        elif spec.gar_mode is GarMode.ADAPTIVE:
            assert spec.plan is not None
            _add_background_ar(
                graph,
                spec.ar_model,
                spec.plan.dense_window_bytes[l],
                spec.streams.inter,
                deps=handle.combine_ids,
                seq=gar_seq,
                label=f"GAR L{l}(dense)",
            )
            gar_seq += 1

    # ---- iteration tail ----------------------------------------------------
    if spec.gar_mode is GarMode.END:
        tail_deps = prev
        for l in range(n_l):
            if spec.grad_bytes[l] <= 0:
                continue
            ar_id = graph.add(
                name=f"GAR L{l}(end)",
                kind=TaskKind.GRAD_ALLREDUCE,
                stream=spec.streams.inter,
                duration_ms=spec.ar_model.time_ms(spec.grad_bytes[l]),
                deps=tail_deps,
                priority=block_seq * _BLOCK_STRIDE + l,
            )
            tail_deps = (ar_id,)
    elif spec.gar_mode is GarMode.ADAPTIVE:
        assert spec.plan is not None
        _add_background_ar(
            graph,
            spec.ar_model,
            spec.plan.tail_bytes,
            spec.streams.inter,
            deps=prev,
            seq=gar_seq,
            label="GAR tail",
        )

    return graph


def chunk_gradient(total_bytes: float, chunk_bytes: float) -> list[float]:
    """Split ``total_bytes`` into Lina-style fixed chunks (last one short).

    Raises:
        ScheduleError: for non-positive ``chunk_bytes``.
    """
    if chunk_bytes <= 0:
        raise ScheduleError(f"chunk_bytes must be positive, got {chunk_bytes}")
    if total_bytes <= 0:
        return []
    full = math.floor(total_bytes / chunk_bytes)
    chunks = [chunk_bytes] * full
    rest = total_bytes - full * chunk_bytes
    if rest > 0:
        chunks.append(rest)
    return chunks
