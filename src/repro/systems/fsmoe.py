"""FSMoE: the paper's full system, and its No-IIO ablation.

* per-phase pipeline degrees from Algorithm 1 (the batched exact sweep
  of :mod:`repro.core.fastsolve`; SLSQP kept for cross-checking) --
  forward with ``t_gar = 0``, backward with the AllReduce time the
  partition plan injects;
* adaptive gradient partitioning (§5): window fill + differential
  evolution over the residual;
* three streams (compute / intra-node / inter-node) so ESP collectives
  overlap AlltoAll (Fig. 3d).

``FSMoENoIIO`` keeps the degrees and the partitioning but serializes
intra- with inter-node communication on one stream (the paper's
"FSMoE-No-IIO" ablation, Table 5 and Fig. 6).
"""

from __future__ import annotations

import functools
from typing import Sequence

from ..core.gradient_partition import (
    STEP2_SOLVERS,
    GeneralizedLayer,
    GradientPartitionPlan,
    plan_gradient_partition,
    resolve_step2_impl,
)
from ..core.fastsolve import solve_merged_phase_degree
from ..core.perf_model import PerfModelSet
from ..core.pipeline_degree import DEFAULT_MAX_DEGREE, solve_degrees
from ..core.schedules import (
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    StreamMap,
    THREE_STREAM,
    TWO_STREAM,
    build_iteration_graph,
)
from ..errors import SolverError
from ..models.transformer import LayerProfile
from ..sim.engine import makespan
from .base import TrainingSystem


@functools.lru_cache(maxsize=1024)
def _partition_plan(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    merged_comm: bool,
    solver: str,
    step2_impl: str,
) -> GradientPartitionPlan:
    # step2_impl is resolved by the caller (not read from the environment
    # here) so flipping REPRO_STEP2_IMPL mid-process can never serve a
    # plan memoized under the other implementation.
    layers = [
        GeneralizedLayer(
            ctx=p.ctx_bw,
            dense_overlappable_ms=p.dense_bw_ms,
            grad_bytes=p.grad_bytes,
        )
        for p in profiles
    ]
    return plan_gradient_partition(
        layers,
        models.allreduce,
        r_max=r_max,
        merged_comm=merged_comm,
        solver=solver,
        step2_impl=step2_impl,
    )


class FSMoE(TrainingSystem):
    """The full FSMoE schedule (Fig. 3d).

    Args:
        r_max: cap on the pipeline degrees Algorithm 1 considers.
        solver: Step-2 gradient-partition solver -- ``"de"`` (the paper's
            differential evolution), ``"slsqp"`` (a much cheaper local
            solve with near-identical placements) or ``"none"`` (skip
            Step 2).  See
            :func:`~repro.core.gradient_partition.plan_gradient_partition`.
    """

    name = "FSMoE"
    _streams: StreamMap = THREE_STREAM
    _merged_comm = False

    def __init__(
        self, r_max: int = DEFAULT_MAX_DEGREE, solver: str = "de"
    ) -> None:
        super().__init__(r_max)
        if solver not in STEP2_SOLVERS:
            raise SolverError(
                f"unknown Step-2 solver {solver!r}; "
                f"choose from {STEP2_SOLVERS}"
            )
        self.solver = solver

    def fingerprint(self) -> tuple:
        """Cache identity: the base fingerprint plus the Step-2 solver."""
        return super().fingerprint() + ("solver", self.solver)

    def schedule_contexts(self, profiles: Sequence[LayerProfile]) -> tuple:
        """Both phases of every layer feed Algorithm 1."""
        return tuple(p.ctx_fw for p in profiles) + tuple(
            p.ctx_bw for p in profiles
        )

    def _phase_degrees(
        self,
        profiles: tuple[LayerProfile, ...],
        models: PerfModelSet,
        plan: GradientPartitionPlan | None,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-layer (forward, backward) degrees from Algorithm 1.

        A heterogeneous stack is one batched solve: every layer's
        contexts (forward, and backward when no partition plan supplies
        them) go through a single :func:`solve_degrees` call; the
        solver's memo deduplicates repeated layers.
        """
        contexts = [p.ctx_fw for p in profiles]
        if plan is None:
            contexts += [p.ctx_bw for p in profiles]
        solutions = solve_degrees(contexts, self.r_max)
        n = len(profiles)
        fw = tuple(s.degree for s in solutions[:n])
        if plan is not None:
            bw = tuple(s.degree for s in plan.solutions)
        else:
            bw = tuple(s.degree for s in solutions[n:])
        return fw, bw

    def build_iteration_spec(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        include_gar: bool = True,
    ) -> IterationSpec:
        """Per-phase Algorithm-1 degrees + adaptive gradient partitioning.

        ``profiles`` may be heterogeneous: every layer gets its own
        Algorithm-1 degrees and its own slice of the gradient partition
        (the paper's per-layer flexibility, Table 5).
        """
        key = tuple(profiles)
        plan = (
            _partition_plan(
                key,
                models,
                self.r_max,
                self._merged_comm,
                self.solver,
                resolve_step2_impl(),
            )
            if include_gar
            else None
        )
        fw_degrees, bw_degrees = self._phase_degrees(key, models, plan)
        forward = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_fw, degree=fw_degrees[i], dense_ms=p.dense_fw_ms
            )
            for i, p in enumerate(key)
        )
        if plan is not None:
            backward = tuple(
                LayerPhaseSchedule(
                    ctx=p.ctx_bw.with_t_gar(plan.t_gar_ms[i]),
                    degree=bw_degrees[i],
                    dense_ms=p.dense_bw_ms,
                )
                for i, p in enumerate(key)
            )
            grad_bytes = tuple(p.grad_bytes for p in key)
            gar_mode = GarMode.ADAPTIVE
        else:
            backward = tuple(
                LayerPhaseSchedule(
                    ctx=p.ctx_bw, degree=bw_degrees[i], dense_ms=p.dense_bw_ms
                )
                for i, p in enumerate(key)
            )
            grad_bytes = tuple(0.0 for _ in key)
            gar_mode = GarMode.END
        return IterationSpec(
            name=self.name,
            forward=forward,
            backward=backward,
            grad_bytes=grad_bytes,
            ar_model=models.allreduce,
            streams=self._streams,
            gar_mode=gar_mode,
            plan=plan,
        )


@functools.lru_cache(maxsize=4096)
def _merged_phase_degree(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    phase: str,
) -> int:
    """Best degree for one phase of the merged-comm (2-stream) schedule.

    Algorithm 1's closed forms assume a dedicated inter-node stream; on a
    merged comm stream they overestimate the benefit of chunking.  The
    No-IIO ablation therefore picks its per-phase degree by sweeping its
    *own* schedule's makespan -- still adaptive and per-phase, just
    against the correct stream model.

    The sweep is the vectorized recurrence of
    :func:`~repro.core.fastsolve.merged_phase_times`: every integer
    degree of the whole stack in one array pass, bit-identical (degree
    and makespan) to building and event-simulating one task graph per
    degree (kept as :func:`_merged_phase_degree_sim` and pinned equal in
    the tests).
    """
    if phase == "forward":
        ctxs = [p.ctx_fw for p in profiles]
        dense = [p.dense_fw_ms for p in profiles]
        dense_first = True
    else:
        # Backward executes the stack in reverse, dense after each block.
        ctxs = [p.ctx_bw for p in reversed(profiles)]
        dense = [p.dense_bw_ms for p in reversed(profiles)]
        dense_first = False
    degree, _ = solve_merged_phase_degree(
        ctxs, dense, r_max, dense_first=dense_first
    )
    return degree


def _merged_phase_degree_sim(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    phase: str,
) -> int:
    """Simulate-per-degree reference for :func:`_merged_phase_degree`.

    The pre-vectorization implementation, kept as the pinned oracle: it
    builds one 2-stream task graph per candidate degree and takes the
    event-simulated makespan.  Tests assert the vectorized sweep matches
    it exactly.
    """
    best_r, best_t = 1, float("inf")
    for r in range(1, r_max + 1):
        layers = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_fw if phase == "forward" else p.ctx_bw,
                degree=r,
                dense_ms=(
                    p.dense_fw_ms if phase == "forward" else p.dense_bw_ms
                ),
            )
            for p in profiles
        )
        spec = IterationSpec(
            name="noiio-sweep",
            forward=layers,
            backward=layers,
            grad_bytes=tuple(0.0 for _ in profiles),
            ar_model=models.allreduce,
            streams=TWO_STREAM,
            gar_mode=GarMode.END,
        )
        t = makespan(build_iteration_graph(spec, phase=phase))
        if t < best_t - 1e-12:
            best_t = t
            best_r = r
    return best_r


class FSMoENoIIO(FSMoE):
    """FSMoE without the inter/intra-node communication overlap.

    Keeps the adaptive per-phase degrees and the gradient partitioning but
    serializes all communication on one stream.  Its degrees come from a
    per-phase sweep of the merged-comm schedule, its windows are sized
    with the merged-comm formula, and its in-pipeline AllReduce slices run
    at background priority (they fill the comm stream's expert-compute
    gaps instead of delaying combines).
    """

    name = "FSMoE-No-IIO"
    _streams = TWO_STREAM
    _merged_comm = True

    def _phase_degrees(
        self,
        profiles: tuple[LayerProfile, ...],
        models: PerfModelSet,
        plan: GradientPartitionPlan | None,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-phase degrees swept on the 2-stream schedule itself."""
        fw = _merged_phase_degree(profiles, models, self.r_max, "forward")
        bw = _merged_phase_degree(profiles, models, self.r_max, "backward")
        n = len(profiles)
        return (fw,) * n, (bw,) * n
