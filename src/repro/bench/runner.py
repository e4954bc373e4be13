"""Evaluation driver: run systems over workloads, compute speedups.

The paper's configured-layer experiments (Table 5) report *average
speedups over Tutel*; the end-to-end experiments (Fig. 6-8) report
speedups over DeepSpeed-MoE.  Averages over many configurations use the
geometric mean (the standard choice for ratios).

All evaluation flows through :mod:`repro.planner`: layer profiling is
deduplicated in a :class:`~repro.planner.store.ProfileStore` (shareable
across calls -- the benchmarks pass one store per session so repeated
configurations profile once), and grids fan out concurrently via
:func:`~repro.planner.batch.plan_many`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..config import MoELayerSpec, ParallelSpec, standard_layout
from ..core.perf_model import PerfModelSet
from ..errors import ConfigError
from ..models.configs import ModelPreset, layer_spec_for
from ..moe.gates import GateKind
from ..parallel.topology import ClusterSpec
from ..planner.batch import plan_many
from ..planner.compiler import PlanCompiler
from ..planner.store import ProfileStore
from ..systems.base import TrainingSystem

#: layers used for a "configured layer" measurement.  At least two are
#: needed for the gradient-overlap machinery to engage (a layer's own
#: gradients only exist after its backward, so they can only hide in an
#: *earlier* layer's windows); four keeps the un-hideable first layer's
#: share realistic while staying cheap to simulate.
CONFIGURED_LAYER_COUNT = 4


@dataclass(frozen=True)
class ConfigResult:
    """Per-system iteration times for one workload configuration."""

    spec: MoELayerSpec
    parallel: ParallelSpec
    times_ms: dict[str, float]

    def speedup(self, system: str, baseline: str) -> float:
        """``baseline_time / system_time`` (>1 means ``system`` wins).

        Raises:
            ConfigError: for an unknown system name.
        """
        if system not in self.times_ms or baseline not in self.times_ms:
            raise ConfigError(
                f"unknown system in speedup({system!r}, {baseline!r}); "
                f"have {sorted(self.times_ms)}"
            )
        return self.times_ms[baseline] / self.times_ms[system]


def _fit_spec_to_cluster(
    spec: MoELayerSpec, parallel: ParallelSpec
) -> MoELayerSpec:
    """Override the expert count when it does not divide the EP width.

    The paper always deploys E == nodes for configured layers.
    """
    if spec.num_experts % parallel.n_ep != 0:
        return spec.with_(num_experts=parallel.n_ep)
    return spec


def evaluate_config(
    spec: MoELayerSpec,
    cluster: ClusterSpec,
    models: PerfModelSet,
    systems: Sequence[TrainingSystem],
    *,
    num_layers: int = CONFIGURED_LAYER_COUNT,
    gate_kind: GateKind = GateKind.GSHARD,
    store: ProfileStore | None = None,
) -> ConfigResult:
    """Simulate every system on ``num_layers`` copies of ``spec``.

    Args:
        store: optional shared profile cache; pass one across calls so
            a sweep profiles each distinct configuration only once.
    """
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    spec = _fit_spec_to_cluster(spec, parallel)
    compiler = PlanCompiler(cluster, parallel, store=store, models=models)
    stack = [spec] * num_layers
    times = {
        system.name: compiler.iteration_time_ms(
            stack, system, gate_kind=gate_kind
        )
        for system in systems
    }
    return ConfigResult(spec=spec, parallel=parallel, times_ms=times)


def evaluate_config_grid(
    specs: Sequence[MoELayerSpec],
    cluster: ClusterSpec,
    models: PerfModelSet,
    systems: Sequence[TrainingSystem],
    *,
    num_layers: int = CONFIGURED_LAYER_COUNT,
    gate_kind: GateKind = GateKind.GSHARD,
    store: ProfileStore | None = None,
    max_workers: int | None = None,
) -> list[ConfigResult]:
    """Evaluate a whole configuration grid through one batched sweep.

    Semantically ``[evaluate_config(s, ...) for s in specs]``, but fanned
    out with :func:`~repro.planner.batch.plan_many` and deduplicated
    through one shared :class:`~repro.planner.store.ProfileStore`.

    Returns:
        One :class:`ConfigResult` per input spec, in input order.
    """
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    fitted = [_fit_spec_to_cluster(spec, parallel) for spec in specs]
    sweep = plan_many(
        fitted,
        systems,
        [cluster],
        gate_kind=gate_kind,
        num_layers=num_layers,
        store=store,
        models_by_cluster={cluster: models},
        parallel_by_cluster={cluster: parallel},
        max_workers=max_workers,
    )
    grouped = sweep.times_by_config()
    return [
        ConfigResult(
            spec=spec,
            parallel=parallel,
            times_ms=dict(grouped[(cluster, (spec,) * num_layers)]),
        )
        for spec in fitted
    ]


def evaluate_model(
    preset: ModelPreset,
    cluster: ClusterSpec,
    models: PerfModelSet,
    systems: Sequence[TrainingSystem],
    *,
    batch_size: int = 1,
    seq_len: int = 1024,
    num_layers: int | None = None,
    gate_kind: GateKind = GateKind.GSHARD,
    routing_overhead_by_system: dict[str, float] | None = None,
    store: ProfileStore | None = None,
) -> ConfigResult:
    """Simulate every system training a real-world model end to end.

    Follows the paper's §6.4 deployment: ``E = number of nodes``,
    ``N_MP = N_ESP = gpus/node``, ``B = 1``, ``f`` from the preset.

    Args:
        routing_overhead_by_system: optional per-system multiplier on
            routing compute (used by the Table 6 experiment, where
            DeepSpeed-MoE runs its own unoptimized gate kernels).
        store: optional shared profile cache.
    """
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    spec = layer_spec_for(
        preset,
        batch_size=batch_size,
        seq_len=seq_len,
        num_experts=parallel.n_ep,
    )
    layers = num_layers if num_layers is not None else preset.num_layers
    compiler = PlanCompiler(cluster, parallel, store=store, models=models)
    stack = [spec] * layers
    times: dict[str, float] = {}
    for system in systems:
        overhead = 1.0
        if routing_overhead_by_system is not None:
            overhead = routing_overhead_by_system.get(system.name, 1.0)
        times[system.name] = compiler.compile(
            stack, system, gate_kind=gate_kind, routing_overhead=overhead
        ).makespan_ms()
    return ConfigResult(spec=spec, parallel=parallel, times_ms=times)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive ratios.

    Raises:
        ConfigError: on an empty sequence or non-positive entries.
    """
    if not values:
        raise ConfigError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedups_over(
    results: Sequence[ConfigResult], baseline: str
) -> dict[str, float]:
    """Geometric-mean speedup of every system over ``baseline``.

    Raises:
        ConfigError: on an empty result list.
    """
    if not results:
        raise ConfigError("speedups_over needs at least one result")
    systems = list(results[0].times_ms)
    return {
        system: geometric_mean(
            [r.speedup(system, baseline) for r in results]
        )
        for system in systems
    }
