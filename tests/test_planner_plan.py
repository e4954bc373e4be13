"""Tests for IterationPlan serialization and replay."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.core.schedules import GarMode, GarPlacement
from repro.errors import ScheduleError, SolverError
from repro.planner import IterationPlan, PlanCompiler
from repro.systems import (
    DeepSpeedMoE,
    FSMoE,
    FSMoENoIIO,
    PipeMoELina,
    Tutel,
    TutelImproved,
)

ALL = [
    DeepSpeedMoE, Tutel, TutelImproved, PipeMoELina, FSMoENoIIO, FSMoE,
]


@pytest.fixture(scope="module")
def compiler(cluster_b):
    return PlanCompiler(cluster_b)


@pytest.fixture(scope="module")
def hetero_stack(small_spec):
    """Three generalized layers with three distinct shapes."""
    return [
        small_spec,
        small_spec.with_(embed_dim=2048, hidden_scale=3.0),
        small_spec.with_(top_k=1),
    ]


class TestCompileToPlan:
    @pytest.mark.parametrize("system_cls", ALL)
    def test_heterogeneous_stack_plans_and_simulates(
        self, compiler, hetero_stack, system_cls
    ):
        """Acceptance: >=2 distinct specs end-to-end under every system."""
        plan = compiler.compile(hetero_stack, system_cls())
        assert plan.num_layers == 3
        timeline = plan.simulate()
        assert timeline.makespan_ms > 0
        # one expert block per layer per phase actually executed.
        from repro.sim.events import TaskKind
        expert_records = [
            r for r in timeline.records if r.task.kind is TaskKind.EXPERT
        ]
        assert len(expert_records) >= 2 * plan.num_layers

    def test_heterogeneous_layers_get_distinct_schedules(
        self, compiler, hetero_stack
    ):
        plan = compiler.compile(hetero_stack, FSMoE())
        # distinct shapes -> distinct chunk volumes in the contexts.
        volumes = {phase.ctx.n_a2a for phase in plan.forward}
        assert len(volumes) == 3

    def test_spec_round_trip(self, compiler, small_spec):
        plan = compiler.compile([small_spec] * 2, FSMoE())
        rebuilt = IterationPlan.from_spec(plan.to_spec())
        assert rebuilt == plan


class TestJsonRoundTrip:
    @pytest.mark.parametrize("system_cls", ALL)
    def test_bit_identical_simulation(
        self, compiler, hetero_stack, system_cls
    ):
        """Acceptance: serialize -> deserialize -> simulate, exactly."""
        plan = compiler.compile(hetero_stack, system_cls())
        replayed = IterationPlan.from_json(plan.to_json())
        assert replayed == plan
        original = plan.simulate()
        again = replayed.simulate()
        assert original == again  # bit-identical records, not approx
        assert original.to_json() == again.to_json()

    def test_json_is_versioned_plain_data(self, compiler, small_spec):
        plan = compiler.compile(small_spec, Tutel())
        data = plan.to_dict()
        assert data["version"] == 1
        assert len(data["layers"]) == 1
        assert set(data["layers"][0]) == {"forward", "backward"}

    def test_unknown_version_rejected(self, compiler, small_spec):
        plan = compiler.compile(small_spec, Tutel())
        data = plan.to_dict()
        data["version"] = 99
        with pytest.raises(ScheduleError):
            IterationPlan.from_dict(data)

    def test_adaptive_plan_keeps_gar_placement(self, compiler, small_spec):
        plan = compiler.compile([small_spec] * 3, FSMoE())
        assert plan.gar_mode is GarMode.ADAPTIVE
        assert plan.gar is not None
        replayed = IterationPlan.from_json(plan.to_json())
        assert replayed.gar == plan.gar
        # placed + tail bytes account for every gradient byte.
        placed = (
            sum(replayed.gar.moe_ar_bytes)
            + sum(replayed.gar.dense_window_bytes)
            + replayed.gar.tail_bytes
        )
        assert placed == pytest.approx(sum(plan.grad_bytes))


@pytest.fixture(scope="module")
def memo_base(compiler, small_spec):
    """A compiled adaptive-GAR plan; tests take fresh copies of it."""
    return compiler.compile([small_spec] * 2, FSMoE())


@pytest.fixture()
def fresh_plan(memo_base):
    """An equal plan object whose makespan memo is still empty."""
    return IterationPlan.from_json(memo_base.to_json())


class TestMakespanMemo:
    def test_second_call_runs_no_simulation(self, fresh_plan, sim_calls):
        first = fresh_plan.makespan_ms()
        assert len(sim_calls) == 1
        assert fresh_plan.makespan_ms() == first
        assert len(sim_calls) == 1

    def test_phases_are_memoized_independently(self, fresh_plan, sim_calls):
        phases = ("forward", "backward", "both")
        values = {phase: fresh_plan.makespan_ms(phase) for phase in phases}
        assert len(sim_calls) == 3
        assert len(set(values.values())) == 3
        for phase in phases:
            assert fresh_plan.makespan_ms(phase) == values[phase]
        assert len(sim_calls) == 3
        for phase in phases:
            # bit for bit, not approx
            assert values[phase] == fresh_plan.simulate(phase).makespan_ms

    def test_memo_is_invisible_to_identity_and_document(self, fresh_plan):
        before = (
            hash(fresh_plan),
            repr(fresh_plan),
            fresh_plan.to_dict(),
            fresh_plan.to_json(),
        )
        twin = IterationPlan.from_json(fresh_plan.to_json())
        fresh_plan.makespan_ms()
        fresh_plan.makespan_ms("forward")
        assert fresh_plan == twin
        after = (
            hash(fresh_plan),
            repr(fresh_plan),
            fresh_plan.to_dict(),
            fresh_plan.to_json(),
        )
        assert after == before

    @pytest.mark.parametrize(
        "round_trip",
        [
            lambda plan: IterationPlan.from_json(plan.to_json()),
            copy.deepcopy,
            lambda plan: pickle.loads(pickle.dumps(plan)),
        ],
        ids=["json", "deepcopy", "pickle"],
    )
    def test_round_trips_keep_the_makespan(self, fresh_plan, round_trip):
        expected = fresh_plan.makespan_ms()
        again = round_trip(fresh_plan)
        assert again == fresh_plan
        assert again.makespan_ms() == expected
        assert again.simulate().makespan_ms == expected

    def test_plan_stays_frozen(self, fresh_plan):
        fresh_plan.makespan_ms()
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh_plan.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh_plan._makespan_memo = {}

    def test_concurrent_first_calls_agree(self, fresh_plan, memo_base):
        expected = memo_base.simulate().makespan_ms
        barrier = threading.Barrier(8)
        results: list[float] = []
        lock = threading.Lock()

        def worker() -> None:
            barrier.wait(timeout=30.0)
            value = fresh_plan.makespan_ms()
            with lock:
                results.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
        assert fresh_plan.makespan_ms() == expected


class TestGarPlacement:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SolverError):
            GarPlacement(
                moe_window_bytes=(1.0, 2.0),
                dense_window_bytes=(1.0,),
                extra_bytes=(0.0, 0.0),
                tail_bytes=0.0,
                t_gar_ms=(0.0, 0.0),
            )

    def test_moe_ar_bytes_sums_window_and_extra(self):
        placement = GarPlacement(
            moe_window_bytes=(1.0, 2.0),
            dense_window_bytes=(0.0, 0.0),
            extra_bytes=(3.0, 4.0),
            tail_bytes=0.0,
            t_gar_ms=(0.0, 0.0),
        )
        assert placement.moe_ar_bytes == (4.0, 6.0)
