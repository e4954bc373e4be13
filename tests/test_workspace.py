"""Workspace sessions: persistent caches, warm starts, corruption handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    ExperimentSpec,
    FSMoE,
    MoELayerSpec,
    StackSpec,
    Tutel,
    Workspace,
    WorkspaceError,
)
from repro import testbed_b as make_testbed_b
from repro.api.workspace import WORKSPACE_SCHEMA_VERSION

SRC = Path(__file__).parent.parent / "src"


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="tiny",
        clusters=("B",),
        systems=("tutel", "fsmoe"),
        stacks=(
            StackSpec(
                layers=(
                    MoELayerSpec(
                        batch_size=1,
                        seq_len=256,
                        embed_dim=512,
                        num_experts=8,
                        num_heads=8,
                    ),
                ),
                num_layers=2,
            ),
        ),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestWorkspaceBasics:
    def test_cold_sweep_populates_both_caches(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        result = ws.sweep(tiny_spec())
        assert len(result) == 2
        stats = ws.stats
        assert stats.plan_misses == 2 and stats.plan_hits == 0
        assert stats.profiles.misses > 0
        assert (tmp_path / "ws" / "profiles.json").exists()
        assert len(list((tmp_path / "ws" / "plans").glob("*.json"))) == 2

    def test_same_session_rerun_hits_plan_cache(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        ws.sweep(tiny_spec())
        before = ws.stats
        ws.sweep(tiny_spec())
        after = ws.stats
        assert after.plan_misses == before.plan_misses
        assert after.plan_hits == before.plan_hits + 2
        assert after.profiles.misses == before.profiles.misses

    def test_same_session_rerun_runs_no_simulation(self, tmp_path, sim_calls):
        ws = Workspace(tmp_path / "ws")
        cold = ws.sweep(tiny_spec())
        simulated = len(sim_calls)
        before = ws.stats
        warm = ws.sweep(tiny_spec())
        assert ws.stats.since(before).cache.l1.hits == 2
        assert len(sim_calls) == simulated
        assert [p.makespan_ms for p in warm.points] == [
            p.makespan_ms for p in cold.points
        ]

    def test_warm_reopen_is_fully_cached(self, tmp_path):
        root = tmp_path / "ws"
        cold = Workspace(root).sweep(tiny_spec())
        warm_ws = Workspace(root)
        warm = warm_ws.sweep(tiny_spec())
        stats = warm_ws.stats
        assert stats.warm
        assert stats.profiles.misses == 0
        assert stats.plan_misses == 0
        assert stats.plan_hits == 2
        # bit-identical replay: same simulated timelines, same makespans
        for a, b in zip(cold.points, warm.points):
            assert a.makespan_ms == b.makespan_ms
            assert a.plan.simulate() == b.plan.simulate()

    def test_different_spec_misses(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        ws = Workspace(root)
        ws.sweep(tiny_spec(seed=7))  # different profiling seed
        assert ws.stats.plan_misses == 2

    def test_plan_api_uses_cache(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        plan = ws.plan([spec, spec], FSMoE(), cluster)
        assert ws.stats.plan_misses == 1
        ws2 = Workspace(root)
        replay = ws2.plan([spec, spec], FSMoE(), cluster)
        assert ws2.stats.plan_hits == 1 and ws2.stats.plan_misses == 0
        assert replay.simulate() == plan.simulate()

    def test_solver_is_part_of_plan_identity(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        ws.plan([spec, spec], FSMoE(solver="de"), cluster)
        ws.plan([spec, spec], FSMoE(solver="slsqp"), cluster)
        assert ws.stats.plan_misses == 2  # distinct cache entries

    def test_system_identity_not_just_name(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        ws.plan(spec, Tutel(), cluster)
        ws.plan(spec, Tutel(r_max=4), cluster)
        assert ws.stats.plan_misses == 2

    def test_every_system_knob_reaches_the_fingerprint(self, tmp_path):
        """Differently-configured instances of each system must never
        share a plan-cache entry."""
        from repro.systems import PipeMoELina

        ws = Workspace(tmp_path / "ws")
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        ws.plan(spec, PipeMoELina(), cluster)
        ws.plan(spec, PipeMoELina(chunk_bytes=1e6), cluster)
        assert ws.stats.plan_misses == 2

    def test_clear_empties_disk_and_counters(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        ws.clear()
        assert ws.cache_info()["plan_entries"] == 0
        assert not (root / "profiles.json").exists()
        assert ws.stats.plan_hits == ws.stats.plan_misses == 0
        # planning again recompiles from scratch
        ws.sweep(tiny_spec())
        assert ws.stats.plan_misses == 2


class TestSweepGateOverrides:
    def test_per_layer_gates_change_the_plan(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        uniform = ws.sweep(tiny_spec(systems=("fsmoe",)))
        overridden = ws.sweep(
            tiny_spec(
                systems=("fsmoe",),
                stacks=(
                    StackSpec(
                        layers=(
                            MoELayerSpec(
                                batch_size=1,
                                seq_len=256,
                                embed_dim=512,
                                num_experts=8,
                                num_heads=8,
                            ),
                        ),
                        num_layers=2,
                        gates=("xmoe", "expert_choice"),
                    ),
                ),
            )
        )
        # Distinct gating is a distinct plan identity (no false cache hit).
        assert ws.stats.plan_misses == 2
        row = overridden.points[0].row()
        assert row["gate_kind"] == "xmoe,expert_choice"
        assert uniform.points[0].row()["gate_kind"] == "gshard"

    def test_stats_expose_solver_counters(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        ws.sweep(tiny_spec(systems=("fsmoe",)))
        solver = ws.stats.solver
        assert solver.solves > 0
        assert solver.batch_calls > 0
        assert solver.max_batch_size >= 1


class TestPlanGC:
    def test_gc_evicts_only_stale_plan_files(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        plans = sorted((root / "plans").glob("*.json"))
        assert len(plans) == 2
        stale = plans[0]
        stale_bytes = stale.stat().st_size
        old = 10 * 86400
        os.utime(stale, (stale.stat().st_atime - old,
                         stale.stat().st_mtime - old))

        swept = Workspace.gc_plans(root, max_age_days=7)
        assert swept["removed"] == 1 and swept["kept"] == 1
        assert swept["removed_bytes"] == stale_bytes
        assert swept["kept_bytes"] > 0
        assert not stale.exists() and plans[1].exists()

        # Nothing left to evict on a second pass.
        again = Workspace.gc_plans(root, max_age_days=7)
        assert again["removed"] == 0 and again["kept"] == 1
        assert again["removed_bytes"] == 0

    def test_gc_rejects_negative_age(self, tmp_path):
        from repro import ConfigError

        with pytest.raises(ConfigError):
            Workspace.gc_plans(tmp_path, max_age_days=-1)

    def test_gc_age_zero_evicts_everything(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        old = 60  # any mtime in the past is older than "0 days"
        for path in (root / "plans").glob("*.json"):
            os.utime(path, (path.stat().st_atime - old,
                            path.stat().st_mtime - old))
        swept = Workspace.gc_plans(root, max_age_days=0)
        assert swept["removed"] == 2 and swept["kept"] == 0


class TestWorkspacePersistenceEdges:
    def test_cross_process_warm_start(self, tmp_path):
        """A second *process* re-running the sweep computes nothing new."""
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        program = (
            "from repro import Workspace\n"
            "from tests.test_workspace import tiny_spec\n"
            f"ws = Workspace({str(root)!r})\n"
            "ws.sweep(tiny_spec())\n"
            "stats = ws.stats\n"
            "assert stats.warm, stats\n"
            "print('profile_misses', stats.profiles.misses,"
            " 'plan_misses', stats.plan_misses,"
            " 'plan_hits', stats.plan_hits)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(SRC.parent), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "profile_misses 0 plan_misses 0 plan_hits 2" in result.stdout

    def test_schema_version_mismatch_is_refused(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        payload = json.loads((root / "profiles.json").read_text())
        payload["schema_version"] = WORKSPACE_SCHEMA_VERSION + 1
        (root / "profiles.json").write_text(json.dumps(payload))
        with pytest.raises(WorkspaceError, match="schema version"):
            Workspace(root)

    def test_plan_schema_version_mismatch_is_refused(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        plan_file = next((root / "plans").glob("*.json"))
        payload = json.loads(plan_file.read_text())
        payload["schema_version"] = WORKSPACE_SCHEMA_VERSION + 1
        plan_file.write_text(json.dumps(payload))
        fresh = Workspace(root)
        with pytest.raises(WorkspaceError, match="schema version"):
            fresh.sweep(tiny_spec())

    def test_truncated_profiles_file_recovers(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        text = (root / "profiles.json").read_text()
        (root / "profiles.json").write_text(text[: len(text) // 2])
        with pytest.warns(UserWarning, match="unreadable"):
            ws = Workspace(root)
        # quarantined, not deleted; session still fully usable
        assert (root / "profiles.json.corrupt").exists()
        ws.sweep(tiny_spec())
        assert ws.stats.plan_hits == 2  # plan cache survived unharmed
        # an uncached variant must re-profile: the store really was lost
        ws.sweep(tiny_spec(seed=3))
        assert ws.stats.profiles.misses > 0

    def test_truncated_plan_file_recovers(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        plan_file = next((root / "plans").glob("*.json"))
        plan_file.write_text(plan_file.read_text()[:40])
        fresh = Workspace(root)
        with pytest.warns(UserWarning, match="unreadable"):
            fresh.sweep(tiny_spec())
        stats = fresh.stats
        assert stats.plan_misses == 1 and stats.plan_hits == 1
        # the recompiled plan replaced the truncated file
        warm = Workspace(root)
        warm.sweep(tiny_spec())
        assert warm.stats.warm

    def test_undecodable_profile_entries_are_skipped(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        payload = json.loads((root / "profiles.json").read_text())
        payload["entries"].append({"k": {"__dc__": "FutureType", "f": {}},
                                  "v": None})
        (root / "profiles.json").write_text(json.dumps(payload))
        ws = Workspace(root)  # must not raise
        ws.sweep(tiny_spec())
        assert ws.stats.plan_hits == 2

    def test_root_expands_home_shorthand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        ws = Workspace("~/ws-home-test")
        assert ws.root == tmp_path / "ws-home-test"
        assert not (Path.cwd() / "~").exists()

    def test_discard_works_without_opening(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        payload = json.loads((root / "profiles.json").read_text())
        payload["schema_version"] = 999
        (root / "profiles.json").write_text(json.dumps(payload))
        removed = Workspace.discard(root)
        assert removed["profiles"] == 1 and removed["plans"] == 2
        # and the workspace opens cleanly again
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        assert ws.stats.plan_misses == 2

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        ws.save()
        # the persistent advisory lock file is deliberate; anything else
        # hidden would be a leaked temp file from a non-atomic write
        leftovers = [
            p
            for p in root.iterdir()
            if p.name.startswith(".") and p.name != ".workspace.lock"
        ]
        assert leftovers == []
