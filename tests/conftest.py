"""Shared fixtures: profiled testbeds and a small reference workload."""

from __future__ import annotations

import pytest

from repro import MoELayerSpec, standard_layout, testbed_a, testbed_b
from repro.core.profiler import profile_cluster
from repro.models import profile_layer


@pytest.fixture(scope="session")
def cluster_b():
    """Paper Testbed B (8 nodes x 4 GPUs)."""
    return testbed_b()


@pytest.fixture(scope="session")
def cluster_a():
    """Paper Testbed A (6 nodes x 8 GPUs)."""
    return testbed_a()


@pytest.fixture(scope="session")
def parallel_b(cluster_b):
    """Standard layout on Testbed B (n_mp = n_esp = 4, n_ep = n_dp = 8)."""
    return standard_layout(cluster_b.total_gpus, cluster_b.gpus_per_node)


@pytest.fixture(scope="session")
def parallel_a(cluster_a):
    """Standard layout on Testbed A (n_mp = n_esp = 8, n_ep = n_dp = 6)."""
    return standard_layout(cluster_a.total_gpus, cluster_a.gpus_per_node)


@pytest.fixture(scope="session")
def models_b(cluster_b, parallel_b):
    """Fitted performance models of Testbed B (noise-free profile)."""
    return profile_cluster(cluster_b, parallel_b).models


@pytest.fixture(scope="session")
def models_a(cluster_a, parallel_a):
    """Fitted performance models of Testbed A (noise-free profile)."""
    return profile_cluster(cluster_a, parallel_a).models


@pytest.fixture(scope="session")
def small_spec(parallel_b):
    """A light MoE layer spec sized for fast tests."""
    return MoELayerSpec(
        batch_size=2,
        seq_len=512,
        embed_dim=1024,
        hidden_scale=2,
        num_experts=parallel_b.n_ep,
        top_k=2,
        capacity_factor=1.2,
        num_heads=16,
    )


@pytest.fixture(scope="session")
def profile_b(small_spec, parallel_b, models_b):
    """Layer profile of the small spec on Testbed B."""
    return profile_layer(small_spec, parallel_b, models_b)


@pytest.fixture()
def sim_calls(monkeypatch):
    """Count the discrete-event runs behind ``IterationPlan.simulate``.

    Returns a list that grows by one entry per simulation, from any
    thread, for the duration of the test.
    """
    import repro.planner.plan as plan_module

    calls: list[None] = []
    real = plan_module.simulate

    def counting(graph):
        calls.append(None)
        return real(graph)

    monkeypatch.setattr(plan_module, "simulate", counting)
    return calls
