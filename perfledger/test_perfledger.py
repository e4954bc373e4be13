"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfledger -q
"""

from __future__ import annotations

import itertools
import json
import random
import re
import statistics
from collections import Counter
from pathlib import Path

import pytest

import ledger
import run
import worker
import workloads

CATALOG = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def take(stream, n):
    return list(itertools.islice(stream, n))


# -- generators ---------------------------------------------------------------


def test_cold_requests_are_deterministic_per_seed():
    first = take(workloads.cold_sweep_requests(7), 300)
    assert first == take(workloads.cold_sweep_requests(7), 300)
    assert first != take(workloads.cold_sweep_requests(8), 300)


def test_cold_requests_are_distinct_over_a_long_run():
    n = 60 * workloads.COLD_SESSION
    requests = take(workloads.cold_sweep_requests(3), n)
    keys = [request.layer_key for request in requests]
    assert len(set(keys)) == len(keys)
    assert len(set(requests)) == len(requests)


def test_cold_sessions_share_one_stratified_mix():
    n = 4 * workloads.COLD_SESSION
    requests = take(workloads.cold_sweep_requests(5), n)
    for session, block in itertools.groupby(requests, lambda r: r.session):
        block = list(block)
        assert sorted(r.depth for r in block) == list(workloads.COLD_DEPTHS)
        assert Counter(r.cluster for r in block) == {"A": 15, "B": 15}
        assert Counter(r.top_k for r in block) == {1: 15, 2: 15}
        for r in block:
            nodes = workloads.TESTBED_NODES[r.cluster]
            assert r.num_experts % nodes == 0
            assert r.embed_dim % 16 == 0


def test_cold_generator_refuses_to_repeat():
    every_spec = {
        (cluster, 256 + 64 * s, 1024 + 128 * e, top_k, nodes * mult)
        for cluster, nodes in workloads.TESTBED_NODES.items()
        for s in range(60)
        for e in range(30)
        for top_k in (1, 2)
        for mult in (1, 2)
    }
    with pytest.raises(workloads.DistinctnessError):
        workloads._cold_block(0, random.Random(0), every_spec, tries=5)


def test_hit_draws_are_deterministic_and_balanced():
    draws = take(workloads.session_hits_draws(2), 18 * 10)
    assert draws == take(workloads.session_hits_draws(2), 18 * 10)
    assert draws != take(workloads.session_hits_draws(3), 18 * 10)
    assert Counter(draws) == {i: 10 for i in range(18)}


def test_wire_draws_mix_summary_and_plan_four_to_one():
    draws = take(workloads.wire_hits_draws(4), 90 * 3)
    assert draws == take(workloads.wire_hits_draws(4), 90 * 3)
    details = Counter(detail for _, detail in draws)
    assert details == {"summary": 216, "plan": 54}
    assert Counter(index for index, _ in draws) == {i: 15 for i in range(18)}


def test_hit_payloads_cover_the_18_plans():
    payloads = [workloads.hit_payload(i) for i in range(18)]
    assert len({json.dumps(p, sort_keys=True) for p in payloads}) == 18
    assert {p["cluster"] for p in payloads} == {"A"}


# -- percentiles and spans ----------------------------------------------------


@pytest.mark.parametrize(
    ("values", "p", "expected"),
    [
        ([1, 2, 3, 4], 0.5, 2),
        ([4, 3, 2, 1, 5], 0.5, 3),
        (list(range(1, 11)), 0.9, 9),
        (list(range(1, 101)), 0.99, 99),
        (list(range(1, 12)), 0.9, 10),
        ([7], 0.5, 7),
        ([3, 1, 2], 1.0, 3),
    ],
)
def test_nearest_rank_returns_an_observed_value(values, p, expected):
    assert ledger.nearest_rank(values, p) == expected


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        ledger.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        ledger.nearest_rank([1], 0.0)


def test_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 10.3, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    s = ledger.spread(values)
    assert (s["q1"], s["median"], s["q3"]) == (q1, median, q3)
    assert s["iqr_share"] == pytest.approx((q3 - q1) / median)
    assert s["range_share"] == pytest.approx(11.0 / 9.0 - 1.0)


def test_spans_nest_and_give_self_time(tmp_path):
    spans = ledger.Spans()
    with spans.span("request", 1):
        with spans.span("a", 1):
            pass
        with spans.span("b", 1):
            pass
    with spans.span("probe", 1):
        pass
    by_name = {r.name: r for r in spans.records}
    root = by_name["request"]
    assert root.parent_id is None and by_name["probe"].parent_id is None
    assert by_name["a"].parent_id == root.span_id
    assert by_name["b"].parent_id == root.span_id
    children = by_name["a"].duration_ms + by_name["b"].duration_ms
    (self_ms,) = spans.self_ms("request")
    assert self_ms == pytest.approx(root.duration_ms - children)
    assert spans.per_request_ms(["a", "b"]) == {1: pytest.approx(children)}

    path = tmp_path / "spans.jsonl"
    spans.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["request", "a", "b", "probe"]
    assert set(lines[0]) == {
        "name", "span_id", "parent_id", "request_id", "start_ns", "end_ns",
    }


# -- the catalog and the output -----------------------------------------------


def test_catalog_names_and_units_are_well_formed():
    metrics = CATALOG["end_to_end"] + CATALOG["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    for metric in CATALOG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CATALOG["end_to_end"])


def test_catalog_lists_the_three_workloads():
    names = [w["name"] for w in CATALOG["workloads"]]
    assert names == list(run.WORKLOADS)
    assert CATALOG["command"] == ["python3", "perfledger/run.py"]
    assert CATALOG["paths"] == ["perfledger"]


def test_blocking_parts_are_declared_layer_metrics():
    declared = {m["name"] for m in CATALOG["per_layer"]}
    for workload, parts in worker.BLOCKING_PARTS.items():
        assert workload in run.WORKLOADS
        for part in parts:
            assert f"{part}_ms" in declared


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_output_lists_every_metric_with_its_unit(section):
    declared = CATALOG[section]
    values = {m["name"]: 1.5 for m in declared}
    results = [{"attempted": 10, "passed": 10}]
    lines, result = run.render(declared, values, results, zero_fill=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (10, 0)
    for metric, line in zip(declared, lines):
        assert line.split() == [metric["name"], "1.5", metric["unit"]]
        assert result["metrics"][metric["name"]] == {
            "value": 1.5, "unit": metric["unit"],
        }


def test_output_refuses_undeclared_or_missing_metrics():
    declared = CATALOG["end_to_end"]
    values = {m["name"]: 1.0 for m in declared}
    results = [{"attempted": 1, "passed": 1}]
    with pytest.raises(run.BenchError):
        run.render(
            declared, {**values, "extra": 1.0}, results, zero_fill=False
        )
    values.pop("setup_s")
    with pytest.raises(run.BenchError):
        run.render(declared, values, results, zero_fill=False)


def test_failed_checks_make_the_run_incorrect():
    declared = CATALOG["end_to_end"]
    values = {m["name"]: 1.0 for m in declared}
    _, result = run.render(
        declared, values, [{"attempted": 5, "passed": 4}], zero_fill=False
    )
    assert result["correct"] is False and result["failed"] == 1
