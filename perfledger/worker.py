"""One benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per timed or traced run (and a few
times with ``--setup-only`` to time start-up).  It times the imports,
opens a workspace, prints one ``ready`` JSON line, runs the workload and
prints one result JSON line.  Every correctness check runs after the
timed window.

Usage::

    python3 worker.py --workload cold_sweep --seed 1 --root DIR --seconds 15
    python3 worker.py --workload wire_hits --seed 1 --root DIR --count 900 \\
        --server 127.0.0.1:PORT --trace spans.jsonl
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from ledger import Spans, nearest_rank, p50_or_zero
from workloads import (
    HIT_PLANS,
    TESTBED_NODES,
    cold_sweep_requests,
    hit_payload,
    session_hits_draws,
    wire_hits_draws,
)

#: spans on the blocking path of one request, per workload; the traced
#: run sums them per request to find the request time no probe covers.
BLOCKING_PARTS = {
    "cold_sweep": (
        "api.normalize_request",
        "api.plan_digest",
        "planner.cluster_profile",
        "planner.layer_profile",
        "core.solve_degrees",
        "systems.build_iteration_spec",
        "planner.from_spec",
        "planner.to_dict",
        "api.save",
        "sim.simulate",
    ),
    # plan_digest covers normalize, key and digest of the hit.
    "session_hits": ("api.plan_digest",),
    "wire_hits": (
        "serve.parse_payload",
        "serve.service_hit",
        "serve.render_summary",
        "serve.render_plan",
    ),
}

#: pings timed after the traced wire loop.
PINGS = 200


def timed_imports() -> dict[str, float]:
    """Import numpy, scipy.optimize and repro in order, timing each."""
    marks = [time.perf_counter()]
    import numpy  # noqa: F401

    marks.append(time.perf_counter())
    import scipy.optimize  # noqa: F401

    marks.append(time.perf_counter())
    import repro  # noqa: F401

    marks.append(time.perf_counter())
    names = ("import_numpy_s", "import_scipy_s", "import_repro_s")
    return {name: b - a for name, a, b in zip(names, marks, marks[1:])}


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def window(
    draws: Iterable, seconds: float | None, count: int | None
) -> Iterator[tuple[int, object]]:
    """``(index, draw)`` until ``count`` draws or ``seconds`` have passed."""
    start = time.perf_counter()
    for index, draw in enumerate(draws):
        if count is not None:
            if index >= count:
                return
        elif time.perf_counter() - start >= seconds:
            return
        yield index, draw


def report_failure(index: int) -> None:
    """Log one failed request's traceback to stderr (the run goes on)."""
    print(f"request {index} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def solver_counts(delta) -> dict[str, int]:
    """The solver counters of one window (a ``SolverStats`` delta)."""
    return {
        "core.solver_solves": delta.solves,
        "core.solver_cache_hits": delta.cache_hits,
        "core.solver_batch_calls": delta.batch_calls,
        "core.step2_objective_calls": delta.step2_objective_calls,
        "core.step2_candidates": delta.step2_candidates,
    }


def summarize(
    workload: str,
    latencies: list[float],
    attempted: int,
    wall_s: float,
    rss_mb: float,
    spans: Spans | None,
) -> dict:
    """The result fields every workload reports."""
    result = {
        "attempted": attempted,
        "passed": len(latencies),
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "latency_p50_ms": p50_or_zero(latencies),
        "latency_p90_ms": (
            nearest_rank(latencies, 0.9) if latencies else 0.0
        ),
        "latency_p99_ms": (
            nearest_rank(latencies, 0.99) if latencies else 0.0
        ),
    }
    if spans is not None:
        names = sorted({r.name for r in spans.records})
        result["span_p50_ms"] = {
            name: p50_or_zero(spans.durations_ms(name)) for name in names
        }
        result["span_self_p50_ms"] = {
            name: p50_or_zero(spans.self_ms(name)) for name in names
        }
        parts = spans.per_request_ms(BLOCKING_PARTS[workload])
        result["parts_p50_ms"] = p50_or_zero(list(parts.values()))
    return result


# -- cold_sweep ---------------------------------------------------------------


def run_cold_sweep(args, spans: Spans | None) -> dict:
    """Distinct cold FSMoE plans, each followed by its makespan."""
    from repro import (
        GateKind,
        IterationPlan,
        MoELayerSpec,
        Workspace,
        get_cluster,
        get_system,
        solver_stats,
    )
    from repro.core import solve_degrees

    system = get_system("fsmoe")
    clusters = {name: get_cluster(name) for name in TESTBED_NODES}

    def stack_of(request):
        spec = MoELayerSpec(
            seq_len=request.seq_len,
            embed_dim=request.embed_dim,
            top_k=request.top_k,
            num_experts=request.num_experts,
        )
        return (spec,) * request.depth

    def replay(ws, stack, cluster, i):
        """``Workspace.plan`` + makespan, one public layer call at a time."""
        with spans.span("api.normalize_request", i):
            stack, parallel, gates = ws.normalize_request(
                stack, cluster, None, GateKind.GSHARD
            )
        with spans.span("api.plan_digest", i):
            ws.plan_digest(stack, system, cluster)
        with spans.span("planner.cluster_profile", i):
            models = ws.store.cluster_profile(
                cluster, parallel, noise=0.0, seed=0
            ).models
        with spans.span("planner.layer_profile", i):
            profiles = tuple(
                ws.store.layer_profile(spec, parallel, models, gate_kind=gate)
                for spec, gate in zip(stack, gates)
            )
        with spans.span("core.solve_degrees", i):
            solve_degrees(system.schedule_contexts(profiles), system.r_max)
        with spans.span("systems.build_iteration_spec", i):
            spec = system.build_iteration_spec(profiles, models, True)
        with spans.span("planner.from_spec", i):
            plan = IterationPlan.from_spec(spec)
        with spans.span("planner.to_dict", i):
            json.dumps(plan.to_dict())
        with spans.span("api.save", i):
            ws.save()
        with spans.span("sim.simulate", i):
            return plan.simulate().makespan_ms

    tally = Counter()

    def close_session(ws) -> None:
        cache = ws.stats.cache
        tally["cache.l1_hits"] += cache.l1.hits
        tally["cache.l1_misses"] += cache.l1.misses
        tally["cache.l2_writes"] += cache.l2.writes

    # Only the running session's workspace is kept alive, as a sweep
    # script would do: holding every finished session would grow the
    # heap, and with it the garbage collector's work, with run length.
    ws, session = None, None
    records = []  # (request, makespan, latency_ms); makespan None: failed
    plan_ms: list[float] = []
    solver_before = solver_stats()
    start = time.perf_counter()
    for i, request in window(
        cold_sweep_requests(args.seed), args.seconds, args.count
    ):
        if request.session != session:
            if ws is not None:
                close_session(ws)
            session = request.session
            # The replay persists profiles itself, so it turns autosave off.
            ws = Workspace(
                args.root / f"cold-{request.session}", autosave=spans is None
            )
        stack, cluster = stack_of(request), clusters[request.cluster]
        try:
            if spans is None:
                t0 = time.perf_counter_ns()
                plan = ws.plan(stack, system, cluster)
                t1 = time.perf_counter_ns()
                makespan = plan.makespan_ms()
                t2 = time.perf_counter_ns()
                plan_ms.append((t1 - t0) / 1e6)
            else:
                t0 = time.perf_counter_ns()
                with spans.span("request", i):
                    makespan = replay(ws, stack, cluster, i)
                t2 = time.perf_counter_ns()
        except Exception:  # noqa: BLE001 - a failed request is counted
            report_failure(i)
            records.append((request, None, None))
            continue
        records.append((request, makespan, (t2 - t0) / 1e6))
    wall_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()
    solver_delta = solver_stats() - solver_before
    close_session(ws)
    lookups = tally["cache.l1_hits"] + tally["cache.l1_misses"]
    counts = {
        **solver_counts(solver_delta),
        **tally,
        "cache.l1_hit_ratio": (
            tally["cache.l1_hits"] / lookups if lookups else 0.0
        ),
        "planner.profile_entries": len(ws.store.entries()),
        "api.plan_ms": p50_or_zero(plan_ms),
    }

    # Checks: a fresh workspace on each session's root plans every request
    # again (from disk, or after a replay from the saved profiles).  The
    # plan must round-trip through JSON to an equal plan whose makespan is
    # the one measured in the window.
    latencies = []
    session, ws = None, None
    for request, makespan, latency in records:
        if makespan is None:
            continue
        if request.session != session:
            session = request.session
            ws = Workspace(args.root / f"cold-{session}")
        plan = ws.plan(stack_of(request), system, clusters[request.cluster])
        again = IterationPlan.from_json(plan.to_json())
        if again == plan and again.makespan_ms() == makespan:
            latencies.append(latency)
    result = summarize(
        "cold_sweep", latencies, len(records), wall_s, rss_mb, spans
    )
    result["counts"] = counts
    return result


# -- session_hits -------------------------------------------------------------


def hit_arguments() -> list[tuple]:
    """``(stack, system, cluster)`` for every plan of :data:`HIT_PLANS`."""
    from repro import StackSpec, get_cluster, get_system, standard_layout

    cluster = get_cluster("A")
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    return [
        (
            StackSpec(model=model, seq_len=seq_len).resolve(parallel),
            get_system(system),
            cluster,
        )
        for model, system, seq_len in HIT_PLANS
    ]


def run_session_hits(args, ws, spans: Spans | None) -> dict:
    """L1 hits on 18 plans compiled before the window."""
    from repro import GateKind, solver_stats

    arguments = hit_arguments()
    warm = [ws.plan(*a) for a in arguments]
    stats_before = ws.stats
    solver_before = solver_stats()

    records = []  # (index, plan, latency_ms)
    plan_ms: list[float] = []
    start = time.perf_counter()
    for i, index in window(
        session_hits_draws(args.seed), args.seconds, args.count
    ):
        stack, system, cluster = arguments[index]
        try:
            if spans is None:
                t0 = time.perf_counter_ns()
                plan = ws.plan(stack, system, cluster)
                t1 = time.perf_counter_ns()
                plan.degrees
                t2 = time.perf_counter_ns()
                plan_ms.append((t1 - t0) / 1e6)
            else:
                t0 = time.perf_counter_ns()
                with spans.span("request", i):
                    plan = ws.plan(stack, system, cluster)
                    plan.degrees
                t2 = time.perf_counter_ns()
                with spans.span("api.normalize_request", i):
                    ws.normalize_request(stack, cluster, None, GateKind.GSHARD)
                with spans.span("api.plan_digest", i):
                    ws.plan_digest(stack, system, cluster)
        except Exception:  # noqa: BLE001 - a failed request is counted
            report_failure(i)
            records.append(None)
            continue
        records.append((index, plan, (t2 - t0) / 1e6))
    wall_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()
    window_stats = ws.stats.since(stats_before)
    cache = window_stats.cache
    hits, misses = cache.l1.hits, cache.l1.misses
    counts = {
        **solver_counts(solver_stats() - solver_before),
        "cache.l1_hits": hits,
        "cache.l1_misses": misses,
        "cache.l1_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.l2_writes": cache.l2.writes,
        "planner.profile_entries": len(ws.store.entries()),
        "api.plan_ms": p50_or_zero(plan_ms),
    }

    latencies = []
    for record in records:
        if record is not None:
            index, plan, latency = record
            if plan == warm[index]:
                latencies.append(latency)
    result = summarize(
        "session_hits", latencies, len(records), wall_s, rss_mb, spans
    )
    result["counts"] = counts
    return result


# -- wire_hits ----------------------------------------------------------------


def run_wire_hits(args, ws, spans: Spans | None) -> dict:
    """A closed loop of repeats over one NetClient connection."""
    from repro import NetClient, PlanService, solver_stats
    from repro.serve.protocol import (
        encode_frame,
        ok_response,
        parse_plan_payload,
        plan_summary,
    )

    payloads = [hit_payload(index) for index in range(len(HIT_PLANS))]
    client = NetClient(args.server)
    service = PlanService(ws)
    try:
        for payload in payloads:
            client.plan(payload)
        if spans is not None:
            # The in-process replay answers from the service's completed
            # map, like the server: resolve each plan once first.
            for payload in payloads:
                service.plan(parse_plan_payload(payload))
        server_before = client.stats()
        solver_before = solver_stats()

        # Each answer is kept as JSON text, which the garbage collector
        # never scans, so the kept answers do not slow the loop.
        records = []  # (index, detail, body JSON, latency_ms)
        start = time.perf_counter()
        for i, (index, detail) in window(
            wire_hits_draws(args.seed), args.seconds, args.count
        ):
            payload = payloads[index]
            try:
                if spans is None:
                    t0 = time.perf_counter_ns()
                    response = client.plan(payload, detail=detail)
                    t1 = time.perf_counter_ns()
                else:
                    t0 = time.perf_counter_ns()
                    with spans.span("request", i):
                        with spans.span(f"net.plan_rtt_{detail}", i):
                            response = client.plan(payload, detail=detail)
                    t1 = time.perf_counter_ns()
                    with spans.span("serve.parse_payload", i):
                        request = parse_plan_payload(payload)
                    with spans.span("serve.service_hit", i):
                        plan = service.submit(request).result()
                    if detail == "summary":
                        with spans.span("serve.render_summary", i):
                            encode_frame(
                                ok_response(None, result=plan_summary(plan))
                            )
                        with spans.span("sim.simulate", i):
                            plan.simulate()
                    else:
                        with spans.span("serve.render_plan", i):
                            encode_frame(
                                ok_response(None, plan=plan.to_dict())
                            )
                        with spans.span("planner.to_dict", i):
                            json.dumps(plan.to_dict())
            except Exception:  # noqa: BLE001 - a failed request is counted
                report_failure(i)
                records.append(None)
                continue
            field = "result" if detail == "summary" else "plan"
            records.append(
                (index, detail, json.dumps(response[field]), (t1 - t0) / 1e6)
            )
        wall_s = time.perf_counter() - start
        solver_delta = solver_stats() - solver_before
        server_after = client.stats()
        if spans is not None:
            for j in range(PINGS):
                with spans.span("net.ping", len(records) + j):
                    client.ping()

        # Checks: every answer must equal the in-process plan.
        expected = []
        for payload in payloads:
            plan = service.plan(parse_plan_payload(payload))
            expected.append(
                (
                    json.loads(json.dumps(list(plan.degrees))),
                    plan.makespan_ms(),
                    json.loads(json.dumps(plan.to_dict())),
                )
            )
    finally:
        client.close()
        service.close()

    latencies = []
    frame_bytes: dict[str, list[int]] = {"summary": [], "plan": []}
    for record in records:
        if record is None:
            continue
        index, detail, text, latency = record
        body = json.loads(text)
        field = "result" if detail == "summary" else "plan"
        frame_bytes[detail].append(
            len(encode_frame(ok_response(None, **{field: body})))
        )
        degrees, makespan, document = expected[index]
        if detail == "summary":
            ok = body.get("degrees") == degrees and (
                body.get("makespan_ms") == makespan
            )
        else:
            ok = body == document
        if ok:
            latencies.append(latency)

    def delta(section: str, key: str) -> int:
        return server_after[section][key] - server_before[section][key]

    requests = delta("service", "requests")
    counts = {
        **solver_counts(solver_delta),
        "serve.dedup_rate": (
            delta("service", "dedup_hits") / requests if requests else 0.0
        ),
        "serve.resolved": delta("service", "resolved"),
        "net.shed": delta("net", "shed"),
        "net.failed": delta("net", "failed"),
        "net.response_bytes_summary": p50_or_zero(frame_bytes["summary"]),
        "net.response_bytes_plan": p50_or_zero(frame_bytes["plan"]),
    }
    result = summarize(
        "wire_hits", latencies, len(records), wall_s, 0.0, spans
    )
    result["counts"] = counts
    return result


def main(argv: list[str] | None = None) -> int:
    """Entry point; see the module docstring for the arguments."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("cold_sweep", "session_hits", "wire_hits"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--server", default=None)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seconds is None) == (args.count is None):
        parser.error("give exactly one of --seconds and --count")
    if args.workload == "wire_hits" and not args.setup_only:
        if args.server is None:
            parser.error("wire_hits needs --server")

    imports = timed_imports()
    from repro import Workspace

    ws = Workspace(args.root / "session")
    print(json.dumps({"ready": True, **imports}), flush=True)
    if args.setup_only:
        return 0

    spans = Spans() if args.trace is not None else None
    if args.workload == "cold_sweep":
        result = run_cold_sweep(args, spans)
    elif args.workload == "session_hits":
        result = run_session_hits(args, ws, spans)
    else:
        result = run_wire_hits(args, ws, spans)
    if spans is not None:
        spans.write_jsonl(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
