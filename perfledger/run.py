"""The repository benchmark: one plan request end to end, layer by layer.

Run from the root of a checkout::

    python3 perfledger/run.py --workload cold_sweep --seed 1 --trace 0
    python3 perfledger/run.py --steadiness --runs 10

A run starts every process under test from scratch: a fresh interpreter
and a fresh workspace root under ``.perfledger/`` in the checkout, with
every inherited ``REPRO_*`` variable removed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer ledger, writing
its spans to ``.perfledger/traces/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--steadiness`` runs the benchmark once per seed and
prints each end-to-end metric's median, quartiles and spreads next to
its bound.  Metric names, units and bounds live in ``BENCHMARK.json``;
``NOTES.md`` says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from ledger import machine_probe_ms, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_sweep", "session_hits", "wire_hits")

#: timed start-ups per run, after one untimed start-up that warms the
#: disk cache and byte-compiles the sources; setup_s is their median.
SETUP_SAMPLES = 5

#: requests replayed by each child of a traced run: a fixed count, so
#: every count in the ledger repeats exactly at the same seed.
TRACE_COUNTS = {"cold_sweep": 90, "session_hits": 3600, "wire_hits": 900}

#: every run must end well inside this many seconds.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


class Child:
    """A started process whose stdout lines are read with deadlines."""

    def __init__(self, cmd: list[str], env: dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line))
        self._lines.put((time.perf_counter(), None))

    def line(self, deadline: float) -> tuple[float, str]:
        """The next stdout line and the instant it arrived."""
        try:
            at, line = self._lines.get(
                timeout=max(0.0, deadline - time.perf_counter())
            )
        except queue.Empty:
            raise BenchError(f"{self.proc.args[:4]} timed out") from None
        if line is None:
            raise BenchError(
                f"{self.proc.args[:4]} exited with {self.proc.wait()} "
                f"before answering"
            )
        return at, line

    def json_line(self, deadline: float) -> tuple[float, dict]:
        """The next stdout line that is a JSON object."""
        while True:
            at, line = self.line(deadline)
            if line.startswith("{"):
                return at, json.loads(line)

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the running process."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self, timeout_s: float = 30.0) -> None:
        """Ask the process to stop (SIGTERM), then kill it if it lingers."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()


class Run:
    """One benchmark run: its scratch directory and its processes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        base = ROOT / ".perfledger"
        self.dir = base / f"run-{os.getpid()}-{time.time_ns()}"
        (self.dir / "tmp").mkdir(parents=True)
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.dir / "tmp")
        self.children: list[Child] = []
        self._roots = 0

    def fresh_root(self) -> Path:
        """A new, empty workspace root for one process."""
        self._roots += 1
        return self.dir / f"root-{self._roots}"

    def spawn(self, cmd: list[str]) -> Child:
        child = Child(cmd, self.env)
        self.children.append(child)
        return child

    def worker(self, *extra: str) -> Child:
        """Start ``worker.py`` for this run's workload and seed."""
        return self.spawn(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload,
                "--seed", str(self.seed),
                "--root", str(self.fresh_root()),
                *extra,
            ]
        )

    def server(self) -> tuple[Child, str, float]:
        """Start ``repro serve --listen``; ``(child, address, setup_s)``."""
        child = self.spawn(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                "--workspace", str(self.fresh_root()),
            ]
        )
        while True:
            at, line = child.line(self.deadline)
            if "listening on" in line:
                return child, line.split()[-1], at - child.started

    def setup_probe(self) -> dict:
        """One start-up: ``import repro`` done and a workspace open."""
        child = self.worker("--setup-only")
        at, ready = child.json_line(self.deadline)
        child.stop()
        return {**ready, "setup_s": at - child.started}

    def close(self) -> None:
        for child in self.children:
            child.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one timed run; ``(metrics, result)``."""
    window = ["--seconds", str(seconds)]
    if run.workload == "wire_hits":
        run.server()[0].stop()  # untimed: warms the disk cache
        samples = []
        for _ in range(SETUP_SAMPLES - 1):
            child, _, setup_s = run.server()
            samples.append(setup_s)
            child.stop()
        server, address, setup_s = run.server()
        samples.append(setup_s)
        client = run.worker("--server", address, *window)
        client.json_line(run.deadline)  # ready
        _, result = client.json_line(run.deadline)
        rss_mb = server.peak_rss_mb()
        client.stop()
        server.stop()
    else:
        run.setup_probe()  # untimed: warms the disk cache
        samples = [run.setup_probe()["setup_s"] for _ in range(SETUP_SAMPLES)]
        child = run.worker(*window)
        child.json_line(run.deadline)  # ready
        _, result = child.json_line(run.deadline)
        rss_mb = result["peak_rss_mb"]
        child.stop()
    passed, attempted = result["passed"], result["attempted"]
    metrics = {
        "setup_s": statistics.median(samples),
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_p90_ms": result["latency_p90_ms"],
        "throughput_rps": passed / result["wall_s"],
        "peak_rss_mb": rss_mb,
        "completed_share": passed / attempted if attempted else 0.0,
    }
    print(f"setup samples_s {' '.join(f'{s:.4f}' for s in samples)}")
    print(
        f"latency samples {passed}, p99_ms {result['latency_p99_ms']:.4f} "
        f"(printed only; not gated)"
    )
    return metrics, result


def traced_child(run: Run, *extra: str) -> dict:
    """One fixed-count child of a traced run (with its own server)."""
    count = ["--count", str(TRACE_COUNTS[run.workload])]
    server = None
    if run.workload == "wire_hits":
        server, address, _ = run.server()
        extra = ("--server", address, *extra)
    child = run.worker(*count, *extra)
    child.json_line(run.deadline)  # ready
    _, result = child.json_line(run.deadline)
    child.stop()
    if server is not None:
        server.stop()
    return result


def traced_run(run: Run, probe_ms: float) -> tuple[dict, list[dict]]:
    """The per-layer ledger; ``(metrics, [untraced, traced] results)``."""
    run.setup_probe()  # untimed: warms the disk cache
    probes = [run.setup_probe() for _ in range(SETUP_SAMPLES)]
    untraced = traced_child(run)
    trace_path = ROOT / ".perfledger" / "traces" / (
        f"{run.workload}-seed{run.seed}.jsonl"
    )
    traced = traced_child(run, "--trace", str(trace_path))

    spans = traced["span_p50_ms"]
    request_ms = spans["request"]
    metrics: dict[str, float] = {
        f"setup.{name}": statistics.median([p[name] for p in probes])
        for name in ("import_numpy_s", "import_scipy_s", "import_repro_s")
    }
    metrics.update(untraced["counts"])
    for name, value in spans.items():
        if name != "request":
            metrics[f"{name}_ms"] = value
    metrics["bench.unattributed_share"] = 1.0 - (
        traced["parts_p50_ms"] / request_ms
    )
    metrics["bench.trace_overhead_ratio"] = (
        request_ms / untraced["latency_p50_ms"]
    )
    metrics["bench.machine_probe_ms"] = probe_ms
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(f"{'span':34} {'p50_ms':>10} {'self_p50_ms':>12}")
    for name in sorted(spans):
        print(
            f"{name:34} {spans[name]:10.4f} "
            f"{traced['span_self_p50_ms'][name]:12.4f}"
        )
    return metrics, [untraced, traced]


def load_catalog() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def render(
    declared: list[dict],
    values: dict[str, float],
    results: list[dict],
    *,
    zero_fill: bool,
) -> tuple[list[str], dict]:
    """Metric lines (name, value, unit) and the result JSON object.

    ``values`` must hold every ``declared`` metric and nothing else;
    with ``zero_fill``, a declared layer metric that was not measured
    reads 0 (the workload's requests never reached that layer).

    Raises:
        BenchError: for a measured metric BENCHMARK.json does not
            declare, or a declared one that was not measured.
    """
    names = [metric["name"] for metric in declared]
    undeclared = sorted(set(values) - set(names))
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {undeclared}")
    if zero_fill:
        values = {name: values.get(name, 0) for name in names}
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    lines = []
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name} {values[name]:.6g} {unit}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["attempted"] - r["passed"] for r in results)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def bench(args) -> int:
    """One benchmark run: print every metric, then the result JSON line."""
    catalog = load_catalog()
    section = "per_layer" if args.trace else "end_to_end"
    declared = catalog[section]
    probe_ms = machine_probe_ms()
    print(
        f"perfledger {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print(f"machine_probe_ms {probe_ms:.4f}")
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            values, results = traced_run(run, probe_ms)
        else:
            values, result = timed_run(run, args.seconds)
            results = [result]
    finally:
        run.close()
    lines, result = render(
        declared, values, results, zero_fill=bool(args.trace)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def steadiness(args) -> int:
    """Run each workload once per seed and print each metric's spread."""
    catalog = load_catalog()
    workloads = args.workload or list(WORKLOADS)
    for workload in workloads:
        rows: list[dict] = []
        probes: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.Popen(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            try:
                out = proc.communicate()[0].splitlines()
            finally:
                # SIGTERM (not kill) lets the run stop its own processes.
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait()
            if proc.returncode:
                raise BenchError(f"{workload} seed {seed} failed")
            rows.append(json.loads(out[-1])["metrics"])
            probes.append(
                float(next(x for x in out if x.startswith("machine_probe_ms"))
                      .split()[1])
            )
            print(
                f"{workload} seed {seed}: probe {probes[-1]:.1f} ms, "
                + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in rows[-1].items()
                ),
                flush=True,
            )
        print(
            f"\n{workload}: {args.runs} runs of {args.seconds} s\n"
            f"{'metric':18} {'median':>11} {'q1':>11} {'q3':>11} "
            f"{'iqr/med':>8} {'max/min-1':>9} {'bound':>6} {'iqr<=b/3':>8}"
        )
        series = [
            (m["name"], [row[m["name"]]["value"] for row in rows], m["bound"])
            for m in catalog["end_to_end"]
        ]
        series.append(("machine_probe_ms", probes, None))
        for name, values, bound in series:
            s = spread(values)
            if bound is None:
                bound, verdict = "", "-"
            else:
                verdict = "yes" if s["iqr_share"] <= bound / 3 else "no"
            print(
                f"{name:18} {s['median']:11.5g} {s['q1']:11.5g} "
                f"{s['q3']:11.5g} {s['iqr_share']:8.4f} "
                f"{s['range_share']:9.4f} {bound:>6} {verdict:>8}"
            )
        print(flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="the workload to run (with --steadiness: repeat it to pick "
             "several; the default is all three)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", action="store_true",
        help="run each workload once per seed (--runs seeds from "
             "--first-seed) and print the spread of each end-to-end metric",
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        if args.steadiness:
            return steadiness(args)
        if args.workload is None or len(args.workload) != 1:
            parser.error("give one --workload")
        args.workload = args.workload[0]
        return bench(args)
    except (BenchError, OSError) as exc:
        print(f"perfledger: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
