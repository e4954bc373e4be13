"""Measurement helpers: nearest-rank percentiles, spans, a machine probe.

Spans are the benchmark's own, recorded around calls into the program's
public functions; the program's tracing stays off.  They are kept in
memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator


def nearest_rank(values: Iterable[float], p: float) -> float:
    """The nearest-rank ``p`` quantile (``0 < p <= 1``) of ``values``.

    The value at 1-based rank ``ceil(p * n)`` of the sorted sample: a
    value that was actually observed, never an interpolation.

    Raises:
        ValueError: for an empty sample or ``p`` outside ``(0, 1]``.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def p50_or_zero(values: list[float]) -> float:
    """Nearest-rank median, or 0.0 when the layer did no work."""
    return nearest_rank(values, 0.5) if values else 0.0


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and spreads of one metric across runs.

    ``iqr_share`` is the distance between the first and third quartile
    (as ``statistics.quantiles(values, n=4)`` gives them) as a share of
    the median; ``range_share`` is ``max / min - 1``.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    low, high = min(values), max(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "range_share": high / low - 1.0 if low else 0.0,
    }


def machine_probe_ms(repeats: int = 3) -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds.

    A diagnostic of how fast the machine ran during one benchmark run;
    it never scales any metric.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        acc = 0
        table: dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (times in integer nanoseconds, monotonic)."""

    name: str
    span_id: int
    parent_id: int | None
    request_id: int
    start_ns: int
    end_ns: int

    @property
    def duration_ms(self) -> float:
        """The span's length in milliseconds."""
        return (self.end_ns - self.start_ns) / 1e6


class Spans:
    """An in-memory span recorder with ambient nesting.

    ``with spans.span(name, request_id):`` times the block; a span
    started inside another becomes its child.
    """

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, request_id: int) -> Iterator[None]:
        """Record the enclosed block as span ``name`` of ``request_id``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append(
                SpanRecord(name, span_id, parent, request_id, start, end)
            )

    def durations_ms(self, name: str) -> list[float]:
        """Every recorded duration of spans called ``name``."""
        return [r.duration_ms for r in self.records if r.name == name]

    def per_request_ms(self, names: Iterable[str]) -> dict[int, float]:
        """Per request id, the summed duration of spans in ``names``."""
        wanted = set(names)
        totals: dict[int, float] = {}
        for record in self.records:
            if record.name in wanted:
                totals[record.request_id] = (
                    totals.get(record.request_id, 0.0) + record.duration_ms
                )
        return totals

    def self_ms(self, name: str) -> list[float]:
        """Self times of spans called ``name``: duration minus children."""
        children: dict[int, float] = {}
        for record in self.records:
            if record.parent_id is not None:
                children[record.parent_id] = (
                    children.get(record.parent_id, 0.0) + record.duration_ms
                )
        return [
            r.duration_ms - children.get(r.span_id, 0.0)
            for r in self.records
            if r.name == name
        ]

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one sorted-key JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in sorted(self.records, key=lambda r: r.span_id):
                out.write(json.dumps(asdict(record), sort_keys=True) + "\n")
