"""Lightweight thread-safe serving metrics.

:class:`ServingMetrics` is the shared observability hook of the serving tier:
:meth:`DeAnonymizer.score <repro.api.DeAnonymizer.score>` records per-stage
wall times (sampling, head scoring), batch sizes and stacked encoder passes, the
:class:`~repro.api.scorer.ParallelScorer` records its fan-out stages, and the
:class:`~repro.api.service.ScoringService` records queue waits and coalesced
batch shapes.  Everything funnels into per-name :class:`Accumulator` objects
(count / total / min / max — O(1) memory, a handful of float ops per record),
cheap enough to leave enabled in production; a monitoring endpoint reads one
:meth:`ServingMetrics.snapshot` dict.

Percentile-grade latency analysis belongs to the end-to-end benchmark
(``perfbench/run.py``), which keeps raw per-request latencies; the
in-process hook intentionally stores only O(1) aggregates.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["Accumulator", "ServingMetrics"]


class Accumulator:
    """Running (count, total, min, max) over recorded values, thread-safe."""

    __slots__ = ("count", "total", "min", "max", "_lock")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            if not self.count:
                return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
            return {"count": self.count, "total": self.total,
                    "mean": self.total / self.count, "min": self.min, "max": self.max}

    def __repr__(self) -> str:
        return (f"Accumulator(count={self.count}, total={self.total:.6f}, "
                f"mean={self.mean:.6f})")


class ServingMetrics:
    """Named accumulators for stage timings, batch sizes and queue waits.

    Stages are created on first use, so layers can record new stages without
    registration (``metrics.record_seconds("sample", dt)``); counters are
    plain monotonically increasing integers (``metrics.increment("requests")``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stages: dict[str, Accumulator] = {}
        self._counters: dict[str, int] = {}

    def _stage(self, name: str) -> Accumulator:
        acc = self._stages.get(name)
        if acc is None:
            with self._lock:
                acc = self._stages.get(name)
                if acc is None:
                    acc = Accumulator()
                    self._stages[name] = acc
        return acc

    def record_seconds(self, stage: str, seconds: float) -> None:
        """Record one wall-time observation for ``stage``."""
        self._stage(stage).record(seconds)

    def record_value(self, stage: str, value: float) -> None:
        """Record one dimensionless observation (batch size, queue depth, ...)."""
        self._stage(stage).record(value)

    def increment(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + by

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    @contextmanager
    def timed(self, stage: str):
        """Context manager recording the block's wall time under ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_seconds(stage, time.perf_counter() - start)

    def snapshot(self) -> dict:
        """One nested dict of every stage accumulator and counter (cheap)."""
        with self._lock:
            stages = dict(self._stages)
            counters = dict(self._counters)
        return {
            "stages": {name: acc.snapshot() for name, acc in sorted(stages.items())},
            "counters": dict(sorted(counters.items())),
        }
