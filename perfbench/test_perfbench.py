"""Tests of the benchmark's own arithmetic: tails, span self time, schedules
and the stale-share comparison.  Run with ``PYTHONPATH=src``."""

from __future__ import annotations

import asyncio
import math
import threading

import numpy as np
import pytest

from loadgen import poisson_schedule, run_open_loop, zipf_draws
from spans import Span, Tracer, covered
from stats import median, tail
from workloads import CATEGORIES, chunks, compare_rescored


# ------------------------------------------------------------------- tails
def test_tail_is_the_eleventh_largest_with_its_percentile():
    values = list(range(1, 31))                 # 30 samples
    value, percentile, beyond = tail(values[::-1])
    assert value == 20 and beyond == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert sum(v > value for v in values) == 10


def test_tail_of_exactly_eleven_samples_is_the_minimum():
    assert tail(list(range(11))) == (0, 100 * 1 / 11, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_a_failed_operation_misses_every_limit():
    values = [1.0] * 20 + [math.inf] * 11
    assert tail(values)[0] == math.inf
    assert tail([1.0] * 20 + [math.inf] * 10)[0] == 1.0
    assert median([1.0, math.inf, 2.0]) == 2.0


# ------------------------------------------------------------------- spans
def _span(tracer: Tracer, name: str, start: float, end: float, parent=None) -> Span:
    span = Span(len(tracer.spans), name, start, parent)
    span.end = end
    tracer.spans.append(span)
    return span


def test_covered_merges_overlapping_and_clips_to_the_interval():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered((0.0, 10.0), [(-5.0, 2.0), (9.0, 12.0)]) == 3.0
    assert covered((0.0, 10.0), [(1.0, 9.0), (2.0, 3.0)]) == 8.0


def test_self_time_subtracts_only_direct_children():
    tracer = Tracer()
    root = _span(tracer, "root", 0.0, 10.0)
    child = _span(tracer, "child", 1.0, 5.0, root.id)
    _span(tracer, "grandchild", 2.0, 4.0, child.id)
    _span(tracer, "sibling", 4.0, 6.0, root.id)     # overlaps child by 1
    assert tracer.self_time(root) == pytest.approx(10.0 - 5.0)
    assert tracer.self_time(child) == pytest.approx(4.0 - 2.0)


def test_busy_time_counts_nested_reentries_once():
    tracer = Tracer()
    outer = _span(tracer, "f", 0.0, 4.0)
    _span(tracer, "f", 1.0, 2.0, outer.id)
    _span(tracer, "f", 5.0, 6.0)
    assert tracer.busy("f") == pytest.approx(5.0)
    assert tracer.calls("f") == 3


def test_spans_nest_through_context_and_threads_fall_back_to_the_root():
    tracer = Tracer()

    def work():
        with tracer.span("worker"):
            pass

    with tracer.span("root", root=True) as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                pass
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    assert child.parent == root.id and grandchild.parent == child.id
    assert next(s for s in tracer.spans if s.name == "worker").parent == root.id
    assert root.end >= child.end >= grandchild.end >= grandchild.start


def test_patch_records_spans_and_restore_undoes_it():
    class Owner:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    tracer = Tracer()
    tracer.patch(Owner, "method", "owner.method", lambda a, k, r: {"result": r})
    tracer.patch(Owner, "build", "owner.build")
    assert Owner().method(1) == 2 and Owner.build(3) == (Owner, 3)
    assert [s.name for s in tracer.spans] == ["owner.method", "owner.build"]
    assert tracer.spans[0].attrs == {"result": 2}
    tracer.restore()
    Owner().method(1)
    assert len(tracer.spans) == 2


# --------------------------------------------------------------- schedules
def test_schedules_are_determined_by_the_seed():
    def draw(seed):
        rng = np.random.default_rng([seed, 2])
        return poisson_schedule(rng, 25.0, 10.0), zipf_draws(rng, 2000, 300, 1.2)

    (due_a, ranks_a), (due_b, ranks_b) = draw(7), draw(7)
    assert np.array_equal(due_a, due_b) and np.array_equal(ranks_a, ranks_b)
    due_c, ranks_c = draw(8)
    assert not np.array_equal(due_a[:len(due_c)], due_c[:len(due_a)])
    assert np.all(np.diff(due_a) > 0) and due_a[-1] < 10.0
    assert 150 < len(due_a) < 350                    # 25/s over 10 s
    assert ranks_a.min() >= 0 and ranks_a.max() < 2000
    assert np.mean(ranks_a == 0) > np.mean(ranks_a == 1) > 0   # rank 0 is hottest


def test_open_loop_times_requests_from_their_due_time():
    async def send(item):
        if item == "slow":
            await asyncio.sleep(0.05)
        return item

    requests = asyncio.run(run_open_loop([0.0, 0.01, 0.02], ["slow", "a", "b"], send))
    assert [r.item for r in requests] == ["slow", "a", "b"]
    assert all(r.ok and r.sent >= r.due for r in requests)
    assert requests[0].latency >= 0.05
    assert requests[2].sent - requests[0].sent >= 0.02    # sent on schedule, not after "slow"


def test_open_loop_records_a_failed_request():
    async def send(item):
        raise RuntimeError("refused")

    (request,) = asyncio.run(run_open_loop([0.0], ["x"], send))
    assert not request.ok and request.latency == math.inf


def test_chunks_are_near_equal_and_bounded():
    sizes = [len(c) for c in chunks(list(range(300)), 64)]
    assert sizes == [60] * 5
    assert [len(c) for c in chunks(list(range(64)), 64)] == [64]
    assert sum(chunks(list(range(129)), 64), []) == list(range(129))
    assert chunks([], 64) == []


# ------------------------------------------------------------- stale share
def test_compare_rescored_separates_stale_from_failed():
    batch = ["a", "b", "c", "d"]
    served = {a: {c: 0.5 for c in CATEGORIES} for a in batch}
    reference = {c: np.full(4, 0.5) for c in CATEGORIES}
    assert compare_rescored(batch, served, reference, touched=set()) == (0, 0)
    reference[CATEGORIES[0]][1] = 0.6          # b differs, untouched: stale
    reference[CATEGORIES[2]][3] = 0.1          # d differs, touched: failed
    assert compare_rescored(batch, served, reference, touched={"c", "d"}) == (1, 1)
