"""Open-loop request generator: a seeded schedule replayed on one event loop.

The whole schedule (due times and the address of every request) is drawn
from the seed before the first request is sent, so two runs with one seed
send the same requests at the same offsets.  Requests are sent when due
whether or not earlier ones have finished, and each is timed from its due
time, so a stall also charges the requests that queued behind it.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

import numpy as np


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Due offsets (seconds from start) of Poisson arrivals at ``rate`` per second."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


def zipf_draws(rng: np.random.Generator, population: int, size: int,
               exponent: float) -> np.ndarray:
    """``size`` ranks in ``[0, population)`` with P(rank k) proportional to (k+1)^-exponent."""
    weights = np.arange(1, population + 1, dtype=np.float64) ** -exponent
    return rng.choice(population, size=size, p=weights / weights.sum())


async def pause(seconds: float) -> None:
    """The generator's wait for the next due time (traced as idle time)."""
    await asyncio.sleep(seconds)


@dataclass
class Request:
    item: Any
    due: float
    sent: float
    done: float
    result: Any
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; a failed request never replies."""
        return self.done - self.due if self.ok else math.inf


async def run_open_loop(due: Sequence[float], items: Sequence,
                        send: Callable[[Any], Awaitable]) -> list[Request]:
    """Send ``items[i]`` at ``start + due[i]``; return one :class:`Request` each."""
    start = time.perf_counter()

    async def one(item, due_at: float, sent: float) -> Request:
        try:
            result, ok = await send(item), True
        except Exception as exc:            # a failed request is recorded, not raised
            result, ok = exc, False
        return Request(item, due_at, sent, time.perf_counter(), result, ok)

    tasks = []
    for offset, item in zip(due, items):
        due_at = start + float(offset)
        delay = due_at - time.perf_counter()
        if delay > 0:
            await pause(delay)
        tasks.append(asyncio.ensure_future(one(item, due_at, time.perf_counter())))
    return list(await asyncio.gather(*tasks))
