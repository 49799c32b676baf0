"""Asyncio front-end: request coalescing over the batched scoring path.

:class:`ScoringService` turns the batch-oriented scorer into a low-latency
concurrent endpoint.  Callers ``await service.score(address)`` one address at
a time; a single batcher task dispatches on arrival.  An idle scorer gets a
lone request at once, and the requests that arrive while a batch runs on the
worker thread form the next batch (up to ``max_batch`` addresses, one batch
in flight), dispatched as **one** batched ``score()`` call.  The batch path
samples each distinct address once and runs every category head over the
assembled sample list, so N coalesced callers cost far less than N
independent single-address calls — the same economics that make
:meth:`DeAnonymizer.score <repro.api.DeAnonymizer.score>` fast, surfaced to
async callers transparently.

There is no batch window: whether to wait for company follows from whether
the scorer is busy, which the batcher observes.  A window makes every request
wait its full length, and under a light load it merges almost nothing (see
DESIGN.md for the measurement).  This is the queue-driven batching of Clipper
(Crankshaw et al., NSDI 2017): whatever queued while the model was busy is
batched when it becomes free.  A burst still coalesces: ``score_many``
queues every request before the batcher wakes.

Failure isolation is per-request: the batch is dispatched with
``skip_unknown=True``, and each caller whose address could not be sampled
gets its own :class:`~repro.api.UnknownAddressError` — one bad address never
fails the batch for everyone else.  Batch-wide failures (a crashed head, a
detached ledger) propagate to every caller in that batch.  The intake queue
is bounded (``max_queue``), so a stalled backend applies backpressure to
producers instead of buffering unboundedly: at a full queue ``score()``
waits for a slot, and nothing is rejected or dropped.  A per-call
``timeout`` bounds that wait and the wait for the result together, as a
caller-visible :class:`asyncio.TimeoutError`.

The service accepts anything with the facade's scoring surface — a
:class:`~repro.api.DeAnonymizer` directly, or a
:class:`~repro.api.scorer.ParallelScorer` to layer fan-out *under* the
coalescer (coalescing amortises fixed per-call cost; fan-out then splits the
coalesced batch across workers).
"""

from __future__ import annotations

import asyncio
import time

from typing import Sequence

from repro.api.deanonymizer import DeAnonymizer, UnknownAddressError
from repro.api.metrics import ServingMetrics
from repro.api.scorer import ParallelScorer

__all__ = ["ScoringService"]


class _Request:
    """One queued address with its caller's future and enqueue timestamp."""

    __slots__ = ("address", "future", "enqueued_at")

    def __init__(self, address: str, future: asyncio.Future):
        self.address = address
        self.future = future
        self.enqueued_at = time.perf_counter()


class ScoringService:
    """Asyncio micro-batching front-end over a scorer, dispatching on arrival.

    Usage::

        service = ScoringService(deanon, max_batch=64)
        async with service:
            probs = await service.score("0xabc...")       # {category: p}
            many = await service.score_many(addresses)    # [{category: p}, ...]

    Parameters
    ----------
    scorer:
        A fitted :class:`~repro.api.DeAnonymizer` or
        :class:`~repro.api.scorer.ParallelScorer`.
    max_batch:
        Hard cap on addresses per dispatched batch; requests queued beyond it
        wait for the next batch, in arrival order.
    max_queue:
        Intake queue bound; when full, ``score()`` awaits (backpressure).
    """

    def __init__(self, scorer: DeAnonymizer | ParallelScorer,
                 max_batch: int = 64, max_queue: int = 1024):
        if max_batch < 1:
            raise ValueError("max_batch must be a positive integer")
        if max_queue < 1:
            raise ValueError("max_queue must be a positive integer")
        self.scorer = scorer
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: asyncio.Queue[_Request] | None = None
        self._batcher: asyncio.Task | None = None
        self._closed = False

    @property
    def metrics(self) -> ServingMetrics:
        """The underlying facade's metrics registry (``service.*`` stages)."""
        deanon = getattr(self.scorer, "deanonymizer", self.scorer)
        return deanon.metrics

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "ScoringService":
        """Start the batcher task (idempotent; bound to the running loop)."""
        if self._batcher is None:
            self._closed = False
            self._queue = asyncio.Queue(maxsize=self.max_queue)
            self._batcher = asyncio.get_running_loop().create_task(
                self._batch_loop(), name="repro-scoring-batcher")
        return self

    async def stop(self) -> None:
        """Drain nothing further: reject new requests, cancel the batcher.

        Requests already dispatched to the backend complete; requests still
        queued get :class:`asyncio.CancelledError` on their futures.
        """
        self._closed = True
        batcher, self._batcher = self._batcher, None
        queue, self._queue = self._queue, None
        if batcher is not None:
            batcher.cancel()
            try:
                await batcher
            except asyncio.CancelledError:
                pass
        if queue is not None:
            while not queue.empty():
                request = queue.get_nowait()
                if not request.future.done():
                    request.future.cancel()

    async def __aenter__(self) -> "ScoringService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # --------------------------------------------------------------- scoring
    async def score(self, address: str,
                    timeout: float | None = None) -> dict[str, float]:
        """Score one address; coalesced with concurrent callers.

        Returns that address's ``{category: probability}`` dict.  Raises
        :class:`~repro.api.UnknownAddressError` if the address cannot be
        sampled (other callers in the same batch are unaffected), and
        :class:`asyncio.TimeoutError` if ``timeout`` seconds elapse before a
        result — the request is abandoned (its batch slot still runs, but the
        result is discarded).
        """
        if self._closed or self._queue is None:
            raise RuntimeError(
                "ScoringService is not running; use 'async with service:' or "
                "await service.start()")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        request = _Request(address, future)
        queue = self._queue
        if timeout is None:
            await queue.put(request)
            return await future

        async def enqueue_and_wait() -> dict[str, float]:
            await queue.put(request)
            return await future

        # One deadline covers the wait for a queue slot and for the result.
        # On timeout wait_for cancels the put (nothing was queued) or the
        # future (the batcher skips requests whose futures are done).
        return await asyncio.wait_for(enqueue_and_wait(), timeout)

    async def score_many(self, addresses: Sequence[str],
                         timeout: float | None = None) -> list[dict[str, float]]:
        """Score several addresses concurrently (one result per input, in order).

        Unknown addresses surface as :class:`~repro.api.UnknownAddressError`
        *instances* in the returned list rather than raising, so one bad
        address never hides the others' results.
        """
        return await asyncio.gather(
            *(self.score(address, timeout=timeout) for address in addresses),
            return_exceptions=True)

    # --------------------------------------------------------------- batcher
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        queue = self._queue
        loop = asyncio.get_running_loop()
        while True:
            # One batch in flight: _dispatch returns once its batch is scored,
            # so what queued meanwhile goes out together, and a request that
            # finds the scorer idle goes out alone at once.
            batch = [await queue.get()]
            while len(batch) < self.max_batch and not queue.empty():
                batch.append(queue.get_nowait())
            await self._dispatch(loop, batch)

    async def _dispatch(self, loop: asyncio.AbstractEventLoop,
                        batch: list[_Request]) -> None:
        now = time.perf_counter()
        metrics = self.metrics
        live = [request for request in batch if not request.future.done()]
        for request in live:
            metrics.record_seconds("service.queue_wait", now - request.enqueued_at)
        metrics.record_value("service.batch_size", len(live))
        metrics.increment("service.batches")
        metrics.increment("service.requests", len(live))
        if not live:
            return
        addresses = list(dict.fromkeys(request.address for request in live))
        try:
            results = await loop.run_in_executor(
                None, lambda: self.scorer.score(addresses, skip_unknown=True))
        except asyncio.CancelledError:           # service stopping mid-batch
            for request in live:
                if not request.future.done():
                    request.future.cancel()
            raise                                # let the batcher task die
        except BaseException as exc:             # batch-wide failure: everyone
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        for request in live:
            if request.future.done():            # timed out / cancelled caller
                continue
            result = results.get(request.address)
            if result is None:
                request.future.set_exception(UnknownAddressError(request.address))
            else:
                # Callers coalesced on one address each get their own dict,
                # which they may change, as score() promises.
                request.future.set_result(dict(result))
