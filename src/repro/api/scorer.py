"""Parallel fan-out scoring over a fitted :class:`~repro.api.DeAnonymizer`.

:class:`ParallelScorer` accelerates the expensive half of the serving path —
per-address 2-hop ego sampling plus feature extraction — by fanning address
chunks across a ``concurrent.futures`` pool, then scoring the assembled batch
through every fitted head.  Two execution modes:

* ``mode="thread"`` (default): worker threads call
  :meth:`DeAnonymizer.sample_for <repro.api.DeAnonymizer.sample_for>` on the
  *shared* facade.  The thread-safety groundwork in the graph / feature /
  cache layers (double-checked locking everywhere a lazy structure is built,
  plus the :meth:`~repro.api.DeAnonymizer.warm` pre-build) makes this safe;
  head inference then runs once in the calling thread over the full batch,
  through the same stacked heads as :meth:`DeAnonymizer.score
  <repro.api.DeAnonymizer.score>`, so results are bit-identical to it.
  Threads buy real wall-time on the allocation-heavy sampling path and keep
  one shared sample cache, but remain GIL-bound for pure-Python segments.
* ``mode="process"``: each worker process rehydrates its **own** scorer from
  the fitted model's in-memory state blob
  (:func:`~repro.api.persistence.dumps_state` /
  :func:`~repro.api.persistence.loads_state`) plus a pickled ledger, then
  scores its chunk end-to-end and ships plain float dicts back.  This
  sidesteps the GIL entirely at the cost of per-worker memory and a one-time
  rehydration.  For heads trained with the default ``batch_size=1`` it is
  bit-identical to sequential scoring, because every stage of their predict
  path (sampling, featurization, branch encodings, calibration,
  classification) is computed independently per sample.  Heads trained with
  ``batch_size > 1`` predict on block-diagonal chunks of samples, so their
  scores may differ from sequential ones in the last bits.

Both modes preserve the facade's batch semantics: unknown addresses are
aggregated across the whole request into one
:class:`~repro.api.UnknownAddressError`, or silently skipped with
``skip_unknown=True``.

A worker process that dies (killed, out of memory, a crash in native code)
breaks its pool.  ``score()`` then shuts the broken pool down, drops it and
raises :class:`WorkerCrashedError`, chained from the pool's
``BrokenProcessPool``; the next ``score()`` starts a fresh pool.  The failed
batch is not retried automatically.
"""

from __future__ import annotations

import os
import time

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.api.deanonymizer import DeAnonymizer, UnknownAddressError
from repro.api.persistence import dumps_state, loads_state

__all__ = ["ParallelScorer", "WorkerCrashedError"]


class WorkerCrashedError(RuntimeError):
    """A process-mode scoring worker died, so its batch was not scored.

    The broken pool has been shut down and dropped; the next
    :meth:`ParallelScorer.score` starts a fresh one.  ``__cause__`` holds the
    pool's original ``BrokenProcessPool``.
    """

#: Per-process rehydrated scorer (set once by the pool initializer).
_WORKER_DEANON: DeAnonymizer | None = None


def _init_process_worker(state_blob: bytes, ledger) -> None:
    """Process-pool initializer: rebuild a full scorer inside the worker."""
    global _WORKER_DEANON
    deanon = DeAnonymizer(ledger=ledger)
    deanon.set_state(loads_state(state_blob))
    _WORKER_DEANON = deanon


def _score_chunk_in_worker(addresses: list[str]) -> tuple[dict, list[str]]:
    """Score one chunk end-to-end in a worker process.

    Returns ``(results, unknown)`` — plain ``{address: {category: float}}``
    dicts plus the addresses the worker could not sample — so the parent can
    merge chunks and apply its own unknown-address policy.
    """
    assert _WORKER_DEANON is not None, "worker pool initializer did not run"
    results = _WORKER_DEANON.score(addresses, skip_unknown=True)
    unknown = [address for address in addresses if address not in results]
    return results, unknown


def _chunked(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class ParallelScorer:
    """Fan per-address sampling/scoring across a worker pool.

    Usage::

        deanon = DeAnonymizer(ledger).fit(["exchange"]).warm(freeze=True)
        with ParallelScorer(deanon, max_workers=4) as scorer:
            scorer.score(addresses)           # == deanon.score(addresses)

    Parameters
    ----------
    deanonymizer:
        The fitted facade to serve.  In thread mode workers share it directly;
        in process mode it is the template whose state blob and ledger seed
        each worker's private copy.
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    mode:
        ``"thread"`` (shared facade, GIL-bound but zero-copy) or
        ``"process"`` (private per-worker scorers, GIL-free).
    chunk_size:
        Addresses per work item.  Defaults to an even split into
        ``4 * max_workers`` chunks so stragglers rebalance; raise it to
        amortise task overhead on very cheap addresses.

    The pool is created lazily on the first :meth:`score` call and torn down
    by :meth:`close` (or the context manager).  Fan-out observations land in
    the facade's :class:`~repro.api.metrics.ServingMetrics` under
    ``parallel.*`` stages.
    """

    def __init__(self, deanonymizer: DeAnonymizer, max_workers: int | None = None,
                 mode: str = "thread", chunk_size: int | None = None):
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be a positive integer or None")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer or None")
        self.deanonymizer = deanonymizer
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.mode = mode
        self.chunk_size = chunk_size
        self._executor: Executor | None = None

    # ------------------------------------------------------------- lifecycle
    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.mode == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-scorer")
            else:
                deanon = self.deanonymizer
                if deanon.ledger is None:
                    raise RuntimeError(
                        "process-mode ParallelScorer needs a ledger on the "
                        "deanonymizer (workers sample from their own copy)")
                state_blob = dumps_state(deanon.get_state())
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_init_process_worker,
                    initargs=(state_blob, deanon.ledger))
        return self._executor

    def warm(self, freeze: bool = False) -> "ParallelScorer":
        """Pre-build shared structures (and optionally the worker pool).

        Thread mode: delegates to :meth:`DeAnonymizer.warm
        <repro.api.DeAnonymizer.warm>` so pooled threads never hit a
        first-build lock.  Process mode: additionally spins up the pool now,
        moving the per-worker rehydration cost out of the first request.
        """
        self.deanonymizer.warm(freeze=freeze)
        if self.mode == "process":
            self._ensure_executor()
        return self

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ParallelScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- scoring
    def _chunk_size_for(self, n: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-n // (4 * self.max_workers)))

    def score(self, addresses: str | Sequence[str],
              skip_unknown: bool = False) -> dict[str, dict[str, float]]:
        """Batched per-category probabilities, computed with pooled workers.

        Semantics match :meth:`DeAnonymizer.score
        <repro.api.DeAnonymizer.score>` exactly — same result dict, same
        aggregated :class:`~repro.api.UnknownAddressError` / ``skip_unknown``
        contract — only the execution is parallel.
        """
        deanon = self.deanonymizer
        deanon._check_fitted()
        if isinstance(addresses, str):
            addresses = [addresses]
        addresses = list(addresses)
        unique = list(dict.fromkeys(addresses))
        metrics = deanon.metrics
        if len(unique) <= 1:
            # No fan-out to be had; the facade path avoids pool overhead.
            return deanon.score(addresses, skip_unknown=skip_unknown)
        chunks = _chunked(unique, self._chunk_size_for(len(unique)))
        executor = self._ensure_executor()
        t0 = time.perf_counter()
        if self.mode == "thread":
            results = self._score_threaded(executor, chunks, addresses,
                                           skip_unknown, t0)
        else:
            results = self._score_multiprocess(executor, chunks, addresses,
                                               skip_unknown, t0)
        metrics.record_value("parallel.batch_size", len(unique))
        metrics.record_value("parallel.chunks", len(chunks))
        metrics.increment("parallel.calls")
        return results

    def _score_threaded(self, executor: Executor, chunks: list[list[str]],
                        addresses: list[str], skip_unknown: bool,
                        t0: float) -> dict[str, dict[str, float]]:
        """Sample chunks on pooled threads, score the whole batch inline."""
        deanon = self.deanonymizer
        futures = [executor.submit(self._sample_chunk, chunk) for chunk in chunks]
        samples: dict = {}
        unknown: list[str] = []
        for future in futures:                   # chunk order == request order
            chunk_samples, chunk_unknown = future.result()
            samples.update(chunk_samples)
            unknown.extend(chunk_unknown)
        if unknown and not skip_unknown:
            raise UnknownAddressError(unknown)
        t1 = time.perf_counter()
        known = [address for chunk in chunks for address in chunk
                 if address in samples]
        sample_list = [samples[address] for address in known]
        per_head = deanon.score_samples(sample_list) if known else {}
        metrics = deanon.metrics
        metrics.record_seconds("parallel.sample", t1 - t0)
        metrics.record_seconds("parallel.heads", time.perf_counter() - t1)
        index = {address: i for i, address in enumerate(known)}
        return {address: {name: float(per_head[name][index[address]])
                          for name in deanon._heads}
                for address in addresses if address in samples}

    def _sample_chunk(self, chunk: list[str]) -> tuple[dict, list[str]]:
        samples: dict = {}
        unknown: list[str] = []
        for address in chunk:
            try:
                samples[address] = self.deanonymizer.sample_for(address)
            except UnknownAddressError:
                unknown.append(address)
        return samples, unknown

    def _score_multiprocess(self, executor: Executor, chunks: list[list[str]],
                            addresses: list[str], skip_unknown: bool,
                            t0: float) -> dict[str, dict[str, float]]:
        """Each worker process scores its chunk end-to-end; merge the dicts."""
        deanon = self.deanonymizer
        merged: dict[str, dict[str, float]] = {}
        unknown: list[str] = []
        try:
            futures = [executor.submit(_score_chunk_in_worker, chunk)
                       for chunk in chunks]
            for future in futures:
                chunk_results, chunk_unknown = future.result()
                merged.update(chunk_results)
                unknown.extend(chunk_unknown)
        except BrokenProcessPool as exc:
            # A broken pool refuses every later submit: drop it so the next
            # call starts a fresh one.
            self.close()
            raise WorkerCrashedError(
                "a scoring worker process died; the batch was not scored and "
                "the next score() starts a fresh pool") from exc
        if unknown and not skip_unknown:
            raise UnknownAddressError(unknown)
        deanon.metrics.record_seconds("parallel.score", time.perf_counter() - t0)
        return {address: merged[address]
                for address in addresses if address in merged}
