"""Parallel fan-out scoring over a fitted :class:`~repro.api.DeAnonymizer`.

:class:`ParallelScorer` splits a batch's unique addresses into chunks and
scores them on a pool of worker processes.  Each worker rehydrates its
**own** scorer from the fitted model's in-memory state blob
(:func:`~repro.api.persistence.dumps_state` /
:func:`~repro.api.persistence.loads_state`) plus the ledger, then scores its
chunks end-to-end and ships plain float dicts back.  This sidesteps the GIL
at the cost of per-worker memory and a one-time rehydration.  It is
bit-identical to :meth:`DeAnonymizer.score <repro.api.DeAnonymizer.score>`
whatever ``batch_size`` the heads were trained with, because every stage of
the predict path (sampling, featurization, branch encodings, calibration,
classification) gives each sample the bits it gets when scored alone.

A pool serves the ledger and heads it started with.  So the scorer records
the ledger object, its ``data_version`` and the facade's stacked heads when
a pool starts, and :meth:`~ParallelScorer.score` and
:meth:`~ParallelScorer.warm` close a pool whose record no longer matches: a
ledger append or sync, ``attach_ledger``, or a fit or restore of any head.
The next submit starts a fresh pool, so each append or refit costs a full
rehydration of every worker.

Unknown addresses are aggregated across the whole request into one
:class:`~repro.api.UnknownAddressError`, or silently skipped with
``skip_unknown=True``, as in the facade.

Pools start their workers from a ``forkserver`` that has imported
:mod:`repro.api`, never by forking the calling process: a replacement pool
often starts on :class:`~repro.api.ScoringService`'s executor thread while
other threads run, and a lock one of them held at the fork would stay held
in the child.  Where the platform has no ``forkserver``, its default start
method (``spawn``) is used.

A worker process that dies (killed, out of memory, a crash in native code)
breaks its pool.  ``score()`` then shuts the broken pool down, drops it and
raises :class:`WorkerCrashedError`, chained from the pool's
``BrokenProcessPool``; the next ``score()`` starts a fresh pool.  The failed
batch is not retried automatically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.api.deanonymizer import DeAnonymizer, UnknownAddressError
from repro.api.persistence import dumps_state, loads_state

__all__ = ["ParallelScorer", "WorkerCrashedError"]


class WorkerCrashedError(RuntimeError):
    """A scoring worker process died, so its batch was not scored.

    The broken pool has been shut down and dropped; the next
    :meth:`ParallelScorer.score` starts a fresh one.  ``__cause__`` holds the
    pool's original ``BrokenProcessPool``.
    """

#: Per-process rehydrated scorer (set once by the pool initializer).
_WORKER_DEANON: DeAnonymizer | None = None

#: Per-process handle on the pool's start barrier (see :meth:`ParallelScorer.warm`).
_WORKER_BARRIER = None

#: Longest wait, in seconds, for every worker of a pool to reach its start barrier.
_WARM_TIMEOUT = 300.0


def _init_process_worker(state_blob: bytes, ledger, barrier) -> None:
    """Process-pool initializer: rebuild a full scorer inside the worker and
    warm it, so the worker's first chunk pays for no graph or table build."""
    global _WORKER_DEANON, _WORKER_BARRIER
    deanon = DeAnonymizer(ledger=ledger)
    deanon.set_state(loads_state(state_blob))
    deanon.warm()
    _WORKER_DEANON = deanon
    _WORKER_BARRIER = barrier


def _warm_process_worker() -> tuple[int, int]:
    """Hold this worker at the pool's barrier until every worker is there.

    A worker runs one task at a time, so ``max_workers`` of these tasks in
    flight at once must run on ``max_workers`` distinct workers.  Each has
    finished its initializer (rehydrated and warmed) before it runs a task.
    Returns ``(pid, number of nodes in the worker's graph)``.
    """
    assert _WORKER_DEANON is not None, "worker pool initializer did not run"
    _WORKER_BARRIER.wait(_WARM_TIMEOUT)
    graph = _WORKER_DEANON.builder.graph_if_built()
    return os.getpid(), 0 if graph is None else graph.num_nodes


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


def _pool_context():
    """The multiprocessing context every scoring pool and its barrier use.

    ``forkserver`` where the platform has it, with :mod:`repro.api` preloaded
    so each worker forks from a server that has already imported numpy and
    the scorer; otherwise the platform's default, ``spawn``.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context()
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.api"])
    return context


def _chunked(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class ParallelScorer:
    """Fan per-address sampling and scoring across a pool of worker processes.

    Usage::

        deanon = DeAnonymizer(ledger).fit(["exchange"])
        with ParallelScorer(deanon, max_workers=4) as scorer:
            scorer.score(addresses)           # == deanon.score(addresses)

    Parameters
    ----------
    deanonymizer:
        The fitted facade to serve: the template whose state blob and ledger
        seed each worker's private copy.  It needs a ledger, because the
        workers sample from their own copy of it.
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunk_size:
        Addresses per work item.  Defaults to an even split into
        ``4 * max_workers`` chunks so stragglers rebalance; raise it to
        amortise task overhead on very cheap addresses.

    The pool is created lazily on the first :meth:`score` or :meth:`warm`
    call and torn down by :meth:`close` (or the context manager).  Fan-out
    observations land in the facade's
    :class:`~repro.api.metrics.ServingMetrics` under ``parallel.*`` stages.
    """

    def __init__(self, deanonymizer: DeAnonymizer, max_workers: int | None = None,
                 chunk_size: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be a positive integer or None")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer or None")
        self.deanonymizer = deanonymizer
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self._executor: ProcessPoolExecutor | None = None
        # What the running pool serves: (ledger, its data_version, a weak
        # reference to the stacked heads), as in the facade's score memo.
        self._served: tuple | None = None

    # ------------------------------------------------------------- lifecycle
    def _pool_is_current(self) -> bool:
        ledger, data_version, stacked = self._served
        deanon = self.deanonymizer
        return (ledger is deanon.ledger and data_version == ledger.data_version
                and stacked() is deanon._stacked_heads())

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is not None and not self._pool_is_current():
            self.close()
        if self._executor is None:
            deanon = self.deanonymizer
            if deanon.ledger is None:
                raise RuntimeError(
                    "ParallelScorer needs a ledger on the deanonymizer "
                    "(workers sample from their own copy)")
            state_blob = dumps_state(deanon.get_state())
            context = _pool_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context,
                initializer=_init_process_worker,
                initargs=(state_blob, deanon.ledger,
                          context.Barrier(self.max_workers)))
            self._served = (deanon.ledger, deanon.ledger.data_version,
                            weakref.ref(deanon._stacked_heads()))
        return self._executor

    def _run(self, tasks: list[tuple]) -> list:
        """Run ``(function, *args)`` tasks on a current pool; results in task order.

        A broken pool refuses every later submit, so a dead worker closes it
        (the next call starts a fresh one) and raises :class:`WorkerCrashedError`.
        """
        executor = self._ensure_executor()
        try:
            futures = [executor.submit(*task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerCrashedError(
                "a scoring worker process died, so its work was not done; the "
                "next call starts a fresh pool") from exc

    def warm(self, freeze: bool = False) -> "ParallelScorer":
        """Pre-build the facade's shared structures and start every worker.

        :meth:`DeAnonymizer.warm <repro.api.DeAnonymizer.warm>` readies the
        facade, which scores single-address requests itself.  This then
        returns only once each of the pool's ``max_workers`` processes has
        rehydrated its scorer and warmed it (graph, row index, feature
        table), moving all of that out of the first request.  A pool creates
        its processes lazily, so constructing it is not enough: one
        barrier-held task per worker makes every worker start and finish its
        initializer.  A pool that a ledger append or a refit made stale is
        replaced on the next call, so warming does not have to precede a
        :class:`~repro.api.ScoringService`; it only keeps the first pool's
        start out of the first request.
        """
        self.deanonymizer.warm(freeze=freeze)
        self._run([(_warm_process_worker,)] * self.max_workers)
        return self

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._served = None

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
        """Batched per-category probabilities, computed by pooled workers.

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
        if len(unique) <= 1:
            # No fan-out to be had; the facade path avoids pool overhead.
            return deanon.score(addresses, skip_unknown=skip_unknown)
        chunks = _chunked(unique, self._chunk_size_for(len(unique)))
        t0 = time.perf_counter()
        merged: dict[str, dict[str, float]] = {}
        unknown: list[str] = []
        for chunk_results, chunk_unknown in self._run(
                [(_score_chunk_in_worker, chunk) for chunk in chunks]):
            merged.update(chunk_results)
            unknown.extend(chunk_unknown)
        if unknown and not skip_unknown:
            raise UnknownAddressError(unknown)
        metrics = deanon.metrics
        metrics.record_seconds("parallel.score", time.perf_counter() - t0)
        metrics.record_value("parallel.batch_size", len(unique))
        metrics.record_value("parallel.chunks", len(chunks))
        metrics.increment("parallel.calls")
        return {address: merged[address]
                for address in addresses if address in merged}
