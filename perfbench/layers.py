"""Per-layer attribution: which public call each layer span wraps, and the
metrics derived from the recorded spans.

Every span wraps a public function or method of the pipeline, patched where
its caller looks it up: a class attribute, or the module-level name the
calling module imported (``repro.data.dataset.ego_subgraph``).
"""

from __future__ import annotations

import repro.data.dataset as dataset_module
from repro.api import DeAnonymizer
from repro.chain import Ledger
from repro.core import (
    DBG4ETH,
    AccountClassificationModule,
    GSGBranch,
    JointCalibrationModule,
    LDGBranch,
)
from repro.data import DeepFeatureExtractor, SubgraphDatasetBuilder
from repro.graph import TxGraph

import loadgen
import workloads
from spans import Tracer
from stats import median, tail


def _batch(args, kwargs, result) -> dict:
    return {"n": len(args[1])}


def _score(args, kwargs, result) -> dict:
    addresses = args[1]
    addresses = [addresses] if isinstance(addresses, str) else list(addresses)
    return {"n": len(addresses), "addresses": addresses}


def _touched(args, kwargs, result) -> dict:
    return {"touched": len(result)}


def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary named in the per-layer metric table.

    The open-loop generator's waits become ``bench.idle`` spans, so idle time
    is not counted as unattributed work.
    """
    for owner, attr, name, describe in [
        (loadgen, "pause", "bench.idle", None),
        (workloads, "generate_ledger", "chain.generate", None),
        (Ledger, "open", "chain.open", None),
        (Ledger, "append_blocks_columnar", "chain.append", None),
        (Ledger, "sync", "chain.sync", None),
        (dataset_module, "build_transaction_graph", "graph.build", None),
        (TxGraph, "ingest", "graph.ingest", None),
        (TxGraph, "warm", "graph.warm", None),
        (dataset_module, "ego_subgraph", "graph.ego", None),
        (SubgraphDatasetBuilder, "build", "data.build", None),
        (SubgraphDatasetBuilder, "build_sample", "data.sample", None),
        (DeepFeatureExtractor, "extract_many", "data.extract", None),
        (DeepFeatureExtractor, "warm", "data.table", None),
        (DBG4ETH, "fit", "core.head.fit", None),
        (DBG4ETH, "predict_proba", "core.head.predict", None),
        (GSGBranch, "fit", "core.gsg.fit", None),
        (LDGBranch, "fit", "core.ldg.fit", None),
        (GSGBranch, "predict_scores", "core.gsg.predict", _batch),
        (LDGBranch, "predict_scores", "core.ldg.predict", _batch),
        (JointCalibrationModule, "fit", "core.calibration.fit", None),
        (JointCalibrationModule, "transform", "core.calibration.transform", None),
        (AccountClassificationModule, "fit", "core.classifier.fit", None),
        (AccountClassificationModule, "predict_proba", "core.classifier.predict", None),
        (DeAnonymizer, "score", "api.score", _score),
        (DeAnonymizer, "sample_for", "api.sample_for", None),
        (DeAnonymizer, "refresh", "api.refresh", _touched),
        (DeAnonymizer, "load", "api.load", None),
        (DeAnonymizer, "fit", "api.fit", None),
    ]:
        tracer.patch(owner, attr, name, describe)


# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("chain.generate_s", "s"), ("chain.append_s", "s"), ("chain.sync_s", "s"),
    ("chain.open_s", "s"),
    ("graph.build_s", "s"), ("graph.ingest_s", "s"), ("graph.warm_s", "s"),
    ("graph.ego_s", "s"), ("graph.ego.calls", "count"),
    ("data.build_s", "s"), ("data.sample_s", "s"), ("data.sample.calls", "count"),
    ("data.extract_s", "s"), ("data.extract.calls", "count"), ("data.table_s", "s"),
    ("core.gsg.fit_s", "s"), ("core.gsg.fit.calls", "count"),
    ("core.ldg.fit_s", "s"), ("core.ldg.fit.calls", "count"),
    ("core.crossfit_share", "ratio"),
    ("core.gsg.predict_s", "s"), ("core.gsg.predict.samples_per_call", "count"),
    ("core.ldg.predict_s", "s"), ("core.ldg.predict.samples_per_call", "count"),
    ("core.head.calls_per_score", "count"),
    ("core.calibration.fit_s", "s"), ("core.calibration.transform_s", "s"),
    ("core.classifier.fit_s", "s"), ("core.classifier.predict_s", "s"),
    ("api.score_s", "s"), ("api.score.calls", "count"), ("api.score.batch_size", "count"),
    ("api.sample_for_s", "s"), ("api.cache.hit_ratio", "ratio"),
    ("api.cache.evictions", "count"), ("api.cache.invalidations", "count"),
    ("api.load_s", "s"), ("api.fit_s", "s"),
    ("api.queue_wait_ms.p50", "ms"), ("api.queue_wait_ms.tail", "ms"),
    ("api.refresh_s", "s"), ("api.refresh.touched", "count"),
    ("bench.unattributed_share", "ratio"), ("bench.trace_overhead", "ratio"),
    ("bench.gen_late_ms", "ms"),
]


def _median_attr(tracer: Tracer, name: str, key: str) -> float:
    values = [s.attrs[key] for s in tracer.spans if s.name == name and key in s.attrs]
    return median(values) if values else 0.0


def _crossfit_share(tracer: Tracer) -> float:
    """Busy time of cross-fit fold fits over all branch fits.

    Within one head fit every branch fit but the last is a fold fit; the last
    trains the deployed branch on the full set.
    """
    kids = tracer.children()
    fold = total = 0.0
    for head in tracer.spans:
        if head.name != "core.head.fit":
            continue
        for branch in ("core.gsg.fit", "core.ldg.fit"):
            fits = sorted((s for s in kids.get(head.id, ()) if s.name == branch),
                          key=lambda s: s.start)
            total += sum(s.duration for s in fits)
            fold += sum(s.duration for s in fits[:-1])
    return fold / total if total else 0.0


def _calls_per_score(tracer: Tracer) -> float:
    scores = tracer.outermost("api.score")
    if not scores:
        return 0.0
    inside = {s.id for s in scores}
    heads = sum(1 for s in tracer.spans if s.name == "core.head.predict"
                and any(a.id in inside for a in tracer.ancestors(s)))
    return heads / len(scores)


def queue_waits_ms(tracer: Tracer, requests) -> list[float]:
    """Per request: latency minus the ``score`` span that served it, in ms.

    The service dispatches one batch at a time, so a request is served by the
    first score span that starts after it was sent and lists its address.
    """
    scores = sorted((s for s in tracer.spans if s.name == "api.score"),
                    key=lambda s: s.start)
    waits = []
    for request in requests:
        if not request.ok:
            continue
        for span in scores:
            if span.start >= request.sent and request.item in span.attrs["addresses"]:
                waits.append((request.latency - span.duration) * 1e3)
                break
    return waits


def per_layer_metrics(tracer: Tracer, root, extras: dict) -> dict[str, float]:
    """Every per-layer metric from the spans; ``extras`` supplies the rest.

    ``extras`` carries what spans cannot show: cache counters from
    ``stats()`` and the trace overhead, plus the open loop's generator
    lateness and queue waits where there is one.
    """
    busy, calls = tracer.busy, tracer.calls
    values = {
        "chain.generate_s": busy("chain.generate"),
        "chain.append_s": busy("chain.append"),
        "chain.sync_s": busy("chain.sync"),
        "chain.open_s": busy("chain.open"),
        "graph.build_s": busy("graph.build"),
        "graph.ingest_s": busy("graph.ingest"),
        "graph.warm_s": busy("graph.warm"),
        "graph.ego_s": busy("graph.ego"),
        "graph.ego.calls": calls("graph.ego"),
        "data.build_s": busy("data.build"),
        "data.sample_s": busy("data.sample"),
        "data.sample.calls": calls("data.sample"),
        "data.extract_s": busy("data.extract"),
        "data.extract.calls": calls("data.extract"),
        "data.table_s": busy("data.table"),
        "core.gsg.fit_s": busy("core.gsg.fit"),
        "core.gsg.fit.calls": calls("core.gsg.fit"),
        "core.ldg.fit_s": busy("core.ldg.fit"),
        "core.ldg.fit.calls": calls("core.ldg.fit"),
        "core.crossfit_share": _crossfit_share(tracer),
        "core.gsg.predict_s": busy("core.gsg.predict"),
        "core.gsg.predict.samples_per_call": _median_attr(tracer, "core.gsg.predict", "n"),
        "core.ldg.predict_s": busy("core.ldg.predict"),
        "core.ldg.predict.samples_per_call": _median_attr(tracer, "core.ldg.predict", "n"),
        "core.head.calls_per_score": _calls_per_score(tracer),
        "core.calibration.fit_s": busy("core.calibration.fit"),
        "core.calibration.transform_s": busy("core.calibration.transform"),
        "core.classifier.fit_s": busy("core.classifier.fit"),
        "core.classifier.predict_s": busy("core.classifier.predict"),
        "api.score_s": busy("api.score"),
        "api.score.calls": calls("api.score"),
        "api.score.batch_size": _median_attr(tracer, "api.score", "n"),
        "api.sample_for_s": busy("api.sample_for"),
        "api.load_s": busy("api.load"),
        "api.fit_s": busy("api.fit"),
        "api.refresh_s": busy("api.refresh"),
        "api.refresh.touched": sum(s.attrs.get("touched", 0) for s in tracer.spans
                                   if s.name == "api.refresh"),
        "bench.unattributed_share": (tracer.self_time(root) / root.duration
                                     if root.duration else 0.0),
        "bench.gen_late_ms": 0.0,
        "api.queue_wait_ms.p50": 0.0, "api.queue_wait_ms.tail": 0.0,
    }
    waits = extras.pop("queue_waits_ms", None)
    if waits:
        values["api.queue_wait_ms.p50"] = median(waits)
        values["api.queue_wait_ms.tail"] = tail(waits)[0]
    values.update(extras)
    return values
