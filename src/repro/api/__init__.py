"""Serving-grade public API: the DeAnonymizer facade and model persistence.

This is the layer a production deployment talks to::

    from repro.api import DeAnonymizer

    deanon = DeAnonymizer(ledger).fit()          # train every category head
    deanon.score(["0xabc..."])                   # address in, probabilities out
    deanon.save("model_dir")                     # npz weights + json manifest
    DeAnonymizer.load("model_dir", ledger)       # restore in a server process

The concurrent serving tier layers on top of the facade::

    deanon.warm(freeze=True)                     # pre-build shared structures
    with ParallelScorer(deanon, max_workers=4) as scorer:
        scorer.score(addresses)                  # process-pool fan-out, same results

    async with ScoringService(deanon) as service:
        await service.score("0xabc...")          # dispatched on arrival

Everything underneath (graph sampling, feature extraction, the GSG/LDG
branches, calibration, classification) stays importable for research use; the
facade only orchestrates it.
"""

from repro.api.deanonymizer import DeAnonymizer, UnknownAddressError
from repro.api.metrics import ServingMetrics
from repro.api.persistence import (
    StateFormatError,
    dumps_state,
    load_state,
    loads_state,
    save_state,
)
from repro.api.scorer import ParallelScorer, WorkerCrashedError
from repro.api.service import ScoringService

__all__ = [
    "DeAnonymizer",
    "UnknownAddressError",
    "ParallelScorer",
    "WorkerCrashedError",
    "ScoringService",
    "ServingMetrics",
    "save_state",
    "load_state",
    "dumps_state",
    "loads_state",
    "StateFormatError",
]
