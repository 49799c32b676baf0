"""Global transaction-graph construction from the ledger's columns."""

from __future__ import annotations

from repro.chain.ledger import Ledger
from repro.graph.txgraph import TxGraph

__all__ = ["build_transaction_graph"]


def build_transaction_graph(ledger: Ledger, min_value: float = 0.0) -> TxGraph:
    """Build the full account-interaction graph with merged edges.

    Unsubmitted transactions, self-transfers and transfers below
    ``min_value`` are dropped (the data filtering of Section III-B1).  Every
    other transaction becomes (part of) a directed edge from sender to
    receiver; repeated transfers between the same ordered pair are merged
    into a single edge carrying the total amount and count (Section III-B3).
    A node is an address: account kinds and labels stay in the ledger.

    The edge stream is ingested straight from the ledger's column arrays by
    the code :meth:`TxGraph.ingest` runs on an append, from row 0 into an
    empty graph: the filter mask, the merge and the timestamp means are all
    vectorised, and no ``Transaction`` object is materialised.  The result
    equals merging the filtered transactions one at a time, bit for bit
    (pinned against ``tests/_dict_reference.py`` by
    ``tests/test_data_pipeline.py``).

    The built graph remembers how many ledger rows it consumed (and the dust
    filter), so blocks appended to the ledger afterwards can be folded in
    incrementally with :meth:`TxGraph.ingest` instead of a full rebuild.
    """
    graph = TxGraph()
    graph._ingest_min_value = min_value
    graph._ingest(ledger)
    return graph
