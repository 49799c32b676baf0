"""Transaction filtering and global transaction-graph construction."""

from __future__ import annotations

from typing import Iterable

from repro.chain.ledger import Ledger
from repro.chain.transactions import Transaction
from repro.graph.txgraph import TxGraph

__all__ = ["filter_transactions", "build_transaction_graph"]


def filter_transactions(transactions: Iterable[Transaction],
                        min_value: float = 0.0) -> list[Transaction]:
    """Drop unsubmitted transactions, self-transfers and dust below ``min_value``.

    Mirrors the data-filtering step of Section III-B1 ("delete all unsubmitted
    transactions").
    """
    kept = []
    for tx in transactions:
        if not tx.submitted:
            continue
        if tx.sender == tx.receiver:
            continue
        if tx.value < min_value:
            continue
        kept.append(tx)
    return kept


def build_transaction_graph(ledger: Ledger, min_value: float = 0.0,
                            columnar: bool = True) -> TxGraph:
    """Build the full account-interaction graph with merged edges.

    Every submitted transaction becomes (part of) a directed edge from sender to
    receiver; repeated transfers between the same ordered pair are merged into a
    single edge carrying the total amount and count (Section III-B3).  A node
    is an address: account kinds and labels stay in the ledger.

    With ``columnar=True`` (the default) the edge stream is ingested straight
    from the ledger's column arrays by the code :meth:`TxGraph.ingest` runs
    on an append, from row 0 into an empty graph — the filter mask, the merge
    and the timestamp means are all vectorised, and no ``Transaction``
    object is ever materialised.  ``columnar=False`` keeps the
    per-object loop; both paths produce bit-identical graphs (pinned by
    ``tests/test_data_pipeline.py``).

    The built graph remembers how many ledger rows it consumed (and the dust
    filter), so blocks appended to the ledger afterwards can be folded in
    incrementally with :meth:`TxGraph.ingest` instead of a full rebuild.
    """
    graph = TxGraph()
    graph._ingest_min_value = min_value
    if columnar:
        graph._ingest(ledger)
        return graph
    for tx in filter_transactions(ledger.transactions(), min_value=min_value):
        graph.add_edge(tx.sender, tx.receiver, amount=tx.value, count=1,
                       timestamp=tx.timestamp)
    graph._ingested_rows = ledger.num_transactions
    return graph
