"""The 15-dimensional deep account features of Table I."""

from __future__ import annotations

import threading

import numpy as np

from repro.chain.ledger import Ledger
from repro.chain.transactions import GWEI_PER_ETH
from repro.graph.txgraph import stable_order

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_GROUPS",
    "DeepFeatureExtractor",
    "category_feature_matrix",
]

#: Ordered names of the 15 deep features (Table I).
FEATURE_NAMES: tuple[str, ...] = (
    "NTS",        # number of transactions sent
    "STV",        # send total value
    "SAV",        # send average value
    "min_STI",    # minimum send time interval
    "max_STI",    # maximum send time interval
    "NTR",        # number of transactions received
    "RTV",        # receive total value
    "RAV",        # receive average value
    "min_RTI",    # minimum receive time interval
    "max_RTI",    # maximum receive time interval
    "SETF",       # send Ether transaction fee (total)
    "RETF",       # receive Ether transaction fee (total)
    "SAETF",      # send average Ether transaction fee
    "RAETF",      # receive average Ether transaction fee
    "NC",         # number of contract calls
)

#: Feature-group membership used for the Figure 5 category-feature analysis.
FEATURE_GROUPS: dict[str, tuple[str, ...]] = {
    "SAF": ("NTS", "STV", "SAV", "min_STI", "max_STI"),
    "RAF": ("NTR", "RTV", "RAV", "min_RTI", "max_RTI"),
    "TFF": ("SETF", "RETF", "SAETF", "RAETF"),
    "CF": ("NC",),
}


def _group_runs(accounts_sorted: np.ndarray, ts_sorted: np.ndarray,
                ) -> tuple[np.ndarray, ...]:
    """Per-account runs of non-empty arrays sorted by ``(account, timestamp)``.

    Returns ``(accounts, first, last, min_gap, max_gap)`` with one entry per
    run: its account, its first and last timestamp, and the min / max gap
    between its consecutive timestamps (``+inf`` / ``-inf`` for a run of one).
    """
    n = len(ts_sorted)
    boundaries = np.flatnonzero(np.diff(accounts_sorted))
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.append(boundaries, n - 1)
    gaps = ts_sorted[1:] - ts_sorted[:-1]
    # Cross-account gaps (and a trailing sentinel, so every run start is a
    # valid reduceat index) are neutralised with +/-inf for the min/max passes.
    gaps_min = np.append(gaps, np.inf)
    gaps_max = np.append(gaps, -np.inf)
    gaps_min[boundaries] = np.inf
    gaps_max[boundaries] = -np.inf
    return (accounts_sorted[starts], ts_sorted[starts], ts_sorted[ends],
            np.minimum.reduceat(gaps_min, starts),
            np.maximum.reduceat(gaps_max, starts))


def _fold_rows(features: np.ndarray, last: np.ndarray, sender_ids: np.ndarray,
               receiver_ids: np.ndarray, values: np.ndarray,
               timestamps: np.ndarray, fees: np.ndarray,
               is_call: np.ndarray) -> np.ndarray:
    """Fold submitted transaction rows into a Table I table, in place.

    ``features`` holds each account's vector over its earlier rows (zeros for
    none) and ``last`` its last send / receive timestamp (``-inf`` for none);
    the rows must come after those earlier rows in ledger order.  The ids
    index rows of ``features`` and ``last``, and every pass is as wide as
    they are: the whole table on a cold build, only the accounts the rows
    name when :func:`_fold_touched` folds an append.  Every step is per
    account, so an account's result does not depend on which other accounts
    the table holds.

    Counts and NC are exact integers and simply add.  Value and fee totals
    continue each account's left fold: ``np.add.at`` adds in row order, the
    same sequence of adds a cold ``bincount`` performs (``old + bincount(new)``
    would round differently).  Interval stats extend from ``last``: the gap
    from it to the account's first new timestamp joins the old and the new
    gaps.  They read each account's rows in time order, ties in row order:
    one stable time order serves both roles (a few ms on rows that are
    already time-ordered, as generated ledgers are), and a
    :func:`~repro.graph.txgraph.stable_order` by account id on top of it
    groups the rows in linear time, the order a lexsort of
    ``(timestamp, id)`` gives.

    That extension is exact only when the new rows do not start before
    ``last``.  Returns a mask of the accounts where, in some role, they do:
    their interval stats and ``last`` are wrong and must be recomputed from
    all of their rows (every other column is right regardless).
    """
    n_accounts = len(features)
    late = np.zeros(n_accounts, dtype=bool)
    # NC counts the distinct transactions involving the account: one per tx,
    # so a contract-call self-transfer contributes exactly once (the
    # receiver pass skips self rows).
    recv_call = np.where(sender_ids == receiver_ids, 0.0, is_call)
    features[:, 14] += (np.bincount(sender_ids, weights=is_call, minlength=n_accounts)
                        + np.bincount(receiver_ids, weights=recv_call,
                                      minlength=n_accounts))
    del recv_call
    by_time = np.argsort(timestamps, kind="stable")
    for role, ids in enumerate((sender_ids, receiver_ids)):
        offset = 5 * role
        prior = features[:, offset].copy()
        counts = prior + np.bincount(ids, minlength=n_accounts)
        totals = features[:, offset + 1].copy()
        np.add.at(totals, ids, values)
        fee_totals = features[:, 10 + role].copy()
        np.add.at(fee_totals, ids, fees)
        active = counts > 0
        features[:, offset + 0] = counts
        features[:, offset + 1] = totals
        features[:, offset + 2] = np.divide(totals, counts, out=np.zeros(n_accounts),
                                            where=active)
        features[:, 10 + role] = fee_totals
        features[:, 12 + role] = np.divide(fee_totals, counts,
                                           out=np.zeros(n_accounts), where=active)
        if not len(ids):
            continue
        order = by_time[stable_order(ids[by_time])]
        accounts, first, final, min_gap, max_gap = _group_runs(
            ids[order], timestamps[order])
        del order
        seen = prior[accounts]
        previous = last[accounts, role]
        bridge = first - previous
        min_gap = np.minimum(min_gap, np.where(seen > 0, bridge, np.inf))
        max_gap = np.maximum(max_gap, np.where(seen > 0, bridge, -np.inf))
        min_gap = np.minimum(min_gap, np.where(
            seen > 1, features[accounts, offset + 3], np.inf))
        max_gap = np.maximum(max_gap, np.where(
            seen > 1, features[accounts, offset + 4], -np.inf))
        pairs = counts[accounts] > 1
        features[accounts, offset + 3] = np.where(pairs, min_gap, 0.0)
        features[accounts, offset + 4] = np.where(pairs, max_gap, 0.0)
        late[accounts[(seen > 0) & (first < previous)]] = True
        last[accounts, role] = final
    return late


def _fold_touched(features: np.ndarray, last: np.ndarray, sender_ids: np.ndarray,
                  receiver_ids: np.ndarray, *payload: np.ndarray) -> np.ndarray:
    """:func:`_fold_rows` over only the accounts the rows name, in place.

    Those accounts' rows of ``features`` and ``last`` are gathered into
    compact arrays, the rows are folded in under local ids, and the results
    are scattered back: O(rows log rows) instead of the full-width passes
    over every account.  Returns the fold's mask of late accounts, as wide
    as ``features``.
    """
    touched, local = np.unique(np.concatenate([sender_ids, receiver_ids]),
                               return_inverse=True)
    sub_features = features[touched]
    sub_last = last[touched]
    n = len(sender_ids)
    sub_late = _fold_rows(sub_features, sub_last, local[:n], local[n:], *payload)
    features[touched] = sub_features
    last[touched] = sub_last
    late = np.zeros(len(features), dtype=bool)
    late[touched[sub_late]] = True
    return late


def _submitted_rows(cols, rows: slice, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The :func:`_fold_rows` inputs over ``cols[rows][mask]``, in ledger order."""
    return (cols.sender_id[rows][mask], cols.receiver_id[rows][mask],
            cols.value[rows][mask], cols.timestamp[rows][mask],
            (cols.gas_price[rows][mask]
             * cols.gas_used[rows][mask].astype(np.float64) / GWEI_PER_ETH),
            cols.is_contract_call[rows][mask].astype(np.float64))


class DeepFeatureExtractor:
    """Compute the 15-dimensional deep feature vectors of accounts.

    Features follow the definitions in Section III-B2: sender statistics
    (Eq. 3-4), receiver statistics, Ether transaction fees (Eq. 5) and the
    number of contract calls in transactions involving the account.  One
    table over every interned account is folded from the ledger's columns
    and read by :meth:`extract_many`.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._table_key: tuple[int, int] | None = None
        self._table_features: np.ndarray | None = None
        self._table_last: np.ndarray | None = None
        self._table_ids: dict[str, int] = {}
        self._table_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_table_lock"]            # locks are not picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._table_lock = threading.Lock()

    def warm(self) -> "DeepFeatureExtractor":
        """Eagerly build the global per-account feature table (idempotent)."""
        self._global_features()
        return self

    def extract_many(self, addresses: list[str]) -> np.ndarray:
        """Stack feature vectors for a list of addresses into an ``(n, 15)`` matrix.

        Single vectorized pass over the ledger's column arrays (O(T + n·15)):
        the store's parallel value / timestamp / fee / account-id columns are
        consumed directly — no ``Transaction`` is materialised — and every
        per-account statistic is computed with grouped reductions
        (row-order ``np.add.at`` for the sums, ``bincount`` for the counts,
        sorted ``reduceat`` for the interval stats) instead of filtering
        per-address transaction lists once per account.  Each row equals
        the per-address scalar reference over
        :meth:`Ledger.transactions_for` bit for bit
        (``tests/_feature_reference.py``); a self-transfer counts exactly
        once per role (once in the sender statistics, once in the receiver
        statistics, once in NC).  An address that never transacted gets a
        row of zeros.
        """
        if not addresses:
            return np.zeros((0, len(FEATURE_NAMES)))
        features, account_ids = self._global_features()
        rows = np.zeros((len(addresses), len(FEATURE_NAMES)))
        for i, address in enumerate(addresses):
            idx = account_ids.get(address)
            if idx is not None and idx < len(features):
                rows[i] = features[idx]
        return rows

    def _global_features(self) -> tuple[np.ndarray, dict[str, int]]:
        """The full per-account feature table, refreshed when the ledger grows.

        Returns ``(features, account_ids)`` where ``features[account_ids[a]]``
        is the Table I vector of address ``a``.  Row ids are the store's
        interned account ids, so the table is computed straight from the
        ledger's column arrays; addresses that never transacted are absent,
        and addresses with only unsubmitted transactions hold all-zero rows.
        ``account_ids`` is the store's live interning table: an id at or past
        ``len(features)`` was interned after the build and has no row yet.

        Growth is handled incrementally: because the store is append-only, a
        stale table is carried forward over the appended rows only (see
        :meth:`_build_global_features`) — bit-identical to a full rebuild —
        instead of re-reducing the whole ledger.

        Thread-safe: the build runs under a lock with a double-checked fast
        path (``_table_key`` is assigned last, so a lock-free hit only ever
        observes a fully built table); racing readers on a cold extractor all
        share the single table the winning thread computed.  The published
        table array is never mutated in place — refreshes publish a fresh
        array — so readers holding a stale reference still see a coherent
        snapshot of the version they checked against.
        """
        key = (self.ledger.num_transactions, self.ledger.num_accounts)
        if key == self._table_key and self._table_features is not None:
            return self._table_features, self._table_ids
        with self._table_lock:
            return self._build_global_features(key)

    def _build_global_features(self, key: tuple[int, int],
                               ) -> tuple[np.ndarray, dict[str, int]]:
        """Fold the rows appended since the last build into a fresh table.

        After append-only growth (neither count in the key shrank) the
        previous table and each account's last send / receive timestamp are
        carried forward and only the appended submitted rows are folded in,
        over only the accounts they name (:func:`_fold_touched`): O(appended
        rows), plus one O(accounts) copy to publish a fresh array.  A cold
        build is the same fold (:func:`_fold_rows`) from an empty table over
        every row and every account.

        ``append_blocks_columnar`` does not enforce time order, so appended
        rows may start before an account's last timestamp in a role.  Those
        accounts alone are recomputed from all of their rows (a fold from an
        empty table over the rows they take part in), at the cost of one
        pass over the ledger.
        """
        if key == self._table_key and self._table_features is not None:
            return self._table_features, self._table_ids
        cols = self.ledger.tx_columns()
        store = self.ledger.store
        n_accounts = store.num_addresses
        features = np.zeros((n_accounts, len(FEATURE_NAMES)))
        last = np.full((n_accounts, 2), -np.inf)
        fold = _fold_rows
        start = 0
        old_key = self._table_key
        if old_key is not None and old_key[0] <= key[0] and old_key[1] <= key[1]:
            # Untouched accounts are carried by this copy, which publishes a
            # fresh table; the fold then visits only the touched ones.
            fold = _fold_touched
            start = old_key[0]
            features[:len(self._table_features)] = self._table_features
            last[:len(self._table_last)] = self._table_last
        # The table covers exactly the key's rows, so the next build folds
        # on from there even if rows landed after the key was read.
        rows = slice(start, key[0])
        late = fold(features, last, *_submitted_rows(cols, rows, cols.submitted[rows]))
        if late.any():
            head = slice(0, key[0])
            mask = cols.submitted[head] & (late[cols.sender_id[head]]
                                           | late[cols.receiver_id[head]])
            complete = np.zeros_like(features)
            complete_last = np.full_like(last, -np.inf)
            _fold_rows(complete, complete_last,
                       *_submitted_rows(cols, head, mask))
            features[late] = complete[late]
            last[late] = complete_last[late]
        # The interning table itself, not a copy: it is append-only, and an
        # id past the table's rows was interned after this build.
        account_ids = store.address_ids
        self._table_features = features
        self._table_last = last
        self._table_ids = account_ids
        self._table_key = key               # last: publishes the built table
        return features, account_ids


def _normalize_columns(matrix: np.ndarray) -> np.ndarray:
    """Min-max normalise each column to ``[0, 1]`` (constant columns become 0)."""
    normalized = np.zeros_like(matrix, dtype=np.float64)
    for j in range(matrix.shape[1]):
        column = matrix[:, j]
        low, high = column.min(), column.max()
        if high > low:
            normalized[:, j] = (column - low) / (high - low)
    return normalized


def category_feature_matrix(features: np.ndarray) -> np.ndarray:
    """Collapse 15-dim features into the four category features of Figure 5.

    Each of the 15 features is min-max normalised, then features within the same
    group (SAF / RAF / TFF / CF) are averaged and the group values are normalised
    again, exactly mirroring the paper's two-stage normalisation.
    """
    if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"expected (n, {len(FEATURE_NAMES)}) feature matrix")
    normalized = _normalize_columns(features)
    name_to_idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
    groups = []
    for group_names in FEATURE_GROUPS.values():
        idx = [name_to_idx[name] for name in group_names]
        groups.append(normalized[:, idx].mean(axis=1))
    grouped = np.column_stack(groups)
    return _normalize_columns(grouped)
