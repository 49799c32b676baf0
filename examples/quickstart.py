"""Quickstart: address in, prediction out with the `DeAnonymizer` facade.

The serving-grade flow of the reproduction in five steps:

1. generate a small synthetic Ethereum ledger;
2. construct a :class:`repro.DeAnonymizer` from it — the facade owns the whole
   pipeline (global graph build, 2-hop top-K ego sampling, single-pass deep
   feature extraction, GSG + LDG encoding, joint calibration, classification);
3. ``fit()`` a one-vs-rest head for the ``exchange`` category, evaluated on a
   held-out split;
4. ``save()`` the trained model (npz weights + json manifest) and ``load()``
   it into a fresh facade, as a server process would;
5. ``score(addresses)`` raw addresses end-to-end and print the per-category
   probabilities — including for accounts the model never trained on.

Run with::

    python examples/quickstart.py [--scale 0.4]
    python examples/quickstart.py --scenarios exchange mixer wash-trading \
        --category mixer

``--scenarios`` restricts the synthetic ledger to a subset of the registered
scenario families (see ``repro.chain.scenarios``); ``--category`` picks which
one-vs-rest head to train (default: ``exchange``).
"""

from __future__ import annotations

import argparse
import tempfile

from repro import DeAnonymizer, LedgerConfig, generate_ledger
from repro.chain import AccountCategory
from repro.data import DatasetConfig, SubgraphDatasetBuilder, train_test_split
from repro.experiments.runner import fast_dbg4eth_config
from repro.metrics import classification_report


def main(scale: float = 0.4, scenarios: list[str] | None = None,
         category: str = "exchange", batch_size: int = 1,
         build_workers: int = 1) -> None:
    print("1. Generating a synthetic Ethereum ledger ...")
    config = LedgerConfig()
    if scenarios:
        config = config.with_scenarios(scenarios)
        if category not in {c.value for c in config.labeled_per_category}:
            raise SystemExit(f"--category {category!r} is not among "
                             f"--scenarios {scenarios}")
    ledger = generate_ledger(config.scaled(scale))
    summary = ledger.summary()
    print(f"   {summary['num_accounts']} accounts, {summary['num_transactions']} transactions, "
          f"{summary['num_labeled']} labelled accounts")

    print("2. Constructing the DeAnonymizer facade (2-hop, top-K sampling) ...")
    dataset_config = DatasetConfig(top_k=60, max_nodes_per_subgraph=50)
    model_config = lambda: fast_dbg4eth_config(epochs=8, batch_size=batch_size)
    if build_workers > 1:
        print(f"   building the dataset with {build_workers} worker processes "
              "(bit-identical to sequential)")
        builder = SubgraphDatasetBuilder(ledger, dataset_config)
        dataset = builder.build(workers=build_workers)
        deanon = DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                           dataset_config=dataset_config,
                                           model_config=model_config)
    else:
        deanon = DeAnonymizer(ledger, dataset_config=dataset_config,
                              model_config=model_config)
        dataset = deanon.dataset
    print(f"   {len(dataset)} subgraph samples across categories {dataset.categories()}")

    print(f"3. Training the {category!r} one-vs-rest head on a 70% split ...")
    samples, labels = dataset.binary_task(category)
    train_s, train_y, test_s, test_y = train_test_split(samples, labels, test_fraction=0.3)
    deanon.fit_category(category, train_s, train_y)

    print("4. Evaluating on the held-out split ...")
    report = classification_report(test_y, deanon.predict_samples(category, test_s))
    for metric, value in report.items():
        print(f"   {metric:>9}: {value * 100:6.2f}%")

    print("5. save() -> load() round trip, then scoring raw addresses ...")
    with tempfile.TemporaryDirectory() as model_dir:
        deanon.save(model_dir)
        served = DeAnonymizer.load(model_dir, ledger)
        addresses = [sample.center for sample in test_s[:5]]
        scores = served.score(addresses)
        for address, per_category in scores.items():
            truth = ledger.labels.get(address)
            label = truth.value if truth else "unlabeled"
            print(f"   {address}  P({category})={per_category[category]:.3f}  "
                  f"true: {label}")

    print(f"6. Adaptive calibration weights of the {category!r} head (Eq. 24-25):")
    for branch, weights in deanon.head(category).calibration_weights().items():
        formatted = ", ".join(f"{name}={weight:+.2f}" for name, weight in weights.items())
        print(f"   {branch.upper()}: {formatted}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.4,
                        help="ledger scale multiplier (smaller = faster; CI uses 0.15)")
    parser.add_argument("--scenarios", nargs="+", default=None,
                        metavar="FAMILY",
                        choices=[c.value for c in AccountCategory],
                        help="restrict the ledger to these scenario families "
                             "(default: all nine)")
    parser.add_argument("--category", default="exchange",
                        help="which one-vs-rest head to train (default: exchange)")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="training minibatch size for both branches; >1 "
                             "forwards each minibatch as one dense pass per "
                             "node count (default: 1, the per-sample loop)")
    parser.add_argument("--build-workers", type=int, default=1,
                        help="worker processes for the dataset build; the "
                             "parallel build is bit-identical to the "
                             "sequential one and pays off only on large "
                             "ledgers (default: 1)")
    args = parser.parse_args()
    main(args.scale, scenarios=args.scenarios, category=args.category,
         batch_size=args.batch_size, build_workers=args.build_workers)
