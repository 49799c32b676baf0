"""Tests for the serving facade (`repro.api`): persistence, batching, errors."""

import os
import shutil

import numpy as np
import pytest

import repro.data.dataset as dataset_module
from repro.api import (
    DeAnonymizer,
    StateFormatError,
    UnknownAddressError,
    dumps_state,
    load_state,
    loads_state,
    save_state,
)
from repro.core import CalibrationConfig, DBG4ETH, DBG4ETHConfig, GSGConfig, LDGConfig
from repro.data import DatasetConfig

CATEGORIES = ["exchange", "mining"]


def micro_config() -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=8, epochs=2, contrastive_batch=4),
        ldg=LDGConfig(hidden_dim=8, epochs=2, num_slices=3, first_pool_clusters=4),
        calibration=CalibrationConfig(),
    )


@pytest.fixture(scope="module")
def facade(small_ledger, small_dataset):
    """A fitted facade over the shared session dataset (two category heads)."""
    deanon = DeAnonymizer.from_dataset(
        small_dataset, ledger=small_ledger,
        dataset_config=DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3),
        model_config=micro_config)
    deanon.fit(CATEGORIES)
    return deanon


@pytest.fixture(scope="module")
def dataset_only_facade(small_dataset):
    """A facade constructed from a dataset alone (no ledger attached)."""
    deanon = DeAnonymizer.from_dataset(small_dataset, model_config=micro_config)
    deanon.fit_category("exchange")
    return deanon


@pytest.fixture()
def fresh_addresses(facade):
    """Graph addresses that are not dataset centres (never sampled yet)."""
    centres = {s.center for s in facade.dataset}
    return [node for node in facade.builder.graph.nodes if node not in centres][:4]


class TestScoring:
    def test_score_structure(self, facade):
        addresses = [s.center for s in list(facade.dataset)[:3]]
        scores = facade.score(addresses)
        assert list(scores) == addresses
        for per_category in scores.values():
            assert set(per_category) == set(CATEGORIES)
            assert all(0.0 <= p <= 1.0 for p in per_category.values())

    def test_score_accepts_single_address(self, facade):
        address = facade.dataset[0].center
        scores = facade.score(address)
        assert set(scores) == {address}

    def test_score_matches_manual_sample_then_predict(self, facade, fresh_addresses):
        """The facade's end-to-end path equals hand-gluing builder + head."""
        address = fresh_addresses[0]
        scores = facade.score([address])
        for category in CATEGORIES:
            manual_sample = facade.builder.build_sample(address)
            manual = float(facade.head(category).predict_proba([manual_sample])[0])
            assert scores[address][category] == manual

    def test_unknown_address_raises_clear_error(self, facade):
        with pytest.raises(UnknownAddressError, match="0xNOSUCHADDRESS"):
            facade.score(["0xNOSUCHADDRESS"])

    def test_unknown_addresses_aggregated_across_batch(self, facade):
        """One error lists every unsampleable address, not just the first."""
        known = facade.dataset[0].center
        with pytest.raises(UnknownAddressError) as excinfo:
            facade.score(["0xBAD1", known, "0xBAD2", "0xBAD3"])
        assert excinfo.value.addresses == ("0xBAD1", "0xBAD2", "0xBAD3")
        assert excinfo.value.address == "0xBAD1"   # back-compat single accessor
        message = str(excinfo.value)
        assert "3 addresses" in message
        for bad in ("0xBAD1", "0xBAD2", "0xBAD3"):
            assert bad in message

    def test_skip_unknown_returns_partial_results(self, facade):
        addresses = [s.center for s in list(facade.dataset)[:2]]
        scores = facade.score(addresses + ["0xBAD1"], skip_unknown=True)
        assert list(scores) == addresses
        assert scores == facade.score(addresses)

    def test_skip_unknown_all_unknown_returns_empty(self, facade):
        assert facade.score(["0xBAD1", "0xBAD2"], skip_unknown=True) == {}

    def test_unfitted_facade_raises(self, small_ledger):
        deanon = DeAnonymizer(small_ledger)
        with pytest.raises(RuntimeError, match="fit"):
            deanon.score(["0xanything"])

    def test_predict_returns_fitted_category(self, facade):
        addresses = [s.center for s in list(facade.dataset)[:3]]
        predictions = facade.predict(addresses, threshold=0.0)
        assert set(predictions) == set(addresses)
        assert all(category in CATEGORIES for category in predictions.values())

    def test_predict_threshold_filters(self, facade):
        address = facade.dataset[0].center
        # No probability can reach an impossible threshold.
        assert facade.predict([address], threshold=1.1)[address] is None

    def test_score_all_without_ledger_covers_dataset(self, dataset_only_facade,
                                                     small_dataset):
        scores = dataset_only_facade.score_all()
        assert set(scores) == {s.center for s in small_dataset}

    def test_scoring_new_address_without_ledger_raises(self, dataset_only_facade):
        with pytest.raises(RuntimeError, match="ledger"):
            dataset_only_facade.score(["0xnever-seen"])


class TestBatching:
    def test_sampling_runs_once_per_address_not_per_head(self, facade, fresh_addresses,
                                                         monkeypatch):
        """N addresses x 2 heads must ego-sample exactly N times."""
        facade.clear_sample_cache()
        calls = []
        original = dataset_module.ego_subgraph

        def counting_ego_subgraph(graph, center, *args, **kwargs):
            calls.append(center)
            return original(graph, center, *args, **kwargs)

        monkeypatch.setattr(dataset_module, "ego_subgraph", counting_ego_subgraph)
        scores = facade.score(fresh_addresses)
        assert len(scores) == len(fresh_addresses)
        assert sorted(calls) == sorted(fresh_addresses)

    def test_cached_addresses_are_not_resampled(self, facade, fresh_addresses,
                                                monkeypatch):
        facade.score(fresh_addresses)            # populate the cache

        def forbidden(*_args, **_kwargs):
            raise AssertionError("resampled a cached address")

        monkeypatch.setattr(dataset_module, "ego_subgraph", forbidden)
        scores = facade.score(fresh_addresses)
        assert set(scores) == set(fresh_addresses)

    def test_duplicate_addresses_sampled_once(self, facade, fresh_addresses, monkeypatch):
        facade.clear_sample_cache()
        calls = []
        original = dataset_module.ego_subgraph

        def counting_ego_subgraph(graph, center, *args, **kwargs):
            calls.append(center)
            return original(graph, center, *args, **kwargs)

        monkeypatch.setattr(dataset_module, "ego_subgraph", counting_ego_subgraph)
        address = fresh_addresses[0]
        scores = facade.score([address, address, address])
        assert calls == [address]
        assert set(scores) == {address}


class TestPersistence:
    def test_facade_save_load_roundtrip_bit_for_bit(self, facade, fresh_addresses,
                                                    small_ledger, tmp_path):
        addresses = [facade.dataset[0].center] + fresh_addresses[:2]
        before = facade.score(addresses)
        facade.save(tmp_path / "model")
        restored = DeAnonymizer.load(tmp_path / "model", small_ledger)
        assert restored.categories == sorted(CATEGORIES)
        after = restored.score(addresses)
        for address in addresses:
            for category in CATEGORIES:
                assert before[address][category] == after[address][category]

    def test_loaded_facade_needs_ledger_for_new_addresses(self, facade, tmp_path,
                                                          small_ledger, fresh_addresses):
        facade.save(tmp_path / "model")
        restored = DeAnonymizer.load(tmp_path / "model")
        with pytest.raises(RuntimeError, match="attach_ledger"):
            restored.score(fresh_addresses[:1])
        restored.attach_ledger(small_ledger)
        assert set(restored.score(fresh_addresses[:1])) == set(fresh_addresses[:1])

    def test_dbg4eth_state_roundtrip_bit_for_bit(self, facade, exchange_task):
        samples, _labels = exchange_task
        head = facade.head("exchange")
        before = head.predict_proba(samples[:8])
        restored = DBG4ETH.from_state(head.get_state())
        np.testing.assert_array_equal(restored.predict_proba(samples[:8]), before)
        np.testing.assert_array_equal(restored.predict(samples[:8]),
                                      head.predict(samples[:8]))

    def test_dbg4eth_state_survives_disk(self, facade, exchange_task, tmp_path):
        samples, _labels = exchange_task
        head = facade.head("exchange")
        save_state(tmp_path / "head", head.get_state())
        restored = DBG4ETH.from_state(load_state(tmp_path / "head"))
        np.testing.assert_array_equal(restored.predict_proba(samples[:8]),
                                      head.predict_proba(samples[:8]))

    def test_dbg4eth_set_state_replaces_config(self, facade):
        head = facade.head("exchange")
        other = DBG4ETH()                         # default config, unfitted
        other.set_state(head.get_state())
        assert other.config.gsg.hidden_dim == micro_config().gsg.hidden_dim
        assert other._fitted

    def test_unfitted_get_state_raises(self):
        with pytest.raises(RuntimeError):
            DBG4ETH(micro_config()).get_state()
        with pytest.raises(RuntimeError):
            DeAnonymizer().get_state()

    def test_from_dataset_with_ledger_requires_config(self, small_dataset, small_ledger):
        with pytest.raises(ValueError, match="dataset_config"):
            DeAnonymizer.from_dataset(small_dataset, ledger=small_ledger)

    def test_attach_ledger_drops_stale_samples(self, small_dataset, small_ledger):
        deanon = DeAnonymizer.from_dataset(
            small_dataset, ledger=small_ledger,
            dataset_config=DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3))
        assert deanon._samples                   # seeded from the dataset
        deanon.attach_ledger(small_ledger)
        assert deanon._samples == {} and deanon._dataset is None

    def test_set_state_drops_stale_samples(self, facade, small_dataset, small_ledger):
        target = DeAnonymizer.from_dataset(
            small_dataset, ledger=small_ledger,
            dataset_config=DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3))
        assert target._samples
        target.set_state(facade.get_state())
        # Subgraphs cached under the previous config must not survive the swap.
        assert target._samples == {}
        assert target.categories == sorted(CATEGORIES)


class TestStateBlobs:
    def test_dumps_loads_roundtrip_bit_for_bit(self, facade, exchange_task):
        samples, _labels = exchange_task
        blob = dumps_state(facade.get_state())
        assert isinstance(blob, bytes)
        restored = DeAnonymizer().set_state(loads_state(blob))
        for category in CATEGORIES:
            np.testing.assert_array_equal(
                restored.head(category).predict_proba(samples[:6]),
                facade.head(category).predict_proba(samples[:6]))

    def test_blob_matches_directory_state(self, facade, tmp_path):
        facade.save(tmp_path / "model")
        from_disk = load_state(tmp_path / "model")
        from_blob = loads_state(dumps_state(facade.get_state()))
        assert from_disk.keys() == from_blob.keys()
        assert from_disk["dataset_config"] == from_blob["dataset_config"]

    def test_truncated_blob_raises(self, facade):
        blob = dumps_state(facade.get_state())
        with pytest.raises(StateFormatError, match="truncated"):
            loads_state(blob[:4])
        with pytest.raises(StateFormatError, match="truncated"):
            loads_state(blob[:20])


class TestStateFiles:
    def test_roundtrip_preserves_types(self, tmp_path):
        state = {
            "scalars": {"i": 3, "f": 0.1 + 0.2, "b": True, "none": None, "s": "x"},
            "tuple": (1, (2.5, "three")),
            "list": [np.arange(4), {"nested": np.eye(2)}],
        }
        save_state(tmp_path / "m", state)
        loaded = load_state(tmp_path / "m")
        assert loaded["scalars"] == state["scalars"]
        assert loaded["tuple"] == (1, (2.5, "three"))
        assert isinstance(loaded["tuple"], tuple)
        np.testing.assert_array_equal(loaded["list"][0], np.arange(4))
        np.testing.assert_array_equal(loaded["list"][1]["nested"], np.eye(2))

    def test_floats_roundtrip_exactly(self, tmp_path):
        values = [0.1, 1e-300, np.pi, 2.0 ** -1074]
        save_state(tmp_path / "m", {"values": values})
        assert load_state(tmp_path / "m")["values"] == values

    def test_non_string_keys_rejected(self, tmp_path):
        with pytest.raises(StateFormatError):
            save_state(tmp_path / "m", {1: "not allowed"})

    def test_unserializable_value_rejected(self, tmp_path):
        with pytest.raises(StateFormatError):
            save_state(tmp_path / "m", {"fn": lambda: None})

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StateFormatError):
            load_state(tmp_path / "does-not-exist")

    def test_version_mismatch_raises(self, tmp_path):
        save_state(tmp_path / "m", {"x": 1})
        state_file = tmp_path / "m" / "state.json"
        state_file.write_text(state_file.read_text().replace(
            '"format_version": 1', '"format_version": 999'))
        with pytest.raises(StateFormatError, match="version"):
            load_state(tmp_path / "m")


#: Two states of one structure: a manifest of either over the arrays of the
#: other would load without complaint from the structure alone.
OLD_STATE = {"weights": np.arange(6.0), "head": {"bias": np.ones(3), "name": "h"}}
NEW_STATE = {"weights": np.arange(6.0) * 2.0, "head": {"bias": np.zeros(3), "name": "h"}}


def assert_same_state(got, expected):
    np.testing.assert_array_equal(got["weights"], expected["weights"])
    np.testing.assert_array_equal(got["head"]["bias"], expected["head"]["bias"])
    assert got["head"]["name"] == expected["head"]["name"]


class TestCrashSafeSaves:
    @pytest.mark.parametrize("replaced", ["state.json", "arrays.npz"])
    def test_a_save_cut_between_the_two_files_never_loads_a_mix(self, tmp_path, replaced):
        # Whichever of the two files a crashed save got to replace, the pair
        # left behind mixes the old and the new state, and must not load.
        save_state(tmp_path / "m", OLD_STATE)
        save_state(tmp_path / "new", NEW_STATE)
        shutil.copyfile(tmp_path / "new" / replaced, tmp_path / "m" / replaced)
        with pytest.raises(StateFormatError):
            load_state(tmp_path / "m")

    @pytest.mark.parametrize("crash_at", [1, 2])
    def test_a_crashed_save_loads_the_old_state_or_raises(self, tmp_path, monkeypatch,
                                                          crash_at):
        save_state(tmp_path / "m", OLD_STATE)
        renames = []
        real_replace = os.replace

        def replace(source, target):
            renames.append(target)
            if len(renames) == crash_at:
                raise OSError("injected crash")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected crash"):
            save_state(tmp_path / "m", NEW_STATE)
        monkeypatch.undo()
        if crash_at == 1:                   # nothing renamed: the old state stands
            assert_same_state(load_state(tmp_path / "m"), OLD_STATE)
        else:                               # new arrays under the old manifest
            with pytest.raises(StateFormatError, match="SHA-256"):
                load_state(tmp_path / "m")
        save_state(tmp_path / "m", NEW_STATE)
        assert_same_state(load_state(tmp_path / "m"), NEW_STATE)

    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_a_flipped_byte_in_the_arrays_raises(self, tmp_path, where):
        save_state(tmp_path / "m", OLD_STATE)
        arrays = tmp_path / "m" / "arrays.npz"
        data = bytearray(arrays.read_bytes())
        data[round(where * (len(data) - 1))] ^= 0x01
        arrays.write_bytes(bytes(data))
        with pytest.raises(StateFormatError, match="SHA-256"):
            load_state(tmp_path / "m")


class TestStats:
    def test_stats_without_ledger(self, dataset_only_facade):
        stats = dataset_only_facade.stats()
        assert stats["ledger"] is None
        assert stats["fitted_heads"] == ["exchange"]
        assert stats["cached_samples"] == len(dataset_only_facade._samples)

    def test_stats_reports_ledger_counters(self, facade, small_ledger):
        stats = facade.stats()
        assert stats["ledger"]["num_transactions"] == small_ledger.num_transactions
        assert stats["ledger"]["num_accounts"] == small_ledger.num_accounts
        assert stats["ledger"]["timespan"] == small_ledger.timespan()
        assert set(stats["fitted_heads"]) == set(CATEGORIES)

    def test_stats_does_not_force_graph_build(self, small_ledger):
        deanon = DeAnonymizer(small_ledger)
        stats = deanon.stats()
        assert stats["graph"] is None
        assert stats["dataset_built"] is False
        # After touching the builder's graph the sizes show up.
        _ = deanon.builder.graph
        assert deanon.stats()["graph"]["num_nodes"] > 0

    def test_stats_serving_section(self, facade):
        addresses = [s.center for s in list(facade.dataset)[:3]]
        facade.score(addresses)
        serving = facade.stats()["serving"]
        cache = serving["sample_cache"]
        assert cache["size"] == len(facade._samples)
        assert cache["max_size"] is None
        assert cache["hits"] + cache["misses"] > 0
        assert serving["counters"]["score.calls"] >= 1
        assert serving["stages"]["score.sample"]["count"] >= 1
        assert serving["stages"]["score.heads"]["count"] >= 1
        assert serving["stages"]["score.batch_size"]["max"] >= 3

    def test_warm_prebuilds_and_freeze_seals(self, small_ledger):
        deanon = DeAnonymizer(small_ledger)
        deanon.warm()
        graph = deanon.builder.graph_if_built()
        assert graph is not None and not graph.frozen
        deanon.warm(freeze=True)
        assert graph.frozen
        stages = deanon.stats()["serving"]["stages"]
        assert stages["warm"]["count"] == 2
