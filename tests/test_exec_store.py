"""Tests for the on-disk result store and cache-key hashing."""

import json
import os

import pytest

from repro.config import TINY
from repro.core.mpppb import MPPPBConfig
from repro.core.presets import table_1a_features
from repro.cpu.timing import TimingConfig
from repro.exec import (
    SCHEMA_VERSION,
    ResultStore,
    SingleCell,
    TraceSpec,
    canonical_json,
    stable_hash,
    task_seed,
)
from repro.sim.multi import MixResult
from repro.sim.single import BenchmarkResult, SegmentResult


def _benchmark_result() -> BenchmarkResult:
    segments = tuple(
        SegmentResult(
            segment_name=f"b.s{i}", weight=0.5 + i, ipc=1.25 + i * 0.125,
            mpki=3.7, llc_accesses=1000 + i, llc_hits=700, llc_misses=300,
            llc_bypasses=17, demand_misses=290, instructions=40_000,
        )
        for i in range(3)
    )
    return BenchmarkResult(benchmark="b", segments=segments)


def _mix_result() -> MixResult:
    return MixResult(
        mix_name="mix0001",
        thread_names=("a.s0", "b.s0", "c.s1", "d.s0"),
        ipcs=(1.1, 0.9, 1.300000000000001, 0.75),
        single_ipcs=(1.2, 1.0, 1.5, 0.8),
        mpki=4.25,
        llc_misses=1234,
        llc_bypasses=56,
    )


class TestResultSerde:
    def test_benchmark_result_round_trip_through_json(self):
        result = _benchmark_result()
        payload = json.loads(json.dumps(result.to_dict()))
        assert BenchmarkResult.from_dict(payload) == result

    def test_mix_result_round_trip_through_json(self):
        result = _mix_result()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = MixResult.from_dict(payload)
        assert restored == result
        assert restored.weighted_speedup == result.weighted_speedup


class TestStableHash:
    def test_key_order_independent(self):
        assert stable_hash({"a": 1, "b": [2, 3]}) == stable_hash({"b": [2, 3], "a": 1})

    def test_canonical_json_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_task_seed_is_32_bit(self):
        seed = task_seed(stable_hash({"x": 1}))
        assert 0 <= seed < 2**32

    def _cell(self, **overrides):
        defaults = dict(
            trace=TraceSpec("soplex", TINY.hierarchy.llc_bytes, 4_000),
            policy="mpppb",
            hierarchy=TINY.hierarchy,
            mpppb_config=MPPPBConfig(features=table_1a_features()),
            warmup_fraction=0.25,
        )
        defaults.update(overrides)
        return SingleCell(**defaults)

    def test_key_stable_for_equal_cells(self):
        assert stable_hash(self._cell().key_payload()) == \
            stable_hash(self._cell().key_payload())

    def test_key_changes_with_hierarchy(self):
        other = self._cell(hierarchy=TINY.multi_hierarchy)
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_timing(self):
        other = self._cell(timing=TimingConfig(dram_latency=321))
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_policy_config(self):
        config = MPPPBConfig(features=table_1a_features(), taus=(71, 30, 0))
        other = self._cell(mpppb_config=config)
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_trace_spec(self):
        other = self._cell(
            trace=TraceSpec("soplex", TINY.hierarchy.llc_bytes, 4_001))
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_warmup(self):
        other = self._cell(warmup_fraction=0.3)
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())


class TestResultStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = stable_hash({"cell": 1})
        assert store.get(key) is None
        store.put(key, {"kind": "single", "result": {"x": 1.5}})
        payload = store.get(key)
        assert payload["result"] == {"x": 1.5}
        assert payload["kind"] == "single"
        assert payload["schema"] == SCHEMA_VERSION
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (1, 1, 1)

    def test_persists_across_instances(self, tmp_path):
        root = tmp_path / "cache"
        ResultStore(root).put("ab" * 32, {"kind": "mix", "result": [1, 2]})
        fresh = ResultStore(root)
        assert fresh.get("ab" * 32)["result"] == [1, 2]
        assert fresh.stats.hits == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put(key, {"kind": "single", "result": 1})
        path = store._path(key)
        blob = json.loads(path.read_text())
        blob["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(blob))
        assert store.get(key) is None

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, {"kind": "single", "result": 1})
        store._path(key).write_text("{not json")
        assert store.get(key) is None

    def test_eviction_drops_oldest(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        keys = [f"{i:02d}" + "a" * 62 for i in range(3)]
        for age, key in enumerate(keys):
            store.put(key, {"kind": "single", "result": age})
            # Force distinct, ordered mtimes so LRU order is deterministic.
            os.utime(store._path(key), (1_000_000 + age, 1_000_000 + age))
        store.put("ff" + "a" * 62, {"kind": "single", "result": 99})
        assert store.get(keys[0]) is None          # oldest evicted
        assert store.get(keys[2])["result"] == 2   # newer survives
        assert store.stats.evictions >= 1
        assert len(store) <= 2 + 1  # cap plus the blob that triggered eviction

    def test_rejects_nonpositive_max_entries(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_entries=0)


def _hammer(root: str, worker: int, count: int, max_entries: int) -> list:
    """Write ``count`` blobs into a shared store; returns the keys used.

    Runs in a child process: two of these interleaving put/_evict/
    _rewrite_index against one directory is the concurrent-writer
    scenario the advisory lock serializes.
    """
    store = ResultStore(root, max_entries=max_entries)
    keys = []
    for i in range(count):
        key = stable_hash({"worker": worker, "i": i})
        store.put(key, {"kind": "single", "result": [worker, i]})
        keys.append(key)
    return keys


class TestGcVsConcurrentFill:
    def test_compaction_keeps_blobs_that_landed_mid_gc(self, tmp_path):
        # Deterministic replay of the race: a concurrent put lands
        # between gc's ranking snapshot and its index compaction.  The
        # rewritten index must keep the newcomer's recency entry, or
        # the next eviction pass treats it as the oldest blob.
        store = ResultStore(tmp_path)
        keys = [f"{i:02d}" + "a" * 62 for i in range(3)]
        for key in keys:
            store.put(key, {"kind": "single", "result": 0})
        ranked = store._ranked_blobs()
        late_key = "ff" + "b" * 62
        store.put(late_key, {"kind": "single", "result": 9})  # the racer
        store._drop(ranked[:2], ranked[2:])
        index = (tmp_path / "index.log").read_text().splitlines()
        assert f"{late_key[:2]}/{late_key}.json" in index
        assert store._count == 2
        assert store.get(late_key)["result"] == 9


def _gc_hammer(root: str, rounds: int) -> int:
    """Child process: repeatedly gc the store while puts land."""
    store = ResultStore(root)
    removed = 0
    for _ in range(rounds):
        removed += store.gc(max_entries=4)
    return removed


def _put_hammer(root: str, rounds: int, keys: list) -> int:
    """Child process: re-put a fixed key set round-robin."""
    store = ResultStore(root)
    for i in range(rounds):
        store.put(keys[i % len(keys)],
                  {"kind": "single", "result": i % len(keys)})
    return rounds


class TestGcVsConcurrentPuts:
    def test_gc_and_concurrent_puts_stay_consistent(self, tmp_path):
        import re
        from concurrent.futures import ProcessPoolExecutor

        keys = [stable_hash({"blob": i}) for i in range(12)]
        _put_hammer(str(tmp_path), len(keys), keys)  # over gc's target
        with ProcessPoolExecutor(max_workers=2) as pool:
            puts = pool.submit(_put_hammer, str(tmp_path), 120, keys)
            gcs = pool.submit(_gc_hammer, str(tmp_path), 120)
            assert puts.result() == 120
            assert gcs.result() >= 1

        # The surviving store is structurally sound...
        survivor = ResultStore(tmp_path)
        for blob in survivor._blobs():
            payload = json.loads(blob.read_text())
            assert payload["schema"] == SCHEMA_VERSION
        pattern = re.compile(r"^[0-9a-f]{2}/[0-9a-f]{64}\.(json|bin)$")
        for line in (tmp_path / "index.log").read_text().splitlines():
            assert pattern.match(line), line
        # ...and every surviving key holds its own payload.
        for i, key in enumerate(keys):
            payload = survivor.get(key)
            assert payload is None or payload["result"] == i


class TestConcurrentWriters:
    def _run_pair(self, tmp_path, count, max_entries):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_hammer, str(tmp_path), worker, count,
                                   max_entries)
                       for worker in (1, 2)]
            return [f.result() for f in futures]

    def test_interleaved_eviction_keeps_store_consistent(self, tmp_path):
        import re

        self._run_pair(tmp_path, count=60, max_entries=20)
        store = ResultStore(tmp_path, max_entries=20)
        # Every surviving blob parses and carries the schema stamp.
        for blob in store._blobs():
            payload = json.loads(blob.read_text())
            assert payload["schema"] == SCHEMA_VERSION
        # The compacted index holds only well-formed relative paths.
        pattern = re.compile(r"^[0-9a-f]{2}/[0-9a-f]{64}\.(json|bin)$")
        for line in (tmp_path / "index.log").read_text().splitlines():
            assert pattern.match(line), line
        # And the store still works.
        store.put("ab" * 32, {"kind": "single", "result": 1})
        assert store.get("ab" * 32)["result"] == 1

    def test_no_eviction_loses_no_acknowledged_write(self, tmp_path):
        key_sets = self._run_pair(tmp_path, count=25, max_entries=100_000)
        store = ResultStore(tmp_path)
        for worker, keys in zip((1, 2), key_sets):
            for i, key in enumerate(keys):
                payload = store.get(key)
                assert payload is not None, key
                assert payload["result"] == [worker, i]
