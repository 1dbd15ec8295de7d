"""Pinned-hash determinism regression tests.

The perf work (fused feature pipeline, artifact cache, array-backed
state) must never change simulation *results* — only how fast they
are produced.  These tests run a small reference workload and compare
a stable hash of the full result tables against hashes pinned when
the optimizations landed, across every execution mode: serial,
parallel, cold artifact cache, warm artifact cache, and with the
artifact layer disabled.

If a change legitimately alters simulation output (a modeling fix, a
new feature), re-pin the hashes below in the same commit and say why
in the commit message.  If you did not intend to change output, a
failure here means a bug.
"""

import time

import pytest

from repro.config import TINY
from repro.exec import MixCell, ParallelRunner, SingleCell, SuiteSpec, TraceSpec
from repro.exec.cachekey import stable_hash
from repro.exec.store import ResultStore
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import build_suite

ACCESSES = 2_500
BENCHMARKS = ("gamess", "soplex")
POLICIES = ("lru", "mpppb-1a", "srrip")

# Pinned on the tiny reference workload below.  Cold cache, warm
# cache, serial, parallel, and artifacts-off must all reproduce them.
SINGLE_HASH = "4f06a70f16f97bdb76676eef33c124e3b8115326498dff212deb7fd617cd5e75"
MIX_HASH = "bec8c2cfa975ef0b8cfff1a87c8ff4cb3e5bd2ef307d006b6c0d7e34e3c9426b"
# Feature-search pin: random search + hill climb on a fixed seed must
# produce these candidates and MPKIs whether Stage 2 replays candidates
# one at a time or through the batch engine.
SEARCH_HASH = "25451957fce2529e70cc7ebc80843c0475e3e04242d942b9d72584574e9534aa"
# Baseline-policy pins, taken with the scalar per-access hashing of
# Perceptron and Hawkeye before their inputs were lowered to numpy
# stream columns: the lowered replay must reproduce them exactly.
BASELINE_POLICIES = ("perceptron", "hawkeye", "sdbp", "ship", "drrip", "min")
BASELINE_HASH = "ace5323779d450722c32f9a7efce6f30ab4b2e7418337bca07038a5d8753957d"
# The same two lowered predictors over the 2-core mixes (interleaved
# streams with per-thread PC-history offsets).
BASELINE_MIX_POLICIES = ("perceptron", "hawkeye")
BASELINE_MIX_HASH = "4686c853d78f1453913b92cd84aa97442263e3c3c829fb960049a087d77d7561"
# One single-cell pin per remaining policy (both BENCHMARKS), taken
# before the batch engine's bytecode replay was deleted.  mpppb-1b and
# mpppb-mp reach the C kernel through replay_segment.
POLICY_PINS = {
    "mpppb-1b": "e12c5345c9ec3f1068a1f29f785e04b384caba56cf902568cbf108c466704cea",
    "mpppb-mp": "f40111ac1ce7903c12ec70a1d414620ec57f27995d2ddde639aa939fda787c12",
    "mdpp": "f44e99eaf22bf3e157103e1b923059f1ae4a8462212cd49c10fc471dbb29880b",
    "plru": "21f8767aca2aa1f6743afac27223acb4ebef6cec4c483ed48f9a5dab4ea44ad6",
    "random": "816ec923ea2726778ac72c4dc7c270fbb0fb18ff0fde6236973b3897b80f887a",
    "brrip": "c423ba7a83a192006227f4e815bd94b4492e172c370508ba4d19ce5299ea56fd",
}

# Stage-2 kernel modes: "off" is the per-access reference replay, and
# "default" leaves REPRO_STAGE2_KERNEL unset (the C kernel).
_KERNEL_BACKENDS = ["off", "default"]


def _set_kernel(monkeypatch, backend):
    if backend == "default":
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", backend)


def _single_cells(policies=POLICIES):
    return [
        SingleCell(
            trace=TraceSpec(benchmark, TINY.hierarchy.llc_bytes, ACCESSES),
            policy=policy,
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in policies
        for benchmark in BENCHMARKS
    ]


def _mix_cells(policies=("lru",)):
    suite_spec = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES)
    suite = build_suite(TINY.hierarchy.llc_bytes, ACCESSES)
    segments = [s for name in sorted(suite) for s in suite[name]]
    mixes = generate_mixes(segments, 2)
    return [
        MixCell(
            suite=suite_spec,
            mix_name=mix.name,
            segment_names=tuple(s.name for s in mix.segments),
            policy=policy,
            hierarchy=TINY.multi_hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in policies
        for mix in mixes
    ]


def _hashes(engine):
    singles = engine.run(_single_cells(), label="pin/single")
    mixes = engine.run(_mix_cells(), label="pin/mix")
    return (
        stable_hash({"results": [r.to_dict() for r in singles]}),
        stable_hash({"results": [r.to_dict() for r in mixes]}),
    )


def _assert_pinned(engine):
    single_hash, mix_hash = _hashes(engine)
    assert single_hash == SINGLE_HASH
    assert mix_hash == MIX_HASH


class TestPinnedHashes:
    def test_serial_no_store(self):
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False))

    def test_parallel_no_store(self):
        _assert_pinned(ParallelRunner(jobs=2, store=None, verbose=False))

    def test_cold_then_warm_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        # Cold: every cell computes, artifacts are written.
        _assert_pinned(ParallelRunner(jobs=1, store=store, verbose=False))
        # Warm results: every cell replays from the result cache.
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        _assert_pinned(engine)
        assert engine.last_report.hits == engine.last_report.cells

    def test_warm_artifacts_cold_results(self, tmp_path):
        """Results recompute from cached trace/Stage-1 artifacts."""
        from repro.exec import runner as exec_runner

        store = ResultStore(tmp_path / "cache")
        _assert_pinned(ParallelRunner(jobs=1, store=store, verbose=False))
        # Drop the result blobs but keep artifacts; clear in-process
        # memos so Stage 1 genuinely reloads from disk.
        for blob in list(store.root.glob("??/*.json")):
            blob.unlink()
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        _assert_pinned(engine)
        assert engine.last_report.hits == 0

    def test_artifacts_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "off")
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        assert engine.artifact_root is None
        _assert_pinned(engine)

    @pytest.mark.parametrize("pipeline", ["fused", "reference"])
    def test_both_feature_pipelines(self, pipeline, monkeypatch):
        """MPPPB indices from the fused compiler and from one
        ``Feature.compile`` closure per feature pin alike.  The kernel
        is off so the reference replay evaluates them per access."""
        from repro.core import predictor as predictor_mod

        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")
        if pipeline == "reference":
            def per_feature(features):
                fns = [feature.compile() for feature in features]
                return lambda ctx: [fn(ctx) for fn in fns]

            monkeypatch.setattr(predictor_mod, "compile_fused", per_feature)
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False))

    @pytest.mark.parametrize("vector", ["on", "off"])
    def test_both_stage3_paths(self, vector, monkeypatch):
        """The numpy Stage-3 path and the scalar generator (the path
        without numpy) pin alike."""
        from repro.sim import single

        if vector == "off":
            monkeypatch.setattr(single, "_np", None)
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False))

    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    def test_stage2_kernel_backends(self, backend, monkeypatch):
        """The C kernel and the Python replay reproduce the pinned hashes."""
        _set_kernel(monkeypatch, backend)
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False))


def _assert_baseline_pinned(engine):
    singles = engine.run(_single_cells(BASELINE_POLICIES),
                         label="pin/baseline")
    mixes = engine.run(_mix_cells(BASELINE_MIX_POLICIES),
                       label="pin/baseline-mix")
    assert stable_hash({"results": [r.to_dict() for r in singles]}) \
        == BASELINE_HASH
    assert stable_hash({"results": [r.to_dict() for r in mixes]}) \
        == BASELINE_MIX_HASH


class TestBaselinePins:
    """The baseline predictors (Perceptron, Hawkeye, SDBP, SHiP, DRRIP,
    MIN) pin like the MPPPB cells: serial, parallel, cold and warm
    store, and with the Stage-2 kernel on and ``off`` — ``off`` replays
    Perceptron and Hawkeye through their scalar per-access hashing,
    the default through the lowered stream columns."""

    def test_serial_no_store(self):
        _assert_baseline_pinned(ParallelRunner(jobs=1, store=None,
                                               verbose=False))

    def test_parallel_no_store(self):
        _assert_baseline_pinned(ParallelRunner(jobs=2, store=None,
                                               verbose=False))

    def test_cold_then_warm_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        _assert_baseline_pinned(ParallelRunner(jobs=1, store=store,
                                               verbose=False))
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        _assert_baseline_pinned(engine)
        assert engine.last_report.hits == engine.last_report.cells

    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    def test_stage2_kernel_backends(self, backend, monkeypatch):
        _set_kernel(monkeypatch, backend)
        _assert_baseline_pinned(ParallelRunner(jobs=1, store=None,
                                               verbose=False))


class TestPolicyPins:
    """Every policy the pins above do not cover, one cell pair each,
    with the Stage-2 kernel on and ``off``."""

    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    @pytest.mark.parametrize("policy", sorted(POLICY_PINS))
    def test_single_cell_pin(self, policy, backend, monkeypatch):
        _set_kernel(monkeypatch, backend)
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        results = engine.run(_single_cells((policy,)), label="pin/policy")
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == POLICY_PINS[policy]


class TestFaultedPins:
    """Injected faults + recovery must reproduce the clean pins bit-for-bit.

    Cell seeding depends only on the cache key — never the attempt
    number, worker identity, or scheduling — so retried, requeued, and
    serially-degraded executions are exact reruns.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_raises_reproduce_pins(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        engine = ParallelRunner(jobs=jobs, store=None, verbose=False,
                                retries=2)
        _assert_pinned(engine)
        assert engine.last_report.retries > 0
        assert engine.last_report.failures == ()

    def test_worker_crashes_reproduce_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:every=3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        engine = ParallelRunner(jobs=2, store=None, verbose=False, retries=1)
        _assert_pinned(engine)
        # every=3 selects one mix cell, so the (last) mix run really
        # did lose a worker and rebuild its pool.
        assert engine.last_report.pool_rebuilds >= 1
        assert engine.last_report.failures == ()


class TestFleetPins:
    """The worker-fleet backend moves execution into long-lived framed
    subprocesses — the transport must never touch results.  Pins must
    reproduce local vs fleet, cold vs warm, and through injected
    worker loss."""

    def test_fleet_matches_local_pins(self):
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet")
        _assert_pinned(engine)
        assert engine.last_report.backend == "fleet"

    def test_fleet_cold_then_warm_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        _assert_pinned(ParallelRunner(jobs=2, store=store, verbose=False,
                                      backend="fleet"))
        warm = ParallelRunner(jobs=2, store=store, verbose=False,
                              backend="fleet")
        _assert_pinned(warm)
        assert warm.last_report.hits == warm.last_report.cells

    def test_single_worker_fleet_matches(self):
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False,
                                      backend="fleet", workers="2"))

    def test_fleet_worker_loss_reproduces_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:every=3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet", retries=1)
        _assert_pinned(engine)
        # The crash killed a live fleet worker mid-cell; the lost-frame
        # requeue + rebuild machinery recovered it exactly once.
        assert engine.last_report.pool_rebuilds >= 1
        assert engine.last_report.requeued >= 1
        assert engine.last_report.failures == ()


class TestSharedTierPins:
    """A result computed through one node's store must serve any other
    node as a shared-tier read-through hit, bit-identically."""

    def test_read_through_between_stores(self, tmp_path):
        from repro.exec.store import TieredResultStore

        cells = _single_cells()
        shared = tmp_path / "shared"
        first = ParallelRunner(
            jobs=2, verbose=False, backend="fleet",
            store=TieredResultStore(tmp_path / "node-a", shared))
        results = first.run(cells, label="pin/single")
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == SINGLE_HASH
        assert first.last_report.store_shared_fills >= len(cells)

        # A different node: fresh local tier, same shared directory.
        second = ParallelRunner(
            jobs=2, verbose=False, backend="fleet",
            store=TieredResultStore(tmp_path / "node-b", shared))
        results = second.run(cells, label="pin/single")
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == SINGLE_HASH
        report = second.last_report
        assert report.hits == report.cells
        assert report.store_shared_hits == len(cells)


class TestTelemetryPins:
    """Telemetry reads ``perf_counter`` and its own counters — never the
    ``random`` module or simulator state — so every pin must reproduce
    bit-for-bit with instrumentation recording."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pins_unchanged_with_telemetry(self, jobs, tmp_path):
        from repro import obs
        from repro.exec.store import ResultStore as Store

        obs.enable()
        try:
            store = Store(tmp_path / "cache")
            engine = ParallelRunner(jobs=jobs, store=store, verbose=False)
            _assert_pinned(engine)
            assert engine.last_events_path is not None
            assert engine.last_events_path.exists()
        finally:
            obs.disable()

    def test_search_pin_unchanged_with_telemetry(self):
        from repro import obs

        obs.enable()
        try:
            assert _search_hash() == SEARCH_HASH
        finally:
            obs.disable()


def _search_hash():
    from repro.search.evaluator import FeatureSetEvaluator
    from repro.search.hillclimb import hill_climb
    from repro.search.random_search import random_search
    from repro.traces.workloads import all_segments

    segments = all_segments(TINY.hierarchy.llc_bytes, ACCESSES,
                            names=["gamess", "soplex"])
    evaluator = FeatureSetEvaluator(segments, TINY.hierarchy,
                                    warmup_fraction=TINY.warmup_fraction)
    candidates = random_search(evaluator, num_sets=6, seed=123)
    refined = hill_climb(evaluator, candidates[0].features, steps=4,
                         seed=123)
    return stable_hash({
        "random": [[f.spec() for f in c.features] for c in candidates],
        "random_mpki": [c.mpki for c in candidates],
        "refined": [f.spec() for f in refined.features],
        "refined_mpki": refined.mpki,
    })


class TestGraphPins:
    """The experiment-graph scheduler changes *when* artifacts load or
    recompute — never what any cell computes — so the pins must hold
    with the planner on and off, serial and parallel, cold and warm."""

    @pytest.mark.parametrize("graph", ["on", "off"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pins_cold_and_warm(self, graph, jobs, tmp_path, monkeypatch):
        from repro.exec import runner as exec_runner

        monkeypatch.setenv("REPRO_GRAPH", graph)
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        store = ResultStore(tmp_path / "cache")
        # Cold: the planner sees an empty store and schedules computes.
        _assert_pinned(ParallelRunner(jobs=jobs, store=store, verbose=False))
        # Warm: materialized artifacts flip the plan toward loads.
        _assert_pinned(ParallelRunner(jobs=jobs, store=store, verbose=False))

    def test_search_pin_with_graph(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH", "on")
        assert _search_hash() == SEARCH_HASH


class TestChaosPins:
    """Network chaos (DESIGN.md §16) — dropped/duplicated/delayed/torn
    frames, one-way partitions, straggler hedging, and a dead shared
    tier — must reproduce the clean pins bit-for-bit, and the health
    layer must recover faster than the blunt instruments it augments."""

    def test_frame_drop_recovers_via_heartbeats(self, monkeypatch):
        # A dropped result frame leaves the slot busy-but-silent
        # forever: only the heartbeat timeout can notice (the worker
        # finished, so it is not even hung).
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "frame-drop:every=3")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet")
        _assert_pinned(engine)
        # every=3 selects at least one cell (the same selector the
        # crash:every=3 test relies on); its dropped frame was detected
        # by the heartbeat timeout and the cell requeued.
        report = engine.last_report
        assert report.hb_lost >= 1
        assert report.requeued >= 1
        assert report.failures == ()

    def test_torn_dup_and_delayed_frames_reproduce_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            "frame-dup:every=3;frame-delay:every=4,seconds=0.3;"
            "frame-trunc:every=5")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet")
        _assert_pinned(engine)
        assert engine.last_report.failures == ()

    def test_heartbeat_beats_the_watchdog_on_a_hung_worker(self,
                                                           monkeypatch):
        # Acceptance check: with heartbeats on, a hung worker is
        # recovered in a couple of seconds — the generous cell watchdog
        # (the only line of defense before §16) never has to fire.
        cells = _single_cells()
        victim = stable_hash(cells[0].key_payload())
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            f"hb-loss:key={victim[:16]};hang:key={victim[:16]},seconds=600")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet", cell_timeout=120)
        started = time.monotonic()
        results = engine.run(cells, label="pin/single")
        wall = time.monotonic() - started
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == SINGLE_HASH
        report = engine.last_report
        assert report.hb_lost >= 1
        assert report.requeued >= 1
        assert report.timeouts == 0   # the watchdog never fired
        assert report.failures == ()
        assert wall < 60.0            # well under the 120s watchdog

    def test_hedged_straggler_race_reproduces_pins(self, monkeypatch):
        cells = _single_cells()
        victim = stable_hash(cells[0].key_payload())
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"hang:key={victim[:16]},seconds=30")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet", hedge=2.0)
        started = time.monotonic()
        results = engine.run(cells, label="pin/single")
        wall = time.monotonic() - started
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == SINGLE_HASH
        report = engine.last_report
        # The duplicate (attempt 2, which the times=1 hang rule skips)
        # won the race; the hung original was discarded, softly.
        assert report.hedges >= 1
        assert report.hedge_wins >= 1
        assert report.failures == ()
        assert wall < 20.0            # the clone rescued a 30s straggler

    def test_open_breaker_preserves_pins(self, tmp_path, monkeypatch):
        from repro.exec import faults
        from repro.exec.store import TieredResultStore

        monkeypatch.setenv("REPRO_FAULT_INJECT", "shared-fail")
        faults.reset_injection_state()
        store = TieredResultStore(tmp_path / "node", tmp_path / "shared")
        engine = ParallelRunner(jobs=2, store=store, verbose=False,
                                backend="fleet")
        _assert_pinned(engine)
        report = engine.last_report
        assert report.store_breaker_open
        assert report.store_shared_fills == 0
        assert "breaker=open" in report.summary()
        assert report.failures == ()
        # The local tier alone serves a fully warm rerun.
        warm = ParallelRunner(jobs=2, store=store, verbose=False,
                              backend="fleet")
        _assert_pinned(warm)
        assert warm.last_report.hits == warm.last_report.cells

    def test_search_pin_under_frame_chaos(self, monkeypatch):
        from repro.search.evaluator import FeatureSetEvaluator
        from repro.search.hillclimb import hill_climb
        from repro.search.random_search import random_search

        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "frame-drop:every=6")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                backend="fleet")
        spec = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES,
                         names=("gamess", "soplex"))
        evaluator = FeatureSetEvaluator.from_spec(
            spec, TINY.hierarchy, warmup_fraction=TINY.warmup_fraction,
            executor=engine)
        candidates = random_search(evaluator, num_sets=6, seed=123)
        refined = hill_climb(evaluator, candidates[0].features, steps=4,
                             seed=123)
        assert stable_hash({
            "random": [[f.spec() for f in c.features] for c in candidates],
            "random_mpki": [c.mpki for c in candidates],
            "refined": [f.spec() for f in refined.features],
            "refined_mpki": refined.mpki,
        }) == SEARCH_HASH


class TestIngestPins:
    """Ingested-trace runs must be bit-identical across decode chunk
    sizes, serial vs parallel execution, and cold vs warm stores —
    chunking bounds resident decode state, never results, and the
    digest-keyed caches must replay exactly (chunk is not keyed, so a
    warm run with a *different* chunk size still hits every cell)."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        import gzip

        path = tmp_path_factory.mktemp("ingest") / "real.trace.gz"
        lines = []
        state = 0xDEADBEEF
        for _ in range(2_000):
            state = (state * 6364136223846793005
                     + 1442695040888963407) % (1 << 64)
            pc = 0x400 + 4 * (state % 97)
            addr = 0x10000 + 64 * ((state >> 16) % 512)
            rw = "w" if state % 5 == 0 else "r"
            lines.append(f"0x{pc:x} 0x{addr:x} {rw} {state % 3}")
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        return str(path)

    def _cells(self, trace_file, chunk):
        from repro.traces.ingest import resolve_ingest

        spec = resolve_ingest(trace_file, accesses=600, segments=2,
                              chunk=chunk)
        trace = TraceSpec(spec.name, TINY.hierarchy.llc_bytes, ACCESSES,
                          ingest=spec)
        return [
            SingleCell(trace=trace, policy=policy, hierarchy=TINY.hierarchy,
                       warmup_fraction=TINY.warmup_fraction)
            for policy in POLICIES
        ]

    @staticmethod
    def _clear_memos():
        from repro.exec import runner as exec_runner

        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()

    def _hash(self, engine, cells):
        results = engine.run(cells, label="pin/ingest")
        assert all(result is not None for result in results)
        return stable_hash({"results": [r.to_dict() for r in results]})

    def test_chunk_sizes_and_parallelism_agree(self, trace_file):
        hashes = set()
        for chunk, jobs in ((512, 1), (65536, 1), (512, 2)):
            self._clear_memos()
            engine = ParallelRunner(jobs=jobs, store=None, verbose=False)
            hashes.add(self._hash(engine, self._cells(trace_file, chunk)))
        assert len(hashes) == 1

    def test_cold_then_warm_store_across_chunks(self, trace_file, tmp_path):
        store = ResultStore(tmp_path / "cache")
        self._clear_memos()
        cold = self._hash(ParallelRunner(jobs=1, store=store, verbose=False),
                          self._cells(trace_file, 512))
        self._clear_memos()
        warm_engine = ParallelRunner(jobs=1, store=store, verbose=False)
        warm = self._hash(warm_engine, self._cells(trace_file, 65536))
        assert cold == warm
        assert warm_engine.last_report.hits == warm_engine.last_report.cells

    def test_warm_artifacts_cold_results(self, trace_file, tmp_path):
        """Results recompute from digest-keyed trace/Stage-1 artifacts."""
        store = ResultStore(tmp_path / "cache")
        self._clear_memos()
        cold = self._hash(ParallelRunner(jobs=1, store=store, verbose=False),
                          self._cells(trace_file, 512))
        for blob in list(store.root.glob("??/*.json")):
            blob.unlink()
        self._clear_memos()
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        rebuilt = self._hash(engine, self._cells(trace_file, 65536))
        assert cold == rebuilt
        assert engine.last_report.hits == 0


class TestSearchPinned:
    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_stage2_batch_modes(self, mode, monkeypatch):
        """Batched generations (``on``) and one candidate at a time
        (``off``) pin alike."""
        from repro.search.evaluator import FeatureSetEvaluator

        if mode == "off":
            monkeypatch.setattr(
                FeatureSetEvaluator, "evaluate_many",
                lambda self, feature_sets: [self.evaluate(features)
                                            for features in feature_sets])
        assert _search_hash() == SEARCH_HASH

    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    def test_stage2_kernel_backends(self, backend, monkeypatch):
        """The batched search replay pins identically with the kernel on
        and off."""
        _set_kernel(monkeypatch, backend)
        assert _search_hash() == SEARCH_HASH
