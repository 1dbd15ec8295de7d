"""Hot-path performance harness.

Times the three pipeline stages in isolation and an end-to-end
policy compare against cold and warm artifact caches, producing the
``BENCH_hotpath.json`` report the CI perf-smoke job gates on.

Report schema (``REPORT_SCHEMA``)::

    {
      "schema": 10,               # REPORT_SCHEMA, not the cache schema
      "scale": "tiny",
      "benchmark": "soplex",      # hot-path micro-benchmark workload
      "accesses": 4000,
      "repeats": 3,               # best-of-N for every timing
      "backends": {               # what this host could actually run,
        "c": {                    # so trajectory comparisons between
          "available": bool,      # reports aren't apples-to-oranges --
          "error": str|null       # and *why* the C kernel is missing
        }                         # (no compiler, or the build error)
      },
      "hotpath": {
        "trace_gen_s": float,     # synthesize all segments once
        "stage1_s": float,        # upper-level hierarchy, all segments
        "stage2": {               # per policy: Stage 2+3 replay
          "<policy>": float
        }
      },
      "kernel": {                 # columnar Stage-2 replay kernel
        "k": int, "segments": int, "accesses": int,
        "python_s": float,        # REPRO_STAGE2_KERNEL=off (the
                                  # per-candidate LLCSimulator replay)
        "c_s": float|null,        # the C kernel (post-build)
        "c_speedup": float|null   # python_s / c_s
      },
      "timing": {                 # Stage 3 alone, scalar vs vectorized
        "benchmark": str, "loads": int,
        "scalar_s": float,        # generator events + simulate()
        "vector_s": float|null,   # numpy fill + simulate_packed()
        "speedup": float|null
      },
      "telemetry": {              # repro.obs instrumentation cost
        "benchmark": str,
        "disabled_s": float,      # replay, telemetry off (the default)
        "enabled_s": float,       # replay inside obs.capture()
        "enabled_overhead": float,    # enabled_s/disabled_s - 1
        "null_span_ns": float,    # one disabled obs.span() round trip
        "spans_per_replay": int,  # span records an enabled replay emits
        "disabled_overhead": float    # estimated disabled-path fraction
      },
      "compare": {                # end-to-end engine compare
        "benchmarks": [...], "policies": [...],
        "cold_s": float,          # empty artifact cache, empty memos
        "warm_s": float,          # artifact cache from the cold run
        "speedup": float          # cold_s / warm_s
      },
      "graph": {                  # cost-aware experiment-graph scheduler
        "benchmark": str, "policies": [...],
        "cold_s": float,          # REPRO_GRAPH=off, empty cache
        "warm_s": float,          # REPRO_GRAPH=off, artifact-warm
        "graph_cold_s": float,    # scheduled: plan + prelude, cold
        "graph_warm_s": float,    # scheduled against a warm cache
        "warm_speedup": float     # warm_s / graph_warm_s
      },
      "ingest": {                 # streaming trace-decode throughput
        "records": int,           # fixture size, records per format
        "formats": {              # per trace format (repro.traces.ingest)
          "<fmt>": {
            "decode_s": float,    # full streamed decode, best-of-N
            "records_per_s": float,
            "file_bytes": int     # on-disk fixture size (gz'd for text)
          }
        }
      },
      "dist": {                   # execution-backend dispatch overhead
        "benchmarks": [...], "policies": [...],
        "workers": int, "cells": int,
        "fleet_startup_s": float, # spawn -> hello handshake -> close
        "local_s": float,         # local pool backend, artifact-warm
        "fleet_s": float,         # worker-fleet backend, artifact-warm
        "dispatch_overhead_s": float, # fleet_s-startup-local_s (signed)
        "per_cell_overhead_s": float  # dispatch_overhead_s / cells
      }
    }

All timings are best-of-``repeats`` wall seconds: minimums are far more
stable than means on shared CI runners.  :func:`check_report` gates
the columnar C kernel (at least :data:`KERNEL_MIN_SPEEDUP` x over the
per-candidate reference replay) and the telemetry disabled-path budget
(estimated instrumentation cost with telemetry off must stay under 2%
of a Stage-2 replay), among the bounds it lists.

Micro-benchmarks that time a *specific* Stage-2 implementation pin
``REPRO_STAGE2_KERNEL`` explicitly, so the measurements keep meaning
what their names say regardless of the ambient knob.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.config import ReproScale, get_scale
from repro.policies import policy_factory
from repro.sim.hierarchy import UpperLevels
from repro.sim.single import SingleThreadRunner
from repro.traces.trace import Segment
from repro.traces.workloads import build_segments

REPORT_SCHEMA = 10
# Instrumentation with telemetry disabled may cost at most this
# fraction of a Stage-2 replay (the obs layer's headline promise).
TELEMETRY_DISABLED_BUDGET = 0.02
# With telemetry *enabled*, the fully observed replay may cost at most
# this much over the disabled one.  The batched counter flush
# (``obs.inc_many``) and lock-free span append hold it near 7% on an
# idle host; the budget leaves headroom for shared CI runners.
TELEMETRY_ENABLED_BUDGET = 0.15
# The graph-scheduled warm path must keep pace with the unplanned warm
# path: planning (stat + cost passes) may add at most this factor plus
# a fixed allowance.  The allowance covers the constant per-run cost —
# cost-model load/save and plan construction — which does not scale
# with the workload and would otherwise dominate a millisecond-scale
# tiny-scale warm run; the factor bounds everything that does scale.
GRAPH_MAX_SLOWDOWN = 1.05
GRAPH_OVERHEAD_ALLOWANCE_S = 0.02
# The C Stage-2 kernel must beat the per-candidate reference replay
# (LLCSimulator) by at least this factor on the Stage-2 replay itself.
KERNEL_MIN_SPEEDUP = 1.5
# The worker-fleet backend may tax an artifact-warm compare by at most
# this factor over the local pool, plus the measured transport startup
# and a fixed allowance.  The allowance covers the per-run cost that
# does not scale with cell count: each fresh fleet worker is a spawned
# interpreter that lazily imports the simulation stack at its first
# cell, where a forked pool worker inherits the parent's modules.
FLEET_MAX_SLOWDOWN = 1.15
FLEET_STARTUP_ALLOWANCE_S = 2.0
# Every streaming trace reader must decode at least this many records
# per second — a floor far under steady-state (the pure-Python text
# parser clears it by an order of magnitude on an idle host) chosen so
# only a genuine algorithmic regression, not CI-runner noise, trips it.
INGEST_MIN_RECORDS_PER_S = 20_000.0
DEFAULT_REPORT = "BENCH_hotpath.json"
DEFAULT_POLICIES = ("lru", "srrip", "mpppb-1a")
# Cache-friendly workloads whose LLC streams are short: the shared
# stages (trace synthesis + Stage 1) dominate the compare, which is
# exactly what the artifact cache removes on the warm run.
DEFAULT_COMPARE_BENCHMARKS = ("gamess", "hmmer", "povray")


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@contextmanager
def _env(name: str, value: str):
    """Pin one environment knob for the duration of a timing."""
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


# -- stage micro-benchmarks ------------------------------------------------


def bench_hotpath(scale: ReproScale, benchmark: str,
                  policies: Sequence[str], repeats: int) -> Dict[str, Any]:
    """Per-stage timings for one benchmark at one scale."""
    hierarchy = scale.hierarchy
    accesses = scale.segment_accesses

    trace_gen_s = _best_of(repeats, lambda: build_segments(
        benchmark, hierarchy.llc_bytes, accesses))
    segments: List[Segment] = build_segments(benchmark, hierarchy.llc_bytes,
                                             accesses)

    upper = UpperLevels(hierarchy)
    stage1_s = _best_of(repeats, lambda: [upper.run(s.trace)
                                          for s in segments])

    # Stage 2+3 replay through the single-thread runner with Stage 1
    # pre-seeded, so each timing covers exactly the per-policy work a
    # compare pays after the shared stages are cached.
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    for segment in segments:
        runner.upper_result(segment)

    stage2 = {
        policy: round(_best_of(repeats, lambda: [
            runner.run_segment(s, policy_factory(policy, None))
            for s in segments
        ]), 6)
        for policy in policies
    }
    return {
        "trace_gen_s": round(trace_gen_s, 6),
        "stage1_s": round(stage1_s, 6),
        "stage2": stage2,
    }


# -- columnar Stage-2 kernel (reference replay vs the C kernel) ------------


def bench_kernel(scale: ReproScale, repeats: int,
                 k: int = 8) -> Dict[str, Any]:
    """Time the Stage-2 replay itself, reference replay vs the C kernel.

    Mirrors the ``search`` command's workload (three benchmarks at a
    quarter of the scale's accesses) and candidate shape (a Table 1a
    base plus distinct single-feature perturbations — exactly a
    hill-climb neighborhood), timing
    :meth:`~repro.sim.batch.BatchLLCSimulator.run` directly — the
    acceptance gate is on the Stage-2 replay, and the evaluator's
    fixed Stage-3/aggregation cost would dilute it.  With the kernel
    ``off`` that call replays each candidate through
    :class:`~repro.sim.llc.LLCSimulator` (``python_s``).  Fresh policies
    are built inside the timed region (identical across arms, so the
    ratio is unaffected).  The C arm is timed only when the kernel
    builds on this host, after one untimed replay so the one-off
    compile is excluded (steady-state cost is what a long search
    pays).
    """
    import random

    from repro.core.features import parse_feature_set, perturb_feature
    from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
    from repro.core.presets import TABLE_1A_SPECS
    from repro.sim.batch import BatchLLCSimulator
    from repro.sim.kernel import available_backends
    from repro.traces.workloads import all_segments

    hierarchy = scale.hierarchy
    accesses = max(2_000, scale.segment_accesses // 4)
    segments = all_segments(hierarchy.llc_bytes, accesses,
                            names=["gamess", "lbm", "soplex"])
    upper = UpperLevels(hierarchy)
    stage1 = [(upper.run(s.trace), s.trace) for s in segments]

    rng = random.Random(2017)
    base = list(parse_feature_set(TABLE_1A_SPECS))
    candidates = [tuple(base)]
    seen = {tuple(feature.spec() for feature in base)}
    while len(candidates) < k:
        mutated = list(base)
        victim = rng.randrange(len(mutated))
        mutated[victim] = perturb_feature(mutated[victim], rng)
        spec = tuple(feature.spec() for feature in mutated)
        if spec in seen:
            continue
        seen.add(spec)
        candidates.append(tuple(mutated))

    ways = hierarchy.llc_ways
    num_sets = hierarchy.llc_bytes // (ways * hierarchy.block_bytes)

    def replay() -> None:
        for upper_result, trace in stage1:
            policies = [
                MPPPBPolicy(num_sets, ways, MPPPBConfig(features=features))
                for features in candidates
            ]
            sim = BatchLLCSimulator(hierarchy.llc_bytes, ways, policies,
                                    hierarchy.block_bytes)
            sim.run(upper_result.llc_stream, pc_trace=trace.pcs,
                    warmup=len(upper_result.llc_stream) // 4)

    with _env("REPRO_STAGE2_KERNEL", "off"):
        python_s = _best_of(repeats, replay)
    c_s = None
    if available_backends()["c"]:
        with _env("REPRO_STAGE2_KERNEL", "auto"):
            replay()  # untimed: loads (or first builds) the library
            c_s = round(_best_of(repeats, replay), 6)
    return {
        "k": len(candidates),
        "segments": len(segments),
        "accesses": accesses,
        "python_s": round(python_s, 6),
        "c_s": c_s,
        "c_speedup": round(python_s / c_s, 3) if c_s else None,
    }


# -- Stage-3 timing model (scalar vs vectorized events) --------------------


def bench_timing(scale: ReproScale, benchmark: str,
                 repeats: int) -> Dict[str, Any]:
    """Time Stage 3 alone over one segment's real LRU outcomes.

    ``scalar_s`` runs the :func:`~repro.sim.single.demand_load_events`
    generator into :meth:`~repro.cpu.timing.TimingModel.simulate`;
    ``vector_s`` fills the shared numpy event skeleton
    (:func:`~repro.sim.single.demand_load_arrays`) and runs
    :meth:`~repro.cpu.timing.TimingModel.simulate_packed` — the
    steady-state per-policy cost, since the skeleton itself is built
    once per segment.  ``vector_s`` is ``None`` without numpy.
    """
    from repro.cpu.timing import TimingModel
    from repro.policies import policy_factory
    from repro.sim.llc import LLCSimulator
    from repro.sim import single
    from repro.sim.single import (
        build_stage3_events,
        demand_load_arrays,
        demand_load_events,
    )

    hierarchy = scale.hierarchy
    segment = build_segments(benchmark, hierarchy.llc_bytes,
                             scale.segment_accesses)[0]
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    upper = runner.upper_result(segment)
    trace = segment.trace
    warm_mem = int(len(trace.pcs) * scale.warmup_fraction)
    warm_llc = upper.llc_warmup_boundary(warm_mem)

    num_sets = hierarchy.llc_bytes // (hierarchy.llc_ways
                                       * hierarchy.block_bytes)
    policy = policy_factory("lru", None)(num_sets, hierarchy.llc_ways)
    sim = LLCSimulator(hierarchy.llc_bytes, hierarchy.llc_ways, policy,
                       hierarchy.block_bytes)
    outcomes = sim.run(upper.llc_stream, pc_trace=trace.pcs,
                       warmup=warm_llc).outcomes

    timing = runner.timing
    model = TimingModel(timing)
    measured_instr = upper.num_instructions - (
        upper.instr_indices[warm_mem] if warm_mem < len(trace.pcs) else 0
    )

    scalar_s = _best_of(repeats, lambda: model.simulate(
        demand_load_events(trace, upper, outcomes, timing,
                           start_mem=warm_mem),
        measured_instr,
    ))

    vector_s = loads = None
    if single._np is not None:
        events = build_stage3_events(trace, upper, timing,
                                     start_mem=warm_mem)
        loads = len(events.instr)

        def vector() -> None:
            instr, latencies, depends = demand_load_arrays(
                events, outcomes, timing)
            model.simulate_packed(instr, latencies, depends,
                                  measured_instr)

        vector_s = round(_best_of(repeats, vector), 6)
    return {
        "benchmark": benchmark,
        "loads": loads,
        "scalar_s": round(scalar_s, 6),
        "vector_s": vector_s,
        "speedup": (round(scalar_s / vector_s, 3)
                    if vector_s else None),
    }


# -- telemetry overhead (repro.obs disabled fast path) ---------------------


def bench_telemetry(scale: ReproScale, benchmark: str,
                    repeats: int) -> Dict[str, Any]:
    """Cost of the ``repro.obs`` instrumentation, on and off.

    ``disabled_s`` vs ``enabled_s`` time the same mpppb Stage-2/3
    replay (Stage 1 pre-seeded) with telemetry off and inside a fresh
    :func:`repro.obs.capture` context.  The instrumented code cannot be
    compared against an un-instrumented build, so the disabled-path
    cost is *estimated*: one disabled :func:`repro.obs.span` round trip
    is micro-timed (``null_span_ns``), multiplied by the span count an
    enabled replay actually emits, and divided by the disabled replay
    time.  That fraction — ``disabled_overhead`` — is what
    :func:`check_report` holds under :data:`TELEMETRY_DISABLED_BUDGET`.
    """
    from repro import obs

    hierarchy = scale.hierarchy
    segments = build_segments(benchmark, hierarchy.llc_bytes,
                              scale.segment_accesses)
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    for segment in segments:
        runner.upper_result(segment)

    def replay() -> None:
        # Kernel pinned off so both timings cover the *same* (fully
        # instrumented, sequential) replay loop — telemetry-on runs
        # always take that loop for its per-access observations.
        with _env("REPRO_STAGE2_KERNEL", "off"):
            for segment in segments:
                runner.run_segment(segment, policy_factory("mpppb-1a", None))

    obs.disable()
    disabled_s = _best_of(repeats, replay)

    spans_per_replay = 0
    obs.enable()
    try:
        def enabled_replay() -> None:
            with obs.capture():
                replay()
        enabled_s = _best_of(repeats, enabled_replay)
        with obs.capture() as ctx:
            replay()
        spans_per_replay = len(ctx.payload()["spans"])
    finally:
        obs.disable()

    calls = 200_000
    started = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench"):
            pass
    null_span_ns = (time.perf_counter() - started) / calls * 1e9

    disabled_overhead = (
        spans_per_replay * null_span_ns * 1e-9 / disabled_s
        if disabled_s > 0 else 0.0
    )
    return {
        "benchmark": benchmark,
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(enabled_s, 6),
        "enabled_overhead": round(enabled_s / disabled_s - 1.0, 4)
        if disabled_s > 0 else 0.0,
        "null_span_ns": round(null_span_ns, 1),
        "spans_per_replay": spans_per_replay,
        "disabled_overhead": round(disabled_overhead, 6),
    }


# -- end-to-end compare (cold vs warm artifact cache) ----------------------


def bench_compare(scale: ReproScale, benchmarks: Sequence[str],
                  policies: Sequence[str], cache_root: str,
                  repeats: int = 1) -> Dict[str, Any]:
    """Time a serial multi-policy compare, cold then artifact-warm.

    Both runs disable the *result* store (every cell computes) and
    clear the in-process segment/runner memos first, so the only
    difference between them is whether trace and Stage-1 artifacts are
    already on disk — exactly the state a fresh worker process or a
    second invocation sees.  The cold/warm pair repeats best-of-N
    (cache cleared between pairs) to keep the speedup ratio stable.
    """
    import shutil

    from repro.exec import runner as exec_runner
    from repro.exec.runner import ParallelRunner, SingleCell, TraceSpec

    def build_cells():
        return [
            SingleCell(
                trace=TraceSpec(name, scale.hierarchy.llc_bytes,
                                scale.segment_accesses),
                policy=policy,
                hierarchy=scale.hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for policy in policies for name in benchmarks
        ]

    def timed_run() -> float:
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        # No result store, artifacts only: the harness measures the
        # shared-stage cache, not result-blob reuse.
        engine.artifact_root = cache_root
        started = time.perf_counter()
        engine.run(build_cells(), label="perf")
        return time.perf_counter() - started

    cold_s = warm_s = float("inf")
    # Scheduler pinned off: this section isolates the artifact cache
    # itself; the planned path has its own bench (:func:`bench_graph`).
    with _env("REPRO_GRAPH", "off"):
        for attempt in range(max(1, repeats)):
            if attempt:
                shutil.rmtree(cache_root, ignore_errors=True)
                os.makedirs(cache_root, exist_ok=True)
            cold_s = min(cold_s, timed_run())
            warm_s = min(warm_s, timed_run())
    return {
        "benchmarks": list(benchmarks),
        "policies": list(policies),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 3) if warm_s > 0 else float("inf"),
    }


# -- experiment-graph scheduler (cold vs warm vs graph-scheduled) ----------


def bench_graph(scale: ReproScale, cache_root: str,
                policies: Sequence[str] = DEFAULT_POLICIES,
                benchmark: str = "gamess",
                repeats: int = 1) -> Dict[str, Any]:
    """Time one shared-trace compare with and without the scheduler.

    All ``policies`` replay the same benchmark, so the trace and every
    Stage-1 artifact are shared by every cell — the shape the graph
    scheduler exists for.  Four arms, all serial, all without a result
    store (cells always compute):

    * ``cold_s`` / ``warm_s`` — ``REPRO_GRAPH=off``; the unplanned
      artifact-cache baseline from an empty and a populated cache.
    * ``graph_cold_s`` / ``graph_warm_s`` — ``REPRO_GRAPH=on``; the
      cold arm pays planning plus the prelude wave, the warm arm pays
      planning on top of an all-loads plan.

    :func:`check_report` holds ``graph_warm_s`` within
    :data:`GRAPH_MAX_SLOWDOWN` of ``warm_s`` plus the fixed
    :data:`GRAPH_OVERHEAD_ALLOWANCE_S` planning allowance: the
    scheduler must not tax the already-cached path it cannot improve.
    """
    import shutil

    from repro.exec import runner as exec_runner
    from repro.exec.runner import ParallelRunner, SingleCell, TraceSpec

    def build_cells():
        return [
            SingleCell(
                trace=TraceSpec(benchmark, scale.hierarchy.llc_bytes,
                                scale.segment_accesses),
                policy=policy,
                hierarchy=scale.hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for policy in policies
        ]

    def timed_run() -> float:
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        engine.artifact_root = cache_root
        started = time.perf_counter()
        engine.run(build_cells(), label="perf-graph")
        return time.perf_counter() - started

    def reset_cache() -> None:
        shutil.rmtree(cache_root, ignore_errors=True)
        os.makedirs(cache_root, exist_ok=True)

    cold_s = warm_s = graph_cold_s = graph_warm_s = float("inf")
    for _ in range(max(1, repeats)):
        with _env("REPRO_GRAPH", "off"):
            reset_cache()
            cold_s = min(cold_s, timed_run())
            warm_s = min(warm_s, timed_run())
        with _env("REPRO_GRAPH", "on"):
            reset_cache()
            graph_cold_s = min(graph_cold_s, timed_run())
            graph_warm_s = min(graph_warm_s, timed_run())
    return {
        "benchmark": benchmark,
        "policies": list(policies),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "graph_cold_s": round(graph_cold_s, 6),
        "graph_warm_s": round(graph_warm_s, 6),
        "warm_speedup": (round(warm_s / graph_warm_s, 3)
                         if graph_warm_s > 0 else float("inf")),
    }


# -- streaming trace-decode throughput (repro.traces.ingest) ---------------


def bench_ingest(repeats: int, records: int = 50_000) -> Dict[str, Any]:
    """Streamed decode throughput for every real-trace reader.

    Writes one synthetic fixture per format (the text fixture is
    gzip'd, so that arm also pays decompression — the common case for
    real trace archives), then times a full streamed decode of each.
    The fixtures encode the *same* record sequence, so the per-format
    numbers are directly comparable.  :func:`check_report` holds every
    format above :data:`INGEST_MIN_RECORDS_PER_S`.
    """
    import gzip
    import struct
    import tempfile

    from repro.traces.ingest import open_source

    state = 0x2017
    rows = []
    for _ in range(records):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        rows.append((0x400 + 4 * (state % 251),
                     0x10000 + 64 * ((state >> 16) % 4096),
                     state % 5 == 0, state % 3, state % 11 == 0))

    formats: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        champsim = os.path.join(tmp, "fixture.bin")
        pack = struct.Struct("<QQIB3x").pack
        with open(champsim, "wb") as handle:
            for pc, addr, write, gap, dep in rows:
                handle.write(pack(pc, addr, gap,
                                  (1 if write else 0) | (2 if dep else 0)))

        text = os.path.join(tmp, "fixture.trace.gz")
        body = "\n".join(
            f"0x{pc:x} 0x{addr:x} {'w' if write else 'r'} {gap} "
            f"{1 if dep else 0}"
            for pc, addr, write, gap, dep in rows
        ) + "\n"
        with open(text, "wb") as handle:
            handle.write(gzip.compress(body.encode()))

        csv_path = os.path.join(tmp, "fixture.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write("pc,addr,is_write,gap,dep\n")
            for pc, addr, write, gap, dep in rows:
                handle.write(f"{pc},{addr},{1 if write else 0},{gap},"
                             f"{1 if dep else 0}\n")

        for fmt, path in (("champsim", champsim), ("text", text),
                          ("csv", csv_path)):
            def decode() -> None:
                count = sum(1 for _ in open_source(path, fmt).records())
                assert count == records

            decode_s = _best_of(repeats, decode)
            formats[fmt] = {
                "decode_s": round(decode_s, 6),
                "records_per_s": (round(records / decode_s, 1)
                                  if decode_s > 0 else float("inf")),
                "file_bytes": os.path.getsize(path),
            }
    return {"records": records, "formats": formats}


# -- distributed execution (local pool vs worker fleet) --------------------


def bench_dist(scale: ReproScale, cache_root: str,
               benchmarks: Sequence[str] = ("gamess", "hmmer"),
               policies: Sequence[str] = DEFAULT_POLICIES,
               repeats: int = 1, workers: int = 2) -> Dict[str, Any]:
    """Dispatch overhead of the worker-fleet backend vs the local pool.

    Both arms run the same artifact-warm compare (no result store —
    every cell computes; the artifact cache is pre-populated so the
    shared stages load) with ``workers`` slots; the only difference is
    the transport moving cells to workers.  ``fleet_startup_s``
    isolates the transport bring-up (spawn ``workers`` processes, wait
    for their hello handshakes, shut down), so the report separates
    the per-run fixed cost from the per-cell framing/pickle overhead
    the :data:`FLEET_MAX_SLOWDOWN` gate bounds.
    """
    from repro.exec import runner as exec_runner
    from repro.exec.backends import WorkerFleetBackend, worker_command
    from repro.exec.runner import ParallelRunner, SingleCell, TraceSpec

    def build_cells():
        return [
            SingleCell(
                trace=TraceSpec(name, scale.hierarchy.llc_bytes,
                                scale.segment_accesses),
                policy=policy,
                hierarchy=scale.hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for policy in policies for name in benchmarks
        ]

    def timed_run(backend: str) -> float:
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine = ParallelRunner(jobs=workers, store=None, verbose=False,
                                backend=backend)
        engine.artifact_root = cache_root
        started = time.perf_counter()
        engine.run(build_cells(), label="perf-dist")
        return time.perf_counter() - started

    def startup() -> None:
        backend = WorkerFleetBackend([worker_command()] * workers)
        backend.start()
        try:
            deadline = time.monotonic() + 60.0
            while (not all(worker.ready for worker in backend._fleet)
                   and time.monotonic() < deadline):
                backend.poll(timeout=0.1)
        finally:
            backend.close()

    fleet_startup_s = _best_of(repeats, startup)

    cells = len(build_cells())
    # Scheduler pinned off for arm symmetry with :func:`bench_compare`;
    # one untimed serial run materializes the artifact cache.
    with _env("REPRO_GRAPH", "off"):
        timed_run("local")  # artifact-cache warmup, untimed
        local_s = min(timed_run("local") for _ in range(max(1, repeats)))
        fleet_s = min(timed_run("fleet") for _ in range(max(1, repeats)))
        # Liveness arm: the same fleet run with worker heartbeats on
        # (DESIGN.md §16).  Recorded, never gated — the headline
        # FLEET_MAX_SLOWDOWN promise covers the *default* path, where
        # heartbeats are off and cost exactly nothing; this arm tracks
        # what turning them on adds (a per-interval frame write plus a
        # bounded parent poll quantum).
        with _env("REPRO_HEARTBEAT", "0.5"):
            fleet_hb_s = min(timed_run("fleet")
                             for _ in range(max(1, repeats)))

    dispatch = fleet_s - fleet_startup_s - local_s
    return {
        "benchmarks": list(benchmarks),
        "policies": list(policies),
        "workers": workers,
        "cells": cells,
        "fleet_startup_s": round(fleet_startup_s, 6),
        "local_s": round(local_s, 6),
        "fleet_s": round(fleet_s, 6),
        "fleet_heartbeat_s": round(fleet_hb_s, 6),
        "heartbeat_overhead_s": round(fleet_hb_s - fleet_s, 6),
        "dispatch_overhead_s": round(dispatch, 6),
        "per_cell_overhead_s": round(dispatch / cells, 6) if cells else 0.0,
    }


# -- report ----------------------------------------------------------------


def build_report(scale_name: str = "", benchmark: str = "soplex",
                 benchmarks: Sequence[str] = DEFAULT_COMPARE_BENCHMARKS,
                 policies: Sequence[str] = DEFAULT_POLICIES,
                 repeats: int = 3,
                 cache_root: Optional[str] = None) -> Dict[str, Any]:
    """Run the full harness; returns the report payload."""
    import tempfile

    from repro.sim.kernel import native_error

    scale = get_scale(scale_name)
    error = native_error()
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "scale": scale.name,
        "benchmark": benchmark,
        "accesses": scale.segment_accesses,
        "repeats": repeats,
        "backends": {"c": {"available": error is None, "error": error}},
        "hotpath": bench_hotpath(scale, benchmark, policies, repeats),
        "kernel": bench_kernel(scale, repeats),
        "timing": bench_timing(scale, benchmark, repeats),
        "telemetry": bench_telemetry(scale, benchmark, repeats),
        "ingest": bench_ingest(repeats),
    }
    if cache_root is None:
        with tempfile.TemporaryDirectory() as tmp:
            report["compare"] = bench_compare(scale, benchmarks, policies,
                                              tmp, repeats=repeats)
            report["graph"] = bench_graph(scale, tmp, policies,
                                          repeats=repeats)
            report["dist"] = bench_dist(scale, tmp, policies=policies,
                                        repeats=repeats)
    else:
        report["compare"] = bench_compare(scale, benchmarks, policies,
                                          cache_root, repeats=repeats)
        report["graph"] = bench_graph(scale, cache_root, policies,
                                      repeats=repeats)
        report["dist"] = bench_dist(scale, cache_root, policies=policies,
                                    repeats=repeats)
    return report


def check_report(report: Dict[str, Any],
                 tolerance: float = 1.0) -> List[str]:
    """Regression gate on the report's strength reductions.

    * The C kernel must beat the per-candidate reference replay by at
      least :data:`KERNEL_MIN_SPEEDUP` on the Stage-2 replay (skipped
      when the kernel cannot be built on the host).
    * Telemetry must respect both budgets: the disabled path under
      :data:`TELEMETRY_DISABLED_BUDGET`, the fully enabled replay
      under :data:`TELEMETRY_ENABLED_BUDGET` overhead.
    * Every streaming trace reader must decode at least
      :data:`INGEST_MIN_RECORDS_PER_S` records per second.
    * The graph-scheduled warm compare must stay within
      :data:`GRAPH_MAX_SLOWDOWN` of the unplanned warm path plus the
      fixed :data:`GRAPH_OVERHEAD_ALLOWANCE_S` planning allowance.
    * The worker-fleet backend must keep an artifact-warm compare
      within :data:`FLEET_MAX_SLOWDOWN` of the local pool, after the
      measured transport startup plus the fixed
      :data:`FLEET_STARTUP_ALLOWANCE_S` worker-import allowance.

    Returns a list of failure messages (empty = pass).
    """
    failures: List[str] = []
    kernel = report.get("kernel")
    if kernel is not None and kernel.get("c_s"):
        python_s, c_s = kernel["python_s"], kernel["c_s"]
        if c_s * KERNEL_MIN_SPEEDUP > python_s * tolerance:
            failures.append(
                f"kernel: C Stage-2 replay {c_s:.4f}s is only "
                f"{python_s / c_s:.2f}x over the reference "
                f"replay {python_s:.4f}s (required "
                f"{KERNEL_MIN_SPEEDUP:.1f}x, tolerance x{tolerance})"
            )
    telemetry = report.get("telemetry")
    if telemetry is not None:
        overhead = telemetry["disabled_overhead"]
        if overhead > TELEMETRY_DISABLED_BUDGET:
            failures.append(
                f"telemetry: disabled-path instrumentation costs "
                f"{overhead:.2%} of a Stage-2 replay "
                f"(budget {TELEMETRY_DISABLED_BUDGET:.0%})"
            )
        enabled = telemetry.get("enabled_overhead")
        if (enabled is not None
                and enabled > TELEMETRY_ENABLED_BUDGET * tolerance):
            failures.append(
                f"telemetry: enabled-path overhead {enabled:.2%} over "
                f"the uninstrumented replay (budget "
                f"{TELEMETRY_ENABLED_BUDGET:.0%}, tolerance x{tolerance})"
            )
    ingest = report.get("ingest")
    if ingest is not None:
        for fmt, stats in sorted(ingest["formats"].items()):
            rate = stats["records_per_s"]
            if rate * tolerance < INGEST_MIN_RECORDS_PER_S:
                failures.append(
                    f"ingest: {fmt} decode {rate:,.0f} records/s under "
                    f"the {INGEST_MIN_RECORDS_PER_S:,.0f} floor "
                    f"(tolerance x{tolerance})"
                )
    graph = report.get("graph")
    if graph is not None:
        warm, graph_warm = graph["warm_s"], graph["graph_warm_s"]
        budget = (warm * GRAPH_MAX_SLOWDOWN + GRAPH_OVERHEAD_ALLOWANCE_S)
        if graph_warm > budget * tolerance:
            failures.append(
                f"graph: scheduled warm compare {graph_warm:.4f}s slower "
                f"than unplanned warm {warm:.4f}s (allowed "
                f"x{GRAPH_MAX_SLOWDOWN} + "
                f"{GRAPH_OVERHEAD_ALLOWANCE_S * 1e3:.0f}ms fixed, "
                f"tolerance x{tolerance})"
            )
    dist = report.get("dist")
    if dist is not None:
        local_s, fleet_s = dist["local_s"], dist["fleet_s"]
        budget = (local_s * FLEET_MAX_SLOWDOWN + dist["fleet_startup_s"]
                  + FLEET_STARTUP_ALLOWANCE_S)
        if fleet_s > budget * tolerance:
            failures.append(
                f"dist: fleet compare {fleet_s:.4f}s slower than local "
                f"pool {local_s:.4f}s (allowed x{FLEET_MAX_SLOWDOWN} + "
                f"{dist['fleet_startup_s']:.3f}s startup + "
                f"{FLEET_STARTUP_ALLOWANCE_S:.1f}s import allowance, "
                f"tolerance x{tolerance})"
            )
    return failures


def format_report(report: Dict[str, Any]) -> str:
    hot = report["hotpath"]
    lines = [
        f"perf[{report['scale']}] {report['benchmark']} "
        f"({report['accesses']} accesses, best of {report['repeats']})",
        f"  trace gen {hot['trace_gen_s']:8.4f}s   "
        f"stage 1 {hot['stage1_s']:8.4f}s",
    ]
    for policy, seconds in hot["stage2"].items():
        lines.append(f"  stage 2 {policy:12s} {seconds:8.4f}s")
    kernel = report.get("kernel")
    if kernel is not None:
        parts = [f"reference {kernel['python_s']:.4f}s"]
        if kernel.get("c_s") is not None:
            parts.append(f"c {kernel['c_s']:.4f}s "
                         f"({kernel['c_speedup']:.2f}x)")
        else:
            parts.append("c n/a")
        lines.append(
            f"  kernel  {kernel['k']} candidates x {kernel['segments']} "
            f"segments: " + "  ".join(parts)
        )
    stage3 = report.get("timing")
    if stage3 is not None:
        if stage3["vector_s"] is not None:
            lines.append(
                f"  stage 3 {stage3['benchmark']:12s} "
                f"scalar {stage3['scalar_s']:8.4f}s   "
                f"vector {stage3['vector_s']:8.4f}s   "
                f"({stage3['speedup']:.2f}x)"
            )
        else:
            lines.append(
                f"  stage 3 {stage3['benchmark']:12s} "
                f"scalar {stage3['scalar_s']:8.4f}s   (numpy unavailable)"
            )
    telemetry = report.get("telemetry")
    if telemetry is not None:
        lines.append(
            f"  obs     {telemetry['benchmark']:12s} "
            f"off {telemetry['disabled_s']:8.4f}s   "
            f"on {telemetry['enabled_s']:9.4f}s   "
            f"(off-path {telemetry['disabled_overhead']:.2%}, "
            f"null span {telemetry['null_span_ns']:.0f}ns)"
        )
    ingest = report.get("ingest")
    if ingest is not None:
        rates = "  ".join(
            f"{fmt} {ingest['formats'][fmt]['records_per_s'] / 1e3:.0f}k/s"
            for fmt in sorted(ingest["formats"])
        )
        lines.append(
            f"  ingest  {ingest['records']} records: {rates}"
        )
    cmp_ = report["compare"]
    lines.append(
        f"  compare {len(cmp_['policies'])} policies x "
        f"{len(cmp_['benchmarks'])} benchmarks: "
        f"cold {cmp_['cold_s']:.3f}s  warm {cmp_['warm_s']:.3f}s  "
        f"({cmp_['speedup']:.2f}x with warm artifacts)"
    )
    graph = report.get("graph")
    if graph is not None:
        lines.append(
            f"  graph   {len(graph['policies'])} policies x "
            f"{graph['benchmark']}: "
            f"cold {graph['cold_s']:.3f}s/"
            f"{graph['graph_cold_s']:.3f}s  "
            f"warm {graph['warm_s']:.3f}s/"
            f"{graph['graph_warm_s']:.3f}s  "
            f"(unplanned/scheduled, warm x{graph['warm_speedup']:.2f})"
        )
    dist = report.get("dist")
    if dist is not None:
        lines.append(
            f"  dist    {dist['cells']} cells x {dist['workers']} workers: "
            f"local {dist['local_s']:.3f}s  fleet {dist['fleet_s']:.3f}s  "
            f"(startup {dist['fleet_startup_s']:.3f}s, "
            f"{dist['per_cell_overhead_s'] * 1e3:+.1f}ms/cell dispatch)"
        )
    return "\n".join(lines)


def write_report(report: Dict[str, Any],
                 path: str = DEFAULT_REPORT) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
