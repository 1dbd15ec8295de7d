"""Single-thread simulation runner (Sections 4.2, 4.5, 6.2).

Ties the three pipeline stages together for one core:

1. Stage 1 (upper levels) runs once per workload segment and is cached
   across policies — the LLC access stream is policy invariant.
2. Stage 2 replays the stream against the policy under test.
3. Stage 3 converts per-access latencies into IPC.

Per-benchmark figures are the weighted average of the benchmark's
segments (the paper's SimPoint weighting); speedups are reported
relative to LRU and summarized by geometric mean.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:  # numpy backs the vectorized Stage-3 event builder; without it
    # Stage 3 runs the scalar demand_load_events generator.
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

from repro import obs
from repro.cache.replacement.base import ReplacementPolicy
from repro.core.mpppb import MPPPBConfig
from repro.cpu.timing import TimingConfig, TimingModel
from repro.sim.hierarchy import (
    SERVICE_L1,
    SERVICE_L2,
    HierarchyConfig,
    UpperLevelResult,
    UpperLevels,
)
from repro.sim.llc import LLCResult, LLCSimulator
from repro.traces.trace import Segment, Trace
from repro.util.stats import mpki as mpki_of

PolicyFactory = Callable[[int, int], ReplacementPolicy]


@dataclass(frozen=True)
class SegmentResult:
    """Measured metrics for one policy on one workload segment."""

    segment_name: str
    weight: float
    ipc: float
    mpki: float
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    llc_bypasses: int
    demand_misses: int
    instructions: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the on-disk result cache (``repro.exec``)."""
        return asdict(self)

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "SegmentResult":
        return SegmentResult(**payload)


@dataclass(frozen=True)
class BenchmarkResult:
    """Weighted aggregate over a benchmark's segments (Section 4.2)."""

    benchmark: str
    segments: Tuple[SegmentResult, ...]

    def _total_weight(self) -> float:
        total_weight = sum(s.weight for s in self.segments)
        if not self.segments or total_weight <= 0:
            raise ValueError(
                f"benchmark {self.benchmark!r} has no weighted segments "
                f"to aggregate (segments={len(self.segments)}, "
                f"total weight={total_weight})"
            )
        return total_weight

    @property
    def ipc(self) -> float:
        total_weight = self._total_weight()
        return sum(s.ipc * s.weight for s in self.segments) / total_weight

    @property
    def mpki(self) -> float:
        total_weight = self._total_weight()
        return sum(s.mpki * s.weight for s in self.segments) / total_weight

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the on-disk result cache (``repro.exec``)."""
        return {
            "benchmark": self.benchmark,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "BenchmarkResult":
        return BenchmarkResult(
            benchmark=payload["benchmark"],
            segments=tuple(SegmentResult.from_dict(segment)
                           for segment in payload["segments"]),
        )


def demand_load_events(
    trace: Trace,
    upper: UpperLevelResult,
    outcomes: Sequence[bool],
    timing: TimingConfig,
    start_mem: int = 0,
) -> Iterable[Tuple[int, int, bool]]:
    """Yield ``(instr_index, latency, depends)`` per measured demand load.

    ``instr_index`` is relative to the first measured instruction,
    ``latency`` comes from the level that serviced the load, and
    ``depends`` flags loads address-dependent on the previous load
    (pointer chasing), which the timing model serializes.  Stores are
    non-blocking (no timing event); prefetch LLC accesses are not
    instructions and never appear here — their effect is already
    folded into the service levels.

    This generator is the reference for :func:`build_stage3_events` /
    :func:`demand_load_arrays`, and the Stage-3 path without numpy.
    """
    l1, l2 = timing.l1_latency, timing.l2_latency
    llc_hit, llc_miss = timing.llc_latency, timing.llc_miss_latency
    base_instr = upper.instr_indices[start_mem] if start_mem < len(trace.pcs) else 0
    writes = trace.writes
    deps = trace.deps
    service = upper.service
    instr_indices = upper.instr_indices
    for mem_index in range(start_mem, len(trace.pcs)):
        if writes[mem_index]:
            continue
        level = service[mem_index]
        if level == SERVICE_L1:
            latency = l1
        elif level == SERVICE_L2:
            latency = l2
        else:
            latency = llc_hit if outcomes[level] else llc_miss
        yield instr_indices[mem_index] - base_instr, latency, deps[mem_index]


@dataclass
class Stage3Events:
    """Candidate-invariant skeleton of a segment's demand-load events.

    Everything here depends only on the trace and the Stage-1 result:
    the measured demand loads' relative instruction indices, their
    dependence flags, base latencies for L1/L2-serviced loads, and the
    positions/stream indices of LLC-serviced loads whose latency is
    decided per policy by the Stage-2 outcomes.  Built once per
    (segment, warmup) and reused for every candidate — K policies pay
    one numpy fill each instead of K full Python event loops.
    """

    instr: List[int]
    depends: List[bool]
    base_latencies: Any   # numpy int64 array, one entry per load event
    llc_positions: Any    # numpy indices into the event order
    llc_stream_idx: Any   # matching indices into the LLC outcome list


def build_stage3_events(
    trace: Trace,
    upper: UpperLevelResult,
    timing: TimingConfig,
    start_mem: int = 0,
) -> Stage3Events:
    """Vectorized equivalent of :func:`demand_load_events`' static part."""
    service = _np.asarray(upper.service[start_mem:], dtype=_np.int64)
    loads = ~_np.asarray(trace.writes[start_mem:], dtype=bool)
    service = service[loads]
    base_instr = (upper.instr_indices[start_mem]
                  if start_mem < len(trace.pcs) else 0)
    instr = _np.asarray(upper.instr_indices[start_mem:],
                        dtype=_np.int64)[loads] - base_instr
    depends = _np.asarray(trace.deps[start_mem:], dtype=bool)[loads]
    latencies = _np.full(len(service), timing.l1_latency, dtype=_np.int64)
    latencies[service == SERVICE_L2] = timing.l2_latency
    llc_positions = _np.nonzero(service >= 0)[0]
    return Stage3Events(
        instr=instr.tolist(),
        depends=depends.tolist(),
        base_latencies=latencies,
        llc_positions=llc_positions,
        llc_stream_idx=service[llc_positions],
    )


def demand_load_arrays(
    events: Stage3Events,
    outcomes: Sequence[bool],
    timing: TimingConfig,
) -> Tuple[List[int], List[int], List[bool]]:
    """Fill a policy's LLC latencies into the shared event skeleton.

    Returns ``(instr_indices, latencies, depends)`` columns for
    :meth:`~repro.cpu.timing.TimingModel.simulate_packed`, equal
    element for element to iterating :func:`demand_load_events`.
    """
    latencies = events.base_latencies.copy()
    hits = _np.asarray(outcomes, dtype=bool)[events.llc_stream_idx]
    latencies[events.llc_positions] = _np.where(
        hits, timing.llc_latency, timing.llc_miss_latency)
    return events.instr, latencies.tolist(), events.depends


def replay_segment(
    llc_bytes: int,
    ways: int,
    policy: ReplacementPolicy,
    block_bytes: int,
    llc_stream: Sequence,
    pcs: Sequence[int],
    warmup: int,
) -> LLCResult:
    """Stage-2 replay of one stream against one policy.

    MPPPB policies route through a single-candidate
    :class:`~repro.sim.batch.BatchLLCSimulator` when the columnar
    kernel is active (``REPRO_STAGE2_KERNEL`` != off), so compare and
    mix runs ride the kernel exactly like the batched search path; a
    fresh simulator per segment makes this equivalent to
    :class:`LLCSimulator` bit for bit (both start from cold
    last-miss/ cache state).  Everything else — and the kernel-off
    mode — uses the sequential simulator unchanged.

    Instrumented runs (telemetry enabled) also stay on the sequential
    simulator: it observes per-access detail — e.g. the MPPPB
    confidence histogram — that the C kernel does not record.
    Results are bit-identical either way; only the emitted telemetry
    is richer.
    """
    from repro.core.mpppb import MPPPBPolicy

    if isinstance(policy, MPPPBPolicy) and not obs.enabled():
        from repro.sim.kernel import stage2_kernel_backend

        if stage2_kernel_backend() != "off":
            from repro.sim.batch import BatchLLCSimulator

            sim = BatchLLCSimulator(llc_bytes, ways, [policy], block_bytes)
            return sim.run(llc_stream, pc_trace=pcs, warmup=warmup)[0]
    sim = LLCSimulator(llc_bytes, ways, policy, block_bytes)
    return sim.run(llc_stream, pc_trace=pcs, warmup=warmup)


class SingleThreadRunner:
    """Runs policies over workload segments with stage-1 caching."""

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        timing: Optional[TimingConfig] = None,
        prefetch: bool = True,
        warmup_fraction: float = 0.25,
        stage1_store: Optional[Any] = None,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.hierarchy = hierarchy
        self.timing = timing or TimingConfig()
        self.prefetch = prefetch
        self.warmup_fraction = warmup_fraction
        self.stage1_store = stage1_store
        self._upper = UpperLevels(hierarchy, prefetch=prefetch)
        self._stage1_cache: Dict[str, UpperLevelResult] = {}
        # Candidate-invariant Stage-3 event skeletons, keyed by segment
        # name (warmup fraction and timing are fixed per runner).
        self._stage3_cache: Dict[str, Stage3Events] = {}

    # -- stage 1 ----------------------------------------------------------

    def upper_result(self, segment: Segment) -> UpperLevelResult:
        """Stage-1 result for a segment, computed once and memoized.

        With a ``stage1_store`` attached (an on-disk artifact adapter,
        see :class:`repro.exec.artifacts.Stage1ArtifactStore`), results
        are shared across processes and sessions; the in-memory memo
        still guarantees one (de)serialization per segment per runner.
        """
        # The span wraps the whole lookup — memo hits included — so a
        # run's span *set* is identical whether this process computed
        # the result, loaded it from the artifact store, or had it
        # memoized already (only the durations differ).
        with obs.span("stage1"):
            cached = self._stage1_cache.get(segment.name)
            if cached is None:
                store = self.stage1_store
                if store is not None:
                    cached = store.load(segment)
                if cached is None:
                    cached = self._upper.run(segment.trace)
                    if store is not None:
                        store.save(segment, cached)
                self._stage1_cache[segment.name] = cached
        return cached

    def prime_segments(self, segments: Sequence[Segment]
                       ) -> List[Tuple[str, int, float]]:
        """Materialize Stage-1 results for ``segments`` ahead of replay.

        The graph scheduler's prelude tasks call this so a node shared
        by K cells is computed (and stored) exactly once before the
        cell wave fans out.  Returns ``(name, accesses, seconds)`` for
        each segment that was genuinely *computed* — store and memo
        hits are skipped — which is the measured compute-cost sample
        the scheduler's cost model refines on.  Same lookup order and
        span as :meth:`upper_result`, so priming never changes results
        or the emitted span set shape.
        """
        computed: List[Tuple[str, int, float]] = []
        for segment in segments:
            with obs.span("stage1"):
                if segment.name in self._stage1_cache:
                    continue
                store = self.stage1_store
                cached = store.load(segment) if store is not None else None
                if cached is None:
                    started = time.perf_counter()
                    cached = self._upper.run(segment.trace)
                    seconds = time.perf_counter() - started
                    if store is not None:
                        store.save(segment, cached)
                    computed.append((segment.name, len(segment.trace.pcs),
                                     seconds))
                self._stage1_cache[segment.name] = cached
        return computed

    # -- stages 2 + 3 ----------------------------------------------------

    def run_segment(
        self, segment: Segment, policy_factory: PolicyFactory
    ) -> SegmentResult:
        upper = self.upper_result(segment)
        trace = segment.trace
        warm_mem = int(len(trace.pcs) * self.warmup_fraction)
        warm_llc = upper.llc_warmup_boundary(warm_mem)

        llc_bytes = self.hierarchy.llc_bytes
        ways = self.hierarchy.llc_ways
        num_sets = llc_bytes // (ways * self.hierarchy.block_bytes)
        policy = policy_factory(num_sets, ways)
        with obs.span("stage2"):
            llc = replay_segment(llc_bytes, ways, policy,
                                 self.hierarchy.block_bytes,
                                 upper.llc_stream, trace.pcs, warm_llc)
        return self._finish_segment(segment, upper, llc, warm_mem)

    def run_segment_batch(
        self, segment: Segment, configs: Sequence[MPPPBConfig]
    ) -> List[SegmentResult]:
        """Stage 2+3 for K MPPPB candidates over one shared Stage-1 result.

        Equivalent to K :meth:`run_segment` calls with MPPPB factories
        (same results, bit for bit) but the stream decode and
        candidate-invariant per-access context are paid once; see
        :class:`repro.sim.batch.BatchLLCSimulator`.
        """
        from repro.core.mpppb import MPPPBPolicy
        from repro.sim.batch import BatchLLCSimulator

        upper = self.upper_result(segment)
        trace = segment.trace
        warm_mem = int(len(trace.pcs) * self.warmup_fraction)
        warm_llc = upper.llc_warmup_boundary(warm_mem)

        llc_bytes = self.hierarchy.llc_bytes
        ways = self.hierarchy.llc_ways
        num_sets = llc_bytes // (ways * self.hierarchy.block_bytes)
        policies = [MPPPBPolicy(num_sets, ways, config) for config in configs]
        sim = BatchLLCSimulator(llc_bytes, ways, policies,
                                self.hierarchy.block_bytes)
        with obs.span("stage2"):
            replays = sim.run(upper.llc_stream, pc_trace=trace.pcs,
                              warmup=warm_llc)
        return [
            self._finish_segment(segment, upper, llc, warm_mem)
            for llc in replays
        ]

    def _stage3_events(self, segment: Segment, upper: UpperLevelResult,
                       warm_mem: int) -> Stage3Events:
        events = self._stage3_cache.get(segment.name)
        if events is None:
            events = build_stage3_events(segment.trace, upper, self.timing,
                                         start_mem=warm_mem)
            self._stage3_cache[segment.name] = events
        return events

    def _finish_segment(self, segment: Segment, upper: UpperLevelResult,
                        llc: LLCResult, warm_mem: int) -> SegmentResult:
        """Stage 3 + metric assembly shared by both Stage-2 paths."""
        trace = segment.trace
        measured_instr = upper.num_instructions - (
            upper.instr_indices[warm_mem] if warm_mem < len(trace.pcs) else 0
        )
        model = TimingModel(self.timing)
        with obs.span("stage3-timing"):
            if _np is not None:
                instr, latencies, depends = demand_load_arrays(
                    self._stage3_events(segment, upper, warm_mem),
                    llc.outcomes, self.timing,
                )
                timing_result = model.simulate_packed(
                    instr, latencies, depends, measured_instr)
            else:
                events = demand_load_events(
                    trace, upper, llc.outcomes, self.timing,
                    start_mem=warm_mem
                )
                timing_result = model.simulate(events, measured_instr)
        return SegmentResult(
            segment_name=segment.name,
            weight=segment.weight,
            ipc=timing_result.ipc,
            mpki=mpki_of(llc.stats.demand_misses, measured_instr),
            llc_accesses=llc.stats.accesses,
            llc_hits=llc.stats.hits,
            llc_misses=llc.stats.misses,
            llc_bypasses=llc.stats.bypasses,
            demand_misses=llc.stats.demand_misses,
            instructions=measured_instr,
        )

    def run_benchmark(
        self, name: str, segments: Sequence[Segment], policy_factory: PolicyFactory
    ) -> BenchmarkResult:
        results = tuple(self.run_segment(s, policy_factory) for s in segments)
        return BenchmarkResult(benchmark=name, segments=results)

    def run_suite(
        self,
        suite: Dict[str, Sequence[Segment]],
        policy_factory: PolicyFactory,
    ) -> Dict[str, BenchmarkResult]:
        return {
            name: self.run_benchmark(name, segments, policy_factory)
            for name, segments in sorted(suite.items())
        }


def cross_validated_configs(suite_names: Sequence[str]):
    """Assign each benchmark the Table 1 feature set trained on the
    *other* half of the suite, mirroring the paper's cross-validation
    (Section 5.2): the first half of the alphabetized suite evaluates
    with set (b), the second half with set (a).
    """
    from repro.core.presets import single_thread_config

    ordered = sorted(suite_names)
    half = len(ordered) // 2
    assignment = {}
    for index, name in enumerate(ordered):
        table = "b" if index < half else "a"
        assignment[name] = single_thread_config(table)
    return assignment


def speedups_over_lru(
    results: Dict[str, BenchmarkResult], lru_results: Dict[str, BenchmarkResult]
) -> Dict[str, float]:
    """Per-benchmark IPC ratio versus the LRU baseline (Section 4.5)."""
    return {
        name: results[name].ipc / lru_results[name].ipc
        for name in sorted(results)
        if name in lru_results
    }
