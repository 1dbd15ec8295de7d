"""Parallel experiment engine: fan independent cells across processes.

The unit of work is a *cell* — a self-describing, picklable recipe for
one experiment whose result depends only on its fields:

* :class:`SingleCell` — one (benchmark, policy) single-thread run,
  producing a :class:`~repro.sim.single.BenchmarkResult`;
* :class:`MixCell` — one (mix, policy) multi-programmed replay,
  producing a :class:`~repro.sim.multi.MixResult`;
* :class:`SearchCell` — one feature-set candidate evaluation,
  producing its average MPKI (a float).

Cells carry trace *recipes* (:class:`TraceSpec` / :class:`SuiteSpec`)
rather than materialized traces: the synthetic workload generators are
deterministic, so workers rebuild identical segments from a few
integers instead of unpickling megabytes per task.  Worker processes
memoize built segments and runners, so stage-1 (upper-level hierarchy)
results are shared across the cells each worker executes — the same
reuse the in-process runners perform today.

:class:`ParallelRunner` consults the on-disk
:class:`~repro.exec.store.ResultStore` before computing, fans cache
misses across a ``ProcessPoolExecutor`` when ``jobs > 1``, and falls
back to in-process serial execution (bit-identical: same entry points,
same deterministic seeding) when ``jobs == 1``.  ``REPRO_JOBS`` and
``REPRO_CACHE_DIR`` configure the defaults; ``REPRO_JOBS=0`` means one
worker per CPU and ``REPRO_CACHE_DIR=off`` disables the disk cache.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.traces
    from repro.traces.ingest.spec import IngestSpec

from repro.core.features import Feature
from repro.core.mpppb import MPPPBConfig
from repro.cpu.timing import TimingConfig
from repro.exec.cachekey import (
    SCHEMA_VERSION,
    hierarchy_payload,
    mpppb_payload,
    policy_payload,
    stable_hash,
    task_seed,
    timing_payload,
)
from repro.exec.artifacts import ArtifactCache, ingest_scope, scope_payload
from repro.exec.faults import (
    CellExecutionError,
    CellFailure,
    ConfigError,
    active_plan,
    corrupt_result_blob,
    make_failure,
)
from repro.exec.manifest import RunManifest
from repro.exec.pool import (
    FRAME_LOST,
    FRAME_OK,
    BackendUnavailable,
    LocalPoolBackend,
)
from repro.exec.progress import CellOutcome, ExecReport
from repro import obs
from repro.obs.events import (
    counter_event,
    hist_event,
    run_event,
    span_event,
    write_events,
)
from repro.exec.store import (
    DEFAULT_CACHE_DIR,
    DISABLED_SENTINELS,
    ResultStore,
)
from repro.graph import CostModel, graph_enabled, plan_cells
from repro.policies import policy_factory
from repro.search.evaluator import FeatureSetEvaluator
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.multi import MixResult, MultiProgrammedRunner
from repro.sim.single import BenchmarkResult, SingleThreadRunner
from repro.traces.mixes import Mix
from repro.traces.trace import Segment
from repro.traces.workloads import benchmark_names, build_segments


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_JOBS``, else 1.

    ``0`` (or any negative value) means "one worker per CPU".
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {raw!r}") from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def resolve_on_error(on_error: Optional[str] = None) -> str:
    """Failure mode: explicit value, else ``REPRO_ON_ERROR``, else collect."""
    value = (on_error if on_error is not None
             else os.environ.get("REPRO_ON_ERROR", "")) or "collect"
    value = value.lower()
    if value not in ("collect", "raise"):
        raise ConfigError(
            f"on-error mode must be 'collect' or 'raise', got {value!r} "
            f"(--on-error / REPRO_ON_ERROR)")
    return value


def resolve_retries(retries: Optional[int] = None) -> int:
    """Per-cell retry budget: explicit, else ``REPRO_RETRIES``, else 0."""
    if retries is None:
        raw = os.environ.get("REPRO_RETRIES", "") or "0"
        try:
            retries = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_RETRIES must be an integer, got {raw!r}") from None
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    return retries


def resolve_cell_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Watchdog seconds per cell: explicit, else ``REPRO_CELL_TIMEOUT``.

    ``None``, empty, ``0``, or a disable sentinel means no timeout.
    """
    if timeout is None:
        raw = (os.environ.get("REPRO_CELL_TIMEOUT", "") or "").strip().lower()
        if not raw or raw in DISABLED_SENTINELS:
            return None
        try:
            timeout = float(raw)
        except ValueError:
            raise ConfigError(
                "REPRO_CELL_TIMEOUT must be a number of seconds, got "
                f"{raw!r}") from None
    return timeout if timeout > 0 else None


def resolve_retry_backoff() -> float:
    """Base delay for exponential retry backoff (``REPRO_RETRY_BACKOFF``)."""
    raw = os.environ.get("REPRO_RETRY_BACKOFF", "")
    if not raw:
        return 0.05
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            "REPRO_RETRY_BACKOFF must be a number of seconds, got "
            f"{raw!r}") from None
    return max(0.0, value)


def default_store() -> Optional[ResultStore]:
    """Store configured by ``REPRO_CACHE_DIR`` (default ``.repro-cache``)."""
    raw = os.environ.get("REPRO_CACHE_DIR", "")
    if raw.lower() in DISABLED_SENTINELS:
        return None
    return ResultStore(raw or DEFAULT_CACHE_DIR)


def resolve_store(cache_dir: str = "") -> Optional[ResultStore]:
    """Store from a CLI-style ``--cache-dir`` value.

    Empty defers to ``REPRO_CACHE_DIR``; the sentinel values ``off`` /
    ``none`` / ``0`` disable caching.
    """
    if cache_dir and cache_dir.lower() in DISABLED_SENTINELS:
        return None
    if cache_dir:
        return ResultStore(cache_dir)
    return default_store()


def _verbose_default() -> bool:
    return os.environ.get("REPRO_EXEC_VERBOSE", "").lower() in ("1", "true", "yes")


# -- trace recipes ---------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """Deterministic recipe for one workload's weighted segments.

    Synthetic benchmarks are generated from (benchmark, LLC sizing,
    access budget, seed).  When ``ingest`` is set the workload is a
    real trace file instead: the segments come from the streamed decode
    window and every key derives from the file's content digest — the
    synthesis fields are ignored.
    """

    benchmark: str
    llc_bytes: int
    accesses: int
    seed: int = 2017
    ingest: Optional[IngestSpec] = None

    def payload(self) -> Dict[str, Any]:
        if self.ingest is not None:
            return {
                "benchmark": self.benchmark,
                "ingest": self.ingest.payload(),
            }
        return {
            "benchmark": self.benchmark,
            "llc_bytes": self.llc_bytes,
            "accesses": self.accesses,
            "seed": self.seed,
        }

    def scope(self) -> Tuple:
        """Key for runner reuse: specs differing only by benchmark may
        safely share a runner's per-segment caches (segment names embed
        the benchmark name)."""
        if self.ingest is not None:
            return (self.llc_bytes, self.accesses, self.seed,
                    ["ingest", self.ingest.digest, self.ingest.format,
                     self.ingest.skip, self.ingest.accesses,
                     self.ingest.segments, list(self.ingest.weights)])
        return (self.llc_bytes, self.accesses, self.seed)

    def stage1_scope(self) -> Dict[str, Any]:
        """Stage-1 artifact scope for this workload's segments."""
        if self.ingest is not None:
            return ingest_scope(self.ingest.payload())
        return scope_payload(self.llc_bytes, self.accesses, self.seed)

    def segment_names(self) -> List[str]:
        """Static segment names (no trace build) for the graph planner."""
        if self.ingest is not None:
            return self.ingest.segment_names()
        from repro.traces.workloads import segment_names
        return segment_names(self.benchmark)

    def build(self) -> List[Segment]:
        if self.ingest is not None:
            return self.ingest.build()
        return build_segments(self.benchmark, self.llc_bytes, self.accesses,
                              self.seed)


@dataclass(frozen=True)
class SuiteSpec:
    """Deterministic recipe for a multi-benchmark segment pool.

    ``ingest`` entries merge real-trace workloads into the pool: the
    suite iterates all workloads — synthetic names and ingested names
    together — in one sorted order, exactly as :func:`~repro.traces.
    workloads.all_segments` sorts the synthetic suite.
    """

    llc_bytes: int
    accesses: int
    seed: int = 2017
    names: Tuple[str, ...] = ()
    ingest: Tuple[IngestSpec, ...] = ()

    def payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "llc_bytes": self.llc_bytes,
            "accesses": self.accesses,
            "seed": self.seed,
            "names": sorted(self.names),
        }
        # Only keyed when present, so ingest-free recipes keep their
        # pinned hashes from before ingestion existed.
        if self.ingest:
            payload["ingest"] = [
                spec.payload() for spec in
                sorted(self.ingest, key=lambda spec: spec.name)
            ]
        return payload

    def workloads(self) -> List[str]:
        """Sorted names of every workload in the pool (synthetic and
        ingested), the order ``build`` emits segments in."""
        names = list(self.names) if self.names else list(benchmark_names())
        names.extend(spec.name for spec in self.ingest)
        return sorted(names)

    def trace_spec(self, benchmark: str) -> TraceSpec:
        for spec in self.ingest:
            if spec.name == benchmark:
                return TraceSpec(benchmark, self.llc_bytes, self.accesses,
                                 self.seed, ingest=spec)
        return TraceSpec(benchmark, self.llc_bytes, self.accesses, self.seed)

    def scope_overrides(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Per-workload Stage-1 scope overrides for ingested entries."""
        if not self.ingest:
            return None
        return {spec.name: ingest_scope(spec.payload())
                for spec in self.ingest}

    def build(self) -> List[Segment]:
        """All segments, in sorted-workload (suite) order."""
        segments: List[Segment] = []
        for name in self.workloads():
            segments.extend(self.trace_spec(name).build())
        return segments


# -- per-worker-process memoization ---------------------------------------

_SEGMENTS: Dict[TraceSpec, List[Segment]] = {}
_RUNNERS: Dict[str, Any] = {}
_ARTIFACTS: Dict[str, ArtifactCache] = {}


def _artifact_cache(root: Optional[str]) -> Optional[ArtifactCache]:
    """Per-process artifact cache over the store at ``root``.

    Workers receive only the root path (cheap to pickle) and build the
    cache lazily, so every process in a pool shares the same on-disk
    trace/Stage-1 artifacts instead of recomputing them per worker —
    the cross-worker duplication the in-memory memos cannot fix.
    """
    if not root:
        return None
    cache = _ARTIFACTS.get(root)
    if cache is None:
        cache = ArtifactCache(ResultStore(root))
        _ARTIFACTS[root] = cache
    return cache


def _segments(spec: TraceSpec,
              artifacts: Optional[ArtifactCache] = None) -> List[Segment]:
    # Span covers memo/artifact hits too: serial and parallel drives
    # then emit equal span sets regardless of worker memoization.
    with obs.span("trace-gen"):
        cached = _SEGMENTS.get(spec)
        if cached is None:
            if artifacts is not None:
                cached = artifacts.load_segments(spec.payload())
            if cached is None:
                cached = spec.build()
                if artifacts is not None:
                    artifacts.store_segments(spec.payload(), cached)
            _SEGMENTS[spec] = cached
    return cached


def _suite_segments(suite: SuiteSpec,
                    artifacts: Optional[ArtifactCache]) -> List[Segment]:
    """Suite segments in :meth:`SuiteSpec.build` order, artifact-cached."""
    segments: List[Segment] = []
    for name in suite.workloads():
        segments.extend(_segments(suite.trace_spec(name), artifacts))
    return segments


# Stage-1 artifact scope lives in repro.exec.artifacts so the graph
# planner hashes identical scopes without importing this module.
_scope_payload = scope_payload


def _runner_key(kind: str, hierarchy: HierarchyConfig,
                timing: Optional[TimingConfig], prefetch: bool,
                warmup_fraction: float, scope: Any,
                artifact_root: Optional[str] = None) -> str:
    return stable_hash({
        "kind": kind,
        "hierarchy": hierarchy_payload(hierarchy),
        "timing": timing_payload(timing),
        "prefetch": prefetch,
        "warmup_fraction": warmup_fraction,
        "scope": scope,
        "artifacts": artifact_root,
    })


def _stage1_store(artifacts: Optional[ArtifactCache], llc_bytes: int,
                  accesses: int, seed: int, hierarchy: HierarchyConfig,
                  prefetch: bool, scope_overrides=None):
    if artifacts is None:
        return None
    return artifacts.stage1_store(
        _scope_payload(llc_bytes, accesses, seed), hierarchy, prefetch,
        scope_overrides=scope_overrides,
    )


def _single_runner(hierarchy: HierarchyConfig, timing: Optional[TimingConfig],
                   prefetch: bool, warmup_fraction: float, spec: TraceSpec,
                   artifacts: Optional[ArtifactCache]) -> SingleThreadRunner:
    root = str(artifacts.store.root) if artifacts is not None else None
    key = _runner_key("single", hierarchy, timing, prefetch, warmup_fraction,
                      spec.scope(), root)
    runner = _RUNNERS.get(key)
    if runner is None:
        overrides = (None if spec.ingest is None
                     else {spec.ingest.name: spec.stage1_scope()})
        runner = SingleThreadRunner(
            hierarchy, timing=timing, prefetch=prefetch,
            warmup_fraction=warmup_fraction,
            stage1_store=_stage1_store(artifacts, spec.llc_bytes,
                                       spec.accesses, spec.seed,
                                       hierarchy, prefetch,
                                       scope_overrides=overrides),
        )
        _RUNNERS[key] = runner
    return runner


def _multi_runner(hierarchy: HierarchyConfig, timing: Optional[TimingConfig],
                  prefetch: bool, warmup_fraction: float, suite: SuiteSpec,
                  artifacts: Optional[ArtifactCache]) -> MultiProgrammedRunner:
    root = str(artifacts.store.root) if artifacts is not None else None
    key = _runner_key("multi", hierarchy, timing, prefetch, warmup_fraction,
                      suite.payload(), root)
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = MultiProgrammedRunner(
            hierarchy, timing=timing, prefetch=prefetch,
            warmup_fraction=warmup_fraction,
            stage1_store=_stage1_store(artifacts, suite.llc_bytes,
                                       suite.accesses, suite.seed,
                                       hierarchy, prefetch,
                                       scope_overrides=suite.scope_overrides()),
        )
        _RUNNERS[key] = runner
    return runner


def _search_evaluator(suite: SuiteSpec, hierarchy: HierarchyConfig,
                      base_config: Optional[MPPPBConfig], prefetch: bool,
                      warmup_fraction: float,
                      artifacts: Optional[ArtifactCache]) -> FeatureSetEvaluator:
    root = str(artifacts.store.root) if artifacts is not None else None
    scope = dict(suite.payload(),
                 base=None if base_config is None else mpppb_payload(base_config))
    key = _runner_key("evaluator", hierarchy, None, prefetch, warmup_fraction,
                      scope, root)
    evaluator = _RUNNERS.get(key)
    if evaluator is None:
        evaluator = FeatureSetEvaluator(
            _suite_segments(suite, artifacts), hierarchy,
            base_config=base_config, warmup_fraction=warmup_fraction,
            prefetch=prefetch,
            stage1_store=_stage1_store(artifacts, suite.llc_bytes,
                                       suite.accesses, suite.seed,
                                       hierarchy, prefetch,
                                       scope_overrides=suite.scope_overrides()),
        )
        _RUNNERS[key] = evaluator
    return evaluator


# -- cells -----------------------------------------------------------------


@dataclass(frozen=True)
class SingleCell:
    """One single-thread (benchmark, policy) experiment."""

    trace: TraceSpec
    policy: str
    hierarchy: HierarchyConfig
    mpppb_config: Optional[MPPPBConfig] = None
    timing: Optional[TimingConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "single"

    def label(self) -> str:
        return f"{self.trace.benchmark}/{self.policy}"

    def key_payload(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "trace": self.trace.payload(),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "timing": timing_payload(self.timing),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
            "policy": policy_payload(self.policy, self.mpppb_config),
        }

    def run(self, artifacts: Optional[ArtifactCache] = None) -> BenchmarkResult:
        runner = _single_runner(self.hierarchy, self.timing, self.prefetch,
                                self.warmup_fraction, self.trace, artifacts)
        return runner.run_benchmark(
            self.trace.benchmark, _segments(self.trace, artifacts),
            policy_factory(self.policy, self.mpppb_config),
        )

    def encode(self, result: BenchmarkResult) -> Dict[str, Any]:
        return result.to_dict()

    def decode(self, payload: Dict[str, Any]) -> BenchmarkResult:
        return BenchmarkResult.from_dict(payload)


@dataclass(frozen=True)
class MixCell:
    """One multi-programmed (mix, policy) experiment."""

    suite: SuiteSpec
    mix_name: str
    segment_names: Tuple[str, ...]
    policy: str
    hierarchy: HierarchyConfig
    mpppb_config: Optional[MPPPBConfig] = None
    timing: Optional[TimingConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "mix"

    def label(self) -> str:
        return f"{self.mix_name}/{self.policy}"

    def key_payload(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "suite": self.suite.payload(),
            "segments": list(self.segment_names),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "timing": timing_payload(self.timing),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
            "policy": policy_payload(self.policy, self.mpppb_config),
        }

    def _mix(self, artifacts: Optional[ArtifactCache] = None) -> Mix:
        chosen: List[Segment] = []
        for name in self.segment_names:
            benchmark = name.split(".", 1)[0]
            by_name = {
                segment.name: segment
                for segment in _segments(self.suite.trace_spec(benchmark),
                                         artifacts)
            }
            try:
                chosen.append(by_name[name])
            except KeyError:
                raise KeyError(
                    f"segment {name!r} not found in benchmark {benchmark!r}"
                ) from None
        return Mix(self.mix_name, tuple(chosen))

    def run(self, artifacts: Optional[ArtifactCache] = None) -> MixResult:
        runner = _multi_runner(self.hierarchy, self.timing, self.prefetch,
                               self.warmup_fraction, self.suite, artifacts)
        return runner.run_mix(
            self._mix(artifacts), policy_factory(self.policy, self.mpppb_config)
        )

    def encode(self, result: MixResult) -> Dict[str, Any]:
        return result.to_dict()

    def decode(self, payload: Dict[str, Any]) -> MixResult:
        return MixResult.from_dict(payload)


@dataclass(frozen=True)
class SearchCell:
    """One feature-search candidate: average MPKI over a segment pool."""

    suite: SuiteSpec
    features: Tuple[Feature, ...]
    hierarchy: HierarchyConfig
    base_config: Optional[MPPPBConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "search"

    def label(self) -> str:
        digest = stable_hash({"f": [f.spec() for f in self.features]})
        return f"search/{len(self.features)}f/{digest[:8]}"

    def key_payload(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "suite": self.suite.payload(),
            "features": [feature.spec() for feature in self.features],
            "base": (None if self.base_config is None
                     else mpppb_payload(self.base_config)),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
        }

    def run(self, artifacts: Optional[ArtifactCache] = None) -> float:
        evaluator = _search_evaluator(self.suite, self.hierarchy,
                                      self.base_config, self.prefetch,
                                      self.warmup_fraction, artifacts)
        return evaluator.evaluate(self.features)

    def encode(self, result: float) -> float:
        return result

    def decode(self, payload: float) -> float:
        return float(payload)


@dataclass(frozen=True)
class SearchBatchCell:
    """K feature-search candidates resolved by one shared-context replay.

    An execution grouping, not a cache unit: results are stored and
    looked up per candidate under the corresponding
    :class:`SearchCell` keys (see
    :meth:`ParallelRunner.run_search_batches`), so batched and
    per-candidate runs share the on-disk cache freely.  Evaluation
    itself goes through
    :meth:`~repro.search.evaluator.FeatureSetEvaluator.evaluate_batch`,
    i.e. the :class:`~repro.sim.batch.BatchLLCSimulator` engine.
    """

    suite: SuiteSpec
    feature_sets: Tuple[Tuple[Feature, ...], ...]
    hierarchy: HierarchyConfig
    base_config: Optional[MPPPBConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "search-batch"

    def label(self) -> str:
        digest = stable_hash(
            {"f": [[f.spec() for f in fs] for fs in self.feature_sets]})
        return f"search-batch/{len(self.feature_sets)}c/{digest[:8]}"

    def key_payload(self) -> Dict[str, Any]:
        """Identity payload (task seeding); never used as a store key."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "suite": self.suite.payload(),
            "feature_sets": [[feature.spec() for feature in features]
                             for features in self.feature_sets],
            "base": (None if self.base_config is None
                     else mpppb_payload(self.base_config)),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
        }

    def run(self, artifacts: Optional[ArtifactCache] = None) -> List[float]:
        evaluator = _search_evaluator(self.suite, self.hierarchy,
                                      self.base_config, self.prefetch,
                                      self.warmup_fraction, artifacts)
        return evaluator.evaluate_batch(self.feature_sets)

    def encode(self, result: List[float]) -> List[float]:
        return list(result)

    def decode(self, payload: Sequence[float]) -> List[float]:
        return [float(value) for value in payload]


@dataclass(frozen=True)
class MaterializeCell:
    """Prelude task: materialize shared trace/Stage-1 artifacts once.

    The graph scheduler runs these *before* the cell wave so an
    artifact node shared by K cells is computed exactly once and every
    dependent cell loads it, instead of the first K workers racing to
    recompute it.  Produces no cached result — its output is the
    artifact-store side effect plus the measured (accesses, seconds)
    compute samples the scheduler's cost model refines on.  Failures
    are benign: the artifact cache self-heals, so dependent cells just
    recompute what the prelude failed to materialize.
    """

    trace: TraceSpec
    segment_names: Tuple[str, ...]
    hierarchy: HierarchyConfig
    prefetch: bool = True

    kind: ClassVar[str] = "materialize"

    def label(self) -> str:
        return f"graph/{self.trace.benchmark}"

    def key_payload(self) -> Dict[str, Any]:
        """Identity payload (task seeding); never used as a store key."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "trace": self.trace.payload(),
            "segments": list(self.segment_names),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "prefetch": self.prefetch,
        }

    def run(self, artifacts: Optional[ArtifactCache] = None) -> Dict[str, Any]:
        stats = artifacts.stats if artifacts is not None else None
        misses_before = stats.trace_misses if stats is not None else 0
        started = time.perf_counter()
        segments = _segments(self.trace, artifacts)
        trace_seconds = time.perf_counter() - started
        computed_trace = (stats is not None
                          and stats.trace_misses > misses_before)
        overrides = (None if self.trace.ingest is None
                     else {self.trace.ingest.name: self.trace.stage1_scope()})
        runner = SingleThreadRunner(
            self.hierarchy, prefetch=self.prefetch,
            stage1_store=_stage1_store(artifacts, self.trace.llc_bytes,
                                       self.trace.accesses, self.trace.seed,
                                       self.hierarchy, self.prefetch,
                                       scope_overrides=overrides),
        )
        wanted = set(self.segment_names)
        computed = runner.prime_segments(
            [segment for segment in segments if segment.name in wanted])
        return {
            "trace": ([sum(len(s.trace.pcs) for s in segments),
                       trace_seconds] if computed_trace else None),
            "stage1": [[accesses, seconds]
                       for _, accesses, seconds in computed],
        }

    def encode(self, result: Dict[str, Any]) -> Dict[str, Any]:
        return result

    def decode(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return payload


Cell = Union[SingleCell, MixCell, SearchCell, SearchBatchCell,
             MaterializeCell]


def _execute_cell(cell: Cell, key: str,
                  artifact_root: Optional[str] = None,
                  attempt: int = 1,
                  in_worker: bool = False,
                  telemetry: bool = False,
                  deny_loads: frozenset = frozenset()
                  ) -> Tuple[Any, float, Dict[str, int],
                             Optional[Dict[str, Any]]]:
    """Run one cell with deterministic seeding.

    Returns (result, seconds, artifact hit/miss deltas, telemetry
    payload).  The artifact cache only changes *where* trace and
    Stage-1 data come from, never their values, so seeding and results
    are identical with it on, off, cold, or warm.  ``attempt`` numbers
    retries (1-based) for the fault-injection harness only — seeding
    depends solely on the key, so a retried cell reproduces the first
    attempt's result exactly.

    With ``telemetry`` the cell runs under an isolated ``repro.obs``
    capture — a fresh span collector and metrics registry — and the
    payload travels back in the return tuple.  That one mechanism
    covers both execution modes: worker processes (whose telemetry
    global starts empty) and in-process serial runs (where the
    parent's ambient context is saved and restored), so serial and
    parallel drives produce identical per-cell span sets.  Telemetry
    is purely observational — it never touches ``random`` — so the
    pinned determinism hashes hold with it on or off.
    """
    plan = active_plan()
    if plan is not None:
        plan.fire(key, attempt, in_worker=in_worker)
    artifacts = _artifact_cache(artifact_root)
    if artifacts is not None:
        # The graph plan's deny set rides along with every execution
        # (serial and worker) and is re-set each time, so one shared
        # per-process cache never leaks a previous batch's plan.
        artifacts.deny_loads = deny_loads
    before = artifacts.stats.counts() if artifacts is not None else {}
    if telemetry:
        obs.enable()
    random.seed(task_seed(key))
    started = time.perf_counter()
    with obs.capture() as tele_ctx:
        with obs.span("cell"):
            result = cell.run(artifacts)
    seconds = time.perf_counter() - started
    tele = tele_ctx.payload() if tele_ctx is not None else None
    if artifacts is not None:
        after = artifacts.stats.counts()
        delta = {name: after[name] - before[name] for name in after}
    else:
        delta = {}
    return result, seconds, delta, tele


_AUTO_STORE = object()

#: Cache-lookup sentinel: distinguishes "miss" from a legitimately
#: falsy cached value.
_MISS = object()


@dataclass
class _Task:
    """One unit of fan-out work: a cell, its key, and caller context."""

    cell: Cell
    key: str
    context: Any = None
    attempt: int = 1
    started: float = 0.0  # monotonic submit time (watchdog deadline)


@dataclass
class _DriveStats:
    """Mutable fault accounting for one drive (one run() call)."""

    failures: List[CellFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    requeued: int = 0
    rebuilds: int = 0
    abort: Optional[CellFailure] = None  # set in on_error="raise" mode


class ParallelRunner:
    """Cache-aware, fault-tolerant fan-out executor for experiment cells.

    With ``jobs == 1`` (the default) cache misses run serially in the
    current process through exactly the same entry points the workers
    use, so serial and parallel execution are bit-identical.

    Failure semantics (see DESIGN.md §11): a cell exception is
    captured into a :class:`~repro.exec.faults.CellFailure` instead of
    aborting the batch.  Each cell is retried up to ``retries`` times
    with exponential backoff; a dead worker pool
    (``BrokenProcessPool``) is rebuilt and only unfinished cells are
    requeued, degrading to in-process serial execution after
    ``max_pool_rebuilds`` deaths; with ``cell_timeout`` a watchdog
    abandons stragglers and records them as timeouts.  With
    ``on_error="collect"`` (default) the run completes and failed
    cells yield ``None`` results; with ``"raise"`` the first terminal
    failure raises :class:`~repro.exec.faults.CellExecutionError`
    after in-flight work drains (draining still stores those results).
    Retries and requeues never change results: cell seeding depends
    only on the cache key, never on the attempt number or worker.
    """

    #: Pool deaths tolerated before degrading to serial execution.
    max_pool_rebuilds = 3

    def __init__(self, jobs: Optional[int] = None, store: Any = _AUTO_STORE,
                 verbose: Optional[bool] = None,
                 on_error: Optional[str] = None,
                 retries: Optional[int] = None,
                 cell_timeout: Optional[float] = None,
                 command: Optional[Sequence[str]] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store: Optional[ResultStore] = (
            default_store() if store is _AUTO_STORE else store
        )
        self.verbose = _verbose_default() if verbose is None else verbose
        self.on_error = resolve_on_error(on_error)
        self.retries = resolve_retries(retries)
        self.cell_timeout = resolve_cell_timeout(cell_timeout)
        self.retry_backoff = resolve_retry_backoff()
        # CLI argv that launched this engine; recorded in run manifests
        # so `repro.cli resume` can re-drive an interrupted run.
        self.command: List[str] = list(command) if command else []
        self.last_report: Optional[ExecReport] = None
        self.last_manifest: Optional[RunManifest] = None
        # Telemetry: where the most recent events.jsonl landed, plus a
        # cursor over the parent-process span collector so each drive
        # only writes the spans recorded since the previous one.
        self.last_events_path = None
        # Trace/Stage-1 artifacts live in the same store as results and
        # ride its enable/disable switch; REPRO_ARTIFACT_CACHE=off opts
        # out of just the artifact layer (results stay cached).
        artifacts_off = (os.environ.get("REPRO_ARTIFACT_CACHE", "").lower()
                         in DISABLED_SENTINELS)
        self.artifact_root: Optional[str] = (
            None if self.store is None or artifacts_off
            else str(self.store.root)
        )
        # Graph-scheduler state for the batch currently driving:
        # materialized keys the plan says to recompute rather than
        # load, and the (cost model, store) pair to refine + persist
        # once the batch's measured timings are in.
        self._deny_loads: frozenset = frozenset()
        self._cost_state: Optional[Tuple[CostModel, ResultStore]] = None

    @classmethod
    def from_options(cls, jobs: Optional[int] = None, cache_dir: str = "",
                     on_error: Optional[str] = None,
                     retries: Optional[int] = None,
                     cell_timeout: Optional[float] = None,
                     command: Optional[Sequence[str]] = None
                     ) -> "ParallelRunner":
        """Build from CLI-style options (``--jobs`` / ``--cache-dir`` /
        ``--on-error`` / ``--retries`` / ``--cell-timeout``).

        An empty ``cache_dir`` defers to ``REPRO_CACHE_DIR``; the
        sentinel values ``off`` / ``none`` / ``0`` disable caching.
        """
        return cls(jobs=jobs, store=resolve_store(cache_dir),
                   on_error=on_error, retries=retries,
                   cell_timeout=cell_timeout, command=command)

    def run(self, cells: Sequence[Cell], label: str = "") -> List[Any]:
        """Resolve every cell (cache or compute); results in cell order.

        Failed cells (retries exhausted, ``on_error="collect"``) leave
        ``None`` in their result slot; ``last_report.failures`` holds
        the structured records.
        """
        sink: List[Tuple[str, str, Optional[Dict[str, Any]]]] = []
        try:
            with obs.span("drive"):
                return self._run_cells(cells, label, sink)
        finally:
            self._write_events(sink)

    def _run_cells(self, cells: Sequence[Cell], label: str,
                   sink: List[Tuple[str, str, Optional[Dict[str, Any]]]]
                   ) -> List[Any]:
        started = time.perf_counter()
        results: List[Any] = [None] * len(cells)
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        records: List[Tuple[str, str, str]] = []
        tasks: List[_Task] = []

        for index, cell in enumerate(cells):
            key = stable_hash(cell.key_payload())
            records.append((key, cell.label(), cell.kind))
            value = self._cached_result(cell, key)
            if value is not _MISS:
                results[index] = value
                outcomes[index] = CellOutcome(cell.label(), key, True, 0.0)
            else:
                tasks.append(_Task(cell, key, index))

        manifest = self._open_manifest(label, records)
        if manifest is not None:
            for outcome in outcomes:
                if outcome is not None:
                    manifest.mark(outcome.key, "done")

        artifact_counts: Dict[str, int] = {}
        stats = _DriveStats()
        plan = active_plan()
        graph = self._schedule([(task.cell, task.key) for task in tasks],
                               sink, artifact_counts, stats)

        def settle(task: _Task, result: Any, seconds: float,
                   delta: Dict[str, int],
                   tele: Optional[Dict[str, Any]]) -> None:
            index = task.context
            results[index] = result
            outcomes[index] = CellOutcome(task.cell.label(), task.key, False,
                                          seconds, attempts=task.attempt)
            _merge_counts(artifact_counts, delta)
            if tele is not None:
                sink.append((task.key, task.cell.label(), tele))
            self._store_result(task.cell, task.key, result, plan,
                               task.attempt)
            if manifest is not None:
                manifest.mark(task.key, "done")

        def fail(task: _Task, failure: CellFailure) -> None:
            index = task.context
            outcomes[index] = CellOutcome(task.cell.label(), task.key, False,
                                          failure.seconds, failed=True,
                                          attempts=failure.attempts)
            if manifest is not None:
                manifest.mark(task.key, "failed")

        try:
            self._drive(tasks, stats, settle, fail)
        finally:
            self._finish_report(outcomes, started, label, artifact_counts,
                                stats, planned=len(cells), graph=graph)
        if self.verbose:
            print(self.last_report.table())
        return results

    def run_search_batches(self, cells: Sequence[SearchCell],
                           batch_size: Optional[int] = None,
                           label: str = "") -> List[float]:
        """Resolve search cells via shared-context batch replays.

        Cache lookups and writes stay *per candidate*, under each
        cell's own ``search`` key, so results computed here serve later
        :meth:`run` calls and vice versa — the batch grouping is purely
        an execution strategy.  Misses are grouped by evaluation scope
        (suite, hierarchy, base config, prefetch, warmup), chunked into
        :class:`SearchBatchCell` tasks of at most ``batch_size``
        candidates (``None`` = one batch per scope), and fanned out
        like any other cells; singleton chunks run as plain cells.
        """
        sink: List[Tuple[str, str, Optional[Dict[str, Any]]]] = []
        try:
            with obs.span("drive"):
                return self._run_search_cells(cells, batch_size, label, sink)
        finally:
            self._write_events(sink)

    def _run_search_cells(
            self, cells: Sequence[SearchCell], batch_size: Optional[int],
            label: str,
            sink: List[Tuple[str, str, Optional[Dict[str, Any]]]]
    ) -> List[float]:
        started = time.perf_counter()
        results: List[Any] = [None] * len(cells)
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        records: List[Tuple[str, str, str]] = []
        pending: List[Tuple[int, str, SearchCell]] = []

        for index, cell in enumerate(cells):
            key = stable_hash(cell.key_payload())
            records.append((key, cell.label(), cell.kind))
            value = self._cached_result(cell, key)
            if value is not _MISS:
                results[index] = value
                outcomes[index] = CellOutcome(cell.label(), key, True, 0.0)
            else:
                pending.append((index, key, cell))

        manifest = self._open_manifest(label, records)
        if manifest is not None:
            for outcome in outcomes:
                if outcome is not None:
                    manifest.mark(outcome.key, "done")

        groups: Dict[str, List[Tuple[int, str, SearchCell]]] = {}
        for item in pending:
            cell = item[2]
            scope = stable_hash({
                "suite": cell.suite.payload(),
                "hierarchy": hierarchy_payload(cell.hierarchy),
                "base": (None if cell.base_config is None
                         else mpppb_payload(cell.base_config)),
                "prefetch": cell.prefetch,
                "warmup_fraction": cell.warmup_fraction,
            })
            groups.setdefault(scope, []).append(item)

        Chunk = List[Tuple[int, str, SearchCell]]
        tasks: List[Tuple[Cell, str, Chunk]] = []
        for members in groups.values():
            size = batch_size or len(members)
            for start in range(0, len(members), size):
                chunk = members[start:start + size]
                if len(chunk) == 1:
                    _, key, cell = chunk[0]
                    tasks.append((cell, key, chunk))
                    continue
                first = chunk[0][2]
                batch_cell = SearchBatchCell(
                    suite=first.suite,
                    feature_sets=tuple(cell.features
                                       for _, _, cell in chunk),
                    hierarchy=first.hierarchy,
                    base_config=first.base_config,
                    prefetch=first.prefetch,
                    warmup_fraction=first.warmup_fraction,
                )
                tasks.append((batch_cell,
                              stable_hash(batch_cell.key_payload()), chunk))

        artifact_counts: Dict[str, int] = {}
        stats = _DriveStats()
        plan = active_plan()
        graph = self._schedule([(cell, key) for _, key, cell in pending],
                               sink, artifact_counts, stats)
        batches = 0
        batched = 0

        def settle(task: _Task, result: Any, seconds: float,
                   delta: Dict[str, int],
                   tele: Optional[Dict[str, Any]]) -> None:
            nonlocal batches, batched
            chunk: Chunk = task.context
            _merge_counts(artifact_counts, delta)
            if tele is not None:
                sink.append((task.key, task.cell.label(), tele))
            if isinstance(task.cell, SearchBatchCell):
                batches += 1
                batched += len(chunk)
                share = seconds / len(chunk)
                per_candidate = zip(chunk, result)
            else:
                share = seconds
                per_candidate = zip(chunk, [result])
            for (index, key, cell), value in per_candidate:
                results[index] = value
                outcomes[index] = CellOutcome(cell.label(), key, False,
                                              share, attempts=task.attempt)
                self._store_result(cell, key, value, plan, task.attempt)
                if manifest is not None:
                    manifest.mark(key, "done")

        def fail(task: _Task, failure: CellFailure) -> None:
            for index, key, cell in task.context:
                outcomes[index] = CellOutcome(cell.label(), key, False,
                                              failure.seconds, failed=True,
                                              attempts=failure.attempts)
                if manifest is not None:
                    manifest.mark(key, "failed")

        def split(task: _Task) -> Optional[List[_Task]]:
            # A failed batch degrades to per-candidate cells (fresh
            # retry budget): one bad candidate must not take the whole
            # chunk down with it.
            chunk: Chunk = task.context
            if not isinstance(task.cell, SearchBatchCell) or len(chunk) <= 1:
                return None
            return [_Task(cell, key, [(index, key, cell)])
                    for index, key, cell in chunk]

        drive_tasks = [_Task(exec_cell, exec_key, chunk)
                       for exec_cell, exec_key, chunk in tasks]
        try:
            self._drive(drive_tasks, stats, settle, fail, split=split)
        finally:
            self._finish_report(outcomes, started, label, artifact_counts,
                                stats, planned=len(cells),
                                batches=batches, batched=batched, graph=graph)
        if self.verbose:
            print(self.last_report.table())
        return results

    # -- telemetry event sink -----------------------------------------------

    @staticmethod
    def _drain_parent_spans(ctx) -> List[Any]:
        """Parent-context span records not yet written to any event log.

        Engine-level spans (``drive``, the evaluator's ``search-gen-N``)
        land in the parent process's ambient collector, which outlives
        a single drive; the collector-side cursor ensures each record
        is emitted exactly once even across multiple engines.
        """
        return ctx.collector.drain_new()

    @staticmethod
    def _run_counters(report: ExecReport) -> Dict[str, int]:
        """Run-level counters derived from the drive's report."""
        return {
            "exec/cells": report.cells,
            "exec/result-cache-hits": report.hits,
            "exec/computed": report.computed,
            "exec/failed-cells": report.failed,
            "exec/trace-artifact-hits": report.trace_hits,
            "exec/trace-artifact-misses": report.trace_misses,
            "exec/stage1-artifact-hits": report.stage1_hits,
            "exec/stage1-artifact-misses": report.stage1_misses,
            "exec/retries": report.retries,
            "exec/timeouts": report.timeouts,
            "exec/requeued": report.requeued,
            "exec/pool-rebuilds": report.pool_rebuilds,
            "exec/graph-nodes": report.graph_nodes,
            "exec/graph-loads": report.graph_loads,
            "exec/graph-computes": report.graph_computes,
            "exec/graph-shared": report.graph_shared,
            "exec/graph-denied": report.graph_denied,
            "exec/graph-prelude": report.graph_prelude,
        }

    def _write_events(self,
                      sink: Sequence[Tuple[str, str, Optional[Dict[str, Any]]]]
                      ) -> None:
        """Merge this drive's telemetry into one ``events.jsonl``.

        Requires telemetry on *and* an open manifest (the events file
        lives beside it and shares its run id).  Best-effort: any
        failure to write leaves the run's results untouched.
        """
        ctx = obs.current()
        manifest = self.last_manifest
        report = self.last_report
        if ctx is None or manifest is None or report is None:
            return
        events: List[Dict[str, Any]] = [run_event(
            manifest.run_id, report.label, report.wall_seconds, report.jobs,
            report.planned, report.cells, time.time(),
        )]
        for record in self._drain_parent_spans(ctx):
            events.append(span_event(None, None, record.to_dict()))
        for name, value in self._run_counters(report).items():
            if value:
                events.append(counter_event(None, name, value))
        for key, cell_label, payload in sink:
            if not payload:
                continue
            for record in payload.get("spans", ()):
                events.append(span_event(key, cell_label, record))
            for name, value in sorted(payload.get("counters", {}).items()):
                events.append(counter_event(key, name, value))
            for name, hist in sorted(payload.get("hists", {}).items()):
                events.append(hist_event(key, name, hist))
        path = write_events(manifest.events_path, events)
        if path is not None:
            self.last_events_path = path

    def flush_telemetry(self):
        """Append parent spans that closed after the last drive.

        The CLI calls this once per command so trailing engine-level
        spans (the final ``search-gen-N``, for example) still reach the
        most recent event log.  Returns that log's path, or ``None``.
        """
        ctx = obs.current()
        if ctx is None or self.last_events_path is None:
            return self.last_events_path
        fresh = self._drain_parent_spans(ctx)
        if not fresh:
            return self.last_events_path
        lines = [json.dumps(span_event(None, None, record.to_dict()),
                            separators=(",", ":"))
                 for record in fresh]
        try:
            with open(self.last_events_path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError:
            return None
        return self.last_events_path

    # -- graph scheduling ----------------------------------------------------

    def _schedule(self, items: Sequence[Tuple[Cell, str]],
                  sink: List[Tuple[str, str, Optional[Dict[str, Any]]]],
                  artifact_counts: Dict[str, int],
                  stats: _DriveStats) -> Optional[Dict[str, int]]:
        """Plan the artifact graph for this batch's misses.

        Lowers the miss cells into one deduplicated
        :class:`~repro.graph.ExperimentGraph`, runs the cost-model
        forward/backward passes, installs the deny-load set, and
        materializes shared compute nodes through a prelude wave.
        Returns planned-action counters for the report, or ``None``
        when scheduling is off (``REPRO_GRAPH=off``), there is nothing
        to plan, or no artifact store is attached.  Planning failures
        degrade to the unplanned path — the scheduler decides where
        bytes come from, never whether a run completes.
        """
        self._deny_loads = frozenset()
        self._cost_state = None
        if not items or self.artifact_root is None or not graph_enabled():
            return None
        try:
            pstore = ResultStore(self.artifact_root)
            model = CostModel.load(pstore)
            plan = plan_cells(items, pstore, model)
        except Exception:
            return None
        self._deny_loads = plan.deny
        self._cost_state = (model, pstore)
        counts = dict(plan.counts)
        counts["denied"] = len(plan.deny)
        counts["prelude"] = len(plan.prelude)
        if plan.prelude:
            self._run_prelude(plan.prelude, model, sink, artifact_counts,
                              stats)
        return counts

    def _run_prelude(self, groups, model: CostModel,
                     sink: List[Tuple[str, str, Optional[Dict[str, Any]]]],
                     artifact_counts: Dict[str, int],
                     stats: _DriveStats) -> None:
        """Materialize shared artifacts once, ahead of the cell wave.

        Rides the same fault-tolerant drive as real cells (retries,
        pool recovery, watchdog), but failures are non-fatal and kept
        out of the batch's failure list: a prelude loss just means the
        dependent cells recompute the artifact themselves.
        """
        cells = [MaterializeCell(trace=group.trace,
                                 segment_names=group.segments,
                                 hierarchy=group.hierarchy,
                                 prefetch=group.prefetch)
                 for group in groups]
        tasks = [_Task(cell, stable_hash(cell.key_payload()), index)
                 for index, cell in enumerate(cells)]
        pstats = _DriveStats()

        def settle(task: _Task, result: Any, seconds: float,
                   delta: Dict[str, int],
                   tele: Optional[Dict[str, Any]]) -> None:
            _merge_counts(artifact_counts, delta)
            if tele is not None:
                sink.append((task.key, task.cell.label(), tele))
            if isinstance(result, dict):
                trace_sample = result.get("trace")
                if trace_sample:
                    model.observe_compute("trace", int(trace_sample[0]),
                                          float(trace_sample[1]))
                for accesses, secs in result.get("stage1", ()):
                    model.observe_compute("stage1", int(accesses),
                                          float(secs))

        def fail(task: _Task, failure: CellFailure) -> None:
            pass

        try:
            self._drive(tasks, pstats, settle, fail)
        except CellExecutionError:
            pass  # non-fatal by design; cells self-heal
        stats.retries += pstats.retries
        stats.timeouts += pstats.timeouts
        stats.requeued += pstats.requeued
        stats.rebuilds += pstats.rebuilds

    def _finish_costs(self, artifact_counts: Dict[str, int]) -> None:
        """Fold the batch's measured load throughput in and persist."""
        state = self._cost_state
        self._cost_state = None
        self._deny_loads = frozenset()
        if state is None:
            return
        model, pstore = state
        read_bytes = artifact_counts.get("read_bytes", 0)
        read_us = artifact_counts.get("read_us", 0)
        if read_bytes and read_us:
            model.observe_load(read_bytes, read_us / 1e6)
        model.save(pstore)

    # -- shared fault-tolerant drive machinery ------------------------------

    def _cached_result(self, cell: Cell, key: str) -> Any:
        """Store lookup; ``_MISS`` on absence, wrong kind, or corruption.

        A payload whose ``kind`` matches but whose ``result`` fails
        ``cell.decode`` degrades to a cache miss (the cell re-executes)
        — the same "corruption is a miss" contract the artifact cache
        keeps in :mod:`repro.exec.artifacts`.
        """
        if self.store is None:
            return _MISS
        payload = self.store.get(key)
        if payload is None or payload.get("kind") != cell.kind:
            return _MISS
        try:
            return cell.decode(payload["result"])
        except Exception:
            return _MISS

    def _store_result(self, cell: Cell, key: str, result: Any,
                      plan, attempt: int) -> None:
        if self.store is None:
            return
        self.store.put(key, {"kind": cell.kind,
                             "result": cell.encode(result)})
        if plan is not None and plan.corrupts(key, attempt):
            corrupt_result_blob(self.store, key, cell.kind)

    def _open_manifest(self, label: str,
                       records: Sequence[Tuple[str, str, str]]
                       ) -> Optional[RunManifest]:
        """Open the run manifest for this batch, when worth recording.

        Needs an attached store (the manifest lives beside it) and
        more than one cell — single-cell runs resume trivially through
        the result cache and would drown ``runs/`` in tiny files
        during hill-climb searches.  ``REPRO_RUN_MANIFEST=off``
        disables manifests entirely.
        """
        self.last_manifest = None
        if self.store is None or len(records) < 2:
            return None
        if (os.environ.get("REPRO_RUN_MANIFEST", "").lower()
                in DISABLED_SENTINELS):
            return None
        manifest = RunManifest.create(self.store.root, label=label,
                                      command=self.command, cells=records,
                                      exec_info={"jobs": str(self.jobs)})
        self.last_manifest = manifest
        return manifest

    def _finish_report(self, outcomes: Sequence[Optional[CellOutcome]],
                       started: float, label: str,
                       artifact_counts: Dict[str, int], stats: _DriveStats,
                       planned: int, batches: int = 0,
                       batched: int = 0,
                       graph: Optional[Dict[str, int]] = None
                       ) -> ExecReport:
        self._finish_costs(artifact_counts)
        graph = graph or {}
        self.last_report = ExecReport(
            outcomes=tuple(outcome for outcome in outcomes
                           if outcome is not None),
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs,
            label=label,
            trace_hits=artifact_counts.get("trace_hits", 0),
            trace_misses=artifact_counts.get("trace_misses", 0),
            stage1_hits=artifact_counts.get("stage1_hits", 0),
            stage1_misses=artifact_counts.get("stage1_misses", 0),
            batches=batches,
            batched=batched,
            planned=planned,
            failures=tuple(stats.failures),
            retries=stats.retries,
            timeouts=stats.timeouts,
            requeued=stats.requeued,
            pool_rebuilds=stats.rebuilds,
            graph_nodes=graph.get("nodes", 0),
            graph_loads=graph.get("loads", 0),
            graph_computes=graph.get("computes", 0),
            graph_shared=graph.get("shared", 0),
            graph_denied=graph.get("denied", 0),
            graph_prelude=graph.get("prelude", 0),
        )
        return self.last_report

    def _drive(self, tasks: Sequence[_Task], stats: _DriveStats,
               settle: Callable[[_Task, Any, float, Dict[str, int]], None],
               fail: Callable[[_Task, CellFailure], None],
               split: Optional[Callable[[_Task], Optional[List[_Task]]]]
               = None) -> None:
        """Execute ``tasks`` with isolation, retries, and recovery."""
        queue: Deque[_Task] = deque(tasks)
        workers = min(self.jobs, len(queue))
        if workers > 1:
            self._drive_parallel(queue, settle, fail, split, stats, workers)
        else:
            self._drive_serial(queue, settle, fail, split, stats)
        if stats.abort is not None:
            raise CellExecutionError(stats.abort)

    def _drive_serial(self, queue: Deque[_Task], settle, fail, split,
                      stats: _DriveStats) -> None:
        while queue and stats.abort is None:
            task = queue.popleft()
            try:
                result, seconds, delta, tele = _execute_cell(
                    task.cell, task.key, self.artifact_root, task.attempt,
                    False, obs.enabled(), self._deny_loads)
            except KeyboardInterrupt:
                queue.appendleft(task)
                raise
            except Exception as exc:
                self._after_failure(task, exc, "error", queue, stats, fail,
                                    split)
            else:
                settle(task, result, seconds, delta, tele)

    def _request(self, task: _Task) -> Tuple[Any, ...]:
        """Picklable ``_execute_cell`` arguments for one pool worker."""
        return (task.cell, task.key, self.artifact_root, task.attempt,
                True, obs.enabled(), self._deny_loads)

    def _drive_parallel(self, queue: Deque[_Task], settle, fail, split,
                        stats: _DriveStats, workers: int) -> None:
        pool = LocalPoolBackend(workers)
        running: Dict[int, _Task] = {}
        next_id = 0
        try:
            while True:
                need_rebuild = False
                # Innocent in-flight cells requeued by a rebuild keep
                # their attempt number after a watchdog timeout (the
                # straggler is at fault, not they) but are bumped after
                # a worker loss (whether *this* cell crashed the worker
                # is unknowable, and a bump keeps first-attempt-only
                # injected crashes from refiring).
                bump_on_rebuild = True
                # Sliding submission window: at most ``workers``
                # requests in flight, so every running task really is
                # running and the watchdog deadline below is a compute
                # deadline, not a queue-wait deadline.
                while queue and len(running) < workers and stats.abort is None:
                    task = queue.popleft()
                    try:
                        pool.submit(next_id, self._request(task))
                    except BackendUnavailable:
                        queue.appendleft(task)
                        need_rebuild = True
                        break
                    except Exception as exc:
                        # The request itself is bad (e.g. unpicklable
                        # cell): a cell-level failure, not a pool
                        # problem.
                        self._after_failure(task, exc, "error", queue,
                                            stats, fail, split)
                        continue
                    task.started = time.monotonic()
                    running[next_id] = task
                    next_id += 1
                if not need_rebuild:
                    if not running:
                        if stats.abort is not None or not queue:
                            return
                        need_rebuild = True  # nothing submitted cleanly
                    else:
                        for frame in pool.poll(self._poll_interval()):
                            task = running.pop(frame.task_id, None)
                            if task is None:
                                continue
                            if frame.status == FRAME_OK:
                                result, seconds, delta, tele = frame.payload
                                settle(task, result, seconds, delta, tele)
                            elif frame.status == FRAME_LOST:
                                if self.verbose:
                                    print(f"repro.exec: {frame.payload}",
                                          file=sys.stderr)
                                # A worker died under this cell; bump
                                # its attempt, requeue, and rebuild.
                                task.attempt += 1
                                stats.requeued += 1
                                queue.append(task)
                                need_rebuild = True
                            else:
                                self._after_failure(task, frame.payload,
                                                    "error", queue, stats,
                                                    fail, split)
                        if self.cell_timeout is not None and running:
                            now = time.monotonic()
                            expired = [
                                task_id
                                for task_id, task in running.items()
                                if now - task.started >= self.cell_timeout]
                            for task_id in expired:
                                task = running.pop(task_id)
                                pool.discard(task_id)
                                stats.timeouts += 1
                                timeout_exc = TimeoutError(
                                    f"cell exceeded cell-timeout of "
                                    f"{self.cell_timeout:g}s")
                                self._after_failure(task, timeout_exc,
                                                    "timeout", queue, stats,
                                                    fail, split)
                                # The straggler still occupies a worker
                                # slot; the only way to reclaim that
                                # capacity is a rebuild.
                                need_rebuild = True
                                bump_on_rebuild = False
                if need_rebuild:
                    # Tear every worker down and requeue unfinished
                    # cells — everything already settled stays settled
                    # (and stored), so a rebuild loses zero completed
                    # results.
                    for task in running.values():
                        if bump_on_rebuild:
                            task.attempt += 1
                        stats.requeued += 1
                        queue.append(task)
                    running.clear()
                    stats.rebuilds += 1
                    if stats.rebuilds > self.max_pool_rebuilds:
                        # Rebuild budget spent: finish the remaining
                        # cells in-process.
                        pool.close()
                        self._drive_serial(queue, settle, fail, split, stats)
                        return
                    pool.rebuild()
        finally:
            pool.close()

    def _after_failure(self, task: _Task, exc: BaseException, kind: str,
                       queue: Deque[_Task], stats: _DriveStats, fail,
                       split) -> None:
        """Route one failed execution: retry, degrade, or record."""
        if task.attempt <= self.retries:
            stats.retries += 1
            self._backoff(task.attempt)
            task.attempt += 1
            queue.append(task)
            return
        if split is not None:
            replacements = split(task)
            if replacements:
                stats.requeued += len(replacements)
                queue.extend(replacements)
                return
        seconds = self.cell_timeout or 0.0 if kind == "timeout" else 0.0
        failure = make_failure(task.cell.label(), task.key, exc, kind,
                               attempts=task.attempt, seconds=seconds)
        stats.failures.append(failure)
        if stats.abort is None and self.on_error == "raise":
            stats.abort = failure
        fail(task, failure)

    def _poll_interval(self) -> Optional[float]:
        """Wait quantum for the parallel loop; None = block until done."""
        if self.cell_timeout is not None:
            return max(0.02, min(0.1, self.cell_timeout / 5.0))
        return None

    def _backoff(self, attempt: int) -> None:
        delay = min(self.retry_backoff * (2 ** (attempt - 1)), 2.0)
        if delay > 0:
            time.sleep(delay)


def _merge_counts(totals: Dict[str, int], delta: Dict[str, int]) -> None:
    for name, count in delta.items():
        totals[name] = totals.get(name, 0) + count
