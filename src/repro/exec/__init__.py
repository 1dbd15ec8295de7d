"""Experiment execution engine: parallel fan-out + on-disk result cache.

See DESIGN.md section 8 ("Experiment execution engine") for the cache
key schema and determinism guarantees.
"""

from repro.exec.cachekey import (
    SCHEMA_VERSION,
    canonical_json,
    stable_hash,
    task_seed,
)
from repro.exec.faults import (
    CellExecutionError,
    CellFailure,
    ConfigError,
    parse_fault_spec,
)
from repro.exec.manifest import RunManifest, list_runs
from repro.exec.pool import LocalPoolBackend
from repro.exec.progress import CellOutcome, ExecReport
from repro.exec.runner import (
    MaterializeCell,
    MixCell,
    ParallelRunner,
    SearchBatchCell,
    SearchCell,
    SingleCell,
    SuiteSpec,
    TraceSpec,
    default_store,
    resolve_jobs,
    resolve_store,
)
from repro.exec.store import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultStore,
)

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "stable_hash",
    "task_seed",
    "CellExecutionError",
    "CellFailure",
    "ConfigError",
    "parse_fault_spec",
    "RunManifest",
    "list_runs",
    "LocalPoolBackend",
    "CellOutcome",
    "ExecReport",
    "MaterializeCell",
    "MixCell",
    "ParallelRunner",
    "SearchBatchCell",
    "SearchCell",
    "SingleCell",
    "SuiteSpec",
    "TraceSpec",
    "default_store",
    "resolve_jobs",
    "resolve_store",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultStore",
]
