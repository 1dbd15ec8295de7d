"""Progress and timing instrumentation for experiment batches.

Each :meth:`repro.exec.ParallelRunner.run` call produces an
:class:`ExecReport`: per-cell wall time and cache status plus batch
aggregates (hit rate, worker utilization).  ``summary()`` is a single
line suitable for CLI output; ``table()`` matches the bench harness's
fixed-width table style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.exec.faults import CellFailure

RULE = "-" * 78


@dataclass(frozen=True)
class CellOutcome:
    """How one cell was satisfied (or why it was not)."""

    label: str
    key: str
    cached: bool
    seconds: float
    failed: bool = False
    attempts: int = 1

    @property
    def status(self) -> str:
        if self.failed:
            return "failed"
        return "cached" if self.cached else "computed"


@dataclass(frozen=True)
class ExecReport:
    """Aggregate timing/caching report for one batch of cells.

    ``trace_*`` and ``stage1_*`` count lookups in the shared artifact
    cache (:mod:`repro.exec.artifacts`) summed over every *computed*
    cell; result-cache hits never consult artifacts, so a fully warm
    batch reports zeros here.
    """

    outcomes: Tuple[CellOutcome, ...]
    wall_seconds: float
    jobs: int
    label: str = ""
    trace_hits: int = 0
    trace_misses: int = 0
    stage1_hits: int = 0
    stage1_misses: int = 0
    # Shared-context Stage-2 replays (repro.sim.batch): ``batches``
    # counts batch cells executed, ``batched`` the candidates they
    # covered.  Zero for per-candidate runs.
    batches: int = 0
    batched: int = 0
    # Fault-tolerance accounting: ``planned`` is the batch size the
    # run was asked for (outcomes may be fewer after an interrupt),
    # ``failures`` the terminal per-cell failure records, ``retries``
    # the re-executions after in-cell errors/timeouts, ``timeouts``
    # the watchdog expirations, ``requeued`` the cells resubmitted
    # after pool deaths or batch degradation, and ``pool_rebuilds``
    # the worker pools rebuilt after a ``BrokenProcessPool``.
    planned: int = 0
    failures: Tuple[CellFailure, ...] = ()
    retries: int = 0
    timeouts: int = 0
    requeued: int = 0
    pool_rebuilds: int = 0
    # Graph-scheduler accounting (zero when REPRO_GRAPH=off or no
    # artifact store): ``graph_nodes`` artifact nodes planned,
    # ``graph_loads``/``graph_computes`` the forward pass's decisions
    # over the needed set, ``graph_shared`` nodes referenced by more
    # than one cell, ``graph_denied`` materialized blobs the plan
    # recomputes instead of loading, and ``graph_prelude`` the
    # materialize tasks run ahead of the cell wave.
    graph_nodes: int = 0
    graph_loads: int = 0
    graph_computes: int = 0
    graph_shared: int = 0
    graph_denied: int = 0
    graph_prelude: int = 0

    @property
    def cells(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.failed)

    @property
    def pending(self) -> int:
        """Cells never settled (interrupted before compute finished)."""
        return max(0, self.planned - self.cells)

    @property
    def hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def computed(self) -> int:
        """Cells actually executed (neither cached nor failed)."""
        return sum(1 for outcome in self.outcomes
                   if not outcome.cached and not outcome.failed)

    @property
    def misses(self) -> int:
        """Cache misses that went on to compute.

        Failed cells are not misses: they never produced a result, so
        counting them here (the old ``cells - hits``) under-reported
        the warm-cache rate for batches with failures.
        """
        return self.computed

    @property
    def hit_rate(self) -> float:
        """Hits over cache *lookups that could have hit* (hits+computed)."""
        resolved = self.hits + self.computed
        return self.hits / resolved if resolved else 0.0

    @property
    def cell_seconds(self) -> float:
        """Total compute time across cells (cache hits cost ~0)."""
        return sum(outcome.seconds for outcome in self.outcomes)

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool kept busy over the batch."""
        budget = self.wall_seconds * max(1, self.jobs)
        if budget <= 0.0:
            return 0.0
        return min(1.0, self.cell_seconds / budget)

    @property
    def artifact_lookups(self) -> int:
        return (self.trace_hits + self.trace_misses
                + self.stage1_hits + self.stage1_misses)

    def summary(self) -> str:
        name = f"exec[{self.label}]" if self.label else "exec"
        line = (
            f"{name}: {self.cells} cells  jobs={self.jobs}  "
            f"hits={self.hits}/{self.cells} ({self.hit_rate:.0%})  "
            f"wall={self.wall_seconds:.2f}s  work={self.cell_seconds:.2f}s  "
            f"util={self.utilization:.0%}"
        )
        if self.artifact_lookups:
            line += (
                f"  artifacts: trace {self.trace_hits}/"
                f"{self.trace_hits + self.trace_misses}  "
                f"stage1 {self.stage1_hits}/"
                f"{self.stage1_hits + self.stage1_misses}"
            )
        if self.batches:
            line += f"  batched={self.batched}/{self.batches} replays"
        if self.graph_nodes:
            line += (
                f"  graph: {self.graph_nodes} nodes "
                f"load={self.graph_loads} compute={self.graph_computes} "
                f"shared={self.graph_shared}"
            )
            if self.graph_denied:
                line += f" denied={self.graph_denied}"
            if self.graph_prelude:
                line += f" prelude={self.graph_prelude}"
        if (self.failed or self.retries or self.timeouts or self.requeued
                or self.pool_rebuilds):
            line += (
                f"  faults: failed={self.failed} retries={self.retries} "
                f"timeouts={self.timeouts} requeued={self.requeued} "
                f"rebuilds={self.pool_rebuilds}"
            )
        if self.pending:
            line += f"  pending={self.pending}"
        return line

    def table(self) -> str:
        lines = [RULE, f"{'cell':48s} {'status':>10s} {'seconds':>10s}", RULE]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.label[:48]:48s} {outcome.status:>10s} "
                f"{outcome.seconds:10.3f}"
            )
        lines.append(RULE)
        return "\n".join(lines)

    def failures_table(self) -> str:
        """Fixed-width table of terminal failures; empty when clean."""
        if not self.failures:
            return ""
        lines = [RULE,
                 f"{'failed cell':32s} {'kind':>8s} {'tries':>6s}  error",
                 RULE]
        for failure in self.failures:
            error = f"{failure.exc_type}: {failure.message}"
            lines.append(
                f"{failure.label[:32]:32s} {failure.kind:>8s} "
                f"{failure.attempts:>6d}  {error[:60]}"
            )
        lines.append(RULE)
        return "\n".join(lines)
