"""Spans and counters recorded around calls into the program's layers.

The benchmark does not edit the program: :func:`install` replaces the
layers' public entry points with thin wrappers at run time.  Worker
processes of the local pool are forked from the process that installed
the wrappers, so they inherit them; each process appends what it
recorded to ``<out_dir>/rec-<pid>.jsonl`` at the end of every cell
(workers) or when :meth:`Tracer.flush` is called (the driving process),
and :func:`load` reads them all back.

A tracer runs in one of two modes.  With ``spans=True`` every wrapped
call records ``(name, start, end, parent, pid, cell label, attrs)``.
With ``spans=False`` the wrappers only count Stage-2 replays per path
(``kernel`` for :class:`~repro.sim.batch.BatchLLCSimulator`,
``reference`` for :class:`~repro.sim.llc.LLCSimulator`), which the
traced run compares against an untraced run of the same inputs to show
that tracing did not change which path ran.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Dict[str, Any]


class _CountingIter:
    """Iterator wrapper counting the items a consumer pulled."""

    def __init__(self, items) -> None:
        self._items = iter(items)
        self.count = 0

    def __iter__(self) -> "_CountingIter":
        return self

    def __next__(self):
        item = next(self._items)
        self.count += 1
        return item


class Tracer:
    """Per-process span stack and buffer; reset in forked children."""

    def __init__(self, out_dir: Path, spans: bool) -> None:
        self.out_dir = Path(out_dir)
        self.spans_on = spans
        self.cell_label = ""
        self.cell_policy = ""
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.buffer: List[Span] = []
        self.counts: Counter = Counter()
        self.stack: List[Span] = []
        self._seq = 0

    def _own(self) -> None:
        # A forked worker starts with a copy of the parent's buffer and
        # open spans; they belong to the parent, so start afresh.
        if os.getpid() != self.pid:
            self._reset()

    def count(self, name: str, value: int = 1) -> None:
        self._own()
        self.counts[name] += value

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; the caller may add attrs to the yielded dict."""
        self._own()
        if not self.spans_on:
            yield attrs
            return
        self._seq += 1
        record: Span = {
            "id": f"{self.pid}:{self._seq}",
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pid": self.pid,
            "label": self.cell_label,
            "attrs": attrs,
        }
        self.stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.buffer.append(record)

    def flush(self) -> None:
        """Append this process's spans and counts to its record file."""
        self._own()
        if not self.buffer and not self.counts:
            return
        line = json.dumps({"spans": self.buffer, "counts": dict(self.counts)})
        path = self.out_dir / f"rec-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.buffer = []
        self.counts = Counter()


def load(out_dir: Path) -> Tuple[List[Span], Counter]:
    """Every span and the summed counts that all processes flushed."""
    spans: List[Span] = []
    counts: Counter = Counter()
    for path in sorted(Path(out_dir).glob("rec-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            spans.extend(record["spans"])
            counts.update(record["counts"])
    return spans, counts


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    wrapper = make(original)
    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)


def _spanned(tracer: Tracer, name: str,
             measure: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> Callable[[Callable], Callable]:
    """Wrapper factory: one span named ``name`` per call; ``measure``
    maps ``(result, *args)`` to attrs recorded on the span."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
                if measure is not None and tracer.spans_on:
                    attrs.update(measure(result, *args, **kwargs))
            return result
        return wrapper

    return make


def _counted(tracer: Tracer, name: Callable[..., str],
             value: Callable[..., int] = lambda *args, **kwargs: 1
             ) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            tracer.count(name(*args, **kwargs), value(*args, **kwargs))
            return original(*args, **kwargs)
        return wrapper

    return make


#: Class name -> registry name of the baseline policies the workloads run.
_BASELINE_NAMES = {
    "LRUPolicy": "lru",
    "HawkeyePolicy": "hawkeye",
    "PerceptronPolicy": "perceptron",
    "BeladyPolicy": "min",
}


def _policy_name(tracer: Tracer, policy: Any) -> str:
    """Registry name of a replayed policy.

    MPPPB presets share one class, so an MPPPB replay takes the policy
    name of the cell running it (``mpppb-1a``, ``mpppb-mp``); replays
    for search candidates, which carry no policy name, are
    ``mpppb-batch``.
    """
    from repro.core.mpppb import MPPPBPolicy

    if isinstance(policy, MPPPBPolicy):
        return tracer.cell_policy or "mpppb-batch"
    return _BASELINE_NAMES.get(type(policy).__name__,
                               type(policy).__name__.lower())


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points so calls report to ``tracer``.

    Layers (span name prefix -> modules): ``traces`` (traces),
    ``hierarchy`` (sim/hierarchy, cpu/prefetcher), ``llc.<policy>``
    (sim/llc, sim/batch, sim/kernel and the policies), ``timing``
    (cpu/timing and the Stage-3 event builders), ``multi`` (sim/multi),
    ``store`` (exec/store, exec/artifacts), ``graph`` (graph/planner),
    ``runner`` (exec/runner, exec/backends/local) and ``cell`` (one
    cell's execution in whichever process ran it).  ``search`` spans
    are opened by the workload around its calls into ``repro.search``.
    """
    from repro.cpu.timing import TimingModel
    from repro.exec import runner as runner_mod
    from repro.exec.artifacts import ArtifactCache
    from repro.exec.store import ResultStore
    from repro.search.evaluator import FeatureSetEvaluator
    from repro.sim import single as single_mod
    from repro.sim.batch import BatchLLCSimulator
    from repro.sim.hierarchy import UpperLevels
    from repro.sim.llc import LLCSimulator
    from repro.sim.multi import MultiProgrammedRunner

    # -- Stage-2 path counters (both modes) -------------------------------
    _patch(BatchLLCSimulator, "run", _counted(tracer, lambda *a, **k: "kernel"))
    _patch(LLCSimulator, "run", _counted(tracer, lambda *a, **k: "reference"))

    # -- cells: label context and the per-process flush point --------------
    def cell_wrapper(original: Callable) -> Callable:
        def wrapper(cell, *args, **kwargs):
            outer = (tracer.cell_label, tracer.cell_policy)
            tracer.cell_label = cell.label()
            tracer.cell_policy = getattr(cell, "policy", "") or ""
            try:
                with tracer.span("cell"):
                    return original(cell, *args, **kwargs)
            finally:
                tracer.cell_label, tracer.cell_policy = outer
                if os.getpid() != tracer.root_pid:
                    tracer.flush()
        return wrapper

    _patch(runner_mod, "_execute_cell", cell_wrapper)
    if not tracer.spans_on:
        return

    # -- llc: replays named by policy --------------------------------------
    def llc_wrapper(policy_of: Callable[[Any], Any],
                    replays: Callable[[Any], int]) -> Callable:
        def make(original: Callable) -> Callable:
            def wrapper(self, stream, *args, **kwargs):
                name = "llc." + _policy_name(tracer, policy_of(self))
                with tracer.span(name, accesses=len(stream) * replays(self),
                                 kernel=isinstance(self, BatchLLCSimulator)):
                    return original(self, stream, *args, **kwargs)
            return wrapper
        return make

    _patch(LLCSimulator, "run",
           llc_wrapper(lambda sim: sim.policy, lambda sim: 1))
    _patch(BatchLLCSimulator, "run",
           llc_wrapper(lambda sim: sim.policies[0], lambda sim: len(sim.policies)))

    # -- traces -----------------------------------------------------------
    _patch(runner_mod.TraceSpec, "build", _spanned(
        tracer, "traces",
        lambda segments, *a, **k: {
            "accesses": sum(len(s.trace.pcs) for s in segments)}))

    # -- hierarchy (Stage 1) and its lookup counters ------------------------
    _patch(UpperLevels, "run", _spanned(
        tracer, "hierarchy",
        lambda result, self, trace, *a, **k: {
            "accesses": len(trace.pcs), "llc_out": len(result.llc_stream)}))
    _patch(single_mod.SingleThreadRunner, "upper_result",
           _counted(tracer, lambda *a, **k: "stage1_lookups"))
    _patch(single_mod.SingleThreadRunner, "prime_segments",
           _counted(tracer, lambda *a, **k: "stage1_lookups",
                    lambda self, segments, *a, **k: len(segments)))

    # -- timing (Stage 3) ---------------------------------------------------
    def simulate_wrapper(original: Callable) -> Callable:
        def wrapper(self, events, *args, **kwargs):
            counting = _CountingIter(events)
            with tracer.span("timing", calls=1) as attrs:
                result = original(self, counting, *args, **kwargs)
                attrs["loads"] = counting.count
            return result
        return wrapper

    _patch(TimingModel, "simulate", simulate_wrapper)
    _patch(TimingModel, "simulate_packed", _spanned(
        tracer, "timing",
        lambda result, self, instr, *a, **k: {"calls": 1, "loads": len(instr)}))
    for name in ("build_stage3_events", "demand_load_arrays"):
        _patch(single_mod, name, _spanned(tracer, "timing"))

    # -- multi (shared-LLC mixes) -------------------------------------------
    _patch(MultiProgrammedRunner, "run_mix", _spanned(
        tracer, "multi", lambda *a, **k: {"mixes": 1}))
    _patch(MultiProgrammedRunner, "thread_data",
           _counted(tracer, lambda *a, **k: "stage1_lookups"))
    _patch(MultiProgrammedRunner, "thread_data", _spanned(tracer, "multi"))

    # -- store (results and artifacts) -------------------------------------
    def result_bytes(result, self, key, *a, **k):
        return {"bytes_read": (os.path.getsize(self._path(key))
                               if result is not None else 0)}

    _patch(ResultStore, "get", _spanned(tracer, "store.read", result_bytes))
    _patch(ResultStore, "get_bytes", _spanned(
        tracer, "store.read",
        lambda data, *a, **k: {"bytes_read": len(data) if data else 0}))
    _patch(ResultStore, "put", _spanned(
        tracer, "store.write",
        lambda result, self, key, *a, **k: {
            "bytes_written": os.path.getsize(self._path(key))}))
    _patch(ResultStore, "put_bytes", _spanned(
        tracer, "store.write",
        lambda result, self, key, data, *a, **k: {"bytes_written": len(data)}))
    for name in ("load_segments", "load_upper"):
        _patch(ArtifactCache, name, _spanned(tracer, "store.read"))
    for name in ("store_segments", "store_upper"):
        _patch(ArtifactCache, name, _spanned(tracer, "store.write"))

    # -- graph planning and the driving runner ------------------------------
    _patch(runner_mod, "plan_cells", _spanned(tracer, "graph.plan"))
    for name in ("run", "run_search_batches"):
        _patch(runner_mod.ParallelRunner, name, _spanned(
            tracer, "runner.drive",
            lambda result, self, *a, **k: {"jobs": self.jobs}))
    _patch(FeatureSetEvaluator, "evaluate_many", _spanned(tracer, "search"))
