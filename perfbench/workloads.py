"""The benchmark's workloads: the paper's figure grids, driven through
the same public calls as the matching ``repro.cli`` commands.

Each workload function takes the scale, the workload seed, an engine
and a tracer, and returns the simulated per-cell results as rows of
plain values, the input of :func:`digest`.  The engine keeps the
``ExecReport`` of every drive the workload made.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.exec import MixCell, ParallelRunner, SingleCell, SuiteSpec, TraceSpec
from repro.search import hill_climb, random_search
from repro.search.evaluator import FeatureSetEvaluator
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import benchmark_names

#: Policies of the Fig. 6/7 single-thread comparison (one drive each,
#: as ``repro.cli compare`` makes them).
FIG6_POLICIES = ("lru", "hawkeye", "perceptron", "mpppb-1a", "min")
#: Policies and mix count of ``repro.cli mix`` for Figs. 4/5.
FIG4_POLICIES = ("lru", "mpppb-mp")
FIG4_MIXES = 3
#: Workloads of ``repro.cli search`` for the Fig. 3 feature search.
FIG3_NAMES = ("soplex", "lbm", "gamess")

Rows = List[List[Any]]


class Engine(ParallelRunner):
    """The CLI's engine, keeping the report of every drive it makes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reports: List[Any] = []

    def run(self, *args, **kwargs):
        result = super().run(*args, **kwargs)
        self.reports.append(self.last_report)
        return result

    def run_search_batches(self, *args, **kwargs):
        result = super().run_search_batches(*args, **kwargs)
        self.reports.append(self.last_report)
        return result


def _segment_rows(policy: str, result) -> Rows:
    return [[policy, s.segment_name, s.mpki, s.ipc, s.llc_hits, s.llc_misses,
             s.llc_bypasses] for s in result.segments]


def fig6_grid(scale, seed: int, engine: Engine, tracer) -> Rows:
    rows: Rows = []
    names = sorted(benchmark_names())
    for policy in FIG6_POLICIES:
        cells = [
            SingleCell(
                trace=TraceSpec(name, scale.hierarchy.llc_bytes,
                                scale.segment_accesses, seed),
                policy=policy,
                hierarchy=scale.hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for name in names
        ]
        for result in engine.run(cells, label=f"compare/{policy}"):
            rows.extend(_segment_rows(policy, result) if result else [None])
    return rows


def fig3_search(scale, seed: int, engine: Engine, tracer) -> Rows:
    accesses = max(2_000, scale.segment_accesses // 4)
    spec = SuiteSpec(scale.hierarchy.llc_bytes, accesses, seed=seed,
                     names=FIG3_NAMES)
    with tracer.span("search"):
        evaluator = FeatureSetEvaluator.from_spec(
            spec, scale.hierarchy, warmup_fraction=scale.warmup_fraction,
            executor=engine)
    with tracer.span("search") as attrs:
        candidates = random_search(evaluator, scale.random_feature_sets,
                                   seed=seed)
        refined = hill_climb(evaluator, candidates[0].features,
                             steps=scale.hillclimb_steps, seed=seed)
        attrs["candidates"] = evaluator.evaluations
    rows: Rows = [[[f.spec() for f in c.features], c.mpki] for c in candidates]
    rows.append([[f.spec() for f in refined.features], refined.mpki,
                 list(refined.history)])
    return rows


def fig4_mix(scale, seed: int, engine: Engine, tracer) -> Rows:
    accesses = max(2_000, scale.segment_accesses // 3)
    suite = SuiteSpec(scale.hierarchy.llc_bytes, accesses, seed=seed)
    with tracer.span("traces"):
        mixes = generate_mixes(suite.build(), FIG4_MIXES)
    rows: Rows = []
    for policy in FIG4_POLICIES:
        cells = [
            MixCell(
                suite=suite,
                mix_name=mix.name,
                segment_names=tuple(s.name for s in mix.segments),
                policy=policy,
                hierarchy=scale.multi_hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for mix in mixes
        ]
        for r in engine.run(cells, label=f"mix/{policy}"):
            rows.append(None if r is None else [
                policy, r.mix_name, list(r.thread_names), r.mpki,
                list(r.ipcs), list(r.single_ipcs), r.llc_misses,
                r.llc_bypasses])
    return rows


@dataclass(frozen=True)
class Workload:
    """A workload's function and its pool size (``jobs=0`` is one worker
    per CPU, the ``REPRO_JOBS=0`` setting)."""

    run: Callable[..., Rows]
    jobs: int


WORKLOADS: Dict[str, Workload] = {
    "fig6-grid": Workload(fig6_grid, 0),
    "fig3-search": Workload(fig3_search, 1),
    "fig4-mix": Workload(fig4_mix, 1),
}


def digest(rows: Rows) -> str:
    """SHA-256 of the simulated results; floats hash by their exact repr."""
    data = json.dumps(rows, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()
