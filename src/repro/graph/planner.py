"""Lower a batch of experiment cells into one planned artifact graph.

The planner walks the cells a run is about to execute (result-cache
misses only — hits never reach it), derives every artifact node each
cell depends on *without building anything* (segment names come from
the benchmark registry, keys from the same helpers the artifact cache
hashes with), deduplicates shared nodes across cells, stats the store
for what is already materialized, and runs the cost-model passes.

The output drives two execution-side mechanisms:

* **prelude groups** — shared nodes planned for compute are
  materialized once, up front, by dedicated materialize tasks; the
  dependent cells then load them instead of each recomputing
  (K-way fan-out pays Stage-1 exactly once per node).  A shared node
  only joins the prelude when loading it back is predicted cheaper
  than every consumer recomputing it.
* **deny set** — materialized nodes whose plan says *compute* (load
  would be slower, e.g. a cache on cold storage) are exempted from
  artifact-cache lookups, so execution follows the plan instead of
  blindly preferring whatever exists on disk.

Planning is advisory: every decision changes only *where bytes come
from*, never their values, and any planner failure degrades to the
unplanned path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.artifacts import scope_payload, stage1_key, trace_key
from repro.exec.cachekey import stable_hash
from repro.exec.store import ResultStore
from repro.graph.costs import CostModel
from repro.graph.model import ExperimentGraph, GraphNode
from repro.traces.workloads import benchmark_names, get_benchmark, segment_names


@dataclass(frozen=True)
class PreludeGroup:
    """Shared artifacts to materialize once before the cell wave.

    ``trace`` is the runner's ``TraceSpec`` (passed through opaquely);
    ``segments`` the qualified segment names whose Stage-1 results the
    group computes (may be empty when only the trace is shared).
    """

    trace: Any
    segments: Tuple[str, ...]
    hierarchy: Any
    prefetch: bool


@dataclass
class GraphPlan:
    """A planned batch: the graph plus its execution-side digests."""

    graph: ExperimentGraph
    deny: frozenset = frozenset()
    prelude: Tuple[PreludeGroup, ...] = ()
    counts: Dict[str, int] = field(default_factory=dict)


def _cell_inputs(cell: Any) -> Optional[List[Tuple[Any, Any, bool, List[str]]]]:
    """(trace_spec, hierarchy, prefetch, segment names) per benchmark.

    Duck-typed on ``cell.kind`` so the planner never imports the runner
    (which imports the planner).  Unknown kinds return ``None`` and are
    executed unplanned.
    """
    kind = getattr(cell, "kind", None)
    if kind == "single":
        spec = cell.trace
        return [(spec, cell.hierarchy, cell.prefetch, _spec_segments(spec))]
    if kind == "mix":
        by_benchmark: Dict[str, List[str]] = {}
        for name in cell.segment_names:
            benchmark = name.rsplit(".", 1)[0]
            by_benchmark.setdefault(benchmark, []).append(name)
        return [
            (cell.suite.trace_spec(benchmark), cell.hierarchy, cell.prefetch,
             names)
            for benchmark, names in sorted(by_benchmark.items())
        ]
    if kind in ("search", "search-batch"):
        suite = cell.suite
        workloads = getattr(suite, "workloads", None)
        names = (workloads() if workloads is not None
                 else sorted(suite.names or benchmark_names()))
        return [
            (suite.trace_spec(benchmark), cell.hierarchy, cell.prefetch,
             _spec_segments(suite.trace_spec(benchmark)))
            for benchmark in sorted(names)
        ]
    return None


def _spec_segments(spec: Any) -> List[str]:
    """Static segment names for a trace spec, registry or ingested."""
    names = getattr(spec, "segment_names", None)
    if names is not None:
        return names()
    return segment_names(spec.benchmark)


def _spec_scope(spec: Any) -> Dict[str, Any]:
    """Stage-1 scope for a trace spec, hashed exactly as the runner's."""
    scope = getattr(spec, "stage1_scope", None)
    if scope is not None:
        return scope()
    return scope_payload(spec.llc_bytes, spec.accesses, spec.seed)


def _spec_trace_accesses(spec: Any) -> int:
    """Total accesses the spec's trace node covers (cost-model input)."""
    ingest = getattr(spec, "ingest", None)
    if ingest is not None:
        return ingest.accesses * ingest.segments
    return spec.accesses * len(get_benchmark(spec.benchmark).segments)


def _spec_segment_accesses(spec: Any) -> int:
    """Accesses per segment (Stage-1 node cost-model input)."""
    ingest = getattr(spec, "ingest", None)
    if ingest is not None:
        return ingest.accesses
    return spec.accesses


def plan_cells(items: Sequence[Tuple[Any, str]], store: ResultStore,
               costs: CostModel) -> GraphPlan:
    """Build, cost, and plan the artifact graph for ``items``.

    ``items`` pairs each cell with its (already computed) result cache
    key.  The store is only ``stat``-ed, never read.
    """
    graph = ExperimentGraph()
    # Prelude bookkeeping: group key -> (group fields, stage1 node keys).
    groups: Dict[Tuple[str, str, bool], Dict[str, Any]] = {}

    for cell, cell_key in items:
        inputs = _cell_inputs(cell)
        if inputs is None:
            continue
        parent_keys: List[str] = []
        for spec, hierarchy, prefetch, seg_names in inputs:
            trace_payload = spec.payload()
            tkey = trace_key(trace_payload)
            tnode = graph.add(GraphNode(
                key=tkey, kind="trace", label=f"{spec.benchmark} trace",
                accesses=_spec_trace_accesses(spec),
            ))
            scope = _spec_scope(spec)
            hpayload = dataclasses.asdict(hierarchy)
            hkey = stable_hash(hpayload)
            group = groups.setdefault((tkey, hkey, prefetch), {
                "trace": spec, "hierarchy": hierarchy, "prefetch": prefetch,
                "stage1": {},
            })
            snode_keys: List[str] = []
            for name in seg_names:
                skey = stage1_key(scope, name, hpayload, prefetch)
                graph.add(GraphNode(
                    key=skey, kind="stage1", label=f"{name} stage1",
                    parents=(tkey,), accesses=_spec_segment_accesses(spec),
                ))
                group["stage1"][skey] = name
                snode_keys.append(skey)
            if tkey not in parent_keys:
                parent_keys.append(tkey)
            parent_keys.extend(snode_keys)
        cell_node = GraphNode(
            key=cell_key, kind="cell", label=cell.label(),
            parents=tuple(parent_keys),
        )
        if cell_key in graph.nodes:
            # Two distinct cells never share a result key, but guard
            # anyway: fold into the existing node's consumer count.
            cell_node = graph.nodes[cell_key]
        else:
            graph.add(cell_node)
        for key in dict.fromkeys(parent_keys):
            graph.nodes[key].consumers += 1

    # Stat the store for materialized blobs + sizes, then run the
    # passes.
    for node in graph.artifact_nodes():
        size = store.stat_bytes(node.key)
        if size is not None:
            node.materialized = True
            node.blob_bytes = size
    graph.plan(costs)

    deny = frozenset(
        node.key for node in graph.artifact_nodes()
        if node.materialized and node.needed and node.action == "compute"
    )

    prelude: List[PreludeGroup] = []
    for (tkey, hkey, prefetch), group in sorted(
        groups.items(), key=lambda item: item[0]
    ):
        def _shared_compute_pays(key: str) -> bool:
            node = graph.nodes[key]
            if not (node.needed and node.action == "compute"
                    and node.consumers > 1 and not node.materialized):
                # A materialized compute node is in the deny set: the
                # plan already judged loading it back a loss, so
                # re-materializing it up front would not help either.
                return False
            # Materializing once only pays if the K-1 follow-up loads
            # beat K-1 recomputes.
            est = costs.load_cost(costs.estimate_bytes(node.kind,
                                                       node.accesses))
            return est < node.compute_cost
        seg_keys = [key for key in group["stage1"] if _shared_compute_pays(key)]
        if not seg_keys and not _shared_compute_pays(tkey):
            continue
        prelude.append(PreludeGroup(
            trace=group["trace"],
            segments=tuple(sorted(group["stage1"][key] for key in seg_keys)),
            hierarchy=group["hierarchy"],
            prefetch=prefetch,
        ))

    return GraphPlan(graph=graph, deny=deny, prelude=tuple(prelude),
                     counts=graph.counts())
