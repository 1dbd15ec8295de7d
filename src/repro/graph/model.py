"""Experiment graph: artifact nodes plus the linear-time reuse pass.

A batch of experiment cells lowers into one DAG whose nodes are the
content-addressed artifacts the pipeline produces:

* ``trace`` — one benchmark's synthesized segments (sources);
* ``stage1`` — one segment's L1/L2+prefetcher stream (parent: trace);
* ``cell`` — one Stage-2 replay + Stage-3 timing result (sinks; always
  computed here, since cells whose results sit in the result cache
  never reach the planner).

Nodes shared by several cells appear exactly once — the planner
deduplicates by cache key — so the graph makes cross-cell sharing
explicit *before* execution instead of discovering it through ad hoc
per-worker cache lookups.

Planning runs the two linear passes from the collaborative-ML workload
optimizer (SIGMOD 2020): a **forward pass** in topological order that
chooses, for every materialized vertex ``v``, to load iff

    C_l(v) < C_i(v) + sum(recreation_cost(p) for p in parents(v))

(where ``C_l`` is the load cost, ``C_i`` the vertex's own compute cost,
and a loaded vertex's recreation cost collapses to ``C_l``), and a
**backward prune** from the sinks that unmarks vertices nothing needs:
a planned load cuts recomputation off above it, so its parents are
only needed if some *other* computed vertex still requires them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graph.costs import CostModel


@dataclass
class GraphNode:
    """One artifact vertex with its measured-cost annotations."""

    key: str                       # content-addressed cache key
    kind: str                      # "trace" | "stage1" | "cell"
    label: str                     # human-readable ("gamess.p0 stage1")
    parents: Tuple[str, ...] = ()  # keys of recreation inputs
    accesses: int = 0              # work proxy: trace accesses covered
    consumers: int = 0             # number of cells referencing the node
    materialized: bool = False     # blob present in the store at plan time
    blob_bytes: int = 0            # size of the materialized blob
    compute_cost: float = 0.0      # C_i(v), filled by plan()
    load_cost: float = float("inf")  # C_l(v), finite iff materialized
    action: str = "compute"        # "load" | "compute", filled by plan()
    needed: bool = True            # survives the backward prune


@dataclass
class ExperimentGraph:
    """Deduplicated artifact DAG over one batch of cells."""

    nodes: Dict[str, GraphNode] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)  # topological (insertion)

    def add(self, node: GraphNode) -> GraphNode:
        """Insert ``node`` unless its key exists; returns the canonical one.

        Parents must be added before children — insertion order doubles
        as the topological order the forward pass walks.
        """
        existing = self.nodes.get(node.key)
        if existing is not None:
            return existing
        for parent in node.parents:
            if parent not in self.nodes:
                raise ValueError(f"parent {parent!r} added after child")
        self.nodes[node.key] = node
        self.order.append(node.key)
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    # -- the SIGMOD-2020 reuse passes --------------------------------------

    def plan(self, costs: CostModel) -> None:
        """Annotate every node with its optimal ``action`` in-place."""
        recreation: Dict[str, float] = {}
        for key in self.order:
            node = self.nodes[key]
            node.compute_cost = costs.compute_cost(node.kind, node.accesses)
            total = node.compute_cost + sum(
                recreation[parent] for parent in node.parents
            )
            if node.materialized:
                node.load_cost = costs.load_cost(node.blob_bytes)
                if node.load_cost < total:
                    node.action = "load"
                    recreation[key] = node.load_cost
                    continue
            node.action = "compute"
            recreation[key] = total

        # Backward prune: only vertices transitively required by a sink
        # through *computed* vertices stay needed; a load is a cut.
        for node in self.nodes.values():
            node.needed = False
        stack = [key for key in self.order if self.nodes[key].kind == "cell"]
        while stack:
            node = self.nodes[stack.pop()]
            if node.needed:
                continue
            node.needed = True
            if node.action == "compute":
                stack.extend(node.parents)

    # -- plan summaries ----------------------------------------------------

    def artifact_nodes(self) -> List[GraphNode]:
        return [n for n in self.nodes.values() if n.kind != "cell"]

    def counts(self) -> Dict[str, int]:
        """Planned-action counters for the exec report."""
        arts = self.artifact_nodes()
        needed = [n for n in arts if n.needed]
        return {
            "nodes": len(arts),
            "loads": sum(1 for n in needed if n.action == "load"),
            "computes": sum(1 for n in needed if n.action == "compute"),
            "shared": sum(1 for n in arts if n.consumers > 1),
            "pruned": len(arts) - len(needed),
        }
