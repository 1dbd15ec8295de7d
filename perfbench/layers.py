"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the time its child spans
cover.  A layer's ``self_s`` sums the self time of its spans over every
process, so on a workload with N pool workers the layers together can
account for up to N times the wall time.  ``unattributed_s`` is the
part of the traced phases' wall time that no span of any process
covers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

#: Policies whose Stage-2 replays get their own ``llc.<policy>`` metrics.
LLC_POLICIES = ("lru", "hawkeye", "perceptron", "mpppb-1a", "min",
                "mpppb-mp", "mpppb-batch")


def _union(intervals: Iterable[Interval]) -> List[Interval]:
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _length(intervals: Iterable[Interval]) -> float:
    return sum(end - start for start, end in intervals)


def _subtract(base: Sequence[Interval], cut: Sequence[Interval]) -> List[Interval]:
    """``base`` minus ``cut``; both sorted and disjoint."""
    out: List[Interval] = []
    j = 0
    for start, end in base:
        while j < len(cut) and cut[j][1] <= start:
            j += 1
        k = j
        while k < len(cut) and cut[k][0] < end:
            if cut[k][0] > start:
                out.append((start, cut[k][0]))
            start = max(start, cut[k][1])
            k += 1
        if start < end:
            out.append((start, end))
    return out


def _clip(intervals: Sequence[Interval], window: Interval) -> List[Interval]:
    lo, hi = window
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[dict], counts: Dict[str, int],
                  reports: Dict[str, int], windows: Sequence[Interval],
                  root_pids: Sequence[int]) -> Dict[str, float]:
    """Every per-layer metric except ``trace_overhead`` (run.py adds it).

    ``windows`` are the traced phases' (start, end) readings, ``reports``
    the summed drive-report counters of those phases and ``root_pids``
    the processes that drove them (the rest are pool workers).
    """
    children: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    self_s: Dict[str, float] = defaultdict(float)
    attr: Dict[str, float] = defaultdict(float)
    kernel_s = 0.0
    for span in spans:
        own = (span["end"] - span["start"]) - sum(
            c["end"] - c["start"] for c in children[span["id"]])
        name = span["name"]
        self_s[name] += own
        if span["attrs"].get("kernel"):
            kernel_s += own
        for key, value in span["attrs"].items():
            if key != "kernel":
                attr[f"{name}.{key}"] += value

    m: Dict[str, float] = {}
    m["traces.self_s"] = self_s["traces"]
    m["traces.accesses"] = attr["traces.accesses"]
    m["traces.ns_per_access"] = 1e9 * _ratio(self_s["traces"],
                                             attr["traces.accesses"])

    m["hierarchy.self_s"] = self_s["hierarchy"]
    m["hierarchy.accesses"] = attr["hierarchy.accesses"]
    m["hierarchy.llc_out"] = attr["hierarchy.llc_out"]
    m["hierarchy.ns_per_access"] = 1e9 * _ratio(self_s["hierarchy"],
                                                attr["hierarchy.accesses"])
    computes = sum(1 for span in spans if span["name"] == "hierarchy")
    lookups = counts.get("stage1_lookups", 0)
    m["hierarchy.memo_hit_ratio"] = _ratio(lookups - computes, lookups)

    for policy in LLC_POLICIES:
        name = f"llc.{policy}"
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.accesses"] = attr[f"{name}.accesses"]
        m[f"{name}.ns_per_access"] = 1e9 * _ratio(self_s[name],
                                                  attr[f"{name}.accesses"])
    llc_total = sum(v for k, v in self_s.items() if k.startswith("llc."))
    m["llc.kernel_share"] = _ratio(kernel_s, llc_total)
    m["llc.kernel_replays"] = counts.get("kernel", 0)
    m["llc.reference_replays"] = counts.get("reference", 0)

    m["timing.self_s"] = self_s["timing"]
    m["timing.calls"] = attr["timing.calls"]
    m["timing.loads"] = attr["timing.loads"]
    m["timing.ns_per_load"] = 1e9 * _ratio(self_s["timing"],
                                           attr["timing.loads"])

    m["multi.self_s"] = self_s["multi"]
    m["multi.mixes"] = attr["multi.mixes"]

    m["search.self_s"] = self_s["search"]
    m["search.candidates"] = attr["search.candidates"]

    resolved = reports["hits"] + reports["computed"] + reports["failed"]
    m["store.result_hit_ratio"] = _ratio(reports["hits"], resolved)
    artifact_hits = reports["trace_hits"] + reports["stage1_hits"]
    m["store.artifact_hit_ratio"] = _ratio(
        artifact_hits,
        artifact_hits + reports["trace_misses"] + reports["stage1_misses"])
    m["store.bytes_read"] = attr["store.read.bytes_read"]
    m["store.bytes_written"] = attr["store.write.bytes_written"]
    m["store.read_s"] = self_s["store.read"]
    m["store.write_s"] = self_s["store.write"]

    # Runner: a drive keeps `jobs` slots; time a slot spends without a
    # cell in it is idle (dispatch, the per-drive barrier, pool start).
    cells = [(s["start"], s["end"]) for s in spans if s["name"] == "cell"]
    worker_cells = _union((s["start"], s["end"]) for s in spans
                          if s["name"] == "cell" and s["pid"] not in root_pids)
    busy = slots = dispatch = 0.0
    for drive in (s for s in spans if s["name"] == "runner.drive"):
        window = (drive["start"], drive["end"])
        jobs = drive["attrs"].get("jobs", 1)
        drive_busy = sum(min(e, window[1]) - max(s, window[0])
                         for s, e in cells if e > window[0] and s < window[1])
        busy += drive_busy
        slots += (window[1] - window[0]) * jobs
        own = _subtract([window], _union(
            (c["start"], c["end"]) for c in children[drive["id"]]))
        dispatch += _length(_subtract(own, worker_cells))
    m["runner.dispatch_self_s"] = dispatch
    m["runner.cell_self_s"] = self_s["cell"]
    m["runner.worker_util"] = _ratio(busy, slots)
    m["runner.barrier_idle_s"] = slots - busy
    m["runner.retries"] = reports["retries"]
    m["runner.requeued"] = reports["requeued"]
    m["runner.cell_fail_frac"] = _ratio(reports["failed"], resolved)

    m["graph.plan_s"] = self_s["graph.plan"]
    m["graph.nodes"] = reports["graph_nodes"]
    m["graph.loads"] = reports["graph_loads"]
    m["graph.computes"] = reports["graph_computes"]

    covered = _union((s["start"], s["end"]) for s in spans)
    m["unattributed_s"] = sum(
        (hi - lo) - _length(_clip(covered, (lo, hi))) for lo, hi in windows)
    m["span_coverage"] = 1.0 - _ratio(m["unattributed_s"],
                                      _length(windows))
    return m
