"""Array-packed binary artifacts: shared traces and Stage-1 streams.

A compare over N policies previously paid trace synthesis and the
Stage-1 (L1/L2 + prefetcher) simulation once *per worker process*, and
again on every fresh invocation.  This module memoizes both as compact
binary blobs in the content-addressed :class:`~repro.exec.store.
ResultStore`, so any number of policies, workers, and sessions pay
each cost exactly once per (recipe, hierarchy) combination.

Two artifact kinds exist:

* ``trace`` — one benchmark's synthesized segments, keyed by the
  :class:`~repro.exec.runner.TraceSpec` payload (benchmark, LLC sizing
  used for generation, access budget, generator seed);
* ``stage1`` — one segment's :class:`~repro.sim.hierarchy.
  UpperLevelResult`, keyed by the trace *generation scope* (LLC bytes,
  accesses, seed — segment names embed the benchmark), the segment
  name, the :class:`~repro.sim.hierarchy.HierarchyConfig`, and the
  prefetcher toggle.

Blobs are **not pickled**.  The container is a small self-describing
frame::

    magic "RPA1" | uint32-LE meta length | canonical-JSON meta | payload

where the meta records the cache-key ``SCHEMA_VERSION``, the artifact
kind, the producer's byte order, scalar fields, and a manifest of
``array``-module segments (name, typecode, element count) that the
payload concatenates in order.  Loading validates all of it; any
mismatch (schema bump, truncation, foreign endianness that fails to
byteswap, corruption) degrades to a miss and the artifact is rebuilt —
the cold path is always available and bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.cachekey import SCHEMA_VERSION, canonical_json, stable_hash
from repro.exec.store import ResultStore
from repro.sim.hierarchy import HierarchyConfig, UpperLevelResult
from repro.sim.llc import LLCAccess
from repro.traces.trace import Segment, Trace

MAGIC = b"RPA1"

#: flag bits shared by trace accesses and LLC stream entries
_F_WRITE = 1
_F_DEP = 2       # trace: address-dependent load (pointer chase)
_F_PREFETCH = 2  # stage1 stream: prefetch fill


# -- framing ---------------------------------------------------------------


def pack_artifact(kind: str, scalars: Dict[str, Any],
                  arrays: Sequence[Tuple[str, str, Sequence[int]]]) -> bytes:
    """Frame scalars plus named integer arrays into one binary blob."""
    manifest: List[List[Any]] = []
    payload: List[bytes] = []
    for name, typecode, values in arrays:
        packed = array(typecode, values)
        manifest.append([name, typecode, len(packed)])
        payload.append(packed.tobytes())
    meta = canonical_json({
        "schema": SCHEMA_VERSION,
        "artifact": kind,
        "endian": sys.byteorder,
        "scalars": scalars,
        "arrays": manifest,
    }).encode("utf-8")
    header = MAGIC + len(meta).to_bytes(4, "little")
    return b"".join([header, meta] + payload)


def unpack_artifact(
    blob: bytes, kind: str
) -> Optional[Tuple[Dict[str, Any], Dict[str, array]]]:
    """Parse a blob back into (scalars, name -> array); None if invalid."""
    try:
        if blob[:4] != MAGIC:
            return None
        meta_len = int.from_bytes(blob[4:8], "little")
        meta = json.loads(blob[8:8 + meta_len].decode("utf-8"))
        if meta.get("schema") != SCHEMA_VERSION or meta.get("artifact") != kind:
            return None
        arrays: Dict[str, array] = {}
        cursor = 8 + meta_len
        for name, typecode, count in meta["arrays"]:
            packed = array(typecode)
            size = count * packed.itemsize
            if cursor + size > len(blob):
                return None
            packed.frombytes(blob[cursor:cursor + size])
            if meta.get("endian") != sys.byteorder:
                packed.byteswap()
            arrays[name] = packed
            cursor += size
        if cursor != len(blob):
            return None
        return meta["scalars"], arrays
    except (ValueError, TypeError, KeyError, IndexError, OverflowError):
        return None


# -- keys ------------------------------------------------------------------


def scope_payload(llc_bytes: int, accesses: int, seed: int) -> Dict[str, int]:
    """Trace *generation scope*: the Stage-1 key fields shared by every
    segment of one (suite, sizing) combination.  The runner and the
    graph planner must hash identical scopes, so both build them here."""
    return {"llc_bytes": llc_bytes, "accesses": accesses, "seed": seed}


def ingest_scope(ingest_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stage-1 scope for an *ingested* workload's segments.

    Real-trace content is fixed by (digest, window) alone — the
    synthetic generation scope's LLC sizing and seed play no part —
    so keying on the ingest payload maximizes Stage-1 sharing across
    differently-sized runs over the same trace file."""
    return {"ingest": ingest_payload}


def trace_key(trace_payload: Dict[str, Any]) -> str:
    return stable_hash({
        "schema": SCHEMA_VERSION,
        "artifact": "trace",
        "trace": trace_payload,
    })


def stage1_key(scope: Dict[str, Any], segment_name: str,
               hierarchy_payload: Dict[str, int], prefetch: bool) -> str:
    return stable_hash({
        "schema": SCHEMA_VERSION,
        "artifact": "stage1",
        "scope": scope,
        "segment": segment_name,
        "hierarchy": hierarchy_payload,
        "prefetch": prefetch,
    })


# -- trace <-> blob --------------------------------------------------------


def pack_segments(segments: Sequence[Segment]) -> bytes:
    """Pack one benchmark's weighted segments (names/weights in meta)."""
    arrays: List[Tuple[str, str, Sequence[int]]] = []
    for i, segment in enumerate(segments):
        trace = segment.trace
        flags = [
            (_F_WRITE if write else 0) | (_F_DEP if dep else 0)
            for write, dep in zip(trace.writes, trace.deps)
        ]
        arrays.append((f"{i}:pcs", "Q", trace.pcs))
        arrays.append((f"{i}:addresses", "Q", trace.addresses))
        arrays.append((f"{i}:gaps", "Q", trace.gaps))
        arrays.append((f"{i}:flags", "B", flags))
    scalars = {
        "names": [segment.name for segment in segments],
        "weights": [segment.weight for segment in segments],
    }
    return pack_artifact("trace", scalars, arrays)


def unpack_segments(blob: bytes) -> Optional[List[Segment]]:
    parsed = unpack_artifact(blob, "trace")
    if parsed is None:
        return None
    scalars, arrays = parsed
    try:
        segments: List[Segment] = []
        for i, (name, weight) in enumerate(zip(scalars["names"],
                                               scalars["weights"])):
            flags = arrays[f"{i}:flags"]
            trace = Trace(
                name,
                arrays[f"{i}:pcs"].tolist(),
                arrays[f"{i}:addresses"].tolist(),
                [bool(f & _F_WRITE) for f in flags],
                arrays[f"{i}:gaps"].tolist(),
                [bool(f & _F_DEP) for f in flags],
            )
            segments.append(Segment(name, trace, weight))
        return segments
    except (KeyError, ValueError, TypeError):
        return None


# -- UpperLevelResult <-> blob ---------------------------------------------


def pack_upper(upper: UpperLevelResult) -> bytes:
    stream = upper.llc_stream
    flags = [
        (_F_WRITE if access.is_write else 0)
        | (_F_PREFETCH if access.is_prefetch else 0)
        for access in stream
    ]
    arrays: List[Tuple[str, str, Sequence[int]]] = [
        ("service", "q", upper.service),
        ("instr_indices", "q", upper.instr_indices),
        ("s_pc", "Q", [access.pc for access in stream]),
        ("s_block", "Q", [access.block for access in stream]),
        ("s_offset", "B", [access.offset for access in stream]),
        ("s_flags", "B", flags),
        ("s_mem", "q", [access.mem_index for access in stream]),
        ("s_instr", "q", [access.instr_index for access in stream]),
    ]
    scalars = {
        "num_instructions": upper.num_instructions,
        "l1_hits": upper.l1_hits,
        "l1_misses": upper.l1_misses,
        "l2_hits": upper.l2_hits,
        "l2_misses": upper.l2_misses,
        "prefetches_issued": upper.prefetches_issued,
    }
    return pack_artifact("stage1", scalars, arrays)


def unpack_upper(blob: bytes) -> Optional[UpperLevelResult]:
    parsed = unpack_artifact(blob, "stage1")
    if parsed is None:
        return None
    scalars, arrays = parsed
    try:
        stream = [
            LLCAccess(
                pc=pc,
                block=block,
                offset=offset,
                is_write=bool(flag & _F_WRITE),
                is_prefetch=bool(flag & _F_PREFETCH),
                mem_index=mem,
                instr_index=instr,
            )
            for pc, block, offset, flag, mem, instr in zip(
                arrays["s_pc"], arrays["s_block"], arrays["s_offset"],
                arrays["s_flags"], arrays["s_mem"], arrays["s_instr"],
            )
        ]
        return UpperLevelResult(
            service=arrays["service"].tolist(),
            instr_indices=arrays["instr_indices"].tolist(),
            llc_stream=stream,
            num_instructions=scalars["num_instructions"],
            l1_hits=scalars["l1_hits"],
            l1_misses=scalars["l1_misses"],
            l2_hits=scalars["l2_hits"],
            l2_misses=scalars["l2_misses"],
            prefetches_issued=scalars["prefetches_issued"],
        )
    except (KeyError, ValueError, TypeError):
        return None


# -- the cache -------------------------------------------------------------


def peek_kind(path) -> Optional[str]:
    """Artifact kind of a blob file from its frame header, or ``None``.

    Reads only the header + meta (never the payload), so inspecting a
    large cache stays cheap.  Used by ``repro.cli cache stats``.
    """
    try:
        with open(path, "rb") as handle:
            header = handle.read(8)
            if header[:4] != MAGIC:
                return None
            meta_len = int.from_bytes(header[4:8], "little")
            if meta_len > 1_000_000:
                return None
            meta = json.loads(handle.read(meta_len).decode("utf-8"))
        kind = meta.get("artifact")
        return kind if isinstance(kind, str) else None
    except (OSError, ValueError, TypeError):
        return None


@dataclass
class ArtifactStats:
    """Hit/miss counters per artifact kind, over one cache lifetime.

    Also accumulates blob-read throughput samples (bytes and
    microseconds spent in successful store reads) — the graph
    scheduler's cost model learns the store's load speed from them.
    """

    trace_hits: int = 0
    trace_misses: int = 0
    stage1_hits: int = 0
    stage1_misses: int = 0
    read_bytes: int = 0
    read_us: int = 0

    def counts(self) -> Dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "stage1_hits": self.stage1_hits,
            "stage1_misses": self.stage1_misses,
            "read_bytes": self.read_bytes,
            "read_us": self.read_us,
        }


class ArtifactCache:
    """Trace and Stage-1 artifacts over one :class:`ResultStore`.

    Lookups that fail for *any* reason (absent, stale schema, corrupt)
    count as misses; after a miss the caller computes the artifact and
    stores it back, so the cache is self-healing and the simulation
    result never depends on whether a lookup succeeded.

    ``deny_loads`` is the graph scheduler's plan hook: keys in the set
    are treated as misses without touching the store, forcing the
    planned recompute when loading was judged slower.  Denied or not,
    results are bit-identical — only the source of the bytes changes.
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.stats = ArtifactStats()
        self.deny_loads: frozenset = frozenset()

    def _read(self, key: str) -> Optional[bytes]:
        """Plan-aware, throughput-timed store read."""
        if key in self.deny_loads:
            return None
        start = time.perf_counter()
        blob = self.store.get_bytes(key)
        if blob is not None:
            self.stats.read_bytes += len(blob)
            self.stats.read_us += int((time.perf_counter() - start) * 1e6)
        return blob

    # -- traces -----------------------------------------------------------

    def load_segments(self, trace_payload: Dict[str, Any]
                      ) -> Optional[List[Segment]]:
        blob = self._read(trace_key(trace_payload))
        segments = None if blob is None else unpack_segments(blob)
        if segments is None:
            self.stats.trace_misses += 1
        else:
            self.stats.trace_hits += 1
        return segments

    def store_segments(self, trace_payload: Dict[str, Any],
                       segments: Sequence[Segment]) -> None:
        self.store.put_bytes(trace_key(trace_payload), pack_segments(segments))

    # -- stage-1 results --------------------------------------------------

    def load_upper(self, scope: Dict[str, Any], segment_name: str,
                   hierarchy_payload: Dict[str, int],
                   prefetch: bool) -> Optional[UpperLevelResult]:
        key = stage1_key(scope, segment_name, hierarchy_payload, prefetch)
        blob = self._read(key)
        upper = None if blob is None else unpack_upper(blob)
        if upper is None:
            self.stats.stage1_misses += 1
        else:
            self.stats.stage1_hits += 1
        return upper

    def store_upper(self, scope: Dict[str, Any], segment_name: str,
                    hierarchy_payload: Dict[str, int], prefetch: bool,
                    upper: UpperLevelResult) -> None:
        key = stage1_key(scope, segment_name, hierarchy_payload, prefetch)
        self.store.put_bytes(key, pack_upper(upper))

    def stage1_store(self, scope: Dict[str, Any],
                     hierarchy: HierarchyConfig,
                     prefetch: bool,
                     scope_overrides: Optional[Dict[str, Dict[str, Any]]]
                     = None) -> "Stage1ArtifactStore":
        return Stage1ArtifactStore(self, scope, hierarchy, prefetch,
                                   scope_overrides)


class Stage1ArtifactStore:
    """Per-(scope, hierarchy) adapter the simulation runners plug in.

    :class:`~repro.sim.single.SingleThreadRunner` and
    :class:`~repro.sim.multi.MultiProgrammedRunner` consult ``load``
    before running Stage 1 and call ``save`` after computing it; their
    own in-memory memoization still sits in front, so within one runner
    each segment is (de)serialized at most once.

    ``scope_overrides`` maps a *workload name* (the part of a segment
    name before the first dot) to a replacement scope — how a mixed
    suite keys its synthetic segments by generation scope and its
    ingested segments by content digest in one store.
    """

    def __init__(self, cache: ArtifactCache, scope: Dict[str, Any],
                 hierarchy: HierarchyConfig, prefetch: bool,
                 scope_overrides: Optional[Dict[str, Dict[str, Any]]]
                 = None) -> None:
        self.cache = cache
        self.scope = scope
        self.scope_overrides = scope_overrides or {}
        self.hierarchy_payload = dataclasses.asdict(hierarchy)
        self.prefetch = prefetch

    def _scope_for(self, segment_name: str) -> Dict[str, Any]:
        if not self.scope_overrides:
            return self.scope
        workload = segment_name.split(".", 1)[0]
        return self.scope_overrides.get(workload, self.scope)

    def load(self, segment: Segment) -> Optional[UpperLevelResult]:
        return self.cache.load_upper(self._scope_for(segment.name),
                                     segment.name,
                                     self.hierarchy_payload, self.prefetch)

    def save(self, segment: Segment, upper: UpperLevelResult) -> None:
        self.cache.store_upper(self._scope_for(segment.name), segment.name,
                               self.hierarchy_payload, self.prefetch, upper)
