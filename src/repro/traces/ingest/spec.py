"""Ingested-workload recipes: digests, windowing, segment weights.

An :class:`IngestSpec` is to a real trace file what the synthetic
registry entry is to a generated benchmark: a small frozen recipe that
travels inside execution cells, keys the artifact/result caches, and
can rebuild its segments in any worker process.  Two deliberate
asymmetries versus the synthetic path:

* **Content digest, not path, in every key.**  ``payload()`` hashes
  the file's SHA-256 plus the decode/window recipe — never the path —
  so renaming or copying a trace keeps every cached artifact valid.
  The digest is computed once per file and persisted in a
  ``<file>.repro-digest.json`` sidecar (revalidated by size+mtime), so
  repeated runs never re-hash a multi-GB trace.

* **Chunk size is not keyed.**  ``chunk`` bounds resident decode
  state; it must never change results, and the determinism suite pins
  bit-identical hashes across chunk sizes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.faults import ConfigError
from repro.traces.ingest.readers import (
    DEFAULT_CHUNK,
    detect_format,
    open_source,
)
from repro.traces.trace import Segment, Trace

_SIDECAR_SUFFIX = ".repro-digest.json"
_SIDECAR_SCHEMA = 1
_DIGEST_BLOCK = 1 << 20


def trace_digest(path: str) -> str:
    """SHA-256 of the file, streamed; cached in a sidecar next to it.

    The sidecar records (size, mtime_ns, sha256) and is reused while
    both stat fields still match; writing it is best-effort so
    read-only trace directories still work (they just re-hash).
    """
    try:
        stat = os.stat(path)
    except OSError as exc:
        raise ConfigError(f"cannot stat trace file: {exc}") from None
    sidecar = path + _SIDECAR_SUFFIX
    try:
        with open(sidecar, "r", encoding="utf-8") as handle:
            cached = json.load(handle)
        if (cached.get("schema") == _SIDECAR_SCHEMA
                and cached.get("size") == stat.st_size
                and cached.get("mtime_ns") == stat.st_mtime_ns
                and isinstance(cached.get("sha256"), str)):
            return cached["sha256"]
    except (OSError, ValueError, TypeError):
        pass
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_DIGEST_BLOCK)
            if not block:
                break
            digest.update(block)
    hexdigest = digest.hexdigest()
    try:
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump({"schema": _SIDECAR_SCHEMA, "size": stat.st_size,
                       "mtime_ns": stat.st_mtime_ns, "sha256": hexdigest},
                      handle)
    except OSError:
        pass
    return hexdigest


def _workload_name(path: str) -> str:
    """Derive a workload name from the file name.

    Segment names are ``<workload>.<segment>`` everywhere (the mix
    builder and graph planner split on the first dot), so dots and
    other separators collapse to ``-``.
    """
    stem = os.path.basename(path)
    for suffix in (".gz", ".bin", ".champsim", ".champsimtrace", ".csv",
                   ".txt", ".trace", ".out"):
        if stem.lower().endswith(suffix):
            stem = stem[: -len(suffix)]
    name = re.sub(r"[^A-Za-z0-9_-]+", "-", stem).strip("-_")
    if not name:
        raise ConfigError(
            f"cannot derive a workload name from {path!r}; pass --trace-name"
        )
    return name


@dataclass(frozen=True)
class IngestSpec:
    """Recipe for one ingested workload: file digest + decode window.

    ``skip`` records are discarded (warmup), then ``segments`` windows
    of ``accesses`` records each become weighted
    :class:`~repro.traces.trace.Segment` objects (SimPoint-style;
    ``weights`` empty means equal weights).  ``path`` and ``chunk``
    are carried for execution but excluded from ``payload()``.
    """

    path: str
    format: str
    digest: str
    name: str
    skip: int = 0
    accesses: int = 4_000
    segments: int = 1
    weights: Tuple[float, ...] = ()
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self) -> None:
        if "." in self.name or not self.name:
            raise ConfigError(
                f"ingested workload name {self.name!r} must be non-empty "
                f"and dot-free"
            )
        if self.skip < 0:
            raise ConfigError("--trace-skip must be non-negative")
        if self.accesses <= 0:
            raise ConfigError("--trace-accesses must be positive")
        if self.segments <= 0:
            raise ConfigError("--trace-segments must be positive")
        if self.weights and len(self.weights) != self.segments:
            raise ConfigError(
                f"--trace-weights needs {self.segments} values "
                f"(one per segment), got {len(self.weights)}"
            )
        if any(weight <= 0 for weight in self.weights):
            raise ConfigError("--trace-weights must all be positive")

    # -- keys --------------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Cache-key form: content digest + window recipe, no path/chunk."""
        return {
            "digest": self.digest,
            "format": self.format,
            "skip": self.skip,
            "accesses": self.accesses,
            "segments": self.segments,
            "weights": list(self.weights),
        }

    def segment_names(self) -> List[str]:
        """Static segment names (no file I/O) for the graph planner."""
        return [f"{self.name}.s{i}" for i in range(self.segments)]

    def segment_weights(self) -> Tuple[float, ...]:
        if self.weights:
            return self.weights
        return tuple([1.0 / self.segments] * self.segments)

    # -- materialization ---------------------------------------------------

    def build(self) -> List[Segment]:
        """Stream-decode the measured window into weighted segments.

        Reads exactly ``skip + segments * accesses`` records and stops
        — on a multi-GB trace the file is never fully read, let alone
        materialized (the streaming test asserts both via the source's
        byte counter).
        """
        source = open_source(self.path, self.format, chunk=self.chunk)
        names = self.segment_names()
        weights = self.segment_weights()
        segments: List[Segment] = []
        window: List[Tuple[int, int, bool, int, bool]] = []
        skipped = 0
        iterator = source.records()
        for record in iterator:
            if skipped < self.skip:
                skipped += 1
                continue
            window.append(record)
            if len(window) == self.accesses:
                index = len(segments)
                trace = Trace.from_accesses(names[index], window)
                segments.append(Segment(names[index], trace, weights[index]))
                window = []
                if len(segments) == self.segments:
                    break
        iterator.close()
        if len(segments) < self.segments:
            total = self.skip + self.segments * self.accesses
            got = skipped + len(segments) * self.accesses + len(window)
            raise ConfigError(
                f"{self.path}: trace too short — window needs {total} "
                f"records (skip={self.skip}, {self.segments}x"
                f"{self.accesses}), file has {got}"
            )
        return segments


def parse_weights(text: str) -> Tuple[float, ...]:
    """Parse a ``w1,w2,...`` flag/env value into a weight tuple."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"malformed --trace-weights {text!r}; "
                          f"expected comma-separated numbers") from None


def resolve_ingest(
    path: str,
    fmt: Optional[str] = None,
    name: Optional[str] = None,
    skip: int = 0,
    accesses: int = 4_000,
    segments: int = 1,
    weights: Sequence[float] = (),
    chunk: int = DEFAULT_CHUNK,
    reserved: Sequence[str] = (),
) -> IngestSpec:
    """Build an :class:`IngestSpec` from CLI/env inputs.

    Computes (or revalidates) the content digest here, exactly once per
    invocation, so every downstream cache key is ready before any cell
    is scheduled.  ``reserved`` guards collisions with the synthetic
    benchmark registry.
    """
    resolved_format = fmt or detect_format(path)
    resolved_name = name if name is not None else _workload_name(path)
    if resolved_name in reserved:
        raise ConfigError(
            f"ingested workload name {resolved_name!r} collides with a "
            f"synthetic benchmark; pass --trace-name"
        )
    digest = trace_digest(path)
    return IngestSpec(
        path=os.path.abspath(path),
        format=resolved_format,
        digest=digest,
        name=resolved_name,
        skip=skip,
        accesses=accesses,
        segments=segments,
        weights=tuple(weights),
        chunk=chunk,
    )
