"""Run manifests: explicit, resumable completion state for cell batches.

The result store already gives interrupted runs *implicit* resume —
completed cells are cache hits on the next invocation.  A
:class:`RunManifest` makes that state explicit and reportable: each
:meth:`~repro.exec.runner.ParallelRunner.run` (or
``run_search_batches``) call with an attached store records the run's
cell-key set and per-cell completion status on disk, so an interrupted
``compare``/``search``/``mix`` can be inspected (``repro.cli resume``
with no argument) and re-driven (``repro.cli resume <run-id>``), and
tests can assert that a resumed run re-executes only unfinished cells.

Layout, under the result-store root::

    <root>/runs/<run_id>.json   # immutable run description
    <root>/runs/<run_id>.done   # append-only "<status> <key>" log

``run_id`` is the stable hash of the run's label, launching CLI
command, and sorted cell-key set, so re-running the same command
reopens the same manifest and its completion log.  Statuses are
``done`` (result computed or served from cache) and ``failed``
(terminal :class:`~repro.exec.faults.CellFailure`); anything not
``done`` counts as pending and is re-executed on resume.  Results
themselves live only in the store — the manifest tracks state, never
data.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.cachekey import stable_hash

#: Subdirectory of the result-store root holding run manifests.
MANIFEST_DIR = "runs"

#: Bump when the manifest JSON layout changes; old files are ignored.
MANIFEST_SCHEMA = 1

#: Execution flags of earlier releases that the CLI no longer accepts.
#: Manifests recorded with them still hash to the same run id, and
#: ``resume`` drops them from the re-driven command.
RETIRED_EXEC_FLAGS = ("--backend", "--workers", "--shared-store", "--hedge")

#: CLI flags that change *how* a run executes, never *what* it runs.
#: They are stripped from the command before hashing the run id, so
#: resuming with different execution settings (``resume --jobs 8``)
#: reopens the same manifest and completion log.
EXEC_FLAGS = ("--jobs",) + RETIRED_EXEC_FLAGS

#: Statuses a ``.done`` log line may carry; anything else on a line is
#: treated as corruption and skipped on replay.
_VALID_STATUSES = ("done", "failed")


def manifest_fsync() -> bool:
    """Whether ``.done`` appends fsync (``REPRO_MANIFEST_FSYNC``)."""
    return (os.environ.get("REPRO_MANIFEST_FSYNC", "").strip().lower()
            in ("1", "true", "yes", "on"))


def strip_flags(command: Sequence[str],
                flags: Sequence[str]) -> List[str]:
    """Drop valued ``flags`` (space and ``=`` forms) from an argv."""
    stripped: List[str] = []
    skip = False
    for part in command:
        if skip:
            skip = False
            continue
        if part in flags:
            skip = True
            continue
        if any(part.startswith(f"{flag}=") for flag in flags):
            continue
        stripped.append(part)
    return stripped


def strip_exec_flags(command: Sequence[str]) -> List[str]:
    """Drop execution-only flags (space and ``=`` forms) from an argv."""
    return strip_flags(command, EXEC_FLAGS)


@dataclass
class RunManifest:
    """One recorded run: its cells, launching command, and progress."""

    root: Path                          # the <store>/runs directory
    run_id: str
    label: str
    command: List[str]                  # CLI argv; [] for library runs
    cells: Dict[str, Dict[str, str]]    # key -> {"label", "kind"}
    statuses: Dict[str, str] = field(default_factory=dict)
    # Execution settings of the most recent invocation (the job
    # count) — informational, never part of the run id, so a resume
    # with different settings updates it in place.
    exec_info: Dict[str, str] = field(default_factory=dict)
    # True when the ``.done`` log ended mid-line (a torn write from a
    # crash or power loss): the torn tail was skipped on replay and
    # the next append starts on a fresh line.
    _tail_torn: bool = field(default=False, repr=False)

    @property
    def path(self) -> Path:
        return self.root / f"{self.run_id}.json"

    @property
    def done_path(self) -> Path:
        return self.root / f"{self.run_id}.done"

    @property
    def events_path(self) -> Path:
        """Where this run's telemetry event log lives (``repro.obs``)."""
        from repro.obs.events import EVENTS_SUFFIX

        return self.root / f"{self.run_id}{EVENTS_SUFFIX}"

    @classmethod
    def create(cls, store_root, label: str, command: Sequence[str],
               cells: Sequence[Tuple[str, str, str]],
               exec_info: Optional[Dict[str, str]] = None) -> "RunManifest":
        """Open (creating if needed) the manifest for this cell set.

        ``cells`` is a sequence of ``(key, label, kind)`` records.  An
        existing manifest for the same run id is reused, so resumed
        runs continue the original completion log.  Execution-only
        flags are stripped from the command before hashing, so a
        resume with an overridden ``--jobs`` reopens the same run; the manifest file is rewritten when the
        recorded execution settings change (the ``.done`` log is
        untouched).
        """
        keys = sorted(key for key, _, _ in cells)
        run_id = stable_hash({
            "manifest": MANIFEST_SCHEMA,
            "label": label,
            "command": strip_exec_flags(command),
            "keys": keys,
        })
        root = Path(store_root) / MANIFEST_DIR
        manifest = cls(
            root=root, run_id=run_id, label=label, command=list(command),
            cells={key: {"label": cell_label, "kind": kind}
                   for key, cell_label, kind in cells},
            exec_info=dict(exec_info or {}),
        )
        try:
            root.mkdir(parents=True, exist_ok=True)
            existing = _read_manifest(manifest.path)
            if existing is None or existing.exec_info != manifest.exec_info:
                payload = {
                    "schema": MANIFEST_SCHEMA,
                    "run_id": run_id,
                    "label": label,
                    "command": manifest.command,
                    "cells": manifest.cells,
                    "exec": manifest.exec_info,
                }
                fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
                os.replace(tmp, manifest.path)
        except OSError:
            pass  # manifests are best-effort; execution never depends on them
        manifest._load_statuses()
        return manifest

    @classmethod
    def load(cls, store_root, run_id: str) -> Optional["RunManifest"]:
        """Read one manifest back; ``None`` if absent or unreadable."""
        root = Path(store_root) / MANIFEST_DIR
        return _read_manifest(root / f"{run_id}.json")

    def _load_statuses(self) -> None:
        """Replay the ``.done`` log, tolerating a torn final write.

        A crash (or power loss without :data:`REPRO_MANIFEST_FSYNC`)
        can leave the log's last line truncated mid-record.  Such a
        tail must not wedge a resume: it is skipped — the cell it
        described simply counts as pending and re-executes — and the
        next :meth:`mark` starts on a fresh line.  Unknown statuses
        and keys outside this run are skipped the same way, so a
        corrupted byte range costs at most its own records.
        """
        self.statuses = {}
        self._tail_torn = False
        try:
            with open(self.done_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                content = handle.read()
        except OSError:
            return
        if not content:
            return
        lines = content.split("\n")
        if lines[-1] == "":
            lines.pop()  # well-formed log: trailing newline
        else:
            lines.pop()  # torn tail: the final record never finished
            self._tail_torn = True
        for line in lines:
            status, _, key = line.strip().partition(" ")
            if status in _VALID_STATUSES and key in self.cells:
                self.statuses[key] = status

    def mark(self, key: str, status: str) -> None:
        """Append a status transition for ``key`` (idempotent)."""
        if self.statuses.get(key) == status:
            return
        self.statuses[key] = status
        # A detected torn tail is terminated first so this record
        # starts on its own line instead of extending the partial one.
        prefix = "\n" if self._tail_torn else ""
        try:
            with open(self.done_path, "a", encoding="utf-8") as handle:
                handle.write(f"{prefix}{status} {key}\n")
                if manifest_fsync():
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError:
            return
        self._tail_torn = False

    def completed(self) -> Set[str]:
        return {key for key, status in self.statuses.items()
                if status == "done"}

    def pending(self) -> Set[str]:
        """Cells a resume must re-execute (never completed, or failed)."""
        return set(self.cells) - self.completed()

    @property
    def is_complete(self) -> bool:
        return not self.pending()

    def progress(self) -> str:
        done = len(self.completed())
        failed = sum(1 for status in self.statuses.values()
                     if status == "failed")
        line = f"{done}/{len(self.cells)} cells done"
        if failed:
            line += f", {failed} failed"
        return line


def _read_manifest(path: Path) -> Optional[RunManifest]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if (not isinstance(payload, dict)
            or payload.get("schema") != MANIFEST_SCHEMA):
        return None
    try:
        manifest = RunManifest(
            root=path.parent,
            run_id=str(payload["run_id"]),
            label=str(payload.get("label", "")),
            command=[str(part) for part in payload.get("command", [])],
            cells={str(key): {"label": str(meta.get("label", "")),
                              "kind": str(meta.get("kind", ""))}
                   for key, meta in payload["cells"].items()},
            exec_info={str(name): str(value)
                       for name, value in dict(
                           payload.get("exec") or {}).items()},
        )
    except (KeyError, TypeError, AttributeError):
        return None
    manifest._load_statuses()
    return manifest


def list_runs(store_root) -> List[RunManifest]:
    """All readable manifests under ``store_root``, oldest first."""
    root = Path(store_root) / MANIFEST_DIR
    if not root.is_dir():
        return []
    entries = []
    for path in root.glob("*.json"):
        manifest = _read_manifest(path)
        if manifest is None:
            continue
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = 0.0
        entries.append((mtime, path.name, manifest))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return [manifest for _, _, manifest in entries]
