"""``LocalPoolBackend``: the worker pool behind the parallel drive loop.

A thin wrapper over :class:`~concurrent.futures.ProcessPoolExecutor`
that speaks in completion :class:`Frame` records, so the drive loop in
:class:`~repro.exec.runner.ParallelRunner` routes every outcome the
same way: ``ok`` frames settle, ``error`` frames go through retry and
failure handling, and ``lost`` frames (``BrokenProcessPool``: a worker
died under the task) go through requeue + rebuild.  Each request runs
the runner's own :func:`~repro.exec.runner._execute_cell` entry point,
so pool and serial execution are bit-identical.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Frame statuses the pool emits.
FRAME_OK = "ok"
FRAME_ERROR = "error"
FRAME_LOST = "lost"


class BackendUnavailable(RuntimeError):
    """The pool cannot accept or continue work until rebuilt."""


@dataclass
class Frame:
    """One completion record.

    ``payload`` depends on ``status``: the ``(result, seconds,
    artifact-delta, telemetry)`` tuple for ``ok``, the exception for
    ``error``, and a human-readable reason string for ``lost``.
    """

    task_id: int
    status: str
    payload: Any = None


def _execute_request(request: Tuple[Any, ...]) -> Any:
    """Pool-worker entry point: ``_execute_cell(*request)``.

    Looked up on the runner module at call time, so a wrapper installed
    there before the pool forks also wraps worker-side execution.
    """
    from repro.exec import runner

    return runner._execute_cell(*request)


class LocalPoolBackend:
    """Worker slots backed by a local :class:`ProcessPoolExecutor`."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        # Workers start lazily, on the first submit.
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers)
        self._futures: Dict[Future, int] = {}

    def submit(self, task_id: int, request: Tuple[Any, ...]) -> None:
        """Dispatch one request; :class:`BackendUnavailable` if unable."""
        if self._pool is None:
            raise BackendUnavailable("local pool is not running")
        try:
            future = self._pool.submit(_execute_request, request)
        except Exception as exc:
            raise BackendUnavailable(f"local pool rejected work: {exc}")
        self._futures[future] = task_id

    def poll(self, timeout: Optional[float]) -> List[Frame]:
        """Frames completed within ``timeout`` seconds (None = block)."""
        if not self._futures:
            return []
        done, _ = wait(set(self._futures), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        frames: List[Frame] = []
        for future in done:
            task_id = self._futures.pop(future)
            try:
                payload = future.result()
            except BrokenProcessPool:
                frames.append(Frame(task_id, FRAME_LOST,
                                    "process pool broke under this cell"))
            except Exception as exc:
                frames.append(Frame(task_id, FRAME_ERROR, exc))
            else:
                frames.append(Frame(task_id, FRAME_OK, payload))
        return frames

    def discard(self, task_id: int) -> None:
        """Forget an in-flight task; its late completion is dropped."""
        for future, tid in list(self._futures.items()):
            if tid == task_id:
                future.cancel()
                del self._futures[future]
                return

    def rebuild(self) -> None:
        """Restart every worker, dropping all in-flight tasks."""
        self._futures.clear()
        self._teardown()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def close(self) -> None:
        """Tear everything down.  Idempotent; never raises."""
        self._futures.clear()
        self._teardown()

    def _teardown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Workers may be dead or hung; terminate before shutdown so a
        # straggler cannot wedge the parent.
        processes = dict(getattr(pool, "_processes", None) or {})
        for process in processes.values():
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
