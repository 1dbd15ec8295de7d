"""Tests for the worker pool behind the parallel drive loop
(:class:`repro.exec.pool.LocalPoolBackend`).

Each test drives real pool worker processes through the same
submit/poll/discard/rebuild/close calls the runner makes, so the
outcomes the drive loop depends on — ``ok`` results identical to a
serial run, ``lost`` frames for dead workers, discarded tasks that
never surface, and rebuilds that restore capacity — are exercised
against live processes, not a mock.
"""

import time

import pytest

from repro.config import TINY
from repro.exec import LocalPoolBackend, SingleCell, TraceSpec, stable_hash
from repro.exec.pool import FRAME_LOST, FRAME_OK, BackendUnavailable
from repro.exec.runner import _execute_cell

ACCESSES = 2_000

#: Hangs every cell on its first attempt; attempt 2 runs clean.
HANG_ONCE = "hang:every=1,seconds=600,times=1"


def _cell(benchmark="gamess", policy="lru"):
    return SingleCell(
        trace=TraceSpec(benchmark, TINY.hierarchy.llc_bytes, ACCESSES),
        policy=policy,
        hierarchy=TINY.hierarchy,
        warmup_fraction=TINY.warmup_fraction,
    )


def _request(cell, attempt=1):
    return (cell, stable_hash(cell.key_payload()), None, attempt, True,
            False, frozenset())


def _serial_result(cell):
    result, _, _, _ = _execute_cell(cell, stable_hash(cell.key_payload()))
    return result


def _wait_running(pool, deadline_s=60.0):
    """Block until every in-flight task has reached a worker."""
    deadline = time.monotonic() + deadline_s
    while not all(future.running() for future in pool._futures):
        assert time.monotonic() < deadline
        time.sleep(0.01)


def _workers(pool):
    return list((pool._pool._processes or {}).values())


class TestWorkerFleetBackend:
    """The pool's worker processes as the drive loop sees them when
    one is killed from outside (an OOM kill, say) or the pool is torn
    down."""

    def test_killed_worker_yields_lost_frame(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG_ONCE)
        pool = LocalPoolBackend(1)
        try:
            pool.submit(4, _request(_cell()))
            _wait_running(pool)
            [worker] = _workers(pool)
            worker.kill()
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (4, FRAME_LOST)
            assert pool.poll(timeout=0) == []
        finally:
            pool.close()

    def test_discarded_task_never_surfaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG_ONCE)
        pool = LocalPoolBackend(1)
        try:
            pool.submit(9, _request(_cell()))
            _wait_running(pool)
            pool.discard(9)
            # The worker dies under the discarded task: neither its
            # result nor its loss may reach the drive loop.
            for worker in _workers(pool):
                worker.kill()
            deadline = time.monotonic() + 30.0
            while pool._pool._broken is False:
                assert time.monotonic() < deadline
                assert pool.poll(timeout=0.2) == []
            assert pool.poll(timeout=0.2) == []
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = LocalPoolBackend(1)
        pool.submit(1, _request(_cell()))
        pool.close()
        pool.close()
        assert pool.poll(timeout=0) == []
        with pytest.raises(BackendUnavailable):
            pool.submit(2, _request(_cell()))


class TestDiscardSemantics:
    def test_soft_discard_frees_slot_without_rebuild(self):
        # The slot finishes its (now unwanted) cell, the late result is
        # dropped, and the slot is reusable without a rebuild.
        pool = LocalPoolBackend(1)
        try:
            executor = pool._pool
            pool.submit(1, _request(_cell()))
            pool.discard(1)
            assert pool.poll(timeout=0.2) == []
            cell = _cell("soplex")
            pool.submit(2, _request(cell))
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (2, FRAME_OK)
            result, _, _, _ = frame.payload
            assert result == _serial_result(cell)
            assert pool._pool is executor  # no rebuild happened
        finally:
            pool.close()

    def test_hard_discard_retires_slot_until_rebuild(self, monkeypatch):
        # The watchdog's abandonment of a hung cell: the worker stays
        # busy with it, so the slot is retired until the rebuild that
        # the drive loop always follows a timeout with.
        cell = _cell()
        expected = _serial_result(cell)
        monkeypatch.setenv("REPRO_FAULT_INJECT", HANG_ONCE)
        pool = LocalPoolBackend(1)
        try:
            pool.submit(7, _request(cell))
            _wait_running(pool)
            pool.discard(7)
            pool.submit(8, _request(_cell("soplex"), attempt=2))
            assert pool.poll(timeout=1.0) == []  # stuck behind the hang
            pool.rebuild()
            # The rebuild dropped task 8 with the old workers; nothing
            # from the old generation ever surfaces.
            assert pool.poll(timeout=0.1) == []
            pool.submit(9, _request(cell, attempt=2))
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (9, FRAME_OK)
            result, _, _, _ = frame.payload
            assert result == expected
        finally:
            pool.close()

    def test_idle_worker_death_shrinks_capacity(self):
        pool = LocalPoolBackend(2)
        try:
            pool.submit(1, _request(_cell()))
            [frame] = pool.poll(timeout=120)
            assert frame.status == FRAME_OK
            victim = _workers(pool)[0]
            victim.kill()
            deadline = time.monotonic() + 30.0
            while pool._pool._broken is False:
                # An idle death produces no lost frame, since no task
                # was riding the slot; it only takes capacity away.
                assert time.monotonic() < deadline
                assert pool.poll(timeout=0.2) == []
            with pytest.raises(BackendUnavailable):
                pool.submit(2, _request(_cell("soplex")))
            pool.rebuild()
            pool.submit(3, _request(_cell("soplex")))
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (3, FRAME_OK)
        finally:
            pool.close()


class TestLocalPoolBackend:
    def test_executes_cell_and_matches_serial(self):
        cell = _cell()
        pool = LocalPoolBackend(1)
        try:
            pool.submit(1, _request(cell))
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (1, FRAME_OK)
            result, _, _, _ = frame.payload
            assert result == _serial_result(cell)
        finally:
            pool.close()

    def test_worker_death_is_a_lost_frame_and_rebuild_recovers(
            self, monkeypatch):
        cell = _cell()
        key = stable_hash(cell.key_payload())
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"crash:key={key[:16]}")
        pool = LocalPoolBackend(1)
        try:
            pool.submit(1, _request(cell))
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (1, FRAME_LOST)
            pool.rebuild()
            # The crash rule fires on attempt 1 only.
            pool.submit(2, _request(cell, attempt=2))
            [frame] = pool.poll(timeout=120)
            assert (frame.task_id, frame.status) == (2, FRAME_OK)
        finally:
            pool.close()
