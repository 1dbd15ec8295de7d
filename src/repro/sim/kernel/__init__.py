"""Columnar Stage-2 replay kernel.

This package is the one fast path of the MPPPB Stage-2 replay: it
lowers a segment's Stage-1 LLC stream into numpy columns once
(:mod:`~repro.sim.kernel.columns`) and replays every MPPPB candidate
over those columns through one C function (``replay.c``), built with
the system C compiler on the first kernel replay and called through
:mod:`ctypes` (:mod:`~repro.sim.kernel.native`).
:class:`~repro.sim.llc.LLCSimulator` is the reference it must match.

The same column front end (stream decode, PC-history gathers, the
vectorized splitmix64) also lowers the per-access hashing of the
Perceptron and Hawkeye baselines once per replay; those policies still
replay through :class:`~repro.sim.llc.LLCSimulator` and read the
columns by stream index (:func:`stream_columns_enabled`).

The ``REPRO_STAGE2_KERNEL`` environment variable is ``auto`` (the
default) or ``off``.  Because the kernel is bit-identical to
:class:`~repro.sim.llc.LLCSimulator` (pinned by the determinism suite
and ``tests/test_kernel.py``), the knob never appears in cache keys;
without a working C compiler ``auto`` resolves to ``off`` with a
one-line notice and the results do not change.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence

try:  # numpy is an optional extra ([perf]); everything degrades.
    import numpy as _np

    _np_error = None
except ImportError as _exc:  # pragma: no cover - exercised via fallback tests
    _np = None
    _np_error = str(_exc)

_DISABLED = ("off", "0", "false", "no", "none")
_AUTO = ("on", "1", "true", "yes", "auto", "best")
_notices_emitted = set()


def _notice(key: str, message: str) -> None:
    """One line to stderr, once per process per condition."""
    if key not in _notices_emitted:
        _notices_emitted.add(key)
        print(f"repro: {message}", file=sys.stderr)


def available_backends() -> dict:
    """Whether the C kernel builds and loads here (for perf reports)."""
    return {"c": native_error() is None}


def native_error() -> Optional[str]:
    """Why the C kernel cannot run (``None`` = it can); builds it."""
    if _np is None:
        return f"numpy is not installed: {_np_error}"
    from repro.sim.kernel import native

    return native.load()[1]


def stage2_kernel_backend() -> str:
    """Resolve ``REPRO_STAGE2_KERNEL`` to ``c`` or ``off``.

    Unset (or ``auto``/``on``) means the C kernel, which is compiled
    here on first use.  Without numpy or a working C compiler it
    resolves to ``off`` with a one-line notice: the reference replay
    (:class:`~repro.sim.llc.LLCSimulator`) produces bit-identical
    results, so the choice is purely about speed.
    """
    raw = os.environ.get("REPRO_STAGE2_KERNEL")
    value = (raw or "auto").strip().lower()
    if value in _DISABLED:
        return "off"
    if value not in _AUTO:
        _notice(f"unknown-{value}",
                f"unknown REPRO_STAGE2_KERNEL={raw!r}; using automatic "
                "backend selection (off|auto)")
    why = native_error()
    if why is not None:
        _notice("no-c-kernel",
                f"Stage-2 C kernel unavailable ({why}); falling back to "
                "the reference replay")
        return "off"
    return "c"


def stream_columns_enabled() -> bool:
    """Whether baseline policies may lower their inputs to numpy columns.

    The lowering (:func:`~repro.sim.kernel.columns.perceptron_rows`,
    :func:`~repro.sim.kernel.columns.pc_hash_column`) needs numpy only;
    ``REPRO_STAGE2_KERNEL=off`` keeps the scalar per-access hashing, so
    the kernel-off mode stays the pure-Python reference replay.  Unlike
    :func:`stage2_kernel_backend` this never builds the C kernel.
    """
    if _np is None:
        return False
    raw = os.environ.get("REPRO_STAGE2_KERNEL") or ""
    return raw.strip().lower() not in _DISABLED


def replay_batch(sim, stream: Sequence, pc_trace: Sequence[int],
                 warmup: int) -> Optional[List]:
    """Replay all candidates of ``sim`` through the C kernel.

    Returns one :class:`~repro.sim.llc.LLCResult` per candidate, or
    ``None`` when a precondition fails — the caller
    (:meth:`~repro.sim.batch.BatchLLCSimulator.run`) then replays each
    candidate through the reference
    :class:`~repro.sim.llc.LLCSimulator`.  Preconditions are checked for
    every candidate before any candidate state is touched, so a
    ``None`` never leaves a half-replayed batch behind.
    """
    if _np is None:
        return None
    from repro.sim.kernel import columns as _columns
    from repro.sim.kernel import native

    first = sim.policies[0].sampler
    try:
        cols = _columns.lower_stream(
            stream,
            pc_trace,
            sim.num_sets,
            first.mapper._stride,
            first.mapper.sampler_sets,
            first.tag_bits,
            sim._slots,
            sim._needs_h,
        )
    except OverflowError:  # a PC or address beyond int64
        return None
    return native.replay_all(sim, cols, warmup)
