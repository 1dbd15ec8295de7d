"""Columnar lowering of a Stage-1 LLC stream (the kernel's phase 1).

The batch engine (:mod:`repro.sim.batch`) describes the
candidate-invariant part of a Stage-2 replay as a slot layout.  This
module computes it once per stream as numpy array expressions:

* **Stream columns** — block, set index, 16-bit partial tag, sampler
  set, prefetch flag — become vectorized mask/shift/mod expressions.
* **Static feature slots** — the deduplicated ``(source, lo, hi,
  bits)`` extractions of :func:`repro.sim.batch._descriptor` — become
  vectorized slice-and-fold pipelines, including the splitmix64 PC
  hash (:func:`repro.util.hashing.mix64` replicated in wrapping
  ``uint64`` arithmetic) and the PC-history gathers.

Every column is bit-identical to the scalar reference:
:func:`repro.predictors.base.partial_tag` and the sampler's
``sampler_index`` for the stream columns, and each feature's
:meth:`~repro.core.features.Feature.compile` closure for its slot;
``tests/test_kernel.py`` pins the round trip.
All intermediate arithmetic runs in ``uint64`` (64-bit address/PC
slices and the hash multiplies overflow ``int64``) and results are
narrowed to ``int64`` at the end, the type the C replay kernel reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import BLOCK_OFFSET_BITS, INDEX_BITS, MAX_TABLE_SIZE
from repro.sim.llc import LLCAccess
from repro.util.hashing import _GOLDEN64, _MIX1, _MIX2

_XOR_MASK = MAX_TABLE_SIZE - 1


def mix64_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized splitmix64 finalizer over a ``uint64`` array.

    Mirrors :func:`repro.util.hashing.mix64` statement for statement;
    numpy ``uint64`` arithmetic wraps modulo 2**64 exactly like the
    ``& MASK64`` in the scalar version.
    """
    values = values + np.uint64(_GOLDEN64)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(_MIX1)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(_MIX2)
    return values ^ (values >> np.uint64(31))


def hash_to_array(values: "np.ndarray", width: int) -> "np.ndarray":
    """Vectorized :func:`repro.util.hashing.hash_to`, as ``int64``."""
    return (mix64_array(values)
            & np.uint64((1 << width) - 1)).astype(np.int64)


def combine_array(values: "np.ndarray", salt: int) -> "np.ndarray":
    """Vectorized two-argument :func:`repro.util.hashing.combine`:
    ``combine(value, salt)`` for every ``uint64`` value."""
    return mix64_array(mix64_array(values) ^ np.uint64(salt))


def pc_hash_array(pcs: "np.ndarray", width: int) -> "np.ndarray":
    """Vectorized :func:`repro.util.hashing.pc_hash` over ``int64`` PCs.

    The shift is arithmetic on ``int64`` before the two's-complement
    widening, exactly like ``pc >> 2`` on a Python int.
    """
    return hash_to_array((pcs >> np.int64(2)).astype(np.uint64), width)


def stream_field(stream: Sequence[LLCAccess], name: str,
                 dtype: Any = np.int64) -> "np.ndarray":
    """One :class:`~repro.sim.llc.LLCAccess` attribute as a column.

    Raises :class:`OverflowError` when a value does not fit ``dtype``
    (e.g. a 64-bit PC at or above 2**63 in ``int64``).
    """
    return np.fromiter(map(attrgetter(name), stream), dtype=dtype,
                       count=len(stream))


def history_base(mems: "np.ndarray", prefetch: "np.ndarray") -> "np.ndarray":
    """Per-access PC-history base, as the sequential ``AccessContext``
    derives it: prefetches observe the history *including* their
    triggering access, so their base is one past ``mem_index``."""
    return mems + prefetch.astype(np.int64)


def past_pcs(hist: "np.ndarray", hbase: "np.ndarray",
             depth: int) -> "np.ndarray":
    """``hist[hbase - depth]`` as ``uint64``, zero where out of range.

    The vectorized form of the scalar history probe
    ``history[i] if 0 <= i < len(history) else 0``.
    """
    hlen = len(hist)
    if hlen == 0:
        return np.zeros(len(hbase), dtype=np.uint64)
    idx = hbase - np.int64(depth)
    valid = (idx >= 0) & (idx < hlen)
    return np.where(valid, hist[np.clip(idx, 0, hlen - 1)],
                    np.int64(0)).astype(np.uint64)


def _slice_and_fold_array(source: "np.ndarray", lo: int, hi: int,
                          bits: int) -> "np.ndarray":
    """Vectorized ``bits[lo..hi]``-slice folded to ``bits`` wide.

    The scalar fold (:func:`repro.core.features._fold_into`) XORs
    ``bits``-wide chunks until the slice is exhausted; a fixed
    ``ceil(width / bits)`` iteration count is equivalent because the
    remaining value is zero afterwards and XOR with zero is identity.
    """
    width = hi - lo + 1
    sliced = (source >> np.uint64(lo)) & np.uint64((1 << width) - 1)
    if width <= bits:
        return sliced.astype(np.int64)
    fold_mask = np.uint64((1 << bits) - 1)
    shift = np.uint64(bits)
    folded = np.zeros_like(sliced)
    for _ in range((width + bits - 1) // bits):
        folded ^= sliced & fold_mask
        sliced = sliced >> shift
    return folded.astype(np.int64)


@dataclass
class StreamColumns:
    """One stream lowered to typed columns, shared by every candidate.

    ``cols`` holds one ``int64`` array per shared slot in the batch
    engine's slot layout — slot 0 is the hashed PC when any feature
    XORs — so a per-candidate ``("slot", j)`` entry reads ``cols[j]``.
    """

    n: int
    blocks: Any
    set_idxs: Any
    tags: Any
    samp_idxs: Any
    prefetch: Any
    cols: List[Any]


def lower_stream(
    stream: Sequence[LLCAccess],
    pc_trace: Sequence[int],
    num_sets: int,
    stride: int,
    sampler_sets: int,
    tag_bits: int,
    slots: Sequence[Tuple],
    needs_h: bool,
) -> StreamColumns:
    """Lower ``stream`` into :class:`StreamColumns` for ``slots``.

    ``slots``/``needs_h`` come from the batch engine's
    :func:`~repro.sim.batch._build_programs`; each slot descriptor is
    ``("s"|"sx", (source, lo, hi, bits))`` with ``source`` one of
    ``pc``/``addr``/``off``/``pd<depth>``.
    """
    n = len(stream)
    pcs, blocks, offsets, mems = (
        stream_field(stream, name)
        for name in ("pc", "block", "offset", "mem_index"))
    prefetch = stream_field(stream, "is_prefetch", np.uint8)

    set_idxs = blocks & np.int64(num_sets - 1)
    ublocks = blocks.astype(np.uint64)
    tag_mask = np.uint64((1 << tag_bits) - 1)
    tags = ((ublocks ^ (ublocks >> np.uint64(tag_bits))
             ^ (ublocks >> np.uint64(2 * tag_bits)))
            & tag_mask).astype(np.int64)

    quotient = set_idxs // np.int64(stride)
    sampled = (set_idxs % np.int64(stride) == 0) & (quotient < sampler_sets)
    samp_idxs = np.where(sampled, quotient, np.int64(-1))

    hbase = history_base(mems, prefetch)
    hist = np.asarray(pc_trace, dtype=np.int64)

    hashed_pc = pc_hash_array(pcs, INDEX_BITS)

    sources: Dict[str, Any] = {}

    def source_array(name: str) -> "np.ndarray":
        known = sources.get(name)
        if known is not None:
            return known
        if name == "pc":
            value = pcs.astype(np.uint64)
        elif name == "addr":
            value = ((ublocks << np.uint64(BLOCK_OFFSET_BITS))
                     | offsets.astype(np.uint64))
        elif name == "off":
            value = offsets.astype(np.uint64)
        else:  # pd<depth>: PC-history probe, zero out of range
            value = past_pcs(hist, hbase, int(name[2:]))
        sources[name] = value
        return value

    static_cols: Dict[Tuple, Any] = {}
    cols: List[Any] = [hashed_pc] if needs_h else []
    for kind, raw in slots:
        value = static_cols.get(raw)
        if value is None:
            source, lo, hi, bits = raw
            value = _slice_and_fold_array(source_array(source), lo, hi,
                                          bits)
            static_cols[raw] = value
        if kind == "sx":
            value = (value ^ hashed_pc) & np.int64(_XOR_MASK)
        cols.append(value)

    return StreamColumns(
        n=n,
        blocks=blocks,
        set_idxs=set_idxs,
        tags=tags,
        samp_idxs=samp_idxs,
        prefetch=prefetch,
        cols=cols,
    )


# -- baseline predictors ----------------------------------------------------
#
# Perceptron and Hawkeye index their tables with hashes that depend only
# on the stream, never on cache state.  These lowerings compute them for
# a whole stream at once; the predictors' scalar methods
# (``PerceptronPredictor.feature_indices``, ``HawkeyePredictor._index``)
# remain the reference they must match bit for bit.  Both return
# ``None`` when a value does not fit ``int64``, and the caller then
# keeps hashing per access.


def perceptron_rows(stream: Sequence[LLCAccess], pc_trace: Sequence[int],
                    bits: int) -> Optional[List[List[int]]]:
    """``PerceptronPredictor.feature_indices`` for every access of
    ``stream``: one six-index row per access, as plain Python ints."""
    try:
        pcs, blocks, mems = (stream_field(stream, name)
                             for name in ("pc", "block", "mem_index"))
        prefetch = stream_field(stream, "is_prefetch", np.uint8)
        hist = np.asarray(pc_trace, dtype=np.int64)
    except OverflowError:
        return None
    hbase = history_base(mems, prefetch)
    columns = [pc_hash_array(pcs, bits)]
    for depth in (1, 2, 3):
        columns.append(hash_to_array(
            combine_array(past_pcs(hist, hbase, depth), depth), bits))
    for shift, salt in ((4, 4), (7, 5)):
        tags = (blocks >> np.int64(shift)).astype(np.uint64)
        columns.append(hash_to_array(combine_array(tags, salt), bits))
    return np.stack(columns, axis=1).tolist()


def pc_hash_column(stream: Sequence[LLCAccess],
                   bits: int) -> Optional[List[int]]:
    """``pc_hash(pc, bits)`` for every access of ``stream`` (Hawkeye's
    predictor index), as plain Python ints."""
    try:
        pcs = stream_field(stream, "pc")
    except OverflowError:
        return None
    return pc_hash_array(pcs, bits).tolist()
